"""One fresh benchmark process: set up one workload, time it, check it.

Run by ``run.py``; prints one JSON object as its last line of stdout.

    python3 perfbench/worker.py --role setup|measure --workload NAME --seed N
        --seconds S --trace 0|1 --t0 MONOTONIC_TIME_OF_SPAWN

``setup`` stops after the warm-up operation and reports the set-up time.
``measure`` then repeats whole passes over the workload's operation list
until ``--seconds`` have gone by (at least two passes, so every operation is
also rerun and its output compared byte for byte), reads the peak RSS, and
only then computes the references and checks the first pass's outputs.
With ``--trace 1`` the first half of the time runs untraced and the second
half traced, and the layer metrics replace the end-to-end ones.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import reference
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
MIN_PASSES = 2


def import_program():
    """Import consensuslab from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import consensuslab.cli

    where = os.path.dirname(os.path.abspath(consensuslab.cli.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"consensuslab was imported from {where}, not from {SRC}")
    return consensuslab.cli


def run_op(cli, op) -> tuple[int, int]:
    """Run one CLI invocation in-process; (exit code, bytes sent to stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed operation, not a dead run
            traceback.print_exc(file=sys.stderr)
            rc = -1
    return rc, len(out.getvalue().encode())


def read_outputs(op, keep_dir: str | None = None) -> dict[str, str]:
    """Output texts keyed by the operation's output paths; "" when missing.

    With ``keep_dir``, read the copies that ``timed_passes`` kept there.
    """
    texts = {}
    for path in op.outputs:
        src = path if keep_dir is None else os.path.join(keep_dir, os.path.basename(path))
        try:
            with open(src) as fh:
                texts[path] = fh.read()
        except OSError:
            texts[path] = ""
    return texts


def output_digest(op) -> tuple[str, int]:
    """SHA-256 of the operation's output files and their total size in bytes.

    Files are hashed in chunks, so the benchmark holds no output in memory
    and adds little to the process's peak RSS.
    """
    h = hashlib.sha256()
    nbytes = 0
    for path in op.outputs:
        h.update(b"\0file\0")
        try:
            with open(path, "rb") as fh:
                while chunk := fh.read(1 << 20):
                    h.update(chunk)
                    nbytes += len(chunk)
        except OSError:
            h.update(b"\0missing\0")
    return h.hexdigest(), nbytes


def timed_passes(cli, ops, seconds, keep_dir=None, tracer=None, first_pass=0):
    """Whole passes over ``ops`` until ``seconds`` elapse (at least MIN_PASSES).

    Returns per-pass records: wall time and, per operation, (seconds, exit
    code, output digest, output bytes).  With ``keep_dir``, the first pass's
    output files are copied there for the checks.  With an installed
    ``tracer``, each operation's spans are tagged ``(pass index, operation
    index)``, passes counted from ``first_pass``.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        records = []
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = (first_pass + len(passes), k)
            t = time.perf_counter()
            rc, stdout_bytes = run_op(cli, op)
            dt = time.perf_counter() - t
            # reading outputs back is the benchmark's work: outside the op's time
            dig, nbytes = output_digest(op)
            records.append((dt, rc, dig, stdout_bytes + nbytes))
            if not passes and keep_dir is not None:
                for path in op.outputs:
                    if os.path.exists(path):
                        shutil.copyfile(path, os.path.join(keep_dir, os.path.basename(path)))
        passes.append({"wall": sum(r[0] for r in records), "ops": records})
    return passes


def count_failures(ops, passes, check_messages) -> tuple[int, int]:
    """(attempted, failed) over every operation run in ``passes``.

    An operation fails when it exits non-zero, its outputs fail a check, or
    they differ byte for byte from the first pass's.
    """
    attempted = failed = 0
    ref_digest = [rec[2] for rec in passes[0]["ops"]]
    for p in passes:
        for k, (_, rc, dig, _) in enumerate(p["ops"]):
            attempted += 1
            if rc != 0 or check_messages[k] or dig != ref_digest[k]:
                failed += 1
    return attempted, failed


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def blas_threads() -> list:
    """Thread count of every OpenBLAS loaded in this process, as it reports it."""
    import ctypes

    counts = []
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    args = ap.parse_args(argv)

    run_dir = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        cli = import_program()
        ops = workloads.build_ops(args.workload, args.seed, run_dir)
        warm = workloads.warmup_op(args.workload, run_dir)
        warm_rc, _ = run_op(cli, warm)
        setup_s = time.monotonic() - args.t0
        if warm_rc != 0:
            print(f"warm-up operation exited {warm_rc}", file=sys.stderr)
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(cli, ops, args, run_dir)
        result["setup_s"] = setup_s
        result["machine"] = machine_facts()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(cli, ops, args, run_dir: str) -> dict:
    keep_dir = os.path.join(run_dir, "first-pass")
    os.makedirs(keep_dir)
    tracer = None
    if args.trace:
        plain = timed_passes(cli, ops, args.seconds / 2, keep_dir)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_passes(cli, ops, args.seconds / 2, tracer=tracer,
                                  first_pass=len(plain))
        finally:
            tracer.uninstall()
        passes = plain + traced
    else:
        passes = timed_passes(cli, ops, args.seconds, keep_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_check = time.perf_counter()
    messages = [reference.check(op, read_outputs(op, keep_dir)) for op in ops]
    check_s = time.perf_counter() - t_check
    for op, msgs in zip(ops, messages):
        for msg in msgs:
            print(f"check failed: {op.name}: {msg}", file=sys.stderr)
    attempted, failed = count_failures(ops, passes, messages)
    # correct: no operation that exited 0 produced an output that fails a check
    correct = not any(msgs and rec[1] == 0
                      for p in passes for msgs, rec in zip(messages, p["ops"]))

    if args.trace:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                       - statistics.median(p["wall"] for p in plain))
        metrics["cli.bytes_out"] = float(statistics.median(
            sum(rec[3] for rec in p["ops"]) for p in traced))
        metrics["simulate.steps_useful_ratio"] = tracing.rate(
            sum(op.case.get("trial_steps", 0) for op in ops
                if op.case.get("kind") == "simulate"),
            metrics["simulate.steps_done"])
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.jsonl"))
    else:
        op_times = [rec[0] for p in passes for rec in p["ops"]]
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "op_p50_ms": 1e3 * statistics.median(op_times),
            "peak_rss_mb": peak_rss_mb,
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "pass_walls": [p["wall"] for p in passes], "ops_per_pass": len(ops),
            "check_s": check_s, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
