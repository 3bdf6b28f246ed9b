"""Benchmark of the consensuslab CLI: one workload per invocation.

    python3 perfbench/run.py --workload exact|sweep|montecarlo --seed N
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Every measurement happens in fresh worker processes
(``worker.py``), each with ``BLAS_THREADS`` BLAS threads: with ``--trace 0``,
three that only set up and one that sets up and then measures, so
``setup_s`` is the median of four set-ups; with ``--trace 1``, one that
measures untraced and then traced.  Machine facts and a summary go to stdout; the last line is the
JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  Exit code 0 on a completed run, 2 on bad arguments or a
checkout without ``src/consensuslab``, 3 when a worker fails or times out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYER_UNITS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

BLAS_THREADS = 1
"""BLAS threads of each worker, set before it loads numpy; at most nproc on
any machine.  On a 2-core machine two OpenBLAS threads made
``analyze --family ring --n 200`` about twice as slow as one, and less steady."""

SETUP_ONLY_PROCESSES = 3
DEADLINE_S = 170.0
"""Every worker must end within this many seconds of the start."""

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def spawn(args, role: str, start: float) -> dict:
    """Run one worker to completion; its last stdout line is its JSON result."""
    argv = [sys.executable, WORKER, "--role", role, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    budget = DEADLINE_S - (time.monotonic() - start)
    if budget <= 0:
        raise TimeoutError("no time left for another worker")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], stdout=subprocess.PIPE, env=env,
                          text=True, timeout=budget, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{role} worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "consensuslab", "cli.py")):
        print(f"error: no consensuslab source under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        setups = [] if args.trace else [
            spawn(args, "setup", start)["setup_s"] for _ in range(SETUP_ONLY_PROCESSES)]
        result = spawn(args, "measure", start)
    except (subprocess.TimeoutExpired, TimeoutError, RuntimeError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [result["setup_s"]])

    m = result["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} blas_threads={m['blas_threads']}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops/pass={result['ops_per_pass']} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']} "
          f"checks={result['check_s']:.2f}s")
    print("pass walls (s): " + " ".join(f"{w:.3f}" for w in result["pass_walls"]))
    units = LAYER_UNITS if args.trace else E2E_UNITS
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} missing or unexpected",
              file=sys.stderr)
        return 3
    out = {}
    for name, unit in units.items():
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
