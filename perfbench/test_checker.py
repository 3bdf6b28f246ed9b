"""Tests of the benchmark's output checker and its failure count.

Small CLI operations, built by the same functions as the workloads, run
in-process.  Their genuine outputs must pass ``reference.check``; outputs
perturbed beyond its tolerances (delta_ss, K(P^2), a simulated mean), an
output that changes on a rerun, and a non-zero exit must each be counted as
a failed operation by ``worker.count_failures``.

    python3 -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import csv
import io
import json
import random

import pytest

import reference
import worker
import workloads


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The small operations and the texts of their genuine outputs."""
    cli = worker.import_program()
    run_dir = str(tmp_path_factory.mktemp("checker"))
    rng = random.Random("checker")
    ops = {
        "analyze": workloads.analyze_op(rng, run_dir, "a", ("random", 16, "lazy", "vector")),
        "analyze_sym": workloads.analyze_op(rng, run_dir, "b", ("ring", 12, "lazy", "scalar")),
        "sweep": workloads.sweep_op(rng, run_dir, "s", ("line", (12, 20), "uniform")),
        "simulate": workloads.simulate_op(
            rng, run_dir, "m", ("star", 8, "lazy", "gaussian", "vector", 600, 8, 100)),
        "formation": workloads.formation_op(rng, run_dir, "f", ("demo", 4, 400, 8, 1)),
    }
    texts = {}
    for key, op in ops.items():
        rc, _ = worker.run_op(cli, op)
        assert rc == 0, op.argv
        texts[key] = worker.read_outputs(op)
    return ops, texts


def failed_ops(ops, first_texts, rerun_texts=None, exit_codes=None):
    """(attempted, failed) as the benchmark counts them over one or two passes."""
    exit_codes = exit_codes or [0] * len(ops)
    messages = [reference.check(op, t) for op, t in zip(ops, first_texts)]
    passes = [{"ops": [(0.0, rc, digest(t), 0) for rc, t in zip(exit_codes, first_texts)]}]
    if rerun_texts is not None:
        passes.append({"ops": [(0.0, 0, digest(t), 0) for t in rerun_texts]})
    return worker.count_failures(ops, passes, messages)


def digest(texts: dict) -> str:
    return json.dumps(texts, sort_keys=True)


def edit_json(texts: dict, path: str, edit) -> dict:
    doc = json.loads(texts[path])
    edit(doc)
    return {**texts, path: json.dumps(doc)}


def test_genuine_outputs_pass(run):
    ops, texts = run
    for key, op in ops.items():
        assert reference.check(op, texts[key]) == [], key
    assert failed_ops(list(ops.values()), list(texts.values()),
                      list(texts.values())) == (2 * len(ops), 0)


@pytest.mark.parametrize("key", ["analyze", "analyze_sym"])
def test_delta_ss_beyond_tolerance_fails(run, key):
    ops, texts = run
    op = ops[key]
    (path,) = op.outputs
    rtol = reference.CLOSED_FORM_RTOL

    def scale(factor):
        def edit(doc):
            doc["delta_ss"] *= factor
        return edit

    inside = edit_json(texts[key], path, scale(1 + rtol / 10))
    outside = edit_json(texts[key], path, scale(1 + 10 * rtol))
    assert failed_ops([op], [inside]) == (1, 0)
    assert failed_ops([op], [outside]) == (1, 1)


def test_kemeny_p2_beyond_tolerance_fails(run):
    ops, texts = run
    op = ops["sweep"]
    (path,) = op.outputs
    lines = texts["sweep"][path].splitlines(keepends=True)
    header = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
    rows = list(csv.reader(lines[header:]))
    col = rows[0].index("kemeny_p2")
    rows[2][col] = repr(float(rows[2][col]) * (1 + 10 * reference.SWEEP_RTOL))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    bad = {path: "".join(lines[:header]) + buf.getvalue()}
    assert failed_ops([op], [bad]) == (1, 1)


@pytest.mark.parametrize("key, est_key", [("simulate", "delta_hat"),
                                          ("formation", "form_simulated")])
def test_simulated_mean_beyond_stderr_multiple_fails(run, key, est_key):
    ops, texts = run
    op = ops[key]
    summary = op.outputs[1]

    def shift(doc):
        doc[est_key] += 2 * reference.MC_STDERR_MULTIPLE * doc["stderr"]

    assert failed_ops([op], [edit_json(texts[key], summary, shift)]) == (1, 1)


def test_rerun_that_changes_output_fails(run):
    ops, texts = run
    op = ops["simulate"]
    trace = op.outputs[0]
    changed = {**texts["simulate"], trace: texts["simulate"][trace] + "\n"}
    assert failed_ops([op, op], [texts["simulate"]] * 2,
                      rerun_texts=[texts["simulate"], changed]) == (4, 1)


def test_nonzero_exit_fails(run):
    ops, texts = run
    op = ops["analyze"]
    assert failed_ops([op], [texts["analyze"]], exit_codes=[3]) == (1, 1)
