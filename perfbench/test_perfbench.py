"""Self-tests of the benchmark: python -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, span_stats  # noqa: E402
from worker import run_op  # noqa: E402

from chernoff import cli  # noqa: E402


def _chernoff_namespaces():
    return {k: m for k, m in sys.modules.items() if k == "chernoff" or k.startswith("chernoff.")}


@pytest.fixture(scope="module")
def one_op_each(tmp_path_factory):
    base = tmp_path_factory.mktemp("inputs")
    return {
        name: workloads.generate(name, 11, str(base / name), count=2)[1]
        for name in workloads.WORKLOADS
    }


def test_oracle_reproduces_criterion_1_reference_row():
    ci, lam = oracle.chernoff([9.2341, 0.1019, 1.2982, 0.8185, 1, 1, 1])
    assert lam == pytest.approx(0.5073, abs=5e-4)
    assert ci == pytest.approx(0.5402, abs=1e-3)


def test_oracle_tree_covariance_is_the_path_product():
    tree = {"nodes": 4, "edges": [[1, 2, 0.5], [2, 3, -0.4], [2, 4, 0.8]]}
    cov = oracle.tree_covariance(tree)
    assert cov[0, 2] == pytest.approx(0.5 * -0.4)
    assert cov[2, 3] == pytest.approx(-0.4 * 0.8)
    assert cov[3, 0] == pytest.approx(0.8 * 0.5)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_pass_the_oracle_and_a_wrong_answer_fails(name, one_op_each):
    argv = one_op_each[name]
    _, code, stdout = run_op(cli, argv)
    problems, _ = oracle.check_output(name, argv, code, stdout)
    assert problems == []
    result = json.loads(stdout)
    key = {"tree-pair-ci": "ci", "graft-chain": "ordering", "dimred-random": "ci",
           "simulate-exponent": "predicted_exponent"}[name]
    if key == "ordering":
        result["payload"]["ordering"]["status"] = "fail"
    else:
        result["payload"][key] *= 1.001
    problems, _ = oracle.check_output(name, argv, 0, json.dumps(result))
    assert problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_stdout_are_byte_identical(name, one_op_each):
    argv = one_op_each[name]
    _, _, plain = run_op(cli, argv)
    with Tracer() as tracer:
        _, _, traced = run_op(cli, argv)
    assert tracer.spans
    assert traced == plain


def test_wrapping_leaves_no_rebinding_behind(one_op_each):
    before = {k: dict(vars(m)) for k, m in _chernoff_namespaces().items()}
    with Tracer() as tracer:
        assert cli.main is not before["chernoff.cli"]["main"]
        run_op(cli, one_op_each["graft-chain"])
    assert tracer.spans
    after = {k: dict(vars(m)) for k, m in _chernoff_namespaces().items()}
    assert after.keys() == before.keys()
    for key, namespace in before.items():
        assert after[key].keys() == namespace.keys()
        changed = [a for a, obj in namespace.items() if after[key][a] is not obj]
        assert changed == [], key


def test_every_self_time_is_non_negative(one_op_each):
    with Tracer() as tracer:
        for argv in one_op_each.values():
            run_op(cli, argv)
    child = {}
    for _, parent, _, start, end, _, _ in tracer.spans:
        child[parent] = child.get(parent, 0) + end - start
    for span_id, _, name, start, end, _, _ in tracer.spans:
        assert end - start - child.get(span_id, 0) >= 0, name
    assert all(entry[2] >= 0 for entry in span_stats(tracer.spans).values())


def test_generator_is_deterministic(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 5, str(tmp_path / "a" / name), count=2)
        second = workloads.generate(name, 5, str(tmp_path / "b" / name), count=2)
        for argv_a, argv_b in zip(first, second):
            files_a = [p for p in argv_a if p.endswith(".json")]
            files_b = [p for p in argv_b if p.endswith(".json")]
            assert [Path(p).read_bytes() for p in files_a] == [Path(p).read_bytes() for p in files_b]


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(1, 41)])
    assert (value, percentile, beyond) == (30.0, 75.0, run.TAIL_BEYOND)
    assert sum(v > value for v in range(1, 41)) == beyond
    assert run.tail([2.0, 1.0]) == (2.0, 100.0, 0)


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
