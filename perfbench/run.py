"""Benchmark of the ``chernoff`` CLI: one seeded workload per run.

    python3 perfbench/run.py --workload tree-pair-ci --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (``src/chernoff`` must exist; nothing
is installed).  A run

1. writes every op's input JSON from the seed (``workloads.py``);
2. launches SETUP_PROBES fresh interpreters that each run the workload's
   first op cold, and takes the median launch-to-end time as ``setup_s``;
3. launches one fresh worker interpreter that drives ``chernoff.cli.main``
   in a closed loop (one client, one process, no extra threads) for
   ``--seconds`` and then checks every op's output against ``oracle.py``;
4. prints a detail line (environment, tail percentile, error rate, oracle
   deviation), then, as the last line, ``{"correct", "attempted",
   "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the run untraced and half with ``tracer.py`` wrapping every layer's public
functions, and reports the per-layer metrics plus the tracing overhead.
Inputs, the detail record and the span file go to ``.perfbench_out/``.
Worker processes pin BLAS and OpenMP pools to one thread and run without
CHERNOFF_SEED; the parent only generates inputs and waits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7
# Every run must end within 180 s; child processes share what is left.
DEADLINE_S = 170.0
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trace.throughput_ops_s": "1/s",
    "trace.untraced_throughput_ops_s": "1/s",
    "trace.slowdown": "ratio",
    "trace.op_s": "s",
    "trace.spans_per_op": "count",
    "cli.self_s": "s",
    "cli.main_self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.errors": "count",
    "gaussian_tree.self_s": "s",
    "gaussian_tree.build_covariance_calls": "count",
    "gaussian_tree.build_covariance_self_s": "s",
    "gaussian_tree.validate_tree_calls": "count",
    "gaussian_tree.validate_tree_s": "s",
    "gaussian_tree.tree_from_json_self_s": "s",
    "gaussian_tree.covariance_from_matrix_calls": "count",
    "gaussian_tree.covariance_from_matrix_s": "s",
    "gaussian_tree.errors": "count",
    "geneig.self_s": "s",
    "geneig.generalized_eigenvalues_calls": "count",
    "geneig.generalized_eigenvalues_self_s": "s",
    "geneig.simultaneous_diagonalizer_calls": "count",
    "geneig.simultaneous_diagonalizer_self_s": "s",
    "geneig.errors": "count",
    "divergence.self_s": "s",
    "divergence.chernoff_information_self_s": "s",
    "divergence.chernoff_from_spectrum_calls": "count",
    "divergence.chernoff_from_spectrum_s": "s",
    "divergence.solver_iterations_per_solve": "count",
    "divergence.solver_iterations_max": "count",
    "divergence.errors": "count",
    "tree_ops.self_s": "s",
    "tree_ops.apply_graft_calls": "count",
    "tree_ops.apply_graft_self_s": "s",
    "tree_ops.make_chain_self_s": "s",
    "tree_ops.chain_pairwise_chernoff_self_s": "s",
    "tree_ops.is_independent_chain_s": "s",
    "tree_ops.verify_partial_ordering_self_s": "s",
    "tree_ops.nested_checks": "count",
    "tree_ops.errors": "count",
    "dimred.self_s": "s",
    "dimred.candidate_reductions_self_s": "s",
    "dimred.reduced_pair_calls": "count",
    "dimred.reduced_pair_self_s": "s",
    "dimred.pca_baseline_s": "s",
    "dimred.errors": "count",
    "simulate.self_s": "s",
    "simulate.estimate_error_exponent_self_s": "s",
    "simulate.triangular_solve_calls": "count",
    "simulate.triangular_solve_s": "s",
    "simulate.min_pairwise_chernoff_s": "s",
    "simulate.simulation_config_from_json_s": "s",
    "simulate.errors": "count",
}


class BenchmarkError(Exception):
    """The run cannot produce a result."""


def _child(mode: str, plan_path: str, deadline: float) -> tuple[float, dict]:
    """Launch a fresh worker interpreter; (launch time, its JSON reply)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("CHERNOFF_SEED", None)
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, plan_path],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"worker {mode} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {mode} exited with {proc.returncode}")
    return launched, json.loads(stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples above it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def git_commit(root: str) -> str | None:
    """HEAD of ``root`` read from .git without running git, or None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            return next((line.split()[0] for line in handle if line.rstrip().endswith(ref)), None)
    except OSError:
        return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "chernoff", "cli.py")):
        raise BenchmarkError(f"no chernoff sources under {ROOT}/src; run from a source checkout")
    definition = workloads.WORKLOADS[workload]
    out = os.path.join(OUT, workload)
    shutil.rmtree(out, ignore_errors=True)
    ops = workloads.generate(workload, seed, os.path.join(out, "inputs"))
    plan_path = os.path.join(out, "plan.json")
    with open(plan_path, "w") as handle:
        json.dump({"workload": workload, "ops": ops, "seconds": seconds, "trace": trace,
                   "gauge": definition.gauge, "spans_path": os.path.join(out, "spans.csv")},
                  handle)

    setups, setup_kernels = [], []
    probe_failures = 0
    for _ in range(SETUP_PROBES):
        launched, reply = _child("probe", plan_path, deadline)
        setups.append(reply["end"] - launched)
        setup_kernels.append(reply["kernel_s"])
        probe_failures += reply["exit"] != 0
    _, result = _child("measure", plan_path, deadline)

    attempted = result["attempted"] + SETUP_PROBES
    failed = len(result["failures"]) + probe_failures
    steady = result["phases"][0]
    latencies = reference.normalize(steady["latencies_s"], steady["kernel_s"], definition.gauge)
    throughput = len(latencies) / sum(latencies)
    tail_s, tail_pct, tail_beyond = tail(latencies)
    if trace:
        traced = reference.normalize(result["phases"][1]["latencies_s"],
                                     result["phases"][1]["kernel_s"], definition.gauge)
        metrics = dict(result["layers"])
        metrics.update({
            "trace.throughput_ops_s": len(traced) / sum(traced),
            "trace.untraced_throughput_ops_s": throughput,
            "trace.slowdown": statistics.fmean(traced) * throughput,
            "trace.op_s": statistics.fmean(result["phases"][1]["latencies_s"]),
        })
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(
                reference.normalize(setups, setup_kernels, "interpreter")),
            "throughput_ops_s": throughput,
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    detail = {
        "workload": workload,
        "command": definition.command,
        "sizes": definition.sizes,
        "trace": trace,
        "gauge": definition.gauge,
        "raw": {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": len(latencies) / sum(steady["latencies_s"]),
            "latency_p50_ms": 1e3 * statistics.median(steady["latencies_s"]),
            "latency_tail_ms": 1e3 * tail(steady["latencies_s"])[0],
            "kernel_p50_s": statistics.median(steady["kernel_s"]),
        },
        "setup_samples_s": setups,
        "latency_tail": {"percentile": tail_pct, "samples": len(latencies),
                         "samples_beyond": tail_beyond},
        "error_rate": failed / attempted,
        "failures": result["failures"],
        "max_oracle_deviation": result["max_oracle_deviation"],
        "env": dict(result["env"], git_commit=git_commit(ROOT), seed=seed,
                    ops_per_run=steady["ops"]),
        "phases": [{"traced": p["traced"], "ops": p["ops"]} for p in result["phases"]],
    }
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(out, "result.json"), "w") as handle:
        json.dump({"detail": detail, "summary": summary}, handle, indent=1)
    return detail, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
