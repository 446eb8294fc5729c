"""One workload run in a fresh interpreter, driving ``chernoff.cli.main``.

    python3 perfbench/worker.py probe PLAN    # run op 0 cold, print when it ended
    python3 perfbench/worker.py measure PLAN  # the timed closed loop, then checks

PLAN is the JSON file ``run.py`` writes: the workload name, every op's
argv, the run length and whether to trace.  Stdout and stderr of each op
are captured; the worker's own stdout carries one JSON object.  A probe
imports nothing but the standard library and ``chernoff.cli`` before its
op ends, so its end time minus the launch time is what one ``chernoff``
command costs a user.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def run_op(cli, argv):
    """(latency s, exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return time.perf_counter() - start, code, out.getvalue()


def probe(plan) -> dict:
    """Run op 0 cold; then, untimed, gauge the machine for normalizing."""
    from chernoff import cli

    _, code, _ = run_op(cli, plan["ops"][0])
    end = time.monotonic()
    import statistics

    from reference import interpreter_seconds

    kernel = statistics.median(interpreter_seconds() for _ in range(3))
    return {"end": end, "exit": code, "kernel_s": kernel}


def _loop(cli, ops, first, budget, kernel_seconds, tracer=None):
    """Run ops from index ``first`` until ``budget`` seconds have passed.

    Each op is preceded by one pass of the reference kernel, whose time is
    recorded with the op's: (index, latency, exit code, stdout, kernel s).
    """
    records = []
    start = time.perf_counter()
    index = first
    while index < len(ops) and time.perf_counter() - start < budget:
        kernel = kernel_seconds()
        if tracer is not None:
            tracer.op_id = index
        records.append((index,) + run_op(cli, ops[index]) + (kernel,))
        index += 1
    return records


def measure(plan) -> dict:
    import resource

    from chernoff import cli
    from reference import GAUGES

    ops, seconds, workload = plan["ops"], plan["seconds"], plan["workload"]
    kernel_seconds = GAUGES[plan["gauge"]][0]
    records = [(0,) + run_op(cli, ops[0]) + (None,)]  # cold op, not a latency sample
    phases = []

    def phase(budget, tracer=None):
        done = _loop(cli, ops, records[-1][0] + 1, budget, kernel_seconds, tracer)
        phases.append({"traced": tracer is not None, "ops": len(done),
                       "latencies_s": [r[1] for r in done], "kernel_s": [r[4] for r in done]})
        records.extend(done)
        return done

    tracer = None
    if plan["trace"]:
        from tracer import Tracer, layer_metrics

        phase(seconds / 2)
        with Tracer() as tracer:
            traced = phase(seconds / 2, tracer)
    else:
        phase(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Everything below is outside the timed region.
    import oracle

    failures = {}
    max_deviation = 0.0
    for index, _, code, stdout, _ in records:
        problems, deviation = oracle.check_output(workload, ops[index], code, stdout)
        max_deviation = max(max_deviation, deviation)
        if problems:
            failures[index] = problems
    index, _, _, first_stdout, _ = records[1] if len(records) > 1 else records[0]
    if run_op(cli, ops[index])[2] != first_stdout:
        failures.setdefault(index, []).append("rerun with the same inputs gave other bytes")

    result = {
        "attempted": len(records),
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "max_oracle_deviation": max_deviation,
        "phases": phases,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if tracer is not None:
        n = max(1, len(traced))
        layers = layer_metrics(tracer, n)
        layers["cli.output_bytes"] = sum(len(r[3].encode()) for r in traced) / n
        result["layers"] = layers
        tracer.write(plan["spans_path"])
    return result


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


if __name__ == "__main__":
    mode, plan_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as handle:
        plan = json.load(handle)
    print(json.dumps(probe(plan) if mode == "probe" else measure(plan)))
