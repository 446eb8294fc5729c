"""Fixed reference kernels that gauge how fast the machine runs right now.

On a shared 2-CPU VM the same op's wall time drifts by 30-60% over tens of
seconds as neighbours load the host, far more than any bound a benchmark
could hold.  Each op is therefore timed next to a reference kernel, and
reported times are normalized: measured seconds * reference seconds /
kernel seconds, i.e. seconds on the reference machine.

Contention does not slow all code alike.  Interpreted code and small numpy
calls slow together; large LAPACK/BLAS calls slow differently.  So there is
one gauge for each, plus their sum for ops that mix both, and each workload
names the gauge its op is bound by (chosen over repeated runs: with the
wrong gauge, run-to-run spread of median latency was 2-8 times larger).  The
kernels never touch the library, so no change to the library can move them.
Raw wall times are reported beside the normalized ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import solve_triangular

_rng = np.random.default_rng(0)
_a = _rng.standard_normal((60, 60))
_SPD = _a @ _a.T + 60.0 * np.eye(60)
_LOWER = np.linalg.cholesky(_SPD[:12, :12])
_BLOCK = _rng.standard_normal((12, 20000))
_VALUES = _rng.uniform(0.1, 10.0, 40)
_LAMBDAS = np.linspace(0.01, 0.99, 200).tolist()


def interpreter_seconds() -> float:
    """Graph traversal over dicts and sets, then many small-array numpy calls."""
    start = time.perf_counter()
    adj = {}
    for i in range(1, 6000):
        adj.setdefault(i // 3, []).append((i, 0.5))
    seen, stack = set(), [0]
    while stack:
        for child, _ in adj.get(stack.pop(), ()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    for lam in _LAMBDAS:
        float(np.sum((1.0 - _VALUES) / ((1.0 - lam) + lam * _VALUES)))
    return time.perf_counter() - start


def linalg_seconds() -> float:
    """Small dense eigensolves, then triangular solves on a wide block."""
    start = time.perf_counter()
    for _ in range(10):
        np.linalg.eigvalsh(_SPD)
    for _ in range(2):
        solve_triangular(_LOWER, _BLOCK, lower=True)
    return time.perf_counter() - start


# Each gauge's median time on an uncontended 2-CPU Intel Xeon VM (Python
# 3.11, numpy 2.4, one BLAS thread).
GAUGES = {
    "interpreter": (interpreter_seconds, 0.0036),
    "linalg": (linalg_seconds, 0.004),
    "mixed": (lambda: interpreter_seconds() + linalg_seconds(), 0.0076),
}


def smoothed(kernel_times: list[float], width: int = 5) -> list[float]:
    """Running median over ``width`` neighbours, so one jittery kernel pass
    does not rescale its op."""
    half = width // 2
    return [
        statistics.median(kernel_times[max(0, i - half): i + half + 1])
        for i in range(len(kernel_times))
    ]


def normalize(seconds: list[float], kernel_times: list[float], gauge: str) -> list[float]:
    """Each time at reference speed, paired with the kernel pass before it."""
    reference_s = GAUGES[gauge][1]
    return [s * reference_s / k for s, k in zip(seconds, smoothed(kernel_times))]
