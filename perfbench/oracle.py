"""Independent oracle and output checks, built from numpy and scipy only.

Nothing here imports the library.  Covariances come from a parent-array
recursion (row(v) = w_v * row(parent(v))) instead of the library's
per-source traversal, spectra from ``scipy.linalg.eigh(S1, S2)`` instead of
explicit whitening, and the balance point from ``brentq`` on the difference
of the two interpolant divergences instead of bisection plus Newton on the
balance residual.  Chernoff information is then D(S_t*||S1) itself.

Every ``check_*`` function takes the op's argv and its parsed CLI output and
returns (problems, deviation): a list of failed checks, empty when the
output is correct, and the largest relative oracle deviation seen, which is
reported for information only.
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import brentq

# The CLI prints 12 significant digits; the oracle agrees with the library to
# about 1e-11 relative on these sizes, so 1e-8 leaves room without hiding a
# wrong spectrum or balance point.
CI_RTOL = 1e-8
LAMBDA_ATOL = 1e-8
UNIT_TOL = 1e-8
# Independent chains balance exactly at 1/2; the library's ordering slack.
MIDPOINT_ATOL = 1e-9
# Optimality of the dimension reduction, allowing for 12-digit rounding.
ORDER_RTOL = 1e-10


def _load(path: str):
    with open(path) as handle:
        return json.load(handle)


def tree_covariance(tree: dict) -> np.ndarray:
    """Dense covariance of a normalized tree by breadth-first parent recursion."""
    n = tree["nodes"]
    adj = [[] for _ in range(n)]
    for i, j, w in tree["edges"]:
        adj[i - 1].append((j - 1, w))
        adj[j - 1].append((i - 1, w))
    cov = np.eye(n)
    placed = [0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        parent = queue.popleft()
        for child, w in adj[parent]:
            if seen[child]:
                continue
            seen[child] = True
            row = w * cov[parent, placed]
            cov[child, placed] = row
            cov[placed, child] = row
            placed.append(child)
            queue.append(child)
    if not seen.all():
        raise ValueError("tree is not connected")
    return cov


def spectrum(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Ascending generalized eigenvalues of (S1, S2)."""
    return eigh(s1, s2, eigvals_only=True)


def _divergences(t: float, v: np.ndarray) -> tuple[float, float]:
    """(D(S_t||S1), D(S_t||S2)) in the joint eigenbasis."""
    u = (1.0 - t) + t * v
    d1 = 0.5 * float(np.sum(np.log(u) + 1.0 / u - 1.0))
    d2 = 0.5 * float(np.sum(np.log(u / v) + v / u - 1.0))
    return d1, d2


def chernoff(values) -> tuple[float, float]:
    """(CI, lambda*) from a generalized spectrum; (0, 1/2) when all are unit."""
    v = np.asarray(values, dtype=float)
    if np.all(np.abs(v - 1.0) <= UNIT_TOL):
        return 0.0, 0.5
    lam = brentq(lambda t: np.subtract(*_divergences(t, v)), 0.0, 1.0,
                 xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=200)
    return max(0.0, _divergences(lam, v)[0]), lam


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def check_tree_pair_ci(argv, result):
    payload = result["payload"]
    s1 = tree_covariance(_load(argv[1]))
    s2 = tree_covariance(_load(argv[2]))
    ci, lam = chernoff(spectrum(s1, s2))
    ci_dev = _rel(payload["ci"], ci)
    lam_dev = abs(payload["lambda_star"] - lam)
    problems = []
    if ci_dev > CI_RTOL:
        problems.append(f"ci {payload['ci']} vs oracle {ci}")
    if lam_dev > LAMBDA_ATOL:
        problems.append(f"lambda* {payload['lambda_star']} vs oracle {lam}")
    return problems, max(ci_dev, lam_dev)


def check_graft_chain(argv, result):
    payload = result["payload"]
    chain = _load(argv[1])
    trees = len(chain["ops"]) + 1
    problems = []
    if payload["tree_count"] != trees:
        problems.append(f"tree_count {payload['tree_count']} != {trees}")
    if not payload["independent"]:
        problems.append("chain reported dependent")
    if payload["ordering"]["status"] != "pass":
        problems.append(f"ordering status {payload['ordering']['status']}")
    stars = payload["lambda_stars"]
    if len(stars) != trees * (trees - 1) // 2:
        problems.append(f"{len(stars)} lambda* values for {trees} trees")
    deviation = max((abs(v - 0.5) for v in stars.values()), default=0.0)
    if deviation > MIDPOINT_ATOL:
        problems.append(f"lambda* off 1/2 by {deviation}")
    return problems, deviation


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def check_dimred_random(argv, result):
    payload = result["payload"]
    s1 = np.asarray(_load(argv[1]), dtype=float)
    s2 = np.asarray(_load(argv[2]), dtype=float)
    n_out = int(_flag(argv, "--n-out"))
    v = spectrum(s1, s2)
    n = v.size
    m = int(np.sum(v > 1.0 + 1e-12))
    best = max(
        chernoff(np.concatenate([v[: n_out - k], v[n - k:]]))[0]
        for k in range(max(n_out + m - n, 0), min(m, n_out) + 1)
    )
    ci = payload["ci"]
    deviation = _rel(ci, best)
    problems = []
    if deviation > CI_RTOL:
        problems.append(f"optimal ci {ci} vs oracle {best}")
    for key in ("pca_ci", "random_projection_best_ci"):
        if ci < payload[key] - ORDER_RTOL * max(1.0, ci):
            problems.append(f"optimal ci {ci} below {key} {payload[key]}")
    if payload["random_projection_count"] != int(_flag(argv, "--compare-random")):
        problems.append("random_projection_count does not match --compare-random")
    return problems, deviation


def check_simulate_exponent(argv, result):
    payload = result["payload"]
    config = _load(argv[1])
    covs = [tree_covariance(m) for m in config["models"]]
    predicted = min(
        chernoff(spectrum(covs[a], covs[b]))[0]
        for a in range(len(covs))
        for b in range(a + 1, len(covs))
    )
    deviation = _rel(payload["predicted_exponent"], predicted)
    problems = []
    if deviation > CI_RTOL:
        problems.append(f"predicted {payload['predicted_exponent']} vs oracle {predicted}")
    trials = config["trials"]
    if payload["trials"] != trials:
        problems.append(f"trials {payload['trials']} != {trials}")
    if payload["t_grid"] != config["t_grid"]:
        problems.append("t_grid differs from the config")
    counts, rates = payload["error_counts"], payload["error_rates"]
    if len(counts) != len(config["t_grid"]) or len(rates) != len(counts):
        problems.append("one error count and rate per length expected")
    for count, rate in zip(counts, rates):
        if not 0 <= count <= trials or abs(rate - count / trials) > 1e-11:
            problems.append(f"count {count} and rate {rate} disagree with {trials} trials")
            break
    return problems, deviation


CHECKS = {
    "tree-pair-ci": check_tree_pair_ci,
    "graft-chain": check_graft_chain,
    "dimred-random": check_dimred_random,
    "simulate-exponent": check_simulate_exponent,
}


def check_output(workload: str, argv, exit_code: int, stdout: str):
    """Problems and oracle deviation for one op's exit code and stdout."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], 0.0
    try:
        result = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"], 0.0
    if result.get("status") != "ok":
        return [f"status {result.get('status')}: {result.get('payload')}"], 0.0
    try:
        return CHECKS[workload](argv, result)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed payload: {type(exc).__name__}: {exc}"], 0.0
