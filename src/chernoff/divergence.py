"""KL divergence, the exponential-family interpolant, and Chernoff information.

All divergences are in nats.  For zero-mean Gaussians with SPD covariances
S1, S2 of dimension N:

    D(S1||S2) = 0.5 ln(|S2|/|S1|) + 0.5 tr(S2^{-1} S1) - N/2

The interpolant S_t is defined through its precision,

    S_t^{-1} = (1-t) S1^{-1} + t S2^{-1},    t in [0, 1],

so S_0 = S1 and S_1 = S2.  Chernoff information is the common value
D(S_{t*}||S1) = D(S_{t*}||S2) at the unique balance point t*.  (The
opposite weighting of t is equally common in the literature; this one is
the orientation used by the reference values reproduced in the tests.)

In the joint eigenbasis everything collapses to sums over the generalized
eigenvalues v_i of (S1, S2), with u_i(t) = (1-t) + t v_i:

    D(S_t||S1) = 0.5 sum_i [ ln u_i + 1/u_i - 1 ]
    D(S_t||S2) = 0.5 sum_i [ ln(u_i/v_i) + v_i/u_i - 1 ]

so t* is the root of h(t) = D(S_t||S1) - D(S_t||S2), a strictly increasing
function with h(0) = -D(S1||S2) <= 0 <= D(S2||S1) = h(1).  One solver finds
it for an (R, N) stack of spectra at once, and a single spectrum is the
stack with R = 1: safeguarded Newton from t = 1/2 (h' is available in
closed form), where a step that leaves the bracket becomes a bisection
step; ``solve_lambda_star`` gives the details.  It takes about 5 steps;
bisection alone would take over 40.  The Chernoff value is evaluated as

    CI = 0.5 sum_i ln(t* sqrt(v_i) + (1-t*)/sqrt(v_i)) + 0.5 (1/2 - t*) ln(beta)

with beta = prod v_i.  At the balance point the identity
sum_i 1/u_i = N - t* ln(beta) holds exactly, as h(t*) = 0 rearranged; the
solver never evaluates it, and the residual it reports is |h(t*)|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NumericDomainError,
)
from .gaussian_tree import CovarianceMatrix, as_covariance, covariance_from_matrix, spd_factor
from .geneig import (
    UNIT_EIGENVALUE_TOL,
    EigenSpectrum,
    _coerce_pair,
    generalized_eigenvalues,
)

STEP_TOL = 1e-14
MAX_ITERATIONS = 100


@dataclass(frozen=True)
class ChernoffResult:
    """Chernoff information with the balance point and solver diagnostics.

    ``residual`` is |D(S_t*||S1) - D(S_t*||S2)| at the returned balance
    point; ``iterations`` counts the solver's steps from t = 1/2 (Newton
    or bisection, one evaluation of h each), 0 when h(1/2) is exactly 0;
    ``degenerate`` marks an all-unit spectrum, for which the balance
    point is not unique and is reported as 0.5 by convention.
    """

    ci: float
    lambda_star: float
    spectrum: EigenSpectrum
    iterations: int
    residual: float
    degenerate: bool = False


def kl_divergence(sigma1, sigma2) -> float:
    """D(N(0,sigma1) || N(0,sigma2)) in nats, clamped at zero.

    Determinants and the trace term use the Cholesky factors kept on the
    covariances; no explicit inverse is formed.
    """
    c1, c2 = _coerce_pair(sigma1, sigma2)
    trace = float(np.trace(cho_solve((c2.chol, True), c1.matrix)))
    return max(0.0, 0.5 * (c2.logdet - c1.logdet + trace - c1.dim))


def kl_from_spectrum(spectrum: EigenSpectrum, direction: str = "forward") -> float:
    """KL divergence from the generalized eigenvalues alone.

    ``forward`` gives D(S1||S2) = 0.5 sum(-ln v + v - 1); ``reverse`` gives
    D(S2||S1) = 0.5 sum(ln v + 1/v - 1).
    """
    v = spectrum.values
    if direction == "forward":
        total = float(np.sum(-np.log(v) + v - 1.0))
    elif direction == "reverse":
        total = float(np.sum(np.log(v) + 1.0 / v - 1.0))
    else:
        raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")
    return max(0.0, 0.5 * total)


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise NumericDomainError(
            f"lambda must lie in [0, 1], got {lam}", code="lambda_out_of_range"
        )


def sigma_lambda(sigma1, sigma2, lam: float) -> CovarianceMatrix:
    """Interpolant with precision (1-t) S1^{-1} + t S2^{-1}; SPD on [0, 1]."""
    c1, c2 = _coerce_pair(sigma1, sigma2)
    _check_lambda(lam)
    eye = np.eye(c1.dim)
    inv1 = cho_solve((c1.chol, True), eye)
    inv2 = cho_solve((c2.chol, True), eye)
    mix = (1.0 - lam) * inv1 + lam * inv2
    _, chol = spd_factor(0.5 * (mix + mix.T), name="mixed precision")
    out = cho_solve((chol, True), eye)
    return covariance_from_matrix(0.5 * (out + out.T), name="sigma_lambda")


def kl_interpolant_divergences(spectrum: EigenSpectrum, lam: float) -> tuple[float, float]:
    """(D(S_t||S1), D(S_t||S2)) in the joint eigenbasis at t = lam."""
    _check_lambda(lam)
    v = spectrum.values
    u = (1.0 - lam) + lam * v
    d1 = 0.5 * float(np.sum(np.log(u) + 1.0 / u - 1.0))
    d2 = 0.5 * float(np.sum(np.log(u / v) + v / u - 1.0))
    return max(0.0, d1), max(0.0, d2)


class StackSolution(NamedTuple):
    """Per-row solver output for an (R, N) stack of spectra."""

    ci: np.ndarray
    lambda_star: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    degenerate: np.ndarray


def _balance(lam: np.ndarray, values: np.ndarray, log_beta: np.ndarray):
    """Per row, h(t) = D(S_t||S1) - D(S_t||S2) and its slope h'(t) > 0."""
    u = (1.0 - lam)[:, None] + lam[:, None] * values
    ratio = (1.0 - values) / u
    return 0.5 * (log_beta + ratio.sum(axis=1)), 0.5 * (ratio * ratio).sum(axis=1)


def solve_lambda_star(values, unit_tol: float = UNIT_EIGENVALUE_TOL) -> StackSolution:
    """Balance point and Chernoff information of every row of a spectrum stack.

    A row with h(1/2) > 0 is solved as its reciprocal spectrum 1/v, whose
    balance point is 1 - t*, so a spectrum and its reciprocal share every
    rounding.  In that orientation the smallest eigenvalue v_1 puts a pole
    of h at t = 1/(1 - v_1) just right of [0, 1]; Newton is applied to
    g = u_1 h, with u_1 = 1 + t (v_1 - 1) > 0, which has the roots and signs
    of h but no pole.  From t = 1/2 each row keeps a bracket
    h(lo) < 0 <= h(hi).  A Newton step that leaves the bracket, or that is
    longer than half the previous step, becomes a bisection step.  A row
    stops when its step is at most STEP_TOL or h is exactly 0.  All-unit
    rows are marked degenerate and skipped.
    """
    values = np.ascontiguousarray(np.atleast_2d(values), dtype=float)
    rows = values.shape[0]
    degenerate = np.all(np.abs(values - 1.0) <= unit_tol, axis=1)
    log_beta = np.log(values).sum(axis=1)
    with np.errstate(over="ignore"):  # an infinite h(0) or h(1) still brackets
        h_lo = 0.5 * (log_beta + (1.0 - values).sum(axis=1))
        h_hi = 0.5 * (log_beta + ((1.0 - values) / values).sum(axis=1))
    bad = ~degenerate & ((h_lo > 0.0) | (h_hi < 0.0))
    if bad.any():
        r = int(np.argmax(bad))
        raise NumericDomainError(
            f"balance residual does not bracket a root: h(0)={h_lo[r]}, h(1)={h_hi[r]}",
            code="bracketing_violated",
        )
    lam = np.full(rows, 0.5)
    h, slope = _balance(lam, values, log_beta)
    flip = h > 0.0
    if flip.any():
        values = np.where(flip[:, None], 1.0 / values[:, ::-1], values)
        log_beta = np.log(values).sum(axis=1)
        h, slope = _balance(lam, values, log_beta)
    a_1 = values.min(axis=1) - 1.0
    lo, hi, last_step = np.zeros(rows), np.ones(rows), np.ones(rows)
    iterations = np.zeros(rows, dtype=int)
    active = ~degenerate & (h != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # all-unit rows give 0/0
        for _ in range(MAX_ITERATIONS):
            if not active.any():
                break
            lo = np.where(h < 0.0, lam, lo)
            hi = np.where(h > 0.0, lam, hi)
            u_1 = 1.0 + lam * a_1
            newton = lam - u_1 * h / (u_1 * slope + a_1 * h)
            ok = (lo <= newton) & (newton <= hi)
            ok &= 2.0 * np.abs(newton - lam) <= last_step
            step_to = np.where(active, np.where(ok, newton, 0.5 * (lo + hi)), lam)
            last_step = np.abs(step_to - lam)
            lam = step_to
            iterations += active
            h, slope = _balance(lam, values, log_beta)
            active &= (last_step > STEP_TOL) & (h != 0.0)
        else:
            if active.any():
                raise NumericDomainError(
                    f"lambda* solver did not converge in {MAX_ITERATIONS} steps",
                    code="solver_not_converged",
                )
    root = np.sqrt(values)
    ci = 0.5 * np.log(lam[:, None] * root + (1.0 - lam[:, None]) / root).sum(axis=1)
    ci += 0.5 * (0.5 - lam) * log_beta
    return StackSolution(
        ci=np.where(degenerate, 0.0, np.maximum(ci, 0.0)),
        lambda_star=np.where(flip, 1.0 - lam, lam),  # 0.5 on degenerate rows
        iterations=iterations,
        residual=np.where(degenerate, 0.0, np.abs(h)),
        degenerate=degenerate,
    )


def lambda_star(spectrum: EigenSpectrum, unit_tol: float = UNIT_EIGENVALUE_TOL) -> float:
    """Unique t in [0,1] with D(S_t||S1) = D(S_t||S2).

    Raises DegenerateSpectrum when every eigenvalue is unit (any t works).
    """
    solution = solve_lambda_star(spectrum.values, unit_tol)
    if solution.degenerate[0]:
        raise DegenerateSpectrum(
            "all eigenvalues are unit; every lambda balances the divergences"
        )
    return float(solution.lambda_star[0])


def balance_equation_residual(spectrum: EigenSpectrum, lam: float) -> float:
    """Residual of sum_i 1/u_i = N - t ln(beta) at t = lam.

    It equals 2 lam h(lam), so it is zero exactly at the balance point.
    The solver never evaluates it; ``ChernoffResult.residual`` is |h(t*)|.
    """
    v = spectrum.values
    u = (1.0 - lam) + lam * v
    return float(np.sum(1.0 / u) - (v.size - lam * np.sum(np.log(v))))


def chernoff_from_spectra(
    spectra, unit_tol: float = UNIT_EIGENVALUE_TOL
) -> list[ChernoffResult]:
    """Chernoff information of equal-dimension spectra, solved as one stack.

    Each result is the one ``chernoff_from_spectrum`` gives for that
    spectrum alone, bit for bit.
    """
    spectra = list(spectra)
    if len({s.dim for s in spectra}) > 1:
        raise DimensionMismatch("spectra solved together must share one dimension")
    if not spectra:
        return []
    solution = solve_lambda_star(np.stack([s.values for s in spectra]), unit_tol)
    return [
        ChernoffResult(
            ci=float(solution.ci[r]),
            lambda_star=float(solution.lambda_star[r]),
            spectrum=spectrum,
            iterations=int(solution.iterations[r]),
            residual=float(solution.residual[r]),
            degenerate=bool(solution.degenerate[r]),
        )
        for r, spectrum in enumerate(spectra)
    ]


def chernoff_from_spectrum(
    spectrum: EigenSpectrum, unit_tol: float = UNIT_EIGENVALUE_TOL
) -> ChernoffResult:
    """Chernoff information from generalized eigenvalues.

    An all-unit spectrum yields CI = 0 with lambda* = 0.5 and the
    ``degenerate`` flag set instead of an error.
    """
    return chernoff_from_spectra([spectrum], unit_tol)[0]


def chernoff_information(
    sigma1, sigma2, unit_tol: float = UNIT_EIGENVALUE_TOL
) -> ChernoffResult:
    """Chernoff information of an SPD covariance pair; symmetric in its arguments."""
    return chernoff_from_spectrum(generalized_eigenvalues(sigma1, sigma2), unit_tol)


def pairwise_chernoff(models) -> dict[tuple[int, int], ChernoffResult]:
    """Chernoff result of every model pair (a, b) with a < b, 0-based.

    Each model (a tree, a matrix or a CovarianceMatrix) is coerced once,
    and the spectra of all pairs are solved for lambda* as one stack.
    """
    covs = [as_covariance(m, name=f"model {idx}") for idx, m in enumerate(models)]
    pairs = [(a, b) for a in range(len(covs)) for b in range(a + 1, len(covs))]
    spectra = [generalized_eigenvalues(covs[a], covs[b]) for a, b in pairs]
    return dict(zip(pairs, chernoff_from_spectra(spectra)))
