"""Classification-oriented linear dimension reduction.

In the joint eigenbasis of an SPD pair the variables decouple: under the
second hypothesis each transformed coordinate is N(0,1), under the first
N(0, v_i) with v_i the corresponding generalized eigenvalue.  Coordinates
with v_i far from 1 carry classification information; unit ones carry
none.  The optimal N_O x N projection therefore keeps whole rows of the
diagonalizer: k rows for the k largest eigenvalues plus N_O - k rows for
the smallest, where k ranges over

    max(N_O + m - N, 0) <= k <= min(m, N_O),    m = #{v_i > 1},

and the best candidate over that range maximizes the reduced-pair Chernoff
information over all full-rank N_O x N projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import ChernoffResult, chernoff_from_spectra, solve_lambda_star
from .errors import InvalidBudget, NotPositiveDefinite, RankDeficientProjection
from .gaussian_tree import (
    CovarianceMatrix,
    as_covariance,
    covariance_from_matrix,
    spd_factor,
)
from .geneig import (
    simultaneous_diagonalizer,
    spectrum_from_values,
    whitened_eigenvalues,
)

UNIT_CLASSIFICATION_TOL = 1e-12
# float64 bytes of one block of random projections; the block's
# temporaries peak at about 2.3-5.3x this (measured up to N_O = 250, N = 500).
RANDOM_BLOCK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class ReductionCandidate:
    """One admissible projection: ``k`` rows from the large-eigenvalue end.

    ``row_indices`` index the ascending spectrum (and the rows of the
    diagonalizer); ``matrix`` is the N_O x N projection built from those
    rows; ``ci`` is the Chernoff result of the reduced pair.  ``m`` is the
    number of eigenvalues of the full pair greater than one, which fixes
    the admissible range of k; every candidate of one call shares it.
    """

    k: int
    row_indices: tuple[int, ...]
    matrix: np.ndarray
    ci: ChernoffResult
    m: int


def candidate_reductions(sigma1, sigma2, n_out: int) -> list[ReductionCandidate]:
    """All admissible row selections, sorted by reduced CI descending.

    Ties in CI are broken toward smaller k.  Eigenvalues count as "greater
    than one" only beyond a 1e-12 margin, so unit eigenvalues are never
    preferentially selected.
    """
    diag = simultaneous_diagonalizer(sigma1, sigma2)
    values = diag.spectrum.values
    n = diag.spectrum.dim
    if not 1 <= n_out <= n:
        raise InvalidBudget(f"n_out must lie in 1..{n}, got {n_out}")
    m = int(np.sum(values > 1.0 + UNIT_CLASSIFICATION_TOL))
    ks = range(max(n_out + m - n, 0), min(m, n_out) + 1)
    selections = [tuple(range(n_out - k)) + tuple(range(n - k, n)) for k in ks]
    results = chernoff_from_spectra(
        spectrum_from_values(values[list(rows)]) for rows in selections
    )
    candidates = []
    for k, rows, ci in zip(ks, selections, results):
        matrix = diag.matrix[list(rows), :]
        matrix.setflags(write=False)
        candidates.append(ReductionCandidate(k=k, row_indices=rows, matrix=matrix, ci=ci, m=m))
    candidates.sort(key=lambda c: (-c.ci.ci, c.k))
    return candidates


def optimal_reduction(sigma1, sigma2, n_out: int) -> ReductionCandidate:
    """The admissible candidate with maximal reduced Chernoff information."""
    return candidate_reductions(sigma1, sigma2, n_out)[0]


def _reduced_stack(a: np.ndarray, sigma1, sigma2) -> tuple[np.ndarray, np.ndarray]:
    """Exactly symmetrized (A S1 A^T, A S2 A^T) for an (R, N_O, N) stack of A.

    Every A must have full row rank; the reduced matrices are not checked.
    """
    s1 = as_covariance(sigma1, name="sigma1").matrix
    s2 = as_covariance(sigma2, name="sigma2").matrix
    if a.shape[2] != s1.shape[0] or s1.shape[0] != s2.shape[0]:
        raise RankDeficientProjection(
            f"projection shape {a.shape[1:]} does not match dimension {s1.shape[0]}"
        )
    if not 1 <= a.shape[1] <= a.shape[2]:
        raise RankDeficientProjection("projection rows are not linearly independent")
    svals = np.linalg.svd(a, compute_uv=False)
    if np.any(svals[:, -1] <= 1e-12 * svals[:, 0]):
        raise RankDeficientProjection("projection rows are not linearly independent")
    a_t = a.transpose(0, 2, 1)
    # an overflowing product is left non-finite for the caller to reject
    with np.errstate(over="ignore", invalid="ignore"):
        r1, r2 = a @ s1 @ a_t, a @ s2 @ a_t
        return 0.5 * (r1 + r1.transpose(0, 2, 1)), 0.5 * (r2 + r2.transpose(0, 2, 1))


def reduced_pair(a, sigma1, sigma2) -> tuple[CovarianceMatrix, CovarianceMatrix]:
    """(A S1 A^T, A S2 A^T) for a full-row-rank projection A."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise RankDeficientProjection(f"projection must be 2-d, got shape {a.shape}")
    r1, r2 = _reduced_stack(a[None], sigma1, sigma2)
    return (
        covariance_from_matrix(r1[0], name="reduced sigma1"),
        covariance_from_matrix(r2[0], name="reduced sigma2"),
    )


def projected_chernoff(projections, sigma1, sigma2) -> np.ndarray:
    """Reduced-pair Chernoff information for each A in an (R, N_O, N) stack.

    Entry r is ``chernoff_information(*reduced_pair(A[r], sigma1,
    sigma2)).ci`` up to rounding, from one batched factorization and one
    call of the lambda* solver; an indefinite reduced S1 fails the positivity
    check of the generalized eigenvalues.
    """
    a = np.asarray(projections, dtype=float)
    if a.ndim != 3:
        raise RankDeficientProjection(f"projections must be 3-d, got shape {a.shape}")
    r1, r2 = _reduced_stack(a, sigma1, sigma2)
    if not np.all(np.isfinite(r1)):  # r1 is exactly symmetric; only overflow is left
        raise NotPositiveDefinite("reduced sigma1 contains non-finite entries")
    _, chol2 = spd_factor(r2, name="reduced sigma2")
    return solve_lambda_star(whitened_eigenvalues(chol2, r1)).ci


def random_block_size(n_out: int, n: int) -> int:
    """Projections per block: as many N_O x N draws as fit in RANDOM_BLOCK_BYTES."""
    return max(1, RANDOM_BLOCK_BYTES // (8 * max(1, n_out * n)))


def best_random_projection_ci(sigma1, sigma2, n_out: int, count: int, rng) -> float:
    """Largest reduced CI over ``count`` standard-normal N_O x N projections.

    Projections are drawn from ``rng`` in blocks of ``random_block_size``,
    which gives the same numbers as ``count`` separate (n_out, N) draws.
    Memory therefore does not grow with ``count``, and a block holds about
    RANDOM_BLOCK_BYTES of draws (at least one projection) whatever N_O x N
    is.  Zero when ``count`` is 0.
    """
    sigma1 = as_covariance(sigma1, name="sigma1")
    sigma2 = as_covariance(sigma2, name="sigma2")
    block = random_block_size(n_out, sigma1.dim)
    best = 0.0
    for start in range(0, count, block):
        draws = rng.standard_normal((min(block, count - start), n_out, sigma1.dim))
        best = max(best, float(projected_chernoff(draws, sigma1, sigma2).max()))
    return best


def pca_baseline(sigma, n_out: int) -> np.ndarray:
    """Variance-maximizing baseline: top-``n_out`` eigenvectors as rows.

    Uses a single covariance matrix and ignores the second hypothesis, so
    it can discard every discriminative direction; kept for comparison.
    """
    cov = as_covariance(sigma, name="sigma")
    if not 1 <= n_out <= cov.dim:
        raise InvalidBudget(f"n_out must lie in 1..{cov.dim}, got {n_out}")
    vals, vecs = np.linalg.eigh(cov.matrix)
    order = np.argsort(vals)[::-1][:n_out]
    return vecs[:, order].T.copy()

