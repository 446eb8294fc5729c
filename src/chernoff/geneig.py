"""Generalized eigenvalues of an SPD pair and the joint diagonalizer.

For SPD matrices S1, S2 the generalized eigenvalues are the eigenvalues of
S1 S2^{-1} (equivalently roots of det(t S2 - S1) = 0); they are all
positive, and there is an invertible P with P S2 P^T = I and
P S1 P^T = diag of those eigenvalues.

P is built by the symmetric whitening route: take the Cholesky factor
S2 = L L^T kept on S2's CovarianceMatrix, form the symmetric matrix
L^{-1} S1 L^{-T}, eigendecompose it orthogonally as U diag(vals) U^T, and
take P = U^T L^{-1}.  This handles repeated eigenvalues without any
non-orthogonal eigenbasis; downstream code relies only on the congruence
contract, never on a particular P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh as _eigh
from scipy.linalg import solve_triangular

from .errors import DimensionMismatch, NonPositiveEigenvalue, NotPositiveDefinite
from .gaussian_tree import CovarianceMatrix, as_covariance

UNIT_EIGENVALUE_TOL = 1e-8


@dataclass(frozen=True)
class EigenSpectrum:
    """Ascending positive generalized eigenvalues and their product beta."""

    values: np.ndarray
    beta: float
    dim: int


@dataclass(frozen=True)
class Diagonalizer:
    """Invertible P with P S2 P^T = I and P S1 P^T = diag(spectrum.values).

    Row k of ``matrix`` corresponds to ``spectrum.values[k]``.
    """

    matrix: np.ndarray
    spectrum: EigenSpectrum


def spectrum_from_values(values) -> EigenSpectrum:
    """Build an EigenSpectrum from raw eigenvalues (sorted ascending here)."""
    vals = np.sort(np.asarray(values, dtype=float).ravel())
    if vals.size == 0:
        raise NonPositiveEigenvalue("spectrum must contain at least one eigenvalue")
    if not np.all(np.isfinite(vals)) or vals[0] <= 0.0:
        raise NonPositiveEigenvalue(f"eigenvalues must be positive, got min {vals[0]}")
    vals.setflags(write=False)
    with np.errstate(over="ignore"):  # an overflowing product is beta's float64 value
        beta = float(np.prod(vals))
    return EigenSpectrum(values=vals, beta=beta, dim=vals.size)


def _coerce_pair(sigma1, sigma2) -> tuple[CovarianceMatrix, CovarianceMatrix]:
    c1 = as_covariance(sigma1, name="sigma1")
    c2 = as_covariance(sigma2, name="sigma2")
    if c1.dim != c2.dim:
        raise DimensionMismatch(f"dimension mismatch: {c1.dim} vs {c2.dim}")
    return c1, c2


def _whiten(chol2: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """L^{-1} S1 L^{-T}, exactly symmetrized, for S2 = L L^T; on (..., N, N) stacks.

    A single matrix goes through LAPACK's triangular solve.  numpy has no
    batched triangular solve, and scipy batches only by a Python loop over
    the stack, so a stack goes through numpy's batched LU solve instead:
    backward stable as well, and cheap at the small reduced dimensions it
    serves, but about 2.8x the time of the triangular solve at N = 500.
    The two agree to rounding.
    """
    if chol2.ndim == 2:
        tmp = solve_triangular(chol2, s1, lower=True)
        m = solve_triangular(chol2, tmp.T, lower=True)
    else:
        tmp = np.linalg.solve(chol2, s1)
        m = np.linalg.solve(chol2, np.swapaxes(tmp, -1, -2))
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _positive(vals: np.ndarray) -> np.ndarray:
    """``vals`` (ascending along the last axis) once every entry is positive."""
    if not np.all(vals[..., 0] > 0.0):
        raise NotPositiveDefinite(
            f"generalized eigenvalues must be positive, got min {vals[..., 0].min()}"
        )
    return vals


def _whitened(sigma1, sigma2) -> tuple[np.ndarray, np.ndarray, int]:
    """Return (L, M, n) with S2 = L L^T and M = L^{-1} S1 L^{-T} symmetric."""
    c1, c2 = _coerce_pair(sigma1, sigma2)
    return c2.chol, _whiten(c2.chol, c1.matrix), c1.dim


def generalized_eigenvalues(sigma1, sigma2) -> EigenSpectrum:
    """Ascending eigenvalues of sigma1 sigma2^{-1}.

    Invariant under any joint congruence (K S1 K^T, K S2 K^T) with K
    invertible, and strictly positive for SPD inputs.
    """
    _, m, _ = _whitened(sigma1, sigma2)
    return spectrum_from_values(_positive(np.linalg.eigvalsh(m)))


def whitened_eigenvalues(chol2: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Ascending generalized eigenvalues of each pair (S1, L L^T) of a stack.

    ``chol2`` holds the lower Cholesky factors L of the second matrices and
    ``s1`` the first, both (R, N, N); the result is (R, N).  Row r is what
    ``generalized_eigenvalues`` gives for pair r, up to rounding.
    """
    return _positive(np.linalg.eigvalsh(_whiten(chol2, s1)))


def simultaneous_diagonalizer(sigma1, sigma2) -> Diagonalizer:
    """P with P sigma2 P^T = I and P sigma1 P^T diagonal (ascending)."""
    chol2, m, n = _whitened(sigma1, sigma2)
    vals, vecs = _eigh(m)
    _positive(vals)
    linv = solve_triangular(chol2, np.eye(n), lower=True)
    p = vecs.T @ linv
    p.setflags(write=False)
    return Diagonalizer(matrix=p, spectrum=spectrum_from_values(vals))


def unit_eigenvalue_count(spectrum: EigenSpectrum, tol: float = UNIT_EIGENVALUE_TOL) -> int:
    """Number of eigenvalues within ``tol`` of 1."""
    return int(np.sum(np.abs(spectrum.values - 1.0) <= tol))
