"""Monte-Carlo M-ary hypothesis testing against the predicted error exponent.

The harness draws length-t sequences from each model (weighted by the
priors), classifies them with the MAP rule, and estimates the error
exponent as the least-squares slope of -ln(error rate) against t.  The
prediction is the minimum pairwise Chernoff information of the model set.

Randomness is reproducible and scheduling-independent: every (t, model)
block derives its own generator from (seed, t, model index), and trials
within a block are laid out deterministically, so blocks can run in any
order or in parallel without changing the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .divergence import pairwise_chernoff
from .errors import DimensionMismatch, ValidationError
from .gaussian_tree import CovarianceMatrix, as_covariance, model_from_json
from .gaussian_tree import _json_float, _json_int, _json_list, _json_object

MIN_ERRORS_FOR_FIT = 10
BLOCK_VALUES = 4_000_000  # normal draws held at once; one sequence must fit
MAX_TRIALS = 2**53  # _allocate splits trials in float64, exact up to 2**53
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class HypothesisSet:
    """Candidate models with prior probabilities summing to one."""

    models: tuple[CovarianceMatrix, ...]
    priors: np.ndarray


@dataclass(frozen=True)
class ExponentEstimate:
    """Empirical error rates per sequence length and the fitted exponent.

    ``fitted_exponent`` is the slope of -ln(error rate) over the sequence
    lengths in ``fit_lengths`` (those with at least MIN_ERRORS_FOR_FIT
    errors); it is +inf when no errors occurred at any length and nan when
    fewer than two lengths qualify.  ``predicted`` is the minimum pairwise
    Chernoff information.
    """

    sample_lengths: tuple[int, ...]
    error_rates: tuple[float, ...]
    fitted_exponent: float
    predicted: float
    error_counts: tuple[int, ...]
    trials: int
    fit_lengths: tuple[int, ...]
    slope_stderr: float
    diagnostics: tuple[str, ...] = ()


def hypothesis_set(models, priors) -> HypothesisSet:
    """Validate and wrap models plus priors."""
    covs = tuple(as_covariance(m, name=f"model {idx}") for idx, m in enumerate(models))
    if len(covs) < 2:
        raise ValidationError("need at least two hypotheses")
    dims = {c.dim for c in covs}
    if len(dims) != 1:
        raise DimensionMismatch(f"models have mixed dimensions {sorted(dims)}")
    pri = np.asarray(priors, dtype=float)
    if pri.shape != (len(covs),):
        raise ValidationError(
            f"got {pri.size} priors for {len(covs)} models"
        )
    if not np.all(pri > 0.0):
        raise ValidationError("priors must be strictly positive")
    if abs(float(pri.sum()) - 1.0) > 1e-12:
        raise ValidationError(f"priors sum to {pri.sum()}, expected 1")
    pri = pri.copy()
    pri.setflags(write=False)
    return HypothesisSet(models=covs, priors=pri)


def sample_sequence(sigma, t: int, seed) -> np.ndarray:
    """t independent draws from N(0, sigma) as a t x N matrix.

    Deterministic for a given seed: rows are standard normal vectors
    multiplied by the Cholesky factor.
    """
    if t < 1:
        raise ValidationError(f"sequence length must be >= 1, got {t}")
    cov = as_covariance(sigma)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((t, cov.dim)) @ cov.chol.T


def _log_likelihoods(x: np.ndarray, models) -> np.ndarray:
    """Stacked per-model log densities for sequences x of shape (..., t, N)."""
    t, n = x.shape[-2], x.shape[-1]
    flat = x.reshape(-1, n)
    scores = np.empty((flat.shape[0] // t, len(models)))
    for j, cov in enumerate(models):
        y = solve_triangular(cov.chol, flat.T, lower=True)
        quad = np.sum(y * y, axis=0).reshape(-1, t).sum(axis=1)
        scores[:, j] = -0.5 * (quad + t * (cov.logdet + n * _LOG_2PI))
    return scores


def _map_decisions(x: np.ndarray, models, log_priors: np.ndarray) -> np.ndarray:
    """MAP model index of each sequence in x of shape (..., t, N); ties go low."""
    return np.argmax(_log_likelihoods(x, models) + log_priors, axis=1)


def map_classify(x, hyps: HypothesisSet) -> int:
    """MAP model index (0-based) for one t x N sequence; ties go low."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != hyps.models[0].dim:
        raise DimensionMismatch(
            f"sequence shape {x.shape} does not match dimension {hyps.models[0].dim}"
        )
    return int(_map_decisions(x, hyps.models, np.log(hyps.priors))[0])


def min_pairwise_chernoff(hyps: HypothesisSet) -> float:
    """The predicted error exponent: the smallest pairwise CI."""
    return min((r.ci for r in pairwise_chernoff(hyps.models).values()), default=math.inf)


def _allocate(trials: int, priors: np.ndarray) -> np.ndarray:
    """Largest-remainder allocation of trials proportional to priors."""
    raw = priors * trials
    counts = np.floor(raw).astype(int)
    short = trials - int(counts.sum())
    if short > 0:
        order = np.argsort(-(raw - counts))
        counts[order[:short]] += 1
    return counts

def _block_errors(models, log_priors, k: int, t: int, n_k: int, seed, chunk: int) -> int:
    """Misclassification count for n_k sequences of length t from model k."""
    lower_k = models[k].chol
    n = lower_k.shape[0]
    rng = np.random.default_rng([seed, t, k])
    errors = 0
    done = 0
    while done < n_k:
        m = min(chunk, n_k - done)
        z = rng.standard_normal((m, t, n))
        x = z @ lower_k.T
        errors += int(np.sum(_map_decisions(x, models, log_priors) != k))
        done += m
    return errors


def estimate_error_exponent(
    hyps: HypothesisSet, t_grid, trials: int, seed
) -> ExponentEstimate:
    """Empirical error exponent over a grid of sequence lengths.

    Per length, ``trials`` sequences are split across true models
    proportionally to the priors, classified by MAP, and the
    prior-weighted error rate recorded.  The slope fit uses only lengths
    with at least MIN_ERRORS_FOR_FIT errors, which keeps the relative
    standard error of each point under control.

    Sizes are checked before anything is allocated: ``trials`` may not
    exceed MAX_TRIALS, nor one sequence of the longest length t hold more
    than BLOCK_VALUES values (t * N).  Run time grows as
    trials * sum(t_grid) * N and is left to the caller.
    """
    lengths = [int(t) for t in t_grid]
    if not lengths or any(t < 1 for t in lengths):
        raise ValidationError("t_grid must contain positive lengths")
    if sorted(lengths) != lengths:
        raise ValidationError("t_grid must be ascending")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials must be <= 2**53, got {trials}")
    n = hyps.models[0].dim
    if lengths[-1] * n > BLOCK_VALUES:
        raise ValidationError(
            f"a sequence of length {lengths[-1]} in dimension {n} exceeds "
            f"{BLOCK_VALUES} values"
        )
    log_priors = np.log(hyps.priors)
    counts = _allocate(trials, hyps.priors)
    diagnostics = []

    error_counts = []
    for t in lengths:
        chunk = BLOCK_VALUES // (t * n)
        errs = 0
        for k in range(len(hyps.models)):
            if counts[k] == 0:
                continue
            errs += _block_errors(hyps.models, log_priors, k, t, int(counts[k]), seed, chunk)
        error_counts.append(errs)
    total = int(counts.sum())
    rates = [e / total for e in error_counts]

    eligible = [
        (t, e) for t, e in zip(lengths, error_counts) if e >= MIN_ERRORS_FOR_FIT
    ]
    skipped = [t for t, e in zip(lengths, error_counts) if e < MIN_ERRORS_FOR_FIT]
    if skipped:
        diagnostics.append(
            f"lengths {skipped} excluded from the fit (< {MIN_ERRORS_FOR_FIT} errors)"
        )
    if all(e == 0 for e in error_counts):
        diagnostics.append(
            "all_errors_zero: no errors at any length; exponent unbounded at this budget"
        )
        fitted, stderr, fit_lengths = math.inf, 0.0, ()
    elif len(eligible) < 2:
        diagnostics.append("fewer than two lengths eligible; slope not identifiable")
        fitted, stderr, fit_lengths = math.nan, 0.0, tuple(t for t, _ in eligible)
    else:
        ts = np.array([t for t, _ in eligible], dtype=float)
        ys = np.array([-math.log(e / total) for _, e in eligible])
        design = np.column_stack([ts, np.ones_like(ts)])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        fitted = float(coef[0])
        resid = ys - design @ coef
        if len(ts) > 2:
            s2 = float(resid @ resid) / (len(ts) - 2)
            denom = float(np.sum((ts - ts.mean()) ** 2))
            stderr = math.sqrt(s2 / denom) if denom > 0 else 0.0
        else:
            stderr = 0.0
        fit_lengths = tuple(int(t) for t in ts)

    return ExponentEstimate(
        sample_lengths=tuple(lengths),
        error_rates=tuple(rates),
        fitted_exponent=fitted,
        predicted=min_pairwise_chernoff(hyps),
        error_counts=tuple(error_counts),
        trials=total,
        fit_lengths=tuple(fit_lengths),
        slope_stderr=stderr,
        diagnostics=tuple(diagnostics),
    )


def simulation_config_from_json(obj) -> tuple[HypothesisSet, list[int], int, int | None]:
    """Parse ``{"models": [...], "priors": [...], "t_grid": [...], "trials": n, "seed": s}``.

    Model entries are tree JSON objects or row-major matrices.  The seed is
    optional (the CLI falls back to CHERNOFF_SEED or 0).
    """
    obj = _json_object(obj, "simulation config", ("models", "priors", "t_grid", "trials"))
    models = [
        model_from_json(entry, f"models[{idx}]")
        for idx, entry in enumerate(_json_list(obj["models"], "'models'"))
    ]
    priors = [_json_float(p, "prior") for p in _json_list(obj["priors"], "'priors'")]
    hyps = hypothesis_set(models, priors)
    t_grid = [_json_int(t, "t_grid entry") for t in _json_list(obj["t_grid"], "'t_grid'")]
    trials = _json_int(obj["trials"], "'trials'")
    seed = obj.get("seed")
    return hyps, t_grid, trials, (None if seed is None else _json_int(seed, "'seed'", 0))
