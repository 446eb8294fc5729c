"""Candidate projections, optimality, interlacing, and the PCA baseline."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from chernoff import (
    build_covariance,
    candidate_reductions,
    chernoff_from_spectrum,
    chernoff_information,
    covariance_from_matrix,
    generalized_eigenvalues,
    optimal_reduction,
    pca_baseline,
    reduced_pair,
    simultaneous_diagonalizer,
    spectrum_from_values,
)
from chernoff import dimred
from chernoff.dimred import best_random_projection_ci, projected_chernoff
from chernoff.errors import InvalidBudget, NotPositiveDefinite, RankDeficientProjection
from helpers import (
    batched_projection_ci,
    per_dimension_divergence,
    random_invertible,
    random_spd,
    random_tree,
    well_conditioned_projections,
)

REFERENCE_SPECTRUM = [9.2341, 0.1019, 1.2982, 0.8185, 1, 1, 1]


def _diag_pair(values):
    """Pair whose generalized spectrum is exactly ``values``."""
    return np.diag(np.asarray(values, dtype=float)), np.eye(len(values))


def _subset_ci(values, subset):
    return chernoff_from_spectrum(spectrum_from_values([values[i] for i in subset])).ci


class TestCandidateReductions:
    def test_full_budget_reproduces_full_ci(self):
        rng = np.random.default_rng(0)
        s1, s2 = random_spd(rng, 5), random_spd(rng, 5)
        cands = candidate_reductions(s1, s2, 5)
        assert len(cands) == 1
        full = chernoff_information(s1, s2)
        assert cands[0].ci.ci == pytest.approx(full.ci, abs=1e-9)
        assert cands[0].matrix.shape == (5, 5)

    def test_two_candidates_for_mixed_spectrum(self):
        s1, s2 = _diag_pair([2.0, 2.0, 0.5])
        cands = candidate_reductions(s1, s2, 1)
        assert {c.k for c in cands} == {0, 1}
        selected = {
            c.k: c.ci.spectrum.values[0] for c in cands
        }
        assert selected[1] == pytest.approx(2.0, abs=1e-12)
        assert selected[0] == pytest.approx(0.5, abs=1e-12)

    def test_candidate_count_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            s1, s2 = random_spd(rng, n), random_spd(rng, n)
            values = generalized_eigenvalues(s1, s2).values
            m = int(np.sum(values > 1.0 + 1e-12))
            for n_out in range(1, n + 1):
                expected = min(m, n_out) - max(n_out + m - n, 0) + 1
                assert len(candidate_reductions(s1, s2, n_out)) == expected

    def test_m_counts_full_spectrum_above_one(self):
        # one eigenvalue on each side of the 1e-12 margin
        s1, s2 = _diag_pair([9.2341, 0.1019, 1.2982, 0.8185, 1.0, 1.0 + 5e-13, 1.0 + 2e-12])
        values = generalized_eigenvalues(s1, s2).values
        for n_out in (1, 3, 7):
            best = candidate_reductions(s1, s2, n_out)[0]
            assert best.m == int(np.sum(values > 1.0 + 1e-12)) == 3

    def test_row_selection_contract(self):
        rng = np.random.default_rng(2)
        s1, s2 = random_spd(rng, 6), random_spd(rng, 6)
        for cand in candidate_reductions(s1, s2, 3):
            r1, r2 = reduced_pair(cand.matrix, s1, s2)
            assert np.abs(r2.matrix - np.eye(3)).max() < 1e-8
            expected = np.diag(
                generalized_eigenvalues(s1, s2).values[list(cand.row_indices)]
            )
            assert np.abs(r1.matrix - expected).max() < 1e-8

    def test_best_candidate_on_reference_spectrum(self):
        s1, s2 = _diag_pair(REFERENCE_SPECTRUM)
        cands = candidate_reductions(s1, s2, 2)
        kept = np.sort(cands[0].ci.spectrum.values)
        assert np.abs(kept - np.sort([0.1019, 9.2341])).max() < 1e-9
        best_subset = max(
            itertools.combinations(range(7), 2),
            key=lambda sub: _subset_ci(REFERENCE_SPECTRUM, sub),
        )
        assert cands[0].ci.ci == pytest.approx(
            _subset_ci(REFERENCE_SPECTRUM, best_subset), abs=1e-12
        )

    def test_invalid_budget(self):
        rng = np.random.default_rng(3)
        s1, s2 = random_spd(rng, 4), random_spd(rng, 4)
        with pytest.raises(InvalidBudget):
            candidate_reductions(s1, s2, 0)
        with pytest.raises(InvalidBudget):
            candidate_reductions(s1, s2, 5)


class TestOptimalReduction:
    def test_identical_pair_gives_zero_ci(self):
        rng = np.random.default_rng(4)
        s = random_spd(rng, 4)
        best = optimal_reduction(s, s, 2)
        assert best.ci.ci == 0.0

    def test_beats_every_single_coordinate_drop(self):
        rng = np.random.default_rng(5)
        s1, s2 = random_spd(rng, 6), random_spd(rng, 6)
        best = optimal_reduction(s1, s2, 5)
        diag = simultaneous_diagonalizer(s1, s2)
        for drop in range(6):
            rows = [r for r in range(6) if r != drop]
            r1, r2 = reduced_pair(diag.matrix[rows, :], s1, s2)
            assert best.ci.ci >= chernoff_information(r1, r2).ci - 1e-9

    def test_beats_random_projections(self):
        rng = np.random.default_rng(6)
        s1, s2 = random_spd(rng, 6), random_spd(rng, 6)
        best = optimal_reduction(s1, s2, 2)
        projections = well_conditioned_projections(rng, 1000, 2, 6)
        oracle = batched_projection_ci(s1, s2, projections)
        assert best.ci.ci >= oracle.max() - 1e-9

    def test_beats_exhaustive_subsets(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            s1, s2 = random_spd(rng, n), random_spd(rng, n)
            values = generalized_eigenvalues(s1, s2).values
            for n_out in range(1, n + 1):
                best = optimal_reduction(s1, s2, n_out)
                for subset in itertools.combinations(range(n), n_out):
                    assert best.ci.ci >= _subset_ci(values, subset) - 1e-9

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(8)
        s1, s2 = random_spd(rng, 6), random_spd(rng, 6)
        cis = [optimal_reduction(s1, s2, k).ci.ci for k in range(1, 7)]
        assert all(b >= a - 1e-10 for a, b in zip(cis, cis[1:]))
        assert cis[-1] == pytest.approx(chernoff_information(s1, s2).ci, abs=1e-9)

    def test_tie_break_prefers_smaller_k(self):
        # reciprocal spectrum: both one-dimensional candidates give equal CI
        s1, s2 = _diag_pair([2.0, 0.5])
        best = optimal_reduction(s1, s2, 1)
        assert best.k == 0

    def test_dropping_unit_eigenvalues_costs_nothing(self):
        s1, s2 = _diag_pair(REFERENCE_SPECTRUM)
        full = chernoff_information(s1, s2)
        best = optimal_reduction(s1, s2, 4)
        assert best.ci.ci == pytest.approx(full.ci, abs=1e-10)


class TestReducedPair:
    def test_identity_projection(self):
        rng = np.random.default_rng(9)
        s1, s2 = random_spd(rng, 4), random_spd(rng, 4)
        r1, r2 = reduced_pair(np.eye(4), s1, s2)
        assert np.abs(r1.matrix - s1).max() < 1e-12
        assert np.abs(r2.matrix - s2).max() < 1e-12

    def test_single_diagonalizer_row(self):
        rng = np.random.default_rng(10)
        s1, s2 = random_spd(rng, 5), random_spd(rng, 5)
        diag = simultaneous_diagonalizer(s1, s2)
        j = 3
        r1, r2 = reduced_pair(diag.matrix[[j], :], s1, s2)
        assert r1.matrix[0, 0] == pytest.approx(diag.spectrum.values[j], abs=1e-8)
        assert r2.matrix[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_outputs_are_spd(self):
        rng = np.random.default_rng(11)
        s1, s2 = random_spd(rng, 6), random_spd(rng, 6)
        a = rng.standard_normal((3, 6))
        r1, r2 = reduced_pair(a, s1, s2)
        np.linalg.cholesky(r1.matrix)
        np.linalg.cholesky(r2.matrix)

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(12)
        s1, s2 = random_spd(rng, 4), random_spd(rng, 4)
        row = rng.standard_normal(4)
        with pytest.raises(RankDeficientProjection):
            reduced_pair(np.vstack([row, 2.0 * row]), s1, s2)

    def test_too_many_rows_rejected(self):
        rng = np.random.default_rng(13)
        s1, s2 = random_spd(rng, 3), random_spd(rng, 3)
        with pytest.raises(RankDeficientProjection):
            reduced_pair(rng.standard_normal((4, 3)), s1, s2)



class TestBatchedProjections:
    def test_best_random_ci_equals_scalar_loop(self, monkeypatch):
        rng = np.random.default_rng(31)
        s1, s2 = random_spd(rng, 40), random_spd(rng, 40)
        monkeypatch.setattr(dimred, "RANDOM_BLOCK_BYTES", 8 * 5 * 40 * 400)
        assert dimred.random_block_size(5, 40) == 400
        count = 1500  # four blocks, the last one partial
        batched = best_random_projection_ci(s1, s2, 5, count, np.random.default_rng(32))
        draws = np.random.default_rng(32)
        looped = max(
            chernoff_information(*reduced_pair(draws.standard_normal((5, 40)), s1, s2)).ci
            for _ in range(count)
        )
        assert batched == pytest.approx(looped, rel=1e-12, abs=0.0)

    def test_each_projection_matches_reduced_pair(self):
        rng = np.random.default_rng(33)
        s1, s2 = random_spd(rng, 8), random_spd(rng, 8)
        stack = rng.standard_normal((30, 3, 8))
        got = projected_chernoff(stack, s1, s2)
        for a, ci in zip(stack, got):
            expected = chernoff_information(*reduced_pair(a, s1, s2)).ci
            assert ci == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_block_memory_does_not_grow_with_projection_size(self):
        rng = np.random.default_rng(37)
        s1, s2 = random_spd(rng, 400), random_spd(rng, 400)
        block = dimred.random_block_size(100, 400)
        count = 6 * block + 1
        tracemalloc.start()
        try:
            best_random_projection_ci(s1, s2, 100, count, np.random.default_rng(38))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Measured: about 3.4x the budget here, and at most 5.3x over other
        # shapes up to N_O = 250, N = 500.  One block of all ``count``
        # projections takes about 17x.
        assert peak <= 8 * dimred.RANDOM_BLOCK_BYTES

    def test_block_size_is_at_least_one(self):
        assert dimred.random_block_size(1, 1) == dimred.RANDOM_BLOCK_BYTES // 8
        assert dimred.random_block_size(2000, 2000) == 1

    def test_zero_row_projections_rejected(self):
        rng = np.random.default_rng(39)
        s1, s2 = random_spd(rng, 4), random_spd(rng, 4)
        with pytest.raises(RankDeficientProjection):
            best_random_projection_ci(s1, s2, 0, 3, np.random.default_rng(0))

    def test_zero_count_gives_zero(self):
        rng = np.random.default_rng(34)
        s1, s2 = random_spd(rng, 4), random_spd(rng, 4)
        draws = np.random.default_rng(0)
        assert best_random_projection_ci(s1, s2, 2, 0, draws) == 0.0

    def test_rank_deficient_projection_in_stack_rejected(self):
        rng = np.random.default_rng(35)
        s1, s2 = random_spd(rng, 6), random_spd(rng, 6)
        stack = rng.standard_normal((10, 2, 6))
        stack[7, 1] = 3.0 * stack[7, 0]
        with pytest.raises(RankDeficientProjection):
            projected_chernoff(stack, s1, s2)

    def test_non_finite_reduction_rejected(self):
        rng = np.random.default_rng(36)
        s1, s2 = random_spd(rng, 4), random_spd(rng, 4)
        stack = rng.standard_normal((3, 2, 4))
        stack[1] *= 1e160  # full rank, but A S Aᵀ overflows
        with pytest.raises(NotPositiveDefinite), np.errstate(over="ignore"):
            projected_chernoff(stack, s1, s2)

    def test_overflowing_reduction_warns_nothing(self):
        rng = np.random.default_rng(36)
        s1, s2 = random_spd(rng, 4), random_spd(rng, 4)
        stack = rng.standard_normal((3, 2, 4))
        stack[1] *= 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match="non-finite"):
                projected_chernoff(stack, s1, s2)

    def test_overflow_in_reduced_sigma1_alone_rejected(self):
        # A S2 Aᵀ stays finite, so only the reduced S1 stack can catch this
        stack = 1e5 * np.random.default_rng(37).standard_normal((3, 2, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NotPositiveDefinite, match="reduced sigma1 contains non-finite entries"
            ):
                projected_chernoff(stack, 1e300 * np.eye(4), np.eye(4))

    def test_one_stacked_factorization_per_block(self, monkeypatch):
        rng = np.random.default_rng(38)
        s1, s2 = (covariance_from_matrix(random_spd(rng, 5)) for _ in range(2))
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
        projected_chernoff(rng.standard_normal((6, 2, 5)), s1, s2)
        assert len(calls) == 1


class TestPcaBaseline:
    def test_diagonal_selects_largest_variances(self):
        basis = pca_baseline(np.diag([1.0, 5.0, 3.0]), 2)
        selected = {int(np.argmax(np.abs(row))) for row in basis}
        assert selected == {1, 2}

    def test_full_budget_preserves_ci(self):
        rng = np.random.default_rng(14)
        s1, s2 = random_spd(rng, 4), random_spd(rng, 4)
        basis = pca_baseline(s1, 4)
        r1, r2 = reduced_pair(basis, s1, s2)
        assert chernoff_information(r1, r2).ci == pytest.approx(
            chernoff_information(s1, s2).ci, abs=1e-8
        )

    def test_variance_direction_can_be_useless(self):
        # the largest-variance direction is shared, so PCA keeps a
        # non-discriminative coordinate while the optimal choice does not
        s1 = np.diag([10.0, 2.0, 1.0])
        s2 = np.diag([10.0, 1.0, 2.0])
        pca_ci = chernoff_information(*reduced_pair(pca_baseline(s1, 1), s1, s2)).ci
        best = optimal_reduction(s1, s2, 1)
        assert best.ci.ci > pca_ci + 1e-3
        assert pca_ci == pytest.approx(0.0, abs=1e-12)


class TestInterlacing:
    def test_single_dimension_drop_interlaces(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            s1, s2 = random_spd(rng, n), random_spd(rng, n)
            full = generalized_eigenvalues(s1, s2).values
            d = rng.standard_normal((n - 1, n))
            r1, r2 = reduced_pair(d, s1, s2)
            reduced = generalized_eigenvalues(r1, r2).values
            for idx in range(n - 1):
                assert full[idx] <= reduced[idx] + 1e-9
                assert reduced[idx] <= full[idx + 1] + 1e-9

    def test_tree_pairs_interlace(self):
        rng = np.random.default_rng(16)
        s1 = build_covariance(random_tree(rng, 7)).matrix
        s2 = build_covariance(random_tree(rng, 7)).matrix
        full = generalized_eigenvalues(s1, s2).values
        d = random_invertible(rng, 7)[:6, :]
        reduced = generalized_eigenvalues(*reduced_pair(d, s1, s2)).values
        for idx in range(6):
            assert full[idx] <= reduced[idx] + 1e-9
            assert reduced[idx] <= full[idx + 1] + 1e-9


class TestPerDimensionDivergence:
    def test_unit_value_contributes_nothing(self):
        for lam in (0.0, 0.3, 0.5, 1.0):
            assert per_dimension_divergence(1.0, lam) == 0.0

    def test_monotone_away_from_one(self):
        lam = 0.4
        below = [per_dimension_divergence(v, lam) for v in (0.9, 0.5, 0.2, 0.05)]
        above = [per_dimension_divergence(v, lam) for v in (1.1, 2.0, 5.0, 20.0)]
        assert all(b > a for a, b in zip(below, below[1:]))
        assert all(b > a for a, b in zip(above, above[1:]))
        assert all(v >= 0.0 for v in below + above)
