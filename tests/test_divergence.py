"""Divergences, the balance-point solver, and Chernoff information.

The four reference spectra with their balance points and Chernoff values
are reported results for dependent grafting chains; they pin down both the
solver and the interpolant orientation (the balance parameter weights the
second hypothesis, so the interpolant starts at the first covariance).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernoff import (
    TreeSpec,
    balance_equation_residual,
    build_covariance,
    chernoff_from_spectrum,
    chernoff_information,
    generalized_eigenvalues,
    kl_divergence,
    kl_from_spectrum,
    kl_interpolant_divergences,
    lambda_star,
    sigma_lambda,
    spectrum_from_values,
)
from chernoff import divergence, gaussian_tree
from chernoff.divergence import chernoff_from_spectra
from chernoff.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NumericDomainError,
)
from helpers import grid_maxmin_ci, random_invertible, random_spd, random_tree

# (eigenvalues, balance point, Chernoff information) reference rows
REFERENCE_CASES = [
    ([19.5746, 0.0433, 1.5439, 0.7642, 1, 1, 1], 0.5191, 0.8983),
    ([9.2341, 0.1019, 1.2982, 0.8185, 1, 1, 1], 0.5073, 0.5402),
    ([9.4328, 1.653, 0.0844, 0.7603, 1, 1, 1], 0.5254, 0.5982),
    ([5.0195, 0.1863, 1.2201, 0.8766, 1, 1, 1], 0.5082, 0.3102),
]


class TestKlDivergence:
    def test_identical_distributions(self):
        rng = np.random.default_rng(0)
        s = random_spd(rng, 4)
        assert kl_divergence(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_closed_form(self):
        expected = 0.5 * (-math.log(2.0) + 2.0 - 1.0)
        assert kl_divergence([[2.0]], [[1.0]]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.153426, abs=1e-6)

    def test_matches_spectrum_form(self):
        rng = np.random.default_rng(1)
        s1 = build_covariance(random_tree(rng, 6)).matrix
        s2 = build_covariance(random_tree(rng, 6)).matrix
        spectrum = generalized_eigenvalues(s1, s2)
        assert kl_divergence(s1, s2) == pytest.approx(
            kl_from_spectrum(spectrum, "forward"), abs=1e-9
        )
        assert kl_divergence(s2, s1) == pytest.approx(
            kl_from_spectrum(spectrum, "reverse"), abs=1e-9
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            assert kl_divergence(random_spd(rng, 3), random_spd(rng, 3)) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_divergence(np.eye(2), np.eye(3))


class TestKlFromSpectrum:
    def test_unit_spectrum_is_zero_both_ways(self):
        spectrum = spectrum_from_values([1.0, 1.0, 1.0])
        assert kl_from_spectrum(spectrum, "forward") == 0.0
        assert kl_from_spectrum(spectrum, "reverse") == 0.0

    def test_single_two(self):
        spectrum = spectrum_from_values([2.0])
        assert kl_from_spectrum(spectrum) == pytest.approx(0.1534264097, abs=1e-10)

    def test_single_e(self):
        spectrum = spectrum_from_values([math.e])
        assert kl_from_spectrum(spectrum) == pytest.approx(0.5 * (math.e - 2.0), abs=1e-12)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            kl_from_spectrum(spectrum_from_values([2.0]), "sideways")


class TestSigmaLambda:
    def test_endpoints(self):
        rng = np.random.default_rng(3)
        s1, s2 = random_spd(rng, 4), random_spd(rng, 4)
        assert np.abs(sigma_lambda(s1, s2, 0.0).matrix - s1).max() < 1e-10
        assert np.abs(sigma_lambda(s1, s2, 1.0).matrix - s2).max() < 1e-10

    def test_scalar_harmonic_mean(self):
        out = sigma_lambda(np.diag([3.0]), np.diag([1.0]), 0.5)
        assert out.matrix[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(NumericDomainError):
            sigma_lambda(np.eye(2), np.eye(2), 1.5)

    def test_midpoint_is_spd_for_tree_pair(self):
        rng = np.random.default_rng(4)
        s1 = build_covariance(random_tree(rng, 5))
        s2 = build_covariance(random_tree(rng, 5))
        out = sigma_lambda(s1, s2, 0.37)
        np.linalg.cholesky(out.matrix)


class TestLambdaStar:
    @pytest.mark.parametrize("values,lam_ref,_", REFERENCE_CASES)
    def test_reference_balance_points(self, values, lam_ref, _):
        assert lambda_star(spectrum_from_values(values)) == pytest.approx(
            lam_ref, abs=5e-4
        )

    def test_reciprocal_pair_balances_at_half(self):
        for lam in (0.3, 2.0, 9.0):
            spectrum = spectrum_from_values([lam, 1.0 / lam])
            assert lambda_star(spectrum) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrum):
            lambda_star(spectrum_from_values([1.0, 1.0]))

    def test_balance_equation_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            values = rng.uniform(0.05, 8.0, size=int(rng.integers(1, 9)))
            if np.all(np.abs(values - 1.0) <= 1e-8):
                continue
            spectrum = spectrum_from_values(values)
            lam = lambda_star(spectrum)
            assert 0.0 <= lam <= 1.0
            assert abs(balance_equation_residual(spectrum, lam)) < 1e-9


class TestChernoffFromSpectrum:
    @pytest.mark.parametrize("values,_,ci_ref", REFERENCE_CASES)
    def test_reference_ci(self, values, _, ci_ref):
        result = chernoff_from_spectrum(spectrum_from_values(values))
        assert result.ci == pytest.approx(ci_ref, abs=1e-3)
        assert result.residual <= 1e-10

    def test_all_unit_spectrum(self):
        result = chernoff_from_spectrum(spectrum_from_values([1.0, 1.0, 1.0]))
        assert result.ci == 0.0
        assert result.lambda_star == 0.5
        assert result.degenerate

    def test_ci_zero_only_for_unit_spectrum(self):
        result = chernoff_from_spectrum(spectrum_from_values([1.0, 2.0]))
        assert result.ci > 0.0
        assert not result.degenerate

    def test_matches_interpolant_divergence_at_balance(self):
        spectrum = spectrum_from_values([3.0, 0.2, 1.4])
        result = chernoff_from_spectrum(spectrum)
        d1, d2 = kl_interpolant_divergences(spectrum, result.lambda_star)
        assert result.ci == pytest.approx(d1, abs=1e-10)
        assert abs(d1 - d2) <= 1e-10

    def test_unit_append_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            values = list(rng.uniform(0.1, 6.0, size=int(rng.integers(1, 7))))
            base = chernoff_from_spectrum(spectrum_from_values(values))
            grown = chernoff_from_spectrum(spectrum_from_values(values + [1.0]))
            if base.degenerate:
                continue
            assert grown.lambda_star == pytest.approx(base.lambda_star, abs=1e-10)
            assert grown.ci == pytest.approx(base.ci, abs=1e-10)

    def test_reciprocal_swap_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            values = rng.uniform(0.1, 6.0, size=5)
            fwd = chernoff_from_spectrum(spectrum_from_values(values))
            rev = chernoff_from_spectrum(spectrum_from_values(1.0 / values))
            assert fwd.ci == pytest.approx(rev.ci, abs=1e-9)
            assert fwd.lambda_star == pytest.approx(1.0 - rev.lambda_star, abs=1e-9)

    def test_matrix_form_balances_at_lambda_star(self):
        # the balance point computed from the spectrum must equalize the
        # matrix-form divergences from the matrix-form interpolant
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            s1 = build_covariance(random_tree(rng, max(n, 2))).matrix
            s2 = build_covariance(random_tree(rng, max(n, 2))).matrix
            result = chernoff_information(s1, s2)
            if result.degenerate:
                continue
            mid = sigma_lambda(s1, s2, result.lambda_star)
            d1 = kl_divergence(mid, s1)
            d2 = kl_divergence(mid, s2)
            assert abs(d1 - d2) <= 1e-10
            assert d1 == pytest.approx(result.ci, abs=1e-10)


class TestChernoffInformation:
    def test_identical_pair(self):
        rng = np.random.default_rng(8)
        s = random_spd(rng, 4)
        result = chernoff_information(s, s)
        assert result.ci == pytest.approx(0.0, abs=1e-12)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(9)
        s1, s2 = random_spd(rng, 5), random_spd(rng, 5)
        k = random_invertible(rng, 5)
        base = chernoff_information(s1, s2)
        moved = chernoff_information(k @ s1 @ k.T, k @ s2 @ k.T)
        assert moved.ci == pytest.approx(base.ci, abs=1e-8)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(10)
        s1, s2 = random_spd(rng, 6), random_spd(rng, 6)
        assert chernoff_information(s1, s2).ci == pytest.approx(
            chernoff_information(s2, s1).ci, abs=1e-9
        )

    def test_two_node_trees_match_grid_search(self):
        s1 = build_covariance(TreeSpec(2, ((1, 2, 0.3),))).matrix
        s2 = build_covariance(TreeSpec(2, ((1, 2, 0.7),))).matrix
        result = chernoff_information(s1, s2)
        assert result.ci == pytest.approx(grid_maxmin_ci(s1, s2), abs=1e-6)

    def test_random_pairs_match_grid_search(self):
        # The grid oracle resolves the max-min corner to slope * step / 2,
        # so the fixtures keep the crossing slopes bounded: eigenvalues near
        # one, hidden behind a random congruence.
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4, 5):
            k = random_invertible(rng, n)
            s1 = k @ np.diag(rng.uniform(0.85, 1.2, size=n)) @ k.T
            s2 = k @ k.T
            result = chernoff_information(s1, s2)
            assert result.ci == pytest.approx(grid_maxmin_ci(s1, s2), abs=1e-6)


class TestInterpolantDivergences:
    def test_left_endpoint(self):
        spectrum = spectrum_from_values([2.0, 0.3])
        d1, d2 = kl_interpolant_divergences(spectrum, 0.0)
        assert d1 == 0.0
        assert d2 == pytest.approx(kl_from_spectrum(spectrum, "forward"), abs=1e-12)

    def test_right_endpoint(self):
        spectrum = spectrum_from_values([2.0, 0.3])
        d1, d2 = kl_interpolant_divergences(spectrum, 1.0)
        assert d2 == 0.0
        assert d1 == pytest.approx(kl_from_spectrum(spectrum, "reverse"), abs=1e-12)

    def test_reference_case_at_reported_balance(self):
        spectrum = spectrum_from_values(REFERENCE_CASES[1][0])
        d1, d2 = kl_interpolant_divergences(spectrum, 0.5073)
        assert d1 == pytest.approx(0.5402, abs=1e-3)
        assert d2 == pytest.approx(0.5402, abs=1e-3)

    def test_weighted_sum_identity(self):
        # (1-t) sum 1/u + t sum v/u = N at every t, not only the balance point
        rng = np.random.default_rng(12)
        values = rng.uniform(0.2, 5.0, size=6)
        for lam in (0.0, 0.21, 0.5, 0.77, 1.0):
            u = (1.0 - lam) + lam * values
            total = (1.0 - lam) * np.sum(1.0 / u) + lam * np.sum(values / u)
            assert total == pytest.approx(6.0, abs=1e-12)


def _oracle_check(values, lam, delta=5e-13):
    """40-digit check of a balance point: (brackets the root, CI there).

    h(t) = D(S_t||S1) - D(S_t||S2) is strictly increasing, so
    h(lam - delta) < 0 < h(lam + delta) puts the root within ``delta`` of
    lam.  C(t) = (sum_i ln u_i - t ln beta) / 2 is stationary at the root,
    where it equals the Chernoff information, so C(lam) is that value up
    to a term of order delta^2.
    """
    with mpmath.workdps(40):
        v = [mpmath.mpf(float(x)) for x in values]
        log_beta = mpmath.log(mpmath.fprod(v))

        def h(t):
            return log_beta + mpmath.fsum((1 - x) / (1 - t + t * x) for x in v)

        t = mpmath.mpf(float(lam))
        brackets = h(t - delta) < 0 < h(t + delta)
        ci = (mpmath.log(mpmath.fprod(1 - t + t * x for x in v)) - t * log_beta) / 2
        return brackets, float(ci)


def _extreme_spectra(seed, count):
    """``count`` spectra of 1..40 eigenvalues, log-uniform on [e^-8, e^8]."""
    rng = np.random.default_rng(seed)
    return [
        np.exp(rng.uniform(-8.0, 8.0, size=int(rng.integers(1, 41))))
        for _ in range(count)
    ]


class TestStackedSolver:
    def test_stack_equals_rows_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for n in (1, 3, 8, 40, 130):
            rows = [np.exp(rng.uniform(-8.0, 8.0, size=n)) for _ in range(25)]
            rows.append(1.0 / rows[0])
            rows.append(np.ones(n))
            spectra = [spectrum_from_values(r) for r in rows]
            stacked = chernoff_from_spectra(spectra)
            for spectrum, got in zip(spectra, stacked):
                assert got == chernoff_from_spectrum(spectrum)

    def test_mixed_dimensions_rejected(self):
        spectra = [spectrum_from_values([2.0]), spectrum_from_values([2.0, 3.0])]
        with pytest.raises(DimensionMismatch):
            chernoff_from_spectra(spectra)

    def test_pairwise_equals_each_pair_field_for_field(self, monkeypatch):
        rng = np.random.default_rng(23)
        models = [random_tree(rng, 6), random_spd(rng, 6), random_tree(rng, 6), random_spd(rng, 6)]
        built = []
        build = gaussian_tree.build_covariance
        monkeypatch.setattr(
            gaussian_tree, "build_covariance", lambda spec: built.append(spec) or build(spec)
        )
        pairwise = divergence.pairwise_chernoff(models)
        assert built == [models[0], models[2]]
        assert list(pairwise) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for (a, b), got in pairwise.items():
            want = chernoff_information(models[a], models[b])
            for name in ("ci", "lambda_star", "iterations", "residual", "degenerate"):
                assert getattr(got, name) == getattr(want, name), name
            assert got.spectrum.beta == want.spectrum.beta
            assert np.array_equal(got.spectrum.values, want.spectrum.values)

    def test_within_1e12_of_mpmath_root_on_extreme_spectra(self):
        misses, worst_ci, most_steps = 0, 0.0, 0
        for values in _extreme_spectra(22, 3000):
            result = chernoff_from_spectrum(spectrum_from_values(values))
            brackets, ci = _oracle_check(values, result.lambda_star)
            misses += not brackets
            worst_ci = max(worst_ci, abs(result.ci - ci) / ci)
            most_steps = max(most_steps, result.iterations)
        assert misses == 0
        assert worst_ci <= 1e-12
        assert most_steps <= 20

    def test_reciprocal_spectrum_mirrors_balance_point(self):
        for values in _extreme_spectra(23, 300):
            fwd = chernoff_from_spectrum(spectrum_from_values(values))
            rev = chernoff_from_spectrum(spectrum_from_values(1.0 / values))
            assert abs(fwd.lambda_star - (1.0 - rev.lambda_star)) <= 1e-15
            assert rev.ci == pytest.approx(fwd.ci, rel=1e-15, abs=0.0)
        fwd = chernoff_from_spectrum(spectrum_from_values([2.0, 8.0, 0.25]))
        rev = chernoff_from_spectrum(spectrum_from_values([0.5, 0.125, 4.0]))
        assert fwd.ci == rev.ci
        assert fwd.lambda_star == 1.0 - rev.lambda_star

    def test_near_unit_single_eigenvalue_converges(self):
        values = [1.1278156511589181]
        result = chernoff_from_spectrum(spectrum_from_values(values))
        brackets, ci = _oracle_check(values, result.lambda_star)
        assert result.iterations <= 20
        assert brackets
        assert result.ci == pytest.approx(ci, rel=1e-12)

    def test_near_unit_spectra_converge_under_cap(self):
        # h is roundoff-limited here; the step-halving rule turns Newton
        # steps that wander on that noise into bisection steps
        rng = np.random.default_rng(24)
        for _ in range(300):
            values = 1.0 + rng.normal(0.0, 1e-6, size=int(rng.integers(1, 41)))
            result = chernoff_from_spectrum(spectrum_from_values(values))
            assert result.iterations < divergence.MAX_ITERATIONS
            assert 0.0 <= result.lambda_star <= 1.0

    def test_no_convergence_at_cap_raises(self, monkeypatch):
        monkeypatch.setattr(divergence, "MAX_ITERATIONS", 1)
        with pytest.raises(NumericDomainError) as info:
            chernoff_from_spectrum(spectrum_from_values([9.2341, 0.1019, 1.2982]))
        assert info.value.code == "solver_not_converged"

    def test_exact_midpoint_takes_no_step(self):
        result = chernoff_from_spectrum(spectrum_from_values([4.0, 0.25]))
        assert result.lambda_star == 0.5
        assert result.iterations == 0
        assert result.residual == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=8
    ).filter(lambda vs: any(abs(v - 1.0) > 1e-6 for v in vs))
)
def test_balance_point_properties(values):
    spectrum = spectrum_from_values(values)
    result = chernoff_from_spectrum(spectrum)
    assert 0.0 <= result.lambda_star <= 1.0
    assert result.residual <= 1e-10
    assert result.ci >= 0.0
    d1, d2 = kl_interpolant_divergences(spectrum, result.lambda_star)
    assert abs(d1 - d2) <= 1e-10
    assert abs(balance_equation_residual(spectrum, result.lambda_star)) <= 1e-9
