"""Tree validation and the closed-form covariance / precision / determinant."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chernoff import (
    TreeSpec,
    ZeroWeightWarning,
    build_covariance,
    covariance_from_matrix,
    tree_determinant,
    tree_from_json,
    tree_precision,
    tree_to_json,
    validate_tree,
)
from chernoff.errors import (
    CycleError,
    DimensionMismatch,
    DisconnectedError,
    DuplicateEdge,
    NotPositiveDefinite,
    ParseError,
    WeightOutOfRange,
)
from chernoff.gaussian_tree import spd_factor
from helpers import path_product_covariance, random_spd, random_tree

CHAIN = TreeSpec(3, ((1, 2, 0.5), (2, 3, 0.6)))


class TestValidateTree:
    def test_well_formed_chain(self):
        assert validate_tree(CHAIN) is CHAIN

    def test_three_edges_on_three_nodes_is_a_cycle(self):
        spec = TreeSpec(3, ((1, 2, 0.5), (2, 3, 0.6), (1, 3, 0.1)))
        with pytest.raises(CycleError):
            validate_tree(spec)

    def test_unit_weight_rejected(self):
        with pytest.raises(WeightOutOfRange):
            validate_tree(TreeSpec(2, ((1, 2, 1.0),)))

    def test_weight_above_one_rejected(self):
        with pytest.raises(WeightOutOfRange):
            validate_tree(TreeSpec(2, ((1, 2, -1.2),)))

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            validate_tree(TreeSpec(3, ((1, 2, 0.5), (2, 1, 0.3))))

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            validate_tree(TreeSpec(4, ((1, 2, 0.5), (2, 3, 0.5))))

    def test_node_out_of_range(self):
        with pytest.raises(DisconnectedError):
            validate_tree(TreeSpec(3, ((1, 2, 0.5), (2, 7, 0.5))))

    def test_self_loop(self):
        with pytest.raises(CycleError):
            validate_tree(TreeSpec(2, ((1, 1, 0.5),)))

    def test_zero_weight_warns_but_passes(self):
        spec = TreeSpec(2, ((1, 2, 0.0),))
        with pytest.warns(ZeroWeightWarning):
            validate_tree(spec)

    def test_single_node(self):
        assert validate_tree(TreeSpec(1, ())).node_count == 1

    def test_rooting_leaves_equality_hash_and_repr_alone(self):
        fresh = TreeSpec(3, ((1, 2, 0.5), (2, 3, 0.6)))
        rooted = validate_tree(TreeSpec(3, ((1, 2, 0.5), (2, 3, 0.6))))
        assert rooted == fresh
        assert hash(rooted) == hash(fresh)
        assert repr(rooted) == repr(fresh)
        assert tree_to_json(rooted) == tree_to_json(fresh)


class TestBuildCovariance:
    def test_single_edge(self):
        cov = build_covariance(TreeSpec(2, ((1, 2, 0.5),)))
        assert np.array_equal(cov.matrix, [[1.0, 0.5], [0.5, 1.0]])
        assert cov.normalized

    def test_chain_path_product(self):
        cov = build_covariance(CHAIN)
        assert cov.matrix[0, 2] == pytest.approx(0.30, abs=0)

    def test_diagonal_exactly_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            cov = build_covariance(random_tree(rng, int(rng.integers(2, 12))))
            assert np.all(np.diag(cov.matrix) == 1.0)

    def test_inverse_matches_closed_form(self):
        rng = np.random.default_rng(2)
        spec = random_tree(rng, 8)
        dense_inverse = np.linalg.inv(build_covariance(spec).matrix)
        assert np.abs(dense_inverse - tree_precision(spec).matrix).max() < 1e-10


class TestTreePrecision:
    def test_single_edge_closed_form(self):
        prec = tree_precision(TreeSpec(2, ((1, 2, 0.5),)))
        expected = np.array([[4 / 3, -2 / 3], [-2 / 3, 4 / 3]])
        assert np.abs(prec.matrix - expected).max() < 1e-15

    def test_chain_diagonal_entry(self):
        prec = tree_precision(CHAIN)
        assert prec.matrix[1, 1] == pytest.approx(1 + 0.25 / 0.75 + 0.36 / 0.64, abs=1e-12)

    def test_product_with_covariance_is_identity(self):
        rng = np.random.default_rng(3)
        spec = random_tree(rng, 10)
        product = build_covariance(spec).matrix @ tree_precision(spec).matrix
        assert np.abs(product - np.eye(10)).max() < 1e-9


class TestTreeDeterminant:
    def test_two_edge_chain(self):
        assert tree_determinant(CHAIN) == pytest.approx(0.48, abs=1e-15)

    def test_single_node_empty_product(self):
        assert tree_determinant(TreeSpec(1, ())) == 1.0

    def test_matches_dense_determinant(self):
        rng = np.random.default_rng(4)
        spec = random_tree(rng, 12)
        dense = np.linalg.det(build_covariance(spec).matrix)
        assert tree_determinant(spec) == pytest.approx(dense, rel=1e-10)


@st.composite
def tree_specs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    edges = []
    for v in range(2, n + 1):
        parent = draw(st.integers(min_value=1, max_value=v - 1))
        w = draw(
            st.floats(min_value=-0.9, max_value=0.9).filter(lambda x: abs(x) > 1e-3)
        )
        edges.append((parent, v, w))
    return TreeSpec(n, tuple(edges))


@settings(max_examples=40, deadline=None)
@given(tree_specs())
def test_closed_forms_agree_with_dense_algebra(spec):
    cov = build_covariance(spec).matrix
    prec = tree_precision(spec).matrix
    n = spec.node_count
    assert np.abs(cov @ prec - np.eye(n)).max() < 1e-9
    assert tree_determinant(spec) == pytest.approx(np.linalg.det(cov), rel=1e-10)
    assert np.array_equal(cov, cov.T)


# float64 rounding: each multiply errs by at most u relative plus one
# subnormal step, so two orders of a product of k+1 factors differ by at
# most 2*k*(u*|product| + step).
UNIT_ROUNDOFF = 2.0**-53
SUBNORMAL_STEP = 2.0**-1074

tree_weights = st.one_of(
    st.just(0.0),
    st.floats(min_value=-0.999999, max_value=0.999999),
)


@st.composite
def shaped_trees(draw):
    """Random, path and star trees on up to 200 randomly labelled nodes."""
    n = draw(st.integers(min_value=1, max_value=200))
    shape = draw(st.sampled_from(["random", "path", "star"]))
    label = draw(st.permutations(range(1, n + 1)))
    weights = draw(st.lists(tree_weights, min_size=n - 1, max_size=n - 1))
    edges = []
    for v in range(1, n):
        if shape == "random":
            parent = draw(st.integers(min_value=0, max_value=v - 1))
        else:
            parent = v - 1 if shape == "path" else 0
        edges.append((label[parent], label[v], weights[v - 1]))
    return TreeSpec(n, tuple(edges))


@pytest.mark.filterwarnings("ignore::chernoff.ZeroWeightWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shaped_trees())
def test_recurrence_matches_path_product_oracle(spec):
    cov = build_covariance(spec).matrix
    oracle, hops = path_product_covariance(spec)
    steps = np.maximum(hops - 1, 0)
    bound = 2.0 * steps * (UNIT_ROUNDOFF * np.abs(oracle) + SUBNORMAL_STEP)
    assert np.all(np.abs(cov - oracle) <= bound)
    assert np.all(np.diag(cov) == 1.0)
    assert np.array_equal(cov, cov.T)


def test_single_node_covariance():
    assert np.array_equal(build_covariance(TreeSpec(1, ())).matrix, [[1.0]])


def test_long_path_builds_without_recursion():
    n = 1500
    weights = np.linspace(0.999, 0.99, n - 1)
    spec = TreeSpec(n, tuple((v, v + 1, float(w)) for v, w in zip(range(1, n), weights)))
    cov = build_covariance(spec).matrix
    np.testing.assert_allclose(cov[0, 1:], np.cumprod(weights), rtol=1e-12)
    assert np.array_equal(cov, cov.T)


class TestJson:
    def test_round_trip(self):
        obj = tree_to_json(CHAIN)
        assert obj == {"nodes": 3, "edges": [[1, 2, 0.5], [2, 3, 0.6]]}
        assert tree_from_json(obj) == CHAIN

    def test_missing_field(self):
        with pytest.raises(ParseError):
            tree_from_json({"edges": []})

    def test_bad_edge_entry(self):
        with pytest.raises(ParseError):
            tree_from_json({"nodes": 2, "edges": [[1, 2]]})

    def test_not_an_object(self):
        with pytest.raises(ParseError):
            tree_from_json([1, 2, 3])


class TestCovarianceFromMatrix:
    def test_asymmetric_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            covariance_from_matrix([[1.0, 0.5], [0.2, 1.0]])

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            covariance_from_matrix([[1.0, 2.0], [2.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            covariance_from_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_normalized_flag(self):
        assert covariance_from_matrix(np.eye(3)).normalized
        assert not covariance_from_matrix(2.0 * np.eye(3)).normalized

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kept_factor_and_logdet(self, seed):
        rng = np.random.default_rng(seed)
        for cov in (
            covariance_from_matrix(1e3 * random_spd(rng, 8)),
            build_covariance(random_tree(rng, 40)),
        ):
            chol = cov.chol
            assert not chol.flags.writeable
            assert np.array_equal(chol, np.tril(chol))
            residual = np.abs(chol @ chol.T - cov.matrix).max()
            assert residual <= 1e-13 * np.abs(cov.matrix).max()
            sign, logdet = np.linalg.slogdet(cov.matrix)
            assert sign == 1.0
            assert cov.logdet == pytest.approx(logdet, rel=1e-12)
            assert "chol" not in repr(cov)


class TestSpdFactorStack:
    def test_stack_factors_match_single_matrices(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3, 6))
        stack = x @ x.transpose(0, 2, 1)
        sym, chol = spd_factor(stack)
        for r in range(4):
            assert np.array_equal(chol[r], np.linalg.cholesky(sym[r]))
        np.testing.assert_allclose(chol @ chol.transpose(0, 2, 1), stack, rtol=1e-12)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([[1.0, 0.5], [0.2, 1.0]], "not symmetric"),
            ([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),
            ([[1.0, np.inf], [np.inf, 1.0]], "non-finite"),
        ],
    )
    def test_one_bad_matrix_rejects_the_stack(self, bad, message):
        stack = np.stack([np.eye(2), np.array(bad), np.eye(2)])
        with pytest.raises(NotPositiveDefinite, match=message):
            spd_factor(stack, name="stack")
