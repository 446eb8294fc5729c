"""Adding, division, grafting, chain independence, and the partial ordering."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernoff import (
    GraftOp,
    TreeSpec,
    ZeroWeightWarning,
    adding_operation,
    apply_graft,
    build_covariance,
    chain_ci_matrix,
    chain_pairwise_chernoff,
    chernoff_information,
    division_operation,
    generalized_eigenvalues,
    is_independent_chain,
    make_chain,
    sigma_lambda,
    trace_condition,
    tree_determinant,
    validate_tree,
    verify_partial_ordering,
)
from chernoff.errors import (
    DeterminantMismatch,
    DimensionMismatch,
    EdgeNotFound,
    EdgeNotShared,
    InvalidNode,
    WeightFactorMismatch,
    WeightOutOfRange,
    WouldCreateCycle,
)
from chernoff.tree_ops import _components
from helpers import (
    dependent_chain,
    independent_chain_case,
    path_product_covariance,
    random_tree,
)

STAR = TreeSpec(5, ((1, 2, 0.4), (1, 3, 0.5), (1, 4, 0.6), (1, 5, 0.3)))


def _random_pair(rng, n):
    return random_tree(rng, n), random_tree(rng, n)


class TestAddingOperation:
    def test_attaches_same_leaf_to_both(self):
        t1 = TreeSpec(3, ((1, 2, 0.5), (2, 3, 0.6)))
        t2 = TreeSpec(3, ((1, 3, 0.2), (2, 3, 0.7)))
        o1, o2 = adding_operation((t1, t2), attach_node=2, weight=0.4)
        assert o1.node_count == o2.node_count == 4
        assert (2, 4, 0.4) in o1.edges
        assert (2, 4, 0.4) in o2.edges

    def test_appends_exactly_one_unit_eigenvalue(self):
        rng = np.random.default_rng(0)
        t1, t2 = _random_pair(rng, 5)
        o1, o2 = adding_operation((t1, t2), attach_node=3, weight=0.45)
        before = generalized_eigenvalues(build_covariance(t1), build_covariance(t2))
        after = generalized_eigenvalues(build_covariance(o1), build_covariance(o2))
        expected = np.sort(np.append(before.values, 1.0))
        assert np.abs(after.values - expected).max() < 1e-8

    def test_preserves_chernoff_information(self):
        rng = np.random.default_rng(1)
        t1, t2 = _random_pair(rng, 6)
        o1, o2 = adding_operation((t1, t2), attach_node=1, weight=-0.5)
        before = chernoff_information(build_covariance(t1), build_covariance(t2))
        after = chernoff_information(build_covariance(o1), build_covariance(o2))
        assert after.ci == pytest.approx(before.ci, abs=1e-9)
        assert after.lambda_star == pytest.approx(before.lambda_star, abs=1e-9)

    def test_invalid_node(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InvalidNode):
            adding_operation(_random_pair(rng, 4), attach_node=9, weight=0.5)

    def test_weight_out_of_range(self):
        rng = np.random.default_rng(3)
        with pytest.raises(WeightOutOfRange):
            adding_operation(_random_pair(rng, 4), attach_node=1, weight=1.0)

    def test_node_count_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DimensionMismatch):
            adding_operation((random_tree(rng, 4), random_tree(rng, 5)), 1, 0.3)


class TestDivisionOperation:
    def _shared_edge_pair(self):
        # both trees carry edge (1,3) with weight 0.35
        t1 = TreeSpec(3, ((1, 3, 0.35), (2, 3, 0.6)))
        t2 = TreeSpec(3, ((1, 3, 0.35), (1, 2, 0.4)))
        return t1, t2

    def test_splits_shared_edge(self):
        o1, o2 = division_operation(self._shared_edge_pair(), (1, 3), 0.5, 0.7)
        for out in (o1, o2):
            assert out.node_count == 4
            assert (1, 4, 0.5) in out.edges
            assert (4, 3, 0.7) in out.edges
            assert (1, 3) not in [(min(i, j), max(i, j)) for i, j, _ in out.edges]

    def test_appends_exactly_one_unit_eigenvalue(self):
        t1, t2 = self._shared_edge_pair()
        o1, o2 = division_operation((t1, t2), (1, 3), 0.5, 0.7)
        before = generalized_eigenvalues(build_covariance(t1), build_covariance(t2))
        after = generalized_eigenvalues(build_covariance(o1), build_covariance(o2))
        expected = np.sort(np.append(before.values, 1.0))
        assert np.abs(after.values - expected).max() < 1e-8

    def test_marginal_covariance_unchanged(self):
        t1, t2 = self._shared_edge_pair()
        o1, o2 = division_operation((t1, t2), (1, 3), 0.5, 0.7)
        for before, after in ((t1, o1), (t2, o2)):
            full = build_covariance(after).matrix
            assert np.abs(full[:3, :3] - build_covariance(before).matrix).max() < 1e-13

    def test_edge_not_shared(self):
        t1 = TreeSpec(3, ((1, 3, 0.35), (2, 3, 0.6)))
        t2 = TreeSpec(3, ((1, 2, 0.35), (2, 3, 0.6)))
        with pytest.raises(EdgeNotShared):
            division_operation((t1, t2), (1, 3), 0.5, 0.7)

    def test_shared_edge_with_different_weights(self):
        t1 = TreeSpec(3, ((1, 3, 0.35), (2, 3, 0.6)))
        t2 = TreeSpec(3, ((1, 3, 0.30), (2, 3, 0.6)))
        with pytest.raises(EdgeNotShared):
            division_operation((t1, t2), (1, 3), 0.5, 0.7)

    def test_weight_factor_mismatch(self):
        with pytest.raises(WeightFactorMismatch):
            division_operation(self._shared_edge_pair(), (1, 3), 0.5, 0.6)

    def test_factor_out_of_range(self):
        with pytest.raises(WeightOutOfRange):
            division_operation(self._shared_edge_pair(), (1, 3), 1.4, 0.25)


class TestApplyGraft:
    def test_star_to_chain_keeps_determinant(self):
        op = GraftOp(subtree_root=5, old_neighbor=1, new_neighbor=2, weight=0.3)
        out = apply_graft(STAR, op)
        assert (5, 2, 0.3) in out.edges
        assert tree_determinant(out) == tree_determinant(STAR)

    def test_anchor_inside_moved_subtree_rejected(self):
        chain = TreeSpec(4, ((1, 2, 0.5), (2, 3, 0.4), (3, 4, 0.3)))
        op = GraftOp(subtree_root=3, old_neighbor=2, new_neighbor=4, weight=0.4)
        with pytest.raises(WouldCreateCycle):
            apply_graft(chain, op)

    def test_involution(self):
        op = GraftOp(subtree_root=5, old_neighbor=1, new_neighbor=3, weight=0.3)
        moved = apply_graft(STAR, op)
        back = apply_graft(
            moved, GraftOp(subtree_root=5, old_neighbor=3, new_neighbor=1, weight=0.3)
        )
        assert back.edge_weights() == STAR.edge_weights()

    def test_missing_edge(self):
        op = GraftOp(subtree_root=2, old_neighbor=3, new_neighbor=1, weight=0.4)
        with pytest.raises(EdgeNotFound):
            apply_graft(STAR, op)

    def test_wrong_weight(self):
        op = GraftOp(subtree_root=2, old_neighbor=1, new_neighbor=3, weight=0.9)
        with pytest.raises(EdgeNotFound):
            apply_graft(STAR, op)

    def test_weight_multiset_preserved_along_chain(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            chain, _ = independent_chain_case(rng)
            reference = sorted(w for _, _, w in chain.base.edges)
            for tree in chain.trees:
                assert sorted(w for _, _, w in tree.edges) == reference
                assert tree_determinant(tree) == pytest.approx(
                    tree_determinant(chain.base), abs=0
                )


@st.composite
def graft_cases(draw):
    """A random labelled tree, one of its edges (i, p) in either direction, and q."""
    n = draw(st.integers(min_value=2, max_value=30))
    label = draw(st.permutations(range(1, n + 1)))
    edges = tuple(
        (
            label[draw(st.integers(min_value=0, max_value=v - 1))],
            label[v],
            draw(st.floats(min_value=0.1, max_value=0.9)),
        )
        for v in range(1, n)
    )
    i, p, w = draw(st.sampled_from(edges))
    if draw(st.booleans()):
        i, p = p, i
    q = draw(st.integers(min_value=1, max_value=n))
    return validate_tree(TreeSpec(n, edges)), i, p, q, w


@settings(max_examples=200, deadline=None)
@given(graft_cases())
def test_graft_rejected_exactly_when_anchor_is_in_moved_subtree(case):
    tree, i, p, q, w = case
    _, hops = path_product_covariance(tree)
    op = GraftOp(subtree_root=i, old_neighbor=p, new_neighbor=q, weight=w)
    if q == i or hops[q - 1, p - 1] == hops[q - 1, i - 1] + 1:
        with pytest.raises(WouldCreateCycle):
            apply_graft(tree, op)
    else:
        moved = apply_graft(tree, op)
        assert (i, q, w) in moved.edges
        assert len(moved.edges) == len(tree.edges)


class TestRejectedGraftIsSilent:
    # edge (2, 3) has weight 0, so validating a tree that holds it warns
    EDGES = ((1, 2, 0.5), (2, 3, 0.0), (3, 4, 0.4))

    @pytest.mark.parametrize(
        "op",
        [
            GraftOp(subtree_root=2, old_neighbor=1, new_neighbor=3, weight=0.5),
            GraftOp(subtree_root=2, old_neighbor=1, new_neighbor=4, weight=0.5),
        ],
        ids=["anchor-adjacent-to-root", "anchor-deeper-in-subtree"],
    )
    def test_no_warning(self, op):
        with pytest.warns(ZeroWeightWarning):
            tree = validate_tree(TreeSpec(4, self.EDGES))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(
                WouldCreateCycle, match=f"new anchor {op.new_neighbor} lies inside"
            ):
                apply_graft(tree, op)
        assert caught == []


@st.composite
def trees_and_keep_sets(draw):
    """A random labelled tree and a set of its nodes, empty and full included."""
    n = draw(st.integers(min_value=1, max_value=25))
    label = draw(st.permutations(range(1, n + 1)))
    edges = tuple(
        (label[draw(st.integers(min_value=0, max_value=v - 1))], label[v], 0.5)
        for v in range(1, n)
    )
    nodes = range(1, n + 1)
    keep = draw(st.one_of(st.just(set()), st.just(set(nodes)), st.sets(st.sampled_from(nodes))))
    return validate_tree(TreeSpec(n, edges)), keep


def _union_find_components(tree, keep):
    parent = {v: v for v in keep}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j, _ in tree.edges:
        if i in keep and j in keep:
            parent[find(i)] = find(j)
    groups = {}
    for v in sorted(keep):
        groups.setdefault(find(v), set()).add(v)
    return sorted(groups.values(), key=min)


@settings(max_examples=200, deadline=None)
@given(trees_and_keep_sets())
def test_components_match_union_find(case):
    tree, keep = case
    assert _components(tree, keep) == _union_find_components(tree, keep)


class TestIndependence:
    def test_single_op_is_vacuously_independent(self):
        op = GraftOp(subtree_root=5, old_neighbor=1, new_neighbor=2, weight=0.3)
        report = is_independent_chain(make_chain(STAR, [op]))
        assert report.independent
        assert bool(report)

    def test_generated_chains_accepted_and_balanced(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            chain, _ = independent_chain_case(rng)
            report = is_independent_chain(chain)
            assert report.independent, (chain.base, chain.ops, report)
            covs = [build_covariance(t) for t in chain.trees]
            result = chernoff_information(covs[0], covs[-1])
            if not result.degenerate:
                assert result.lambda_star == pytest.approx(0.5, abs=1e-9)

    def test_dependent_chain_rejected_with_conflicts(self):
        report = is_independent_chain(dependent_chain())
        assert not report.independent
        assert report.conflicts == ((0, 1),)

    def test_interleaved_ops_rejected_conservatively(self):
        # anchor regions meet with no unchanged node between them; the
        # conservative test rejects this even though it cannot rule out
        # balance by accident
        base = TreeSpec(
            6, ((1, 2, 0.4), (2, 3, 0.5), (3, 4, 0.6), (4, 5, 0.3), (5, 6, 0.45))
        )
        ops = [
            GraftOp(subtree_root=1, old_neighbor=2, new_neighbor=3, weight=0.4),
            GraftOp(subtree_root=6, old_neighbor=5, new_neighbor=4, weight=0.45),
        ]
        report = is_independent_chain(make_chain(base, ops))
        assert not report.independent
        assert "center" in report.notes[0]

    def test_two_branches_around_center_accepted(self):
        # center node 4 separates the two operations' branches
        base = TreeSpec(
            7,
            (
                (4, 1, 0.5),
                (1, 2, 0.4),
                (2, 3, 0.6),
                (4, 5, 0.45),
                (5, 6, 0.35),
                (6, 7, 0.5),
            ),
        )
        ops = [
            GraftOp(subtree_root=3, old_neighbor=2, new_neighbor=1, weight=0.6),
            GraftOp(subtree_root=7, old_neighbor=6, new_neighbor=5, weight=0.5),
        ]
        report = is_independent_chain(make_chain(base, ops))
        assert report.independent
        assert report.center is not None and 4 in report.center


class TestTraceCondition:
    def test_identical_pair_is_zero(self):
        cov = build_covariance(STAR)
        assert trace_condition(cov, cov) == pytest.approx(0.0, abs=1e-12)

    def test_independent_endpoints(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            chain, _ = independent_chain_case(rng)
            c_first = build_covariance(chain.trees[0])
            c_last = build_covariance(chain.trees[-1])
            assert abs(trace_condition(c_first, c_last)) < 1e-9

    def test_dependent_endpoints_nonzero(self):
        chain = dependent_chain()
        c1 = build_covariance(chain.trees[0])
        c3 = build_covariance(chain.trees[2])
        assert abs(trace_condition(c1, c3)) > 1e-3
        result = chernoff_information(c1, c3)
        assert abs(result.lambda_star - 0.5) > 1e-3

    def test_determinant_mismatch(self):
        with pytest.raises(DeterminantMismatch):
            trace_condition(np.eye(2), 2.0 * np.eye(2))

    def test_spectral_sum_matches_dense_formula(self):
        def dense(c1, c2):
            half = sigma_lambda(c1, c2, 0.5).matrix
            return np.trace(np.linalg.solve(c1.matrix, half)) - np.trace(
                np.linalg.solve(c2.matrix, half)
            )

        rng = np.random.default_rng(11)
        chains = [independent_chain_case(rng)[0] for _ in range(6)] + [dependent_chain()]
        checked = 0
        for chain in chains:
            covs = [build_covariance(t) for t in chain.trees]
            for a in range(len(covs)):
                for b in range(a + 1, len(covs)):
                    assert trace_condition(covs[a], covs[b]) == pytest.approx(
                        dense(covs[a], covs[b]), abs=1e-12
                    )
                    checked += 1
        assert checked > 20


class TestChainCiMatrix:
    def test_two_tree_chain(self):
        op = GraftOp(subtree_root=5, old_neighbor=1, new_neighbor=2, weight=0.3)
        chain = make_chain(STAR, [op])
        mat = chain_ci_matrix(chain)
        assert mat.shape == (2, 2)
        assert mat[0, 0] == mat[1, 1] == 0.0
        assert mat[0, 1] == mat[1, 0] > 0.0

    def test_nested_monotonicity_on_independent_chain(self):
        rng = np.random.default_rng(8)
        chain, _ = independent_chain_case(rng, n_ops=3)
        mat = chain_ci_matrix(chain)
        n = len(chain.trees)
        for p in range(n):
            for q in range(p + 1, n):
                for i in range(p, q + 1):
                    for j in range(i + 1, q + 1):
                        assert mat[i, j] <= mat[p, q] + 1e-9

    def test_dependent_chain_reproduces_inversion(self):
        mat = chain_ci_matrix(dependent_chain())
        assert mat[0, 2] < mat[0, 1] - 1e-3


class TestVerifyPartialOrdering:
    def test_independent_chain_passes(self):
        rng = np.random.default_rng(9)
        chain, _ = independent_chain_case(rng, n_ops=2)
        report = verify_partial_ordering(chain)
        assert report.independent
        assert report.status == "pass"
        assert report.all_nested_hold
        assert report.min_pair_adjacent

    def test_min_ci_pair_is_adjacent(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            chain, _ = independent_chain_case(rng, n_ops=3)
            report = verify_partial_ordering(chain)
            assert report.min_pair_adjacent

    def test_dependent_chain_reports_observations(self):
        report = verify_partial_ordering(dependent_chain())
        assert not report.independent
        assert report.status == "observational"
        assert report.violations  # the CI inversion shows up as a violation

    def test_trivial_chain_without_ops(self):
        chain = make_chain(STAR, [])
        report = verify_partial_ordering(chain)
        assert report.status == "pass"
        assert report.checks == ()

    def test_lambda_star_half_on_all_pairs(self):
        rng = np.random.default_rng(11)
        chain, _ = independent_chain_case(rng, n_ops=3)
        for result in chain_pairwise_chernoff(chain).values():
            if not result.degenerate:
                assert result.lambda_star == pytest.approx(0.5, abs=1e-9)


class TestChainValidation:
    def test_every_intermediate_tree_is_valid(self):
        rng = np.random.default_rng(12)
        chain, _ = independent_chain_case(rng)
        for tree in chain.trees:
            validate_tree(tree)

    def test_chain_length(self):
        rng = np.random.default_rng(13)
        chain, _ = independent_chain_case(rng, n_ops=4)
        assert len(chain.trees) == len(chain.ops) + 1
