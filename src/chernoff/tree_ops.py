"""Topology operations on Gaussian tree pairs and grafting chains.

Three operations act on trees without changing the Chernoff information
structure in characteristic ways:

* adding: attach the same new leaf (same anchor node, same weight) to both
  trees of a pair; the generalized spectrum gains exactly one unit
  eigenvalue.
* division: replace a shared edge of weight w1*w2 in both trees by a new
  intermediate node with edges of weights w1 and w2; again exactly one
  unit eigenvalue is added.
* grafting: cut one edge (i,p) and re-attach the detached subtree at a new
  anchor q with the same weight.  The edge-weight multiset, and hence the
  determinant, is unchanged.

A chain T1 <-> T2 <-> ... <-> Tn of grafting operations is "independent"
when the operations are confined to disjoint branches around an unchanged
center subtree.  For such chains the balance point of every tree pair is
exactly 1/2 (equivalently tr(S_half (S1^{-1} - S2^{-1})) = 0) and Chernoff
information is monotone on nested index intervals.  The independence
definition is pictorial in origin; ``is_independent_chain`` implements a
conservative set-theoretic formalization (it may reject some independent
configurations, never the reverse), documented on the function.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .divergence import ChernoffResult, pairwise_chernoff
from .errors import (
    DeterminantMismatch,
    DimensionMismatch,
    DisconnectedError,
    DuplicateEdge,
    EdgeNotFound,
    EdgeNotShared,
    InvalidNode,
    WeightFactorMismatch,
    WeightOutOfRange,
    WouldCreateCycle,
)
from .gaussian_tree import TreeSpec, tree_from_json, validate_tree
from .gaussian_tree import _json_float, _json_int, _json_list, _json_object
from .geneig import _coerce_pair, generalized_eigenvalues

EDGE_WEIGHT_ATOL = 1e-12
DETERMINANT_RTOL = 1e-9
ORDERING_SLACK = 1e-9


@dataclass(frozen=True)
class GraftOp:
    """Cut edge (subtree_root, old_neighbor) and re-attach at new_neighbor."""

    subtree_root: int
    old_neighbor: int
    new_neighbor: int
    weight: float


@dataclass(frozen=True)
class GraftChain:
    """Base tree plus grafting operations and every intermediate tree.

    ``trees[0]`` is the base; ``trees[k+1]`` results from applying
    ``ops[k]`` to ``trees[k]``.
    """

    base: TreeSpec
    ops: tuple[GraftOp, ...]
    trees: tuple[TreeSpec, ...]


@dataclass(frozen=True)
class IndependenceReport:
    independent: bool
    center: tuple[int, ...] | None
    conflicts: tuple[tuple[int, int], ...]
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.independent


@dataclass(frozen=True)
class NestedCheck:
    outer: tuple[int, int]
    inner: tuple[int, int]
    ci_outer: float
    ci_inner: float
    margin: float
    ok: bool


@dataclass(frozen=True)
class OrderingReport:
    independent: IndependenceReport  # true exactly when the chain is independent
    checks: tuple[NestedCheck, ...]
    violations: tuple[NestedCheck, ...]
    min_pair: tuple[int, int]
    min_pair_adjacent: bool
    all_nested_hold: bool
    status: str  # "pass" / "fail" when independent, "observational" otherwise
    slack: float


def graft_op_from_json(obj) -> GraftOp:
    """Parse ``{"subtree_root": i, "old_neighbor": p, "new_neighbor": q, "weight": w}``."""
    nodes = ("subtree_root", "old_neighbor", "new_neighbor")
    obj = _json_object(obj, "graft op JSON", nodes + ("weight",))
    return GraftOp(
        *(_json_int(obj[name], name) for name in nodes),
        weight=_json_float(obj["weight"], "weight"),
    )


def graft_op_to_json(op: GraftOp) -> dict:
    return asdict(op)


def chain_from_json(obj) -> GraftChain:
    """Parse ``{"base": <tree>, "ops": [<graft op>, ...]}`` and build the chain."""
    obj = _json_object(obj, "chain JSON", ("base",))
    base = tree_from_json(obj["base"])
    ops = tuple(graft_op_from_json(o) for o in _json_list(obj.get("ops", []), "'ops'"))
    return make_chain(base, ops)


def adding_operation(
    pair: tuple[TreeSpec, TreeSpec], attach_node: int, weight: float
) -> tuple[TreeSpec, TreeSpec]:
    """Attach leaf N+1 to ``attach_node`` with ``weight`` in both trees."""
    t1, t2 = _same_size(pair)
    n = t1.node_count
    if not 1 <= attach_node <= n:
        raise InvalidNode(f"attach node {attach_node} outside 1..{n}")
    if not abs(weight) < 1.0:
        raise WeightOutOfRange(f"leaf weight {weight} must satisfy |w| < 1")
    new_edge = (attach_node, n + 1, weight)
    return tuple(validate_tree(TreeSpec(n + 1, t.edges + (new_edge,))) for t in (t1, t2))


def division_operation(
    pair: tuple[TreeSpec, TreeSpec], edge: tuple[int, int], w1: float, w2: float
) -> tuple[TreeSpec, TreeSpec]:
    """Split a shared edge (p,q) of weight w1*w2 through a new node N+1."""
    t1, t2 = _same_size(pair)
    p, q = edge
    key = (min(p, q), max(p, q))
    weights1, weights2 = t1.edge_weights(), t2.edge_weights()
    if key not in weights1 or key not in weights2:
        raise EdgeNotShared(f"edge {key} is not present in both trees")
    w_shared = weights1[key]
    if abs(w_shared - weights2[key]) > EDGE_WEIGHT_ATOL:
        raise EdgeNotShared(
            f"edge {key} has weights {w_shared} and {weights2[key]} in the two trees"
        )
    if not (abs(w1) < 1.0 and abs(w2) < 1.0):
        raise WeightOutOfRange(f"factors ({w1}, {w2}) must both satisfy |w| < 1")
    if abs(w1 * w2 - w_shared) > EDGE_WEIGHT_ATOL:
        raise WeightFactorMismatch(
            f"w1*w2 = {w1 * w2} does not reproduce the shared weight {w_shared}"
        )
    n = t1.node_count
    path = ((p, n + 1, w1), (n + 1, q, w2))
    return tuple(validate_tree(TreeSpec(n + 1, _without_edge(t, key) + path)) for t in (t1, t2))


def _same_size(pair) -> tuple[TreeSpec, TreeSpec]:
    """Both trees of ``pair``, validated, once their node counts agree."""
    t1, t2 = (validate_tree(t) for t in pair)
    if t1.node_count != t2.node_count:
        raise DimensionMismatch(f"trees have {t1.node_count} and {t2.node_count} nodes")
    return t1, t2


def _without_edge(tree: TreeSpec, key) -> tuple[tuple[int, int, float], ...]:
    """``tree``'s edges, in order, less the edge whose sorted node pair is ``key``."""
    return tuple(e for e in tree.edges if (min(e[0], e[1]), max(e[0], e[1])) != key)


def _components(tree: TreeSpec, keep) -> list[set[int]]:
    """Connected components of ``tree`` induced on the node ids in ``keep``.

    One pass over the BFS order that ``validate_tree`` keeps: a kept node
    joins its parent's component if the parent is kept, else starts one.
    Components are listed in the order of their smallest node.
    """
    order, parent, _ = validate_tree(tree)._rooted
    head = [-1] * len(order)  # BFS position heading each kept node's component
    components: dict[int, set[int]] = {}
    for k, v in enumerate(order):
        if v + 1 in keep:
            up = parent[k]
            head[k] = head[up] if up >= 0 and head[up] >= 0 else k
            components.setdefault(head[k], set()).add(v + 1)
    return sorted(components.values(), key=min)


def apply_graft(tree: TreeSpec, op: GraftOp) -> TreeSpec:
    """Remove edge (subtree_root, old_neighbor), add (subtree_root, new_neighbor).

    The new anchor must lie outside the detached subtree, or ``validate_tree``
    finds the result cyclic and disconnected (a repeated edge or cut-off nodes).
    """
    tree = validate_tree(tree)
    i, p, q, w = op.subtree_root, op.old_neighbor, op.new_neighbor, op.weight
    n = tree.node_count
    for v, label in ((i, "subtree_root"), (p, "old_neighbor"), (q, "new_neighbor")):
        if not 1 <= v <= n:
            raise InvalidNode(f"{label} {v} outside 1..{n}")
    key = (min(i, p), max(i, p))
    weights = tree.edge_weights()
    if key not in weights:
        raise EdgeNotFound(f"no edge {key} in the tree")
    if abs(weights[key] - w) > EDGE_WEIGHT_ATOL:
        raise EdgeNotFound(
            f"edge {key} has weight {weights[key]}, op expects {w}"
        )
    if q == i:
        raise WouldCreateCycle(f"new anchor {q} is the moved subtree's root")
    try:
        return validate_tree(TreeSpec(n, _without_edge(tree, key) + ((i, q, w),)))
    except (DuplicateEdge, DisconnectedError) as exc:
        raise WouldCreateCycle(f"new anchor {q} lies inside the moved subtree") from exc


def make_chain(base: TreeSpec, ops) -> GraftChain:
    """Apply ops left to right, validating every intermediate tree."""
    base = validate_tree(base)
    ops = tuple(ops)
    trees = [base]
    for op in ops:
        trees.append(apply_graft(trees[-1], op))
    return GraftChain(base=base, ops=ops, trees=tuple(trees))


def is_independent_chain(chain: GraftChain) -> IndependenceReport:
    """Conservative test for mutually independent grafting operations.

    Operations count as independent when (a) no node has incident edges
    modified by two different operations, i.e. the triples
    {subtree_root, old_neighbor, new_neighbor} are pairwise disjoint, and
    (b) there is a connected center subtree, avoiding every anchor node,
    such that removing it splits the base tree into branches each touched
    by at most one operation.  Candidate centers are the connected
    components of the base tree minus all anchors; if a valid center
    exists, the maximal such component is one, so checking components
    suffices.

    The test is conservative: configurations it accepts satisfy the
    independence picture, but unusual independent layouts may be rejected.
    A single operation is vacuously independent.
    """
    n_ops = len(chain.ops)
    if n_ops <= 1:
        return IndependenceReport(
            independent=True,
            center=None,
            conflicts=(),
            notes=("at most one operation; independence is vacuous",),
        )

    modified = [
        frozenset((op.subtree_root, op.old_neighbor, op.new_neighbor))
        for op in chain.ops
    ]
    conflicts = tuple(
        (k, l)
        for k in range(n_ops)
        for l in range(k + 1, n_ops)
        if modified[k] & modified[l]
    )
    if conflicts:
        return IndependenceReport(
            independent=False,
            center=None,
            conflicts=conflicts,
            notes=("operations modify edges at a shared node",),
        )

    base = chain.base
    nodes = set(range(1, base.node_count + 1))
    anchors = {v for op in chain.ops for v in (op.old_neighbor, op.new_neighbor)}
    candidates = _components(base, nodes - anchors)

    best_pairs: tuple[tuple[int, int], ...] = tuple(
        (k, l) for k in range(n_ops) for l in range(k + 1, n_ops)
    )
    for center in candidates:
        co_resident: set[tuple[int, int]] = set()
        ok = True
        for comp in _components(base, nodes - center):
            touching = [k for k in range(n_ops) if modified[k] & comp]
            if len(touching) > 1:
                ok = False
                co_resident.update(
                    (touching[a], touching[b])
                    for a in range(len(touching))
                    for b in range(a + 1, len(touching))
                )
        if ok:
            return IndependenceReport(
                independent=True,
                center=tuple(sorted(center)),
                conflicts=(),
            )
        if len(co_resident) < len(best_pairs):
            best_pairs = tuple(sorted(co_resident))

    return IndependenceReport(
        independent=False,
        center=None,
        conflicts=best_pairs,
        notes=("no unchanged center subtree separates the operations",),
    )


def trace_condition(sigma1, sigma2) -> float:
    """tr(S_half (S1^{-1} - S2^{-1})) with S_half the midpoint interpolant.

    Requires |S1| = |S2| (relative tolerance 1e-9); under that assumption
    the value is zero exactly when the balance point is 1/2.
    """
    c1, c2 = _coerce_pair(sigma1, sigma2)
    gap = abs(c1.logdet - c2.logdet)
    if gap > DETERMINANT_RTOL:
        raise DeterminantMismatch(
            f"log-determinants differ by {gap:.3e}; "
            "the midpoint characterization needs equal determinants"
        )
    # In the joint eigenbasis S2 = I and S1 = diag(v), so S_half is
    # diag(2v / (1 + v)) and the trace is sum 2v/(1+v) (1/v - 1).
    v = generalized_eigenvalues(c1, c2).values
    return float(np.sum(2.0 * (1.0 - v) / (1.0 + v)))


def chain_pairwise_chernoff(chain: GraftChain) -> dict[tuple[int, int], ChernoffResult]:
    """Chernoff result for every tree pair (a, b) with a < b, 0-based."""
    return pairwise_chernoff(chain.trees)


def chain_ci_matrix(chain: GraftChain, pairwise=None) -> np.ndarray:
    """Symmetric matrix of pairwise Chernoff information values."""
    n = len(chain.trees)
    if pairwise is None:
        pairwise = chain_pairwise_chernoff(chain)
    mat = np.zeros((n, n))
    for (a, b), res in pairwise.items():
        mat[a, b] = res.ci
        mat[b, a] = res.ci
    return mat


def verify_partial_ordering(
    chain: GraftChain, slack: float = ORDERING_SLACK, pairwise=None
) -> OrderingReport:
    """Check CI(T_i||T_j) <= CI(T_p||T_q) on all nested index pairs.

    The inequality is a theorem only for independent chains, so the report
    is marked observational when the independence test fails; that test's
    ``IndependenceReport`` is kept as the report's ``independent`` field.
    The global minimum over all pairs is also checked to be attained
    (within slack) by an adjacent pair.
    """
    if pairwise is None:
        pairwise = chain_pairwise_chernoff(chain)
    ci = chain_ci_matrix(chain, pairwise)
    n = len(chain.trees)
    checks = []
    for p in range(n):
        for q in range(p + 1, n):
            for i in range(p, q + 1):
                for j in range(i + 1, q + 1):
                    if (i, j) == (p, q):
                        continue
                    margin = ci[p, q] - ci[i, j]
                    checks.append(
                        NestedCheck(
                            outer=(p, q),
                            inner=(i, j),
                            ci_outer=float(ci[p, q]),
                            ci_inner=float(ci[i, j]),
                            margin=float(margin),
                            ok=bool(margin >= -slack),
                        )
                    )
    violations = tuple(c for c in checks if not c.ok)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if pairs:
        min_pair = min(pairs, key=lambda ab: ci[ab])
        adjacent_min = min(ci[a, a + 1] for a in range(n - 1)) if n > 1 else 0.0
        min_adjacent = bool(adjacent_min <= ci[min_pair] + slack)
    else:
        min_pair = (0, 0)
        min_adjacent = True
    independent = is_independent_chain(chain)
    all_hold = not violations and min_adjacent
    if independent:
        status = "pass" if all_hold else "fail"
    else:
        status = "observational"
    return OrderingReport(
        independent=independent,
        checks=tuple(checks),
        violations=violations,
        min_pair=min_pair,
        min_pair_adjacent=min_adjacent,
        all_nested_hold=bool(all_hold),
        status=status,
        slack=slack,
    )
