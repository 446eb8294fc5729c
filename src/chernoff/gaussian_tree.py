"""Normalized Gaussian tree models and their closed-form matrix algebra.

A weighted spanning tree on nodes 1..N with edge weights strictly inside
(-1, 1) defines a zero-mean Gaussian vector in which every variable has
unit variance and the covariance of two nodes is the product of the edge
weights along the unique path between them.  For such models the precision
matrix and the determinant have closed forms:

* off-diagonal precision entries are -w/(1-w^2) on tree edges and 0
  elsewhere,
* diagonal precision entries are 1 + sum over incident edges of
  w^2/(1-w^2),
* the determinant is the product over edges of (1-w^2).

Node ids are 1-based in ``TreeSpec`` and in all JSON payloads; numpy array
indices are 0-based.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    CycleError,
    DimensionMismatch,
    DisconnectedError,
    DuplicateEdge,
    NotPositiveDefinite,
    ParseError,
    WeightOutOfRange,
)

SYMMETRY_RTOL = 1e-12
NORMALIZED_ATOL = 1e-12


class ZeroWeightWarning(UserWarning):
    """A zero edge weight makes the two sides of the edge independent."""


class _Rooted(NamedTuple):
    """A tree rooted at node 1, listed in BFS order (positions 0..N-1)."""

    order: tuple[int, ...]  # 0-based node index at each BFS position
    parent: tuple[int, ...]  # BFS position of the parent; -1 at the root
    weight: tuple[float, ...]  # weight of the parent edge; 0.0 at the root


@dataclass(frozen=True)
class TreeSpec:
    """Weighted tree: ``node_count`` nodes (ids 1..N) and N-1 weighted edges.

    ``validate_tree`` attaches the rooted form to the spec it checks; the
    field takes no part in equality, hashing or ``repr``.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]
    _rooted: _Rooted | None = field(default=None, init=False, repr=False, compare=False)

    def edge_weights(self) -> dict[tuple[int, int], float]:
        """Weights keyed by sorted node pair."""
        return {(min(i, j), max(i, j)): w for i, j, w in self.edges}


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive-definite matrix, its Cholesky factor and light metadata.

    ``chol`` is the read-only lower Cholesky factor L with L L^T = ``matrix``
    that ``covariance_from_matrix`` computed to establish positive
    definiteness.  Whitening, solves, log-determinants and sampling all use
    it, so each matrix is factored once.  It takes no part in equality or
    ``repr``.
    """

    matrix: np.ndarray
    dim: int
    normalized: bool
    chol: np.ndarray = field(compare=False, repr=False)

    @property
    def logdet(self) -> float:
        """ln det(matrix) = 2 sum ln diag(L)."""
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


def _json_int(value, what: str, low: int | None = None) -> int:
    """A JSON integer, at least ``low`` if given; integral floats such as ``2.0`` pass."""
    if type(value) is not int:  # a bool is an int subclass, not an int
        if not (type(value) is float and value.is_integer()):
            raise ParseError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise ParseError(f"{what} must be >= {low}, got {value}")
    return value


def _json_float(value, what: str) -> float:
    """A JSON number that fits a float64; bools and strings are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float64 range
            pass
    raise ParseError(f"{what} must be a float64 number, got {value!r}")


def _json_list(value, what: str, size: int | None = None) -> list:
    if not isinstance(value, list) or (size is not None and len(value) != size):
        entries = "" if size is None else f" of {size} entries"
        raise ParseError(f"{what} must be a list{entries}, got {value!r}")
    return value


def _json_object(value, what: str, fields) -> dict:
    if not (isinstance(value, dict) and all(name in value for name in fields)):
        raise ParseError(f"{what} must be an object with fields {', '.join(fields)}")
    return value


def tree_from_json(obj) -> TreeSpec:
    """Parse ``{"nodes": N, "edges": [[i, j, w], ...]}`` into a validated TreeSpec."""
    obj = _json_object(obj, "tree JSON", ("nodes", "edges"))
    nodes = _json_int(obj["nodes"], "'nodes'")
    edges = []
    for entry in _json_list(obj["edges"], "'edges'"):
        i, j, w = _json_list(entry, "edge entry [i, j, w]", 3)
        edges.append(
            (_json_int(i, "node id"), _json_int(j, "node id"), _json_float(w, "edge weight"))
        )
    return validate_tree(TreeSpec(node_count=nodes, edges=tuple(edges)))


def model_from_json(obj, name: str) -> CovarianceMatrix:
    """A model given as a tree object or as a row-major matrix of numbers.

    Entries are checked one by one unless numpy reads the matrix as integer
    or float, so a bool matrix is rejected but a ``true`` among numbers reads as 1.
    """
    if isinstance(obj, dict):
        return build_covariance(tree_from_json(obj))
    try:
        arr = np.asarray(_json_list(obj, f"{name} (a tree object or a row-major matrix)"))
        if arr.dtype.kind not in "iuf":
            arr = np.array([
                [_json_float(x, f"{name} entry") for x in _json_list(row, f"{name} row")]
                for row in obj
            ])
    except ValueError as exc:  # ragged rows
        raise ParseError(f"{name} is not a row-major matrix: {exc}") from exc
    return covariance_from_matrix(arr, name=name)


def tree_to_json(spec: TreeSpec) -> dict:
    return {"nodes": spec.node_count, "edges": [[i, j, w] for i, j, w in spec.edges]}


def validate_tree(spec: TreeSpec) -> TreeSpec:
    """Check all TreeSpec invariants and return the spec itself, rooted.

    Raises CycleError, DisconnectedError, WeightOutOfRange or DuplicateEdge.
    The edge count and node ranges are checked before anything of size N is
    allocated.  A zero weight is legal but triggers ZeroWeightWarning since
    it severs the dependence between the two sides of the edge; only a spec
    that passes every check warns.  The BFS from node 1 that decides
    connectivity is kept on the spec, so a spec that passed once is neither
    traversed nor warned about again.
    """
    if spec._rooted is not None:
        return spec
    n = spec.node_count
    if n < 1:
        raise DisconnectedError("node_count must be >= 1")
    if len(spec.edges) > n - 1:
        raise CycleError(f"{len(spec.edges)} edges on {n} nodes form a cycle")
    if len(spec.edges) < n - 1:
        raise DisconnectedError(f"{len(spec.edges)} edges cannot connect {n} nodes")
    seen = set()
    zero = []
    for i, j, w in spec.edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise DisconnectedError(f"edge ({i},{j}) references a node outside 1..{n}")
        if i == j:
            raise CycleError(f"self-loop at node {i}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdge(f"edge {key} appears more than once")
        seen.add(key)
        if not abs(w) < 1.0:
            raise WeightOutOfRange(f"edge {key} weight {w} must satisfy |w| < 1")
        if w == 0.0:
            zero.append(key)

    # N-1 distinct edges: connected iff acyclic; a BFS from node 1 decides.
    rooted = _bfs(n, spec.edges)
    for key in zero:
        warnings.warn(
            f"edge {key} has weight 0; it carries no dependence",
            ZeroWeightWarning,
            stacklevel=2,
        )
    object.__setattr__(spec, "_rooted", rooted)
    return spec


def _bfs(n: int, edges) -> _Rooted:
    """Root the N-1 range-checked ``edges`` at node 1 by breadth-first search."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, w in edges:
        adj[i - 1].append((j - 1, w))
        adj[j - 1].append((i - 1, w))
    seen = [False] * n
    seen[0] = True
    order, parent, weight = [0], [-1], [0.0]
    for k, v in enumerate(order):  # ``order`` grows while it is scanned
        for u, w in adj[v]:
            if not seen[u]:
                seen[u] = True
                order.append(u)
                parent.append(k)
                weight.append(w)
    if len(order) != n:
        # some component carries at least as many edges as nodes
        unreached = [v + 1 for v in range(n) if not seen[v]]
        raise DisconnectedError(f"nodes {unreached} are unreachable from node 1")
    return _Rooted(tuple(order), tuple(parent), tuple(weight))


def build_covariance(spec: TreeSpec) -> CovarianceMatrix:
    """Dense covariance with unit diagonal and path-product off-diagonals.

    The covariance of two nodes is the product of the weights on their
    path, so each node's row is its parent's row times the parent-edge
    weight: row(v) = w_v * row(parent(v)).  Nodes are placed in BFS order
    from node 1 and each fills one vectorized row, and its mirror column,
    over the nodes already placed.  That is N interpreted steps and O(N^2)
    multiplications, with no divisions, so zero weights are exact, the
    diagonal is exactly 1 and the matrix exactly symmetric.
    """
    spec = validate_tree(spec)
    order, parent, weight = spec._rooted
    n = spec.node_count
    placed = np.eye(n)  # rows and columns in BFS order
    for k in range(1, n):
        row = weight[k] * placed[parent[k], :k]
        placed[k, :k] = row
        placed[:k, k] = row
    cov = np.empty_like(placed)
    cov[np.ix_(order, order)] = placed
    return covariance_from_matrix(cov)


def tree_precision(spec: TreeSpec) -> CovarianceMatrix:
    """Closed-form inverse of the tree covariance."""
    spec = validate_tree(spec)
    n = spec.node_count
    prec = np.eye(n)
    for i, j, w in spec.edges:
        d = 1.0 - w * w
        prec[i - 1, j - 1] = -w / d
        prec[j - 1, i - 1] = -w / d
        prec[i - 1, i - 1] += w * w / d
        prec[j - 1, j - 1] += w * w / d
    return covariance_from_matrix(prec)


def tree_determinant(spec: TreeSpec) -> float:
    """Product over edges of (1 - w^2); the empty product (N=1) is 1.

    Factors are multiplied in sorted order so trees with equal weight
    multisets (for example along a grafting chain) give bit-identical
    determinants.
    """
    spec = validate_tree(spec)
    factors = sorted(1.0 - w * w for _, _, w in spec.edges)
    det = 1.0
    for f in factors:
        det *= f
    return det


def spd_factor(arr: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """(exactly symmetrized arr, its lower Cholesky factor) for a (..., N, N) stack.

    Raises NotPositiveDefinite if any matrix has a non-finite entry, is not
    symmetric to within ``SYMMETRY_RTOL`` relative to its largest entry, or
    is not positive definite.
    """
    if not np.all(np.isfinite(arr)):
        raise NotPositiveDefinite(f"{name} contains non-finite entries")
    arr_t = np.swapaxes(arr, -1, -2)
    scale = np.maximum(1.0, np.abs(arr).max(axis=(-2, -1)))
    if np.any(np.abs(arr - arr_t).max(axis=(-2, -1)) > SYMMETRY_RTOL * scale):
        raise NotPositiveDefinite(f"{name} is not symmetric")
    if np.all(scale <= 0.5 * np.finfo(float).max):
        sym = 0.5 * (arr + arr_t)
    else:  # the sum could overflow; halving first cannot, but it rounds subnormals
        sym = 0.5 * arr + 0.5 * arr_t
    try:
        return sym, np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name} is not positive definite") from exc


def covariance_from_matrix(matrix, name: str = "matrix") -> CovarianceMatrix:
    """Validate symmetry and positive definiteness, and wrap the array.

    Symmetry is required to within ``SYMMETRY_RTOL`` relative tolerance and
    the stored matrix is exactly symmetrized.  Positive definiteness is
    established by a Cholesky factorization, which is kept as ``chol``.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be at least 1x1")
    sym, chol = spd_factor(arr, name)
    normalized = bool(np.abs(np.diag(sym) - 1.0).max() <= NORMALIZED_ATOL)
    sym.setflags(write=False)
    chol.setflags(write=False)
    return CovarianceMatrix(matrix=sym, dim=sym.shape[0], normalized=normalized, chol=chol)


def as_covariance(value, name: str = "matrix") -> CovarianceMatrix:
    """Coerce a CovarianceMatrix, TreeSpec, or raw array to CovarianceMatrix."""
    if isinstance(value, CovarianceMatrix):
        return value
    if isinstance(value, TreeSpec):
        return build_covariance(value)
    return covariance_from_matrix(value, name=name)
