"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's solver paths: the
grid-search oracle works on dense matrices with numpy inversions and
slogdet, the batched projection oracle runs its own vectorized bisection,
and the tree oracles use plain dense linear algebra.
"""

from __future__ import annotations

import numpy as np

from chernoff import GraftOp, TreeSpec, make_chain, validate_tree


def random_tree(rng, n, w_lo=0.2, w_hi=0.85, negative_fraction=0.3):
    """Random spanning tree on 1..n with weights bounded away from 0 and 1."""
    edges = []
    for v in range(2, n + 1):
        parent = int(rng.integers(1, v))
        w = float(rng.uniform(w_lo, w_hi))
        if rng.random() < negative_fraction:
            w = -w
        edges.append((parent, v, w))
    return validate_tree(TreeSpec(n, tuple(edges)))


def path_product_covariance(spec):
    """Literal path-product covariance and path lengths, one walk per source.

    Weights are multiplied edge by edge outward from each source, so every
    entry is the plain product of its path weights.  O(N^2) interpreted
    steps; the reference for ``build_covariance``.  Returns the covariance
    and the number of edges on each path.
    """
    n = spec.node_count
    adj = {v: [] for v in range(1, n + 1)}
    for i, j, w in spec.edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    cov = np.eye(n)
    hops = np.zeros((n, n), dtype=int)
    for src in range(1, n + 1):
        stack = [(src, 1.0, 0)]
        visited = {src}
        while stack:
            v, prod, length = stack.pop()
            for u, w in adj[v]:
                if u in visited:
                    continue
                visited.add(u)
                p = prod * w
                if u > src:
                    cov[src - 1, u - 1] = p
                    cov[u - 1, src - 1] = p
                hops[src - 1, u - 1] = length + 1
                stack.append((u, p, length + 1))
    return cov, hops


def per_dimension_divergence(value: float, lam: float) -> float:
    """Contribution ln(u) + 1/u - 1 with u = (1-lam) + lam*value.

    This is one coordinate's share of D(S_lam || S1); it vanishes at
    value = 1 and increases monotonically as value moves away from 1 on
    either side.
    """
    u = (1.0 - lam) + lam * value
    return float(np.log(u) + 1.0 / u - 1.0)


def random_spd(rng, n, spread=1.0):
    """Random SPD matrix with moderate conditioning."""
    a = rng.standard_normal((n, n)) * spread
    return a @ a.T + n * np.eye(n)


def random_invertible(rng, n):
    """Random invertible matrix, rejection-sampled on conditioning."""
    while True:
        k = rng.standard_normal((n, n))
        svals = np.linalg.svd(k, compute_uv=False)
        if svals[-1] > 1e-3 * svals[0]:
            return k


def _rand_weight(rng, lo=0.3, hi=0.8):
    w = float(rng.uniform(lo, hi))
    return -w if rng.random() < 0.3 else w


def independent_chain_case(rng, n_ops=None, max_nodes=12):
    """Random grafting chain built around an unchanged center subtree.

    Operations are confined to disjoint branches and come in the three
    styles: rearranging within one branch, moving a branch's attachment
    point, and moving a piece from one branch to another.  Returns the
    chain and the list of op styles used.
    """
    if n_ops is None:
        n_ops = int(rng.integers(1, 5))
    center_size = int(rng.integers(1, 3))
    # node budget per op style: within-branch 3, reattach-branch 2, cross-branch 3
    need = {1: 3, 2: 2, 3: 3}
    styles = []
    budget = max_nodes - center_size
    type2_slots = center_size
    for _ in range(n_ops):
        options = [s for s in (1, 2, 3) if need[s] <= budget]
        if 2 in options and type2_slots == 0:
            options.remove(2)
        if not options:
            break
        s = int(rng.choice(options))
        if s == 2:
            type2_slots -= 1
        styles.append(s)
        budget -= need[s]

    edges = []
    next_id = 1
    center = list(range(1, center_size + 1))
    next_id = center_size + 1
    for idx in range(1, center_size):
        edges.append((center[idx - 1], center[idx], _rand_weight(rng)))

    def new_path(length, attach_to):
        """Path of fresh nodes hanging off ``attach_to``; returns its node ids."""
        nonlocal next_id
        ids = list(range(next_id, next_id + length))
        next_id += length
        edges.append((attach_to, ids[0], _rand_weight(rng)))
        for a, b in zip(ids, ids[1:]):
            edges.append((a, b, _rand_weight(rng)))
        return ids

    ops = []
    used_type2_centers = set()
    spare = max_nodes - center_size - sum(need[s] for s in styles)
    for style in styles:
        extra = int(rng.integers(0, spare + 1))
        spare -= extra
        if style == 1:
            # cut a tail of one branch, paste it elsewhere in the same branch
            path = new_path(3 + extra, int(rng.choice(center)))
            cut = int(rng.integers(2, len(path)))
            i, p = path[cut], path[cut - 1]
            q = int(rng.choice(path[: cut - 1]))
        elif style == 2:
            # move the whole branch's attachment point deeper into the branch
            anchor_choices = [c for c in center if c not in used_type2_centers]
            anchor = int(rng.choice(anchor_choices))
            used_type2_centers.add(anchor)
            path = new_path(2 + extra, anchor)
            i, p = anchor, path[0]
            q = int(rng.choice(path[1:]))
        else:
            # cut a tail of one branch, paste it onto a different branch
            src_extra = extra if rng.random() < 0.5 else 0
            src = new_path(2 + src_extra, int(rng.choice(center)))
            dst = new_path(1 + (extra - src_extra), int(rng.choice(center)))
            cut = int(rng.integers(1, len(src)))
            i, p = src[cut], src[cut - 1]
            q = int(rng.choice(dst))
        w = dict(((min(a, b), max(a, b)), ww) for a, b, ww in edges)[(min(i, p), max(i, p))]
        ops.append(GraftOp(subtree_root=i, old_neighbor=p, new_neighbor=q, weight=w))

    base = validate_tree(TreeSpec(next_id - 1, tuple(edges)))
    return make_chain(base, ops), styles


# Frozen dependent two-op chain: the second op re-anchors at the node the
# first op moved, so the operations are not independent.  Exhibits
# CI(T1,T3) < CI(T1,T2) and a balance point visibly away from 1/2.
DEPENDENT_BASE = TreeSpec(
    5, ((1, 2, 0.67), (1, 3, 0.52), (1, 4, 0.84), (3, 5, 0.27))
)
DEPENDENT_OPS = (
    GraftOp(subtree_root=4, old_neighbor=1, new_neighbor=5, weight=0.84),
    GraftOp(subtree_root=1, old_neighbor=3, new_neighbor=4, weight=0.52),
)


def dependent_chain():
    return make_chain(DEPENDENT_BASE, DEPENDENT_OPS)


def grid_maxmin_ci(s1, s2, step=1e-5):
    """max over a lambda grid of min(D(S_lam||S1), D(S_lam||S2)).

    Dense matrix arithmetic only (numpy inv / slogdet / einsum); shares no
    code with the library's eigenvalue route.
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    n = s1.shape[0]
    inv1 = np.linalg.inv(s1)
    inv2 = np.linalg.inv(s2)
    ld1 = np.linalg.slogdet(s1)[1]
    ld2 = np.linalg.slogdet(s2)[1]
    lams = np.arange(0.0, 1.0 + 0.5 * step, step)
    mixes = (1.0 - lams)[:, None, None] * inv1 + lams[:, None, None] * inv2
    slam = np.linalg.inv(mixes)
    ldm = np.linalg.slogdet(slam)[1]
    tr1 = np.einsum("ij,kji->k", inv1, slam)
    tr2 = np.einsum("ij,kji->k", inv2, slam)
    d1 = 0.5 * (ld1 - ldm + tr1 - n)
    d2 = 0.5 * (ld2 - ldm + tr2 - n)
    return float(np.max(np.minimum(d1, d2)))


def batched_projection_ci(s1, s2, projections, bisection_steps=70):
    """Chernoff information for a stack of projections, self-contained.

    ``projections`` has shape (R, N_O, N).  Uses batched numpy Cholesky,
    inversion and eigvalsh plus a vectorized bisection; independent of the
    library's scalar solver.
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    r1 = projections @ s1 @ projections.transpose(0, 2, 1)
    r2 = projections @ s2 @ projections.transpose(0, 2, 1)
    chol = np.linalg.cholesky(r2)
    linv = np.linalg.inv(chol)
    mid = linv @ r1 @ linv.transpose(0, 2, 1)
    mid = 0.5 * (mid + mid.transpose(0, 2, 1))
    vals = np.linalg.eigvalsh(mid)
    log_beta = np.sum(np.log(vals), axis=1)
    lo = np.zeros(vals.shape[0])
    hi = np.ones(vals.shape[0])
    for _ in range(bisection_steps):
        lam = 0.5 * (lo + hi)
        u = (1.0 - lam)[:, None] + lam[:, None] * vals
        h = 0.5 * (log_beta + np.sum((1.0 - vals) / u, axis=1))
        below = h < 0
        lo = np.where(below, lam, lo)
        hi = np.where(below, hi, lam)
    lam = 0.5 * (lo + hi)
    root = np.sqrt(vals)
    ci = 0.5 * np.sum(np.log(lam[:, None] * root + (1.0 - lam[:, None]) / root), axis=1)
    ci += 0.5 * (0.5 - lam) * log_beta
    return np.maximum(ci, 0.0)


def dense_generalized_eigenvalues(s1, s2):
    """Oracle spectrum from the nonsymmetric eigensolver on S1 S2^{-1}."""
    vals = np.linalg.eigvals(np.asarray(s1, float) @ np.linalg.inv(np.asarray(s2, float)))
    return np.sort(vals.real)


def well_conditioned_projections(rng, count, n_out, n, max_cond=100.0):
    """Random Gaussian projections with condition number capped.

    Ill-conditioned projections amplify eigenvalue round-off in the oracle
    route; capping the condition keeps the comparison noise far below the
    dominance slack.
    """
    out = []
    needed = count
    while needed > 0:
        batch = rng.standard_normal((2 * needed + 8, n_out, n))
        svals = np.linalg.svd(batch, compute_uv=False)
        good = batch[svals[:, -1] * max_cond >= svals[:, 0]]
        out.append(good[:needed])
        needed -= len(good[:needed])
    return np.concatenate(out, axis=0)
