"""Seeded input generator for the four benchmark workloads.

Every op is one ``chernoff`` CLI command on inputs that no other op of the
run shares.  ``generate`` writes every op's JSON files before any timing
starts and returns the argv of each op; the library only ever sees those
files.  The same (workload, seed) always gives the same bytes, and op ``i``
depends only on (seed, i), so raising ``max_ops`` never changes earlier ops.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Edge weights of every generated tree: |w| uniform in [0.2, 0.85], 30% negative.
W_LO, W_HI, NEGATIVE_FRACTION = 0.2, 0.85, 0.3

TREE_PAIR_NODES = 500
CHAIN_CENTER, CHAIN_BRANCHES, CHAIN_BRANCH_NODES = 4, 12, 5
DIMRED_N, DIMRED_N_OUT, DIMRED_RANDOM = 40, 5, 200
SIM_NODES, SIM_PRIORS, SIM_T_MAX, SIM_TRIALS = 12, (0.5, 0.25, 0.25), 20, 2000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json says why it exists.

    ``max_ops`` caps the ops generated for one run; it is several times what
    the run length needs at the sizes below on a 2-CPU machine.  ``gauge``
    names the reference kernel (``reference.GAUGES``) whose speed tracks
    the op's under contention.
    """

    name: str
    command: str
    sizes: dict
    max_ops: int
    gauge: str
    make_op: Callable[[np.random.Generator, str], list[str]]


def _weight(rng: np.random.Generator) -> float:
    w = float(rng.uniform(W_LO, W_HI))
    return -w if rng.random() < NEGATIVE_FRACTION else w


def random_tree(rng: np.random.Generator, n: int) -> dict:
    """Random recursive tree on shuffled labels 1..n, edges in random order."""
    labels = rng.permutation(n) + 1
    edges = [
        [int(labels[int(rng.integers(0, v))]), int(labels[v]), _weight(rng)]
        for v in range(1, n)
    ]
    order = rng.permutation(len(edges))
    return {"nodes": n, "edges": [edges[k] for k in order]}


def independent_chain(rng: np.random.Generator) -> dict:
    """Center path plus five-node branch paths, one within-branch graft each.

    Each graft cuts the tail of one branch at node ``i`` (old neighbor ``p``)
    and re-attaches it higher up the same branch, so the ops touch disjoint
    branches around an unchanged center: the chain is independent.
    """
    edges = []
    center = list(range(1, CHAIN_CENTER + 1))
    for a, b in zip(center, center[1:]):
        edges.append([a, b, _weight(rng)])
    ops = []
    next_id = CHAIN_CENTER + 1
    for branch in range(CHAIN_BRANCHES):
        path = list(range(next_id, next_id + CHAIN_BRANCH_NODES))
        next_id += CHAIN_BRANCH_NODES
        edges.append([center[branch % CHAIN_CENTER], path[0], _weight(rng)])
        weights = {}
        for a, b in zip(path, path[1:]):
            weights[b] = _weight(rng)
            edges.append([a, b, weights[b]])
        cut = int(rng.integers(2, CHAIN_BRANCH_NODES))
        ops.append(
            {
                "subtree_root": path[cut],
                "old_neighbor": path[cut - 1],
                "new_neighbor": path[int(rng.integers(0, cut - 1))],
                "weight": weights[path[cut]],
            }
        )
    return {"base": {"nodes": next_id - 1, "edges": edges}, "ops": ops}


def random_spd(rng: np.random.Generator, n: int) -> list:
    a = rng.standard_normal((n, n))
    return (a @ a.T + n * np.eye(n)).tolist()


def _write(op_dir: str, name: str, obj) -> str:
    path = os.path.join(op_dir, name)
    with open(path, "w") as handle:
        json.dump(obj, handle)
    return path


def _tree_pair_op(rng, op_dir):
    a = _write(op_dir, "A.json", random_tree(rng, TREE_PAIR_NODES))
    b = _write(op_dir, "B.json", random_tree(rng, TREE_PAIR_NODES))
    return ["ci", a, b]


def _graft_chain_op(rng, op_dir):
    return ["chain", _write(op_dir, "C.json", independent_chain(rng)), "--verify-ordering"]


def _dimred_op(rng, op_dir):
    s1 = _write(op_dir, "S1.json", random_spd(rng, DIMRED_N))
    s2 = _write(op_dir, "S2.json", random_spd(rng, DIMRED_N))
    seed = int(rng.integers(0, 2**31))
    return [
        "dimred", s1, s2,
        "--n-out", str(DIMRED_N_OUT),
        "--compare-pca",
        "--compare-random", str(DIMRED_RANDOM),
        "--seed", str(seed),
    ]


def _simulate_op(rng, op_dir):
    config = {
        "models": [random_tree(rng, SIM_NODES) for _ in SIM_PRIORS],
        "priors": list(SIM_PRIORS),
        "t_grid": list(range(1, SIM_T_MAX + 1)),
        "trials": SIM_TRIALS,
        "seed": int(rng.integers(0, 2**31)),
    }
    return ["simulate", _write(op_dir, "cfg.json", config)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tree-pair-ci",
            command="ci A.json B.json",
            sizes={"nodes": TREE_PAIR_NODES, "abs_weight": [W_LO, W_HI],
                   "negative_fraction": NEGATIVE_FRACTION},
            max_ops=150,
            gauge="interpreter",
            make_op=_tree_pair_op,
        ),
        Workload(
            name="graft-chain",
            command="chain C.json --verify-ordering",
            sizes={"center_path": CHAIN_CENTER, "branches": CHAIN_BRANCHES,
                   "branch_nodes": CHAIN_BRANCH_NODES,
                   "nodes": CHAIN_CENTER + CHAIN_BRANCHES * CHAIN_BRANCH_NODES,
                   "trees": CHAIN_BRANCHES + 1, "pairs": 78, "nested_checks": 1287},
            max_ops=500,
            gauge="mixed",
            make_op=_graft_chain_op,
        ),
        Workload(
            name="dimred-random",
            command="dimred S1.json S2.json --n-out 5 --compare-pca "
                    "--compare-random 200 --seed k",
            sizes={"dim": DIMRED_N, "n_out": DIMRED_N_OUT, "random_projections": DIMRED_RANDOM},
            max_ops=300,
            gauge="interpreter",
            make_op=_dimred_op,
        ),
        Workload(
            name="simulate-exponent",
            command="simulate cfg.json",
            sizes={"models": len(SIM_PRIORS), "nodes": SIM_NODES, "priors": list(SIM_PRIORS),
                   "t_grid": [1, SIM_T_MAX], "trials": SIM_TRIALS},
            max_ops=200,
            gauge="linalg",
            make_op=_simulate_op,
        ),
    )
}


def generate(name: str, seed: int, out_dir: str, count: int | None = None) -> list[list[str]]:
    """Write the inputs of ``count`` ops (default ``max_ops``) and return their argv."""
    workload = WORKLOADS[name]
    ops = []
    for index in range(workload.max_ops if count is None else count):
        op_dir = os.path.join(out_dir, f"op{index:04d}")
        os.makedirs(op_dir, exist_ok=True)
        rng = np.random.default_rng([seed, index])
        ops.append(workload.make_op(rng, op_dir))
    return ops
