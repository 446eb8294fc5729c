"""Command-line front end.

Every command reads JSON, prints a CommandResult JSON object to stdout
(``{"status": ..., "payload": ..., "diagnostics": [...]}``) and, for the
chain and simulate commands, a human-readable table to stderr.  Numeric
output is serialized with 12 significant digits so identical inputs and
seeds give identical bytes.

Exit codes: 0 success, 2 parse/validation errors, 3 numeric-domain
errors, 4 internal errors.  CHERNOFF_SEED supplies a default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .divergence import (
    ChernoffResult,
    chernoff_from_spectrum,
    chernoff_information,
)
from .dimred import (
    UNIT_CLASSIFICATION_TOL,
    best_random_projection_ci,
    candidate_reductions,
    pca_baseline,
    reduced_pair,
)
from .errors import ChernoffError, NumericDomainError, ParseError, ValidationError
from .gaussian_tree import _json_int, _json_list, _json_object
from .gaussian_tree import (
    build_covariance,
    model_from_json,
    tree_determinant,
    tree_from_json,
    tree_precision,
    tree_to_json,
)
from .geneig import spectrum_from_values
from .simulate import estimate_error_exponent, simulation_config_from_json
from .tree_ops import (
    adding_operation,
    apply_graft,
    chain_ci_matrix,
    chain_from_json,
    chain_pairwise_chernoff,
    division_operation,
    graft_op_from_json,
    is_independent_chain,
    verify_partial_ordering,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

SIGNIFICANT_DIGITS = 12


def _round_floats(value):
    """Round every float to 12 significant digits, ndarray-aware.

    Non-finite values become strings so the output stays valid JSON.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            return str(value)
        return float(f"{value:.{SIGNIFICANT_DIGITS}g}")
    if isinstance(value, (np.floating,)):
        return _round_floats(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _round_floats(value.tolist())
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def _emit(payload, diagnostics=(), status="ok", stream=None) -> None:
    result = {
        "status": status,
        "payload": _round_floats(payload),
        "diagnostics": list(diagnostics),
    }
    print(json.dumps(result, sort_keys=True), file=stream or sys.stdout)


def _read_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax, encoding or depth
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _tolerance(args, fallback: float) -> float:
    """The per-command --tolerance, else the global one, else ``fallback``."""
    value = getattr(args, "tolerance", None)
    if value is None:
        value = args.global_tolerance
    if value is not None and not (math.isfinite(value) and value >= 0.0):
        raise ParseError(f"--tolerance must be finite and >= 0, got {value}")
    return fallback if value is None else value


def _default_seed(explicit) -> int:
    """``explicit``, else CHERNOFF_SEED, else 0; a seed is an integer >= 0."""
    if explicit is None:
        env = os.environ.get("CHERNOFF_SEED") or "0"
        try:
            explicit = int(env)
        except ValueError as exc:
            raise ParseError(f"CHERNOFF_SEED must be an integer, got {env!r}") from exc
    return _json_int(explicit, "seed", 0)


def _chernoff_payload(result: ChernoffResult) -> dict:
    return {
        "ci": result.ci,
        "lambda_star": result.lambda_star,
        "beta": result.spectrum.beta,
        "spectrum": result.spectrum.values,
        "iterations": result.iterations,
        "residual": result.residual,
        "degenerate": result.degenerate,
    }


def _cmd_tree(args) -> int:
    spec = tree_from_json(_read_json(args.input))
    if args.subcommand == "build":
        cov = build_covariance(spec)
        _emit({"dim": cov.dim, "normalized": cov.normalized, "matrix": cov.matrix})
    elif args.subcommand == "invert":
        prec = tree_precision(spec)
        cov = build_covariance(spec)
        residual = float(np.abs(cov.matrix @ prec.matrix - np.eye(cov.dim)).max())
        _emit(
            {
                "dim": prec.dim,
                "matrix": prec.matrix,
                "identity_residual": residual,
                "identity_ok": bool(residual <= 1e-9),
            }
        )
    else:  # det
        det = tree_determinant(spec)
        _emit({"determinant": det, "log_determinant": float(np.log(det))})
    return EXIT_OK


def _cmd_ci(args) -> int:
    if args.from_eigenvalues:
        try:
            values = [float(v) for v in args.from_eigenvalues.split(",") if v.strip()]
        except ValueError as exc:
            raise ParseError(f"bad eigenvalue list: {exc}") from exc
        result = chernoff_from_spectrum(
            spectrum_from_values(values), unit_tol=_tolerance(args, 1e-8)
        )
    else:
        if not (args.input1 and args.input2):
            raise ParseError("ci needs two inputs or --from-eigenvalues")
        result = chernoff_information(
            model_from_json(_read_json(args.input1), args.input1),
            model_from_json(_read_json(args.input2), args.input2),
            unit_tol=_tolerance(args, 1e-8),
        )
    payload = _chernoff_payload(result)
    if args.spectrum or args.lambda_star:
        keep = {"ci"}
        if args.spectrum:
            keep |= {"spectrum", "beta"}
        if args.lambda_star:
            keep |= {"lambda_star", "residual"}
        payload = {k: v for k, v in payload.items() if k in keep}
    _emit(payload)
    return EXIT_OK


def _pair_from_file(path: str):
    obj = _json_object(_read_json(path), path, ("trees",))
    first, second = _json_list(obj["trees"], f"{path} 'trees'", 2)
    return tree_from_json(first), tree_from_json(second)


def _require(args, *names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise ParseError(f"ops {args.operation} requires {flags}")


def _cmd_ops(args) -> int:
    if args.operation == "adding":
        _require(args, "attach-node", "weight")
        pair = _pair_from_file(args.input)
        out = adding_operation(pair, args.attach_node, args.weight)
    elif args.operation == "division":
        _require(args, "edge", "w1", "w2")
        pair = _pair_from_file(args.input)
        try:
            p, q = (int(v) for v in args.edge.split(","))
        except ValueError as exc:
            raise ParseError(f"--edge must be 'p,q': {exc}") from exc
        out = division_operation(pair, (p, q), args.w1, args.w2)
    else:  # graft
        _require(args, "op")
        tree = tree_from_json(_read_json(args.input))
        op = graft_op_from_json(_read_json(args.op))
        out = (apply_graft(tree, op),)
    payload = {"trees": [tree_to_json(t) for t in out]}
    _emit(payload)
    return EXIT_OK


def _cmd_chain(args) -> int:
    chain = chain_from_json(_read_json(args.input))
    pairwise = chain_pairwise_chernoff(chain)
    ci = chain_ci_matrix(chain, pairwise)
    payload = {
        "tree_count": len(chain.trees),
        "ci_matrix": ci,
        "lambda_stars": {
            f"{a + 1},{b + 1}": res.lambda_star for (a, b), res in pairwise.items()
        },
    }
    diagnostics = []
    if args.verify_ordering:
        ordering = verify_partial_ordering(
            chain, slack=_tolerance(args, 1e-9), pairwise=pairwise
        )
        payload["ordering"] = {
            "status": ordering.status,
            "all_nested_hold": ordering.all_nested_hold,
            "min_pair": [ordering.min_pair[0] + 1, ordering.min_pair[1] + 1],
            "min_pair_adjacent": ordering.min_pair_adjacent,
            "violations": [
                {
                    "outer": [c.outer[0] + 1, c.outer[1] + 1],
                    "inner": [c.inner[0] + 1, c.inner[1] + 1],
                    "margin": c.margin,
                }
                for c in ordering.violations
            ],
        }
        diagnostics.append(f"ordering status: {ordering.status}")
    if args.check_independence or args.verify_ordering:
        report = ordering.independent if args.verify_ordering else is_independent_chain(chain)
        payload["independent"] = report.independent
        payload["independence"] = {
            "center": list(report.center) if report.center else None,
            "conflicts": [list(c) for c in report.conflicts],
            "notes": list(report.notes),
        }
    lines = ["pair        CI            lambda*"]
    for (a, b), res in sorted(pairwise.items()):
        lines.append(f"T{a + 1}-T{b + 1}      {res.ci:<12.6g}  {res.lambda_star:.6g}")
    print("\n".join(lines), file=sys.stderr)
    _emit(payload, diagnostics)
    return EXIT_OK


def _cmd_dimred(args) -> int:
    if args.compare_random < 0:
        raise ParseError(f"--compare-random must be >= 0, got {args.compare_random}")
    sigma1 = model_from_json(_read_json(args.input1), args.input1)
    sigma2 = model_from_json(_read_json(args.input2), args.input2)
    candidates = candidate_reductions(sigma1, sigma2, args.n_out)
    best = candidates[0]
    payload = {
        "n_out": args.n_out,
        "m": int(np.sum(best.pair_spectrum.values > 1.0 + UNIT_CLASSIFICATION_TOL)),
        "candidates": [
            {
                "k": c.k,
                "eigenvalues": c.ci.spectrum.values,
                "ci": c.ci.ci,
            }
            for c in candidates
        ],
        "optimal_k": best.k,
        "matrix": best.matrix,
        "ci": best.ci.ci,
        "lambda_star": best.ci.lambda_star,
    }
    diagnostics = []
    if args.compare_pca:
        baseline = pca_baseline(sigma1, args.n_out)
        r1, r2 = reduced_pair(baseline, sigma1, sigma2)
        payload["pca_ci"] = chernoff_information(r1, r2).ci
        diagnostics.append("pca comparison uses the first input's eigenvectors")
    if args.compare_random:
        rng = np.random.default_rng(_default_seed(args.seed))
        payload["random_projection_best_ci"] = best_random_projection_ci(
            sigma1, sigma2, args.n_out, args.compare_random, rng
        )
        payload["random_projection_count"] = args.compare_random
    _emit(payload, diagnostics)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    hyps, t_grid, trials, seed = simulation_config_from_json(_read_json(args.config))
    seed = _default_seed(args.seed if args.seed is not None else seed)
    try:  # an unwritable path fails before the simulation runs
        csv = open(args.csv, "w") if args.csv else contextlib.nullcontext()
    except OSError as exc:
        raise ParseError(f"cannot write {args.csv}: {exc}") from exc
    with csv as handle:
        estimate = estimate_error_exponent(hyps, t_grid, trials, seed)
        if handle is not None:
            rows = zip(estimate.sample_lengths, estimate.error_rates, estimate.error_counts)
            handle.write("t,error_rate,error_count\n")
            handle.writelines(f"{t},{rate:.12g},{count}\n" for t, rate, count in rows)
    payload = {
        "t_grid": estimate.sample_lengths,
        "error_rates": estimate.error_rates,
        "error_counts": estimate.error_counts,
        "trials": estimate.trials,
        "fitted_exponent": estimate.fitted_exponent,
        "predicted_exponent": estimate.predicted,
        "fit_lengths": estimate.fit_lengths,
        "slope_stderr": estimate.slope_stderr,
    }
    lines = ["t      P_e           -ln(P_e)/t"]
    for t, rate in zip(estimate.sample_lengths, estimate.error_rates):
        per_t = (-np.log(rate) / t) if rate > 0 else float("inf")
        lines.append(f"{t:<6d} {rate:<13.6g} {per_t:.6g}")
    lines.append(
        f"fitted exponent {estimate.fitted_exponent:.6g} "
        f"vs predicted {estimate.predicted:.6g}"
    )
    print("\n".join(lines), file=sys.stderr)
    _emit(payload, estimate.diagnostics)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chernoff",
        description="Chernoff information for Gaussian tree models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        dest="global_tolerance",
        help="override the unit-eigenvalue (1e-8) and ordering (1e-9) tolerances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tree = sub.add_parser("tree", help="covariance, precision, determinant")
    p_tree.add_argument("subcommand", choices=["build", "invert", "det"])
    p_tree.add_argument("input", help="tree JSON file")

    p_ci = sub.add_parser("ci", help="Chernoff information of a pair")
    p_ci.add_argument("input1", nargs="?", help="tree or matrix JSON file")
    p_ci.add_argument("input2", nargs="?", help="tree or matrix JSON file")
    p_ci.add_argument("--from-eigenvalues", help="comma-separated eigenvalue list")
    p_ci.add_argument("--spectrum", action="store_true", help="restrict output to spectrum")
    p_ci.add_argument("--lambda-star", action="store_true", help="restrict output to lambda*")
    p_ci.add_argument("--tolerance", type=float, default=None, help="unit-eigenvalue tolerance")

    p_ops = sub.add_parser("ops", help="adding / division / graft application")
    p_ops.add_argument("operation", choices=["adding", "division", "graft"])
    p_ops.add_argument("input", help="pair file for adding/division, tree file for graft")
    p_ops.add_argument("--attach-node", type=int, help="anchor for adding")
    p_ops.add_argument("--weight", type=float, help="leaf weight for adding")
    p_ops.add_argument("--edge", help="'p,q' edge for division")
    p_ops.add_argument("--w1", type=float, help="first division factor")
    p_ops.add_argument("--w2", type=float, help="second division factor")
    p_ops.add_argument("--op", help="graft op JSON file")

    p_chain = sub.add_parser("chain", help="grafting-chain analysis")
    p_chain.add_argument("input", help="chain JSON file")
    p_chain.add_argument("--verify-ordering", action="store_true")
    p_chain.add_argument("--check-independence", action="store_true")
    p_chain.add_argument("--tolerance", type=float, default=None, help="ordering slack")

    p_dimred = sub.add_parser("dimred", help="optimal linear dimension reduction")
    p_dimred.add_argument("input1")
    p_dimred.add_argument("input2")
    p_dimred.add_argument("--n-out", type=int, required=True)
    p_dimred.add_argument("--compare-pca", action="store_true")
    p_dimred.add_argument("--compare-random", type=int, default=0, metavar="R")
    p_dimred.add_argument("--seed", type=int, default=None)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo exponent estimation")
    p_sim.add_argument("config", help="simulation config JSON file")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--csv", help="write per-t rates to this CSV file")

    return parser


_HANDLERS = {
    "tree": _cmd_tree,
    "ci": _cmd_ci,
    "ops": _cmd_ops,
    "chain": _cmd_chain,
    "dimred": _cmd_dimred,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValidationError as exc:
        _emit({"code": exc.code, "message": str(exc)}, status="error")
        return EXIT_VALIDATION
    except NumericDomainError as exc:
        _emit({"code": exc.code, "message": str(exc)}, status="error")
        return EXIT_NUMERIC
    except ChernoffError as exc:
        _emit({"code": exc.code, "message": str(exc)}, status="error")
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - last-resort internal error
        _emit({"code": "internal", "message": f"{type(exc).__name__}: {exc}"}, status="error")
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
