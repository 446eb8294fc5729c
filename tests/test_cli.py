"""Command-line interface: payloads, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import chernoff
from chernoff import (
    TreeSpec,
    ZeroWeightWarning,
    build_covariance,
    chernoff_information,
    divergence,
    gaussian_tree,
    geneig,
    graft_op_to_json,
    simulate,
    tree_ops,
    tree_to_json,
)
from chernoff import cli
from chernoff.cli import main
from helpers import DEPENDENT_BASE, DEPENDENT_OPS, independent_chain_case, random_tree

CHAIN_TREE = {"nodes": 3, "edges": [[1, 2, 0.5], [2, 3, 0.6]]}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    return code, result, captured.err


def _run_capped(argv):
    """Run the CLI in a subprocess under a 1 GiB address-space cap.

    Under the cap an allocation sized by the input fails fast with
    MemoryError (exit 4) instead of exhausting the machine.
    """
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from chernoff.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(chernoff.__file__).resolve().parents[1]),
        "OPENBLAS_NUM_THREADS": "1",
    }
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestTreeCommand:
    def test_determinant(self, tmp_path, capsys):
        path = _write(tmp_path, "tree.json", CHAIN_TREE)
        code, result, _ = _run(capsys, ["tree", "det", path])
        assert code == 0
        assert result["status"] == "ok"
        assert result["payload"]["determinant"] == pytest.approx(0.48)

    def test_build(self, tmp_path, capsys):
        path = _write(tmp_path, "tree.json", CHAIN_TREE)
        code, result, _ = _run(capsys, ["tree", "build", path])
        assert code == 0
        assert result["payload"]["matrix"][0][2] == pytest.approx(0.3)
        assert result["payload"]["normalized"] is True

    def test_invert_round_trip(self, tmp_path, capsys):
        path = _write(tmp_path, "tree.json", CHAIN_TREE)
        code, result, _ = _run(capsys, ["tree", "invert", path])
        assert code == 0
        assert result["payload"]["identity_ok"] is True
        assert result["payload"]["identity_residual"] < 1e-9

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, result, _ = _run(capsys, ["tree", "det", str(path)])
        assert code == 2
        assert result["status"] == "error"
        assert result["payload"]["code"] == "parse"

    def test_invalid_tree_exits_2(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "cyclic.json",
            {"nodes": 3, "edges": [[1, 2, 0.5], [2, 3, 0.6], [1, 3, 0.1]]},
        )
        code, result, _ = _run(capsys, ["tree", "det", path])
        assert code == 2
        assert result["payload"]["code"] == "cycle"

    @pytest.mark.parametrize(
        "tree",
        [
            {"nodes": 3, "edges": 5},
            {"nodes": 3, "edges": [["a", 2, 0.5], [2, 3, 0.6]]},
            {"nodes": 3, "edges": [[1, 2, 0.5], [1.5, 3, 0.6]]},
        ],
        ids=["edges-not-a-list", "string-node-id", "fractional-node-id"],
    )
    def test_malformed_tree_fields_exit_2(self, tmp_path, capsys, tree):
        code, result, _ = _run(capsys, ["tree", "det", _write(tmp_path, "bad.json", tree)])
        assert code == 2
        assert result["payload"]["code"] == "parse"

    def test_huge_node_count_exits_2_before_allocating(self, tmp_path):
        path = _write(tmp_path, "huge.json", {"nodes": 10**9, "edges": []})
        proc = _run_capped(["tree", "det", path])
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["payload"]["code"] == "disconnected"


class TestValidateOnce:
    @pytest.mark.parametrize("command", [["tree", "det"], ["ci"]])
    def test_each_tree_is_traversed_and_warned_about_once(
        self, tmp_path, capsys, monkeypatch, recwarn, command
    ):
        zero = {"nodes": 3, "edges": [[1, 2, 0.0], [2, 3, 0.6]]}
        paths = [_write(tmp_path, "zero.json", zero)]
        if command == ["ci"]:
            paths.append(_write(tmp_path, "plain.json", CHAIN_TREE))
        runs = []
        bfs = gaussian_tree._bfs
        monkeypatch.setattr(gaussian_tree, "_bfs", lambda *a: runs.append(a) or bfs(*a))
        code, _, _ = _run(capsys, command + paths)
        assert code == 0
        assert len(runs) == len(paths)
        assert [w.category for w in recwarn] == [ZeroWeightWarning]


class TestOneFactorPerMatrix:
    """Every covariance a command reads is Cholesky-factored exactly once."""

    @pytest.fixture
    def factorizations(self, monkeypatch):
        calls = []

        def counting(factor):
            def wrapper(*args, **kwargs):
                calls.append(factor)
                return factor(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "cholesky", counting(np.linalg.cholesky))
        scipy_factors = (scipy.linalg.cholesky, scipy.linalg.cho_factor)
        for module in (gaussian_tree, geneig, divergence, simulate, tree_ops):
            for attr, obj in list(vars(module).items()):
                if any(obj is f for f in scipy_factors):
                    monkeypatch.setattr(module, attr, counting(obj))
        return calls

    def test_ci_on_two_trees(self, tmp_path, capsys, factorizations):
        rng = np.random.default_rng(8)
        paths = [
            _write(tmp_path, f"t{k}.json", tree_to_json(random_tree(rng, 20)))
            for k in range(2)
        ]
        code, _, _ = _run(capsys, ["ci", *paths])
        assert code == 0
        assert len(factorizations) == 2

    def test_chain_factors_each_tree_once(self, tmp_path, capsys, factorizations):
        chain, _ = independent_chain_case(np.random.default_rng(3), n_ops=3)
        obj = {
            "base": tree_to_json(chain.base),
            "ops": [graft_op_to_json(op) for op in chain.ops],
        }
        path = _write(tmp_path, "chain.json", obj)
        code, result, _ = _run(capsys, ["chain", path, "--verify-ordering"])
        assert code == 0
        assert result["payload"]["tree_count"] == len(chain.trees) == 4
        assert len(factorizations) == len(chain.trees)

    def test_simulate_factors_each_model_once(self, tmp_path, capsys, factorizations):
        rng = np.random.default_rng(9)
        config = {
            "models": [tree_to_json(random_tree(rng, 6)) for _ in range(3)],
            "priors": [0.5, 0.25, 0.25],
            "t_grid": [1, 2, 3],
            "trials": 300,
            "seed": 4,
        }
        code, _, _ = _run(capsys, ["simulate", _write(tmp_path, "config.json", config)])
        assert code == 0
        assert len(factorizations) == 3


class TestCiCommand:
    def test_from_eigenvalues_reference_case(self, capsys):
        code, result, _ = _run(
            capsys, ["ci", "--from-eigenvalues", "9.2341,0.1019,1.2982,0.8185,1,1,1"]
        )
        assert code == 0
        assert result["payload"]["ci"] == pytest.approx(0.5402, abs=1e-3)
        assert result["payload"]["lambda_star"] == pytest.approx(0.5073, abs=5e-4)

    def test_identical_inputs_give_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "tree.json", CHAIN_TREE)
        code, result, _ = _run(capsys, ["ci", path, path])
        assert code == 0
        assert result["payload"]["ci"] == pytest.approx(0.0, abs=1e-12)
        assert result["payload"]["degenerate"] is True

    def test_tree_pair(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", {"nodes": 2, "edges": [[1, 2, 0.3]]})
        b = _write(tmp_path, "b.json", {"nodes": 2, "edges": [[1, 2, 0.7]]})
        code, result, _ = _run(capsys, ["ci", a, b])
        expected = chernoff_information(
            build_covariance(TreeSpec(2, ((1, 2, 0.3),))),
            build_covariance(TreeSpec(2, ((1, 2, 0.7),))),
        )
        assert code == 0
        assert result["payload"]["ci"] == pytest.approx(expected.ci, rel=1e-9)

    def test_matrix_inputs(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", [[2.0, 0.0], [0.0, 2.0]])
        b = _write(tmp_path, "b.json", [[1.0, 0.0], [0.0, 1.0]])
        code, result, _ = _run(capsys, ["ci", a, b])
        assert code == 0
        assert result["payload"]["beta"] == pytest.approx(4.0)

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", [[1.0]])
        b = _write(tmp_path, "b.json", [[1.0, 0.0], [0.0, 1.0]])
        code, result, _ = _run(capsys, ["ci", a, b])
        assert code == 3
        assert result["payload"]["code"] == "dimension_mismatch"

    def test_restricted_output(self, capsys):
        code, result, _ = _run(
            capsys, ["ci", "--from-eigenvalues", "2,0.5", "--lambda-star"]
        )
        assert code == 0
        assert set(result["payload"]) == {"ci", "lambda_star", "residual"}

    def test_missing_inputs_exit_2(self, capsys):
        code, result, _ = _run(capsys, ["ci"])
        assert code == 2

    def test_twelve_significant_digits(self, capsys):
        code, result, _ = _run(capsys, ["ci", "--from-eigenvalues", "3,0.2"])
        assert code == 0
        payload = result["payload"]
        assert payload["ci"] == float(f"{payload['ci']:.12g}")
        assert payload["lambda_star"] == float(f"{payload['lambda_star']:.12g}")

    def test_global_tolerance_flag(self, capsys):
        # a huge unit tolerance makes every eigenvalue count as unit
        code, result, _ = _run(
            capsys, ["--tolerance", "10.0", "ci", "--from-eigenvalues", "3,0.2"]
        )
        assert code == 0
        assert result["payload"]["degenerate"] is True


class TestOpsCommand:
    def test_adding(self, tmp_path, capsys):
        pair = {
            "trees": [
                tree_to_json(TreeSpec(3, ((1, 2, 0.5), (2, 3, 0.6)))),
                tree_to_json(TreeSpec(3, ((1, 3, 0.2), (2, 3, 0.7)))),
            ]
        }
        path = _write(tmp_path, "pair.json", pair)
        code, result, _ = _run(
            capsys, ["ops", "adding", path, "--attach-node", "2", "--weight", "0.4"]
        )
        assert code == 0
        for tree in result["payload"]["trees"]:
            assert tree["nodes"] == 4
            assert [2, 4, 0.4] in tree["edges"]

    def test_division(self, tmp_path, capsys):
        pair = {
            "trees": [
                tree_to_json(TreeSpec(3, ((1, 3, 0.35), (2, 3, 0.6)))),
                tree_to_json(TreeSpec(3, ((1, 3, 0.35), (1, 2, 0.4)))),
            ]
        }
        path = _write(tmp_path, "pair.json", pair)
        code, result, _ = _run(
            capsys,
            ["ops", "division", path, "--edge", "1,3", "--w1", "0.5", "--w2", "0.7"],
        )
        assert code == 0
        for tree in result["payload"]["trees"]:
            assert tree["nodes"] == 4

    def test_graft(self, tmp_path, capsys):
        tree = _write(
            tmp_path,
            "tree.json",
            tree_to_json(TreeSpec(4, ((1, 2, 0.5), (1, 3, 0.4), (1, 4, 0.3)))),
        )
        op = _write(
            tmp_path,
            "op.json",
            {"subtree_root": 4, "old_neighbor": 1, "new_neighbor": 2, "weight": 0.3},
        )
        code, result, _ = _run(capsys, ["ops", "graft", tree, "--op", op])
        assert code == 0
        assert [4, 2, 0.3] in result["payload"]["trees"][0]["edges"]

    def test_fractional_graft_field_exits_2(self, tmp_path, capsys):
        tree = _write(tmp_path, "tree.json", CHAIN_TREE)
        op = _write(
            tmp_path,
            "op.json",
            {"subtree_root": 3, "old_neighbor": 2, "new_neighbor": 1.5, "weight": 0.6},
        )
        code, result, _ = _run(capsys, ["ops", "graft", tree, "--op", op])
        assert code == 2
        assert result["payload"]["code"] == "parse"

    def test_graft_cycle_exits_2(self, tmp_path, capsys):
        tree = _write(
            tmp_path,
            "tree.json",
            tree_to_json(TreeSpec(4, ((1, 2, 0.5), (2, 3, 0.4), (3, 4, 0.3)))),
        )
        op = _write(
            tmp_path,
            "op.json",
            {"subtree_root": 3, "old_neighbor": 2, "new_neighbor": 4, "weight": 0.4},
        )
        code, result, _ = _run(capsys, ["ops", "graft", tree, "--op", op])
        assert code == 2
        assert result["payload"]["code"] == "would_create_cycle"


class TestChainCommand:
    def _chain_file(self, tmp_path, chain):
        obj = {
            "base": tree_to_json(chain.base),
            "ops": [
                {
                    "subtree_root": op.subtree_root,
                    "old_neighbor": op.old_neighbor,
                    "new_neighbor": op.new_neighbor,
                    "weight": op.weight,
                }
                for op in chain.ops
            ],
        }
        return _write(tmp_path, "chain.json", obj)

    def test_independent_chain_passes_ordering(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        chain, _ = independent_chain_case(rng, n_ops=2)
        path = self._chain_file(tmp_path, chain)
        code, result, err = _run(
            capsys, ["chain", path, "--verify-ordering", "--check-independence"]
        )
        assert code == 0
        payload = result["payload"]
        assert payload["independent"] is True
        assert payload["ordering"]["status"] == "pass"
        for lam in payload["lambda_stars"].values():
            assert lam == pytest.approx(0.5, abs=1e-9)
        assert "pair" in err  # human-readable table on stderr

    def test_dependent_chain_reports_violations(self, tmp_path, capsys):
        from chernoff import make_chain

        chain = make_chain(DEPENDENT_BASE, DEPENDENT_OPS)
        path = self._chain_file(tmp_path, chain)
        code, result, _ = _run(
            capsys, ["chain", path, "--verify-ordering", "--check-independence"]
        )
        assert code == 0
        payload = result["payload"]
        assert payload["independent"] is False
        assert payload["ordering"]["status"] == "observational"
        assert payload["ordering"]["violations"]

    def test_independence_is_tested_once(self, tmp_path, capsys, monkeypatch):
        chain, _ = independent_chain_case(np.random.default_rng(3), n_ops=2)
        path = self._chain_file(tmp_path, chain)
        calls = []
        test = tree_ops.is_independent_chain

        def spy(chain):
            calls.append(chain)
            return test(chain)

        for module in (tree_ops, cli):
            monkeypatch.setattr(module, "is_independent_chain", spy)
        code, result, _ = _run(
            capsys, ["chain", path, "--verify-ordering", "--check-independence"]
        )
        assert code == 0
        assert result["payload"]["independent"] is True
        assert len(calls) == 1

    def test_empty_ops_chain(self, tmp_path, capsys):
        path = _write(tmp_path, "chain.json", {"base": CHAIN_TREE, "ops": []})
        code, result, _ = _run(capsys, ["chain", path, "--verify-ordering"])
        assert code == 0
        assert result["payload"]["tree_count"] == 1
        assert result["payload"]["ci_matrix"] == [[0.0]]


class TestDimredCommand:
    def _pair_files(self, tmp_path):
        a = _write(tmp_path, "s1.json", [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]])
        b = _write(tmp_path, "s2.json", np.eye(3).tolist())
        return a, b

    def test_full_budget_equals_full_ci(self, tmp_path, capsys):
        a, b = self._pair_files(tmp_path)
        code, result, _ = _run(capsys, ["dimred", a, b, "--n-out", "3"])
        full = chernoff_information(np.diag([2.0, 2.0, 0.5]), np.eye(3)).ci
        assert code == 0
        assert result["payload"]["ci"] == pytest.approx(full, rel=1e-9)

    def test_two_candidates_reported(self, tmp_path, capsys):
        a, b = self._pair_files(tmp_path)
        code, result, _ = _run(capsys, ["dimred", a, b, "--n-out", "1"])
        assert code == 0
        assert len(result["payload"]["candidates"]) == 2
        assert result["payload"]["m"] == 2

    def test_random_comparison_bounded_by_optimum(self, tmp_path, capsys):
        a, b = self._pair_files(tmp_path)
        code, result, _ = _run(
            capsys,
            ["dimred", a, b, "--n-out", "1", "--compare-random", "200", "--seed", "5"],
        )
        assert code == 0
        payload = result["payload"]
        assert payload["random_projection_best_ci"] <= payload["ci"] + 1e-9

    def test_pca_comparison(self, tmp_path, capsys):
        a, b = self._pair_files(tmp_path)
        code, result, _ = _run(capsys, ["dimred", a, b, "--n-out", "1", "--compare-pca"])
        assert code == 0
        assert result["payload"]["pca_ci"] <= result["payload"]["ci"] + 1e-9

    def test_invalid_budget_exits_2(self, tmp_path, capsys):
        a, b = self._pair_files(tmp_path)
        code, result, _ = _run(capsys, ["dimred", a, b, "--n-out", "7"])
        assert code == 2
        assert result["payload"]["code"] == "invalid_budget"

    def test_negative_random_count_exits_2(self, tmp_path, capsys):
        a, b = self._pair_files(tmp_path)
        code, result, _ = _run(
            capsys, ["dimred", a, b, "--n-out", "1", "--compare-random", "-3"]
        )
        assert code == 2
        assert result["payload"]["code"] == "parse"

    def test_zero_random_count_adds_no_keys(self, tmp_path, capsys):
        a, b = self._pair_files(tmp_path)
        code, result, _ = _run(
            capsys, ["dimred", a, b, "--n-out", "1", "--compare-random", "0"]
        )
        assert code == 0
        assert not {"random_projection_best_ci", "random_projection_count"} & set(
            result["payload"]
        )

    @pytest.mark.parametrize("n_out", [1, 2, 3])
    @pytest.mark.parametrize(
        "s1",
        [
            np.diag([2.0, 2.0, 0.5]),
            np.diag([1.0 + 5e-13, 3.0, 0.25]),  # inside the 1e-12 margin
            np.diag([1.0 + 5e-12, 3.0, 0.25]),  # outside it
            [[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 0.4]],
        ],
    )
    def test_m_counts_full_spectrum_above_one(self, tmp_path, capsys, s1, n_out):
        a = _write(tmp_path, "s1.json", np.asarray(s1).tolist())
        b = _write(tmp_path, "s2.json", np.eye(3).tolist())
        code, result, _ = _run(capsys, ["dimred", a, b, "--n-out", str(n_out)])
        assert code == 0
        values = np.linalg.eigvalsh(np.asarray(s1, dtype=float))
        assert result["payload"]["m"] == int(np.sum(values > 1.0 + 1e-12))

    def test_one_spectrum_of_the_full_pair(self, tmp_path, capsys, monkeypatch):
        dims = []
        whitened = geneig._whitened

        def spy(sigma1, sigma2):
            out = whitened(sigma1, sigma2)
            dims.append(out[2])
            return out

        monkeypatch.setattr(geneig, "_whitened", spy)
        a, b = self._pair_files(tmp_path)
        argv = ["dimred", a, b, "--n-out", "1", "--compare-pca", "--compare-random", "20"]
        code, _, _ = _run(capsys, argv)
        assert code == 0
        assert dims.count(3) == 1


class TestSimulateCommand:
    def _config(self, tmp_path, models, **overrides):
        config = {
            "models": models,
            "priors": [0.5, 0.5],
            "t_grid": [2, 4, 6],
            "trials": 2000,
            "seed": 11,
        }
        config.update(overrides)
        return _write(tmp_path, "config.json", config)

    def test_identical_models_report_zero_exponent(self, tmp_path, capsys):
        path = self._config(tmp_path, [[[1.0]], [[1.0]]])
        code, result, err = _run(capsys, ["simulate", path])
        assert code == 0
        assert abs(result["payload"]["fitted_exponent"]) < 0.02
        assert result["payload"]["predicted_exponent"] == 0.0
        assert "fitted exponent" in err

    def test_deterministic_output(self, tmp_path, capsys):
        path = self._config(tmp_path, [[[9.0]], [[1.0]]])
        code1 = main(["simulate", path])
        first = capsys.readouterr().out
        code2 = main(["simulate", path])
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second

    def test_tree_models_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "rates.csv"
        path = self._config(
            tmp_path,
            [CHAIN_TREE, {"nodes": 3, "edges": [[1, 2, 0.1], [2, 3, 0.15]]}],
            trials=500,
        )
        code, result, _ = _run(capsys, ["simulate", path, "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,error_rate,error_count"
        assert len(lines) == 4

    def test_zero_errors_serialize_as_string(self, tmp_path, capsys):
        path = self._config(
            tmp_path, [[[100.0]], [[1.0]]], t_grid=[60, 80], trials=50
        )
        code, result, _ = _run(capsys, ["simulate", path])
        assert code == 0
        assert result["payload"]["fitted_exponent"] == "inf"
        assert any("all_errors_zero" in d for d in result["diagnostics"])

    def test_unwritable_csv_exits_2_before_simulating(self, tmp_path, capsys):
        path = self._config(tmp_path, [[[9.0]], [[1.0]]])
        csv_path = tmp_path / "missing" / "rates.csv"
        code, result, err = _run(capsys, ["simulate", path, "--csv", str(csv_path)])
        assert (code, result["payload"]["code"]) == (2, "parse")
        assert err == ""  # no table: the simulation never ran

    def test_missing_field_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "config.json", {"models": [[[1.0]], [[2.0]]]})
        code, result, _ = _run(capsys, ["simulate", path])
        assert code == 2
        assert result["payload"]["code"] == "parse"


TREE_A = {"nodes": 2, "edges": [[1, 2, 0.5]]}
TREE_B = {"nodes": 2, "edges": [[1, 2, 0.3]]}
SPD = [[2.0, 0.5], [0.5, 1.0]]
BIG = 10**400  # beyond float64; json writes and reads all 400 digits


def _sim(**fields):
    config = {"models": [TREE_A, TREE_B], "priors": [0.5, 0.5], "t_grid": [1, 2], "trials": 20}
    config.update(fields)
    return config


def _place(tmp_path, argv, files):
    """argv with each ``{name}`` replaced by the path of file ``name``.

    A file's content is raw bytes, or a value written as JSON.
    """
    paths = {}
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(json.dumps(content))
        paths[name] = str(path)
    paths["dir"] = str(tmp_path)
    return [arg.format(**paths) for arg in argv]


SIMULATE = ["simulate", "{cfg}"]
CI = ["ci", "{a}", "{b}"]
DIMRED = ["dimred", "{a}", "{b}", "--n-out", "1", "--compare-random", "2"]

# Each case exited 4 or ran with a wrong outcome before every JSON field
# went through one typed reader.  (argv, files, CHERNOFF_SEED, payload code)
MALFORMED = [
    pytest.param(SIMULATE, {"cfg": _sim(trials="x")}, None, "parse", id="trials-string"),
    pytest.param(SIMULATE, {"cfg": _sim(trials=None)}, None, "parse", id="trials-null"),
    pytest.param(SIMULATE, {"cfg": _sim(t_grid=5)}, None, "parse", id="t_grid-scalar"),
    pytest.param(SIMULATE, {"cfg": _sim(models=7)}, None, "parse", id="models-scalar"),
    pytest.param(SIMULATE, {"cfg": _sim(priors=["a", "b"])}, None, "parse", id="prior-strings"),
    pytest.param(SIMULATE, {"cfg": _sim(seed=-1)}, None, "parse", id="seed-negative"),
    pytest.param(
        SIMULATE, {"cfg": _sim(models=[[[1, "a"], [0, 1]], SPD])}, None, "parse",
        id="model-string-entry",
    ),
    pytest.param(CI, {"a": [[1, "a"], [0, 1]], "b": SPD}, None, "parse", id="ci-string-entry"),
    pytest.param(CI, {"a": [[1, 0], [0]], "b": SPD}, None, "parse", id="ci-ragged-row"),
    pytest.param(CI, {"a": "abc", "b": SPD}, None, "parse", id="ci-string-file"),
    pytest.param(["chain", "{c}"], {"c": {"base": TREE_A, "ops": 5}}, None, "parse",
                 id="chain-ops-scalar"),
    pytest.param(
        ["ops", "adding", "{p}", "--attach-node", "1", "--weight", "0.2"],
        {"p": {"trees": 5}}, None, "parse", id="adding-trees-scalar",
    ),
    pytest.param(DIMRED + ["--seed", "-1"], {"a": SPD, "b": SPD}, None, "parse",
                 id="dimred-seed-negative"),
    pytest.param(SIMULATE + ["--seed", "-1"], {"cfg": _sim()}, None, "parse",
                 id="simulate-seed-flag-negative"),
    pytest.param(SIMULATE, {"cfg": _sim()}, "abc", "parse", id="env-seed-string"),
    pytest.param(SIMULATE, {"cfg": _sim()}, "-1", "parse", id="env-seed-negative"),
    pytest.param(SIMULATE, {"cfg": _sim()}, "1.5", "parse", id="env-seed-fractional"),
    pytest.param(["tree", "det", "{t}"], {"t": {"nodes": 2, "edges": [[1, 2, BIG]]}}, None,
                 "parse", id="tree-weight-400-digits"),
    pytest.param(
        ["ops", "graft", "{t}", "--op", "{op}"],
        {
            "t": {"nodes": 3, "edges": [[1, 2, 0.5], [2, 3, 0.6]]},
            "op": {"subtree_root": 3, "old_neighbor": 2, "new_neighbor": 1, "weight": BIG},
        },
        None, "parse", id="graft-weight-400-digits",
    ),
    pytest.param(SIMULATE, {"cfg": _sim(priors=[BIG, 0.5])}, None, "parse",
                 id="prior-400-digits"),
    pytest.param(CI, {"a": [[BIG, 0], [0, 1]], "b": SPD}, None, "parse",
                 id="matrix-entry-400-digits"),
    # wrong outcomes without an error
    pytest.param(SIMULATE, {"cfg": _sim(t_grid=[1.5, 2])}, None, "parse", id="t_grid-fractional"),
    pytest.param(SIMULATE, {"cfg": _sim(trials=2.7)}, None, "parse", id="trials-fractional"),
    pytest.param(SIMULATE, {"cfg": _sim(seed="7")}, None, "parse", id="seed-string"),
    pytest.param(SIMULATE, {"cfg": _sim(seed=1.5)}, None, "parse", id="seed-fractional"),
    pytest.param(SIMULATE, {"cfg": _sim(t_grid=["1", "2"])}, None, "parse", id="t_grid-strings"),
    pytest.param(CI, {"a": [[True, False], [False, True]], "b": SPD}, None, "parse",
                 id="ci-bool-matrix"),
    pytest.param(CI, {"a": None, "b": SPD}, None, "parse", id="ci-null-matrix"),
    # unreadable files
    pytest.param(CI, {"a": b"\xff\xfe[[1]]", "b": SPD}, None, "parse", id="ci-not-utf8"),
    pytest.param(CI, {"a": b"1" * 5000, "b": SPD}, None, "parse", id="ci-5000-digits"),
    pytest.param(CI, {"a": b"[" * 100_000 + b"]" * 100_000, "b": SPD}, None, "parse",
                 id="ci-deep-nesting"),
    pytest.param(["ci", "{dir}", "{b}"], {"b": SPD}, None, "parse", id="ci-directory"),
    # out-of-range options and sizes
    pytest.param(["ci", "--from-eigenvalues", "2", "--tolerance", "nan"], {}, None, "parse",
                 id="tolerance-nan"),
    pytest.param(["--tolerance", "-1", "ci", "--from-eigenvalues", "2"], {}, None, "parse",
                 id="global-tolerance-negative"),
    pytest.param(["chain", "{c}", "--verify-ordering", "--tolerance", "inf"],
                 {"c": {"base": TREE_A, "ops": []}}, None, "parse", id="chain-tolerance-inf"),
    pytest.param(SIMULATE, {"cfg": _sim(trials=10**30)}, None, "validation",
                 id="trials-beyond-2**53"),
    pytest.param(SIMULATE, {"cfg": _sim(priors="ab")}, None, "parse", id="priors-scalar"),
    pytest.param(SIMULATE, {"cfg": _sim(priors=[math.nan, math.nan])}, None, "validation",
                 id="priors-nan"),
]


class TestExitCodeContract:
    @pytest.mark.parametrize("argv, files, env_seed, code", MALFORMED)
    def test_malformed_input_exits_2(
        self, tmp_path, capsys, monkeypatch, argv, files, env_seed, code
    ):
        if env_seed is None:
            monkeypatch.delenv("CHERNOFF_SEED", raising=False)
        else:
            monkeypatch.setenv("CHERNOFF_SEED", env_seed)
        exit_code, result, _ = _run(capsys, _place(tmp_path, argv, files))
        assert (exit_code, result["payload"]["code"]) == (2, code), result

    def test_long_sequence_exits_2_before_allocating(self, tmp_path):
        three = {"nodes": 3, "edges": [[1, 2, 0.5], [2, 3, 0.6]]}
        cfg = _sim(models=[three, three], t_grid=[10**8], seed=1)
        proc = _run_capped(_place(tmp_path, SIMULATE, {"cfg": cfg}))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["payload"]["code"] == "validation"

    @pytest.mark.parametrize(
        "written, read",
        [
            ({"nodes": 2, "edges": [[1, 2.0, 0.5]]}, TREE_A),
            ([[10**30, 0], [0, 1]], [[1e30, 0.0], [0.0, 1.0]]),
            # pinned: numpy coerces a bool among numbers, so true reads as 1
            ([[2, True], [True, 2]], [[2.0, 1.0], [1.0, 2.0]]),
        ],
        ids=["integral-float-node-id", "int-beyond-int64", "bool-among-numbers"],
    )
    def test_accepted_input_reads_as_its_value(self, tmp_path, capsys, written, read):
        outputs = []
        for content in (written, read):
            exit_code, result, _ = _run(capsys, _place(tmp_path, CI, {"a": content, "b": SPD}))
            assert exit_code == 0, result
            outputs.append(result)
        assert outputs[0] == outputs[1]

    def test_entries_near_float64_max_run(self, tmp_path, capsys):
        # symmetrizing by (A + Aᵀ) / 2 overflowed here and exited 4
        big = [[1.7e308, 0.0], [0.0, 1.7e308]]
        exit_code, result, _ = _run(capsys, _place(tmp_path, CI, {"a": big, "b": big}))
        assert exit_code == 0, result
        assert result["payload"]["ci"] == 0.0
        assert result["payload"]["degenerate"] is True

    def test_seed_beyond_int64_runs(self, tmp_path, capsys):
        exit_code, result, _ = _run(capsys, _place(tmp_path, SIMULATE, {"cfg": _sim(seed=10**30)}))
        assert exit_code == 0, result
        assert result["payload"]["trials"] == 20


FIELD_NAMES = (
    "nodes", "edges", "trees", "base", "ops", "subtree_root", "old_neighbor",
    "new_neighbor", "weight", "models", "priors", "t_grid", "trials", "seed",
)
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 6),
        st.sampled_from([10**30, BIG]),
        st.floats(-1e6, 1e6),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.text(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES), inner, max_size=5),
    max_leaves=16,
)
# Every subcommand, with each file argument a placeholder.
FUZZ_COMMANDS = (
    ["tree", "build", "{x}"],
    ["tree", "invert", "{x}"],
    ["tree", "det", "{x}"],
    ["ci", "{x}", "{y}"],
    ["ops", "adding", "{x}", "--attach-node", "1", "--weight", "0.2"],
    ["ops", "division", "{x}", "--edge", "1,2", "--w1", "0.5", "--w2", "0.5"],
    ["ops", "graft", "{x}", "--op", "{y}"],
    ["chain", "{x}", "--verify-ordering"],
    ["dimred", "{x}", "{y}", "--n-out", "1", "--compare-pca", "--compare-random", "2"],
    ["simulate", "{x}"],
)


@settings(max_examples=60, deadline=None)
@given(JSON_VALUES, JSON_VALUES)
def test_arbitrary_json_never_exits_4(x, y):
    with tempfile.TemporaryDirectory() as tmp:
        for argv in FUZZ_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(_place(Path(tmp), argv, {"x": x, "y": y}))
            result = json.loads(out.getvalue().splitlines()[-1])
            assert code in (0, 2, 3), (argv, result)
            assert set(result) == {"status", "payload", "diagnostics"}
