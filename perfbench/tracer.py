"""Span tracing of the library's layers, applied entirely from outside.

``Tracer.install`` wraps every public function of each layer module by
rebinding its name in every ``chernoff.*`` namespace that holds it, so calls
between modules and inside a module both pass through the wrapper.
``uninstall`` puts every original back.  Spans stay in memory as tuples
(span id, parent span id, name, start ns, end ns, op id, raised) until
``write``.

A span's self time is its duration minus the durations of its child spans;
the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "gaussian_tree", "geneig", "divergence", "tree_ops", "dimred", "simulate")

# Names bound in a layer's namespace that are not its own functions but are
# traced as part of it: simulate's MAP scoring goes through scipy's solver.
FOREIGN = {("simulate", "solve_triangular"): "simulate.triangular_solve"}


def _iterations(counters, result):
    if not result.degenerate:
        counters["divergence.solves"] += 1
        counters["divergence.solver_iterations"] += result.iterations
        counters["divergence.solver_iterations_max"] = max(
            counters["divergence.solver_iterations_max"], result.iterations
        )


def _nested_checks(counters, result):
    counters["tree_ops.nested_checks"] += len(result.checks)


# Counters read from return values, keyed by span name.
RESULT_HOOKS = {
    "divergence.chernoff_from_spectrum": _iterations,
    "tree_ops.verify_partial_ordering": _nested_checks,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.op_id = -1
        self._stack = []
        self._ids = itertools.count()
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span_id, parent, name, start, clock(), self.op_id, True))
                raise
            finally:
                stack.pop()
            spans.append((span_id, parent, name, start, clock(), self.op_id, False))
            if hook is not None:
                hook(self.counters, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [
            m for key, m in sorted(sys.modules.items())
            if key == "chernoff" or key.startswith("chernoff.")
        ]
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"chernoff.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {key: self._wrap(name, obj) for key, (obj, name) in targets.items()}
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in targets and obj is targets[id(obj)][0]:
                    self._rebind(namespace, attr, wrappers[id(obj)])
        for (layer, attr), name in FOREIGN.items():
            module = sys.modules[f"chernoff.{layer}"]
            self._rebind(module, attr, self._wrap(name, getattr(module, attr)))

    def _rebind(self, namespace, attr, wrapper) -> None:
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path: str) -> None:
        """One CSV line per span: id,parent,name,start_ns,end_ns,op,error."""
        with open(path, "w") as handle:
            handle.write("id,parent,name,start_ns,end_ns,op,error\n")
            for span_id, parent, name, start, end, op, error in self.spans:
                handle.write(f"{span_id},{parent},{name},{start},{end},{op},{int(error)}\n")


def span_stats(spans):
    """Per span name: calls, total ns, self ns and escaped exceptions."""
    child_ns = defaultdict(int)
    for _, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = defaultdict(lambda: [0, 0, 0, 0])
    for span_id, _, name, start, end, _, error in spans:
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_ns[span_id]
        entry[3] += int(error)
    return stats


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """The per-layer metrics, averaged per traced op (times in seconds)."""
    stats = span_stats(tracer.spans)
    counters = tracer.counters

    out = {}
    for layer in LAYERS:
        names = [n for n in stats if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(stats[n][2] for n in names) / ops / 1e9
        out[f"{layer}.errors"] = sum(stats[n][3] for n in names) / ops

    def calls(name):
        return stats[name][0] / ops

    def total_s(name):
        return stats[name][1] / ops / 1e9

    def self_s(name):
        return stats[name][2] / ops / 1e9

    solves = counters["divergence.solves"]
    out.update({
        "cli.main_self_s": self_s("cli.main"),
        "gaussian_tree.build_covariance_calls": calls("gaussian_tree.build_covariance"),
        "gaussian_tree.build_covariance_self_s": self_s("gaussian_tree.build_covariance"),
        "gaussian_tree.validate_tree_calls": calls("gaussian_tree.validate_tree"),
        "gaussian_tree.validate_tree_s": total_s("gaussian_tree.validate_tree"),
        "gaussian_tree.tree_from_json_self_s": self_s("gaussian_tree.tree_from_json"),
        "gaussian_tree.covariance_from_matrix_calls": calls("gaussian_tree.covariance_from_matrix"),
        "gaussian_tree.covariance_from_matrix_s": total_s("gaussian_tree.covariance_from_matrix"),
        "geneig.generalized_eigenvalues_calls": calls("geneig.generalized_eigenvalues"),
        "geneig.generalized_eigenvalues_self_s": self_s("geneig.generalized_eigenvalues"),
        "geneig.simultaneous_diagonalizer_calls": calls("geneig.simultaneous_diagonalizer"),
        "geneig.simultaneous_diagonalizer_self_s": self_s("geneig.simultaneous_diagonalizer"),
        "divergence.chernoff_information_self_s": self_s("divergence.chernoff_information"),
        "divergence.chernoff_from_spectrum_calls": calls("divergence.chernoff_from_spectrum"),
        "divergence.chernoff_from_spectrum_s": total_s("divergence.chernoff_from_spectrum"),
        "divergence.solver_iterations_per_solve":
            counters["divergence.solver_iterations"] / solves if solves else 0.0,
        "divergence.solver_iterations_max": counters["divergence.solver_iterations_max"],
        "tree_ops.apply_graft_calls": calls("tree_ops.apply_graft"),
        "tree_ops.apply_graft_self_s": self_s("tree_ops.apply_graft"),
        "tree_ops.make_chain_self_s": self_s("tree_ops.make_chain"),
        "tree_ops.chain_pairwise_chernoff_self_s": self_s("tree_ops.chain_pairwise_chernoff"),
        "tree_ops.is_independent_chain_s": total_s("tree_ops.is_independent_chain"),
        "tree_ops.verify_partial_ordering_self_s": self_s("tree_ops.verify_partial_ordering"),
        "tree_ops.nested_checks": counters["tree_ops.nested_checks"] / ops,
        "dimred.candidate_reductions_self_s": self_s("dimred.candidate_reductions"),
        "dimred.reduced_pair_calls": calls("dimred.reduced_pair"),
        "dimred.reduced_pair_self_s": self_s("dimred.reduced_pair"),
        "dimred.pca_baseline_s": total_s("dimred.pca_baseline"),
        "simulate.estimate_error_exponent_self_s": self_s("simulate.estimate_error_exponent"),
        "simulate.triangular_solve_calls": calls("simulate.triangular_solve"),
        "simulate.triangular_solve_s": total_s("simulate.triangular_solve"),
        "simulate.min_pairwise_chernoff_s": total_s("simulate.min_pairwise_chernoff"),
        "simulate.simulation_config_from_json_s": total_s("simulate.simulation_config_from_json"),
        "trace.spans_per_op": len(tracer.spans) / ops,
    })
    return out
