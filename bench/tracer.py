"""Per-layer spans for one ``simulate`` invocation, recorded from outside.

The package has no timers of its own yet, so this module wraps the calls
into each layer's public functions and methods and removes the wrappers
again.  A wrapper goes on the attribute the caller looks up: the solvers
import ``dc_solve``, ``transient_solve``, ``select_testing_nodes``,
``tensor_grid`` and ``gauss_rule`` by name, the engine calls
``newton_solve`` by name, and the cli imports ``run_analysis`` and
``write_artifacts`` by name, so those are wrapped on the importing module.
Methods are wrapped on their class.

Every ``*_s`` layer time is self time: the span's duration minus the time
of the wrapped calls nested inside it.  The self times of one invocation
therefore add up to its traced wall time less the part spent in no wrapped
call at all, which is reported as ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# metric name -> (unit, better); the names the benchmark's per-layer
# metrics go by, in report order
LAYER_METRICS = {
    "netlist.parse_s": ("s", "lower"),
    "circuit.assemble_s": ("s", "lower"),
    "basis.build_s": ("s", "lower"),
    "quadrature.grid_s": ("s", "lower"),
    "collocation.select_s": ("s", "lower"),
    "circuit.eval_points": ("count", "lower"),
    "circuit.eval_s": ("s", "lower"),
    "circuit.eval_us_per_point": ("us", "lower"),
    "solvers.st_stack_s": ("s", "lower"),
    "solvers.st_linear_calls": ("count", "lower"),
    "solvers.st_linear_s": ("s", "lower"),
    "solvers.sg_setup_calls": ("count", "lower"),
    "solvers.sg_setup_s": ("s", "lower"),
    "solvers.sg_project_s": ("s", "lower"),
    "solvers.sg_linearize_s": ("s", "lower"),
    "solvers.sg_solve_s": ("s", "lower"),
    "solvers.driver_self_s": ("s", "lower"),
    "solvers.mc_sample_failures": ("count", "lower"),
    "engine.newton_self_s": ("s", "lower"),
    "engine.dc_self_s": ("s", "lower"),
    "engine.dc_solves": ("count", "lower"),
    "engine.dc_homotopy_runs": ("count", "lower"),
    "engine.newton_iterations": ("count", "lower"),
    "engine.residual_evals": ("count", "lower"),
    "engine.linear_solves": ("count", "lower"),
    "engine.linear_solve_s": ("s", "lower"),
    "engine.per_solve_us": ("us", "lower"),
    "engine.transient_self_s": ("s", "lower"),
    "engine.steps_accepted": ("count", "lower"),
    "engine.steps_rejected": ("count", "lower"),
    "engine.step_accept_ratio": ("ratio", "higher"),
    "cli.write_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts that must repeat exactly across invocations of one workload and seed
DETERMINISTIC_COUNTS = (
    "engine.newton_iterations",
    "engine.linear_solves",
    "engine.steps_accepted",
    "engine.steps_rejected",
    "circuit.eval_points",
)

# call-count metric -> the span whose calls it counts
_CALL_COUNTS = {
    "circuit.eval_points": "circuit.eval_s",
    "solvers.st_linear_calls": "solvers.st_linear_s",
    "solvers.sg_setup_calls": "solvers.sg_setup_s",
    "engine.dc_solves": "engine.dc_self_s",
}


def _on_analysis(tracer, result):
    stats = result.stats
    tracer.counts["engine.newton_iterations"] += stats.newton_iterations
    tracer.counts["engine.residual_evals"] += stats.residual_evals
    tracer.counts["engine.linear_solves"] += stats.linear_solves
    tracer.counts["engine.steps_accepted"] += stats.steps_accepted
    tracer.counts["engine.steps_rejected"] += stats.steps_rejected
    tracer.linear_solve_s += stats.linear_solve_time
    tracer.counts["solvers.mc_sample_failures"] += getattr(result, "failures", 0)


def _on_dc(tracer, result):
    tracer.counts["engine.dc_homotopy_runs"] += int(result.homotopy_used)


def _on_written(tracer, paths):
    tracer.counts["cli.artifact_bytes"] += sum(Path(p).stat().st_size for p in paths)


def span_points():
    """(owner, attribute, span name, result hook) for every wrapped call."""
    from gpcsim import basis, circuit, cli, engine, solvers

    return [
        (cli, "run_analysis", "solvers.driver_self_s", _on_analysis),
        (cli, "write_artifacts", "cli.write_s", _on_written),
        (circuit, "parse_netlist", "netlist.parse_s", None),
        (circuit, "assemble", "circuit.assemble_s", None),
        (basis.GpcBasisSet, "__init__", "basis.build_s", None),
        (solvers, "gauss_rule", "quadrature.grid_s", None),
        (solvers, "tensor_grid", "quadrature.grid_s", None),
        (solvers, "select_testing_nodes", "collocation.select_s", None),
        (solvers, "dc_solve", "engine.dc_self_s", _on_dc),
        (solvers, "transient_solve", "engine.transient_self_s", None),
        (engine, "newton_solve", "engine.newton_self_s", None),
        (circuit.StochasticCircuit, "eval_qf", "circuit.eval_s", None),
        (solvers.STProblem, "eval", "solvers.st_stack_s", None),
        (solvers, "st_decoupled_linear_step", "solvers.st_linear_s", None),
        (solvers.SGProblem, "__post_init__", "solvers.sg_setup_s", None),
        (solvers.SGProblem, "eval", "solvers.sg_project_s", None),
        (solvers._StackedEvalSG, "linearize", "solvers.sg_linearize_s", None),
        (solvers._SgSolve, "solve", "solvers.sg_solve_s", None),
    ]


class Tracer:
    """Self times, call counts and result counters of the wrapped calls."""

    def __init__(self):
        self.spans = {}             # span name -> [self seconds, calls]
        self.counts = Counter()
        self.linear_solve_s = 0.0
        self._child_s = [0.0]       # per open span: time of its wrapped children

    def wrap(self, fn, span, hook=None):
        clock = time.perf_counter
        child_s = self._child_s
        totals = self.spans.setdefault(span, [0.0, 0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                totals[0] += duration - child_s.pop()
                totals[1] += 1
                child_s[-1] += duration
            if hook is not None:
                hook(self, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every span point for the duration of the block, then restore
        the original objects, also when the block raises."""
        saved = []
        try:
            for owner, attr, span, hook in span_points():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, span, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self, wall_s: float) -> dict:
        """Per-layer values of one invocation whose traced wall was wall_s."""
        out = {name: 0.0 for name in LAYER_METRICS}
        out.update({span: self_s for span, (self_s, _) in self.spans.items()})
        out.update(self.counts)
        for name, span in _CALL_COUNTS.items():
            out[name] = self.spans.get(span, (0.0, 0))[1]
        points = out["circuit.eval_points"]
        out["circuit.eval_us_per_point"] = 1e6 * out["circuit.eval_s"] / points if points else 0.0
        solves = out["engine.linear_solves"]
        out["engine.linear_solve_s"] = self.linear_solve_s
        out["engine.per_solve_us"] = 1e6 * self.linear_solve_s / solves if solves else 0.0
        steps = out["engine.steps_accepted"] + out["engine.steps_rejected"]
        out["engine.step_accept_ratio"] = out["engine.steps_accepted"] / steps if steps else 0.0
        out["trace.unattributed_s"] = wall_s - sum(v[0] for v in self.spans.values())
        return out
