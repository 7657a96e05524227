"""The benchmark's hooks into the package, checked by the tier-1 suite.

``bench/`` wraps package functions and methods by name, repeats each
workload's set-up calls and runs ``simulate`` command lines.  A renamed
function, a changed signature or a newly refused flag would otherwise show
up only in the benchmark's own tests.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import span_points  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from gpcsim import cli, solvers  # noqa: E402
from gpcsim.basis import GpcBasisSet  # noqa: E402
from gpcsim.circuit import load_circuit  # noqa: E402


def test_every_span_point_exists():
    for owner, attr, span, _ in span_points():
        assert attr in vars(owner), f"{span}: {owner.__name__}.{attr} is gone"


@pytest.mark.parametrize("netlist", ["cs_amp.cir", "rc_uniform.cir"])
def test_sg_linearize_returns_the_wrapped_solve(netlist):
    """The `solvers.sg_solve_s` span wraps `_SgSolve.solve`; it reads 0 if
    the Galerkin linearization hands Newton any other object."""
    circuit = load_circuit(cli.resolve_netlist(netlist).read_text())
    problem = solvers.SGProblem(circuit, GpcBasisSet([p.dist for p in circuit.params], 1))
    assert type(problem.eval(np.zeros(problem.size)).linearize(0.0)) is solvers._SgSolve


def count_projection_plans(monkeypatch) -> list:
    """Spy on `solvers._projection_plan`: the returned list grows by one
    entry per plan built."""
    built = []
    plan = solvers._projection_plan

    def spy(basis, rules):
        built.append(basis.size)
        return plan(basis, rules)

    monkeypatch.setattr(solvers, "_projection_plan", spy)
    return built


def test_sg_setup_builds_no_projection_plan(monkeypatch):
    """The sg workloads' `setup_s` times building an SGProblem; the
    projection plan is built on the first linearization, outside it."""
    built = count_projection_plans(monkeypatch)
    workload = WORKLOADS["sg_dcsweep_cs_amp"]
    workload.setup(cli.resolve_netlist(workload.netlist).read_text(), workload.order, 1)
    circuit = load_circuit(cli.resolve_netlist("cs_amp.cir").read_text())
    problem = solvers.SGProblem(circuit, GpcBasisSet([p.dist for p in circuit.params], 5))
    assert built == []
    assert "projection" not in vars(problem)


def test_sg_sweep_builds_its_projection_plan_once(monkeypatch, tmp_path):
    built = count_projection_plans(monkeypatch)
    assert cli.main(["dcsweep", "cs_amp.cir", "--method", "sg", "--order", "5",
                     "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["time_points"] == 9
    assert built == [126]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_setup_runs(name):
    workload = WORKLOADS[name]
    text = cli.resolve_netlist(workload.netlist).read_text()
    workload.setup(text, workload.order, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_command_lines_pass_the_flag_checks(name):
    workload = WORKLOADS[name]
    for argv in (workload.argv(1), list(workload.reference)):
        cli._check_flags(cli.build_parser().parse_args(argv))
