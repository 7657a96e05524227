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

from gpcsim import cli, engine, solvers  # noqa: E402
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


def count_plans(monkeypatch, name) -> list:
    """Spy on the plan builder `solvers.<name>`: the returned list grows by
    one entry, the call's arguments, per plan built."""
    built = []
    plan = getattr(solvers, name)

    def spy(*args):
        built.append(args)
        return plan(*args)

    monkeypatch.setattr(solvers, name, spy)
    return built


def test_sg_setup_builds_no_projection_plan(monkeypatch):
    """The sg workloads' `setup_s` times building an SGProblem; the
    projection plan is built on the first linearization and the peel plan
    on the first solve, both outside it."""
    built = [count_plans(monkeypatch, name) for name in ("_projection_plan", "_peel_plan")]
    workload = WORKLOADS["sg_dcsweep_cs_amp"]
    workload.setup(cli.resolve_netlist(workload.netlist).read_text(), workload.order, 1)
    circuit = load_circuit(cli.resolve_netlist("cs_amp.cir").read_text())
    problem = solvers.SGProblem(circuit, GpcBasisSet([p.dist for p in circuit.params], 5))
    assert built == [[], []]
    assert "projection" not in vars(problem)
    assert "peel_steps" not in vars(problem)


def test_sg_sweep_builds_its_projection_plan_once(monkeypatch, tmp_path):
    """Each plan is built once for the whole 9-level sweep, and Newton's
    path is pinned by the manifest's counters, so a faster linear solve
    cannot gain its time by changing the iterations."""
    projections = count_plans(monkeypatch, "_projection_plan")
    peels = count_plans(monkeypatch, "_peel_plan")
    assert cli.main(["dcsweep", "cs_amp.cir", "--method", "sg", "--order", "5",
                     "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["time_points"] == 9
    assert [basis.size for basis, _ in projections] == [126]
    assert [kernel.n for kernel, in peels] == [6]
    counters = ("newton_iterations", "linear_solves", "residual_evals", "device_evals")
    assert [manifest[key] for key in counters] == [20, 20, 30, 29]


@pytest.mark.parametrize("name", ["st_tran_sram6t", "mc_dcsweep_cs_amp"])
def test_lockstep_setup_builds_no_peel_plan(monkeypatch, name):
    """The st and mc workloads' `setup_s` times their set-up calls; the
    lockstep peel plan is built when a run starts solving, outside it."""
    built = count_plans(monkeypatch, "_peel_plan")
    workload = WORKLOADS[name]
    workload.setup(cli.resolve_netlist(workload.netlist).read_text(), workload.order, 1)
    assert built == []


def test_mc_run_builds_its_lockstep_plan_once(monkeypatch, tmp_path):
    """The mc workload's 2000 samples solve in three lockstep batches over
    a 9-level sweep with one peel plan, and Newton's path is pinned by the
    manifest's counters, so a faster linear solve cannot gain its time by
    changing the iterations."""
    built = count_plans(monkeypatch, "_peel_plan")
    workload = WORKLOADS["mc_dcsweep_cs_amp"]
    assert cli.main(workload.argv(1) + ["--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(built) == 1 and built[0][0].n == 6
    assert len(solvers._lockstep_batches(manifest["node_count"], 6)) == 3
    counters = ("newton_iterations", "linear_solves", "residual_evals")
    assert [manifest[key] for key in counters] == [53, 53, 80]


@pytest.mark.parametrize("blocks", [1, 15, 667])
def test_block_max_is_the_row_reduction(blocks):
    """Newton's per-block norms are the bits of the per-row reduction they
    replace, zero-length blocks included."""
    rng = np.random.default_rng(blocks)
    for width in (0, 1, 6, 24):
        a = rng.normal(size=blocks * width) * 10.0 ** rng.integers(-300, 300, blocks * width)
        a[::5] = 0.0
        a[::7] *= -0.0
        want = np.abs(a).reshape(blocks, -1).max(axis=1, initial=0.0)
        got = engine._block_max(a, blocks)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), width
        xb = a.reshape(blocks, -1)
        assert engine._block_max(xb, blocks).tobytes() == want.tobytes(), width


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
