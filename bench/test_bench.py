"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q bench

They take about a minute: the unattributed-time check traces one real
invocation of every workload.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from gpcsim import cli  # noqa: E402
from run import Client  # noqa: E402
from tracer import LAYER_METRICS, Tracer, span_points  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REQUIRED_WORKLOADS = {"st_tran_sram6t", "sg_dcsweep_cs_amp", "mc_dcsweep_cs_amp"}
REQUIRED_END_TO_END = {"wall_s", "setup_s", "peak_rss_mb"}
REQUIRED_PER_LAYER = {
    "netlist.parse_s", "circuit.assemble_s", "basis.build_s",
    "quadrature.grid_s", "collocation.select_s", "circuit.eval_points",
    "circuit.eval_s", "circuit.eval_us_per_point", "solvers.st_stack_s",
    "solvers.st_linear_calls", "solvers.st_linear_s", "solvers.sg_setup_calls",
    "solvers.sg_setup_s", "solvers.sg_project_s", "solvers.sg_linearize_s",
    "solvers.sg_solve_s", "solvers.driver_self_s", "solvers.mc_sample_failures",
    "engine.newton_self_s", "engine.dc_solves", "engine.dc_homotopy_runs",
    "engine.newton_iterations", "engine.residual_evals", "engine.linear_solves",
    "engine.linear_solve_s", "engine.per_solve_us", "engine.transient_self_s",
    "engine.steps_accepted", "engine.steps_rejected", "engine.step_accept_ratio",
    "cli.write_s", "cli.artifact_bytes", "trace.unattributed_s",
    "trace.overhead_s",
}


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def originals():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in span_points()]


def test_every_required_name_is_in_benchmark_json():
    spec = benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == REQUIRED_WORKLOADS == set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == REQUIRED_END_TO_END
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert REQUIRED_PER_LAYER <= per_layer
    assert per_layer == set(LAYER_METRICS)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == LAYER_METRICS[m["name"]]


def test_wrappers_are_removed_after_a_traced_invocation(tmp_path):
    before = originals()
    tracer = Tracer()
    with tracer.installed():
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in before)
        assert cli.main(["dc", "cs_amp.cir", "--method", "sg", "--order", "1",
                         "--out", str(tmp_path)]) == 0
    assert tracer.spans["circuit.eval_s"][1] > 0
    assert tracer.spans["solvers.sg_solve_s"][1] > 0
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)


def test_wrappers_are_removed_when_the_traced_block_raises():
    before = originals()
    with pytest.raises(RuntimeError), Tracer().installed():
        raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unattributed_time_within_five_percent(name, tmp_path):
    client = Client(WORKLOADS[name], 0, tmp_path / "out")
    tracer = Tracer()
    wall = client.invoke(tracer)
    assert client.failed == 0
    layers = tracer.metrics(wall)
    assert 0.0 <= layers["trace.unattributed_s"] <= 0.05 * wall


def test_counter_or_byte_mismatch_counts_as_failure(tmp_path):
    client = Client(WORKLOADS["mc_dcsweep_cs_amp"], 3, tmp_path / "out")
    client.invoke()
    assert client.failed == 0
    assert client._check() == []
    client.first["counts"]["newton_iterations"] += 1
    assert any("counts differ" in p for p in client._check())
    client.first["counts"]["newton_iterations"] -= 1
    stats = tmp_path / "out" / "stats.csv"
    stats.write_bytes(stats.read_bytes().replace(b"\n", b"\r\n"))   # same values
    assert any("digests differ" in p for p in client._check())


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace):
    spec = benchmark_json()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "mc_dcsweep_cs_amp",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert any(line.startswith("failed_frac") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["seed"] == 5 and env["blas_threads_pinned"] == 1


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "st_tran_sram6t",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
