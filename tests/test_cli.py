"""End-to-end checks of the command-line front end.

Everything runs in-process through cli.main so exit codes and artifacts
are observable without spawning interpreters.
"""

import json
import math
import sys
import time
import warnings

import numpy as np
import pytest

from gpcsim import cli, solvers
from gpcsim.cli import main, report_costs, resolve_netlist
from gpcsim.collocation import SelectionError
from gpcsim.engine import SCHEMES, DcConvergenceError, NewtonConfig, TransientError
from gpcsim.post import read_coefficients, read_stats_csv

CONFLICT = """\
* parallel sources disagree
v1 a 0 1
v2 a 0 2
r1 a b dist=uniform(900, 1100)
r2 b 0 1k
.dc
"""


def run_cli(*args):
    return main(list(args))


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------

class TestExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        assert run_cli("dc", "cs_amp.cir", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "method=st" in out and "manifest.json" in out

    def test_unparseable_netlist_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cir"
        bad.write_text("title\nr1 1 0 notanumber\n")
        assert run_cli("dc", str(bad), "--out", str(tmp_path)) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_netlist_is_2(self, tmp_path):
        assert run_cli("dc", "no_such_file.cir", "--out", str(tmp_path)) == 2

    def test_samples_flag_requires_mc(self, tmp_path):
        assert run_cli("dc", "cs_amp.cir", "--samples", "10",
                       "--out", str(tmp_path)) == 2

    def test_ac_requires_st(self, tmp_path):
        assert run_cli("ac", "rc_uniform.cir", "--method", "sg",
                       "--out", str(tmp_path)) == 2

    # each command line is refused for one reason only
    @pytest.mark.parametrize("flags", [
        ("dc", "cs_amp.cir", "--order", "-1"),
        ("tran", "rc_uniform.cir", "--fixed-step", "0"),
        ("dc", "cs_amp.cir", "--method", "mc", "--samples", "0"),
        ("tran", "rc_uniform.cir", "--method", "sc", "--ltetol", "1e-9"),
        ("dc", "cs_amp.cir", "--method", "sg", "--beta", "0.5"),
        ("dc", "cs_amp.cir", "--method", "mc", "--samples", "5", "--beta", "0.5"),
        # flags only a transient reads
        *[(command, netlist, *flag)
          for command, netlist in [("dc", "cs_amp.cir"), ("dcsweep", "cs_amp.cir"),
                                   ("ac", "rc_uniform.cir")]
          for flag in [("--ltetol", "1e-9"), ("--scheme", "gear2"),
                       ("--fixed-step", "1e-9")]],
        # --seed is read by mc only
        *[("dc", "cs_amp.cir", "--method", method, "--seed", "7")
          for method in ("st", "sg", "sc")],
        # mc expands nothing, so it reads no --order
        ("dc", "cs_amp.cir", "--method", "mc", "--samples", "5", "--order", "2"),
        # no local-error control runs on a fixed step
        ("tran", "rc_uniform.cir", "--method", "st", "--ltetol", "1e-9",
         "--fixed-step", "4e-5"),
        # a single sample is the mean point: nothing to draw
        ("dcsweep", "diode_dc.cir", "--method", "mc", "--samples", "1", "--seed", "7"),
        # step and tolerance ranges, NaN included
        ("tran", "rc_uniform.cir", "--ltetol", "-1"),
        ("tran", "rc_uniform.cir", "--ltetol", "0"),
        ("tran", "rc_uniform.cir", "--ltetol", "nan"),
        ("tran", "rc_uniform.cir", "--abstol", "-1"),
        ("tran", "rc_uniform.cir", "--reltol", "-1"),
        # an infinite tolerance would switch Newton or error control off
        ("tran", "rc_uniform.cir", "--abstol", "inf"),
        ("tran", "rc_uniform.cir", "--reltol", "inf"),
        ("tran", "rc_uniform.cir", "--ltetol", "inf"),
        ("tran", "rc_uniform.cir", "--order", "1", "--fixed-step", "inf"),
        ("dc", "cs_amp.cir", "--abstol", "inf"),
    ])
    def test_bad_flag_values_are_2(self, tmp_path, flags):
        assert run_cli(*flags, "--out", str(tmp_path)) == 2
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("method", ["st", "mc"])
    def test_reversed_dcsweep_is_2(self, tmp_path, capsys, method):
        bad = tmp_path / "reversed.cir"
        bad.write_text("* reversed sweep\nv1 1 0 1\nr1 1 2 dist=uniform(900, 1100)\n"
                       "r2 2 0 1k\n.dcsweep v1 1 0 0.1\n")
        assert run_cli("dcsweep", str(bad), "--method", method,
                       "--out", str(tmp_path)) == 2
        assert "line 5, col 15" in capsys.readouterr().err
        assert not (tmp_path / "stats.csv").exists()

    def test_missing_analysis_card_is_2(self, tmp_path, capsys):
        # diode_dc.cir declares .dc and .dcsweep but no .tran
        assert run_cli("tran", "diode_dc.cir", "--out", str(tmp_path)) == 2
        assert ".tran" in capsys.readouterr().err

    def test_deterministic_netlist_is_2(self, tmp_path):
        det = tmp_path / "det.cir"
        det.write_text("* fixed\nv1 1 0 1\nr1 1 0 1k\n.dc\n")
        assert run_cli("dc", str(det), "--out", str(tmp_path)) == 2

    def test_dc_failure_is_3(self, tmp_path, capsys):
        bad = tmp_path / "conflict.cir"
        bad.write_text(CONFLICT)
        assert run_cli("dc", str(bad), "--out", str(tmp_path)) == 3
        assert "operating point" in capsys.readouterr().err

    def test_transient_failure_is_4(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise TransientError("step size collapsed at t=1e-6")

        monkeypatch.setattr(cli, "run_analysis", boom)
        assert run_cli("tran", "rc_uniform.cir", "--out", str(tmp_path)) == 4

    def test_grid_over_budget_is_4_before_the_basis(self, tmp_path, capsys):
        # the (200+1)^4 grid is over budget; listing the C(204, 4) basis
        # tuples first would take minutes and gigabytes
        start = time.perf_counter()
        assert run_cli("dc", "cs_amp.cir", "--order", "200", "--out", str(tmp_path)) == 4
        assert time.perf_counter() - start < 2.0
        assert "materialization budget" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["st", "sg"])
    def test_basis_table_over_budget_is_4(self, tmp_path, capsys, method):
        # 31^4 nodes pass the grid budget, but K = 46,376 basis functions at
        # each of them would take a 16 GiB Φ (st) or a 319 GiB table (sg)
        start = time.perf_counter()
        assert run_cli("dc", "cs_amp.cir", "--method", method, "--order", "30",
                       "--out", str(tmp_path)) == 4
        assert time.perf_counter() - start < 2.0
        assert "over the budget" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("card, flags", [
        (".tran 2m", ("--fixed-step", "1e-30")),
        (".tran 2m 1e-30", ("--method", "st")),
        (".tran 2m 1e-30", ("--method", "mc")),
    ])
    def test_step_cap_out_of_reach_is_2(self, tmp_path, capsys, card, flags):
        # 2e27 steps would never finish
        netlist = tmp_path / "rc.cir"
        netlist.write_text("* rc low-pass\nv1 1 0 sin(0 1 1k)\n"
                           f"r1 1 2 dist=uniform(900,1100)\nc1 2 0 1u\n{card}\n")
        start = time.perf_counter()
        assert run_cli("tran", str(netlist), *flags, "--out", str(tmp_path)) == 2
        assert time.perf_counter() - start < 2.0
        assert "steps to reach" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_pulse_corners_over_the_point_budget_are_2(self, tmp_path, capsys):
        # 2.5e11 periods of 4 ps before 1 s: refused before a corner is listed
        netlist = tmp_path / "rc.cir"
        netlist.write_text("* rc low-pass\nv1 1 0 pulse(0 1 0 1p 1p 1p 4p)\n"
                           "r1 1 2 dist=uniform(900,1100)\nc1 2 0 1u\n.tran 1\n")
        start = time.perf_counter()
        assert run_cli("tran", str(netlist), "--out", str(tmp_path)) == 2
        assert time.perf_counter() - start < 2.0
        assert "makes over 1000000 corners" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("vt0=", "vto=", "line 8: m1: unknown key 'vto'"),
        ("rs s 0", "d1 s 0 type=npn\nrs s 0", "line 7: d1: unknown key 'type'"),
        ("w=20u", "w=1u w=50u", "line 8, col 34: m1: key 'w' given twice"),
        ("dc 0.9", "dc 1 dc 2 3 sin(0 1 1k) pulse(0 1 0 1n 1n 5n 10n)",
         "line 5, col 15: vin: dc level given twice\n"
         "  line 5, col 20: vin: dc level given twice\n"
         "  line 5, col 34: vin: waveform given twice"),
    ], ids=["vto", "diode-type", "w-twice", "source-fields-twice"])
    def test_misspelt_mistyped_or_repeated_key_is_2(self, tmp_path, capsys, old, new,
                                                     message):
        netlist = tmp_path / "cs_amp.cir"
        netlist.write_text(resolve_netlist("cs_amp.cir").read_text().replace(old, new, 1))
        out = tmp_path / "out"
        assert run_cli("dcsweep", str(netlist), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("analysis, old, new, message", [
        ("dc", ".dc\n", ".dc vin 0.7 1.5 0.1\n", "line 9, col 1: .dc takes no arguments"),
        ("dcsweep", "1.5 0.1", "1.5 1e-12",
         "line 12, col 22: .dcsweep step makes over 1000000 levels"),
    ], ids=["dc-with-sweep-arguments", "sweep-over-the-point-budget"])
    def test_refused_analysis_card_is_2(self, tmp_path, capsys, analysis, old, new,
                                        message):
        netlist = tmp_path / "cs_amp.cir"
        text = resolve_netlist("cs_amp.cir").read_text()
        assert old in text
        netlist.write_text(text.replace(old, new, 1))
        out = tmp_path / "out"
        assert run_cli(analysis, str(netlist), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_engine_transient_failure_is_4_and_names_the_method(self, tmp_path, capsys,
                                                                monkeypatch):
        def boom(*args, **kwargs):
            raise TransientError("step size collapsed at t=1e-6")

        monkeypatch.setattr(solvers, "transient_solve", boom)
        assert run_cli("tran", "rc_uniform.cir", "--out", str(tmp_path)) == 4
        assert "[method=st] step size collapsed" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_selection_failure_is_5(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SelectionError(12, 35, 1e-6)

        monkeypatch.setattr(cli, "run_analysis", boom)
        assert run_cli("dc", "cs_amp.cir", "--out", str(tmp_path)) == 5

    def test_nested_dc_failure_keeps_code_3(self, tmp_path, monkeypatch):
        # a transient whose stochastic DC initialization diverges is still
        # an operating-point failure
        def boom(*args, **kwargs):
            raise DcConvergenceError("[method=st nominal init] no convergence")

        monkeypatch.setattr(cli, "run_analysis", boom)
        assert run_cli("tran", "rc_uniform.cir", "--out", str(tmp_path)) == 3

    @pytest.mark.parametrize("error", [NotImplementedError, RuntimeError, KeyError])
    def test_programming_error_escapes(self, tmp_path, monkeypatch, error):
        # only the package's own errors map to an exit code; a bug keeps
        # its traceback
        def boom(*args, **kwargs):
            raise error("bug")

        monkeypatch.setattr(cli, "run_analysis", boom)
        with pytest.raises(error, match="bug"):
            run_cli("dc", "cs_amp.cir", "--out", str(tmp_path))


# --------------------------------------------------------------------------
# artifacts
# --------------------------------------------------------------------------

class TestArtifacts:
    def test_manifest_basis_identity(self, tmp_path):
        assert run_cli("dc", "cs_amp.cir", "--method", "st", "--order", "3",
                       "--out", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["basis_size"] == 35          # l=4, p=3
        assert manifest["node_count"] == 35
        assert manifest["method"] == "st"
        assert manifest["analysis"] == "dc"
        assert manifest["random_parameters"] == 4
        assert manifest["cond_phi"] > 1.0
        assert 0.0 < manifest["beta"] < 1.0
        assert manifest["newton_iterations"] >= 1
        assert manifest["predictor_fallbacks"] == 0
        assert manifest["wall_time_s"] > 0.0
        assert 0.0 < manifest["device_eval_time"] < manifest["wall_time_s"]
        assert 0.0 < manifest["linear_solve_time"] < manifest["wall_time_s"]

    def test_sc_run_count(self, tmp_path):
        assert run_cli("dc", "lna.cir", "--method", "sc", "--order", "2",
                       "--out", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["node_count"] == 27          # (p+1)^l = 3^3
        assert manifest["basis_size"] == 10
        assert manifest["cond_phi"] is None

    def test_stats_csv_shape(self, tmp_path):
        run_cli("dcsweep", "diode_dc.cir", "--order", "2", "--out", str(tmp_path))
        series = read_stats_csv(tmp_path / "stats.csv")
        assert len(series.times) == 21               # 0..1 in 0.05 steps
        assert all(n.startswith(("v(", "i(")) for n in series.names)
        assert np.all(series.std >= 0)

    def test_mc_single_sample_is_nominal(self, tmp_path):
        mc_dir = tmp_path / "mc"
        st_dir = tmp_path / "st"
        assert run_cli("tran", "rc_uniform.cir", "--method", "mc", "--samples", "1",
                       "--fixed-step", "4e-5", "--out", str(mc_dir)) == 0
        assert run_cli("tran", "rc_uniform.cir", "--method", "st",
                       "--order", "0", "--fixed-step", "4e-5",
                       "--out", str(st_dir)) == 0
        mc = read_stats_csv(mc_dir / "stats.csv")
        st = read_stats_csv(st_dir / "stats.csv")
        assert np.allclose(mc.mean, st.mean, atol=1e-12)
        assert np.all(mc.std == 0.0)                 # one sample: no spread
        manifest = json.loads((mc_dir / "manifest.json").read_text())
        assert manifest["node_count"] == 1
        assert manifest["seed"] is None
        assert manifest["order"] is None

    def test_ac_artifacts(self, tmp_path):
        assert run_cli("ac", "rc_uniform.cir", "--order", "4",
                       "--out", str(tmp_path)) == 0
        series = read_stats_csv(tmp_path / "stats.csv")
        assert np.all(np.diff(series.times) > 0)     # frequency axis
        assert np.all(np.isfinite(series.mean))
        payload = read_coefficients(tmp_path / "coefficients.json")
        assert payload["frequencies"] == series.times.tolist()
        assert payload["coefficients"].dtype == np.complex128
        assert payload["coefficients"].shape == (len(series.times), 5, len(series.names))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["time_points"] == len(series.times)

    def test_format_flag_selects_artifacts(self, tmp_path):
        csv_dir = tmp_path / "csvonly"
        run_cli("dc", "cs_amp.cir", "--format", "csv", "--out", str(csv_dir))
        assert (csv_dir / "stats.csv").exists()
        assert not (csv_dir / "coefficients.json").exists()
        assert not (csv_dir / "coefficients.npy").exists()
        assert (csv_dir / "manifest.json").exists()
        json_dir = tmp_path / "jsononly"
        run_cli("dc", "cs_amp.cir", "--format", "json", "--out", str(json_dir))
        assert not (json_dir / "stats.csv").exists()
        assert (json_dir / "coefficients.json").exists()
        assert (json_dir / "coefficients.npy").exists()

    def test_byte_determinism(self, tmp_path):
        """A repeated run writes the same bytes into every artifact but the
        manifest: mc's JSON moments, and st's coefficient tensor over times
        and an AC run's complex one over frequencies."""
        runs = {
            "mc": ("tran", "rc_uniform.cir", "--method", "mc", "--samples", "40",
                   "--seed", "42", "--fixed-step", "4e-5"),
            "st": ("tran", "rc_uniform.cir", "--order", "3"),
            "ac": ("ac", "rc_uniform.cir", "--order", "4"),
        }
        for name, argv in runs.items():
            a, b = tmp_path / name / "a", tmp_path / name / "b"
            for d in (a, b):
                assert run_cli(*argv, "--out", str(d)) == 0
            artifacts = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
            tensor = [] if name == "mc" else ["coefficients.npy"]
            assert artifacts == ["coefficients.json", *tensor, "stats.csv"], name
            for artifact in artifacts:
                assert (a / artifact).read_bytes() == (b / artifact).read_bytes(), \
                    (name, artifact)

    def test_newton_config_only_from_given_tolerances(self, tmp_path, monkeypatch):
        seen = []
        real = cli.run_analysis

        def spy(*args, **kwargs):
            seen.append(kwargs["newton"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "run_analysis", spy)
        for flags in [(), ("--abstol", "1e-11"), ("--reltol", "1e-8")]:
            assert run_cli("dc", "cs_amp.cir", "--order", "1", *flags,
                           "--out", str(tmp_path)) == 0
        assert seen == [None, NewtonConfig(abstol=1e-11), NewtonConfig(reltol=1e-8)]

    def test_manifest_records_run_flags_as_given(self, tmp_path):
        runs = {
            "dc": ("dc", "cs_amp.cir", "--order", "1"),
            "tran": ("tran", "rc_uniform.cir", "--order", "1", "--scheme", "tr",
                     "--fixed-step", "1e-4"),
            "mc": ("dc", "cs_amp.cir", "--method", "mc", "--samples", "5",
                   "--seed", "3"),
        }
        got = {}
        for name, argv in runs.items():
            assert run_cli(*argv, "--out", str(tmp_path / name)) == 0
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            got[name] = (manifest["scheme"], manifest["fixed_step"], manifest["seed"])
        assert got == {"dc": (None, None, None), "tran": ("tr", 1e-4, None),
                       "mc": (None, None, 3)}

    def test_manifest_records_the_scheme_a_transient_ran(self, tmp_path):
        """A transient without --scheme records the default it ran, and runs
        that take no time step record none."""
        runs = {
            "tran": ("tran", "rc_uniform.cir", "--order", "1", "--fixed-step", "1e-4"),
            "named": ("tran", "rc_uniform.cir", "--order", "1", "--fixed-step", "1e-4",
                      "--scheme", SCHEMES[0]),
            "dcsweep": ("dcsweep", "cs_amp.cir", "--order", "1"),
            "ac": ("ac", "rc_uniform.cir", "--order", "1"),
        }
        got = {}
        for name, argv in runs.items():
            assert run_cli(*argv, "--out", str(tmp_path / name)) == 0
            got[name] = json.loads((tmp_path / name / "manifest.json").read_text())["scheme"]
        assert got == {"tran": SCHEMES[0], "named": SCHEMES[0], "dcsweep": None, "ac": None}
        for artifact in ("stats.csv", "coefficients.json", "coefficients.npy"):
            assert (tmp_path / "tran" / artifact).read_bytes() == \
                (tmp_path / "named" / artifact).read_bytes()

    def test_manifest_order_and_write_time(self, tmp_path, capsys):
        runs = {"st": ("--method", "st"), "sc": ("--method", "sc", "--order", "1"),
                "mc": ("--method", "mc", "--samples", "5")}
        manifests = {}
        for name, flags in runs.items():
            assert run_cli("dc", "cs_amp.cir", *flags, "--out", str(tmp_path / name)) == 0
            manifests[name] = json.loads((tmp_path / name / "manifest.json").read_text())
        assert {name: m["order"] for name, m in manifests.items()} == \
            {"st": 2, "sc": 1, "mc": None}
        assert all(m["write_time_s"] > 0.0 for m in manifests.values())
        lines = capsys.readouterr().out.splitlines()
        assert ["order=2" in lines[0], "order=1" in lines[1], "order=-" in lines[2]] == \
            [True, True, True]
        assert run_cli("report", *(str(tmp_path / name / "manifest.json")
                                   for name in runs)) == 0
        mc_row = capsys.readouterr().out.splitlines()[3].split()
        assert mc_row[:2] == ["mc", "-"]

    def test_assembly_warning_printed_once(self, tmp_path, capsys, monkeypatch):
        # show Python warnings on stderr the way a plain interpreter does
        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename,
                                                    lineno, line))

        monkeypatch.setattr(warnings, "showwarning", show)
        net = tmp_path / "capnode.cir"
        net.write_text("* node c is touched by capacitors only\nv1 a 0 1\n"
                       "r1 a b dist=uniform(900, 1100)\nr2 b 0 1k\n"
                       "c1 b c 1n\nc2 c 0 1n\n.dc\n")
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            run_cli("dc", str(net), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert err.count("node 'c' has no DC path") == 1
        assert "warning: node 'c' has no DC path" in err

    def test_voltage_source_loop_warning_printed_once(self, tmp_path, capsys, monkeypatch):
        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename,
                                                    lineno, line))

        monkeypatch.setattr(warnings, "showwarning", show)
        net = tmp_path / "parallel.cir"
        net.write_text("* two sources on one node\nv1 1 0 dc 1\nv2 1 0 dc 2\n"
                       "r1 1 2 dist=uniform(900,1100)\nr2 2 0 1k\n")
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code = run_cli("dc", str(net), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == cli.EXIT_DC
        assert err.count("voltage sources form a loop: 'v1', 'v2'") == 1
        assert "warning: voltage sources form a loop: 'v1', 'v2'" in err

    def test_dc_without_a_dc_card_solves_the_operating_point(self, tmp_path):
        netlist = tmp_path / "rc.cir"
        netlist.write_text("* rc, transient card only\nv1 1 0 dc 1\n"
                           "r1 1 2 dist=uniform(900,1100)\nr2 2 0 1k\n.tran 1m\n")
        assert run_cli("dc", str(netlist), "--out", str(tmp_path)) == 0
        stats = read_stats_csv(tmp_path / "stats.csv")
        assert stats.times.tolist() == [0.0]
        # E[1k / (1k + R)] for R uniform on [900, 1100]
        mean = stats.mean[0, stats.names.index("v(2)")]
        assert mean == pytest.approx(5.0 * math.log(2100.0 / 1900.0), rel=1e-4)

    def test_shipped_netlist_resolution(self):
        text = resolve_netlist("cs_amp.cir").read_text()
        assert "m1" in text
        with pytest.raises(cli.ConfigError):
            resolve_netlist("definitely_not_shipped.cir")


# --------------------------------------------------------------------------
# cost report
# --------------------------------------------------------------------------

def fake_manifest(method, nodes, wall, order=6, sha="abc", analysis="dc",
                  steps=0):
    return {
        "netlist": "bench.cir",
        "netlist_sha256": sha,
        "analysis": analysis,
        "method": method,
        "order": order,
        "node_count": nodes,
        "wall_time_s": wall,
        "steps_accepted": steps,
    }


class TestReportCosts:
    def test_single_manifest_unit_ratios(self):
        rows = report_costs([fake_manifest("st", 210, 2.0)])
        assert rows[0]["node_ratio"] == 1.0
        assert rows[0]["time_ratio"] == 1.0
        assert rows[0]["kappa"] == 1.0

    def test_node_ratio_is_exact(self):
        # p=6, l=4: basis size 210, tensor grid 7^4 = 2401
        rows = report_costs([
            fake_manifest("st", 210, 1.0),
            fake_manifest("sc", 2401, 9.0),
        ])
        assert rows[1]["node_ratio"] == 2401 / 210
        assert rows[1]["time_ratio"] == 9.0
        assert rows[1]["kappa"] == pytest.approx(9.0 / (2401 / 210))

    def test_baseline_is_st_even_when_not_first(self):
        rows = report_costs([
            fake_manifest("sc", 2401, 9.0),
            fake_manifest("st", 210, 1.0),
        ])
        assert rows[0]["node_ratio"] == 2401 / 210
        assert rows[1]["node_ratio"] == 1.0

    def test_transient_kappa_decomposition(self):
        st = fake_manifest("st", 35, 2.0, order=3, analysis="tran", steps=120)
        sc = fake_manifest("sc", 256, 60.0, order=3, analysis="tran", steps=2000)
        rows = report_costs([st, sc])
        nu = rows[1]["time_ratio"]
        assert nu == pytest.approx(rows[1]["node_ratio"] * rows[1]["kappa"])
        assert rows[1]["kappa"] > 1.0               # fewer adaptive steps paid off

    def test_mismatched_netlists_error(self):
        with pytest.raises(ValueError, match="mix netlists"):
            report_costs([fake_manifest("st", 210, 1.0, sha="abc"),
                          fake_manifest("sc", 2401, 9.0, sha="def")])

    def test_mixed_analysis_error(self):
        with pytest.raises(ValueError, match="mix analyses"):
            report_costs([fake_manifest("st", 210, 1.0, analysis="dc"),
                          fake_manifest("sc", 2401, 9.0, analysis="tran")])

    def test_report_command_roundtrip(self, tmp_path, capsys):
        st_dir = tmp_path / "st"
        sc_dir = tmp_path / "sc"
        run_cli("dc", "lna.cir", "--method", "st", "--order", "2",
                "--out", str(st_dir))
        run_cli("dc", "lna.cir", "--method", "sc", "--order", "2",
                "--out", str(sc_dir))
        capsys.readouterr()
        assert run_cli("report", str(st_dir / "manifest.json"),
                       str(sc_dir / "manifest.json")) == 0
        out = capsys.readouterr().out
        assert "kappa" in out
        assert "2.7" in out                          # 27/10 node ratio

    def test_report_prints_where_the_time_went(self, tmp_path, capsys):
        run_cli("dc", "lna.cir", "--out", str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        older = fake_manifest("sc", 27, 1.0, order=2,
                              sha=manifest["netlist_sha256"])   # records none of them
        path = tmp_path / "older.json"
        path.write_text(json.dumps(older))
        capsys.readouterr()
        assert run_cli("report", str(tmp_path / "manifest.json"), str(path)) == 0
        header, new, old = capsys.readouterr().out.splitlines()
        columns = header.split()
        assert columns[5:8] == ["eval_s", "solve_s", "write_s"]
        for key, cell in zip(("device_eval_time", "linear_solve_time", "write_time_s"),
                             new.split()[5:8]):
            assert float(cell) == pytest.approx(manifest[key], rel=1e-3)
        assert old.split()[5:8] == ["-", "-", "-"]

    def test_report_prints_the_linearization_time(self, tmp_path, capsys):
        """An sg run records the time its linearizations took, a part of
        its linear-solve time, and the report prints it after write_s."""
        run_cli("dc", "lna.cir", "--method", "sg", "--order", "2", "--out", str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert 0.0 < manifest["linearize_time"] <= manifest["linear_solve_time"]
        capsys.readouterr()
        assert run_cli("report", str(tmp_path / "manifest.json")) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split()[7:9] == ["write_s", "linearize_s"]
        assert float(row.split()[8]) == pytest.approx(manifest["linearize_time"], rel=1e-3)

    def test_report_prints_the_selection_time(self, tmp_path, capsys):
        """An st run records the time it spent picking its testing nodes,
        a part of its wall time; the other methods pick none."""
        for method in ("st", "sc"):
            run_cli("dc", "lna.cir", "--method", method, "--order", "2",
                    "--out", str(tmp_path / method))
        st, sc = (json.loads((tmp_path / m / "manifest.json").read_text())
                  for m in ("st", "sc"))
        assert 0.0 < st["select_time"] < st["wall_time_s"]
        assert sc["select_time"] == 0.0
        capsys.readouterr()
        assert run_cli("report", str(tmp_path / "st" / "manifest.json")) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split()[8:10] == ["linearize_s", "select_s"]
        assert float(row.split()[9]) == pytest.approx(st["select_time"], rel=1e-3)

    def test_report_mismatch_exits_2(self, tmp_path, capsys):
        st_dir = tmp_path / "st"
        other = tmp_path / "other"
        run_cli("dc", "lna.cir", "--out", str(st_dir))
        run_cli("dc", "cs_amp.cir", "--out", str(other))
        capsys.readouterr()
        assert run_cli("report", str(st_dir / "manifest.json"),
                       str(other / "manifest.json")) == 2

    def test_report_missing_field_exits_2(self, tmp_path, capsys):
        manifest = fake_manifest("st", 210, 1.0)
        del manifest["node_count"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert run_cli("report", str(path)) == 2
        err = capsys.readouterr().err
        assert "'node_count'" in err and str(path) in err

    @pytest.mark.parametrize("manifests, field", [
        ([fake_manifest("st", 0, 1.0)], "node_count"),
        ([fake_manifest("st", "210", 1.0)], "node_count"),
        ([fake_manifest("st", True, 1.0)], "node_count"),
        ([fake_manifest("st", 210.0, 1.0)], "node_count"),
        ([fake_manifest("sc", 2401, None)], "wall_time_s"),
        ([fake_manifest("sc", 2401, float("inf"))], "wall_time_s"),
        ([fake_manifest("sc", 2401, 9.0), fake_manifest("st", 210, 0.0)], "wall_time_s"),
        ([42], "JSON object"),
        ([fake_manifest("st", 210, 1.0), "{not json"], "not JSON"),
        ([fake_manifest("st", 210, 1.0),
          {**fake_manifest("sc", 2401, 9.0), "device_eval_time": "fast"}],
         "device_eval_time"),
        ([{**fake_manifest("st", 210, 1.0), "select_time": [0.1]}], "select_time"),
        ([{**fake_manifest("st", 210, 1.0), "steps_accepted": [1]}], "steps_accepted"),
        ([fake_manifest("st", 210, 1.0, order="6")], "order"),
    ])
    def test_report_malformed_manifest_exits_2(self, tmp_path, capsys, manifests, field):
        # the last manifest is the malformed one; a zero-time baseline comes
        # second; a string is written as it stands, not as JSON
        paths = [tmp_path / f"m{i}.json" for i in range(len(manifests))]
        for path, manifest in zip(paths, manifests):
            path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
        assert run_cli("report", *map(str, paths)) == 2
        out, err = capsys.readouterr()
        assert out == ""            # refused before the first row
        assert field in err and str(paths[-1]) in err
