"""Statistics, PDF, comparison, and export round-trip checks."""

import csv
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gpcsim.basis import GpcBasisSet, Gaussian, Uniform
from gpcsim.circuit import load_circuit
from gpcsim.engine import dc_solve
from gpcsim.netlist import AcAnalysis, DcAnalysis, TranAnalysis
from gpcsim.post import (
    PdfEstimate,
    StatSeries,
    compare_methods,
    coefficients_payload,
    pdf_of_expansion,
    read_stats_csv,
    sample_expansion,
    stats_over_time,
    write_json,
    write_stats_csv,
)
from gpcsim.quadrature import gauss_rule, tensor_grid
from gpcsim.solvers import mc_solve, sc_solve, sg_solve, st_solve
from helpers import CircuitProblem, standard_error, total_mass

DIVIDER = """* divider, one uniform resistor
v1 1 0 dc 3
r1 1 2 dist=uniform(900,1100)
r2 2 0 1k
.dc
"""

RC_UNIFORM = """* rc, uniform resistor
v1 1 0 sin(0 1 1k)
r1 1 2 dist=uniform(900,1100)
c1 2 0 1u
.tran 1m
"""

RC_LOWPASS_AC = """* rc lowpass, uniform resistor
v1 1 0 dc 0 ac 1
r1 1 2 dist=uniform(900,1100)
c1 2 0 1u
.ac 100 1k 2
"""


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic from raw samples."""
    a = np.sort(np.asarray(a))
    b = np.sort(np.asarray(b))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


class TestStatsOverTime:
    def test_gpc_trajectory_moments(self):
        circuit = load_circuit(DIVIDER)
        traj = st_solve(circuit, 4, DcAnalysis())
        s = stats_over_time(traj, names=circuit.state_names)
        # mean of 3000/(2000+100 xi) over uniform: 15 ln(21/19)
        want_mean = 15.0 * math.log(21.0 / 19.0)
        assert s.mean[0, 1] == pytest.approx(want_mean, rel=1e-8)
        # E[v^2] = 3000^2 * (1/200)(1/1900 - 1/2100) = 3000^2/(1900*2100)
        want_m2 = 3000.0**2 / (1900.0 * 2100.0)
        want_std = math.sqrt(want_m2 - want_mean**2)
        assert s.std[0, 1] == pytest.approx(want_std, rel=1e-6)
        assert s.names[1] == "v(2)"

    def test_p0_std_is_zero(self):
        circuit = load_circuit(DIVIDER)
        s = stats_over_time(st_solve(circuit, 0, DcAnalysis()))
        assert np.all(s.std == 0.0)

    def test_ensemble_weighted_stats(self):
        circuit = load_circuit(DIVIDER)
        ens = mc_solve(circuit, 2000, 3, DcAnalysis())
        s = stats_over_time(ens)
        ref = stats_over_time(st_solve(circuit, 4, DcAnalysis()))
        se = standard_error(ens)[0, 1]
        assert abs(s.mean[0, 1] - ref.mean[0, 1]) < 3 * se
        assert s.std[0, 1] == pytest.approx(ref.std[0, 1], rel=0.15)

    def test_sc_quadrature_weights_used(self):
        """sc's mean is the quadrature-weighted mean of one-point solves at
        the tensor Gauss nodes."""
        circuit = load_circuit(DIVIDER)
        traj = sc_solve(circuit, 4, DcAnalysis())
        grid = tensor_grid([gauss_rule(p.dist, 5) for p in circuit.params])
        node_v2 = []
        for xi in grid.nodes:
            one = CircuitProblem(circuit, xi)
            node_v2.append(dc_solve(one, source=one.source(0.0)).x[1])
        assert stats_over_time(traj).mean[0, 1] == pytest.approx(
            float(grid.weights @ np.array(node_v2)), rel=1e-9)

    def test_ac_sweep_magnitude_and_spread(self):
        """Phasor statistics: |c_0| and the RMS of the other coefficients."""
        circuit = load_circuit(RC_LOWPASS_AC)
        res = st_solve(circuit, 2, AcAnalysis(100.0, 1000.0, 2))
        s = stats_over_time(res, names=circuit.state_names)
        np.testing.assert_array_equal(s.times, res.times)
        np.testing.assert_array_equal(s.mean, np.abs(res.coeffs[:, 0, :]))
        rms = np.sqrt(np.sum(np.abs(res.coeffs[:, 1:, :]) ** 2, axis=1))
        np.testing.assert_allclose(s.std, rms, rtol=1e-15, atol=0.0)
        assert s.std[:, 1].min() > 0.0    # the random resistor spreads v(2)

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            stats_over_time({"not": "a result"})

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            StatSeries(times=np.zeros(1), names=["a"],
                       mean=np.zeros((1, 1)), std=-np.ones((1, 1)))


class TestPdfOfExpansion:
    def test_constant_is_single_spike(self):
        basis = GpcBasisSet([Uniform()], 3)
        coeffs = np.array([2.5, 0.0, 0.0, 0.0])
        pdf = pdf_of_expansion(basis, coeffs, n_samples=2000, seed=1)
        assert len(pdf.densities) == 1
        assert total_mass(pdf) == pytest.approx(1.0, abs=1e-6)
        assert pdf.edges[0] < 2.5 < pdf.edges[-1]

    def test_gaussian_identity_moments(self):
        # x = xi exactly: sampled mean/std must approach (0, 1)
        basis = GpcBasisSet([Gaussian()], 2)
        coeffs = np.array([0.0, 1.0, 0.0])
        n = 40000
        pdf = pdf_of_expansion(basis, coeffs, n_samples=n, seed=7)
        assert abs(pdf.sample_mean) < 3.0 / math.sqrt(n)
        assert abs(pdf.sample_std - 1.0) < 3.0 / math.sqrt(n)
        assert total_mass(pdf) == pytest.approx(1.0, abs=1e-6)

    def test_seed_determinism_and_bin_override(self):
        basis = GpcBasisSet([Uniform()], 2)
        coeffs = np.array([1.0, 0.3, 0.05])
        a = pdf_of_expansion(basis, coeffs, n_samples=5000, seed=9)
        b = pdf_of_expansion(basis, coeffs, n_samples=5000, seed=9)
        c = pdf_of_expansion(basis, coeffs, n_samples=5000, seed=9, bins=17)
        np.testing.assert_array_equal(a.densities, b.densities)
        np.testing.assert_array_equal(a.edges, b.edges)
        assert len(c.densities) == 17

    def test_minimum_sample_count_enforced(self):
        basis = GpcBasisSet([Uniform()], 1)
        with pytest.raises(ValueError, match="at least"):
            pdf_of_expansion(basis, np.array([1.0, 0.1]), n_samples=500)

    def test_moment_consistency_rate(self):
        """Sample moments approach coefficient moments like 1/sqrt(N)."""
        basis = GpcBasisSet([Uniform()], 3)
        coeffs = np.array([0.5, 0.2, -0.1, 0.04])
        exact_mean = 0.5

        def mean_abs_err(n):
            errs = [abs(pdf_of_expansion(basis, coeffs, n_samples=n,
                                         seed=s).sample_mean - exact_mean)
                    for s in range(10)]
            return sum(errs) / len(errs)

        # 64x more samples: expect roughly 8x smaller error, demand 2x
        assert mean_abs_err(128000) < mean_abs_err(2000) / 2.0

    def test_matches_direct_mc_histogram(self):
        """Divider voltage: expansion sampling vs brute-force rational map."""
        circuit = load_circuit(DIVIDER)
        traj = st_solve(circuit, 6, DcAnalysis())
        vals = sample_expansion(traj.basis, traj.coeffs[0, :, 1], 100000, seed=2)
        rng = np.random.default_rng(3)
        xi = rng.uniform(-1, 1, 100000)
        direct = 3000.0 / (2000.0 + 100.0 * xi)
        assert ks_distance(vals, direct) < 0.01


class TestCompareMethods:
    def test_identical_is_zero(self):
        circuit = load_circuit(DIVIDER)
        traj = st_solve(circuit, 3, DcAnalysis())
        rep = compare_methods(traj, traj)
        assert rep.l2_error == 0.0
        assert rep.max_per_time == 0.0

    def test_st_vs_sg_dc(self):
        circuit = load_circuit(DIVIDER)
        st = st_solve(circuit, 3, DcAnalysis())
        sg = sg_solve(circuit, 3, DcAnalysis())
        rep = compare_methods(st, sg)
        assert rep.l2_error < 1e-6
        assert rep.candidate_method == "sg"

    def test_order_sweep_monotone(self):
        circuit = load_circuit(DIVIDER)
        ref = st_solve(circuit, 6, DcAnalysis())
        errs = [compare_methods(ref, st_solve(circuit, p, DcAnalysis())).l2_error
                for p in range(1, 6)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_prefix_embedding_orientation(self):
        circuit = load_circuit(DIVIDER)
        ref = st_solve(circuit, 4, DcAnalysis())
        cand = st_solve(circuit, 2, DcAnalysis())
        compare_methods(ref, cand)  # fine
        with pytest.raises(ValueError, match="swap"):
            compare_methods(cand, ref)

    def test_germ_mismatch_rejected(self):
        a = st_solve(load_circuit(DIVIDER), 2, DcAnalysis())
        gauss_circuit = load_circuit("""* gaussian flavored divider
v1 1 0 dc 3
r1 1 2 dist=gauss(1000,30)
r2 2 0 1k
.dc
""")
        b = st_solve(gauss_circuit, 2, DcAnalysis())
        with pytest.raises(ValueError, match="germ"):
            compare_methods(a, b)

    def test_time_grid_mismatch_rejected(self):
        circuit = load_circuit(RC_UNIFORM)
        a = st_solve(circuit, 1, TranAnalysis(1e-4), fixed_h=1e-6)
        b = st_solve(circuit, 1, TranAnalysis(1e-4), fixed_h=2e-6)
        with pytest.raises(ValueError, match="time grids"):
            compare_methods(a, b)


class TestExports:
    def test_csv_round_trip_exact(self, tmp_path):
        circuit = load_circuit(RC_UNIFORM)
        traj = st_solve(circuit, 2, TranAnalysis(2e-4))
        series = stats_over_time(traj, names=circuit.state_names)
        path = tmp_path / "stats.csv"
        write_stats_csv(path, series)
        back = read_stats_csv(path)
        np.testing.assert_array_equal(back.times, series.times)
        np.testing.assert_array_equal(back.mean, series.mean)
        np.testing.assert_array_equal(back.std, series.std)
        assert back.names == series.names

    def test_csv_without_rows_names_its_path(self, tmp_path):
        empty, header = tmp_path / "empty.csv", tmp_path / "header.csv"
        empty.write_text("")
        header.write_text("time,state,mean,std\n")
        for path in (empty, header):
            with pytest.raises(ValueError, match=re.escape(str(path))):
                read_stats_csv(path)

    def test_csv_byte_determinism(self, tmp_path):
        circuit = load_circuit(DIVIDER)
        series = stats_over_time(st_solve(circuit, 3, DcAnalysis()))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_stats_csv(p1, series)
        write_stats_csv(p2, series)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_payload_metadata(self, tmp_path):
        circuit = load_circuit(DIVIDER)
        traj = st_solve(circuit, 3, DcAnalysis())
        path = tmp_path / "coeffs.json"
        write_json(path, coefficients_payload(traj, circuit.state_names))
        data = json.loads(path.read_text())
        assert data["order"] == 3
        assert data["basis_size"] == 4
        assert data["germs"] == ["uniform"]
        assert len(data["index_set"]) == 4
        assert len(data["testing_nodes"]) == 4
        assert data["cond_phi"] > 1.0
        assert data["beta"] > 0.0
        got = np.array(data["coefficients"])
        np.testing.assert_array_equal(got, traj.coeffs)

    def test_json_payload_of_mc_ensemble(self, tmp_path):
        circuit = load_circuit(DIVIDER)
        ens = mc_solve(circuit, 50, 7, DcAnalysis())
        payload = coefficients_payload(ens, state_names=circuit.state_names)
        assert payload["method"] == "mc"
        assert payload["seed"] == 7
        assert payload["states"] == list(circuit.state_names)
        assert payload["n_samples"] == 50
        assert payload["failures"] == 0
        assert payload["times"] == [0.0]
        assert payload["mean"] == ens.mean().tolist()
        assert payload["std"] == ens.std().tolist()
        assert coefficients_payload(ens)["states"] is None
        path = tmp_path / "coeffs.json"
        write_json(path, coefficients_payload(ens, circuit.state_names))
        assert json.loads(path.read_text()) == payload

    def test_json_complex_coefficients(self):
        circuit = load_circuit("""* rc lowpass
v1 1 0 dc 0 ac 1
r1 1 2 dist=uniform(900,1100)
c1 2 0 1u
.ac 100 1k 2
""")
        res = st_solve(circuit, 2, AcAnalysis(100.0, 1000.0, 2))
        payload = coefficients_payload(res)
        assert "frequencies" in payload
        real = np.array(payload["coefficients"]["real"])
        imag = np.array(payload["coefficients"]["imag"])
        np.testing.assert_array_equal(real + 1j * imag, res.coeffs)
        json.dumps(payload)  # fully serializable


# json values with the corners of the number-list fast path: the floats
# whose repr json spells differently or that print in exponent form, bools
# among numbers, strings that look like a printed list or a special float
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]))
JSON_NUMBERS = st.one_of(FLOATS, st.integers())
JSON_LEAVES = st.one_of(
    JSON_NUMBERS, st.booleans(), st.none(), st.text(),
    st.sampled_from([", ", "nan", "inf", "[1.0, -inf]"]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(JSON_NUMBERS, max_size=6),
                            st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None)
@given(payload=JSON_VALUES)
def test_write_json_is_json_dump_bytes(payload):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.json"), Path(tmp, "want.json")
        write_json(got, payload)
        with open(want, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        assert got.read_bytes() == want.read_bytes()


# state names csv.writer must quote (delimiter, quote, newline) or that
# clash with %-formatting, and floats of every kind
CSV_NAMES = st.lists(st.one_of(st.text(st.characters(blacklist_categories=("Cs",))),
                               st.sampled_from(["a,b", 'q"x', "", "p%s", "n\nl"])), max_size=4)


@settings(max_examples=80, deadline=None)
@given(names=CSV_NAMES, steps=st.integers(0, 3), data=st.data())
def test_stats_csv_is_csv_writer_bytes(names, steps, data):
    def draw(shape):
        return data.draw(arrays(np.float64, shape, elements=FLOATS))

    shape = (steps, len(names))
    series = StatSeries(times=draw(steps), names=names, mean=draw(shape),
                        std=np.abs(draw(shape)))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write_stats_csv(got, series)
        with open(want, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["time", "state", "mean", "std"])
            for i, t in enumerate(series.times):
                for j, name in enumerate(series.names):
                    w.writerow([f"{t:.17g}", name, f"{series.mean[i, j]:.17g}",
                                f"{series.std[i, j]:.17g}"])
        assert got.read_bytes() == want.read_bytes()
