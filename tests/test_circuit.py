import math
import warnings
from importlib import resources

import numpy as np
import pytest

from gpcsim.basis import Gamma, Gaussian, Uniform
from gpcsim.circuit import (
    AssemblyWarning,
    CircuitError,
    EvalOverflowError,
    assemble,
    load_circuit,
)
from gpcsim.devices import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    GMIN,
    LIMEXP_ARG,
    limexp,
    thermal_voltage,
)
from gpcsim.netlist import DeviceCard, Netlist, parse_netlist

VRC_TEXT = """\
* series v-r-c
v1 1 0 dc 1
r1 1 2 1k
c1 2 0 1u
"""

DIVIDER_TEXT = """\
* resistive divider
v1 top 0 dc 3
r1 top mid 1k
r2 mid 0 1k
"""


def fd_jacobian(fun, x, eps=1e-7):
    """Central-difference Jacobian of fun: R^n -> R^n."""
    x = np.asarray(x, dtype=float)
    n = x.size
    cols = []
    for i in range(n):
        h = eps * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((fun(xp) - fun(xm)) / (2 * h))
    return np.column_stack(cols)


def assert_jacobians_match(circuit, x, xi, rtol=1e-5):
    ev = circuit.eval_qf(x, xi)
    fd_df = fd_jacobian(lambda y: circuit.eval_qf(y, xi).f, x)
    fd_dq = fd_jacobian(lambda y: circuit.eval_qf(y, xi).q, x)
    scale_f = max(1.0, np.abs(ev.df).max())
    scale_q = max(1.0, np.abs(ev.dq).max())
    np.testing.assert_allclose(ev.df, fd_df, atol=rtol * scale_f, rtol=0)
    np.testing.assert_allclose(ev.dq, fd_dq, atol=rtol * scale_q, rtol=0)


def test_state_ordering_and_count():
    c = load_circuit(VRC_TEXT)
    assert c.n == 3
    assert c.state_names == ["v(1)", "v(2)", "i(v1)"]
    assert c.node_names == ["1", "2"]
    assert c.l == 0


def test_inductor_and_source_branches():
    c = load_circuit(
        """
        v1 a 0 dc 1
        l1 a b 1m
        r1 b 0 50
        i1 0 b dc 1m
        """
    )
    assert c.state_names == ["v(a)", "v(b)", "i(l1)", "i(v1)"]
    # B: v1 branch row picks the V column; I source injects at its nodes
    assert c.source_names == ["v1", "i1"]
    b = c.b_matrix
    assert b.shape == (4, 2)
    assert b[3, 0] == 1.0
    assert b[1, 1] == 1.0  # current flows into node b (0 -> b through i1)
    assert np.count_nonzero(b) == 2
    assert np.allclose(c.dc_source_vector(), [1.0, 1e-3])


def test_divider_residual_at_solution():
    c = load_circuit(DIVIDER_TEXT)
    x = np.array([3.0, 1.5, -1.5e-3])  # v(top), v(mid), i(v1)
    ev = c.eval_qf(x, np.zeros(0))
    resid = ev.f - c.b_matrix @ c.dc_source_vector()
    assert np.allclose(resid, 0.0, atol=1e-15)


def test_germ_sharing_counts_once():
    c = load_circuit(
        """
        .param rr dist=uniform(900, 1100)
        v1 a 0 1
        r1 a b dist=rr
        r2 b 0 dist=rr
        r3 a 0 dist=uniform(400, 600)
        """
    )
    assert c.l == 2
    assert [type(p.dist).__name__ for p in c.params] == ["Uniform", "Uniform"]
    # both r1 and r2 move together with the shared germ
    hi = c.eval_qf(np.array([1.0, 0.5, 0.0]), np.array([1.0, 0.0]))
    assert hi.df[1, 1] == pytest.approx(2.0 / 1100.0)


def test_resistor_value_tracks_germ():
    c = load_circuit("v1 a 0 1\nr1 a 0 dist=uniform(900, 1100)\n")
    g_low = c.eval_qf(np.zeros(2), np.array([-1.0])).df[0, 0]
    g_mid = c.eval_qf(np.zeros(2), np.array([0.0])).df[0, 0]
    g_high = c.eval_qf(np.zeros(2), np.array([1.0])).df[0, 0]
    assert g_low == pytest.approx(1 / 900)
    assert g_mid == pytest.approx(1 / 1000)
    assert g_high == pytest.approx(1 / 1100)


def test_nominal_germ_is_germ_mean():
    c = load_circuit(
        """
        v1 a 0 1
        r1 a b dist=gamma(2, 900, 50)
        r2 b 0 dist=uniform(900, 1100)
        c1 b 0 dist=gauss(1u, 10n)
        """
    )
    assert np.allclose(c.nominal_germ(), [2.0, 0.0, 0.0])


def test_breakpoints_are_the_sorted_union_of_the_source_corners():
    c = load_circuit(
        """
        v1 a 0 pulse(0 1 1u 1u 1u 2u 10u)
        i1 0 b pwl(0 0 2u 1m 3u 0)
        v2 c 0 dc 1 sin(0 1 1meg 5u)
        v3 d 0 dc 2
        r1 a b 1k
        r2 b c 1k
        r3 c d 1k
        """
    )
    # 2u is a pulse corner and a pwl time, 5u a pulse corner and the sine's
    # delay; the pulse's corner at 12u is the end of the run
    assert c.breakpoints(12e-6) == pytest.approx(
        [1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 11e-6], rel=1e-12)
    assert c.breakpoints(1e-6).size == 0
    assert load_circuit("v1 a 0 1\nr1 a 0 1k\n").breakpoints(1.0).size == 0


def test_limexp_continuity():
    below, d_below = limexp(LIMEXP_ARG - 1e-9)
    above, d_above = limexp(LIMEXP_ARG + 1e-9)
    assert above == pytest.approx(below, rel=1e-8)
    assert d_above == pytest.approx(d_below, rel=1e-8)
    v, d = limexp(120.0)
    assert np.isfinite(v) and np.isfinite(d)
    assert v == pytest.approx(math.exp(50.0) * 71.0)


def test_diode_at_zero_bias():
    c = load_circuit("i1 0 a dc 0\nd1 a 0 is=1e-14 temp=300\nr1 a 0 1e9\n")
    ev = c.eval_qf(np.zeros(1), np.zeros(0))
    vt = BOLTZMANN * 300.0 / ELEMENTARY_CHARGE
    assert ev.f[0] == 0.0
    assert ev.df[0, 0] == pytest.approx(1e-14 / vt + 1e-9 + GMIN)


def test_mosfet_saturation_closed_form():
    # beta = kp * w / l = 2e-4, vov = 1 -> id = 1e-4 * (1 + lambda * vds)
    c = load_circuit(
        """
        v1 d 0 2
        v2 g 0 1.5
        m1 d g 0 type=nmos vt0=0.5 kp=2e-5 w=10u l=1u lambda=0.05
        """
    )
    x = np.array([2.0, 1.5, 0.0, 0.0])
    ev = c.eval_qf(x, np.zeros(0))
    i_drain = ev.f[0] - x[2]  # subtract the v1 branch current entering node d
    assert i_drain == pytest.approx(1e-4 * (1 + 0.05 * 2.0) + GMIN * 2.0, rel=1e-12)


def test_mosfet_triode_and_cutoff():
    c = load_circuit(
        """
        v1 d 0 0.2
        v2 g 0 1.5
        m1 d g 0 type=nmos vt0=0.5 kp=2e-5 w=10u l=1u
        """
    )
    ev = c.eval_qf(np.array([0.2, 1.5, 0.0, 0.0]), np.zeros(0))
    want = 2e-4 * (1.0 * 0.2 - 0.5 * 0.04) + GMIN * 0.2
    assert ev.f[0] == pytest.approx(want, rel=1e-12)
    ev = c.eval_qf(np.array([0.2, 0.3, 0.0, 0.0]), np.zeros(0))
    # vgs < vt: only the channel shunt conducts
    assert ev.f[0] == pytest.approx(GMIN * 0.2, rel=1e-12)


def test_mosfet_source_drain_swap_antisymmetric():
    c = load_circuit(
        """
        v1 d 0 1
        v2 g 0 1.5
        m1 d g 0 type=nmos vt0=0.5 kp=2e-5 w=10u l=1u lambda=0.02
        """
    )
    fwd = c.eval_qf(np.array([0.3, 1.5, 0.0, 0.0]), np.zeros(0)).f[0]
    # swapping drain/source voltage roles reverses the current: lift the
    # source to 0.3 V and ground the drain by evaluating at vds = -0.3
    rev = c.eval_qf(np.array([-0.3, 1.2, 0.0, 0.0]), np.zeros(0)).f[0]
    assert rev == pytest.approx(-fwd, rel=1e-12)


def test_pmos_mirrors_nmos():
    nmos = load_circuit(
        "v1 d 0 1\nv2 g 0 1.2\nm1 d g 0 type=nmos vt0=0.5 kp=2e-5 w=10u l=1u\n"
    )
    pmos = load_circuit(
        "v1 d 0 -1\nv2 g 0 -1.2\nm1 d g 0 type=pmos vt0=-0.5 kp=2e-5 w=10u l=1u\n"
    )
    fn = nmos.eval_qf(np.array([1.0, 1.2, 0.0, 0.0]), np.zeros(0)).f[0]
    fp = pmos.eval_qf(np.array([-1.0, -1.2, 0.0, 0.0]), np.zeros(0)).f[0]
    assert fp == pytest.approx(-fn, rel=1e-12)


def test_mosfet_threshold_temperature_drift():
    base = "v1 d 0 2\nv2 g 0 1.5\nm1 d g 0 vt0=0.5 kp=2e-5 w=10u l=1u temp={t}\n"
    x = np.array([2.0, 1.5, 0.0, 0.0])
    cold = load_circuit(base.format(t=300)).eval_qf(x, np.zeros(0)).f[0]
    hot = load_circuit(base.format(t=350)).eval_qf(x, np.zeros(0)).f[0]
    # vt drops by 1 mV/K -> vov grows from 1.0 to 1.05 -> current up by 1.05^2
    # (after peeling off the bias-independent channel shunt)
    assert (hot - GMIN * 2.0) / (cold - GMIN * 2.0) == pytest.approx(1.05**2, rel=1e-12)


def test_bjt_forward_active_gain():
    c = load_circuit(
        """
        v1 c 0 3
        v2 b 0 0.65
        q1 c b 0 type=npn is=1e-16 bf=100 br=1
        """
    )
    ev = c.eval_qf(np.array([3.0, 0.65, 0.0, 0.0]), np.zeros(0))
    ic = ev.f[0]
    ib = ev.f[1]
    vt = thermal_voltage(300.0)
    # reverse junction is ~exp(-90): ic is the forward transport plus the
    # base-collector shunt current, accurate to 1e-9
    assert ic == pytest.approx(1e-16 * math.exp(0.65 / vt) + GMIN * (3.0 - 0.65), rel=1e-9)
    assert ic / ib == pytest.approx(100.0, rel=1e-3)


def test_pnp_mirrors_npn():
    npn = load_circuit(
        "v1 c 0 3\nv2 b 0 0.65\nq1 c b 0 type=npn is=1e-16 bf=100\n"
    )
    pnp = load_circuit(
        "v1 c 0 -3\nv2 b 0 -0.65\nq1 c b 0 type=pnp is=1e-16 bf=100\n"
    )
    fn = npn.eval_qf(np.array([3.0, 0.65, 0.0, 0.0]), np.zeros(0)).f[:2]
    fp = pnp.eval_qf(np.array([-3.0, -0.65, 0.0, 0.0]), np.zeros(0)).f[:2]
    assert np.allclose(fp, -fn, rtol=1e-12)


JACOBIAN_NETLISTS = {
    "rlc": """
        v1 a 0 sin(0 1 1k)
        r1 a b dist=uniform(90, 110)
        l1 b c 1m
        c1 c 0 dist=uniform(0.9u, 1.1u)
        r2 c 0 1k
        """,
    "diode_clamp": """
        v1 a 0 dc 1
        r1 a b 1k
        d1 b 0 is=1e-14 n=1.5 temp=dist=gauss(300, 5)
        c1 b 0 1n
        """,
    "mos_amp": """
        v1 vdd 0 dc 3
        v2 g 0 dc 1.2
        r1 vdd d dist=uniform(9k, 11k)
        m1 d g s type=nmos vt0=dist=gauss(0.5, 0.01) kp=2e-5 w=20u l=1u lambda=0.05
        r2 s 0 500
        c1 d 0 1p
        """,
    "bjt_pair": """
        v1 vcc 0 dc 5
        r1 vcc c1 dist=gamma(2, 4k, 200)
        r2 vcc c2 4.7k
        q1 c1 b1 e type=npn is=1e-16 bf=120
        q2 c2 b2 e type=npn is=1e-16 bf=120
        v2 b1 0 dc 0.7
        v3 b2 0 dc 0.68
        r3 e 0 1k
        """,
    "pmos_load": """
        v1 vdd 0 dc 2.5
        m1 out g vdd type=pmos vt0=-0.5 kp=1e-5 w=20u l=1u lambda=0.03
        m2 out g2 0 type=nmos vt0=0.5 kp=2e-5 w=10u l=1u lambda=0.05
        v2 g 0 dc 1.5
        v3 g2 0 dc 1.1
        """,
}


@pytest.mark.parametrize("name", sorted(JACOBIAN_NETLISTS))
def test_analytic_jacobian_matches_finite_difference(name):
    c = load_circuit(JACOBIAN_NETLISTS[name])
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, size=c.n)
        xi = np.array([p.dist.sample(rng, 1)[0] for p in c.params])
        assert_jacobians_match(c, x, xi)


def test_jacobian_beyond_limexp_knee():
    c = load_circuit("i1 0 a dc 1m\nd1 a 0 is=1e-14 temp=300\nr1 a 0 1e6\n")
    vt = thermal_voltage(300.0)
    for v in [0.5, LIMEXP_ARG * vt - 1e-6, LIMEXP_ARG * vt + 1e-3, 3.0]:
        assert_jacobians_match(c, np.array([v]), np.zeros(0))


def test_charge_rows_balance():
    c = load_circuit("v1 a 0 1\nr1 a b 1k\nc1 a b 1u\nr2 b 0 1k\n")
    ev = c.eval_qf(np.array([1.0, 0.4, 0.0]), np.zeros(0))
    assert ev.q[0] == pytest.approx(-ev.q[1])
    assert ev.q[0] == pytest.approx(1e-6 * 0.6)


def test_floating_node_warns():
    with pytest.warns(AssemblyWarning, match="no DC path"):
        c = load_circuit("v1 a 0 1\nr1 a 0 1k\nc1 a b 1u\nc2 b 0 1u\n")
    assert any("'b'" in w for w in c.warnings)


@pytest.mark.parametrize("text,names", [
    ("v1 1 0 dc 1\nv2 1 0 dc 2\nr1 1 0 1k\n", "'v1', 'v2'"),
    ("v1 a 0 1\nv2 b 0 1\nv3 a b 1\nr1 a 0 1k\n", "'v1', 'v2', 'v3'"),
    ("v1 a a 1\nr1 a 0 1k\n", "'v1'"),
])
def test_voltage_source_loop_warns(text, names):
    with pytest.warns(AssemblyWarning, match="voltage sources form a loop"):
        c = load_circuit(text)
    assert c.warnings == [f"voltage sources form a loop: {names}; "
                          "the system is structurally singular"]


def test_voltage_sources_in_series_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", AssemblyWarning)
        c = load_circuit("v1 a 0 1\nv2 b a 1\nv3 c b 1\nr1 c 0 1k\n")
    assert c.warnings == []


@pytest.mark.parametrize("name", sorted(
    p.name for p in (resources.files("gpcsim") / "netlists").iterdir() if p.name.endswith(".cir")))
def test_shipped_netlists_assemble_without_warnings(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", AssemblyWarning)
        c = load_circuit((resources.files("gpcsim") / "netlists" / name).read_text())
    assert c.warnings == []


def test_empty_assembly_rejected():
    with pytest.raises(CircuitError, match="empty netlist"):
        assemble(Netlist("", [], {}, []))


def test_eval_overflow_signed():
    c = load_circuit("v1 a 0 1\nr1 a 0 dist=uniform(-1, 1)\n")
    with pytest.raises(EvalOverflowError):
        c.eval_qf(np.zeros(2), np.array([0.0]))  # resistor hits exactly zero


def test_germ_continuity_of_eval():
    # f must vary smoothly along a germ sweep (no jumps from region logic)
    c = load_circuit(
        """
        v1 vdd 0 dc 3
        v2 g 0 dc 1.2
        r1 vdd d 10k
        m1 d g 0 type=nmos vt0=dist=gauss(0.5, 0.02) kp=2e-5 w=20u l=1u
        """
    )
    x = np.array([3.0, 1.2, 1.8, 0.0, 0.0])  # v(vdd), v(g), v(d), branches
    xs = np.linspace(-3, 3, 61)
    vals = [c.eval_qf(x, np.array([s])).f[2] for s in xs]
    steps = np.abs(np.diff(vals))
    assert steps.max() < 5e-5  # bounded increments along the sweep


# --------------------------------------------------------------------------
# card keys: every key reaches its model slot, anything unlisted is refused
# --------------------------------------------------------------------------

def _diode_closed_form(p, v):
    vt = thermal_voltage(p["temp"])
    return [p["is"] * (math.exp(v[0] / (p["n"] * vt)) - 1.0) + GMIN * v[0]]


def _mosfet_closed_form(p, v):
    # saturation: vds = 2 V stays above every overdrive below
    vd, vg = v
    vth = abs(p["vt0"]) - 1e-3 * (p["temp"] - p["tnom"])
    beta = p["kp"] * p["w"] / p["l"]
    return [0.5 * beta * (vg - vth) ** 2 * (1.0 + p["lambda"] * vd) + GMIN * vd, 0.0]


def _bjt_closed_form(p, v):
    # both junctions conduct, so br and bf each move a current
    vc, vb = v
    vt = thermal_voltage(p["temp"])
    ef, er = math.exp(vb / vt), math.exp((vb - vc) / vt)
    ibc = p["is"] * (er - 1.0) / p["br"] + GMIN * (vb - vc)
    ibe = p["is"] * (ef - 1.0) / p["bf"] + GMIN * vb
    return [p["is"] * (ef - er) - ibc, ibe + ibc]


# per class: a test bench with the card last, the bias of its first nodes,
# the closed form of the currents into those nodes, the defaults written out on their own
# and one non-default value per key
KEY_CASES = {
    "D": ("v1 a 0 0.6\nd1 a 0 {card}\n", [0.6], _diode_closed_form,
          {"is": 1e-14, "n": 1.0, "temp": 300.0},
          {"is": 1e-12, "n": 1.5, "temp": 350.0}),
    "M": ("v1 d 0 2\nv2 g 0 1.5\nm1 d g 0 {card}\n", [2.0, 1.5], _mosfet_closed_form,
          {"vt0": 0.5, "kp": 2e-5, "w": 10e-6, "l": 1e-6, "lambda": 0.0,
           "temp": 300.0, "tnom": 300.0},
          {"vt0": 0.7, "kp": 5e-5, "w": 20e-6, "l": 2e-6, "lambda": 0.05,
           "temp": 350.0, "tnom": 250.0}),
    "Q": ("v1 c 0 0.1\nv2 b 0 0.65\nq1 c b 0 {card}\n", [0.1, 0.65], _bjt_closed_form,
          {"is": 1e-16, "bf": 100.0, "br": 1.0, "temp": 300.0},
          {"is": 1e-15, "bf": 50.0, "br": 5.0, "temp": 350.0}),
}


def _currents(kind, card):
    bench, bias, *_ = KEY_CASES[kind]
    c = load_circuit(bench.format(card=card))
    x = np.zeros(c.n)
    x[:len(bias)] = bias
    return c.eval_qf(x, np.zeros(0)).f[:len(bias)]


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, case in KEY_CASES.items()
                                       for key in case[4]])
def test_each_model_key_moves_its_closed_form(kind, key):
    _, bias, form, defaults, changed = KEY_CASES[kind]
    value = changed[key]
    got = _currents(kind, f"{key}={value!r}")
    want = form({**defaults, key: value}, bias)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    assert not np.allclose(got, form(defaults, bias), rtol=1e-6, atol=0)


def test_default_card_matches_closed_form_and_untyped_is_n():
    for kind, (_, bias, form, defaults, _) in KEY_CASES.items():
        np.testing.assert_allclose(_currents(kind, ""), form(defaults, bias),
                                   rtol=1e-9, atol=0)
    np.testing.assert_array_equal(_currents("M", ""), _currents("M", "type=nmos"))
    np.testing.assert_array_equal(_currents("Q", ""), _currents("Q", "type=npn"))


@pytest.mark.parametrize("text, message", [
    ("v1 d 0 2\nm1 d d 0 vto=0.4\n", "line 2: m1: unknown key 'vto'"),
    ("v1 a 0 1\nd1 a 0 type=npn\n", "line 2: d1: unknown key 'type'"),
    ("v1 d 0 2\nm1 d d 0 type=nfet\n", "line 2: m1: type=nfet is not one of nmos, pmos"),
    ("v1 c 0 2\nq1 c c 0 type=nmos\n", "line 2: q1: type=nmos is not one of npn, pnp"),
])
def test_unlisted_key_or_type_refused(text, message):
    with pytest.raises(CircuitError, match=f"^{message}"):
        load_circuit(text)


def test_hand_built_cards_checked_like_parsed_ones():
    def build(*extra):
        return Netlist("", [DeviceCard("V", "v1", ("a", "0"), dc=1.0, line=1), *extra],
                       {}, [])

    assemble(build(DeviceCard("R", "r1", ("a", "0"), value=1e3, line=2)))
    for card, message in [
        (DeviceCard("X", "x1", ("a", "0"), line=2), "line 2: x1: unknown device kind 'X'"),
        (DeviceCard("R", "r1", ("a", "0"), line=3), "line 3: r1: 'value' is required"),
        (DeviceCard("R", "r1", ("a", "0"), value=1e3, params={"tc1": 1e-3}, line=4),
         "line 4: r1: unknown key 'tc1'"),
        (DeviceCard("D", "d1", ("a", "0"), value=1e-14), "line 0: d1: unknown key 'value'"),
    ]:
        with pytest.raises(CircuitError, match=f"^{message}"):
            assemble(build(card))


def test_param_declared_below_its_use_is_one_germ():
    c = load_circuit("v1 a 0 1\nr1 a b dist=rr\nr2 b 0 dist=rr\n"
                     ".param rr dist=uniform(900, 1100)\n")
    assert c.l == 1
    assert c.eval_qf(np.array([1.0, 0.5, 0.0]), np.array([1.0])).df[1, 1] == \
        pytest.approx(2.0 / 1100.0)
