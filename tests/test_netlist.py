import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcsim import netlist
from gpcsim.basis import Beta, Gamma, Gaussian, Uniform
from gpcsim.netlist import (
    MAX_POINTS,
    AcAnalysis,
    CardValueError,
    DcAnalysis,
    DcSweepAnalysis,
    NetlistError,
    PulseWave,
    PwlWave,
    SinWave,
    TranAnalysis,
    parse_netlist,
    parse_number,
)

RC_TEXT = """\
* first-order lowpass
v1 in 0 dc 1 ac 1
r1 in out dist=uniform(900, 1100)
c1 out 0 1u
.dc
.tran 5m 10u
.ac 1 1meg 10
"""


def test_engineering_suffixes():
    cases = {
        "1k": 1e3, "2.2u": 2.2e-6, "1meg": 1e6, "10m": 10e-3,
        "3n": 3e-9, "5p": 5e-12, "1e-3": 1e-3, "-4.7k": -4.7e3,
        ".5": 0.5, "100": 100.0, "1.5e2k": 1.5e5, "1M": 1e-3,
    }
    for text, want in cases.items():
        assert parse_number(text) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("bad", ["abc", "1x", "", "k", "1..2", "1e", "--3",
                                 "1e999", "-1e999", "1e308k"])
def test_bad_numbers_rejected(bad):
    with pytest.raises(ValueError):
        parse_number(bad)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_number_roundtrip(x):
    assert parse_number(repr(x)) == pytest.approx(x, rel=1e-15, abs=1e-300)


@given(
    st.floats(min_value=0.1, max_value=999.0),
    st.sampled_from([("k", 1e3), ("m", 1e-3), ("u", 1e-6),
                     ("n", 1e-9), ("p", 1e-12), ("meg", 1e6)]),
)
def test_suffix_scaling(base, suffix):
    text, mult = f"{base!r}{suffix[0]}", suffix[1]
    assert parse_number(text) == pytest.approx(base * mult, rel=1e-12)


def test_rc_netlist_parses():
    net = parse_netlist(RC_TEXT)
    assert net.title == "first-order lowpass"
    assert [d.name for d in net.devices] == ["v1", "r1", "c1"]
    src = net.device("v1")
    assert src.dc_value() == 1.0
    assert src.ac_mag == 1.0
    r1 = net.device("r1")
    assert isinstance(r1.value.dist, Uniform)
    assert r1.value.shift == pytest.approx(1000.0)
    assert r1.value.scale == pytest.approx(100.0)
    assert net.device("c1").value == pytest.approx(1e-6)
    dc, tran, ac = net.analyses
    assert dc == DcAnalysis()
    assert isinstance(tran, TranAnalysis)
    assert tran.tstop == pytest.approx(5e-3) and tran.hmax == pytest.approx(1e-5)
    assert ac == AcAnalysis(1.0, 1e6, 10)


def test_case_insensitive_and_end():
    net = parse_netlist("V1 IN 0 DC 5\nR1 IN 0 1K\n.END\nR2 would not parse")
    assert [d.name for d in net.devices] == ["v1", "r1"]
    assert net.device("r1").value == 1000.0


def test_param_declaration_and_reference():
    net = parse_netlist(
        """
        .param rload dist=gamma(2, 900, 50)
        v1 a 0 1
        r1 a b dist=rload
        r2 b 0 dist=rload
        """
    )
    par = net.params["rload"]
    assert isinstance(par.dist, Gamma)
    assert par.dist.gamma == 2.0
    assert par.shift == 900.0 and par.scale == 50.0
    # both references resolve to the same object, hence one germ
    assert net.device("r1").value is par
    assert net.device("r2").value is par


def test_param_after_end_ignored():
    net = parse_netlist("v1 a 0 1\nr1 a 0 1k\n.end\n.param p dist=uniform(0, 1)\n")
    assert net.params == {}
    with pytest.raises(NetlistError, match="undeclared parameter 'p'"):
        parse_netlist("v1 a 0 1\nr1 a 0 dist=p\n.end\n.param p dist=uniform(0, 1)\n")


@pytest.mark.parametrize("order", ["before", "after"])
def test_param_may_not_reference_a_param(order):
    decl = ".param b dist=uniform(0, 1)\n"
    text = "v1 x 0 1\nr1 x 0 dist=a\n.param a dist=b\n"
    text = decl + text if order == "before" else text + decl
    with pytest.raises(NetlistError, match="param requires a dist=<kind>"):
        parse_netlist(text)


def test_inline_distribution_kinds():
    net = parse_netlist(
        """
        v1 a 0 1
        r1 a b dist=gauss(1000, 25)
        r2 b c dist=beta(2, 3, 500, 100)
        r3 c 0 dist=uniform(90,110)
        d1 c 0 is=1e-14 temp=dist=gamma(3, 290, 2)
        """
    )
    assert isinstance(net.device("r1").value.dist, Gaussian)
    b = net.device("r2").value
    assert isinstance(b.dist, Beta) and (b.dist.alpha, b.dist.beta) == (2.0, 3.0)
    assert isinstance(net.device("r3").value.dist, Uniform)
    temp = net.device("d1").params["temp"]
    assert isinstance(temp.dist, Gamma) and temp.shift == 290.0


def test_device_key_value_params():
    net = parse_netlist(
        """
        v1 d 0 2
        m1 d g 0 type=nmos vt0=0.5 kp=2e-5 w=10u l=1u lambda=0.02
        r1 g 0 1k
        rg d g 1meg
        """
    )
    m1 = net.device("m1")
    assert m1.params["type"] == "nmos"
    assert m1.params["vt0"] == 0.5
    assert m1.params["w"] == pytest.approx(10e-6)
    assert m1.params["lambda"] == pytest.approx(0.02)


def test_waveforms():
    net = parse_netlist(
        """
        v1 a 0 sin(0 2 1k) dc 3
        v2 b 0 pulse(0 1 1u 2u 2u 10u 100u)
        v3 c 0 pwl(0 0 1m 1 2m -1)
        r1 a b 1
        r2 b c 1
        r3 c 0 1
        """
    )
    sin = net.device("v1").waveform
    assert isinstance(sin, SinWave)
    assert sin.value(0.0) == 0.0
    assert sin.value(0.25e-3) == pytest.approx(2.0)
    assert net.device("v1").dc_value() == 3.0  # explicit dc wins at t=0

    pulse = net.device("v2").waveform
    assert isinstance(pulse, PulseWave)
    assert pulse.value(0.0) == 0.0
    assert pulse.value(2e-6) == pytest.approx(0.5)   # halfway up the ramp
    assert pulse.value(5e-6) == 1.0
    assert pulse.value(14e-6) == pytest.approx(0.5)  # halfway down
    assert pulse.value(50e-6) == 0.0
    assert pulse.value(102e-6) == pytest.approx(0.5)  # periodic repeat

    pwl = net.device("v3").waveform
    assert isinstance(pwl, PwlWave)
    assert pwl.value(0.5e-3) == pytest.approx(0.5)
    assert pwl.value(1.5e-3) == pytest.approx(0.0)
    assert pwl.value(5e-3) == -1.0


def test_source_with_neither_dc_nor_waveform_sits_at_zero():
    net = parse_netlist("i1 0 b ac 1\nr1 b 0 1k\n")
    src = net.device("i1")
    assert (src.dc, src.waveform, src.ac_mag) == (None, None, 1.0)
    assert src.dc_value() == 0.0


def test_sin_damping_and_delay():
    net = parse_netlist("v1 a 0 sin(1 2 1k 1m 100)\nr1 a 0 1\n")
    w = net.device("v1").waveform
    assert w.value(0.5e-3) == 1.0  # still at offset before the delay
    t = 1.25e-3
    want = 1.0 + 2.0 * math.exp(-100 * 0.25e-3) * math.sin(2 * math.pi * 1e3 * 0.25e-3)
    assert w.value(t) == pytest.approx(want)


def test_all_diagnostics_collected():
    text = """\
v1 a 0 1
r1 a b 1zz
x9 a 0 5
r2 c 0 1k
"""
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    msgs = [str(d) for d in err.value.diagnostics]
    assert len(msgs) == 4
    assert any("line 2" in m and "1zz" in m for m in msgs)
    assert any("line 3" in m and "x9" in m for m in msgs)
    assert any("'b'" in m and "only one terminal" in m for m in msgs)
    assert any("'c'" in m and "only one terminal" in m for m in msgs)


def test_missing_ground_flagged():
    with pytest.raises(NetlistError, match="ground node '0' is missing"):
        parse_netlist("v1 a b 1\nr1 a b 1k\n")


def test_dangling_node_named():
    with pytest.raises(NetlistError, match="node 'loose'"):
        parse_netlist("v1 a 0 1\nr1 a loose 1k\n")


def test_dcsweep_source_must_exist():
    with pytest.raises(NetlistError, match="not a V/I source"):
        parse_netlist("v1 a 0 1\nr1 a 0 1k\n.dcsweep vx 0 1 0.1\n")
    net = parse_netlist("v1 a 0 1\nr1 a 0 1k\n.dcsweep v1 0 1 0.1\n")
    assert net.analyses == [DcSweepAnalysis("v1", 0.0, 1.0, 0.1)]


def test_bad_dcsweep_source_flagged_at_its_token():
    text = "* title\nv1 a 0 1\nr1 a 0 1k\n\n  .dcsweep   vx 0 1 0.1\n.dcsweep r1 0 1 0.1\n"
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    missing, resistor = err.value.diagnostics
    assert (missing.line, missing.col) == (5, 14)
    assert "'vx' is not a V/I source" in missing.message
    assert (resistor.line, resistor.col) == (6, 10)
    assert "'r1' is not a V/I source" in resistor.message


def test_duplicate_names_flagged():
    with pytest.raises(NetlistError, match="duplicate device name 'r1'"):
        parse_netlist("v1 a 0 1\nr1 a 0 1\nr1 a 0 2\n")
    with pytest.raises(NetlistError, match="duplicate parameter 'p'"):
        parse_netlist(".param p dist=uniform(0,1)\n.param p dist=uniform(1,2)\n"
                      "v1 a 0 1\nr1 a 0 dist=p\n")


def test_undeclared_reference_flagged():
    with pytest.raises(NetlistError, match="undeclared parameter 'missing'"):
        parse_netlist("v1 a 0 1\nr1 a 0 dist=missing\n")
    with pytest.raises(NetlistError) as err:
        parse_netlist(".param p dist=uniform(0, 1)\nv1 a 0 1\nr1 a 0  dist=missing\n")
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.col) == (3, 9)


def test_key_given_twice_flagged():
    with pytest.raises(NetlistError) as err:
        parse_netlist("v1 d 0 2\nm1 d d 0 w=1u w=50u\n")
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.col) == (2, 15)
    assert diag.message == "m1: key 'w' given twice"


def test_source_field_given_twice_flagged():
    """A second DC level (a bare number is one), ac magnitude or waveform on
    a V/I card is refused at its own token."""
    card = "v1 a 0 dc 1 dc 2 3 sin(0 1 1k) pulse(0 1 0 1n 1n 5n 10n) ac 1 ac 2"
    with pytest.raises(NetlistError) as err:
        parse_netlist(f"{card}\nr1 a 0 1\n")
    assert [(d.line, d.col, d.message) for d in err.value.diagnostics] == [
        (1, 13, "v1: dc level given twice"),
        (1, 18, "v1: dc level given twice"),
        (1, 32, "v1: waveform given twice"),
        (1, 63, "v1: ac magnitude given twice"),
    ]


def test_bad_distributions_flagged():
    for spec in ["dist=gauss(1)", "dist=gauss(1,0)", "dist=uniform(2,1)",
                 "dist=beta(0,1,0,1)", "dist=gamma(-1,0,1)", "dist=heavy(1,2)"]:
        with pytest.raises(NetlistError):
            parse_netlist(f"v1 a 0 1\nr1 a 0 {spec}\n")


def test_bad_waveforms_flagged():
    for wave in ["pulse(0 1 0 1u)", "pwl(0 0 0 1)", "sin()", "tri(0 1 2)",
                 "pulse(0 1 0 1n 1n -5n 10n)"]:
        with pytest.raises(NetlistError):
            parse_netlist(f"v1 a 0 {wave}\nr1 a 0 1\n")


def test_empty_netlist_flagged():
    with pytest.raises(NetlistError, match="no devices"):
        parse_netlist("* nothing here\n")


def test_analysis_argument_validation():
    for line in [".tran -1m", ".tran", ".tran 20n 0", ".tran 20n -1n", ".ac 0 10 5",
                 ".ac 10 1 5", ".ac 1 10 1e999", ".dcsweep v1 0 1 -0.1", ".unknown 3"]:
        with pytest.raises(NetlistError):
            parse_netlist(f"v1 a 0 1\nr1 a 0 1\n{line}\n")


def test_analysis_card_diagnostics_name_the_argument_at_fault():
    """Each card is checked in one order: its argument count at the
    directive, then each number at its own token, then the card's rules at
    the argument they refuse."""
    cards = [".dc v1 0 1 0.1", ".ac 1 10 2.5", ".tran 1u x", ".dcsweep v1 0 1 x",
             ".ac 1 10 1e999", ".tran -1m", ".tran 20n 0", ".dcsweep v1 0 1 -0.1",
             ".ac 0 10 5", ".ac 10 1 5", ".tran", ".ac 1 10"]
    text = "v1 a 0 1\nr1 a 0 1k\n" + "\n".join(cards) + "\n"
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    assert [(d.line, d.col, d.message) for d in err.value.diagnostics] == [
        (3, 1, ".dc takes no arguments"),
        (4, 10, ".ac pts/decade must be a whole number >= 1"),
        (5, 10, "not a number: 'x'"),
        (6, 17, "not a number: 'x'"),
        (7, 10, "number out of range: '1e999'"),
        (8, 7, ".tran tstop must be positive"),
        (9, 11, ".tran hmax must be positive"),
        (10, 17, ".dcsweep step must be positive"),
        (11, 5, ".ac fstart must be positive"),
        (12, 8, ".ac fstop must not be below fstart"),
        (13, 1, ".tran takes <tstop> [hmax]"),
        (14, 1, ".ac takes <fstart> <fstop> <points-per-decade>"),
    ]


def test_grid_over_the_point_budget_is_refused():
    """A sweep or AC card may ask for MAX_POINTS points and no more; the
    card counts them without building its grid."""
    assert MAX_POINTS == 10**6
    DcSweepAnalysis("v1", 0.0, 999999.0, 1.0)     # 10^6 levels, the last at stop
    AcAnalysis(10.0, 100.0, 999999)               # 10^6 frequencies, 10 to 100 Hz
    with pytest.raises(ValueError, match="step makes over 1000000 levels"):
        DcSweepAnalysis("v1", 0.0, 1e6, 1.0)
    with pytest.raises(ValueError, match="pts/decade makes over 1000000 frequencies"):
        AcAnalysis(10.0, 100.0, 10**6)
    with pytest.raises(NetlistError) as err:
        parse_netlist("vin a 0 1\nr1 a 0 1k\n.dcsweep vin 0.7 1.5 1e-12\n.ac 1 1g 1e12\n")
    assert [(d.line, d.col, d.message) for d in err.value.diagnostics] == [
        (3, 22, ".dcsweep step makes over 1000000 levels"),
        (4, 10, ".ac pts/decade makes over 1000000 frequencies"),
    ]


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build, arg, message", [
    (lambda: DcSweepAnalysis("v1", 0, 1, 0), 3, "step must be positive"),
    (lambda: DcSweepAnalysis("v1", 0, 1, -0.1), 3, "step must be positive"),
    (lambda: DcSweepAnalysis("v1", 0, 1, NAN), 3, "step must be positive"),
    (lambda: DcSweepAnalysis("v1", 1, 0, 0.1), 2, "stop must not be below start"),
    (lambda: DcSweepAnalysis("v1", NAN, 1, 0.1), 2, "stop must not be below start"),
    (lambda: DcSweepAnalysis("v1", 0, NAN, 0.1), 2, "stop must not be below start"),
    (lambda: DcSweepAnalysis("v1", 0, INF, 0.1), 3, "step makes over"),
    (lambda: DcSweepAnalysis("v1", 0.7, 1.5, 1e-12), 3, "step makes over"),
    (lambda: TranAnalysis(-1e-6), 0, "tstop must be positive"),
    (lambda: TranAnalysis(0.0), 0, "tstop must be positive"),
    (lambda: TranAnalysis(NAN), 0, "tstop must be positive"),
    (lambda: TranAnalysis(1e-6, 0.0), 1, "hmax must be positive"),
    (lambda: TranAnalysis(1e-6, -1e-9), 1, "hmax must be positive"),
    (lambda: TranAnalysis(1e-6, NAN), 1, "hmax must be positive"),
    (lambda: AcAnalysis(0, 10, 1), 0, "fstart must be positive"),
    (lambda: AcAnalysis(-1, 10, 1), 0, "fstart must be positive"),
    (lambda: AcAnalysis(NAN, 10, 1), 0, "fstart must be positive"),
    (lambda: AcAnalysis(10, 1, 1), 1, "fstop must not be below fstart"),
    (lambda: AcAnalysis(1, NAN, 1), 1, "fstop must not be below fstart"),
    (lambda: AcAnalysis(1, 10, 0), 2, "whole number >= 1"),
    (lambda: AcAnalysis(1, 10, 2.5), 2, "whole number >= 1"),
    (lambda: AcAnalysis(1, 10, NAN), 2, "whole number >= 1"),
    (lambda: AcAnalysis(1, 10, INF), 2, "whole number >= 1"),
    (lambda: AcAnalysis(1, INF, 1), 2, "pts/decade makes over"),
    (lambda: AcAnalysis(1, 1e9, 1e12), 2, "pts/decade makes over"),
    (lambda: PulseWave(0, 1, 0, 0, 1e-9, 5e-9, 10e-9), 3, "rise/fall/period"),
    (lambda: PulseWave(0, 1, 0, 1e-9, -1e-9, 5e-9, 10e-9), 4, "rise/fall/period"),
    (lambda: PulseWave(0, 1, 0, 1e-9, 1e-9, 5e-9, 0), 6, "rise/fall/period"),
    (lambda: PulseWave(0, 1, 0, NAN, 1e-9, 5e-9, 10e-9), 3, "rise/fall/period"),
    (lambda: PulseWave(0, 1, 0, 1e-9, 1e-9, -5e-9, 10e-9), 5, "width must not be negative"),
    (lambda: PulseWave(0, 1, 0, 1e-9, 1e-9, NAN, 10e-9), 5, "width must not be negative"),
    (lambda: PwlWave((1e-9, 0.0), (0.0, 1.0)), 0, "times must increase"),
    (lambda: PwlWave((0.0, 0.0), (0.0, 1.0)), 0, "times must increase"),
    (lambda: PwlWave((0.0, NAN), (0.0, 1.0)), 0, "times must increase"),
    (lambda: PwlWave((0.0,), (1.0,)), 0, "takes (t1, v1, t2, v2, ...)"),
    (lambda: PwlWave((0.0, 1.0), (1.0,)), 0, "takes (t1, v1, t2, v2, ...)"),
])
def test_library_built_card_checks_its_values(build, arg, message):
    """A card built in code refuses what its netlist line would, and names
    the position of the argument at fault."""
    with pytest.raises(CardValueError) as err:
        build()
    assert isinstance(err.value, ValueError)
    assert err.value.arg == arg
    assert message in str(err.value)


def test_infinite_tstop_is_refused():
    """An infinite tstop would run a one-point transient, or walk a pulse's
    corners for ever; NaN fails the rule before it."""
    with pytest.raises(CardValueError, match="tstop must be finite") as err:
        TranAnalysis(INF)
    assert err.value.arg == 0
    with pytest.raises(CardValueError, match="tstop must be positive"):
        TranAnalysis(NAN)


def test_waveform_corners_in_the_run():
    u, n = 1e-6, 1e-9
    pulse = PulseWave(0.0, 1.0, 1 * u, 1 * n, 1 * n, 4 * u, 20 * u)
    assert pulse.corners(10 * u) == pytest.approx([1 * u, 1 * u + n, 5 * u + n, 5 * u + 2 * n],
                                                  rel=1e-12)
    assert pulse.corners(45 * u) == pytest.approx(
        [t + d for t in (1 * u, 21 * u) for d in (0, n, 4 * u + n, 4 * u + 2 * n)]
        + [41 * u, 41 * u + n], rel=1e-12)
    # a period that starts before t = 0 keeps the corners after it
    early = PulseWave(0.0, 1.0, -3 * u, 1 * n, 1 * n, 4 * u, 10 * u)
    assert early.corners(12 * u) == pytest.approx(
        [1 * u + n, 1 * u + 2 * n, 7 * u, 7 * u + n, 11 * u + n, 11 * u + 2 * n], rel=1e-12)
    # a delay at or past tstop leaves no corner
    assert len(pulse.corners(1 * u)) == len(pulse.corners(0.5 * u)) == 0
    pwl = PwlWave((0.0, 1 * u, 2 * u, 5 * u), (0.0, 1.0, 1.0, 0.0))
    assert pwl.corners(3 * u).tolist() == [1 * u, 2 * u]
    assert SinWave(0.0, 1.0, 1e3, 2 * u).corners(3 * u).tolist() == [2 * u]
    assert len(SinWave(0.0, 1.0, 1e3).corners(3 * u)) == 0
    assert len(SinWave(0.0, 1.0, 1e3, 3 * u).corners(3 * u)) == 0


def test_pulse_corners_over_the_point_budget_are_refused(monkeypatch):
    """The periods are counted before a corner is listed: 4 ps periods up
    to 1 s would be 10^12 corners."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="makes over 1000000 corners before 1"):
            PulseWave(0.0, 1.0, 0.0, 1e-12, 1e-12, 1e-12, 4e-12).corners(1.0)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(netlist, "MAX_POINTS", 8)
    pulse = PulseWave(0.0, 1.0, 1.0, 0.1, 0.1, 0.3, 1.0)
    assert len(pulse.corners(3.0)) == 8          # two periods start before 3 s
    with pytest.raises(ValueError, match="makes over 8 corners"):
        pulse.corners(3.5)


def test_whole_points_per_decade_are_stored_as_int():
    ac = AcAnalysis(1.0, 10.0, 10.0)
    assert ac == AcAnalysis(1.0, 10.0, 10) and type(ac.points_per_decade) is int


def test_reversed_dcsweep_flagged_at_stop_column():
    with pytest.raises(NetlistError) as err:
        parse_netlist("v1 a 0 1\nr1 a 0 1k\n.dcsweep v1 1 0 0.1\n")
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.col) == (3, 15)
    assert "stop" in diag.message
    # a one-level sweep (stop == start) is still allowed
    net = parse_netlist("v1 a 0 1\nr1 a 0 1k\n.dcsweep v1 1 1 0.1\n")
    assert net.analyses == [DcSweepAnalysis("v1", 1.0, 1.0, 0.1)]


# --------------------------------------------------------------------------
# property: any text built from netlist vocabulary parses or is diagnosed
# --------------------------------------------------------------------------

_FUZZ_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-1", ".5", "2.2u", "1k", "1meg", "10n", "1e-3",
                     "1e999", "1e308k", "1x", "--3", "k", "", "1..2"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_FUZZ_NODES = st.sampled_from(["0", "1", "2", "a", "out", "n_1", "vdd"])
_FUZZ_DISTS = st.sampled_from([
    "dist=gauss(1,0.1)", "dist=gauss(1)", "dist=gauss(1,0)", "dist=uniform(0,1)",
    "dist=uniform(2,1)", "dist=beta(2,3,0,1)", "dist=beta(0,1,0,1)",
    "dist=gamma(2,0,1)", "dist=gamma(-1,0,1)", "dist=heavy(1,2)", "dist=p",
    "dist=missing", "dist=", "dist=(", "dist=gauss(1e999,1)", "dist=uniform(a,b)",
])
_FUZZ_WAVES = st.sampled_from([
    "sin(0 1 1k)", "sin(0 1 1k 1u 10)", "sin()", "sin(0 1", "pulse(0 1 0 1n 1n 5n 10n)",
    "pulse(0 1 0 0 1n 5n 10n)", "pulse(0 1 0 1u)", "pwl(0 0 1n 1)", "pwl(0 0 0 1)",
    "pwl(0 0 1n)", "tri(0 1 2)", "pwl(x 0 1n 1)", "pulse(0 1 0 1n 1n 5n 0)",
])
_FUZZ_WORDS = st.sampled_from([
    "r1", "r2", "c1", "l1", "v1", "v2", "i1", "d1", "m1", "q1", "x9", ".dc",
    ".dcsweep", ".tran", ".ac", ".param", ".end", ".unknown", "dc", "ac", "p",
    "type=nmos", "type=pnp", "is=", "*", "(", ")", "=",
])
_FUZZ_KEYVALUES = st.builds(
    "{}={}".format, st.sampled_from(["is", "n", "w", "l", "vt", "bf", "kp"]),
    st.one_of(_FUZZ_NUMBERS, _FUZZ_DISTS))
_FUZZ_CARDS = st.sampled_from([
    "v1 1 0 dc 1", "v1 1 0 dc 1 ac 1", "r1 1 0 1k", "r2 1 2 dist=p", "c1 2 0 1p",
    ".param p dist=uniform(900,1100)", "d1 1 0 is=dist=gauss(1e-14,2e-15)",
    "m1 1 2 0 type=nmos w=dist=p", ".dcsweep v1 0 1 0.1", ".dcsweep v1 1 0 0.1",
    ".dcsweep v1 1.5 0.7 0.1", ".dcsweep i1 0 -1 0.5", ".tran 20n 1n", ".tran 20n 0",
    ".ac 1 1meg 10", ".ac 1 10 1e999", ".dc v1 0 1 0.1", ".ac 1 10 2.5",
])
_FUZZ_LINES = st.one_of(
    _FUZZ_CARDS,
    st.lists(st.one_of(_FUZZ_WORDS, _FUZZ_NODES, _FUZZ_NUMBERS, _FUZZ_DISTS,
                       _FUZZ_WAVES, _FUZZ_KEYVALUES), max_size=8).map(" ".join),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FUZZ_LINES, max_size=10).map("\n".join))
def test_any_text_parses_or_raises_netlist_error(text):
    try:
        net = parse_netlist(text)
    except NetlistError:
        return
    for an in net.analyses:
        if isinstance(an, DcSweepAnalysis):
            assert an.start <= an.stop and an.step > 0
        if isinstance(an, TranAnalysis):
            assert an.tstop > 0 and (an.hmax is None or an.hmax > 0)
        if isinstance(an, AcAnalysis):
            assert 0 < an.fstart <= an.fstop
            assert type(an.points_per_decade) is int and an.points_per_decade >= 1
    for dev in net.devices:
        wave = dev.waveform
        assert wave is None or isinstance(wave, (SinWave, PulseWave, PwlWave))
        if isinstance(wave, PulseWave):
            assert wave.rise > 0 and wave.fall > 0 and wave.period > 0
        if isinstance(wave, PwlWave):
            assert len(wave.times) == len(wave.values) >= 2
            assert all(t2 > t1 for t1, t2 in zip(wave.times, wave.times[1:]))
