"""The batched device kernel against the scalar reference stamps.

Every shipped netlist plus an edge-case circuit is evaluated at random
(x, xi) batches of M = 1, K and Q points, and each point must match the
scalar stamps of scalar_devices.py entry by entry.  A kernel that has
memoized one germ set must return the bits of a freshly compiled one, and
a point's bits must not depend on the size of a batch of two or more.
"""

from importlib import resources

import numpy as np
import pytest

from helpers import inverter_chain
from scalar_devices import scalar_eval

from gpcsim.basis import num_basis
from gpcsim.circuit import EvalOverflowError, load_circuit
from gpcsim.devices import LIMEXP_ARG, DeviceKernel, thermal_voltage

SHIPPED = sorted(p.name for p in (resources.files("gpcsim") / "netlists").iterdir()
                 if p.name.endswith(".cir"))

# every terminal of every nonlinear class touches ground somewhere, both
# polarities of both transistor kinds, a diode-connected MOSFET, an inductor
EDGES = """* kernel edge cases
v1 a 0 dc 1
i1 0 g dc 1u
r1 a b dist=uniform(900,1100)
r2 g 0 1k
c1 b 0 1p
l1 b c 1n
d1 c 0 is=dist=gauss(1e-14,1e-15) n=1.2
d2 0 b is=1e-15
m1 c g 0 type=pmos w=dist=gauss(2u,0.1u) lambda=0.05
m2 0 g c type=nmos lambda=0.05 vt0=dist=gauss(0.5,0.02)
m3 g g a type=nmos kp=dist=gamma(2,180u,10u)
m4 a 0 g type=pmos
q1 c b 0 type=pnp is=dist=gauss(1e-15,1e-16)
q2 0 c b type=npn bf=150
q3 b 0 c type=npn
"""


def circuits():
    out = {name: load_circuit((resources.files("gpcsim") / "netlists" / name).read_text())
           for name in SHIPPED}
    out["edges"] = load_circuit(EDGES)
    return out


CIRCUITS = circuits()


def germ_draws(circuit, rng, m):
    return np.column_stack([p.dist.sample(rng, m) for p in circuit.params]) \
        if circuit.l else np.zeros((m, 0))


def assert_matches_oracle(circuit, x, xi):
    ev = circuit.eval_qf(x, xi)
    for m in range(len(x)):
        want = scalar_eval(circuit, x[m], xi[m])
        for got, ref in zip((ev.q[m], ev.f[m], ev.dq[m], ev.df[m]), want):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_batched_eval_matches_scalar_stamps(name):
    circuit = CIRCUITS[name]
    rng = np.random.default_rng(17)
    k = num_basis(2, circuit.l)
    q = 3 ** circuit.l
    for m in (1, k, q):
        x = rng.uniform(-3.0, 3.0, size=(m, circuit.n))
        xi = germ_draws(circuit, rng, m)
        assert_matches_oracle(circuit, x, xi)


def test_pattern_entries_at_scale():
    """An 80-stage inverter chain, whose pattern holds 326 of 84² entries:
    the kernel's entries match the scalar stamps, and the dense blocks
    expanded from them are exactly zero off the pattern."""
    circuit = load_circuit(inverter_chain(80))
    rows, cols = circuit.kernel.jacobian_pattern
    assert circuit.n == 84 and len(rows) < circuit.n ** 2 // 20
    rng = np.random.default_rng(41)
    x = rng.uniform(-2.0, 2.0, size=(3, circuit.n))
    xi = germ_draws(circuit, rng, 3)
    assert_matches_oracle(circuit, x, xi)
    ev = circuit.eval_qf(x, xi)
    off = np.ones((circuit.n, circuit.n), dtype=bool)
    off[rows, cols] = False
    for dense, entries in ((ev.dq, ev.dq_entries), (ev.df, ev.df_entries)):
        assert not dense[:, off].any()
        np.testing.assert_array_equal(dense[:, rows, cols], entries)
    assert ev.dq_entries.any() and ev.df_entries.any()


@pytest.mark.parametrize("name", ["sram6t.cir", "edges"])
def test_single_point_keeps_point_shapes(name):
    circuit = CIRCUITS[name]
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 2.0, size=circuit.n)
    xi = germ_draws(circuit, rng, 1)[0]
    ev = circuit.eval_qf(x, xi)
    assert ev.f.shape == ev.q.shape == (circuit.n,)
    assert ev.df.shape == ev.dq.shape == (circuit.n, circuit.n)
    for got, ref in zip((ev.q, ev.f, ev.dq, ev.df), scalar_eval(circuit, x, xi)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    batch = circuit.eval_qf(x[None], xi[None])
    np.testing.assert_array_equal(batch.df[0], ev.df)


def test_mosfet_regions_and_swap():
    """Cutoff, triode, saturation and vds < 0 for both polarities in one batch."""
    circuit = CIRCUITS["edges"]
    names = circuit.state_names
    rng = np.random.default_rng(5)
    rows = []
    for vc in (-1.5, -0.2, 0.0, 0.2, 1.5):        # m1/m2 drain-source voltage
        for vg in (-2.0, -0.3, 0.3, 0.8, 2.0):    # gate: cutoff through strong on
            x = rng.uniform(-0.5, 0.5, size=circuit.n)
            x[names.index("v(c)")] = vc
            x[names.index("v(g)")] = vg
            rows.append(x)
    x = np.array(rows)
    xi = np.tile(circuit.nominal_germ(), (len(x), 1))
    assert_matches_oracle(circuit, x, xi)


def test_beyond_limexp_knee():
    circuit = CIRCUITS["edges"]
    knee = LIMEXP_ARG * 1.2 * thermal_voltage(300.0)     # d1 has n = 1.2
    x = np.zeros((4, circuit.n))
    x[:, circuit.state_names.index("v(c)")] = [knee - 1e-3, knee, knee + 1e-3, 5.0]
    xi = np.tile(circuit.nominal_germ(), (4, 1))
    ev = circuit.eval_qf(x, xi)
    assert np.isfinite(ev.f).all() and np.isfinite(ev.df).all()
    assert_matches_oracle(circuit, x, xi)


def test_zero_resistor_in_batch_overflows():
    circuit = load_circuit("v1 a 0 1\nr1 a 0 dist=uniform(-1, 1)\n")
    x = np.ones((3, circuit.n))
    with pytest.raises(EvalOverflowError):
        circuit.eval_qf(x, np.array([[0.5], [0.0], [-0.5]]))
    with pytest.raises(FloatingPointError):
        scalar_eval(circuit, x[1], np.array([0.0]))
    ev = circuit.eval_qf(x[:2], np.array([[0.5], [-0.5]]))
    assert ev.df[0, 0, 0] == pytest.approx(1 / 0.5)
    assert ev.df[1, 0, 0] == pytest.approx(-1 / 0.5)


@pytest.mark.parametrize("name", ["db_mixer.cir", "bjt_feedback.cir"])
def test_batches_of_two_or_more_points_give_the_same_bits(name):
    """Batches of 2, 3 and 7 points give the q, f and Jacobian entries of
    one 64-point batch bit for bit.  A lone point is left out: it goes
    through BLAS gemv, not gemm, and may differ in the last bit."""
    circuit = CIRCUITS[name]
    rng = np.random.default_rng(29)
    x = rng.uniform(-2.0, 2.0, size=(64, circuit.n))
    xi = germ_draws(circuit, rng, 64)
    whole = np.ascontiguousarray(circuit.kernel(x, xi)).view(np.uint64)
    for size in (2, 3, 7):
        for start in range(0, 64 - size + 1, size):
            part = circuit.kernel(x[start:start + size], xi[start:start + size])
            np.testing.assert_array_equal(np.ascontiguousarray(part).view(np.uint64),
                                          whole[start:start + size], err_msg=size)


@pytest.mark.parametrize("name", ["sram6t.cir", "edges"])
def test_memo_returns_what_a_fresh_kernel_does(name):
    circuit = CIRCUITS[name]
    rng = np.random.default_rng(23)
    kernel = circuit.kernel
    for m in (1, num_basis(2, circuit.l)):
        a, b = germ_draws(circuit, rng, m), germ_draws(circuit, rng, m)
        for step in ("a", "a", "b", "a", "mutated a"):
            if step == "mutated a":
                a[...] = germ_draws(circuit, rng, m)       # same array, new values
            xi = b if step == "b" else a
            x = rng.uniform(-2.0, 2.0, size=(m, circuit.n))
            fresh = DeviceKernel(circuit.devices, circuit.n, circuit.l)
            np.testing.assert_array_equal(kernel(x, xi), fresh(x, xi), err_msg=step)


def stamp_column(kernel, r, c):
    """Entry (r, c)'s dq and df scatter columns with its linear value last;
    the scatter matrices have one column per pattern entry."""
    rows, cols = kernel.jacobian_pattern
    e, = np.flatnonzero((rows == r) & (cols == c))
    return np.concatenate([kernel.scatter["dq"][:, e], kernel.scatter["df"][:, e],
                           [kernel.linear[r, c]]])


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_stamp_groups_partition_the_pattern(name):
    circuit = CIRCUITS[name]
    kernel = circuit.kernel
    groups = kernel.stamp_groups
    rows, cols = kernel.jacobian_pattern

    def entry(places):   # the (row, col) of pattern places
        return rows[places], cols[places]

    listed = [*groups.member, *groups.incidence]
    assert sorted(listed) == list(range(len(rows)))                # each entry once
    for place, group, sign in zip(groups.member, groups.group, groups.sign):
        assert sign in (1.0, -1.0)
        column = stamp_column(kernel, *entry(place))
        assert column[:-1].any()                                  # a device stamps it
        lead = groups.lead[group]
        np.testing.assert_array_equal(column, sign * stamp_column(kernel, *entry(lead)))
        if place == lead:
            assert sign == 1.0
    assert set(groups.lead[groups.group]) == set(groups.lead)   # each lead heads its group
    columns = [stamp_column(kernel, *entry(lead)) for lead in groups.lead]
    for a in range(len(columns)):
        for b in range(a):
            assert not np.array_equal(columns[a], columns[b])
            assert not np.array_equal(columns[a], -columns[b])
    for place, value in zip(groups.incidence, groups.value):
        column = stamp_column(kernel, *entry(place))
        assert not column[:-1].any()
        assert column[-1] == value != 0.0
    # at evaluated points each member reads its lead's value times its sign,
    # and each incidence entry its constant
    rng = np.random.default_rng(29)
    x = rng.uniform(-2.0, 2.0, size=(5, circuit.n))
    ev = circuit.eval_qf(x, germ_draws(circuit, rng, 5))
    for jac in (ev.dq, ev.df):
        np.testing.assert_array_equal(jac[(slice(None), *entry(groups.member))],
                                      groups.sign * jac[(slice(None), *entry(groups.lead))][:, groups.group])
    np.testing.assert_array_equal(ev.df[(slice(None), *entry(groups.incidence))],
                                  np.broadcast_to(groups.value, (5, len(groups.value))))
    assert not ev.dq[(slice(None), *entry(groups.incidence))].any()


@pytest.mark.parametrize("name,groups,incidence", [("cs_amp.cir", 6, 4), ("sram6t.cir", 15, 8)])
def test_stamp_group_counts(name, groups, incidence):
    # cs_amp's nine device entries: rd's three away from the shared drain
    # node form one group, m1's two gate-column entries another, and the
    # other four stand alone; its two grounded sources stamp four incidences
    found = CIRCUITS[name].kernel.stamp_groups
    assert (len(found.lead), len(found.value)) == (groups, incidence)
