"""Device models, compiled into one batched kernel per device class.

The zoo is deliberately small: linear R/C/L, independent V/I sources, the
Shockley diode, a square-law MOSFET with channel-length modulation, and the
Ebers-Moll bipolar.  Every junction exponential goes through `limexp`, which
continues linearly past a fixed argument so Newton never sees an overflow
from a wild intermediate iterate.

`MODEL_KEYS` is the one list of the keys each class takes on its card, with
their defaults and the `type=` names.  Assembly reads every card through it
and records each device as a `DeviceSpec`: its state columns and its
parameters as affine functions base + scale * xi[germ] of the germ.
`DeviceKernel` groups the specs by class into index arrays (terminals and
germ columns, one row per device) and precomputes scatter matrices that
carry every per-device value into its rows of f and q and its entries of
df and dq.  The Jacobians are written as their `jacobian_pattern` entries
alone, nnz of the n² (13 of 36 on cs_amp), as SPICE loads only the
nonzeros of its matrix: a solver reads the entries it needs by their
place in the pattern, and `dense` scatters them into n x n blocks for a
caller that wants whole matrices.  One call evaluates M (state, germ)
points in one numpy pass: the model equations run elementwise on
(M, devices) arrays, the scatter is one matrix product per output, and
ground (index -1) reads as a zero column and receives nothing.
Voltage-source and inductor incidences are constant and enter through one
fixed matrix.  Each class's parameter stage depends on the germ points
alone, so its arrays are kept from one call to the next while the points
stay the same; see `DeviceKernel`.

Many Jacobian entries carry the same stamp: a resistor puts +-g into four
entries, and a MOSFET's source row is its drain row negated.
`DeviceKernel.stamp_groups`, built on first use, groups the entries whose
stamp columns are equal up to sign and lists the pure incidence entries
with their constants, all by their place in the pattern, so the Galerkin
projection in `solvers` runs once per group.  `DeviceKernel.peel`, also
built on first use, orders the states whose row or column holds one
incidence entry; `solvers` builds one plan from it that every peeled
solve, lockstep or Galerkin, reads to take those states off by division
and factor only the rest.

Every nonlinear branch carries a GMIN shunt.  A square-law device in cutoff
has identically zero current *and* conductance, so a node attached only to
off transistors would otherwise produce a structurally singular Jacobian
during operating-point ramping.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

BOLTZMANN = 1.380649e-23
ELEMENTARY_CHARGE = 1.602176634e-19
T_NOMINAL = 300.0
LIMEXP_ARG = 50.0
VT_TEMP_COEFF = 1e-3  # linear threshold-voltage drift per kelvin
GMIN = 1e-12  # shunt conductance across every nonlinear branch


def thermal_voltage(temp):
    return BOLTZMANN * temp / ELEMENTARY_CHARGE


def limexp(x):
    """exp(x) with a C1 linear continuation above LIMEXP_ARG; returns (value, slope).

    The argument is clamped before the exponential, so the linear branch
    never computes an overflow that np.where would then discard.
    """
    e = np.exp(np.minimum(x, LIMEXP_ARG))
    return np.where(x > LIMEXP_ARG, e * (1.0 + (x - LIMEXP_ARG)), e), e


class DeviceSpec(NamedTuple):
    """One assembled device.

    pins are state columns, -1 for ground; L and V append their branch
    current column.  params holds one (base, scale, germ) triple per key of
    the class's `MODEL_KEYS` entry, in that order, germ -1 for a constant.
    """

    kind: str
    pins: tuple
    params: tuple = ()
    polarity: float = 1.0   # of the card's `type=` name, from MODEL_KEYS


# --------------------------------------------------------------------------
# model equations on (M, D) arrays: v[k] is the k-th terminal's state.  Each
# class splits into a parameter stage, which maps the raw parameters, in
# its MODEL_KEYS order, to the arrays its equations read and depends on the
# germ only, and the equations proper, which get that tuple as d and return
# {output: [value arrays]} in the order of the class's scatter templates
# --------------------------------------------------------------------------

def _resistor_params(p):
    return (1.0 / p[0],)


def _resistor(v, d, sgn):
    g, = d
    return {"f": [g * (v[0] - v[1])], "df": [g]}


def _capacitor(v, d, sgn):
    c, = d
    return {"q": [c * (v[0] - v[1])], "dq": [c]}


def _inductor(v, d, sgn):
    ell, = d
    return {"q": [ell * v[2]], "dq": [ell]}


def _diode_params(p):
    i_s, emission, temp = p
    return i_s, emission * thermal_voltage(temp)


def _diode(v, d, sgn):
    i_s, vt = d
    vd = v[0] - v[1]
    e, de = limexp(vd / vt)
    return {"f": [i_s * (e - 1.0) + GMIN * vd], "df": [i_s * de / vt + GMIN]}


def _square_law(vds, vgs, beta, vth, lam):
    """Drain current for vds >= 0; returns (id, d/dvds, d/dvgs).

    C1 across the cutoff and triode/saturation boundaries: current,
    output conductance, and transconductance all match at vds = vgs - vth.
    Clamping the overdrive at zero and vds at the overdrive lets the triode
    formulas cover all three regions.
    """
    vov = np.maximum(vgs - vth, 0.0)
    vde = np.minimum(vds, vov)
    clm = 1.0 + lam * vds
    core = (vov - 0.5 * vde) * vde
    return (beta * core * clm,
            beta * ((vov - vde) * clm + core * lam),
            beta * vde * clm)


def _mosfet_params(p):
    vt0, kp, width, length, lam, temp, tnom = p
    return np.abs(vt0) - VT_TEMP_COEFF * (temp - tnom), kp * width / length, lam


def _mosfet(v, d, sgn):
    """Square-law MOSFET with channel-length modulation.

    PMOS runs the same equations on negated terminal voltages, and vds < 0
    swaps the drain and source roles.  Rotating voltages and currents
    together by the polarity leaves the Jacobian pattern unchanged, so
    derivative entries carry no extra sign.  The values are the current
    into the drain row and that row's partials by (d, g, s); the source row
    is their negation.  Swapped, the drain row is the source row of the
    swapped device: (gds + gm, -gm, -gds) instead of (gds, gm, -(gds + gm)).
    """
    vth, beta, lam = d
    vd, vg, vs = sgn * v
    fwd = vd >= vs
    vds = np.abs(vd - vs)
    ids, gds, gm = _square_law(vds, vg - np.minimum(vd, vs), beta, vth, lam)
    gds = gds + GMIN
    direction = np.where(fwd, 1.0, -1.0)
    return {"f": [direction * sgn * (ids + GMIN * vds)],
            "df": [gds + ~fwd * gm, direction * gm, -(gds + fwd * gm)]}


def _bjt_params(p):
    i_s, bf, br, temp = p
    return i_s, bf, br, thermal_voltage(temp)


def _bjt(v, d, sgn):
    """Ebers-Moll bipolar in transport form; pnp by voltage/current rotation."""
    i_s, bf, br, vt = d
    vc, vb, ve = sgn * v
    ef, def_ = limexp((vb - ve) / vt)
    er, der = limexp((vb - vc) / vt)
    gf = i_s * def_ / vt
    gr = i_s * der / vt
    icc = i_s * (ef - er)          # transport current, collector to emitter
    ibe = i_s * (ef - 1.0) / bf + GMIN * (vb - ve)
    ibc = i_s * (er - 1.0) / br + GMIN * (vb - vc)
    ic = icc - ibc                 # into the collector
    ib = ibe + ibc                 # into the base
    gbe = gf / bf + GMIN
    gbc = gr / br + GMIN
    # rows c, b, e: current leaving each node and its partials by (c, b, e)
    return {"f": [sgn * ic, sgn * ib, sgn * -(ic + ib)],
            "df": [gr + gbc, gf - gr - gbc, -gf,
                   -gbc, gbe + gbc, -gbe,
                   -gr, -gf - gbe + gr, gf + gbe]}


# scatter templates: for each value a model returns, the (terminal, sign)
# targets in f/q or the (row terminal, column terminal, sign) targets in
# df/dq
_BRANCH_ROWS = [[(0, 1.0), (1, -1.0)]]
_BRANCH_JAC = [[(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 1.0)]]
_THREE_BY_THREE = [[(r, c, 1.0)] for r in range(3) for c in range(3)]

# class -> (parameter stage, equations, scatter templates)
_MODELS = {
    "R": (_resistor_params, _resistor, {"f": _BRANCH_ROWS, "df": _BRANCH_JAC}),
    "C": (tuple, _capacitor, {"q": _BRANCH_ROWS, "dq": _BRANCH_JAC}),
    "L": (tuple, _inductor, {"q": [[(2, 1.0)]], "dq": [[(2, 2, 1.0)]]}),
    "D": (_diode_params, _diode, {"f": _BRANCH_ROWS, "df": _BRANCH_JAC}),
    "M": (_mosfet_params, _mosfet, {"f": [[(0, 1.0), (2, -1.0)]],
                                    "df": [[(0, c, 1.0), (2, c, -1.0)] for c in range(3)]}),
    "Q": (_bjt_params, _bjt, {"f": [[(r, 1.0)] for r in range(3)], "df": _THREE_BY_THREE}),
}

# class -> (the keys a card may bind, with their defaults in the order the
# parameter stage takes them, None where the card must give a value; the
# `type=` names with their polarities, the default first).  Assembly reads
# every card through this table and refuses anything it does not list.
MODEL_KEYS = {
    "R": ({"value": None}, {}),
    "C": ({"value": None}, {}),
    "L": ({"value": None}, {}),
    "V": ({}, {}),
    "I": ({}, {}),
    "D": ({"is": 1e-14, "n": 1.0, "temp": T_NOMINAL}, {}),
    "M": ({"vt0": 0.5, "kp": 2e-5, "w": 10e-6, "l": 1e-6, "lambda": 0.0,
           "temp": T_NOMINAL, "tnom": T_NOMINAL}, {"nmos": 1.0, "pmos": -1.0}),
    "Q": ({"is": 1e-16, "bf": 100.0, "br": 1.0, "temp": T_NOMINAL}, {"npn": 1.0, "pnp": -1.0}),
}

# constant incidence of the branch equations, (row, col, sign) on pins
# (a, b, branch): V: f[a] += i, f[b] -= i, f[br] += va - vb;
# L: same node rows, branch equation L di/dt - (va - vb) = 0
_LINEAR = {
    "V": [(0, 2, 1.0), (1, 2, -1.0), (2, 0, 1.0), (2, 1, -1.0)],
    "L": [(0, 2, 1.0), (1, 2, -1.0), (2, 0, -1.0), (2, 1, 1.0)],
}

_OUTPUTS = ("q", "f", "dq", "df")


class _Group:
    """Devices of one class: terminal and germ index arrays."""

    __slots__ = ("derive", "model", "pins", "base", "scale", "germ", "sgn")

    def __init__(self, derive, model, specs, n, l):
        self.derive = derive
        self.model = model
        pins = np.array([s.pins for s in specs], dtype=int).T       # (P, D)
        self.pins = np.where(pins < 0, n, pins)                     # ground -> zero column
        params = np.array([s.params for s in specs], dtype=float)   # (D, R, 3)
        self.base = params[:, :, 0].T                               # (R, D)
        self.scale = params[:, :, 1].T
        germ = params[:, :, 2].T.astype(int)
        self.germ = np.where(germ < 0, l, germ)                     # constant -> zero column
        self.sgn = np.array([s.polarity for s in specs])

    def params(self, xie):
        """The parameter stage's arrays at M germ points."""
        p = self.base + self.scale * xie[:, self.germ]              # (M, R, D)
        return self.derive(p.transpose(1, 0, 2))

    def values(self, xe, params):
        v = xe[:, self.pins]                                        # (M, P, D)
        return self.model(v.transpose(1, 0, 2), params, self.sgn)


class StampGroups(NamedTuple):
    """The `jacobian_pattern` entries sorted by how a point Jacobian fills
    them.  Each entry is listed once, by its place in the pattern (its
    column of the kernel's dq and df entries), either in `member` or in
    `incidence`.

    A member entry takes `sign` times the value of its group's lead entry
    at every point; `lead` lists one entry per group, in pattern order, and
    `group` indexes it.  An incidence entry has no device stamp and holds
    its constant `value` at every point.
    """

    lead: np.ndarray          # the first entry of each group
    member: np.ndarray        # the entries with a device stamp
    group: np.ndarray         # each member's index into lead
    sign: np.ndarray          # each member's +-1.0
    incidence: np.ndarray     # the entries without one
    value: np.ndarray


class Peel(NamedTuple):
    """The states a peeled solve takes off its system, in the rounds that
    find them, and the core left, which it factors.  `solvers` turns it
    into the one plan that the lockstep n x n solves and the Galerkin
    (nK) x (nK) solve both read.

    Each round is a (rows, cols, value) triple of state index arrays: row
    rows[m] fixes state cols[m] through the incidence entry value[m].  A
    `forward` round's rows have no other entry in the states still coupled,
    so they are solved first, in round order; a `backward` round's columns
    have no other entry in the rows still coupled, so they are solved last,
    from the last round to the first.  `core` is the (rows, cols) pair left
    between them.
    """

    forward: tuple
    core: tuple
    backward: tuple


class DeviceKernel:
    """The compiled device layer of one circuit: (x, xi) -> q, f, dq, df.

    Values are ordered group by group, value by value, device by device;
    the scatter matrix of each output has one row per value in that order
    and one column per entry of the output: n for f and q, and for df and
    dq one per entry of `jacobian_pattern`, the (row, col) pairs some
    device or incidence can make nonzero, in row-major order.  The
    `linear` incidence constants are added to df's entries.
    `stamp_groups` sorts the pattern's entries by those columns.

    A call keeps a one-entry memo: the shape and bytes of the germ points
    it was given, and each group's parameter-stage arrays at them.  The
    methods hold their K testing nodes, grid points or sample batch fixed
    over a whole run, so every Newton iteration after the first reuses it.
    A call hits the memo only when its xi has the memo's shape and the same
    bytes, so the memo cannot go stale, also when a caller changes its xi
    array in place, and a hit returns the bits a fresh kernel would.
    """

    def __init__(self, specs, n, l):
        self.n = n
        self.groups = []
        self._memo = None           # ((shape, bytes) of xi, per-group parameters)
        entries = {out: [] for out in _OUTPUTS}   # (value indices, targets, sign)
        width = {out: 0 for out in _OUTPUTS}        # values so far per output
        self.linear = np.zeros((n, n))
        by_kind = {}
        for spec in specs:
            by_kind.setdefault(spec.kind, []).append(spec)
        for kind, members in by_kind.items():
            for r, c, sign in _LINEAR.get(kind, ()):
                for spec in members:
                    a, b = spec.pins[r], spec.pins[c]
                    if a >= 0 and b >= 0:
                        self.linear[a, b] += sign
            if kind not in _MODELS:
                continue
            derive, model, templates = _MODELS[kind]
            group = _Group(derive, model, members, n, l)
            self.groups.append(group)
            pins = np.array([s.pins for s in members], dtype=int).T
            count = len(members)
            for out, template in templates.items():
                for targets in template:
                    for target in targets:
                        *terms, sign = target
                        idx = pins[list(terms)]                       # (1|2, D)
                        ok = (idx >= 0).all(axis=0)
                        flat = idx[0] if len(terms) == 1 else idx[0] * n + idx[1]
                        value = width[out] + np.arange(count)
                        entries[out].append((value[ok], flat[ok], sign))
                    width[out] += count
        # every flat n x n index a stamp or an incidence reaches, sorted and
        # once each
        reached = np.sort(np.concatenate(
            [np.flatnonzero(self.linear)]
            + [flat for out in ("dq", "df") for _, flat, _ in entries[out]]))
        reached = reached[np.diff(reached, prepend=-1) != 0]
        self.scatter = {}
        for out in _OUTPUTS:
            jac = out in ("dq", "df")
            mat = np.zeros((width[out], len(reached) if jac else n))
            for value, flat, sign in entries[out]:
                np.add.at(mat, (value, np.searchsorted(reached, flat) if jac else flat), sign)
            self.scatter[out] = mat
        # the pattern: the (row, col) of every df/dq entry some device or
        # incidence can make nonzero, which drops an entry whose stamps cancel
        touched = (self.scatter["df"].any(axis=0) | self.scatter["dq"].any(axis=0)
                   | (self.linear.ravel()[reached] != 0.0))
        for out in ("dq", "df"):
            self.scatter[out] = self.scatter[out][:, touched]
        self._flat = reached[touched]
        self.jacobian_pattern = np.divmod(self._flat, n)
        self._linear_entries = self.linear.ravel()[self._flat]

    @cached_property
    def stamp_groups(self) -> StampGroups:
        """The pattern's entries grouped by stamp column, built on first use.

        An entry's stamp column is its column of scatter["dq"] and
        scatter["df"] with its `linear` value below: at every point its
        Jacobian value is that column's dot product with the device values,
        plus the constant.  Entries whose columns are equal up to sign
        share a group (a resistor's four entries, a MOSFET's source row
        and drain row); the sign is taken from each column's first nonzero
        item, and the columns are compared as values, so -0.0 matches 0.0.
        An entry with zero dq and df columns is an incidence entry.
        """
        device = np.vstack([self.scatter["dq"], self.scatter["df"]])
        stamp = np.vstack([device, self._linear_entries])             # (values + 1, nnz)
        stamped = device.any(axis=0)
        first = np.argmax(stamp != 0.0, axis=0)
        sign = np.sign(stamp[first, np.arange(stamp.shape[1])])
        keys = {}
        member = np.flatnonzero(stamped)
        group = np.array([keys.setdefault(tuple((stamp[:, e] * sign[e]).tolist()), len(keys))
                          for e in member], dtype=int)
        lead = member[np.unique(group, return_index=True)[1]]
        incidence = np.flatnonzero(~stamped)
        return StampGroups(lead, member, group, sign[member] * sign[lead[group]],
                           incidence, stamp[-1, incidence])

    @cached_property
    def peel(self) -> Peel:
        """Singleton rows and columns of the Jacobian pattern whose one entry
        is an incidence, peeled in rounds, built on first use.

        Each round looks at the rows and columns still coupled.  A row with
        one entry left is a forward pivot (a voltage source's constraint
        row fixes its node); a column with one entry left is a backward
        pivot (a branch current read from its one KCL row).  Either is
        peeled only when that entry is an incidence, so its block in the
        Galerkin Jacobian is a constant times I; an entry that is both
        counts as a forward pivot.  Rounds repeat until one peels nothing.
        A pattern that makes every matrix with it singular raises
        LinAlgError: a row or column with no entry left, two singleton rows
        on one column (two sources fixing one node) or two singleton
        columns in one row.
        """
        n = self.n
        pattern = np.zeros((n, n), dtype=bool)
        pattern[self.jacobian_pattern] = True
        constant = np.zeros((n, n))
        constant.flat[self._flat[self.stamp_groups.incidence]] = self.stamp_groups.value
        live_rows, live_cols = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
        forward, backward = [], []
        while True:
            live = pattern & live_rows[:, None] & live_cols
            per_row, per_col = live.sum(axis=1), live.sum(axis=0)
            rows = np.flatnonzero(live_rows & (per_row == 1))
            row_pivots = live[rows].argmax(axis=1)
            cols = np.flatnonzero(live_cols & (per_col == 1))
            col_pivots = live[:, cols].argmax(axis=0)
            bad = [np.flatnonzero(live_rows & (per_row == 0) | live_cols & (per_col == 0))]
            for pivots in (row_pivots, col_pivots):
                states, count = np.unique(pivots, return_counts=True)
                bad.append(states[count > 1])
            bad = np.concatenate(bad)
            if len(bad):
                raise np.linalg.LinAlgError(f"structurally singular at state {bad[0]}")
            ok = constant[rows, row_pivots] != 0.0
            rows, row_pivots = rows[ok], row_pivots[ok]
            ok = (constant[col_pivots, cols] != 0.0) & ~np.isin(cols, row_pivots)
            cols, col_pivots = cols[ok], col_pivots[ok]
            if not len(rows) and not len(cols):
                break
            forward.append((rows, row_pivots, constant[rows, row_pivots]))
            backward.append((col_pivots, cols, constant[col_pivots, cols]))
            live_rows[rows] = live_cols[row_pivots] = False
            live_rows[col_pivots] = live_cols[cols] = False
        return Peel(tuple(forward), (np.flatnonzero(live_rows), np.flatnonzero(live_cols)),
                    tuple(backward))

    def __call__(self, x, xi):
        """One (M, 2n + 2·nnz) array holding q, f and the nnz pattern entries
        of dq and df at M points, in that order; `split` cuts it into the
        four outputs.  It is stored point-minor, each column contiguous over
        the points: the lockstep entry table reads its Jacobian columns as
        rows, and adding the constants runs down whole columns."""
        m, n = x.shape
        nnz = len(self._flat)
        xe = np.concatenate([x, np.zeros((m, 1))], axis=1)
        vals = {out: [] for out in _OUTPUTS}
        out = np.empty((2 * n + 2 * nnz, m)).T
        q, f, dq, df = self.split(out)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for group, d in zip(self.groups, self._params(xi)):
                for name, arrays in group.values(xe, d).items():
                    vals[name].extend(arrays)
            for name, dest in zip(_OUTPUTS, (q, f, dq, df)):
                # a row-major product, copied in: BLAS rounds a product
                # written point-minor differently
                value = (np.concatenate(vals[name], axis=1) @ self.scatter[name]
                         if vals[name] else np.zeros((m, dest.shape[1])))
                if name == "f":   # added while both terms are row-major
                    value += x @ self.linear.T
                dest[...] = value
            df += self._linear_entries
        return out

    def _params(self, xi):
        """Each group's parameter-stage arrays at the points xi, from the memo
        when xi has the shape and bytes of the last points."""
        key = (xi.shape, xi.tobytes())
        if self._memo is None or self._memo[0] != key:
            xie = np.concatenate([xi, np.zeros((len(xi), 1))], axis=1)
            self._memo = (key, [group.params(xie) for group in self.groups])
        return self._memo[1]

    def split(self, out):
        """Views q, f (M, n) and the pattern entries dq, df (M, nnz) of a
        kernel result."""
        n, nnz = self.n, len(self._flat)
        return out[:, :n], out[:, n:2 * n], out[:, 2 * n:2 * n + nnz], out[:, 2 * n + nnz:]

    def dense(self, entries):
        """Pattern entries (..., nnz) scattered into zero (..., n, n) blocks
        of their dtype."""
        lead = entries.shape[:-1]
        out = np.zeros(lead + (self.n * self.n,), dtype=entries.dtype)
        out[..., self._flat] = entries
        return out.reshape(lead + (self.n, self.n))
