"""Scalar reference stamps: the test oracle for the batched device kernel.

One frozen dataclass per device class evaluates a single (x, xi) point
with plain Python floats and writes its contributions into preallocated
arrays, skipping ground (index -1) rows and columns.  Parameters are read
through `Bound` accessors.  `scalar_eval` rebuilds a circuit's stamps from
its device specs and evaluates one point the way the package did before
evaluation was batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gpcsim.devices import GMIN, LIMEXP_ARG, VT_TEMP_COEFF, thermal_voltage


def scalar_limexp(x: float):
    """exp(x) with a C1 linear continuation above LIMEXP_ARG; returns (value, slope)."""
    if x > LIMEXP_ARG:
        e = math.exp(LIMEXP_ARG)
        return e * (1.0 + (x - LIMEXP_ARG)), e
    e = math.exp(x)
    return e, e


@dataclass(frozen=True)
class Bound:
    """Affine accessor value = base + scale * xi[germ]; germ < 0 means constant."""

    base: float
    scale: float = 0.0
    germ: int = -1

    def __call__(self, xi):
        if self.germ < 0:
            return self.base
        return self.base + self.scale * xi[self.germ]


@dataclass(frozen=True)
class ResistorStamp:
    a: int
    b: int
    value: Bound

    def __call__(self, x, xi, q, f, dq, df):
        g = 1.0 / self.value(xi)
        va = x[self.a] if self.a >= 0 else 0.0
        vb = x[self.b] if self.b >= 0 else 0.0
        i = g * (va - vb)
        if self.a >= 0:
            f[self.a] += i
            df[self.a, self.a] += g
            if self.b >= 0:
                df[self.a, self.b] -= g
        if self.b >= 0:
            f[self.b] -= i
            df[self.b, self.b] += g
            if self.a >= 0:
                df[self.b, self.a] -= g


@dataclass(frozen=True)
class CapacitorStamp:
    a: int
    b: int
    value: Bound

    def __call__(self, x, xi, q, f, dq, df):
        c = self.value(xi)
        va = x[self.a] if self.a >= 0 else 0.0
        vb = x[self.b] if self.b >= 0 else 0.0
        charge = c * (va - vb)
        if self.a >= 0:
            q[self.a] += charge
            dq[self.a, self.a] += c
            if self.b >= 0:
                dq[self.a, self.b] -= c
        if self.b >= 0:
            q[self.b] -= charge
            dq[self.b, self.b] += c
            if self.a >= 0:
                dq[self.b, self.a] -= c


@dataclass(frozen=True)
class InductorStamp:
    a: int
    b: int
    branch: int
    value: Bound

    def __call__(self, x, xi, q, f, dq, df):
        ell = self.value(xi)
        ib = x[self.branch]
        if self.a >= 0:
            f[self.a] += ib
            df[self.a, self.branch] += 1.0
        if self.b >= 0:
            f[self.b] -= ib
            df[self.b, self.branch] -= 1.0
        # branch equation: L di/dt - (va - vb) = 0
        q[self.branch] += ell * ib
        dq[self.branch, self.branch] += ell
        if self.a >= 0:
            f[self.branch] -= x[self.a]
            df[self.branch, self.a] -= 1.0
        if self.b >= 0:
            f[self.branch] += x[self.b]
            df[self.branch, self.b] += 1.0


@dataclass(frozen=True)
class VoltageSourceStamp:
    """Branch equation va - vb = u; the source level itself enters through B u."""

    a: int
    b: int
    branch: int

    def __call__(self, x, xi, q, f, dq, df):
        ib = x[self.branch]
        if self.a >= 0:
            f[self.a] += ib
            df[self.a, self.branch] += 1.0
            f[self.branch] += x[self.a]
            df[self.branch, self.a] += 1.0
        if self.b >= 0:
            f[self.b] -= ib
            df[self.b, self.branch] -= 1.0
            f[self.branch] -= x[self.b]
            df[self.branch, self.b] -= 1.0


@dataclass(frozen=True)
class DiodeStamp:
    anode: int
    cathode: int
    i_sat: Bound
    emission: Bound
    temp: Bound

    def __call__(self, x, xi, q, f, dq, df):
        va = x[self.anode] if self.anode >= 0 else 0.0
        vc = x[self.cathode] if self.cathode >= 0 else 0.0
        i_s = self.i_sat(xi)
        vt = self.emission(xi) * thermal_voltage(self.temp(xi))
        e, de = scalar_limexp((va - vc) / vt)
        i = i_s * (e - 1.0) + GMIN * (va - vc)
        g = i_s * de / vt + GMIN
        if self.anode >= 0:
            f[self.anode] += i
            df[self.anode, self.anode] += g
            if self.cathode >= 0:
                df[self.anode, self.cathode] -= g
        if self.cathode >= 0:
            f[self.cathode] -= i
            df[self.cathode, self.cathode] += g
            if self.anode >= 0:
                df[self.cathode, self.anode] -= g


def _square_law(vds, vgs, beta, vth, lam):
    """Drain current for vds >= 0; returns (id, d/dvds, d/dvgs).

    C1 across the cutoff and triode/saturation boundaries: current,
    output conductance, and transconductance all match at vds = vgs - vth.
    """
    vov = vgs - vth
    if vov <= 0.0:
        return 0.0, 0.0, 0.0
    clm = 1.0 + lam * vds
    if vds >= vov:
        i = 0.5 * beta * vov * vov * clm
        return i, 0.5 * beta * vov * vov * lam, beta * vov * clm
    core = vov * vds - 0.5 * vds * vds
    i = beta * core * clm
    gds = beta * ((vov - vds) * clm + core * lam)
    gm = beta * vds * clm
    return i, gds, gm


@dataclass(frozen=True)
class MosfetStamp:
    """Square-law MOSFET with channel-length modulation.

    PMOS runs the same equations on negated terminal voltages, and vds < 0
    is handled by swapping drain and source roles internally.  Rotating
    voltages and currents together by the polarity leaves the Jacobian
    pattern unchanged, so derivative entries carry no extra sign.
    """

    d: int
    g: int
    s: int
    polarity: float  # +1 NMOS, -1 PMOS
    vt0: Bound
    kp: Bound
    width: Bound
    length: Bound
    lam: Bound
    temp: Bound
    tnom: Bound

    def __call__(self, x, xi, q, f, dq, df):
        sgn = self.polarity
        vd = sgn * (x[self.d] if self.d >= 0 else 0.0)
        vg = sgn * (x[self.g] if self.g >= 0 else 0.0)
        vs = sgn * (x[self.s] if self.s >= 0 else 0.0)
        vth = abs(self.vt0(xi)) - VT_TEMP_COEFF * (self.temp(xi) - self.tnom(xi))
        beta = self.kp(xi) * self.width(xi) / self.length(xi)
        lam = self.lam(xi)
        if vd >= vs:
            nd, ns = self.d, self.s
            ids, gds, gm = _square_law(vd - vs, vg - vs, beta, vth, lam)
        else:
            nd, ns = self.s, self.d
            ids, gds, gm = _square_law(vs - vd, vg - vd, beta, vth, lam)
        ids += GMIN * abs(vd - vs)  # abs(vd - vs) is vds in the swapped frame
        gds += GMIN
        partials = ((nd, gds), (self.g, gm), (ns, -(gds + gm)))
        if nd >= 0:
            f[nd] += sgn * ids
            for col, part in partials:
                if col >= 0:
                    df[nd, col] += part
        if ns >= 0:
            f[ns] -= sgn * ids
            for col, part in partials:
                if col >= 0:
                    df[ns, col] -= part


@dataclass(frozen=True)
class BjtStamp:
    """Ebers-Moll bipolar in transport form; pnp by voltage/current rotation."""

    c: int
    b: int
    e: int
    polarity: float  # +1 npn, -1 pnp
    i_sat: Bound
    beta_f: Bound
    beta_r: Bound
    temp: Bound

    def __call__(self, x, xi, q, f, dq, df):
        sgn = self.polarity
        vc = sgn * (x[self.c] if self.c >= 0 else 0.0)
        vb = sgn * (x[self.b] if self.b >= 0 else 0.0)
        ve = sgn * (x[self.e] if self.e >= 0 else 0.0)
        i_s = self.i_sat(xi)
        bf = self.beta_f(xi)
        br = self.beta_r(xi)
        vt = thermal_voltage(self.temp(xi))
        ef, def_ = scalar_limexp((vb - ve) / vt)
        er, der = scalar_limexp((vb - vc) / vt)
        gf = i_s * def_ / vt
        gr = i_s * der / vt
        icc = i_s * (ef - er)          # transport current, collector to emitter
        ibe = i_s * (ef - 1.0) / bf + GMIN * (vb - ve)
        ibc = i_s * (er - 1.0) / br + GMIN * (vb - vc)
        ic = icc - ibc                 # into the collector
        ib = ibe + ibc                 # into the base
        gbe = gf / bf + GMIN
        gbc = gr / br + GMIN
        # rows: current leaving each node; partials w.r.t. rotated voltages
        rows = (
            (self.c, ic, ((self.c, gr + gbc), (self.b, gf - gr - gbc), (self.e, -gf))),
            (self.b, ib, ((self.c, -gbc), (self.b, gbe + gbc), (self.e, -gbe))),
            (self.e, -(ic + ib), ((self.c, -gr), (self.b, -gf - gbe + gr), (self.e, gf + gbe))),
        )
        for row, cur, parts in rows:
            if row < 0:
                continue
            f[row] += sgn * cur
            for col, part in parts:
                if col >= 0:
                    df[row, col] += part


def _bounds(spec):
    return [Bound(base, scale, int(germ)) for base, scale, germ in spec.params]


def scalar_stamps(circuit) -> list:
    """One scalar stamp per device spec of an assembled circuit."""
    stamps = []
    for spec in circuit.devices:
        pins, params = spec.pins, _bounds(spec)
        if spec.kind == "R":
            stamps.append(ResistorStamp(pins[0], pins[1], params[0]))
        elif spec.kind == "C":
            stamps.append(CapacitorStamp(pins[0], pins[1], params[0]))
        elif spec.kind == "L":
            stamps.append(InductorStamp(pins[0], pins[1], pins[2], params[0]))
        elif spec.kind == "V":
            stamps.append(VoltageSourceStamp(pins[0], pins[1], pins[2]))
        elif spec.kind == "D":
            stamps.append(DiodeStamp(pins[0], pins[1], *params))
        elif spec.kind == "M":
            stamps.append(MosfetStamp(pins[0], pins[1], pins[2], spec.polarity, *params))
        elif spec.kind == "Q":
            stamps.append(BjtStamp(pins[0], pins[1], pins[2], spec.polarity, *params))
        else:
            raise AssertionError(spec.kind)
    return stamps


def scalar_eval(circuit, x, xi):
    """(q, f, dq, df) at one point; raises FloatingPointError if non-finite."""
    n = circuit.n
    q, f = np.zeros(n), np.zeros(n)
    dq, df = np.zeros((n, n)), np.zeros((n, n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for stamp in scalar_stamps(circuit):
            stamp(x, xi, q, f, dq, df)
    if not all(np.isfinite(a).all() for a in (q, f, dq, df)):
        raise FloatingPointError("non-finite scalar evaluation")
    return q, f, dq, df
