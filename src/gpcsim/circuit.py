"""Circuit assembly: netlist cards -> compiled stochastic DAE.

The assembled system is dq(x, xi)/dt + f(x, xi) = B u(t) in modified nodal
form.  State ordering is node voltages in order of first appearance, then
inductor currents, then voltage-source currents.  B is deterministic; all
randomness enters through device parameters bound to germ components.

Assembly reads every card through `devices.MODEL_KEYS`, so a device kind,
key or `type=` the table does not list is refused here, for parsed and
hand-built netlists alike, with the card's line.  It records one
DeviceSpec per device and nothing more.  The batched DeviceKernel is
compiled from those specs on the first evaluation and cached on the
circuit, with its memo of the parameters at the last germ points.
Nothing copies or changes a circuit after assembly: a DC sweep sets each
level in the source vector it hands the solver.  `eval_qf` is
the only device-evaluation path: every method calls it with all of its
points once per distinct Newton iterate (a solve seeded with an earlier
solution reuses that solution's evaluation), and a deterministic solve,
such as the nominal operating point, calls it with one.  It takes no time:
an evaluation holds at any time point.  A 1-D (x, xi) call is the M = 1
case with unbatched shapes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import RandomParameter
from .devices import MODEL_KEYS, DeviceKernel, DeviceSpec
from .netlist import Netlist, parse_netlist

GROUND = "0"


class CircuitError(ValueError):
    pass


class EvalOverflowError(FloatingPointError):
    """Device evaluation produced a non-finite entry; the Newton layer damps."""


class AssemblyWarning(UserWarning):
    pass


@dataclass(frozen=True)
class PointEval:
    """The DAE right-hand side pieces at (x, xi).

    One point gives q, f of shape (n,) and a batch of M points (M, n).  The
    Jacobians come as the kernel writes them, their `jacobian_pattern`
    entries dq_entries and df_entries, (nnz,) or (M, nnz), which is what
    the solvers read.  dq and df are the dense (n, n) or (M, n, n) blocks,
    zero off the pattern, expanded from the entries on first read.
    """

    q: np.ndarray
    f: np.ndarray
    dq_entries: np.ndarray
    df_entries: np.ndarray
    kernel: DeviceKernel = field(repr=False)

    @cached_property
    def dq(self) -> np.ndarray:
        return self.kernel.dense(self.dq_entries)

    @cached_property
    def df(self) -> np.ndarray:
        return self.kernel.dense(self.df_entries)


@dataclass
class StochasticCircuit:
    name: str
    node_names: list          # non-ground nodes, declaration order
    state_names: list         # v(<node>), then i(<inductor>), then i(<vsource>)
    params: tuple             # distinct RandomParameter, first-use order
    b_matrix: np.ndarray      # (n, m), deterministic
    source_names: list        # V/I device names, column order of b_matrix
    devices: list = field(repr=False, default_factory=list)   # DeviceSpec
    _sources: list = field(repr=False, default_factory=list)
    analyses: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.state_names)

    @property
    def l(self) -> int:
        return len(self.params)

    @cached_property
    def kernel(self) -> DeviceKernel:
        return DeviceKernel(self.devices, self.n, self.l)

    def eval_qf(self, x, xi) -> PointEval:
        """Device evaluation at one point, or at M points in one pass.

        x is (n,) or (M, n) and xi is (l,) or (M, l); a 1-D argument is
        shared by every point of a batch.  The Jacobians come back as their
        pattern entries, and as dense blocks only when a caller reads them;
        see PointEval.  Any non-finite entry anywhere in the batch raises
        EvalOverflowError.
        """
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        single = x.ndim == 1 and xi.ndim == 1
        m = 1 if single else (len(x) if x.ndim == 2 else len(xi))
        if x.shape != (m, self.n):
            x = np.broadcast_to(x, (m, self.n))
        if xi.shape != (m, self.l):
            xi = np.broadcast_to(xi, (m, self.l))
        kernel = self.kernel
        out = kernel(x, xi)
        if not np.isfinite(out).all():
            raise EvalOverflowError(
                f"non-finite device evaluation in circuit {self.name!r}")
        q, f, dq, df = kernel.split(out)
        if single:
            return PointEval(q[0], f[0], dq[0], df[0], kernel)
        return PointEval(q, f, dq, df, kernel)

    def source_vector(self, t: float) -> np.ndarray:
        return np.array([dev.dc_value() if dev.waveform is None
                         else dev.waveform.value(t) for dev in self._sources])

    def breakpoints(self, t_end: float) -> np.ndarray:
        """The sorted corners of every source waveform in (0, t_end)."""
        return np.unique(np.concatenate(
            [np.zeros(0)] + [dev.waveform.corners(t_end) for dev in self._sources
                             if dev.waveform is not None]))

    def dc_source_vector(self) -> np.ndarray:
        return np.array([dev.dc_value() for dev in self._sources])

    def ac_source_vector(self) -> np.ndarray:
        return np.array([dev.ac_mag for dev in self._sources])

    def nominal_germ(self) -> np.ndarray:
        return np.array([p.dist.germ_mean() for p in self.params])


def _require(cond, msg):
    if not cond:
        raise CircuitError(msg)


def _bindings(dev):
    """A card's values in its class's MODEL_KEYS order, defaults filled in,
    and its polarity; a kind, key or type the table does not list is refused."""
    where = f"line {dev.line}: {dev.name}"
    if dev.kind not in MODEL_KEYS:
        raise CircuitError(f"{where}: unknown device kind {dev.kind!r}")
    defaults, types = MODEL_KEYS[dev.kind]
    given = dict(dev.params)
    if dev.value is not None:
        given["value"] = dev.value
    polarity = 1.0
    if types:
        name = given.pop("type", next(iter(types)))
        if name not in types:
            raise CircuitError(f"{where}: type={name} is not one of {', '.join(types)}")
        polarity = types[name]
    for key in given:
        if key not in defaults:
            raise CircuitError(f"{where}: unknown key {key!r}; "
                               f"{dev.kind} cards take {', '.join(defaults) or 'no keys'}")
    values = []
    for key, default in defaults.items():
        value = given.get(key, default)
        if value is None:
            raise CircuitError(f"{where}: {key!r} is required")
        values.append(value)
    return values, polarity


def assemble(netlist: Netlist) -> StochasticCircuit:
    """Compile parsed cards into a stochastic DAE with device specs."""
    _require(netlist.devices, "cannot assemble an empty netlist")

    node_index: dict[str, int] = {}

    def node(name: str) -> int:
        if name == GROUND:
            return -1
        if name not in node_index:
            node_index[name] = len(node_index)
        return node_index[name]

    for dev in netlist.devices:
        for nm in dev.nodes:
            node(nm)
    _require(node_index, "netlist touches no non-ground node")

    node_names = sorted(node_index, key=node_index.get)
    n_nodes = len(node_names)
    inductors = [d for d in netlist.devices if d.kind == "L"]
    vsources = [d for d in netlist.devices if d.kind == "V"]
    isources = [d for d in netlist.devices if d.kind == "I"]
    branch_of = {}
    for k, dev in enumerate(inductors):
        branch_of[dev.name] = n_nodes + k
    for k, dev in enumerate(vsources):
        branch_of[dev.name] = n_nodes + len(inductors) + k

    state_names = (["v(" + nm + ")" for nm in node_names]
                   + ["i(" + d.name + ")" for d in inductors]
                   + ["i(" + d.name + ")" for d in vsources])
    n = len(state_names)

    germs: list[RandomParameter] = []

    def germ_of(par: RandomParameter) -> int:
        for k, seen in enumerate(germs):
            if seen is par:
                return k
        germs.append(par)
        return len(germs) - 1

    specs = []
    sources = vsources + isources
    b = np.zeros((n, len(sources)))
    for col, dev in enumerate(vsources):
        b[branch_of[dev.name], col] = 1.0
    for k, dev in enumerate(isources):
        col = len(vsources) + k
        a, c = node(dev.nodes[0]), node(dev.nodes[1])
        if a >= 0:
            b[a, col] = -1.0
        if c >= 0:
            b[c, col] = 1.0

    for dev in netlist.devices:
        values, polarity = _bindings(dev)
        if dev.kind == "I":
            continue  # enters only through B u
        pins = tuple(node(nm) for nm in dev.nodes)
        if dev.name in branch_of:
            pins += (branch_of[dev.name],)
        params = tuple((v.shift, v.scale, germ_of(v)) if isinstance(v, RandomParameter)
                       else (float(v), 0.0, -1) for v in values)
        specs.append(DeviceSpec(dev.kind, pins, params, polarity))

    structural = _structural_warnings(netlist, node_names)
    for msg in structural:
        warnings.warn(msg, AssemblyWarning, stacklevel=2)

    return StochasticCircuit(
        name=netlist.title or "(untitled)",
        node_names=node_names,
        state_names=state_names,
        params=tuple(germs),
        b_matrix=b,
        source_names=[d.name for d in sources],
        devices=specs,
        _sources=sources,
        analyses=list(netlist.analyses),
        warnings=structural,
    )


def _structural_warnings(netlist, node_names):
    """Flag nodes with no DC path to anywhere (only capacitors or I
    sources), and voltage sources that close a loop of voltage sources:
    two in parallel, or a cycle through ground."""
    kinds_at = {nm: set() for nm in node_names}
    for dev in netlist.devices:
        for nm in dev.nodes:
            if nm != GROUND:
                kinds_at[nm].add(dev.kind)
    out = []
    for nm in node_names:
        if kinds_at[nm] <= {"C", "I"}:
            out.append(f"node {nm!r} has no DC path (touched only by C/I devices); "
                       "the DC system is structurally singular")
    # a forest of the sources seen so far: node -> [(neighbour, source)]
    forest = {}
    for dev in netlist.devices:
        if dev.kind != "V":
            continue
        a, b = dev.nodes
        loop = _forest_path(forest, a, b)
        if loop is None:
            forest.setdefault(a, []).append((b, dev.name))
            forest.setdefault(b, []).append((a, dev.name))
        else:
            names = ", ".join(repr(name) for name in loop + [dev.name])
            out.append(f"voltage sources form a loop: {names}; "
                       "the system is structurally singular")
    return out


def _forest_path(forest, a, b):
    """The source names along the forest's path from node a to node b, or
    None when no path joins them."""
    seen, stack = {a: []}, [a]
    while stack:
        node = stack.pop()
        if node == b:
            return seen[node]
        for nxt, name in forest.get(node, ()):
            if nxt not in seen:
                seen[nxt] = seen[node] + [name]
                stack.append(nxt)
    return None


def load_circuit(text: str) -> StochasticCircuit:
    """Parse and assemble in one step."""
    return assemble(parse_netlist(text))
