"""Line-oriented netlist grammar with engineering notation and diagnostics.

Element cards are `<name> <node...> <value|key=value...>`, keywords are case
insensitive and `*` starts a comment.  Values are plain numbers with the
usual suffixes (f, p, n, u, m, k, meg, g, t) or stochastic bindings written
`dist=<kind>(<args>)` for an inline germ or `dist=<name>` to reference a
`.param` declaration.  ANALYSES and WAVEFORMS list the analysis cards and
source waveforms with their usage; each card type checks its own values.

The cards up to `.end` are read `.param` lines first, so a `dist=<name>`
reference resolves where its card is read, also to a `.param` further
down, and every reference to one name is the same germ.  A key may appear
once per card; which keys a device takes is `devices.MODEL_KEYS`'s to say
and assembly's to check.

Parsing never stops at the first problem: all diagnostics are collected and
raised together with line/column positions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .basis import Beta, Gamma, Gaussian, RandomParameter, Uniform

_NUMBER_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?)(meg|k|m|u|n|p|f|g|t)?$")
_SUFFIX = {"k": 1e3, "m": 1e-3, "u": 1e-6, "n": 1e-9, "p": 1e-12,
           "f": 1e-15, "meg": 1e6, "g": 1e9, "t": 1e12}
_IDENT_RE = re.compile(r"^[a-z_][a-z0-9_.]*$")

DEVICE_LETTERS = {"r", "c", "l", "v", "i", "d", "m", "q"}
MAX_POINTS = 10**6   # most sweep levels or frequencies a card may ask for


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self):
        return f"line {self.line}, col {self.col}: {self.message}"


class NetlistError(ValueError):
    """Raised after a full parse pass; carries every diagnostic found."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__(
            "netlist has {} problem(s):\n  {}".format(
                len(self.diagnostics), "\n  ".join(str(d) for d in self.diagnostics)
            )
        )


class CardValueError(ValueError):
    """A card refuses one of its values; `arg` is that argument's position."""

    def __init__(self, arg: int, message: str):
        super().__init__(message)
        self.arg = arg


def _require(ok, arg, message):
    """Refuse argument `arg` unless ok, which each rule words so a NaN fails."""
    if not ok:
        raise CardValueError(arg, message)


def parse_number(text: str) -> float:
    """A float with an optional engineering suffix (f through t)."""
    m = _NUMBER_RE.match(text.strip().lower())
    if not m:
        raise ValueError(f"not a number: {text!r}")
    value = float(m.group(1)) * _SUFFIX.get(m.group(2), 1.0)
    if not math.isfinite(value):
        raise ValueError(f"number out of range: {text!r}")
    return value


# --------------------------------------------------------------------------
# waveforms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SinWave:
    offset: float
    amplitude: float
    freq: float
    delay: float = 0.0
    damping: float = 0.0

    def value(self, t):
        if t < self.delay:
            return self.offset
        dt = t - self.delay
        return self.offset + self.amplitude * math.exp(-self.damping * dt) * math.sin(
            2.0 * math.pi * self.freq * dt
        )

    def corners(self, t_end) -> np.ndarray:
        """The delay, where the sine starts, if it lies in (0, t_end)."""
        return np.array([self.delay] if 0 < self.delay < t_end else [], dtype=float)


@dataclass(frozen=True)
class PulseWave:
    v1: float
    v2: float
    delay: float
    rise: float
    fall: float
    width: float
    period: float

    def __post_init__(self):
        _require(self.rise > 0, 3, "rise/fall/period must be positive")
        _require(self.fall > 0, 4, "rise/fall/period must be positive")
        _require(self.period > 0, 6, "rise/fall/period must be positive")

    def value(self, t):
        if t < self.delay:
            return self.v1
        tau = (t - self.delay) % self.period
        if tau < self.rise:
            return self.v1 + (self.v2 - self.v1) * tau / self.rise
        tau -= self.rise
        if tau < self.width:
            return self.v2
        tau -= self.width
        if tau < self.fall:
            return self.v2 + (self.v1 - self.v2) * tau / self.fall
        return self.v1

    def corners(self, t_end) -> np.ndarray:
        """Each period's start, end of rise, end of width and end of fall
        in (0, t_end).  The periods that start before t_end are counted
        before any corner is listed; if their corners number over
        MAX_POINTS, a ValueError refuses them."""
        ends = np.cumsum([0.0, self.rise, self.width, self.fall])
        first = max(0, math.floor((-self.delay - ends.max()) / self.period))
        periods = math.ceil((t_end - self.delay) / self.period) - first
        if 4 * periods > MAX_POINTS:
            raise ValueError(f"pulse period {self.period:g} makes over {MAX_POINTS} "
                             f"corners before {t_end:g}")
        starts = self.delay + self.period * np.arange(first, first + periods)
        times = (starts[:, None] + ends).ravel()
        return times[(times > 0) & (times < t_end)]


@dataclass(frozen=True)
class PwlWave:
    times: tuple
    values: tuple

    def __post_init__(self):
        _require(len(self.times) == len(self.values) >= 2, 0, "takes (t1, v1, t2, v2, ...)")
        for t1, t2 in zip(self.times, self.times[1:]):
            _require(t2 > t1, 0, "times must increase")

    def value(self, t):
        ts, vs = self.times, self.values
        if t <= ts[0]:
            return vs[0]
        if t >= ts[-1]:
            return vs[-1]
        for k in range(1, len(ts)):
            if t <= ts[k]:
                frac = (t - ts[k - 1]) / (ts[k] - ts[k - 1])
                return vs[k - 1] + frac * (vs[k] - vs[k - 1])
        return vs[-1]

    def corners(self, t_end) -> np.ndarray:
        """The breakpoint times in (0, t_end)."""
        times = np.array(self.times, dtype=float)
        return times[(times > 0) & (times < t_end)]


# --------------------------------------------------------------------------
# cards and analyses
# --------------------------------------------------------------------------

@dataclass
class DeviceCard:
    kind: str                # one of R C L V I D M Q
    name: str
    nodes: tuple
    value: object = None     # float or RandomParameter (R/C/L principal value)
    params: dict = field(default_factory=dict)   # named bindings for D/M/Q
    waveform: object = None  # V/I transient waveform
    dc: float | None = None  # explicit operating-point value for V/I
    ac_mag: float = 0.0
    line: int = 0

    def dc_value(self) -> float:
        if self.dc is not None:
            return self.dc
        if self.waveform is not None:
            return self.waveform.value(0.0)
        return 0.0


@dataclass(frozen=True)
class DcAnalysis:
    pass


@dataclass(frozen=True)
class DcSweepAnalysis:
    source: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        _require(self.step > 0, 3, "step must be positive")
        _require(self.stop >= self.start, 2, "stop must not be below start")
        _require((self.stop - self.start) / self.step + 1e-9 < MAX_POINTS, 3,
                 f"step makes over {MAX_POINTS} levels")

    def levels(self) -> np.ndarray:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return self.start + self.step * np.arange(count)


@dataclass(frozen=True)
class TranAnalysis:
    tstop: float
    hmax: float | None = None

    def __post_init__(self):
        _require(self.tstop > 0, 0, "tstop must be positive")
        _require(self.tstop < math.inf, 0, "tstop must be finite")
        _require(self.hmax is None or self.hmax > 0, 1, "hmax must be positive")


@dataclass(frozen=True)
class AcAnalysis:
    fstart: float
    fstop: float
    points_per_decade: int

    def __post_init__(self):
        ppd = self.points_per_decade
        _require(self.fstart > 0, 0, "fstart must be positive")
        _require(self.fstop >= self.fstart, 1, "fstop must not be below fstart")
        _require(ppd >= 1 and ppd % 1 == 0, 2, "pts/decade must be a whole number >= 1")
        _require(math.log10(self.fstop / self.fstart) * ppd + 1e-9 < MAX_POINTS, 2,
                 f"pts/decade makes over {MAX_POINTS} frequencies")
        object.__setattr__(self, "points_per_decade", int(ppd))

    def frequencies(self) -> np.ndarray:
        decades = math.log10(self.fstop / self.fstart)
        count = int(math.floor(decades * self.points_per_decade + 1e-9)) + 1
        freqs = self.fstart * 10.0 ** (np.arange(count) / self.points_per_decade)
        return freqs[freqs <= self.fstop * (1 + 1e-12)]


# the analysis cards and waveforms the parser reads, each with its usage and
# fewest and most arguments; the card checks the values
ANALYSES = {
    ".dc": (DcAnalysis, "no arguments", 0, 0),
    ".dcsweep": (DcSweepAnalysis, "<source> <start> <stop> <step>", 4, 4),
    ".tran": (TranAnalysis, "<tstop> [hmax]", 1, 2),
    ".ac": (AcAnalysis, "<fstart> <fstop> <points-per-decade>", 3, 3),
}
WAVEFORMS = {
    "sin": (SinWave, "(offset, ampl, freq[, delay[, damping]])", 3, 5),
    "pulse": (PulseWave, "(v1, v2, td, tr, tf, pw, per)", 7, 7),
    "pwl": (PwlWave, "(t1, v1, t2, v2, ...)", 4, math.inf),
}


@dataclass
class Netlist:
    title: str
    devices: list
    params: dict            # declared RandomParameter by name
    analyses: list

    def device(self, name: str):
        for dev in self.devices:
            if dev.name == name:
                return dev
        raise KeyError(name)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _split_outside_parens(line: str):
    """Whitespace-split that keeps parenthesized groups whole; yields (tok, col)."""
    toks = []
    depth = 0
    cur = []
    start = 0
    for i, ch in enumerate(line):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        if ch.isspace() and depth == 0:
            if cur:
                toks.append(("".join(cur), start + 1))
                cur = []
        else:
            if not cur:
                start = i
            cur.append(ch)
    if cur:
        toks.append(("".join(cur), start + 1))
    return toks


_DIST_CALL_RE = re.compile(r"^([a-z]+)\((.*)\)$")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.diags: list[Diagnostic] = []
        self.devices: list[DeviceCard] = []
        self.params: dict[str, RandomParameter] = {}
        self.analyses = []
        self.title = ""
        self._sweep_sources = []  # (line, col, name) of each .dcsweep source

    def error(self, line, col, msg):
        self.diags.append(Diagnostic(line, col, msg))

    # -- value expressions --------------------------------------------------

    def make_distribution(self, kind, args, line, col, name):
        try:
            vals = [parse_number(a) for a in args]
        except ValueError as exc:
            self.error(line, col, f"malformed distribution argument: {exc}")
            return None
        try:
            if kind == "gauss":
                if len(vals) != 2:
                    raise ValueError("gauss takes (mu, sigma)")
                if vals[1] <= 0:
                    raise ValueError("gauss sigma must be positive")
                return RandomParameter(name, Gaussian(), shift=vals[0], scale=vals[1])
            if kind == "gamma":
                if len(vals) != 3:
                    raise ValueError("gamma takes (gamma, shift, scale)")
                return RandomParameter(name, Gamma(vals[0]), shift=vals[1], scale=vals[2])
            if kind == "beta":
                if len(vals) != 4:
                    raise ValueError("beta takes (alpha, beta, shift, scale)")
                return RandomParameter(name, Beta(vals[0], vals[1]), shift=vals[2], scale=vals[3])
            if kind == "uniform":
                if len(vals) != 2:
                    raise ValueError("uniform takes (lo, hi)")
                lo, hi = vals
                if not hi > lo:
                    raise ValueError("uniform needs hi > lo")
                return RandomParameter(name, Uniform(), shift=(lo + hi) / 2, scale=(hi - lo) / 2)
            raise ValueError(f"unknown distribution kind {kind!r}")
        except ValueError as exc:
            self.error(line, col, f"malformed distribution: {exc}")
            return None

    def parse_binding(self, tok, line, col, owner):
        """A number, an inline dist=kind(...), or a dist=<param> reference,
        which resolves at once: every .param line is read before any other."""
        if tok.startswith("dist="):
            spec = tok[5:]
            m = _DIST_CALL_RE.match(spec)
            if m:
                kind, argstr = m.group(1), m.group(2)
                args = [a for a in re.split(r"[,\s]+", argstr.strip()) if a]
                return self.make_distribution(kind, args, line, col, owner)
            if _IDENT_RE.match(spec):
                if spec not in self.params:
                    self.error(line, col, f"dist= references undeclared parameter {spec!r}")
                return self.params.get(spec)
            self.error(line, col, f"malformed dist= expression {tok!r}")
            return None
        try:
            return parse_number(tok)
        except ValueError:
            self.error(line, col, f"expected a value or dist= binding, got {tok!r}")
            return None

    # -- cards ---------------------------------------------------------------

    def parse_two_terminal(self, kind, name, toks, line):
        if len(toks) != 3:
            self.error(line, toks[0][1] if toks else 1,
                       f"{name}: expected <n+> <n-> <value>, got {len(toks)} fields")
            return
        binding = self.parse_binding(toks[2][0], line, toks[2][1], name)
        self.devices.append(
            DeviceCard(kind=kind, name=name, nodes=(toks[0][0], toks[1][0]),
                       value=binding, line=line)
        )

    def parse_source(self, kind, name, toks, line):
        if len(toks) < 2:
            self.error(line, 1, f"{name}: source needs two nodes")
            return
        nodes = (toks[0][0], toks[1][0])
        waveform = None
        dc = None
        ac = 0.0
        seen = set()

        def first(field, col) -> bool:
            """Whether the card gives `field` here for the first time."""
            if field in seen:
                self.error(line, col, f"{name}: {field} given twice")
                return False
            seen.add(field)
            return True

        rest = toks[2:]
        i = 0
        while i < len(rest):
            tok, col = rest[i]
            m = _DIST_CALL_RE.match(tok)
            if tok == "dc" or tok == "ac":
                if i + 1 >= len(rest):
                    self.error(line, col, f"{tok} needs a value")
                    break
                if first("dc level" if tok == "dc" else "ac magnitude", col):
                    try:
                        val = parse_number(rest[i + 1][0])
                        if tok == "dc":
                            dc = val
                        else:
                            ac = val
                    except ValueError as exc:
                        self.error(line, rest[i + 1][1], str(exc))
                i += 2
                continue
            if m:
                if first("waveform", col):
                    wave_kind, argstr = m.group(1), m.group(2)
                    args = [a for a in re.split(r"[,\s]+", argstr.strip()) if a]
                    waveform = self.parse_waveform(wave_kind, args, line, col, name)
                i += 1
                continue
            try:
                val = parse_number(tok)  # bare number means a DC level
            except ValueError:
                self.error(line, col, f"{name}: unrecognized source field {tok!r}")
            else:
                if first("dc level", col):
                    dc = val
            i += 1
        self.devices.append(
            DeviceCard(kind=kind, name=name, nodes=nodes, waveform=waveform,
                       dc=dc, ac_mag=ac, line=line)
        )

    def parse_waveform(self, kind, args, line, col, owner):
        try:
            vals = [parse_number(a) for a in args]
        except ValueError as exc:
            self.error(line, col, f"{owner}: bad waveform argument: {exc}")
            return None
        if kind not in WAVEFORMS:
            self.error(line, col, f"{owner}: unknown waveform {kind!r}")
            return None
        wave, usage, fewest, most = WAVEFORMS[kind]
        if not fewest <= len(vals) <= most:
            self.error(line, col, f"{owner}: {kind} takes {usage}")
            return None
        try:
            if wave is PwlWave:   # pair the flat (t1, v1, t2, v2, ...) list
                return PwlWave(tuple(vals[0::2]), tuple(vals[1::2]))
            return wave(*vals)
        except CardValueError as exc:
            self.error(line, col, f"{owner}: {kind} {exc}")
            return None

    def parse_three_terminal(self, kind, name, toks, line, n_nodes):
        if len(toks) < n_nodes:
            self.error(line, 1, f"{name}: expected {n_nodes} nodes")
            return
        nodes = tuple(t[0] for t in toks[:n_nodes])
        params = {}
        seen = set()
        for tok, col in toks[n_nodes:]:
            if "=" not in tok:
                self.error(line, col, f"{name}: expected key=value, got {tok!r}")
                continue
            key, _, valstr = tok.partition("=")
            if key in seen:
                self.error(line, col, f"{name}: key {key!r} given twice")
                continue
            seen.add(key)
            if key == "type":
                params[key] = valstr  # the model's flavor, checked at assembly
                continue
            binding = self.parse_binding(valstr, line, col, f"{name}.{key}")
            if binding is not None:
                params[key] = binding
        self.devices.append(
            DeviceCard(kind=kind, name=name, nodes=nodes, params=params, line=line)
        )

    # -- directives ------------------------------------------------------

    def parse_directive(self, toks, line):
        word = toks[0][0]
        args = toks[1:]
        if word == ".param":
            if len(args) != 2:
                self.error(line, toks[0][1], ".param takes <name> dist=<spec>")
                return None
            pname = args[0][0]
            if pname in self.params:
                self.error(line, args[0][1], f"duplicate parameter {pname!r}")
                return None
            spec, col = args[1]
            if not (spec.startswith("dist=") and _DIST_CALL_RE.match(spec[5:])):
                self.error(line, col, ".param requires a dist=<kind>(...) spec")
                return None
            binding = self.parse_binding(spec, line, col, pname)
            if binding is not None:
                self.params[pname] = binding
            return None
        if word not in ANALYSES:
            self.error(line, toks[0][1], f"unknown directive {word!r}")
            return None
        card, usage, fewest, most = ANALYSES[word]
        if not fewest <= len(args) <= most:
            self.error(line, toks[0][1], f"{word} takes {usage}")
            return None
        vals = []
        for ftype, (tok, col) in zip(card.__annotations__.values(), args):   # field types
            try:
                vals.append(tok if ftype == "str" else parse_number(tok))
            except ValueError as exc:
                self.error(line, col, str(exc))
                return None
        try:
            self.analyses.append(card(*vals))
        except CardValueError as exc:
            self.error(line, args[exc.arg][1], f"{word} {exc}")
            return None
        if card is DcSweepAnalysis:
            self._sweep_sources.append((line, args[0][1], args[0][0]))

    # -- driver ------------------------------------------------------------

    def run(self) -> Netlist:
        cards = []
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            if not self.title and raw.lstrip().startswith("*"):
                self.title = raw.lstrip().lstrip("*").strip()
            line = raw.split("*", 1)[0]
            if not line.strip():
                continue
            toks = _split_outside_parens(line.lower())
            if toks[0][0] == ".end":
                break
            cards.append((lineno, toks))
        # .param lines first (a stable sort), so every reference resolves when read
        for lineno, toks in sorted(cards, key=lambda card: card[1][0][0] != ".param"):
            head, col = toks[0]
            if head.startswith("."):
                self.parse_directive(toks, lineno)
                continue
            letter = head[0]
            if letter not in DEVICE_LETTERS:
                self.error(lineno, col, f"unknown device kind {head!r}")
                continue
            if any(d.name == head for d in self.devices):
                self.error(lineno, col, f"duplicate device name {head!r}")
                continue
            body = toks[1:]
            if letter in ("r", "c", "l"):
                self.parse_two_terminal(letter.upper(), head, body, lineno)
            elif letter in ("v", "i"):
                self.parse_source(letter.upper(), head, body, lineno)
            elif letter == "d":
                self.parse_three_terminal("D", head, body, lineno, 2)
            elif letter == "m":
                self.parse_three_terminal("M", head, body, lineno, 3)
            elif letter == "q":
                self.parse_three_terminal("Q", head, body, lineno, 3)
        self.validate()
        if self.diags:
            raise NetlistError(self.diags)
        return Netlist(self.title, self.devices, self.params, self.analyses)

    def validate(self):
        if not self.devices:
            self.error(1, 1, "netlist declares no devices")
            return
        touch = {}
        for dev in self.devices:
            for node in dev.nodes:
                touch[node] = touch.get(node, 0) + 1
        if "0" not in touch:
            self.error(1, 1, "ground node '0' is missing")
        for node, count in sorted(touch.items()):
            if node != "0" and count < 2:
                dev = next(d for d in self.devices if node in d.nodes)
                self.error(dev.line, 1, f"node {node!r} is connected to only one terminal")
        for line, col, name in self._sweep_sources:
            src = next((d for d in self.devices if d.name == name), None)
            if src is None or src.kind not in ("V", "I"):
                self.error(line, col, f".dcsweep source {name!r} is not a V/I source")


def parse_netlist(text: str) -> Netlist:
    """Parse netlist text; raises NetlistError listing every diagnostic."""
    return _Parser(text).run()
