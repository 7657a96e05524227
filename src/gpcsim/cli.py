"""Command-line front end: netlists in, CSV/JSON/.npy artifacts out.

One subcommand per analysis (dc, dcsweep, tran, ac) plus ``report``, which
digests run manifests into a cost-comparison table.  This module only
parses and checks flags, runs the analysis and calls the writers of
`gpcsim.post`, which owns every artifact format.  Every run writes a
manifest recording basis size, node count, wall time (the analysis
alone), write time (stats.csv, coefficients.json and a gPC run's
coefficients.npy), the time spent in device evaluation, in linear solves
and, for st, in testing-node selection, and step/Newton totals, so
speedup ratios can be recomputed from the manifests alone.

Netlist arguments are tried as filesystem paths first and then against the
netlists shipped with the package, so ``simulate dc cs_amp.cir`` works from
any directory.

A run flag given to a run that does not read it (`_FLAG_READERS`, plus
--ltetol with --fixed-step and --seed with --samples 1) exits 2 before
anything is written, so the manifest records only settings that took
effect, and null for a flag left out, whose default the solvers fill in.
The manifest's order is the one the expansion used, null for mc, and its
scheme the one a transient ran (SCHEMES[0] when --scheme is left out),
null for the analyses that take no time step.

Exit codes: 0 success, 2 netlist or configuration problem, 3 operating
point failure, 4 transient/analysis failure, 5 testing-node selection
failure.  Any exception but the package's own and a ValueError is a bug
and escapes with its traceback.  stats.csv, coefficients.json and
coefficients.npy are byte-identical across runs with the same
configuration and seed; manifest.json is not, because it records wall and
write times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import warnings
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from .circuit import AssemblyWarning, CircuitError, EvalOverflowError, load_circuit
from .collocation import PhiSingularError, SelectionError
from .engine import SCHEMES, DcConvergenceError, EngineError, NewtonConfig, StepControl
from .netlist import (
    AcAnalysis,
    DcAnalysis,
    DcSweepAnalysis,
    NetlistError,
    TranAnalysis,
)
from .post import stats_over_time, write_coefficients, write_json, write_stats_csv
from .quadrature import GridBudgetError, QuadratureError
from .solvers import DEFAULT_ORDER, MethodError, run_analysis

EXIT_CONFIG = 2
EXIT_DC = 3
EXIT_ANALYSIS = 4
EXIT_SELECTION = 5

_ANALYSIS_KINDS = {
    "dc": DcAnalysis,
    "dcsweep": DcSweepAnalysis,
    "tran": TranAnalysis,
    "ac": AcAnalysis,
}
METHODS = ("st", "sg", "sc", "mc")


class ConfigError(ValueError):
    """Bad flag combination or a netlist missing the requested analysis."""


# run flags that only some runs read: flag -> (methods, analyses) reading it
_FLAG_READERS = {
    "order": (("st", "sg", "sc"), tuple(_ANALYSIS_KINDS)),
    "samples": (("mc",), tuple(_ANALYSIS_KINDS)),
    "seed": (("mc",), tuple(_ANALYSIS_KINDS)),
    "beta": (("st",), tuple(_ANALYSIS_KINDS)),
    "ltetol": (("st", "sg"), ("tran",)),
    "scheme": (METHODS, ("tran",)),
    "fixed_step": (METHODS, ("tran",)),
}


def _check_flags(args):
    """Reject flag combinations argparse cannot express (exit code 2)."""
    for flag, (methods, analyses) in _FLAG_READERS.items():
        if getattr(args, flag) is None:
            continue
        name = "--" + flag.replace("_", "-")
        if args.method not in methods:
            raise ConfigError(f"{name} applies to the {'/'.join(methods)} method only")
        if args.command not in analyses:
            raise ConfigError(f"{name} applies to {'/'.join(analyses)} analyses only")
    if args.samples is not None and args.samples < 1:
        raise ConfigError("--samples must be positive")
    if args.seed is not None and args.samples == 1:
        raise ConfigError("--seed draws nothing with --samples 1, which runs the mean point")
    if args.ltetol is not None and args.fixed_step is not None:
        raise ConfigError("--ltetol controls adaptive steps, which --fixed-step turns off")
    if args.command == "ac" and args.method != "st":
        raise ConfigError("ac analysis runs with --method st only")
    if args.order is not None and args.order < 0:
        raise ConfigError("--order must be nonnegative")


def resolve_netlist(name: str):
    """Filesystem path, or one of the shipped example netlists."""
    p = Path(name)
    if p.is_file():
        return p
    shipped = resources.files("gpcsim") / "netlists" / name
    if shipped.is_file():
        return shipped
    raise ConfigError(f"netlist not found: {name} (not a file, not shipped)")


def pick_analysis(circuit, kind: str):
    cls = _ANALYSIS_KINDS[kind]
    for card in circuit.analyses:
        if isinstance(card, cls):
            return card
    if kind == "dc":
        return DcAnalysis()
    raise ConfigError(f"netlist declares no .{kind} card")


# --------------------------------------------------------------------------
# artifact writers
# --------------------------------------------------------------------------

def _expansion_order(result):
    """The gPC order a run expanded in; None for mc, which expands nothing."""
    return result.basis.order if result.basis is not None else None


def build_manifest(result, circuit, args, netlist_text: str, wall: float,
                   write_time: float) -> dict:
    nodes = result.nodes
    return {
        "netlist": Path(args.netlist).name,
        "netlist_sha256": hashlib.sha256(netlist_text.encode()).hexdigest(),
        "title": circuit.name,
        "analysis": args.command,
        "method": args.method,
        "order": _expansion_order(result),
        "states": circuit.n,
        "random_parameters": circuit.l,
        "basis_size": result.basis.size if result.basis is not None else None,
        "node_count": result.node_count,
        "cond_phi": nodes.cond_estimate if nodes is not None else None,
        "beta": nodes.beta_used if nodes is not None else None,
        "seed": result.seed if args.method == "mc" else None,
        "scheme": args.scheme or (SCHEMES[0] if args.command == "tran" else None),
        "fixed_step": args.fixed_step,
        "time_points": len(result.times),
        "failures": result.failures,
        "wall_time_s": wall,
        "write_time_s": write_time,
        **asdict(result.stats),
    }


def write_artifacts(result, circuit, args, netlist_text: str, wall: float) -> list:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = circuit.state_names
    written = []
    start = time.perf_counter()
    if args.format in ("csv", "both"):
        written.append(out / "stats.csv")
        write_stats_csv(written[-1], stats_over_time(result, names=names))
    if args.format in ("json", "both"):
        written += write_coefficients(out, result, names)
    write_time = time.perf_counter() - start
    written.append(out / "manifest.json")
    write_json(written[-1], build_manifest(result, circuit, args, netlist_text, wall,
                                          write_time))
    return written


# --------------------------------------------------------------------------
# cost report
# --------------------------------------------------------------------------

# manifest field -> report column: where a run's time went
_TIME_COLUMNS = {"device_eval_time": "eval_s", "linear_solve_time": "solve_s",
                 "write_time_s": "write_s", "linearize_time": "linearize_s",
                 "select_time": "select_s"}


def report_costs(manifests: list) -> list:
    """Cost table rows from run manifests of the same netlist and analysis.

    The first testing-node ("st") manifest is the baseline; without one the
    first manifest is.  Each row carries the node-count ratio, the measured
    time ratio, and kappa = time ratio / node ratio, so the transient
    speedup decomposes as time_ratio = node_ratio * kappa.  It also carries
    the run's device-evaluation, linear-solve, write, linearization and
    testing-node selection times, None where the manifest does not record
    one.
    """
    if not manifests:
        raise ValueError("no manifests given")
    first = manifests[0]
    for m in manifests[1:]:
        if m["netlist_sha256"] != first["netlist_sha256"]:
            raise ValueError(
                f"manifests mix netlists: {m['netlist']} vs {first['netlist']}")
        if m["analysis"] != first["analysis"]:
            raise ValueError(
                f"manifests mix analyses: {m['analysis']} vs {first['analysis']}")
    base = next((m for m in manifests if m["method"] == "st"), first)
    rows = []
    for m in manifests:
        node_ratio = m["node_count"] / base["node_count"]
        time_ratio = m["wall_time_s"] / base["wall_time_s"]
        rows.append({
            "method": m["method"],
            "order": m["order"],
            "node_count": m["node_count"],
            "steps_accepted": m.get("steps_accepted"),
            "wall_time_s": m["wall_time_s"],
            **{key: m.get(key) for key in _TIME_COLUMNS},
            "node_ratio": node_ratio,
            "time_ratio": time_ratio,
            "kappa": time_ratio / node_ratio,
        })
    return rows


def _print_report(rows, stream):
    header = f"{'method':<8}{'order':>6}{'nodes':>8}{'steps':>8}{'wall_s':>12}" \
             + "".join(f"{name:>12}" for name in _TIME_COLUMNS.values()) \
             + f"{'node_ratio':>12}{'time_ratio':>12}{'kappa':>10}"
    print(header, file=stream)
    for r in rows:
        steps = r["steps_accepted"] if r["steps_accepted"] is not None else "-"
        order = r["order"] if r["order"] is not None else "-"
        times = "".join(f"{r[key]:>12.4g}" if r[key] is not None else f"{'-':>12}"
                        for key in _TIME_COLUMNS)
        print(f"{r['method']:<8}{order:>6}{r['node_count']:>8}{steps:>8}"
              f"{r['wall_time_s']:>12.4g}{times}{r['node_ratio']:>12.4g}"
              f"{r['time_ratio']:>12.4g}{r['kappa']:>10.4g}", file=stream)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("netlist", help="netlist path or shipped example name")
    run_flags.add_argument("--method", choices=METHODS, default="st")
    run_flags.add_argument("--order", type=int, default=None,
                           help=f"gPC total order p (default {DEFAULT_ORDER}; not mc)")
    run_flags.add_argument("--beta", type=float, default=None,
                           help="testing-node conditioning bound")
    run_flags.add_argument("--seed", type=int, default=None, help="mc draw seed")
    run_flags.add_argument("--samples", type=int, default=None,
                           help="sample count (mc only)")
    run_flags.add_argument("--fixed-step", type=float, default=None,
                           help="uniform transient step; disables adaption")
    run_flags.add_argument("--scheme", choices=SCHEMES, default=None,
                           help=f"transient scheme (default {SCHEMES[0]})")
    run_flags.add_argument("--abstol", type=float, default=None)
    run_flags.add_argument("--reltol", type=float, default=None)
    run_flags.add_argument("--ltetol", type=float, default=None)
    run_flags.add_argument("--out", default=".", help="output directory")
    run_flags.add_argument("--format", choices=("csv", "json", "both"), default="both")

    ap = argparse.ArgumentParser(
        prog="simulate",
        description="stochastic circuit simulation via gPC testing/Galerkin/"
                    "collocation/Monte Carlo")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("dc", parents=[run_flags], help="operating point")
    sub.add_parser("dcsweep", parents=[run_flags], help="swept operating point")
    sub.add_parser("tran", parents=[run_flags], help="transient")
    sub.add_parser("ac", parents=[run_flags], help="small-signal frequency sweep")
    rep = sub.add_parser("report", help="cost table from run manifests")
    rep.add_argument("manifests", nargs="+", help="manifest.json paths")
    return ap


def run(args) -> int:
    """One analysis run from the parsed flags of a run subcommand."""
    _check_flags(args)
    path = resolve_netlist(args.netlist)
    text = path.read_text()
    with warnings.catch_warnings():
        # printed once below, in the cli's own format
        warnings.simplefilter("ignore", AssemblyWarning)
        circuit = load_circuit(text)
    for warning in circuit.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if circuit.l == 0:
        raise ConfigError("netlist has no dist= parameters; nothing to quantify")
    analysis = pick_analysis(circuit, args.command)
    tolerances = {name: getattr(args, name) for name in ("abstol", "reltol")
                  if getattr(args, name) is not None}
    samples = {} if args.samples is None else {"n_samples": args.samples}
    seed = {} if args.seed is None else {"seed": args.seed}

    start = time.perf_counter()
    result = run_analysis(
        circuit, args.method, args.order, analysis, beta=args.beta,
        newton=NewtonConfig(**tolerances) if tolerances else None,
        control=None if args.ltetol is None else StepControl(lte_tol=args.ltetol),
        scheme=args.scheme, fixed_h=args.fixed_step, **samples, **seed)
    wall = time.perf_counter() - start

    written = write_artifacts(result, circuit, args, text, wall)
    order = _expansion_order(result)
    print(f"{path.name} {args.command}: method={args.method} "
          f"order={order if order is not None else '-'} "
          f"nodes={result.node_count} wall={wall:.3g}s -> "
          f"{', '.join(str(w) for w in written)}")
    return 0


def _run_report(paths) -> int:
    manifests = []
    for p in paths:
        with open(p) as fh:
            try:
                manifest = json.load(fh)
            except ValueError as exc:   # not JSON, or not UTF-8 text
                raise ConfigError(f"{p}: manifest is not JSON ({exc})") from None
        if not isinstance(manifest, dict):
            raise ConfigError(f"{p}: manifest is not a JSON object")
        for field in ("netlist", "netlist_sha256", "analysis", "method", "order",
                      "node_count", "wall_time_s"):   # what report_costs reads
            if field not in manifest:
                raise ConfigError(f"{p}: manifest has no {field!r} field")
        nodes, wall = manifest["node_count"], manifest["wall_time_s"]
        if type(nodes) is not int or nodes <= 0:
            raise ConfigError(f"{p}: manifest field 'node_count' must be a positive "
                              f"integer, got {nodes!r}")
        if type(wall) not in (int, float) or not 0 < wall < np.inf:
            raise ConfigError(f"{p}: manifest field 'wall_time_s' must be positive "
                              f"and finite, got {wall!r}")
        for field in ("order", "steps_accepted", *_TIME_COLUMNS):   # what the report prints
            value = manifest.get(field)
            if value is not None and type(value) not in (int, float):
                raise ConfigError(f"{p}: manifest field {field!r} must be a number "
                                  f"or null, got {value!r}")
        manifests.append(manifest)
    rows = report_costs(manifests)
    _print_report(rows, sys.stdout)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _run_report(args.manifests)
        return run(args)
    except DcConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DC
    except (SelectionError, PhiSingularError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SELECTION
    except (EngineError, MethodError, QuadratureError, GridBudgetError,
            np.linalg.LinAlgError, EvalOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except (ConfigError, NetlistError, CircuitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
