"""The benchmark's three ``simulate`` workloads and their output oracles.

Each workload is one ``simulate`` command line, the public set-up calls it
makes before its first Newton iteration (timed on their own as
``setup_s``), and a check of its ``stats.csv`` against a reference made by
an independent method.  The references live in ``refs.json``; regenerate
them with ``python3 bench/make_refs.py``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gpcsim import GpcBasisSet, load_circuit, select_testing_nodes
from gpcsim.cli import resolve_netlist
from gpcsim.quadrature import gauss_rule, tensor_grid
from gpcsim.solvers import SGProblem

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

MC_SAMPLES = 2000
CLOSE_TOL_V = 1e-4      # criterion 07's level


def read_stats(path) -> dict:
    """stats.csv -> {state: (times, mean, std)} as float arrays."""
    rows: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["time", "state", "mean", "std"]:
            raise ValueError(f"{path}: unexpected header")
        for t, name, mean, std in reader:
            rows.setdefault(name, []).append((float(t), float(mean), float(std)))
    return {name: tuple(np.array(col) for col in zip(*vals))
            for name, vals in rows.items()}


# --------------------------------------------------------------------------
# set-up calls, mirroring what each method does before its first Newton step
# --------------------------------------------------------------------------

def _setup_st(text, order, seed):
    circuit = load_circuit(text)
    basis = GpcBasisSet([p.dist for p in circuit.params], order)
    grid = tensor_grid([gauss_rule(p.dist, order + 1) for p in circuit.params])
    select_testing_nodes(basis, grid)


def _setup_sg(text, order, seed):
    circuit = load_circuit(text)
    SGProblem(circuit, GpcBasisSet([p.dist for p in circuit.params], order))


def germ_draws(circuit, seed: int) -> np.ndarray:
    """The (MC_SAMPLES, l) germ points ``simulate --method mc`` draws."""
    rng = np.random.default_rng(seed)
    return np.column_stack([p.dist.sample(rng, MC_SAMPLES) for p in circuit.params])


def _setup_mc(text, order, seed):
    germ_draws(load_circuit(text), seed)


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

def _check_close(got, ref, run):
    """Probe mean and std within CLOSE_TOL_V of the reference."""
    problems = []
    for name, probe in ref["probes"].items():
        times, mean, std = (np.array(probe[k]) for k in ("times", "mean", "std"))
        g_times, g_mean, g_std = got[name]
        if not np.allclose(g_times, times, rtol=1e-12, atol=0.0):
            problems.append(f"{name}: probe times differ from the reference")
            continue
        for what, a, b in (("mean", g_mean, mean), ("std", g_std, std)):
            err = float(np.max(np.abs(a - b)))
            if not err <= CLOSE_TOL_V:
                problems.append(f"{name} {what}: max error {err:.3g} > {CLOSE_TOL_V:g}")
    return problems


def _check_mc(got, ref, run):
    """Criterion 09's bounds against the p=3 testing expansion, sampled at the
    run's own germ draws: mean within 3 standard errors, std within 5%.

    Pairing the draws leaves only the p=3 truncation error between a correct
    run and its reference.  Against the expansion's exact moments instead,
    73 of seeds 0..9999 of a correct program break a bound by sampling
    chance alone (seed 47 is the first).
    """
    circuit = load_circuit(resolve_netlist(run["netlist"]).read_text())
    basis = GpcBasisSet([p.dist for p in circuit.params], ref["order"])
    hmat = basis.eval_many(germ_draws(circuit, run["seed"]))
    kept = run["node_count"] - run["failures"]
    problems = []
    for name, coeffs in ref["coefficients"].items():
        g_times, g_mean, g_std = got[name]
        if not np.allclose(g_times, ref["times"], rtol=1e-12, atol=0.0):
            problems.append(f"{name}: sweep levels differ from the reference")
            continue
        values = hmat @ np.array(coeffs).T                   # (samples, levels)
        mean, std = values.mean(axis=0), values.std(axis=0)
        se = g_std / math.sqrt(kept)
        if not np.all(np.abs(g_mean - mean) <= 3.0 * se):
            worst = float(np.max(np.abs(g_mean - mean) / se))
            problems.append(f"{name} mean: {worst:.2f} standard errors off")
        if not np.all(np.abs(std - g_std) <= 0.05 * g_std):
            worst = float(np.max(np.abs(std - g_std) / g_std))
            problems.append(f"{name} std: {worst:.1%} off")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    analysis: str
    netlist: str
    method: str
    order: int
    setup: Callable                # (netlist text, order, seed) -> None
    check: Callable
    probes: tuple
    final_only: bool               # the check looks at the final row only
    reference: tuple               # simulate arguments of the reference run

    def argv(self, seed: int) -> list:
        args = [self.analysis, self.netlist, "--method", self.method]
        if self.method == "mc":
            return args + ["--samples", str(MC_SAMPLES), "--seed", str(seed)]
        return args + ["--order", str(self.order)]

    def check_outputs(self, out_dir: Path, refs: dict, seed: int) -> list:
        """Problems found in one invocation's artifacts; empty when correct."""
        got = read_stats(out_dir / "stats.csv")
        missing = [name for name in self.probes if name not in got]
        if missing:
            return [f"probe states missing from stats.csv: {missing}"]
        if self.final_only:
            got = {name: tuple(col[-1:] for col in cols) for name, cols in got.items()}
        run = json.loads((out_dir / "manifest.json").read_text())
        run["seed"] = seed
        return self.check(got, refs[self.name], run)


WORKLOADS = {w.name: w for w in (
    # p=2 testing nodes against the 81-run p=2 tensor collocation on its own
    # fixed 5 ns grid; the cell has settled at the final time, so both must
    # land on the same rails and spreads
    Workload("st_tran_sram6t", "tran", "sram6t.cir", "st", 2,
             _setup_st, _check_close, ("v(q)", "v(qb)"), True,
             ("tran", "sram6t.cir", "--method", "sc", "--order", "2")),
    # Galerkin against testing at the same order, at criterion 07's level
    Workload("sg_dcsweep_cs_amp", "dcsweep", "cs_amp.cir", "sg", 5,
             _setup_sg, _check_close, ("v(d)",), False,
             ("dcsweep", "cs_amp.cir", "--method", "st", "--order", "5")),
    Workload("mc_dcsweep_cs_amp", "dcsweep", "cs_amp.cir", "mc", 0,
             _setup_mc, _check_mc, ("v(d)",), False,
             ("dcsweep", "cs_amp.cir", "--method", "st", "--order", "3")),
)}


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())
