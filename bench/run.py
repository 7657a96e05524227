"""gpcsim benchmark: ``simulate`` invocations timed end to end and by layer.

    python3 bench/run.py --workload st_tran_sram6t --seed 1 --seconds 38 --trace 0

One closed-loop client: this process calls ``gpcsim.cli.main`` in-process,
one invocation after another, with the checkout's ``src`` on the path and
BLAS pinned to one thread.  Every invocation's artifacts are checked
against the workload's oracle, against the first invocation's bytes, and
its counters against the first invocation's counters; any mismatch or
nonzero exit counts the invocation as failed.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one invocation (parse, solve, write),
               imports and interpreter start-up excluded
  setup_s      median time of the workload's public set-up calls, made by
               this script itself in a slice after every invocation
  peak_rss_mb  peak resident memory of this fresh process after its first
               invocation
--trace 1 alternates untraced and traced invocations and reports the
per-layer metrics of ``tracer.LAYER_METRICS`` (medians over the traced
ones).  Either way the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit, ``failed_frac``, and the
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
SETUP_SLICE_S = 0.4
ARTIFACTS = ("stats.csv", "coefficients.json")
MANIFEST_COUNTS = ("newton_iterations", "residual_evals", "linear_solves",
                   "steps_accepted", "steps_rejected")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "cpu": cpu,
        "seed": seed,
    }


class Client:
    """Runs one workload's invocations and checks every one of them."""

    def __init__(self, workload, seed: int, work_dir: Path):
        from workloads import load_refs

        self.workload = workload
        self.seed = seed
        self.argv = workload.argv(seed) + ["--out", str(work_dir)]
        self.out = work_dir
        self.refs = load_refs()
        self.attempted = 0
        self.failed = 0
        self.first = None           # artifact digests and counters of invocation 1

    def invoke(self, tracer=None) -> float:
        """One invocation; returns its wall time and records whether it failed."""
        from gpcsim import cli

        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        code = None
        spans = tracer.installed() if tracer is not None else contextlib.nullcontext()
        with spans, contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.main(self.argv)
            except Exception:  # a crash is a failed invocation, not the end of the run
                traceback.print_exc()
            wall = time.perf_counter() - start
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            try:
                problems = self._check()
            except (OSError, ValueError, KeyError) as exc:   # missing or malformed artifact
                problems = [f"unreadable artifacts: {exc!r}"]
        if problems:
            self.failed += 1
            print(f"invocation {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        return wall

    def _check(self) -> list:
        problems = self.workload.check_outputs(self.out, self.refs, self.seed)
        manifest = json.loads((self.out / "manifest.json").read_text())
        seen = {
            "digests": {name: hashlib.sha256((self.out / name).read_bytes()).hexdigest()
                        for name in ARTIFACTS},
            "counts": {name: manifest[name] for name in MANIFEST_COUNTS},
        }
        if self.first is None:
            self.first = seen
        for key in ("digests", "counts"):
            if seen[key] != self.first[key]:
                problems.append(f"{key} differ from the first invocation: "
                                f"{seen[key]} vs {self.first[key]}")
        return problems


def setup_times(workload, text: str, seed: int, budget_s: float) -> list:
    """Times of back-to-back set-ups, at least one, for about budget_s."""
    times = []
    while not times or sum(times) < budget_s:
        start = time.perf_counter()
        workload.setup(text, workload.order, seed)
        times.append(time.perf_counter() - start)
    return times


def run_untraced(client, workload, seed, seconds):
    from gpcsim.cli import resolve_netlist

    client.invoke()                                  # warm-up; fresh-process peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # set-ups run in a slice after every invocation, so that they sample the
    # same stretch of machine load as the invocations do
    text = resolve_netlist(workload.netlist).read_text()
    walls, setups = [], []
    start = time.perf_counter()
    last = 0.0
    while not walls or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        walls.append(client.invoke())
        setups += setup_times(workload, text, seed, SETUP_SLICE_S)
        last = time.perf_counter() - begin
    wall_s, setup_s = statistics.median(walls), statistics.median(setups)
    print(f"wall_s       {wall_s:.6f} s    (median of {len(walls)} invocations "
          f"after 1 warm-up: {', '.join(f'{w:.4f}' for w in walls)})")
    print(f"setup_s      {setup_s:.6f} s    (median of {len(setups)} set-ups)")
    print(f"peak_rss_mb  {peak_rss_mb:.3f} MiB  (fresh process, one invocation)")
    return {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}


def run_traced(client, seconds):
    from tracer import DETERMINISTIC_COUNTS, LAYER_METRICS, Tracer

    client.invoke()                                  # warm-up
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        plain.append(client.invoke())
        tracer = Tracer()
        failed_before = client.failed
        traced.append(client.invoke(tracer))
        layers.append(tracer.metrics(traced[-1]))
        counts = {name: layers[-1][name] for name in DETERMINISTIC_COUNTS}
        if client.failed == failed_before and counts != {
                name: layers[0][name] for name in DETERMINISTIC_COUNTS}:
            client.failed += 1
            print(f"traced invocation {len(traced)}: counts {counts} differ from "
                  "the first traced invocation", file=sys.stderr)
    metrics = {name: statistics.median(m[name] for m in layers) for name in LAYER_METRICS}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"per-layer values: medians of {len(traced)} traced invocations "
          f"(traced wall {statistics.median(traced):.6f} s, "
          f"untraced {statistics.median(plain):.6f} s over {len(plain)})")
    for name, (unit, _) in LAYER_METRICS.items():
        print(f"{name:28s} {metrics[name]:.9g} {unit}")
    return {name: (metrics[name], unit) for name, (unit, _) in LAYER_METRICS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # BLAS reads its thread count once, when numpy loads it; pin it first
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "gpcsim" / "__init__.py").is_file():
        print(f"error: no gpcsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    work_dir = BENCH_DIR / "_work" / f"{workload.name}-{os.getpid()}"
    client = Client(workload, args.seed, work_dir)
    try:
        if args.trace:
            metrics = run_traced(client, args.seconds)
        else:
            values = run_untraced(client, workload, args.seed, args.seconds)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"failed_frac  {client.failed / client.attempted:.6g} fraction "
          f"({client.failed} of {client.attempted} invocations)")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
