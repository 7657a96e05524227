"""Statistics, PDF extraction, comparisons, and on-disk result formats.

Everything here consumes finished solver results, and this is the one
module that knows how each result kind (GpcTrajectory, SampleEnsemble)
becomes an artifact: `stats_over_time` and `coefficients_payload` take
either, and `write_json` writes every JSON file.  Complex coefficients are
an AC run's phasors, over frequencies rather than times.  Moments come straight from orthonormal coefficients (mean =
constant term, variance = sum of the squared rest); PDFs are estimated by
sampling the polynomial expansion, which costs polynomial evaluations
only.  CSV output is a long-format `time,state,mean,std` table printed
with 17 significant digits so a read-back reproduces the floats exactly.
JSON output is byte for byte what json.dump(payload, indent=1,
sort_keys=True) prints, plus a newline; `write_json` streams it and prints
each list of plain numbers with one repr instead of one float at a time.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .basis import GpcBasisSet, moments_from_coeffs
from .solvers import GpcTrajectory, SampleEnsemble

MIN_PDF_SAMPLES = 1000


@dataclass
class StatSeries:
    """Per-state mean and standard deviation over a time or sweep axis."""

    times: np.ndarray          # (T,)
    names: list                # n state labels
    mean: np.ndarray           # (T, n)
    std: np.ndarray            # (T, n)

    def __post_init__(self):
        t = len(self.times)
        if self.mean.shape != self.std.shape or self.mean.shape[0] != t:
            raise ValueError("stat series arrays disagree on shape")
        if self.mean.shape[1] != len(self.names):
            raise ValueError("state label count does not match columns")
        if np.any(self.std < 0):
            raise ValueError("negative standard deviation")


@dataclass
class PdfEstimate:
    """Histogram density of one scalar quantity with its sampling metadata."""

    n_samples: int
    edges: np.ndarray          # (B+1,)
    densities: np.ndarray      # (B,)
    sample_mean: float
    sample_std: float


def stats_over_time(result, names=None) -> StatSeries:
    """Mean/std series of any result over its time, sweep or frequency axis.

    An AC sweep's phasors report the magnitude of the mean coefficient and
    the RMS of the other coefficients' magnitudes; the full complex tensors
    go to `coefficients_payload`.
    """
    if isinstance(result, SampleEnsemble):
        times, mean, std = result.times, result.mean(), result.std()
    elif isinstance(result, GpcTrajectory):
        times, coeffs = result.times, result.coeffs
        if np.iscomplexobj(coeffs):
            coeffs = np.abs(coeffs)
        mean, std = moments_from_coeffs(coeffs.transpose(1, 0, 2))
    else:
        raise TypeError(f"cannot extract statistics from {type(result).__name__}")
    n = mean.shape[1]
    if names is None:
        names = [f"x{i}" for i in range(n)]
    return StatSeries(times=np.asarray(times, dtype=float), names=list(names),
                      mean=mean, std=std)


# --------------------------------------------------------------------------
# PDF extraction by expansion sampling
# --------------------------------------------------------------------------

def sample_expansion(basis: GpcBasisSet, coeffs, n_samples: int, seed):
    """Draw germ samples and evaluate sum_k c_k H_k at each; complex safe."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[0] != basis.size:
        raise ValueError(
            f"expansion has {coeffs.shape[0]} coefficients, basis {basis.size}")
    rng = np.random.default_rng(seed)
    pts = basis.sample_germs(rng, int(n_samples))
    return basis.eval_many(pts) @ coeffs


def pdf_of_expansion(basis: GpcBasisSet, coeffs, n_samples=10000, seed=0,
                     bins=None) -> PdfEstimate:
    """Histogram density of the expansion's value distribution.

    Sampling is seeded, so the estimate is deterministic.  Binning follows
    Freedman-Diaconis unless a count is given; an (effectively) constant
    expansion collapses to a single unit-mass bin around its value.
    """
    if n_samples < MIN_PDF_SAMPLES:
        raise ValueError(f"need at least {MIN_PDF_SAMPLES} samples, got {n_samples}")
    samples = np.real_if_close(sample_expansion(basis, coeffs, n_samples, seed))
    samples = np.asarray(samples, dtype=float)
    mean = float(samples.mean())
    std = float(samples.std())

    lo, hi = float(samples.min()), float(samples.max())
    spread = hi - lo
    if spread <= 1e-12 * max(1.0, abs(mean)):
        # constant: a single spike carrying all the mass; the density uses
        # the realized edge gap so the mass integrates to 1 exactly
        half = max(1e-9 * max(1.0, abs(mean)), 1e-300)
        edges = np.array([mean - half, mean + half])
        densities = np.array([1.0 / (edges[1] - edges[0])])
        return PdfEstimate(int(n_samples), edges, densities, mean, std)

    densities, edges = np.histogram(samples, bins="fd" if bins is None else bins,
                                    density=True)
    return PdfEstimate(int(n_samples), edges, densities, mean, std)


# --------------------------------------------------------------------------
# method comparison
# --------------------------------------------------------------------------

@dataclass
class ComparisonReport:
    l2_error: float            # over all stacked coefficients, all times
    per_time: np.ndarray       # coefficient-matrix L2 error at each time
    max_per_time: float
    reference_method: str
    candidate_method: str


def compare_methods(reference, candidate) -> ComparisonReport:
    """Coefficient-space error of a candidate run against a reference run.

    The candidate's order may be lower: graded-lexicographic index sets nest,
    so its coefficients embed as a prefix and the reference's tail counts as
    pure error.  Different germ families or mismatched time grids refuse.
    """
    rb, cb = reference.basis, candidate.basis
    if rb.dists != cb.dists:
        raise ValueError("cannot compare expansions over different germ families")
    if cb.size > rb.size:
        raise ValueError("candidate order exceeds the reference; swap arguments")
    if not np.array_equal(rb.indices[:cb.size], cb.indices):
        raise ValueError("candidate index set is not a prefix of the reference")
    if len(reference.times) != len(candidate.times) or not np.allclose(
            reference.times, candidate.times, rtol=1e-12, atol=1e-15):
        raise ValueError("time grids differ; compare DC results or equal grids")

    ref = reference.coeffs
    cand = np.zeros_like(ref)
    cand[:, :cb.size, :] = candidate.coeffs
    diff = ref - cand
    per_time = np.sqrt(np.sum(diff**2, axis=(1, 2)))
    return ComparisonReport(
        l2_error=float(np.sqrt(np.sum(diff**2))),
        per_time=per_time,
        max_per_time=float(per_time.max()),
        reference_method=reference.method,
        candidate_method=candidate.method,
    )


# --------------------------------------------------------------------------
# exports
# --------------------------------------------------------------------------

def _csv_field(text):
    """text as csv.writer prints it among other fields, quoted if it must be."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def write_stats_csv(path, series: StatSeries):
    """Long-format time,state,mean,std with full float round-trip precision.

    The bytes are those of csv.writer printing one row per (time, state)
    with each float as f"{value:.17g}"; each time's rows are printed by one
    %-format of all their values.
    """
    rows = "".join(f"%.17g,{_csv_field(name).replace('%', '%%')},%.17g,%.17g\n"
                   for name in series.names)
    times = np.broadcast_to(series.times[:, None], series.mean.shape)
    steps = np.stack([times, series.mean, series.std], axis=2)     # (T, n, 3)
    steps = steps.reshape(len(series.times), 3 * len(series.names))
    with open(path, "w", newline="") as fh:
        fh.write("time,state,mean,std\n")
        fh.writelines(rows % tuple(step) for step in steps.tolist())


def read_stats_csv(path) -> StatSeries:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty stats CSV {path}")
    if rows[0] != ["time", "state", "mean", "std"]:
        raise ValueError(f"unexpected CSV header {rows[0]!r} in {path}")
    if len(rows) == 1:
        raise ValueError(f"stats CSV {path} has a header and no rows")
    names: list = []
    for _, name, _, _ in rows[1:]:
        if name in names:
            break
        names.append(name)
    data = np.array([[float(r[0]), float(r[2]), float(r[3])] for r in rows[1:]])
    nt = len(data) // len(names)
    times = data[::len(names), 0]
    mean = data[:, 1].reshape(nt, len(names))
    std = data[:, 2].reshape(nt, len(names))
    return StatSeries(times=times, names=names, mean=mean, std=std)


def _complex_safe(arr):
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return {"real": arr.real.tolist(), "imag": arr.imag.tolist()}
    return arr.tolist()


def coefficients_payload(result, state_names=None) -> dict:
    """JSON-ready dict of a result: the coefficient tensor with its basis
    provenance, or an mc run's moments with its seed and failures."""
    if isinstance(result, SampleEnsemble):
        return {
            "method": result.method,
            "n_samples": len(result.samples),
            "failures": result.failures,
            "seed": result.seed,
            "states": None if state_names is None else list(state_names),
            "times": result.times.tolist(),
            "mean": result.mean().tolist(),
            "std": result.std().tolist(),
        }
    basis = result.basis
    payload = {
        "order": basis.order,
        "basis_size": basis.size,
        "germs": [type(d).__name__.lower() for d in basis.dists],
        "index_set": basis.indices.tolist(),
        "coefficients": _complex_safe(result.coeffs),
        "method": result.method,
    }
    axis = "frequencies" if np.iscomplexobj(result.coeffs) else "times"
    payload[axis] = np.asarray(result.times, dtype=float).tolist()
    if state_names is not None:
        payload["states"] = list(state_names)
    if result.nodes is not None:
        payload["testing_nodes"] = result.nodes.nodes.tolist()
        payload["beta"] = result.nodes.beta_used
        payload["cond_phi"] = result.nodes.cond_estimate
    return payload


def _json_chunks(obj, indent):
    """Pieces of the text json.dump(obj, indent=1, sort_keys=True) prints,
    for an object whose lines are indented by `indent`.

    A non-empty list of plain ints and floats (no bools, no numpy scalars)
    is printed by one repr(list): its items are the reprs json prints, its
    ", " separators become json's line breaks, and nan and inf, the only
    number reprs with an "n" in them, are spelled NaN and Infinity.
    Non-empty dicts with str keys and other non-empty lists recurse;
    anything else is json.dumps's own text with its line breaks indented.
    """
    inner = indent + " "
    if type(obj) is list and obj:
        yield "[\n" + inner
        if set(map(type, obj)) <= {float, int}:
            text = repr(obj)[1:-1].replace(", ", ",\n" + inner)
            if "n" in text:
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            yield text
        else:
            for i, item in enumerate(obj):
                if i:
                    yield ",\n" + inner
                yield from _json_chunks(item, inner)
        yield "\n" + indent + "]"
    elif type(obj) is dict and obj and all(type(key) is str for key in obj):
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            yield sep + json.dumps(key) + ": "
            yield from _json_chunks(value, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "}"
    else:
        yield json.dumps(obj, indent=1, sort_keys=True).replace("\n", "\n" + indent)


def write_json(path, payload):
    """Every JSON artifact's layout: the bytes of json.dump(payload, fh,
    indent=1, sort_keys=True) followed by a newline.

    The text goes to the file in pieces as it is made, so a large
    coefficient tensor is never held as one string, and its number lists
    are printed at C speed rather than one float at a time.
    """
    with open(path, "w") as fh:
        fh.writelines(_json_chunks(payload, ""))
        fh.write("\n")
