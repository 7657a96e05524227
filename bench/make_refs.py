"""Regenerate bench/refs.json, the oracle references of every workload.

Each reference comes from a different method than the workload it checks
(see ``Workload.reference``).  Run from the repository root:

    python3 bench/make_refs.py

It takes about half a minute, most of it the 81-run tensor collocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gpcsim import cli  # noqa: E402
from workloads import REFS_PATH, WORKLOADS, read_stats  # noqa: E402


def main() -> int:
    work = Path(__file__).resolve().parent / "_work" / "refs"
    refs = {}
    try:
        for w in WORKLOADS.values():
            out = work / w.name
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*w.reference, "--out", str(out)])
            if code != 0:
                print(f"{w.name}: reference run exited {code}", file=sys.stderr)
                return 1
            refs[w.name] = {"reference": "simulate " + " ".join(w.reference)}
            if w.method == "mc":
                # the expansion itself: the check samples it at the run's draws
                payload = json.loads((out / "coefficients.json").read_text())
                coeffs = np.array(payload["coefficients"])          # (T, K, n)
                refs[w.name].update(
                    order=payload["order"], times=payload["times"],
                    coefficients={name: coeffs[:, :, payload["states"].index(name)].tolist()
                                  for name in w.probes})
                continue
            stats = read_stats(out / "stats.csv")
            rows = slice(-1, None) if w.final_only else slice(None)
            refs[w.name]["probes"] = {
                name: {key: col[rows].tolist()
                       for key, col in zip(("times", "mean", "std"), stats[name])}
                for name in w.probes}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
