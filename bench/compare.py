"""Compare two sets of benchmark results: ``compare.py A.json… -- B.json…``.

Each file is what ``bench/run.py`` wrote (``--out``, or ``bench/out/run_*``).
One row per workload × end-to-end metric with each side's median and
quartiles and a verdict against the metric's bound:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unchanged`` — it is not, and the runs are tight enough to say so;
* ``unresolved`` — the spread between one side's own runs is wider than the
  bound and the two sides' runs overlap, so the data cannot tell.

Per-layer metrics (traced runs) follow as plain deltas; they are never gated.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from bench import metrics
from bench.estimator import quartiles


def load(paths: list[str]) -> tuple[dict, dict]:
    """``(end_to_end, per_layer)``: workload → metric → list of values."""
    gated: dict = {}
    layers: dict = {}
    for path in paths:
        with open(path) as handle:
            result = json.load(handle)
        for name, record in result["workloads"].items():
            for entry in (record, record.get("layers")):
                if not entry or not entry["correct"]:
                    continue
                target = layers if entry["trace"] else gated
                for metric, value in entry["metrics"].items():
                    target.setdefault(name, {}).setdefault(metric, []).append(value["value"])
    return gated, layers


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict and B's relative worsening against A (negative: better)."""
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b2 - a2) / a2 if a2 else 0.0
    spread = max(a3 - a1, b3 - b1) / abs(a2) if a2 else 0.0
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if spread > bound and overlap:
        return "unresolved", worse
    return ("regressed" if worse > bound else "unchanged"), worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__)
        return 2
    split = argv.index("--")
    (a_gated, a_layers), (b_gated, b_layers) = load(argv[:split]), load(argv[split + 1:])
    regressed = 0
    print(f"{'workload':18s} {'metric':18s} {'A q1':>11s} {'A med':>11s} {'A q3':>11s} "
          f"{'B q1':>11s} {'B med':>11s} {'B q3':>11s} {'worse':>8s} {'bound':>6s}  verdict")
    for name in a_gated:
        for metric, _, better, bound in metrics.END_TO_END:
            a, b = a_gated[name].get(metric), b_gated.get(name, {}).get(metric)
            if not a or not b:
                continue
            outcome, worse = verdict(a, b, better, bound)
            regressed += outcome == "regressed"
            cells = " ".join(f"{value:11.5g}" for value in (*quartiles(a), *quartiles(b)))
            print(f"{name:18s} {metric:18s} {cells} {100 * worse:+7.2f}% {bound:6.2f}  {outcome}")
    for name in a_layers:
        print(f"\nper-layer deltas, {name} (B against A, medians; not gated)")
        for metric, unit, _ in metrics.PER_LAYER:
            a, b = a_layers[name].get(metric), b_layers.get(name, {}).get(metric)
            if not a or not b:
                continue
            a2, b2 = statistics.median(a), statistics.median(b)
            change = f"{100 * (b2 - a2) / a2:+8.2f}%" if a2 else "     n/a"
            print(f"   {metric:30s} {a2:14.6g} {b2:14.6g} {unit:6s} {change}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
