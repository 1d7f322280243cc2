#!/usr/bin/env python3
"""The §5 case study: real-time ocean environment alerts with remote sensors.

DART buoys in the Pacific transmit pressure readings over the Iridium
constellation every second.  An LSTM inference service processes grouped
readings and forwards results to ships and islands in the vicinity.  The
script compares the two deployments of Fig. 11: central processing at the
Pacific Tsunami Warning Center versus on-satellite processing.

Run with:  python examples/dart_ocean_alerts.py [--buoys 100 --sinks 200 --duration 300]
"""

import argparse

from repro import Celestial
from repro.analysis import render_table
from repro.apps import DartExperiment
from repro.apps.dart.lstm import StackedLSTM
from repro.scenarios import dart_configuration


def run_deployment(deployment: str, buoys: int, sinks: int, duration_s: float,
                   run_inference: bool):
    """Run one deployment of the alert system and return its results."""
    config = dart_configuration(
        deployment=deployment,
        buoy_count=buoys,
        sink_count=sinks,
        duration_s=duration_s,
    )
    with Celestial(config) as testbed:
        experiment = DartExperiment(
            testbed,
            deployment=deployment,
            group_count=min(20, max(2, buoys // 5)),
            lstm=StackedLSTM(input_size=1, hidden_sizes=(16, 16)),
            run_inference=run_inference,
        )
        return experiment.run()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--buoys", type=int, default=40,
                        help="number of DART buoys (paper: 100)")
    parser.add_argument("--sinks", type=int, default=80,
                        help="number of ship/island data sinks (paper: 200)")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated duration in seconds (paper: 900)")
    parser.add_argument("--run-inference", action="store_true",
                        help="run the NumPy LSTM forward pass for every reading")
    args = parser.parse_args()

    results = {}
    for deployment in ("central", "satellite"):
        print(f"running {deployment} deployment "
              f"({args.buoys} buoys, {args.sinks} sinks, {args.duration:.0f} s simulated)...")
        results[deployment] = run_deployment(
            deployment, args.buoys, args.sinks, args.duration, args.run_inference
        )

    rows = []
    for deployment, result in results.items():
        low, high = result.latency_range_ms()
        regions = result.mean_latency_by_region()
        rows.append([
            deployment,
            result.all_latencies().mean(),
            low,
            high,
            regions["west_pacific"],
            regions["americas"],
            result.processing_ms.mean(),
        ])
    print()
    print(render_table(
        ["deployment", "mean [ms]", "min sink mean", "max sink mean",
         "West Pacific mean", "Americas mean", "processing [ms]"],
        rows,
        title="Fig. 11 — mean observed end-to-end latency per deployment",
    ))

    central = results["central"].all_latencies().mean()
    satellite = results["satellite"].all_latencies().mean()
    print(f"\nSatellite-server deployment improves mean end-to-end latency by "
          f"{central / satellite:.1f}x (paper: roughly 2x, 22-183 ms vs 13-90 ms).")
    print("The West Pacific region sees higher latency than the Americas in the "
          "central deployment because traffic must cross the Iridium seam "
          "(no ISLs between the first and last orbital plane).")


if __name__ == "__main__":
    main()
