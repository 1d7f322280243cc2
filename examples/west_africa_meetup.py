#!/usr/bin/env python3
"""The §4 experiment: a video-conference meetup server on the LEO edge.

Three clients in Accra, Abuja and Yaoundé run a WebRTC-style video conference
through a common bridge server.  The bridge is deployed either in the nearest
cloud data centre (Johannesburg) or on the currently-optimal Starlink
satellite, selected by a tracking service every five seconds.  The script
reproduces the shape of Figs. 4-6: per-pair latency CDFs, measured vs.
expected latency, and reproducibility across repetitions.

Run with:  python examples/west_africa_meetup.py [--duration 120] [--full]
"""

import argparse

from repro import Celestial
from repro.analysis import render_table, run_repetitions
from repro.apps import MeetupExperiment, VideoStreamParams
from repro.scenarios import west_africa_configuration

PAIRS = [
    ("accra", "abuja"),
    ("accra", "yaounde"),
    ("abuja", "yaounde"),
]


def run_mode(mode: str, duration_s: float, seed: int, full_fidelity: bool):
    """Run one deployment mode and return its results."""
    config = west_africa_configuration(
        duration_s=duration_s,
        shells="all" if full_fidelity else "two-lowest",
        seed=seed,
    )
    stream = VideoStreamParams(
        packet_interval_s=0.02 if full_fidelity else 0.1
    )
    with Celestial(config) as testbed:
        return MeetupExperiment(testbed, mode=mode, stream=stream).run()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated experiment duration in seconds (paper: 600)")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="number of seeded repetitions (paper: 3)")
    parser.add_argument("--full", action="store_true",
                        help="full fidelity: all five Starlink shells and 20 ms packet pacing")
    args = parser.parse_args()

    results = {}
    for mode in ("satellite", "cloud"):
        print(f"running {mode} bridge deployment ({args.duration:.0f} s simulated)...")
        results[mode] = run_mode(mode, args.duration, seed=0, full_fidelity=args.full)

    # Fig. 4: cumulative latency distributions per client pair.
    rows = []
    for source, destination in PAIRS:
        row = [f"{source} -> {destination}"]
        for mode in ("satellite", "cloud"):
            pair = results[mode].pair(source, destination).merged_with(
                results[mode].pair(destination, source)
            )
            threshold = 16.0 if mode == "satellite" else 46.0
            row += [pair.median(), pair.percentile(80), 100.0 * pair.fraction_below(threshold)]
        rows.append(row)
    print()
    print(render_table(
        ["client pair", "sat median", "sat p80", "% <= 16ms", "cloud median", "cloud p80", "% <= 46ms"],
        rows,
        title="Fig. 4 — end-to-end latency per client pair [ms]",
    ))
    print("\nsatellite bridges used:",
          ", ".join(results["satellite"].distinct_bridges
                    if hasattr(results["satellite"], "distinct_bridges")
                    else [name for _, name in results["satellite"].bridge_history]))

    # Fig. 5: measured vs expected latency over time (Abuja -> Accra, cloud bridge).
    measured = results["cloud"].pair("abuja", "accra")
    expected = results["cloud"].expected_pair("abuja", "accra")
    times, medians = measured.rolling_median(window_s=1.0)
    print("\nFig. 5 — Abuja -> Accra via the cloud bridge:")
    print(f"  measured rolling-median range: {medians.min():.1f} .. {medians.max():.1f} ms")
    print(f"  expected (network + processing): {expected.mean():.1f} ms on average")

    # Fig. 6: reproducibility across repetitions.
    print(f"\nFig. 6 — reproducibility across {args.repetitions} repetitions (cloud bridge):")
    repetitions = run_repetitions(
        lambda seed: run_mode("cloud", min(args.duration, 60.0), seed=seed,
                              full_fidelity=False).pair("yaounde", "abuja").median(),
        repetitions=args.repetitions,
        seeds=[0] * args.repetitions,
    )
    for repetition in repetitions:
        print(f"  run {repetition.repetition + 1}: median latency "
              f"{repetition.result:.3f} ms (identical seeds give identical runs)")


if __name__ == "__main__":
    main()
