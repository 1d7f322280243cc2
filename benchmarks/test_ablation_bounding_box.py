"""Ablation — effect of the bounding box on testbed footprint.

The bounding box suspends microVMs of satellites outside a geographic area
to save host resources (§3.3); §6.3 notes the alternative of covering the
whole Earth at higher cost.  The ablation runs the §4 scenario with and
without the bounding box and compares how many microVMs are created and how
much memory they reserve.
"""

from repro import Celestial
from repro.analysis import render_table
from repro.scenarios import west_africa_configuration

_DURATION_S = 30.0


def _run(use_bounding_box: bool) -> Celestial:
    config = west_africa_configuration(
        duration_s=_DURATION_S, shells="lowest", use_bounding_box=use_bounding_box
    )
    with Celestial(config) as testbed:
        testbed.run(until=_DURATION_S)
    return testbed


def test_bounding_box_ablation(benchmark):
    with_box = benchmark.pedantic(_run, args=(True,), rounds=1, iterations=1)
    without_box = _run(False)

    def reserved_gib(testbed):
        return sum(host.reserved_memory_mib() for host in testbed.hosts) / 1024.0

    rows = [
        ["microVMs created", with_box.booted_machines(), without_box.booted_machines()],
        ["reserved microVM memory [GiB]", reserved_gib(with_box), reserved_gib(without_box)],
        ["suspensions during the run",
         sum(m.suspension_count for m in with_box.managers),
         sum(m.suspension_count for m in without_box.managers)],
        ["estimated required cores",
         with_box.resource_estimate.required_cores,
         without_box.resource_estimate.required_cores],
    ]
    print()
    print(render_table(
        ["metric", "with bounding box", "without (whole Earth)"],
        rows,
        title="Ablation — bounding box vs whole-Earth emulation (§4 scenario, lowest shell)",
    ))

    assert with_box.booted_machines() < without_box.booted_machines() / 5
    assert with_box.resource_estimate.required_cores < without_box.resource_estimate.required_cores
    assert without_box.booted_machines() == 1584 + 5
