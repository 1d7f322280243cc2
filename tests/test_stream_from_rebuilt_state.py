"""The calculation child's stream does not depend on the state it advances from.

The child computes each epoch with ``diff_since`` from the state it holds and
sends ``encode_diff_update`` of the diff; the driver rebuilds that state from
the frame (``ConstellationCalculation.state_from_replica``).  A child forked
from a later published state (a respawn) advances from such a rebuilt
state, so every next frame from a rebuilt state must be the frame from the
computed one, byte for byte.  Checked over phase-I Starlink with the
bounding box, over its two lowest shells without one and over DART, through
epochs that change the link set and flip satellites.
"""

import pytest

from repro.core import ConstellationCalculation
from repro.dist.wire import FrameKind
from repro.scenarios import dart_configuration, west_africa_configuration
from repro.serve.codec import EpochReplica, EpochUpdate, encode_diff_update, encode_keyframe_update

EPOCHS = 24


def _starlink_bbox():
    return west_africa_configuration(duration_s=3600.0, shells="all", use_bounding_box=True)


def _starlink():
    return west_africa_configuration(duration_s=3600.0, use_bounding_box=False)


def _dart():
    return dart_configuration("central", buoy_count=40, sink_count=80, update_interval_s=1.0)


@pytest.mark.parametrize(
    "configuration",
    [_starlink_bbox, _starlink, _dart],
    ids=["starlink_bbox", "starlink_two_lowest", "dart"],
)
def test_the_next_frame_from_a_rebuilt_state_is_the_frame_from_the_computed_one(configuration):
    config = configuration()
    interval = config.update_interval_s
    # The child's calculation computes every epoch; the driver's rebuilds
    # each from the child's frame and advances the rebuilt state too.
    child, driver = ConstellationCalculation(config), ConstellationCalculation(config)
    computed, rebuilt = child.state_at(0.0), driver.state_at(0.0)
    replica = EpochReplica()
    replica.apply(EpochUpdate(FrameKind.KEYFRAME, 0, encode_keyframe_update(rebuilt, 0)))
    structural = flipped = 0
    for epoch in range(1, EPOCHS + 1):
        time_s = epoch * interval
        computed, diff = child.diff_since(computed, time_s)
        frame = encode_diff_update(diff, epoch)
        _, from_rebuilt = driver.diff_since(rebuilt, time_s)
        assert encode_diff_update(from_rebuilt, epoch) == frame, f"epoch {epoch}"
        structural += diff.topology.structural_change_count > 0
        flipped += any(ids.size for ids in diff.flipped.values())
        replica.apply(EpochUpdate(FrameKind.DIFF, epoch, frame))
        rebuilt, _ = driver.state_from_replica(rebuilt, replica, frame)
    assert structural > 0
    if config.bounding_box is not None:
        assert flipped > 0
