"""Golden serving determinism: pinned digests for the specialized path.

``golden_digests.json`` (written by ``regenerate_golden.py``) pins the
bitwise result of serving a fixed-seed volume through the golden
IEEE-exact model under a ZNNi specialization plan — tiled, with
per-layer plan modes.  Two regressions are caught:

* the specialized path drifting from the unspecialized whole-volume
  pass (the all-direct bitwise contract of docs/serving.md "Per-layer
  specialization");
* the planner itself drifting — the plan JSON is hashed, so a changed
  tile choice, mode flip or cost-model tweak shows up even when the
  dense output happens to survive it.

If a change is *supposed* to alter the planner or serving arithmetic,
rerun the regeneration script and commit the new digests alongside.
"""

import hashlib
import json

import numpy as np
import pytest

from regenerate_golden import (
    DIGEST_PATH,
    SERVING_TILE_VOXELS,
    SERVING_VOLUME,
    dense_digest,
    serving_run,
)


@pytest.fixture(scope="module")
def stored():
    with open(DIGEST_PATH) as fh:
        return json.load(fh)["serving"]


@pytest.fixture(scope="module")
def run():
    return serving_run()


def test_specialized_is_bitwise_identical_to_unspecialized(run):
    specialized, reference, plan = run
    assert plan.num_tiles > 1  # the tiled path is actually exercised
    assert not plan.uses_fft()  # all-direct: bitwise is the contract
    assert np.array_equal(specialized, reference)


def test_dense_output_matches_stored_digest(run, stored):
    _, reference, _ = run
    assert dense_digest(reference) == stored["dense_digest"]


def test_plan_matches_stored_digest(run, stored):
    """Plan purity, cross-run and cross-host: the analytic planner's
    canonical JSON hashes to the committed value."""
    _, _, plan = run
    assert hashlib.sha256(
        plan.to_json().encode()).hexdigest() == stored["plan_sha256"]
    assert plan.num_tiles == stored["num_tiles"]
    assert list(plan.volume_shape) == stored["volume_shape"]
    assert plan.tile_voxels == SERVING_TILE_VOXELS


def test_stored_geometry_is_self_consistent(stored):
    assert tuple(stored["volume_shape"]) == SERVING_VOLUME
    assert stored["tile_voxels"] == SERVING_TILE_VOXELS


def test_poisoned_walk_buffers_keep_the_digest(stored, poison_walk_buffers):
    """Every array the serving twins' forward walks take from their
    free lists starts as NaN; the dense output still hashes to the
    stored digest."""
    poisoned = poison_walk_buffers()
    specialized, reference, _ = serving_run()
    assert poisoned
    assert np.array_equal(specialized, reference)
    assert dense_digest(reference) == stored["dense_digest"]
