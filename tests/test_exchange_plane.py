"""The shared-memory exchange plane: wire format, lifecycle, equivalence.

Unit level, the :mod:`repro.core.exchange` pieces are exercised directly —
pack/unpack round trips over nested container trees, reply packing,
overflow fallback plus grow-request handshake, double buffering and
generation-counted regrow with lazy worker re-attach.

Executor level, the headline gates of the plane ride here:

* **Zero pickled data-plane bytes** — in steady state every data-plane
  payload of sharded training (eager and traced, full-graph and sampled)
  crosses shared memory in every round; the pipes carry control headers
  only (structural assert on the executor's comms counters, independent of
  machine speed).  Numeric equivalence of training over the plane is gated
  against the serial executor in ``test_sharded_executor.py``.
* **Run-to-run reproducibility** over the plane.
* **Leak-free teardown** — closing the executor (or dropping it) leaves
  no ``repro-xp-*`` segment behind in ``/dev/shm``.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.core import CDRTrainer, NMCDR, NMCDRConfig, TrainerConfig, build_task
from repro.core.exchange import (
    PIPE_HEADER,
    SHM_HEADER,
    ExchangeClient,
    ExchangePlane,
    tree_array_bytes,
)
from repro.data import load_scenario
from repro.data.dataloader import Batch


@pytest.fixture(scope="module")
def task():
    return build_task(
        load_scenario("cloth_sport", scale=0.3, seed=13),
        head_threshold=7,
    )


def build_nmcdr(task, seed=3):
    return NMCDR(task, NMCDRConfig(embedding_dim=16, seed=seed))


def shm_segments(prefix="repro-xp-"):
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover — non-Linux fallback
        return []
    return [name for name in os.listdir(shm_dir) if name.startswith(prefix)]


@pytest.fixture()
def plane():
    plane = ExchangePlane(n_shards=2)
    plane.open(dispatch_bytes=1 << 12, reply_bytes=1 << 12)
    client = ExchangeClient()
    yield plane, client
    client.close()
    plane.close()


def begin(plane, client, step, *, reply_bound=None, force_regrow=False):
    plane.begin_step(step, reply_bound=reply_bound, force_regrow=force_regrow)
    client.begin_step(
        {
            "slot": step % 2,
            "reply": plane.descriptor("w2p0"),
        }
    )


def assert_tree_equal(actual, expected):
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray)
        assert actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)
    elif isinstance(expected, dict):
        assert list(actual) == list(expected)
        for key in expected:
            assert_tree_equal(actual[key], expected[key])
    elif isinstance(expected, (tuple, list)):
        assert type(actual) is type(expected) and len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_tree_equal(a, e)
    elif dataclasses.is_dataclass(expected):
        assert type(actual) is type(expected)
        for f in dataclasses.fields(expected):
            assert_tree_equal(getattr(actual, f.name), getattr(expected, f.name))
    else:
        assert actual == expected


# ----------------------------------------------------------------------
# wire format: pack/unpack round trips
# ----------------------------------------------------------------------
class TestPackUnpack:
    def payload(self):
        rng = np.random.default_rng(0)
        return {
            "batch": Batch(
                users=np.arange(7, dtype=np.int64),
                items=rng.integers(0, 50, size=7),
                labels=rng.random(7),
            ),
            "nested": (
                [np.float32(rng.random((3, 4))), None, "tag"],
                {"empty": np.empty((0, 8)), "scalar": 3},
            ),
        }

    def test_dispatch_roundtrip_views_and_copies(self, plane):
        plane, client = plane
        payload = self.payload()
        begin(plane, client, 0)
        header = plane.pack("p2w0", payload, "dispatch")
        assert header[0] == SHM_HEADER
        for copy in (False, True):
            out = client.unpack(header, copy=copy)
            assert_tree_equal(out, payload)
            assert out["batch"].users.flags["OWNDATA"] is copy

    def test_tree_array_bytes_counts_only_arrays(self):
        payload = self.payload()
        expected = (
            payload["batch"].users.nbytes
            + payload["batch"].items.nbytes
            + payload["batch"].labels.nbytes
            + payload["nested"][0][0].nbytes
        )
        assert tree_array_bytes(payload) == expected

    def test_reply_roundtrip(self, plane):
        plane, client = plane
        begin(plane, client, 0)
        payload = {
            "terms": {"a": np.arange(128, dtype=np.float64).reshape(16, 8)},
            "present": np.array([True, False, True]),
            "loose": np.full(5, 2.5, dtype=np.float32),
            "value_dtype": "float64",
        }
        header = client.pack_reply(payload)
        assert header[0] == SHM_HEADER
        assert_tree_equal(plane.unpack(header, "loss"), payload)

    def test_matching_pools_broadcast_roundtrip(self, plane, task):
        # A step's matching pools (per-domain lists of head/tail tuples and
        # inter-domain arrays) reach every shard through the one broadcast
        # region; workers keep a private copy past the slot's next reuse.
        plane, client = plane
        pools = build_nmcdr(task).sample_step_pools()
        begin(plane, client, 0)
        header = plane.pack("bcast", pools, "broadcast")
        assert header[0] == SHM_HEADER
        out = client.unpack(header, copy=True)
        assert_tree_equal(out, pools)
        intra, inter = out
        assert intra["a"][0][0].flags["OWNDATA"]
        assert inter["b"][0].flags["OWNDATA"]
        assert plane.stats.rounds["broadcast"]["messages"] == 1

    def test_double_buffer_keeps_previous_step_readable(self, plane):
        plane, client = plane
        even = {"x": np.arange(10)}
        begin(plane, client, 0)
        header_even = plane.pack("p2w0", even, "dispatch")
        begin(plane, client, 1)
        plane.pack("p2w0", {"x": np.arange(10) * -1}, "dispatch")
        np.testing.assert_array_equal(
            client.unpack(header_even, copy=False)["x"], even["x"]
        )


# ----------------------------------------------------------------------
# growth: overflow fallback, grow requests, generations, re-attach
# ----------------------------------------------------------------------
class TestGrowth:
    def test_reply_overflow_falls_back_to_pipe_and_requests_grow(self, plane):
        plane, client = plane
        begin(plane, client, 0)
        big = np.ones(1 << 12, dtype=np.float64)  # 8x the reply slot
        header = client.pack_reply({"big": big})
        assert header[0] == PIPE_HEADER
        request = client.take_grow_request()
        assert request and request["w2p0"] >= big.nbytes
        # The fallback still delivers the payload, and is metered as such.
        out = plane.unpack(header, "loss")
        np.testing.assert_array_equal(out["big"], big)
        assert plane.stats.pipe_fallbacks == 1
        assert plane.stats.fallback_data_bytes == big.nbytes

        # Honored at the next begin_step: new generation, new name, and the
        # same payload now fits in shared memory.
        old_name = plane.descriptor("w2p0")[1]
        plane.request_grow(request)
        begin(plane, client, 1)
        descriptor = plane.descriptor("w2p0")
        assert descriptor[1] != old_name
        assert descriptor[2] == 1  # generation bumped
        assert plane.stats.grows == 1
        header = client.pack_reply({"big": big})
        assert header[0] == SHM_HEADER
        np.testing.assert_array_equal(plane.unpack(header, "loss")["big"], big)

    def test_parent_dispatch_overflow_grows_in_place(self, plane):
        plane, client = plane
        begin(plane, client, 0)
        big = {"x": np.ones(1 << 12, dtype=np.float64)}
        header = plane.pack("p2w0", big, "dispatch")
        assert header[0] == SHM_HEADER
        assert plane.stats.grows == 1
        np.testing.assert_array_equal(client.unpack(header)["x"], big["x"])

    def test_broadcast_overflow_grows_in_place(self, plane):
        plane, client = plane
        begin(plane, client, 0)
        old_name, old_generation = plane.descriptor("bcast")[1:3]
        pools = (
            {"a": [(np.arange(1 << 10), np.arange(1 << 9))]},
            {"a": [np.arange(1 << 10)]},
        )
        header = plane.pack("bcast", pools, "broadcast")
        assert header[0] == SHM_HEADER
        assert plane.stats.grows == 1
        name, generation = plane.descriptor("bcast")[1:3]
        assert name != old_name and generation == old_generation + 1
        # The header names the fresh segment, so the client attaches to it.
        assert header[1][1] == name
        assert_tree_equal(client.unpack(header, copy=True), pools)
        assert plane.stats.pipe_fallbacks == 0

    def test_forced_regrow_replaces_every_region(self, plane):
        plane, client = plane
        begin(plane, client, 0)
        names = {rid: plane.descriptor(rid)[1] for rid in plane.regions}
        begin(plane, client, 1, force_regrow=True)
        for rid, old_name in names.items():
            descriptor = plane.descriptor(rid)
            assert descriptor[1] != old_name
            assert descriptor[2] == 1
        assert plane.stats.forced_regrows == 1
        # Old segments were unlinked immediately; only the new ones remain.
        payload = {"x": np.arange(5)}
        header = plane.pack("p2w0", payload, "dispatch")
        np.testing.assert_array_equal(client.unpack(header)["x"], payload["x"])

    def test_client_reattaches_only_on_name_change(self, plane):
        plane, client = plane
        begin(plane, client, 0)
        header = plane.pack("p2w0", {"x": np.arange(3)}, "dispatch")
        client.unpack(header)
        first = client._attached["p2w0"]
        client.unpack(header)
        assert client._attached["p2w0"] is first  # cached mapping reused
        begin(plane, client, 1, force_regrow=True)
        header = plane.pack("p2w0", {"x": np.arange(3)}, "dispatch")
        client.unpack(header)
        assert client._attached["p2w0"] is not first


# ----------------------------------------------------------------------
# lifecycle: nothing outlives the plane
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_close_unlinks_every_segment(self):
        before = set(shm_segments())
        plane = ExchangePlane(n_shards=3)
        plane.open()
        created = set(shm_segments()) - before
        assert len(created) == 2 * 3 + 1  # p2w/w2p per shard, bcast
        plane.close()
        assert set(shm_segments()) & created == set()

    def test_dropped_plane_is_finalized(self):
        before = set(shm_segments())
        plane = ExchangePlane(n_shards=1)
        plane.open()
        created = set(shm_segments()) - before
        assert created
        del plane  # weakref.finalize must fire without an explicit close()
        assert set(shm_segments()) & created == set()


# ----------------------------------------------------------------------
# executor-level equivalence and the zero-pickled-bytes gate
# ----------------------------------------------------------------------
def fit_trainer(task, **config_overrides):
    config = TrainerConfig(
        num_epochs=2,
        batch_size=128,
        seed=11,
        eval_every=1,
        num_eval_negatives=20,
        executor="sharded",
        n_shards=2,
        **config_overrides,
    )
    trainer = CDRTrainer(build_nmcdr(task), task, config)
    history = trainer.fit()
    return trainer, history


class TestExecutorEquivalence:
    @pytest.mark.parametrize("traced", [False, True], ids=["eager", "traced"])
    def test_plain_sharded_plane_moves_no_pipe_data(self, task, traced):
        trainer, _ = fit_trainer(task, traced_steps=traced)
        # Structural steady-state gate: every data-plane payload crossed
        # shared memory, in every round of the step protocol.
        stats = trainer._executor.comms_stats
        assert stats.pipe_fallbacks == 0
        assert stats.fallback_data_bytes == 0
        assert stats.total("pipe_bytes") == 0
        assert stats.total("shm_bytes") > 0
        for round_name in ("dispatch", "broadcast", "loss"):
            assert stats.rounds[round_name]["messages"] > 0, round_name

    @pytest.mark.parametrize("traced", [False, True], ids=["eager", "traced"])
    def test_sampled_sharded_plane_moves_no_pipe_data(self, task, traced):
        # Sampled training: the workers plan around the broadcast pools,
        # and every round still crosses shared memory only.
        trainer, _ = fit_trainer(task, traced_steps=traced, sampled_subgraph_training=True)
        stats = trainer._executor.comms_stats
        assert stats.pipe_fallbacks == 0
        assert stats.fallback_data_bytes == 0
        assert stats.total("pipe_bytes") == 0
        assert stats.total("shm_bytes") > 0
        for round_name in ("dispatch", "broadcast", "loss"):
            assert stats.rounds[round_name]["messages"] > 0, round_name

    def test_run_to_run_bit_reproducible_over_plane(self, task):
        _, first = fit_trainer(task)
        _, second = fit_trainer(task)
        assert first.epoch_losses == second.epoch_losses
        assert first.validation_metrics == second.validation_metrics

    def test_sampled_run_to_run_bit_reproducible_over_plane(self, task):
        _, first = fit_trainer(task, sampled_subgraph_training=True)
        _, second = fit_trainer(task, sampled_subgraph_training=True)
        assert first.epoch_losses == second.epoch_losses
        assert first.validation_metrics == second.validation_metrics

    def test_executor_teardown_leaves_no_segments(self, task):
        before = set(shm_segments())
        _, _ = fit_trainer(task)
        assert set(shm_segments()) <= before
