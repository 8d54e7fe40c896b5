"""Checkpointing: state-dict round trips, framing, and corruption handling."""

from __future__ import annotations

import os
import pickle
import random
import shutil
from pathlib import Path

import pytest

from repro import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    ExtremeValueEstimator,
    KnownNQuantiles,
    MultiQuantiles,
    ParallelQuantiles,
    StreamingExtremeEstimator,
    UnknownNQuantiles,
    load_checkpoint,
    merge_snapshots,
    save_checkpoint,
)
from repro import persist
from repro.core.params import Plan

TINY_PLAN = Plan(
    eps=0.05,
    delta=0.01,
    b=3,
    k=50,
    h=2,
    alpha=0.5,
    leaves_before_sampling=6,
    leaves_per_level=3,
    policy_name="mrl",
)

PHIS = [0.05, 0.25, 0.5, 0.75, 0.95]

#: An UnknownNQuantiles(eps=0.05, delta=0.01, seed=5) checkpoint of 2000
#: values, written by the release that still shipped the numpy backend.
NUMPY_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v2_numpy.bin"

# Sampling onset for TINY_PLAN is after leaves_before_sampling * k = 300
# elements; these two prefixes bracket it, and neither is a multiple of the
# block/buffer sizes, so both leave a non-empty partial sampling block.
BEFORE_ONSET = 257
AFTER_ONSET = 2_003


def _data(n: int, seed: int = 7) -> list[float]:
    rng = random.Random(seed)
    return [rng.random() for _ in range(n)]


class TestStateDictRoundTrips:
    @pytest.mark.parametrize("split", [BEFORE_ONSET, AFTER_ONSET])
    def test_unknown_n_restore_is_bit_identical(self, split):
        """Checkpoint -> restore -> stream tail == never crashing.

        Verified on both sides of the sampling-rate-doubling boundary; the
        restored estimator must make the same RNG draws, so every later
        answer is byte-identical.
        """
        data = _data(6_000)
        uninterrupted = UnknownNQuantiles(plan=TINY_PLAN, seed=3)
        interrupted = UnknownNQuantiles(plan=TINY_PLAN, seed=3)
        for value in data:
            uninterrupted.update(value)
        for value in data[:split]:
            interrupted.update(value)
        restored = persist.from_state_dict(interrupted.to_state_dict())
        assert restored.n == split
        for value in data[split:]:
            restored.update(value)
        assert restored.query_many(PHIS) == uninterrupted.query_many(PHIS)
        assert restored.n == uninterrupted.n
        assert restored.sampling_rate == uninterrupted.sampling_rate

    def test_unknown_n_round_trip_crosses_doubling_boundary(self):
        """The restored run actually doubles its rate after the restore."""
        data = _data(6_000)
        est = UnknownNQuantiles(plan=TINY_PLAN, seed=3)
        for value in data[:BEFORE_ONSET]:
            est.update(value)
        assert est.sampling_rate == 1
        restored = persist.from_state_dict(est.to_state_dict())
        for value in data[BEFORE_ONSET:]:
            restored.update(value)
        assert restored.sampling_rate > 1

    def test_known_n_round_trip(self):
        data = _data(30_000, seed=11)
        uninterrupted = KnownNQuantiles(0.02, 1e-3, 30_000, seed=5)
        interrupted = KnownNQuantiles(0.02, 1e-3, 30_000, seed=5)
        for value in data:
            uninterrupted.update(value)
        for value in data[:12_345]:
            interrupted.update(value)
        restored = persist.from_state_dict(interrupted.to_state_dict())
        for value in data[12_345:]:
            restored.update(value)
        assert restored.query_many(PHIS) == uninterrupted.query_many(PHIS)

    def test_multi_round_trip(self):
        data = _data(4_000, seed=13)
        est = MultiQuantiles(0.05, 1e-2, num_quantiles=5, seed=6)
        est.extend(data)
        restored = persist.from_state_dict(est.to_state_dict())
        assert restored.num_quantiles == est.num_quantiles
        assert restored.query_many(PHIS) == est.query_many(PHIS)

    def test_extreme_round_trip_mid_stream(self):
        data = _data(40_000, seed=17)
        uninterrupted = ExtremeValueEstimator(
            phi=0.95, eps=0.01, delta=1e-2, n=40_000, seed=8
        )
        interrupted = ExtremeValueEstimator(
            phi=0.95, eps=0.01, delta=1e-2, n=40_000, seed=8
        )
        for value in data:
            uninterrupted.update(value)
        for value in data[:15_000]:
            interrupted.update(value)
        restored = persist.from_state_dict(interrupted.to_state_dict())
        for value in data[15_000:]:
            restored.update(value)
        assert restored.query() == uninterrupted.query()
        assert restored.sampled == uninterrupted.sampled

    def test_streaming_extreme_round_trip_mid_stream(self):
        data = _data(50_000, seed=19)
        uninterrupted = StreamingExtremeEstimator(phi=0.99, eps=0.003, delta=1e-2, seed=9)
        interrupted = StreamingExtremeEstimator(phi=0.99, eps=0.003, delta=1e-2, seed=9)
        for value in data:
            uninterrupted.update(value)
        for value in data[:20_000]:
            interrupted.update(value)
        restored = persist.from_state_dict(interrupted.to_state_dict())
        for value in data[20_000:]:
            restored.update(value)
        assert restored.query() == uninterrupted.query()
        assert restored.probability == uninterrupted.probability
        assert restored.sampled == uninterrupted.sampled

    def test_parallel_round_trip_mid_stream(self):
        pq = ParallelQuantiles(num_workers=4, plan=TINY_PLAN, seed=21)
        data = _data(8_000, seed=23)
        for index, value in enumerate(data):
            pq.update(index % 4, value)
        restored = persist.from_state_dict(pq.to_state_dict())
        assert restored.query_many(PHIS) == pq.query_many(PHIS)
        # Both keep streaming identically after the restore.
        more = _data(2_000, seed=29)
        for index, value in enumerate(more):
            pq.update(index % 4, value)
            restored.update(index % 4, value)
        assert restored.query_many(PHIS) == pq.query_many(PHIS)

    def test_merged_summary_round_trip(self):
        shards = [UnknownNQuantiles(plan=TINY_PLAN, seed=i) for i in range(4)]
        data = _data(6_000, seed=31)
        for index, value in enumerate(data):
            shards[index % 4].update(value)
        merged = merge_snapshots([s.snapshot() for s in shards], seed=0)
        restored = persist.from_state_dict(merged.to_state_dict())
        assert restored.n == merged.n
        assert restored.query_many(PHIS) == merged.query_many(PHIS)
        assert restored.report.weight_coverage == merged.report.weight_coverage

    def test_snapshot_round_trip_with_partial_block(self):
        est = UnknownNQuantiles(plan=TINY_PLAN, seed=33)
        est.extend(_data(AFTER_ONSET, seed=37))
        snap = est.snapshot()
        assert snap.pending is not None  # prefix chosen to leave one
        restored = persist.from_state_dict(persist.to_state_dict(snap))
        assert restored == snap
        merged = merge_snapshots([snap], seed=1)
        merged_restored = merge_snapshots([restored], seed=1)
        assert merged_restored.query_many(PHIS) == merged.query_many(PHIS)

    def test_unsupported_object_is_refused(self):
        with pytest.raises(TypeError, match="not checkpointable"):
            persist.to_state_dict(object())

    def test_traced_engine_is_refused(self):
        est = UnknownNQuantiles(plan=TINY_PLAN, seed=1, trace=True)
        est.extend(_data(500))
        with pytest.raises(ValueError, match="trace"):
            est.to_state_dict()


class TestPickleRoundTrips:
    """The satellite coverage: pickle parity for the Section 6 objects."""

    def test_parallel_quantiles_pickle_mid_stream(self):
        pq = ParallelQuantiles(num_workers=3, plan=TINY_PLAN, seed=41)
        for index, value in enumerate(_data(5_000, seed=43)):
            pq.update(index % 3, value)
        clone = pickle.loads(pickle.dumps(pq))
        assert clone.query_many(PHIS) == pq.query_many(PHIS)
        for index, value in enumerate(_data(1_000, seed=47)):
            pq.update(index % 3, value)
            clone.update(index % 3, value)
        assert clone.query_many(PHIS) == pq.query_many(PHIS)

    def test_merged_summary_pickle(self):
        shards = [UnknownNQuantiles(plan=TINY_PLAN, seed=i) for i in range(3)]
        for index, value in enumerate(_data(4_000, seed=53)):
            shards[index % 3].update(value)
        merged = merge_snapshots([s.snapshot() for s in shards], seed=2)
        clone = pickle.loads(pickle.dumps(merged))
        assert clone.query_many(PHIS) == merged.query_many(PHIS)
        assert clone.n == merged.n

    def test_snapshot_pickle(self):
        est = UnknownNQuantiles(plan=TINY_PLAN, seed=59)
        est.extend(_data(777, seed=61))
        snap = est.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap


class TestCheckpointFiles:
    def _saved(self, tmp_path) -> tuple[UnknownNQuantiles, str]:
        est = UnknownNQuantiles(plan=TINY_PLAN, seed=71)
        est.extend(_data(2_500, seed=73))
        path = str(tmp_path / "est.ckpt")
        save_checkpoint(est, path)
        return est, path

    def test_save_load_round_trip(self, tmp_path):
        est, path = self._saved(tmp_path)
        restored = load_checkpoint(path)
        assert restored.query_many(PHIS) == est.query_many(PHIS)

    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        _, path = self._saved(tmp_path)
        assert os.listdir(tmp_path) == [os.path.basename(path)]

    def test_overwrite_keeps_latest(self, tmp_path):
        est, path = self._saved(tmp_path)
        est.extend(_data(500, seed=79))
        save_checkpoint(est, path)
        assert load_checkpoint(path).n == est.n

    @pytest.mark.parametrize("offset", [0, 4, 11, 40, 200, -1])
    def test_flipped_byte_raises_typed_error(self, tmp_path, offset):
        _, path = self._saved(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[offset] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.1, 0.5, 0.99])
    def test_truncated_file_raises_corrupt(self, tmp_path, keep_fraction):
        _, path = self._saved(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: int(len(blob) * keep_fraction)])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_wrong_magic_raises_corrupt(self, tmp_path):
        path = str(tmp_path / "bogus.ckpt")
        open(path, "wb").write(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointCorruptError, match="magic"):
            load_checkpoint(path)

    def test_future_format_version_raises_version_error(self, tmp_path):
        _, path = self._saved(tmp_path)
        blob = bytearray(open(path, "rb").read())
        # The 4 bytes after the magic hold the big-endian format version.
        blob[len(persist.MAGIC) : len(persist.MAGIC) + 4] = (99).to_bytes(4, "big")
        # Version check precedes the CRC check, so no need to re-checksum.
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_future_state_version_raises_version_error(self):
        est = UnknownNQuantiles(plan=TINY_PLAN, seed=83)
        est.update(1.0)
        state = est.to_state_dict()
        state["state_version"] = 99
        with pytest.raises(CheckpointVersionError):
            persist.from_state_dict(state)

    def test_valid_frame_with_garbage_payload_raises_corrupt(self):
        with pytest.raises(CheckpointCorruptError):
            persist.loads(persist.MAGIC + persist._HEADER.pack(1, 0, 0))


class TestRotatingCheckpoints:
    """Generation chains: atomic rotation, fallback, honest failure."""

    @staticmethod
    def _est(n: int) -> UnknownNQuantiles:
        est = UnknownNQuantiles(plan=TINY_PLAN, seed=5)
        est.extend(_data(n, seed=n))
        return est

    def test_generation_chain_paths(self, tmp_path):
        base = str(tmp_path / "c.ckpt")
        assert persist.checkpoint_generations(base, keep=3) == [
            base,
            f"{base}.1",
            f"{base}.2",
        ]
        with pytest.raises(ValueError, match="keep"):
            persist.checkpoint_generations(base, keep=0)

    def test_save_rotates_and_load_prefers_newest(self, tmp_path):
        path = tmp_path / "c.ckpt"
        for n in (5, 10, 15):
            persist.save_checkpoint_rotating(self._est(n), path, keep=2)
        obj, generation = persist.load_checkpoint_rotating(path, keep=2)
        assert (obj.n, generation) == (15, 0)
        # keep=2 retains exactly one prior generation; n=5 was rotated out.
        assert load_checkpoint(f"{path}.1").n == 10
        assert not os.path.exists(f"{path}.2")

    def test_torn_live_frame_falls_back_a_generation(self, tmp_path):
        path = tmp_path / "c.ckpt"
        persist.save_checkpoint_rotating(self._est(5), path, keep=2)
        persist.save_checkpoint_rotating(self._est(10), path, keep=2)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # tear the live write
        obj, generation = persist.load_checkpoint_rotating(path, keep=2)
        assert (obj.n, generation) == (5, 1)

    def test_missing_live_frame_falls_back_silently(self, tmp_path):
        path = tmp_path / "c.ckpt"
        persist.save_checkpoint_rotating(self._est(5), path, keep=2)
        persist.save_checkpoint_rotating(self._est(10), path, keep=2)
        os.unlink(path)
        obj, generation = persist.load_checkpoint_rotating(path, keep=2)
        assert (obj.n, generation) == (5, 1)

    def test_every_generation_torn_reraises_newest_error(self, tmp_path):
        path = tmp_path / "c.ckpt"
        persist.save_checkpoint_rotating(self._est(5), path, keep=2)
        persist.save_checkpoint_rotating(self._est(10), path, keep=2)
        for candidate in persist.checkpoint_generations(path, keep=2):
            blob = open(candidate, "rb").read()
            open(candidate, "wb").write(blob[: len(blob) - 3])
        with pytest.raises(CheckpointCorruptError):
            persist.load_checkpoint_rotating(path, keep=2)

    def test_empty_chain_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no checkpoint generation"):
            persist.load_checkpoint_rotating(tmp_path / "absent.ckpt", keep=2)

    def test_estimator_round_trip_is_bit_identical(self, tmp_path):
        path = tmp_path / "est.ckpt"
        est = UnknownNQuantiles(plan=TINY_PLAN, seed=29)
        for value in _data(AFTER_ONSET, seed=31):
            est.update(value)
            if est.n % 500 == 0:
                persist.save_checkpoint_rotating(est, path, keep=3)
        persist.save_checkpoint_rotating(est, path, keep=3)
        restored, generation = persist.load_checkpoint_rotating(path, keep=3)
        assert generation == 0
        assert restored.to_state_dict() == est.to_state_dict()


class TestRemovedNumpyBackend:
    """Checkpoints of the removed numpy backend fail loudly, never halfway."""

    def test_load_raises_version_error_naming_the_remedy(self):
        with pytest.raises(CheckpointVersionError) as excinfo:
            load_checkpoint(NUMPY_CHECKPOINT)
        message = str(excinfo.value)
        assert "numpy kernel backend" in message
        assert "Re-ingest" in message
        assert "previous release" in message

    def test_multi_wrapped_numpy_state_refused(self):
        inner = UnknownNQuantiles(plan=TINY_PLAN, seed=3).to_state_dict()
        inner["backend"] = "numpy"
        state = {"kind": "multi", "state_version": persist.STATE_VERSION}
        with pytest.raises(CheckpointVersionError, match="numpy"):
            persist.from_state_dict({**state, "inner": inner})

    def test_restore_all_lists_tenant_unrecoverable(self, tmp_path):
        from repro.service.tenants import TenantRegistry

        shutil.copyfile(NUMPY_CHECKPOINT, tmp_path / "tenant-legacy.ckpt")
        good = UnknownNQuantiles(eps=0.05, delta=0.01, seed=1)
        good.update_batch(_data(100))
        save_checkpoint(good, tmp_path / "tenant-fresh.ckpt")
        registry = TenantRegistry(tmp_path)
        report = registry.restore_all()
        assert report.unrecoverable == ["legacy"]
        assert report.restored == ["fresh"]
        assert "legacy" not in registry
