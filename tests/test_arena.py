"""The columnar buffer arena: storage, bit-identity, v2 frames, memory.

Four layers of protection for the arena refactor:

* **Golden traces** — the python backend must answer *bit-identically* to
  the pre-arena implementation; the expected quantiles below were
  captured from the list-backed code on the same deterministic stream.
* **v1 fixtures** — real checkpoint/snapshot files written by the
  pre-arena (frame version 1) writer must still load, and an estimator
  restored from one must continue the stream bit-identically.
* **v2 frame** — the columnar frame round-trips, shrinks the payload,
  and every corruption mode raises the typed checkpoint errors.
* **Memory accounting** — ``memory_bytes`` stays within the provable
  ``b*k*8 + O(b)`` bound for every estimator, and never grows with n.
"""

from __future__ import annotations

import zlib
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import persist
from repro.core.arena import BUFFER_METADATA_BYTES, FLOAT_BYTES, BufferArena
from repro.core.buffers import Buffer
from repro.core.extreme import ExtremeValueEstimator
from repro.core.known_n import KnownNQuantiles
from repro.core.multi import MultiQuantiles, PrecomputedQuantiles
from repro.core.operations import collapse_buffers
from repro.core.parallel import ParallelQuantiles, condense_snapshot, merge_snapshots
from repro.core.streaming_extreme import StreamingExtremeEstimator
from repro.core.unknown_n import EstimatorSnapshot, UnknownNQuantiles
from repro.kernels import get_backend

try:
    from repro.kernels import _native  # noqa: F401

    HAVE_NATIVE = True
except ImportError:  # pragma: no cover - exercised on build-free hosts
    HAVE_NATIVE = False

requires_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="compiled extension not built"
)

DATA_DIR = Path(__file__).parent / "data"

PHIS = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]


def _data(count: int, seed: int = 123456789) -> list[float]:
    """The deterministic LCG stream the golden traces were captured on."""
    values = []
    x = seed
    for _ in range(count):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        values.append((x >> 11) / float(1 << 53))
    return values


# ----------------------------------------------------------------------
# The arena itself
# ----------------------------------------------------------------------

class TestBufferArena:
    def test_preallocates_all_slots(self):
        arena = BufferArena(4, 8)
        assert arena.slots == 4
        assert arena.capacity == 8
        assert arena.nbytes == 4 * 8 * FLOAT_BYTES

    def test_nbytes_constant_across_writes(self):
        arena = BufferArena(3, 4)
        before = arena.nbytes
        arena.write(1, [4.0, 2.0, 3.0, 1.0], sort=True)
        assert arena.nbytes == before

    def test_write_sorts_and_view_reads_back(self):
        arena = BufferArena(3, 4)
        arena.write(1, [4.0, 2.0, 3.0, 1.0], sort=True)
        assert list(arena.view(1, 4)) == [1.0, 2.0, 3.0, 4.0]

    def test_write_without_sort_preserves_order(self):
        arena = BufferArena(2, 3)
        arena.write(0, [3.0, 1.0, 2.0], sort=False)
        assert list(arena.view(0, 3)) == [3.0, 1.0, 2.0]

    def test_slots_are_independent(self):
        arena = BufferArena(2, 2)
        arena.write(0, [1.0, 2.0], sort=False)
        arena.write(1, [3.0, 4.0], sort=False)
        assert list(arena.view(0, 2)) == [1.0, 2.0]
        assert list(arena.view(1, 2)) == [3.0, 4.0]

    def test_partial_write_and_view(self):
        arena = BufferArena(1, 4)
        arena.write(0, [2.0, 1.0], sort=True)
        assert list(arena.view(0, 2)) == [1.0, 2.0]
        assert list(arena.view(0, 0)) == []

    def test_view_is_zero_copy(self):
        arena = BufferArena(1, 3)
        arena.write(0, [1.0, 2.0, 3.0], sort=False)
        view = arena.view(0, 3)
        arena.write(0, [9.0, 8.0, 7.0], sort=False)
        # The old view observes the overwrite: it aliases the slot.
        assert list(view) == [9.0, 8.0, 7.0]

    def test_validations(self):
        with pytest.raises(ValueError):
            BufferArena(0, 4)
        with pytest.raises(ValueError):
            BufferArena(4, 0)
        arena = BufferArena(2, 3)
        with pytest.raises(IndexError):
            arena.write(2, [1.0], sort=False)
        with pytest.raises(IndexError):
            arena.view(-1, 1)
        with pytest.raises(ValueError):
            arena.write(0, [1.0, 2.0, 3.0, 4.0], sort=False)
        with pytest.raises(ValueError):
            arena.view(0, 4)

    def test_accepts_array_input(self):
        arena = BufferArena(1, 3)
        arena.write(0, array("d", [3.0, 1.0, 2.0]), sort=True)
        assert list(arena.view(0, 3)) == [1.0, 2.0, 3.0]

    def test_buffer_capacity_must_match_arena(self):
        arena = BufferArena(2, 4)
        with pytest.raises(ValueError):
            Buffer(3, arena=arena, slot=0)

    def test_engine_buffers_share_one_arena(self):
        est = UnknownNQuantiles(eps=0.1, delta=1e-2, seed=1)
        est.extend(_data(5_000))
        engine = est.engine
        assert engine.arena.nbytes == engine.b * engine.k * FLOAT_BYTES


# ----------------------------------------------------------------------
# Bit-identity against the pre-arena implementation (golden traces)
# ----------------------------------------------------------------------

#: query_many(PHIS) of the pre-arena python backend on the LCG stream.
GOLDEN_UNKNOWN_N = {
    700: [0.01051107973759613, 0.10086809959338838, 0.24788454757495093,
          0.5241534180328294, 0.7467408655982961, 0.8992949684114822,
          0.9903116898039742],
    5000: [0.009286751276998517, 0.104098915606328, 0.24788454757495093,
           0.4993893105063497, 0.7445767632336752, 0.8994442885319706,
           0.9891426880124936],
    14000: [0.011072716499120894, 0.09982255258289752, 0.250466253525341,
            0.4901903784089712, 0.7467970275862787, 0.896946607635875,
            0.9891426880124936],
    25000: [0.011072716499120894, 0.10282096599914536, 0.2543457764705783,
            0.4922896577728598, 0.7475676500421774, 0.896946607635875,
            0.9891426880124936],
    40000: [0.011072716499120894, 0.10096570794132964, 0.2428612435373132,
            0.49350266539642407, 0.7446088454885182, 0.896946607635875,
            0.9884383360774129],
}

GOLDEN_KNOWN_N = {
    1234: [0.010884358168974817, 0.1094995432924959, 0.256514827393467,
           0.5051956370959128, 0.731893673990487, 0.898694021578794,
           0.9891654898264209],
    10000: [0.0053485159515404, 0.0958241342323155, 0.2500794314577359,
            0.4964126305614923, 0.747884675345168, 0.9037641140842457,
            0.9910643563766616],
    30000: [0.00484358726532319, 0.09961529868700325, 0.2500794314577359,
            0.49400195203553066, 0.747884675345168, 0.8977506632028507,
            0.9973828201215856],
    40000: [0.00484358726532319, 0.09520476533966282, 0.2500794314577359,
            0.49400195203553066, 0.747884675345168, 0.8977506632028507,
            0.9888160239556555],
}


class TestGoldenTraces:
    def test_unknown_n_bit_identical_to_pre_arena(self):
        data = _data(40_000)
        est = UnknownNQuantiles(eps=0.05, delta=1e-3, seed=7)
        for value in data[:700]:
            est.update(value)
        assert est.query_many(PHIS) == GOLDEN_UNKNOWN_N[700]
        index = 700
        for span in (4_300, 9_000, 11_000, 15_000):
            est.update_batch(data[index : index + span])
            index += span
            assert est.query_many(PHIS) == GOLDEN_UNKNOWN_N[index]

    def test_known_n_bit_identical_to_pre_arena(self):
        data = _data(40_000)
        est = KnownNQuantiles(eps=0.05, delta=1e-3, n=40_000, seed=11)
        index = 0
        for span in (1_234, 8_766, 20_000, 10_000):
            est.update_batch(data[index : index + span])
            index += span
            assert est.query_many(PHIS) == GOLDEN_KNOWN_N[index]


# ----------------------------------------------------------------------
# v1 fixtures written by the pre-arena writer
# ----------------------------------------------------------------------

class TestV1Fixtures:
    #: query_many([0.05, 0.5, 0.95]) after replaying data[12000:20000]
    #: onto the restored estimator — captured from the pre-arena code.
    REPLAY_ANSWERS = [0.05066989729890026, 0.500571059648442, 0.9456524088032411]

    def test_v1_checkpoint_loads_and_replays_bit_identically(self):
        est = persist.load_checkpoint(DATA_DIR / "checkpoint_v1_unknown_n.bin")
        assert isinstance(est, UnknownNQuantiles)
        assert est.n == 12_000
        data = _data(20_000)
        est.update_batch(data[12_000:])
        assert est.query_many([0.05, 0.5, 0.95]) == self.REPLAY_ANSWERS

    def test_v1_snapshot_loads(self):
        snap = persist.load_checkpoint(DATA_DIR / "snapshot_v1_unknown_n.bin")
        assert isinstance(snap, EstimatorSnapshot)
        assert snap.n == 20_000
        for data, weight in snap.full_buffers:
            assert len(data) == snap.k
            assert weight >= 1
            assert list(data) == sorted(data)

    def test_v1_snapshot_survives_v2_rewrite(self):
        """Cross-version: load v1, write v2, load again — same object."""
        snap = persist.load_checkpoint(DATA_DIR / "snapshot_v1_unknown_n.bin")
        frame = persist.dumps(snap)
        version = int.from_bytes(frame[len(persist.MAGIC) :][:4], "big")
        assert version == persist.FORMAT_VERSION == 2
        assert persist.loads(frame) == snap

    def test_v1_and_v2_checkpoints_answer_identically(self):
        est = persist.load_checkpoint(DATA_DIR / "checkpoint_v1_unknown_n.bin")
        clone = persist.loads(persist.dumps(est))
        data = _data(20_000)
        est.update_batch(data[12_000:])
        clone.update_batch(data[12_000:])
        assert clone.query_many(PHIS) == est.query_many(PHIS)


# ----------------------------------------------------------------------
# The v2 columnar frame
# ----------------------------------------------------------------------

def _v2_frame(meta: bytes, blob: bytes = b"") -> bytes:
    payload = persist._META_LEN.pack(len(meta)) + meta + blob
    header = persist._HEADER.pack(2, zlib.crc32(payload), len(payload))
    return persist.MAGIC + header + payload


class TestV2Frame:
    def _estimator(self) -> UnknownNQuantiles:
        est = UnknownNQuantiles(eps=0.05, delta=1e-3, seed=3)
        est.update_batch(_data(20_000))
        return est

    def test_round_trip_continues_bit_identically(self):
        est = self._estimator()
        clone = persist.loads(persist.dumps(est))
        more = _data(5_000, seed=99)
        est.update_batch(more)
        clone.update_batch(more)
        assert clone.query_many(PHIS) == est.query_many(PHIS)

    def test_snapshot_round_trip(self):
        snap = self._estimator().snapshot()
        assert persist.loads(persist.dumps(snap)) == snap

    def test_columnar_frame_is_smaller_than_json(self):
        import json

        est = self._estimator()
        v2 = persist.dumps(est)
        v1_payload = json.dumps(
            persist._hoist_floats(persist.to_state_dict(est), bytearray())
            and persist.to_state_dict(est),
            separators=(",", ":"),
        ).encode()
        # The raw-blob frame beats decimal-text floats by a wide margin.
        assert len(v2) < 0.75 * (len(v1_payload) + 24)

    def test_floats_travel_as_raw_bytes(self):
        snap = self._estimator().snapshot()
        frame = persist.dumps(snap)
        elements = sum(len(data) for data, _ in snap.full_buffers)
        elements += len(snap.staged)
        # The blob holds every buffer element at exactly 8 bytes.
        header = len(persist.MAGIC) + persist._HEADER.size
        (meta_len,) = persist._META_LEN.unpack_from(frame, header)
        blob = frame[header + persist._META_LEN.size + meta_len :]
        assert len(blob) == elements * FLOAT_BYTES

    def test_rng_state_stays_in_json(self):
        """Integer lists (RNG words) must never be hoisted as floats."""
        est = self._estimator()
        state = persist.to_state_dict(est)
        restored = persist.loads(persist.dumps(est)).to_state_dict()
        assert restored["rng"] == state["rng"]

    @pytest.mark.parametrize("offset", [0, 4, 11, 40, 300, -1])
    def test_flipped_byte_raises_typed_error(self, offset):
        frame = bytearray(persist.dumps(self._estimator()))
        frame[offset] ^= 0xFF
        with pytest.raises(persist.CheckpointError):
            persist.loads(bytes(frame))

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.1, 0.5, 0.99])
    def test_truncated_frame_raises_corrupt(self, keep_fraction):
        frame = persist.dumps(self._estimator())
        with pytest.raises(persist.CheckpointCorruptError):
            persist.loads(frame[: int(len(frame) * keep_fraction)])

    def test_metadata_length_overrun_raises_corrupt(self):
        payload = persist._META_LEN.pack(10_000) + b"{}"
        frame = (
            persist.MAGIC
            + persist._HEADER.pack(2, zlib.crc32(payload), len(payload))
            + payload
        )
        with pytest.raises(persist.CheckpointCorruptError):
            persist.loads(frame)

    def test_column_marker_overrun_raises_corrupt(self):
        with pytest.raises(persist.CheckpointCorruptError):
            persist.loads(_v2_frame(b'{"__f64__":[0,9]}'))

    def test_malformed_marker_raises_corrupt(self):
        with pytest.raises(persist.CheckpointCorruptError):
            persist.loads(_v2_frame(b'{"__f64__":[-8,1]}'))

    def test_empty_v2_payload_raises_corrupt(self):
        payload = b""
        frame = persist.MAGIC + persist._HEADER.pack(2, zlib.crc32(payload), 0)
        with pytest.raises(persist.CheckpointCorruptError):
            persist.loads(frame)


# ----------------------------------------------------------------------
# Memory accounting: b*k*8 + O(b), never growing with n
# ----------------------------------------------------------------------

class TestMemoryBytes:
    def _bound(self, b: int, k: int) -> int:
        """The provable ceiling: the arena + metadata + one staging buffer."""
        return b * k * FLOAT_BYTES + b * BUFFER_METADATA_BYTES + k * FLOAT_BYTES

    def test_unknown_n_within_bound_and_flat(self):
        est = UnknownNQuantiles(eps=0.05, delta=1e-3, seed=5)
        plan = est.plan
        est.update_batch(_data(1_000))
        early = est.memory_bytes
        est.update_batch(_data(49_000, seed=77))
        late = est.memory_bytes
        assert late <= self._bound(plan.b, plan.k)
        # The arena is preallocated: memory does not grow with n beyond
        # the in-flight staging fluctuation.
        assert abs(late - early) <= plan.k * FLOAT_BYTES

    def test_known_n_within_bound(self):
        est = KnownNQuantiles(eps=0.05, delta=1e-3, n=30_000, seed=5)
        est.update_batch(_data(30_000))
        assert est.memory_bytes <= self._bound(est.plan.b, est.plan.k)

    def test_multi_and_precomputed_delegate(self):
        multi = MultiQuantiles(eps=0.05, delta=1e-2, num_quantiles=3, seed=5)
        multi.extend(_data(5_000))
        assert multi.memory_bytes <= self._bound(multi.plan.b, multi.plan.k)
        pre = PrecomputedQuantiles(eps=0.1, delta=1e-2, seed=5)
        pre.extend(_data(5_000))
        assert pre.memory_bytes <= self._bound(pre.plan.b, pre.plan.k)

    def test_parallel_sums_workers_and_coordinator(self):
        pq = ParallelQuantiles(num_workers=3, eps=0.1, delta=1e-2, seed=5)
        for index, value in enumerate(_data(3_000)):
            pq.update(index % 3, value)
        per_worker = sum(w.memory_bytes for w in pq._workers)
        assert pq.memory_bytes == (
            per_worker + pq._coordinator_buffers * pq.plan.k * FLOAT_BYTES
        )
        assert pq.memory_bytes <= 3 * self._bound(pq.plan.b, pq.plan.k) + (
            pq._coordinator_buffers * pq.plan.k * FLOAT_BYTES
        )

    def test_extreme_estimators_track_heap_capacity(self):
        ext = ExtremeValueEstimator(phi=0.99, eps=0.001, delta=1e-3, n=10**6, seed=5)
        assert ext.memory_bytes == ext.memory_elements * FLOAT_BYTES
        stream = StreamingExtremeEstimator(phi=0.99, eps=0.001, delta=1e-3, seed=5)
        assert stream.memory_bytes == stream.memory_elements * FLOAT_BYTES

    def test_memory_bytes_consistent_with_memory_elements(self):
        est = UnknownNQuantiles(eps=0.05, delta=1e-3, seed=5)
        est.update_batch(_data(20_000))
        # Allocated element slots never exceed what the arena can hold.
        assert est.memory_elements * FLOAT_BYTES <= est.engine.arena.nbytes


# ----------------------------------------------------------------------
# Backend equivalence of arena-backed collapse
# ----------------------------------------------------------------------

sorted_column = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=4
).map(sorted)


@requires_native
class TestArenaCollapseEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(
        columns=st.lists(sorted_column, min_size=2, max_size=4),
        weights=st.lists(st.integers(1, 9), min_size=4, max_size=4),
        low_for_even=st.booleans(),
    )
    def test_collapse_bit_identical_across_backends(
        self, columns, weights, low_for_even
    ):
        outputs = []
        for name in ("python", "native"):
            backend = get_backend(name)
            arena = BufferArena(len(columns), 4, backend=backend)
            buffers = []
            for slot, column in enumerate(columns):
                buf = Buffer(4, arena=arena, slot=slot)
                buf.populate(column, weights[slot], 0)
                buffers.append(buf)
            out = collapse_buffers(buffers, low_for_even=low_for_even, backend=backend)
            outputs.append([float(v) for v in out.data])
        assert outputs[0] == outputs[1]

    @settings(max_examples=25, deadline=None)
    @given(
        columns=st.lists(sorted_column, min_size=2, max_size=3),
        weights=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    )
    def test_merged_views_agree_across_backends(self, columns, weights):
        # Arena slot views (not plain lists) as the merge inputs.
        views = []
        for name in ("python", "native"):
            backend = get_backend(name)
            arena = BufferArena(len(columns), 4, backend=backend)
            inputs = []
            for slot, column in enumerate(columns):
                arena.write(slot, column, sort=False)
                inputs.append((arena.view(slot, 4), weights[slot]))
            views.append(backend.merged_view(inputs))
        py, nat = views
        assert py.total_weight == nat.total_weight
        positions = range(1, py.total_weight + 1)
        assert [py.select(p) for p in positions] == [nat.select(p) for p in positions]


# ----------------------------------------------------------------------
# Condensed shipping (the v2 wire payload)
# ----------------------------------------------------------------------

class TestCondensedShipping:
    def _snapshot(self) -> EstimatorSnapshot:
        est = UnknownNQuantiles(eps=0.05, delta=1e-3, seed=13)
        est.update_batch(_data(30_000))
        snap = est.snapshot()
        assert len(snap.full_buffers) >= 2  # otherwise nothing to condense
        return snap

    def test_condense_leaves_at_most_one_full_buffer(self):
        condensed = condense_snapshot(self._snapshot())
        assert len(condensed.full_buffers) == 1
        values, weight = condensed.full_buffers[0]
        assert len(values) == condensed.k
        assert list(values) == sorted(values)

    def test_condense_preserves_mass_and_metadata(self):
        snap = self._snapshot()
        condensed = condense_snapshot(snap)
        assert condensed.n == snap.n
        assert condensed.rate == snap.rate
        assert condensed.staged == snap.staged
        assert condensed.pending == snap.pending
        before = sum(len(d) * w for d, w in snap.full_buffers)
        after = sum(len(d) * w for d, w in condensed.full_buffers)
        assert after == before

    def test_condensed_merge_is_bit_identical(self):
        snap = self._snapshot()
        merged = merge_snapshots([snap], seed=21)
        condensed = merge_snapshots([condense_snapshot(snap)], seed=21)
        assert condensed.query_many(PHIS) == merged.query_many(PHIS)
        assert condensed.total_weight == merged.total_weight

    def test_condensed_frame_is_much_smaller(self):
        # A worker deep into a shard can hold up to b full buffers; the
        # condensed shipment always carries exactly one.
        k = 64
        fulls = [
            (sorted(_data(k, seed=100 + i)), 1 << (i % 3)) for i in range(8)
        ]
        snap = EstimatorSnapshot(
            full_buffers=fulls, staged=[], rate=1, pending=None, n=8 * k, k=k
        )
        full = len(persist.dumps(snap))
        condensed = len(persist.dumps(condense_snapshot(snap)))
        assert condensed < full / 4

    def test_single_full_buffer_passes_through(self):
        est = UnknownNQuantiles(eps=0.1, delta=1e-2, seed=13)
        est.update_batch(_data(100))
        snap = est.snapshot()
        if len(snap.full_buffers) < 2:
            assert condense_snapshot(snap) is snap
