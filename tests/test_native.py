"""Tests for the compiled kernel backend (:mod:`repro.kernels.native_backend`).

Four layers of confidence, mirroring ``test_kernels.py``:

* **Registry + degrade semantics** — ``"native"`` appears in
  :func:`available_backends` iff the extension is built; an explicit
  request on a build-free host raises :class:`BackendUnavailableError`
  naming the build remedy, the environment variable degrades to python
  with a warning, and checkpoints degrade with a warning.
* **Property-tested equivalence** — hypothesis drives the same weighted
  buffers and batches through native and python.  With a shared
  ``random.Random`` every kernel is bit-identical (same draw law
  ``int(random() * rate)``, same tie law in the weighted merge).
* **Cross-backend checkpoints, both directions** — a native checkpoint
  restores on a build-free host (python kernels, warning) and replays
  bit-identically; a python checkpoint retagged ``native`` restores on
  the compiled kernels and replays bit-identically.
* **Native end-to-end** — accuracy, zero-copy float64 ingest, atomic NaN
  rejection, persist framing, and the uncached ``query_many`` rank walk.
"""

from __future__ import annotations

import json
import math
import random
import struct
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels_pkg
from repro.core.params import Plan
from repro.core.unknown_n import UnknownNQuantiles
from repro.kernels import (
    BACKEND_ENV_VAR,
    BackendUnavailableError,
    available_backends,
    backend_from_checkpoint,
    get_backend,
)
from repro.kernels.python_backend import PYTHON_BACKEND

try:
    from repro.kernels import _native  # noqa: F401

    HAVE_NATIVE = True
except ImportError:  # pragma: no cover - exercised on build-free hosts
    HAVE_NATIVE = False

try:
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised in numpy-free installs
    np = None
    HAVE_NUMPY = False

requires_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="compiled extension not built"
)

PLAN = Plan(0.05, 0.01, 3, 50, 2, 0.5, 6, 3, "mrl")


def _without_native(monkeypatch):
    """Make the compiled extension (and its shim) unimportable."""
    monkeypatch.setitem(sys.modules, "repro.kernels._native", None)
    monkeypatch.setitem(sys.modules, "repro.kernels.native_backend", None)
    monkeypatch.delattr(kernels_pkg, "_native", raising=False)
    monkeypatch.delattr(kernels_pkg, "native_backend", raising=False)


# ----------------------------------------------------------------------
# Registry + degrade semantics
# ----------------------------------------------------------------------

class TestNativeRegistry:
    @requires_native
    def test_native_listed_when_built(self):
        assert "native" in available_backends()

    @requires_native
    def test_explicit_native_resolves(self):
        assert get_backend("native").name == "native"
        assert get_backend(" NATIVE ").name == "native"  # trimmed, cased

    @requires_native
    def test_env_var_selects_native(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "native")
        assert get_backend().name == "native"

    def test_native_absent_from_listing_when_missing(self, monkeypatch):
        _without_native(monkeypatch)
        assert "native" not in available_backends()

    def test_explicit_native_raises_with_build_remedy(self, monkeypatch):
        _without_native(monkeypatch)
        with pytest.raises(BackendUnavailableError, match="build_ext"):
            get_backend("native")

    def test_env_native_degrades_to_python_with_warning(self, monkeypatch):
        _without_native(monkeypatch)
        monkeypatch.setenv(BACKEND_ENV_VAR, "native")
        with pytest.warns(RuntimeWarning, match="falling back to the python"):
            assert get_backend() is PYTHON_BACKEND

    def test_checkpoint_backend_degrades_when_missing(self, monkeypatch):
        _without_native(monkeypatch)
        with pytest.warns(RuntimeWarning, match="restoring with the python"):
            assert backend_from_checkpoint("native") is PYTHON_BACKEND

    def test_estimator_explicit_native_raises_when_missing(self, monkeypatch):
        _without_native(monkeypatch)
        with pytest.raises(BackendUnavailableError):
            UnknownNQuantiles(plan=PLAN, seed=1, backend="native")

    def test_cli_explicit_native_exits_2_when_missing(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.__main__ import main

        _without_native(monkeypatch)
        path = tmp_path / "v.txt"
        path.write_text("1 2 3\n")
        code = main(["quantile", str(path), "--backend", "native", "--seed", "1"])
        assert code == 2
        assert "native" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Equivalence: native × python (property-tested)
# ----------------------------------------------------------------------

sorted_buffer = st.lists(
    st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30
).map(sorted)
weighted_buffers = st.lists(
    st.tuples(sorted_buffer, st.integers(1, 16)), min_size=1, max_size=5
)


@pytest.fixture(
    scope="module", params=[pytest.param("native", marks=requires_native)]
)
def other(request):
    """The non-reference side of the equivalence matrix."""
    return get_backend(request.param)


@requires_native
class TestNativeBitIdentity:
    """Native vs python: *bit*-identical under a shared ``random.Random``."""

    @settings(max_examples=50, deadline=None)
    @given(
        n_blocks=st.integers(1, 20),
        rate=st.integers(1, 16),
        start=st.integers(0, 8),
        seed=st.integers(0, 2**20),
    )
    def test_block_representatives_bit_identical(self, n_blocks, rate, start, seed):
        native = get_backend("native")
        values = [float(i) for i in range(start + n_blocks * rate + 3)]
        py = PYTHON_BACKEND.block_representatives(
            values, start, n_blocks, rate, random.Random(seed)
        )
        nat = native.block_representatives(
            values, start, n_blocks, rate, random.Random(seed)
        )
        assert list(py) == list(nat)

    @settings(max_examples=50, deadline=None)
    @given(
        n_blocks=st.integers(1, 20),
        rate=st.integers(1, 16),
        seed=st.integers(0, 2**20),
    )
    def test_block_representatives_leave_rng_in_same_state(
        self, n_blocks, rate, seed
    ):
        # The MT19937 fast path advances the generator's C state directly;
        # it must land on *exactly* the cursor python draws leave behind.
        native = get_backend("native")
        values = [float(i) for i in range(n_blocks * rate)]
        py_rng, nat_rng = random.Random(seed), random.Random(seed)
        PYTHON_BACKEND.block_representatives(values, 0, n_blocks, rate, py_rng)
        native.block_representatives(values, 0, n_blocks, rate, nat_rng)
        assert py_rng.getstate() == nat_rng.getstate()
        assert py_rng.random() == nat_rng.random()

    @settings(max_examples=60, deadline=None)
    @given(inputs=weighted_buffers)
    def test_merge_weighted_cumweights_bit_identical(self, inputs):
        # Stronger than answer-equivalence: the native loser-tree merge
        # reproduces the reference tie law (value, weight, input order),
        # so even the exposed cumweights arrays match entry for entry.
        native = get_backend("native")
        py = PYTHON_BACKEND.merged_view(inputs)
        nat = native.merged_view(inputs)
        assert list(py.values) == list(nat.values)
        assert list(py.cumweights) == list(nat.cumweights)

    @settings(max_examples=60, deadline=None)
    @given(inputs=weighted_buffers, data=st.data())
    def test_select_many_bit_identical_to_per_position_selects(
        self, inputs, data
    ):
        # The vectorised rank walk answers exactly what one reference
        # select per position answers — in every order, so both the
        # ascending floor-reuse fast path and full restarts are covered.
        native = get_backend("native")
        nat = native.merged_view(inputs)
        py = PYTHON_BACKEND.merged_view(inputs)
        total = nat.total_weight
        if total == 0:
            assert nat.select_many([]) == []
            return
        positions = data.draw(
            st.lists(st.integers(1, total), min_size=1, max_size=30)
        )
        for probe in (sorted(positions), positions, sorted(positions)[::-1]):
            assert nat.select_many(probe) == [py.select(p) for p in probe]

    def test_select_many_rejects_position_past_total_weight(self):
        native = get_backend("native")
        view = native.merged_view([(array("d", [1.0, 2.0]), 3)])
        with pytest.raises(ValueError, match="exceeds total weight 6"):
            view.select_many([3, 7])

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-1e300, 1e300, allow_nan=False), max_size=200))
    def test_sort_values_identical(self, values):
        # The radix sort must agree with timsort on every double,
        # including ±0.0 (orderable either way: they compare equal) and
        # huge magnitudes whose sign-flipped keys exercise every byte.
        native = get_backend("native")
        py = PYTHON_BACKEND.sort_values(list(values))
        nat = native.sort_values(list(values))
        assert list(py) == list(nat)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        chunks=st.lists(st.integers(1, 600), min_size=1, max_size=5),
    )
    def test_estimators_bit_identical_with_shared_rng(self, seed, chunks):
        data_rng = random.Random(seed ^ 0x5A5A)
        py_est = UnknownNQuantiles(plan=PLAN, rng=random.Random(seed))
        nat_est = UnknownNQuantiles(
            plan=PLAN, rng=random.Random(seed), backend="native"
        )
        phis = [0.1, 0.5, 0.9]
        for chunk in chunks:
            batch = [data_rng.uniform(-50, 50) for _ in range(chunk)]
            py_est.update_batch(batch)
            nat_est.update_batch(batch)
            assert py_est.query_many(phis) == nat_est.query_many(phis)
        assert py_est.n == nat_est.n

    #: Edge-case doubles: signed zeros, infinities, subnormals, and
    #: duplicates.
    SPECIALS = [
        0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
        2.2250738585072014e-308, 1.0, 1.0, -1.0, -1.0, 0.0, -0.0,
    ]

    # 25 staged values take the C insertion-sort path, 49 the radix path.
    @pytest.mark.parametrize("staged", [25, 49])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_estimators_bit_identical_with_special_values_staged(
        self, staged, seed
    ):
        # A query sorts the partially filled staged buffer with the
        # backend's own sort: native and python must still answer alike.
        data_rng = random.Random(seed)
        batch = [
            data_rng.choice(self.SPECIALS)
            if data_rng.random() < 0.6
            else data_rng.uniform(-1e-300, 1e-300)
            for _ in range(PLAN.k + staged)
        ]
        py_est = UnknownNQuantiles(plan=PLAN, rng=random.Random(seed))
        nat_est = UnknownNQuantiles(
            plan=PLAN, rng=random.Random(seed), backend="native"
        )
        py_est.update_batch(batch)
        nat_est.update_batch(batch)
        assert len(py_est._staged) == len(nat_est._staged) == staged
        phis = [i / 100 for i in range(1, 100)]
        py_answers = py_est.query_many(phis)
        nat_answers = nat_est.query_many(phis)
        # ±0.0 compare equal and either order is a valid sort; every
        # other answer must match bit for bit.
        assert py_answers == nat_answers
        assert [struct.pack("<d", abs(v)) for v in py_answers] == [
            struct.pack("<d", abs(v)) for v in nat_answers
        ]
        assert py_est.n == nat_est.n


class TestMatrixEquivalence:
    """Every backend pair answers every query identically."""

    @settings(max_examples=60, deadline=None)
    @given(inputs=weighted_buffers, data=st.data())
    def test_select_collapse_identical(self, other, inputs, data):
        total = sum(len(d) * w for d, w in inputs)
        stride = sum(w for _, w in inputs)
        capacity = total // stride
        if capacity == 0:
            return
        offset = data.draw(st.integers(1, stride))
        py = PYTHON_BACKEND.select_collapse(inputs, capacity, offset)
        alt = other.select_collapse(inputs, capacity, offset)
        assert list(py) == list(alt)

    @settings(max_examples=60, deadline=None)
    @given(inputs=weighted_buffers)
    def test_merged_view_same_answers(self, other, inputs):
        py = PYTHON_BACKEND.merged_view(inputs)
        alt = other.merged_view(inputs)
        assert py.total_weight == alt.total_weight
        for position in range(1, py.total_weight + 1):
            assert py.select(position) == alt.select(position)
        for probe in set(py.values):
            assert py.cum_at(probe) == alt.cum_at(probe)

    @settings(max_examples=40, deadline=None)
    @given(a=weighted_buffers, b=weighted_buffers, data=st.data())
    def test_merge_views_same_answers(self, other, a, b, data):
        merged = other.merge_views(other.merged_view(a), other.merged_view(b))
        joint = PYTHON_BACKEND.merged_view(a + b)
        assert merged.total_weight == joint.total_weight
        position = data.draw(st.integers(1, joint.total_weight))
        assert merged.select(position) == joint.select(position)

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-100, 100, allow_nan=False), max_size=60))
    def test_sort_values_identical(self, other, values):
        assert list(other.sort_values(list(values))) == sorted(values)

    def test_arena_slot_roundtrip(self, other):
        storage = other.alloc_values(8)
        other.write_slot(storage, 2, [3.0, 1.0, 2.0], sort=True)
        assert list(other.slot_view(storage, 2, 3)) == [1.0, 2.0, 3.0]
        other.write_slot(storage, 5, [9.0, -1.0], sort=False)
        assert list(other.slot_view(storage, 5, 2)) == [9.0, -1.0]

    def test_wrap_values_writes_through(self, other):
        raw = bytearray(5 * 8)
        storage = other.wrap_values(raw, 5)
        other.write_slot(storage, 1, [2.0, 1.0], sort=True)
        assert list(memoryview(raw).cast("d"))[1:3] == [1.0, 2.0]


# ----------------------------------------------------------------------
# Cross-backend checkpoints, both directions
# ----------------------------------------------------------------------

@requires_native
class TestCrossBackendCheckpoints:
    def _streams(self, seed):
        rng = random.Random(seed)
        first = [rng.random() for _ in range(8_000)]
        rest = [rng.random() for _ in range(8_000)]
        return first, rest

    def test_native_state_dict_is_json_safe_and_tagged(self):
        est = UnknownNQuantiles(plan=PLAN, seed=2, backend="native")
        est.update_batch([float(i) for i in range(1_000)])
        state = est.to_state_dict()
        assert state["backend"] == "native"
        json.dumps(state)  # memoryview payloads must not leak out

    def test_native_restore_and_replay_bit_identical(self):
        first, rest = self._streams(13)
        live = UnknownNQuantiles(eps=0.05, delta=0.01, seed=21, backend="native")
        live.update_batch(first)
        state = json.loads(json.dumps(live.to_state_dict()))
        restored = UnknownNQuantiles.from_state_dict(state)
        assert restored.backend.name == "native"
        live.update_batch(rest)
        restored.update_batch(rest)
        phis = [0.1, 0.5, 0.9]
        assert live.query_many(phis) == restored.query_many(phis)

    def test_native_checkpoint_replays_on_python_host(self, monkeypatch):
        """native → python: degrade on a build-free host, same answers.

        The two backends share the RNG kind and draw law, so the
        restored-on-python replay must be bit-identical to the
        uninterrupted native run — not merely eps-close.
        """
        first, rest = self._streams(29)
        live = UnknownNQuantiles(eps=0.05, delta=0.01, seed=7, backend="native")
        live.update_batch(first)
        state = json.loads(json.dumps(live.to_state_dict()))

        _without_native(monkeypatch)
        with pytest.warns(RuntimeWarning, match="restoring with the python"):
            restored = UnknownNQuantiles.from_state_dict(state)
        assert restored.backend is PYTHON_BACKEND
        live.update_batch(rest)
        restored.update_batch(rest)
        phis = [0.1, 0.5, 0.9]
        assert live.query_many(phis) == restored.query_many(phis)
        assert live.n == restored.n

    def test_python_checkpoint_replays_on_native_host(self):
        """python → native: upgrade a reference checkpoint, same answers."""
        first, rest = self._streams(31)
        live = UnknownNQuantiles(eps=0.05, delta=0.01, seed=9)  # python
        live.update_batch(first)
        state = json.loads(json.dumps(live.to_state_dict()))
        assert state["backend"] == "python"
        state["backend"] = "native"  # the host opts in to compiled kernels
        restored = UnknownNQuantiles.from_state_dict(state)
        assert restored.backend.name == "native"
        live.update_batch(rest)
        restored.update_batch(rest)
        phis = [0.1, 0.5, 0.9]
        assert live.query_many(phis) == restored.query_many(phis)
        assert live.n == restored.n

    def test_persist_roundtrip_through_framed_bytes(self):
        from repro import persist

        est = UnknownNQuantiles(plan=PLAN, seed=8, backend="native")
        est.update_batch([float(i) for i in range(2_000)])
        clone = persist.loads(persist.dumps(est))
        assert clone.backend.name == "native"
        assert clone.query(0.5) == est.query(0.5)


# ----------------------------------------------------------------------
# Native end-to-end
# ----------------------------------------------------------------------

@requires_native
class TestNativeEndToEnd:
    def test_accuracy_on_uniform_stream(self):
        from repro.stats.rank import is_eps_approximate

        rng = random.Random(11)
        data = [rng.random() for _ in range(20_000)]
        est = UnknownNQuantiles(eps=0.05, delta=0.01, seed=11, backend="native")
        est.update_batch(data)
        ordered = sorted(data)
        for phi in (0.1, 0.5, 0.9, 0.99):
            assert is_eps_approximate(ordered, est.query(phi), phi, 0.05)

    def test_array_d_ingest_zero_copy_path(self):
        est = UnknownNQuantiles(plan=PLAN, seed=5, backend="native")
        est.update_batch(array("d", (i / 5000 for i in range(5_000))))
        assert est.n == 5_000
        assert 0.4 <= est.query(0.5) <= 0.6

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_ndarray_ingest(self):
        est = UnknownNQuantiles(plan=PLAN, seed=5, backend="native")
        est.update_batch(np.linspace(0.0, 1.0, 5_000))
        assert est.n == 5_000
        assert 0.4 <= est.query(0.5) <= 0.6

    def test_nan_batch_rejected_atomically(self):
        est = UnknownNQuantiles(plan=PLAN, seed=5, backend="native")
        batch = array("d", [1.0, 2.0, float("nan"), 4.0])
        with pytest.raises(ValueError, match="NaN"):
            est.update_batch(batch)
        assert est.n == 0  # nothing ingested from the poisoned batch
        with pytest.raises(ValueError, match="NaN"):
            est.update_batch([1.0, float("nan")])  # boxed-list gate too
        assert est.n == 0

    def test_seed_reproducibility(self):
        rng = random.Random(7)
        data = [rng.random() for _ in range(30_000)]
        answers = []
        for _ in range(2):
            est = UnknownNQuantiles(eps=0.05, delta=0.01, seed=99, backend="native")
            est.update_batch(data)
            answers.append(est.query_many([0.25, 0.5, 0.75]))
        assert answers[0] == answers[1]

    def test_uncached_query_many_equals_cached(self):
        rng = random.Random(23)
        data = [rng.random() for _ in range(20_000)]
        phis = [i / 100 for i in range(1, 100)]
        cached = UnknownNQuantiles(eps=0.05, delta=0.01, seed=3, backend="native")
        uncached = UnknownNQuantiles(eps=0.05, delta=0.01, seed=3, backend="native")
        uncached.engine._cache_enabled = False
        cached.update_batch(data)
        uncached.update_batch(data)
        assert cached.query_many(phis) == uncached.query_many(phis)

    def test_known_n_native_backend(self):
        from repro.core.known_n import KnownNQuantiles

        rng = random.Random(3)
        data = [rng.random() for _ in range(30_000)]
        py = KnownNQuantiles(n=len(data), eps=0.02, delta=0.01, seed=6)
        nat = KnownNQuantiles(
            n=len(data), eps=0.02, delta=0.01, seed=6, backend="native"
        )
        py.extend(data)
        nat.extend(data)
        assert py.query_many([0.1, 0.5, 0.9]) == nat.query_many([0.1, 0.5, 0.9])

    def test_extreme_estimator_native_backend(self):
        from repro.core.extreme import ExtremeValueEstimator

        # NB: the data seed must differ from the estimator seed — the
        # native backend samples with random.Random, so identical seeds
        # would make the inclusion draws the data values themselves.
        rng = random.Random(103)
        data = [rng.random() for _ in range(50_000)]
        est = ExtremeValueEstimator(
            phi=0.99, eps=0.004, delta=0.01, n=len(data), backend="native", seed=3
        )
        est.extend(data)
        rank = sorted(data).index(est.query()) + 1
        assert abs(rank - 0.99 * len(data)) <= 0.01 * len(data)

    def test_parallel_native_backend(self):
        from repro.core.parallel import ParallelQuantiles

        par = ParallelQuantiles(
            num_workers=4, eps=0.05, delta=0.01, seed=17, backend="native"
        )
        rng = random.Random(17)
        for worker in range(4):
            par.extend(worker, [rng.random() for _ in range(5_000)])
        assert 0.4 <= par.query(0.5) <= 0.6
