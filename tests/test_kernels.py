"""Tests for the pluggable kernel layer (:mod:`repro.kernels`).

Three layers of confidence:

* **Registry semantics** — explicit names, the ``REPRO_BACKEND``
  environment variable, instance passthrough, and the rejection of
  ``numpy``, which is an input type but not a backend.
* **Merged views and the query cache** — the reference view kernels
  and the memoised view's transparency.
* **RNG checkpoints** — the historical ``getstate()`` tuple shape.

Native-vs-python bit-identity lives in ``test_native.py``.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import Plan
from repro.core.unknown_n import UnknownNQuantiles
from repro.kernels import (
    BACKEND_ENV_VAR,
    MergedView,
    available_backends,
    backend_from_checkpoint,
    get_backend,
    is_random_access,
    merge_views,
    reject_text_batch,
)
from repro.kernels.python_backend import PYTHON_BACKEND
from repro.sampling.block import restore_rng

PLAN = Plan(0.05, 0.01, 3, 50, 2, 0.5, 6, 3, "mrl")


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------

class TestBackendRegistry:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend() is PYTHON_BACKEND
        assert get_backend(None) is PYTHON_BACKEND

    def test_explicit_python(self):
        assert get_backend("python") is PYTHON_BACKEND
        assert get_backend("  PYTHON ") is PYTHON_BACKEND  # trimmed, cased

    def test_instance_passthrough(self):
        assert get_backend(PYTHON_BACKEND) is PYTHON_BACKEND

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("fortran")

    def test_available_always_lists_python_first(self):
        names = available_backends()
        assert names[0] == "python"

    def test_numpy_never_listed(self):
        assert "numpy" not in available_backends()

    def test_env_var_python_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert get_backend() is PYTHON_BACKEND

    def test_explicit_numpy_is_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown kernel backend 'numpy'"):
            get_backend("numpy")

    def test_env_numpy_is_unknown_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        with pytest.raises(ValueError, match="unknown kernel backend 'numpy'"):
            get_backend()

    def test_checkpoint_backend_absent_means_python(self):
        assert backend_from_checkpoint(None) is PYTHON_BACKEND

    def test_estimator_numpy_is_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            UnknownNQuantiles(plan=PLAN, seed=1, backend="numpy")

    def test_cli_backend_numpy_exits_2(self, monkeypatch, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "v.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["quantile", str(path), "--backend", "numpy", "--seed", "1"])
        assert excinfo.value.code == 2
        assert "numpy" in capsys.readouterr().err
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        for command in ("quantile", "histogram"):
            assert main([command, str(path), "--seed", "1"]) == 2
            assert "unknown kernel backend 'numpy'" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Batch hygiene
# ----------------------------------------------------------------------

class TestBatchHygiene:
    @pytest.mark.parametrize("bad", ["123", b"123", bytearray(b"123")])
    def test_reject_text_batch(self, bad):
        with pytest.raises(TypeError, match="expected a sequence of numbers"):
            reject_text_batch(bad)

    def test_numeric_batches_pass(self):
        reject_text_batch([1.0, 2.0])
        reject_text_batch(range(5))

    @pytest.mark.parametrize("bad", ["123", b"123"])
    def test_extend_rejects_text(self, bad):
        est = UnknownNQuantiles(plan=PLAN, seed=1)
        with pytest.raises(TypeError, match="cannot ingest"):
            est.extend(bad)
        with pytest.raises(TypeError, match="cannot ingest"):
            est.update_batch(bad)
        assert est.n == 0

    def test_is_random_access(self):
        assert is_random_access([1.0])
        assert is_random_access(())
        assert not is_random_access(iter([1.0]))
        assert not is_random_access(x for x in [1.0])


# ----------------------------------------------------------------------
# MergedView + merge_views
# ----------------------------------------------------------------------

sorted_buffer = st.lists(
    st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30
).map(sorted)
weighted_buffers = st.lists(
    st.tuples(sorted_buffer, st.integers(1, 16)), min_size=1, max_size=5
)


def assert_same_answers(a: MergedView, b: MergedView) -> None:
    """Two views are interchangeable iff every query answers identically.

    Entry-by-entry equality is too strict: equal *values* may be ordered
    differently between backends (heapq breaks value-ties by weight, a
    stable argsort by input position), which cannot change any answer of
    a weighted multiset.
    """
    assert a.total_weight == b.total_weight
    for position in range(1, a.total_weight + 1):
        assert a.select(position) == b.select(position)
    for probe in set(a.values) | set(b.values):
        assert a.cum_at(probe) == b.cum_at(probe)


class TestMergedView:
    def test_empty(self):
        view = MergedView([], [])
        assert len(view) == 0
        assert view.total_weight == 0
        assert view.cum_at(5.0) == 0

    def test_select_past_total_weight_raises(self):
        view = PYTHON_BACKEND.merged_view([([1.0, 2.0], 3)])
        assert view.select(6) == 2.0
        with pytest.raises(ValueError, match="exceeds total weight"):
            view.select(7)

    @settings(max_examples=60, deadline=None)
    @given(a=weighted_buffers, b=weighted_buffers)
    def test_merge_views_equals_joint_merge(self, a, b):
        merged = merge_views(
            PYTHON_BACKEND.merged_view(a), PYTHON_BACKEND.merged_view(b)
        )
        joint = PYTHON_BACKEND.merged_view(a + b)
        assert sorted(merged.values) == sorted(joint.values)
        assert_same_answers(merged, joint)

    def test_merge_views_empty_sides(self):
        view = PYTHON_BACKEND.merged_view([([1.0], 2)])
        empty = MergedView([], [])
        assert merge_views(empty, view) is view
        assert merge_views(view, empty) is view


# ----------------------------------------------------------------------
# Query cache: answers never change with caching on or off
# ----------------------------------------------------------------------

class TestQueryCacheTransparency:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        chunks=st.lists(st.integers(1, 300), min_size=1, max_size=6),
    )
    def test_cached_equals_uncached_under_interleavings(self, seed, chunks):
        cached = UnknownNQuantiles(plan=PLAN, seed=seed)
        uncached = UnknownNQuantiles(plan=PLAN, seed=seed)
        uncached.engine._cache_enabled = False
        data_rng = random.Random(seed ^ 0xC0FFEE)
        phis = [0.05, 0.25, 0.5, 0.75, 0.95]
        for chunk in chunks:
            batch = [data_rng.uniform(-100, 100) for _ in range(chunk)]
            cached.update_batch(batch)
            uncached.update_batch(batch)
            # Repeated queries between updates hit the memoised view.
            first = cached.query_many(phis)
            assert first == uncached.query_many(phis)
            assert cached.query_many(phis) == first
            assert cached.rank(0.0) == uncached.rank(0.0)

    def test_cache_invalidated_by_updates(self):
        est = UnknownNQuantiles(plan=PLAN, seed=3)
        est.update_batch([float(i) for i in range(100)])
        before = est.query(0.5)
        est.update_batch([1000.0] * 400)
        after = est.query(0.5)
        assert after != before  # the view was rebuilt, not served stale

    def test_engine_version_counts_mutations(self):
        est = UnknownNQuantiles(plan=PLAN, seed=4)
        v0 = est.engine.version
        est.update_batch([float(i) for i in range(PLAN.k * 2)])
        assert est.engine.version > v0
        v1 = est.engine.version
        est.query_many([0.5, 0.9])  # queries must not mutate
        assert est.engine.version == v1


# ----------------------------------------------------------------------
# RNG checkpoints
# ----------------------------------------------------------------------

class TestPythonRngStateCompat:
    def test_random_random_state_stays_tuple_shaped(self):
        # Checkpoints must stay byte-compatible with the historical
        # getstate() serialisation, including after a JSON round trip.
        est = UnknownNQuantiles(plan=PLAN, rng=random.Random(9))
        state = json.loads(json.dumps(est.to_state_dict()))["rng"]
        clone = restore_rng(state)
        assert clone.getstate() == random.Random(9).getstate()
        assert clone.random() == random.Random(9).random()
