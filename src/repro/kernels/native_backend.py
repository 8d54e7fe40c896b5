"""The compiled kernel backend: python shim over ``repro.kernels._native``.

The C core (:mod:`repro.kernels._native`, built by ``setup.py``) owns all
per-element work; this module only adapts storage forms and never loops
over elements — the replint ``native-boundary`` pass (RPL503) enforces
exactly that, so a python-level per-element loop cannot quietly creep
back onto the hot path.

Storage contract: identical to the python reference backend — arena
slabs are ``array('d')`` (or a ``'d'``-cast memoryview over a
shared-memory segment in wrap mode), slot views are memoryview slices,
and kernel results are memoryviews over C-packed float64 bytes.  That
identity is what keeps every downstream contract intact for free: v2
checkpoint frames hoist the same buffer forms, ``condense_snapshot``
reads the same snapshot columns, and PersistentPool workers ship the
same shm descriptors.

Determinism contract: the RNG is :class:`random.Random` (the reference
kind) and the C block-sampling kernel calls it once per block with the
reference draw law ``int(random() * rate)``, so the native backend is
*bit-identical* to the python backend under a shared seed and checkpoints
round-trip across the two backends without translation.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence
from typing import Any

from repro.kernels import KernelBackend, MergedView, _native
from repro.kernels import merge_views as _generic_merge_views

__all__ = ["NativeBackend", "NativeMergedView", "NATIVE_BACKEND"]

try:  # optional: only used to recognise ndarray inputs without copying
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised in numpy-free installs
    _numpy = None  # type: ignore[assignment]


def _is_f64_buffer(values: object) -> bool:
    """True for inputs the C kernels can consume zero-copy."""
    if isinstance(values, array):
        return values.typecode == "d"
    if isinstance(values, memoryview):
        return values.format in ("d", "<d", "=d") and values.contiguous
    if _numpy is not None and isinstance(values, _numpy.ndarray):
        return bool(
            values.dtype == _numpy.float64
            and values.ndim == 1
            and values.flags["C_CONTIGUOUS"]
        )
    return False


def _f64_view(packed: bytes) -> memoryview:
    """Float64-typed view over a C kernel's packed result bytes."""
    return memoryview(packed).cast("d")


class NativeMergedView(MergedView):
    """A :class:`MergedView` whose rank walk runs in C.

    ``values`` is a float64 memoryview, ``cumweights`` an int64 one, both
    over C-packed bytes; :meth:`select` / :meth:`cum_at` are single C
    binary searches, which is what takes a 99-quantile uncached
    ``query_many`` under the 100µs budget.
    """

    __slots__ = ()

    def cum_at(self, value: float) -> int:
        return _native.cum_at(self.values, self.cumweights, value)

    def select(self, position: int) -> float:
        return _native.weighted_select(self.values, self.cumweights, position)

    def select_many(self, positions: Sequence[int]) -> list[float]:
        # The vectorised rank walk: one C call answers every position
        # (bit-identical to the reference per-position loop), so a
        # 99-phi query_many pays one boundary crossing, not 99.
        packed = _native.query_many(self.values, self.cumweights, positions)
        # replint: disable=buffer-arena -- the sanctioned conversion
        # surface: answers leave the kernel layer as plain floats
        return _f64_view(packed).tolist()


def _wrap_view(values: bytes, cumweights: bytes) -> NativeMergedView:
    return NativeMergedView(_f64_view(values), memoryview(cumweights).cast("q"))


class NativeBackend(KernelBackend):
    """C-compiled kernels over the columnar arena's buffer protocol."""

    name = "native"

    def as_batch(self, values: Sequence[float]) -> Sequence[float]:
        # Float64 buffers pass through untouched (zero-copy; slicing in
        # the rate==1 sampler path stays zero-copy too); anything else
        # pays its one conversion here and never again.
        if _is_f64_buffer(values):
            return values
        return _f64_view(_native.pack_doubles(values))

    def batch_contains_nan(self, values: Sequence[float]) -> bool:
        if _is_f64_buffer(values):
            return _native.contains_nan(values)
        from repro.kernels.python_backend import PYTHON_BACKEND

        return PYTHON_BACKEND.batch_contains_nan(values)

    def tolist(self, values: Sequence[float]) -> list[float]:
        if isinstance(values, list):
            return values
        if isinstance(values, (memoryview, array)):
            # replint: disable=buffer-arena -- this IS the sanctioned
            # conversion surface the rest of the data plane routes through
            return values.tolist()
        if _numpy is not None and isinstance(values, _numpy.ndarray):
            # replint: disable=buffer-arena -- as above: the conversion
            # surface itself
            return values.tolist()
        return list(values)

    def sort_values(self, values: Sequence[float]) -> memoryview:
        return _f64_view(_native.sorted_doubles(values))

    def block_representatives(
        self,
        values: Sequence[float],
        start: int,
        n_blocks: int,
        rate: int,
        rng: random.Random,
    ) -> memoryview:
        # The C kernel calls ``rng.random`` once per block with the
        # reference law int(random() * rate): same draw count, same
        # sequence, same picks as the python backend.
        return _f64_view(
            _native.block_reps(values, start, n_blocks, rate, rng.random)
        )

    def select_collapse(
        self,
        inputs: Sequence[tuple[Sequence[float], int]],
        capacity: int,
        offset: int,
    ) -> memoryview:
        # Freshly packed bytes, never a view into the arena — callers may
        # reclaim the input slots before writing the kept values back.
        return _f64_view(_native.select_collapse(inputs, capacity, offset))

    def merged_view(
        self, weighted: Sequence[tuple[Sequence[float], int]]
    ) -> NativeMergedView:
        return _wrap_view(*_native.merge_weighted(weighted))

    def merge_views(self, a: MergedView, b: MergedView) -> MergedView:
        if len(a) == 0:
            return b
        if len(b) == 0:
            return a
        if not (_is_f64_buffer(a.values) and _is_f64_buffer(b.values)):
            # A foreign (list-backed) view — possible only for caller-built
            # extras; the generic two-pointer merge handles it correctly.
            return _generic_merge_views(a, b)
        return _wrap_view(
            *_native.merge_views(a.values, a.cumweights, b.values, b.cumweights)
        )

    # -- columnar arena storage (same forms as the python backend) ------
    def alloc_values(self, count: int) -> array[float]:
        return array("d", bytes(count * 8))

    def wrap_values(self, buffer: Any, count: int) -> memoryview:
        view: memoryview = memoryview(buffer).cast("d")
        return view[:count]

    def write_slot(
        self, storage: Any, offset: int, values: Sequence[float], *, sort: bool
    ) -> None:
        # One C call: memmove (or per-element convert for list input) plus
        # an in-place stable radix sort of the written range when asked.
        _native.write_slot(storage, offset, values, sort)

    def slot_view(self, storage: Any, offset: int, length: int) -> memoryview:
        view: memoryview = memoryview(storage)
        return view[offset : offset + length]


#: The singleton instance estimators share.
NATIVE_BACKEND = NativeBackend()
