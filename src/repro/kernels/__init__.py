"""Pluggable accelerated kernels behind the library's three hot paths.

The paper's pitch is that sampling + buffer-collapse makes quantile
summaries cheap enough to run inline with heavy scan traffic; the
asymptotics being settled, the remaining wins are constant factors.  This
package concentrates the per-element work of the whole library into a
small kernel surface with two interchangeable backends:

* ``python`` — pure standard library, dependency-free, bit-identical to
  the historical element-at-a-time implementation.  Always available and
  always the default.
* ``native`` — the compiled C extension (``repro.kernels._native``,
  built by ``setup.py``): the three hot kernels run directly against
  the arena's buffer protocol with no per-element python objects.
  Selected with ``backend="native"`` on any estimator or via the
  ``REPRO_BACKEND`` environment variable; optional (requires the
  compiled module), and *bit-identical* to the python backend under a
  shared seed (it uses the same :class:`random.Random` kind and draw
  law).  When the extension is missing, an environment-variable request
  degrades to python with a warning; an explicit request raises
  :class:`BackendUnavailableError` naming the build remedy.

The kernel surface (see :class:`KernelBackend`):

1. **Batch block sampling** — resolve every complete sampling block of a
   random-access batch, one representative per block.
2. **Collapse selection** — the weighted merge + equally-spaced keep of
   Section 3.2.
3. **Merged weighted views** — the flattened ``(values, cumweights)``
   form of a set of weighted sorted buffers that turns the Output
   operation into binary search; :class:`~repro.core.framework.CollapseEngine`
   memoises this view between mutations, which is what makes repeated
   queries between updates (the online-aggregation pattern of Section
   1.5) cost O(log) instead of a full re-merge.

Both backends draw from one :class:`random.Random`, so every estimator
checkpoints its RNG as the historical ``getstate()`` tuple and restores
it with :func:`repro.sampling.block.restore_rng`, whichever backend wrote
or reads the checkpoint.  numpy is not a backend; a float64 ndarray is
still accepted as an *input* batch and read without copying.
"""

from __future__ import annotations

import contextlib
import os
import random
import warnings
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from typing import Any

__all__ = [
    "KernelBackend",
    "MergedView",
    "BackendUnavailableError",
    "get_backend",
    "backend_from_checkpoint",
    "available_backends",
    "reject_text_batch",
    "batch_contains_nan",
    "is_nan",
    "is_random_access",
    "merge_views",
    "BACKEND_ENV_VAR",
]

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class BackendUnavailableError(RuntimeError):
    """An explicitly requested backend cannot be loaded (missing dependency)."""


# ----------------------------------------------------------------------
# Batch hygiene helpers (shared by every estimator's bulk-ingest path)
# ----------------------------------------------------------------------

def reject_text_batch(values: object) -> None:
    """Refuse ``str``/``bytes`` batches loudly.

    Text is random-access (``__len__`` + ``__getitem__``), so without this
    check ``extend("123")`` would either ingest code points as floats or
    fail deep inside the sampler; a :class:`TypeError` at the door names
    the mistake instead.
    """
    if isinstance(values, (str, bytes, bytearray)):
        raise TypeError(
            f"cannot ingest a {type(values).__name__}: expected a sequence "
            "of numbers (parse text into floats first, e.g. with "
            "float() per token or repro's CLI)"
        )


def is_random_access(values: object) -> bool:
    """True for inputs that can be pre-scanned without consuming them."""
    return hasattr(values, "__len__") and hasattr(values, "__getitem__")


def is_nan(value: float) -> bool:
    """The central scalar NaN gate: True iff ``value`` is NaN.

    NaN has no rank — every comparison against it is false — so it must
    be rejected before it reaches a sorted buffer, a heap, or a moment
    accumulator.  All scalar NaN policy routes through this one function
    (the batch twin is :meth:`KernelBackend.batch_contains_nan`) so the
    invariant is auditable in one place; the replint ``float-discipline``
    pass flags ad-hoc ``x != x`` checks elsewhere.

    Implemented as IEEE-754 self-inequality rather than
    :func:`math.isnan` so it accepts any real-typed value (including
    ints too large for a float cast) without raising.
    """
    return value != value  # replint: disable=float-discipline -- this IS the gate


def batch_contains_nan(values: Sequence[float]) -> bool:
    """The central batch NaN gate: True iff any element is NaN.

    The batch twin of :func:`is_nan`, used by every bulk-ingest path to
    reject a poisoned random-access batch *before* any mutation (atomic
    rejection).  Delegates to the python backend's scan, which
    vectorises when the input is already an ndarray.
    """
    from repro.kernels.python_backend import PYTHON_BACKEND

    return PYTHON_BACKEND.batch_contains_nan(values)


# ----------------------------------------------------------------------
# Merged weighted views: the query-side kernel currency
# ----------------------------------------------------------------------

class MergedView:
    """A weighted sorted multiset, flattened for binary-search queries.

    ``values[i]`` is the i-th element of the merged sort order and
    ``cumweights[i]`` the total weight of elements ``0..i``.  The storage
    is *columnar* and backend-native — plain lists on the python backend,
    float64/int64 memoryviews on the native one — but every answer leaves as a
    plain ``float``/``int``, so queries are identical by construction
    across backends.
    """

    __slots__ = ("values", "cumweights", "total_weight")

    def __init__(
        self, values: Sequence[float], cumweights: Sequence[int]
    ) -> None:
        self.values = values
        self.cumweights = cumweights
        self.total_weight = int(cumweights[-1]) if len(cumweights) else 0

    def __len__(self) -> int:
        return len(self.values)

    def cum_at(self, value: float) -> int:
        """Total weight of merged elements ``<= value``."""
        index = bisect_right(self.values, value)
        return int(self.cumweights[index - 1]) if index else 0

    def select(self, position: int) -> float:
        """The smallest value whose cumulative weight reaches ``position``."""
        index = bisect_left(self.cumweights, position)
        if index >= len(self.values):
            raise ValueError(
                f"position {position} exceeds total weight {self.total_weight}"
            )
        return float(self.values[index])

    def select_many(self, positions: Sequence[int]) -> list[float]:
        """One :meth:`select` per position, order preserved.

        The reference law for the vectorised backends: the native view
        overrides this with a single C call that walks every position in
        one pass, and must stay bit-identical to this loop.
        """
        return [self.select(position) for position in positions]


def merge_views(a: MergedView, b: MergedView) -> MergedView:
    """Union of two flattened views, in one linear two-pointer pass.

    The engine merges its (memoised) full-buffer view with the in-flight
    extras view once per mutation; every query between mutations is then
    a single binary search over the result.  Ties keep ``a`` first —
    irrelevant to answers (a weighted multiset has no tie order), stated
    for determinism.
    """
    if len(a) == 0:
        return b
    if len(b) == 0:
        return a
    values_a, cum_a = a.values, a.cumweights
    values_b, cum_b = b.values, b.cumweights
    size_a, size_b = len(values_a), len(values_b)
    values: list[float] = []
    cumweights: list[int] = []
    i = j = 0
    prev_a = prev_b = total = 0
    while i < size_a and j < size_b:
        if values_a[i] <= values_b[j]:
            total += cum_a[i] - prev_a
            prev_a = cum_a[i]
            values.append(values_a[i])
            i += 1
        else:
            total += cum_b[j] - prev_b
            prev_b = cum_b[j]
            values.append(values_b[j])
            j += 1
        cumweights.append(total)
    while i < size_a:
        total += cum_a[i] - prev_a
        prev_a = cum_a[i]
        values.append(values_a[i])
        cumweights.append(total)
        i += 1
    while j < size_b:
        total += cum_b[j] - prev_b
        prev_b = cum_b[j]
        values.append(values_b[j])
        cumweights.append(total)
        j += 1
    return MergedView(values, cumweights)


# ----------------------------------------------------------------------
# Backend protocol + registry
# ----------------------------------------------------------------------

class KernelBackend:
    """The kernel surface every backend implements.

    See :mod:`repro.kernels.python_backend` for the reference
    implementation and :mod:`repro.kernels.native_backend` for the
    compiled one.  Instances are stateless singletons; estimators hold
    a reference and pass it down to samplers, buffers, and the engine.
    """

    name = "abstract"

    def as_batch(self, values: Sequence[float]) -> Sequence[float]:
        """Normalise a random-access batch for this backend's kernels."""
        raise NotImplementedError

    def batch_contains_nan(self, values: Sequence[float]) -> bool:
        """Single full scan of a batch for NaN (the atomicity gate)."""
        raise NotImplementedError

    def tolist(self, values: Sequence[float]) -> list[float]:
        """Plain-float list view of a kernel result (cheap for lists)."""
        raise NotImplementedError

    def sort_values(self, values: Sequence[float]) -> Sequence[float]:
        """Sorted storage form of a New buffer's values."""
        raise NotImplementedError

    def block_representatives(
        self,
        values: Sequence[float],
        start: int,
        n_blocks: int,
        rate: int,
        rng: random.Random,
    ) -> Sequence[float]:
        """One uniform representative per complete block of ``rate``.

        Resolves blocks ``values[start : start + n_blocks * rate]``; the
        caller advances its cursor by ``n_blocks * rate``.  The return is
        backend-native (a list on the python backend, a float64
        memoryview on the native one) so bulk ingest never boxes.
        """
        raise NotImplementedError

    def select_collapse(
        self,
        inputs: Sequence[tuple[Sequence[float], int]],
        capacity: int,
        offset: int,
    ) -> Sequence[float]:
        """The Collapse keep-selection (Section 3.2), sorted output."""
        raise NotImplementedError

    def merged_view(
        self, weighted: Sequence[tuple[Sequence[float], int]]
    ) -> MergedView:
        """Flatten weighted sorted buffers into one :class:`MergedView`."""
        raise NotImplementedError

    def merge_views(self, a: MergedView, b: MergedView) -> MergedView:
        """Union of two flattened views (the query-cache merge kernel).

        The generic two-pointer reference below is correct for any
        backend; the native backend overrides it with one C merge that
        never boxes.
        """
        return merge_views(a, b)

    # -- columnar arena storage (see repro.core.arena) -----------------
    def alloc_values(self, count: int) -> Any:
        """Allocate ``count`` contiguous zeroed float64 element slots.

        The storage form is the backend's choice (``array('d')`` on both
        shipped backends); only :meth:`write_slot` and :meth:`slot_view`
        ever touch it.
        """
        raise NotImplementedError

    def wrap_values(self, buffer: Any, count: int) -> Any:
        """Backend-native storage over ``count`` float64s of a raw buffer.

        The shared-memory arena mode: instead of allocating, wrap an
        externally owned writable byte buffer (a
        ``multiprocessing.shared_memory`` segment slice) so
        :meth:`write_slot` / :meth:`slot_view` operate on it in place —
        sort and Collapse then run directly on coordinator-visible
        memory and "shipping" a buffer is an offset, not a copy.
        """
        raise NotImplementedError

    def write_slot(
        self, storage: Any, offset: int, values: Sequence[float], *, sort: bool
    ) -> None:
        """Copy ``values`` into ``storage[offset:]``, sorting when asked."""
        raise NotImplementedError

    def slot_view(self, storage: Any, offset: int, length: int) -> Sequence[float]:
        """Zero-copy random-access view of ``storage[offset:offset+length]``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


def available_backends() -> list[str]:
    """Names accepted by :func:`get_backend`, in preference order."""
    names = ["python"]
    with contextlib.suppress(ImportError):
        from repro.kernels import _native  # noqa: F401

        names.append("native")
    return names


def get_backend(backend: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` consults the ``REPRO_BACKEND`` environment variable and
    falls back to ``python``.  An *explicit* ``"native"`` raises
    :class:`BackendUnavailableError` naming the build remedy when the
    compiled extension is missing; the same request coming from the
    environment variable degrades to python with a warning instead, so
    deployments can set the variable
    fleet-wide without breaking hosts that lack the compiled wheel.
    """
    if isinstance(backend, KernelBackend):
        return backend
    explicit = backend is not None
    name = backend if explicit else os.environ.get(BACKEND_ENV_VAR) or "python"
    name = name.strip().lower()
    if name == "python":
        from repro.kernels.python_backend import PYTHON_BACKEND

        return PYTHON_BACKEND
    if name == "native":
        try:
            from repro.kernels.native_backend import NATIVE_BACKEND
        except ImportError:
            if explicit:
                raise BackendUnavailableError(
                    "backend 'native' was requested but the compiled "
                    "extension repro.kernels._native is not built; build "
                    "it with `python setup.py build_ext --inplace` (or "
                    "reinstall with `pip install -e .` on a host with a C "
                    "compiler), or use backend='python'"
                ) from None
            warnings.warn(
                f"{BACKEND_ENV_VAR}=native but the compiled extension is "
                "not built; falling back to the python backend",
                RuntimeWarning,
                stacklevel=2,
            )
            return get_backend("python")
        return NATIVE_BACKEND
    raise ValueError(
        f"unknown kernel backend {name!r}; available: {available_backends()}"
    )


def backend_from_checkpoint(name: "str | None") -> KernelBackend:
    """Resolve a checkpointed backend name, degrading instead of failing.

    Checkpoint payloads are backend-agnostic plain floats and both
    backends share one RNG kind, so a summary saved under native restores
    bit-identically on a build-free host — it just runs on the python
    kernels from there on (with a warning).  Absent names (pre-kernel
    checkpoints) mean python.
    """
    try:
        return get_backend(name if name is not None else "python")
    except BackendUnavailableError:
        warnings.warn(
            f"checkpoint was taken with the {name!r} backend, which is "
            "unavailable here; restoring with the python reference backend",
            RuntimeWarning,
            stacklevel=2,
        )
        return get_backend("python")
