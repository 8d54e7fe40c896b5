"""Extension: extreme-value quantiles *without* knowing N.

The paper's Section 7 estimator fixes its sampling rate at ``s / N``, so it
needs the stream length (or an upper bound).  This module removes that
requirement with the same move the paper applies to general quantiles —
make the sampling rate adapt as the stream grows — here via the classic
*adaptive (rate-halving) Bernoulli sample* (Wegman's adaptive sampling):

* every element is kept independently with the current probability ``p``
  (initially 1);
* whenever the sample size exceeds a budget ``S``, ``p`` halves and the
  existing sample is *thinned*: each sampled element survives an
  independent fair coin flip.  The result is exactly a Bernoulli(p) sample
  of everything seen so far, at every instant.

Only the ``k``-most-extreme part of the sample is ever needed, so the
estimator stores just a bounded heap (capacity ``~ phi_tail * S``) plus the
*count* of sampled elements; thinning the uncounted remainder draws a
Binomial(m, 1/2) exactly via ``getrandbits(m).bit_count()``.

The budget is ``S = 2 * s_stein(phi, eps, delta)`` so that even right after
a halving the live sample size stays above the Section 7 requirement; the
query renormalises ``k = ceil(phi_tail * sampled_count)`` exactly as the
fixed-rate estimator does.  Memory is within 2x of the known-N version —
the same price the paper pays for unknown N in the general algorithm.

This is an extension beyond the paper (its Section 7 closes with the
observation that the rate "is dependent on N"); DESIGN.md lists it as such.
"""

from __future__ import annotations

import heapq
import math
import random
from collections.abc import Iterable
from typing import Any

from repro.core.arena import FLOAT_BYTES
from repro.kernels import (
    KernelBackend,
    backend_from_checkpoint,
    get_backend,
    is_nan,
    is_random_access,
    reject_text_batch,
)
from repro.sampling.block import restore_rng
from repro.stats.bounds import extreme_sample_size, stein_failure_bound

__all__ = ["StreamingExtremeEstimator"]


class StreamingExtremeEstimator:
    """Extreme quantile of a stream of *unknown* length in a bounded heap.

    :param phi: target quantile near 0 or 1.
    :param eps: rank guarantee, ``eps < min(phi, 1 - phi)``.
    :param delta: failure probability.
    :param seed: sampling-randomness seed.

    Example::

        est = StreamingExtremeEstimator(phi=0.999, eps=0.0002, delta=1e-4)
        for latency in endless_stream:
            est.update(latency)
            ...
            current_p999 = est.query()   # anytime
    """

    def __init__(
        self,
        phi: float,
        eps: float,
        delta: float,
        *,
        seed: int | None = None,
        rng: random.Random | None = None,
        backend: str | KernelBackend | None = None,
    ) -> None:
        if not 0.0 < phi < 1.0:
            raise ValueError(f"phi must be in (0, 1), got {phi}")
        tail_phi = min(phi, 1.0 - phi)
        if not 0.0 < eps < tail_phi:
            raise ValueError(
                f"eps={eps} must be in (0, min(phi, 1-phi))={tail_phi}; for "
                "eps >= phi track the running minimum (maximum) instead"
            )
        self._phi = phi
        self._tail_phi = tail_phi
        self._eps = eps
        self._delta = delta
        self._low_tail = phi <= 0.5
        # Halving triggers at 2x the Stein requirement, so the sample stays
        # sufficient even immediately after a halving.
        self._stein_size = extreme_sample_size(tail_phi, eps, delta)
        self._budget = 2 * self._stein_size
        cushion = max(8, math.ceil(4.0 * math.sqrt(tail_phi * self._budget)))
        self._capacity = math.ceil(tail_phi * self._budget) + cushion
        self._backend = get_backend(backend)
        self._rng = rng if rng is not None else random.Random(seed)
        self._probability = 1.0
        self._sampled = 0  # live Bernoulli(p) sample size (heap + uncounted)
        # replint: disable=buffer-arena -- heapq mutates a boxed list in
        # place; the heap is O(s) sample state, not the b*k data plane
        self._heap: list[float] = []  # the extreme end of the sample
        self._seen = 0

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def update(self, value: float) -> None:
        """Consume one stream element."""
        if is_nan(value):
            raise ValueError("NaN values have no rank and cannot be summarised")
        self._seen += 1
        if self._probability < 1.0 and self._rng.random() >= self._probability:
            return
        self._sampled += 1
        key = -value if self._low_tail else value
        if len(self._heap) < self._capacity:
            heapq.heappush(self._heap, key)
        elif key > self._heap[0]:
            heapq.heapreplace(self._heap, key)
        if self._sampled > self._budget:
            self._halve()

    def extend(self, values: Iterable[float]) -> None:
        """Consume many stream elements.

        Random-access inputs are NaN-scanned *before* any mutation, so a
        poisoned batch is rejected atomically (the scalar path's guarantee);
        one-shot iterators are necessarily checked element-by-element.
        """
        reject_text_batch(values)
        if is_random_access(values):
            values = self._backend.as_batch(values)
            if self._backend.batch_contains_nan(values):
                raise ValueError("NaN values have no rank and cannot be summarised")
        for value in values:
            self.update(value)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.persist for the durable file format)
    # ------------------------------------------------------------------
    def to_state_dict(self) -> dict[str, Any]:
        """The estimator's complete restorable state (including RNG state)."""
        return {
            "kind": "streaming_extreme",
            "state_version": 1,
            "backend": self._backend.name,
            "phi": self._phi,
            "eps": self._eps,
            "delta": self._delta,
            "stein_size": self._stein_size,
            "budget": self._budget,
            "capacity": self._capacity,
            "rng": self._rng.getstate(),
            "probability": self._probability,
            "sampled": self._sampled,
            "heap": [float(v) for v in self._heap],
            "seen": self._seen,
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "StreamingExtremeEstimator":
        """Rebuild an estimator exactly as :meth:`to_state_dict` captured it."""
        est = object.__new__(cls)
        est._phi = float(state["phi"])
        est._eps = float(state["eps"])
        est._delta = float(state["delta"])
        est._tail_phi = min(est._phi, 1.0 - est._phi)
        est._low_tail = est._phi <= 0.5
        est._stein_size = int(state["stein_size"])
        est._budget = int(state["budget"])
        est._capacity = int(state["capacity"])
        est._backend = backend_from_checkpoint(state.get("backend"))
        est._rng = restore_rng(state["rng"])
        est._probability = float(state["probability"])
        est._sampled = int(state["sampled"])
        heap = [float(v) for v in state["heap"]]
        heapq.heapify(heap)
        est._heap = heap
        est._seen = int(state["seen"])
        return est

    def _halve(self) -> None:
        """Halve the sampling rate; thin the live sample by fair coins.

        Heap elements get individual coin flips (their identities matter);
        the uncounted remainder of the sample is thinned with one exact
        Binomial(m, 1/2) draw via popcount of m random bits.
        """
        self._probability /= 2.0
        survivors = [key for key in self._heap if self._rng.getrandbits(1)]
        heapq.heapify(survivors)
        uncounted = self._sampled - len(self._heap)
        kept_uncounted = (
            self._rng.getrandbits(uncounted).bit_count() if uncounted > 0 else 0
        )
        self._heap = survivors
        self._sampled = len(survivors) + kept_uncounted

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self) -> float:
        """The current estimate: ``ceil(phi_tail * sampled)``-th extreme value.

        With probability about ``1 - delta`` its rank is within
        ``(phi +/- eps) * n`` once the stream is long enough for the sample
        to reach the Stein size (before that the sample *is* the stream and
        the answer is near-exact anyway).
        """
        if not self._heap:
            raise ValueError("no sampled data yet")
        ordered = sorted(self._heap, reverse=True)  # most extreme last
        k = max(1, math.ceil(self._tail_phi * self._sampled))
        key = ordered[min(k, len(ordered)) - 1]
        return -key if self._low_tail else key

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def phi(self) -> float:
        """Target quantile."""
        return self._phi

    @property
    def seen(self) -> int:
        """Elements consumed so far."""
        return self._seen

    @property
    def sampled(self) -> int:
        """Current live sample size (fluctuates around p * n)."""
        return self._sampled

    @property
    def probability(self) -> float:
        """Current Bernoulli sampling probability (1, 1/2, 1/4, ...)."""
        return self._probability

    @property
    def memory_elements(self) -> int:
        """Element slots held: the heap capacity."""
        return self._capacity

    @property
    def memory_bytes(self) -> int:
        """Peak bytes held: the heap capacity at 8 bytes per float."""
        return self._capacity * FLOAT_BYTES

    @property
    def backend(self) -> KernelBackend:
        """The kernel backend this estimator runs on."""
        return self._backend

    @property
    def worst_case_failure_bound(self) -> float:
        """Stein bound at the post-halving sample floor (``budget / 2``)."""
        return stein_failure_bound(self._stein_size, self._tail_phi, self._eps)
