"""Extreme-value quantiles in tiny memory (Section 7).

When the target quantile ``phi`` is close to 0 (or 1), the general-purpose
machinery is overkill: the paper observes that (a) the extreme order
statistics of a random sample can be maintained in a bounded heap, and (b)
the rank distribution of an extreme sample order statistic concentrates
*faster* than that of a central one, so the sample — and the retained
``k = ceil(phi * s)`` elements — can both be small.

The recipe: sample the stream at rate ``s / N`` and keep only the ``k``
smallest sampled values (symmetrically, the ``k`` largest for ``phi`` near
1); report the largest retained value, whose expected rank is ``phi * N``.
The sample size ``s`` is the smallest satisfying Stein's-lemma bound::

    exp(-s D(phi; phi-eps)) + exp(-s D(phi; phi+eps)) <= delta

(:func:`repro.stats.bounds.extreme_sample_size`).  Memory is ``k``
elements — compare ``b*k ~ eps^-1 polylog`` for the general algorithm; the
extreme-value benchmark quantifies the gap and locates the crossover as
``phi`` moves toward the median.

Knowing ``N`` (to set the rate) is inherent to this scheme — the paper
presents it for the known-N setting; pass an upper bound on N when the
exact length is unknown (the guarantee degrades gracefully: a larger N
under-samples, widening the failure probability, never the memory).
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
from repro.sampling.rate import BernoulliSampler
from repro.stats.bounds import extreme_sample_size, stein_failure_bound

__all__ = ["ExtremeValueEstimator"]


class ExtremeValueEstimator:
    """Keep the k most extreme sampled elements; answer one extreme quantile.

    :param phi: the target quantile, near 0 or 1 (e.g. 0.01 or 0.995).
    :param eps: rank guarantee; must satisfy ``eps < min(phi, 1 - phi)``
        (otherwise the stream minimum/maximum answers in O(1) space and
        this estimator politely refuses).
    :param delta: failure probability.
    :param n: the (known or upper-bounded) stream length, used to set the
        sampling rate ``s / n``.
    :param seed: sampling-randomness seed.

    Example::

        est = ExtremeValueEstimator(phi=0.99, eps=0.001, delta=1e-4, n=10**7)
        for latency in stream:
            est.update(latency)
        p99 = est.query()
    """

    def __init__(
        self,
        phi: float,
        eps: float,
        delta: float,
        n: int,
        *,
        seed: int | None = None,
        rng: random.Random | None = None,
        backend: str | KernelBackend | None = None,
    ) -> None:
        if not 0.0 < phi < 1.0:
            raise ValueError(f"phi must be in (0, 1), got {phi}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        tail_phi = min(phi, 1.0 - phi)
        if not 0.0 < eps < tail_phi:
            raise ValueError(
                f"eps={eps} must be in (0, min(phi, 1-phi))={tail_phi}; for "
                "eps >= phi the stream minimum (maximum) is already an "
                "eps-approximate quantile in O(1) space"
            )
        self._phi = phi
        self._eps = eps
        self._delta = delta
        self._n = n
        self._low_tail = phi <= 0.5
        self._tail_phi = tail_phi
        planned = extreme_sample_size(tail_phi, eps, delta)
        # A sample cannot exceed the stream; when the Stein bound wants
        # more, sample everything (the guarantee then degrades — see
        # :attr:`achieved_delta`).
        self._sample_size = min(planned, n)
        self._k = max(1, math.ceil(tail_phi * self._sample_size))
        # The Bernoulli sample size fluctuates around s by ~sqrt(s); the
        # query renormalises k against the realised count, so the heap
        # keeps a small cushion beyond k to cover upward fluctuations.
        cushion = max(8, math.ceil(4.0 * math.sqrt(tail_phi * self._sample_size)))
        self._capacity = self._k + cushion
        self._backend = get_backend(backend)
        probability = min(1.0, self._sample_size / n)
        self._sampler = BernoulliSampler(
            probability, rng if rng is not None else random.Random(seed)
        )
        # Max-heap of the `capacity` smallest sampled values (low tail) or
        # min-heap of the largest (high tail); Python's heapq is a
        # min-heap, so the low tail stores negated values.
        # replint: disable=buffer-arena -- heapq mutates a boxed list in
        # place; the heap is O(s) sample state, not the b*k data plane
        self._heap: list[float] = []
        self._seen = 0

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def update(self, value: float) -> None:
        """Consume one stream element (O(log k) worst case, O(1) typical)."""
        if is_nan(value):  # would poison the heap order
            raise ValueError("NaN values have no rank and cannot be summarised")
        self._seen += 1
        if self._sampler.offer(value) is None:
            return
        self._push(value)

    def _push(self, value: float) -> None:
        """Admit a sampled value into the bounded extreme heap."""
        key = -value if self._low_tail else value
        if len(self._heap) < self._capacity:
            heapq.heappush(self._heap, key)
        elif key > self._heap[0]:
            heapq.heapreplace(self._heap, key)

    def extend(self, values: Iterable[float]) -> None:
        """Consume many stream elements.

        Random-access inputs are NaN-scanned *before* any mutation, so a
        poisoned batch is rejected atomically (the scalar path's
        guarantee), then offered to the Bernoulli sampler as one batch;
        only the O(p * n) kept elements touch the heap.  One-shot iterators
        are necessarily checked element-by-element.
        """
        reject_text_batch(values)
        if is_random_access(values):
            values = self._backend.as_batch(values)
            if self._backend.batch_contains_nan(values):
                raise ValueError("NaN values have no rank and cannot be summarised")
            kept = self._sampler.offer_many(values)
            self._seen += len(values)
            for value in kept:
                self._push(value)
            return
        for value in values:
            self.update(value)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.persist for the durable file format)
    # ------------------------------------------------------------------
    def to_state_dict(self) -> dict[str, Any]:
        """The estimator's complete restorable state (including RNG state)."""
        return {
            "kind": "extreme",
            "state_version": 1,
            "backend": self._backend.name,
            "phi": self._phi,
            "eps": self._eps,
            "delta": self._delta,
            "n": self._n,
            "sample_size": self._sample_size,
            "k": self._k,
            "capacity": self._capacity,
            "sampler": self._sampler.state_dict(),
            "heap": [float(v) for v in self._heap],
            "seen": self._seen,
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "ExtremeValueEstimator":
        """Rebuild an estimator exactly as :meth:`to_state_dict` captured it."""
        est = object.__new__(cls)
        est._phi = float(state["phi"])
        est._eps = float(state["eps"])
        est._delta = float(state["delta"])
        est._n = int(state["n"])
        est._low_tail = est._phi <= 0.5
        est._tail_phi = min(est._phi, 1.0 - est._phi)
        est._sample_size = int(state["sample_size"])
        est._k = int(state["k"])
        est._capacity = int(state["capacity"])
        est._backend = backend_from_checkpoint(state.get("backend"))
        est._sampler = BernoulliSampler.from_state_dict(state["sampler"])
        heap = [float(v) for v in state["heap"]]
        heapq.heapify(heap)
        est._heap = heap
        est._seen = int(state["seen"])
        return est

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self) -> float:
        """The estimate: the k-th smallest (largest) sampled value.

        ``k`` is renormalised against the *realised* sample size
        (``k = ceil(phi * sampled)``), keeping the expected rank at
        ``phi * n`` despite Bernoulli fluctuation.  With probability at
        least ``1 - delta`` the rank lies within ``(phi +/- eps) * n``
        (provided the Stein sample fit the stream; see
        :attr:`achieved_delta`).
        """
        if not self._heap:
            raise ValueError("no sampled data yet; stream too short or unlucky")
        ordered = sorted(self._heap, reverse=True)  # most extreme last
        k_query = max(1, math.ceil(self._tail_phi * self._sampler.kept))
        index = min(k_query, len(ordered)) - 1
        key = ordered[index]
        return -key if self._low_tail else key

    @property
    def achieved_delta(self) -> float:
        """The failure probability actually attainable.

        Equals ``delta`` when the planned Stein sample fit the stream;
        larger when ``n`` was too short to support the requested
        (phi, eps, delta) and the estimator had to sample everything.
        """
        return max(
            self._delta, stein_failure_bound(self._sample_size, self._tail_phi, self._eps)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def phi(self) -> float:
        """Target quantile."""
        return self._phi

    @property
    def sample_size(self) -> int:
        """Planned sample size ``s`` from the Stein bound."""
        return self._sample_size

    @property
    def k(self) -> int:
        """The target order statistic within the sample: ``ceil(phi * s)``."""
        return self._k

    @property
    def memory_elements(self) -> int:
        """Element slots held: the heap's capacity (k plus a small cushion)."""
        return self._capacity

    @property
    def memory_bytes(self) -> int:
        """Peak bytes held: the heap's capacity at 8 bytes per float."""
        return self._capacity * FLOAT_BYTES

    @property
    def backend(self) -> KernelBackend:
        """The kernel backend this estimator runs on."""
        return self._backend

    @property
    def seen(self) -> int:
        """Elements consumed so far."""
        return self._seen

    @property
    def sampled(self) -> int:
        """Elements that entered the sample so far."""
        return self._sampler.kept
