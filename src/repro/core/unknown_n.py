"""The paper's core algorithm: approximate quantiles without knowing N.

Section 3: the estimator interleaves **New** operations (fill a buffer with
one uniformly random representative per block of ``r`` inputs) with the
framework's **Collapse** policy, and drives the sampling rate from the
collapse tree itself (Section 3.7):

* while the tree is shorter than ``h``, New runs with ``r = 1`` at level 0
  (no sampling — small inputs are summarised exactly like MRL98);
* creation of the first collapse output at level ``h`` starts sampling:
  New switches to ``r = 2`` at level 1;
* every time the first output at level ``h + i`` appears, the rate doubles
  to ``r = 2^(i+1)`` and New buffers enter at level ``i + 1``.

Elements early in the stream are therefore sampled more densely than later
ones — the *non-uniform* scheme that keeps memory at known-N levels without
knowing N.

**Output at any time**: queries never modify state.  In-flight data (the
staged representatives of the buffer currently filling, plus the candidate
of the incomplete block) is folded into the query as weighted extras, so
the invariant *total weight consumed by a query == elements seen* holds at
every instant — the estimator is an online-aggregation operator in the
sense of Section 1.5.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.arena import FLOAT_BYTES
from repro.core.framework import AllocatorHook, CollapseEngine
from repro.core.params import Plan, plan_parameters
from repro.core.policy import CollapsePolicy
from repro.kernels import (
    KernelBackend,
    MergedView,
    backend_from_checkpoint,
    get_backend,
    is_nan,
    is_random_access,
    reject_text_batch,
)
from repro.sampling.block import BlockSampler, restore_rng

__all__ = ["UnknownNQuantiles", "EstimatorSnapshot"]




@dataclass(frozen=True, slots=True)
class EstimatorSnapshot:
    """Read-only view of an estimator: what a worker 'ships' in Section 6.

    :ivar full_buffers: ``(sorted_values, weight)`` pairs of full buffers.
        The values are columnar ``array('d')`` copies, never arena
        views.
    :ivar staged: representatives of the buffer currently filling (weight
        :attr:`rate` each).
    :ivar pending: candidate and weight of the incomplete sampling block.
    """

    full_buffers: list[tuple[Sequence[float], int]]
    # replint: disable=buffer-arena -- the staged field mirrors the O(k)
    # staging list below; the full buffers above are the columnar payload
    staged: list[float]
    rate: int
    pending: tuple[float, int] | None
    n: int
    k: int


class UnknownNQuantiles:
    """Single-pass eps-approximate quantiles of a stream of unknown length.

    With probability at least ``1 - delta``, every :meth:`query` returns an
    element whose rank is within ``eps * n`` of the exact phi-quantile of
    the ``n`` elements seen so far — for every prefix of the stream, with
    no advance knowledge of its length.

    :param eps: rank-approximation guarantee (e.g. 0.01 = 1% of N).
    :param delta: allowed failure probability (e.g. 1e-4).
    :param num_quantiles: how many quantiles will be queried simultaneously
        (tightens delta by a union bound, Section 4.7).
    :param plan: explicit parameter plan; overrides eps/delta planning.
    :param policy: collapse policy (default: the paper's MRL policy).
    :param seed: seed for the sampling randomness (reproducible runs).
    :param trace: record the collapse tree (diagnostics; costs memory).
    :param allocator: Section 5 buffer-allocation schedule hook.
    :param backend: kernel backend (``"python"``, ``"native"``, an
        instance, or None to consult ``REPRO_BACKEND``).  The native
        backend runs bulk ingest and Collapse in C; answers are
        bit-identical either way.
    :param arena_buffer: optional shared-memory backing for the engine's
        buffer arena (see :mod:`repro.runtime.shm`): a writable byte
        buffer of at least ``b * k * 8`` bytes.  Behaviour is identical
        to the heap arena — only where the float64s live changes.

    Example::

        est = UnknownNQuantiles(eps=0.01, delta=1e-4, seed=42)
        for value in stream:
            est.update(value)
        median = est.query(0.5)
    """

    def __init__(
        self,
        eps: float | None = None,
        delta: float | None = None,
        *,
        num_quantiles: int = 1,
        plan: Plan | None = None,
        policy: CollapsePolicy | None = None,
        seed: int | None = None,
        rng: random.Random | None = None,
        trace: bool = False,
        allocator: AllocatorHook | None = None,
        backend: str | KernelBackend | None = None,
        arena_buffer: Any | None = None,
    ) -> None:
        if plan is None:
            if eps is None or delta is None:
                raise ValueError("provide either (eps, delta) or an explicit plan")
            plan = plan_parameters(
                eps, delta, num_quantiles=num_quantiles, policy=policy
            )
        self._plan = plan
        self._backend = get_backend(backend)
        self._engine = CollapseEngine(
            plan.b,
            plan.k,
            policy,
            trace=trace,
            allocator=allocator,
            backend=self._backend,
            arena_buffer=arena_buffer,
        )
        self._rng = rng if rng is not None else random.Random(seed)
        self._sampler = BlockSampler(rate=1, rng=self._rng)
        # replint: disable=buffer-arena -- O(k) staging for the buffer
        # currently filling; deposit copies it into the arena at k elements
        self._staged: list[float] = []
        self._n = 0
        self._rate = 1
        self._level = 0
        self._new_pending = True  # the next element begins a New operation
        self._extras_cache: MergedView | None = None
        self._extras_cache_key: tuple[int, int] = (-1, -1)

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def update(self, value: float) -> None:
        """Consume one stream element (amortised O(log(b k)) comparisons)."""
        if is_nan(value):  # would poison the sorted buffers
            raise ValueError("NaN values have no rank and cannot be summarised")
        if self._new_pending:
            self._begin_new()
        self._n += 1
        chosen = self._sampler.offer(value)
        if chosen is None:
            return
        self._staged.append(chosen)
        if len(self._staged) == self._engine.k:
            self._engine.deposit(self._staged, self._rate, self._level)
            self._staged = []
            self._new_pending = True

    def extend(self, values: Iterable[float]) -> None:
        """Consume many stream elements.

        Random-access inputs (lists, arrays, numpy arrays) are routed
        through :meth:`update_batch`, which resolves whole sampling blocks
        with one RNG draw each; other iterables stream element-by-element.
        """
        reject_text_batch(values)
        if is_random_access(values):
            self.update_batch(values)  # type: ignore[arg-type]
            return
        for value in values:
            self.update(value)

    def update_batch(self, values: Sequence[float]) -> None:
        """Bulk-ingest a random-access batch of stream elements.

        Produces the same sampling distribution as per-element
        :meth:`update` (uniform choice per block), but touches the RNG
        once per *block* and never copies the batch: the NaN gate below is
        the only full traversal (rejecting the batch atomically), after which
        the sampler walks index windows of the original sequence and
        touches only the O(n / rate) chosen representatives.
        """
        reject_text_batch(values)
        values = self._backend.as_batch(values)
        if self._backend.batch_contains_nan(values):
            raise ValueError("NaN values have no rank and cannot be summarised")
        total = len(values)
        index = 0
        while index < total:
            if self._new_pending:
                self._begin_new()
            # Elements this New operation can still absorb.
            needed = (
                (self._engine.k - len(self._staged)) * self._rate
                - self._sampler.seen_in_block
            )
            stop = min(index + needed, total)
            chosen = self._sampler.offer_window(
                values, index, stop, backend=self._backend
            )
            self._n += stop - index
            index = stop
            if not self._staged and len(chosen) == self._engine.k:
                # Steady state: the window resolved a whole buffer of
                # representatives in backend-native form — straight into
                # the arena, no staging copy.
                self._engine.deposit(chosen, self._rate, self._level)
                self._new_pending = True
            elif len(chosen):
                # replint: disable=buffer-arena -- cold path: the window
                # straddled an open block, so the partial result is staged
                self._staged.extend(self._backend.tolist(chosen))
                if len(self._staged) == self._engine.k:
                    self._engine.deposit(self._staged, self._rate, self._level)
                    self._staged = []
                    self._new_pending = True

    def _begin_new(self) -> None:
        """Start a New operation: free a buffer, then fix its rate and level.

        Collapse (if needed) happens *before* the sampling rate is read, so
        a rate doubling triggered by that collapse applies to this New —
        matching the paper's ordering ("whenever the first buffer at height
        h+i is produced ... subsequent New operations are invoked with rate
        2^(i+1)").
        """
        self._engine.ensure_empty()
        onset_gap = self._engine.max_collapse_level - self._plan.h
        if onset_gap >= 0:
            new_rate = 2 ** (onset_gap + 1)
            if new_rate != self._rate:
                self._rate = new_rate
                self._level = onset_gap + 1
                self._sampler.reset(new_rate)
        self._new_pending = False

    # ------------------------------------------------------------------
    # Queries (Output; any time, non-destructive)
    # ------------------------------------------------------------------
    def _extras(self) -> list[tuple[Sequence[float], int]]:
        """In-flight sample elements as weighted pseudo-buffers."""
        extras: list[tuple[Sequence[float], int]] = []
        if self._staged:
            # The backend's sort (one C call on the native backend): the
            # first query after every ingest re-sorts the staged run.
            extras.append((self._backend.sort_values(self._staged), self._rate))
        pending = self._sampler.pending()
        if pending is not None:
            candidate, seen = pending
            extras.append(([candidate], seen))
        return extras

    def _extras_view(self) -> MergedView:
        """Merged view of the in-flight extras, cached between updates.

        The extras change exactly when elements are consumed, so keying
        on ``(n, engine.version)`` makes repeated queries between updates
        skip both the extras sort and the merge.
        """
        key = (self._n, self._engine.version)
        if self._extras_cache is None or self._extras_cache_key != key:
            self._extras_cache = self._backend.merged_view(self._extras())
            self._extras_cache_key = key
        return self._extras_cache

    def query(self, phi: float) -> float:
        """An eps-approximate phi-quantile of everything seen so far."""
        if self._n == 0:
            raise ValueError("no data has been observed yet")
        return self._engine.query(phi, self._extras_view())

    def query_many(self, phis: Sequence[float]) -> list[float]:
        """Several quantiles in one pass over the summary (order preserved)."""
        if self._n == 0:
            raise ValueError("no data has been observed yet")
        return self._engine.query_many(phis, self._extras_view())

    def rank(self, value: float) -> int:
        """Estimated number of stream elements <= ``value`` (inverse query).

        Within ``eps * n`` of the true count with the summary's usual
        probability; ``rank(query(phi)) ~ phi * n``.
        """
        if self._n == 0:
            raise ValueError("no data has been observed yet")
        return self._engine.weighted_rank(value, self._extras_view())

    def cdf(self, value: float) -> float:
        """Estimated fraction of the stream that is <= ``value``."""
        return self.rank(value) / self._n

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def plan(self) -> Plan:
        """The (b, k, h, alpha) parameter plan in force."""
        return self._plan

    @property
    def n(self) -> int:
        """Elements consumed so far."""
        return self._n

    def __len__(self) -> int:
        return self._n

    @property
    def sampling_rate(self) -> int:
        """Current block size ``r`` of the New operation."""
        return self._rate

    @property
    def memory_elements(self) -> int:
        """Element slots held (allocated buffers x k)."""
        return self._engine.memory_elements

    @property
    def memory_bytes(self) -> int:
        """Peak bytes held: the engine's ``b*k*8`` arena + O(b) metadata
        + the in-flight staging elements."""
        return self._engine.memory_bytes + FLOAT_BYTES * len(self._staged)

    @property
    def total_weight(self) -> int:
        """Weight mass a query would consume; always equals :attr:`n`."""
        extras = self._extras()
        return self._engine.total_weight + sum(
            len(data) * weight for data, weight in extras
        )

    @property
    def engine(self) -> CollapseEngine:
        """The underlying buffer engine (tests, diagnostics)."""
        return self._engine

    @property
    def backend(self) -> KernelBackend:
        """The kernel backend this estimator runs on."""
        return self._backend

    # ------------------------------------------------------------------
    # Checkpointing (see repro.persist for the durable file format)
    # ------------------------------------------------------------------
    def to_state_dict(self) -> dict[str, Any]:
        """The estimator's complete restorable state, as plain data.

        Includes the RNG state, so restore-then-stream is bit-identical to
        an uninterrupted run: the estimator makes exactly the same sampling
        choices either way.
        """
        return {
            "kind": "unknown_n",
            "state_version": 1,
            "backend": self._backend.name,
            "plan": {
                "eps": self._plan.eps,
                "delta": self._plan.delta,
                "b": self._plan.b,
                "k": self._plan.k,
                "h": self._plan.h,
                "alpha": self._plan.alpha,
                "leaves_before_sampling": self._plan.leaves_before_sampling,
                "leaves_per_level": self._plan.leaves_per_level,
                "policy_name": self._plan.policy_name,
            },
            "engine": self._engine.state_dict(),
            "rng": self._rng.getstate(),
            "sampler": self._sampler.state_dict(),
            "staged": list(self._staged),
            "n": self._n,
            "rate": self._rate,
            "level": self._level,
            "new_pending": self._new_pending,
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "UnknownNQuantiles":
        """Rebuild an estimator exactly as :meth:`to_state_dict` captured it."""
        from repro.core.policy import policy_from_name

        plan = Plan(
            eps=float(state["plan"]["eps"]),
            delta=float(state["plan"]["delta"]),
            b=int(state["plan"]["b"]),
            k=int(state["plan"]["k"]),
            h=int(state["plan"]["h"]),
            alpha=float(state["plan"]["alpha"]),
            leaves_before_sampling=int(state["plan"]["leaves_before_sampling"]),
            leaves_per_level=int(state["plan"]["leaves_per_level"]),
            policy_name=state["plan"]["policy_name"],
        )
        est = cls(
            plan=plan,
            policy=policy_from_name(plan.policy_name),
            backend=backend_from_checkpoint(state.get("backend")),
        )
        est._engine = CollapseEngine.from_state_dict(
            state["engine"], backend=est._backend
        )
        est._rng = restore_rng(state["rng"])
        est._sampler = BlockSampler.from_state_dict(state["sampler"], est._rng)
        est._staged = [float(v) for v in state["staged"]]
        est._n = int(state["n"])
        est._rate = int(state["rate"])
        est._level = int(state["level"])
        est._new_pending = bool(state["new_pending"])
        return est

    def snapshot(self) -> "EstimatorSnapshot":
        """A read-only copy of the estimator's state.

        Used by the Section 6 parallel coordinator to merge workers
        without destroying them (queries remain available afterwards).
        """
        pending = self._sampler.pending()
        return EstimatorSnapshot(
            full_buffers=[
                (_columnar(buf.data), buf.weight)
                for buf in self._engine.full_buffers()
            ],
            staged=sorted(self._staged),
            rate=self._rate,
            pending=pending,
            n=self._n,
            k=self._engine.k,
        )


def _columnar(data: Sequence[float]) -> Sequence[float]:
    """Compact ``array('d')`` copy of a buffer view for a snapshot.

    Snapshots must not alias the arena (its slots are rewritten by later
    collapses), but the copy stays columnar — a memoryview arena slot is
    copied as one memcpy — so shipping a snapshot never boxes its
    elements.
    """
    if isinstance(data, memoryview):
        copy = array("d")
        copy.frombytes(bytes(data))
        return copy
    return array("d", data)
