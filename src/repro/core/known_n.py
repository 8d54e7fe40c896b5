"""The known-N comparator: MRL98's algorithm with upfront uniform sampling.

When the stream length ``N`` is known in advance, the sampling rate can be
fixed once: the planner (:func:`repro.core.params.plan_known_n`) picks the
cheapest of *store everything*, *deterministic tree*, or *uniform sampling
feeding the tree*.  This is the algorithm the paper measures its unknown-N
scheme against in Table 1 and Figure 4 — the new algorithm's promise is to
match it to within a factor of about two without ever being told N.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from typing import Any

from repro.core.arena import FLOAT_BYTES
from repro.core.framework import CollapseEngine
from repro.core.params import KnownNPlan, plan_known_n
from repro.core.policy import CollapsePolicy, policy_from_name
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

__all__ = ["KnownNQuantiles"]


class KnownNQuantiles:
    """Single-pass eps-approximate quantiles of a stream of known length.

    :param eps: rank-approximation guarantee.
    :param delta: failure probability of the sampling step (irrelevant when
        the plan turns out deterministic).
    :param n: the declared stream length; feeding more than ``n`` elements
        raises, since the fixed sampling rate was sized for ``n``.
    :param plan: explicit plan; overrides planning from (eps, delta, n).
    """

    def __init__(
        self,
        eps: float | None = None,
        delta: float | None = None,
        n: int | None = None,
        *,
        plan: KnownNPlan | None = None,
        policy: CollapsePolicy | None = None,
        seed: int | None = None,
        rng: random.Random | None = None,
        trace: bool = False,
        backend: str | KernelBackend | None = None,
    ) -> None:
        if plan is None:
            if eps is None or delta is None or n is None:
                raise ValueError("provide either (eps, delta, n) or an explicit plan")
            plan = plan_known_n(eps, delta, n, policy=policy)
        self._plan = plan
        self._backend = get_backend(backend)
        self._engine = CollapseEngine(
            plan.b, plan.k, policy, trace=trace, backend=self._backend
        )
        self._rng = rng if rng is not None else random.Random(seed)
        self._sampler = BlockSampler(rate=plan.rate, rng=self._rng)
        # replint: disable=buffer-arena -- O(k) staging for the buffer
        # currently filling; deposit copies it into the arena at k elements
        self._staged: list[float] = []
        self._n = 0
        self._extras_cache: MergedView | None = None
        self._extras_cache_key: tuple[int, int] = (-1, -1)

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def update(self, value: float) -> None:
        """Consume one stream element."""
        if is_nan(value):  # would poison the sorted buffers
            raise ValueError("NaN values have no rank and cannot be summarised")
        if self._n >= self._plan.n:
            raise RuntimeError(
                f"stream exceeded its declared length n={self._plan.n}; "
                "the known-N algorithm's fixed sampling rate is sized for n "
                "(this is precisely the limitation the unknown-N algorithm removes)"
            )
        self._n += 1
        chosen = self._sampler.offer(value)
        if chosen is None:
            return
        self._staged.append(chosen)
        if len(self._staged) == self._engine.k:
            self._engine.deposit(self._staged, self._plan.rate, level=0)
            self._staged = []

    def extend(self, values: Iterable[float]) -> None:
        """Consume many stream elements.

        Random-access inputs (lists, arrays, numpy arrays) take the bulk
        path (one RNG draw per sampling block); other iterables stream
        element-by-element.
        """
        reject_text_batch(values)
        if is_random_access(values):
            self.update_batch(values)  # type: ignore[arg-type]
            return
        for value in values:
            self.update(value)

    def update_batch(self, values: Sequence[float]) -> None:
        """Bulk-ingest a random-access batch (fixed rate; simpler than
        the unknown-N version since the rate never changes mid-batch)."""
        reject_text_batch(values)
        values = self._backend.as_batch(values)
        if self._backend.batch_contains_nan(values):
            raise ValueError("NaN values have no rank and cannot be summarised")
        if self._n + len(values) > self._plan.n:
            raise RuntimeError(
                f"stream would exceed its declared length n={self._plan.n}; "
                "the known-N algorithm's fixed sampling rate is sized for n"
            )
        rate = self._plan.rate
        total = len(values)
        index = 0
        while index < total:
            needed = (
                (self._engine.k - len(self._staged)) * rate
                - self._sampler.seen_in_block
            )
            stop = min(index + needed, total)
            chosen = self._sampler.offer_window(
                values, index, stop, backend=self._backend
            )
            self._n += stop - index
            index = stop
            if not self._staged and len(chosen) == self._engine.k:
                # Whole-buffer window: deposit the backend-native result
                # into the arena without a staging copy.
                self._engine.deposit(chosen, rate, level=0)
            elif len(chosen):
                # replint: disable=buffer-arena -- cold path: the window
                # straddled an open block, so the partial result is staged
                self._staged.extend(self._backend.tolist(chosen))
                if len(self._staged) == self._engine.k:
                    self._engine.deposit(self._staged, rate, level=0)
                    self._staged = []

    # ------------------------------------------------------------------
    # Checkpointing (see repro.persist for the durable file format)
    # ------------------------------------------------------------------
    def to_state_dict(self) -> dict[str, Any]:
        """The estimator's complete restorable state (including RNG state)."""
        return {
            "kind": "known_n",
            "state_version": 1,
            "backend": self._backend.name,
            "plan": {
                "eps": self._plan.eps,
                "delta": self._plan.delta,
                "n": self._plan.n,
                "b": self._plan.b,
                "k": self._plan.k,
                "h": self._plan.h,
                "alpha": self._plan.alpha,
                "rate": self._plan.rate,
                "exact": self._plan.exact,
            },
            "engine": self._engine.state_dict(),
            "rng": self._rng.getstate(),
            "sampler": self._sampler.state_dict(),
            "staged": list(self._staged),
            "n": self._n,
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]) -> "KnownNQuantiles":
        """Rebuild an estimator exactly as :meth:`to_state_dict` captured it."""
        plan = KnownNPlan(
            eps=float(state["plan"]["eps"]),
            delta=float(state["plan"]["delta"]),
            n=int(state["plan"]["n"]),
            b=int(state["plan"]["b"]),
            k=int(state["plan"]["k"]),
            h=int(state["plan"]["h"]),
            alpha=float(state["plan"]["alpha"]),
            rate=int(state["plan"]["rate"]),
            exact=bool(state["plan"]["exact"]),
        )
        est = cls(
            plan=plan,
            policy=policy_from_name(state["engine"]["policy"]),
            backend=backend_from_checkpoint(state.get("backend")),
        )
        est._engine = CollapseEngine.from_state_dict(
            state["engine"], backend=est._backend
        )
        est._rng = restore_rng(state["rng"])
        est._sampler = BlockSampler.from_state_dict(state["sampler"], est._rng)
        est._staged = [float(v) for v in state["staged"]]
        est._n = int(state["n"])
        return est

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _extras(self) -> list[tuple[Sequence[float], int]]:
        extras: list[tuple[Sequence[float], int]] = []
        if self._staged:
            extras.append((sorted(self._staged), self._plan.rate))
        pending = self._sampler.pending()
        if pending is not None:
            candidate, seen = pending
            extras.append(([candidate], seen))
        return extras

    def _extras_view(self) -> MergedView:
        """Merged view of the in-flight extras, cached between updates."""
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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def plan(self) -> KnownNPlan:
        """The (b, k, rate) plan in force."""
        return self._plan

    @property
    def n(self) -> int:
        """Elements consumed so far."""
        return self._n

    def __len__(self) -> int:
        return self._n

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
        return self._engine.total_weight + sum(
            len(data) * weight for data, weight in self._extras()
        )

    @property
    def engine(self) -> CollapseEngine:
        """The underlying buffer engine (tests, diagnostics)."""
        return self._engine

    @property
    def backend(self) -> KernelBackend:
        """The kernel backend this estimator runs on."""
        return self._backend
