"""Admission control and deadline budgets for the serving tier.

Overload policy, stated once and enforced here:

* every tenant has a **bounded ingest queue**, used only while the
  tenant is busy (an idle tenant's batch applies inline, unqueued); a
  batch that does not fit is shed *explicitly* — the client gets an
  ``overloaded`` response with a ``retry_after_ms`` hint (the 429
  pattern), never a silent drop;
* the server has a **global in-flight cap** so one tenant flooding its
  own queue cannot starve every other tenant of event-loop time;
* every request runs under a **deadline**: the caller's ``deadline_ms``
  (or the server default) becomes a :class:`Deadline` that is consulted
  before an apply or queue admission, while waiting for a queued apply,
  and between units of query/merge work — so a request that can no
  longer make its budget stops consuming resources instead of
  completing uselessly late.

Everything here is explicit bookkeeping on the single event-loop thread;
there are no locks and no timing races to tune.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import asyncio

__all__ = [
    "AdmissionController",
    "Deadline",
    "DeadlineExceeded",
    "Overloaded",
    "RateLimited",
    "TokenBucket",
]


class Overloaded(Exception):
    """Admission control shed this request; retry after the hint."""

    def __init__(self, message: str, retry_after_ms: float) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class RateLimited(Exception):
    """A per-tenant rate limit rejected this request; retry after the hint."""

    def __init__(self, message: str, retry_after_ms: float) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class TokenBucket:
    """Per-tenant token bucket: ``rate`` tokens/s, ``burst`` capacity.

    Tokens accrue continuously on the injected monotonic clock and are
    spent one per admitted request.  An empty bucket rejects with
    :class:`RateLimited` carrying the exact time until the next token —
    never a silent drop.  Enforced *before* admission control so a
    tenant over its contract cannot consume in-flight slots that belong
    to well-behaved tenants.
    """

    __slots__ = ("rate", "burst", "_clock", "_tokens", "_updated", "rejected_total")

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        #: Lifetime count of rejected admissions (metrics).
        self.rejected_total = 0

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._updated
        if elapsed > 0.0:
            self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate)
        self._updated = now

    @property
    def tokens(self) -> float:
        """Tokens available right now (refilled on read)."""
        self._refill()
        return self._tokens

    def admit(self, tenant: str) -> None:
        """Spend one token or reject with :class:`RateLimited`."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return
        self.rejected_total += 1
        wait_ms = (1.0 - self._tokens) / self.rate * 1000.0
        raise RateLimited(
            f"tenant {tenant!r} is over its {self.rate:g} req/s rate limit "
            f"(burst {self.burst})",
            retry_after_ms=max(1.0, wait_ms),
        )


class DeadlineExceeded(Exception):
    """The request's time budget ran out before the work completed."""


class Deadline:
    """A monotonic time budget that travels with one request.

    ``budget`` of ``None`` means unbounded (used internally; client
    requests always carry the server default at minimum).
    """

    __slots__ = ("_clock", "_expires_at")

    def __init__(
        self,
        budget_seconds: float | None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self._expires_at = (
            None if budget_seconds is None else clock() + budget_seconds
        )

    @classmethod
    def from_ms(
        cls,
        deadline_ms: float | None,
        default_seconds: float | None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """The budget a request runs under: its own, else the default."""
        if deadline_ms is None:
            return cls(default_seconds, clock)
        return cls(deadline_ms / 1000.0, clock)

    def remaining(self) -> float | None:
        """Seconds left, floored at zero; ``None`` when unbounded."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def check(self, doing: str) -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent.

        Called between units of work (queue admission, per-quantile query
        steps, merge construction) so deadlines propagate *into* the
        compute, not just around the socket.
        """
        if self.expired:
            raise DeadlineExceeded(f"deadline expired while {doing}")


class AdmissionController:
    """Bounded-queue, explicit-shed admission for the whole server.

    :param max_inflight: concurrent requests allowed past the front door.
    :param retry_after_ms: hint attached to every shed response.
    """

    def __init__(self, max_inflight: int, retry_after_ms: float = 1000.0) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self._max_inflight = max_inflight
        self._retry_after_ms = retry_after_ms
        self._inflight = 0
        self.shed_total = 0

    @property
    def inflight(self) -> int:
        """Requests currently being served."""
        return self._inflight

    def admit(self) -> None:
        """Take one in-flight slot or shed with :class:`Overloaded`."""
        if self._inflight >= self._max_inflight:
            self.shed_total += 1
            raise Overloaded(
                f"server is at its {self._max_inflight}-request in-flight "
                "limit",
                retry_after_ms=self._retry_after_ms,
            )
        self._inflight += 1

    def release(self) -> None:
        """Return one in-flight slot (paired with every ``admit``)."""
        if self._inflight <= 0:
            raise RuntimeError("release() without a matching admit()")
        self._inflight -= 1

    def enqueue(
        self,
        queue: "asyncio.Queue[Any]",
        item: Any,
        *,
        tenant: str,
        deadline: Deadline,
    ) -> None:
        """Put one batch on a tenant's bounded queue or shed explicitly.

        Never blocks: a full queue is an immediate ``overloaded`` answer
        (with a retry hint scaled to the queue depth), because queueing
        behind a deadline the batch cannot make helps nobody.
        """
        deadline.check(f"waiting for tenant {tenant!r} queue admission")
        if queue.full():
            self.shed_total += 1
            raise Overloaded(
                f"tenant {tenant!r} ingest queue is full "
                f"({queue.maxsize} batches pending)",
                retry_after_ms=self._retry_after_ms,
            )
        queue.put_nowait(item)
