"""Block sampling: one uniformly random representative per block of inputs.

The paper's **New** operation (Section 3.1) "populates the buffer by
choosing a single random element from a block of ``r`` input elements each".
This module implements that primitive incrementally so the enclosing
estimator can consume a stream one element at a time and still answer
queries mid-block.

The within-block choice uses a size-1 reservoir: the ``j``-th element of the
current block replaces the candidate with probability ``1/j``, which yields
a uniform choice over the block without buffering it.  The sampling is
therefore *without replacement* across blocks, exactly as the paper notes
("Our sampling is without replacement"), and needs O(1) state.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.kernels import KernelBackend

__all__ = ["BlockSampler", "restore_rng"]


def restore_rng(state: Sequence[Any]) -> random.Random:
    """Rebuild a ``random.Random`` from a (possibly JSON-decoded) getstate().

    JSON round-trips turn the state's tuples into lists, so the exact
    ``(int, tuple[int, ...], float | None)`` shape ``setstate`` demands is
    re-imposed here.
    """
    version, internal, gauss_next = state
    # replint: disable=determinism -- the state set immediately below
    # replaces whatever this constructor seeded; no fresh draw survives
    rng = random.Random()
    rng.setstate(
        (
            int(version),
            tuple(int(word) for word in internal),
            None if gauss_next is None else float(gauss_next),
        )
    )
    return rng


class BlockSampler:
    """Incrementally pick one uniform element from each block of ``rate`` inputs.

    :param rate: block size ``r``; ``rate = 1`` means no sampling (every
        element is its own block's representative).
    :param rng: source of randomness (a :class:`random.Random`); supply a
        seeded instance for reproducible runs.

    Usage::

        sampler = BlockSampler(rate=4, rng=random.Random(7))
        for x in stream:
            chosen = sampler.offer(x)
            if chosen is not None:
                consume(chosen)        # weight = 4
        tail = sampler.pending()       # candidate of the incomplete block
    """

    __slots__ = ("_rate", "_rng", "_seen_in_block", "_candidate")

    def __init__(self, rate: int, rng: random.Random) -> None:
        if rate < 1:
            raise ValueError(f"rate must be >= 1, got {rate}")
        self._rate = rate
        self._rng = rng
        self._seen_in_block = 0
        self._candidate: float | None = None

    @property
    def rate(self) -> int:
        """Current block size ``r``."""
        return self._rate

    @property
    def seen_in_block(self) -> int:
        """Number of elements consumed by the current (incomplete) block."""
        return self._seen_in_block

    def offer(self, value: float) -> float | None:
        """Feed one element; return the block's representative when it completes.

        Returns ``None`` while the block is still filling.  The returned
        representative carries weight ``rate`` (the caller attaches it).
        """
        self._seen_in_block += 1
        if self._seen_in_block == 1:
            self._candidate = value
        elif self._rng.random() * self._seen_in_block < 1.0:
            self._candidate = value
        if self._seen_in_block == self._rate:
            chosen = self._candidate
            self._seen_in_block = 0
            self._candidate = None
            return chosen
        return None

    def pending(self) -> tuple[float, int] | None:
        """The incomplete block's ``(candidate, elements_seen)``, if any.

        The candidate is a uniform choice over the elements seen so far in
        the block, so weighting it by ``elements_seen`` keeps the total
        sample weight exactly equal to the number of stream elements
        consumed — the invariant the Output operation relies on.
        """
        if self._seen_in_block == 0:
            return None
        assert self._candidate is not None
        return self._candidate, self._seen_in_block

    def offer_many(self, values: Sequence[float]) -> list[float]:
        """Feed a batch; return all block representatives it completes.

        Semantically identical to calling :meth:`offer` per element (the
        same uniform-per-block distribution), but whole interior blocks
        are resolved with a single RNG draw each instead of ``rate``
        draws, which is what the estimators' bulk-ingest paths build on.
        Any trailing incomplete block stays pending, as with :meth:`offer`.
        """
        chosen = self.offer_window(values, 0, len(values))
        return chosen if isinstance(chosen, list) else list(chosen)

    def offer_window(
        self,
        values: Sequence[float],
        start: int,
        stop: int,
        backend: KernelBackend | None = None,
    ) -> Sequence[float]:
        """Feed ``values[start:stop]`` *in place* — no slice is materialised.

        The workhorse behind the estimators' ``update_batch``: the open
        block (if any) is finished element-by-element, whole interior
        blocks are resolved through the kernel backend's batch kernel
        (one scalar draw per block on either backend), and the tail opens
        a new partial block.  Returns the completed blocks' representatives.

        The return is *backend-native*: when the window starts on a block
        boundary and ends on one (the steady state of bulk ingest, where
        the enclosing estimator sizes windows to whole buffers), the
        backend kernel's output — a float64 memoryview on the native
        backend, a compact slice for ``rate == 1`` — is passed through
        untouched, so representatives flow into the arena without a
        boxed-list detour.
        A plain list is returned only when the window straddles an open
        block.
        """
        if backend is None:
            from repro.kernels.python_backend import PYTHON_BACKEND as backend
        chosen: list[float] = []
        index = start
        # Finish the currently open block element-by-element (it already
        # has per-element reservoir state).
        while index < stop and self._seen_in_block != 0:
            result = self.offer(values[index])
            index += 1
            if result is not None:
                chosen.append(result)
        rate = self._rate
        if rate == 1:
            # Every element is its own block's representative.
            if index >= stop:
                return chosen
            if not chosen:
                # Whole window in one slice: an array-typed input stays
                # array-typed (a list input pays its one slice copy).
                return values[index:stop]
            chosen.extend(backend.tolist(values[index:stop]))
            return chosen
        n_blocks = (stop - index) // rate
        interior: Sequence[float] | None = None
        if n_blocks:
            interior = backend.block_representatives(
                values, index, n_blocks, rate, self._rng
            )
            index += n_blocks * rate
        # Tail: open a new partial block.
        tail: list[float] = []
        while index < stop:
            result = self.offer(values[index])
            index += 1
            if result is not None:  # cannot happen (tail < rate), but be safe
                tail.append(result)
        if interior is None:
            chosen.extend(tail)
            return chosen
        if not chosen and not tail:
            return interior
        chosen.extend(backend.tolist(interior))
        chosen.extend(tail)
        return chosen

    def state_dict(self) -> dict[str, Any]:
        """The sampler's restorable state (the RNG is owned by the caller)."""
        return {
            "rate": self._rate,
            "seen_in_block": self._seen_in_block,
            "candidate": self._candidate,
        }

    @classmethod
    def from_state_dict(
        cls, state: dict[str, Any], rng: random.Random
    ) -> "BlockSampler":
        """Rebuild a sampler mid-block; ``rng`` is the caller's restored RNG."""
        sampler = cls(rate=int(state["rate"]), rng=rng)
        sampler._seen_in_block = int(state["seen_in_block"])
        sampler._candidate = state["candidate"]
        return sampler

    def reset(self, rate: int) -> None:
        """Start afresh with a new block size, discarding any partial block.

        The enclosing estimator only changes the rate at buffer boundaries
        (when a New operation begins), at which point no partial block may
        be outstanding; this is asserted rather than silently dropped.
        """
        if rate < 1:
            raise ValueError(f"rate must be >= 1, got {rate}")
        if self._seen_in_block != 0:
            raise RuntimeError(
                "cannot change the sampling rate mid-block; "
                f"{self._seen_in_block} elements of the current block would be lost"
            )
        self._rate = rate
