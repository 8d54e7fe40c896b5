"""The Collapse and Output operators (Sections 3.2-3.3).

**Collapse** takes ``c >= 2`` full buffers, conceptually replicates every
element by its buffer's weight, sorts the replicas together, and keeps ``k``
equally spaced replicas.  With output weight ``W = sum(w_i)`` the kept
positions (1-indexed) are::

    j * W + (W + 1) / 2          j = 0 .. k-1,  W odd
    j * W + W / 2   or
    j * W + (W + 2) / 2          j = 0 .. k-1,  W even (alternating)

The alternation between the two even-offset choices on successive even-W
invocations cancels the systematic half-position drift either choice alone
would accumulate (benchmarked in the offset ablation).

Replicas are never materialised: a k-way merge of the sorted inputs walks
cumulative weight and emits an element whenever a kept position falls inside
the weight span it covers, so Collapse costs O(c*k log c) time and O(c)
extra space, and the output is written back into one of the input buffers.

**Output** performs the final weighted selection at position
``ceil(phi * total_weight)`` over the surviving buffers (including a
partial one, if any).  It does not modify state, so it can be invoked at
any time — the property that makes the algorithm usable for online
aggregation.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from repro.core.buffers import Buffer
from repro.kernels import KernelBackend
from repro.stats.rank import quantile_position, weighted_select, weighted_stream

__all__ = [
    "collapse_offset",
    "select_collapse_values",
    "collapse_buffers",
    "output_quantile",
]


def collapse_offset(total_weight: int, *, low_for_even: bool) -> int:
    """The within-stride offset of the kept positions for a given W.

    :param total_weight: the collapse output weight ``W``.
    :param low_for_even: which of the two even-W choices to use; the engine
        flips this flag on each even-W collapse.
    """
    if total_weight < 2:
        raise ValueError(f"collapse weight must be >= 2, got {total_weight}")
    if total_weight % 2 == 1:
        return (total_weight + 1) // 2
    return total_weight // 2 if low_for_even else (total_weight + 2) // 2


def select_collapse_values(
    inputs: Sequence[tuple[Sequence[float], int]], capacity: int, offset: int
) -> list[float]:
    """Pure core of Collapse: the ``capacity`` kept values.

    :param inputs: ``(sorted_values, weight)`` pairs, each of length
        ``capacity``.
    :param offset: within-stride offset from :func:`collapse_offset`.
    :returns: the kept values, sorted (positions are increasing).
    """
    total_weight = sum(weight for _, weight in inputs)
    stride = total_weight
    if not 1 <= offset <= stride:
        raise ValueError(f"offset {offset} outside stride [1, {stride}]")
    merged = heapq.merge(
        *(weighted_stream(data, weight) for data, weight in inputs)
    )
    kept: list[float] = []
    next_position = offset
    cumulative = 0
    for value, weight in merged:
        cumulative += weight
        while len(kept) < capacity and next_position <= cumulative:
            kept.append(value)
            next_position += stride
    if len(kept) != capacity:
        raise AssertionError(
            f"collapse selected {len(kept)} of {capacity} values "
            f"(total weight {cumulative}, stride {stride}, offset {offset})"
        )
    return kept


def collapse_buffers(
    buffers: Sequence[Buffer],
    *,
    low_for_even: bool,
    backend: KernelBackend | None = None,
) -> Buffer:
    """Collapse full buffers in place; returns the buffer holding the output.

    All inputs must be full and share one capacity.  The output weight is
    the sum of input weights; the output *level* is one more than the
    maximum input level (the collapse policy's convention); all inputs but
    the output holder are marked empty.  When a kernel backend is given,
    its Collapse kernel performs the keep-selection (the native backend
    runs it in C); the default is the heapq-merge reference below.
    """
    if len(buffers) < 2:
        raise ValueError(f"Collapse needs at least 2 buffers, got {len(buffers)}")
    capacity = buffers[0].capacity
    for buf in buffers:
        if not buf.is_full:
            raise RuntimeError(f"Collapse requires full buffers, got {buf!r}")
        if buf.capacity != capacity:
            raise RuntimeError("Collapse requires equal-capacity buffers")
    total_weight = sum(buf.weight for buf in buffers)
    offset = collapse_offset(total_weight, low_for_even=low_for_even)
    inputs = [buf.as_weighted() for buf in buffers]
    # The inputs are zero-copy arena views, so the kept values must be
    # fully materialised *before* any input slot is reclaimed below —
    # both kernels return a fresh list/array, never a live view.
    if backend is None:
        kept = select_collapse_values(inputs, capacity, offset)
    else:
        kept = backend.select_collapse(inputs, capacity, offset)
    out_level = max(buf.level for buf in buffers) + 1
    holder = buffers[0]
    for buf in buffers[1:]:
        buf.mark_empty()
    holder.mark_empty()
    holder.store_collapse_output(kept, total_weight, out_level)
    return holder


def output_quantile(
    weighted: Sequence[tuple[Sequence[float], int]], phi: float
) -> float:
    """The Output operation: weighted selection at ``ceil(phi * W_total)``.

    :param weighted: ``(sorted_values, weight)`` pairs — the full buffers,
        plus the partial buffer and any in-flight sample elements.
    """
    total = sum(len(data) * weight for data, weight in weighted)
    if total <= 0:
        raise ValueError("Output invoked with no data")
    return weighted_select(weighted, quantile_position(phi, total))
