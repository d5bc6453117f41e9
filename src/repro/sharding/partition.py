"""Deterministic shard planning.

The split is a pure function of the (sorted) active id set and the
configured shard size, so every party — and a replay, and the cost
model — derives the identical layout with no extra communication.

Sizes are balanced: ``ceil(n / shard_size)`` shards whose sizes differ
by at most one, every shard at least 2 strong (the comparison phase
needs a peer), assigned in sorted-id order.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["auto_shard_size", "plan_shards", "shard_sizes", "two_champions"]

#: Largest shard :func:`auto_shard_size` proposes.
AUTO_MAX_SHARD = 128


def shard_sizes(n: int, shard_size: int) -> List[int]:
    """Balanced shard sizes for ``n`` parties, each ≤ ``shard_size``.

    ``n`` parties split into ``ceil(n / shard_size)`` shards; the first
    ``n mod shards`` shards take the extra member.  Balancing (instead
    of greedy filling) makes the slowest shard — the wall-clock of the
    concurrent level — as small as possible.  When the division would
    strand a singleton (say n=3 with shard_size=2), the shard count is
    lowered instead: a shard may then exceed ``shard_size`` by one,
    because a 1-party shard cannot run the comparison phase at all.
    """
    if n < 2:
        raise ValueError("sharding needs at least 2 participants")
    if shard_size < 2:
        raise ValueError("shard_size must be at least 2")
    count = max(1, min(-(-n // shard_size), n // 2))
    base, extra = divmod(n, count)
    return [base + 1 if i < extra else base for i in range(count)]


def plan_shards(active_ids: Sequence[int], shard_size: int) -> List[List[int]]:
    """Partition the active ids into consecutive, sorted shards."""
    ordered = sorted(active_ids)
    sizes = shard_sizes(len(ordered), shard_size)
    shards: List[List[int]] = []
    start = 0
    for size in sizes:
        shards.append(ordered[start:start + size])
        start += size
    return shards


def two_champions(sizes: Sequence[int], k: int) -> bool:
    """Whether a plan with these shard sizes sends exactly 2 champions
    to the champion round, which cannot rank them.

    Each shard sends its local top ``min(k, size)``; the round's
    honest-majority secret sharing needs 1 or at least 3 parties.
    """
    return sum(min(k, size) for size in sizes) == 2


def auto_shard_size(n: int, k: int) -> int:
    """The ``--shard-size auto`` choice for ``n`` participants and top
    ``k``, or 0 for the flat protocol.

    The smallest shard that holds a shard's k champions, s = max(2, k):
    a participant's group multiplications grow with its shard's size
    and the champion round spends field multiplications instead, so of
    every s below n (and up to :data:`AUTO_MAX_SHARD`) the closed forms
    price the smallest cheapest in group multiplications.  Flat when no
    such s exists, or when its plan would send exactly 2 champions
    (:func:`two_champions`).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    s = max(2, k)
    if s > min(n - 1, AUTO_MAX_SHARD) or two_champions(shard_sizes(n, s), k):
        return 0
    return s
