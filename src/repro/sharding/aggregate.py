"""Champion aggregation: rank shard winners without an O(n²) level.

Tueno-style star topology over the secret-sharing substrate: the
candidates (every shard's local top-``min(k, s)``) jointly rank their
masked gains — all still masked under the *one* global ρ, so cross-shard
β order is cross-shard gain order.

Protocol shape (all over :class:`~repro.sharing.arithmetic.SSContext`):

1. each candidate secret-shares her β;
2. :func:`~repro.sorting.topk.probabilistic_top_k` binary-searches a
   public threshold θ, opening only the per-probe *count* of candidates
   clearing it (the satellite-fixed variant then opens the cached
   indicator bits of the successful probe — one opening per candidate,
   no recomputed comparisons);
3. the ≤ k winners' relative order comes from a Batcher network over
   value + index lanes in which **only the index lanes are opened** —
   the winners' ranks are revealed (they are the protocol's output),
   their β values are not;
4. when ties straddle the k-th place the threshold search honestly
   fails, and the fallback ranks *all* candidates through the same
   index-lane network (more comparisons, same disclosure shape).

What candidates learn beyond the flat protocol's "own rank only":
membership of the candidate set (which shards' champions are present)
and the opened probe counts/thresholds — a bounded β-interval leak
documented in PROTOCOL.md's hierarchical-composition section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.math.primes import is_prime
from repro.math.rng import RNG
from repro.sharing.arithmetic import SSContext, SSMetrics, SharedValue
from repro.sharing.comparison import less_than
from repro.sorting.networks import batcher_odd_even
from repro.sorting.topk import TopKResult, probabilistic_top_k

__all__ = ["AggregationOutcome", "aggregation_prime", "rank_champions"]

_PRIME_CACHE: Dict[int, int] = {}


def aggregation_prime(beta_bits: int) -> int:
    """The largest prime below ``2^(beta_bits+2)``.

    Sitting just *under* a power of two makes the LSB gadget's
    rejection sampling accept with probability ``p / 2^width ≈ 1``, so
    the measured multiplication count tracks the cost model's
    deterministic formula instead of a retry-inflated one; the two
    guard bits keep every β in ``[0, p/2)`` (the comparison
    precondition) with room for the doubling inside the gadget.
    """
    cached = _PRIME_CACHE.get(beta_bits)
    if cached is not None:
        return cached
    candidate = (1 << (beta_bits + 2)) - 1
    while not is_prime(candidate):
        candidate -= 2
    _PRIME_CACHE[beta_bits] = candidate
    return candidate


@dataclass
class AggregationOutcome:
    """What the champion-aggregation round produced."""

    ranks: Dict[int, int]        # candidate id -> rank among candidates
    winners: List[int]           # candidate ids ranked ≤ k, sorted by rank
    k: int                       # the effective k the round selected
    candidates: List[int]        # all candidate ids, sorted
    topk: Optional[TopKResult]   # None when the search was skipped (k ≥ #candidates)
    used_fallback: bool          # threshold search failed; full network ranked
    prime: int
    field_bits: int
    sort_comparators: int
    metrics: SSMetrics

    @property
    def wire_bits(self) -> int:
        """Total bits the round moved between candidates.

        Every share distribution, multiplication, and opening in the
        substrate is metered as point-to-point field-element messages
        (:class:`SSMetrics`); each costs one field element on the wire.
        """
        return self.metrics.field_messages * self.field_bits


def rank_champions(
    candidate_betas: Dict[int, int],
    k: int,
    beta_bits: int,
    rng: RNG,
) -> AggregationOutcome:
    """Rank the candidate set and name the global top-k winners.

    ``candidate_betas`` maps party id to masked gain (all under one ρ).
    Winners get exact candidate ranks; after a successful threshold
    search, losers' ranks stay hidden (they only learn they are below
    the k-th place).
    """
    if not candidate_betas:
        raise ValueError("cannot aggregate an empty candidate set")
    ids = sorted(candidate_betas)
    values = [candidate_betas[j] for j in ids]
    k_eff = min(k, len(ids))
    if len(ids) == 1:
        return AggregationOutcome(
            ranks={ids[0]: 1}, winners=[ids[0]], k=k_eff, candidates=ids,
            topk=None, used_fallback=False, prime=aggregation_prime(beta_bits),
            field_bits=aggregation_prime(beta_bits).bit_length(),
            sort_comparators=0, metrics=SSMetrics(),
        )
    prime = aggregation_prime(beta_bits)
    context = SSContext(parties=len(ids), prime=prime, rng=rng)
    value_bound = 1 << beta_bits

    topk: Optional[TopKResult] = None
    used_fallback = False
    sort_comparators = 0
    ranks: Dict[int, int] = {}
    if k_eff < len(ids):
        topk = probabilistic_top_k(context, values, k_eff, value_bound)
    if topk is not None and topk.succeeded:
        winner_ids = [ids[i - 1] for i in topk.members]
        winner_values = [candidate_betas[j] for j in winner_ids]
        winner_ranks, sort_comparators = _network_ranks(
            context, winner_values
        )
        # A winner's rank among winners IS her rank among candidates:
        # anyone above her clears the threshold too, hence is a winner.
        ranks = {winner_ids[i - 1]: r for i, r in winner_ranks.items()}
    else:
        used_fallback = topk is not None
        all_ranks, sort_comparators = _network_ranks(context, values)
        ranks = {ids[i - 1]: r for i, r in all_ranks.items()}
    winners = sorted(
        (j for j, r in ranks.items() if r <= k_eff), key=lambda j: ranks[j]
    )
    return AggregationOutcome(
        ranks=ranks, winners=winners, k=k_eff, candidates=ids, topk=topk,
        used_fallback=used_fallback, prime=prime,
        field_bits=prime.bit_length(), sort_comparators=sort_comparators,
        metrics=context.metrics,
    )


def _network_ranks(
    context: SSContext, plain_values: Sequence[int]
):
    """Batcher sort with value + index lanes, opening index lanes only.

    Unlike :func:`~repro.sorting.ss_sort.ss_sort_with_ranks` (which
    opens the sorted values too), this reveals just the permutation of
    the inputs — i.e. exactly the ranks, which are the round's intended
    output.  Equal values never swap (``[a < b] = 0``), so ties get
    adjacent ranks deterministically.  Returns ``({position → rank},
    comparator count)`` with positions 1-based and rank 1 the largest.
    """
    m = len(plain_values)
    if m == 1:
        return {1: 1}, 0
    network = batcher_odd_even(m)
    value_lanes: List[SharedValue] = [context.share(v) for v in plain_values]
    index_lanes: List[SharedValue] = [context.share(i + 1) for i in range(m)]
    for i, j in network.comparators:
        a, b = value_lanes[i], value_lanes[j]
        ia, ib = index_lanes[i], index_lanes[j]
        swap_bit = less_than(context, a, b)
        minimum = b + context.multiply(swap_bit, a - b)
        value_lanes[i], value_lanes[j] = minimum, a + b - minimum
        index_min = ib + context.multiply(swap_bit, ia - ib)
        index_lanes[i], index_lanes[j] = index_min, ia + ib - index_min
    opened_indexes = [lane.open() for lane in index_lanes]
    # Ascending position pos holds the (pos+1)-th smallest input, so the
    # input at the last position ranks 1.
    ranks = {
        party: m - position
        for position, party in enumerate(opened_indexes)
    }
    return ranks, network.comparator_count
