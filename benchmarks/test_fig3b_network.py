"""FIG-3b: networked execution time vs n over the 80-node topology.

Paper setting: random 80-node graph with 320 duplex 2 Mbps / 50 ms
links, TCP transport, ECC-160 vs DL-1024 vs the SS framework.

Our reproduction (DESIGN.md §5, substitution 2):

* DL/ECC — the *real* protocol transcript (counting run with the target
  family's wire sizes, measured through the wire transport so sizes are
  encoded bytes and frame counts reflect per-round coalescing) replayed
  through the store-and-forward simulator with per-round barriers.
* SS — the comparisons of the Batcher network serialized (the paper's
  own round accounting charges at least one round per multiplication;
  we batch each comparison's multiplications into
  ``ROUNDS_PER_COMPARISON`` parallel rounds, which is charitable to SS),
  with the full Nishide-Ohta traffic (``(279l+5)·n(n-1)`` field
  elements per comparison) spread over those rounds.

Shape checks kept to the claims that are robust to the under-specified
NS2 configuration (see EXPERIMENTS.md): the ECC framework is fastest at
every n, and every framework's time grows superlinearly.  The paper's
SS-vs-DL crossover at n≈30-40 is *model-dependent*: our store-and-forward
simulator charges the DL chain's sequential n³ bits more than NS2/TCP
evidently did; the measured series and the discussion live in
EXPERIMENTS.md.
"""

import pytest

from benchmarks.harness import (
    PAPER_DEFAULTS,
    counting_run_for_family,
    format_series_table,
    full_sweeps,
    write_result,
)
from repro.math.rng import SeededRNG
from repro.netsim.simulator import LinkConfig
from repro.netsim.topology import paper_topology
from repro.netsim.transport import replay_transcript
from repro.runtime.transcript import Transcript
from repro.sharing.comparison import nishide_ohta_cost
from repro.sorting.networks import batcher_odd_even

ROUNDS_PER_COMPARISON = 15   # constant-round comparison, mults batched


def sweep_ns():
    return [10, 20, 30, 40, 50, 60, 70] if full_sweeps() else [6, 10, 14, 18]


def ss_single_comparison_transcript(n: int, beta_bits: int) -> Transcript:
    """One comparison's traffic: ROUNDS_PER_COMPARISON rounds of n(n-1)
    pair messages carrying the batched multiplication payloads."""
    field_bits = beta_bits + 9
    mults_per_comparison = nishide_ohta_cost(beta_bits) + 2
    bits_per_pair_round = (
        mults_per_comparison // ROUNDS_PER_COMPARISON + 1
    ) * field_bits
    transcript = Transcript()
    party_ids = list(range(1, n + 1))
    for round_index in range(ROUNDS_PER_COMPARISON):
        for src in party_ids:
            for dst in party_ids:
                if src != dst:
                    transcript.record(
                        round_index, src, dst, "ss-mult", bits_per_pair_round
                    )
    return transcript


def ss_interaction_transcript(n: int) -> Transcript:
    """One comparison under the interaction-bound model: the same
    ROUNDS_PER_COMPARISON rounds, but each pair message carries only the
    handful of field elements on the critical path (the rest of the
    multiplication batch is assumed pipelined off the critical path).
    This is the model most favourable to the SS framework."""
    transcript = Transcript()
    party_ids = list(range(1, n + 1))
    for round_index in range(ROUNDS_PER_COMPARISON):
        for src in party_ids:
            for dst in party_ids:
                if src != dst:
                    transcript.record(round_index, src, dst, "ss-round", 3 * 80)
    return transcript


def ss_network_seconds(n: int, beta_bits: int, topology, link, model: str) -> float:
    """Comparisons run back to back; with per-round barriers every
    comparison costs the same, so simulate one and scale — exact under
    the synchronous-round model.

    ``model="batched"`` charges the full Nishide-Ohta multiplication
    traffic; ``model="interaction"`` charges only round latencies.  The
    two bracket any real deployment (see EXPERIMENTS.md).
    """
    if model == "batched":
        single_transcript = ss_single_comparison_transcript(n, beta_bits)
    elif model == "interaction":
        single_transcript = ss_interaction_transcript(n)
    else:
        raise ValueError("model must be 'batched' or 'interaction'")
    single = replay_transcript(single_transcript, topology, link).total_time_s
    return batcher_odd_even(n).comparator_count * single


@pytest.fixture(scope="module")
def series():
    params = {k: v for k, v in PAPER_DEFAULTS.items() if k != "n"}
    ns = sweep_ns()
    link = LinkConfig(bandwidth_bps=2_000_000.0, latency_s=0.050)
    dl, ecc, ss_hi, ss_lo, ss_lo_tcp = [], [], [], [], []
    for n in ns:
        topology = paper_topology(SeededRNG(17))
        topology.place_parties(list(range(n + 1)), SeededRNG(18))
        # Measured wire: the replay sees real encoded bytes (envelopes,
        # varint framing) and real frame counts (coalesced batches fold
        # into one wire message per channel per round).
        run_dl = counting_run_for_family(
            "DL", 80, n=n, **params
        )
        dl.append(replay_transcript(run_dl.transcript, topology, link).total_time_s)
        run_ecc = counting_run_for_family(
            "ECC", 80, n=n, **params
        )
        ecc.append(replay_transcript(run_ecc.transcript, topology, link).total_time_s)
        ss_hi.append(ss_network_seconds(n, run_dl.beta_bits, topology, link, "batched"))
        ss_lo.append(ss_network_seconds(n, run_dl.beta_bits, topology, link, "interaction"))
        # TCP framing (≈640 bits/message) barely moves the big-message
        # frameworks but visibly taxes the SS baseline's message counts.
        tcp = link.with_tcp_overhead()
        ss_lo_tcp.append(
            ss_network_seconds(n, run_dl.beta_bits, topology, tcp, "interaction")
        )
    return ns, {
        "SS-batched": ss_hi,
        "SS-interact": ss_lo,
        "SS-int+tcp": ss_lo_tcp,
        "DL-1024": dl,
        "ECC-160": ecc,
    }


def test_fig3b_series(series, benchmark):
    ns, columns = series
    from repro.analysis.ascii_chart import render_chart

    table = format_series_table(
        "FIG-3b: networked execution time (s) vs n  [80 nodes, 320 edges, "
        "2 Mbps, 50 ms]",
        "n", ns, columns,
    )
    chart = render_chart("FIG-3b (log y): time vs n", ns, columns)
    print("\n" + table + "\n\n" + chart)
    write_result("fig3b_network", table + "\n\n" + chart)

    # Timed kernel: replay the smallest ECC transcript once.
    params = {k: v for k, v in PAPER_DEFAULTS.items() if k != "n"}
    topology = paper_topology(SeededRNG(17))
    topology.place_parties(list(range(ns[0] + 1)), SeededRNG(18))
    run = counting_run_for_family(
        "ECC", 80, n=ns[0], **params
    )
    benchmark(lambda: replay_transcript(run.transcript, topology))

    # Robust shape claims:
    # 1. ECC fastest at every n (smaller ciphertexts, same structure).
    for dl_time, ecc_time in zip(columns["DL-1024"], columns["ECC-160"]):
        assert ecc_time < dl_time
    # 2. Times grow superlinearly for the transcript-replayed frameworks.
    for family in ("DL-1024", "ECC-160", "SS-batched"):
        first, last = columns[family][0], columns[family][-1]
        assert last / first > (ns[-1] / ns[0]) * 1.2, family
    # 3. DL pays a constant ciphertext-size factor over ECC (≈ 2048/336),
    #    visible as a ratio comfortably above 2 at every point.
    for dl_time, ecc_time in zip(columns["DL-1024"], columns["ECC-160"]):
        assert dl_time / ecc_time > 2
    # 4. The two SS models bracket: interaction-bound below, full-traffic
    #    above; the paper's measured SS curve lies between them (it beats
    #    DL at small n — as SS-interact does — and loses at large n — as
    #    SS-batched does).
    for hi, lo in zip(columns["SS-batched"], columns["SS-interact"]):
        assert lo < hi
    for n, lo, dl_time in zip(ns, columns["SS-interact"], columns["DL-1024"]):
        if n >= 10:  # the paper's smallest plotted point
            assert lo < dl_time, (n, lo, dl_time)
    # 5. TCP framing taxes the message-heavy SS baseline.
    for lo, lo_tcp in zip(columns["SS-interact"], columns["SS-int+tcp"]):
        assert lo_tcp > lo
