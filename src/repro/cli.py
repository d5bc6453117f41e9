"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — run the full framework on synthetic inputs and print the
  ranking, the initiator's selection, and the protocol costs.
* ``games`` — run the executable security games (IND-CPA + both
  framework ablation attacks) and print advantages.
* ``netsim`` — run the framework, replay its transcript over the paper's
  topology, and print the communication timing.
* ``curves`` — verify and list the bundled group parameters.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput, ParticipantInput
from repro.math.rng import SeededRNG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy Preserving Group Ranking (ICDCS 2012) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the framework on synthetic inputs")
    demo.add_argument("-n", "--participants", type=int, default=6)
    demo.add_argument("-k", "--top", type=int, default=2)
    demo.add_argument("-m", "--attributes", type=int, default=4)
    demo.add_argument("--seed", type=int, default=1)
    demo.add_argument("--group", choices=["test", "secp160r1", "dl1024"],
                      default="test")
    demo.add_argument("--zkp", choices=["interactive", "fiat-shamir"],
                      default="interactive")
    demo.add_argument("--batch-verify", action="store_true",
                      help="fold proof checks into one multi-exponentiation")
    demo.add_argument("--bit-proofs", action="store_true",
                      help="publish per-bit validity proofs (malicious model)")
    demo.add_argument("--shard-size", default="0", metavar="S",
                      help="hierarchical mode: run phase 2 in shards of ~S "
                           "members plus a champion-aggregation round "
                           "(0 = flat protocol; 'auto' picks S = max(2, k), "
                           "or flat where no such shard plan runs)")
    demo.add_argument("--transport", choices=["inproc", "tcp"],
                      default="inproc",
                      help="inproc runs the lockstep engine in this process; "
                           "tcp spawns one OS process per party over asyncio "
                           "loopback sockets (same values and op counts, "
                           "real wall-clock overlap)")
    demo.add_argument("--listen", default=None, metavar="HOST:PORT",
                      help="with --transport tcp: coordinator bind address "
                           "(default 127.0.0.1 with an ephemeral port)")
    demo.add_argument("--chunk-sets", type=int, default=0, metavar="C",
                      help="pipeline the shuffle chain in chunks of C "
                           "ciphertext sets (0 = send the whole vector)")
    _add_backend_flag(demo)
    _add_checkpoint_flags(demo)
    demo.set_defaults(parser=demo)

    games = sub.add_parser("games", help="run the security games")
    games.add_argument("--trials", type=int, default=16)

    netsim = sub.add_parser("netsim", help="replay a run over the paper network")
    netsim.add_argument("-n", "--participants", type=int, default=6)
    netsim.add_argument("--seed", type=int, default=1)
    netsim.add_argument("--shard-size", default="0", metavar="S",
                        help="hierarchical mode: shard phase 2 into groups "
                             "of ~S members (0 = flat protocol; 'auto' picks "
                             "S = max(2, k), or flat where no such shard "
                             "plan runs)")
    _add_backend_flag(netsim)
    _add_checkpoint_flags(netsim)
    netsim.set_defaults(parser=netsim)

    sub.add_parser("curves", help="verify and list bundled group parameters")

    sub.add_parser("report", help="print all recorded benchmark results")

    plan = sub.add_parser("plan", help="estimate a deployment's cost at scale")
    plan.add_argument("-n", "--participants", type=int, default=25)
    plan.add_argument("-m", "--attributes", type=int, default=10)
    plan.add_argument("--family", choices=["DL", "ECC"], default="ECC")
    plan.add_argument("--level", type=int, choices=[80, 112, 128], default=80)
    plan.add_argument("--network", action="store_true",
                      help="include network time on the reference topology")
    return parser


def _add_backend_flag(command: argparse.ArgumentParser) -> None:
    from repro.math import backend as arith_backend

    command.add_argument(
        "--backend", choices=arith_backend.backend_choices(), default="auto",
        help="arithmetic backend: auto (default; gmpy2 when installed, else "
             "gmp when libgmp loads, else pure python), gmp, gmpy2, or "
             "python — transcript-equivalent, changes speed only",
    )


def _add_checkpoint_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist durable per-party protocol state (encrypted at "
             "rest) under DIR; enables kill-and-rejoin recovery and "
             "--resume",
    )
    command.add_argument(
        "--resume", action="store_true",
        help="resume a run whose process died, from the durable state "
             "in --checkpoint-dir (phase-1 work is not redone when "
             "every participant's β survived)",
    )


def _print_wire_stats(result, out) -> None:
    stats = result.wire_stats
    print(f"wire: {stats.wire_messages} wire messages / "
          f"{stats.logical_messages} logical   "
          f"{stats.wire_bytes / 1e6:.3f} MB on the wire", file=out)
    # The canonical digest hashes per-channel payload streams, so it is
    # identical between in-process and tcp-transport runs.
    print(f"wire digest: {stats.canonical_digest[:16]}…", file=out)


def _resolve_shard_size(value, n: int, k: int, transport: str = "inproc") -> int:
    """Parse a ``--shard-size`` value (``auto``: :func:`auto_shard_size`,
    or flat over tcp, which does not run the sharded hierarchy)."""
    text = str(value).strip().lower()
    if text != "auto":
        return int(text)
    if transport == "tcp":
        return 0
    from repro.sharding.partition import auto_shard_size

    return auto_shard_size(n, k)


def _config(args, **fields) -> FrameworkConfig:
    """The run's config.  A combination the config rejects is a usage
    error: argparse's one error line on stderr and exit status 2, as for
    a bad flag, without the usage block or a traceback."""
    try:
        return FrameworkConfig(**fields)
    except ValueError as error:
        args.parser.exit(2, f"{args.parser.prog}: error: {error}\n")


def _make_group(name: str):
    from repro.groups.params import make_dl_group, make_ecc_group, make_test_group

    if name == "test":
        return make_test_group()
    if name == "secp160r1":
        return make_ecc_group("secp160r1")
    if name == "dl1024":
        return make_dl_group(1024)
    raise ValueError(name)


def _synthetic_instance(n: int, m: int, seed: int):
    rng = SeededRNG(seed)
    schema = AttributeSchema(
        names=tuple(f"attr{i}" for i in range(m)),
        num_equal=m // 2,
        value_bits=6,
        weight_bits=4,
    )
    initiator = InitiatorInput.create(
        schema,
        [rng.randrange(64) for _ in range(m)],
        [rng.randrange(16) for _ in range(m)],
    )
    participants = [
        ParticipantInput.create(schema, [rng.randrange(64) for _ in range(m)])
        for _ in range(n)
    ]
    return schema, initiator, participants


def cmd_demo(args, out) -> int:
    schema, initiator, participants = _synthetic_instance(
        args.participants, args.attributes, args.seed
    )
    group = _make_group(args.group)
    shard_size = _resolve_shard_size(
        args.shard_size, args.participants, args.top, args.transport
    )
    if str(args.shard_size).strip().lower() == "auto":
        print(f"shard-size auto: {shard_size or 'flat (0)'} for "
              f"n={args.participants}, k={args.top}", file=out)
    config = _config(
        args,
        group=group,
        schema=schema,
        num_participants=args.participants,
        k=args.top,
        rho_bits=8,
        zkp_mode=args.zkp,
        batch_verify=args.batch_verify,
        bit_proofs=args.bit_proofs,
        stream_chunk_sets=args.chunk_sets,
        backend=args.backend,
        checkpoint_dir=args.checkpoint_dir,
        shard_size=shard_size,
        transport=args.transport,
    )
    framework = GroupRankingFramework(
        config, initiator, participants, rng=SeededRNG(args.seed)
    )
    try:
        result = _run_framework(framework, args)
    except KeyboardInterrupt:
        print("interrupted — parties checkpointed and sockets closed",
              file=out)
        return 130
    flags = [name for name, on in (
        ("batch-verify", args.batch_verify), ("bit-proofs", args.bit_proofs),
        (f"chunk-sets={args.chunk_sets}", args.chunk_sets),
    ) if on]
    from repro.math import backend as arith_backend

    ran_backend = (arith_backend.active_backend_name()
                   if args.backend == "auto" else args.backend)
    print(f"group: {config.group.name}   n={args.participants}  k={args.top}  "
          f"l={config.beta_bits} bits  zkp={args.zkp}  backend={ran_backend}"
          + (f"  [{' '.join(flags)}]" if flags else ""), file=out)
    if getattr(result, "shard_sizes", None):
        print(f"shards: {result.shard_sizes} "
              f"(candidates: {result.candidates}, "
              f"aggregation: {result.aggregation_bits / 8e6:.2f} MB over "
              f"{result.aggregation_rounds} SS rounds)", file=out)
        print("ranks (exact for top-k, lower bounds below):",
              dict(sorted(result.ranks.items())), file=out)
    else:
        print("ranks:", dict(sorted(result.ranks.items())), file=out)
    print("selected:", result.selected_ids(),
          f"(verified: {result.initiator_output.verified})", file=out)
    print(f"rounds: {result.rounds}   messages: {len(result.transcript)}   "
          f"traffic: {result.transcript.total_bits / 8e6:.2f} MB", file=out)
    _print_wire_stats(result, out)
    print(f"max participant group-mults: "
          f"{result.max_participant_multiplications():,}", file=out)
    problems = framework.check_result(result)
    print("consistency:", "OK" if not problems else problems, file=out)
    return 0 if not problems else 1


def _run_framework(framework, args):
    """Run honoring the demo's transport flags (``--listen`` needs the
    coordinator entrypoint directly; everything else goes through
    ``framework.run``)."""
    listen = getattr(args, "listen", None)
    if getattr(args, "transport", "inproc") == "tcp" and listen:
        from repro.runtime.transport import TransportSettings
        from repro.runtime.transport.coordinator import run_distributed

        host, sep, port = listen.rpartition(":")
        if not sep:
            raise SystemExit(f"--listen expects HOST:PORT, got {listen!r}")
        settings = TransportSettings(
            host=host or "127.0.0.1", port=int(port or 0)
        )
        return run_distributed(
            framework, resume=args.resume, settings=settings
        )
    return framework.run(resume=args.resume)


def cmd_games(args, out) -> int:
    from repro.analysis.games import (
        FrameworkGame, broken_encryptor_factory, estimate_advantage,
        ind_cpa_game, tau_dictionary_attack, zero_position_attack,
    )
    from repro.groups.params import make_test_group

    group = make_test_group(40)
    print("IND-CPA (honest):",
          f"{ind_cpa_game(group, trials=args.trials * 2, rng=SeededRNG(1)):+.3f}",
          file=out)
    print("IND-CPA (broken encryptor):",
          f"{ind_cpa_game(group, encryptor=broken_encryptor_factory(), trials=args.trials, rng=SeededRNG(2)):+.3f}",
          file=out)

    schema = AttributeSchema(names=("a", "b", "c"), num_equal=1,
                             value_bits=5, weight_bits=3)
    initiator = InitiatorInput.create(schema, [10, 0, 0], [2, 3, 1])

    def advantage(attack, **flags):
        game = FrameworkGame(
            schema=schema, initiator_input=initiator,
            adversary_inputs={
                2: ParticipantInput.create(schema, [9, 5, 0]),
                3: ParticipantInput.create(schema, [12, 30, 31]),
            },
            honest_ids=[1],
            candidates=(
                ParticipantInput.create(schema, [10, 4, 2]),
                ParticipantInput.create(schema, [10, 31, 19]),
            ),
            **flags,
        )
        counter = [0]

        def trial(b, rng):
            counter[0] += 1
            framework, _ = game.run(b, seed=counter[0])
            return attack(game, framework, adversary_id=2, honest_id=1, rng=rng)

        return estimate_advantage(trial, args.trials, SeededRNG(9))

    print("gain hiding / zero-position (full):",
          f"{advantage(zero_position_attack):+.3f}", file=out)
    print("gain hiding / zero-position (no permute):",
          f"{advantage(zero_position_attack, permute=False):+.3f}", file=out)
    print("gain hiding / tau-dictionary (full):",
          f"{advantage(tau_dictionary_attack):+.3f}", file=out)
    print("gain hiding / tau-dictionary (no rerandomize):",
          f"{advantage(tau_dictionary_attack, rerandomize=False):+.3f}", file=out)
    return 0


def cmd_netsim(args, out) -> int:
    from repro.groups.params import make_test_group
    from repro.netsim import paper_topology, replay_transcript

    schema, initiator, participants = _synthetic_instance(
        args.participants, 4, args.seed
    )
    group = make_test_group()
    config = _config(
        args, group=group, schema=schema,
        num_participants=args.participants, k=2, rho_bits=8,
        backend=args.backend, checkpoint_dir=args.checkpoint_dir,
        shard_size=_resolve_shard_size(args.shard_size, args.participants, 2),
    )
    framework = GroupRankingFramework(
        config, initiator, participants, rng=SeededRNG(args.seed)
    )
    result = framework.run(resume=args.resume)
    topology = paper_topology(SeededRNG(args.seed))
    topology.place_parties(list(range(args.participants + 1)), SeededRNG(args.seed + 1))
    replay = replay_transcript(result.transcript, topology)
    print(f"topology: {topology.node_count} nodes / {topology.edge_count} edges",
          file=out)
    print(f"communication time: {replay.total_time_s:.2f} s over "
          f"{replay.rounds} rounds ({replay.total_bytes / 1e6:.2f} MB, "
          f"{replay.wire_messages} wire messages)", file=out)
    _print_wire_stats(result, out)
    return 0


def cmd_report(args, out) -> int:
    from pathlib import Path

    results_dir = Path(__file__).resolve().parent.parent.parent / "benchmarks" / "results"
    if not results_dir.is_dir():
        print("no benchmark results yet — run: pytest benchmarks/ --benchmark-only",
              file=out)
        return 1
    files = sorted(results_dir.glob("*.txt"))
    if not files:
        print("results directory is empty", file=out)
        return 1
    for path in files:
        print(f"==== {path.stem} " + "=" * max(1, 60 - len(path.stem)), file=out)
        print(path.read_text().rstrip(), file=out)
        print(file=out)
    return 0


def cmd_plan(args, out) -> int:
    from repro.analysis.planner import estimate_deployment

    estimate = estimate_deployment(
        n=args.participants,
        m=args.attributes,
        family=args.family,
        level=args.level,
        include_network=args.network,
    )
    print(estimate.summary(), file=out)
    return 0


def cmd_curves(args, out) -> int:
    from repro.groups.curves import curve_names, get_curve
    from repro.math.primes import modp_safe_prime

    for name in curve_names():
        group = get_curve(name)
        print(f"{name}: field {group.params.p.bit_length()} bits, "
              f"order {group.order.bit_length()} bits, "
              f"security ~{group.security_bits} bits — verified", file=out)
    for bits in (1024, 2048, 3072):
        modp_safe_prime(bits)
        print(f"MODP-{bits}: derived from pi and verified safe prime", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    handlers = {
        "demo": cmd_demo,
        "games": cmd_games,
        "netsim": cmd_netsim,
        "curves": cmd_curves,
        "report": cmd_report,
        "plan": cmd_plan,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":
    raise SystemExit(main())
