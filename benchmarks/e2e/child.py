"""One rep of the end-to-end benchmark, in a fresh process.

    python3 benchmarks/e2e/child.py --workload NAME --seed S
        [--setup-only | --reference] [--trace] [--quick]

Prints one JSON record as its last line of output.  ``setup_s`` runs
from this module's first statement (imports, group derivation and
verification, config validation, input generation, building the
framework) to just before ``run()``; ``--setup-only`` stops there.  A
ranking rep then times ``run()``, checks its output and reports its
ranks and payload digest.

Every timing is reported at a nominal host speed.  On a shared host
the speed one process gets drifts by tens of percent within a minute,
so the child also times a fixed kernel that calls none of the
repository's code (``host_kernel``), right after set-up and again
after ``run()``, and scales its wall-clock and CPU seconds by
``NOMINAL_KERNEL_S`` over the kernel's median time.  A change to the
program moves only the measured side; host drift moves both.  The raw
seconds and the kernel's time are in the record too.

With ``--trace`` the child also reports the per-layer metrics of the
traced run and writes its coarse spans to
``benchmarks/e2e/.work/spans-<workload>.jsonl``.  ``--reference``
runs, untimed, the fault-free in-process instance of the seed that
every rep of the workload must agree with.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
WORK_DIR = Path(__file__).resolve().parent / ".work"
sys.path.insert(0, str(ROOT / "src"))

from repro.math import backend  # noqa: E402
from repro.math.rng import SeededRNG  # noqa: E402
from workloads import WORKLOADS, check_rep, fault_plan, make_framework  # noqa: E402

_KERNEL_SMALL_MODULUS = (1 << 48) - 59
_KERNEL_LARGE_MODULUS = (1 << 1024) - 105
#: Kernel runs right after set-up, and again after ``run()`` in a
#: ranking child.
KERNEL_ROUNDS = 3
#: The kernel's time on a quiet 2-core Xeon VM; reported timings are
#: what the host would have measured running at that speed.
NOMINAL_KERNEL_S = 0.025


def host_kernel() -> int:
    """A fixed CPU-bound mix of what the workloads spend their time on:
    dict updates and calls in the interpreter, 48-bit and 1024-bit
    modular powers.  About 25 ms on a quiet host."""
    table, acc = {}, 0
    for i in range(5000):
        table[i % 997] = table.get(i % 997, 0) ^ i
        acc = (acc + pow(i | 1, 65537, _KERNEL_SMALL_MODULUS)) % _KERNEL_SMALL_MODULUS
    for base in range(2, 5):
        acc ^= pow(base + acc, _KERNEL_LARGE_MODULUS - 2, _KERNEL_LARGE_MODULUS)
    return acc


def kernel_times() -> list:
    times = []
    for _ in range(KERNEL_ROUNDS):
        start = time.perf_counter()
        host_kernel()
        times.append(time.perf_counter() - start)
    return times


def wan_comm_s(result, n: int) -> float:
    """Predicted communication time of the run's transcript over the
    paper's Fig. 3b deployment (2 Mbps, 50 ms links)."""
    from repro.netsim import LinkConfig, paper_topology, replay_transcript

    topology = paper_topology(SeededRNG(7))
    topology.place_parties(list(range(n + 1)), SeededRNG(8))
    return replay_transcript(result.transcript, topology, LinkConfig()).total_time_s


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def directory_bytes(path) -> int:
    if path is None:
        return 0
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def outcome(workload, framework, result) -> dict:
    """What a rep produced: ranks, payload digest, round-clocked metrics
    and the problems its own checks find.

    tcp stamps transcript rounds with party-local clocks at relay time,
    so a tcp rep leaves ``rounds`` and ``wan_comm_s`` to the lockstep
    reference run of its seed, whose digest it must match."""
    lockstep = workload.transport != "tcp"
    return {
        "transport": workload.transport,
        "ranks": {str(pid): rank for pid, rank in sorted(result.ranks.items())},
        "digest": result.wire_stats.canonical_digest,
        "rounds": result.rounds if lockstep else None,
        "wan_comm_s": wan_comm_s(result, workload.n) if lockstep else None,
        "problems": check_rep(workload, framework, result),
    }


def layer_metrics(tracer, framework, result, workload, checkpoint_bytes,
                  coordinator_cpu_s, parties_cpu_s):
    """Traced per-layer metrics plus the ones read off the result."""
    metrics = tracer.metrics()
    ops = [m.ops for m in result.metrics.values()]
    checks = sum(op.membership_checks for op in ops)
    stats = result.wire_stats
    tcp = workload.transport == "tcp"
    supervisor = getattr(framework, "last_supervisor", None)
    metrics.update({
        "groups.membership_hit_ratio": (
            sum(op.membership_cache_hits for op in ops) / checks if checks else 0.0
        ),
        "runtime.engine.rounds": 0 if tcp else result.rounds,
        "runtime.channels.coalesce_ratio": (
            stats.logical_messages / stats.wire_messages
            if stats.wire_messages else 0.0
        ),
        "runtime.checkpoint.bytes_on_disk": checkpoint_bytes,
        "runtime.supervisor.retransmits": getattr(supervisor, "retransmits", 0),
        "runtime.supervisor.rejoins": result.rejoins,
        "runtime.supervisor.attempts": result.attempts,
        "runtime.transport.coordinator_cpu_s": coordinator_cpu_s if tcp else 0.0,
        "runtime.transport.parties_cpu_s": parties_cpu_s if tcp else 0.0,
    })
    return metrics


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.quick:
        workload = workload.quick()
    if args.reference:
        reference = workload.reference()
        framework = make_framework(reference, args.seed)
        print(json.dumps(dict(outcome(reference, framework, framework.run()),
                              backend=backend.active_backend_name())))
        return
    checkpoint_dir = None
    if workload.recovery:
        WORK_DIR.mkdir(exist_ok=True)
        checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-", dir=WORK_DIR)
    try:
        framework = make_framework(workload, args.seed, checkpoint_dir=checkpoint_dir)
        setup_wall_s = time.perf_counter() - STARTED
        kernel_before = kernel_times()
        if args.setup_only:
            kernel_s = statistics.median(kernel_before)
            print(json.dumps({
                "setup_s": setup_wall_s * NOMINAL_KERNEL_S / kernel_s,
                "setup_wall_s": setup_wall_s, "kernel_ms": kernel_s * 1e3,
            }))
            return
        tracer = None
        if args.trace:
            from layers import LayerTracer

            tracer = LayerTracer()
            tracer.install()
            tracer.start()
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        result = framework.run(fault_plan(workload))
        ranking_wall_s = time.perf_counter() - start
        self_after = resource.getrusage(resource.RUSAGE_SELF)
        children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if tracer is not None:
            tracer.uninstall()
        kernel_s = statistics.median(kernel_before + kernel_times())
        scale = NOMINAL_KERNEL_S / kernel_s
        coordinator_cpu_s = cpu_seconds(self_after) - cpu_seconds(self_before)
        parties_cpu_s = cpu_seconds(children_after) - cpu_seconds(children_before)
        cpu_raw_s = coordinator_cpu_s + parties_cpu_s
        checkpoint_bytes = directory_bytes(checkpoint_dir)
        record = dict(
            outcome(workload, framework, result),
            setup_s=setup_wall_s * scale,
            ranking_s=ranking_wall_s * scale,
            cpu_s=cpu_raw_s * scale,
            peak_rss_mb=max(self_after.ru_maxrss, children_after.ru_maxrss) / 1024,
            max_participant_mults=result.max_participant_multiplications(),
            wire_bytes=result.wire_stats.wire_bytes,
            payload_bits=result.wire_stats.payload_bits,
            setup_wall_s=setup_wall_s,
            ranking_wall_s=ranking_wall_s,
            cpu_raw_s=cpu_raw_s,
            kernel_ms=kernel_s * 1e3,
        )
        if tracer is not None:
            record["layers"] = layer_metrics(
                tracer, framework, result, workload, checkpoint_bytes,
                coordinator_cpu_s, parties_cpu_s,
            )
            WORK_DIR.mkdir(exist_ok=True)
            tracer.write_spans(str(WORK_DIR / f"spans-{args.workload}.jsonl"))
        print(json.dumps(record))
    finally:
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
