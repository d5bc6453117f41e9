"""End-to-end tests of the asyncio loopback socket transport.

The transport's contract is *transcript equivalence*: a distributed run
(one OS process per party, real TCP sockets, event-driven delivery)
must produce the same protocol outcome AND the same wire-level
accounting as the lockstep in-process engine — same ranks, same betas,
same per-channel payload digests, same payload byte counts, same group
operation counts.  Only envelope attribution may differ (see
``TestEquivalence.test_wire_messages_differ_by_attribution_only``).

Fault injection, crash recovery, and kill-with-rejoin run over the real
sockets here: parties die as OS processes and rejoin over fresh
connections from their durable checkpoints.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from repro.core.framework import FrameworkConfig, GroupRankingFramework
from repro.core.gain import AttributeSchema, InitiatorInput
from repro.groups.dl import DLGroup
from repro.math.rng import SeededRNG
from repro.runtime.errors import PartyTimeout
from repro.runtime.faults import FaultSpec
from repro.runtime.transport import coordinator, frames
from repro.runtime.transport.coordinator import run_distributed
from repro.runtime.transport.deadlines import WallClockSupervisor
from repro.runtime.transport.frames import TransportError, TransportSettings
from repro.runtime.transport.launcher import Launcher
from tests.conftest import make_participants

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Equivalence cohort size — large enough that coalescing, interning
#: and round scheduling all diverge from the trivial case.
N_EQUIV = 16
N_FAULT = 4


def _schema():
    return AttributeSchema(
        names=("age", "pressure", "friends", "income"),
        num_equal=2,
        value_bits=6,
        weight_bits=4,
    )


def build(group, n, seed=7, **overrides):
    schema = _schema()
    initiator_input = InitiatorInput.create(
        schema, criterion=[35, 20, 0, 0], weights=[3, 5, 2, 7]
    )
    config_kwargs = dict(
        group=group, schema=schema, num_participants=n, k=2, rho_bits=6,
        wire="measured",
    )
    config_kwargs.update(overrides)
    config = FrameworkConfig(**config_kwargs)
    return GroupRankingFramework(
        config, initiator_input, make_participants(schema, n, seed=19),
        rng=SeededRNG(seed),
    )


# -- transcript equivalence: engine vs sockets at n=16 -----------------------

@pytest.fixture(scope="module")
def equiv(small_dl_group):
    """One in-process run and one socket run over identical inputs.

    Module-scoped: the pair costs tens of seconds on a small box, and
    every assertion below reads from the same two results.
    """
    inproc = build(small_dl_group, N_EQUIV).run()
    framework = build(small_dl_group, N_EQUIV)
    tcp = run_distributed(
        framework, settings=TransportSettings(timeout_s=180.0)
    )
    return inproc, tcp


class TestEquivalence:
    def test_ranks_equal(self, equiv):
        inproc, tcp = equiv
        assert tcp.ranks == inproc.ranks

    def test_betas_equal(self, equiv):
        inproc, tcp = equiv
        assert tcp.betas == inproc.betas

    def test_selected_ids_equal(self, equiv):
        inproc, tcp = equiv
        assert tcp.selected_ids() == inproc.selected_ids()

    def test_canonical_digest_equal(self, equiv):
        """The order-independent fingerprint over per-channel payload
        streams: byte-for-byte identical encodings on every directed
        channel, however delivery was scheduled."""
        inproc, tcp = equiv
        assert tcp.wire_stats.canonical_digest == \
            inproc.wire_stats.canonical_digest

    def test_every_channel_digest_equal(self, equiv):
        inproc, tcp = equiv
        assert tcp.wire_stats.channel_digests == \
            inproc.wire_stats.channel_digests
        assert len(tcp.wire_stats.channel_digests) > 0

    def test_payload_accounting_equal(self, equiv):
        inproc, tcp = equiv
        assert tcp.wire_stats.payload_bits == inproc.wire_stats.payload_bits
        assert tcp.wire_stats.logical_messages == \
            inproc.wire_stats.logical_messages

    def test_group_operation_counts_equal(self, equiv):
        """Every party does the same crypto work in both runtimes."""
        inproc, tcp = equiv
        assert set(tcp.metrics) == set(inproc.metrics)
        for pid in inproc.metrics:
            assert tcp.metrics[pid].ops.equivalent_multiplications == \
                inproc.metrics[pid].ops.equivalent_multiplications, pid

    def test_wire_messages_differ_by_attribution_only(self, equiv):
        """Coalescing batches per (dst, round) using each runtime's own
        round clock; party-local rounds on sockets are numbered
        differently from engine global rounds, so *envelope* counts are
        the one legitimately runtime-dependent statistic — the same
        exclusion class as ``wire_bits`` (which includes per-envelope
        AEAD overhead) and the submit-order ``digest``.  The payload
        bytes inside the envelopes are identical (asserted above)."""
        inproc, tcp = equiv
        assert tcp.wire_stats.wire_messages > 0
        assert inproc.wire_stats.wire_messages > 0
        # Both coalesce: far fewer envelopes than logical messages.
        assert tcp.wire_stats.wire_messages < tcp.wire_stats.logical_messages

    def test_no_recovery_needed(self, equiv):
        _, tcp = equiv
        assert tcp.attempts == 1
        assert tcp.excluded == []
        assert tcp.rejoins == 0


# -- framework dispatch ------------------------------------------------------

class TestDispatch:
    def test_framework_run_dispatches_on_config(self, small_dl_group):
        """``transport='tcp'`` in the config routes ``framework.run()``
        through the socket coordinator — same entry point as inproc."""
        framework = build(small_dl_group, N_FAULT, transport="tcp")
        baseline = build(small_dl_group, N_FAULT).run()
        result = framework.run()
        assert result.ranks == baseline.ranks

    def test_tcp_rejects_sharding(self, small_dl_group):
        with pytest.raises(ValueError, match="sharded"):
            build(small_dl_group, 8, transport="tcp", shard_size=4)

    def test_tcp_rejects_workers(self, small_dl_group):
        with pytest.raises(ValueError, match="workers"):
            build(small_dl_group, N_FAULT, transport="tcp", workers=2)

    def test_live_injector_rejected(self, small_dl_group):
        """Only FaultSpec lists cross process boundaries."""
        framework = build(small_dl_group, N_FAULT)
        with pytest.raises(ValueError, match="FaultSpec"):
            run_distributed(framework, object())


# -- faults over real sockets ------------------------------------------------

def fault_build(group, **overrides):
    kwargs = dict(recovery=True, timeout_rounds=3, max_retries=2)
    kwargs.update(overrides)
    return build(group, N_FAULT, **kwargs)


@pytest.fixture(scope="module")
def fault_baseline(small_dl_group):
    return fault_build(small_dl_group).run().ranks


class TestFaults:
    SETTINGS = TransportSettings(timeout_s=30.0)

    def test_crash_blames_and_recovers(self, small_dl_group, fault_baseline):
        framework = fault_build(small_dl_group)
        result = run_distributed(
            framework,
            [FaultSpec(kind="crash", party=3, phase="comparison")],
            settings=self.SETTINGS,
        )
        assert result.attempts == 2
        assert result.excluded == [3]
        assert 3 not in result.ranks

    def test_crash_without_recovery_raises_typed_timeout(self, small_dl_group):
        framework = fault_build(small_dl_group, recovery=False)
        with pytest.raises(PartyTimeout) as excinfo:
            run_distributed(
                framework,
                [FaultSpec(kind="crash", party=2, phase="chain")],
                settings=self.SETTINGS,
            )
        assert excinfo.value.blamed == 2

    def test_duplicate_healed_by_replay_suppression(self, small_dl_group,
                                                    fault_baseline):
        framework = fault_build(small_dl_group)
        result = run_distributed(
            framework,
            [FaultSpec(kind="duplicate", party=2, phase="comparison")],
            settings=self.SETTINGS,
        )
        assert result.attempts == 1
        assert result.ranks == fault_baseline

    def test_drop_healed_by_retransmit(self, small_dl_group, fault_baseline):
        framework = fault_build(small_dl_group)
        result = run_distributed(
            framework,
            [FaultSpec(kind="drop", party=2, phase="chain", count=1)],
            settings=self.SETTINGS,
        )
        assert result.attempts == 1
        assert result.ranks == fault_baseline

    def test_delay_reorders_without_harm(self, small_dl_group,
                                         fault_baseline):
        framework = fault_build(small_dl_group)
        result = run_distributed(
            framework,
            [FaultSpec(kind="delay", party=3, phase="comparison",
                       delay_rounds=2)],
            settings=self.SETTINGS,
        )
        assert result.attempts == 1
        assert result.ranks == fault_baseline

    def test_kill_restart_rejoins_across_process_death(self, small_dl_group,
                                                       fault_baseline):
        """The flagship recovery path: the party's OS process dies
        mid-protocol, the coordinator respawns it, and the fresh
        process replays its journal and rejoins over a new connection
        — no exclusion, no extra attempt."""
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            framework = fault_build(
                small_dl_group, checkpoint_dir=checkpoint_dir
            )
            result = run_distributed(
                framework,
                [FaultSpec(kind="kill_restart", party=2, phase="chain")],
                settings=TransportSettings(timeout_s=40.0),
            )
        assert result.attempts == 1
        assert result.rejoins == 1
        assert result.excluded == []
        assert result.ranks == fault_baseline

    @pytest.mark.parametrize("spec,rejoins", [
        (FaultSpec(kind="kill_restart", party=2, tag="beta-bits"), 1),
        (FaultSpec(kind="kill_restart", party=2, tag="tau-sets"), 1),
        (FaultSpec(kind="kill_restart", party=0, phase="keying"), 1),
        (FaultSpec(kind="kill_restart", party=2, tag="beta-bits", count=2), 2),
    ], ids=["P2-beta-bits", "P2-tau-sets", "P0-keying", "P2-beta-bits-twice"])
    def test_kill_restart_accounting_matches_the_engine(self, small_dl_group,
                                                        spec, rejoins):
        """A rejoined party reports its whole run, not only its second
        life: every party's metrics equal those of an in-process run with
        the same fault and a checkpoint dir.  A second death at the
        go-live send is a second rejoin under both schedulers."""
        results = []
        for transport in ("inproc", "tcp"):
            with tempfile.TemporaryDirectory() as checkpoint_dir:
                framework = fault_build(
                    small_dl_group, checkpoint_dir=checkpoint_dir
                )
                if transport == "tcp":
                    results.append(run_distributed(
                        framework, [spec], settings=self.SETTINGS
                    ))
                else:
                    results.append(framework.run(faults=[spec]))
        inproc, tcp = results
        assert inproc.rejoins == tcp.rejoins == rejoins
        assert tcp.ranks == inproc.ranks
        assert _accounting(tcp) == _accounting(inproc)


#: OperationCounter fields that differ between runtimes even without a
#: fault: each party process keeps its own membership memo, and the
#: engine also tallies the membership checks of its transcode.
RUNTIME_DEPENDENT_OPS = ("membership_checks", "membership_cache_hits")


def _accounting(result):
    """Every PartyMetrics field of every party, op counter included."""
    out = {}
    for pid, metrics in result.metrics.items():
        fields = dataclasses.asdict(metrics)
        for name, value in fields.pop("ops").items():
            if name not in RUNTIME_DEPENDENT_OPS:
                fields["ops." + name] = value
        out[pid] = fields
    return out


# -- the party launcher ------------------------------------------------------

#: Written as ``sitecustomize.py`` into a directory on the launcher's
#: ``PYTHONPATH``: every fork after the first ``FORKS`` fails the way it
#: does on a host out of processes.
_FAILING_FORK = """\
import errno
import os

FORKS = {forks}
_fork, _done = os.fork, []


def _failing_fork():
    if len(_done) >= FORKS:
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    _done.append(None)
    return _fork()


os.fork = _failing_fork
"""

#: How many forks succeed in each fork-failure scenario: the third fork
#: is party 2's first life, the sixth its kill_restart respawn.
FORK_BUDGETS = {"fork-failure": 2, "respawn-fork-failure": N_FAULT + 1}


def _running(pid):
    """Whether ``pid`` still runs; a zombie has exited and does not."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _lifecycle_probe(scenario):
    """Run one scenario, then report what is left of its processes.

    Runs in a fresh interpreter (see :func:`_probe`), so the only child
    this process ever had is the run's launcher and ``os.waitpid(-1)``
    speaks for the run alone."""
    spawned = []
    launcher_codes = []
    spawn, close = Launcher.spawn, Launcher.close

    def recording_spawn(self, *args, **kwargs):
        handle = spawn(self, *args, **kwargs)
        spawned.append(handle)
        return handle

    async def recording_close(self):
        code = await close(self)
        launcher_codes.append(code)
        return code

    Launcher.spawn = recording_spawn
    Launcher.close = recording_close
    group = DLGroup.random(48, rng=SeededRNG(101))
    settings = TransportSettings(timeout_s=40.0)
    scratch = tempfile.TemporaryDirectory()  # removed at exit
    runs = {
        "success": lambda: run_distributed(
            build(group, N_FAULT), settings=settings),
        "recovering": lambda: run_distributed(
            fault_build(group), settings=settings),
        "timeout": lambda: run_distributed(
            fault_build(group, recovery=False),
            [FaultSpec(kind="crash", party=2, phase="chain")],
            settings=settings),
        "rejoin": lambda: run_distributed(
            fault_build(group, checkpoint_dir=os.path.join(
                scratch.name, "checkpoints")),
            [FaultSpec(kind="kill_restart", party=2, phase="chain")],
            settings=settings),
    }
    runs["launcher-death"] = runs["fork-failure"] = runs["recovering"]
    runs["respawn-fork-failure"] = runs["rejoin"]
    if scenario == "launcher-death":
        route = coordinator._Attempt._route_msg
        killed = []

        def route_then_kill_launcher(attempt, *args):
            if not killed:
                killed.append(attempt.launcher.pid)
                os.kill(attempt.launcher.pid, signal.SIGKILL)
            return route(attempt, *args)

        coordinator._Attempt._route_msg = route_then_kill_launcher
    elif scenario in FORK_BUDGETS:
        hooks = os.path.join(scratch.name, "hooks")
        os.mkdir(hooks)
        with open(os.path.join(hooks, "sitecustomize.py"), "w") as stream:
            stream.write(_FAILING_FORK.format(forks=FORK_BUDGETS[scenario]))
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [hooks, os.environ["PYTHONPATH"]]
        )
    started = time.monotonic()
    blamed = None
    try:
        result = runs[scenario]()
        outcome = f"attempts={result.attempts} rejoins={result.rejoins}"
    except (PartyTimeout, TransportError) as exc:
        outcome = f"{type(exc).__name__}: {exc}"
        blamed = getattr(exc, "blamed", None)
    elapsed_s = time.monotonic() - started
    try:
        os.waitpid(-1, os.WNOHANG)
        children_left = True
    except ChildProcessError:
        children_left = False
    pids = [handle.pid for handle in spawned]
    if scenario == "launcher-death":
        # The dead launcher's parties are orphans, no child of ours:
        # give them a few ticks to see the coordinator hang up.
        give_up = time.monotonic() + 10 * settings.tick_s
        while (any(_running(pid) for pid in pids if pid is not None)
               and time.monotonic() < give_up):
            time.sleep(settings.tick_s / 10)
    return {
        "outcome": outcome,
        "blamed": blamed,
        "elapsed_s": elapsed_s,
        "launcher_codes": launcher_codes,
        "party_pids": pids,
        "party_returncodes": [handle.returncode for handle in spawned],
        "still_running": [pid for pid in pids
                          if pid is not None and _running(pid)],
        "children_left": children_left,
    }


def _probe(scenario):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    code = ("import json, sys; from tests.test_transport import "
            "_lifecycle_probe; print(json.dumps(_lifecycle_probe(sys.argv[1])))")
    completed = subprocess.run(
        [sys.executable, "-c", code, scenario], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


class TestLauncher:
    @pytest.mark.parametrize("scenario, outcome, blamed, spawns", [
        ("success", "attempts=1 rejoins=0", None, N_FAULT + 1),
        ("timeout", "PartyTimeout: ", 2, N_FAULT + 1),
        ("rejoin", "attempts=1 rejoins=1", None, N_FAULT + 2),
    ])
    def test_every_process_reaped_when_run_returns(self, scenario, outcome,
                                                   blamed, spawns):
        """One launcher per run; once ``run_distributed`` returns or
        raises, it and every party it forked (the killed first life of
        a rejoined party included) have exited and been reaped."""
        report = _probe(scenario)
        assert report["outcome"].startswith(outcome)
        assert report["blamed"] == blamed
        assert report["launcher_codes"] == [0]
        assert len(report["party_pids"]) == spawns
        assert None not in report["party_pids"]
        assert None not in report["party_returncodes"]
        assert report["still_running"] == []
        assert report["children_left"] is False

    def test_launcher_death_fails_the_attempt(self):
        """SIGKILL the launcher on the first relayed message: the attempt
        ends with a typed TransportError, which recovery does not retry,
        well before any deadline, instead of waiting on parties nobody
        can reap or respawn.  The orphaned parties exit on their own."""
        report = _probe("launcher-death")
        assert report["outcome"].startswith("TransportError: party launcher")
        assert "exited mid-run" in report["outcome"]
        assert report["elapsed_s"] < 40.0
        assert report["launcher_codes"] == [-signal.SIGKILL]
        assert len(report["party_pids"]) == N_FAULT + 1
        assert None not in report["party_pids"]
        assert report["still_running"] == []
        assert report["children_left"] is False

    @pytest.mark.parametrize("scenario", sorted(FORK_BUDGETS))
    def test_fork_failure_fails_the_attempt(self, scenario):
        """A fork the host refuses is no party's fault: under recovery
        the run fails at once with a TransportError, rather than
        excluding the party (first life) or waiting out the deadline
        for a rejoin that cannot come (respawn)."""
        report = _probe(scenario)
        assert report["outcome"].startswith("TransportError: party launcher")
        assert "cannot fork a party" in report["outcome"]
        assert report["elapsed_s"] < 40.0
        assert report["launcher_codes"] == [0]
        forked = report["party_pids"][:FORK_BUDGETS[scenario]]
        assert None not in forked
        assert set(report["party_pids"][len(forked):]) == {None}
        assert report["still_running"] == []
        assert report["children_left"] is False


class TestStartupBarrier:
    def test_no_message_overtakes_a_spec(self, small_dl_group, monkeypatch):
        """The coordinator may be descheduled just after the startup
        barrier falls, while a party that has its SPEC already sends.
        Every party must still get its SPEC before any peer's MSG;
        otherwise its handshake reads a MSG and it dies at start-up."""
        send = coordinator._Connection.send
        stalled = []

        def send_then_stall(connection, data):
            send(connection, data)
            if data[4] == frames.SPEC and not stalled:
                stalled.append(connection.pid)
                time.sleep(0.5)

        monkeypatch.setattr(coordinator._Connection, "send", send_then_stall)
        result = run_distributed(build(small_dl_group, N_FAULT),
                                 settings=TransportSettings(timeout_s=30.0))
        assert stalled
        assert result.ranks == build(small_dl_group, N_FAULT).run().ranks


# -- wall-clock deadlines ----------------------------------------------------

class TestWallClockDeadline:
    def test_overdue_only_after_deadline_without_progress(self):
        """P0 waits on P1 while others' messages are routed: each routed
        message restarts the wait's clock, so it expires only ``deadline``
        seconds after the last progress, and then blames P1."""
        supervisor = WallClockSupervisor(6.0)
        supervisor.note_blocked(0, 1, "submit", "submission", 0.0)
        supervisor.note_progress(5.0)
        supervisor.note_progress(10.0)
        assert supervisor.check(10.5) is None
        assert supervisor.check(15.9) is None
        timeout = supervisor.check(16.0)
        assert isinstance(timeout, PartyTimeout)
        assert timeout.blamed == 1
        assert timeout.phase == "submission"
        assert timeout.waiting == {0: "submit"}

    def test_overdue_after_deadline_with_no_progress_at_all(self):
        supervisor = WallClockSupervisor(6.0)
        supervisor.note_progress(1.0)
        supervisor.note_blocked(0, 1, "submit", "submission", 2.0)
        assert supervisor.check(7.9) is None
        assert supervisor.check(8.0).blamed == 1

    def test_progress_does_not_hide_a_crashed_party(self):
        """Blame priority is unchanged: a wait on a dead, non-restarting
        party fails at once, whatever else is moving."""
        supervisor = WallClockSupervisor(6.0)
        supervisor.note_blocked(0, 1, "submit", "submission", 0.0)
        supervisor.note_crashed(3, "chain")
        supervisor.note_progress(0.5)
        assert supervisor.check(1.0) is None
        supervisor.note_blocked(2, 3, "chain", "chain", 1.0)
        timeout = supervisor.check(1.0)
        assert timeout.blamed == 3
        assert timeout.phase == "chain"


# -- graceful shutdown -------------------------------------------------------

class TestGracefulShutdown:
    def test_sigint_mid_run_exits_130(self, tmp_path):
        """Ctrl-C semantics: the whole process group gets SIGINT,
        parties write a final checkpoint and close their sockets
        cleanly, and the CLI reports an interruption (exit 130), not a
        blame verdict against whichever party said BYE first."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        checkpoints = tmp_path / "checkpoints"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "demo", "--participants", "8",
             "--seed", "7", "--transport", "tcp",
             "--listen", "127.0.0.1:0", "--checkpoint-dir", str(checkpoints)],
            cwd=str(tmp_path), env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            # Signal once the run is observably in flight: a party has
            # its spec and has opened its journal.
            deadline = time.monotonic() + 120
            while not list(checkpoints.glob("attempt-*/party-*/journal.log")):
                assert process.poll() is None, "run ended before any journal"
                assert time.monotonic() < deadline, "no party journal appeared"
                time.sleep(0.005)
            os.killpg(os.getpgid(process.pid), signal.SIGINT)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                os.killpg(os.getpgid(process.pid), signal.SIGKILL)
                process.wait()
        assert process.returncode == 130, output
        assert "interrupted" in output
