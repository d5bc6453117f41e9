"""The rules both schedulers share: the party driver and the blame rule.

A scripted party runs through :class:`PartyDriver` against a
hand-built rejoin plan, so every replay guard and the go-live swap are
checked without an engine or a socket; :func:`blame` is checked as a
table, two-culprit cases included.
"""

from collections import deque

import pytest

from repro.math.rng import SeededRNG
from repro.runtime.channels import Message, NextRound, Recv
from repro.runtime.checkpoint import CheckpointError, RejoinPlan
from repro.runtime.driver import PartyDriver
from repro.runtime.errors import PartyCrashed, ProtocolError
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.runtime.metrics import PartyMetrics
from repro.runtime.party import Party
from repro.runtime.supervisor import blame

ME, PEER, OTHER = 1, 0, 2


class Scripted(Party):
    """Receives ``a``, answers ``b``, pauses, then sends ``c`` (the send
    its first life died on) and waits for ``d``, with one group
    exponentiation before each send and one after ``c``."""

    def __init__(self, group):
        super().__init__(ME, SeededRNG(ME))
        self.group = group

    def protocol(self):
        first = yield from self.recv(PEER, "a")
        self.set_phase("answer")
        self.group.exp(self.group.generator(), 3)
        self.send(PEER, "b", first.payload, size_bits=8)
        yield NextRound()
        self.group.exp(self.group.generator(), 5)
        self.send(OTHER, "c", 1, size_bits=8)
        self.set_phase("wait")
        self.group.exp(self.group.generator(), 7)
        yield from self.recv(PEER, "d")


class Scheduler:
    """The scheduler's side of a send: whatever the driver lets through
    is 'on the wire'."""

    def __init__(self):
        self.driver = None
        self.wire = []

    def submit(self, src, dst, tag, payload, size_bits):
        message = self.driver.prepare_send(dst, tag, payload, size_bits, 0)
        if message is not None:
            self.wire.append((dst, tag))

    def note_phase(self, party):
        self.driver.note_phase(0)


class Journal:
    """A checkpoint manager that only records what it is asked to do."""

    def __init__(self):
        self.calls = []

    def journal_send(self, message):
        self.calls.append(("send", message.dst, message.tag))

    def finish_replay(self, party_id):
        self.calls.append(("live", party_id))

    def snapshot_party(self, party, round):
        self.calls.append(("snapshot", party.phase))


def message(tag, src=PEER, payload=5):
    return Message(src=src, dst=ME, tag=tag, payload=payload, size_bits=8,
                   round_sent=0)


def drive(party, received, sends, driver_type=PartyDriver, **kwargs):
    """A driver over ``party`` and a rejoin plan of its journal."""
    scheduler = Scheduler()
    party._engine = scheduler
    driver = scheduler.driver = driver_type(party, **kwargs)
    plan = RejoinPlan(party=party, entry="start", received=list(received),
                      sends=deque(sends))
    return driver, plan, scheduler


@pytest.fixture
def scripted(tiny_dl_group):
    return Scripted(tiny_dl_group)


class TestReplay:
    def test_goes_live_at_the_first_send_past_the_journal(self, scripted):
        driver, plan, scheduler = drive(
            scripted, [message("a")], [(PEER, "b")]
        )
        effect = driver.replay(plan)
        assert effect == Recv(src=PEER, tag="d")
        assert not driver.replaying
        # "b" reached the wire in the first life; "c" is the first live send.
        assert scheduler.wire == [(OTHER, "c")]

    def test_ops_after_go_live_land_on_the_carried_metrics(
        self, scripted, tiny_dl_group
    ):
        carried = PartyMetrics(party_id=ME)
        carried.ops.record_exp(10)  # the first life's work
        scratch = scripted.metrics
        driver, plan, _ = drive(
            scripted, [message("a")], [(PEER, "b")],
            metered_groups=[tiny_dl_group],
        )
        driver.replay(plan, carried)
        assert scripted.metrics is carried
        # Two replayed exponentiations stay on the scratch counter; the
        # one after the go-live send, in the same step, is carried.
        assert scratch.ops.exponentiations == 2
        assert carried.ops.exponentiations == 1 + 1
        assert carried.ops.exponent_bits == 10 + tiny_dl_group.order.bit_length()

    def test_without_carried_metrics_the_party_counts_on_its_own(
        self, scripted, tiny_dl_group
    ):
        scratch = scripted.metrics
        driver, plan, _ = drive(
            scripted, [message("a")], [(PEER, "b")],
            metered_groups=[tiny_dl_group],
        )
        driver.replay(plan)
        assert scripted.metrics is scratch
        assert scratch.ops.exponentiations == 3

    def test_journaled_receives_are_fed_as_already_credited(self, scripted):
        driver, plan, _ = drive(scripted, [message("a")], [(PEER, "b")])
        driver.replay(plan)
        assert scripted.metrics.messages_received == 0

    def test_hooks_fire_per_checked_off_send_and_once_at_go_live(
        self, scripted
    ):
        calls = []

        class Hooked(PartyDriver):
            def on_replayed_send(self, sent):
                calls.append(("replayed", sent.tag))

            def on_go_live(self, sent):
                calls.append(("live", sent.tag))

        driver, plan, _ = drive(
            scripted, [message("a")], [(PEER, "b")], driver_type=Hooked
        )
        driver.replay(plan)
        assert calls == [("replayed", "b"), ("live", "c")]

    def test_journal_and_snapshots_only_once_live(self, scripted):
        """The first life journaled "b" and snapshotted "answer"; the
        rebuilt party journals and snapshots only past its death point."""
        journal = Journal()
        driver, plan, _ = drive(
            scripted, [message("a")], [(PEER, "b")], checkpoints=journal
        )
        driver.replay(plan)
        assert journal.calls == [
            ("live", ME), ("send", OTHER, "c"), ("snapshot", "wait"),
        ]


class TestReplayGuards:
    def test_journal_receive_mismatch(self, scripted):
        driver, plan, _ = drive(scripted, [message("x")], [(PEER, "b")])
        with pytest.raises(CheckpointError, match="replay divergence.*wants"):
            driver.replay(plan)

    def test_journal_receive_from_the_wrong_sender(self, scripted):
        driver, plan, _ = drive(
            scripted, [message("a", src=OTHER)], [(PEER, "b")]
        )
        with pytest.raises(CheckpointError, match="replay divergence"):
            driver.replay(plan)

    def test_journal_send_mismatch(self, scripted):
        driver, plan, _ = drive(scripted, [message("a")], [(OTHER, "b")])
        with pytest.raises(CheckpointError,
                           match="replay divergence.*journal says"):
            driver.replay(plan)

    def test_finishing_mid_replay(self):
        class Quitter(Party):
            def protocol(self):
                yield from self.recv(PEER, "a")

        driver, plan, _ = drive(
            Quitter(ME, SeededRNG(ME)), [message("a")], [(PEER, "b")]
        )
        with pytest.raises(CheckpointError, match="finished mid-replay"):
            driver.replay(plan)

    def test_blocking_past_the_journal(self, scripted):
        driver, plan, _ = drive(scripted, [], [(PEER, "b")])
        with pytest.raises(CheckpointError,
                           match="mid-replay with no journaled message"):
            driver.replay(plan)


class TestStepping:
    @pytest.mark.parametrize("bad", ["a string", None, Message(
        src=PEER, dst=ME, tag="a", payload=0, size_bits=8, round_sent=0)])
    def test_only_recv_or_next_round_may_be_yielded(self, bad):
        class Rogue(Party):
            def protocol(self):
                yield bad

        driver, _, _ = drive(Rogue(ME, SeededRNG(ME)), [], [])
        with pytest.raises(ProtocolError, match="may only yield"):
            driver.step()

    def test_counter_attached_only_during_a_step(self, scripted,
                                                 tiny_dl_group):
        driver, _, _ = drive(scripted, [], [],
                             metered_groups=[tiny_dl_group])
        assert driver.step() == Recv(src=PEER, tag="a")
        assert tiny_dl_group.counter is not scripted.metrics.ops
        driver.step(message("a"))
        assert scripted.metrics.ops.exponentiations == 1
        assert tiny_dl_group.counter is not scripted.metrics.ops

    def test_self_send_rejected(self):
        class Narcissist(Party):
            def protocol(self):
                self.send(ME, "x", None, size_bits=1)
                yield NextRound()

        driver, _, _ = drive(Narcissist(ME, SeededRNG(ME)), [], [])
        with pytest.raises(ProtocolError, match="to itself"):
            driver.step()

    def test_crash_lookahead_kills_before_the_journal(self, scripted):
        injector = FaultInjector(
            [FaultSpec(kind="kill_restart", party=ME, tag="c")]
        )
        journal = Journal()
        driver, _, scheduler = drive(scripted, [], [], faults=injector,
                                     checkpoints=journal)
        driver.step()
        driver.step(message("a"))
        with pytest.raises(PartyCrashed) as excinfo:
            driver.step()
        assert excinfo.value.restart
        assert scheduler.wire == [(PEER, "b")]
        assert journal.calls == [("snapshot", "answer"), ("send", PEER, "b")]
        assert len(injector.events) == 1


#: (awaited, crashed, lost, expected (blamed, phase)); the waiter's
#: phase is "wait".  Rows marked "changed" are where the engine used to
#: blame the lowest crashed id, or the sender of the lost message the
#: lowest blocked party waited for, instead of the awaited culprit.
BLAME_TABLE = [
    (1, {}, {}, (1, "wait")),
    (None, {}, {}, (None, "wait")),
    (1, {3: "chain"}, {}, (3, "chain")),
    (3, {3: "chain"}, {}, (3, "chain")),
    (1, {}, {2: "comparison"}, (2, "comparison")),
    (1, {3: "chain"}, {2: "comparison"}, (3, "chain")),
    (2, {3: "chain"}, {2: "comparison"}, (3, "chain")),
    (4, {2: "gain", 4: "chain"}, {}, (4, "chain")),          # changed
    (1, {4: "chain", 2: "gain"}, {}, (2, "gain")),
    (3, {}, {1: "gain", 3: "chain"}, (3, "chain")),          # changed
    (2, {}, {3: "chain", 1: "gain"}, (1, "gain")),
    (2, {3: None}, {}, (3, "wait")),
    (2, {}, {3: None, 1: None}, (1, "wait")),
]


@pytest.mark.parametrize("awaited, crashed, lost, expected", BLAME_TABLE)
def test_blame_rule(awaited, crashed, lost, expected):
    assert blame(awaited, "wait", crashed, lost) == expected
