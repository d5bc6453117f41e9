"""Unit tests for deadline supervision: retries, backoff, typed blame."""

import pytest

from repro.math.rng import SeededRNG
from repro.runtime.engine import Engine
from repro.runtime.errors import DeadlockError, PartyTimeout, ProtocolAbort, ProtocolError
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.runtime.party import Party
from repro.runtime.supervisor import Supervisor, exclude_blamed


class Sender(Party):
    def __init__(self, pid=0, dst=1, count=1):
        super().__init__(pid, SeededRNG(pid))
        self.dst = dst
        self.count = count

    def protocol(self):
        for i in range(self.count):
            self.send(self.dst, "data", i, size_bits=8)
        self.output = "sent"
        return
        yield  # pragma: no cover


class Receiver(Party):
    def __init__(self, pid=1, src=0, count=1):
        super().__init__(pid, SeededRNG(pid))
        self.src = src
        self.count = count

    def protocol(self):
        got = []
        for _ in range(self.count):
            message = yield from self.recv(self.src, "data")
            got.append(message.payload)
        self.output = got


def run_pair(specs, supervisor=None, **injector_kwargs):
    engine = Engine(
        faults=FaultInjector(specs, rng=SeededRNG(9), **injector_kwargs),
        supervisor=supervisor,
    )
    engine.add_parties([Sender(), Receiver()])
    return engine, engine.run()


class TestRetransmission:
    def test_drop_healed_by_retry(self):
        supervisor = Supervisor(timeout_rounds=2, max_retries=2)
        engine, outputs = run_pair(
            [FaultSpec(kind="drop", party=0, tag="data")], supervisor
        )
        assert outputs[1] == [0]
        assert supervisor.retransmits == 1
        assert supervisor.timeouts == 0

    def test_repeated_drop_consumes_retries_then_heals(self):
        """count=2 eats the original send and the first retry; the second
        retry (within max_retries) gets through."""
        supervisor = Supervisor(timeout_rounds=2, max_retries=2)
        engine, outputs = run_pair(
            [FaultSpec(kind="drop", party=0, tag="data", count=2)], supervisor
        )
        assert outputs[1] == [0]
        assert supervisor.retransmits == 2

    def test_backoff_delays_second_retry(self):
        """Retry i is scheduled backoff_base * 2**i rounds out, so healing
        a double drop takes visibly longer than a single one."""
        single = Supervisor(timeout_rounds=2, max_retries=3, backoff_base=1)
        engine_single, _ = run_pair(
            [FaultSpec(kind="drop", party=0, tag="data")], single
        )
        double = Supervisor(timeout_rounds=2, max_retries=3, backoff_base=1)
        engine_double, _ = run_pair(
            [FaultSpec(kind="drop", party=0, tag="data", count=2)], double
        )
        assert engine_double.round > engine_single.round

    def test_stall_exhausts_retries_and_blames_sender(self):
        supervisor = Supervisor(timeout_rounds=2, max_retries=2)
        with pytest.raises(PartyTimeout) as excinfo:
            run_pair([FaultSpec(kind="stall", party=0, tag="data")], supervisor)
        assert excinfo.value.blamed == 0
        assert supervisor.retransmits == 2
        assert supervisor.timeouts == 1

    def test_zero_retries_blames_immediately(self):
        supervisor = Supervisor(timeout_rounds=2, max_retries=0)
        with pytest.raises(PartyTimeout) as excinfo:
            run_pair([FaultSpec(kind="drop", party=0, tag="data")], supervisor)
        assert excinfo.value.blamed == 0
        assert supervisor.retransmits == 0


class TestBlame:
    def test_crashed_party_blamed_with_phase(self):
        supervisor = Supervisor(timeout_rounds=2, phase_of=lambda tag: "delivery")
        engine = Engine(
            faults=FaultInjector(
                [FaultSpec(kind="crash", party=0, tag="data")],
                rng=SeededRNG(9),
                phase_of=lambda tag: "delivery",
            ),
            supervisor=supervisor,
        )
        engine.add_parties([Sender(), Receiver()])
        with pytest.raises(PartyTimeout) as excinfo:
            engine.run()
        assert excinfo.value.blamed == 0
        assert excinfo.value.phase == "delivery"
        assert engine.crashed == {0: "delivery"}

    def test_silent_peer_blamed_via_pending_receive(self):
        """No crash, no lost message — a party waiting on a peer that
        simply never sends blames that peer."""

        class Mute(Party):
            def protocol(self):
                self.output = "done"
                return
                yield  # pragma: no cover

        supervisor = Supervisor(timeout_rounds=3)
        engine = Engine(faults=FaultInjector([], rng=SeededRNG(1)),
                        supervisor=supervisor)
        engine.add_parties([Mute(0, SeededRNG(0)), Receiver(1, src=0)])
        with pytest.raises(PartyTimeout) as excinfo:
            engine.run()
        assert excinfo.value.blamed == 0
        assert 1 in excinfo.value.waiting

    def test_timeout_message_is_diagnostic(self):
        supervisor = Supervisor(timeout_rounds=2, max_retries=0)
        with pytest.raises(PartyTimeout) as excinfo:
            run_pair([FaultSpec(kind="stall", party=0, tag="data")], supervisor)
        text = str(excinfo.value)
        assert "party 0" in text
        assert "blocked" in text

    def test_without_supervisor_stall_is_a_deadlock(self):
        with pytest.raises(DeadlockError):
            run_pair([FaultSpec(kind="stall", party=0, tag="data")], None)


class TestQuiescencePolicy:
    def test_healthy_run_never_consults_supervisor(self):
        supervisor = Supervisor(timeout_rounds=1)
        engine, outputs = run_pair([], supervisor)
        assert outputs[1] == [0]
        assert supervisor.retransmits == 0
        assert supervisor.timeouts == 0

    def test_delay_fault_needs_no_supervision(self):
        """In-flight scheduled deliveries are not quiescence: a delayed
        message arrives without any retransmit or timeout."""
        supervisor = Supervisor(timeout_rounds=1, max_retries=0)
        engine, outputs = run_pair(
            [FaultSpec(kind="delay", party=0, tag="data", delay_rounds=4)],
            supervisor,
        )
        assert outputs[1] == [0]
        assert supervisor.retransmits == 0
        assert engine.round >= 5

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Supervisor(timeout_rounds=0)
        with pytest.raises(ValueError):
            Supervisor(max_retries=-1)
        with pytest.raises(ValueError):
            Supervisor(backoff_base=0)


class TestRecoveryRule:
    """``exclude_blamed``, the rule of every attempt loop (flat
    framework, hierarchy phase 1, socket coordinator)."""

    @pytest.mark.parametrize("recovery,blamed,active,outcome", [
        (False, 2, [1, 2, 3], "reraise"),          # recovery off
        (True, None, [1, 2, 3], "reraise"),        # nobody blamed
        (True, 0, [1, 2, 3], "reraise"),           # the initiator blamed
        (True, 4, [1, 2, 3], "reraise"),           # blamed is not active
        (True, 2, [1, 2], "cannot recover"),       # 2 left: 1 would remain
        (True, 2, [1, 2, 3], (2, [1, 3])),         # 3 left: recover
    ], ids=["recovery-off", "blamed-none", "blamed-initiator",
            "blamed-not-active", "two-left", "three-left"])
    @pytest.mark.parametrize("kind", [PartyTimeout, ProtocolAbort])
    def test_rule(self, kind, recovery, blamed, active, outcome):
        failure = (
            PartyTimeout(blamed, phase="chain") if kind is PartyTimeout
            else ProtocolAbort("bad", blamed=blamed, phase="chain")
        )
        if outcome == "reraise":
            with pytest.raises(kind) as excinfo:
                exclude_blamed(failure, active, recovery)
            assert excinfo.value is failure
        elif outcome == "cannot recover":
            with pytest.raises(ProtocolError, match="cannot recover") as excinfo:
                exclude_blamed(failure, active, recovery)
            assert excinfo.value.__cause__ is failure
        else:
            assert exclude_blamed(failure, active, recovery) == outcome
            assert active == [1, 2, 3]   # the caller's list is not edited
