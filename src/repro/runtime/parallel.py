"""Job fan-out for the exponentiation-heavy protocol stages.

Three stages are embarrassingly parallel: every ``(j, i)`` pair's
comparison circuit (framework step 7), every set of a chain hop (step
8) and every shard of a sharded run's phase 2.  Each stage builds its
jobs and evaluates them through :meth:`WorkerPool.map` — one path at
every width — while runs stay *bit-for-bit reproducible*:

* **Job specs are pure data.**  A job carries the group, the
  ciphertexts, and — crucially — any randomness it needs, pre-drawn by
  the owning party in exactly the order a set-by-set walk would draw
  it.  Jobs never touch an RNG, so every width consumes identical
  randomness and produces identical transcripts.
* **Metrics stay exact.**  Each job meters its work on a private
  :class:`~repro.groups.base.OperationCounter` returned alongside the
  result; the caller folds it into the owning party's counter with
  :meth:`~repro.groups.base.OperationCounter.merge`.
* **Inline is the same path.**  A pool of width 1, a pool whose worker
  processes cannot be spawned (or die), and :func:`run_jobs` where no
  pool exists (a tcp party process, the standalone sorting protocol)
  evaluate the same jobs in order in this process — same values, same
  metrics, no concurrency.  The process machinery
  (``multiprocessing``, ``concurrent.futures.process``) is imported
  only when a wider pool first fans out.

Worker function references are resolved by qualified name, so all job
evaluators live at module level here.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass, field
from pickle import PicklingError
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.crypto.elgamal import Ciphertext
from repro.groups.base import Group, OperationCounter
from repro.groups.fixed_base import PrecomputedBase
from repro.math import backend
from repro.runtime.errors import PartyTimeout, ProtocolAbort

if TYPE_CHECKING:  # pragma: no cover - imported on the first fan-out
    from concurrent.futures import ProcessPoolExecutor

JobResult = TypeVar("JobResult")


def _worker_select_backend(backend_name: str) -> None:
    """Pool initializer: re-select the arithmetic backend in the worker.

    A ``fork`` worker inherits the parent's active backend, but a
    ``spawn``/``forkserver`` worker re-imports :mod:`repro.math.backend`
    from scratch and re-runs its environment autodetection — which may
    disagree with an explicit ``set_backend``/``use_backend`` choice made
    in the parent.  Re-selecting by name keeps parent and workers on the
    same arithmetic path.  Non-strict: backends are value-identical, so
    a worker that cannot construct the requested backend degrades to
    pure python without perturbing results.
    """
    backend.worker_initializer(backend_name)


# ---------------------------------------------------------------------------
# Job specs (picklable, randomness pre-drawn)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauJob:
    """One pair's comparison-circuit evaluation (framework step 7).

    ``generator_table`` is what the circuit's plaintext shifts walk
    under ``precompute``: the party's randomness pool's public table of
    generator powers, never its secret pairs.  One party's jobs share
    it, so :meth:`WorkerPool.map` ships it once per worker.
    """

    group: Group
    beta: int
    other_bits: Tuple[Ciphertext, ...]
    naive_suffix: bool = False
    multiexp: bool = False
    generator_table: Optional[PrecomputedBase] = None


@dataclass(frozen=True)
class ShuffleJob:
    """One set's peel + rerandomize + permute of a chain hop (step 8).

    ``rerandomizers`` are the pre-drawn non-zero exponents (one per
    ciphertext, in ciphertext order) and ``permutation`` the pre-drawn
    target arrangement; either may be ``None`` for the ablation modes.
    """

    group: Group
    ciphertexts: Tuple[Ciphertext, ...]
    secret: int = field(repr=False)  # repro: secret
    rerandomizers: Optional[Tuple[int, ...]] = field(repr=False)  # repro: secret
    permutation: Optional[Tuple[int, ...]] = field(repr=False)  # repro: secret


@dataclass(frozen=True)
class ShardJob:
    """One shard's entire phase-2 sub-run (hierarchical composition).

    Unlike the fine-grained jobs above, a shard job runs a complete
    shard-local framework (keying, comparison, chain, and a step-9
    round in which nobody submits) over the members' already-recovered
    β values, with parties built from ``roles``.  Determinism still
    holds: the shard's RNG is pre-forked by the orchestrator under a
    per-shard label, and the returned
    :class:`~repro.core.framework.FrameworkResult` carries the shard's
    own metered counters.  ``members`` are the shard's global ids, in
    shard-local order: a failure leaves the job naming global ids.
    """

    config: object                       # shard-local FrameworkConfig
    members: Tuple[int, ...]
    roles: Tuple[type, type]
    initiator_input: object = field(repr=False)  # repro: secret
    participant_inputs: Tuple[object, ...] = field(repr=False)  # repro: secret
    rng: object = field(repr=False)
    known_betas: Tuple[Tuple[int, int], ...] = field(repr=False)  # repro: secret
    fault_specs: Tuple[object, ...] = ()


# ---------------------------------------------------------------------------
# Job evaluators
# ---------------------------------------------------------------------------

def evaluate_shard_job(job: ShardJob):
    """Run one shard's phase-2-only framework to completion."""
    from repro.core.framework import GroupRankingFramework

    framework = GroupRankingFramework(
        job.config,
        job.initiator_input,
        list(job.participant_inputs),
        rng=job.rng,
        roles=job.roles,
    )
    try:
        return framework.run(
            list(job.fault_specs) or None, known_betas=dict(job.known_betas)
        )
    except (PartyTimeout, ProtocolAbort) as failure:
        raise _globalized(failure, job.members) from failure


def _globalized(failure, members: Tuple[int, ...]):
    """A shard's failure in the run's ids: shard-local P_i is
    ``members[i - 1]`` and the shard's P_0 is the run's initiator."""

    def global_id(local: Optional[int]) -> Optional[int]:
        return members[local - 1] if local else local

    if isinstance(failure, PartyTimeout):
        return PartyTimeout(
            global_id(failure.blamed), phase=failure.phase,
            round=failure.round,
            waiting={
                global_id(pid): dataclasses.replace(want, src=global_id(want.src))
                for pid, want in failure.waiting.items()
            },
        )
    ids = ", ".join(f"P{member}" for member in members)
    return type(failure)(
        f"in shard {ids} (local P1–P{len(members)}): {failure.reason}",
        blamed=global_id(failure.blamed), phase=failure.phase,
    )


def _metered(
    group: Group, work: Callable[[], JobResult]
) -> Tuple[JobResult, OperationCounter]:
    """``work()`` metered on a private counter.  An inline job runs on
    the caller's own group object, so its attached counter is restored
    afterwards."""
    counter = OperationCounter()
    previous = group.counter
    group.attach_counter(counter)
    try:
        return work(), counter
    finally:
        group.attach_counter(previous)


def evaluate_tau_job(job: TauJob) -> Tuple[List[Ciphertext], OperationCounter]:
    from repro.core.comparison import HomomorphicComparator
    from repro.crypto.bitenc import BitwiseCiphertext

    comparator = HomomorphicComparator(
        job.group, naive_suffix=job.naive_suffix, multiexp=job.multiexp,
        generator_table=job.generator_table,
    )
    return _metered(job.group, lambda: comparator.encrypted_taus(
        job.beta, BitwiseCiphertext(bits=job.other_bits)
    ))


def evaluate_shuffle_job(job: ShuffleJob) -> Tuple[List[Ciphertext], OperationCounter]:
    from repro.core.shuffle import ShuffleProcessor

    processor = ShuffleProcessor(
        job.group,
        rerandomize=job.rerandomizers is not None,
        permute=job.permutation is not None,
    )
    return _metered(job.group, lambda: processor.apply_set(
        job.ciphertexts, job.secret, job.rerandomizers, job.permutation
    ))


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------

def run_jobs(
    pool: Optional["WorkerPool"],
    fn: Callable[..., JobResult],
    jobs: Sequence,
) -> List[JobResult]:
    """``pool.map(fn, jobs)``, or the jobs inline where no pool exists."""
    if pool is None:
        return [fn(job) for job in jobs]
    return pool.map(fn, jobs)


class WorkerPool:
    """A lazily started process pool with an in-process fallback.

    ``workers == 1`` (or any failure to spawn/keep worker processes)
    means jobs run inline — identical values and metrics, no
    concurrency — so every caller has one code path.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError("worker count must be at least 1")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._broken = False

    @property
    def parallel(self) -> bool:
        """Will :meth:`map` actually fan out to worker processes?"""
        return self.workers > 1 and not self._broken

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_worker_select_backend,
                initargs=(backend.active_backend_name(),),
            )
        return self._executor

    def map(
        self,
        fn: Callable[..., JobResult],
        jobs: Sequence,
    ) -> List[JobResult]:
        """Evaluate ``fn`` over ``jobs``, preserving job order.

        Falls back to inline execution when parallelism is unavailable;
        a pool that breaks mid-flight re-runs the whole batch inline
        (jobs are pure functions, so re-evaluation is safe).
        """
        if not self.parallel or len(jobs) <= 1:
            return [fn(job) for job in jobs]
        # Pre-flight the payload: an unpicklable fn/job that reaches the
        # executor fails inside its queue-feeder thread and leaves the pool
        # in a state whose teardown can deadlock (CPython gh-94777), so it
        # must never be submitted at all.  Jobs are homogeneous dataclasses;
        # checking the first is representative.
        try:
            pickle.dumps(fn)
            pickle.dumps(jobs[0])
        # repro-lint: ignore[R-EXCEPT] -- probe failure just means "run
        # inline"; no worker ran, so there is no blamed abort to swallow
        except Exception:
            self._broken = True
            self.shutdown()
            return [fn(job) for job in jobs]
        from concurrent.futures.process import BrokenProcessPool

        try:
            executor = self._ensure_executor()
            # One contiguous chunk per worker: a stage's jobs cost alike,
            # and an object they share (a party's generator table) is
            # pickled once per chunk, not once per job.
            chunksize = -(-len(jobs) // self.workers)
            return list(executor.map(fn, jobs, chunksize=chunksize))
        # Unpicklable payloads surface as PicklingError, AttributeError
        # ("Can't pickle local object") or TypeError depending on the
        # object; OSError/BrokenProcessPool cover spawn and worker death.
        except (OSError, PicklingError, AttributeError, TypeError, BrokenProcessPool):
            self._broken = True
            self.shutdown()
            return [fn(job) for job in jobs]
        except BaseException:
            # Any other failure (a job raising ProtocolAbort, an injected
            # fault, KeyboardInterrupt) must not leak worker processes:
            # tear the pool down before propagating.
            self.shutdown()
            raise

    def shutdown(self) -> None:
        """Stop the worker processes, if any were started."""
        # wait=True: callers only shut down between batches, when workers
        # are idle, so the join is cheap — and leaving the executor's
        # management thread winding down asynchronously deadlocks with
        # concurrent.futures' atexit join if the interpreter exits during
        # that window (bpo-39104).
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self.shutdown()
        # repro-lint: ignore[R-EXCEPT] -- nothing to re-raise into during
        # interpreter teardown; swallowing is the point of this guard
        except Exception:
            pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
