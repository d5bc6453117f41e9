"""Process-pool execution engine for exponentiation-heavy protocol stages.

The unlinkable-comparison phase is embarrassingly parallel: every
``(j, i)`` pair's γ/ω/τ circuit evaluation is an independent
exponentiation-heavy job, and every set in a chain hop can be
processed independently once its randomness is fixed.  This module fans
those jobs out across worker processes while keeping runs *bit-for-bit
reproducible*:

* **Job specs are pure data.**  A job carries the group, the
  ciphertexts, and — crucially — any randomness it needs, pre-drawn by
  the owning party in exactly the order the serial path would have drawn
  it.  Workers never touch an RNG, so serial and parallel runs consume
  identical randomness and produce identical transcripts.
* **Metrics stay exact.**  Each worker meters its job on a private
  :class:`~repro.groups.base.OperationCounter` returned alongside the
  result; the caller folds it into the owning party's counter with
  :meth:`~repro.groups.base.OperationCounter.merge`.
* **Graceful degradation.**  If worker processes cannot be spawned (or
  die), the pool falls back to in-process execution — same values,
  same metrics, just no concurrency.

Worker function references are resolved by qualified name, so all job
evaluators live at module level here.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pickle import PicklingError
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.crypto.elgamal import Ciphertext
from repro.groups.base import Group, OperationCounter
from repro.math import backend

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
    """One pair's comparison-circuit evaluation (framework step 7)."""

    group: Group
    beta: int
    other_bits: Tuple[Ciphertext, ...]
    naive_suffix: bool = False
    multiexp: bool = False


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

    Unlike the fine-grained jobs above, the worker here runs a complete
    shard-local framework (keying, comparison, chain) over the members'
    already-recovered β values.  Determinism still holds: the shard's
    RNG is pre-forked by the orchestrator under a per-shard label, so
    pool and inline execution produce identical results, and the
    returned :class:`~repro.core.framework.FrameworkResult` carries the
    shard's own metered counters.
    """

    config: object                       # shard-local FrameworkConfig
    initiator_input: object = field(repr=False)  # repro: secret
    participant_inputs: Tuple[object, ...] = field(repr=False)  # repro: secret
    rng: object = field(repr=False)
    known_betas: Tuple[Tuple[int, int], ...] = field(repr=False)  # repro: secret
    fault_specs: Tuple[object, ...] = ()


# ---------------------------------------------------------------------------
# Worker-side evaluators
# ---------------------------------------------------------------------------

def evaluate_shard_job(job: ShardJob):
    """Run one shard's phase-2-only framework to completion."""
    from repro.core.framework import GroupRankingFramework

    framework = GroupRankingFramework(
        job.config,
        job.initiator_input,
        list(job.participant_inputs),
        rng=job.rng,
    )
    return framework.run(
        list(job.fault_specs) or None, known_betas=dict(job.known_betas)
    )


def evaluate_tau_job(job: TauJob) -> Tuple[List[Ciphertext], OperationCounter]:
    from repro.core.comparison import HomomorphicComparator
    from repro.crypto.bitenc import BitwiseCiphertext

    # The inline fallback runs jobs against the caller's own group object,
    # so the previously attached counter must be restored afterwards.
    counter = OperationCounter()
    previous = job.group.counter
    job.group.attach_counter(counter)
    try:
        comparator = HomomorphicComparator(
            job.group, naive_suffix=job.naive_suffix, multiexp=job.multiexp
        )
        taus = comparator.encrypted_taus(
            job.beta, BitwiseCiphertext(bits=job.other_bits)
        )
    finally:
        job.group.attach_counter(previous)
    return taus, counter


def evaluate_shuffle_job(job: ShuffleJob) -> Tuple[List[Ciphertext], OperationCounter]:
    from repro.core.shuffle import ShuffleProcessor

    counter = OperationCounter()
    previous = job.group.counter
    job.group.attach_counter(counter)
    try:
        processor = ShuffleProcessor(
            job.group,
            rerandomize=job.rerandomizers is not None,
            permute=job.permutation is not None,
        )
        processed = processor.apply_set(
            job.ciphertexts, job.secret, job.rerandomizers, job.permutation
        )
    finally:
        job.group.attach_counter(previous)
    return processed, counter


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------

class WorkerPool:
    """A lazily started process pool with an in-process fallback.

    ``workers <= 1`` (or any failure to spawn/keep worker processes)
    means jobs run inline — identical values and metrics, no
    concurrency — so callers never need two code paths.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError("worker count must be at least 1")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._broken = False
        self._drain_hooks: List[Callable[[], None]] = []

    def register_drain(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` once when this pool is shut down at end of run.

        The checkpoint layer registers a hook that persists every
        party's precompute-pool cursor, so an orderly shutdown leaves
        the pools' positions durable.  Hooks do NOT fire on the internal
        broken-pool teardown paths — those happen mid-run, when the
        protocol state is not at a boundary worth persisting.
        """
        self._drain_hooks.append(hook)

    @property
    def parallel(self) -> bool:
        """Will :meth:`map` actually fan out to worker processes?"""
        return self.workers > 1 and not self._broken

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
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
            self._stop_executor()
            return [fn(job) for job in jobs]
        try:
            executor = self._ensure_executor()
            chunksize = max(1, len(jobs) // (4 * self.workers))
            return list(executor.map(fn, jobs, chunksize=chunksize))
        # Unpicklable payloads surface as PicklingError, AttributeError
        # ("Can't pickle local object") or TypeError depending on the
        # object; OSError/BrokenProcessPool cover spawn and worker death.
        except (OSError, PicklingError, AttributeError, TypeError, BrokenProcessPool):
            self._broken = True
            self._stop_executor()
            return [fn(job) for job in jobs]
        except BaseException:
            # Any other failure (a job raising ProtocolAbort, an injected
            # fault, KeyboardInterrupt) must not leak worker processes:
            # tear the pool down before propagating.
            self._stop_executor()
            raise

    def shutdown(self) -> None:
        """Orderly end-of-run teardown: drain hooks once, then workers."""
        hooks, self._drain_hooks = self._drain_hooks, []
        for hook in hooks:
            hook()
        self._stop_executor()

    def _stop_executor(self) -> None:
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
            self._stop_executor()
        # repro-lint: ignore[R-EXCEPT] -- nothing to re-raise into during
        # interpreter teardown; swallowing is the point of this guard
        except Exception:
            pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
