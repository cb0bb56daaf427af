"""How batch jobs run: in-process, or on a chunked process pool.

:func:`run_jobs` is the one dispatcher, and the worker count alone
picks the path:

- ``workers <= 1``: every job runs in-process through
  :func:`execute_job`, in submission order (``PoolStats.backend ==
  "serial"``).
- otherwise (``"chunked"``): jobs go to a ``ProcessPoolExecutor`` in
  per-worker *chunks*.  Each distinct machine is pickled once and
  installed in every worker by the pool initializer, keyed by
  :func:`repro.service.keys.machine_digest`; chunk payloads carry only
  machine-stripped jobs and digests.  Pickling therefore costs
  O(distinct machines × workers) instead of O(jobs), and chunking
  amortizes executor future overhead.  Heterogeneous batches (per-job
  machines) share the same table.  A lone job still runs in-process.

Fault-tolerance ladder (most to least capable, degrading gracefully):

1. Pool workers; each job is guarded *inside* the worker by a
   ``SIGALRM`` wall-clock budget, so a slow loop returns a structured
   ``timeout`` result without poisoning the pool.
2. If a worker process dies (segfault, ``os._exit``, OOM kill) the pool
   is broken; every job still missing a result is resubmitted to a
   fresh single-worker quarantine pool (:func:`run_quarantined`) after
   an exponential backoff, a bounded number of times.  A job that keeps
   killing its worker exhausts its retries and is reported ``crashed``
   — the rest of the batch still completes.
3. A worker that hangs hard enough to ignore ``SIGALRM`` (stuck in a C
   extension) trips the pool-side backstop deadline; unfinished jobs
   are reported ``timeout`` and the stuck processes are abandoned.
4. If process pools are unavailable at all, jobs run serially
   in-process — same results, no isolation.

Progress contract: ``started`` when a job is dispatched, exactly one
terminal ``finished``/``failed`` event when its result materializes —
including synthesized backstop timeouts — and ``quarantined`` before
any crash-recovery resubmission.  ``progress`` is a plain callable
(``ProgressTracker.emit``); ``None`` skips every emission.

Results are deterministic regardless of the path, worker count or chunk
size: the scheduler itself is a pure function, an observed job returns
its trace, metrics and profile inside its :class:`JobResult` on either
path, and :func:`repro.service.jobs.order_results` restores submission
order.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math
import os
import pickle
import signal
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.progress import (
    KIND_QUARANTINED,
    KIND_STARTED,
    job_event,
    result_event,
)
from repro.obs.trace import DEFAULT_FLIGHT_CAPACITY
from repro.service.jobs import (
    JOB_CRASHED,
    JOB_FAILED,
    JOB_OK,
    JOB_TIMEOUT,
    JobObservation,
    JobResult,
    ScheduleJob,
    order_results,
)

#: Seconds of slack granted on top of the per-job budget before the
#: pool-side backstop declares a worker unresponsive.
BACKSTOP_GRACE = 5.0

#: Default chunking: this many chunks per worker, so a slow chunk cannot
#: idle the rest of the pool for long (work-stealing granularity).
CHUNKS_PER_WORKER = 4

#: Fatal signals the flight recorder spills on before the worker dies.
#: SIGKILL/OOM-kill cannot be caught; those crashes leave no dump.
_FATAL_SIGNALS = ("SIGSEGV", "SIGBUS", "SIGABRT", "SIGILL", "SIGFPE")


class _JobTimeoutError(Exception):
    """Raised inside a worker when the SIGALRM budget expires."""


def _raise_timeout(signum, frame):  # pragma: no cover - trivial
    raise _JobTimeoutError()


def _inject_fault(fault: str) -> None:
    """Built-in fault injection (tests / resilience drills)."""
    if fault == "crash":
        # Die by signal rather than os._exit so the flight recorder's
        # fatal-signal handler (when installed) can spill the ring
        # first; the parent sees a dead worker either way.
        if hasattr(signal, "SIGSEGV"):
            os.kill(os.getpid(), signal.SIGSEGV)
        os._exit(13)  # non-POSIX fallback (and: signal somehow blocked)
    if fault == "exit":
        os._exit(13)  # the uncatchable drill: no handler, no dump
    if fault == "raise":
        raise RuntimeError("injected fault: raise")
    if fault.startswith("hang:"):
        time.sleep(float(fault.split(":", 1)[1]))
        return
    raise ValueError(f"unknown fault {fault!r}")


# ----------------------------------------------------------------------
# Flight-recorder spill files (crash forensics across process death)
# ----------------------------------------------------------------------
def flight_path(flight_dir: str, index: int) -> str:
    """Spill file for one job."""
    return os.path.join(flight_dir, f"flight-{index:06d}.json")


def _write_flight(flight_dir: str, job: ScheduleJob, recorder) -> None:
    """Spill the ring to disk (atomic rename; called from signal context)."""
    path = flight_path(flight_dir, job.index)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            json.dump(
                {"job": job.index, "name": job.name, "events": recorder.dump()},
                handle,
            )
        os.replace(tmp, path)
    except OSError:  # a failed spill must never mask the real fault
        pass


def load_flight(flight_dir: Optional[str], index: int) -> Optional[List[dict]]:
    """Read back a worker's spilled ring; None when absent or corrupt."""
    if flight_dir is None:
        return None
    try:
        with open(flight_path(flight_dir, index)) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    events = payload.get("events")
    return events if isinstance(events, list) and events else None


def attach_flight(result: JobResult, flight_dir: Optional[str]) -> JobResult:
    """Attach a spilled dump to a failure record that lacks one."""
    if result.ok or result.flight is not None:
        return result
    dump = load_flight(flight_dir, result.index)
    if dump is None:
        return result
    return dataclasses.replace(result, flight=dump)


class _FlightTee:
    """Forward events to a primary tracer AND the flight ring.

    Used when a job is both observed and flight-recording: the
    :class:`~repro.obs.trace.CollectingTracer` stamps seq/ts (so the
    observed trace is unchanged) and the ring keeps a reference to the
    last N of the same events.
    """

    enabled = True

    def __init__(self, primary, flight):
        self.primary = primary
        self.flight = flight

    def emit(self, event) -> None:
        self.primary.emit(event)
        self.flight.append(event)


def execute_job(
    job: ScheduleJob,
    machine,
    timeout: Optional[float] = None,
    observe: bool = False,
    flight_dir: Optional[str] = None,
    flight_events: int = DEFAULT_FLIGHT_CAPACITY,
) -> JobResult:
    """Run one job to a structured result; never raises.

    ``job.machine`` (when set) overrides the batch-default ``machine``.
    With ``observe``, the job runs under its own tracer, metrics
    registry and profiler and returns their contents in
    ``result.observation`` for the parent to merge — that is how
    ``--trace``/``--explain`` cross process boundaries.  Timed-out and
    failed jobs return the partial trace recorded before the fault.

    ``flight_events > 0`` (the default) runs the job under a bounded
    :class:`~repro.obs.trace.FlightRecorder`; a timeout or raise
    attaches the ring dump to the returned failure record directly,
    and with a ``flight_dir`` a fatal signal (segfault/abort) spills
    the ring to disk before the process dies, for the parent to
    collect.  A worker hung in a C extension (backstop timeout) and a
    ``SIGKILL``/OOM kill leave no dump — those are the documented
    limits of in-process forensics.

    The wall-clock budget uses ``SIGALRM`` and therefore only applies on
    POSIX main threads (worker processes and the serial path both
    qualify); elsewhere the pool-side backstop is the only guard.
    """
    # Deferred import: repro.experiments.runner lazily imports this
    # package for its jobs= path, so a module-level import would cycle.
    from repro.experiments.runner import measure_loop

    machine = job.machine if job.machine is not None else machine
    tracer = registry = profiler = None
    if observe:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.prof import Profiler
        from repro.obs.trace import CollectingTracer

        tracer = CollectingTracer()
        registry = MetricsRegistry()
        profiler = Profiler()

    recorder = None
    sched_tracer = tracer
    if flight_events and flight_events > 0:
        from repro.obs.trace import FlightRecorder, JobStart

        recorder = FlightRecorder(flight_events)
        recorder.emit(JobStart(job=job.index, loop=job.name))
        sched_tracer = (
            _FlightTee(tracer, recorder) if tracer is not None else recorder
        )

    on_main_thread = threading.current_thread() is threading.main_thread()
    installed_fatal: List[Tuple[int, object]] = []
    if recorder is not None and flight_dir is not None and on_main_thread:

        def _spill(signum, frame):  # pragma: no cover - dies immediately
            try:
                _write_flight(flight_dir, job, recorder)
            finally:
                os._exit(128 + signum)

        for name in _FATAL_SIGNALS:
            signum = getattr(signal, name, None)
            if signum is None:
                continue
            try:
                installed_fatal.append((signum, signal.signal(signum, _spill)))
            except (ValueError, OSError):  # non-main thread / exotic OS
                pass

    started = time.perf_counter()
    use_alarm = (
        timeout is not None
        and timeout > 0
        and hasattr(signal, "SIGALRM")
        and on_main_thread
    )
    previous_handler = None
    metrics = None
    try:
        if use_alarm:
            previous_handler = signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        if job.fault:
            _inject_fault(job.fault)
        metrics = measure_loop(
            job.program,
            machine,
            algorithm=job.algorithm,
            options=job.options,
            tracer=sched_tracer,
            metrics=registry,
            profiler=profiler,
        )
        status, error = JOB_OK, None
    except _JobTimeoutError:
        status, error = JOB_TIMEOUT, f"exceeded {timeout:.4g}s wall-clock budget"
    except Exception as exc:  # job faults must not take down the batch
        status, error = JOB_FAILED, f"{type(exc).__name__}: {exc}"
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)
        for signum, previous in installed_fatal:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover - defensive
                pass
    return JobResult(
        index=job.index,
        name=job.name,
        status=status,
        metrics=metrics,
        error=error,
        seconds=time.perf_counter() - started,
        flight=(
            recorder.dump()
            if recorder is not None and status != JOB_OK
            else None
        ),
        observation=(
            JobObservation(tracer.events, registry.dump(), profiler.snapshot())
            if observe
            else None
        ),
    )


@dataclasses.dataclass
class PoolStats:
    """What the pool did: throughput, faults, recovery effort."""

    workers: int
    jobs: int
    ok: int = 0
    failed: int = 0
    timeouts: int = 0
    crashes: int = 0
    retries: int = 0  # crash-recovery resubmissions across all jobs
    rebuilds: int = 0  # pools torn down and recreated after breakage
    fallback_serial: bool = False
    busy_seconds: float = 0.0  # sum of worker-side job wall times
    wall_seconds: float = 0.0
    backend: str = "serial"  # execution path: "serial" or "chunked"
    chunks: int = 0  # chunk futures submitted to the pool

    @property
    def utilization(self) -> float:
        """Fraction of worker capacity spent running jobs (0..1)."""
        capacity = self.wall_seconds * max(1, self.workers)
        if capacity <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / capacity)


def _tally(stats: PoolStats, results: Sequence[JobResult]) -> None:
    for result in results:
        stats.busy_seconds += result.seconds
        if result.status == JOB_OK:
            stats.ok += 1
        elif result.status == JOB_FAILED:
            stats.failed += 1
        elif result.status == JOB_TIMEOUT:
            stats.timeouts += 1
        elif result.status == JOB_CRASHED:
            stats.crashes += 1


def _unresponsive(job: ScheduleJob, retries: int = 0) -> JobResult:
    """The synthesized verdict for a job whose worker tripped the backstop."""
    return JobResult(
        index=job.index,
        name=job.name,
        status=JOB_TIMEOUT,
        error="backstop: worker unresponsive past its budget",
        retries=retries,
    )


def run_quarantined(
    job: ScheduleJob,
    machine,
    timeout: Optional[float],
    max_retries: int,
    backoff: float,
    stats: PoolStats,
    observe: bool = False,
    flight_dir: Optional[str] = None,
    flight_events: int = DEFAULT_FLIGHT_CAPACITY,
) -> JobResult:
    """Run one job in an isolated single-worker pool, retrying crashes.

    Isolation turns "some worker died" into "THIS job kills workers":
    after ``max_retries`` resubmissions (with doubling backoff) the job
    is reported ``crashed`` without having disturbed any other job.
    A crashed verdict collects the worker's spilled flight-recorder
    ring (when one exists) so the failure record still names the ops
    in flight when the worker died.
    """
    job_args = (timeout, observe, flight_dir, flight_events)
    attempt = 0
    while True:
        try:
            executor = concurrent.futures.ProcessPoolExecutor(max_workers=1)
        except (OSError, ValueError, RuntimeError):
            stats.fallback_serial = True
            return dataclasses.replace(
                execute_job(job, machine, *job_args), retries=attempt
            )
        hung = False
        broken = False
        try:
            future = executor.submit(execute_job, job, machine, *job_args)
            backstop = (
                timeout + BACKSTOP_GRACE
                if timeout is not None and timeout > 0
                else None
            )
            try:
                return dataclasses.replace(
                    future.result(timeout=backstop), retries=attempt
                )
            except concurrent.futures.TimeoutError:
                hung = True
                return _unresponsive(job, retries=attempt)
            except concurrent.futures.process.BrokenProcessPool:
                broken = True
        finally:
            executor.shutdown(wait=not (broken or hung), cancel_futures=True)
        attempt += 1
        if attempt > max_retries:
            return attach_flight(
                JobResult(
                    index=job.index,
                    name=job.name,
                    status=JOB_CRASHED,
                    error=f"worker died; gave up after {max_retries} resubmission(s)",
                    retries=attempt - 1,
                ),
                flight_dir,
            )
        stats.retries += 1
        if backoff > 0:
            time.sleep(min(5.0, backoff * (2 ** (attempt - 1))))


def _emit(progress, kind: str, job: ScheduleJob) -> None:
    if progress is not None:
        progress(job_event(kind, job.index, job.name))


def _emit_result(progress, result: JobResult) -> None:
    if progress is not None:
        progress(result_event(result))


def _run_in_process(
    jobs: Sequence[ScheduleJob], machine, progress, *job_args
) -> List[JobResult]:
    """Run jobs one by one in this process (``job_args`` as in execute_job)."""
    results = []
    for job in jobs:
        _emit(progress, KIND_STARTED, job)
        results.append(execute_job(job, machine, *job_args))
        _emit_result(progress, results[-1])
    return results


# ----------------------------------------------------------------------
# Chunked pool: worker-resident machines + per-worker job chunks
# ----------------------------------------------------------------------
#: Worker-process-global machine table, installed by the pool
#: initializer.  Keyed by machine digest; populated once per worker.
_WORKER_MACHINES: Dict[str, object] = {}


def _init_worker(machines_blob: bytes) -> None:
    """Pool initializer: deserialize the machine table once per worker."""
    global _WORKER_MACHINES
    _WORKER_MACHINES = pickle.loads(machines_blob)


def _run_chunk(
    entries: List[Tuple[ScheduleJob, str]], *job_args
) -> List[JobResult]:
    """Worker entry point: run (machine-stripped job, digest) pairs."""
    return [
        execute_job(job, _WORKER_MACHINES[digest], *job_args)
        for job, digest in entries
    ]


def _machine_table(
    jobs: Sequence[ScheduleJob], machine
) -> Tuple[Dict[str, object], List[str]]:
    """Digest table covering every job plus the per-job digest list.

    Digests are memoized by object identity, so a thousand jobs sharing
    one machine object hash it once.
    """
    from repro.service.keys import machine_digest

    digest_by_id: Dict[int, str] = {}
    table: Dict[str, object] = {}
    refs: List[str] = []
    for job in jobs:
        resolved = job.machine if job.machine is not None else machine
        digest = digest_by_id.get(id(resolved))
        if digest is None:
            digest = machine_digest(resolved)
            digest_by_id[id(resolved)] = digest
        table.setdefault(digest, resolved)
        refs.append(digest)
    return table, refs


def _run_pool(
    jobs: Sequence[ScheduleJob],
    machine,
    workers: int,
    chunk_size: Optional[int],
    timeout: Optional[float],
    max_retries: int,
    backoff: float,
    observe: bool,
    progress,
    flight_dir: Optional[str],
    flight_events: int,
    stats: PoolStats,
) -> List[JobResult]:
    """Run jobs in chunks on a process pool, down the fault ladder."""
    job_args = (timeout, observe, flight_dir, flight_events)
    table, refs = _machine_table(jobs, machine)
    machines_blob = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
    # Chunk payloads reference machines by digest only; strip the
    # per-job machine so it is never pickled twice.
    entry_of = {
        job.index: (dataclasses.replace(job, machine=None), ref)
        for job, ref in zip(jobs, refs)
    }

    results: Dict[int, JobResult] = {}
    pending: List[ScheduleJob] = list(jobs)
    while pending:
        size = chunk_size or math.ceil(
            len(pending) / (workers * CHUNKS_PER_WORKER)
        )
        chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
        try:
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(chunks)),
                initializer=_init_worker,
                initargs=(machines_blob,),
            )
        except (OSError, ValueError, RuntimeError):
            # Final rung of the ladder: no subprocesses available.
            stats.fallback_serial = True
            for result in _run_in_process(pending, machine, progress, *job_args):
                results[result.index] = result
            break

        stats.chunks += len(chunks)
        broken = False
        hung = False
        try:
            futures = {}
            for chunk in chunks:
                future = executor.submit(
                    _run_chunk, [entry_of[job.index] for job in chunk], *job_args
                )
                for job in chunk:
                    _emit(progress, KIND_STARTED, job)
                futures[future] = chunk
            backstop = None
            if timeout is not None and timeout > 0:
                longest = max(len(chunk) for chunk in chunks)
                waves = math.ceil(len(chunks) / workers)
                backstop = (
                    waves * (longest * timeout + BACKSTOP_GRACE) + BACKSTOP_GRACE
                )
            try:
                for future in concurrent.futures.as_completed(
                    futures, timeout=backstop
                ):
                    try:
                        chunk_results = future.result()
                    except concurrent.futures.process.BrokenProcessPool:
                        broken = True
                        continue  # other done futures may still hold results
                    except concurrent.futures.CancelledError:
                        continue
                    for result in chunk_results:
                        results[result.index] = result
                        _emit_result(progress, result)
            except concurrent.futures.TimeoutError:
                # SIGALRM-immune hang: give up on everything unfinished.
                hung = True
                for future, chunk in futures.items():
                    if future.done() and not future.cancelled():
                        continue  # re-run next round; results are pure
                    for job in chunk:
                        if job.index not in results:
                            results[job.index] = _unresponsive(job)
                            _emit_result(progress, results[job.index])
        finally:
            # Never block on a broken pool or a hung worker; abandoning
            # the stuck process is the price of finishing the batch.
            executor.shutdown(wait=not (broken or hung), cancel_futures=True)

        pending = [job for job in jobs if job.index not in results]
        if pending and broken:
            # A worker died and took the shared pool with it.  Which job
            # killed it is unknowable from here, so blame nobody:
            # quarantine every unfinished job in its own single-worker
            # pool, where a repeat offender can only crash itself.
            stats.rebuilds += 1
            for job in pending:
                _emit(progress, KIND_QUARANTINED, job)
                results[job.index] = run_quarantined(
                    job, machine, timeout, max_retries, backoff, stats,
                    observe=observe, flight_dir=flight_dir,
                    flight_events=flight_events,
                )
                _emit_result(progress, results[job.index])
            pending = []
    return list(results.values())


def run_jobs(
    jobs: Sequence[ScheduleJob],
    machine,
    workers: int = 1,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff: float = 0.1,
    observe: bool = False,
    progress=None,
    flight_dir: Optional[str] = None,
    flight_events: int = DEFAULT_FLIGHT_CAPACITY,
    chunk_size: Optional[int] = None,
) -> Tuple[List[JobResult], PoolStats]:
    """Run jobs; return submission-ordered results plus pool stats.

    ``workers <= 1`` runs every job in-process; more workers use the
    chunked pool.  ``chunk_size`` fixes the jobs per pool future
    (default: ``ceil(n / (workers * CHUNKS_PER_WORKER))``).
    ``observe`` makes every job return its trace, metrics and profile
    in ``result.observation`` (see :func:`execute_job`).
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    started = time.perf_counter()
    serial = workers <= 1
    stats = PoolStats(
        workers=1 if serial else workers,
        jobs=len(jobs),
        backend="serial" if serial else "chunked",
        fallback_serial=serial,
    )
    if serial or len(jobs) <= 1:
        results = _run_in_process(
            jobs, machine, progress, timeout, observe, flight_dir, flight_events
        )
    else:
        results = _run_pool(
            jobs, machine, workers, chunk_size, timeout, max_retries, backoff,
            observe, progress, flight_dir, flight_events, stats,
        )
    stats.wall_seconds = time.perf_counter() - started
    ordered = order_results(results)
    _tally(stats, ordered)
    return ordered, stats
