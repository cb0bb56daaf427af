"""Batch scheduling service: one execution path + one result cache.

The scheduler itself is a pure function from ``(loop, machine,
algorithm, options)`` to a schedule, which makes it an ideal service
workload: requests are independent, results are deterministic, and the
same configuration is rescheduled over and over by figures, tables and
regression runs.  This package turns :func:`repro.experiments.runner.
measure_loop` into exactly that service:

- :mod:`repro.service.keys` — canonical, ``PYTHONHASHSEED``-independent
  serialization of a scheduling request into a stable SHA-256 cache key
  (programs, options, and whole machine descriptions);
- :mod:`repro.service.cache` — the :class:`CacheBackend` protocol and
  its one local store, a content-addressed single-file sqlite database
  in WAL mode, plus one garbage collector written against the
  protocol;
- :mod:`repro.service.jobs` — job/result records with an explicit
  status (``ok | failed | timeout | crashed | cached``), optional
  per-job machines for heterogeneous sweeps, deterministic result
  ordering, and the per-job observation (trace, metrics, profile) an
  observed job returns inside its result;
- :mod:`repro.service.pool` — :func:`run_jobs`, the one dispatcher:
  the worker count picks in-process execution or the chunked process
  pool that keeps deserialized machines resident in workers, with
  in-worker wall-clock budgets, crash quarantine with bounded retry and
  graceful degradation to in-process serial execution;
- :mod:`repro.service.batch` — the batch front end
  (``python -m repro batch``) tying the above together.
"""

from repro.service.cache import (
    CacheBackend,
    CacheEntry,
    CacheOpenError,
    CacheStats,
    GCReport,
    SQLiteCache,
    collect_garbage,
    open_cache,
)
from repro.service.jobs import (
    JOB_CACHED,
    JOB_CRASHED,
    JOB_FAILED,
    JOB_OK,
    JOB_STATUSES,
    JOB_TIMEOUT,
    JobResult,
    ScheduleJob,
    make_jobs,
    order_results,
)
from repro.service.keys import (
    KEY_SCHEMA_VERSION,
    cache_key,
    canonical_machine,
    canonical_options,
    canonical_program,
    canonical_request,
    machine_digest,
)
from repro.service.pool import PoolStats, run_jobs
from repro.service.batch import BatchReport, batch_main, run_batch

__all__ = [
    "CacheBackend",
    "CacheEntry",
    "CacheOpenError",
    "CacheStats",
    "GCReport",
    "SQLiteCache",
    "collect_garbage",
    "open_cache",
    "JOB_CACHED",
    "JOB_CRASHED",
    "JOB_FAILED",
    "JOB_OK",
    "JOB_STATUSES",
    "JOB_TIMEOUT",
    "JobResult",
    "ScheduleJob",
    "make_jobs",
    "order_results",
    "KEY_SCHEMA_VERSION",
    "cache_key",
    "canonical_machine",
    "canonical_options",
    "canonical_program",
    "canonical_request",
    "machine_digest",
    "PoolStats",
    "run_jobs",
    "BatchReport",
    "batch_main",
    "run_batch",
]
