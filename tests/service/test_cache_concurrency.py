"""Concurrent cache writers: many processes, one store, zero corruption.

Two worker processes hammer a single WAL sqlite database with a mix of
shared keys (both processes write the same entry) and per-process
distinct keys.  The invariants under test:

- a read NEVER sees a torn entry: it returns the complete, exact
  payload for that key, or a miss — nothing in between;
- no reader ever counts a corrupt entry;
- after the dust settles, every key holds exactly the payload its
  content address promises.

Payloads are synthesized deterministically per key (no timing jitter),
so "the exact payload" is byte-defined and any divergence is corruption
by construction.
"""

import multiprocessing
import sys
import traceback

import pytest

from repro.canonical import canonical_dumps
from repro.experiments.metrics import LoopMetrics
from repro.service.cache import SQLiteCache, metrics_to_payload

WORKERS = 2
ROUNDS = 25
SHARED_KEYS = 4
DISTINCT_KEYS = 4


def _metrics_for(tag: int) -> LoopMetrics:
    """A fully-populated LoopMetrics derived deterministically from a tag."""
    return LoopMetrics(
        name=f"loop{tag}",
        klass="neither",
        n_basic_blocks=1,
        n_ops=tag + 3,
        n_critical_ops_at_mii=tag % 5,
        n_recurrence_ops=tag % 3,
        n_div_ops=0,
        rec_mii=1,
        res_mii=tag % 7 + 1,
        mii=tag % 7 + 1,
        min_avg_at_mii=tag + 2,
        gprs=tag + 10,
        success=True,
        ii=tag % 7 + 1,
        span=tag + 20,
        stages=3,
        max_live=tag + 5,
        min_avg=tag + 2,
        icr=tag,
        attempts=1,
        placements=tag + 3,
        forced=0,
        ejections=0,
        mindist_seconds=0.5,
        scheduling_seconds=1.5,
        recmii_seconds=0.25,
        failure_reason=None,
    )


def _key(tag: int) -> str:
    return f"{tag:02x}" + "ab" * 31


def _shared_tags():
    return list(range(SHARED_KEYS))


def _distinct_tags(worker_id: int):
    start = 0x10 * (worker_id + 1)
    return list(range(start, start + DISTINCT_KEYS))


def _hammer(location: str, worker_id: int, errors):
    """Interleave puts and validated gets across shared + distinct keys."""
    try:
        cache = SQLiteCache(location)
        tags = _shared_tags() + _distinct_tags(worker_id)
        for round_index in range(ROUNDS):
            for tag in tags:
                cache.put(_key(tag), _metrics_for(tag))
                # Read back a key the *other* writer may be mid-put on:
                # rotate through every key, not just our own.
                probe = tags[(round_index + tag) % len(tags)]
                got = cache.get(_key(probe))
                if got is not None and got != _metrics_for(probe):
                    errors.put(
                        f"worker {worker_id}: torn read for tag {probe}: {got}"
                    )
                    return
        if cache.stats.corrupt:
            errors.put(
                f"worker {worker_id}: {cache.stats.corrupt} corrupt reads"
            )
        cache.close()
    except Exception:
        errors.put(f"worker {worker_id}:\n{traceback.format_exc()}")


@pytest.mark.parametrize("kind", ["sqlite"])
def test_parallel_writers_never_corrupt(tmp_path, kind):
    location = str(tmp_path / "cache.sqlite")
    context = multiprocessing.get_context("fork" if sys.platform != "win32" else "spawn")
    errors = context.Queue()
    workers = [
        context.Process(target=_hammer, args=(location, worker_id, errors))
        for worker_id in range(WORKERS)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    failures = []
    for worker in workers:
        if worker.exitcode != 0:
            failures.append(f"worker exited {worker.exitcode}")
    while not errors.empty():
        failures.append(errors.get())
    assert not failures, "\n".join(failures)

    # Fresh reader: every key must hold its exact promised payload.
    cache = SQLiteCache(location)
    all_tags = _shared_tags() + [
        tag for worker_id in range(WORKERS) for tag in _distinct_tags(worker_id)
    ]
    for tag in all_tags:
        got = cache.get(_key(tag))
        assert got == _metrics_for(tag), f"tag {tag} diverged: {got}"
    assert cache.stats.corrupt == 0
    assert cache.stats.hits == len(all_tags)
    assert cache.stats.misses == 0
    entry_keys = sorted(entry.key for entry in cache.entries())
    assert entry_keys == sorted(_key(tag) for tag in all_tags)
    cache.close()


def test_same_key_writers_agree_byte_for_byte(tmp_path):
    """Two processes writing one key concurrently leave one valid row."""
    location = str(tmp_path / "cache.sqlite")
    context = multiprocessing.get_context("fork" if sys.platform != "win32" else "spawn")
    errors = context.Queue()
    workers = [
        context.Process(target=_hammer, args=(location, 0, errors)),
        context.Process(target=_hammer, args=(location, 0, errors)),
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert all(worker.exitcode == 0 for worker in workers)
    assert errors.empty()
    cache = SQLiteCache(location)
    for tag in _shared_tags() + _distinct_tags(0):
        rows = cache._conn.execute(
            "SELECT payload FROM results WHERE key = ?", (_key(tag),)
        ).fetchall()
        # One row holding the complete canonical envelope, byte for byte.
        assert rows == [
            (canonical_dumps(metrics_to_payload(_key(tag), _metrics_for(tag))),)
        ]
        assert cache.get(_key(tag)) == _metrics_for(tag)
    assert cache.stats.corrupt == 0
    cache.close()
