"""Result cache: roundtrip, corruption tolerance (repro.service.cache)."""

import dataclasses
import json

from repro.canonical import canonical_dumps
from repro.experiments import measure_loop
from repro.experiments.metrics import LoopMetrics
from repro.machine import cydra5
from repro.service.cache import (
    RESULT_SCHEMA_VERSION,
    SQLiteCache,
    metrics_to_payload,
    payload_to_metrics,
)
from repro.workloads.livermore import kernel3_inner_product

MACHINE = cydra5()
KEY = "ab" + "0" * 62


def _metrics() -> LoopMetrics:
    return measure_loop(kernel3_inner_product(), MACHINE)


def _failed_metrics() -> LoopMetrics:
    metrics = _metrics()
    return dataclasses.replace(
        metrics,
        success=False,
        span=None,
        stages=None,
        max_live=None,
        min_avg=None,
        icr=None,
        failure_reason="attempts_exhausted",
    )


def _cache(tmp_path) -> SQLiteCache:
    return SQLiteCache(str(tmp_path / "cache.sqlite"))


def _store_payload(cache: SQLiteCache, text: str) -> None:
    """Write a raw payload row for KEY, bypassing put's encoding."""
    cache._conn.execute(
        "INSERT OR REPLACE INTO results"
        " (key, payload, size_bytes, created_unix) VALUES (?, ?, ?, 0)",
        (KEY, text, len(text)),
    )


def test_roundtrip(tmp_path):
    cache = _cache(tmp_path)
    metrics = _metrics()
    assert cache.get(KEY) is None  # cold
    assert cache.put(KEY, metrics)
    assert cache.get(KEY) == metrics
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.writes == 1
    cache.close()


def test_roundtrip_preserves_failure_sentinels(tmp_path):
    cache = _cache(tmp_path)
    failed = _failed_metrics()
    cache.put(KEY, failed)
    loaded = cache.get(KEY)
    assert loaded == failed
    assert loaded.max_live is None and loaded.failure_reason == "attempts_exhausted"
    cache.close()


def test_corrupt_entry_is_a_miss_then_recomputable(tmp_path):
    cache = _cache(tmp_path)
    metrics = _metrics()
    cache.put(KEY, metrics)
    _store_payload(cache, '{"schema": "repro.service.result", "metri')  # truncated
    assert cache.get(KEY) is None
    assert cache.stats.corrupt == 1
    # The degraded path recomputes and overwrites the bad entry.
    cache.put(KEY, metrics)
    assert cache.get(KEY) == metrics
    cache.close()


def test_garbage_bytes_are_a_miss(tmp_path):
    cache = _cache(tmp_path)
    _store_payload(cache, "\x00\xff\x13garbage")
    assert cache.get(KEY) is None
    assert cache.stats.corrupt == 1
    cache.close()


def test_schema_version_mismatch_is_a_miss(tmp_path):
    cache = _cache(tmp_path)
    payload = metrics_to_payload(KEY, _metrics())
    payload["schema_version"] = RESULT_SCHEMA_VERSION + 1
    _store_payload(cache, canonical_dumps(payload))
    assert cache.get(KEY) is None
    cache.close()


def test_field_drift_is_a_miss(tmp_path):
    """An entry written by a revision with different LoopMetrics fields
    must not be trusted."""
    cache = _cache(tmp_path)
    payload = metrics_to_payload(KEY, _metrics())
    payload["metrics"]["bogus_future_field"] = 1
    _store_payload(cache, json.dumps(payload))
    assert cache.get(KEY) is None
    assert cache.stats.corrupt == 1
    cache.close()


def test_payload_decode_is_strict():
    metrics = _metrics()
    payload = metrics_to_payload(KEY, metrics)
    assert payload_to_metrics(payload) == metrics
    del payload["metrics"]["name"]
    try:
        payload_to_metrics(payload)
    except ValueError as error:
        assert "name" in str(error)
    else:
        raise AssertionError("missing field must not decode")


def test_unwritable_root_degrades_gracefully(tmp_path):
    cache = _cache(tmp_path)
    # A read-only connection refuses every write, even for root.
    cache._conn.execute("PRAGMA query_only=ON")
    assert cache.put(KEY, _metrics()) is False
    assert cache.stats.write_errors == 1
    assert cache.get(KEY) is None  # still just a miss, no raise
    cache.close()
