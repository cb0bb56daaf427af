"""CacheBackend protocol: sqlite store, legacy-directory migration, GC."""

import os

import pytest

from repro.canonical import canonical_dumps
from repro.experiments import measure_loop
from repro.machine import cydra5
from repro.service.cache import (
    SQLiteCache,
    collect_garbage,
    metrics_to_payload,
    open_cache,
)
from repro.workloads import paper_corpus
from repro.workloads.livermore import kernel3_inner_product

MACHINE = cydra5()


def _metrics():
    return measure_loop(kernel3_inner_product(), MACHINE)


def _key(i: int) -> str:
    return f"{i:02x}" + "0" * 62


def _make(tmp_path):
    return SQLiteCache(str(tmp_path / "cache.sqlite"))


def _backdate(cache, key, when: float) -> None:
    cache._conn.execute(
        "UPDATE results SET created_unix = ? WHERE key = ?", (when, key)
    )


def _write_legacy(root, key, metrics) -> str:
    """One blob in the legacy directory layout ``<root>/<key[:2]>/<key>.json``."""
    path = os.path.join(str(root), key[:2], f"{key}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        handle.write(canonical_dumps(metrics_to_payload(key, metrics)) + "\n")
    return path


# ----------------------------------------------------------------------
# SQLiteCache basics
# ----------------------------------------------------------------------
def test_sqlite_roundtrip_and_wal(tmp_path):
    path = str(tmp_path / "cache.sqlite")
    cache = SQLiteCache(path)
    metrics = _metrics()
    assert cache.get(_key(1)) is None and cache.stats.misses == 1
    assert cache.put(_key(1), metrics)
    assert cache.get(_key(1)) == metrics
    assert cache.stats.hits == 1 and cache.stats.writes == 1
    assert cache.describe() == f"sqlite:{path}"
    mode = cache._conn.execute("PRAGMA journal_mode").fetchone()[0]
    assert mode == "wal"
    cache.close()
    # One file (plus WAL sidecars), reopenable, entries survive.
    reopened = SQLiteCache(path)
    assert reopened.get(_key(1)) == metrics
    reopened.close()


def test_sqlite_corrupt_payload_is_a_miss(tmp_path):
    cache = SQLiteCache(str(tmp_path / "c.sqlite"))
    cache.put(_key(1), _metrics())
    cache._conn.execute(
        "UPDATE results SET payload = '{not json' WHERE key = ?", (_key(1),)
    )
    assert cache.get(_key(1)) is None
    assert cache.stats.corrupt == 1
    cache.close()


def test_sqlite_entries_and_remove(tmp_path):
    cache = SQLiteCache(str(tmp_path / "c.sqlite"))
    metrics = _metrics()
    for i in range(3):
        cache.put(_key(i), metrics)
    entries = list(cache.entries())
    assert sorted(e.key for e in entries) == [_key(0), _key(1), _key(2)]
    assert all(e.size_bytes > 0 and e.created_unix > 0 for e in entries)
    assert cache.remove(_key(1))
    assert not cache.remove(_key(1))  # already gone
    assert sorted(e.key for e in cache.entries()) == [_key(0), _key(2)]
    cache.close()


# ----------------------------------------------------------------------
# Legacy directory layout: same payload envelope, migratable
# ----------------------------------------------------------------------
def test_directory_entry_readable_after_sqlite_import(tmp_path):
    """Legacy directory blobs -> sqlite -> equal metrics, mtimes kept."""
    root = tmp_path / "dir"
    stored = {}
    mtimes = {}
    for i, program in enumerate(paper_corpus(3)):
        metrics = measure_loop(program, MACHINE)
        path = _write_legacy(root, _key(i), metrics)
        when = 1_000_000.0 + i
        os.utime(path, (when, when))
        stored[_key(i)] = metrics
        mtimes[_key(i)] = when

    sqlite = SQLiteCache(str(tmp_path / "c.sqlite"))
    assert sqlite.import_directory(str(root)) == 3
    # Timestamps carried over from the file mtimes.
    sql_times = {e.key: e.created_unix for e in sqlite.entries()}
    assert sql_times == pytest.approx(mtimes)
    for key, metrics in stored.items():
        assert sqlite.get(key) == metrics
    sqlite.close()


def test_import_skips_corrupt_and_existing(tmp_path):
    root = tmp_path / "dir"
    broken = _write_legacy(root, _key(1), _metrics())
    _write_legacy(root, _key(2), _metrics())
    with open(broken, "w") as handle:
        handle.write("{broken")
    sqlite = SQLiteCache(str(tmp_path / "c.sqlite"))
    newer = _metrics()
    sqlite.put(_key(2), newer, created_unix=5.0)
    assert sqlite.import_directory(str(root)) == 0  # 1 corrupt, 1 existing
    assert sqlite.get(_key(2)) == newer  # existing sqlite row won
    assert [(e.key, e.created_unix) for e in sqlite.entries()] == [(_key(2), 5.0)]
    sqlite.close()


def test_open_cache_selects_backend(tmp_path):
    assert open_cache() is None
    sqlite = open_cache(cache_db=str(tmp_path / "c.sqlite"))
    assert isinstance(sqlite, SQLiteCache)
    sqlite.close()


def test_run_batch_sqlite_warm_hits(tmp_path):
    from repro.service.batch import run_batch

    db = str(tmp_path / "results.sqlite")
    programs = paper_corpus(4)
    cache = SQLiteCache(db)
    cold = run_batch(programs, MACHINE, cache=cache, jobs=2)
    cache.close()
    assert cold.cache.misses == 4 and cold.cache.writes == 4
    assert cold.cache_location == f"sqlite:{db}"
    cache = SQLiteCache(db)
    warm = run_batch(programs, MACHINE, cache=cache, jobs=2)
    cache.close()
    assert warm.cache.hits == 4 and warm.counts() == {"cached": 4}
    assert warm.loop_metrics == cold.loop_metrics


# ----------------------------------------------------------------------
# Garbage collection: one policy, both backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["sqlite"])
def test_gc_no_bounds_is_inventory_only(kind, tmp_path):
    cache = _make(tmp_path)
    for i in range(3):
        cache.put(_key(i), _metrics())
    report = collect_garbage(cache)
    assert report.examined == 3 and report.removed == 0
    assert report.bytes_after == report.bytes_before > 0
    assert "kept 3" in report.summary()
    cache.close()


@pytest.mark.parametrize("kind", ["sqlite"])
def test_gc_age_bound_evicts_only_expired(kind, tmp_path):
    cache = _make(tmp_path)
    metrics = _metrics()
    for i in range(4):
        cache.put(_key(i), metrics)
    now = 1_000_000.0
    for i in range(4):
        _backdate(cache, _key(i), now - (1000.0 if i < 2 else 10.0))
    report = collect_garbage(cache, max_age_seconds=100.0, now=now)
    assert report.removed == 2
    kept = sorted(e.key for e in cache.entries())
    assert kept == [_key(2), _key(3)]
    cache.close()


@pytest.mark.parametrize("kind", ["sqlite"])
def test_gc_size_bound_keeps_youngest(kind, tmp_path):
    cache = _make(tmp_path)
    metrics = _metrics()
    now = 1_000_000.0
    for i in range(4):
        cache.put(_key(i), metrics)
        _backdate(cache, _key(i), now - 100.0 + i)  # key 0 oldest
    entries = {e.key: e.size_bytes for e in cache.entries()}
    total = sum(entries.values())
    budget = total - entries[_key(0)]  # exactly one eviction needed
    report = collect_garbage(cache, max_bytes=budget, now=now)
    assert report.removed == 1
    assert sorted(e.key for e in cache.entries()) == [_key(1), _key(2), _key(3)]
    assert report.bytes_after <= budget
    cache.close()


@pytest.mark.parametrize("kind", ["sqlite"])
def test_gc_both_bounds_compose(kind, tmp_path):
    cache = _make(tmp_path)
    metrics = _metrics()
    now = 1_000_000.0
    for i in range(4):
        cache.put(_key(i), metrics)
        _backdate(cache, _key(i), now - 100.0 + i)
    report = collect_garbage(cache, max_bytes=0, max_age_seconds=1e9, now=now)
    assert report.removed == 4 and report.bytes_after == 0
    assert list(cache.entries()) == []
    cache.close()


# ----------------------------------------------------------------------
# CLI: batch --gc and --cache-db
# ----------------------------------------------------------------------
def test_cli_gc_size_bound(tmp_path, capsys):
    from repro.service.batch import batch_main

    cache = str(tmp_path / "cache.sqlite")
    assert batch_main(["--corpus", "4", "--cache-db", cache]) == 0
    capsys.readouterr()
    assert batch_main(
        ["--gc", "--cache-db", cache, "--max-cache-bytes", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "gc: examined 4 entries" in out and "removed 4" in out
    assert batch_main(["--gc", "--cache-db", cache]) == 0
    assert "examined 0 entries" in capsys.readouterr().out


def test_cli_gc_age_bound_sqlite(tmp_path, capsys):
    from repro.service.batch import batch_main

    db = str(tmp_path / "cache.sqlite")
    assert batch_main(["--corpus", "3", "--cache-db", db]) == 0
    capsys.readouterr()
    assert batch_main(["--gc", "--cache-db", db, "--max-cache-age", "1h"]) == 0
    out = capsys.readouterr().out
    assert "removed 0" in out  # nothing is an hour old yet
    assert batch_main(["--gc", "--cache-db", db, "--max-cache-age", "0s"]) == 0
    assert "removed 3" in capsys.readouterr().out


def test_cli_gc_missing_cache_exits_2(tmp_path, capsys):
    from repro.service.batch import batch_main

    missing = tmp_path / "nope.sqlite"
    assert batch_main(["--gc", "--cache-db", str(missing)]) == 2
    assert f"no cache at {missing}" in capsys.readouterr().err
    assert not missing.exists()  # gc never creates a database


def test_cli_gc_bad_bounds_exit_2(tmp_path, capsys):
    from repro.service.batch import batch_main

    cache = str(tmp_path / "cache.sqlite")
    SQLiteCache(cache).close()
    assert batch_main(
        ["--gc", "--cache-db", cache, "--max-cache-bytes", "five"]
    ) == 2
    assert "cannot parse size" in capsys.readouterr().err
    assert batch_main(
        ["--gc", "--cache-db", cache, "--max-cache-age", "yesterday"]
    ) == 2
    assert "cannot parse age" in capsys.readouterr().err


def test_cli_cache_dir_and_db_conflict(tmp_path, capsys):
    """``--cache-dir`` is not an option: argparse exits 2, nothing is created."""
    from repro.service.batch import batch_main

    with pytest.raises(SystemExit) as exit_info:
        batch_main(
            [
                "--corpus", "2",
                "--cache-dir", str(tmp_path / "d"),
                "--cache-db", str(tmp_path / "c.sqlite"),
            ]
        )
    assert exit_info.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()
    assert not (tmp_path / "c.sqlite").exists()


def test_cli_removed_directory_flags_exit_2(tmp_path, capsys):
    from repro.server.app import serve_main
    from repro.service.batch import batch_main

    for main, argv in (
        (batch_main, ["--corpus", "2", "--cache-fallback-dir", str(tmp_path)]),
        (serve_main, ["--port", "0", "--cache-dir", str(tmp_path)]),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_cache_url_falls_back_to_cache_db(tmp_path, capsys):
    """``--cache-url`` with ``--cache-db``: the database is the fallback."""
    from repro.service.batch import batch_main

    db = str(tmp_path / "x.sqlite")
    argv = ["--corpus", "2", "--cache-url", "http://127.0.0.1:1", "--cache-db", db]
    assert batch_main(argv) == 0
    assert f"(fallback sqlite:{db})" in capsys.readouterr().out
    cache = SQLiteCache(db)
    assert len(list(cache.entries())) == 2  # computed results landed locally
    cache.close()
    assert batch_main(argv) == 0
    assert "cache: 2 hits, 0 misses" in capsys.readouterr().out


def _unopenable(where, tmp_path) -> str:
    if where == "directory":
        return str(tmp_path)  # a directory, not a database file
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    return str(blocker / "c.sqlite")


@pytest.mark.parametrize("entry", ["batch", "gc", "serve"])
@pytest.mark.parametrize("where", ["directory", "under-file"])
def test_cli_unopenable_cache_is_a_one_line_error(where, entry, tmp_path, capsys):
    from repro.server.app import serve_main
    from repro.service.batch import batch_main

    path = _unopenable(where, tmp_path)
    if entry == "serve":
        code = serve_main(["--port", "0", "--cache-db", path])
    elif entry == "gc":
        code = batch_main(["--gc", "--cache-db", path])
    else:
        code = batch_main(["--corpus", "1", "--cache-db", path])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot open cache {path}: ")
    assert err.count("\n") == 1


def test_parse_size_and_age_suffixes():
    from repro.service.batch import parse_age, parse_size

    assert parse_size("1048576") == 1 << 20
    assert parse_size("500M") == 500 * (1 << 20)
    assert parse_size("2G") == 2 * (1 << 30)
    assert parse_size("1KB") == 1024
    assert parse_age("3600") == 3600.0
    assert parse_age("12h") == 12 * 3600.0
    assert parse_age("7d") == 7 * 86400.0
    assert parse_age("30m") == 1800.0
