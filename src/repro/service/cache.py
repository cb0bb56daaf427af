"""Content-addressed result cache behind one ``CacheBackend`` protocol.

``SQLiteCache`` is the one local store: a single-file sqlite database
in WAL mode (readers never block the writer and vice versa), one row
per result keyed by the request's content address, holding the
canonical JSON payload envelope.  One file instead of thousands makes
the cache trivially shareable — copy it between CI runs, mount it
read-mostly, ship it as an artifact.  The CLI default is
``DEFAULT_CACHE_DB``; the ``-wal``/``-shm`` side files sit next to it.
:meth:`SQLiteCache.import_directory` migrates the legacy fan-out
directory layout (``<root>/<key[:2]>/<key>.json``) once, in bulk,
preserving each blob's timestamp.

Reads are corruption-tolerant: any unparsable, schema-mismatched or
field-mismatched entry is treated as a miss and the caller recomputes
(and overwrites) it.  A cache is therefore purely an accelerator; it
can be deleted, truncated or corrupted at any time without changing
results.

Every backend (this store, :class:`repro.server.httpcache.HTTPCache`
and the server's ``LockedCache``) also exposes
:meth:`CacheBackend.entries` / :meth:`CacheBackend.remove`, which is all
:func:`collect_garbage` needs — eviction (``batch --gc``) is written
once against the protocol.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import time
from typing import Iterator, Optional

from repro.canonical import canonical_dumps
from repro.experiments.metrics import LoopMetrics

#: Payload envelope identifiers; version bumps invalidate old entries.
RESULT_SCHEMA = "repro.service.result"
RESULT_SCHEMA_VERSION = 1

#: Default on-disk cache location for the CLI (API default is no cache).
DEFAULT_CACHE_DB = ".repro-cache/results.sqlite"


class CacheOpenError(Exception):
    """A cache store could not be opened; the message names its path."""

    def __init__(self, path: str, reason: object):
        super().__init__(f"cannot open cache {path}: {reason}")
        self.path = path


@dataclasses.dataclass
class CacheStats:
    """Counters for one cache's lifetime in this process."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0  # entries that existed but could not be trusted
    writes: int = 0
    write_errors: int = 0


def metrics_to_payload(key: str, metrics: LoopMetrics) -> dict:
    """Wrap a LoopMetrics into the on-disk JSON envelope."""
    return {
        "schema": RESULT_SCHEMA,
        "schema_version": RESULT_SCHEMA_VERSION,
        "key": key,
        "metrics": dataclasses.asdict(metrics),
    }


def payload_to_metrics(payload: dict) -> LoopMetrics:
    """Strictly decode an envelope back into a LoopMetrics.

    Raises ``ValueError`` on any mismatch — wrong schema, wrong version,
    or a field set that does not exactly match the current dataclass
    (e.g. an entry written by an older code revision).  Callers treat
    the error as a cache miss.
    """
    if not isinstance(payload, dict):
        raise ValueError("payload is not an object")
    if payload.get("schema") != RESULT_SCHEMA:
        raise ValueError(f"unexpected schema {payload.get('schema')!r}")
    if payload.get("schema_version") != RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {payload.get('schema_version')!r}"
        )
    record = payload.get("metrics")
    if not isinstance(record, dict):
        raise ValueError("missing metrics record")
    expected = {field.name for field in dataclasses.fields(LoopMetrics)}
    found = set(record)
    if found != expected:
        raise ValueError(
            f"metrics fields do not match: missing {sorted(expected - found)}, "
            f"unknown {sorted(found - expected)}"
        )
    return LoopMetrics(**record)


@dataclasses.dataclass
class CacheEntry:
    """One stored result as the garbage collector sees it."""

    key: str
    size_bytes: int
    created_unix: float
    #: Last read time, updated on every hit; equals creation time for
    #: an entry that has never been read (or was imported unread).
    accessed_unix: float = 0.0

    def __post_init__(self):
        if not self.accessed_unix:
            self.accessed_unix = self.created_unix


class CacheBackend:
    """Storage protocol: get/put for the batch path, entries/remove for GC."""

    stats: CacheStats

    def get(self, key: str) -> Optional[LoopMetrics]:
        raise NotImplementedError

    def put(self, key: str, metrics: LoopMetrics) -> bool:
        raise NotImplementedError

    def entries(self) -> Iterator[CacheEntry]:
        raise NotImplementedError

    def remove(self, key: str) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources."""

    def describe(self) -> str:
        """One-word-ish location string for CLI summaries."""
        raise NotImplementedError


class SQLiteCache(CacheBackend):
    """Single-file sqlite result cache (WAL mode, shared across runs)."""

    def __init__(self, path: str, threadsafe: bool = False):
        import sqlite3

        self.path = path
        self.stats = CacheStats()
        # Autocommit (isolation_level=None) keeps puts single-statement
        # atomic without long write transactions; WAL lets concurrent
        # CI runs read while one writes.  ``threadsafe=True`` lets one
        # connection be shared across threads — the caller must then
        # serialize access itself (the server wraps the backend in a
        # lock; autocommit keeps each statement atomic regardless).
        conn = None
        try:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            conn = sqlite3.connect(
                path,
                timeout=30.0,
                isolation_level=None,
                check_same_thread=not threadsafe,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " key TEXT PRIMARY KEY,"
                " payload TEXT NOT NULL,"
                " size_bytes INTEGER NOT NULL,"
                " created_unix REAL NOT NULL,"
                " accessed_unix REAL)"
            )
            # Databases written before LRU support lack the column; add
            # it in place (NULL rows fall back to created_unix on read).
            columns = {row[1] for row in conn.execute("PRAGMA table_info(results)")}
            if "accessed_unix" not in columns:
                conn.execute("ALTER TABLE results ADD COLUMN accessed_unix REAL")
        except (sqlite3.Error, OSError) as error:
            if conn is not None:
                conn.close()
            raise CacheOpenError(path, error) from error
        self._conn = conn

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    def close(self) -> None:
        try:
            self._conn.close()
        except Exception:  # pragma: no cover - close is best-effort
            pass

    def get(self, key: str) -> Optional[LoopMetrics]:
        import sqlite3

        try:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error:
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        if row is None:
            self.stats.misses += 1
            return None
        try:
            metrics = payload_to_metrics(json.loads(row[0]))
        except (ValueError, TypeError):
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        # Record the read so --gc-policy lru can keep hot entries; a
        # failed touch (read-only mount, concurrent vacuum) must not
        # turn the hit into anything else.
        try:
            self._conn.execute(
                "UPDATE results SET accessed_unix = ? WHERE key = ?",
                (time.time(), key),
            )
        except sqlite3.Error:
            pass
        self.stats.hits += 1
        return metrics

    def put(self, key: str, metrics: LoopMetrics, created_unix: Optional[float] = None) -> bool:
        import sqlite3

        payload = canonical_dumps(metrics_to_payload(key, metrics))
        stamp = time.time() if created_unix is None else created_unix
        try:
            self._conn.execute(
                "INSERT OR REPLACE INTO results"
                " (key, payload, size_bytes, created_unix, accessed_unix)"
                " VALUES (?, ?, ?, ?, ?)",
                (
                    key,
                    payload,
                    len(payload.encode("utf-8")),
                    stamp,
                    stamp,
                ),
            )
        except sqlite3.Error:
            self.stats.write_errors += 1
            return False
        self.stats.writes += 1
        return True

    def entries(self) -> Iterator[CacheEntry]:
        import sqlite3

        try:
            rows = self._conn.execute(
                "SELECT key, size_bytes, created_unix,"
                " COALESCE(accessed_unix, created_unix)"
                " FROM results ORDER BY key"
            ).fetchall()
        except sqlite3.Error:
            return
        for key, size_bytes, created_unix, accessed_unix in rows:
            yield CacheEntry(
                key=key,
                size_bytes=size_bytes,
                created_unix=created_unix,
                accessed_unix=accessed_unix,
            )

    def remove(self, key: str) -> bool:
        import sqlite3

        try:
            cursor = self._conn.execute(
                "DELETE FROM results WHERE key = ?", (key,)
            )
        except sqlite3.Error:
            return False
        return cursor.rowcount > 0

    def import_directory(self, root: str) -> int:
        """Bulk-import a legacy directory cache rooted at ``root``.

        The legacy layout is one canonical JSON envelope per result at
        ``<root>/<key[:2]>/<key>.json``.  Each blob is strictly decoded
        before insertion (a corrupt blob is skipped, not propagated)
        and keeps its file mtime as ``created_unix`` so age-based GC
        stays meaningful.  Existing sqlite entries win over imported
        ones.  Returns the number of entries imported.
        """
        imported = 0
        for path in sorted(glob.glob(os.path.join(root, "??", "*.json"))):
            key = os.path.basename(path)[: -len(".json")]
            try:
                with open(path) as handle:
                    metrics = payload_to_metrics(json.load(handle))
                created_unix = os.stat(path).st_mtime
            except (OSError, ValueError, TypeError):
                continue
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE key = ?", (key,)
            ).fetchone()
            if row is None and self.put(key, metrics, created_unix=created_unix):
                imported += 1
        return imported


def open_cache(
    cache_db: Optional[str] = None,
    cache_url: Optional[str] = None,
    auth_token: Optional[str] = None,
) -> Optional[CacheBackend]:
    """Open the cache the CLI options name (None when neither is set).

    ``cache_db`` opens the local :class:`SQLiteCache`.  ``cache_url``
    selects the HTTP backend (:mod:`repro.server`'s shared warm cache)
    authenticated with ``auth_token``; the local database, when given,
    is then its write-through fallback for an unreachable server.
    Raises :class:`CacheOpenError` when the database cannot be opened.
    """
    local = SQLiteCache(cache_db) if cache_db is not None else None
    if cache_url is None:
        return local
    from repro.server.httpcache import HTTPCache

    return HTTPCache(cache_url, fallback=local, auth_token=auth_token)


# ----------------------------------------------------------------------
# Garbage collection (batch --gc): one policy, every backend
# ----------------------------------------------------------------------
@dataclasses.dataclass
class GCReport:
    """What one eviction pass did."""

    examined: int = 0
    removed: int = 0
    errors: int = 0
    bytes_before: int = 0
    bytes_after: int = 0

    def summary(self) -> str:
        return (
            f"gc: examined {self.examined} entries "
            f"({self.bytes_before / 1e6:.2f} MB), removed {self.removed} "
            f"({(self.bytes_before - self.bytes_after) / 1e6:.2f} MB), "
            f"kept {self.examined - self.removed} "
            f"({self.bytes_after / 1e6:.2f} MB)"
            + (f", {self.errors} error(s)" if self.errors else "")
        )


#: Eviction orders: which per-entry timestamp drives aging and sorting.
GC_POLICIES = ("oldest", "lru")


def collect_garbage(
    backend: CacheBackend,
    max_bytes: Optional[int] = None,
    max_age_seconds: Optional[float] = None,
    now: Optional[float] = None,
    policy: str = "oldest",
) -> GCReport:
    """Evict entries until the cache fits its bounds.

    ``policy`` picks the timestamp that orders eviction (and ages
    entries against ``max_age_seconds``): ``"oldest"`` uses creation
    time, ``"lru"`` uses last access, which the sqlite store records on
    every hit.  Either way the least-valuable entries go first, so a size bound
    keeps the youngest (or most recently used) entries: an entry is
    evicted when it is older than ``max_age_seconds``, or while the
    total size still exceeds ``max_bytes``.  With neither bound set,
    nothing is evicted — the report is a dry inventory.  Works against
    any :class:`CacheBackend`; eviction failures are counted, never
    raised.
    """
    if policy not in GC_POLICIES:
        raise ValueError(
            f"unknown gc policy {policy!r}; pick from {', '.join(GC_POLICIES)}"
        )
    now = time.time() if now is None else now
    stamp = (
        (lambda e: e.accessed_unix)
        if policy == "lru"
        else (lambda e: e.created_unix)
    )
    entries = sorted(backend.entries(), key=lambda e: (stamp(e), e.key))
    report = GCReport(examined=len(entries))
    total = sum(entry.size_bytes for entry in entries)
    report.bytes_before = total
    for entry in entries:
        expired = (
            max_age_seconds is not None and now - stamp(entry) > max_age_seconds
        )
        over_budget = max_bytes is not None and total > max_bytes
        if not (expired or over_budget):
            continue
        if backend.remove(entry.key):
            report.removed += 1
            total -= entry.size_bytes
        else:
            report.errors += 1
    report.bytes_after = total
    return report
