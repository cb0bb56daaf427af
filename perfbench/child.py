"""One benchmark process: set up, then (optionally) measure passes.

Run as ``python3 perfbench/child.py '<json config>'`` by ``run.py``; the
last line of standard output is a JSON object with what it measured.

Config keys: ``mode`` ("setup" or "measure"), ``workload``, ``seed``,
``budget_s``, ``traced``, ``launched_at`` (the parent's
``time.monotonic()`` just before it started this process), ``work_dir``
and ``spans_out`` (where a traced run writes its last pass's spans).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def set_up(config):
    """Imports, registry machine builds and cache open: what precedes the
    first loop.  Returns (machines, cache, timings)."""
    import repro.service  # noqa: F401  (pipeline imports every other layer)
    from repro.machine import build_machine

    import pipeline  # noqa: F401
    import workloads

    imported = time.monotonic()
    machines = {
        name: build_machine(name)
        for name in workloads.machine_names_for(config["workload"])
    }
    built = time.monotonic()
    cache = None
    if config["workload"] == "batch_rerun":
        cache = open_cache(config["work_dir"], "setup")
    ready = time.monotonic()
    from calibrate import REFERENCE_MS, kernel_ms

    scale = REFERENCE_MS / kernel_ms()
    timings = {
        "setup_s": (ready - config["launched_at"]) * scale,
        "machine_build_s": (built - imported) * scale,
    }
    return machines, cache, timings


def open_cache(work_dir: str, tag: str):
    from repro.service import SQLiteCache

    path = os.path.join(work_dir, f"cache-{os.getpid()}-{tag}.sqlite")
    return SQLiteCache(path)


def close_cache(cache) -> None:
    cache.close()
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(cache.path + suffix)
        except FileNotFoundError:
            pass


def timed_cache(inner, spans):
    """A CacheBackend proxy that records a span around every get/put."""
    from repro.service import CacheBackend

    class TimedCache(CacheBackend):
        def __init__(self):
            self.stats = inner.stats

        def get(self, key):
            return spans.call("service.cache_get", inner.get, key)

        def put(self, key, metrics):
            return spans.call("service.cache_put", inner.put, key, metrics)

        def describe(self):
            return inner.describe()

    return TimedCache()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished worker (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def measure(config, machines, setup_cache):
    import workloads
    from spans import NullSpans, Spans

    workload, seed = config["workload"], config["seed"]
    spans = Spans() if config["traced"] else NullSpans()
    if workload == "batch_rerun":
        close_cache(setup_cache)
        programs, universe, rounds = workloads.batch_rounds(seed)
        population = sum(len(r) for r in rounds)
        order = list(range(len(rounds)))
    else:
        items = workloads.pipeline_items(workload, seed)
        population = len(items)
        order = [item[0] for item in items]

    passes = []
    layer_s: dict = {}
    layer_calls: dict = {}
    started = time.perf_counter()
    while True:
        if spans.enabled:
            spans.clear()
        if workload == "batch_rerun":
            cache = open_cache(config["work_dir"], str(len(passes)))
            try:
                used = timed_cache(cache, spans) if spans.enabled else cache
                result = workloads.batch_pass(
                    programs, universe, rounds, machines, used, spans
                )
            finally:
                close_cache(cache)
        else:
            result = workloads.pipeline_pass(items, machines, seed, spans)
        passes.append(result)
        if spans.enabled:
            seconds, calls = spans.self_times()
            for name, value in seconds.items():
                layer_s[name] = layer_s.get(name, 0.0) + value
            for name, value in calls.items():
                layer_calls[name] = layer_calls.get(name, 0) + value
        elapsed = time.perf_counter() - started
        if (
            len(passes) >= workloads.MIN_PASSES
            and elapsed + result.wall_s > config["budget_s"]
        ):
            break
    if spans.enabled and config.get("spans_out"):
        spans.write_jsonl(config["spans_out"])

    tallies = [vars(p.tally) for p in passes]
    return {
        "passes": len(passes),
        "population": population,
        "tally": tallies[0],
        "tallies_agree": all(t == tallies[0] for t in tallies),
        "wall_s": [p.wall_s for p in passes],
        "raw_busy_s": [sum(p.samples.raw_ms) / 1000.0 for p in passes],
        "raw_wall_s": [p.wall_s - p.samples.calibration_s for p in passes],
        "busy_s": [sum(p.samples.scaled_ms) / 1000.0 for p in passes],
        "sample_ms": [p.samples.scaled_ms for p in passes],
        "order": order,
        "round_sizes": [len(r) for r in rounds] if workload == "batch_rerun" else None,
        "job_compute_s": sum(p.job_compute_s for p in passes),
        "errors": [e for p in passes for e in p.errors][:20],
        "layer_s": layer_s,
        "layer_calls": layer_calls,
    }


def main() -> int:
    config = json.loads(sys.argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    machines, cache, timings = set_up(config)
    out = dict(timings)
    if config["mode"] == "setup":
        if cache is not None:
            close_cache(cache)
    else:
        out.update(measure(config, machines, cache))
    import numpy
    import repro

    out["repro_file"] = repro.__file__
    out["numpy"] = numpy.__version__
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
