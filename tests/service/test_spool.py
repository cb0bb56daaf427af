"""Cross-process observability: each observed job returns its trace,
metrics and profile inside its JobResult, and run_batch merges them in
submission order."""

import json
import multiprocessing
import time

import pytest

from repro.machine import cydra5
from repro.obs import MetricsRegistry, Profiler
from repro.obs.trace import CollectingTracer
from repro.service.batch import run_batch
from repro.service.cache import SQLiteCache
from repro.workloads import paper_corpus

MACHINE = cydra5()


def _records_without_ts(records):
    return [{k: v for k, v in r.items() if k != "ts"} for r in records]


# ----------------------------------------------------------------------
# Parity: the merged stream is independent of the job count
# ----------------------------------------------------------------------
def test_trace_parity_serial_vs_chunked():
    programs = paper_corpus(5)
    serial = run_batch(programs, MACHINE, jobs=1, collect_trace=True)
    chunked = run_batch(
        programs, MACHINE, jobs=3, chunk_size=2, collect_trace=True
    )
    assert serial.trace_records and chunked.trace_records
    assert _records_without_ts(serial.trace_records) == _records_without_ts(
        chunked.trace_records
    )
    # Every record is tagged with its loop and job index, job-local seq.
    first = chunked.trace_records[0]
    assert first["job"] == 0 and first["seq"] == 0 and first["loop"]
    # The observation is merged, then stripped from the reported results.
    assert all(r.observation is None for r in serial.results + chunked.results)


def test_trace_parity_per_job_chunks():
    programs = paper_corpus(4)
    serial = run_batch(programs, MACHINE, jobs=1, collect_trace=True)
    per_job = run_batch(
        programs, MACHINE, jobs=2, chunk_size=1, collect_trace=True
    )
    assert _records_without_ts(serial.trace_records) == _records_without_ts(
        per_job.trace_records
    )


def test_session_tracer_receives_merged_events_across_processes():
    tracer = CollectingTracer()
    report = run_batch(paper_corpus(3), MACHINE, jobs=2, tracer=tracer)
    assert {record["job"] for record in report.trace_records} == {0, 1, 2}
    assert len(tracer.events) == len(report.trace_records) > 0
    # The session tracer restamps seq; the records keep the job-local one.
    assert [e.seq for e in tracer.events] == list(range(len(tracer.events)))
    assert report.trace_records[-1]["seq"] < len(tracer.events) - 1


def test_in_process_session_tracer_keeps_job_local_seq_in_records():
    """In-process the session tracer restamps the very event objects the
    job recorded, so each record must be built before re-emission."""
    programs = paper_corpus(3)
    plain = run_batch(programs, MACHINE, collect_trace=True)
    tracer = CollectingTracer()
    traced = run_batch(programs, MACHINE, tracer=tracer, collect_trace=True)
    assert _records_without_ts(traced.trace_records) == _records_without_ts(
        plain.trace_records
    )


def test_worker_metrics_and_profile_cross_process_boundary():
    """Pre-refactor, jobs>1 silently dropped phase timers and spans."""
    registry = MetricsRegistry()
    profiler = Profiler()
    run_batch(
        paper_corpus(3), MACHINE, jobs=2,
        metrics=registry, profiler=profiler, collect_trace=True,
    )
    snapshot = registry.snapshot()
    assert snapshot["timers"]["phase.recmii"]["count"] == 3
    assert profiler.snapshot()["spans"]


def test_profile_span_calls_match_serial():
    def spans(jobs):
        profiler = Profiler()
        run_batch(paper_corpus(4), MACHINE, jobs=jobs, profiler=profiler)
        return {
            path: entry["calls"]
            for path, entry in profiler.snapshot()["spans"].items()
        }

    assert spans(1) == spans(2)


def test_no_observers_means_no_spool_overhead():
    report = run_batch(paper_corpus(2), MACHINE, jobs=2)
    assert report.trace_records is None
    assert all(r.observation is None for r in report.results)


def test_cached_jobs_are_skipped_by_merge(tmp_path):
    """A cache hit replays no scheduler decisions: no trace records."""
    programs = paper_corpus(2)
    cache = SQLiteCache(str(tmp_path / "results.sqlite"))
    try:
        cold = run_batch(programs, MACHINE, cache=cache, collect_trace=True)
        warm = run_batch(programs, MACHINE, cache=cache, collect_trace=True)
    finally:
        cache.close()
    assert cold.trace_records
    assert warm.counts() == {"cached": 2} and warm.trace_records == []


# ----------------------------------------------------------------------
# A job timed out by SIGALRM still returns its partial trace
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs,chunk_size", [(1, None), (2, 1)])
def test_timed_out_job_contributes_its_partial_trace(
    monkeypatch, jobs, chunk_size
):
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("workers inherit the patched scheduler only under fork")
    import repro.experiments.runner as runner

    programs = paper_corpus(3)
    clean = run_batch(programs, MACHINE, collect_trace=True)
    real_measure = runner.measure_loop

    def measure_then_hang(program, *args, **kwargs):
        metrics = real_measure(program, *args, **kwargs)
        if program.name == programs[0].name:
            time.sleep(30)  # the scheduler has emitted; the budget expires
        return metrics

    monkeypatch.setattr(runner, "measure_loop", measure_then_hang)
    report = run_batch(
        programs, MACHINE, jobs=jobs, chunk_size=chunk_size, timeout=0.5,
        collect_trace=True,
    )
    assert [r.status for r in report.results] == ["timeout", "ok", "ok"]
    partial = [r for r in report.trace_records if r["job"] == 0]
    assert partial
    assert _records_without_ts(report.trace_records) == _records_without_ts(
        clean.trace_records
    )


def test_cli_trace_flag_writes_merged_jsonl(tmp_path, capsys):
    from repro.service.batch import batch_main

    trace_path = str(tmp_path / "trace.jsonl")
    assert batch_main(
        ["--corpus", "3", "--no-cache", "--jobs", "2", "--trace", trace_path]
    ) == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "3 jobs" in out
    with open(trace_path) as handle:
        events = [json.loads(line) for line in handle]
    assert events and {"kind", "seq", "loop", "job"} <= set(events[0])
