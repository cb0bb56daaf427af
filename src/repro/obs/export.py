"""Trace serialization: JSONL and Chrome trace-event format.

JSONL is the replayable archival format — one ``event.to_dict()`` per
line, loadable back into typed events with :func:`load_jsonl` (the
round trip is exact, which the replay tests rely on).

The Chrome export targets ``chrome://tracing`` / Perfetto's legacy JSON
importer: each scheduling attempt becomes a complete ("X") duration
slice, every scheduler decision an instant ("i") event with its payload
in ``args``, and the number of currently placed operations a counter
("C") track — which renders the §4.2 ejection storms as a sawtooth.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Union

from repro.obs.trace import (
    AttemptFail,
    AttemptStart,
    Eject,
    IIEscalate,
    JobStart,
    Place,
    ScheduleFound,
    TraceEvent,
    event_from_dict,
)


def to_jsonl(events: Iterable[TraceEvent]) -> str:
    """One JSON object per line, in emission order."""
    return "\n".join(json.dumps(event.to_dict(), sort_keys=True) for event in events)


def write_jsonl(records: Iterable[Union[TraceEvent, dict]], path: str) -> None:
    """Write events, or already-serialized event dicts (``batch --trace``
    writes loop/job-tagged ones), one sorted-key JSON object per line."""
    with open(path, "w") as handle:
        for record in records:
            if isinstance(record, TraceEvent):
                record = record.to_dict()
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _is_batch_record(record) -> bool:
    """A ``batch --trace`` line: a scheduler event tagged with its job."""
    return (
        isinstance(record, dict)
        and record.get("kind") != JobStart.kind
        and "job" in record
        and "loop" in record
    )


def load_jsonl(path: str) -> List[TraceEvent]:
    """Inverse of :func:`write_jsonl` for plain event streams: typed
    events, seq/ts restored.

    Raises ``ValueError`` prefixed ``PATH:LINE:`` on a line that is not
    one trace event.  Loop-tagged ``batch --trace`` streams are rejected
    with a pointer to ``repro report --trace``, which reads them.
    """
    events: List[TraceEvent] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if _is_batch_record(record):
                    raise ValueError(
                        "loop-tagged `repro batch --trace` record; read "
                        "batch traces with `repro report --trace`"
                    )
                events.append(event_from_dict(record))
            except ValueError as error:
                raise ValueError(f"{path}:{lineno}: {error}") from error
    return events


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
_PID = 1
_TID_SCHEDULER = 1


def _micros(events: List[TraceEvent], ts: float) -> float:
    """Timestamps relative to the first event, in microseconds."""
    base = events[0].ts if events else 0.0
    return max(0.0, (ts - base) * 1e6)


def to_chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Build the ``{"traceEvents": [...]}`` JSON object."""
    events = [e for e in events]
    trace: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": _TID_SCHEDULER,
            "args": {"name": "repro modulo scheduler"},
        }
    ]
    placed = 0
    open_attempt = None  # (start_event, start_us)
    for event in events:
        ts_us = _micros(events, getattr(event, "ts", 0.0))
        if isinstance(event, AttemptStart):
            placed = 0
            open_attempt = (event, ts_us)
            continue
        if isinstance(event, (AttemptFail, ScheduleFound)) and open_attempt is not None:
            start_event, start_us = open_attempt
            outcome = "ok" if isinstance(event, ScheduleFound) else "fail"
            trace.append(
                {
                    "name": f"attempt II={start_event.ii} [{outcome}]",
                    "cat": "attempt",
                    "ph": "X",
                    "ts": start_us,
                    "dur": max(1.0, ts_us - start_us),
                    "pid": _PID,
                    "tid": _TID_SCHEDULER,
                    "args": event.to_dict(),
                }
            )
            open_attempt = None
        if isinstance(event, Place):
            placed += 1
        elif isinstance(event, Eject):
            placed -= 1
        trace.append(
            {
                "name": event.kind,
                "cat": "scheduler",
                "ph": "i",
                "s": "t",
                "ts": ts_us,
                "pid": _PID,
                "tid": _TID_SCHEDULER,
                "args": event.to_dict(),
            }
        )
        if isinstance(event, (Place, Eject, IIEscalate)):
            trace.append(
                {
                    "name": "placed ops",
                    "ph": "C",
                    "ts": ts_us,
                    "pid": _PID,
                    "args": {"placed": 0 if isinstance(event, IIEscalate) else placed},
                }
            )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Iterable[TraceEvent], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(events), handle)
