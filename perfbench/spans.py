"""In-memory span recorder used by the traced benchmark run.

A span is one call into a layer of the program: its name, start and end
(``time.perf_counter`` seconds), the span that caused it and the
request (loop or batch round) it belongs to.  Spans live in memory
while the benchmark runs and are summarised, or written out as JSON
lines, when it ends.

``NullSpans`` has the same ``call`` interface and records nothing; the
untraced run uses it, so both runs execute the same benchmark code.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple


class NullSpans:
    """Span recorder that records nothing (the untraced run)."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin(self, name: str) -> int:
        return -1

    def end(self, token: int) -> None:
        pass

    def set_request(self, request) -> None:
        pass


class Spans:
    """Span recorder: ``call`` wraps one function call in a span."""

    enabled = True

    def __init__(self) -> None:
        # Parallel lists keep recording cheap: one append per field.
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[object] = []
        self._stack: List[int] = []
        self._request: object = None

    def set_request(self, request) -> None:
        """Tag the spans that follow with a request identifier."""
        self._request = request

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._request)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, token: int) -> None:
        self.ends[token] = time.perf_counter()
        popped = self._stack.pop()
        if popped != token:
            raise RuntimeError(f"span {self.names[token]!r} closed out of order")

    def call(self, name, fn, *args, **kwargs):
        token = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(token)

    def clear(self) -> None:
        self.__init__()

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-name self seconds (duration minus child spans) and calls."""
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for index, name in enumerate(self.names):
            own = self.ends[index] - self.starts[index] - child_time[index]
            seconds[name] = seconds.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line, times relative
        to the first span's start."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "parent": self.parents[index],
                            "request": self.requests[index],
                            "start_s": self.starts[index] - origin,
                            "end_s": self.ends[index] - origin,
                        }
                    )
                    + "\n"
                )
