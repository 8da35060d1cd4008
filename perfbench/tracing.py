"""In-memory spans around the benchmark's calls into the package.

A span is (span id, name, start ns, end ns, parent span id, operation id).
Spans are kept in a list while the run lasts and written out as JSON lines
when it ends, so recording costs two clock reads and one append.
"""

from __future__ import annotations

import json
import time


def untraced_call(name, fn, *args, **kwargs):
    """The call helper of untraced runs: no span, one extra frame."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = None

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self._op)

    def run_op(self, op_id: str, fn, *args):
        """Run one operation under a root span; its calls share ``op_id``."""
        self._op = op_id
        try:
            return self.call("op", fn, *args)
        finally:
            self._op = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )

