"""In-memory spans around calls into the package's public functions.

The tracer replaces public functions on their modules (and classmethods on
their classes) with wrappers that record a span each. Calls the package makes
through a module attribute (``stats.decide_full``) or a global of the same
module are traced too; a name another module bound with ``from ... import``
is not. Nothing in the package is edited; ``installed`` restores every
original on exit.
"""

from collections import Counter
from contextlib import contextmanager
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        self.counts[name] += 1
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def _wrapper(self, name: str, func):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    @contextmanager
    def installed(self, targets):
        """Trace ``(owner, attribute, span name)`` targets inside the block."""
        originals = []
        try:
            for owner, attr, name in targets:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrapper(name, raw.__func__))
                else:
                    replacement = self._wrapper(name, raw)
                originals.append((owner, attr, raw))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, raw in reversed(originals):
                setattr(owner, attr, raw)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def select(self, name: str, since: int = 0, until: int | None = None) -> list[int]:
        stop = len(self.spans) if until is None else until
        return [i for i in range(since, stop) if self.spans[i][0] == name]

    def duration(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return end - start

    def dump(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "self": own[i]}
                fh.write(json.dumps(record) + "\n")
