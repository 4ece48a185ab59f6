"""In-memory span recording for the traced run.

A span has a name, a tag (the strategy being replayed, or ``""``), a
start, an end and a parent.  Spans are recorded only from the
benchmark's own files: around the calls it makes into each layer, and
through class-level wrappers of public methods that :class:`Wrappers`
installs for the traced run only and removes afterwards.  A layer's
self time is its spans' duration minus the time of their child spans;
whatever no span covers is the ledger's unattributed remainder.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Tuple

from repro.engine import PhaseProfiler

_perf = time.perf_counter
_NULL = nullcontext()


class Spans:
    """Span recorder; a disabled recorder records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.tag = ""
        self.started = _perf()
        # Flat columns keep hundreds of thousands of spans cheap.
        self.names: List[str] = []
        self.tags: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.tags.append(self.tag)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(_perf())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _perf()
        self._stack.pop()

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return self._span(name)

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # ------------------------------------------------------------------
    def totals(self) -> Dict[Tuple[str, str], List[float]]:
        """``(name, tag) -> [count, total_s, self_s]``."""
        child = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        out: Dict[Tuple[str, str], List[float]] = {}
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            row = out.setdefault((name, self.tags[index]), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[index]
        return out

    def covered_s(self) -> float:
        """Time covered by top-level spans (= the sum of all self times)."""
        return sum(self.ends[i] - self.starts[i]
                   for i, parent in enumerate(self.parents) if parent < 0)

    def ledger(self, wall_s: float) -> Dict[str, float]:
        """Self time per layer plus the unattributed remainder.

        The layer is a span name's first dotted component, so the
        ledger's entries plus ``unattributed`` sum to ``wall_s``.
        """
        layers: Dict[str, float] = {}
        for (name, _tag), (_count, _total, self_s) in self.totals().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        layers["unattributed"] = wall_s - self.covered_s()
        return layers

    def write(self, path: str, extra: Dict[str, object]) -> None:
        """Write every span (microseconds from the recorder's start)."""
        names = sorted(set(self.names))
        tags = sorted(set(self.tags))
        name_id = {name: i for i, name in enumerate(names)}
        tag_id = {tag: i for i, tag in enumerate(tags)}
        base = self.started
        rows = [[name_id[self.names[i]], tag_id[self.tags[i]],
                 round((self.starts[i] - base) * 1e6, 1),
                 round((self.ends[i] - base) * 1e6, 1), self.parents[i]]
                for i in range(len(self.names))]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"names": names, "tags": tags,
                       "columns": ["name", "tag", "start_us", "end_us",
                                   "parent"],
                       "spans": rows, **extra}, handle)


#: The layer each server phase belongs to, as a span name: trigger
#: evaluation is the alarm registry's point query, the other three are
#: the index, the safe-region computation and downlink sizing.
PHASE_SPANS = {"alarm_processing": "alarms.processing",
               "index_lookup": "index.lookup",
               "saferegion_compute": "saferegion.compute",
               "encoding": "protocol.encoding"}


class SpanProfiler(PhaseProfiler):
    """A public :class:`PhaseProfiler` whose phases also open spans.

    Same-phase nesting charges the outermost span only, mirroring the
    profiler's own re-entrancy rule, so phase spans never double count.
    """

    def __init__(self, spans: Spans) -> None:
        super().__init__()
        self._spans = spans
        self._open: Dict[str, int] = {}

    @contextmanager
    def timed(self, phase: str) -> Iterator[None]:
        outer = self._open.get(phase, 0) == 0
        self._open[phase] = self._open.get(phase, 0) + 1
        index = self._spans.open(PHASE_SPANS[phase]) if outer else -1
        try:
            with super().timed(phase):
                yield
        finally:
            if outer:
                self._spans.close(index)
            self._open[phase] -= 1


class Wrappers:
    """Class-level span wrappers of public methods, removable as a unit."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span."""
        original = getattr(owner, attr)
        spans = self.spans

        def wrapper(*args, **kwargs):
            index = spans.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                spans.close(index)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace ``owner.attr`` with ``replacement`` until restored."""
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Wrappers":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()
