"""Spans recorded around the public entry points of each fewshift layer.

The benchmark's traced run patches each entry point in the namespace that
calls it (``engine`` calls ``semantic.cluster_task``, ``semantic`` calls
its own imported ``kmeans``, ``selftrain`` calls its own imported
``score_set``), records one span per call in memory, and restores the
originals afterwards.  Nothing under ``src/`` knows about the spans.

A span carries the episode it belongs to: the benchmark's task stream
calls ``Tracer.enter_episode`` on the worker thread that is about to run
that episode, so spans on a thread-pool run attribute correctly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    episode: tuple          # (pass label, episode id)
    name: str               # "<layer>.<entry point>"
    parent: str | None      # name of the enclosing span on the same thread
    start: float
    end: float
    child_s: float          # time covered by direct child spans
    counts: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Installs span-recording wrappers and collects the spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_label = ""
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def enter_episode(self, episode_id: str) -> None:
        self._local.episode = (self.pass_label, episode_id)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a wrapper recording a span named name.

        count(args, kwargs, result) -> dict adds counts to the span.
        """
        original = getattr(module, attr)
        local = self._local
        spans = self.spans

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
            counts = count(args, kwargs, result) if count else {}
            spans.append(Span(
                getattr(local, "episode", None), name,
                parent[0] if parent else None, start, end, frame[1], counts,
            ))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def per_episode(self, pass_labels) -> dict[tuple, list[Span]]:
        """Spans grouped by episode, for episodes run in the given passes."""
        grouped: dict[tuple, list[Span]] = {}
        for span in self.spans:
            if span.episode is not None and span.episode[0] in pass_labels:
                grouped.setdefault(span.episode, []).append(span)
        return grouped
