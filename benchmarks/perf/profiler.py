"""Host-time attribution for the perf benchmark: spans, a stack sampler
and the layer map.

Everything here lives outside ``src/``: the simulator carries no
benchmark instrumentation, so an untraced run measures exactly the code
a user runs.  The traced run adds two probes.

* :class:`Spans` — wall-clock spans the harness opens around its own
  calls into each layer's public entry points (world builders,
  ``World.run_for``, ``summarize_*``, ``run_schedule``, the checks).
  Each span records its *self* time (duration minus nested spans), kept
  in memory and written out as Chrome trace-event JSON at exit.
* :class:`StackSampler` — a ``signal.setitimer(ITIMER_PROF)`` sampler.
  Each sample is charged to the innermost frame whose file lies under
  ``src/repro`` (so a stdlib call counts against the layer that made
  it), and that file is mapped to its layer by :func:`layer_of`.
  Samples with no ``src/repro`` frame on the stack are the harness's
  own.
"""

from __future__ import annotations

import json
import signal
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

#: Layer of each ``src/repro`` file, first matching prefix wins.  The
#: prefixes are paths relative to ``src/repro``.
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("kernel/instrumentation.py", "tracer"),
    ("kernel/memory.py", "memmodel"),
    ("kernel/", "kernel"),
    ("memmodel/litmus.py", "explore"),
    ("memmodel/", "memmodel"),
    ("explore/", "explore"),
    ("sync/", "sync"),
    ("analysis/", "analysis"),
    ("runtime/", "runtime"),
    ("paradigms/", "paradigms"),
    ("workloads/", "workloads"),
    ("server/", "server"),
    ("cluster/cache.py", "cache"),
    ("cluster/", "cluster"),
    ("workload/", "workload"),
    # No workload runs these; they are kept apart so a sample landing
    # there is visible rather than charged to a measured layer.
    ("corpus/", "other"),
    ("casestudies/", "other"),
    ("extensions/", "other"),
    ("xwindows/", "other"),
    ("__init__.py", "other"),
    ("__main__.py", "other"),
    ("cli.py", "other"),
)

#: Every layer a sample can be charged to, in report order.  ``harness``
#: is the benchmark's own code and the interpreter around it.
LAYERS: tuple[str, ...] = (
    "kernel", "tracer", "memmodel", "sync", "explore", "analysis",
    "runtime", "paradigms", "workloads", "server", "cluster", "cache",
    "workload", "other", "harness",
)


def layer_of(relative: str) -> str | None:
    """The layer of a file given by its path relative to ``src/repro``.

    None for a file no prefix claims, which the harness test reports as
    a gap in the map.
    """
    for prefix, layer in LAYER_PREFIXES:
        if prefix.endswith("/"):
            if relative.startswith(prefix):
                return layer
        elif relative == prefix:
            return layer
    return None


class Spans:
    """Wall-clock spans with self time, totalled by name.

    A disabled instance hands out one shared null context, so untraced
    passes pay a method call per span and nothing else.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: name -> summed self time in seconds.
        self.self_s: Counter = Counter()
        #: Chrome "complete" events: (name, start_ns, duration_ns, depth).
        self.events: list[tuple[str, int, int, int]] = []
        self._child_ns: list[int] = []
        self._null = nullcontext()

    def span(self, name: str):
        if not self.enabled:
            return self._null
        return _Span(self, name)

    def chrome_events(self) -> list[dict]:
        """The spans as Chrome trace-event ``X`` records (µs)."""
        if not self.events:
            return []
        origin = min(start for _, start, _, _ in self.events)
        return [
            {
                "name": name,
                "cat": "bench",
                "ph": "X",
                "ts": (start - origin) / 1000,
                "dur": duration / 1000,
                "pid": 0,
                "tid": 0,
                "args": {"depth": depth},
            }
            for name, start, duration, depth in self.events
        ]


class _Span:
    """One open span.  A plain class, not a generator context manager:
    litmus opens ~20k spans per pass, and with the generator version
    a traced litmus pass took 1.13x the untraced one."""

    __slots__ = ("spans", "name", "start")

    def __init__(self, spans: Spans, name: str) -> None:
        self.spans = spans
        self.name = name

    def __enter__(self) -> None:
        self.spans._child_ns.append(0)
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc_info) -> None:
        duration = time.perf_counter_ns() - self.start
        spans = self.spans
        stack = spans._child_ns
        children = stack.pop()
        if stack:
            stack[-1] += duration
        spans.self_s[self.name] += (duration - children) / 1e9
        spans.events.append((self.name, self.start, duration, len(stack)))


NO_SPANS = Spans(enabled=False)


class StackSampler:
    """Charges ``ITIMER_PROF`` samples to the layer of the innermost
    ``src/repro`` frame."""

    #: Process CPU time between samples.
    INTERVAL_S = 0.004

    def __init__(self, repro_root: Path) -> None:
        self._root = str(repro_root.resolve()) + "/"
        self.counts: Counter = Counter()
        #: code object -> layer, or None for code outside src/repro.
        self._layer_by_code: dict = {}

    def _code_layer(self, code) -> str | None:
        try:
            return self._layer_by_code[code]
        except KeyError:
            filename = code.co_filename
            layer = None
            if filename.startswith(self._root):
                layer = layer_of(filename[len(self._root):]) or "other"
            self._layer_by_code[code] = layer
            return layer

    def _on_sample(self, signum, frame) -> None:
        while frame is not None:
            layer = self._code_layer(frame.f_code)
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts["harness"] += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def shares(self) -> dict[str, float]:
        """Fraction of samples per layer, over every layer in LAYERS."""
        total = self.samples
        return {
            layer: self.counts[layer] / total if total else 0.0
            for layer in LAYERS
        }


def write_chrome_trace(path: Path, spans: Spans, meta: dict) -> None:
    """Write the spans as a Chrome/Perfetto trace-event file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": spans.chrome_events(), "otherData": meta},
            handle,
        )
