"""The event-history renderer (Section 7's microscopic view)."""

import pytest

from repro.analysis.timeline import LEGEND, build_history, render_history
from repro.kernel import Kernel, KernelConfig, msec, sec, usec
from repro.kernel import primitives as p
from repro.kernel.instrumentation import Tracer


def _traced_kernel(**overrides):
    defaults = dict(trace=True, switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestBuildHistory:
    def test_lanes_per_thread(self):
        kernel = _traced_kernel()

        def worker(tag):
            yield p.Compute(msec(1))
            yield p.Pause(msec(20))
            yield p.Compute(msec(1))

        kernel.fork_root(worker, ("a",), name="alpha")
        kernel.fork_root(worker, ("b",), name="beta")
        kernel.run_for(sec(1))
        history = build_history(kernel.tracer, start=0, end=msec(100))
        assert set(history.lanes) == {"alpha", "beta"}
        kernel.shutdown()

    def test_symbols_reflect_events(self):
        kernel = _traced_kernel()

        def sleeper():
            yield p.Compute(msec(1))  # separates the sleep from the fork slot
            yield p.Pause(msec(60))
            yield p.Compute(msec(1))  # separates the wake from the finish

        kernel.fork_root(sleeper, name="s")
        kernel.run_for(sec(1))
        history = build_history(kernel.tracer, start=0, end=msec(200),
                                columns=200)
        lane = "".join(history.lanes["s"])
        assert "F" in lane  # forked
        assert "z" in lane  # went to sleep
        assert "k" in lane  # woke at the tick
        assert "." in lane  # finished
        kernel.shutdown()

    def test_interest_ordering_prefers_conflicts(self):
        tracer = Tracer(enabled=True)
        tracer.record(5, "monitor", "enter", "t")
        tracer.record(6, "monitor", "spurious", "t")
        history = build_history(tracer, start=0, end=100, columns=1)
        assert history.lanes["t"] == ["!"]

    def test_window_validation(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            build_history(tracer, start=10, end=10)
        with pytest.raises(ValueError):
            build_history(tracer, start=0, end=10, columns=0)

    def test_events_outside_window_excluded(self):
        tracer = Tracer(enabled=True)
        tracer.record(5, "fork", "create", "t")
        tracer.record(500, "fork", "create", "t")
        history = build_history(tracer, start=0, end=100, columns=10)
        assert history.lanes["t"].count("F") == 1


class TestRender:
    def test_render_contains_legend_and_lanes(self):
        kernel = _traced_kernel()

        def worker():
            yield p.Compute(usec(500))

        kernel.fork_root(worker, name="w")
        kernel.run_for(msec(10))
        text = render_history(kernel.tracer, start=0, end=msec(10))
        assert LEGEND in text
        assert "w" in text.splitlines()[1]
        assert text.splitlines()[1].count("|") == 2
        kernel.shutdown()
