"""GVX worker pools and the pipeline builder."""

from repro.kernel import Kernel, KernelConfig, msec, sec, usec
from repro.kernel import primitives as p
from repro.kernel.config import KernelConfig as KC
from repro.kernel.rng import DeterministicRng
from repro.paradigms.pump import Pump, connect_pipeline
from repro.runtime.pcr import World
from repro.sync.queues import UnboundedQueue
from repro.workloads.base import LibraryPool
from repro.workloads.gvx import WorkerPool


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestWorkerPool:
    def _pool(self, kernel, workers=3, timeout=msec(200)):
        library = LibraryPool("lib", 20, DeterministicRng(1))
        pool = WorkerPool(
            "paint", workers=workers, timeout=timeout, pool=library,
            housekeeping_touches=2, work_touches=5,
        )
        for index in range(workers):
            kernel.fork_root(pool.worker_proc, name=f"w{index}", priority=3)
        return pool

    def test_posted_items_get_processed(self):
        kernel = make_kernel()
        pool = self._pool(kernel)

        def poster():
            for n in range(6):
                yield from pool.post(("job", n))
                yield p.Compute(usec(100))

        kernel.fork_root(poster, priority=5)
        kernel.run_for(sec(2))
        assert pool.processed == 6
        assert pool.items == []
        kernel.shutdown()

    def test_idle_workers_housekeep_on_timeout(self):
        kernel = make_kernel()
        pool = self._pool(kernel, workers=2, timeout=msec(100))
        kernel.run_for(sec(1))
        # Nothing posted: every wake is a timeout followed by housekeeping.
        assert pool.processed == 0
        assert pool.cv.timeouts >= 10
        kernel.shutdown()

    def test_one_cv_many_workers(self):
        # The GVX shape Table 3 reflects: distinct CVs stay tiny because
        # whole pools share one.
        kernel = make_kernel()
        self._pool(kernel, workers=5)
        kernel.run_for(sec(1))
        assert len(kernel.stats.cvs_used) == 1
        kernel.shutdown()

    def test_display_hold_serialises_marked_items(self):
        from repro.sync.monitor import Monitor

        kernel = make_kernel(quantum=msec(50))
        library = LibraryPool("lib", 20, DeterministicRng(1))
        display = Monitor("display")
        pool = WorkerPool(
            "paint", workers=2, timeout=msec(200), pool=library,
            housekeeping_touches=0, work_touches=2,
            hold_lock=display, hold_time=msec(52),
        )
        for index in range(2):
            kernel.fork_root(pool.worker_proc, name=f"w{index}", priority=3)

        def poster():
            yield from pool.post(("repair", 1))
            yield from pool.post(("repair", 2))

        kernel.fork_root(poster, priority=5)
        kernel.run_for(sec(2))
        assert pool.processed == 2
        # The second worker hit the held display lock mid-quantum.
        assert display.blocks >= 1
        kernel.shutdown()


class TestConnectPipeline:
    def test_builds_eternal_threads_in_order(self):
        world = World(KC(switch_cost=0, monitor_overhead=0))
        first = UnboundedQueue("a")
        middle = UnboundedQueue("b")
        last = UnboundedQueue("c")
        stages = [
            Pump("double", first, middle, transform=lambda x: x * 2),
            Pump("stringify", middle, last, transform=str),
        ]
        threads = connect_pipeline(world, stages)
        assert [t.name for t in threads] == ["double", "stringify"]
        assert all(t.role == "eternal" for t in threads)

        def feed():
            for n in range(3):
                yield from first.put(n)

        world.kernel.fork_root(feed)
        world.run_for(sec(1))
        assert list(last.items) == ["0", "2", "4"]
        world.shutdown()
