"""Runtime facade: World assembly, SystemDaemon, measurement windows."""

import pytest

from repro.analysis.golden import fingerprint
from repro.kernel import KernelConfig, msec, sec, usec
from repro.kernel import primitives as p
from repro.runtime.daemon import SYSTEM_DAEMON_PRIORITY, install_system_daemon
from repro.runtime.pcr import World


class TestWorld:
    def test_eternal_and_worker_roles(self):
        world = World(KernelConfig(switch_cost=0))

        def spin():
            while True:
                yield p.Pause(msec(100))

        def job():
            yield p.Compute(msec(1))

        eternal = world.add_eternal(spin, name="spinner")
        worker = world.add_worker(job, name="job")
        assert eternal.role == "eternal"
        assert worker.role == "worker"
        world.run_for(sec(1))
        assert eternal.alive
        assert not worker.alive
        world.shutdown()

    def test_device_registration(self):
        world = World(KernelConfig())
        keyboard = world.add_device("keyboard")
        assert world.devices["keyboard"] is keyboard
        got = []

        def reader():
            got.append((yield p.Channelreceive(keyboard)))

        world.kernel.fork_root(reader)
        keyboard.post("a")
        world.run_for(msec(10))
        assert got == ["a"]
        world.shutdown()

    def test_measurement_window_counts_only_window(self):
        world = World(KernelConfig(switch_cost=0))

        def sleeper():
            while True:
                yield p.Pause(msec(100))
                yield p.Compute(usec(100))

        world.add_eternal(sleeper, name="s")
        world.run_for(sec(2))  # warmup activity must not be counted
        world.begin_measurement()
        world.run_for(sec(1))
        window = world.end_measurement()
        assert window.duration == sec(1)
        # ~10 wakes in the window, not the ~30 since boot.
        assert 5 <= window.counts["dispatches"] <= 15
        world.shutdown()

    def test_end_measurement_requires_begin(self):
        world = World(KernelConfig())
        with pytest.raises(RuntimeError):
            world.end_measurement()
        world.shutdown()

    def test_window_rates(self):
        world = World(KernelConfig(switch_cost=0))

        def forker():
            for _ in range(10):
                yield p.Pause(msec(100))
                yield p.Fork(_noop, detached=True)

        world.kernel.fork_root(forker)
        world.begin_measurement()
        world.run_for(sec(2))
        window = world.end_measurement()
        assert window.rate("forks") == pytest.approx(5.0, rel=0.3)
        world.shutdown()

    def test_window_carries_every_counter(self):
        """A window subtracts every integer counter of the kernel's
        books, the ones the golden fingerprint hashes, not a hand-kept
        subset of them."""
        world = World(KernelConfig(switch_cost=0))
        net = world.add_device("net")

        def receiver():
            while True:
                yield p.Channelreceive(net)

        world.add_eternal(receiver, name="rx")
        net.post("before")
        world.run_for(msec(10))
        world.begin_measurement()
        for offset in (1, 2, 3):
            world.kernel.post_at(msec(10 + offset), lambda k: net.post("in"))
        world.run_for(msec(10))
        window = world.end_measurement()
        stats = world.kernel.stats
        counters = stats.counters()
        assert set(counters) <= set(window.counts)
        assert (window.counts["channel_posts"], stats.channel_posts) == (3, 4)
        assert window.counts["channel_receives"] == 3

        pinned = fingerprint(world.kernel)["stats"]
        stats.counters = lambda: {**counters, "channel_posts": 5}
        assert fingerprint(world.kernel)["stats"] != pinned
        stats.counters = lambda: dict(counters)
        assert fingerprint(world.kernel)["stats"] == pinned
        world.shutdown()


def _noop():
    yield p.Compute(1)


class TestSystemDaemon:
    def test_daemon_runs_at_priority_6(self):
        world = World(KernelConfig())
        daemon = world.install_daemon()
        assert daemon.priority == SYSTEM_DAEMON_PRIORITY == 6
        assert daemon.name == "SystemDaemon"
        world.shutdown()

    def test_daemon_donates_to_starved_thread(self):
        # A priority-1 thread under a priority-4 hog makes progress only
        # through the daemon's random donations.
        from repro.kernel import Kernel

        progress = []

        def run(with_daemon):
            kernel = Kernel(KernelConfig(seed=3))

            def hog():
                while True:
                    yield p.Compute(msec(10))

            def starved():
                yield p.Compute(msec(1))
                progress.append(with_daemon)

            kernel.fork_root(hog, priority=4)
            kernel.fork_root(starved, priority=1)
            if with_daemon:
                install_system_daemon(kernel, period=msec(100))
            kernel.run_for(sec(5))
            kernel.shutdown()

        run(False)
        assert progress == []
        run(True)
        assert progress == [True]

    def test_daemon_choice_is_seeded(self):
        from repro.kernel import Kernel

        def run(seed):
            kernel = Kernel(KernelConfig(seed=seed))
            order = []

            def worker(tag):
                yield p.Compute(msec(500))
                order.append(tag)

            for tag in range(3):
                kernel.fork_root(worker, (tag,), priority=1)
            install_system_daemon(kernel, period=msec(50))
            kernel.run_for(sec(3))
            kernel.shutdown()
            return order

        assert run(7) == run(7)
