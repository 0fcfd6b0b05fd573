"""The X windows substrate: server cost model, buffer thread, the two
client libraries of Section 5.6."""

import pytest

from repro.kernel import Kernel, KernelConfig, msec, sec, usec
from repro.kernel import primitives as p
from repro.xwindows.buffer_thread import PaintRequest
from repro.xwindows.server import XServer
from repro.xwindows.xl import XlClient
from repro.xwindows.xlib import ModifiedXlib


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestXServerCostModel:
    def test_batched_submission_amortises_flush_overhead(self):
        kernel = make_kernel()
        server = XServer(flush_overhead=usec(400), per_request=usec(40))
        stamps = {}

        def batched():
            t0 = yield p.GetTime()
            yield from server.submit([f"r{i}" for i in range(10)])
            stamps["batched"] = (yield p.GetTime()) - t0

        def one_by_one():
            t0 = yield p.GetTime()
            for i in range(10):
                yield from server.submit([f"r{i}"])
            stamps["one_by_one"] = (yield p.GetTime()) - t0

        kernel.fork_root(batched)
        kernel.run_for(msec(100))
        kernel.fork_root(one_by_one)
        kernel.run_for(msec(100))
        # 400 + 10*40 = 800 vs 10*(400+40) = 4400: the batching economics.
        assert stamps["batched"] == usec(800)
        assert stamps["one_by_one"] == usec(4400)
        assert server.flushes == 11
        assert server.requests_received == 20
        kernel.shutdown()

    def test_mean_batch_size(self):
        kernel = make_kernel()
        server = XServer()

        def client():
            yield from server.submit(["a", "b", "c"])
            yield from server.submit(["d"])

        kernel.fork_root(client)
        kernel.run_for(msec(100))
        assert server.mean_batch_size == 2.0
        kernel.shutdown()

    def test_event_delivery_needs_connection(self):
        server = XServer()
        with pytest.raises(ValueError):
            server.deliver_event("key")


class TestBufferThread:
    def test_paint_request_key_is_region(self):
        request = PaintRequest(region="titlebar")
        assert request.key == "titlebar"


class TestModifiedXlib:
    def test_get_event_returns_delivered_event(self):
        kernel = make_kernel()
        connection = kernel.channel("x")
        server = XServer(events=connection)
        xlib = ModifiedXlib(server, connection)
        got = []

        def client():
            event = yield from xlib.get_event(timeout=sec(1))
            got.append(event)

        kernel.fork_root(client)
        kernel.post_at(msec(10), lambda k: server.deliver_event("expose"))
        kernel.run_for(sec(2))
        assert got == ["expose"]
        kernel.shutdown()

    def test_get_event_honours_client_timeout_via_retries(self):
        kernel = make_kernel(quantum=msec(50))
        connection = kernel.channel("x")
        server = XServer(events=connection)
        xlib = ModifiedXlib(server, connection, read_timeout=msec(50))
        got = []

        def client():
            event = yield from xlib.get_event(timeout=msec(150))
            got.append(event)

        kernel.fork_root(client)
        kernel.run_for(sec(2))
        assert got == [None]
        # The client timeout was implemented as multiple short reads.
        assert xlib.read_retries >= 2
        kernel.shutdown()

    def test_flush_coupled_to_reads(self):
        # "The X specification requires that the output queue be flushed
        # whenever a read is done on the input stream."
        kernel = make_kernel()
        connection = kernel.channel("x")
        server = XServer(events=connection)
        xlib = ModifiedXlib(server, connection)

        def painter_then_reader():
            yield from xlib.queue_request(PaintRequest(region="r0"))
            assert server.flushes == 0  # queued, not sent
            yield from xlib.get_event(timeout=msec(100))

        kernel.fork_root(painter_then_reader)
        kernel.run_for(sec(1))
        assert server.flushes == 1  # the read flushed it
        kernel.shutdown()

    def test_reads_hold_the_library_mutex(self):
        kernel = make_kernel()
        connection = kernel.channel("x")
        server = XServer(events=connection)
        xlib = ModifiedXlib(server, connection, read_timeout=msec(50))
        stamps = {}

        def reader():
            yield from xlib.get_event(timeout=msec(50))

        def painter():
            # Compute (not Pause) so arrival is mid-quantum, while the
            # reader is still blocked in its 50 ms read holding the lock.
            yield p.Compute(msec(20))
            t0 = yield p.GetTime()
            yield from xlib.queue_request(PaintRequest(region="r0"))
            stamps["queued_after"] = (yield p.GetTime()) - t0

        kernel.fork_root(reader, priority=4)
        kernel.fork_root(painter, priority=4)
        kernel.run_for(sec(1))
        # The painter had to wait out the reader's short read timeout.
        assert stamps["queued_after"] >= msec(20)
        assert xlib.lock.blocks >= 1
        kernel.shutdown()


class TestXl:
    def _client(self, kernel):
        connection = kernel.channel("x")
        server = XServer(events=connection)
        client = XlClient(server, connection)
        for proc, name, priority in client.threads():
            kernel.fork_root(proc, name=name, priority=priority)
        return server, client

    def test_reader_thread_dispatches_events(self):
        kernel = make_kernel()
        server, client = self._client(kernel)
        got = []

        def consumer():
            got.append((yield from client.get_event(timeout=sec(1))))

        kernel.fork_root(consumer, priority=4)
        kernel.post_at(msec(10), lambda k: server.deliver_event("key"))
        kernel.run_for(sec(2))
        assert got == ["key"]
        assert client.events_dispatched == 1
        kernel.shutdown()

    def test_get_event_timeout_via_cv(self):
        kernel = make_kernel(quantum=msec(50))
        server, client = self._client(kernel)
        got = []

        def consumer():
            got.append((yield from client.get_event(timeout=msec(100))))

        kernel.fork_root(consumer, priority=4)
        kernel.run_for(sec(2))
        assert got == [None]
        # No flush was forced by the timed-out GetEvent (decoupled IO).
        assert server.flushes == 0
        kernel.shutdown()

    def test_paint_goes_through_slack_process(self):
        kernel = make_kernel()
        server, client = self._client(kernel)

        def painter():
            for i in range(8):
                yield from client.paint(PaintRequest(region=f"r{i % 2}"))
                yield p.Compute(usec(50))

        kernel.fork_root(painter, priority=4)
        kernel.run_for(sec(1))
        assert server.requests_received >= 2
        assert server.requests_received < 8  # merged by region
        kernel.shutdown()

    def test_maintenance_flushes_stale_output(self):
        kernel = make_kernel()
        connection = kernel.channel("x")
        server = XServer(events=connection)
        client = XlClient(server, connection, maintenance_period=msec(100))
        # Start ONLY the maintenance thread: the buffer thread is wedged
        # (models it having fallen behind), so output ages in the queue.
        kernel.fork_root(client.maintenance_proc, name="maintenance", priority=3)

        def painter():
            yield from client.paint(PaintRequest(region="r0"))

        kernel.fork_root(painter, priority=4)
        kernel.run_for(sec(1))
        assert client.maintenance_flushes == 1
        assert server.requests_received == 1
        kernel.shutdown()


class TestQuerySemantics:
    """Why the flush-before-read rule exists: queries trigger replies."""

    def _xlib(self, kernel, **kwargs):
        connection = kernel.channel("x")
        server = XServer(events=connection)
        return server, ModifiedXlib(server, connection, **kwargs)

    def test_query_reply_round_trip(self):
        from repro.xwindows.server import QueryRequest

        kernel = make_kernel()
        server, xlib = self._xlib(kernel)
        got = []

        def client():
            yield from xlib.queue_request(QueryRequest("GetGeometry", token=7))
            reply = yield from xlib.get_event(timeout=sec(1))
            got.append(reply)

        kernel.fork_root(client)
        kernel.run_for(sec(2))
        # The read's implicit flush shipped the query; the reply came back.
        assert got == [("reply", "GetGeometry", 7)]
        assert server.replies_sent == 1
        kernel.shutdown()

    def test_without_flush_before_read_the_client_hangs(self):
        from repro.xwindows.server import QueryRequest

        kernel = make_kernel(quantum=msec(50))
        server, xlib = self._xlib(kernel, flush_before_read=False)
        got = []

        def client():
            yield from xlib.queue_request(QueryRequest("GetGeometry", token=7))
            reply = yield from xlib.get_event(timeout=msec(500))
            got.append(reply)

        kernel.fork_root(client)
        kernel.run_for(sec(3))
        # The query never left the output queue, so the reply never came:
        # the spec rule is load-bearing.
        assert got == [None]
        assert server.replies_sent == 0
        assert len(xlib.out_queue) == 1
        kernel.shutdown()
