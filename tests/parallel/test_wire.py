"""Tests for the shared framing module (``repro.parallel.wire``).

The framing contract has a single source of truth consumed by both the memo
service and the serve service; these tests pin the helpers directly, plus
the fact that both services actually import them (no drifted copies).

The hostile-client suite pins the thread-reclamation contract: a client
that connects and goes silent, sends a partial length prefix or a partial
payload, or holds its connection after a response used to park a handler
thread in ``read_exact`` forever.  With per-connection timeouts the thread
must be reclaimed within the configured timeout, a concurrent healthy
client must be unaffected, and the admission guard must shed arrivals past
``max_connections`` instead of queueing threads unboundedly.
"""

import io
import socket
import threading
import time

import pytest

from repro.parallel import service, wire
from repro.parallel.wire import (
    LEN,
    MAX_FRAME,
    FrameService,
    ProtocolError,
    pack_str,
    parse_hostport_url,
    read_exact,
    read_frame,
    unpack_str,
    write_frame,
)


class TestStrFields:
    def test_round_trip(self):
        payload = pack_str("hello") + pack_str("wörld")
        value, offset = unpack_str(payload, 0)
        assert value == "hello"
        value, offset = unpack_str(payload, offset)
        assert value == "wörld"
        assert offset == len(payload)

    def test_truncated_length_prefix_raises(self):
        with pytest.raises(ProtocolError):
            unpack_str(b"\x00", 0)

    def test_truncated_body_raises(self):
        blob = pack_str("hello")[:-2]
        with pytest.raises(ProtocolError):
            unpack_str(blob, 0)

    def test_oversized_string_raises(self):
        with pytest.raises(ProtocolError):
            pack_str("x" * 0x10000)


class TestFrames:
    def test_round_trip(self):
        buf = io.BytesIO()
        write_frame(buf, b"payload-bytes")
        buf.seek(0)
        assert read_frame(buf) == b"payload-bytes"

    def test_short_read_is_a_dead_peer(self):
        buf = io.BytesIO(LEN.pack(100) + b"only-a-few")
        with pytest.raises(ProtocolError):
            read_frame(buf)

    def test_zero_length_frame_rejected(self):
        buf = io.BytesIO(LEN.pack(0))
        with pytest.raises(ProtocolError):
            read_frame(buf)

    def test_oversized_length_rejected_before_allocation(self):
        buf = io.BytesIO(LEN.pack(MAX_FRAME + 1))
        with pytest.raises(ProtocolError):
            read_frame(buf)

    def test_read_exact_reassembles_chunks(self):
        class Dribble:
            def __init__(self, data):
                self.data = data

            def read(self, n):
                take, self.data = self.data[:1], self.data[1:]
                return take

        assert read_exact(Dribble(b"abcdef"), 6) == b"abcdef"


class TestUrlParsing:
    def test_round_trip(self):
        assert parse_hostport_url("x://h:80", "x://") == ("h", 80)
        assert parse_hostport_url("x://h:80/", "x://") == ("h", 80)

    @pytest.mark.parametrize(
        "bad", ["x://", "x://hostonly", "x://h:nan", "x://h:0", "x://h:99999", "y://h:80"]
    )
    def test_junk_is_a_loud_config_error(self, bad):
        with pytest.raises(ValueError):
            parse_hostport_url(bad, "x://")


class _EchoService(FrameService):
    """Minimal framed service: echoes every request payload back."""

    scheme = "echo://"

    def _handle_frame(self, request: bytes) -> bytes:
        return b"+" + request


def _wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _healthy_echo(service_: FrameService, payload: bytes) -> bytes:
    with socket.create_connection((service_.host, service_.port), timeout=5.0) as sock:
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        write_frame(wfile, payload)
        return read_frame(rfile)


class TestHostileClients:
    """Silent/half-framed clients must not park handler threads forever."""

    TIMEOUT = 0.5

    @pytest.fixture()
    def echo(self):
        with _EchoService(timeout=self.TIMEOUT, max_connections=4) as service_:
            # Threads alive before any client connects: whatever starts
            # after this snapshot is one of the service's handler threads.
            service_.threads_before = set(threading.enumerate())
            yield service_

    @staticmethod
    def _handler_threads(echo):
        """The echo service's connection-handler threads started so far."""
        return [
            t
            for t in threading.enumerate()
            if t not in echo.threads_before and "process_request" in t.name
        ]

    def _assert_reclaimed(self, echo, sock):
        # The handler thread exists while the connection is open...
        assert _wait_until(lambda: echo.open_connections == 1)
        assert _wait_until(lambda: len(self._handler_threads(echo)) == 1)
        (handler,) = self._handler_threads(echo)
        # ...and once the timeout fires the server must close the
        # connection (our end sees EOF) and reclaim the thread.
        sock.settimeout(self.TIMEOUT * 8)
        assert sock.recv(1) == b""
        assert _wait_until(lambda: echo.open_connections == 0)
        handler.join(timeout=5.0)
        assert not handler.is_alive()

    def test_silent_connection_is_reclaimed(self, echo):
        with socket.create_connection((echo.host, echo.port), timeout=5.0) as sock:
            self._assert_reclaimed(echo, sock)

    def test_partial_length_prefix_is_reclaimed(self, echo):
        with socket.create_connection((echo.host, echo.port), timeout=5.0) as sock:
            sock.sendall(LEN.pack(10)[:3])  # 3 of the 4 header bytes
            self._assert_reclaimed(echo, sock)

    def test_partial_payload_is_reclaimed(self, echo):
        with socket.create_connection((echo.host, echo.port), timeout=5.0) as sock:
            sock.sendall(LEN.pack(100) + b"only-a-few")
            self._assert_reclaimed(echo, sock)

    def test_hold_after_response_is_reclaimed(self, echo):
        with socket.create_connection((echo.host, echo.port), timeout=5.0) as sock:
            rfile = sock.makefile("rb")
            wfile = sock.makefile("wb")
            write_frame(wfile, b"ping")
            assert read_frame(rfile) == b"+ping"
            # A completed exchange, then silence: the idle gap must also
            # fall under the deadline.
            self._assert_reclaimed(echo, sock)

    def test_healthy_client_unaffected_by_hostile_peer(self, echo):
        with socket.create_connection((echo.host, echo.port), timeout=5.0) as hostile:
            hostile.sendall(LEN.pack(50) + b"stall")
            for _ in range(3):
                assert _healthy_echo(echo, b"still-serving") == b"+still-serving"

    def test_no_thread_outlives_its_connection_by_more_than_timeout(self, echo):
        # Tracks the identities of this service's handler threads, not the
        # process-wide thread count, which threads of other suites can move.
        socks = [
            socket.create_connection((echo.host, echo.port), timeout=5.0)
            for _ in range(3)
        ]
        try:
            assert _wait_until(lambda: len(self._handler_threads(echo)) == 3)
            handlers = self._handler_threads(echo)
            deadline = time.monotonic() + self.TIMEOUT * 8
            for handler in handlers:
                handler.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(handler.is_alive() for handler in handlers)
        finally:
            for sock in socks:
                sock.close()


class TestAdmissionGuard:
    def test_connections_past_cap_are_shed_not_queued(self):
        with _EchoService(timeout=5.0, max_connections=2) as echo:
            held = [
                socket.create_connection((echo.host, echo.port), timeout=5.0)
                for _ in range(2)
            ]
            try:
                assert _wait_until(lambda: echo.open_connections == 2)
                # The third arrival must be shed: accepted, closed, no
                # handler thread — our end reads a clean EOF.
                with socket.create_connection(
                    (echo.host, echo.port), timeout=5.0
                ) as extra:
                    extra.settimeout(5.0)
                    assert extra.recv(1) == b""
                assert _wait_until(lambda: echo.connections_shed >= 1)
                assert echo.open_connections == 2
            finally:
                for sock in held:
                    sock.close()
            # Draining a held connection frees a slot for the next client.
            assert _wait_until(lambda: echo.open_connections == 0)
            assert _healthy_echo(echo, b"back") == b"+back"

    def test_disabled_knobs_accept_everything(self):
        with _EchoService(timeout=0, max_connections=0) as echo:
            assert echo.timeout is None
            assert echo.max_connections is None
            assert _healthy_echo(echo, b"hi") == b"+hi"


class _SheddingEchoService(_EchoService):
    """Echo service that announces overload instead of closing silently."""

    def _shed_frame(self):
        return b"!overloaded-for-test"


class TestShedFrame:
    def test_shed_connection_receives_the_overload_frame(self):
        with _SheddingEchoService(timeout=5.0, max_connections=1) as echo:
            with socket.create_connection((echo.host, echo.port), timeout=5.0) as held:
                assert _wait_until(lambda: echo.open_connections == 1)
                with socket.create_connection(
                    (echo.host, echo.port), timeout=5.0
                ) as extra:
                    extra.settimeout(5.0)
                    rfile = extra.makefile("rb")
                    # A full frame arrives before the close: the client can
                    # tell "overloaded, retry elsewhere" from a dead peer.
                    assert read_frame(rfile) == b"!overloaded-for-test"
                    assert extra.recv(1) == b""
                assert _wait_until(lambda: echo.connections_shed >= 1)
                held.close()

    def test_default_shed_is_a_silent_close(self):
        # The base FrameService keeps the historical contract: no frame,
        # just EOF (asserted in TestAdmissionGuard); _shed_frame says so.
        assert wire.FrameService._shed_frame(_EchoService.__new__(_EchoService)) is None


class TestFrameConnection:
    """The one client connection every wire client composes around."""

    def test_lazy_dial_caps_only_when_traced_and_teardown(self, monkeypatch):
        from repro.obs import trace as obs_trace

        monkeypatch.delenv(obs_trace.TRACE_DIR_ENV, raising=False)
        echo = _EchoService(timeout=5.0).start()
        conn = wire.FrameConnection(echo.host, echo.port, scheme="echo://")
        try:
            assert not conn.connected and conn.url == echo.url
            assert conn.request(b"plain") == b"+plain"  # tracing off: no probe
            assert conn.connected and conn.caps is None
            obs_trace.configure_tracing(enabled=True)
            with obs_trace.span("client") as live:
                assert conn.request(b"bare", traced=False) == b"+bare"
                assert conn.caps is None
                # Traced: caps probed once, envelope peeled by the server.
                assert conn.request(b"wrapped") == b"+wrapped"
                assert conn.caps == frozenset(wire.WIRE_CAPS)
            assert live.hops["echo_wait"] > 0.0
            echo.shutdown()
            with pytest.raises((OSError, ProtocolError)):
                conn.request(b"gone")
            assert not conn.connected and conn.caps is None
        finally:
            obs_trace.reset_tracing()
            conn.close()
            echo.shutdown()


class TestSingleSourceOfTruth:
    def test_memo_service_consumes_wire(self):
        # The memo service and its client speak through the wire objects
        # themselves, not drifted copies of the framing contract.
        assert issubclass(service.MemoServer, wire.FrameService)
        assert service.FrameConnection is wire.FrameConnection
        assert service.MAX_FRAME == wire.MAX_FRAME
        assert service.pack_str is wire.pack_str
        assert service.ProtocolError is wire.ProtocolError
        store = service.RemoteMemoStore("memo://127.0.0.1:9")
        assert isinstance(store.connection, wire.FrameConnection)

    def test_serve_service_consumes_wire(self):
        from repro.serve import client as serve_client
        from repro.serve import server as serve_server

        assert serve_server.FrameService is wire.FrameService
        assert serve_client.FrameConnection is wire.FrameConnection
        assert serve_client.MAX_FRAME == wire.MAX_FRAME
        client = serve_client.ServeClient("serve://127.0.0.1:9,serve://127.0.0.1:10")
        assert all(isinstance(c, wire.FrameConnection) for c in client.connections)

    def test_cluster_consumes_wire(self):
        from repro.parallel import cluster

        assert issubclass(cluster.ClusterDispatcher, wire.FrameService)
        worker = cluster.ClusterWorker("cluster://127.0.0.1:9")
        assert isinstance(worker.connection, wire.FrameConnection)

    def test_no_service_copies_the_base_dispatch(self):
        from repro.parallel.cluster import ClusterDispatcher
        from repro.serve.server import ServeServer

        for cls in (service.MemoServer, ClusterDispatcher, ServeServer):
            assert "_internal_error_frame" not in vars(cls)
        for cls in (service.MemoServer, ClusterDispatcher):
            assert "_handle_frame" not in vars(cls)
