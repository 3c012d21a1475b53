"""Service-backed memo store: a TCP server and its ``RemoteMemoStore`` client.

:class:`~repro.parallel.store.MemoStore` shares memoised evaluations between
the processes of one host through a directory.  This module lifts the same
contract onto a socket so *multiple hosts* (or processes without a shared
filesystem) can share one memo:

* :class:`MemoServer` — a stdlib :mod:`socketserver` ``ThreadingTCPServer``
  fronting an ordinary disk :class:`MemoStore`.  It moves opaque payload
  blobs — the exact magic-prefixed, versioned pickles the disk store writes
  — without ever unpickling them, so the served directory stays fully
  interoperable with local disk clients, and a hostile or corrupt payload
  cannot execute code server-side.
* :class:`RemoteMemoStore` — a client implementing the same get/put/stats
  surface as the disk store.  Pickling, version checking, read-only
  freezing and key digesting all happen client-side; the wire carries
  ``(namespace, digest, blob)``.
* ``repro-chem memo-serve`` (see :mod:`repro.cli`) — the operational front
  end: point it at a store directory and point every run at
  ``memo://host:port``.

Wire protocol (version 1): the shared length-prefixed binary framing of
:mod:`repro.parallel.wire` (one 4-byte big-endian length + payload per
frame, ``!H``-prefixed strings, 1 GiB frame cap).  Requests start with a
1-byte opcode, responses with a 1-byte status; the value blob, when
present, is the remainder of the frame.

Failure contract (mirrors the disk store's corruption tolerance): *any*
protocol error — dead or unreachable server, connection reset mid-frame,
truncated or oversized frame, garbage status, corrupt payload — degrades to
a cache miss (counted in ``errors``) and the caller recomputes.  A memo
service can be killed at any point of a run and the run still finishes with
the right answer; determinism is untouched because the store only ever
holds values that are pure functions of their keys.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import threading
import time
from typing import Any, Optional

from repro.obs import trace as obs_trace
from repro.parallel.resilience import HealthTracker, RetryPolicy, policy_rng
from repro.parallel.wire import (
    DEFAULT_MAX_CONNECTIONS,
    DEFAULT_TIMEOUT,
    MAX_FRAME,
    FrameConnection,
    FrameService,
    ProtocolError,
    pack_str,
    parse_hostport_url,
    unpack_str,
)
from repro.parallel.store import (
    _MAGIC,
    MEMO_URL_SCHEME,
    MemoStore,
    _freeze_nested,
    _process_token,
    build_stats_snapshot,
    key_digest,
    sum_snapshots,
)

__all__ = ["MemoServer", "RemoteMemoStore", "parse_memo_url", "PROTOCOL_VERSION"]

PROTOCOL_VERSION = 1

# Request opcodes.
_OP_GET = b"G"
_OP_PUT = b"P"
_OP_SNAP = b"S"      # publish this process's stats snapshot
_OP_SNAPS = b"A"     # fetch every process's stats snapshot
_OP_COUNT = b"C"     # on-disk object count
_OP_RESET = b"R"     # drop stats snapshots (MemoStore.reset_stats)
_OP_CLEAR = b"X"     # drop objects and snapshots (MemoStore.clear)
_OP_PING = b"?"

# Response statuses.
_ST_OK = b"+"
_ST_MISS = b"-"
_ST_ERR = b"!"

_PING_BANNER = f"repro-memo/{PROTOCOL_VERSION}".encode("ascii")

# Namespaces/digests/tokens become path components on the server; anything
# fancier than these is rejected before it can escape the store directory.
_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]{0,63}$")
_DIGEST_RE = re.compile(r"^[0-9a-f]{6,64}$")
_TOKEN_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]{0,63}$")


def parse_memo_url(url: str) -> tuple[str, int]:
    """``memo://host:port`` -> ``(host, port)``; raises ``ValueError`` on junk.

    A malformed URL is a configuration typo and must fail loudly — unlike
    runtime protocol failures, which degrade to misses.
    """
    return parse_hostport_url(url, MEMO_URL_SCHEME)


# ------------------------------------------------------------------- server


class MemoServer(FrameService):
    """Serve a disk :class:`MemoStore` to ``RemoteMemoStore`` clients.

    ``port=0`` binds an ephemeral port (see :attr:`port`/:attr:`url` for
    the actual address) — what the in-process parity tests use.  The server
    is thread-per-connection (stdlib ``ThreadingTCPServer``); the disk
    store's atomic write-then-rename publication makes concurrent writers
    of the same key safe, exactly as it does for local multi-process use.

    ``timeout`` and ``max_connections`` are the wire scaffolding's
    robustness knobs (see :class:`~repro.parallel.wire.FrameService`): a
    silent or half-framed client is disconnected after ``timeout`` seconds
    — reclaiming its handler thread — and connections past the cap are
    shed instead of queueing threads unboundedly.
    """

    scheme = MEMO_URL_SCHEME

    def __init__(
        self,
        root: "str | os.PathLike",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: Optional[float] = DEFAULT_TIMEOUT,
        max_connections: Optional[int] = DEFAULT_MAX_CONNECTIONS,
    ) -> None:
        self.store = MemoStore(root)
        super().__init__(
            host=host, port=port, timeout=timeout, max_connections=max_connections
        )

    def stats(self) -> dict:
        """Aggregated cross-process view of the served store.

        This is what the ``telemetry`` opcode exposes under ``"stats"`` —
        the sum of every client process's published snapshot plus the
        on-disk object count.
        """
        return self.store.aggregated_stats()

    # -------------------------------------------------------------- dispatch

    def _dispatch(self, request: bytes) -> tuple[bytes, bytes]:
        op = request[:1]
        if op == _OP_GET:
            namespace, digest = self._parse_object_fields(request, expect_blob=False)
            blob = self.store.get_blob(namespace, digest)
            return (_ST_OK, blob) if blob is not None else (_ST_MISS, b"")
        if op == _OP_PUT:
            namespace, digest, blob = self._parse_object_fields(request, expect_blob=True)
            ok = self.store.put_blob(namespace, digest, blob)
            return (_ST_OK, b"") if ok else (_ST_ERR, b"store write failed")
        if op == _OP_SNAP:
            token, offset = unpack_str(request, 1)
            if not _TOKEN_RE.match(token):
                raise ProtocolError("bad snapshot token")
            snapshot = request[offset:]
            json.loads(snapshot)  # reject unparseable snapshots at the door
            ok = self.store.write_snapshot(token, snapshot)
            return (_ST_OK, b"") if ok else (_ST_ERR, b"snapshot write failed")
        if op == _OP_SNAPS:
            body = json.dumps(self.store.read_snapshots()).encode("utf-8")
            return (_ST_OK, body)
        if op == _OP_COUNT:
            return (_ST_OK, str(self.store.object_count()).encode("ascii"))
        if op == _OP_RESET:
            self.store.reset_stats()
            return (_ST_OK, b"")
        if op == _OP_CLEAR:
            self.store.clear()
            return (_ST_OK, b"")
        if op == _OP_PING:
            return (_ST_OK, _PING_BANNER)
        raise ProtocolError(f"unknown opcode {op!r}")

    @staticmethod
    def _parse_object_fields(request: bytes, *, expect_blob: bool) -> Any:
        namespace, offset = unpack_str(request, 1)
        digest, offset = unpack_str(request, offset)
        if not _NAMESPACE_RE.match(namespace) or not _DIGEST_RE.match(digest):
            raise ProtocolError("bad namespace or digest")
        if expect_blob:
            return namespace, digest, request[offset:]
        if offset != len(request):
            raise ProtocolError("trailing bytes after GET fields")
        return namespace, digest


# ------------------------------------------------------------------- client


class RemoteMemoStore:
    """Client for :class:`MemoServer` with the disk store's get/put surface.

    One persistent connection per instance (so per process: workers each
    build their own from the ``memo://`` URL the pool initializer hands
    them), serialised by a lock.  Every operation tolerates a dead or
    misbehaving server: one reconnect is attempted, then the server's
    circuit opens (see :mod:`repro.parallel.resilience`) and operations
    return misses instantly — the run degrades to recomputing, never
    crashes.  The open window starts at ``retry_delay``, is jittered, and
    doubles per consecutive failed half-open probe (capped at 30s); seed
    the jitter with ``retry_seed`` (or ``REPRO_RETRY_SEED``) to make the
    backoff sequence reproducible.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 5.0,
        retry_delay: float = 0.5,
        retry_seed: object = None,
    ) -> None:
        self.host, self.port = parse_memo_url(url)
        #: The server connection; its ``caps`` are probed lazily, and only
        #: when tracing is active.
        self.connection = FrameConnection(
            self.host, self.port, timeout=timeout, scheme=MEMO_URL_SCHEME
        )
        self.url = self.connection.url
        self.timeout = timeout
        self.retry_delay = retry_delay
        self._rng = policy_rng(retry_seed)
        self.circuits = HealthTracker(
            cooldown=RetryPolicy(
                retries=None,
                base_delay=retry_delay,
                max_delay=30.0,
                jitter=0.5,
            ),
            rng=self._rng,
        )
        self._counter_lock = threading.Lock()
        self._last_flush = 0.0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.errors = 0

    # ---------------------------------------------------------- connection

    @property
    def location(self) -> str:
        """The ``memo://`` URL (what workers are initialised with)."""
        return self.url

    def close(self) -> None:
        """Drop the connection (the store stays usable; it reconnects lazily)."""
        with self.connection.lock:
            self.connection.close()

    def _request(self, payload: bytes) -> Optional[tuple[bytes, bytes]]:
        """One request/response round trip, or ``None`` on any failure.

        A failure mid-exchange gets one reconnect-and-retry (the server may
        simply have restarted); a second failure trips the server's
        circuit so a dead service costs a fast local check per operation,
        not a connect timeout.  The open window starts at ``retry_delay``
        (jittered) and doubles per consecutive failed half-open probe
        (capped at 30s): a server that *times out* rather than refusing —
        a blackholing firewall, a hung host — costs two connect timeouts
        per window, not per operation, so even a many-thousand-op sweep
        stalls for bounded time.
        """
        if len(payload) > MAX_FRAME:
            # One oversized value must fail alone (a local error for the
            # caller), not tear the connection down and poison the
            # back-off window for every other key.
            return None
        with self.connection.lock:
            if not (
                self.circuits.routable(self.url)
                or self.circuits.claim_probe(self.url)
            ):
                return None
            for _attempt in (0, 1):
                try:
                    response = self.connection.request(payload)
                except (OSError, ProtocolError):
                    continue
                self.circuits.record_success(self.url)
                return response[:1], response[1:]
            self.circuits.record_failure(self.url)
            return None

    # ------------------------------------------------------------- get / put

    def _count(self, **deltas: int) -> None:
        with self._counter_lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    @staticmethod
    def _check_namespace(namespace: str) -> None:
        """Reject namespaces the server would refuse — loudly.

        A namespace is a compile-time constant of the caching layer, not
        runtime data: one the server-side regex rejects would silently turn
        the service store into a 100%-miss cache for that layer, so it is a
        programming error (like a malformed URL), not a degradable fault.
        """
        if not _NAMESPACE_RE.match(namespace):
            raise ValueError(
                f"Namespace {namespace!r} is not servable over memo:// "
                f"(must match {_NAMESPACE_RE.pattern})."
            )

    def get(self, namespace: str, key: Any, default: Any = None) -> Any:
        """Retrieve a memoised value, or ``default`` on any kind of miss.

        Transport failures and corrupt payloads count as ``errors`` (and
        misses); ndarrays in a hit are returned read-only, exactly like the
        disk store.
        """
        self._check_namespace(namespace)
        try:
            request = _OP_GET + pack_str(namespace) + pack_str(key_digest(key))
        except ProtocolError:
            self._count(misses=1, errors=1)
            return default
        with obs_trace.span("memo.get", tags={"namespace": namespace}):
            response = self._request(request)
        if response is None:
            self._count(misses=1, errors=1)
            return default
        status, body = response
        if status == _ST_MISS:
            self._count(misses=1)
            return default
        if status != _ST_OK or not body.startswith(_MAGIC):
            self._count(misses=1, errors=1)
            return default
        try:
            value = pickle.loads(body[len(_MAGIC):])
        except Exception:
            self._count(misses=1, errors=1)
            return default
        self._count(hits=1)
        return _freeze_nested(value)

    def put(self, namespace: str, key: Any, value: Any) -> None:
        """Publish a memoised value; failures degrade to a no-op cache."""
        self._check_namespace(namespace)
        try:
            blob = _MAGIC + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            request = _OP_PUT + pack_str(namespace) + pack_str(key_digest(key)) + blob
        except Exception:
            self._count(errors=1)
            return
        with obs_trace.span("memo.put", tags={"namespace": namespace}):
            response = self._request(request)
        if response is not None and response[0] == _ST_OK:
            self._count(puts=1)
        else:
            self._count(errors=1)
        # Read the flush clock under the counter lock: an unlocked read
        # races flush_stats() in another thread and can double-publish or
        # skip a snapshot window (the PR 7 lock discipline, applied here).
        with self._counter_lock:
            due = time.monotonic() - self._last_flush > 1.0
        if due:
            self.flush_stats()

    # ------------------------------------------------------------ statistics

    def _local_counters(self) -> dict[str, int]:
        with self._counter_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "errors": self.errors,
            }

    def stats(self) -> dict[str, int]:
        """This process's counters (plus the server-side object count)."""
        out = self._local_counters()
        out["objects"] = self.object_count()
        return out

    def object_count(self) -> int:
        response = self._request(_OP_COUNT)
        if response is None or response[0] != _ST_OK:
            return 0
        try:
            return int(response[1])
        except ValueError:
            return 0

    def flush_stats(self) -> None:
        """Publish this process's counters as a snapshot on the server.

        Failures are swallowed: statistics must never break the computation
        they describe.
        """
        snapshot = json.dumps(build_stats_snapshot(self._local_counters()))
        self._request(_OP_SNAP + pack_str(_process_token()) + snapshot.encode("utf-8"))
        with self._counter_lock:
            self._last_flush = time.monotonic()

    def aggregated_stats(self) -> dict[str, Any]:
        """Sum the snapshots of every process that used the service."""
        self.flush_stats()
        response = self._request(_OP_SNAPS)
        snapshots: list[dict] = []
        if response is not None and response[0] == _ST_OK:
            try:
                loaded = json.loads(response[1])
                if isinstance(loaded, list):
                    snapshots = loaded
            except ValueError:
                pass
        if not snapshots:
            # Unreachable server: report at least this process's view.
            snapshots = [build_stats_snapshot(self._local_counters())]
        return sum_snapshots(snapshots, objects=self.object_count())

    def reset_stats(self) -> None:
        """Zero this process's counters and drop the server's snapshots."""
        with self._counter_lock:
            self.hits = self.misses = self.puts = self.errors = 0
        self._request(_OP_RESET)

    def clear(self) -> None:
        """Delete every stored object and snapshot on the server."""
        self._request(_OP_CLEAR)
        with self._counter_lock:
            self.hits = self.misses = self.puts = self.errors = 0

    def ping(self) -> bool:
        """True when the server answers the protocol handshake."""
        response = self._request(_OP_PING)
        return response is not None and response[0] == _ST_OK

    def circuit_state(self) -> str:
        """The server's circuit (``closed`` / ``open`` / ``half-open``)."""
        return self.circuits.state(self.url)
