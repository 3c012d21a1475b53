"""Blocking client for the serve service, with the clean-failure contract.

:class:`ServeClient` is the user-facing handle on one — or, since PR 8, a
*fleet* of — running :class:`~repro.serve.server.ServeServer` replicas:
``predict`` rows, ``ask`` the STQ/BQ questions, probe ``health``/``stats``.
One persistent connection per replica per instance, each serialised by its
own lock (one client per thread is the cheap way to fan out — see
``benchmarks/serve_throughput.py``).

Fleet routing: constructed with several ``serve://`` URLs, the client
consistent-hashes each request — the hash key is the full request payload,
which embeds the opcode, the model alias and the request body — onto a
ring of replica vnodes.  Equal requests always prefer the same replica
(cache/batch affinity), different aliases spread across the fleet, and the
ring gives every request a *deterministic failover order*: when the
preferred replica is unreachable, in back-off, or sheds the request as
``overloaded``, the client walks to the next distinct replica instead of
failing.  A dead replica therefore degrades capacity, not availability —
and because every replica serves the same registry artifacts, the answer
is byte-identical no matter which replica produced it.

Failure contract (the serve flavour of the PR 3 wire discipline): the memo
client degrades failures to cache misses because a miss is recomputable;
an inference query has no local fallback, so here every failure is a
**clean, immediate error** — never a hang, never a crash, never a silently
wrong answer:

* A dead/unreachable replica, a connection reset, a truncated or oversized
  frame, or an undecodable response gets **one** reconnect-and-retry (the
  server may simply have restarted); a second failure trips that replica's
  circuit (see :mod:`repro.parallel.resilience`: a jittered cooldown that
  doubles per consecutive trip, capped at 30s) and the client fails over
  to the next replica on the ring.  An open-circuit replica *leaves the
  ring* — other requests stop hashing onto it — and re-enters when its
  half-open probe succeeds.  When every replica has failed, the call
  retries whole rounds under a budgeted, jittered
  :class:`~repro.parallel.resilience.RetryPolicy` and only then raises
  :class:`ServeUnavailableError` — bounded by ``retries`` and
  ``deadline``, never an unbounded loop.
* A replica answering ``overloaded: ...`` (request-budget, pending-depth
  or connection-cap shed) is a **healthy** refusal: the request lands on
  the next replica, the circuit is untouched, and only when the whole
  fleet sheds does the client back off (same budgeted jittered policy)
  and finally raise :class:`ServeOverloadedError` — the retryable
  flavour, distinct from dead (the shed-vs-dead contract).
* A server-side *request* error — unknown model, wrong feature count,
  non-finite values, bad question — raises :class:`ServeError` with the
  server's message immediately: the request itself is wrong and would be
  wrong on every replica.
* All socket operations carry a timeout, so a black-holed host costs a
  bounded wait, not a hang.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Any, Iterable, Optional, Sequence, Union

import numpy as np

from repro.obs import trace as obs_trace
from repro.parallel.resilience import (
    CLOSED,
    HealthTracker,
    RetryPolicy,
    policy_rng,
)
from repro.parallel.wire import (
    MAX_FRAME,
    FrameConnection,
    ProtocolError,
    fetch_telemetry,
    parse_hostport_url,
)
from repro.serve.server import (
    OP_ASK,
    OP_HEALTH,
    OP_PING,
    OP_PREDICT,
    OP_STATS,
    PING_BANNER,
    SERVE_URL_SCHEME,
    ST_OK,
    _OP_NAMES,
)

__all__ = [
    "ServeClient",
    "ServeError",
    "ServeUnavailableError",
    "ServeOverloadedError",
    "parse_serve_url",
]

#: Vnodes per replica on the consistent-hash ring.  Enough to spread load
#: evenly across a handful of replicas; cheap to build.
_VNODES = 32

#: Error-body prefix by which a shed (overloaded) refusal is recognised.
_OVERLOADED_PREFIX = "overloaded"


class ServeError(RuntimeError):
    """The server answered with a request error (bad model, bad input, ...)."""


class ServeUnavailableError(ServeError):
    """No usable server: dead, unreachable, or speaking a broken protocol."""


class ServeOverloadedError(ServeError):
    """Every reachable replica shed the request; retry after a beat.

    Distinct from :class:`ServeUnavailableError`: the fleet is alive and
    healthy, it is *at capacity right now* — the retryable condition
    admission control promises instead of an unbounded queue.
    """


def parse_serve_url(url: str) -> tuple[str, int]:
    """``serve://host:port`` -> ``(host, port)``; raises ``ValueError`` on junk."""
    return parse_hostport_url(url, SERVE_URL_SCHEME)


class ServeClient:
    """Blocking client for a serve server, or a fleet of replicas.

    ``url`` accepts a single ``serve://host:port``, a comma-separated list,
    or any sequence of URLs.  With one URL the behaviour is exactly the
    single-server client of PR 5; with several, requests consistent-hash
    across the fleet with deterministic failover (see module docstring).
    """

    def __init__(
        self,
        url: Union[str, Sequence[str]],
        *,
        timeout: float = 10.0,
        retry_delay: float = 0.5,
        retries: int = 2,
        deadline: Optional[float] = 15.0,
        retry_seed: object = None,
    ) -> None:
        if isinstance(url, str):
            urls: Iterable[str] = url.split(",")
        else:
            urls = url
        replicas: dict[str, FrameConnection] = {}
        for u in urls:
            u = u.strip()
            if not u:
                continue
            replica = FrameConnection(
                *parse_serve_url(u), timeout=timeout, scheme=SERVE_URL_SCHEME
            )
            replicas.setdefault(replica.url, replica)
        if not replicas:
            raise ValueError("ServeClient needs at least one serve:// URL.")
        #: One connection per replica, in URL order.  Health (circuit
        #: state, backoff windows) lives in :attr:`circuits`, keyed by URL.
        self.connections = list(replicas.values())
        self.urls = list(replicas)
        self._requests = dict.fromkeys(self.urls, 0)
        # Back-compat: the single-server surface everyone already uses.
        self.url = self.urls[0]
        self.host, self.port = self.connections[0].host, self.connections[0].port
        self.timeout = timeout
        self.retry_delay = retry_delay
        self._rng = policy_rng(retry_seed)
        #: Fleet-level retry rounds: after every replica in a routing pass
        #: has refused (dead *or* overloaded), back off jittered and try
        #: the whole ring again — bounded by the budget and the deadline.
        self._policy = RetryPolicy(
            retries=retries,
            base_delay=retry_delay,
            max_delay=30.0,
            jitter=0.5,
            deadline=deadline,
        )
        self.circuits = HealthTracker(
            cooldown=RetryPolicy(
                retries=None,
                base_delay=retry_delay,
                max_delay=30.0,
                jitter=0.5,
            ),
            rng=self._rng,
        )
        for url in self.urls:  # pre-register: stats show every replica
            self.circuits.state(url)
        self._ring_cache: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        self._fleet_lock = threading.Lock()
        self._failovers = 0
        self._overloaded = 0
        self._retry_rounds = 0

    # ------------------------------------------------------------------ ring

    def _ring_for(self, indices: tuple[int, ...]) -> list[tuple[int, int]]:
        """``[(point, replica_index)]`` over a replica subset, cached.

        The subset is the *routable* membership from the health tracker;
        an open-circuit replica simply contributes no vnodes, so its keys
        re-hash onto the survivors, and the cache (keyed by membership)
        makes a rebuild a dict hit unless a circuit actually flipped.
        """
        ring = self._ring_cache.get(indices)
        if ring is None:
            ring = []
            for idx in indices:
                url = self.connections[idx].url
                for vnode in range(_VNODES):
                    point = int.from_bytes(
                        hashlib.sha1(
                            f"{url}#{vnode}".encode("utf-8")
                        ).digest()[:8],
                        "big",
                    )
                    ring.append((point, idx))
            ring.sort()
            self._ring_cache[indices] = ring
        return ring

    def _routable_indices(self) -> tuple[int, ...]:
        """Replicas whose circuit is closed; all of them when none is."""
        active = tuple(
            idx
            for idx, replica in enumerate(self.connections)
            if self.circuits.routable(replica.url)
        )
        if active:
            return active
        # Whole fleet tripped: route over everyone — attempts fail fast
        # against open circuits but carry proper per-replica errors, and
        # half-open probes get their chance below.
        return tuple(range(len(self.connections)))

    def _route(self, key: bytes) -> list[int]:
        """Replica indices in preference order for this request key.

        The key's ring position picks the home replica; walking clockwise
        yields each remaining *routable* replica exactly once, so failover
        order is deterministic per request and different keys drain to
        different survivors when a replica dies.
        """
        indices = self._routable_indices()
        if len(indices) == 1:
            return [indices[0]]
        ring = self._ring_for(indices)
        point = int.from_bytes(hashlib.sha1(key).digest()[:8], "big")
        # Binary search would shave a few microseconds; the ring has a few
        # dozen entries, so a scan keeps it obvious.
        start = 0
        for i, (node_point, _) in enumerate(ring):
            if node_point >= point:
                start = i
                break
        order: list[int] = []
        for i in range(len(ring)):
            idx = ring[(start + i) % len(ring)][1]
            if idx not in order:
                order.append(idx)
                if len(order) == len(indices):
                    break
        return order

    def _order(self, key: bytes) -> list[tuple[int, bool]]:
        """``[(replica_index, is_probe)]`` for one routing pass.

        Half-open replicas are not on the ring, but each claimable probe
        is prepended so recovery traffic exists even when the rest of the
        fleet is healthy: one trial request re-closes the circuit (the
        replica re-enters the ring) or re-opens it with a doubled window.
        """
        probes = [
            idx
            for idx, replica in enumerate(self.connections)
            if self.circuits.claim_probe(replica.url)
        ]
        order = [(idx, True) for idx in probes]
        order.extend(
            (idx, False) for idx in self._route(key) if idx not in probes
        )
        return order

    # ---------------------------------------------------------- connection

    def close(self) -> None:
        """Drop all connections (the client stays usable; reconnects lazily)."""
        for replica in self.connections:
            with replica.lock:
                replica.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _request_replica(
        self, replica: FrameConnection, payload: bytes, *, probe: bool = False
    ) -> tuple[bytes, bytes]:
        """One round trip to one replica; ``ServeUnavailableError`` on failure.

        An open (or unprobed half-open) circuit fails fast without
        touching the socket; ``probe=True`` bypasses the gate for the
        claimed half-open trial request and for ``ping``.
        """
        with replica.lock:
            if not probe and self.circuits.state(replica.url) != CLOSED:
                remaining = self.circuits.open_remaining(replica.url)
                raise ServeUnavailableError(
                    f"serve server {replica.url} is down "
                    f"(circuit open; backing off {remaining:.1f}s)"
                )
            self._requests[replica.url] += 1
            for _attempt in (0, 1):
                # Trace context is attached at *send* time (by the
                # connection), never in the routing key: per-request trace
                # ids must not scatter the consistent-hash ring.
                try:
                    response = replica.request(payload)
                except (OSError, ProtocolError):
                    continue
                self.circuits.record_success(replica.url)
                return response[:1], response[1:]
            self.circuits.record_failure(replica.url)
            remaining = self.circuits.open_remaining(replica.url)
            raise ServeUnavailableError(
                f"serve server {replica.url} is unreachable or misbehaving "
                f"(retried once; backing off {remaining:.1f}s)"
            )

    def _bad_response(self, replica: FrameConnection, reason: str) -> ServeUnavailableError:
        """A decodable-frame-undecodable-body reply: count it as a failure.

        The frame round trip succeeded (so ``_request_replica`` recorded a
        success), but a body that cannot parse means the replica — or the
        path to it — is corrupting responses; that is sickness, not load.
        """
        self.circuits.record_failure(replica.url)
        return ServeUnavailableError(f"server {replica.url} returned {reason}")

    def _call(self, op: bytes, fields: Optional[dict] = None) -> dict:
        payload = op if fields is None else op + json.dumps(fields).encode("utf-8")
        if len(payload) > MAX_FRAME:
            # A local mistake, not a server fault: fail this call alone
            # without tearing down connections or opening back-off windows.
            raise ServeError(f"request of {len(payload)} bytes exceeds the frame cap")
        # The client-side span of this request: its duration is the full
        # client wait (routing, failover, backoff rounds included) and its
        # context rides the wire to whichever replica answers.
        with obs_trace.span(
            "serve.call", tags={"op": _OP_NAMES.get(op, repr(op))}
        ) as call_span:
            retry = self._policy.start(self._rng)
            while True:
                last_error: Optional[ServeError] = None
                for position, (idx, probe) in enumerate(self._order(payload)):
                    replica = self.connections[idx]
                    if position > 0:
                        with self._fleet_lock:
                            self._failovers += 1
                    try:
                        status, body = self._request_replica(
                            replica, payload, probe=probe
                        )
                    except ServeUnavailableError as exc:
                        last_error = exc
                        continue
                    if status != ST_OK:
                        try:
                            message = body.decode("utf-8") or "request failed"
                        except UnicodeDecodeError:
                            # A garbled error body is wire rot, not a verdict
                            # on the request: retryable, never ServeError.
                            last_error = self._bad_response(
                                replica, "an undecodable error body"
                            )
                            continue
                        if message.startswith(_OVERLOADED_PREFIX):
                            # Healthy refusal: try the next replica, remember
                            # the retryable flavour in case everyone refuses.
                            # The circuit is untouched — shed is not dead.
                            self.circuits.record_overload(replica.url)
                            with self._fleet_lock:
                                self._overloaded += 1
                            last_error = ServeOverloadedError(message)
                            continue
                        # The request itself is wrong; every replica would
                        # agree.
                        raise ServeError(message)
                    try:
                        out = json.loads(body)
                    except ValueError:
                        last_error = self._bad_response(
                            replica, "an undecodable response"
                        )
                        continue
                    if not isinstance(out, dict):
                        last_error = self._bad_response(
                            replica, "a malformed response"
                        )
                        continue
                    call_span.set_tag("replica", replica.url)
                    return out
                # The whole pass refused (dead or shedding): back off under
                # the budgeted jittered policy and try another round.
                delay = retry.note_failure()
                if delay is None:
                    raise last_error or ServeUnavailableError(
                        "no serve replica available"
                    )
                with self._fleet_lock:
                    self._retry_rounds += 1
                time.sleep(delay)

    # ------------------------------------------------------------- endpoints

    def predict(self, X: Any, model: str = "default") -> np.ndarray:
        """Predict rows of ``X`` (a single feature vector is auto-wrapped).

        The result is byte-identical to ``model.predict(X)`` on the fitted
        model the server hosts — whichever replica answers: features and
        predictions cross the wire as JSON numbers, which round-trip
        float64 exactly.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        out = self._call(OP_PREDICT, {"model": model, "X": X.tolist()})
        # A version-skewed or rogue server answering OK without one numeric
        # prediction per requested row: a loud error, never a silently
        # short, empty or non-numeric result.
        y = out.get("y")
        if isinstance(y, list) and len(y) == X.shape[0]:
            try:
                arr = np.asarray(y, dtype=np.float64)
            except (TypeError, ValueError):
                arr = None
            if arr is not None and arr.shape == (X.shape[0],):
                return arr
        raise ServeUnavailableError("server returned a malformed prediction")

    def ask(
        self, question: str, n_occupied: int, n_virtual: int, model: str = "default"
    ) -> dict:
        """Answer STQ/BQ for a problem size; returns the answer dict."""
        out = self._call(
            OP_ASK,
            {
                "model": model,
                "question": question,
                "n_occupied": int(n_occupied),
                "n_virtual": int(n_virtual),
            },
        )
        answer = out.get("answer")
        if not isinstance(answer, dict):
            raise ServeUnavailableError("server returned a malformed answer")
        return answer

    def health(self) -> dict:
        """A server's liveness document (fleet-routed like any request)."""
        return self._call(OP_HEALTH)

    def stats(self) -> dict:
        """A server's counters (requests, batching, registry, uptime)."""
        return self._call(OP_STATS)

    def ping(self) -> bool:
        """True when any replica answers the protocol handshake."""
        for replica in self.connections:
            try:
                # probe=True: a ping must touch the real socket even when
                # the circuit is open — and its outcome heals the circuit.
                status, body = self._request_replica(replica, OP_PING, probe=True)
            except ServeError:
                continue
            if status == ST_OK and body == PING_BANNER:
                return True
        return False

    def fleet_stats(self) -> dict:
        """Client-side routing counters and per-replica circuit health.

        ``replicas`` merges the request counter with the health tracker's
        snapshot — circuit state, failure EWMA, overload/trip counts and
        last-failure age — so an operator sees a degraded replica here
        instead of grepping server logs.
        """
        with self._fleet_lock:
            failovers, overloaded = self._failovers, self._overloaded
            retry_rounds = self._retry_rounds
        health = self.circuits.snapshot()
        requests = dict(self._requests)
        replicas = {}
        for url in self.urls:
            info = dict(health.get(url, {}))
            info["requests"] = requests[url]
            replicas[url] = info
        return {
            "urls": list(self.urls),
            "requests": requests,
            "failovers": failovers,
            "overloaded": overloaded,
            "retry_rounds": retry_rounds,
            "replicas": replicas,
        }

    def fleet_telemetry(self, *, timeout: Optional[float] = None) -> dict:
        """Server-side telemetry snapshot per replica, scraped over the wire.

        Each reachable replica contributes its versioned snapshot (the
        ``telemetry`` opcode: metrics, legacy stats, recent spans); an
        unreachable or pre-observability replica contributes an ``error``
        entry instead of failing the whole scrape.  One fresh connection
        per replica, so the scrape never perturbs the request sockets.
        """
        out: dict[str, dict] = {}
        for replica in self.connections:
            try:
                out[replica.url] = fetch_telemetry(
                    replica.host,
                    replica.port,
                    timeout=self.timeout if timeout is None else timeout,
                )
            except (OSError, ProtocolError) as exc:
                out[replica.url] = {"error": str(exc)}
        return out
