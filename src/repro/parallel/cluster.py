"""Distributed ``ParallelMap`` executor over repro's own wire protocol.

This module closes the one remaining gap in the PR 3 executor registry: a
``cluster`` backend that fans task batches out to worker processes on any
number of machines with **zero new dependencies** — the same stdlib
length-prefixed frame contract (:mod:`repro.parallel.wire`) that already
carries the memo service and the serve service.

Topology
--------
The *run* hosts the dispatcher; workers dial in and pull work:

* :class:`ClusterDispatcher` — a :class:`~repro.parallel.wire.FrameService`
  embedded in the submitting process.  ``REPRO_EXECUTOR=cluster`` plus
  ``REPRO_CLUSTER_URL=cluster://host:port`` makes every existing
  ``ParallelMap`` call site — searches, CV, forests, committees,
  ``run_model_comparison``, the CLI ``--jobs`` paths — bind it lazily on
  first use and fan batches through it, without touching the call sites.
* :class:`ClusterWorker` / ``repro-chem cluster-work --dispatcher
  cluster://host:port`` — the worker agent: a poll loop that pulls one
  task at a time, runs it, and pushes the result back.  Workers started
  before the dispatcher exists simply retry until it appears, and survive
  dispatcher restarts between runs (each run binds the same URL).
* Shared state rides the ``memo://`` service: point the run *and* every
  worker at one ``memo://host:port`` store (``--memo-dir`` /
  ``REPRO_MEMO_DIR``) and candidate evaluations, CV results and finished
  sweep combinations are shared across the whole fleet, exactly as they
  are across local pool workers.

Wire contract
-------------
Tasks ride the wire as the same magic-prefixed, versioned pickle payloads
the memo store uses.  The dispatcher never unpickles anything a worker
sends: task blobs are sealed client-side by :class:`ClusterExecutor`,
result blobs are passed back opaque and only unpickled by the executor in
the submitting process — the process that created the tasks in the first
place.  Workers unpickle task payloads by design (they execute the run's
own functions; a cluster worker is as trusted as a local pool worker).

Scheduling and failure model
----------------------------
* **Pull-based dispatch** — idle workers poll; the dispatcher hands out
  the submission order (heaviest first, same as the process pool).
  Results return **in task order** regardless of completion order.
* **Heartbeat-based dead-worker detection** — polling *is* the heartbeat
  while idle; a background thread beats during long task execution.  A
  worker silent past ``heartbeat_timeout`` is presumed dead: its in-flight
  tasks are re-queued for the survivors.
* **Straggler re-dispatch** — once the queue drains, a task assigned
  longer than ``straggler_after`` is handed to an idle worker as a
  duplicate; the first result wins and late duplicates are discarded
  (tasks are pure functions of their payload, so either copy is
  bit-identical).
* **Degradation to serial** — an unbindable dispatcher URL or a batch
  with no reachable worker raises
  :class:`~repro.parallel.executors.ExecutorUnavailableError`, and
  ``ParallelMap`` recomputes the batch on the bit-identical serial path,
  exactly like a broken process pool.  Worker *task* exceptions, by
  contrast, propagate to the caller unchanged.

Determinism: tasks carry their own seeds (the ``ParallelMap`` contract),
so a cluster run is **byte-identical** to a cold serial run for the same
seed — pinned by ``tests/parallel/test_cluster.py`` and the ``cluster``
CI job (real dispatcher + worker processes, worker killed mid-sweep).
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Optional, Sequence

from repro.obs import trace as obs_trace
from repro.parallel.executors import (
    Executor,
    ExecutorUnavailableError,
    register_executor,
)
from repro.parallel.resilience import RetryPolicy, policy_rng
from repro.parallel.store import _MAGIC
from repro.parallel.wire import (
    DEFAULT_MAX_CONNECTIONS,
    DEFAULT_TIMEOUT,
    FrameConnection,
    FrameService,
    ProtocolError,
    fetch_telemetry,
    pack_str,
    parse_hostport_url,
    unpack_str,
)

__all__ = [
    "CLUSTER_URL_SCHEME",
    "CLUSTER_URL_ENV",
    "CLUSTER_WAIT_ENV",
    "CLUSTER_HEARTBEAT_ENV",
    "CLUSTER_PROTOCOL_VERSION",
    "ClusterDispatcher",
    "ClusterWorker",
    "ClusterExecutor",
    "parse_cluster_url",
    "dispatcher_status",
    "ensure_dispatcher",
    "shutdown_dispatchers",
]

#: URL scheme of the cluster dispatcher (``cluster://host:port``).
CLUSTER_URL_SCHEME = "cluster://"

#: Environment variable naming the dispatcher URL the run binds.
CLUSTER_URL_ENV = "REPRO_CLUSTER_URL"

#: Environment variable: seconds a batch waits for a (first or replacement)
#: worker before degrading to the serial path.
CLUSTER_WAIT_ENV = "REPRO_CLUSTER_WAIT"

#: Environment variable: seconds of heartbeat silence after which a worker
#: is presumed dead and its in-flight tasks are re-queued.
CLUSTER_HEARTBEAT_ENV = "REPRO_CLUSTER_HEARTBEAT"

CLUSTER_PROTOCOL_VERSION = 1

# Request opcodes (worker -> dispatcher).
_OP_HELLO = b"W"     # register; returns the assigned worker id
_OP_BEAT = b"B"      # heartbeat (also implicit in every poll)
_OP_POLL = b"T"      # ask for a task
_OP_RESULT = b"R"    # deliver a task result
_OP_STATS = b"S"     # legacy observer opcode: stats() as a JSON body
_OP_PING = b"?"

# Response statuses.
_ST_OK = b"+"
_ST_IDLE = b"-"      # poll: nothing to do right now
_ST_ERR = b"!"

_PING_BANNER = f"repro-cluster/{CLUSTER_PROTOCOL_VERSION}".encode("ascii")

# Result payload statuses (inside an _OP_RESULT frame).
_RESULT_OK = b"+"
_RESULT_EXC = b"!"
_RESULT_BAD = b"?"   # payload arrived unusable (wire rot): not a task failure

#: A task whose payload reads as unusable this many times stops being
#: re-queued: its result slot poisons to an unreadable blob, which the
#: executor maps to :class:`ExecutorUnavailableError` — the run degrades
#: to the bit-identical serial path instead of crashing or livelocking.
_BAD_PAYLOAD_LIMIT = 3

_DEFAULT_WORKER_WAIT = 10.0
_DEFAULT_HEARTBEAT_TIMEOUT = 10.0


def parse_cluster_url(url: str, *, allow_ephemeral: bool = False) -> tuple[str, int]:
    """``cluster://host:port`` -> ``(host, port)``; raises ``ValueError`` on junk.

    A malformed URL is a configuration typo and must fail loudly — unlike a
    dispatcher that cannot bind or a fleet with no live workers, which
    degrade to the serial path per the executor contract.  With
    ``allow_ephemeral``, port ``0`` is accepted (bind an ephemeral port —
    what in-process tests do; a worker can never *dial* port 0).
    """
    if allow_ephemeral and url.startswith(CLUSTER_URL_SCHEME):
        rest = url[len(CLUSTER_URL_SCHEME):].rstrip("/")
        host, sep, port_s = rest.rpartition(":")
        if sep and host and port_s == "0":
            return host, 0
    return parse_hostport_url(url, CLUSTER_URL_SCHEME)


def _env_seconds(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number of seconds, got {raw!r}") from None
    return max(0.0, value)


def _seal_task(fn: Callable[[Any], Any], task: Any) -> bytes:
    """Seal one ``(fn, task)`` pair as a versioned pickle payload."""
    return _MAGIC + pickle.dumps((fn, task), protocol=pickle.HIGHEST_PROTOCOL)


def _seal_value(value: Any) -> bytes:
    return _MAGIC + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _open_payload(blob: bytes) -> Any:
    """Unpickle a versioned payload; raises ``ProtocolError`` on bad framing."""
    if not blob.startswith(_MAGIC):
        raise ProtocolError("payload does not carry the expected version magic")
    return pickle.loads(blob[len(_MAGIC):])


def _seal_exception(exc: BaseException) -> bytes:
    """Seal a task exception so it survives the wire (picklable or not)."""
    try:
        blob = _seal_value(exc)
        pickle.loads(blob[len(_MAGIC):])  # must round-trip worker-side
        return blob
    except Exception:
        return _seal_value(RuntimeError(f"{type(exc).__name__}: {exc}"))


# --------------------------------------------------------------- dispatcher


class _WorkerRecord:
    """Dispatcher-side view of one registered worker."""

    __slots__ = ("worker_id", "last_seen", "tasks_done")

    def __init__(self, worker_id: str, now: float) -> None:
        self.worker_id = worker_id
        self.last_seen = now
        self.tasks_done = 0


class ClusterDispatcher(FrameService):
    """Fan ``ParallelMap`` batches out to pull-based worker agents.

    One dispatcher serves the whole run: batches are submitted one at a
    time (``ParallelMap`` regions are sequential by construction; a lock
    enforces it regardless), workers stay connected across batches, and a
    generation counter stamped into every task token makes results from a
    previous — possibly aborted — batch impossible to misfile.
    """

    scheme = CLUSTER_URL_SCHEME

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_timeout: Optional[float] = None,
        straggler_after: Optional[float] = None,
        timeout: Optional[float] = DEFAULT_TIMEOUT,
        max_connections: Optional[int] = DEFAULT_MAX_CONNECTIONS,
    ) -> None:
        super().__init__(
            host=host, port=port, timeout=timeout, max_connections=max_connections
        )
        if heartbeat_timeout is None:
            heartbeat_timeout = _env_seconds(
                CLUSTER_HEARTBEAT_ENV, _DEFAULT_HEARTBEAT_TIMEOUT
            )
        self.heartbeat_timeout = max(0.1, float(heartbeat_timeout))
        # Stragglers are re-dispatched well after a dead worker would have
        # been reaped: duplicates are for *stuck* workers, not normal skew.
        self.straggler_after = (
            float(straggler_after)
            if straggler_after is not None
            else 6.0 * self.heartbeat_timeout
        )
        self._state = threading.Condition(threading.Lock())
        self._workers: dict[str, _WorkerRecord] = {}
        self._worker_seq = itertools.count(1)
        self._generation = 0
        self._batch_active = False
        self._blobs: list[bytes] = []
        self._queue: deque[int] = deque()
        self._assigned: dict[int, list[tuple[str, float]]] = {}
        self._results: dict[int, tuple[bool, bytes]] = {}
        self._bad_payloads: dict[int, int] = {}
        # PR 10: scheduling counters live on the typed metrics registry
        # (created by FrameService.__init__ above) so the telemetry opcode
        # sees them; they are still only mutated under self._state.
        self._c_batches_done = self.metrics.counter("cluster.batches_done")
        self._c_tasks_redispatched = self.metrics.counter(
            "cluster.tasks_redispatched"
        )
        self._c_payloads_rejected = self.metrics.counter(
            "cluster.payloads_rejected"
        )
        # Serialises whole batches (submit-to-collect), not frame handling.
        self._batch_lock = threading.Lock()

    # ------------------------------------------------------------ batch API

    def run_batch(
        self,
        payloads: Sequence[bytes],
        order: Sequence[int],
        *,
        worker_wait: float,
        poll_interval: float = 0.05,
    ) -> list[tuple[bool, bytes]]:
        """Dispatch sealed payloads to the fleet; collect results in order.

        Returns one ``(ok, blob)`` per task, index-aligned with
        ``payloads``.  Raises :class:`ExecutorUnavailableError` when no
        worker is reachable for ``worker_wait`` seconds — at batch start
        (empty fleet) or mid-batch (every worker died); the pending batch
        is withdrawn first, so a late worker cannot run half of an
        abandoned batch.
        """
        with self._batch_lock:
            with self._state:
                self._generation += 1
                self._blobs = list(payloads)
                self._queue = deque(order)
                self._assigned = {}
                self._results = {}
                self._bad_payloads = {}
                self._batch_active = True
            try:
                return self._collect(len(payloads), worker_wait, poll_interval)
            finally:
                with self._state:
                    self._batch_active = False
                    self._blobs = []
                    self._queue.clear()
                    self._assigned.clear()
                    self._results = {}

    def _collect(
        self, n_tasks: int, worker_wait: float, poll_interval: float
    ) -> list[tuple[bool, bytes]]:
        no_worker_deadline = time.monotonic() + worker_wait
        with self._state:
            while True:
                if len(self._results) == n_tasks:
                    self._c_batches_done.inc()
                    return [self._results[idx] for idx in range(n_tasks)]
                now = time.monotonic()
                self._reap_dead_workers(now)
                if self._workers:
                    no_worker_deadline = now + worker_wait
                elif now >= no_worker_deadline:
                    raise ExecutorUnavailableError(
                        f"no cluster worker reachable at {self.url} "
                        f"within {worker_wait:.1f}s"
                    )
                self._state.wait(timeout=poll_interval)

    def _reap_dead_workers(self, now: float) -> None:
        """Drop heartbeat-silent workers and re-queue their in-flight tasks."""
        dead = [
            record.worker_id
            for record in self._workers.values()
            if now - record.last_seen > self.heartbeat_timeout
        ]
        for worker_id in dead:
            del self._workers[worker_id]
        if not dead:
            return
        for idx, assignees in list(self._assigned.items()):
            if idx in self._results:
                continue
            live = [(wid, at) for wid, at in assignees if wid in self._workers]
            if live:
                self._assigned[idx] = live
            else:
                # Every copy of this task died with its worker: put it at
                # the front so survivors pick it up before fresh work.
                del self._assigned[idx]
                self._queue.appendleft(idx)
                self._c_tasks_redispatched.inc()

    # ------------------------------------------------------------- dispatch

    def _dispatch(self, request: bytes) -> tuple[bytes, bytes]:
        op = request[:1]
        if op == _OP_HELLO:
            return self._handle_hello(request)
        if op == _OP_BEAT:
            return self._handle_beat(request)
        if op == _OP_POLL:
            return self._handle_poll(request)
        if op == _OP_RESULT:
            return self._handle_result(request)
        if op == _OP_STATS:
            # Observer endpoint of older cluster-status clients (current
            # ones read the same dict from TELEMETRY): counters only, no
            # worker registration and no effect on scheduling state.
            return _ST_OK, json.dumps(self.stats()).encode("utf-8")
        if op == _OP_PING:
            return _ST_OK, _PING_BANNER
        raise ProtocolError(f"unknown opcode {op!r}")

    def _handle_hello(self, request: bytes) -> tuple[bytes, bytes]:
        name, offset = unpack_str(request, 1)
        if offset != len(request):
            raise ProtocolError("trailing bytes after HELLO fields")
        base = name.strip() or "worker"
        with self._state:
            worker_id = f"{base}#{next(self._worker_seq)}"
            self._workers[worker_id] = _WorkerRecord(worker_id, time.monotonic())
            self._state.notify_all()
        return _ST_OK, pack_str(worker_id)

    def _touch(self, worker_id: str) -> Optional[_WorkerRecord]:
        record = self._workers.get(worker_id)
        if record is not None:
            record.last_seen = time.monotonic()
        return record

    def _handle_beat(self, request: bytes) -> tuple[bytes, bytes]:
        worker_id, offset = unpack_str(request, 1)
        if offset != len(request):
            raise ProtocolError("trailing bytes after BEAT fields")
        with self._state:
            if self._touch(worker_id) is None:
                # Reaped as dead (or the dispatcher restarted): the worker
                # must re-register before its beats count again.
                return _ST_ERR, b"unknown worker"
            self._state.notify_all()
        return _ST_OK, b""

    def _handle_poll(self, request: bytes) -> tuple[bytes, bytes]:
        worker_id, offset = unpack_str(request, 1)
        if offset != len(request):
            raise ProtocolError("trailing bytes after POLL fields")
        with self._state:
            if self._touch(worker_id) is None:
                return _ST_ERR, b"unknown worker"
            self._state.notify_all()
            if not self._batch_active:
                return _ST_IDLE, b""
            now = time.monotonic()
            if self._queue:
                idx = self._queue.popleft()
            else:
                idx = self._pick_straggler(worker_id, now)
                if idx is None:
                    return _ST_IDLE, b""
                self._c_tasks_redispatched.inc()
            self._assigned.setdefault(idx, []).append((worker_id, now))
            token = f"{self._generation}:{idx}"
            return _ST_OK, pack_str(token) + self._blobs[idx]

    def _pick_straggler(self, worker_id: str, now: float) -> Optional[int]:
        """Oldest unacknowledged task worth duplicating onto ``worker_id``."""
        best_idx, best_age = None, self.straggler_after
        for idx, assignees in self._assigned.items():
            if idx in self._results:
                continue
            if any(wid == worker_id for wid, _ in assignees):
                continue
            age = now - min(at for _, at in assignees)
            if age > best_age:
                best_idx, best_age = idx, age
        return best_idx

    def _handle_result(self, request: bytes) -> tuple[bytes, bytes]:
        worker_id, offset = unpack_str(request, 1)
        token, offset = unpack_str(request, offset)
        status = request[offset:offset + 1]
        if status not in (_RESULT_OK, _RESULT_EXC, _RESULT_BAD):
            raise ProtocolError("bad result status")
        blob = request[offset + 1:]
        generation_s, sep, idx_s = token.partition(":")
        if not sep or not generation_s.isdigit() or not idx_s.isdigit():
            raise ProtocolError("bad task token")
        generation, idx = int(generation_s), int(idx_s)
        with self._state:
            record = self._touch(worker_id)
            stale = (
                generation != self._generation
                or not self._batch_active
                or idx >= len(self._blobs)
                or idx in self._results
            )
            if not stale and status == _RESULT_BAD:
                # The payload arrived unusable at the worker: wire rot on
                # the dispatcher->worker leg, not a task failure.  Re-queue
                # the task (a re-send re-reads the pristine blob) up to
                # _BAD_PAYLOAD_LIMIT times, then poison the result slot so
                # the executor degrades the batch to the serial path.
                self._c_payloads_rejected.inc()
                count = self._bad_payloads.get(idx, 0) + 1
                self._bad_payloads[idx] = count
                self._assigned.pop(idx, None)
                if count <= _BAD_PAYLOAD_LIMIT:
                    if idx not in self._queue:
                        self._queue.appendleft(idx)
                        self._c_tasks_redispatched.inc()
                else:
                    self._results[idx] = (True, b"")  # unreadable on purpose
                self._state.notify_all()
                return _ST_OK, b""
            if not stale:
                # First result wins; duplicates from straggler re-dispatch
                # are discarded above, bit-identical anyway.
                self._results[idx] = (status == _RESULT_OK, blob)
                if record is not None:
                    record.tasks_done += 1
            self._state.notify_all()
        return _ST_OK, b""

    # ---------------------------------------------------------- introspection

    def stats(self) -> dict[str, Any]:
        """Fleet and scheduling counters (for logs and debugging)."""
        with self._state:
            return {
                "workers": sorted(self._workers),
                "batch_active": self._batch_active,
                "tasks_pending": len(self._queue),
                "tasks_assigned": len(self._assigned),
                "tasks_done": len(self._results),
                "batches_done": self._c_batches_done.value,
                "tasks_redispatched": self._c_tasks_redispatched.value,
                "payloads_rejected": self._c_payloads_rejected.value,
                "connections_shed": self.connections_shed,
            }


def dispatcher_status(
    url: str,
    *,
    timeout: float = 5.0,
    retries: int = 0,
    retry_delay: float = 0.5,
    retry_seed: object = None,
) -> dict[str, Any]:
    """One-shot :meth:`ClusterDispatcher.stats` fetch from outside the run.

    Scrapes the dispatcher's telemetry snapshot (:func:`fetch_telemetry`)
    and returns its ``stats`` counters dict.  Raises ``ConnectionError``
    when no dispatcher answers (dead run, wrong URL) and
    :class:`~repro.parallel.wire.ProtocolError` when something else is
    listening there — ``repro-chem cluster-status`` maps both onto a clean
    non-zero exit.  ``retries`` re-dials an unreachable dispatcher under
    the shared jittered backoff policy (default 0: one shot).
    """
    host, port = parse_cluster_url(url)
    policy = RetryPolicy(
        retries=retries, base_delay=retry_delay, max_delay=30.0, jitter=0.5
    )
    state = policy.start(policy_rng(retry_seed))
    while True:
        try:
            doc = fetch_telemetry(host, port, timeout=timeout)
            break
        except OSError as exc:
            delay = state.note_failure()
            if delay is None:
                raise ConnectionError(
                    f"no cluster dispatcher reachable at {url}: {exc}"
                )
            time.sleep(delay)
    if doc.get("service") != "ClusterDispatcher" or not isinstance(
        doc.get("stats"), dict
    ):
        raise ProtocolError(f"service at {url} is not a cluster dispatcher")
    return doc["stats"]


# ------------------------------------------------------------------- worker


class ClusterWorker:
    """The worker agent: poll the dispatcher, run tasks, push results.

    One persistent connection, serialised by its lock; a background thread
    heartbeats through it while the main loop is busy executing a task, so
    long fits do not read as death.  HELLO is the first exchange on every
    fresh connection, and a lost connection forgets the worker id: it is
    retried (with a fresh HELLO — the dispatcher hands out a new id) until
    the dispatcher
    has been unreachable for ``reconnect_window`` seconds, at which point
    :meth:`run` returns; ``repro-chem cluster-work`` exposes the window as
    ``--idle-exit`` so fleets drain themselves after the run ends.

    Task payloads are the run's own pickled ``(fn, task)`` pairs; the
    worker executes them exactly like a local pool worker — including the
    per-task memo-store statistics flush — and ships back either the
    pickled value or the pickled exception.
    """

    def __init__(
        self,
        url: str,
        *,
        name: Optional[str] = None,
        timeout: float = 5.0,
        poll_interval: float = 0.05,
        heartbeat_interval: float = 2.0,
        reconnect_window: float = 10.0,
        max_tasks: Optional[int] = None,
        retry_seed: object = None,
    ) -> None:
        self.host, self.port = parse_cluster_url(url)
        self.connection = FrameConnection(
            self.host, self.port, timeout=timeout, scheme=CLUSTER_URL_SCHEME
        )
        self.url = self.connection.url
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.reconnect_window = reconnect_window
        self.max_tasks = max_tasks
        self._rng = policy_rng(retry_seed)
        #: Redial cadence while the dispatcher is away: jittered, doubling
        #: from the poll interval up to 2s, deadline = reconnect_window —
        #: the same policy engine every other wire client uses.
        self._redial = RetryPolicy(
            retries=None,
            base_delay=max(poll_interval, 0.05),
            max_delay=2.0,
            jitter=0.5,
            deadline=reconnect_window,
        )
        self.tasks_done = 0
        self._worker_id: Optional[str] = None
        self._stop = threading.Event()

    # ---------------------------------------------------------- connection

    def stop(self) -> None:
        """Ask the loop to exit after the in-flight task (thread-safe)."""
        self._stop.set()

    def _drop(self) -> None:
        """Drop the connection; the next request redials and re-registers."""
        with self.connection.lock:
            self.connection.close()
            self._worker_id = None

    def _request(self, build: Callable[[str], bytes]) -> Optional[tuple[bytes, bytes]]:
        """One round trip (connecting + registering first if needed).

        ``build`` maps the current worker id to the request frame — the id
        is only known post-HELLO, which happens inside the lock on a fresh
        connection.  Returns ``None`` on any transport failure, after
        tearing the connection down so the next call redials.
        """
        with self.connection.lock:
            try:
                if not self.connection.connected:
                    # Sent bare: registration precedes any caps probe.
                    response = self.connection.request(
                        _OP_HELLO + pack_str(self.name), traced=False
                    )
                    if response[:1] != _ST_OK:
                        raise ProtocolError("dispatcher refused registration")
                    self._worker_id, _ = unpack_str(response, 1)
                response = self.connection.request(build(self._worker_id))
                return response[:1], response[1:]
            except (OSError, ProtocolError):
                self.connection.close()
                self._worker_id = None
                return None

    # ---------------------------------------------------------------- loop

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            # Only beat over an existing connection: the main loop owns
            # redialing, so a dead dispatcher costs one connect attempt per
            # poll, not two.
            if self.connection.connected:
                self._request(lambda wid: _OP_BEAT + pack_str(wid))

    def run(self) -> int:
        """Serve until stopped or the dispatcher stays away; returns tasks run."""
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="cluster-heartbeat", daemon=True
        )
        heartbeat.start()
        redial = None
        try:
            while not self._stop.is_set():
                if self.max_tasks is not None and self.tasks_done >= self.max_tasks:
                    break
                response = self._request(lambda wid: _OP_POLL + pack_str(wid))
                if response is None:
                    # Dispatcher away: back off under the shared redial
                    # policy; note_failure() goes None once the window
                    # (the policy deadline) has elapsed without contact.
                    if redial is None:
                        redial = self._redial.start(self._rng)
                    delay = redial.note_failure()
                    if delay is None:
                        break
                    self._stop.wait(delay)
                    continue
                redial = None
                status, body = response
                if status == _ST_OK:
                    try:
                        token, offset = unpack_str(body, 0)
                    except ProtocolError:
                        # A garbled poll frame must not kill the worker:
                        # drop the connection and redial — the dispatcher
                        # will re-queue the task it thinks we took.
                        self._drop()
                        continue
                    self._run_and_report(token, body[offset:])
                elif status == _ST_ERR:
                    # "unknown worker": we were presumed dead — re-register.
                    self._drop()
                else:
                    self._stop.wait(self.poll_interval)
        finally:
            self._stop.set()
            self._drop()
        return self.tasks_done

    def _run_and_report(self, token: str, blob: bytes) -> None:
        from repro.parallel.backend import _call_task

        try:
            fn, task = _open_payload(blob)
        except Exception as exc:
            # An unusable payload is wire rot, not a task failure: report
            # it as BAD so the dispatcher re-queues the pristine blob
            # instead of surfacing a bogus exception to the run.
            self._request(
                lambda wid: _OP_RESULT
                + pack_str(wid)
                + pack_str(token)
                + _RESULT_BAD
                + repr(exc).encode("utf-8", "replace")
            )
            return
        else:
            with obs_trace.span(
                "cluster.task", tags={"token": token, "worker": self.name}
            ) as task_span:
                try:
                    value = _call_task(fn, task)
                except Exception as exc:
                    status, payload = _RESULT_EXC, _seal_exception(exc)
                else:
                    try:
                        status, payload = _RESULT_OK, _seal_value(value)
                    except Exception as exc:
                        status, payload = _RESULT_EXC, _seal_exception(
                            RuntimeError(f"task result does not pickle: {exc!r}")
                        )
                task_span.set_tag("ok", status == _RESULT_OK)
                self.tasks_done += 1
                # Report from inside the span so the result frame carries
                # its context: the dispatcher's frame span links back to
                # the worker's task span.
                self._request(
                    lambda wid: _OP_RESULT
                    + pack_str(wid)
                    + pack_str(token)
                    + status
                    + payload
                )


# ------------------------------------------------ dispatcher registry


_DISPATCHERS: dict[str, ClusterDispatcher] = {}
_DISPATCHERS_LOCK = threading.Lock()


def ensure_dispatcher(url: str, **kwargs: Any) -> ClusterDispatcher:
    """The process-wide dispatcher bound at ``url`` (started on first use).

    One dispatcher per URL per process: repeated ``ParallelMap`` regions
    reuse it, so workers stay connected across batches.  ``port=0`` binds
    an ephemeral port and registers the dispatcher under its *bound* URL —
    tests create it this way, then point ``REPRO_CLUSTER_URL`` at
    ``dispatcher.url``.  Extra ``kwargs`` reach the constructor only when
    a new dispatcher is actually created.
    """
    host, port = parse_cluster_url(url, allow_ephemeral=True)
    key = f"{CLUSTER_URL_SCHEME}{host}:{port}"
    with _DISPATCHERS_LOCK:
        if port != 0 and key in _DISPATCHERS:
            return _DISPATCHERS[key]
        dispatcher = ClusterDispatcher(host=host, port=port, **kwargs)
        dispatcher.start()
        _DISPATCHERS[dispatcher.url] = dispatcher
        return dispatcher


def shutdown_dispatchers() -> None:
    """Shut down and forget every process-wide dispatcher (test teardown)."""
    with _DISPATCHERS_LOCK:
        dispatchers = list(_DISPATCHERS.values())
        _DISPATCHERS.clear()
    for dispatcher in dispatchers:
        dispatcher.shutdown()


# ----------------------------------------------------------------- executor


@register_executor
class ClusterExecutor(Executor):
    """``ParallelMap`` backend that fans batches over the cluster wire.

    Selected like any registered executor — ``REPRO_EXECUTOR=cluster`` or
    ``executor="cluster"`` — with the dispatcher address taken from
    ``REPRO_CLUSTER_URL`` (or the ``url`` argument).  A missing or
    malformed URL is a configuration error and fails loudly; a URL that
    cannot be bound, or a fleet with no reachable worker, degrades to the
    bit-identical serial path via :class:`ExecutorUnavailableError`.
    """

    name = "cluster"

    def __init__(
        self, url: Optional[str] = None, *, worker_wait: Optional[float] = None
    ) -> None:
        self.url = url
        self.worker_wait = worker_wait

    def supports(self, fn: Callable[[Any], Any], tasks: list[Any]) -> bool:
        """Same pre-flight pickling check as the process pool.

        One representative task is checked (a fan-out's tasks are
        structurally homogeneous); an un-picklable batch routes to the
        serial path instead of failing on the wire.
        """
        try:
            pickle.dumps(fn)
            pickle.dumps(tasks[0])
        except Exception:
            return False
        return True

    def _resolve_url(self) -> str:
        url = self.url or os.environ.get(CLUSTER_URL_ENV, "").strip()
        if not url:
            raise ValueError(
                f"The cluster executor needs a dispatcher URL: set "
                f"{CLUSTER_URL_ENV}=cluster://host:port (the address this run "
                f"binds and workers dial) or pass ClusterExecutor(url=...)."
            )
        return url

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        *,
        order: Sequence[int],
        n_workers: int,
    ) -> list[Any]:
        url = self._resolve_url()
        parse_cluster_url(url, allow_ephemeral=True)  # typos fail loudly early
        try:
            dispatcher = ensure_dispatcher(url)
        except OSError as exc:
            raise ExecutorUnavailableError(
                f"cannot bind cluster dispatcher at {url}: {exc}"
            ) from exc
        payloads = [_seal_task(fn, task) for task in tasks]
        worker_wait = (
            self.worker_wait
            if self.worker_wait is not None
            else _env_seconds(CLUSTER_WAIT_ENV, _DEFAULT_WORKER_WAIT)
        )
        raw = dispatcher.run_batch(payloads, order, worker_wait=worker_wait)
        results: list[Any] = [None] * len(tasks)
        failure: Optional[BaseException] = None
        for idx, (ok, blob) in enumerate(raw):
            try:
                value = _open_payload(blob)
            except Exception as exc:
                # A result that does not even unpickle is wire/worker rot,
                # not a task failure: recompute the batch serially.
                raise ExecutorUnavailableError(
                    f"cluster result for task {idx} is unreadable"
                ) from exc
            if ok:
                results[idx] = value
            elif failure is None:
                if not isinstance(value, BaseException):
                    raise ExecutorUnavailableError(
                        f"cluster error result for task {idx} is not an exception"
                    )
                failure = value
        if failure is not None:
            # The first failing task in task order, exactly like the
            # process pool's futures loop.
            raise failure
        return results
