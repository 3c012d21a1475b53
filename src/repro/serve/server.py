"""Online inference server: fitted models answering queries over a socket.

:class:`ServeServer` keeps fitted models hot in one process and answers
prediction/advisor queries over the shared frame protocol of
:mod:`repro.parallel.wire` (the PR 3 wire substrate).  Request bodies and
responses are JSON — the server never unpickles client bytes and the client
never unpickles server bytes, so neither side can execute the other's code;
floats survive the JSON round trip exactly (``repr`` round-trips float64),
which is what lets the served path meet the byte-parity bar.

Endpoints (1-byte opcode + JSON body):

``predict``
    ``{"model": name, "X": [[...], ...]}`` -> ``{"y": [...]}``.  Requests
    ride the per-model :class:`~repro.serve.batcher.MicroBatcher` (unless
    the server was built single-flight): concurrent queries coalesce into
    one packed traversal, and every answer is byte-identical to predicting
    that request alone on the local model.
``ask``
    ``{"model": name, "question": "stq"|"bq", "n_occupied": O,
    "n_virtual": V}`` -> the :class:`~repro.core.questions.QuestionAnswer`
    dict, via the hosted :class:`~repro.core.advisor.ResourceAdvisor`.
``health`` / ``stats``
    Liveness probe, and the server's counters (requests per endpoint,
    batcher coalescing stats, registry counters, uptime).

Fleet semantics (PR 8):

* **Multi-model routing** — when the server holds a registry, a request's
  ``model`` alias that is not already resident is resolved and warm-loaded
  on first use; residents are LRU-capped at ``max_models`` (evicted models
  reload on their next request, digest re-verified by the registry).
* **Shared packed arenas** — registry-loaded models swap their packed
  arena for one host-wide ``multiprocessing.shared_memory`` segment keyed
  by the artifact digest (:mod:`repro.serve.arena`), so N serve workers on
  a host map a single model copy.  Sharing is verified bytewise and falls
  back to private arrays on any failure — parity never depends on it.
* **Admission control** — ``max_inflight`` bounds concurrently processing
  predict/ask requests.  Past the bound, requests are *shed* with a
  distinct, retryable ``overloaded: ...`` error instead of queueing behind
  the micro-batcher unboundedly — the request-layer mirror of the wire
  layer's connection cap, whose shed connections now also receive an
  ``overloaded`` frame instead of a bare EOF.

Failure contract (server side): a malformed request — undecodable JSON,
unknown opcode or model, wrong feature count, non-finite values, empty
``X`` — is answered with an error frame carrying a message; the connection
stays up and the server keeps serving.  Nothing a client sends can crash
the process.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Mapping, Optional

import numpy as np

from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.parallel.wire import (
    DEFAULT_MAX_CONNECTIONS,
    DEFAULT_TIMEOUT,
    FrameService,
    ProtocolError,
)
from repro.serve.arena import SharedArena, attach_shared_arena
from repro.serve.batcher import MicroBatcher
from repro.serve.registry import ModelRegistry, warm_model

__all__ = ["ServeServer", "SERVE_URL_SCHEME", "SERVE_PROTOCOL_VERSION"]

#: URL scheme of the serve service (``serve://host:port``).
SERVE_URL_SCHEME = "serve://"

SERVE_PROTOCOL_VERSION = 1

# Request opcodes.
OP_PREDICT = b"p"
OP_ASK = b"q"
OP_HEALTH = b"h"
OP_STATS = b"s"
OP_PING = b"?"

# Response statuses.
ST_OK = b"+"
ST_ERR = b"!"

PING_BANNER = f"repro-serve/{SERVE_PROTOCOL_VERSION}".encode("ascii")

_OP_NAMES = {
    OP_PREDICT: "predict",
    OP_ASK: "ask",
    OP_HEALTH: "health",
    OP_STATS: "stats",
    OP_PING: "ping",
}


class _RequestError(Exception):
    """A malformed or unanswerable request; becomes an error frame."""


class _HostedModel:
    """One served model: resolved predict path, advisor, optional batcher."""

    def __init__(
        self,
        name: str,
        model: Any,
        *,
        batcher: bool,
        max_batch_rows: int,
        digest: Optional[str] = None,
        arena: Optional[SharedArena] = None,
        source: str = "static",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.name = name
        self.model = model
        self.digest = digest
        self.arena = arena
        self.source = source
        # A ResourceAdvisor hosts its estimator; a bare estimator hosts
        # itself.  ``predict`` always resolves to the *local* single-call
        # entry point — the exact function a user would call directly,
        # which is what the parity bar is measured against.
        estimator = getattr(model, "estimator", None) if not hasattr(model, "predict") else model
        if estimator is None or not callable(getattr(estimator, "predict", None)):
            raise TypeError(
                f"Model {name!r} has neither .predict nor .estimator.predict."
            )
        self.estimator = estimator
        self.predict = estimator.predict
        self.advisor = model if callable(getattr(model, "answer", None)) else None
        n_features = getattr(estimator, "n_features_in_", None)
        if n_features is None:
            raise TypeError(
                f"Model {name!r} is not fitted (no n_features_in_); "
                "serve only hosts fitted models."
            )
        self.n_features = int(n_features)
        self.batcher: Optional[MicroBatcher] = (
            MicroBatcher(
                self.predict,
                n_features=self.n_features,
                max_batch_rows=max_batch_rows,
                metrics=metrics,
                model=name,
            )
            if batcher
            else None
        )

    def close(self) -> None:
        if self.batcher is not None:
            self.batcher.close()
        if self.arena is not None:
            self.arena.close()


class ServeServer(FrameService):
    """Serve fitted models to :class:`~repro.serve.client.ServeClient` users.

    Parameters
    ----------
    models:
        A single fitted model, or a mapping ``name -> model``.  A lone model
        is hosted as ``"default"``.  Each model must expose ``predict``
        (directly or via ``.estimator``); models exposing ``answer`` (the
        :class:`ResourceAdvisor` surface) additionally serve ``ask``.  With
        a ``registry``, ``models`` may be empty (``{}``): every model is
        then routed lazily by alias.
    micro_batch:
        When true (default), predict requests coalesce through a per-model
        :class:`MicroBatcher`; when false every request runs its own model
        call (the single-flight baseline the benchmark compares against).
    registry:
        Optional :class:`ModelRegistry`.  Besides contributing counters to
        ``stats``, it turns the server multi-model: a request alias not in
        ``models`` is resolved and warm-loaded on first use, LRU-capped at
        ``max_models``.
    max_models:
        Cap on *registry-routed* resident models (statically passed models
        are pinned and never evicted).  ``None`` means unlimited.  Evicted
        models simply reload on their next request, digest re-verified.
    max_inflight:
        Bound on concurrently processing predict/ask requests.  Past it,
        requests fail fast with a retryable ``overloaded: ...`` error
        instead of queueing unboundedly.  ``None`` means unbounded.
    max_pending:
        Bound on a model batcher's *pending depth* — rows submitted but
        not yet answered, the real queue-pressure signal.  A predict
        arriving while its model's backlog is at the cap is shed with the
        same retryable ``overloaded: ...`` flavour.  Complements
        ``max_inflight``: in-flight counts requests being processed,
        pending counts work queued behind the batcher.  ``None`` (default)
        means unbounded; only meaningful with ``micro_batch``.
    shared_arenas:
        Share packed arenas host-wide through ``multiprocessing.shared_memory``
        keyed by artifact digest.  ``None`` (default) enables sharing
        exactly when a registry is present; sharing failures silently fall
        back to private arrays.
    model_digests:
        Registry digests for *statically* passed models (``name ->
        digest``), letting their arenas join the host-shared segments too.
        The CLI passes the digest it warm-loaded or published.
    timeout / max_connections:
        Wire-scaffolding robustness knobs (see
        :class:`~repro.parallel.wire.FrameService`): silent or half-framed
        clients are disconnected after ``timeout`` seconds — reclaiming
        their handler threads — and connections past ``max_connections``
        are shed instead of queueing threads unboundedly (shed connections
        receive an ``overloaded`` frame before the close).
    """

    scheme = SERVE_URL_SCHEME

    def __init__(
        self,
        models: "Any | Mapping[str, Any]",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        micro_batch: bool = True,
        max_batch_rows: int = 1024,
        registry: Optional[ModelRegistry] = None,
        warm: bool = True,
        max_models: Optional[int] = None,
        max_inflight: Optional[int] = None,
        max_pending: Optional[int] = None,
        shared_arenas: Optional[bool] = None,
        model_digests: Optional[Mapping[str, str]] = None,
        slow_ms: Optional[float] = None,
        timeout: Optional[float] = DEFAULT_TIMEOUT,
        max_connections: Optional[int] = DEFAULT_MAX_CONNECTIONS,
    ) -> None:
        if not isinstance(models, Mapping):
            models = {"default": models}
        if not models and registry is None:
            raise ValueError(
                "ServeServer needs at least one model (or a registry to "
                "route aliases through)."
            )
        # The metrics registry must exist before models are hosted: each
        # model's micro-batcher registers its instruments on it (labelled
        # by model name) so one telemetry snapshot covers the whole server.
        self.metrics = MetricsRegistry()
        self.micro_batch = bool(micro_batch)
        self.registry = registry
        self.max_models = int(max_models) if max_models and max_models > 0 else None
        self.max_inflight = (
            int(max_inflight) if max_inflight and max_inflight > 0 else None
        )
        self.max_pending = (
            int(max_pending) if max_pending and max_pending > 0 else None
        )
        self.shared_arenas = (
            bool(registry) if shared_arenas is None else bool(shared_arenas)
        )
        self._max_batch_rows = int(max_batch_rows)
        self.models: dict[str, _HostedModel] = {}
        # Registry-routed residents, least recently used first.  Guarded by
        # _models_lock; _load_lock serializes the loads themselves so one
        # alias is never loaded twice concurrently.
        self._dynamic: "OrderedDict[str, _HostedModel]" = OrderedDict()
        self._models_lock = threading.Lock()
        self._load_lock = threading.Lock()
        self._c_models_loaded = self.metrics.counter("serve.models_loaded")
        self._c_models_evicted = self.metrics.counter("serve.models_evicted")
        # Several names may alias one model object (the CLI serves the
        # registry alias and "default" as the same model); they share one
        # hosted entry so coalescing is not split across names.
        digests = dict(model_digests or {})
        hosted_by_id: dict[int, _HostedModel] = {}
        for name, model in models.items():
            hosted = hosted_by_id.get(id(model))
            if hosted is None:
                digest = digests.get(name)
                arena = (
                    attach_shared_arena(model, digest)
                    if self.shared_arenas and digest
                    else None
                )
                if warm:
                    # After the arena swap, so traversal tables build on
                    # the shared views.
                    warm_model(model)
                hosted = _HostedModel(
                    name,
                    model,
                    batcher=self.micro_batch,
                    max_batch_rows=max_batch_rows,
                    digest=digest,
                    arena=arena,
                    source="static",
                    metrics=self.metrics,
                )
                hosted_by_id[id(model)] = hosted
            self.models[name] = hosted
        # Request counters on the typed registry; legacy stats() keys are
        # views over these instruments.
        self._op_counters = {
            name: self.metrics.counter("serve.requests", op=name)
            for name in _OP_NAMES.values()
        }
        self._counter_lock = threading.Lock()
        self._c_errors = self.metrics.counter("serve.errors")
        self._c_requests_shed = self.metrics.counter("serve.requests_shed")
        self._g_inflight = self.metrics.gauge("serve.inflight")
        self._inflight = 0
        # --slow-ms: requests whose frame span exceeds the threshold log
        # one structured line — rate-limited so a pathological workload
        # cannot turn the log into the bottleneck.
        self.slow_ms = float(slow_ms) if slow_ms and slow_ms > 0 else None
        self._slow_lock = threading.Lock()
        self._slow_last = 0.0
        self._slow_min_interval_s = 1.0
        self._c_slow_logged = self.metrics.counter("serve.slow_logged")
        self._c_slow_suppressed = self.metrics.counter("serve.slow_suppressed")
        self._started_at = time.monotonic()
        try:
            super().__init__(
                host=host, port=port, timeout=timeout, max_connections=max_connections
            )
        except Exception:
            # A failed bind (port in use, bad interface) must not leak the
            # already-started batcher worker threads.
            for hosted in self._all_hosted():
                hosted.close()
            raise

    def shutdown(self) -> None:
        super().shutdown()
        for hosted in self._all_hosted():
            hosted.close()

    def _all_hosted(self) -> list[_HostedModel]:
        """Every distinct hosted entry — static (deduped) and dynamic."""
        out: dict[int, _HostedModel] = {}
        for hosted in self.models.values():
            out[id(hosted)] = hosted
        with self._models_lock:
            dynamic = list(self._dynamic.values())
        for hosted in dynamic:
            out[id(hosted)] = hosted
        return list(out.values())

    def model_names(self) -> list[str]:
        """Names currently resident (static + registry-routed), sorted."""
        with self._models_lock:
            dynamic = list(self._dynamic)
        return sorted(set(self.models) | set(dynamic))

    # -------------------------------------------------------------- dispatch

    def _handle_frame(self, request: bytes) -> bytes:
        try:
            status, body = self._dispatch(request)
            return status + body
        except (_RequestError, ProtocolError) as exc:
            self._c_errors.inc()
            return ST_ERR + str(exc).encode("utf-8", "replace")
        except Exception:
            self._c_errors.inc()
            return self._internal_error_frame()

    def _force_frame_spans(self) -> bool:
        # --slow-ms needs per-frame spans to measure against even when
        # tracing is globally off (spans then stay in the ring; nothing
        # hits a sink and no context rides the wire).
        return self.slow_ms is not None

    def _on_frame_span(self, frame_span: Any) -> None:
        """Slow-request log: one structured line per offending request.

        Rate-limited to one line per ``_slow_min_interval_s`` so a
        pathological workload cannot turn stderr into the bottleneck;
        suppressed lines are still counted (``serve.slow_suppressed``).
        """
        if self.slow_ms is None or frame_span.duration_s is None:
            return
        duration_ms = frame_span.duration_s * 1000.0
        if duration_ms < self.slow_ms:
            return
        now = time.monotonic()
        with self._slow_lock:
            if now - self._slow_last < self._slow_min_interval_s:
                self._c_slow_suppressed.inc()
                return
            self._slow_last = now
        self._c_slow_logged.inc()
        line = json.dumps(
            {
                "event": "slow_request",
                "threshold_ms": self.slow_ms,
                "duration_ms": round(duration_ms, 3),
                "trace_id": frame_span.trace_id,
                "span_id": frame_span.span_id,
                "op": frame_span.tags.get("op"),
                "hops_ms": {
                    key: round(seconds * 1000.0, 3)
                    for key, seconds in sorted(frame_span.hops.items())
                },
            },
            sort_keys=True,
        )
        print(line, file=sys.stderr, flush=True)

    def _shed_frame(self) -> bytes:
        # Wire-level sheds (connection cap) now speak the same retryable
        # refusal the request-level budget does, instead of a bare EOF.
        return ST_ERR + b"overloaded: connection limit reached (retryable)"

    def _op_label(self, payload: bytes) -> str:
        return _OP_NAMES.get(payload[:1]) or repr(payload[:1])

    def _dispatch(self, request: bytes) -> tuple[bytes, bytes]:
        op = request[:1]
        name = _OP_NAMES.get(op)
        if name is None:
            raise _RequestError(f"unknown opcode {op!r}")
        self._op_counters[name].inc()
        if op == OP_PING:
            return ST_OK, PING_BANNER
        if op == OP_HEALTH:
            return ST_OK, self._json(self._health())
        if op == OP_STATS:
            return ST_OK, self._json(self.stats())
        fields = self._parse_body(request[1:])
        # Admission control: model-work endpoints only — health/stats/ping
        # must stay answerable from an overloaded server.
        if not self._admit():
            raise _RequestError(
                "overloaded: server at max in-flight requests (retryable; "
                "try another replica)"
            )
        try:
            if op == OP_PREDICT:
                return ST_OK, self._json(self._predict(fields))
            return ST_OK, self._json(self._ask(fields))
        finally:
            with self._counter_lock:
                self._inflight -= 1
                self._g_inflight.set(self._inflight)

    def _admit(self) -> bool:
        with self._counter_lock:
            if self.max_inflight is not None and self._inflight >= self.max_inflight:
                self._c_requests_shed.inc()
                return False
            self._inflight += 1
            self._g_inflight.set(self._inflight)
            return True

    @staticmethod
    def _json(obj: Any) -> bytes:
        return json.dumps(obj).encode("utf-8")

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        try:
            fields = json.loads(body)
        except ValueError:
            raise _RequestError("request body is not valid JSON")
        if not isinstance(fields, dict):
            raise _RequestError("request body must be a JSON object")
        return fields

    def _hosted(self, fields: dict) -> tuple[str, _HostedModel]:
        """Resolve the requested model; returns the *requested* name too
        (aliases share one hosted entry, but responses must echo the name
        the client asked for).

        Static models are pinned; anything else routes through the
        registry — resident aliases are LRU-touched, absent ones are
        loaded on the spot (and may evict the coldest resident).
        """
        name = fields.get("model", "default")
        if not isinstance(name, str):
            raise _RequestError("model must be a string alias")
        hosted = self.models.get(name)
        if hosted is not None:
            return name, hosted
        with self._models_lock:
            hosted = self._dynamic.get(name)
            if hosted is not None:
                self._dynamic.move_to_end(name)
                return name, hosted
        if self.registry is None:
            raise _RequestError(
                f"unknown model {name!r} (serving: {self.model_names()})"
            )
        return name, self._load_dynamic(name)

    def _load_dynamic(self, name: str) -> _HostedModel:
        """Warm-load ``name`` from the registry into the LRU residents."""
        with self._load_lock:
            # Double-check after winning the load lock: a concurrent
            # request may have loaded this alias while we waited.
            with self._models_lock:
                hosted = self._dynamic.get(name)
                if hosted is not None:
                    self._dynamic.move_to_end(name)
                    return hosted
            t_load = time.perf_counter()
            with obs_trace.span("serve.registry_load", tags={"model": name}):
                loaded = self.registry.load_with_digest(name, warm=False)
                if loaded is None:
                    raise _RequestError(
                        f"unknown model {name!r} (serving: {self.model_names()}; "
                        f"registry aliases: {sorted(self.registry.aliases())})"
                    )
                digest, model = loaded
                arena = (
                    attach_shared_arena(model, digest) if self.shared_arenas else None
                )
                warm_model(model)
            # Attribute the load to the *request's* hop breakdown (the
            # frame span is current again outside the child span).
            obs_trace.annotate("registry_load", time.perf_counter() - t_load)
            try:
                hosted = _HostedModel(
                    name,
                    model,
                    batcher=self.micro_batch,
                    max_batch_rows=self._max_batch_rows,
                    digest=digest,
                    arena=arena,
                    source="registry",
                    metrics=self.metrics,
                )
            except TypeError as exc:
                if arena is not None:
                    arena.close()
                raise _RequestError(f"model {name!r} is not servable: {exc}")
            evicted: list[_HostedModel] = []
            with self._models_lock:
                self._dynamic[name] = hosted
                self._dynamic.move_to_end(name)
                while (
                    self.max_models is not None
                    and len(self._dynamic) > self.max_models
                ):
                    _, cold = self._dynamic.popitem(last=False)
                    evicted.append(cold)
                self._c_models_loaded.inc()
                self._c_models_evicted.inc(len(evicted))
        # Close evicted models outside every lock: batcher close drains the
        # queue (riders already accepted still get answers) and may block.
        for cold in evicted:
            cold.close()
        return hosted

    # ------------------------------------------------------------- endpoints

    def _predict(self, fields: dict) -> dict:
        name, hosted = self._hosted(fields)
        if (
            self.max_pending is not None
            and hosted.batcher is not None
            and hosted.batcher.pending_depth() >= self.max_pending
        ):
            # Queue pressure, not processing pressure: the batcher already
            # has max_pending rows waiting, so shed with the same
            # retryable flavour the in-flight budget uses.
            self._c_requests_shed.inc()
            raise _RequestError(
                f"overloaded: model {name!r} has {self.max_pending} rows "
                f"pending (retryable; try another replica)"
            )
        rows = fields.get("X")
        if not isinstance(rows, list):
            raise _RequestError("predict needs X: a list of feature rows")
        try:
            X = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError):
            raise _RequestError("X must be numeric feature rows")
        if X.ndim == 1 and X.size == 0:
            raise _RequestError("Empty input array.")
        if X.ndim != 2:
            raise _RequestError(f"X must be 2-D (n_rows, n_features), got shape {X.shape}")
        try:
            if hosted.batcher is not None:
                y = hosted.batcher.submit(X)
            else:
                self._validate(X, hosted.n_features)
                t_predict = time.perf_counter()
                y = hosted.predict(X)
                obs_trace.annotate("traverse", time.perf_counter() - t_predict)
        except ValueError as exc:
            raise _RequestError(str(exc))
        except RuntimeError:
            # The model was LRU-evicted between routing and submit; its
            # batcher is closed.  The next attempt reloads it.
            raise _RequestError(
                f"model {name!r} was evicted mid-request (retryable)"
            )
        return {"model": name, "n_rows": int(X.shape[0]), "y": y.tolist()}

    @staticmethod
    def _validate(X: np.ndarray, n_features: int) -> None:
        # Mirrors MicroBatcher.submit's gate so single-flight mode rejects
        # exactly what batched mode rejects (and with the check_array
        # wording the local path uses).
        if X.shape[1] != n_features:
            raise ValueError(f"Expected shape (n, {n_features}), got {X.shape}.")
        if X.shape[0] == 0:
            raise ValueError("Empty input array.")
        if not np.all(np.isfinite(X)):
            raise ValueError("Input contains NaN or infinity.")

    def _ask(self, fields: dict) -> dict:
        name, hosted = self._hosted(fields)
        if hosted.advisor is None:
            raise _RequestError(f"model {name!r} does not host an advisor")
        question = fields.get("question")
        if question not in ("stq", "bq"):
            raise _RequestError(f"question must be 'stq' or 'bq', got {question!r}")
        try:
            n_occupied = int(fields["n_occupied"])
            n_virtual = int(fields["n_virtual"])
        except (KeyError, TypeError, ValueError):
            raise _RequestError("ask needs integer n_occupied and n_virtual")
        try:
            answer = hosted.advisor.answer(question, n_occupied, n_virtual)
        except ValueError as exc:
            raise _RequestError(str(exc))
        return {"model": name, "answer": answer.as_dict()}

    def _health(self) -> dict:
        return {
            "status": "ok",
            "protocol": SERVE_PROTOCOL_VERSION,
            "models": self.model_names(),
            "micro_batch": self.micro_batch,
            "routed": self.registry is not None,
            "uptime_s": time.monotonic() - self._started_at,
            "pid": os.getpid(),
        }

    def stats(self) -> dict:
        """Server counters; also what the ``stats`` endpoint returns.

        Since PR 10 this dict is a *view* over the typed metrics registry
        (the same instruments the telemetry opcode snapshots) — shape and
        meaning unchanged.
        """
        with self._models_lock:
            resident = list(self._dynamic.items())
        loaded = self._c_models_loaded.value
        evicted = self._c_models_evicted.value
        models = {}
        arenas = {"shared": self.shared_arenas, "segments": 0, "nbytes": 0}
        counted: set[int] = set()
        for name, hosted in list(self.models.items()) + resident:
            models[name] = {
                "n_features": hosted.n_features,
                "advisor": hosted.advisor is not None,
                "source": hosted.source,
                "digest": hosted.digest,
                "arena": hosted.arena.stats() if hosted.arena else None,
                "batcher": hosted.batcher.stats() if hosted.batcher else None,
            }
            # Aliases share hosted entries; count each segment once.
            if hosted.arena is not None and id(hosted) not in counted:
                counted.add(id(hosted))
                arenas["segments"] += 1
                arenas["nbytes"] += hosted.arena.nbytes
        with self._counter_lock:
            inflight = self._inflight
        shed = self._c_requests_shed.value
        return {
            "uptime_s": time.monotonic() - self._started_at,
            "micro_batch": self.micro_batch,
            "requests": {
                name: counter.value for name, counter in self._op_counters.items()
            },
            "errors": self._c_errors.value,
            "connections": {
                "open": self.open_connections,
                "shed": self.connections_shed,
            },
            "admission": {
                "max_inflight": self.max_inflight,
                "max_pending": self.max_pending,
                "inflight": inflight,
                "requests_shed": shed,
            },
            "routing": {
                "max_models": self.max_models,
                "static": sorted(self.models),
                "resident": [name for name, _ in resident],
                "models_loaded": loaded,
                "models_evicted": evicted,
            },
            "arenas": arenas,
            "models": models,
            "registry": self.registry.stats() if self.registry else None,
        }
