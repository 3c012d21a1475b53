"""``serve-predict`` and ``serve-mixed``: one closed-loop caller against ``repro-chem serve``.

A fresh server process hosts the deployed GB-750x10 model (fitted at start
with ``--tree-method hist``).  One caller sends the next request only after
the previous answer: on ``serve-predict`` single-row predicts; on
``serve-mixed`` an STQ/BQ ask over the dataset's 22 problem sizes followed
by :data:`PREDICTS_PER_ASK` single-row predicts, over and over.  Every
request is timed on the wall clock and in CPU seconds of the caller and the
server process.  Every served prediction must be byte-identical to
``advisor.estimator.predict`` and every served answer equal to
``advisor.answer`` for the same inputs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

import numpy as np

from perfbench import probes
from perfbench.common import Context, Digest, Result, dataset_digest, describe, e2e_metrics, probe_metrics
from perfbench.measure import (
    CpuMeter,
    Outcome,
    Timings,
    durations_ms,
    hop_ms,
    load_spans,
    median,
    overhead_pct,
    spans_named,
)
from perfbench.procs import banner_url, repro_cli

#: Paper Table 2 (scikit-learn, GB-750x10): fit and test-split predict.
PAPER_TABLE2 = {"ml.fit.deploy_s": 1.2, "ml.packed.test_split_ms": 20.0}

#: serve-mixed: single-row predicts sent after each ask.
PREDICTS_PER_ASK = 8

_SEQUENCE_LEN = 1 << 17

#: Tail percentile per request kind: a 10 s window yields thousands of
#: predicts (p99 leaves >= 10 beyond) but a few hundred asks (p90 does).
TAIL_PCT = {"predict": 99.0, "ask": 90.0}


class Call(NamedTuple):
    """One answered request: what was asked, the answer, and its cost."""

    kind: str  # "predict" or "ask"
    idx: int  # row of the test split, or entry of the problem list
    answer: Any
    wall_s: float  # the caller's wall time around the client call
    cpu_s: float  # CPU of caller and server process over the call
    span_id: Optional[str]


@dataclass
class Drive:
    """The calls one caller made against one server in one window."""

    calls: list[Call] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    fleet: dict = field(default_factory=dict)
    window_s: float = 0.0


class _Server:
    """A started ``repro-chem serve`` child and the URL it announced."""

    def __init__(self, ctx: Context, registry: str, trace_dir: Optional[str] = None) -> None:
        args = [*ctx.scale.serve_args, "--seed", str(ctx.seed), "--port", "0", "--registry", registry, "--private-arenas"]
        if ctx.scale.serve_rows is not None:
            args += ["--rows", str(ctx.scale.serve_rows)]
        if trace_dir is not None:
            args += ["--trace-dir", trace_dir]
        self.child = ctx.procs.start("serve", repro_cli("serve", *args))
        t_ready, line = self.child.wait_for("listening on", 150.0)
        self.setup_s = t_ready - self.child.t_start
        self.url = banner_url(line, "serve://")
        self.model = line.split("model=", 1)[1].split()[0]
        self.pid = self.child.proc.pid

    def telemetry(self) -> dict:
        from repro.parallel.wire import fetch_telemetry

        host, port = self.url[len("serve://"):].rsplit(":", 1)
        return fetch_telemetry(host, int(port))


def _dataset(ctx: Context) -> Any:
    from repro.data.datasets import build_dataset

    return build_dataset("aurora", seed=ctx.seed, n_total=ctx.scale.serve_rows)


def _inputs(ctx: Context, dataset: Any) -> tuple[np.ndarray, list, list[tuple[str, int]]]:
    """Request rows, ask problems and the seeded request plan."""
    from repro.chem.molecules import AURORA_PROBLEM_SIZES

    rows = np.ascontiguousarray(dataset.X_test)
    problems = [(q, m.n_occupied, m.n_virtual) for m in AURORA_PROBLEM_SIZES for q in ("stq", "bq")]
    rng = np.random.default_rng(ctx.seed)
    predicts = [("predict", int(i)) for i in rng.integers(0, len(rows), size=_SEQUENCE_LEN)]
    if ctx.workload == "serve-predict":
        return rows, problems, predicts
    plan: list[tuple[str, int]] = []
    asks = np.concatenate([rng.permutation(len(problems)) for _ in range(64)])
    for k, ask in enumerate(asks):
        plan.append(("ask", int(ask)))
        plan.extend(predicts[k * PREDICTS_PER_ASK:(k + 1) * PREDICTS_PER_ASK])
    return rows, problems, plan


def _drive(server: _Server, plan: list, rows: np.ndarray, problems: list, seconds: float, min_requests: int, traced: bool) -> Drive:
    """Send the plan's requests in order, one at a time, for ``seconds``."""
    from repro.obs import trace as obs_trace
    from repro.serve import ServeClient

    drive = Drive()
    meter = CpuMeter([server.pid])
    client = ServeClient(server.url)
    t_start = time.perf_counter()
    stop_at = t_start + seconds
    try:
        i = 0
        while time.perf_counter() < stop_at or i < min_requests:
            kind, idx = plan[i % len(plan)]
            i += 1
            c0 = meter.read()
            with obs_trace.span(f"perfbench.{kind}" if traced else "perfbench.call") as span:
                t0 = time.perf_counter()
                try:
                    if kind == "predict":
                        answer: Any = client.predict(rows[idx])[0]
                    else:
                        answer = client.ask(*problems[idx])
                except Exception as exc:  # a failed request, not a failed benchmark
                    drive.errors.append(f"{kind}: {exc!r}")
                    continue
                wall = time.perf_counter() - t0
            drive.calls.append(Call(kind, idx, answer, wall, meter.read() - c0, span.span_id))
        drive.window_s = time.perf_counter() - t_start
        drive.fleet = client.fleet_stats()
    finally:
        client.close()
    return drive


def _timings(drives: list[Drive], kind: str) -> Timings:
    t = Timings(kind, TAIL_PCT[kind], window_s=sum(d.window_s for d in drives))
    for drive in drives:
        for call in drive.calls:
            if call.kind == kind:
                t.add(call.wall_s, call.cpu_s)
    return t


def gate_answers(drives: list[Drive], advisor: Any, rows: np.ndarray, problems: list, outcome: Outcome, cache: dict) -> None:
    """Check every served answer against the local model; count each as one op."""
    if "y" not in cache:
        cache["y"] = advisor.estimator.predict(rows)
    y_ref = cache["y"]
    for drive in drives:
        for err in drive.errors:
            outcome.check(False, err)
        for call in drive.calls:
            idx, answer = call.idx, call.answer
            if call.kind == "predict":
                ok = np.float64(answer).tobytes() == y_ref[idx].tobytes()
                outcome.check(ok, f"predict row {idx}: served {answer!r} != local {y_ref[idx]!r}")
            else:
                if idx not in cache:
                    question, o, v = problems[idx]
                    # JSON round trip: what the wire does to the local answer.
                    cache[idx] = json.loads(json.dumps(advisor.answer(question, o, v).as_dict()))
                outcome.check(answer == cache[idx], f"ask {problems[idx]}: served {answer} != local {cache[idx]}")


def _headline(ctx: Context, drives: list[Drive]) -> tuple[Timings, Timings]:
    predicts = _timings(drives, "predict")
    aux = _timings(drives, "ask") if ctx.workload == "serve-mixed" else predicts
    return predicts, aux


def _wall_lines(t: Timings) -> list[tuple[str, float, str, str]]:
    """Printed, unguarded wall-clock figures of one request kind."""
    s = t.summary()
    return [
        (f"{t.name}.rps", s["per_s"], "req/s", describe(t)),
        (f"{t.name}.p50_ms", s["p50_ms"], "ms", f"wall, {describe(t)}"),
        (f"{t.name}.{s['tail']}_ms", s["tail_ms"], "ms", f"wall, {describe(t)}"),
    ]


def run(ctx: Context) -> Result:
    result = Result()
    t0 = time.perf_counter()
    dataset = _dataset(ctx)
    build_s = time.perf_counter() - t0
    rows, problems, plan = _inputs(ctx, dataset)
    digest = Digest()
    dataset_digest(digest, dataset)
    digest.add("plan", plan)
    digest.add("problems", problems)
    result.inputs = {"inputs_sha1": digest.hexdigest()}
    registry = str(ctx.path("registry"))
    cache: dict = {}
    if not ctx.trace:
        return _run_untraced(ctx, result, registry, rows, problems, plan, cache)
    return _run_traced(ctx, result, registry, dataset, build_s, rows, problems, plan, cache)


def _run_untraced(ctx, result, registry, rows, problems, plan, cache) -> Result:
    from repro.serve import ModelRegistry

    server = _Server(ctx, registry)
    t_fit, t_pub = server.child.line_time("fitting model="), server.child.line_time("published model=")
    warmup = _drive(server, plan, rows, problems, 0.0, ctx.scale.serve_warmup, False)
    drive = _drive(server, plan, rows, problems, ctx.seconds, ctx.scale.serve_min_requests, False)
    ctx.procs.stop(server.child)
    advisor = ModelRegistry(registry).load(server.model)
    if advisor is None:
        raise RuntimeError(f"served model {server.model} is not in the registry")
    gate_answers([warmup, drive], advisor, rows, problems, result.outcome, cache)
    predicts, aux = _headline(ctx, [drive])
    result.metrics = e2e_metrics([server.setup_s], predicts, aux)
    result.named = _wall_lines(predicts)
    if ctx.workload == "serve-mixed":
        result.named += _wall_lines(aux)
    result.named.append(
        ("serve.start_fit_s", (t_pub or 0.0) - (t_fit or 0.0), "s", "server banners: dataset build + fit + publish")
    )
    return result


def _deploy_fit(dataset: Any) -> Any:
    """The deployed model, fitted in process exactly as ``repro-chem serve`` fits it."""
    from repro.core.advisor import ResourceAdvisor
    from repro.core.estimator import PAPER_GB_PARAMS, ResourceEstimator
    from repro.ml.gradient_boosting import GradientBoostingRegressor

    model = GradientBoostingRegressor(random_state=0, tree_method="hist", **PAPER_GB_PARAMS)
    return ResourceAdvisor.from_dataset(dataset, estimator=ResourceEstimator(model=model), preset="paper")


def _run_traced(ctx, result, registry, dataset, build_s, rows, problems, plan, cache) -> Result:
    from repro.obs.trace import configure_tracing
    from repro.serve import ModelRegistry

    probe_dir, trace_dir = ctx.path("probes"), ctx.path("trace")
    probes.install(str(probe_dir))
    try:
        t0 = time.perf_counter()
        advisor = _deploy_fit(dataset) if ctx.scale.serve_rows is None else None
        deploy_s = time.perf_counter() - t0
        if advisor is not None:
            split = []
            advisor.estimator.predict(dataset.X_test)  # builds the traversal tables
            for _ in range(5):
                t0 = time.perf_counter()
                advisor.estimator.predict(dataset.X_test)
                split.append(time.perf_counter() - t0)
    finally:
        probes.uninstall()
    if advisor is not None:
        name = f"aurora-paper-seed{ctx.seed}-hist"
        ModelRegistry(registry).publish(advisor, name=name)
    plain = _Server(ctx, registry)
    traced = _Server(ctx, registry, str(trace_dir))
    if advisor is None:  # the self-test scale: the server fitted it
        advisor = ModelRegistry(registry).load(plain.model)
        deploy_s, split = 0.0, [0.0]
    warmup = [_drive(server, plan, rows, problems, 0.0, ctx.scale.serve_warmup, False) for server in (plain, traced)]

    # Interleave untraced (A) and traced (B) slices, ABBA, so drift hits both.
    slices: dict[str, list[Drive]] = {"A": [], "B": []}
    for label in "ABBA":
        server = plain if label == "A" else traced
        if label == "B":
            configure_tracing(enabled=True, trace_dir=str(trace_dir))
        try:
            drive = _drive(server, plan, rows, problems, ctx.seconds / 4, ctx.scale.serve_min_requests, label == "B")
        finally:
            configure_tracing(enabled=False)
        slices[label].append(drive)
    telemetry = traced.telemetry()
    ctx.procs.stop(plain.child)
    ctx.procs.stop(traced.child)
    gate_answers(warmup + slices["A"] + slices["B"], advisor, rows, problems, result.outcome, cache)

    untraced_p, _ = _headline(ctx, slices["A"])
    traced_p, _ = _headline(ctx, slices["B"])
    spans = load_spans(str(trace_dir))
    frames = spans_named(spans, "serve.frame", op="predict")
    ask_frames = spans_named(spans, "serve.frame", op="ask")
    calls = {s["parent_id"]: s["span_id"] for s in spans_named(spans, "serve.call")}
    frame_by_call = {s["parent_id"]: s["duration_s"] for s in frames}
    wire_ms = []
    for drive in slices["B"]:
        for call in drive.calls:
            frame_s = frame_by_call.get(calls.get(call.span_id))
            if call.kind == "predict" and frame_s is not None:
                wire_ms.append((call.wall_s - frame_s) * 1e3)
    counters = telemetry["metrics"]["counters"]

    def counter(prefix: str) -> float:
        return float(sum(v for k, v in counters.items() if k == prefix or k.startswith(prefix + "{")))

    layer = probe_metrics(probes.collect(str(probe_dir)))
    layer.update({
        "ml.fit.deploy_s": deploy_s,
        "ml.packed.test_split_ms": median(split) * 1e3,
        "data.build_s": build_s,
        "serve.frame_ms": median(durations_ms(frames)),
        "serve.ask_frame_ms": median(durations_ms(ask_frames)),
        "serve.traverse_ms": median(hop_ms(frames, "traverse")),
        "serve.queue_wait_ms": median(hop_ms(frames, "queue_wait")),
        "serve.client_wire_ms": median(wire_ms),
        "serve.requests_per_batch": counter("batch.requests") / max(1.0, counter("batch.batches")),
        "serve.requests_shed": counter("serve.requests_shed"),
        "wire.frames": counter("wire.frames"),
        "client.retries": float(sum(d.fleet.get("retry_rounds", 0) for d in slices["B"])),
        "client.failovers": float(sum(d.fleet.get("failovers", 0) for d in slices["B"])),
        "obs.tracing_overhead_pct": overhead_pct(untraced_p.summary()["cpu_p50_ms"], traced_p.summary()["cpu_p50_ms"]),
    })
    result.metrics = layer
    result.named = [
        (name, layer[name], unit, f"paper Table 2 (scikit-learn): {PAPER_TABLE2[name]:g} {unit}")
        for name, unit in (("ml.fit.deploy_s", "s"), ("ml.packed.test_split_ms", "ms"))
    ]
    return result
