"""``sweep``: a cold ``compare-models`` sweep into a fresh ``memo://`` service.

GB, RF and DT on Aurora, all three search strategies on the fast grid with
cv=3 on a training subsample, ``n_jobs=2`` on the ``process`` executor;
every other setting is a library default.  Warm re-runs against the same
store follow with every setting at its library default (serial), so they
are memo gets plus wire only; they fill the rest of the window, and each
must perform zero fits and return the cold results.  Each sweep is timed on
the wall clock and in CPU seconds of the benchmark process, its reaped pool
workers and the memo service.
"""

from __future__ import annotations

import math
import time
from typing import Any

from perfbench import probes
from perfbench.common import (
    Context,
    Digest,
    Result,
    dataset_digest,
    describe,
    e2e_metrics,
    probe_metrics,
)
from perfbench.measure import (
    CpuMeter,
    Outcome,
    Timings,
    hop_ms,
    median,
    overhead_pct,
    ratio,
    spans_named,
    load_spans,
)
from perfbench.procs import start_memo_server

N_JOBS = 2

#: A window holds one cold sweep but hundreds of warm re-runs (p99 leaves
#: at least ten beyond).
WARM_TAIL_PCT = 99.0

#: Warm re-runs that only warm up (caches of the memo service, allocator).
WARM_UNTIMED = 10


def _setup(ctx: Context, tag: str, trace_dir: Any = None) -> tuple[float, Any, Any, str, float]:
    """Start a fresh memo service and build the dataset; returns timings."""
    from repro.data.datasets import build_dataset

    t0 = time.perf_counter()
    child, url = start_memo_server(ctx.procs, ctx.path(f"memo-{tag}"), trace_dir)
    t1 = time.perf_counter()
    dataset = build_dataset("aurora", seed=ctx.seed)
    t2 = time.perf_counter()
    return t2 - t0, child, dataset, url, t2 - t1


def _sweep(ctx: Context, dataset: Any, **kwargs: Any) -> list[dict]:
    from repro.core.hyperopt import run_model_comparison

    results = run_model_comparison(
        dataset,
        models=list(ctx.scale.sweep_models),
        seed=ctx.seed,
        max_train_samples=ctx.scale.sweep_max_train,
        **kwargs,
    )
    return [r.as_dict() for r in results]


def gate_warm(outcome: Outcome, cold: list[dict], warm: list[dict], fits: int) -> None:
    """A warm re-run performs zero fits and returns the cold results exactly."""
    outcome.check(fits == 0, f"warm sweep performed {fits} fits")
    outcome.check(warm == cold, "warm sweep results differ from the cold sweep")


def _pass(ctx: Context, dataset: Any, url: str, memo_pid: int, outcome: Outcome, probe_dir: Any = None) -> dict[str, Any]:
    """One cold sweep, then warm re-runs until the window is used up, all gated.

    With ``probe_dir`` the probe sums are also read right after the cold
    sweep, so the fan-out and fit figures belong to the cold sweep alone.
    """
    from repro.parallel.cache import clear_caches
    from repro.parallel.store import configure_store, fit_count

    store = configure_store(url)
    meter = CpuMeter([memo_pid])
    try:
        t_window = time.perf_counter()
        clear_caches()
        cold_t = Timings("cold", 100.0)
        c0, t0 = meter.read(), time.perf_counter()
        cold = _sweep(ctx, dataset, n_jobs=N_JOBS)
        cold_t.add(time.perf_counter() - t0, meter.read() - c0)
        cold_stats = store.aggregated_stats()
        cold_sums = None
        if probe_dir is not None:
            probes.flush()
            cold_sums = probes.collect(str(probe_dir))
        expected = len(ctx.scale.sweep_models) * 3
        outcome.check(
            len(cold) == expected and all(math.isfinite(r["r2"]) for r in cold),
            f"cold sweep returned {len(cold)} results, expected {expected} finite ones",
        )
        t_warm = time.time()
        warm = Timings("warm", WARM_TAIL_PCT)
        warm_stats = []
        # However long the cold sweep took, the warm re-runs get at least a
        # third of the window; the first few only warm up and are not timed.
        warm_until = max(t_window + ctx.seconds, time.perf_counter() + ctx.seconds / 3)
        passes = 0
        while passes < WARM_UNTIMED + ctx.scale.sweep_min_warm or time.perf_counter() < warm_until:
            clear_caches()  # what a fresh process would start with
            c0, t0 = meter.read(), time.perf_counter()
            # Library defaults (serial): a warm re-run is memo gets plus wire.
            again = _sweep(ctx, dataset)
            if passes >= WARM_UNTIMED:
                warm.add(time.perf_counter() - t0, meter.read() - c0)
            passes += 1
            stats = store.aggregated_stats()
            warm_stats.append(stats)
            gate_warm(outcome, cold, again, stats["fits"] + fit_count())
        warm.window_s = sum(warm.seconds)
        return {
            "cold": cold_t,
            "warm": warm,
            "cold_stats": cold_stats,
            "cold_sums": cold_sums,
            "warm_stats": warm_stats,
            "t_warm_start": t_warm,
        }
    finally:
        configure_store(None)


def run(ctx: Context) -> Result:
    from repro.parallel.wire import fetch_telemetry

    result = Result()
    setups = []
    build_s = []
    for i in range(ctx.scale.setup_repeats):
        if i:
            ctx.procs.stop(child)
        setup_s, child, dataset, url, b = _setup(ctx, f"setup{i}")
        setups.append(setup_s)
        build_s.append(b)

    digest = Digest()
    dataset_digest(digest, dataset)
    digest.add("sweep", [ctx.scale.sweep_models, ctx.scale.sweep_max_train, ctx.seed, N_JOBS])
    result.inputs = {"inputs_sha1": digest.hexdigest(), "max_train": ctx.scale.sweep_max_train}

    untraced = _pass(ctx, dataset, url, child.proc.pid, result.outcome)
    ctx.procs.stop(child)
    cold, warm = untraced["cold"], untraced["warm"]
    result.inputs.update(
        cold_fits=untraced["cold_stats"]["fits"], cold_puts=untraced["cold_stats"]["store"]["puts"]
    )
    result.named = [
        ("sweep.cold_s", cold.seconds[0], "s", "wall, n=1"),
        ("sweep.warm_s", median(warm.seconds), "s", f"wall p50, {describe(warm)}"),
        (f"sweep.warm_{warm.summary()['tail']}_s", warm.summary()["tail_ms"] / 1e3, "s", f"wall, {describe(warm)}"),
    ]
    if not ctx.trace:
        result.metrics = e2e_metrics(setups, cold, warm)
        return result

    # Traced pass: a second fresh service, spans on everywhere, probes in.
    trace_dir = ctx.path("trace")
    probe_dir = ctx.path("probes")
    _, child, _, url, _ = _setup(ctx, "traced", trace_dir)
    from repro.obs.trace import configure_tracing

    probes.install(str(probe_dir))
    configure_tracing(enabled=True, trace_dir=str(trace_dir))
    try:
        traced = _pass(ctx, dataset, url, child.proc.pid, result.outcome, probe_dir)
    finally:
        configure_tracing(enabled=False)
        probes.uninstall()
    host, port = url[len("memo://"):].rsplit(":", 1)
    telemetry = fetch_telemetry(host, int(port))
    ctx.procs.stop(child)

    spans = load_spans(str(trace_dir))
    cold_stats = traced["cold_stats"]
    caches = cold_stats["caches"].values()
    cache_hits = sum(c["hits"] for c in caches)
    cache_lookups = cache_hits + sum(c["misses"] for c in caches)
    warm_gets = [s for s in spans_named(spans, "memo.get") if s["t_wall"] >= traced["t_warm_start"]]
    cold_puts = [s for s in spans_named(spans, "memo.put") if s["t_wall"] < traced["t_warm_start"]]
    warm_store = [w["store"] for w in traced["warm_stats"]]
    warm_hits = sum(w["hits"] for w in warm_store)
    warm_lookups = warm_hits + sum(w["misses"] for w in warm_store)
    sums = traced["cold_sums"]
    layer = probe_metrics(sums)
    layer.update({
        "cache.hit_ratio": ratio(cache_hits, cache_lookups),
        "memo.get.count": float(len(warm_gets)),
        "memo.get.hit_ratio": ratio(warm_hits, warm_lookups),
        "memo.get.p50_ms": median(hop_ms(warm_gets, "memo_wait")),
        "memo.put.count": float(len(cold_puts)),
        "memo.put.p50_ms": median(hop_ms(cold_puts, "memo_wait")),
        "memo.errors": float(cold_stats["store"]["errors"] + sum(w["errors"] for w in warm_store)),
        "wire.frames": float(telemetry["metrics"]["counters"].get("wire.frames", 0)),
        "obs.tracing_overhead_pct": overhead_pct(cold.cpu[0], traced["cold"].cpu[0]),
        "data.build_s": median(build_s),
    })
    for strategy in ("GridSearchCV", "RandomizedSearchCV", "BayesSearchCV"):
        layer[f"ml.search.{strategy}.busy_s"] = sums.get(f"search.{strategy}.busy_s", 0.0)
    result.metrics = layer
    return result
