"""``campaign``: a QBC active-learning campaign (Algorithm 2, STQ goal) on Aurora.

The committee fits fan out over the ``cluster`` executor to two local
``cluster-work`` agents.  The run seed derives several campaign seeds (each
a dataset split and an AL seed), and the window cycles through them, so a
run's median does not rest on one labelled set: the committee fits of one
seed's campaign cost up to a fifth more or less CPU than another's.  Each
campaign's final metrics must equal an in-process serial run for the same
seed, and every committee batch must really have run on the cluster.  Each
campaign is timed on the wall clock and in CPU seconds of the benchmark
process (which hosts the dispatcher) and both agents.
"""

from __future__ import annotations

import os
import time
from typing import Any

import numpy as np

from perfbench import probes
from perfbench.common import Context, Digest, Result, dataset_digest, describe, e2e_metrics, probe_metrics
from perfbench.measure import CpuMeter, Outcome, Timings, load_spans, median, overhead_pct, spans_named
from perfbench.procs import start_cluster_workers

N_WORKERS = 2


def _config(ctx: Context, seed: int, n_jobs: int) -> Any:
    from repro.core.active_learning import ActiveLearningConfig

    return ActiveLearningConfig(
        n_queries=ctx.scale.al_queries, random_state=seed, goal="stq", n_jobs=n_jobs
    )


def campaign_seeds(seed: int, n: int) -> list[int]:
    """The ``n`` campaign seeds a run seed stands for."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _campaign(ctx: Context, seed: int, dataset: Any, n_jobs: int, round_starts: list, meter: Any = None) -> dict[str, float]:
    """One campaign; ``round_starts`` receives ``(wall, cpu)`` at the start of every round."""
    from repro.core.active_learning import QueryByCommittee, run_active_learning

    class RoundClock(QueryByCommittee):
        def fit_model(self, X_labeled, y_labeled, rng):
            round_starts.append((time.perf_counter(), meter.read() if meter else 0.0))
            return super().fit_model(X_labeled, y_labeled, rng)

    result = run_active_learning(
        dataset.X_train,
        dataset.y_train,
        RoundClock(),
        _config(ctx, seed, n_jobs),
        X_test=dataset.X_test,
        y_test=dataset.y_test,
    )
    return result.final_metrics()


def gate_campaigns(outcome: Outcome, finals: list[dict], reference: dict) -> None:
    """Every campaign's final metrics equal the serial run's, exactly."""
    for final in finals:
        outcome.check(final == reference, f"campaign {final} != serial {reference}")


def _fleet(ctx: Context, dispatcher: Any, tag: str, **kwargs: Any) -> list:
    """Start two worker agents and wait until both registered."""
    before = set(dispatcher.stats()["workers"])
    workers = start_cluster_workers(ctx.procs, dispatcher.url, N_WORKERS, tag=tag, **kwargs)
    deadline = time.monotonic() + 60.0
    while len(set(dispatcher.stats()["workers"]) - before) < N_WORKERS:
        if time.monotonic() > deadline:
            raise TimeoutError("cluster workers did not register with the dispatcher")
        time.sleep(0.005)
    return workers


def _pass(ctx: Context, datasets: dict, dispatcher: Any, workers: list, outcome: Outcome, finals: dict) -> tuple[Timings, Timings]:
    """Campaigns, cycling through ``datasets`` (seed -> dataset), until the window is used up.

    Returns campaign and final-round timings; ``finals`` receives each
    campaign's final metrics under its seed.

    Rounds grow with the labelled set, so a median over all rounds would
    fall between the per-round modes; the final round (largest labelled
    set) of every campaign is the round sample.  The first campaign only
    warms the agents up and is gated but not timed.
    """
    campaigns, rounds = Timings("campaign", 100.0), Timings("final round", 100.0)
    meter = CpuMeter(w.proc.pid for w in workers)
    seeds = list(datasets)
    t_window = time.perf_counter()
    k = 0
    while not campaigns.seconds or time.perf_counter() - t_window < ctx.seconds:
        batches = dispatcher.stats()["batches_done"]
        starts: list[tuple[float, float]] = []
        seed = seeds[k % len(seeds)]
        c0, t0 = meter.read(), time.perf_counter()
        finals[seed].append(_campaign(ctx, seed, datasets[seed], N_WORKERS, starts, meter))
        c1, t1 = meter.read(), time.perf_counter()
        if k:
            campaigns.add(t1 - t0, c1 - c0)
            rounds.add(t1 - starts[-1][0], c1 - starts[-1][1])
        k += 1
        ran = dispatcher.stats()["batches_done"] - batches
        outcome.check(
            ran == ctx.scale.al_queries,
            f"{ran} committee batches ran on the cluster, expected {ctx.scale.al_queries}",
        )
    campaigns.window_s = rounds.window_s = time.perf_counter() - t_window
    return campaigns, rounds


def _overhead_ms_per_task(spans: list[dict]) -> float:
    """Mean per-task time of a cluster batch not spent executing a task.

    Per batch (a ``parallel.map`` span): its wall time minus the busiest
    worker's summed ``cluster.task`` spans, summed over batches and divided
    by the number of tasks.
    """
    tasks = spans_named(spans, "cluster.task")
    lost = 0.0
    n_tasks = 0
    for batch in spans_named(spans, "parallel.map"):
        lo, hi = batch["t_wall"], batch["t_wall"] + batch["duration_s"]
        busy: dict[str, float] = {}
        inside = [t for t in tasks if lo <= t["t_wall"] <= hi]
        for t in inside:
            worker = t["tags"].get("worker", "?")
            busy[worker] = busy.get(worker, 0.0) + t["duration_s"]
        n_tasks += len(inside)
        lost += batch["duration_s"] - max(busy.values(), default=0.0)
    return lost / n_tasks * 1e3 if n_tasks else 0.0


def run(ctx: Context) -> Result:
    from repro.data.datasets import build_dataset
    from repro.parallel.cluster import dispatcher_status, ensure_dispatcher, shutdown_dispatchers

    result = Result()
    dispatcher = ensure_dispatcher("cluster://127.0.0.1:0")
    saved_env = {k: os.environ.get(k) for k in ("REPRO_EXECUTOR", "REPRO_CLUSTER_URL")}
    os.environ["REPRO_EXECUTOR"] = "cluster"
    os.environ["REPRO_CLUSTER_URL"] = dispatcher.url
    try:
        setups, build_s = [], []
        workers: list = []
        seeds = campaign_seeds(ctx.seed, ctx.scale.campaign_seeds)
        datasets: dict[int, Any] = {}
        for i, seed in enumerate(seeds):
            for w in workers:
                ctx.procs.stop(w)
            t0 = time.perf_counter()
            datasets[seed] = build_dataset("aurora", seed=seed)
            build_s.append(time.perf_counter() - t0)
            workers = _fleet(ctx, dispatcher, f"s{i}-")
            setups.append(time.perf_counter() - t0)

        digest = Digest()
        for dataset in datasets.values():
            dataset_digest(digest, dataset)
        digest.add("al", [ctx.scale.al_queries, seeds, "qc", "stq", N_WORKERS])
        result.inputs = {"inputs_sha1": digest.hexdigest(), "al_queries": ctx.scale.al_queries, "campaign_seeds": seeds}

        finals: dict[int, list[dict]] = {seed: [] for seed in seeds}
        campaigns, rounds = _pass(ctx, datasets, dispatcher, workers, result.outcome, finals)
        result.named = [
            ("campaign.wall_s", median(campaigns.seconds), "s", f"wall p50, {describe(campaigns)}"),
            ("campaign.final_round_s", median(rounds.seconds), "s", f"wall p50, {describe(rounds)}"),
        ]
        if ctx.trace:
            for w in workers:
                ctx.procs.stop(w)
            trace_dir, probe_dir = ctx.path("trace"), ctx.path("probes")
            workers = _fleet(
                ctx, dispatcher, "traced-", trace_dir=trace_dir, probes=True, probe_dir=probe_dir
            )
            from repro.obs.trace import configure_tracing
            from repro.parallel.wire import fetch_telemetry

            redispatched = dispatcher_status(dispatcher.url)["tasks_redispatched"]
            probes.install(str(probe_dir))
            configure_tracing(enabled=True, trace_dir=str(trace_dir))
            try:
                traced, _ = _pass(ctx, datasets, dispatcher, workers, result.outcome, finals)
            finally:
                configure_tracing(enabled=False)
                probes.uninstall()
            status = dispatcher_status(dispatcher.url)
            host, port = dispatcher.url[len("cluster://"):].rsplit(":", 1)
            telemetry = fetch_telemetry(host, int(port))

        # Gate: every campaign equals the in-process serial run of its seed.
        for seed, dataset in datasets.items():
            gate_campaigns(result.outcome, finals[seed], _campaign(ctx, seed, dataset, 1, []))
    finally:
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutdown_dispatchers()

    if not ctx.trace:
        # One kind of operation: aux is the campaign too.  The final round
        # is printed, not guarded: its CPU moves with the labelled set
        # (spread 0.08 over five seeds, a third of the bound).
        result.metrics = e2e_metrics(setups, campaigns, campaigns)
        return result

    sums = probes.collect(str(probe_dir))
    spans = load_spans(str(trace_dir))
    layer = probe_metrics(sums)
    layer.update({
        "cluster.tasks": float(len(spans_named(spans, "cluster.task"))),
        "cluster.redispatched": float(status["tasks_redispatched"] - redispatched),
        "cluster.overhead_ms_per_task": _overhead_ms_per_task(spans),
        "wire.frames": float(telemetry["metrics"]["counters"].get("wire.frames", 0)),
        "obs.tracing_overhead_pct": overhead_pct(median(campaigns.cpu), median(traced.cpu)),
        "data.build_s": median(build_s),
    })
    result.metrics = layer
    return result
