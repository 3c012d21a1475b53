"""What every workload shares: run context, scales, metric assembly, inputs digest."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from perfbench.measure import Outcome, Timings, median
from perfbench.procs import ROOT, ProcessSet


@dataclass(frozen=True)
class Scale:
    """Workload sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    name: str
    setup_repeats: int
    # sweep (sweep_min_warm: fewest timed warm re-runs)
    sweep_models: tuple[str, ...]
    sweep_max_train: int
    sweep_min_warm: int
    # campaign (campaign_seeds: seeds a run cycles through, one set-up each)
    al_queries: int
    campaign_seeds: int
    # serve
    serve_args: tuple[str, ...]
    serve_rows: Optional[int]
    serve_min_requests: int
    serve_warmup: int


FULL = Scale(
    name="full",
    setup_repeats=3,
    sweep_models=("GB", "RF", "DT"),
    sweep_max_train=200,
    sweep_min_warm=60,
    al_queries=2,
    campaign_seeds=5,
    serve_args=("--preset", "paper", "--tree-method", "hist"),
    serve_rows=None,
    serve_min_requests=0,
    serve_warmup=20,
)

TINY = Scale(
    name="tiny",
    setup_repeats=1,
    sweep_models=("DT",),
    sweep_max_train=100,
    sweep_min_warm=2,
    al_queries=1,
    campaign_seeds=1,
    serve_args=("--preset", "paper", "--tree-method", "hist", "--trees", "20", "--depth", "4"),
    serve_rows=400,
    serve_min_requests=8,
    serve_warmup=2,
)


@dataclass
class Context:
    """One workload run: its seed, window, mode and scratch space."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: Scale
    run_dir: Path
    procs: ProcessSet

    def path(self, *parts: str) -> Path:
        p = self.run_dir.joinpath(*parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        return p


@dataclass
class Result:
    """A workload's answer: checked ops, metrics (value, unit), run facts."""

    outcome: Outcome = field(default_factory=Outcome)
    metrics: dict[str, float] = field(default_factory=dict)
    # Issue-level names shown in the human table: name -> (value, unit, note).
    named: list[tuple[str, float, str, str]] = field(default_factory=list)
    inputs: dict[str, Any] = field(default_factory=dict)


def e2e_metrics(setup_s: list[float], op: Timings, aux: Timings) -> dict[str, float]:
    """The end-to-end metrics every workload reports (see README)."""
    return {
        "setup_s": median(setup_s),
        "op.cpu_ms": op.summary()["cpu_p50_ms"],
        "aux.cpu_ms": aux.summary()["cpu_p50_ms"],
    }


def probe_metrics(sums: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics read from the probe sums (see :mod:`perfbench.probes`)."""
    return {
        "ml.fit.count": sums.get("fit.count", 0.0),
        "ml.fit.busy_s": sums.get("fit.busy_s", 0.0),
        "ml.packed.calls": sums.get("packed.calls", 0.0),
        "ml.packed.rows": sums.get("packed.rows", 0.0),
        "ml.packed.busy_s": sums.get("packed.busy_s", 0.0),
        "parallel.map.wall_s": sums.get("map.wall_s", 0.0),
        "parallel.map.tasks": sums.get("map.tasks", 0.0),
        "parallel.map.utilisation": (
            sums.get("task.busy_s", 0.0) / sums["map.capacity_s"] if sums.get("map.capacity_s") else 0.0
        ),
    }


def describe(t: Timings) -> str:
    s = t.summary()
    return f"n={s['n']}, tail={s['tail']} with {s['beyond']} beyond"


class Digest:
    """SHA-1 over the generated inputs of a run (arrays and plain values)."""

    def __init__(self) -> None:
        self._h = hashlib.sha1()

    def add(self, label: str, value: Any) -> None:
        self._h.update(label.encode())
        if isinstance(value, np.ndarray):
            arr = np.ascontiguousarray(value)
            self._h.update(str((arr.dtype.str, arr.shape)).encode())
            self._h.update(arr.tobytes())
        else:
            self._h.update(json.dumps(value, sort_keys=True, default=str).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def dataset_digest(digest: Digest, dataset: Any) -> None:
    digest.add("X_train", dataset.X_train)
    digest.add("y_train", dataset.y_train)
    digest.add("X_test", dataset.X_test)
    digest.add("y_test", dataset.y_test)


def run_facts(seed: int) -> dict[str, Any]:
    """Environment facts recorded with every result."""
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = -1.0
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg_1m": load1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "started_unix": time.time(),
    }


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json`` at the repository root: the metric names and units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)
