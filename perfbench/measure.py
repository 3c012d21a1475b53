"""Timing summaries, the result record, and readers for the JSONL span sinks."""

from __future__ import annotations

import json
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def tail(values: Iterable[float], pct: float) -> float:
    """The ``pct`` percentile; ``pct=100`` is the slowest sample."""
    values = list(values)
    return float(np.percentile(values, pct)) if values else 0.0


def process_cpu_s(pid: int) -> float:
    """CPU seconds process ``pid`` has used so far, every thread, exited ones included.

    Reads Linux's per-process CPU clock (the clock id ``clock_getcpuclockid``
    returns).  It advances only while the process runs, so time the host
    gives the virtual CPU to another guest (steal) is not in it.
    """
    return time.clock_gettime(((~pid) << 3) | 2)


class CpuMeter:
    """CPU seconds used by the system under test, summed over its processes.

    That is this process (callers, in-process dispatcher), the children it
    has reaped (process-pool workers) and the live service processes in
    ``pids``.  Only differences of :meth:`read` mean anything, and only
    across intervals in which no service of ``pids`` is reaped.
    """

    def __init__(self, pids: Iterable[int] = ()) -> None:
        self.pids = list(pids)

    def read(self) -> float:
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        own = time.process_time() + kids.ru_utime + kids.ru_stime
        return own + sum(process_cpu_s(pid) for pid in self.pids)


@dataclass
class Timings:
    """Durations (seconds) of one kind of operation: wall as the caller saw it, and CPU.

    ``cpu`` holds, per operation, the CPU seconds every process of the
    system under test spent on it (see :class:`CpuMeter`).
    """

    name: str
    #: Tail percentile reported, fixed per kind of operation so every run
    #: reports the same statistic: the highest percentile that a run's
    #: usual sample count leaves at least ten samples beyond, or 100 (the
    #: slowest sample) for operations a run repeats only a few times.
    tail_pct: float
    seconds: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    window_s: float = 0.0

    def add(self, wall_s: float, cpu_s: float) -> None:
        self.seconds.append(wall_s)
        self.cpu.append(cpu_s)

    def summary(self) -> dict[str, Any]:
        n = len(self.seconds)
        return {
            "n": n,
            "cpu_p50_ms": median(self.cpu) * 1e3,
            "p50_ms": median(self.seconds) * 1e3,
            "tail_ms": tail(self.seconds, self.tail_pct) * 1e3,
            "tail": "max" if self.tail_pct >= 100 else f"p{self.tail_pct:g}",
            "beyond": int(n * (100.0 - self.tail_pct) / 100.0),
            "per_s": n / self.window_s if self.window_s > 0 else 0.0,
        }


@dataclass
class Outcome:
    """What one workload pass produced: ops, failures, extra facts."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; record a failure message if not ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


# ------------------------------------------------------------------ spans


def load_spans(trace_dir: str) -> list[dict[str, Any]]:
    """Every finished span in ``trace_dir``'s ``trace-<pid>.jsonl`` sinks."""
    spans: list[dict[str, Any]] = []
    if not os.path.isdir(trace_dir):
        return spans
    for name in sorted(os.listdir(trace_dir)):
        if not (name.startswith("trace-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    doc = json.loads(line)
                    doc["_file"] = name
                    spans.append(doc)
    return spans


def spans_named(spans: list[dict[str, Any]], name: str, **tags: Any) -> list[dict[str, Any]]:
    return [
        s
        for s in spans
        if s.get("name") == name and all(s.get("tags", {}).get(k) == v for k, v in tags.items())
    ]


def hop_ms(spans: list[dict[str, Any]], hop: str) -> list[float]:
    return [s["hops"][hop] * 1e3 for s in spans if hop in s.get("hops", {})]


def durations_ms(spans: list[dict[str, Any]]) -> list[float]:
    return [s["duration_s"] * 1e3 for s in spans if s.get("duration_s") is not None]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def overhead_pct(untraced: float, traced: float) -> float:
    """Relative cost of tracing on a lower-is-better headline figure, in percent."""
    return (traced - untraced) / untraced * 100.0 if untraced else 0.0
