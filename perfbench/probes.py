"""Layer probes: time calls into each layer's public functions from outside.

The traced pass of a workload installs these wrappers in every process it
controls — the benchmark process, the pool workers it forks, and service
processes started through ``perfbench/launch.py``.  Nothing inside ``src/``
is changed: the wrappers replace public methods on their classes for the
duration of the pass and are removed again by :func:`uninstall`.

Each process sums its own counters and writes them, atomically, to
``<probe dir>/probe-<pid>.json``: after every fanned-out task (pool and
cluster workers may exit without running ``atexit`` hooks), at exit, and on
an explicit :func:`flush`.  :func:`collect` adds the files of all processes.

Counted layers:

* ``fit`` — estimator ``fit`` of the tree models; nested fits (the trees
  inside a boosting or forest fit) are not counted again.
* ``search.<Strategy>`` — the three hyper-parameter searches.
* ``packed`` — packed-ensemble traversals (calls, rows, busy time).
* ``map`` — fanned-out ``ParallelMap.map`` calls of the installing process
  (wall time, tasks, workers) and ``task`` — each task's execution time in
  whichever process ran it.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
import time
from typing import Any, Callable, Optional

PROBE_DIR_ENV = "PERFBENCH_PROBE_DIR"


class _State:
    """Process-wide probe state; reset in a forked child on first use."""

    def __init__(self) -> None:
        self.dir: Optional[str] = None
        self.pid = os.getpid()
        self.installer_pid = os.getpid()
        self.lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.local = threading.local()
        self.patches: list[tuple[Any, str, Any, bool]] = []

    def add(self, **deltas: float) -> None:
        with self.lock:
            if os.getpid() != self.pid:
                # A forked child starts from the parent's sums: drop them.
                self.pid = os.getpid()
                self.counters = {}
            for key, value in deltas.items():
                self.counters[key] = self.counters.get(key, 0.0) + value


_state = _State()


def _depth(kind: str) -> int:
    return getattr(_state.local, kind, 0)


def _outermost(kind: str, record: Callable[[Any, Any, float], None]) -> Callable:
    """Decorator factory: time only the outermost call of ``kind`` per thread."""

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            depth = _depth(kind)
            setattr(_state.local, kind, depth + 1)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(_state.local, kind, depth)
                if depth == 0:
                    record(args, kwargs, time.perf_counter() - t0)

        return wrapper

    return wrap


def _record_fit(args: Any, kwargs: Any, seconds: float) -> None:
    _state.add(**{"fit.count": 1, "fit.busy_s": seconds})


def _record_packed(args: Any, kwargs: Any, seconds: float) -> None:
    X = args[1] if len(args) > 1 else kwargs.get("X")
    rows = len(X) if X is not None else 0
    _state.add(**{"packed.calls": 1, "packed.rows": rows, "packed.busy_s": seconds})


def _search_recorder(strategy: str) -> Callable[[Any, Any, float], None]:
    def record(args: Any, kwargs: Any, seconds: float) -> None:
        _state.add(**{f"search.{strategy}.busy_s": seconds})

    return record


class TimedTask:
    """A fanned-out task function that times itself where it runs."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, task: Any) -> Any:
        t0 = time.perf_counter()
        try:
            return self.fn(task)
        finally:
            _state.add(**{"task.count": 1, "task.busy_s": time.perf_counter() - t0})
            flush()


def _wrap_map(fn: Callable) -> Callable:
    from repro.parallel.backend import effective_cpu_count, resolve_n_jobs

    @functools.wraps(fn)
    def wrapper(self: Any, task_fn: Callable, tasks: Any, **kwargs: Any) -> Any:
        tasks = list(tasks)
        n_jobs = resolve_n_jobs(self.n_jobs)
        fans_out = os.getpid() == _state.installer_pid and n_jobs > 1 and len(tasks) > 1
        if not fans_out:
            return fn(self, task_fn, tasks, **kwargs)
        workers = min(n_jobs, len(tasks), effective_cpu_count())
        t0 = time.perf_counter()
        try:
            return fn(self, TimedTask(task_fn), tasks, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            _state.add(
                **{
                    "map.wall_s": wall,
                    "map.tasks": len(tasks),
                    "map.capacity_s": wall * workers,
                }
            )

    return wrapper


def _patch(owner: Any, name: str, wrapper_factory: Callable[[Callable], Callable]) -> None:
    had_own = name in vars(owner)
    original = getattr(owner, name)
    setattr(owner, name, wrapper_factory(original))
    _state.patches.append((owner, name, original, had_own))


def install(probe_dir: str) -> None:
    """Wrap the public layer functions and write sums under ``probe_dir``."""
    from repro.ml.bayes_search import BayesSearchCV
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.gradient_boosting import GradientBoostingRegressor
    from repro.ml.packed import PackedEnsemble
    from repro.ml.search import GridSearchCV, RandomizedSearchCV
    from repro.ml.tree import DecisionTreeRegressor
    from repro.parallel.backend import ParallelMap

    if _state.patches:
        raise RuntimeError("probes are already installed")
    os.makedirs(probe_dir, exist_ok=True)
    _state.dir = probe_dir
    _state.pid = _state.installer_pid = os.getpid()
    _state.counters = {}
    for cls in (DecisionTreeRegressor, GradientBoostingRegressor, RandomForestRegressor):
        _patch(cls, "fit", _outermost("fit", _record_fit))
    for cls in (GridSearchCV, RandomizedSearchCV, BayesSearchCV):
        _patch(cls, "fit", _outermost(f"search_{cls.__name__}", _search_recorder(cls.__name__)))
    for method in ("apply", "leaf_values", "segment_sums"):
        _patch(PackedEnsemble, method, _outermost("packed", _record_packed))
    _patch(ParallelMap, "map", _wrap_map)


def uninstall() -> None:
    """Flush this process's sums and restore every wrapped function."""
    flush()
    while _state.patches:
        owner, name, original, had_own = _state.patches.pop()
        if had_own:
            setattr(owner, name, original)
        else:
            delattr(owner, name)
    _state.dir = None


def flush() -> None:
    """Write this process's sums to its probe file (atomic replace)."""
    if _state.dir is None:
        return
    with _state.lock:
        if os.getpid() != _state.pid:
            return
        doc = dict(_state.counters)
    path = os.path.join(_state.dir, f"probe-{os.getpid()}.json")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def collect(probe_dir: str) -> dict[str, float]:
    """Sum the probe files of every process that wrote under ``probe_dir``."""
    totals: dict[str, float] = {}
    if not os.path.isdir(probe_dir):
        return totals
    for name in sorted(os.listdir(probe_dir)):
        if not (name.startswith("probe-") and name.endswith(".json")):
            continue
        with open(os.path.join(probe_dir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        for key, value in doc.items():
            totals[key] = totals.get(key, 0.0) + float(value)
    return totals


atexit.register(flush)
