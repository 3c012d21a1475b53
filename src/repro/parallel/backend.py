"""``ParallelMap``: pluggable-executor fan-out with a serial guarantee.

Every fit-heavy layer of the repo (hyper-parameter searches, cross
validation, forests, active-learning committees, the model x strategy sweep
of :func:`repro.core.hyperopt.run_model_comparison`) funnels its
embarrassingly parallel work through :class:`ParallelMap`.  The contract:

* **Seed-stable task ordering** — results are always returned in the order
  of the input tasks, regardless of worker completion order, so parallel
  and serial execution are interchangeable.
* **Determinism** — tasks must carry their own random state (a seed or a
  cloned generator).  Callers pre-draw any seeds *sequentially* before
  fanning out, which makes ``n_jobs=1`` and ``n_jobs=N`` bit-identical.
* **Serial fallback** — ``n_jobs=1`` (the default), nested parallel
  regions, un-picklable tasks and broken executors all degrade gracefully
  to the plain serial loop; worker exceptions propagate to the caller.
* **Pluggable executors** — the actual fan-out is delegated to a named
  executor from :mod:`repro.parallel.executors` (``serial``, ``process``,
  or the distributed ``cluster`` of :mod:`repro.parallel.cluster`),
  selected per call site
  (``executor=``) or globally (``REPRO_EXECUTOR``) without touching
  callers.

``n_jobs`` follows the scikit-learn convention: ``None``/``1`` is serial,
positive integers give the worker count, and negative values count back
from the number of CPUs (``-1`` means "all cores").
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.obs import trace as obs_trace
from repro.parallel.executors import (
    Executor,
    ExecutorUnavailableError,
    resolve_executor,
)

__all__ = [
    "ParallelMap",
    "parallel_map",
    "resolve_n_jobs",
    "effective_cpu_count",
    "mark_worker_process",
]

# Set in worker processes so that nested parallel regions (e.g. a forest fit
# inside a parallel search candidate) run serially instead of forking again.
_IN_WORKER = False


def mark_worker_process() -> None:
    """Mark this process as a worker: nested parallel regions run serially.

    Pool workers are marked by :func:`_init_worker`; standalone worker
    agents (``repro-chem cluster-work``) call this themselves at startup so
    a task that internally fans out — a forest fit, a CV loop — runs its
    inner region on the serial path instead of recursing into another
    pool or back into the cluster.
    """
    global _IN_WORKER
    _IN_WORKER = True


def _init_worker(memo_dir: Optional[str]) -> None:
    """Pool initializer: mark the process and attach the parent's memo store.

    Workers start with empty in-memory caches; pointing them at the
    parent's store — a disk directory or a ``memo://`` service URL — is
    what lets every worker (and every later run) share candidate
    evaluations.  Passing the location through initargs — rather than
    relying on fork-inherited module state — keeps the contract under any
    multiprocessing start method.
    """
    mark_worker_process()
    from repro.parallel.store import configure_store

    # Configure unconditionally: a parent that explicitly disabled the store
    # (memo_dir None) must stay disabled in workers even when REPRO_MEMO_DIR
    # is set and the start method does not inherit parent module state.
    configure_store(memo_dir)


def _call_task(fn: Callable[[Any], Any], task: Any) -> tuple[Any, dict]:
    """Run one task, returning ``(value, counts)``.

    ``counts`` is how this process's store, fit and LRU counters changed
    while the task ran, tagged with the pid; ``ParallelMap`` merges it into
    the parent's (see :func:`repro.parallel.store.merge_worker_counts`).
    """
    from repro.parallel.store import counts_since, process_counts

    before = process_counts()
    value = fn(task)
    return value, counts_since(before)


def effective_cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` spec to a concrete worker count (>= 1)."""
    if n_jobs is None:
        return 1
    n = int(n_jobs)
    if n == 0:
        raise ValueError("n_jobs == 0 has no meaning; use 1 for serial or -1 for all CPUs.")
    if n < 0:
        n = effective_cpu_count() + 1 + n
    return max(1, n)


class ParallelMap:
    """Map a function over tasks through a named executor.

    Parameters
    ----------
    n_jobs:
        Worker count spec (see :func:`resolve_n_jobs`).
    executor:
        Executor name, :class:`~repro.parallel.executors.Executor` instance,
        or ``None`` to use ``$REPRO_EXECUTOR`` (default ``process``).  Only
        consulted when a parallel region is actually entered (``n_jobs > 1``
        with more than one task outside a worker).
    """

    def __init__(
        self,
        n_jobs: Optional[int] = 1,
        executor: Union[str, Executor, None] = None,
    ) -> None:
        self.n_jobs = n_jobs
        self.executor = executor

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        *,
        priority: Optional[Sequence[int]] = None,
    ) -> list[Any]:
        """Apply ``fn`` to every task, returning results in input order.

        ``priority`` optionally gives the submission order (a permutation of
        task indices, heaviest first) to reduce straggler time on a pool;
        it never affects the order of the returned results.
        """
        tasks = list(tasks)
        n_workers = resolve_n_jobs(self.n_jobs)
        if n_workers == 1 or _IN_WORKER or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        executor = resolve_executor(self.executor)
        order = list(priority) if priority is not None else list(range(len(tasks)))
        if sorted(order) != list(range(len(tasks))):
            # Validated for every executor, so a buggy priority list at a
            # call site cannot hide behind REPRO_EXECUTOR=serial.
            raise ValueError("priority must be a permutation of the task indices.")
        if not executor.supports(fn, tasks):
            # Un-picklable closures/tasks (e.g. lambda scorers) fall back to
            # the serial path, which is always available and bit-identical.
            return [fn(task) for task in tasks]
        with obs_trace.span(
            "parallel.map",
            tags={"n_tasks": len(tasks), "n_workers": n_workers},
        ):
            counted = executor.out_of_process
            try:
                outputs = executor.map(
                    partial(_call_task, fn) if counted else fn,
                    tasks,
                    order=order,
                    n_workers=n_workers,
                )
            except ExecutorUnavailableError:
                # A dead executor (OOM-killed pool, unreachable cluster) is
                # an infrastructure failure, not a task failure: recompute
                # serially.
                return [fn(task) for task in tasks]
        if not counted:
            return outputs
        from repro.parallel.store import merge_worker_counts

        for _value, counts in outputs:
            merge_worker_counts(counts)
        return [value for value, _counts in outputs]


def parallel_map(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    n_jobs: Optional[int] = 1,
    *,
    priority: Optional[Sequence[int]] = None,
    executor: Union[str, Executor, None] = None,
) -> list[Any]:
    """Functional shorthand for ``ParallelMap(n_jobs, executor).map(fn, tasks)``."""
    return ParallelMap(n_jobs, executor).map(fn, tasks, priority=priority)
