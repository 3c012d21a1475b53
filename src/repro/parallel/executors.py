"""Named executor registry behind :class:`~repro.parallel.backend.ParallelMap`.

`ParallelMap` used to hard-wire its two execution strategies (a serial loop
and a :class:`~concurrent.futures.ProcessPoolExecutor` fan-out).  This module
turns them into *named*, registered executors so backends are pluggable
without touching the search/CV/AL call sites:

* ``serial`` — the plain in-process loop; always available, supports any
  function/task, and is the fallback every other executor degrades to.
* ``process`` — the process-pool executor (the previous behaviour and still
  the default for ``n_jobs > 1``); workers are initialised with the
  parent's memo-store location.

Selection order: an explicit ``executor=`` argument to ``ParallelMap`` /
``parallel_map`` wins, then the ``REPRO_EXECUTOR`` environment variable,
then the ``process`` default.  An unknown name raises ``ValueError`` listing
the registered executors — a typo in ``REPRO_EXECUTOR`` should fail loudly,
not silently run serial.

Executor contract:

* :meth:`Executor.map` receives the task list, the submission ``order`` (a
  permutation of task indices, heaviest first) and the resolved worker
  count; it must return results **in task order** and let task exceptions
  propagate unchanged.
* :meth:`Executor.supports` is a pre-flight check; returning ``False``
  (e.g. un-picklable closures for a process pool) sends the work down the
  serial path instead.
* An executor that cannot run at all (dead pool, unreachable cluster)
  raises :class:`ExecutorUnavailableError`; ``ParallelMap`` recomputes
  serially, which is always bit-identical.

Distributed backends slot in by registering a class with
:func:`register_executor` — the task model (self-contained, picklable,
seed-carrying tasks) already satisfies their requirements.  The bundled
``cluster`` executor (:mod:`repro.parallel.cluster`) is registered lazily:
naming it imports the module on demand, so the registry stays import-cycle
free and sessions that never go distributed never pay for it.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence, Type

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "ExecutorUnavailableError",
    "EXECUTOR_ENV_VAR",
    "DEFAULT_EXECUTOR",
    "register_executor",
    "get_executor",
    "available_executors",
    "resolve_executor",
]

#: Environment variable naming the executor used for parallel regions.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: Executor used when neither the call site nor the environment names one.
DEFAULT_EXECUTOR = "process"


class ExecutorUnavailableError(RuntimeError):
    """The executor's infrastructure failed (not a task failure).

    ``ParallelMap`` reacts by recomputing the whole batch serially; a task
    exception, by contrast, must propagate to the caller unchanged.
    """


class Executor:
    """Interface for a ``ParallelMap`` execution backend."""

    #: Registry name; set by subclasses.
    name: str = "?"

    #: Tasks run in other processes.  ``ParallelMap`` then has each task
    #: send its counter changes home with its result, so :meth:`map` must
    #: return what ``fn`` returned, untouched.
    out_of_process: bool = False

    def supports(self, fn: Callable[[Any], Any], tasks: list[Any]) -> bool:
        """Pre-flight check; ``False`` routes the batch to the serial path."""
        return True

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        *,
        order: Sequence[int],
        n_workers: int,
    ) -> list[Any]:
        """Run every task, returning results in task order."""
        raise NotImplementedError


class SerialExecutor(Executor):
    """The plain in-process loop; the universal fallback."""

    name = "serial"

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        *,
        order: Sequence[int],
        n_workers: int,
    ) -> list[Any]:
        return [fn(task) for task in tasks]


class ProcessExecutor(Executor):
    """Process-pool fan-out (the default for ``n_jobs > 1``).

    Workers are initialised with the parent's memo-store location so every
    worker (and every later run) shares candidate evaluations.
    """

    name = "process"
    out_of_process = True

    def supports(self, fn: Callable[[Any], Any], tasks: list[Any]) -> bool:
        """Pre-flight pickling check before handing work to a process pool.

        Verifying up front that the function and a representative task
        pickle means any exception that later escapes ``future.result()``
        was raised *by the task itself* inside a worker and must propagate
        to the caller — exactly like it would serially — rather than being
        confused with an infrastructure failure and silently retried.  Only
        the first task is checked (one fan-out's tasks are structurally
        homogeneous); pickling every task here would double the dominant
        IPC cost of a parallel call.
        """
        try:
            pickle.dumps(fn)
            pickle.dumps(tasks[0])
        except Exception:
            return False
        return True

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        *,
        order: Sequence[int],
        n_workers: int,
    ) -> list[Any]:
        from repro.parallel.backend import _init_worker, effective_cpu_count
        from repro.parallel.store import active_memo_dir

        # Tasks are CPU-bound: more workers than cores only adds contention,
        # so the pool is capped at the affinity-visible CPU count.
        max_workers = max(1, min(n_workers, len(tasks), effective_cpu_count()))
        results: list[Any] = [None] * len(tasks)
        try:
            with ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_init_worker,
                initargs=(active_memo_dir(),),
            ) as pool:
                futures = {idx: pool.submit(fn, tasks[idx]) for idx in order}
                for idx in range(len(tasks)):
                    results[idx] = futures[idx].result()
        except BrokenProcessPool as exc:
            # A dead pool (OOM-killed worker, interpreter teardown) is an
            # infrastructure failure, not a task failure.
            raise ExecutorUnavailableError("process pool broke mid-run") from exc
        return results


# ------------------------------------------------------------------ registry

_REGISTRY: dict[str, Type[Executor]] = {}

# Executors shipped with repro but registered on demand (importing the
# module at registry-import time would cycle: cluster builds on executors).
_LAZY_EXECUTOR_MODULES: dict[str, str] = {"cluster": "repro.parallel.cluster"}


def register_executor(cls: Type[Executor]) -> Type[Executor]:
    """Register an executor class under its ``name`` (usable as a decorator)."""
    name = getattr(cls, "name", None)
    if not name or name == "?":
        raise ValueError("Executor classes must define a non-empty 'name'.")
    _REGISTRY[name] = cls
    return cls


def available_executors() -> list[str]:
    """Registered executor names (lazy ones included), sorted."""
    return sorted(set(_REGISTRY) | set(_LAZY_EXECUTOR_MODULES))


def get_executor(name: str) -> Executor:
    """Instantiate the executor registered under ``name``."""
    if name not in _REGISTRY and name in _LAZY_EXECUTOR_MODULES:
        import importlib

        # Importing the module runs its register_executor() side effect.
        importlib.import_module(_LAZY_EXECUTOR_MODULES[name])
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"Unknown executor {name!r}; available: {', '.join(available_executors())}"
        ) from None
    return cls()


def resolve_executor(spec: "str | Executor | None" = None) -> Executor:
    """Resolve an executor: explicit spec, else ``$REPRO_EXECUTOR``, else default."""
    if isinstance(spec, Executor):
        return spec
    name = spec or os.environ.get(EXECUTOR_ENV_VAR, "").strip() or DEFAULT_EXECUTOR
    return get_executor(name)


register_executor(SerialExecutor)
register_executor(ProcessExecutor)
