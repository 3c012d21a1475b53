"""Cross-process, content-addressed memo store for candidate evaluations.

The in-memory caches of :mod:`repro.parallel.cache` die with their process:
every worker spawned by :class:`~repro.parallel.backend.ParallelMap` starts
cold, and a 27-combination ``run_model_comparison`` sweep that is interrupted
loses everything.  :class:`MemoStore` fixes both by persisting memoised
values on disk, keyed by the SHA-1 of a canonical encoding of the same
content tokens the in-memory caches use (:func:`~repro.parallel.cache.array_token`,
:func:`~repro.parallel.cache.splits_token`).  All workers of a run, and all
successive runs pointed at the same directory, share one store.

Storage contract:

* **Content-addressed** — a key is an arbitrary nesting of primitives,
  tuples, lists and dicts; :func:`key_digest` encodes it deterministically
  (type-tagged, so ``1``/``1.0``/``True`` never collide) and hashes it.
  Equal keys map to the same file in any process on any run.
* **Atomic writes** — payloads are written to a unique temporary file and
  published with ``os.replace``; a reader never observes a partial payload,
  and concurrent writers of the same key are last-writer-wins (both wrote
  the same deterministic value anyway).
* **Versioned payloads** — every file starts with a magic string carrying a
  format version.  A version bump invalidates old files: they read as
  misses and are recomputed, never misinterpreted.
* **Corruption-tolerant reads** — a truncated, garbled or unpicklable file
  is counted in ``errors``, best-effort unlinked, and reported as a miss so
  the caller recomputes; the store never raises out of :meth:`MemoStore.get`.
* **Read-only values** — every ndarray in a retrieved value is marked
  ``writeable=False``, preserving the cache-poisoning protection of the
  in-memory layer across the pickle round-trip.

Determinism contract: the store only ever holds values that are pure
functions of their key (seed-deterministic evaluations of content-addressed
inputs), so a warm-store run is bit-identical to a cold serial run.

Statistics: every store object counts its hits, misses, puts and errors,
and every process counts the estimator fits run by the search/CV layers
(:func:`record_fit`).  A pool or cluster task sends its process's counter
changes back with its result (:func:`counts_since`), and
:class:`~repro.parallel.backend.ParallelMap` merges those from other
processes (:func:`merge_worker_counts`): store counters into the active
store, fit and LRU counts into one per-process worker total.
:meth:`MemoStore.aggregated_stats` is the store's counters, this process's
fit and LRU counts, and that total, so cache statistics stay coherent when
the work ran in a pool.  Counters live in memory only: nothing about them
is written to the store.

Activation: call :func:`configure_store` explicitly (the CLI's
``--memo-dir`` does), or set ``REPRO_MEMO_DIR`` and the first
:func:`get_store` call picks it up; worker processes are initialised with
the parent's store directory by the backend.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from pathlib import Path
from typing import Any, Optional

import numpy as np

__all__ = [
    "MemoStore",
    "key_digest",
    "make_store",
    "configure_store",
    "get_store",
    "active_memo_dir",
    "record_fit",
    "fit_count",
    "reset_fit_count",
    "process_counts",
    "merge_worker_counts",
    "reset_worker_counts",
    "MEMO_URL_SCHEME",
]

#: URL scheme that routes :func:`make_store` to the service-backed client.
MEMO_URL_SCHEME = "memo://"

#: Bump to invalidate every previously written payload.
STORE_FORMAT_VERSION = 1

_MAGIC_PREFIX = b"RPMEMO"
_MAGIC = _MAGIC_PREFIX + bytes([STORE_FORMAT_VERSION]) + b"\n"

_ENV_VAR = "REPRO_MEMO_DIR"

# Estimator-level fit counter for this process (see record_fit).  It lives
# here rather than in cache.py so it travels with the store statistics.
_FIT_COUNT = 0
_FIT_LOCK = threading.Lock()

_STORE_FIELDS = ("hits", "misses", "puts", "errors")


def record_fit(n: int = 1) -> None:
    """Count ``n`` estimator fits executed by the search/CV layers.

    The counter is what lets tests assert that a fully warm-store sweep
    performed *zero* model fits; worker processes send theirs back with
    each task result.
    """
    global _FIT_COUNT
    with _FIT_LOCK:
        _FIT_COUNT += n


def fit_count() -> int:
    """Estimator fits recorded in this process since the last reset."""
    return _FIT_COUNT


def reset_fit_count() -> None:
    global _FIT_COUNT
    with _FIT_LOCK:
        _FIT_COUNT = 0


def _encode_key(obj: Any, h: "hashlib._Hash") -> None:
    """Feed a canonical, type-tagged encoding of ``obj`` into hash ``h``.

    Only JSON-ish shapes appear in memo keys (strings, numbers, booleans,
    ``None``, bytes, tuples/lists, string-keyed dicts); anything else is a
    programming error and raises ``TypeError`` rather than hashing an
    unstable ``repr``.
    """
    if obj is None:
        h.update(b"N;")
    elif isinstance(obj, bool):  # before int: True is an int subclass
        h.update(b"B1;" if obj else b"B0;")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I" + str(int(obj)).encode("ascii") + b";")
    elif isinstance(obj, (float, np.floating)):
        # repr round-trips doubles exactly, so equal floats hash equally
        # and the digest survives process boundaries.
        h.update(b"F" + repr(float(obj)).encode("ascii") + b";")
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        h.update(b"S" + str(len(raw)).encode("ascii") + b":" + raw + b";")
    elif isinstance(obj, bytes):
        h.update(b"Y" + str(len(obj)).encode("ascii") + b":" + obj + b";")
    elif isinstance(obj, (tuple, list)):
        h.update(b"T(" if isinstance(obj, tuple) else b"L(")
        for item in obj:
            _encode_key(item, h)
        h.update(b")")
    elif isinstance(obj, dict):
        keys = sorted(obj)
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("Memo-store dict keys must be strings.")
        h.update(b"D(")
        for k in keys:
            _encode_key(k, h)
            _encode_key(obj[k], h)
        h.update(b")")
    else:
        raise TypeError(f"Unsupported memo-store key component: {type(obj).__name__}")


def key_digest(key: Any) -> str:
    """Deterministic SHA-1 hex digest of a structured memo key."""
    h = hashlib.sha1()
    _encode_key(key, h)
    return h.hexdigest()


def _freeze_nested(obj: Any) -> Any:
    """Mark every ndarray inside ``obj`` read-only (recursing containers)."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _freeze_nested(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            _freeze_nested(item)
    return obj


class StoreCounters:
    """The hit/miss/put/error counters and stats views of both store backends."""

    def __init__(self) -> None:
        self._counter_lock = threading.Lock()
        self.hits = self.misses = self.puts = self.errors = 0

    def _count(self, **deltas: int) -> None:
        with self._counter_lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def counters(self) -> dict[str, int]:
        """This object's hit/miss/put/error counters (workers' included)."""
        with self._counter_lock:
            return {name: getattr(self, name) for name in _STORE_FIELDS}

    def object_count(self) -> int:
        raise NotImplementedError

    def stats(self) -> dict[str, int]:
        """This object's counters plus the stored object count."""
        out = self.counters()
        out["objects"] = self.object_count()
        return out

    def aggregated_stats(self) -> dict[str, Any]:
        """This store's and process's counters plus those workers sent back.

        ``{"store": {hits, misses, puts, errors, objects}, "caches": {name:
        {hits, misses}}, "fits": n}``.
        """
        totals = process_counts(self)
        del totals["pid"]
        _add_counts(totals, worker_counts())
        totals["store"]["objects"] = self.object_count()
        return totals

    def reset_stats(self) -> None:
        """Zero this object's counters (workers' included).

        Stored objects are kept; nothing on disk or on a server changes.
        Fit and LRU counts are per process: ``clear_caches()`` zeroes them.
        """
        with self._counter_lock:
            self.hits = self.misses = self.puts = self.errors = 0


class MemoStore(StoreCounters):
    """A directory of memoised values shared by processes and runs.

    Layout::

        <root>/objects/<namespace>/<aa>/<digest[2:]>.pkl
    """

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__()
        # ``~`` is expanded and missing parents are created, so a CLI
        # ``--memo-dir ~/.cache/repro-memo`` works on a fresh machine.
        self.root = Path(root).expanduser()
        self._objects = self.root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._tmp_seq = 0

    # ------------------------------------------------------------------ paths

    @property
    def location(self) -> str:
        """The string a worker/client needs to attach to this store."""
        return str(self.root)

    def path_for(self, namespace: str, key: Any) -> Path:
        return self.digest_path(namespace, key_digest(key))

    def digest_path(self, namespace: str, digest: str) -> Path:
        return self._objects / namespace / digest[:2] / (digest[2:] + ".pkl")

    # ------------------------------------------------------------- get / put

    def get(self, namespace: str, key: Any, default: Any = None) -> Any:
        """Retrieve a memoised value, or ``default`` on any kind of miss.

        Stale-version, truncated and corrupt payloads are unlinked
        (best-effort) and reported as misses; ndarrays in a hit are
        returned read-only.
        """
        path = self.path_for(namespace, key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except (FileNotFoundError, OSError):
            self._count(misses=1)
            return default
        if not blob.startswith(_MAGIC):
            # Foreign bytes or a payload written by a different format
            # version: invalidate rather than risk misreading it.
            self._count(misses=1, errors=int(not blob.startswith(_MAGIC_PREFIX)))
            self._discard(path)
            return default
        try:
            value = pickle.loads(blob[len(_MAGIC):])
        except Exception:
            self._count(misses=1, errors=1)
            self._discard(path)
            return default
        self._count(hits=1)
        return _freeze_nested(value)

    def put(self, namespace: str, key: Any, value: Any) -> None:
        """Persist a memoised value atomically (write temp file, then rename)."""
        path = self.path_for(namespace, key)
        with self._lock:
            self._tmp_seq += 1
            seq = self._tmp_seq
        tmp = path.parent / f".{path.name}.{os.getpid()}.{seq}.tmp"
        blob = _MAGIC + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            # A full or read-only disk degrades the store to a no-op cache;
            # the value was computed and the caller still has it.
            self._count(errors=1)
            self._discard(tmp)
            return
        self._count(puts=1)

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------- blob layer
    #
    # The memo service (repro.parallel.service) moves whole payload blobs —
    # the same magic-prefixed versioned pickles this class writes — without
    # ever unpickling them; these methods are its storage backend.  They do
    # not touch the counters: the remote client counts its own operations,
    # and the server counts the ones it serves on its metrics registry.

    def get_blob(self, namespace: str, digest: str) -> Optional[bytes]:
        """Raw payload bytes for a digest, or ``None`` on any kind of miss.

        A payload that lost its magic/version prefix (corruption, stale
        format) is discarded so the next put heals it.
        """
        path = self.digest_path(namespace, digest)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        if not blob.startswith(_MAGIC):
            self._discard(path)
            return None
        return blob

    def put_blob(self, namespace: str, digest: str, blob: bytes) -> bool:
        """Atomically publish raw payload bytes; ``False`` if it failed."""
        if not blob.startswith(_MAGIC_PREFIX):
            return False
        path = self.digest_path(namespace, digest)
        with self._lock:
            self._tmp_seq += 1
            seq = self._tmp_seq
        tmp = path.parent / f".{path.name}.{os.getpid()}.{seq}.tmp"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            self._discard(tmp)
            return False
        return True

    # ------------------------------------------------------------ statistics

    def object_count(self) -> int:
        return sum(
            1
            for _, _, files in os.walk(self._objects)
            for name in files
            if name.endswith(".pkl")
        )

    def clear(self) -> None:
        """Delete every stored object and zero the counters (keep the directory)."""
        for base, _, files in os.walk(self._objects, topdown=False):
            for name in files:
                self._discard(Path(base) / name)
        self.reset_stats()


# ------------------------------------------------------------ worker counts
#
# A count document is {"pid", "store": {hits, misses, puts, errors},
# "caches": {name: {hits, misses}}, "fits"}: one process's counters, or the
# change in them while one task ran.


def process_counts(store: Optional[StoreCounters] = None) -> dict[str, Any]:
    """This process's counters: ``store``'s (default: the active store's),
    the fit count and each in-memory LRU cache's hits and misses."""
    from repro.parallel.cache import cache_stats

    if store is None:
        store = get_store()
    return {
        "pid": os.getpid(),
        "store": store.counters() if store is not None else dict.fromkeys(_STORE_FIELDS, 0),
        "fits": fit_count(),
        "caches": {
            name: {"hits": c["hits"], "misses": c["misses"]}
            for name, c in cache_stats(include_store=False).items()
        },
    }


def counts_since(before: dict[str, Any]) -> dict[str, Any]:
    """How this process's counters changed since ``before`` (a :func:`process_counts`)."""
    delta = process_counts()
    _add_counts(delta, before, sign=-1)
    for name in _STORE_FIELDS:
        delta["store"][name] -= before["store"][name]
    return delta


def _zero_counts() -> dict[str, Any]:
    return {"caches": {}, "fits": 0}


def _add_counts(total: dict[str, Any], counts: dict[str, Any], sign: int = 1) -> None:
    """Add the fit and LRU counts of ``counts`` into ``total`` (``sign=-1`` subtracts)."""
    total["fits"] += sign * counts["fits"]
    for name, cache in counts["caches"].items():
        bucket = total["caches"].setdefault(name, {"hits": 0, "misses": 0})
        bucket["hits"] += sign * cache["hits"]
        bucket["misses"] += sign * cache["misses"]


# The fit and LRU counts pool and cluster workers sent back to this process.
_WORKER_COUNTS = _zero_counts()
_WORKER_LOCK = threading.Lock()


def merge_worker_counts(counts: dict[str, Any]) -> None:
    """Add one task's counter changes to this process's.

    Store counters go to the active store (the one workers attach to), fit
    and LRU counts to the worker total.  A task that ran in this process
    (the serial executor, an in-process cluster worker thread) already
    moved this process's own counters, so it is not added a second time.
    """
    if counts["pid"] == os.getpid():
        return
    store = get_store()
    if store is not None:
        store._count(**counts["store"])
    with _WORKER_LOCK:
        _add_counts(_WORKER_COUNTS, counts)


def worker_counts() -> dict[str, Any]:
    """A copy of the fit and LRU counts workers sent back to this process."""
    total = _zero_counts()
    with _WORKER_LOCK:
        _add_counts(total, _WORKER_COUNTS)
    return total


def reset_worker_counts() -> None:
    """Zero the fit and LRU counts workers sent back to this process."""
    with _WORKER_LOCK:
        _WORKER_COUNTS.update(_zero_counts())


# --------------------------------------------------------- module-level state

_STORE: Optional[MemoStore] = None
_CONFIGURED = False  # an explicit configure_store() overrides the env var
_STATE_LOCK = threading.Lock()


def make_store(spec: Optional[str | os.PathLike]) -> Optional["MemoStore"]:
    """Build a store from a location spec: a path, or a ``memo://`` URL.

    ``None``/empty disables the store; ``memo://host:port`` attaches the
    service-backed :class:`~repro.parallel.service.RemoteMemoStore`; any
    other value is a disk directory (``~`` expanded, parents created).
    Disk and remote stores expose the same get/put/stats surface.
    """
    if spec is None:
        return None
    spec = os.fspath(spec)
    if isinstance(spec, bytes):  # os.fspath may hand back bytes paths
        spec = os.fsdecode(spec)
    # Strip stray whitespace (a YAML env block or shell export easily adds
    # it): ' memo://...' must reach the URL branch, not become a relative
    # disk directory literally named ' memo:'.
    spec = spec.strip()
    if not spec:
        return None
    if spec.startswith(MEMO_URL_SCHEME):
        from repro.parallel.service import RemoteMemoStore

        return RemoteMemoStore(spec)
    return MemoStore(spec)


def configure_store(spec: Optional[str | os.PathLike]) -> Optional[MemoStore]:
    """Activate the memo store at ``spec`` (``None`` disables it).

    ``spec`` is a disk directory or a ``memo://host:port`` service URL (see
    :func:`make_store`).  Explicit configuration wins over
    ``REPRO_MEMO_DIR``; passing ``None`` turns the store off even when the
    environment variable is set.
    """
    global _STORE, _CONFIGURED
    with _STATE_LOCK:
        previous, _STORE = _STORE, make_store(spec)
        _CONFIGURED = True
        if previous is not None and previous is not _STORE:
            close = getattr(previous, "close", None)
            if close is not None:
                close()
        return _STORE


def get_store() -> Optional[MemoStore]:
    """The active store, lazily created from ``REPRO_MEMO_DIR`` if unset."""
    global _STORE, _CONFIGURED
    with _STATE_LOCK:
        if not _CONFIGURED:
            _STORE = make_store(os.environ.get(_ENV_VAR))
            _CONFIGURED = True
        return _STORE


def active_memo_dir() -> Optional[str]:
    """Location of the active store (what workers are initialised with).

    A disk directory for :class:`MemoStore`, a ``memo://`` URL for the
    service-backed client — either way, the exact string a worker process
    passes back to :func:`configure_store`.
    """
    store = get_store()
    return store.location if store is not None else None
