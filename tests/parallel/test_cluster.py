"""Tests for the cluster executor (``repro.parallel.cluster``).

The ISSUE 7 contract, bottom to top:

* **Scheduling** — results in task order regardless of completion order,
  task exceptions propagate unchanged, batches reuse one dispatcher and
  its connected workers.
* **Failure model** — a worker that dies mid-task is reaped by heartbeat
  silence and its tasks re-dispatched to survivors; a stuck worker's
  unacknowledged task is duplicated onto an idle one (first result wins);
  stale results from an abandoned batch are discarded.
* **Degradation** — no reachable worker, an unbindable dispatcher URL, or
  an un-picklable batch all land on the bit-identical serial path; a
  missing or malformed ``REPRO_CLUSTER_URL`` is a loud config error.
* **End to end** — real ``repro-chem cluster-work`` subprocess workers run
  ``run_model_comparison`` byte-identically to the serial path, and a
  worker SIGKILLed mid-sweep does not change the answer (the CI ``cluster``
  job repeats this across real machines-worth of processes with a shared
  ``memo://`` store).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.parallel import cluster as cluster_mod
from repro.parallel.backend import parallel_map
from repro.parallel.cluster import (
    CLUSTER_URL_ENV,
    ClusterExecutor,
    ClusterWorker,
    ensure_dispatcher,
    parse_cluster_url,
    shutdown_dispatchers,
)
from repro.parallel.executors import (
    ExecutorUnavailableError,
    available_executors,
    get_executor,
)
from repro.parallel.wire import ProtocolError, pack_str, read_frame, write_frame


@pytest.fixture(autouse=True)
def _clean_cluster_state(monkeypatch):
    monkeypatch.delenv(CLUSTER_URL_ENV, raising=False)
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    yield
    shutdown_dispatchers()


def _square(task):
    return task * task


def _boom(task):
    if task == "bad":
        raise ValueError("task went bad")
    return task


def _slow_square(task):
    time.sleep(task[1])
    return task[0] * task[0]


def _thread_worker(url, name, **kwargs):
    """An in-process worker on a thread (same scheduling path, no spawn cost)."""
    kwargs.setdefault("poll_interval", 0.01)
    kwargs.setdefault("heartbeat_interval", 0.2)
    kwargs.setdefault("reconnect_window", 10.0)
    worker = ClusterWorker(url, name=name, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


class TestRegistryIntegration:
    def test_cluster_is_lazily_registered(self):
        assert "cluster" in available_executors()
        assert isinstance(get_executor("cluster"), ClusterExecutor)

    def test_missing_url_is_a_loud_config_error(self):
        with pytest.raises(ValueError, match="REPRO_CLUSTER_URL"):
            ClusterExecutor().map(_square, [1, 2], order=[0, 1], n_workers=2)

    @pytest.mark.parametrize(
        "bad", ["cluster://", "cluster://hostonly", "http://h:80", "cluster://h:nan"]
    )
    def test_malformed_url_is_a_loud_config_error(self, bad, monkeypatch):
        monkeypatch.setenv(CLUSTER_URL_ENV, bad)
        with pytest.raises(ValueError):
            ClusterExecutor().map(_square, [1, 2], order=[0, 1], n_workers=2)

    def test_parse_accepts_ephemeral_port_only_when_asked(self):
        assert parse_cluster_url("cluster://127.0.0.1:0", allow_ephemeral=True) == (
            "127.0.0.1",
            0,
        )
        with pytest.raises(ValueError):
            parse_cluster_url("cluster://127.0.0.1:0")


class TestInProcessScheduling:
    def test_results_in_task_order_and_exceptions_propagate(self):
        dispatcher = ensure_dispatcher("cluster://127.0.0.1:0")
        workers = [_thread_worker(dispatcher.url, f"w{i}")[0] for i in range(2)]
        try:
            executor = ClusterExecutor(url=dispatcher.url, worker_wait=10.0)
            tasks = list(range(8))
            got = executor.map(
                _square, tasks, order=list(reversed(range(8))), n_workers=2
            )
            assert got == [t * t for t in tasks]
            # A task exception is the caller's, unchanged in type and text.
            with pytest.raises(ValueError, match="task went bad"):
                executor.map(
                    _boom, ["ok", "bad", "ok"], order=[0, 1, 2], n_workers=2
                )
            # The dispatcher and its workers survive both batches.
            got = executor.map(_square, [5, 6], order=[0, 1], n_workers=2)
            assert got == [25, 36]
            stats = dispatcher.stats()
            assert stats["batches_done"] == 3
            assert len(stats["workers"]) == 2
        finally:
            for worker in workers:
                worker.stop()

    def test_ensure_dispatcher_caches_per_bound_url(self):
        dispatcher = ensure_dispatcher("cluster://127.0.0.1:0")
        assert ensure_dispatcher(dispatcher.url) is dispatcher

    def test_dead_worker_tasks_are_redispatched(self):
        """A worker that takes a task and goes silent is reaped on heartbeat
        timeout and its task re-queued for the survivor."""
        dispatcher = ensure_dispatcher(
            "cluster://127.0.0.1:0", heartbeat_timeout=0.5
        )
        # The fake worker speaks just enough protocol to steal one task.
        sock = socket.create_connection((dispatcher.host, dispatcher.port), timeout=5.0)
        rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
        write_frame(wfile, b"W" + pack_str("zombie"))
        response = read_frame(rfile)
        assert response[:1] == b"+"
        zombie_id = response[3:].decode()

        stolen = threading.Event()

        def steal_one_task():
            while not stolen.is_set():
                write_frame(wfile, b"T" + pack_str(zombie_id))
                if read_frame(rfile)[:1] == b"+":
                    stolen.set()  # got a task; now go silent forever
                    return
                time.sleep(0.01)

        thief = threading.Thread(target=steal_one_task, daemon=True)
        thief.start()
        executor = ClusterExecutor(url=dispatcher.url, worker_wait=10.0)
        batch_result = []
        runner = threading.Thread(
            target=lambda: batch_result.append(
                executor.map(_square, [2, 3, 4], order=[0, 1, 2], n_workers=2)
            ),
            daemon=True,
        )
        runner.start()
        # Only the zombie is connected, so it necessarily steals a task;
        # the survivor starts after the theft and must finish everything.
        assert stolen.wait(timeout=10.0)
        worker, _ = _thread_worker(dispatcher.url, "survivor")
        try:
            runner.join(timeout=20.0)
            assert batch_result == [[4, 9, 16]]
            stats = dispatcher.stats()
            assert stats["tasks_redispatched"] >= 1
            assert "zombie#1" not in stats["workers"]  # reaped as dead
        finally:
            stolen.set()
            worker.stop()
            sock.close()

    def test_stale_generation_results_are_discarded(self):
        dispatcher = ensure_dispatcher("cluster://127.0.0.1:0")
        worker, _ = _thread_worker(dispatcher.url, "w")
        try:
            sock = socket.create_connection(
                (dispatcher.host, dispatcher.port), timeout=5.0
            )
            rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
            write_frame(wfile, b"W" + pack_str("late"))
            late_id = read_frame(rfile)[3:].decode()
            # A result for generation 0 (no batch ever ran under it) must be
            # swallowed without poisoning the next real batch.
            write_frame(
                wfile, b"R" + pack_str(late_id) + pack_str("0:0") + b"+" + b"garbage"
            )
            assert read_frame(rfile)[:1] == b"+"
            executor = ClusterExecutor(url=dispatcher.url, worker_wait=10.0)
            assert executor.map(_square, [7], order=[0], n_workers=2) == [49]
            sock.close()
        finally:
            worker.stop()

    def test_straggler_task_is_duplicated_and_first_result_wins(self):
        """With the queue drained and one slow assignment outstanding, an
        idle worker gets a duplicate; the batch completes on whichever
        finishes first."""
        dispatcher = ensure_dispatcher(
            "cluster://127.0.0.1:0", heartbeat_timeout=5.0, straggler_after=0.3
        )
        workers = [_thread_worker(dispatcher.url, f"w{i}")[0] for i in range(2)]
        try:
            executor = ClusterExecutor(url=dispatcher.url, worker_wait=10.0)
            # Task 0 sleeps long enough to be declared a straggler; the
            # other worker, idle after finishing task 1, duplicates it.
            got = executor.map(
                _slow_square, [(3, 1.2), (2, 0.0)], order=[0, 1], n_workers=2
            )
            assert got == [9, 4]
            assert dispatcher.stats()["tasks_redispatched"] >= 1
        finally:
            for worker in workers:
                worker.stop()


class TestSerialDegradation:
    def test_no_reachable_worker_degrades_to_serial(self):
        dispatcher = ensure_dispatcher("cluster://127.0.0.1:0")
        executor = ClusterExecutor(url=dispatcher.url, worker_wait=0.3)
        with pytest.raises(ExecutorUnavailableError, match="no cluster worker"):
            executor.map(_square, [1, 2], order=[0, 1], n_workers=2)
        # Through ParallelMap the same failure is invisible: serial fallback.
        assert parallel_map(_square, [1, 2, 3], n_jobs=2, executor=executor) == [
            1,
            4,
            9,
        ]

    def test_unbindable_dispatcher_degrades_to_serial(self):
        # TEST-NET-1 (RFC 5737) is guaranteed not to be a local interface,
        # so binding the dispatcher there fails — the "unreachable
        # dispatcher" of the acceptance criteria.
        executor = ClusterExecutor(url="cluster://192.0.2.1:7701", worker_wait=0.3)
        with pytest.raises(ExecutorUnavailableError, match="cannot bind"):
            executor.map(_square, [1, 2], order=[0, 1], n_workers=2)
        assert parallel_map(_square, [4, 5], n_jobs=2, executor=executor) == [16, 25]

    def test_unpicklable_batch_routes_to_serial_before_the_wire(self):
        dispatcher = ensure_dispatcher("cluster://127.0.0.1:0")
        executor = ClusterExecutor(url=dispatcher.url, worker_wait=0.3)
        double = lambda task: task * 2  # noqa: E731 - deliberately unpicklable
        assert not executor.supports(double, [1])
        assert parallel_map(double, [1, 2], n_jobs=2, executor=executor) == [2, 4]


def _env(extra_pythonpath=None):
    env = dict(os.environ)
    parts = [str(Path(repro.__file__).resolve().parents[1])]
    if extra_pythonpath:
        parts.append(str(extra_pythonpath))
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env.pop(CLUSTER_URL_ENV, None)
    env.pop("REPRO_EXECUTOR", None)
    return env


def _spawn_worker(url, name, *, extra_pythonpath=None, heartbeat_interval=0.2):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "cluster-work",
            "--dispatcher", url,
            "--name", name,
            "--heartbeat-interval", str(heartbeat_interval),
            "--idle-exit", "60",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(extra_pythonpath),
    )
    banner = proc.stdout.readline()
    assert "cluster-work:" in banner and "serving" in banner, banner
    return proc


class TestDispatcherStatus:
    """The observer read (telemetry stats) and the ``cluster-status`` CLI verb."""

    def test_status_reads_live_counters_from_outside(self):
        dispatcher = ensure_dispatcher("cluster://127.0.0.1:0")
        # Quiet dispatcher first: the remote read IS the local snapshot.
        assert cluster_mod.dispatcher_status(dispatcher.url) == dispatcher.stats()
        worker, _thread = _thread_worker(dispatcher.url, name="obs-w0")
        try:
            _wait_for_workers(dispatcher, 1, timeout=10.0)
            workers = cluster_mod.dispatcher_status(dispatcher.url)["workers"]
            assert any(name.startswith("obs-w0") for name in workers)
        finally:
            worker.stop()

    def test_dead_dispatcher_is_a_connection_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ConnectionError, match="no cluster dispatcher"):
            cluster_mod.dispatcher_status(
                f"cluster://127.0.0.1:{free_port}", timeout=1.0
            )

    def test_legacy_stats_opcode_still_answers(self):
        # Older cluster-status clients send the STATS opcode, not TELEMETRY.
        import json as json_mod

        dispatcher = ensure_dispatcher("cluster://127.0.0.1:0")
        address = (dispatcher.host, dispatcher.port)
        with socket.create_connection(address, timeout=5.0) as sock:
            with sock.makefile("rb") as rfile, sock.makefile("wb") as wfile:
                write_frame(wfile, b"S")
                response = read_frame(rfile)
        assert response[:1] == b"+"
        assert json_mod.loads(response[1:]) == dispatcher.stats()

    def test_other_framed_service_is_a_protocol_error(self, tmp_path):
        from repro.parallel.service import MemoServer

        with MemoServer(tmp_path / "memo") as memo:
            with pytest.raises(ProtocolError, match="not a cluster dispatcher"):
                cluster_mod.dispatcher_status(
                    f"cluster://{memo.host}:{memo.port}", timeout=2.0
                )

    def test_cli_verb_prints_stats_json(self):
        import json as json_mod

        dispatcher = ensure_dispatcher("cluster://127.0.0.1:0")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster-status",
             "--dispatcher", dispatcher.url],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        stats = json_mod.loads(proc.stdout)
        assert stats["workers"] == []
        assert stats["batches_done"] == 0

    def test_cli_verb_fails_cleanly_without_a_dispatcher(self):
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        env.pop(CLUSTER_URL_ENV, None)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        dead = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster-status",
             "--dispatcher", f"cluster://127.0.0.1:{free_port}",
             "--timeout", "1"],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
        assert dead.returncode == 1
        assert "no cluster dispatcher" in dead.stderr + dead.stdout
        unconfigured = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster-status"],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
        assert unconfigured.returncode == 2


def _wait_for_workers(dispatcher, n, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(dispatcher.stats()["workers"]) >= n:
            return
        time.sleep(0.05)
    raise AssertionError(f"fleet never reached {n} workers: {dispatcher.stats()}")


_TASK_MODULE = """\
import time


def slow_square(task):
    time.sleep(task[1])
    return task[0] * task[0]
"""


@pytest.mark.slow
class TestSubprocessWorkers:
    def test_worker_killed_mid_sweep_still_completes(self, tmp_path):
        """SIGKILL one of two real worker processes mid-batch: heartbeat
        reaping must re-dispatch its in-flight task and the batch must
        complete with the right answers."""
        taskdir = tmp_path / "taskmod"
        taskdir.mkdir()
        (taskdir / "cluster_tasks_t7.py").write_text(_TASK_MODULE)
        sys.path.insert(0, str(taskdir))
        try:
            import cluster_tasks_t7

            dispatcher = ensure_dispatcher(
                "cluster://127.0.0.1:0", heartbeat_timeout=1.0
            )
            victim = _spawn_worker(dispatcher.url, "victim", extra_pythonpath=taskdir)
            steady = _spawn_worker(dispatcher.url, "steady", extra_pythonpath=taskdir)
            try:
                _wait_for_workers(dispatcher, 2)
                tasks = [(i, 0.4) for i in range(6)]
                executor = ClusterExecutor(url=dispatcher.url, worker_wait=30.0)

                def kill_victim_mid_batch():
                    # Wait until the batch is genuinely in flight, then kill.
                    deadline = time.monotonic() + 20.0
                    while time.monotonic() < deadline:
                        stats = dispatcher.stats()
                        if stats["batch_active"] and stats["tasks_assigned"] >= 2:
                            break
                        time.sleep(0.02)
                    victim.send_signal(signal.SIGKILL)

                killer = threading.Thread(target=kill_victim_mid_batch, daemon=True)
                killer.start()
                got = executor.map(
                    cluster_tasks_t7.slow_square,
                    tasks,
                    order=list(range(len(tasks))),
                    n_workers=2,
                )
                killer.join(timeout=30.0)
                assert got == [i * i for i in range(6)]
                assert victim.wait(timeout=10.0) is not None
                stats = dispatcher.stats()
                assert stats["tasks_redispatched"] >= 1
                assert [w for w in stats["workers"] if w.startswith("victim")] == []
            finally:
                for proc in (victim, steady):
                    if proc.poll() is None:
                        proc.terminate()
                        proc.wait(timeout=10.0)
        finally:
            sys.path.remove(str(taskdir))
            sys.modules.pop("cluster_tasks_t7", None)

    def test_model_comparison_is_byte_identical_to_serial(
        self, small_aurora_dataset, monkeypatch
    ):
        """The acceptance bar: REPRO_EXECUTOR=cluster run of
        run_model_comparison against real subprocess workers == cold serial."""
        from repro.core.hyperopt import run_model_comparison
        from repro.parallel import clear_caches, configure_store

        sweep = dict(
            models=["PR", "DT"],
            strategies=("GridSearchCV", "RandomizedSearchCV"),
            scale="fast",
            cv=3,
            max_train_samples=50,
            seed=0,
        )

        def comparable(results):
            return [
                {k: v for k, v in r.as_dict().items() if k != "search_time_s"}
                for r in results
            ]

        configure_store(None)
        clear_caches()
        serial = run_model_comparison(small_aurora_dataset, n_jobs=1, **sweep)

        dispatcher = ensure_dispatcher("cluster://127.0.0.1:0")
        workers = [_spawn_worker(dispatcher.url, f"mc{i}") for i in range(2)]
        try:
            _wait_for_workers(dispatcher, 2)
            monkeypatch.setenv("REPRO_EXECUTOR", "cluster")
            monkeypatch.setenv(CLUSTER_URL_ENV, dispatcher.url)
            clear_caches()
            clustered = run_model_comparison(small_aurora_dataset, n_jobs=2, **sweep)
            assert comparable(clustered) == comparable(serial)
            assert dispatcher.stats()["batches_done"] >= 1
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=10.0)
