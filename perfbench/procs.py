"""Child processes under test: ``serve``, ``memo-serve`` and ``cluster-work``.

Every service a workload needs runs as its own process, started the way a
user starts it (``python -m repro.cli <verb>``) on an OS-chosen port that is
read back from the startup banner.  :class:`ProcessSet` owns every child of
a run and reaps them all — on success, on failure and on Ctrl-C — waiting
until each has exited.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Environment variables of the program that must not leak from the caller's
#: shell into a child: each workload sets what it needs explicitly.
_PROGRAM_ENV_PREFIX = "REPRO_"


def child_env(extra: Optional[dict] = None) -> dict:
    """A clean environment for a child: the caller's, minus ``REPRO_*``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(_PROGRAM_ENV_PREFIX)}
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    env.update(extra or {})
    return env


class Child:
    """One started child; a reader thread timestamps every output line."""

    def __init__(self, name: str, argv: Sequence[str], env: dict) -> None:
        self.name = name
        self.argv = list(argv)
        self.t_start = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: list[tuple[float, str]] = []
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            with self._cond:
                self.lines.append((time.perf_counter(), line.rstrip("\n")))
                self._cond.notify_all()
        with self._cond:
            self._cond.notify_all()

    def wait_for(self, marker: str, timeout: float) -> tuple[float, str]:
        """Block until a line containing ``marker`` appears; ``(t, line)``."""
        deadline = time.monotonic() + timeout
        seen = 0
        with self._cond:
            while True:
                for t, line in self.lines[seen:]:
                    if marker in line:
                        return t, line
                seen = len(self.lines)
                if self.proc.poll() is not None and not self._reader.is_alive():
                    raise RuntimeError(
                        f"{self.name} exited with {self.proc.returncode} before "
                        f"printing {marker!r}; output: {self.output_tail()}"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(f"{self.name} printed no {marker!r} in {timeout}s")
                self._cond.wait(min(remaining, 0.5))

    def line_time(self, marker: str) -> Optional[float]:
        with self._cond:
            for t, line in self.lines:
                if marker in line:
                    return t
        return None

    def output_tail(self, n: int = 8) -> str:
        with self._cond:
            return " | ".join(line for _, line in self.lines[-n:])

    def stop(self, timeout: float = 10.0) -> None:
        """SIGINT (the services' clean shutdown path), then SIGKILL; wait."""
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGINT)
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5.0)


class ProcessSet:
    """Every child of one benchmark run; :meth:`stop_all` reaps them all."""

    def __init__(self) -> None:
        self.children: list[Child] = []

    def start(self, name: str, argv: Sequence[str], env: Optional[dict] = None) -> Child:
        child = Child(name, argv, env if env is not None else child_env())
        self.children.append(child)
        return child

    def stop(self, child: Child) -> None:
        child.stop()
        if child in self.children:
            self.children.remove(child)

    def stop_all(self) -> None:
        # Interrupt everyone first so the services shut down in parallel.
        for child in self.children:
            if child.proc.poll() is None:
                try:
                    child.proc.send_signal(signal.SIGINT)
                except OSError:
                    pass
        while self.children:
            self.children.pop().stop()


def repro_cli(verb: str, *args: str, probes: bool = False) -> list[str]:
    """argv for ``repro-chem <verb> ...``; ``probes`` adds the layer probes."""
    if probes:
        return [sys.executable, str(ROOT / "perfbench" / "launch.py"), verb, *args]
    return [sys.executable, "-m", "repro.cli", verb, *args]


def banner_url(line: str, scheme: str) -> str:
    """The ``scheme://host:port`` a service announced on its banner line."""
    for token in line.split():
        if token.startswith(scheme):
            return token
    raise RuntimeError(f"no {scheme} URL in banner {line!r}")


def start_memo_server(procs: ProcessSet, memo_dir: Path, trace_dir: Optional[Path] = None) -> tuple[Child, str]:
    args = ["--memo-dir", str(memo_dir), "--port", "0"]
    if trace_dir is not None:
        args += ["--trace-dir", str(trace_dir)]
    child = procs.start("memo-serve", repro_cli("memo-serve", *args))
    _, line = child.wait_for("listening on", 60.0)
    return child, banner_url(line, "memo://")


def start_cluster_workers(
    procs: ProcessSet,
    dispatcher_url: str,
    n: int,
    *,
    trace_dir: Optional[Path] = None,
    probes: bool = False,
    probe_dir: Optional[Path] = None,
    tag: str = "w",
) -> list[Child]:
    args = ["--dispatcher", dispatcher_url]
    if trace_dir is not None:
        args += ["--trace-dir", str(trace_dir)]
    from perfbench.probes import PROBE_DIR_ENV

    env = child_env({PROBE_DIR_ENV: str(probe_dir)} if probe_dir else None)
    workers = []
    for i in range(n):
        argv = repro_cli("cluster-work", *args, "--name", f"{tag}{i}", probes=probes)
        workers.append(procs.start(f"cluster-work-{tag}{i}", argv, env))
    for worker in workers:
        worker.wait_for("serving", 60.0)
    return workers
