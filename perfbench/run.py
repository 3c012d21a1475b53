"""Benchmark the paper's user workloads end to end, with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both tables
    python3 perfbench/run.py --self-test               # tiny scale, every gate

One run measures one workload.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs an untraced and a traced pass and reports the
per-layer metrics (names and units come from ``BENCHMARK.json``).  Every
answer the program gives is checked; the last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}`` and the exit
code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "campaign", "serve-predict", "serve-mixed")

#: A single run must finish well inside the 180 s a caller allows it.
RUN_DEADLINE_S = 170


def _import_path() -> None:
    """Import ``perfbench`` and ``repro`` from the checkout, never this directory."""
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measure window (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="tiny scale: every workload and gate in seconds")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required (or --self-test)")
    return args


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline(f"run exceeded {RUN_DEADLINE_S}s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args: argparse.Namespace) -> int:
    from perfbench import campaign, serving, sweep
    from perfbench.common import FULL, TINY, Context, load_spec, run_facts
    from perfbench.procs import ProcessSet

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    modules = {"sweep": sweep, "campaign": campaign, "serve-predict": serving, "serve-mixed": serving}

    facts = run_facts(args.seed)
    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    procs = ProcessSet()
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=seconds,
        trace=bool(args.trace),
        scale=TINY if args.scale == "tiny" else FULL,
        run_dir=run_dir,
        procs=procs,
    )
    t0 = time.perf_counter()
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        result = modules[args.workload].run(ctx)
    finally:
        procs.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    facts.update(result.inputs, workload=args.workload, trace=args.trace, wall_s=time.perf_counter() - t0)

    metrics = {}
    for name, unit in units.items():
        if args.trace:
            # A layer the workload leaves idle reads zero.
            value = float(result.metrics.get(name, 0.0))
        else:
            value = float(result.metrics[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is {value}")
        metrics[name] = {"value": value, "unit": unit}
    extra = sorted(set(result.metrics) - set(units))
    if extra:
        raise ValueError(f"metrics missing from BENCHMARK.json: {extra}")

    outcome = result.outcome
    title = "per-layer (traced run)" if args.trace else "end-to-end"
    print(f"== {args.workload} seed={args.seed} {title}: {outcome.attempted} checked, {outcome.failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<34} {_fmt(m['value']):>14} {m['unit']}")
    for name, value, unit, note in result.named:
        print(f"  {name:<34} {_fmt(value):>14} {unit}   ({note})")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    print("# run-info " + json.dumps(facts, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if outcome.failed == 0 else 1


def _child(args: argparse.Namespace, workload: str, trace: int, scale: str, seconds: float | None) -> int:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed), "--trace", str(trace), "--scale", scale]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    return subprocess.run(argv, cwd=str(ROOT)).returncode


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own process."""
    codes = {
        (w, t): _child(args, w, t, args.scale, args.seconds) for w in WORKLOADS for t in (0, 1)
    }
    bad = [f"{w} trace={t}" for (w, t), code in codes.items() if code != 0]
    print("all workloads correct" if not bad else f"FAILED: {', '.join(bad)}")
    return 0 if not bad else 1


def self_test(args: argparse.Namespace) -> int:
    """Prove each gate rejects a tampered answer, then run every workload both ways at tiny scale."""
    from perfbench import selftest

    gates_ok = selftest.check_gates()
    args.scale = "tiny"
    args.seconds = 1.0
    code = run_all(args)
    return 0 if code == 0 and gates_ok else 1


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    _import_path()
    args = _parse(argv)
    # The workloads set every program knob they use; none may leak in from
    # the caller's environment.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_DEADLINE_S)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
