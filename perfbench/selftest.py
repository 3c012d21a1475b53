"""Prove that every correctness gate rejects a wrong answer.

``python3 perfbench/run.py --self-test`` calls :func:`check_gates` before it
runs each workload at tiny scale; a gate that accepted a tampered answer
would make every benchmark run meaningless.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np

from perfbench.campaign import gate_campaigns
from perfbench.measure import Outcome
from perfbench.serving import Call, Drive, gate_answers
from perfbench.sweep import gate_warm


class _Answer:
    def __init__(self, doc: dict) -> None:
        self.doc = doc

    def as_dict(self) -> dict:
        return dict(self.doc)


def _served(rows: np.ndarray, answer: dict) -> tuple[list, object]:
    y = rows.sum(axis=1) / 3.0
    advisor = SimpleNamespace(
        estimator=SimpleNamespace(predict=lambda X: X.sum(axis=1) / 3.0),
        answer=lambda q, o, v: _Answer(answer),
    )
    calls = [Call("predict", i, float(y[i]), 0.0, 0.0, None) for i in range(len(rows))]
    calls.append(Call("ask", 0, json.loads(json.dumps(answer)), 0.0, 0.0, None))
    return [Drive(calls=calls)], advisor


def _failed(check) -> int:
    outcome = Outcome()
    check(outcome)
    return outcome.failed


def check_gates() -> bool:
    """Each gate passes the right answer and fails a tampered one."""
    rows = np.random.default_rng(0).random((4, 4))
    problems = [("stq", 44, 260)]
    answer = {"question": "stq", "n_nodes": 10, "predicted_runtime_s": 1.0 / 3.0}
    cold = [{"model": "DT", "r2": 0.9}]
    reference = {"r2": 0.5, "mape": 0.1}

    def served(tamper: str):
        drives, advisor = _served(rows, answer)
        calls = drives[0].calls
        if tamper == "predict":
            calls[1] = calls[1]._replace(answer=float(np.nextafter(calls[1].answer, math.inf)))
        elif tamper == "ask":
            calls[-1].answer["n_nodes"] += 1
        elif tamper == "error":
            drives[0].errors.append("predict: server unavailable")
        return lambda o: gate_answers(drives, advisor, rows, problems, o, {})

    cases = {
        "served answers": (served(""), [served("predict"), served("ask"), served("error")]),
        "warm sweep": (
            lambda o: gate_warm(o, cold, [dict(cold[0])], 0),
            [lambda o: gate_warm(o, cold, cold, 1), lambda o: gate_warm(o, cold, [{"model": "DT", "r2": 0.8}], 0)],
        ),
        "campaign": (
            lambda o: gate_campaigns(o, [dict(reference)], reference),
            [lambda o: gate_campaigns(o, [{"r2": 0.5, "mape": 0.10000000000000002}], reference)],
        ),
    }
    ok = True
    for name, (good, bad) in cases.items():
        passes = _failed(good) == 0
        bites = all(_failed(case) > 0 for case in bad)
        print(f"gate {name}: accepts right answers={passes}, rejects tampered ones={bites}")
        ok = ok and passes and bites
    return ok
