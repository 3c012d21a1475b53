"""The seeded order-shuffle hook of ``tests/conftest.py``.

``REPRO_TEST_SHUFFLE_SEED`` runs the collected suite in a seeded random
order to flush out tests that depend on test order; unset, the collection
order is untouched.
"""

from __future__ import annotations

from pathlib import Path

import pytest


@pytest.fixture()
def root_conftest(request):
    path = str(Path(__file__).with_name("conftest.py"))
    for plugin in request.config.pluginmanager.get_plugins():
        if getattr(plugin, "__file__", None) == path:
            return plugin
    raise AssertionError("tests/conftest.py is not loaded as a plugin")


def _shuffled(conftest, items):
    items = list(items)
    conftest.pytest_collection_modifyitems(None, None, items)
    return items


def test_unset_seed_keeps_collection_order(root_conftest, monkeypatch):
    monkeypatch.delenv(root_conftest.SHUFFLE_SEED_ENV, raising=False)
    items = [f"test_{i}" for i in range(20)]
    assert _shuffled(root_conftest, items) == items
    assert root_conftest.pytest_report_header(None) is None


def test_seed_shuffles_reproducibly(root_conftest, monkeypatch):
    items = [f"test_{i}" for i in range(20)]
    monkeypatch.setenv(root_conftest.SHUFFLE_SEED_ENV, "7")
    first = _shuffled(root_conftest, items)
    assert first != items and sorted(first) == sorted(items)
    assert _shuffled(root_conftest, items) == first
    assert "REPRO_TEST_SHUFFLE_SEED=7" in root_conftest.pytest_report_header(None)
    monkeypatch.setenv(root_conftest.SHUFFLE_SEED_ENV, "8")
    assert _shuffled(root_conftest, items) != first
