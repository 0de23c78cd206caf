"""The benchmark's span targets resolve.  A traced run (``perfbench/run.py
--trace 1``) wraps each function that ``perfbench/spans.py`` names, looked
up by ``getattr``; a renamed or removed target would crash that run, so
every name is resolved here."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402


@pytest.mark.parametrize("name", spans.NAMES)
def test_span_target_resolves(name):
    importlib.import_module(f"quinticpoints.{name.partition('.')[0]}")
    _, target = spans._resolve("quinticpoints", name)
    assert callable(target)
