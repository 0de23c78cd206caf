"""The benchmark's golden set as a regression test: every argv of
``perfbench/golden.py:golden_ops()`` runs in process through ``cli.main``,
and its exit code and the sha256 of its stdout must match
``perfbench/golden.json`` byte for byte."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from quinticpoints import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import golden  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["ops"]
OPS = golden.golden_ops()


def _run(argv) -> list:
    """[exit code, sha256 of stdout] of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


@pytest.mark.parametrize("workload", sorted(OPS))
def test_golden_outputs_unchanged(monkeypatch, workload):
    monkeypatch.delenv("QUINTICPOINTS_STORE", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO())
    ops = {op.key: op.argv for op in OPS[workload]}
    expected = GOLDEN[workload]
    assert sorted(ops) == sorted(expected)
    differ = [key for key, argv in ops.items() if _run(argv) != expected[key]]
    assert not differ, f"{len(differ)} of {len(ops)} differ, first: {differ[:3]}"
