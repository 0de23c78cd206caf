"""Self-tests of the benchmark: op streams, the op space, output checks and
the span recorder.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 7, 12345)
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

# Cold op time in ms per op family: the per-family medians printed by one
# construct-mix and one identities run at the baseline (see NOTES.md).  Used
# only to place percentiles, never as a pass mark.
COST_MS = {
    "thm1-error": 5.3, "thm2-error": 5.6, "scale-integers": 5.8, "question3": 6.4,
    "thm1": 6.6, "symmetric-rational": 7.5, "fifth-power": 7.5,
    "symmetric-gaussian": 9.7, "gaussian": 12.0, "mixed": 36.7, "thm2": 97.3,
    "solve-form": 119.5,
    "corollary1-scaling": 5.3, "question3-identity": 5.8, "norm-lift": 7.7,
    "thm1-spotchecks": 9.1, "c29-display": 9.6, "r1-factorization": 11.4,
    "mixed-h": 13.7, "r4-factorization": 14.0, "fifth-power-identity": 15.0,
    "gaussian-parametrization": 17.1, "symmetric-g": 24.9, "thm1-surface": 27.9,
    "mixed-maps": 30.8, "consani-scholten-display": 33.9,
    "gaussian-residual": 118.7, "example1-display": 427.5,
}
FORK_MS = 3


def _model_ms(op: workloads.Op) -> float:
    flags = outputs._flags(op.argv)
    if op.family == "table-verify":
        return 10 + 7 * int(flags["dmax"])
    if op.family == "table-search":
        return 20 + 18 * int(flags["dmax"])
    if op.argv[0] == "verify-identities" and op.family == "fifth-power":
        return COST_MS["fifth-power-identity"]
    return COST_MS[op.family]


# ---------------------------------------------------------------------------
# op streams

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv_stream(workload):
    first = [op.argv for op in workloads.take(workload, 3, 300)]
    assert first == [op.argv for op in workloads.take(workload, 3, 300)]
    assert first != [op.argv for op in workloads.take(workload, 4, 300)]


def test_mixed_ops_name_shipped_rows():
    with open(workloads.TABLE_CSV, newline="", encoding="utf-8") as fh:
        rows = {(int(r["D"]), Fraction(r["t"])) for r in csv.DictReader(fh)}
    mixed = [op for op in _construct_ops() if op.family == "mixed"]
    assert mixed
    for op in mixed:
        flags = outputs._flags(op.argv)
        d = int(flags["c"]) - int(flags["f"])
        assert (d, Fraction(flags["t"])) in rows, op.key


def _construct_ops():
    ops = [op for seed in SEEDS for op in workloads.take("construct-mix", seed, 600)]
    return ops + [op for t in workloads.construct_templates() for op in t.space()]


def test_box_searches_always_pass_bound():
    searching = [
        op for op in _construct_ops()
        if op.argv[0] == "solve-form" or op.argv[:2] == ("construct", "thm2")
    ]
    assert searching
    for op in searching:
        assert "bound" in outputs._flags(op.argv), op.key


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_tail_percentile_is_not_on_a_cost_step(workload, seed):
    """Model a run's op times by family, then require the ops ranked near
    the tail statistic (10 ops beyond it) to cost about the same: a step
    between families there would make latency_tail_ms jump between runs."""
    costs, elapsed = [], 0.0
    for op in workloads.stream(workload, seed):
        if elapsed >= RUN_SECONDS * 1000:
            break
        cost = _model_ms(op)
        costs.append(cost)
        elapsed += cost + FORK_MS
    costs.sort()
    at = len(costs) - 11
    assert at > len(costs) // 2, "too few ops for a tail beyond the median"
    near = costs[at - 3: at + 4]
    assert max(near) <= 1.25 * min(near), (workload, near)


# ---------------------------------------------------------------------------
# the op space: every op a seed can draw has its expected outcome

def _run_in_process(parser, op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        args = parser.parse_args(list(op.argv))
        code = args.func(args)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "template", workloads.construct_templates(), ids=lambda t: t.family
)
def test_every_construct_op_has_its_expected_outcome(template):
    from quinticpoints import cli

    parser = cli.build_parser()
    for op in template.space():
        code, stdout = _run_in_process(parser, op)
        assert outputs.check(op, code, stdout) == "", op.key


def test_every_identity_check_passes_for_every_seed():
    from quinticpoints import surfaces

    for seed in workloads.IDENTITY_SEEDS:
        assert surfaces.identity_suite(only="thm1-spotchecks", seed=seed)[0].ok
    names = [c.name for c in surfaces.identity_suite(only="r1-factorization")]
    assert names == ["r1-factorization"]
    assert len(set(workloads.IDENTITY_NAMES)) == 16


# ---------------------------------------------------------------------------
# output checks and the span recorder

def test_check_rejects_a_point_off_the_hypersurface():
    from quinticpoints import cli

    op = workloads.construct_templates()[0].op((1, 1, 2, "1/2", "1", 1))
    code, stdout = _run_in_process(cli.build_parser(), op)
    assert outputs.check(op, code, stdout) == ""
    payload = json.loads(stdout)
    payload["point"]["p"] = str(Fraction(payload["point"]["p"]) + 1)
    assert outputs.check(op, code, json.dumps(payload)) != ""
    assert outputs.check(op, 1, stdout) != ""


def test_traced_op_self_times_add_up():
    assert run.load_program()
    result = run.run_op(workloads.search_op(3).argv, traced=True)
    assert result["code"] in (0, 3) and not result["error"]
    summary = result["summary"]
    main = spans.NAMES.index("cli.main")
    assert summary["calls"][main] == 1
    assert sum(summary["self_s"]) == pytest.approx(summary["time_s"][main], rel=1e-6)
    assert summary["counts"]["survivors"] > 0
    assert summary["counts"]["t_tried"] > 0


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        spans.layer_metrics()
    )
    records = [{"op_s": 0.01, "reason": "", "rss_mb": 30.0}] * 20
    metrics, _ = run.end_to_end(records, 1.0, 0.3)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: m["unit"] for name, m in metrics.items()
    }
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
