"""Cold-call benchmark of the quintic-points CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A user makes one CLI call per process, so every op here runs as cold as a
fresh process: the parent process imports ``quinticpoints.cli`` once, then forks one
child per op.  The child runs ``cli.main(argv)`` with stdout captured and
reports exit code, op time and stdout over a pipe; the parent reads the
child's peak RSS from ``wait4``.  The load is a closed loop with one caller
and at most one op in flight.

Every op's output is checked (``outputs.py``) and, where the argv has a
stored golden (``golden.json``), compared byte for byte by sha256.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` each op runs twice, untraced and
traced (``spans.py``) in alternating order, and the object carries the
per-layer metrics.  Spans of the traced run are written to ``.perfbench/``
when the run ends.
"""

from __future__ import annotations

import argparse
import array
import gzip
import hashlib
import io
import json
import marshal
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

USER_ENV = dict(os.environ)
# one BLAS thread: the parent forks, and no op does linear algebra
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, str(HERE))
import outputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OP_TIMEOUT_S = 60  # a child still running after this is killed by SIGALRM
CHILD_MEMORY_HEADROOM = 1 << 30  # address space a child may add to the parent's
SETUP_REPEATS = 9
SETUP_CODE = (
    "import sys\n"
    "from quinticpoints import cli\n"
    "cli.build_parser()\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)

cli = None  # quinticpoints.cli, imported by load_program()


# ---------------------------------------------------------------------------
# one op in a forked child

def _touch_program() -> None:
    """Read every name of the program's modules and classes once.

    A forked child shares the parent's pages until it writes to them, and
    reading an object writes its reference count.  The first touch of each
    page therefore costs a copy-on-write fault that no fresh process pays.
    Doing it here, before the clock starts, keeps those faults out of the op
    time, in traced and untraced children alike."""
    for name, module in list(sys.modules.items()):
        if name.startswith("quinticpoints."):
            for value in list(vars(module).values()):
                if isinstance(value, type):
                    list(vars(value).values())


def _child(write_fd: int, argv, traced: bool) -> None:
    signal.alarm(OP_TIMEOUT_S)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        vsize = int(fh.read().split()[0]) * resource.getpagesize()
    limit = vsize + CHILD_MEMORY_HEADROOM
    if hard == resource.RLIM_INFINITY or limit < hard:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    _touch_program()
    recorder = None
    if traced:
        recorder = spans.Recorder()
        recorder.install()
    out = io.StringIO()
    sys.stdout, sys.stderr, sys.stdin = out, io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - reported to the parent as a failed op
        code = None
        error = traceback.format_exc()
    op_s = time.perf_counter() - start
    result = {"code": code, "op_s": op_s, "stdout": out.getvalue(), "error": error}
    if recorder is not None:
        result["summary"] = recorder.summary()
        result["spans"] = recorder.span_arrays()
    with os.fdopen(write_fd, "wb") as fh:
        fh.write(marshal.dumps(result))


def run_op(argv, traced: bool = False) -> dict:
    """Run one CLI call in a forked child; the result carries ``code``,
    ``op_s``, ``stdout``, ``error`` and ``rss_mb``."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            _child(write_fd, argv, traced)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        return {
            "code": None, "op_s": None, "stdout": "", "rss_mb": usage.ru_maxrss / 1024,
            "error": f"child ended with wait status {status}",
        }
    result = marshal.loads(data)
    result["rss_mb"] = usage.ru_maxrss / 1024
    return result


def judge(op, result, golden: dict) -> str:
    """'' for a correct op, else why it failed."""
    if result["code"] is None:
        return result["error"].strip().splitlines()[-1] if result["error"] else "crashed"
    reason = outputs.check(op, result["code"], result["stdout"])
    if reason:
        return reason
    expected = golden.get(op.key)
    if expected is not None:
        digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
        if [result["code"], digest] != expected:
            return "stdout or exit code differs from the golden"
    return ""


# ---------------------------------------------------------------------------
# set-up cost of a fresh process

class SetupSampler:
    """Wall time from spawning a fresh interpreter to the CLI module imported
    and its parser built.

    Samples are spread over the run (the loop's clock is paused while one
    is taken), so a slow spell of the machine moves their median less.  One
    untimed spawn first makes sure the bytecode cache exists, as it does for
    any user after the first call."""

    def __init__(self, seconds: float, repeats: int = SETUP_REPEATS):
        self.due = [seconds * i / repeats for i in range(repeats)]
        self.times: list[float] = []
        self.env = dict(USER_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), USER_ENV.get("PYTHONPATH", "")) if p
        )
        self._spawn()

    def _spawn(self) -> float:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE, env=self.env
        )
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line != b"ready\n":
            raise RuntimeError("a fresh interpreter could not import quinticpoints.cli")
        return ready - start

    def maybe_sample(self, loop_s: float) -> float:
        """Take the samples due by loop time ``loop_s``; returns the time spent."""
        spent = 0.0
        while self.due and self.due[0] <= loop_s:
            self.due.pop(0)
            start = time.perf_counter()
            self.times.append(self._spawn())
            spent += time.perf_counter() - start
        return spent

    def median(self) -> float:
        self.maybe_sample(float("inf"))
        return statistics.median(self.times)


# ---------------------------------------------------------------------------
# metrics

def tail(values):
    """(value, percentile, beyond): the highest order statistic with at
    least ten samples above it, or the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def family_medians(ops, records) -> str:
    """Median op time per op family, to show which family sets which
    percentile."""
    by_family: dict[str, list[float]] = {}
    for op, r in zip(ops, records):
        if r["op_s"] is not None:
            by_family.setdefault(op.family, []).append(r["op_s"] * 1000)
    return "family p50 ms: " + ", ".join(
        f"{fam} {statistics.median(v):.1f} (n={len(v)})"
        for fam, v in sorted(by_family.items(), key=lambda kv: statistics.median(kv[1]))
    )


def end_to_end(records, elapsed: float, setup_s: float) -> tuple[dict, list[str]]:
    lat_ms = [r["op_s"] * 1000 for r in records if r["op_s"] is not None]
    failed = sum(1 for r in records if r["reason"])
    tail_ms, pct, beyond = tail(lat_ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(records) / elapsed, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "ok_frac": ((len(records) - failed) / len(records), "ratio"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
    }
    notes = {
        "latency_tail_ms": f"p{pct:.1f} of {len(lat_ms)} ops, {beyond} beyond",
        "ops_per_s": f"{len(records)} ops in {elapsed:.2f} s",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters spread over the run",
    }
    lines = [
        f"{name:<18} {value:>12.4f} {unit:<6} {notes.get(name, '')}"
        for name, (value, unit) in metrics.items()
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(pairs) -> tuple[dict, list[str]]:
    """Per traced op means of calls, inclusive and self time, the counters,
    and the tracing overhead from the paired untraced runs."""
    traced = [t for _, t in pairs if t.get("summary")]
    n = max(len(traced), 1)
    values = {}
    for i, name in enumerate(spans.NAMES):
        for field in ("calls", "time_s", "self_s"):
            values[f"{name}.{field}"] = sum(t["summary"][field][i] for t in traced) / n

    def count(key):
        return sum(t["summary"]["counts"][key] for t in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    survivors = count("survivors")
    values["elliptic.search_points.survivors"] = survivors / n
    values["elliptic.search_points.hit_ratio"] = ratio(count("points_found"), survivors)
    values["elliptic.conjecture2_search.t_tried"] = count("t_tried") / n
    values["quadform.find_zero.cells"] = count("cells") / n
    values["quadform.find_zero.hit_ratio"] = ratio(count("zero_hits"), count("zero_calls"))
    values["poly.MultiPoly.mul.terms_out"] = count("terms_out") / n
    for cached in spans.CACHED:
        hits = count(f"{cached}.hits")
        values[f"{cached}.cache_hit_ratio"] = ratio(hits, hits + count(f"{cached}.misses"))
    untraced_s = sum(u["op_s"] for u, t in pairs if t.get("summary"))
    traced_s = sum(t["op_s"] for t in traced)
    values["trace.overhead_ratio"] = ratio(traced_s, untraced_s)

    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in spans.layer_metrics()
    }
    self_sum = sum(values[f"{name}.self_s"] for name in spans.NAMES)
    lines = [
        f"{name:<52} {m['value']:>14.6g} {m['unit']}"
        for name, m in metrics.items()
        if m["value"] or name.startswith("trace.")
    ]
    lines.append(
        f"self-time coverage: sum of self_s {self_sum * 1000:.3f} ms/op, "
        f"traced op {traced_s / n * 1000:.3f} ms/op, "
        f"untraced op {untraced_s / n * 1000:.3f} ms/op, "
        f"{count('spans') / n:.0f} spans/op"
    )
    return metrics, lines


def write_spans(workload: str, seed: int, ops, pairs) -> Path:
    """Write the traced run's spans: a header line naming the wrapped
    functions, then per op one JSON line with its argv and the span arrays
    (function index, parent span or -1, start and end in perf_counter s)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps({"names": spans.NAMES}) + "\n")
        for op, (_, traced) in zip(ops, pairs):
            arrays = traced.get("spans")
            if arrays is None:
                continue
            record = {"argv": list(op.argv)}
            for key, code in (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
                record[key] = array.array(code, arrays[key]).tolist()
            fh.write(json.dumps(record) + "\n")
    return path


# ---------------------------------------------------------------------------
# the run

def load_golden(workload: str) -> dict:
    path = HERE / "golden.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["ops"].get(workload, {})


def load_program() -> bool:
    """Import quinticpoints.cli from the checkout's sources, once."""
    global cli
    if not (SRC / "quinticpoints" / "cli.py").is_file():
        return False
    if cli is None:
        sys.path.insert(0, str(SRC))
        from quinticpoints import cli as module

        cli = module
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not load_program():
        print(f"no quinticpoints sources under {SRC}", file=sys.stderr)
        return 2
    golden = load_golden(args.workload)
    setup = None if args.trace else SetupSampler(args.seconds)

    ops, records, pairs = [], [], []
    stream = workloads.stream(args.workload, args.seed)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        if setup is not None:
            start += setup.maybe_sample(time.perf_counter() - start)
        op = next(stream)
        ops.append(op)
        if args.trace:
            # alternate which child runs first, so order does not bias the overhead
            first = len(ops) % 2 == 0
            runs = [run_op(op.argv, traced=first), run_op(op.argv, traced=not first)]
            runs.sort(key=lambda r: "summary" in r)
            pairs.append(tuple(runs))
        else:
            runs = [run_op(op.argv)]
        for result in runs:
            result["reason"] = judge(op, result, golden)
            if result["reason"]:
                print(f"FAILED {op.key}: {result['reason']}", file=sys.stderr)
            records.append(result)
    elapsed = time.perf_counter() - start

    failed = sum(1 for r in records if r["reason"])
    checked = sum(1 for op in ops if op.key in golden)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, "
          f"{failed} failed, {checked} compared with golden outputs")
    if args.trace:
        metrics, lines = per_layer(pairs)
        path = write_spans(args.workload, args.seed, ops, pairs)
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(records, elapsed, setup.median())
        lines.append(family_medians(ops, records))
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
