"""Write golden.json: the exit code and sha256 of stdout of every op in the
golden set, each run as a cold call and checked first.

    python3 perfbench/golden.py

The set is the first ops of the default seed (0) of construct-mix, and the
whole op space of the other three workloads, so their goldens apply to every
seed.  Regenerate only when a change of output is intended.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys

import run
import workloads

CONSTRUCT_PREFIX = 1000


def golden_ops() -> dict[str, list]:
    return {
        "construct-mix": workloads.take("construct-mix", 0, CONSTRUCT_PREFIX),
        "identities": [
            workloads.Op(name, ("verify-identities", f"--only={name}", f"--seed={s}"))
            for name, s in itertools.product(
                workloads.IDENTITY_NAMES, workloads.IDENTITY_SEEDS
            )
        ],
        "table-verify": [
            workloads.verify_op(d) for d in range(1, workloads.VERIFY_DMAX + 1)
        ],
        "table-search": [
            workloads.search_op(d) for d in range(1, workloads.SEARCH_DMAX + 1)
        ],
    }


def main() -> int:
    if not run.load_program():
        print("quinticpoints sources not found", file=sys.stderr)
        return 2
    out = {"seed": 0, "ops": {}}
    bad = 0
    for workload, ops in golden_ops().items():
        table = {}
        for op in ops:
            if op.key in table:
                continue
            result = run.run_op(op.argv)
            reason = run.judge(op, result, {})
            if reason:
                bad += 1
                print(f"FAILED {op.key}: {reason}", file=sys.stderr)
                continue
            table[op.key] = [result["code"], hashlib.sha256(result["stdout"].encode()).hexdigest()]
        out["ops"][workload] = table
        print(f"{workload}: {len(table)} goldens")
    if bad:
        print(f"{bad} ops failed; golden.json not written", file=sys.stderr)
        return 1
    with open(run.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
