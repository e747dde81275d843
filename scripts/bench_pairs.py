"""Compare two checkouts on one ammbench workload in alternating pairs.

Usage, from anywhere::

    python3 scripts/bench_pairs.py --parent OLD_TREE --change NEW_TREE \\
        --workload swap-stream --seed 3 --pairs 10 [--seconds 30] [--out BENCH.json]

Each pair runs ``ammbench/run.py --trace 0`` once in each tree, each in its
own process; even pairs run the parent first, odd pairs the change.  For
every end-to-end metric the script prints both sides' median and
quartiles, the change's median over the parent's, and the pairs the change
won (by the metric's direction in the tree's ``BENCHMARK.json``), then
whether every ``output_digest`` is equal.  It needs only the standard
library, runs nothing but ``ammbench/run.py``, and imports nothing from
either tree.

The last line of standard output is the set of result lines, in the
``BENCH_*.json`` layout; ``--out`` also appends it to that file's
``sets`` (creating the file when it is missing).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> tuple:
    """One ``ammbench/run.py`` run in ``tree``: its result object and output digest."""
    proc = subprocess.run(
        [sys.executable, "ammbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result_line), json.loads(report_line)["report"]["output_digest"]


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(pairs: list, better: dict) -> dict:
    summary = {}
    for name in sorted(pairs[0]["parent"]["metrics"]):
        old = [p["parent"]["metrics"][name]["value"] for p in pairs]
        new = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if better[name] == "higher" else -1
        p1, pm, p3 = quartiles(old)
        c1, cm, c3 = quartiles(new)
        summary[name] = {
            "pairs": len(pairs),
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(old, new)),
            "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
            "change_median": cm, "change_q1": c1, "change_q3": c3,
            "change_over_parent": cm / pm if pm else None,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, help="BENCH_*.json file to append the set to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}

    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"workload": args.workload, "seed": args.seed, "first": order[0]}
        for side in order:
            tree = args.parent if side == "parent" else args.change
            pair[side], pair[f"{side}_output_digest"] = run_bench(
                tree, args.workload, args.seed, args.seconds)
        pairs.append(pair)
        ops = {side: pair[side]["metrics"]["ops_per_s"]["value"] for side in order}
        print(f"pair {i + 1}/{args.pairs}: ops_per_s parent {ops['parent']:.1f} "
              f"change {ops['change']:.1f}", file=sys.stderr)

    digests_equal = all(p["parent_output_digest"] == p["change_output_digest"] for p in pairs)
    summary = summarize(pairs, better)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds}-s runs")
    for name, s in summary.items():
        print(f"  {name:12s} parent {s['parent_median']:.6g} [{s['parent_q1']:.6g}, "
              f"{s['parent_q3']:.6g}]  change {s['change_median']:.6g} [{s['change_q1']:.6g}, "
              f"{s['change_q3']:.6g}]  won {s['change_better_pairs']}/{s['pairs']}")
    print(f"  output digests equal: {digests_equal}")

    result = {"workload": args.workload, "seed": args.seed,
              "output_digests_equal": digests_equal, "summary": summary, "pairs": pairs}
    if args.out is not None:
        record = json.loads(args.out.read_text()) if args.out.exists() else {"sets": []}
        record["sets"].append(result)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
