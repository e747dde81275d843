"""Time re-importing ammlab from two checkouts, interleaved in one process.

Usage, from anywhere::

    python3 scripts/bench_import.py --parent OLD_TREE --change NEW_TREE \\
        [--rounds 9] [--read Algorithm,Ecosystem,no_arbitrage_certificate] [--out BENCH.json]

One round drops every ``ammlab`` module, imports ``ammlab`` and
``ammlab.cli`` from one tree's ``src/`` and reads the ``--read`` names from
the package, then does the same for the other tree; even rounds time the
parent first, odd rounds the change.  This is the import that
``ammbench/run.py`` repeats in each set-up.  Bytecode is not written, and
the result says whether either tree had any cached; a first untimed round
loads the standard library modules both trees use.  The script prints both
sides' median and quartiles in milliseconds and the rounds the change won.

The last line of standard output is the result, in the ``BENCH_*.json``
layout; ``--out`` also appends it to that file's ``sets``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True


def reimport(tree: Path, names: list) -> float:
    """Seconds to import ammlab and ammlab.cli afresh from ``tree`` and read ``names``."""
    for name in [m for m in sys.modules if m == "ammlab" or m.startswith("ammlab.")]:
        del sys.modules[name]
    src = str(tree / "src")
    sys.path.insert(0, src)
    importlib.invalidate_caches()
    try:
        start = perf_counter()
        am = importlib.import_module("ammlab")
        importlib.import_module("ammlab.cli")
        for name in names:
            getattr(am, name)
        elapsed = perf_counter() - start
    finally:
        sys.path.remove(src)
    if Path(src) not in Path(am.__file__).resolve().parents:
        raise ImportError(f"ammlab imported from {am.__file__}, not from {src}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="tree of the change")
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--read", default="", help="comma-separated package names to read")
    parser.add_argument("--out", type=Path, help="BENCH_*.json file to append the set to")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    names = [n for n in args.read.split(",") if n]

    for tree in trees.values():
        reimport(tree, names)
    times = {"parent": [], "change": []}
    for i in range(args.rounds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            times[side].append(reimport(trees[side], names))

    result = {"kind": "reimport", "rounds": args.rounds, "read": names,
              "python": sys.version.split()[0],
              "bytecode_cached": any(any((t / "src").rglob("__pycache__")) for t in trees.values()),
              "change_won": sum(c < p for p, c in zip(times["parent"], times["change"])),
              "times_s": times}
    for side in trees:
        q1, median, q3 = statistics.quantiles(times[side], n=4)
        result[side] = {"median_s": median, "q1_s": q1, "q3_s": q3}
    result["change_over_parent"] = result["change"]["median_s"] / result["parent"]["median_s"]
    print(f"re-import of ammlab + ammlab.cli, reading {names or 'nothing'}, "
          f"{args.rounds} rounds (ms)")
    for side in trees:
        s = result[side]
        print(f"  {side:6s} median {s['median_s'] * 1e3:.1f} "
              f"[{s['q1_s'] * 1e3:.1f}, {s['q3_s'] * 1e3:.1f}]")
    print(f"  change/parent {result['change_over_parent']:.3f}, "
          f"won {result['change_won']}/{args.rounds}")
    if args.out is not None:
        record = json.loads(args.out.read_text()) if args.out.exists() else {"sets": []}
        record["sets"].append(result)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
