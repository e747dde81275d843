"""Run one ammlab benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 ammbench/run.py --workload cycle-search --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs every op both untraced and
traced and reports the per-layer metrics, including the tracing overhead.
The last line of standard output is the result object; the line before it
is a report with run metadata, input properties and failures, also saved
under ``.ammbench/`` with the traced run's spans.  The program is
imported from ``src/`` beside this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

# Compile the program from source on every run, the same way each time,
# and leave nothing behind in the source tree.
sys.dont_write_bytecode = True

from tracing import Tracer, per_layer_metrics, trace_shares  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".ammbench"
SETUP_REPS = 3
TOY_PARTS = range(1, 9)


def import_program():
    """Import ammlab afresh (dropping any earlier import) from ``src/``."""
    for name in [m for m in sys.modules if m == "ammlab" or m.startswith("ammlab.")]:
        del sys.modules[name]
    am = importlib.import_module("ammlab")
    importlib.import_module("ammlab.cli")
    if SRC not in Path(am.__file__).resolve().parents:
        raise ImportError(f"ammlab imported from {am.__file__}, not from {SRC}")
    return am


def set_up(workload_cls, seed: int, n_ops: int, workdir: Path):
    """Import, generate inputs and warm up, ``SETUP_REPS`` times; returns
    the last set-up's program and workload and the median set-up time."""
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        am = import_program()
        workload = workload_cls(am, seed, n_ops, workdir)
        workload.warm_up()
        times.append(perf_counter() - start)
    return am, workload, statistics.median(times), times


def preflight(am) -> list:
    """Toy parts 1-8 (the golden gate); returns the names of failed checks."""
    failed = []
    for part in TOY_PARTS:
        try:
            failed += [f"part {part}: {c.name}" for c in am.toy.run_part(part) if not c.ok]
        except Exception as exc:  # a crashing part fails the pre-flight
            failed.append(f"part {part}: {type(exc).__name__}: {exc}")
    return failed


def timed(workload, i: int, errors: dict, tracer: Tracer = None) -> float:
    """Wall time of op ``i``; with a tracer, the op is traced as one span tree."""
    failed = False
    start = perf_counter()
    frame = tracer.begin_op(i) if tracer else None
    try:
        workload.run_op(i)
    except Exception as exc:  # a raising op is a failed op, not a failed run
        errors[i] = f"{type(exc).__name__}: {exc}"
        failed = True
    finally:
        if frame:
            tracer.end_op(frame)
    elapsed = perf_counter() - start
    if not failed:
        workload.after_op(i)
    return elapsed


def measure(workload, n_ops: int, errors: dict) -> list:
    return [timed(workload, i, errors) for i in range(n_ops)]


def measure_traced(workload, n_ops: int, errors: dict, tracer: Tracer):
    """Run each op untraced and traced, alternating which goes first."""
    plain, traced = [], []
    for i in range(n_ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(timed(workload, i, errors))
                continue
            tracer.install()
            try:
                traced.append(timed(workload, i, errors, tracer))
            finally:
                tracer.uninstall()
    return plain, traced


def metadata(seed: int) -> dict:
    git_sha = None  # a checkout without .git (an export) has none
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        head = (git / "HEAD").read_text().strip()
        ref = head[5:] if head.startswith("ref: ") else None
        if ref is None:
            git_sha = head
        elif (git / ref).is_file():
            git_sha = (git / ref).read_text().strip()
        elif (git / "packed-refs").is_file():
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    git_sha = line.split()[0]
    source = hashlib.sha256()
    for path in sorted((SRC / "ammlab").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ammlab" / "__init__.py").is_file():
        print(f"error: no ammlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload_cls = WORKLOADS[args.workload]
    n_ops = workload_cls.op_count(args.seconds, bool(args.trace))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        am, workload, setup_s, setup_times = set_up(workload_cls, args.seed, n_ops, workdir)
        preflight_failures = preflight(am)
        gc.collect()
        errors: dict = {}
        tracer = None
        wall_start = perf_counter()
        if args.trace:
            tracer = Tracer()
            times, traced = measure_traced(workload, n_ops, errors, tracer)
        else:
            times = measure(workload, n_ops, errors)
        wall_s = perf_counter() - wall_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            failures = workload.check()
        except Exception as exc:  # a check that cannot run passes no op
            failures = {i: f"check raised {type(exc).__name__}: {exc}" for i in range(n_ops)}
        failures.update(errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(tracer, sum(traced) / sum(times))
    else:
        # An op's time is the least of its reruns: other tenants of a shared
        # machine only ever add time, in spells of seconds.
        best: dict = {}
        for i, elapsed in enumerate(times):
            key = workload.distinct_op(i)
            best[key] = min(elapsed, best.get(key, elapsed))
        op_times = list(best.values())
        deciles = statistics.quantiles(op_times, n=10)
        metrics = {
            "ops_per_s": {"value": len(op_times) / sum(op_times), "unit": "1/s"},
            "op_s.p50": {"value": statistics.median(op_times), "unit": "s"},
            "op_s.p90": {"value": deciles[8], "unit": "s"},
            "ok_ratio": {"value": (n_ops - len(failures)) / n_ops, "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": n_ops,
        "wall_s": wall_s,
        "setup_s_each": setup_times,
        "meta": metadata(args.seed),
        "output_digest": workload.digest(),
        "input_properties": workload.properties(),
        "preflight_failures": preflight_failures,
        "failures": {str(i): reason for i, reason in sorted(failures.items())},
    }
    if tracer is not None:
        spans_path = OUT / f"spans-{tag}.csv"
        report["spans"] = {"file": str(spans_path.relative_to(ROOT)),
                           "count": tracer.write_spans(spans_path)}
        report["layers"] = tracer.layers()
        report["trace_counters"] = tracer.counters
        report["trace_shares"] = trace_shares(tracer)
        report["trace_sites_missing"] = tracer.missing
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=2, default=str) + "\n")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": not failures and not preflight_failures,
        "attempted": n_ops,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
