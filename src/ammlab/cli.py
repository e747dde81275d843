"""Command-line surface.

Subcommands: ``quote`` (price one order against an inline ecosystem),
``sweep`` (CSV curves for sandwich profits and loss fractions), ``toy``
(scripted golden scenarios), ``replay`` (counterfactual repricing of a
logged attack CSV).  Exit codes: 0 success, 1 domain/validation error,
2 usage error.  Machine output (CSV/JSON) is written at full precision and
is byte-deterministic for fixed flags; tables round to two decimals.

Importing this module loads only ``core`` and ``numeric``; each command
loads the layers it runs when it runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import operator
import sys
from fractions import Fraction
from typing import List, Optional

from .core import (
    Algorithm,
    DomainError,
    Ecosystem,
    LogFormatError,
    ReserveDepletionError,
    SIDE_X,
    SIDE_Y,
    SwapOrder,
    quote_order,
)
from .numeric import parse_number

#: The replay stages ``cmd_replay`` calls.  Each is bound in this module on
#: the first read of its attribute (PEP 562), which loads the replay layer,
#: and ``cmd_replay`` calls whatever the attribute holds at call time.
_REPLAY_STAGES = ("il_portfolio_report", "parse_log", "run_counterfactual")


def __getattr__(name: str):
    if name not in _REPLAY_STAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import replay

    value = globals()[name] = getattr(replay, name)
    return value


#: Most points one sweep range may hold; the figure script's largest is 256.
MAX_SWEEP_POINTS = 100_000


def _parse_pools(text: str) -> Ecosystem:
    pairs = []
    for chunk in text.split(","):
        try:
            x_s, y_s = chunk.split(":")
            pairs.append((parse_number(x_s), parse_number(y_s)))
        except ValueError:
            raise DomainError(f"bad pool entry {chunk!r}, expected X:Y") from None
    return Ecosystem.from_reserves(pairs)


def _parse_range(text: str) -> List[Fraction]:
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = parse_number(lo_s), parse_number(hi_s), parse_number(step_s)
    except ValueError:
        raise DomainError(f"bad range {text!r}, expected lo:hi:step") from None
    if step <= 0 or hi < lo:
        return []
    count = (hi - lo) // step + 1
    if count > MAX_SWEEP_POINTS:
        raise DomainError(f"range {text!r} has {count} points, more than {MAX_SWEEP_POINTS}")
    return [lo + k * step for k in range(count)]


def _write_csv(path: Optional[str], header: List[str], rows) -> None:
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (int, float, Fraction)) else v
                             for v in row])
    finally:
        if path:
            out.close()


def cmd_quote(args) -> int:
    eco = _parse_pools(args.pools)
    if not 0 <= args.pool_index < len(eco.pools):
        raise DomainError(f"pool index {args.pool_index} out of range")
    pool_id = eco.pools[args.pool_index].pool_id
    amount = parse_number(args.amount)
    rebalancing = args.algorithm == "gmm-rebal"  # a quote procedure, not an Algorithm
    if args.force_trigger and not rebalancing:
        raise DomainError("--force-trigger only applies to gmm-rebal")
    order = SwapOrder(pool_id, args.send, amount)
    if rebalancing:
        from .rebalance import gmm_rebal_transfers

        work = eco if order.side == SIDE_X else eco.relabeled()
        if amount > 0:
            _, quote, transfers = gmm_rebal_transfers(amount, work, pool_id, args.force_trigger)
            for t in transfers:
                print(f"transfer: {t.from_pool} -> {t.to_pool} "
                      f"amount={float(t.amount_x):.2f} received={float(t.amount_y_received):.2f}")
        else:
            quote = quote_order(work, SwapOrder(pool_id, SIDE_X, 0), Algorithm.GMM)
    else:
        quote = quote_order(eco, order, Algorithm.parse(args.algorithm))
    print(f"amount_out: {float(quote.amount_out):.2f}")
    print(f"branch: {quote.branch}")
    print(f"classification: {quote.classification}")
    return 0


def cmd_sweep(args) -> int:
    if args.curve == "mev":
        from .adversary import sandwich_profit_gmm_closed

        attacks = _parse_range(args.range)
        if not attacks:
            print("error: empty attack range", file=sys.stderr)
            return 2
        xi = parse_number(args.xi)
        victim = parse_number(args.victim)
        if Algorithm.parse(args.algorithm) is Algorithm.CPMM:
            xg = xi  # a lone pool's reserves are the global ones
        elif args.x is None:  # gmm: the flag's choices admit no other
            print("error: gmm sweep needs --x (global reserve)", file=sys.stderr)
            return 2
        else:
            xg = parse_number(args.x)
        rows = [(a, sandwich_profit_gmm_closed(xi, xg, victim, a)) for a in attacks]
        _write_csv(args.out, ["attack_dx", "profit"], rows)
        return 0

    # curve == "il"
    from .analytics import il_cpmm, il_gmm_small_pool

    if args.ratio is not None:
        ratios = [parse_number(args.ratio)]
    else:
        ratios = [r for r in _parse_range(args.ratio_range) if r > 0]
    if not ratios:
        print("error: empty ratio range", file=sys.stderr)
        return 2
    alpha = parse_number(args.alpha)
    rows = [(r, il_cpmm(1, r), il_gmm_small_pool(1, r, alpha)) for r in ratios]
    _write_csv(args.out, ["ratio", "il_cpmm", "il_gmm"], rows)
    return 0


def cmd_toy(args) -> int:
    from . import toy

    if args.part not in toy.PARTS:
        print(f"error: no part {args.part}; the parts are "
              f"{', '.join(map(str, sorted(toy.PARTS)))}", file=sys.stderr)
        return 2
    alg = None if args.algorithm is None else Algorithm.parse(args.algorithm)
    checks = toy.run_part(args.part, alg)
    width = max(len(c.name) for c in checks)
    failed = [c for c in checks if not c.ok]
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        print(f"{status}  {c.name.ljust(width)}  expected={c.expected} actual={c.actual}")
    if failed:
        print(f"error: {len(failed)} of {len(checks)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def cmd_replay(args) -> int:
    if not args.il and args.config is None:  # checked before a large log is parsed
        print("error: --config is required unless --il is given", file=sys.stderr)
        return 2
    if args.il and (args.config is not None or args.attacks_csv is not None):
        print("error: --il takes neither --config nor --attacks-csv", file=sys.stderr)
        return 2
    stages = sys.modules[__name__]  # see _REPLAY_STAGES
    records = stages.parse_log(args.log)
    if args.il:
        alphas = [parse_number(a) for a in args.alphas.split(",") if a]
        report = stages.il_portfolio_report(records, alphas, parse_number(args.lambda_threshold))
        payload = report.to_json_dict()
    else:
        from .replay import AttackOutcome, ScenarioConfig

        with open(args.config, "r", encoding="utf-8") as fh:
            config = ScenarioConfig.from_json(fh.read())
        summary = stages.run_counterfactual(records, config)
        payload = summary.to_json_dict()
        if args.attacks_csv:
            columns = [f.name for f in dataclasses.fields(AttackOutcome)]
            _write_csv(args.attacks_csv, columns,
                       map(operator.attrgetter(*columns), summary.attacks))
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    over ten times what parsing one command line does."""
    parser = argparse.ArgumentParser(
        prog="ammlab",
        description="Deterministic simulation and analytics for pooled-liquidity market makers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quote = sub.add_parser("quote", help="price one order against an inline ecosystem")
    quote.add_argument("--pools", required=True, help="comma-separated X:Y reserve pairs")
    quote.add_argument("--send", choices=[SIDE_X, SIDE_Y], default=SIDE_X)
    quote.add_argument("--amount", required=True)
    quote.add_argument("--pool-index", type=int, default=0)
    quote.add_argument("--algorithm", default="gmm",
                       choices=["cpmm", "ngmm", "gmm", "gmm-rebal"])
    quote.add_argument("--force-trigger", action="store_true",
                       help="run rebalancing even when its guard conditions fail")
    quote.set_defaults(func=cmd_quote)

    sweep = sub.add_parser("sweep", help="emit CSV curves")
    curves = sweep.add_subparsers(dest="curve", required=True)
    mev = curves.add_parser("mev", help="sandwich profit over attack size")
    mev.add_argument("--xi", required=True, help="pool reserve of the sent asset")
    mev.add_argument("--victim", required=True)
    mev.add_argument("--range", required=True, help="attack sizes lo:hi:step")
    mev.add_argument("--algorithm", default="cpmm", choices=["cpmm", "gmm"])
    mev.add_argument("--x", default=None, help="global reserve (gmm only)")
    mev.add_argument("--out", default=None)
    mev.set_defaults(func=cmd_sweep)
    il = curves.add_parser("il", help="loss fraction over final/initial price ratio")
    il.add_argument("--alpha", default="0.5")
    ratio = il.add_mutually_exclusive_group(required=True)
    ratio.add_argument("--ratio", default=None, help="single price ratio")
    ratio.add_argument("--ratio-range", default=None, help="ratios lo:hi:step")
    il.add_argument("--out", default=None)
    il.set_defaults(func=cmd_sweep)

    toy_p = sub.add_parser("toy", help="run a scripted golden scenario")
    toy_p.add_argument("--part", type=int, required=True, help="number of the scripted part")
    toy_p.add_argument("--algorithm", default=None,
                       help="override the scenario's algorithm (part 5 only)")
    toy_p.set_defaults(func=cmd_toy)

    replay = sub.add_parser("replay", help="counterfactual repricing of a logged attack CSV")
    replay.add_argument("--log", required=True)
    replay.add_argument("--config", default=None, help="scenario JSON")
    replay.add_argument("--out", default=None, help="summary JSON path (default stdout)")
    replay.add_argument("--il", action="store_true", help="portfolio loss report instead")
    replay.add_argument("--alphas", default="0.01,0.05,0.1,0.25,0.5")
    replay.add_argument("--lambda-threshold", default="10", dest="lambda_threshold")
    replay.add_argument("--attacks-csv", default=None, help="also write per-attack CSV")
    replay.set_defaults(func=cmd_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except LogFormatError as exc:
        print("error: invalid log", file=sys.stderr)
        for line, msg in exc.errors:
            print(f"  line {line}: {msg}", file=sys.stderr)
        return 1
    except (DomainError, ReserveDepletionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
