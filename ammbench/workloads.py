"""The benchmark's three workloads.

Each workload builds its whole op list from the seed at set-up, so a run's
work is fixed before timing starts; the program sees only those inputs.
``run_op`` is the timed call and touches nothing but the public ammlab API.
``after_op`` (untimed) keeps what the output checks need, and ``check``
(untimed, after the run) returns ``{execution index: reason}`` for every run whose
output is wrong.  Why each workload exists, and which layers it should and
should not move, is in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

REL_TOL = 1e-9


def _rel_close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Workload:
    """Shared sizing and rerun order.

    ``ops_per_second`` is the nominal rate on the reference machine, so a
    run of ``--seconds s`` executes about ``s * ops_per_second`` ops,
    rounded up to whole ``period``s (one period visits every input class
    once).  The run is made of passes over the workload's ``distinct`` ops:
    execution ``i`` runs distinct op ``i % distinct``, so the reruns of an
    op are spread over the whole run.
    """

    name = ""
    ops_per_second = 1.0
    period = 1
    distinct = 1

    def distinct_op(self, i: int) -> int:
        """The distinct op that execution ``i`` runs."""
        return i % self.distinct

    @classmethod
    def op_count(cls, seconds: int, traced: bool) -> int:
        periods = max(1, math.ceil(seconds * cls.ops_per_second / cls.period))
        if traced:  # every traced op also runs untraced: same run length
            periods = max(1, math.ceil(periods / 2))
        return max(2, periods * cls.period)


class ReplayLog(Workload):
    """One op is one ``ammlab replay`` job through ``ammlab.cli.main``."""

    name = "replay-log"
    logs = 25
    attacks_per_log = 250
    scenarios = ("cpmm", "gmm-beta-rational", "gmm-split-float64", "il")
    period = logs * len(scenarios)
    distinct = period
    ops_per_second = 20.0

    def __init__(self, am, seed: int, n_ops: int, workdir):
        self.am = am
        self.n_ops = n_ops
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.name}/{seed}")
        self.log_paths = []
        self.log_props = []
        # each log has its own beta and n, so every run spans the same range
        self.betas = []
        self.split_counts = []
        for j in range(self.logs):
            records = am.synthetic_attack_records(rng.randrange(2**31), self.attacks_per_log)
            path = workdir / f"log{j}.csv"
            text = am.replay.records_to_csv(records)
            path.write_text(text, encoding="utf-8")
            self.log_paths.append(path)
            fronts = [r for r in records if r.role == "frontrun"]
            self.log_props.append({
                "rows": len(records),
                "attacks": len(fronts),
                "bytes": len(text),
                "send_y_share": sum(r.token_in == "Y" for r in fronts) / len(fronts),
                "victims_per_attack": sum(r.role == "victim" for r in records) / len(fronts),
            })
            self.betas.append(Fraction(rng.randint(1, 16), 4))
            self.split_counts.append(rng.randint(2, 8))
            configs = {
                "cpmm": {"algorithm": "cpmm"},
                "gmm-beta-rational": {"algorithm": "gmm", "arithmetic": "rational",
                                      "external_reserve_multiple": str(self.betas[j])},
                "gmm-split-float64": {"algorithm": "gmm", "arithmetic": "float64",
                                      "split_count": self.split_counts[j]},
            }
            for scenario, config in configs.items():
                (workdir / f"{scenario}-{j}.json").write_text(json.dumps(config),
                                                            encoding="utf-8")
        self.combos = [(j, s) for j in range(self.logs) for s in self.scenarios]
        rng.shuffle(self.combos)
        self.runs = {}  # combo index -> [(op, output digest)]
        self.first_json = {}  # combo index -> JSON bytes of its first run

    def _argv(self, log, config: str, scenario: str, tag: str) -> list:
        out = self.workdir / f"out-{tag}"
        if scenario == "il":
            return ["replay", "--log", str(log), "--il", "--out", f"{out}.json"]
        return ["replay", "--log", str(log), "--config", str(self.workdir / f"{config}.json"),
                "--out", f"{out}.json", "--attacks-csv", f"{out}.csv"]

    def _argv_of(self, i: int) -> list:
        # Every execution writes fresh files: rewriting a file in place makes
        # ext4 flush it on close, which times the disk, not the program.
        j, scenario = self.combos[self.distinct_op(i)]
        return self._argv(self.log_paths[j], f"{scenario}-{j}", scenario, f"{j}-{scenario}-{i}")

    @staticmethod
    def _outputs(argv: list) -> list:
        flags = ("--out", "--attacks-csv")
        return [Path(argv[k + 1]) for k, arg in enumerate(argv) if arg in flags]

    def warm_up(self) -> None:
        records = self.am.synthetic_attack_records(1, 20)
        log = self.workdir / "warm.csv"
        log.write_text(self.am.replay.records_to_csv(records), encoding="utf-8")
        for scenario in self.scenarios:
            code = self.am.cli.main(self._argv(log, f"{scenario}-0", scenario, f"warm-{scenario}"))
            if code != 0:
                raise RuntimeError(f"warm-up job {scenario} exited {code}")

    def run_op(self, i: int) -> None:
        code = self.am.cli.main(self._argv_of(i))
        if code != 0:
            raise RuntimeError(f"replay job exited {code}")

    def after_op(self, i: int) -> None:
        combo = self.distinct_op(i)
        paths = self._outputs(self._argv_of(i))
        outputs = [path.read_bytes() for path in paths]
        for path in paths:
            path.unlink()
        self.first_json.setdefault(combo, outputs[0])
        self.runs.setdefault(combo, []).append((i, _sha256(outputs)))

    def check(self) -> dict:
        failures = {}
        for combo, runs in self.runs.items():
            j, scenario = self.combos[combo]
            first = runs[0][1]
            for op, digest in runs:
                if digest != first:
                    failures[op] = f"log {j} {scenario}: output differs from its first run"
            reason = self._check_payload(j, scenario, json.loads(self.first_json[combo]))
            if reason:
                for op, _ in runs:
                    failures.setdefault(op, reason)
        return failures

    def _check_payload(self, j: int, scenario: str, payload: dict):
        if scenario == "il":
            return None if payload["pairs"] else f"log {j}: empty loss report"
        if payload["attack_count"] != self.attacks_per_log or payload["excluded_pair_count"]:
            return f"log {j} {scenario}: attack count or exclusions wrong"
        if scenario != "gmm-split-float64":
            return None
        # the float64 totals must track the rational run of the same scenario
        exact = self.am.run_counterfactual(
            self.am.parse_log(str(self.log_paths[j])),
            self.am.ScenarioConfig(self.am.Algorithm.GMM, split_count=self.split_counts[j],
                                   arithmetic="rational"),
        )
        pairs = {p["pair_id"]: p for p in payload["per_pair"]}
        pairs_ok = set(pairs) == {p.pair_id for p in exact.per_pair} and all(
            _rel_close(pairs[p.pair_id]["profit_native"], float(p.profit_native))
            and _rel_close(pairs[p.pair_id]["profit_usd"], float(p.profit_usd))
            for p in exact.per_pair
        )
        total = float(exact.total_attacker_profit_usd)
        if pairs_ok and _rel_close(payload["total_attacker_profit_usd"], total):
            return None
        return f"log {j}: float64 totals differ from rational beyond {REL_TOL}"

    def digest(self) -> str:
        return _sha256(self.runs[c][0][1] for c in sorted(self.runs))

    def properties(self) -> dict:
        return {
            "logs": self.log_props,
            "rows_per_log": [p["rows"] for p in self.log_props],
            "send_y_share": sum(p["send_y_share"] for p in self.log_props) / self.logs,
            "scenarios": list(self.scenarios),
            "reserve_multiple_beta": [str(b) for b in self.betas],
            "split_count": self.split_counts,
            "jobs_per_log_scenario": self.n_ops / self.period,
        }


class CycleSearch(Workload):
    """One op is one exact ``no_arbitrage_certificate`` on a 2-4 pool
    ``Fraction`` ecosystem; ops alternate the global and the local rule.
    Each certificate runs once: at about 0.5 s an op, reruns would halve
    the ecosystems a run can hold, and with them the ops beyond p90."""

    name = "cycle-search"
    samples = 1000
    max_legs = 6
    pool_counts = (2, 3, 4)
    min_ratio_gap = Fraction(21, 20)
    period = 2 * len(pool_counts)
    ops_per_second = 2.0

    def __init__(self, am, seed: int, n_ops: int, workdir):
        self.am = am
        rng = random.Random(f"{self.name}/{seed}")
        self.distinct = n_ops
        self.cases = []
        for k in range(self.distinct):
            alg = am.Algorithm.GMM if k % 2 == 0 else am.Algorithm.CPMM
            n_pools = self.pool_counts[(k // 2) % len(self.pool_counts)]
            while True:
                eco = am.Ecosystem.from_reserves(
                    [(Fraction(rng.randint(10_000, 5_000_000)),
                      Fraction(rng.randint(10_000, 5_000_000))) for _ in range(n_pools)]
                )
                if alg is am.Algorithm.GMM or self._gap(eco) >= self.min_ratio_gap:
                    break
            self.cases.append((alg, eco, rng.randrange(2**31)))
        self.values = {}
        self._last = None

    @staticmethod
    def _gap(eco) -> Fraction:
        ratios = sorted(p.y / p.x for p in eco.pools)
        return ratios[-1] / ratios[0]

    def warm_up(self) -> None:
        for alg, eco, seed in self.cases[:2]:
            self.am.no_arbitrage_certificate(eco, 20, alg, seed=seed, max_legs=self.max_legs)

    def run_op(self, i: int) -> None:
        alg, eco, seed = self.cases[self.distinct_op(i)]
        self._last = self.am.no_arbitrage_certificate(
            eco, self.samples, alg, seed=seed, max_legs=self.max_legs
        )

    def after_op(self, i: int) -> None:
        self.values[i] = self._last

    def check(self) -> dict:
        failures = {}
        for case, value in self.values.items():
            alg = self.cases[case][0]
            if alg is self.am.Algorithm.GMM and value > 0:
                failures[case] = f"profitable cycle under the global rule: {float(value)}"
            elif alg is self.am.Algorithm.CPMM and not value > 0:
                failures[case] = "no arbitrage found on a gapped local-rule ecosystem"
        return failures

    def digest(self) -> str:
        return _sha256(self.values[i] for i in sorted(self.values))

    def properties(self) -> dict:
        local = self.am.Algorithm.CPMM
        gaps = [float(self._gap(eco)) for alg, eco, _ in self.cases if alg is local]
        return {
            "pools_per_ecosystem": dict(Counter(len(eco.pools) for _, eco, _ in self.cases)),
            "rule_share": {a.value: n / len(self.cases)
                           for a, n in Counter(alg for alg, _, _ in self.cases).items()},
            "local_rule_ratio_gap_min": min(gaps) if gaps else None,
            "samples": self.samples,
            "max_legs": self.max_legs,
        }


class SwapStream(Workload):
    """One op is 100 orders on one 8-pool float ecosystem: quotes, swaps
    and rebalancing quotes, sides mixed."""

    name = "swap-stream"
    pools = 8
    orders_per_op = 100
    scripts = 128
    checks_per_script = 8
    kinds = (("quote", 0.40), ("swap", 0.45), ("rebal", 0.15))
    distinct = scripts
    ops_per_second = 360.0

    def __init__(self, am, seed: int, n_ops: int, workdir):
        self.am = am
        rng = random.Random(f"{self.name}/{seed}")
        A = am.Algorithm
        self.plans = []
        for _ in range(self.scripts):
            eco = am.Ecosystem.from_reserves(
                [(rng.uniform(1e4, 5e6), rng.uniform(1e4, 5e6)) for _ in range(self.pools)]
            )
            biggest = max(eco.pools, key=lambda p: p.x * p.y).pool_id
            steps = []
            for kind in rng.choices([k for k, _ in self.kinds], [w for _, w in self.kinds],
                                    k=self.orders_per_op):
                side = rng.choice(("X", "Y"))
                pool = rng.choice(eco.pools)
                amount = (pool.x if side == "X" else pool.y) * rng.uniform(0.001, 0.25)
                if kind == "quote":
                    alg = rng.choice((A.CPMM, A.GMM, A.NGMM))
                    steps.append((kind, am.SwapOrder(pool.pool_id, side, amount), alg))
                elif kind == "swap":
                    alg = rng.choice((A.CPMM, A.GMM))  # ngmm can drain pools, so it only quotes
                    steps.append((kind, am.SwapOrder(pool.pool_id, side, amount), alg))
                else:
                    forced = rng.random() < 0.5
                    # only the max-product pool can pass the guard, so guarded
                    # quotes target it
                    target = pool.pool_id if forced else biggest
                    steps.append((kind, amount, target, side, forced))
            sampled = frozenset(rng.sample(range(self.orders_per_op), self.checks_per_script))
            self.plans.append((eco, steps, sampled))
        self.first = {}  # script -> (op, outputs, samples)
        self.mismatch = {}
        self._last = None
        self.checked = None
        self.worst_rel_error = None

    def warm_up(self) -> None:
        self.run_op(0)
        self._last = None

    def run_op(self, i: int) -> None:
        am = self.am
        eco, steps, sampled = self.plans[self.distinct_op(i)]
        outs = []
        samples = []
        for k, step in enumerate(steps):
            before = eco
            kind = step[0]
            if kind == "quote":
                out = am.quote_order(eco, step[1], step[2]).amount_out
            elif kind == "swap":
                eco, out = am.apply_swap(eco, step[1], step[2])
            else:
                _, amount, target, side, forced = step
                work = eco if side == "X" else eco.relabeled()
                out = am.gmm_rebal_quote(amount, work, target, force_trigger=forced)[1].amount_out
            outs.append(out)
            if k in sampled:
                samples.append((k, before))
        self._last = (outs, samples)

    def after_op(self, i: int) -> None:
        script = self.distinct_op(i)
        outs, samples = self._last
        if script not in self.first:
            self.first[script] = (i, outs, samples)
        elif outs != self.first[script][1]:
            self.mismatch[i] = "outputs differ from the first run of this order stream"

    def _exact_output(self, before, step):
        am = self.am
        exact = am.Ecosystem(tuple(am.PoolState(p.pool_id, Fraction(p.x), Fraction(p.y))
                                   for p in before.pools))
        kind = step[0]
        if kind in ("quote", "swap"):
            order = step[1]
            order = am.SwapOrder(order.pool_id, order.side, Fraction(order.amount_in))
            if kind == "quote":
                return am.quote_order(exact, order, step[2]).amount_out
            return am.apply_swap(exact, order, step[2])[1]
        _, amount, target, side, forced = step
        work = exact if side == "X" else exact.relabeled()
        _, quote = am.gmm_rebal_quote(Fraction(amount), work, target, force_trigger=forced)
        return quote.amount_out

    def check(self) -> dict:
        failures = dict(self.mismatch)
        self.checked = 0
        self.worst_rel_error = 0.0
        for script, (op, outs, samples) in self.first.items():
            steps = self.plans[script][1]
            for k, before in samples:
                exact = float(self._exact_output(before, steps[k]))
                self.checked += 1
                err = abs(exact - outs[k]) / max(abs(exact), 1e-300)
                self.worst_rel_error = max(self.worst_rel_error, err)
                if err > REL_TOL:
                    failures.setdefault(op, f"order {k}: float {outs[k]!r} vs exact {exact!r}")
        return failures

    def digest(self) -> str:
        return _sha256(self.first[s][1] for s in sorted(self.first))

    def properties(self) -> dict:
        steps = [s for _, plan, _ in self.plans for s in plan]
        kinds = Counter(s[0] for s in steps)
        sides = Counter((s[1].side if s[0] != "rebal" else s[3]) for s in steps)
        rebal = [s for s in steps if s[0] == "rebal"]
        props = {
            "pools_per_ecosystem": self.pools,
            "orders_per_op": self.orders_per_op,
            "distinct_order_streams": self.scripts,
            "kind_share": {k: n / len(steps) for k, n in sorted(kinds.items())},
            "send_y_share": sides["Y"] / len(steps),
            "rebal_forced_share": sum(s[4] for s in rebal) / len(rebal) if rebal else 0.0,
        }
        if self.checked is not None:
            props["exact_checks"] = self.checked
            props["worst_rel_error"] = self.worst_rel_error
        return props


WORKLOADS = {w.name: w for w in (ReplayLog, CycleSearch, SwapStream)}
