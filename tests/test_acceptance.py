"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them live).

Everything randomized is seeded; the exact (rational) arithmetic path is
used wherever a criterion demands exactness.
"""

import csv
import random
from fractions import Fraction as F

from ammlab import toy
from ammlab.adversary import (
    no_arbitrage_certificate,
    replay_exploit_sequence,
    sandwich_profit_beta,
    sandwich_profit_cpmm_closed,
    sandwich_profit_gmm_closed,
    sandwich_profit_nsplit,
    simulate_sandwich,
    insider_optimal_trades,
)
from ammlab.analytics import il_cpmm, il_from_trajectory, il_gmm_small_pool
from ammlab.cli import main as cli_main
from ammlab.core import (
    Algorithm,
    CONVERGENT,
    Ecosystem,
    SIDE_X,
    SIDE_Y,
    SwapOrder,
    apply_swap,
    classify_swap,
    cpmm_out,
    ngmm_out,
)
from ammlab.numeric import sqrt_bounds
from ammlab.rebalance import gmm_rebal_quote, trade_preservation_condition
from ammlab.replay import (
    ScenarioConfig,
    parse_log,
    records_to_csv,
    run_counterfactual,
    synthetic_attack_records,
)
from conftest import rand_eco


def report(number: int, label: str, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)})"
    print(f"[acceptance] criterion {number:02d} {status} - {label}")
    assert not failures, failures[:5]


def test_criterion_01_toy_golden_suite():
    failures = []
    for part in range(1, 8):
        for check in toy.run_part(part):
            if not check.ok:
                failures.append(f"part {part}: {check.name} expected {check.expected} got {check.actual}")
    report(1, "toy golden suite parts 1-7", failures)


def test_criterion_02_closed_form_simulation_equivalence():
    rng = random.Random(202)
    failures = []
    for i in range(1000):
        x_i = F(rng.randint(10_000, 5_000_000))
        extra = F(rng.randint(1, 10_000_000))
        ratio = F(rng.randint(1, 100_000), rng.randint(1, 100))
        victim = x_i * F(rng.randint(1, 60), 100)
        attack = x_i * F(rng.randint(0, 80), 100)
        x_glob = x_i + extra

        lone = Ecosystem.from_reserves([(x_i, x_i * ratio)])
        sim_local = simulate_sandwich(lone, "amm1", victim, attack, Algorithm.CPMM)
        if sim_local.attacker_profit != sandwich_profit_cpmm_closed(x_i, victim, attack):
            failures.append(f"cpmm closed form != simulation at case {i}")

        pair = Ecosystem.from_reserves([(x_i, x_i * ratio), (extra, extra * ratio)])
        sim_global = simulate_sandwich(pair, "amm1", victim, attack, Algorithm.GMM)
        closed = sandwich_profit_gmm_closed(x_i, x_glob, victim, attack)
        if sim_global.attacker_profit != closed:
            failures.append(f"global closed form != simulation at case {i}")

        beta = F(rng.randint(0, 2000), 100)
        if sandwich_profit_beta(x_i, beta, victim, attack) != sandwich_profit_gmm_closed(
            x_i, (1 + beta) * x_i, victim, attack
        ):
            failures.append(f"beta identity broken at case {i}")
        n = rng.randint(1, 8)
        if sandwich_profit_nsplit(x_glob, n, victim, attack) != sandwich_profit_gmm_closed(
            x_glob / n, x_glob, victim, attack
        ):
            failures.append(f"split identity broken at case {i}")
    report(2, "closed forms match three-leg simulation exactly on 1000 seeded configs", failures)


def test_criterion_03_no_arbitrage_search():
    failures = []
    rng = random.Random(303)
    for i in range(100):
        eco = rand_eco(rng, rng.randint(2, 4))
        best = no_arbitrage_certificate(eco, 1000, Algorithm.GMM, seed=1000 + i)
        if best > 0:
            failures.append(f"profitable cycle under the global rule, eco {i}: {float(best)}")

    found = 0
    total = 100
    rng2 = random.Random(304)
    for i in range(total):
        while True:
            eco = rand_eco(rng2, rng2.randint(2, 3))
            ratios = sorted(p.ratio for p in eco.pools)
            if ratios[-1] >= ratios[0] * F(21, 20):  # ratio gap at least 5%
                break
        best = no_arbitrage_certificate(eco, 1000, Algorithm.CPMM, seed=2000 + i)
        if best > 0:
            found += 1
    if found < 99:
        failures.append(f"local-rule arbitrage found in only {found}/100 gapped ecosystems")
    report(3, "1e5 seeded cycles: none profitable under global rule; >=99% detection under local rule", failures)


def test_criterion_04_global_sandwich_strictly_cheaper():
    rng = random.Random(404)
    failures = []
    for i in range(1000):
        x_i = F(rng.randint(10_000, 5_000_000))
        x_glob = x_i + F(rng.randint(1, 20_000_000))
        victim = x_i * F(rng.randint(1, 80), 100)
        attack = x_i * F(rng.randint(1, 100), 100)
        gmm = sandwich_profit_gmm_closed(x_i, x_glob, victim, attack)
        cpmm = sandwich_profit_cpmm_closed(x_i, victim, attack)
        if not gmm < cpmm:
            failures.append(f"case {i}: {gmm} !< {cpmm}")
    report(4, "global-rule sandwich profit strictly below local on 1000 configs", failures)


def test_criterion_05_pool_products_never_shrink():
    rng = random.Random(505)
    failures = []
    for seq in range(1000):
        eco = rand_eco(rng, rng.randint(2, 4))
        work = eco
        for _ in range(4):
            idx = rng.randrange(len(work.pools))
            side = rng.choice((SIDE_X, SIDE_Y))
            pool = work.pools[idx]
            size = (pool.x if side == SIDE_X else pool.y) * F(rng.randint(1, 60), 100)
            canonical = work if side == SIDE_X else work.relabeled()
            cls = classify_swap(size, canonical, pool.pool_id)
            naive = ngmm_out(size, canonical, pool.pool_id)
            local = cpmm_out(
                size,
                pool.x if side == SIDE_X else pool.y,
                pool.y if side == SIDE_X else pool.x,
            )
            before = pool.product
            work, _ = apply_swap(work, SwapOrder(pool.pool_id, side, size), Algorithm.GMM)
            after = work.pools[idx].product
            if after < before:
                failures.append(f"sequence {seq}: product shrank")
            if cls == CONVERGENT and naive < local and not after > before:
                failures.append(f"sequence {seq}: convergent swap did not grow the product")
    report(5, "per-pool reserve product monotone over 1000 global-rule sequences", failures)


def test_criterion_06_exploitability():
    failures = []
    eco = Ecosystem.from_reserves([(F(100), F(400_000))] * 2)
    naive = replay_exploit_sequence(eco, toy._part5_orders(eco, Algorithm.NGMM), Algorithm.NGMM)
    deltas = {pid: (dx, dy) for pid, dx, dy in naive.deltas}
    if naive.exploited != ("amm1",) or deltas["amm1"] != (-F(210, 221), F(0)):
        failures.append("documented naive-global drain not reproduced")
    guarded = replay_exploit_sequence(eco, toy._part5_orders(eco, Algorithm.GMM), Algorithm.GMM)
    if guarded.exploited:
        failures.append("global rule flagged as drained on the scripted pattern")

    rng = random.Random(606)
    for i in range(10_000):
        fuzz_eco = rand_eco(rng, rng.randint(2, 3), lo=1_000, hi=1_000_000)
        work = fuzz_eco
        try:
            for _ in range(4):
                idx = rng.randrange(len(work.pools))
                side = rng.choice((SIDE_X, SIDE_Y))
                pool = work.pools[idx]
                size = (pool.x if side == SIDE_X else pool.y) * F(rng.randint(1, 90), 100)
                work, _ = apply_swap(work, SwapOrder(pool.pool_id, side, size), Algorithm.GMM)
        except Exception as exc:  # any engine failure is a finding here
            failures.append(f"fuzz case {i} raised {exc!r}")
            continue
        for before, after in zip(fuzz_eco.pools, work.pools):
            dx, dy = after.x - before.x, after.y - before.y
            if dx <= 0 and dy <= 0 and (dx < 0 or dy < 0):
                failures.append(f"fuzz case {i}: pool {before.pool_id} drained under the global rule")
    report(6, "naive rule drains as documented; 1e4 fuzzed sequences find no global-rule witness", failures)


def test_criterion_07_impermanent_loss_grid():
    failures = []
    alphas = [F(k, 20) for k in range(1, 11)]  # 0.05 .. 0.50
    factors = [F(1, 16), F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(4, 3), F(2), F(4), F(8), F(16)]
    r_init = F(4000)
    for alpha in alphas:
        for factor in factors:
            r_new = r_init * factor
            x_small = F(1000) * alpha
            x_large = F(1000) - x_small
            eco = Ecosystem.from_reserves(
                [(x_large, x_large * r_init), (x_small, x_small * r_init)]
            )
            work = eco
            for order in insider_optimal_trades(eco, r_new):
                work, _ = apply_swap(work, order, Algorithm.GMM)
            measured_small = il_from_trajectory(eco.pools[1], work.pools[1], r_new)
            measured_large = il_from_trajectory(eco.pools[0], work.pools[0], r_new)
            closed_small = il_gmm_small_pool(r_init, r_new, alpha)
            closed_large = il_cpmm(r_init, r_new)
            if abs(float(measured_small) - float(closed_small)) > 1e-9:
                failures.append(f"(alpha={alpha}, factor={factor}): small-pool closed form off")
            if abs(float(measured_large) - float(closed_large)) > 1e-9:
                failures.append(f"(alpha={alpha}, factor={factor}): large-pool loss not local-rule")
            if not closed_small < closed_large:
                failures.append(f"(alpha={alpha}, factor={factor}): no strict loss reduction")
    report(7, "loss closed form vs trajectory within 1e-9 on the 10x10 grid, dominance strict", failures)


def test_criterion_08_rebalancing_dominates_balanced_arbitrage():
    rng = random.Random(808)
    failures = []
    for i in range(1000):
        eco = rand_eco(rng, rng.randint(2, 5))
        dx = F(rng.randint(1, 500_000))
        best_rebal = max(
            gmm_rebal_quote(dx, eco, p.pool_id)[1].amount_out for p in eco.pools
        )
        r = eco.ratio
        max_product = max(p.product for p in eco.pools)
        s_lo, s_hi = sqrt_bounds(max_product / r, bits=160)
        balanced_ub = r * s_hi * dx / (s_hi + dx)
        if not best_rebal >= balanced_ub:
            failures.append(f"eco {i}: rebalanced quote below balanced-arbitrage quote")
        if trade_preservation_condition(dx, eco).holds:
            balanced_lb = r * s_lo * dx / (s_lo + dx)
            if not best_rebal > balanced_lb:
                failures.append(f"eco {i}: preservation holds but no strict improvement")
    report(8, "rebalanced quote >= balanced-arbitrage quote on 1000 ecosystems (strict under the condition)", failures)


def _oracle_summary(csv_text: str, config: ScenarioConfig):
    """Independent recomputation: hand-rolled CSV walk plus a three-leg
    sandwich simulation per attack on an explicitly constructed ecosystem."""
    rows = list(csv.reader(csv_text.splitlines()))
    header, body = rows[0], rows[1:]
    col = {name: k for k, name in enumerate(header)}
    attacks = {}
    for row in body:
        role = row[col["role"]]
        if role not in ("frontrun", "victim"):
            continue
        aid = row[col["attack_id"]]
        token = row[col["token_in"]]
        amount = F(row[col["amount_in"]])
        entry = attacks.setdefault(aid, {"victims": F(0)})
        if role == "frontrun":
            rx = F(row[col["reserve_x_before"]])
            ry = F(row[col["reserve_y_before"]])
            entry["pair"] = row[col["pair_id"]]
            entry["attack"] = amount
            entry["x"] = rx if token == "X" else ry
            entry["y"] = ry if token == "X" else rx
            entry["price"] = F(row[col["price_usd_x" if token == "X" else "price_usd_y"]])
        else:
            entry["victims"] += amount

    total = F(0)
    count = 0
    negative = 0
    for aid in sorted(attacks):
        e = attacks[aid]
        x_i, y_i = e["x"], e["y"]
        if config.algorithm is Algorithm.CPMM:
            pools = [(x_i, y_i)]
        elif config.split_count is not None:
            n = config.split_count
            pools = [(x_i / n, y_i / n) for _ in range(n)]
        else:
            beta = config.external_reserve_multiple
            pools = [(x_i, y_i)]
            if beta > 0:
                pools.append((x_i * beta, y_i * beta))
        eco = Ecosystem.from_reserves(pools)
        alg = Algorithm.CPMM if len(pools) == 1 else Algorithm.GMM
        sim = simulate_sandwich(eco, "amm1", e["victims"], e["attack"], alg)
        profit = sim.attacker_profit
        total += profit * e["price"]
        count += 1
        if profit < 0:
            negative += 1
    return total, count, F(negative, count)


def test_criterion_09_replay_oracle_and_monotone_sweeps():
    failures = []
    records = synthetic_attack_records(seed=20230101, n_attacks=100)
    csv_text = records_to_csv(records)
    parsed = parse_log(csv_text.encode())
    if parsed != records:
        failures.append("fixture does not round-trip through the CSV interface")

    scenarios = [ScenarioConfig(Algorithm.CPMM)]
    scenarios += [
        ScenarioConfig(Algorithm.GMM, external_reserve_multiple=b)
        for b in (F(1, 100), F(1, 2), F(10))
    ]
    scenarios += [ScenarioConfig(Algorithm.GMM, split_count=n) for n in (2, 5)]
    for config in scenarios:
        summary = run_counterfactual(parsed, config)
        total, count, pct_negative = _oracle_summary(csv_text, config)
        if (summary.total_attacker_profit_usd, summary.attack_count,
                summary.pct_negative_profit) != (total, count, pct_negative):
            failures.append(f"summary != oracle for {config}")
        again = run_counterfactual(parsed[::-1], config)
        if again != summary:
            failures.append(f"summary depends on record order for {config}")

    betas = [F(0), F(1, 100), F(1, 20), F(1, 10), F(1, 2), F(1), F(3, 2), F(10)]
    beta_totals = [
        run_counterfactual(
            parsed, ScenarioConfig(Algorithm.GMM, external_reserve_multiple=b)
        ).total_attacker_profit_usd
        for b in betas
    ]
    if not all(a >= b for a, b in zip(beta_totals, beta_totals[1:])):
        failures.append("totals not monotone in the outside-reserve multiple")
    split_totals = [
        run_counterfactual(parsed, ScenarioConfig(Algorithm.GMM, split_count=n)).total_attacker_profit_usd
        for n in range(1, 6)
    ]
    if not all(a >= b for a, b in zip(split_totals, split_totals[1:])):
        failures.append("totals not monotone in the split count")
    if beta_totals[0] != run_counterfactual(parsed, ScenarioConfig(Algorithm.CPMM)).total_attacker_profit_usd:
        failures.append("beta=0 differs from the local-rule run")
    report(9, "seeded 100-attack fixture matches the independent oracle; mitigation sweeps monotone", failures)


def test_criterion_10_figure_csv_crosschecks(tmp_path):
    failures = []

    def read_rows(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        return {float(r[0]): [float(v) for v in r[1:]] for r in rows[1:]}

    cpmm_csv = tmp_path / "mev_cpmm.csv"
    rc = cli_main(["sweep", "mev", "--xi", "400000", "--victim", "40000",
                   "--range", "0:200000:1000", "--algorithm", "cpmm", "--out", str(cpmm_csv)])
    if rc != 0:
        failures.append("local-rule sweep failed")
    else:
        value = read_rows(cpmm_csv)[60_000.0][0]
        if abs(value - 10_093.46) > 10_093.46 * 1e-3:
            failures.append(f"local curve at 60000 is {value}")

    gmm_csv = tmp_path / "mev_gmm.csv"
    rc = cli_main(["sweep", "mev", "--xi", "400000", "--victim", "40000",
                   "--range", "0:200000:1000", "--algorithm", "gmm", "--x", "800000",
                   "--out", str(gmm_csv)])
    if rc != 0:
        failures.append("global-rule sweep failed")
    else:
        value = read_rows(gmm_csv)[60_000.0][0]
        if abs(value - 810.81) > 810.81 * 1e-3:
            failures.append(f"global curve at 60000 is {value}")

    for alpha in ("0.01", "0.05", "0.1", "0.25", "0.5"):
        il_csv = tmp_path / f"il_{alpha}.csv"
        rc = cli_main(["sweep", "il", "--alpha", alpha, "--ratio", "1", "--out", str(il_csv)])
        if rc != 0:
            failures.append(f"loss sweep failed for alpha={alpha}")
            continue
        values = read_rows(il_csv)[1.0]
        if values != [0.0, 0.0]:
            failures.append(f"loss at flat price not zero for alpha={alpha}: {values}")
    report(10, "figure CSVs carry the cross-checkable points", failures)
