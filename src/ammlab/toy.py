"""Scripted worked scenarios used as the golden regression gate.

Each part builds a small ecosystem with exact rational reserves, runs the
engine and compares against the published values (which are rounded to the
displayed unit, hence the loose default tolerance of one displayed unit or
0.1% relative).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .adversary import (
    best_two_pool_arbitrage,
    insider_optimal_trades,
    replay_exploit_sequence,
    simulate_sandwich,
)
from .analytics import il_cpmm, il_from_trajectory, il_gmm_small_pool
from .core import (
    Algorithm,
    BRANCH_CPMM,
    BRANCH_NGMM,
    CONVERGENT,
    DIVERGENT,
    DomainError,
    Ecosystem,
    SIDE_X,
    SIDE_Y,
    SwapOrder,
    apply_swap,
    cpmm_out,
    gmm_out,
    pool_value,
)
from .rebalance import gmm_rebal_transfers


@dataclass(frozen=True)
class Check:
    name: str
    expected: str
    actual: str
    ok: bool


def approx(name: str, expected, actual, atol: float = 0.0, rtol: float = 1e-3) -> Check:
    e, a = float(expected), float(actual)
    ok = abs(a - e) <= max(atol, rtol * abs(e))
    return Check(name, f"{e:.4f}", f"{a:.4f}", ok)


def exact(name: str, expected, actual) -> Check:
    return Check(name, str(expected), str(actual), expected == actual)


def truthy(name: str, condition: bool, detail: str = "") -> Check:
    return Check(name, "yes", "yes" if condition else f"no {detail}".strip(), bool(condition))


def _twin_pools() -> Ecosystem:
    return Ecosystem.from_reserves([(Fraction(100), Fraction(400_000))] * 2)


def part1() -> List[Check]:
    """Arbitrage between two local-pricing pools; reserves restore exactly."""
    eco = _twin_pools()
    # trader buys exactly 10 ETH from amm1 (sends Y)
    eco, got = apply_swap(eco, SwapOrder("amm1", SIDE_Y, Fraction(400_000, 9)), Algorithm.CPMM)
    checks = [exact("trader receives 10 ETH", Fraction(10), got)]
    cycle = best_two_pool_arbitrage(eco, Algorithm.CPMM)
    checks.append(approx("first arbitrage profit (UST)", 2339, cycle.value_y, atol=1.0))
    # the hand cycle: 5 ETH into amm1, then buy the 5 ETH back from amm2
    eco, ust_out = apply_swap(eco, SwapOrder("amm1", SIDE_X, Fraction(5)), Algorithm.CPMM)
    eco, eth_back = apply_swap(eco, SwapOrder("amm2", SIDE_Y, Fraction(2_000_000, 95)), Algorithm.CPMM)
    checks.append(exact("hand cycle recovers 5 ETH", Fraction(5), eth_back))
    checks.append(approx("hand cycle profit", 2339, ust_out - Fraction(2_000_000, 95), atol=1.0))
    # trader converts the 10 ETH back
    eco, back = apply_swap(eco, SwapOrder("amm1", SIDE_X, Fraction(10)), Algorithm.CPMM)
    checks.append(approx("trader gets back (UST)", 40_100, back, atol=1.0))
    cycle2 = best_two_pool_arbitrage(eco, Algorithm.CPMM)
    checks.append(approx("second arbitrage profit (UST)", 2005, cycle2.value_y, atol=1.0))
    eco, ust_out2 = apply_swap(eco, SwapOrder("amm2", SIDE_X, Fraction(5)), Algorithm.CPMM)
    eco, eth_back2 = apply_swap(eco, SwapOrder("amm1", SIDE_Y, Fraction(400_000, 21)), Algorithm.CPMM)
    checks.append(exact("second hand cycle recovers 5 ETH", Fraction(5), eth_back2))
    checks.append(approx("second hand cycle profit", 2005, ust_out2 - Fraction(400_000, 21), atol=1.0))
    restored = all(p.x == 100 and p.y == 400_000 for p in eco.pools)
    checks.append(truthy("reserves restored exactly", restored))
    return checks


def part2() -> List[Check]:
    """Sandwich against a single local-pricing pool (sent asset is UST)."""
    eco = Ecosystem.from_reserves([(Fraction(400_000), Fraction(100))])
    rep = simulate_sandwich(eco, "amm1", Fraction(40_000), Fraction(60_000), Algorithm.CPMM)
    checks = [
        approx("front-run output (ETH)", 13.0435, rep.front_out, atol=1e-3),
        approx("victim output (ETH)", 6.9565, rep.victim_out, atol=1e-3),
        approx("back-run output (UST)", 70_094, rep.back_out, atol=1.0),
        approx("attacker profit (UST)", 10_094, rep.attacker_profit, atol=1.0),
    ]
    # victim overpayment: what they would have paid for the same output pre-attack
    clean_cost = Fraction(400_000) * rep.victim_out / (100 - rep.victim_out)
    checks.append(exact("profit equals victim overpayment", Fraction(40_000) - clean_cost,
                        rep.attacker_profit))
    return checks


def part3() -> List[Check]:
    """Repricing a single pool from 4000 to 3000 and the resulting loss."""
    eco = Ecosystem.from_reserves([(Fraction(100), Fraction(400_000))])
    orders = insider_optimal_trades(eco, Fraction(3_000))
    checks = [approx("repricing trade size (ETH)", 15.47, orders[0].amount_in, atol=0.01)]
    after, _ = apply_swap(eco, orders[0], Algorithm.GMM)
    pool = after.pools[0]
    checks.append(approx("final ETH reserve", 115.47, pool.x, atol=0.01))
    checks.append(approx("final UST reserve", 346_410.16, pool.y, atol=0.01))
    measured = il_from_trajectory(eco.pools[0], pool, Fraction(3_000))
    checks.append(approx("trajectory loss fraction", 0.0103, measured, atol=1e-4))
    checks.append(approx("closed-form loss fraction", 0.0103, il_cpmm(4_000, 3_000), atol=1e-4))
    checks.append(approx("hold value (UST)", 700_000, pool_value(eco.pools[0], 3_000)))
    return checks


def part4() -> List[Check]:
    """Naive-global pricing: better terms, no arbitrage on the skewed pair."""
    eco = Ecosystem.from_reserves([(Fraction(90), Fraction(444_444)), (Fraction(100), Fraction(400_000))])
    out = apply_swap(eco, SwapOrder("amm1", SIDE_X, Fraction(10)), Algorithm.NGMM)[1]
    checks = [approx("trader gets (UST)", 42_222, out, atol=1.0)]
    # round trip: 5 ETH into amm2, proceeds back into amm1, nets exactly zero
    work, ust = apply_swap(eco, SwapOrder("amm2", SIDE_X, Fraction(5)), Algorithm.NGMM)
    checks.append(approx("arbitrage leg output (UST)", 21_652, ust, atol=1.0))
    _, eth = apply_swap(work, SwapOrder("amm1", SIDE_Y, ust), Algorithm.NGMM)
    checks.append(exact("round trip returns exactly 5 ETH", Fraction(5), eth))
    return checks


def _part5_orders(eco: Ecosystem, alg: Algorithm) -> List[SwapOrder]:
    """The four-transaction drain pattern; back legs return the exact proceeds."""
    work = eco
    o1 = SwapOrder("amm1", SIDE_X, Fraction(10))
    work, out1 = apply_swap(work, o1, alg)
    o2 = SwapOrder("amm2", SIDE_X, Fraction(10))
    work, out2 = apply_swap(work, o2, alg)
    o3 = SwapOrder("amm1", SIDE_Y, out1)
    work, _ = apply_swap(work, o3, alg)
    o4 = SwapOrder("amm2", SIDE_Y, out2)
    return [o1, o2, o3, o4]


def part5(algorithm: Optional[Algorithm] = None) -> List[Check]:
    """Draining a naive-global pool with a four-swap cycle; the global rule
    neutralizes the same pattern."""
    alg = algorithm or Algorithm.NGMM
    eco = _twin_pools()
    report = replay_exploit_sequence(eco, _part5_orders(eco, alg), alg)
    deltas = dict((pid, (dx, dy)) for pid, dx, dy in report.deltas)
    if alg is Algorithm.NGMM:
        return [
            approx("amm1 ETH drift", -0.95, deltas["amm1"][0], atol=0.01),
            exact("amm1 UST drift", Fraction(0), deltas["amm1"][1]),
            approx("amm2 ETH drift", 0.95, deltas["amm2"][0], atol=0.01),
            truthy("amm1 flagged as drained", report.exploited == ("amm1",),
                   detail=f"(flagged: {report.exploited})"),
        ]
    return [
        truthy("no pool drained", not report.exploited, detail=f"(flagged: {report.exploited})"),
        truthy("no pool weakly below start",
               all(dx > 0 or dy > 0 or (dx == 0 and dy == 0) for _, dx, dy in report.deltas)),
    ]


def part6() -> List[Check]:
    """Global rule: divergent order priced locally, zero-profit arbitrage,
    convergent order splits the old arbitrage gain."""
    eco = _twin_pools()
    quote = gmm_out(Fraction(400_000, 9), eco.relabeled(), "amm1")
    checks = [
        exact("divergent buy returns 10 ETH", Fraction(10), quote.amount_out),
        exact("priced on the local branch", BRANCH_CPMM, quote.branch),
        exact("classified divergent", DIVERGENT, quote.classification),
    ]
    eco, _ = apply_swap(eco, SwapOrder("amm1", SIDE_Y, Fraction(400_000, 9)), Algorithm.GMM)
    # arbitrage attempt: 5 ETH into amm1, proceeds into amm2, exactly zero
    work, ust = apply_swap(eco, SwapOrder("amm1", SIDE_X, Fraction(5)), Algorithm.GMM)
    checks.append(approx("arbitrage leg output (UST)", 21_652, ust, atol=1.0))
    _, eth = apply_swap(work, SwapOrder("amm2", SIDE_Y, ust), Algorithm.GMM)
    checks.append(exact("arbitrage nets exactly zero", Fraction(5), eth))
    cycle = best_two_pool_arbitrage(eco, Algorithm.GMM)
    checks.append(truthy("optimizer finds no profit", cycle.value_y <= 0,
                         detail=f"(best {float(cycle.value_y):.6f})"))
    # the reverse trade is convergent and shares the gain with the pool
    quote2 = gmm_out(Fraction(10), eco, "amm1")
    checks.append(approx("convergent sell returns (UST)", 42_222, quote2.amount_out, atol=1.0))
    checks.append(exact("priced on the global branch", BRANCH_NGMM, quote2.branch))
    checks.append(exact("classified convergent", CONVERGENT, quote2.classification))
    after, _ = apply_swap(eco, SwapOrder("amm1", SIDE_X, Fraction(10)), Algorithm.GMM)
    checks.append(approx("pool gains (UST)", 2_222, after.pools[0].y - 400_000, atol=1.0))
    # versus the all-local world of part 1 after its arbitrage
    arbitraged = Ecosystem.from_reserves([(Fraction(95), Fraction(8_000_000, 19))] * 2)
    local_quote = cpmm_out(Fraction(10), arbitraged.pools[0].x, arbitraged.pools[0].y)
    checks.append(approx("gain over arbitraged local quote", 2_122,
                         quote2.amount_out - local_quote, atol=1.0))
    return checks


def part7() -> List[Check]:
    """Sandwich under the global rule, and the rebalancing variant's quote."""
    eco = Ecosystem.from_reserves([(Fraction(400_000), Fraction(100))] * 2)
    rep = simulate_sandwich(eco, "amm1", Fraction(40_000), Fraction(60_000), Algorithm.GMM)
    checks = [
        approx("front-run output (ETH)", 13.0435, rep.front_out, atol=1e-3),
        approx("victim output (ETH)", 6.9565, rep.victim_out, atol=1e-3),
        approx("back-run output (UST)", 60_811, rep.back_out, atol=1.0),
        approx("attacker profit (UST)", 811, rep.attacker_profit, atol=1.0),
    ]
    # rebalancing example: pools (90, 440k) and (210, 760k), 1 ETH to amm2
    eco2 = Ecosystem.from_reserves(
        [(Fraction(90), Fraction(440_000)), (Fraction(210), Fraction(760_000))]
    )
    rebalanced, quote, transfers = gmm_rebal_transfers(Fraction(1), eco2, "amm2",
                                                       force_trigger=True)
    checks.append(truthy("single internal transfer", len(transfers) == 1))
    checks.append(exact("transfer sends 10 ETH", Fraction(10), transfers[0].amount_x))
    checks.append(exact("transfer priced at 40000 UST", Fraction(40_000),
                        transfers[0].amount_y_received))
    checks.append(truthy(
        "rebalanced reserves are (100,400k)+(200,800k)",
        tuple((p.x, p.y) for p in rebalanced.pools)
        == ((Fraction(100), Fraction(400_000)), (Fraction(200), Fraction(800_000))),
    ))
    checks.append(approx("trader quote (UST)", 3980.10, quote.amount_out, atol=0.01))
    return checks


def part8() -> List[Check]:
    """Two-pool insider benchmark at alpha one-half: the larger pool bears the
    local-rule loss, the other strictly less."""
    eco = _twin_pools()
    r_new = Fraction(3_000)
    orders = insider_optimal_trades(eco, r_new)
    work = eco
    for order in orders:
        work, _ = apply_swap(work, order, Algorithm.GMM)
    first, second = work.pools
    checks = [
        approx("first pool ratio hits 3000", 3000, first.ratio, rtol=1e-9),
        approx("second pool ratio hits 3000", 3000, second.ratio, rtol=1e-6),
    ]
    il_first = il_from_trajectory(eco.pools[0], first, r_new)
    il_second = il_from_trajectory(eco.pools[1], second, r_new)
    checks.append(approx("large pool loss matches local closed form",
                         il_cpmm(4_000, 3_000), il_first, rtol=1e-6))
    checks.append(approx("small pool loss matches benchmark closed form",
                         il_gmm_small_pool(4_000, 3_000, Fraction(1, 2)), il_second, rtol=1e-5))
    checks.append(truthy("small pool retains more value",
                         pool_value(second, r_new) > pool_value(first, r_new)))
    return checks


#: Each part runs with no argument; part 5 alone also takes an algorithm.
PARTS: Dict[int, Callable[..., List[Check]]] = {
    1: part1, 2: part2, 3: part3, 4: part4, 5: part5, 6: part6, 7: part7, 8: part8,
}


def run_part(number: int, algorithm: Optional[Algorithm] = None) -> List[Check]:
    """The checks of part ``number``; ``algorithm`` overrides part 5's rule
    and is a :class:`DomainError` for any other part."""
    if algorithm is None:
        return PARTS[number]()
    if number != 5:
        raise DomainError(f"only part 5 takes an algorithm, not part {number}")
    return PARTS[number](algorithm)
