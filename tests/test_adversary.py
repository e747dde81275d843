import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammlab import adversary
from ammlab.adversary import (
    SandwichSpec,
    best_two_pool_arbitrage,
    insider_final_small_reserve,
    insider_optimal_trades,
    no_arbitrage_certificate,
    replay_exploit_sequence,
    sandwich_profit_beta,
    sandwich_profit_cpmm_closed,
    sandwich_profit_gmm_closed,
    sandwich_profit_nsplit,
    simulate_sandwich,
)
from ammlab.core import (
    Algorithm,
    DomainError,
    Ecosystem,
    SIDE_X,
    SIDE_Y,
    SwapOrder,
    apply_swap,
)
from ammlab.toy import _part5_orders

sizes = st.fractions(min_value=F(1, 10), max_value=F(300_000), max_denominator=10**3)
reserves = st.fractions(min_value=F(10**4), max_value=F(10**7), max_denominator=10**3)


def sandwich_pool(x=400_000, y=100, copies=1):
    """Pools oriented so the sent asset is the numeraire (UST)."""
    return Ecosystem.from_reserves([(F(x), F(y))] * copies)


def equal_ratio_pair(x_i, x_global, ratio):
    assert x_global > x_i
    return Ecosystem.from_reserves(
        [(x_i, x_i * ratio), (x_global - x_i, (x_global - x_i) * ratio)]
    )


class TestSimulateSandwich:
    def test_toy_local_attack(self):
        rep = simulate_sandwich(
            sandwich_pool(), SandwichSpec("amm1", F(40_000), F(60_000)), Algorithm.CPMM
        )
        assert float(rep.attacker_profit) == pytest.approx(10_093.46, abs=0.01)
        assert float(rep.victim_out) == pytest.approx(6.9565, abs=1e-4)
        assert len(rep.trajectory) == 4

    def test_toy_global_attack(self):
        rep = simulate_sandwich(
            sandwich_pool(copies=2), SandwichSpec("amm1", F(40_000), F(60_000)), Algorithm.GMM
        )
        assert float(rep.attacker_profit) == pytest.approx(810.81, abs=0.01)
        # the untouched twin never moves
        for eco in rep.trajectory:
            assert eco.pools[1] == rep.trajectory[0].pools[1]

    def test_zero_attack_is_neutral(self):
        clean = simulate_sandwich(
            sandwich_pool(), SandwichSpec("amm1", F(40_000), F(0)), Algorithm.CPMM
        )
        assert clean.attacker_profit == 0
        assert clean.victim_out == F(100) * 40_000 / F(440_000)

    def test_victim_overpayment_equals_profit(self):
        eco = sandwich_pool()
        rep = simulate_sandwich(eco, SandwichSpec("amm1", F(40_000), F(60_000)), Algorithm.CPMM)
        # cost of the same output against the untouched pool
        clean_cost = F(400_000) * rep.victim_out / (100 - rep.victim_out)
        assert F(40_000) - clean_cost == rep.attacker_profit


class TestClosedForms:
    def test_local_golden_values(self):
        assert float(sandwich_profit_cpmm_closed(F(400_000), F(40_000), F(60_000))) == pytest.approx(
            10_093.46, abs=0.01
        )
        assert sandwich_profit_cpmm_closed(F(400_000), F(40_000), F(0)) == 0

    def test_local_matches_simulation_oracle(self):
        # independent oracle for the (victim 40k, attack 20k) point
        rep = simulate_sandwich(
            sandwich_pool(), SandwichSpec("amm1", F(40_000), F(20_000)), Algorithm.CPMM
        )
        closed = sandwich_profit_cpmm_closed(F(400_000), F(40_000), F(20_000))
        assert closed == rep.attacker_profit
        assert float(closed) == pytest.approx(3882.62, abs=0.01)

    def test_global_golden_values(self):
        profit = sandwich_profit_gmm_closed(F(400_000), F(800_000), F(40_000), F(60_000))
        assert float(profit) == pytest.approx(810.81, abs=0.01)
        assert sandwich_profit_gmm_closed(F(400_000), F(800_000), F(40_000), F(0)) == 0

    def test_global_degenerates_to_local(self):
        assert sandwich_profit_gmm_closed(
            F(400_000), F(400_000), F(40_000), F(60_000)
        ) == sandwich_profit_cpmm_closed(F(400_000), F(40_000), F(60_000))

    def test_global_reserve_domain(self):
        with pytest.raises(DomainError):
            sandwich_profit_gmm_closed(F(400_000), F(300_000), F(1), F(1))

    @given(x_i=reserves, extra=reserves, ratio=st.fractions(F(1, 100), F(10**4), max_denominator=100),
           victim=sizes, attack=sizes)
    @settings(max_examples=150, deadline=None)
    def test_closed_forms_equal_simulation_exactly(self, x_i, extra, ratio, victim, attack):
        eco = equal_ratio_pair(x_i, x_i + extra, ratio)
        sim = simulate_sandwich(eco, SandwichSpec("amm1", victim, attack), Algorithm.GMM)
        assert sim.attacker_profit == sandwich_profit_gmm_closed(x_i, x_i + extra, victim, attack)
        lone = Ecosystem.from_reserves([(x_i, x_i * ratio)])
        sim_local = simulate_sandwich(lone, SandwichSpec("amm1", victim, attack), Algorithm.CPMM)
        assert sim_local.attacker_profit == sandwich_profit_cpmm_closed(x_i, victim, attack)

    @given(x_i=reserves, beta=st.fractions(F(0), F(20), max_denominator=100),
           victim=sizes, attack=sizes)
    @settings(max_examples=150)
    def test_beta_form_is_global_form(self, x_i, beta, victim, attack):
        assert sandwich_profit_beta(x_i, beta, victim, attack) == sandwich_profit_gmm_closed(
            x_i, (1 + beta) * x_i, victim, attack
        )

    @given(x_global=reserves, n=st.integers(1, 12), victim=sizes, attack=sizes)
    @settings(max_examples=150)
    def test_nsplit_form_is_global_form(self, x_global, n, victim, attack):
        assert sandwich_profit_nsplit(x_global, n, victim, attack) == sandwich_profit_gmm_closed(
            x_global / n, x_global, victim, attack
        )

    def test_beta_golden_and_monotone(self):
        assert sandwich_profit_beta(F(400_000), F(0), F(40_000), F(60_000)) == \
            sandwich_profit_cpmm_closed(F(400_000), F(40_000), F(60_000))
        assert float(sandwich_profit_beta(F(400_000), F(1), F(40_000), F(60_000))) == pytest.approx(
            810.81, abs=0.01
        )
        profits = [
            sandwich_profit_beta(F(400_000), F(b), F(40_000), F(60_000))
            for b in ("0", "0.01", "0.05", "0.1", "0.5", "1", "1.5", "10", "100")
        ]
        assert all(a > b for a, b in zip(profits, profits[1:]))

    def test_nsplit_golden_and_monotone(self):
        assert sandwich_profit_nsplit(F(800_000), 1, F(40_000), F(60_000)) == \
            sandwich_profit_cpmm_closed(F(800_000), F(40_000), F(60_000))
        assert float(sandwich_profit_nsplit(F(800_000), 2, F(40_000), F(60_000))) == pytest.approx(
            810.81, abs=0.01
        )
        profits = [sandwich_profit_nsplit(F(800_000), n, F(40_000), F(60_000)) for n in range(1, 8)]
        assert all(a > b for a, b in zip(profits, profits[1:]))
        for bad_n in (0, True):
            with pytest.raises(DomainError):
                sandwich_profit_nsplit(F(800_000), bad_n, F(1), F(1))

    @given(x_i=reserves, extra=st.fractions(F(1), F(10**7), max_denominator=10),
           victim=sizes, attack=st.fractions(F(1), F(300_000), max_denominator=10**3))
    @settings(max_examples=150)
    def test_global_strictly_cheaper_than_local(self, x_i, extra, victim, attack):
        # strict mitigation whenever there is any outside liquidity
        gmm = sandwich_profit_gmm_closed(x_i, x_i + extra, victim, attack)
        cpmm = sandwich_profit_cpmm_closed(x_i, victim, attack)
        assert gmm < cpmm


class TestTwoPoolArbitrage:
    def post_trade_eco(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000))] * 2)
        eco, _ = apply_swap(eco, SwapOrder("amm1", SIDE_Y, F(400_000, 9)), Algorithm.CPMM)
        return eco

    def test_finds_the_toy_cycle(self):
        cycle = best_two_pool_arbitrage(self.post_trade_eco(), Algorithm.CPMM)
        assert float(cycle.value_y) >= 2339.0
        assert float(cycle.value_y) == pytest.approx(2339.18, abs=0.01)
        assert cycle.start_side == SIDE_Y
        assert cycle.net_x == 0

    def test_global_rule_leaves_nothing(self):
        eco = self.post_trade_eco()
        cycle = best_two_pool_arbitrage(eco, Algorithm.GMM)
        assert cycle.value_y <= 0
        # the hand-picked 5 ETH cycle nets exactly zero
        work, ust = apply_swap(eco, SwapOrder("amm1", SIDE_X, F(5)), Algorithm.GMM)
        _, eth = apply_swap(work, SwapOrder("amm2", SIDE_Y, ust), Algorithm.GMM)
        assert eth == 5

    def test_equal_ratio_has_no_profit(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000)), (F(55), F(220_000))])
        for alg in (Algorithm.CPMM, Algorithm.GMM):
            assert best_two_pool_arbitrage(eco, alg).value_y <= 0

    def test_legs_are_executable(self):
        cycle = best_two_pool_arbitrage(self.post_trade_eco(), Algorithm.CPMM)
        work = self.post_trade_eco()
        for order, expected_out in zip(cycle.legs, cycle.leg_outputs):
            work, out = apply_swap(work, order, Algorithm.CPMM)
            assert out == expected_out

    def test_needs_two_pools(self):
        with pytest.raises(DomainError):
            best_two_pool_arbitrage(Ecosystem.from_reserves([(F(1), F(1))]), Algorithm.CPMM)


class TestCertificate:
    def test_global_rule_certified_nonprofitable(self):
        eco = Ecosystem.from_reserves([(F(90), F(444_444)), (F(100), F(400_000))])
        assert no_arbitrage_certificate(eco, 2_000, Algorithm.GMM, seed=11) <= 0

    def test_local_rule_yields_the_toy_profit(self):
        eco = Ecosystem.from_reserves([(F(90), F(4_000_000, 9)), (F(100), F(400_000))])
        best = no_arbitrage_certificate(eco, 2_000, Algorithm.CPMM, seed=11)
        assert float(best) >= 2339.0

    def test_single_pool_round_trips_lose(self):
        eco = Ecosystem.from_reserves([(F(1_000), F(2_000_000))])
        for alg in (Algorithm.CPMM, Algorithm.GMM):
            assert no_arbitrage_certificate(eco, 1_000, alg, seed=5) <= 0

    # Exact certificates of 200 samples on seeded ecosystems, recorded before
    # the random phase screened its cycles in float: the values must not move.
    # The runs without the refined phase are the best random cycle alone, so
    # they pin the RNG stream; under the naive rule some cycles drain a pool.
    GOLDEN = [
        (Algorithm.GMM, 2, 11, True, F(0)),
        (Algorithm.GMM, 4, 13, True, F(0)),
        (Algorithm.CPMM, 3, 22, True,
         F("1229671813807598933963838862399085145/564324292325044291839533565056")),
        (Algorithm.CPMM, 2, 41, False, F("3344312429108024731/385361344643040")),
        (Algorithm.CPMM, 3, 42, False, F("10717738206745299/75113176192")),
        (Algorithm.CPMM, 4, 43, False, F("346803695555788588742645/149680467126371254")),
        (Algorithm.NGMM, 3, 32, True, F(0)),
        (Algorithm.NGMM, 2, 51, False, F(0)),
    ]

    @pytest.mark.parametrize("alg,n_pools,seed,refined,expected", GOLDEN)
    def test_golden_certificates(self, alg, n_pools, seed, refined, expected):
        rng = random.Random(seed)
        eco = Ecosystem.from_reserves(
            [(F(rng.randint(10_000, 5_000_000)), F(rng.randint(10_000, 5_000_000)))
             for _ in range(n_pools)]
        )
        value = no_arbitrage_certificate(eco, 200, alg, seed=seed, include_refined=refined)
        assert value == expected


def _screen_case(data):
    """A Fraction ecosystem of 1-4 pools, independent, equal-ratio or within
    a relative 1e-12 of one ratio, and a pricing rule."""
    n = data.draw(st.integers(1, 4))
    shape = data.draw(st.sampled_from(("free", "equal", "near")))
    ratio = data.draw(st.fractions(F(1, 1000), F(1000), max_denominator=1000))
    pairs = []
    for _ in range(n):
        x = data.draw(st.fractions(F(1, 10), F(10**7), max_denominator=1000))
        if shape == "free":
            y = data.draw(st.fractions(F(1, 10), F(10**7), max_denominator=1000))
        elif shape == "equal":
            y = x * ratio
        else:
            y = x * ratio * (1 + F(data.draw(st.integers(-1000, 1000)), 10**15))
        pairs.append((x, y))
    alg = data.draw(st.sampled_from((Algorithm.CPMM, Algorithm.GMM, Algorithm.NGMM)))
    return Ecosystem.from_reserves(pairs), alg


class TestFloatScreen:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_bound_holds_or_cycle_is_flagged(self, data):
        eco, alg = _screen_case(data)
        max_legs = data.draw(st.integers(2, 8))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        shadow = adversary._shadow(eco)
        assert shadow is not None
        for _ in range(12):
            plan = []
            screened = adversary._screen_cycle(shadow, alg, rng, max_legs, plan)
            if screened is None:  # flagged: the exact pass draws the rest
                adversary._cycle_value(eco, alg, adversary._Replay(rng, plan), max_legs, True)
                continue
            value, err = screened
            replay = adversary._Replay(None, plan)  # no live draws may be left
            exact = adversary._cycle_value(eco, alg, replay, max_legs, True)
            assert replay._next == len(plan)
            assert exact is not None
            assert abs(exact - F(value)) <= F(err)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_screened_certificate_equals_exact_one(self, data):
        eco, alg = _screen_case(data)
        seed = data.draw(st.integers(0, 2**16))
        refined = data.draw(st.booleans())
        screened = no_arbitrage_certificate(eco, 40, alg, seed=seed, include_refined=refined)
        original = adversary._shadow
        adversary._shadow = lambda _eco: None  # every cycle exact, as before screening
        try:
            exact = no_arbitrage_certificate(eco, 40, alg, seed=seed, include_refined=refined)
        finally:
            adversary._shadow = original
        assert screened == exact

    def test_out_of_range_reserves_are_not_screened(self):
        assert adversary._shadow(Ecosystem.from_reserves([(F(1), F(2) ** 101)])) is None
        assert adversary._shadow(Ecosystem.from_reserves([(F(1), F(1, 2**101))])) is None
        assert adversary._shadow(Ecosystem.from_reserves([(F(1), F(10) ** 400)])) is None


class TestExploitReplay:
    def test_naive_global_drain(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000))] * 2)
        orders = _part5_orders(eco, Algorithm.NGMM)
        report = replay_exploit_sequence(eco, orders, Algorithm.NGMM)
        deltas = {pid: (dx, dy) for pid, dx, dy in report.deltas}
        assert deltas["amm1"] == (-F(210, 221), F(0))  # ~0.95 ETH drained
        assert deltas["amm2"] == (F(210, 221), F(0))
        assert report.exploited == ("amm1",)

    def test_global_rule_neutralizes_the_pattern(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000))] * 2)
        orders = _part5_orders(eco, Algorithm.GMM)
        report = replay_exploit_sequence(eco, orders, Algorithm.GMM)
        assert report.exploited == ()
        for _, dx, dy in report.deltas:
            assert not (dx <= 0 and dy <= 0 and (dx < 0 or dy < 0))

    def test_empty_sequence(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000))] * 2)
        report = replay_exploit_sequence(eco, [], Algorithm.GMM)
        assert all(dx == 0 and dy == 0 for _, dx, dy in report.deltas)


class TestInsiderBenchmark:
    def test_single_pool_reduction(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000))])
        orders = insider_optimal_trades(eco, F(3_000))
        assert len(orders) == 1
        assert float(orders[0].amount_in) == pytest.approx(15.47, abs=0.01)
        after, _ = apply_swap(eco, orders[0], Algorithm.GMM)
        assert float(after.pools[0].x) == pytest.approx(115.47, abs=0.01)
        assert float(after.pools[0].y) == pytest.approx(346_410.16, abs=0.01)

    def test_flat_price_means_no_trades(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000))] * 2)
        assert insider_optimal_trades(eco, F(4_000)) == []

    def test_mismatched_ratios_rejected(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000)), (F(100), F(300_000))])
        with pytest.raises(DomainError):
            insider_optimal_trades(eco, F(3_000))

    @pytest.mark.parametrize("r_new", [F(3_000), F(6_000)])
    def test_two_pool_outcome(self, r_new):
        eco = Ecosystem.from_reserves([(F(100), F(400_000))] * 2)
        orders = insider_optimal_trades(eco, r_new)
        assert len(orders) == 2
        assert [o.sender_tag for o in orders] == ["insider", "insider"]
        work = eco
        for order in orders:
            work, _ = apply_swap(work, order, Algorithm.GMM)
        for pool in work.pools:
            assert abs(float(pool.ratio) / float(r_new) - 1) < 1e-12
        # the pool hit second keeps more value (it traded at global, not local, prices)
        v_first = work.pools[0].y + r_new * work.pools[0].x
        v_second = work.pools[1].y + r_new * work.pools[1].x
        assert v_second > v_first

    def test_optimizer_matches_final_reserve_closed_form(self):
        eco = Ecosystem.from_reserves([(F(300), F(1_200_000)), (F(100), F(400_000))])
        orders = insider_optimal_trades(eco, F(3_000))
        work = eco
        for order in orders:
            work, _ = apply_swap(work, order, Algorithm.GMM)
        closed = insider_final_small_reserve(F(100), F(300), F(4_000), F(3_000))
        assert abs(float(work.pools[1].x) / float(closed) - 1) < 1e-9
