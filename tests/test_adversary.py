import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammlab import adversary
from ammlab.adversary import (
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
    quote_order,
)
from ammlab.numeric import sqrt_bounds
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
            sandwich_pool(), "amm1", F(40_000), F(60_000), Algorithm.CPMM
        )
        assert float(rep.attacker_profit) == pytest.approx(10_093.46, abs=0.01)
        assert float(rep.victim_out) == pytest.approx(6.9565, abs=1e-4)
        assert len(rep.trajectory) == 4

    def test_toy_global_attack(self):
        rep = simulate_sandwich(
            sandwich_pool(copies=2), "amm1", F(40_000), F(60_000), Algorithm.GMM
        )
        assert float(rep.attacker_profit) == pytest.approx(810.81, abs=0.01)
        # the untouched twin never moves
        for eco in rep.trajectory:
            assert eco.pools[1] == rep.trajectory[0].pools[1]

    def test_zero_attack_is_neutral(self):
        clean = simulate_sandwich(
            sandwich_pool(), "amm1", F(40_000), F(0), Algorithm.CPMM
        )
        assert clean.attacker_profit == 0
        assert clean.victim_out == F(100) * 40_000 / F(440_000)
        assert clean.front_out == clean.back_out == 0
        assert clean.trajectory[0] is clean.trajectory[1]
        assert clean.trajectory[2] is clean.trajectory[3]
        # float pools pay float zeros, and still keep the ecosystem itself
        eco = Ecosystem.from_reserves([(400_000.0, 100.0)])
        flat = simulate_sandwich(eco, "amm1", 40_000.0, 0.0, Algorithm.CPMM)
        for value in (flat.front_out, flat.back_out, flat.attacker_profit):
            assert value == 0 and type(value) is float
        assert flat.trajectory[0] is flat.trajectory[1] is eco

    @pytest.mark.parametrize("victim, attack, message", [
        (F(0), F(1), "victim order must be positive"),
        (F(-1), F(1), "victim order must be positive"),
        (F(40_000), F(-1), "attack size must be nonnegative"),
    ])
    def test_sizes_are_checked(self, victim, attack, message):
        with pytest.raises(DomainError, match=message):
            simulate_sandwich(sandwich_pool(), "amm1", victim, attack, Algorithm.CPMM)

    def test_victim_overpayment_equals_profit(self):
        eco = sandwich_pool()
        rep = simulate_sandwich(eco, "amm1", F(40_000), F(60_000), Algorithm.CPMM)
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
            sandwich_pool(), "amm1", F(40_000), F(20_000), Algorithm.CPMM
        )
        closed = sandwich_profit_cpmm_closed(F(400_000), F(40_000), F(20_000))
        assert closed == rep.attacker_profit
        assert float(closed) == pytest.approx(3882.62, abs=0.01)

    def test_global_golden_values(self):
        profit = sandwich_profit_gmm_closed(F(400_000), F(800_000), F(40_000), F(60_000))
        assert float(profit) == pytest.approx(810.81, abs=0.01)
        assert sandwich_profit_gmm_closed(F(400_000), F(800_000), F(40_000), F(0)) == 0

    def test_int_inputs_are_exact(self):
        # an int is exact, as a pool reserve is: the lone pool's closed form
        # pays exactly what the three-leg simulation pays
        simulated = simulate_sandwich(Ecosystem.from_reserves([(400_000, 100)]),
                                      "amm1", 40_000, 60_000, Algorithm.CPMM)
        assert simulated.attacker_profit == F(1_080_000, 107)
        for profit, exact in ((sandwich_profit_cpmm_closed(400_000, 40_000, 60_000),
                               F(1_080_000, 107)),
                              (sandwich_profit_gmm_closed(400_000, 800_000, 40_000, 60_000),
                               F(30_000, 37)),
                              (sandwich_profit_nsplit(800_000, 2, 40_000, 60_000), F(30_000, 37)),
                              (sandwich_profit_beta(400_000, 1, 40_000, 60_000), F(30_000, 37))):
            assert type(profit) is F and profit == exact

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
        sim = simulate_sandwich(eco, "amm1", victim, attack, Algorithm.GMM)
        assert sim.attacker_profit == sandwich_profit_gmm_closed(x_i, x_i + extra, victim, attack)
        lone = Ecosystem.from_reserves([(x_i, x_i * ratio)])
        sim_local = simulate_sandwich(lone, "amm1", victim, attack, Algorithm.CPMM)
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

    def test_no_paying_size_leaves_the_empty_cycle(self):
        # under the naive rule every two-leg cycle that does not drain a pool
        # is worth 0, so the size-0 cycle stands, and it executes
        eco = self.post_trade_eco()
        cycle = best_two_pool_arbitrage(eco, Algorithm.NGMM)
        assert cycle.value_y == 0 and cycle.profit == 0
        assert [order.amount_in for order in cycle.legs] == [0, 0]
        work = eco
        for order, expected_out in zip(cycle.legs, cycle.leg_outputs):
            work, out = apply_swap(work, order, Algorithm.NGMM)
            assert out == expected_out


def _two_leg_value(eco, alg, side, first, second, reserve, size):
    """Exact value of the forward-all two-leg cycle sending ``size``, or
    None when it drains a pool."""
    other = SIDE_X if side == SIDE_Y else SIDE_Y
    legs = ((side, first, size, reserve), (other, second, 1, 1))
    return adversary._cycle_value(eco, alg, legs)


def _two_leg_branches(eco, alg, side, first, second, size):
    """Pricing branch of each leg of the two-leg cycle sending ``size``."""
    other = SIDE_X if side == SIDE_Y else SIDE_Y
    order = SwapOrder(eco.pools[first].pool_id, side, size)
    work, mid = apply_swap(eco, order, alg)
    closing = SwapOrder(eco.pools[second].pool_id, other, mid)
    return quote_order(eco, order, alg).branch, quote_order(work, closing, alg).branch


class TestClosedFormTwoLeg:
    # 99 seeded exact ecosystems of 2-3 pools, 33 per rule
    @pytest.mark.parametrize("alg", [Algorithm.CPMM, Algorithm.GMM, Algorithm.NGMM])
    def test_no_grid_point_or_neighbour_beats_the_chosen_size(self, alg):
        # the 33-point grid on [0, 10 * reserve] is the coarse scan of the
        # golden-section search the closed forms replaced
        rng = random.Random(f"two-leg/{alg.value}")
        step = 1 + F(1, 2**20)
        for _ in range(33):
            eco = Ecosystem.from_reserves(
                [(F(rng.randint(10_000, 5_000_000), rng.randint(1, 9)),
                  F(rng.randint(10_000, 5_000_000), rng.randint(1, 9)))
                 for _ in range(rng.randint(2, 3))]
            )
            best = 0
            for side, first, second, reserve, sizes in adversary._two_leg_candidates(eco, alg):
                case = (eco, alg, side, first, second, reserve)
                value, size = 0, 0
                for d in sizes:
                    v = _two_leg_value(*case, d)
                    if v is not None and v > value:
                        value, size = v, d
                total = eco.total_x if side == SIDE_X else eco.total_y
                probes = [10 * total * k / 32 for k in range(33)] + [size / step, size * step]
                for d in probes:
                    v = _two_leg_value(*case, d)
                    assert v is None or v <= value
                best = max(best, value)
            assert adversary._best_two_leg(eco, alg, adversary._shadow(eco))[0] == best

    def test_sizes_are_breakpoints_or_piece_maxima(self):
        # under the global rule a leg's branch changes only at a size: where
        # the first leg turns overshooting, or where the second leg's naive
        # and local outputs cross; every other size is a local maximum
        rng = random.Random("two-leg/branches")
        step = 1 + F(1, 2**20)
        switches = 0
        for _ in range(12):
            eco = Ecosystem.from_reserves(
                [(F(rng.randint(10_000, 5_000_000)), F(rng.randint(10_000, 5_000_000)))
                 for _ in range(rng.randint(2, 3))]
            )
            candidates = adversary._two_leg_candidates(eco, Algorithm.GMM)
            for side, first, second, reserve, sizes in candidates:
                case = (eco, Algorithm.GMM, side, first, second)
                total = eco.total_x if side == SIDE_X else eco.total_y
                grid = [10 * total * k / 64 for k in range(1, 65)]
                branches = [_two_leg_branches(*case, d) for d in grid]
                for lo, hi, before, after in zip(grid, grid[1:], branches, branches[1:]):
                    if before != after:
                        switches += 1
                        assert any(lo <= d <= hi for d in sizes)
                for d in sizes:
                    if _two_leg_branches(*case, d / step) == _two_leg_branches(*case, d * step):
                        value = _two_leg_value(*case, reserve, d)
                        assert value >= _two_leg_value(*case, reserve, d / step)
                        assert value >= _two_leg_value(*case, reserve, d * step)
        assert switches > 0


def _golden_eco(n_pools, seed):
    rng = random.Random(seed)
    return Ecosystem.from_reserves(
        [(F(rng.randint(10_000, 5_000_000)), F(rng.randint(10_000, 5_000_000)))
         for _ in range(n_pools)]
    )


def _cpmm_bound(eco):
    """The value of the best closed CPMM cycle, in Y at the initial ratio:
    moving each X reserve to ``total_x * √k_i / Σ √k_j`` (``k_i = x_i * y_i``)
    gives ``total_y - (Σ √k_i)**2 / total_x`` (Angeris, Evans, Chitra and
    Boyd, *Optimal routing for constant function market makers*, EC 2022),
    and an X-start cycle valued at the global ratio is bounded by the same.
    Each root is the lower end of its enclosure, which only raises the bound."""
    roots = sum(sqrt_bounds(p.x * p.y, 96)[0] for p in eco.pools)
    return eco.total_y - roots * roots / eco.total_x


class TestCertificate:
    def test_global_rule_certified_nonprofitable(self):
        eco = Ecosystem.from_reserves([(F(90), F(444_444)), (F(100), F(400_000))])
        assert no_arbitrage_certificate(eco, 2_000, Algorithm.GMM, seed=11) <= 0

    def test_local_rule_yields_the_toy_profit(self):
        eco = Ecosystem.from_reserves([(F(90), F(4_000_000, 9)), (F(100), F(400_000))])
        best = no_arbitrage_certificate(eco, 2_000, Algorithm.CPMM, seed=11)
        assert float(best) >= 2339.0

    def test_int_reserves_certify_exactly(self):
        pairs = [(100, 400_000), (120, 400_000)]
        as_ints = no_arbitrage_certificate(Ecosystem.from_reserves(pairs), 200, Algorithm.CPMM)
        as_fractions = no_arbitrage_certificate(
            Ecosystem.from_reserves([(F(x), F(y)) for x, y in pairs]), 200, Algorithm.CPMM)
        assert type(as_ints) is F
        assert as_ints == as_fractions > 0

    def test_single_pool_round_trips_lose(self):
        eco = Ecosystem.from_reserves([(F(1_000), F(2_000_000))])
        for alg in (Algorithm.CPMM, Algorithm.GMM):
            assert no_arbitrage_certificate(eco, 1_000, alg, seed=5) <= 0

    # Exact certificates of 200 samples on seeded ecosystems; the CPMM rows
    # were recorded when each cycle leg became the digits of one 64-bit word.
    # The runs without the refined phase are the best random cycle alone, so
    # they pin the RNG stream; under the naive rule some cycles drain a pool.
    GOLDEN = [
        (Algorithm.GMM, 2, 11, True, F(0)),
        (Algorithm.GMM, 4, 13, True, F(0)),
        (Algorithm.CPMM, 3, 22, True,
         F("26830116565410324506973524636134130309635849037103377753068328533644434219446415735"
           "/12347257238999235449855939781270705897717420127920007428931716624876027510784")),
        (Algorithm.CPMM, 2, 41, False, F("3344312429108024731/385361344643040")),
        (Algorithm.CPMM, 3, 42, False,
         F("146203724612414241503115557961793920643/1029730448863163367729820289245184")),
        (Algorithm.CPMM, 4, 43, False,
         F("412909490847233836138985796122666864110326016386060066568766147797837311962958040335301"
           "/181955256538200921268859112156803186135917728405573410249938687024937736930951560")),
        (Algorithm.NGMM, 3, 32, True, F(0)),
        (Algorithm.NGMM, 2, 51, False, F(0)),
    ]

    @pytest.mark.parametrize("alg,n_pools,seed,refined,expected", GOLDEN)
    def test_golden_certificates(self, alg, n_pools, seed, refined, expected):
        eco = _golden_eco(n_pools, seed)
        value = no_arbitrage_certificate(eco, 200, alg, seed=seed, include_refined=refined)
        assert value == expected

    @pytest.mark.parametrize("alg,n_pools,seed,refined,expected",
                             [row for row in GOLDEN if row[0] is Algorithm.CPMM])
    def test_golden_cpmm_certificates_lie_below_the_bound(self, alg, n_pools, seed, refined,
                                                          expected):
        assert 0 < expected <= _cpmm_bound(_golden_eco(n_pools, seed))

    @given(pairs=st.lists(st.tuples(reserves, reserves), min_size=1, max_size=5),
           alg=st.sampled_from(list(Algorithm)), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_certificate_is_at_most_the_closed_form_bound(self, pairs, alg, seed):
        eco = Ecosystem.from_reserves(pairs)
        value = no_arbitrage_certificate(eco, 60, alg, seed=seed)
        assert value <= (_cpmm_bound(eco) if alg is Algorithm.CPMM else 0)

    @pytest.mark.parametrize("refined", [True, False])
    @pytest.mark.parametrize("alg", [Algorithm.CPMM, Algorithm.GMM, Algorithm.NGMM])
    def test_float_certificate_tracks_the_exact_one(self, alg, refined):
        # a float ecosystem draws the same cycles as its exact original, so
        # its certificate is the float image of the exact one
        for seed in range(10):
            rng = random.Random(seed)
            eco = Ecosystem.from_reserves(
                [(F(rng.randint(10_000, 5_000_000), rng.randint(1, 7)),
                  F(rng.randint(10_000, 5_000_000), rng.randint(1, 7)))
                 for _ in range(2 + seed % 3)]
            )
            image = Ecosystem.from_reserves([(float(p.x), float(p.y)) for p in eco.pools])
            exact = no_arbitrage_certificate(eco, 200, alg, seed=seed, include_refined=refined)
            fast = no_arbitrage_certificate(image, 200, alg, seed=seed, include_refined=refined)
            assert abs(F(fast) - exact) <= F(1e-9) * eco.total_y


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
            legs = adversary._cycle_legs(rng, len(eco.pools), max_legs)
            screened = adversary._screen_cycle(shadow, alg, legs)
            exact = adversary._cycle_value(eco, alg, legs)
            if screened is None:  # flagged: the exact pass prices the cycle
                continue
            if screened is adversary._DRAINS:  # the exact pass drains a pool on the same legs
                assert exact is None
                continue
            value, err = screened
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

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_screened_cycles_draw_as_exact_ones(self, data):
        # a screen that stops early (a tie, a drain) agrees with the exact
        # pass on a drain and leaves the generator where it leaves it
        eco, alg = _screen_case(data)
        seed = data.draw(st.integers(0, 2**16))
        shadow = adversary._shadow(eco)
        screened_rng, exact_rng = random.Random(seed), random.Random(seed)
        for _ in range(20):
            screened = adversary._random_cycle_value(eco, alg, screened_rng, 6, 0, shadow)
            exact = adversary._random_cycle_value(eco, alg, exact_rng, 6, 0, None)
            assert (screened is None) == (exact is None)
            assert screened_rng.getstate() == exact_rng.getstate()

    def test_bound_holds_at_and_near_a_branch_tie(self):
        # the two-leg sizes of the global rule are its branch ties; there
        # the float pass may not claim that one constant product priced a leg
        rng = random.Random("screen/ties")
        near = 1 + F(1, 2**60)
        checked = 0
        for _ in range(12):
            eco = Ecosystem.from_reserves(
                [(F(rng.randint(10_000, 5_000_000)), F(rng.randint(10_000, 5_000_000)))
                 for _ in range(rng.randint(2, 3))]
            )
            shadow = adversary._shadow(eco)
            for side, first, second, reserve, sizes in adversary._two_leg_candidates(
                    eco, Algorithm.GMM):
                other = SIDE_X if side == SIDE_Y else SIDE_Y
                for d in sizes:
                    for size in (d / near, d, d * near):
                        legs = ((side, first, size, reserve), (other, second, 1, 1))
                        screened = adversary._screen_cycle(shadow, Algorithm.GMM, legs)
                        if screened is None:
                            continue
                        checked += 1
                        value, err = screened
                        exact = adversary._cycle_value(eco, Algorithm.GMM, legs)
                        assert abs(exact - F(value)) <= F(err)
        assert checked > 0

    def test_naive_cap_tie_defers_to_the_exact_pass(self):
        # sending 1/128 of amm1's X makes the naive output exactly amm1's Y,
        # which the float pass computes just below it: the screen must stop at
        # that leg, and the exact pass finds the drain
        eco = Ecosystem.from_reserves([(F(1), F(5, 192)), (F(2), F(10))])
        d = F(1, 128)
        assert eco.total_y * d / (eco.total_x + d) == eco.pools[0].y
        shadow = adversary._shadow(eco)
        (xs, ys), (tx, ty), _ = shadow
        fd = xs[0] * (1 / 128)
        assert ty * fd / (tx + fd) < ys[0]
        legs = ((SIDE_X, 0, 1, 128), (SIDE_Y, 1, 1, 1))
        assert adversary._screen_cycle(shadow, Algorithm.NGMM, legs) is None
        assert adversary._cycle_value(eco, Algorithm.NGMM, legs) is None

    # hand-built legs on reserves at the ends of the screened range, 2**-100
    # and 2**100: each pass stops where its float pricing leaves the bound's
    # assumptions, and the cycle is priced exactly
    BIG, SMALL = F(2) ** 100, F(1, 2**100)

    def assert_priced_exactly(self, eco, legs):
        value = adversary._screened_value(eco, Algorithm.CPMM, legs, 0, adversary._shadow(eco))
        assert value == adversary._cycle_value(eco, Algorithm.CPMM, legs)

    def test_leg_that_empties_a_float_reserve_is_flagged(self):
        # the closing leg sends about 2**99 Y into a pool holding 2**-100 X:
        # its float output rounds to the whole reserve
        eco = Ecosystem.from_reserves([(self.BIG, self.BIG), (self.SMALL, self.SMALL)])
        legs = [(SIDE_X, 0, 96, 128), (SIDE_Y, 1, 1, 1)]
        assert adversary._screen_cycle(adversary._shadow(eco), Algorithm.CPMM, legs) is None
        self.assert_priced_exactly(eco, legs)

    def test_output_below_the_floor_is_flagged(self):
        # X out and back through a pool holding (2**100, 2**-100), with a Y
        # leg through its mirror between: the last output is near 2**-507
        eco = Ecosystem.from_reserves([(self.BIG, self.SMALL), (self.SMALL, self.BIG)])
        legs = [(SIDE_X, 0, 96, 128), (SIDE_Y, 1, 1, 1), (SIDE_X, 0, 1, 1)]
        assert adversary._screen_cycle(adversary._shadow(eco), Algorithm.CPMM, legs) is None
        self.assert_priced_exactly(eco, legs)

    def test_overflowing_leg_is_priced_exactly(self):
        eco = Ecosystem.from_reserves([(F(1), F(1)), (F(1), F(1))])
        legs = [(SIDE_X, 0, 10**400, 1), (SIDE_Y, 1, 1, 1)]
        with pytest.raises(OverflowError):
            adversary._screen_cycle(adversary._shadow(eco), Algorithm.CPMM, legs)
        self.assert_priced_exactly(eco, legs)

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

    @pytest.mark.parametrize("pools, r_new, message", [
        ([(F(100), F(400_000))] * 3, F(3_000), "the benchmark is defined for one or two pools"),
        ([(F(100), F(400_000))] * 2, F(0), "target price must be positive"),
        ([(F(100), F(400_000))] * 2, F(-1), "target price must be positive"),
    ])
    def test_domain_checks(self, pools, r_new, message):
        with pytest.raises(DomainError, match=message):
            insider_optimal_trades(Ecosystem.from_reserves(pools), r_new)

    def test_mismatched_ratios_rejected(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000)), (F(100), F(300_000))])
        with pytest.raises(DomainError):
            insider_optimal_trades(eco, F(3_000))

    def test_float_pools_share_a_ratio_within_tolerance(self):
        exact = Ecosystem.from_reserves([(F(300), F(1_200_000)), (F(100), F(400_000))])
        image = Ecosystem.from_reserves([(300.0, 1_200_000.0), (100.0, 400_000.0 * (1 + 1e-12))])
        expected = insider_optimal_trades(exact, F(3_000))
        orders = insider_optimal_trades(image, 3_000.0)
        assert [o.pool_id for o in orders] == [o.pool_id for o in expected]
        for order, want in zip(orders, expected):
            assert order.amount_in == pytest.approx(float(want.amount_in), rel=1e-9)
        off = Ecosystem.from_reserves([(300.0, 1_200_000.0), (100.0, 400_000.0 * (1 + 1e-6))])
        with pytest.raises(DomainError, match="benchmark pools must share a common ratio"):
            insider_optimal_trades(off, 3_000.0)

    @pytest.mark.parametrize("r_new", [F(3_000), F(6_000)])
    def test_two_pool_outcome(self, r_new):
        eco = Ecosystem.from_reserves([(F(100), F(400_000))] * 2)
        orders = insider_optimal_trades(eco, r_new)
        assert len(orders) == 2
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

    def test_final_reserve_closed_form_keeps_int_inputs_exact(self):
        exact = insider_final_small_reserve(F(100), F(200), F(4_000), F(3_000))
        held = insider_final_small_reserve(100, 200, 4_000, 3_000)
        assert type(held) is F and held == exact
        floats = insider_final_small_reserve(100.0, 200.0, 4_000.0, 3_000.0)
        assert type(floats) is float and abs(floats / float(exact) - 1) < 1e-12
