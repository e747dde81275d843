from fractions import Fraction as F

import pytest

from ammlab import rebalance
from ammlab.adversary import no_arbitrage_certificate
from ammlab.core import (
    Algorithm,
    BRANCH_CPMM,
    DIVERGENT,
    DomainError,
    Ecosystem,
    SIDE_X,
    SIDE_Y,
    SwapOrder,
    apply_swap,
    cpmm_out,
    gmm_out,
)
from ammlab.numeric import sqrt_bounds
from ammlab.rebalance import (
    FLOAT_RATIO_TOL,
    balanced_arbitrage,
    gmm_rebal_quote,
    gmm_rebal_transfers,
    inter_pool_quote,
    rebalance_pools,
    trade_preservation_condition,
)
from conftest import rand_eco

TOY_REBAL = [(F(90), F(440_000)), (F(210), F(760_000))]
SKEWED = [(F(1000), F(4_000_000)), (F(10), F(50_000))]


def balanced_quote_upper_bound(eco, dx):
    """Rigorous upper bound on the best local quote after balanced arbitrage,
    via an exact enclosure of the square root."""
    r = eco.ratio
    max_product = max(p.product for p in eco.pools)
    _, s_hi = sqrt_bounds(max_product / r, bits=160)
    return r * s_hi * dx / (s_hi + dx)


def preservation_oracle(dx, eco):
    """Both preservation inequalities for every pool, the right one decided
    against an exact enclosure of the square root (the balanced rate
    ``r*s/(s+dx)`` increases with ``s``)."""
    x, y = eco.total_x, eco.total_y
    r = y / x
    s_lo, s_hi = sqrt_bounds(max(p.product for p in eco.pools) / r, bits=160)
    ngmm_rate = y / (x + dx)
    verdicts = []
    for pool in eco.pools:
        local_rate = pool.y / (pool.x + dx)
        right_ok = local_rate < r * s_lo / (s_lo + dx)
        assert right_ok or local_rate >= r * s_hi / (s_hi + dx)  # decided by the enclosure
        verdicts.append(ngmm_rate > local_rate and right_ok)
    return verdicts


def preservation_cases(rng):
    """150 exact ``(ecosystem, order size)`` pairs.  Skewed ones (a big
    low-ratio pool, small higher-ratio ones and a random last pool) hold,
    fail at the first pool or fail only at the last one; plain random ones
    mostly fail."""
    for case in range(150):
        n = rng.randint(2, 5)
        if case % 3 == 2:
            yield rand_eco(rng, n), F(rng.randint(1, 2_000_000))
            continue
        big = rng.randint(1000, 100_000)
        pairs = [(F(big), F(big * rng.randint(3000, 4000)))]
        for _ in range(n - 2):
            small = rng.randint(1, big // 50)
            pairs.append((F(small), F(small * rng.randint(3500, 6000))))
        last = rng.randint(1, big // 5)
        pairs.append((F(last), F(last * rng.randint(2000, 8000))))
        yield Ecosystem.from_reserves(pairs), F(big * rng.randint(1, 30), 100)


class TestPreservationCondition:
    def test_equal_ratios_fail(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000)), (F(50), F(200_000))])
        report = trade_preservation_condition(F(10), eco)
        assert not report.holds

    def test_small_order_fails(self):
        eco = Ecosystem.from_reserves([(F(90), F(444_444)), (F(100), F(400_000))])
        assert not trade_preservation_condition(F(1, 1000), eco).holds

    def test_skewed_fixture_holds(self):
        eco = Ecosystem.from_reserves(SKEWED)
        report = trade_preservation_condition(F(100), eco)
        assert report.holds
        assert float(report.ngmm_rate) == pytest.approx(3648.65, abs=0.01)
        assert float(report.balanced_rate) == pytest.approx(3644.95, abs=0.01)
        assert preservation_oracle(F(100), eco) == [True, True]

    def test_verdict_matches_every_pool_and_inequality(self, rng):
        seen = set()
        for eco, dx in preservation_cases(rng):
            verdicts = preservation_oracle(dx, eco)
            assert trade_preservation_condition(dx, eco).holds == all(verdicts)
            if all(verdicts):
                seen.add("holds")
            elif all(verdicts[:-1]):
                seen.add("only the last pool fails")
            elif not verdicts[0]:
                seen.add("the first pool fails")
        assert seen == {"holds", "only the last pool fails", "the first pool fails"}

    def test_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            trade_preservation_condition(F(0), Ecosystem.from_reserves(SKEWED))


class TestBalancedArbitrage:
    def test_fixed_point(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000)), (F(25), F(100_000))])
        assert balanced_arbitrage(eco) == eco

    def test_toy_post_trade_resolution(self):
        eco = Ecosystem.from_reserves([(F(90), F("444444.44")), (F(100), F(400_000))])
        resolved = balanced_arbitrage(eco)
        for pool in resolved.pools:
            assert float(pool.x) == pytest.approx(94.868, abs=1e-3)
            assert float(pool.y) == pytest.approx(421_637.0, abs=0.5)

    def test_products_and_ratio(self, rng):
        for _ in range(25):
            eco = rand_eco(rng, rng.randint(1, 5))
            r = eco.ratio
            resolved = balanced_arbitrage(eco)
            assert (resolved.total_x, resolved.total_y) != (0, 0)
            for before, after in zip(eco.pools, resolved.pools):
                assert after.product == before.product  # exact
                assert abs(float(after.ratio / r) - 1.0) < 1e-20


class TestInterPoolQuote:
    def test_toy_transfer_price(self):
        eco = Ecosystem.from_reserves(TOY_REBAL)
        assert inter_pool_quote(F(10), "amm1", eco) == 40_000

    def test_zero(self):
        # a zero of the input's flavour
        zero = inter_pool_quote(F(0), "amm1", Ecosystem.from_reserves(TOY_REBAL))
        assert zero == 0 and type(zero) is F
        floats = Ecosystem.from_reserves([(float(x), float(y)) for x, y in TOY_REBAL])
        zero = inter_pool_quote(0.0, "amm1", floats)
        assert zero == 0.0 and type(zero) is float

    @pytest.mark.parametrize("dx", [F(-1), -1e-300])
    def test_negative_amount_rejected(self, dx):
        with pytest.raises(DomainError, match="transfer amount must be nonnegative"):
            inter_pool_quote(dx, "amm1", Ecosystem.from_reserves(TOY_REBAL))

    def test_low_ratio_pool_pays_local_rate(self, rng):
        # receiving pool below the global ratio: its own curve is the cheaper leg
        for _ in range(20):
            eco = rand_eco(rng, 3)
            r = eco.ratio
            low = [p for p in eco.pools if p.ratio < r]
            if not low:
                continue
            pool = low[0]
            dx = pool.x * F(rng.randint(1, 40), 100)
            quoted = inter_pool_quote(dx, pool.pool_id, eco)
            assert quoted == cpmm_out(dx, pool.x, pool.y)
            assert quoted < r * dx


class TestRatioStrictlyBelow:
    @pytest.mark.parametrize("gap", [F(1, 2), F(4)], ids=["inside-tol", "outside-tol"])
    def test_exact_against_float_takes_the_float_verdict(self, gap):
        low = F(4000, 3)
        high = low * (1 + gap * F(FLOAT_RATIO_TOL))
        for a, b in ((low, high), (high, low)):
            verdict = rebalance._ratio_strictly_below(float(a), float(b))
            assert verdict is (a < b and gap > 1)
            assert rebalance._ratio_strictly_below(a, float(b)) is verdict
            assert rebalance._ratio_strictly_below(float(a), b) is verdict


class TestRebalanceLoop:
    def test_toy_single_transfer(self):
        eco = Ecosystem.from_reserves(TOY_REBAL)
        rebalanced, transfers = rebalance_pools(eco, "amm2")
        assert len(transfers) == 1
        t = transfers[0]
        assert (t.from_pool, t.to_pool) == ("amm2", "amm1")
        assert t.amount_x == 10
        assert t.amount_y_received == 40_000
        assert [(p.x, p.y) for p in rebalanced.pools] == [(100, 400_000), (200, 800_000)]

    def test_unsettled_loop_is_domain_error(self, monkeypatch):
        # a quote that pays nothing only halves the target's gap each move
        monkeypatch.setattr(rebalance, "inter_pool_quote", lambda dx, to_pool, eco: 0)
        with pytest.raises(DomainError, match="did not settle within 48 transfers"):
            rebalance_pools(Ecosystem.from_reserves(TOY_REBAL), "amm2")

    def test_skewed_fixture_transfer(self):
        eco = Ecosystem.from_reserves(SKEWED)
        rebalanced, transfers = rebalance_pools(eco, "amm1")
        assert len(transfers) == 1
        assert transfers[0].amount_x == F(100, 81)
        # the target lands exactly on the global ratio
        assert rebalanced.pools[0].ratio == eco.ratio

    def test_multi_transfer_monotone_approach(self):
        eco = Ecosystem.from_reserves(
            [(F(1000), F(2_000_000)), (F(100), F(900_000)), (F(100), F(700_000))]
        )
        r = eco.ratio
        assert r == 3000
        rebalanced, transfers = rebalance_pools(eco, "amm1")
        assert len(transfers) == 2
        # replay the transfers, tracking the target pool's ratio
        work = eco
        last_ratio = work.pools[0].ratio
        for t in transfers:
            pools = list(work.pools)
            li = work.index_of(t.from_pool)
            ji = work.index_of(t.to_pool)
            pools[li] = pools[li].__class__(
                t.from_pool, pools[li].x - t.amount_x, pools[li].y + t.amount_y_received
            )
            pools[ji] = pools[ji].__class__(
                t.to_pool, pools[ji].x + t.amount_x, pools[ji].y - t.amount_y_received
            )
            work = Ecosystem(tuple(pools))
            ratio = work.pools[0].ratio
            assert last_ratio < ratio <= r  # toward the global ratio, never past
            last_ratio = ratio
        assert work == rebalanced
        assert rebalanced.pools[0].ratio == r
        # aggregates untouched
        assert rebalanced.total_x == eco.total_x
        assert rebalanced.total_y == eco.total_y

    def test_receiver_tie_goes_to_the_lowest_index(self):
        # amm1 and amm3 sit at one ratio above r = 2500; amm1 is served first
        eco = Ecosystem.from_reserves(
            [(F(100), F(500_000)), (F(1000), F(2_000_000)), (F(100), F(500_000))]
        )
        assert eco.ratio == 2500
        rebalanced, transfers = rebalance_pools(eco, "amm2")
        assert [(t.from_pool, t.to_pool, t.amount_x) for t in transfers] == [
            ("amm2", "amm1", 50), ("amm2", "amm3", 50)
        ]
        assert all(p.ratio == 2500 for p in rebalanced.pools)

    def test_transfer_value_preserved_at_global_ratio(self, rng):
        for _ in range(20):
            eco = rand_eco(rng, rng.randint(2, 5))
            target = min(range(len(eco.pools)), key=lambda k: eco.pools[k].ratio)
            pool_id = eco.pools[target].pool_id
            r = eco.ratio
            _, transfers = rebalance_pools(eco, pool_id)
            for t in transfers:
                assert t.amount_y_received == r * t.amount_x  # in-loop price is the global ratio


class TestGmmRebalQuote:
    def test_equal_ratio_guard_returns_plain_quote(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000)), (F(50), F(200_000))])
        work, quote = gmm_rebal_quote(F(10), eco, "amm1")
        assert work == eco
        assert quote == gmm_out(F(10), eco, "amm1")

    def test_toy_needs_force_trigger(self):
        eco = Ecosystem.from_reserves(TOY_REBAL)
        # the guard conditions fail here, so the default path does not rebalance
        work, quote = gmm_rebal_quote(F(1), eco, "amm2")
        assert work == eco
        forced_work, forced = gmm_rebal_quote(F(1), eco, "amm2", force_trigger=True)
        assert forced_work != eco
        assert float(forced.amount_out) == pytest.approx(3980.10, abs=0.01)
        assert forced.branch == BRANCH_CPMM
        assert forced.classification == DIVERGENT

    def test_skewed_fixture_engages_by_itself(self):
        eco = Ecosystem.from_reserves(SKEWED)
        work, quote = gmm_rebal_quote(F(100), eco, "amm1")
        assert work != eco
        rate = quote.amount_out / 100
        assert float(rate) == pytest.approx(3644.9549, abs=1e-3)
        # strictly better than the balanced-arbitrage alternative, proven by bounds
        assert rate * 100 > balanced_quote_upper_bound(eco, F(100))

    def test_non_max_product_target_quotes_plainly(self):
        eco = Ecosystem.from_reserves(SKEWED)
        work, quote = gmm_rebal_quote(F(2), eco, "amm2")
        assert work == eco
        assert quote == gmm_out(F(2), eco, "amm2")

    def test_max_product_tie_goes_to_the_lowest_index(self):
        # amm1 and amm2 are the same pool; only amm1 counts as the max-product one
        eco = Ecosystem.from_reserves([SKEWED[0], SKEWED[0], SKEWED[1]])
        assert trade_preservation_condition(F(100), eco).holds
        assert len(gmm_rebal_transfers(F(100), eco, "amm1")[2]) == 1
        assert gmm_rebal_transfers(F(100), eco, "amm2")[2] == ()

    def test_trigger_is_the_three_conditions(self, rng):
        # each condition evaluated on its own; the cases include targets that
        # pass all three and targets that pass all but the max-product one
        seen = set()
        for eco, dx in preservation_cases(rng):
            holds = all(preservation_oracle(dx, eco))
            products = [p.product for p in eco.pools]
            for k, pool in enumerate(eco.pools):
                conditions = (products.index(max(products)) == k, pool.ratio < eco.ratio, holds)
                seen.add(conditions)
                _, _, transfers = gmm_rebal_transfers(dx, eco, pool.pool_id)
                assert bool(transfers) == all(conditions)
        assert (False, True, True) in seen and (True, True, True) in seen

    def test_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            gmm_rebal_quote(F(0), Ecosystem.from_reserves(SKEWED), "amm1")

    def test_guard_takes_no_root(self, monkeypatch):
        # the trigger reads only the preservation verdict; the square root is
        # taken for trade_preservation_condition's report alone
        eco = Ecosystem.from_reserves(SKEWED)
        assert trade_preservation_condition(F(100), eco).holds
        expected = gmm_rebal_transfers(F(100), eco, "amm1")
        assert expected[2]  # the guard passed: rebalancing engaged

        def no_root(value):
            raise AssertionError("the guard took a square root")

        monkeypatch.setattr(rebalance, "sqrt_any", no_root)
        assert gmm_rebal_transfers(F(100), eco, "amm1") == expected
        with pytest.raises(AssertionError):
            trade_preservation_condition(F(100), eco)


class TestRebalanceProperties:
    def test_phony_trade_equivalence_modulo_slippage(self):
        """The rebalanced state matches the two external convergent trades in
        aggregate exactly; pool-wise they differ by exactly the first trade's
        slippage (an external trader pays slippage, internal transfers do not)."""
        eco = Ecosystem.from_reserves(TOY_REBAL)
        rebalanced, _ = rebalance_pools(eco, "amm2")

        work, out1 = apply_swap(eco, SwapOrder("amm1", SIDE_X, F(10)), Algorithm.GMM)
        assert out1 == F(1_200_000, 31)  # ~38,709.68, the convergent global price
        work, out2 = apply_swap(work, SwapOrder("amm2", SIDE_Y, out1), Algorithm.GMM)
        assert out2 == 10  # the round trip is exactly zero net for the trader

        assert (work.total_x, work.total_y) == (rebalanced.total_x, rebalanced.total_y)
        slippage = F(40_000) - out1  # = 40000/31
        assert work.pools[0].y - rebalanced.pools[0].y == slippage
        assert rebalanced.pools[1].y - work.pools[1].y == slippage
        assert work.pools[0].x == rebalanced.pools[0].x
        assert work.pools[1].x == rebalanced.pools[1].x

    def test_no_arbitrage_after_rebalancing(self):
        for pool_id in ("amm1", "amm2"):
            for pairs in (TOY_REBAL, SKEWED):
                eco = Ecosystem.from_reserves(pairs)
                rebalanced, _ = rebalance_pools(eco, pool_id)
                best = no_arbitrage_certificate(rebalanced, 300, Algorithm.GMM, seed=3)
                assert best <= 0

    def test_rebalanced_beats_balanced_arbitrage_smoke(self, rng):
        for _ in range(25):
            eco = rand_eco(rng, rng.randint(2, 5))
            dx = F(rng.randint(1, 200_000))
            best_rebal = max(
                gmm_rebal_quote(dx, eco, p.pool_id)[1].amount_out for p in eco.pools
            )
            # the enclosure is exact whenever equality can occur, so >= is sound
            assert best_rebal >= balanced_quote_upper_bound(eco, dx)
