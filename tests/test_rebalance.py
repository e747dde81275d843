import random
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
    balanced_arbitrage,
    gmm_rebal_quote,
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
        rates = {s.pool_id: float(report.ngmm_rate - s.left_slack) for s in report.per_pool}
        assert rates["amm1"] == pytest.approx(3636.36, abs=0.01)
        assert rates["amm2"] == pytest.approx(454.55, abs=0.01)
        assert all(s.left_slack > 0 and s.right_slack > 0 for s in report.per_pool)

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
        assert inter_pool_quote(F(0), "amm1", Ecosystem.from_reserves(TOY_REBAL)) == 0

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

    def test_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            gmm_rebal_quote(F(0), Ecosystem.from_reserves(SKEWED), "amm1")


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
