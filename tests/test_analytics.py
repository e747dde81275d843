from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammlab import analytics
from ammlab.adversary import insider_optimal_trades
from ammlab.analytics import (
    il_cpmm,
    il_from_trajectory,
    il_gmm_small_pool,
    trader_surplus_comparison,
    volatility_class,
)
from ammlab.core import (
    Algorithm,
    DomainError,
    Ecosystem,
    PoolState,
    SwapOrder,
    apply_swap,
    cpmm_out,
    pool_value,
)
from ammlab.numeric import sqrt_any

prices = st.fractions(min_value=F(1, 1000), max_value=F(10**6), max_denominator=10**4)


def benchmark_eco(alpha: F, x_total=F(1000), ratio=F(4000)) -> Ecosystem:
    """Two pools at a common ratio; the second holds the ``alpha`` share of X."""
    x_small = x_total * alpha
    x_large = x_total - x_small
    return Ecosystem.from_reserves([(x_large, x_large * ratio), (x_small, x_small * ratio)])


def trajectory_loss(alpha: F, ratio_factor: F):
    """Independent measurement: run the two-trade benchmark, revalue both pools."""
    r_init = F(4000)
    r_new = r_init * ratio_factor
    eco = benchmark_eco(alpha)
    work = eco
    for order in insider_optimal_trades(eco, r_new):
        work, _ = apply_swap(work, order, Algorithm.GMM)
    large = il_from_trajectory(eco.pools[0], work.pools[0], r_new)
    small = il_from_trajectory(eco.pools[1], work.pools[1], r_new)
    return large, small


class TestIlCpmm:
    def test_toy_value(self):
        assert float(il_cpmm(F(4000), F(3000))) == pytest.approx(0.0103, abs=1e-4)

    def test_flat_price_is_zero(self):
        assert il_cpmm(F(1234), F(1234)) == 0
        # a zero of the input's flavour: two ints are exact, as in a PoolState
        for price, zero in ((2.0, 0.0), (3, F(0)), (F(3), F(0))):
            loss = il_cpmm(price, price)
            assert loss == zero and type(loss) is type(zero)

    def test_factor_four_exact(self):
        # perfect-square ratio, so the exact path gives exactly 1/5
        assert il_cpmm(F(1000), F(4000)) == F(1, 5)

    def test_trajectory_oracle(self):
        # trade a lone constant-product pool to the target ratio and revalue
        for r_new in (F(3000), F(250), F(16_000)):
            pool = PoolState("p", F(100), F(400_000))
            growth = sqrt_any(pool.ratio / r_new)
            if growth >= 1:
                dx = pool.x * (growth - 1)
                out = cpmm_out(dx, pool.x, pool.y)
                final = PoolState("p", pool.x + dx, pool.y - out)
            else:
                shrink = 1 / growth
                dy = pool.y * (shrink - 1)
                out = cpmm_out(dy, pool.y, pool.x)
                final = PoolState("p", pool.x - out, pool.y + dy)
            measured = il_from_trajectory(pool, final, r_new)
            assert abs(float(measured) - float(il_cpmm(F(4000), r_new))) < 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            il_cpmm(F(0), F(1))

    def test_int_prices_are_exact(self):
        # an int is exact, as a pool reserve is: two ints give the Fraction loss
        for loss, exact in ((il_cpmm(4000, 3000), il_cpmm(F(4000), F(3000))),
                            (il_cpmm(1000, 4000), F(1, 5)),
                            (il_gmm_small_pool(4000, 3000, F(1, 2)),
                             il_gmm_small_pool(F(4000), F(3000), F(1, 2)))):
            assert type(loss) is F and loss == exact

    @given(a=prices, b=prices)
    @settings(max_examples=150)
    def test_symmetry_and_sign(self, a, b):
        loss = il_cpmm(a, b)
        assert loss == il_cpmm(b, a)
        assert loss >= 0
        assert (loss == 0) == (a == b)
        assert loss < 1


class TestIlSmallPool:
    def test_flat_price_is_zero_for_any_share(self):
        for alpha in (F(1, 100), F(1, 4), F(1, 2)):
            assert il_gmm_small_pool(F(4000), F(4000), alpha) == 0
        # a zero of the prices' flavour: two ints are exact, as in il_cpmm
        for price, zero in ((2.0, 0.0), (3, F(0)), (F(3), F(0))):
            loss = il_gmm_small_pool(price, price, 0.5)
            assert loss == zero and type(loss) is type(zero)

    def test_half_share_factor_four(self):
        loss = il_gmm_small_pool(F(1000), F(4000), F(1, 2))
        assert float(loss) == pytest.approx(0.102944, abs=1e-6)
        assert loss < il_cpmm(F(1000), F(4000))

    def test_tiny_share_nearly_lossless(self):
        loss = il_gmm_small_pool(F(1000), F(4000), F(1, 100))
        assert 0 < float(loss) < 0.01
        assert loss < il_cpmm(F(1000), F(4000))

    def test_share_domain(self):
        for alpha in (F(0), F(-1, 2), F(51, 100), F(2)):
            with pytest.raises(DomainError):
                il_gmm_small_pool(F(1), F(2), alpha)

    def test_dominance_and_alpha_monotonicity(self):
        factors = [F(1, 16), F(1, 4), F(1, 2), F(2), F(4), F(16)]
        alphas = [F(k, 20) for k in range(1, 11)]
        for factor in factors:
            losses = [il_gmm_small_pool(F(1), factor, a) for a in alphas]
            local = il_cpmm(F(1), factor)
            assert all(loss < local for loss in losses)
            assert all(x <= y for x, y in zip(losses, losses[1:]))

    def test_matches_trajectory_measurement(self):
        for alpha, factor in ((F(1, 2), F(3, 4)), (F(1, 4), F(4)), (F(1, 10), F(1, 3))):
            _, small = trajectory_loss(alpha, factor)
            closed = il_gmm_small_pool(F(1), factor, alpha)
            assert abs(float(small) - float(closed)) < 1e-9


class TestTrajectoryLoss:
    def test_toy_measurement(self):
        initial = PoolState("p", F(100), F(400_000))
        final = PoolState("p", F("115.47"), F("346410.16"))
        assert float(il_from_trajectory(initial, final, F(3000))) == pytest.approx(0.0103, abs=1e-4)

    def test_identity_is_zero(self):
        pool = PoolState("p", F(7), F(11))
        assert il_from_trajectory(pool, pool, F(5)) == 0

    def test_large_pool_matches_local_closed_form(self):
        large, _ = trajectory_loss(F(1, 4), F(3, 4))
        assert abs(float(large) - float(il_cpmm(F(4), F(3)))) < 1e-9


class TestVolatilityClass:
    def test_mild_move_is_low(self):
        assert volatility_class(F(4000), F(3000), F(10)) == "low"

    def test_large_move_is_high(self):
        assert volatility_class(F(4000), F(40_001), F(10)) == "high"
        assert volatility_class(F(40_001), F(4000), F(10)) == "high"

    def test_boundary_is_strict(self):
        assert volatility_class(F(4000), F(40_000), F(10)) == "low"

    @pytest.mark.parametrize("lam", [F(1), F(1, 2), 0])
    def test_threshold_must_exceed_one(self, lam):
        with pytest.raises(DomainError, match="volatility threshold must exceed 1"):
            volatility_class(F(4000), F(3000), lam)


class TestTraderSurplus:
    def test_toy_post_trade_comparison(self):
        eco = Ecosystem.from_reserves([(F(90), F(444_444)), (F(100), F(400_000))])
        report = trader_surplus_comparison(eco, F(10))
        assert float(report.quote_gmm) == pytest.approx(42_222.2, abs=1.0)
        assert float(report.quote_cpmm_balanced) == pytest.approx(40_206.4, abs=1.0)
        assert report.gmm_beats_balanced
        assert not report.preservation.holds
        assert report.quote_gmm_rebal >= report.quote_cpmm_balanced

    def test_equal_ratio_quotes_coincide(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000)), (F(40), F(160_000))])
        report = trader_surplus_comparison(eco, F(7))
        assert report.quote_cpmm_balanced == report.quote_gmm == report.quote_gmm_rebal
        assert not report.preservation.holds

    def test_preservation_fixture_orders_quotes(self):
        eco = Ecosystem.from_reserves([(F(1000), F(4_000_000)), (F(10), F(50_000))])
        report = trader_surplus_comparison(eco, F(100))
        assert report.preservation.holds
        assert report.quote_cpmm_balanced > report.quote_gmm
        assert report.quote_gmm_rebal >= report.quote_cpmm_balanced

    def test_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            trader_surplus_comparison(benchmark_eco(F(1, 2)), F(0))

    def test_broken_invariant_is_domain_error(self, monkeypatch):
        # a rebalanced quote that pays nothing falls below the balanced one
        monkeypatch.setattr(
            analytics, "gmm_rebal_quote", lambda dx, eco, pool_id: (eco, SimpleNamespace(amount_out=0))
        )
        eco = Ecosystem.from_reserves([(F(90), F(444_444)), (F(100), F(400_000))])
        with pytest.raises(DomainError, match="fell below balanced-arbitrage quote"):
            trader_surplus_comparison(eco, F(10))


class TestBenchmarkValueOrdering:
    def test_second_pool_retains_more_value(self):
        eco = benchmark_eco(F(1, 2), x_total=F(200))
        r_new = F(3000)
        work = eco
        for order in insider_optimal_trades(eco, r_new):
            work, _ = apply_swap(work, order, Algorithm.GMM)
        assert pool_value(work.pools[1], r_new) > pool_value(work.pools[0], r_new)


class TestIlReport:
    def test_bundle_is_consistent(self):
        eco = benchmark_eco(F(1, 4))
        r_new = F(3000)
        work = eco
        for order in insider_optimal_trades(eco, r_new):
            work, _ = apply_swap(work, order, Algorithm.GMM)
        small = il_gmm_small_pool(F(4000), r_new, F(1, 4))
        assert small < il_cpmm(F(4000), r_new) < 1
        measured = 1 - pool_value(work.pools[1], r_new) / pool_value(eco.pools[1], r_new)
        assert measured == il_from_trajectory(eco.pools[1], work.pools[1], r_new)
        assert abs(float(measured) - float(small)) < 1e-9

    def test_flat_price_reports_zero(self):
        pool = benchmark_eco(F(1, 2)).pools[1]
        assert il_cpmm(F(4000), F(4000)) == 0
        assert il_gmm_small_pool(F(4000), F(4000), F(1, 2)) == 0
        assert il_from_trajectory(pool, pool, F(4000)) == 0
