import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammlab.core import (
    Algorithm,
    BRANCH_CPMM,
    BRANCH_NGMM,
    CONVERGENT,
    DIVERGENT,
    DomainError,
    Ecosystem,
    OVERSHOOTING,
    PoolState,
    ReserveDepletionError,
    SIDE_X,
    SIDE_Y,
    SwapOrder,
    apply_swap,
    classify_swap,
    cpmm_out,
    gmm_out,
    ngmm_out,
    pool_value,
    quote_order,
)
from conftest import rand_eco

reserves = st.fractions(min_value=F(1, 10), max_value=F(10**7), max_denominator=10**4)
amounts = st.fractions(min_value=0, max_value=F(10**6), max_denominator=10**4)
pos_amounts = st.fractions(min_value=F(1, 100), max_value=F(10**6), max_denominator=10**4)


def twin_eco(x=100, y=400_000):
    return Ecosystem.from_reserves([(F(x), F(y))] * 2)


@st.composite
def exact_ecosystems(draw):
    """Exact ecosystems of 1-5 pools; half of them hold every pool at one ratio."""
    n = draw(st.integers(1, 5))
    xs = draw(st.lists(reserves, min_size=n, max_size=n))
    if draw(st.booleans()):
        ratio = draw(st.fractions(min_value=F(1, 100), max_value=F(100), max_denominator=100))
        return Ecosystem.from_reserves([(x, x * ratio) for x in xs])
    ys = draw(st.lists(reserves, min_size=n, max_size=n))
    return Ecosystem.from_reserves(zip(xs, ys))


def float_image(eco):
    return Ecosystem.from_reserves([(float(p.x), float(p.y)) for p in eco.pools])


class TestCpmmOut:
    def test_toy_buy_ten_eth(self):
        # 44444.44 is a display-rounded size; exactly 400000/9 buys 10 ETH
        assert abs(cpmm_out(F("44444.44"), F(400_000), F(100)) - 10) < 1e-3
        assert cpmm_out(F(400_000, 9), F(400_000), F(100)) == 10

    def test_zero_order(self):
        assert cpmm_out(F(0), F(400_000), F(100)) == 0

    def test_int_reserves_pay_a_fraction(self):
        out = cpmm_out(10, 100, 400_000)
        assert type(out) is F
        assert out == F(400_000, 11)

    def test_toy_sandwich_frontrun(self):
        out = cpmm_out(F(60_000), F(400_000), F(100))
        assert out == F(300, 23)
        assert abs(float(out) - 13.0435) < 1e-3

    def test_symmetric_half(self):
        for size in (F(3), F("17.5"), F(123456)):
            assert cpmm_out(size, size, size) == size / 2

    def test_nonpositive_reserves(self):
        with pytest.raises(DomainError):
            cpmm_out(F(1), F(0), F(100))
        with pytest.raises(DomainError):
            cpmm_out(F(1), F(100), F(-1))

    @pytest.mark.parametrize("dx", [F(-1), -1, -1e-300])
    def test_negative_amount_rejected(self, dx):
        with pytest.raises(DomainError, match="swap amount must be nonnegative"):
            cpmm_out(dx, F(100), F(400))
        with pytest.raises(DomainError, match="swap amount must be nonnegative"):
            gmm_out(dx, twin_eco(), "amm1")

    @given(x=reserves, y=reserves, dx=amounts)
    def test_product_conserved_exactly(self, x, y, dx):
        out = cpmm_out(dx, x, y)
        assert (x + dx) * (y - out) == x * y
        assert out < y


class TestNgmmOut:
    def test_toy_aggregate_quote(self):
        eco = Ecosystem.from_reserves([(F(90), F(444_444)), (F(100), F(400_000))])
        out = ngmm_out(F(10), eco, "amm1")
        assert abs(float(out) - 42_222) < 1.0

    def test_zero(self):
        assert ngmm_out(F(0), twin_eco(), "amm1") == 0

    def test_depletion_cap(self):
        eco = Ecosystem.from_reserves([(F(100), F(5)), (F(90), F(844_439))])
        uncapped = eco.total_y * 10 / (eco.total_x + 10)
        assert uncapped > 5
        assert ngmm_out(F(10), eco, "amm1") == 5

    def test_unknown_pool(self):
        with pytest.raises(DomainError):
            ngmm_out(F(1), twin_eco(), "nope")


class TestClassifySwap:
    def test_equal_ratio_is_divergent(self):
        assert classify_swap(F(44_444), twin_eco().relabeled(), "amm1") == DIVERGENT

    def test_toy_convergent(self):
        eco = Ecosystem.from_reserves([(F(90), F(444_444)), (F(100), F(400_000))])
        assert classify_swap(F(10), eco, "amm1") == CONVERGENT

    def test_overshooting_fixture(self):
        eco = Ecosystem.from_reserves([(F(100), F(500_000)), (F(1000), F(4_000_000))])
        # naive-global equals local exactly at dx = 25; above that it overshoots
        assert ngmm_out(F(25), eco, "amm1") == cpmm_out(F(25), F(100), F(500_000))
        assert classify_swap(F(25), eco, "amm1") == CONVERGENT  # tie labels convergent
        assert classify_swap(F(20), eco, "amm1") == CONVERGENT
        assert classify_swap(F(50), eco, "amm1") == OVERSHOOTING
        assert float(ngmm_out(F(50), eco, "amm1")) == pytest.approx(195_652.17, abs=0.01)
        assert float(cpmm_out(F(50), F(100), F(500_000))) == pytest.approx(166_666.67, abs=0.01)

    def test_single_pool_divergent_by_convention(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000))])
        assert classify_swap(F(10), eco, "amm1") == DIVERGENT


class TestGmmOut:
    def test_divergent_takes_local_branch(self):
        quote = gmm_out(F(44_444), twin_eco().relabeled(), "amm1")
        assert quote.branch == BRANCH_CPMM
        assert quote.classification == DIVERGENT
        assert abs(float(quote.amount_out) - 10) < 1e-2

    def test_convergent_takes_global_branch(self):
        eco = Ecosystem.from_reserves([(F(90), F(444_444)), (F(100), F(400_000))])
        quote = gmm_out(F(10), eco, "amm1")
        assert quote.branch == BRANCH_NGMM
        assert abs(float(quote.amount_out) - 42_222) < 1.0

    def test_toy_backrun_quote(self):
        eco = Ecosystem.from_reserves([(F(80), F(500_000)), (F(100), F(400_000))])
        quote = gmm_out(F("13.0435"), eco, "amm1")
        assert abs(float(quote.amount_out) - 60_811) < 1.0

    @given(st.data())
    @settings(max_examples=100)
    def test_dominance(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        eco = rand_eco(rng, rng.randint(2, 4))
        dx = data.draw(pos_amounts)
        pid = eco.pools[0].pool_id
        quote = gmm_out(dx, eco, pid)
        local = cpmm_out(dx, eco.pools[0].x, eco.pools[0].y)
        naive = ngmm_out(dx, eco, pid)
        assert quote.amount_out <= local
        assert quote.amount_out <= naive
        if quote.classification in (DIVERGENT, OVERSHOOTING):
            assert quote.amount_out == local
        else:
            assert quote.amount_out == naive
        # the naive branch binds exactly on convergent swaps
        assert (quote.branch == BRANCH_NGMM) == (quote.classification == CONVERGENT)

    @given(st.data())
    @settings(max_examples=60)
    def test_divergent_implies_local_branch(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        eco = rand_eco(rng, 3)
        dx = data.draw(pos_amounts)
        for pool in eco.pools:
            quote = gmm_out(dx, eco, pool.pool_id)
            if quote.classification == DIVERGENT:
                assert quote.branch == BRANCH_CPMM


class TestApplySwap:
    def test_toy_first_trade(self):
        eco, out = apply_swap(twin_eco(), SwapOrder("amm1", SIDE_Y, F(400_000, 9)), Algorithm.CPMM)
        assert out == 10
        assert eco.pools[0].x == 90
        assert eco.pools[0].y == F(4_000_000, 9)
        assert eco.pools[1] == twin_eco().pools[1]

    def test_int_reserves_swap_exactly(self):
        eco = Ecosystem.from_reserves([(100, 400_000), (100, 400_000)])
        assert {type(v) for p in eco.pools for v in (p.x, p.y)} == {F}
        work, out = apply_swap(eco, SwapOrder("amm1", SIDE_X, 10), Algorithm.GMM)
        assert type(out) is F
        assert out == F(400_000, 11)
        assert work.pools[0] == PoolState("amm1", F(110), F(4_000_000, 11))

    def test_zero_order_no_change(self):
        eco = twin_eco()
        eco2, out = apply_swap(eco, SwapOrder("amm1", SIDE_X, F(0)), Algorithm.GMM)
        assert out == 0
        assert eco2 == eco

    def test_naive_global_drain_step(self):
        eco, out = apply_swap(twin_eco(), SwapOrder("amm1", SIDE_X, F(10)), Algorithm.NGMM)
        assert abs(float(out) - 38_095) < 1.0
        assert eco.pools[0].x == 110
        assert abs(float(eco.pools[0].y) - 361_905) < 1.0

    def test_input_not_mutated(self):
        eco = twin_eco()
        apply_swap(eco, SwapOrder("amm2", SIDE_X, F(5)), Algorithm.GMM)
        assert eco == twin_eco()

    def test_depletion_raises(self):
        eco = Ecosystem.from_reserves([(F(100), F(5)), (F(90), F(844_439))])
        with pytest.raises(ReserveDepletionError):
            apply_swap(eco, SwapOrder("amm1", SIDE_X, F(10)), Algorithm.NGMM)

    @pytest.mark.parametrize("alg", [Algorithm.CPMM, Algorithm.GMM])
    @pytest.mark.parametrize("side", [SIDE_X, SIDE_Y])
    def test_float_overflow_is_domain_error(self, side, alg):
        # x + dx overflows to inf and y * dx / inf is NaN: the successor's
        # reserves are checked, so the NaN never reaches a pool
        eco = Ecosystem.from_reserves([(1e308, 1e308), (1e308, 1e308)])
        with pytest.raises(DomainError, match="strictly positive reserves"):
            apply_swap(eco, SwapOrder("amm1", side, 1e308), alg)

    @given(
        pairs=st.lists(st.tuples(st.integers(10_000, 5_000_000), st.integers(10_000, 5_000_000)),
                       min_size=2, max_size=2),
        amount=pos_amounts,
    )
    @example(pairs=[(321_673, 651_872), (612_089, 1_150_347)], amount=F(2_352_660_115, 2354))
    @settings(max_examples=60)
    def test_direction_symmetry(self, pairs, amount):
        # send-Y must equal relabel, send-X, relabel back: bit for bit on the
        # float path too, and raising alike when the naive rule drains the pool
        def outcome(call):
            try:
                return call()
            except ReserveDepletionError as exc:
                return type(exc), str(exc)

        exact = Ecosystem.from_reserves([(F(x), F(y)) for x, y in pairs])
        floats = Ecosystem.from_reserves([(float(x), float(y)) for x, y in pairs])
        for eco, dx in ((exact, amount), (floats, float(amount))):
            flipped = eco.relabeled()
            for alg in (Algorithm.CPMM, Algorithm.GMM, Algorithm.NGMM):
                via_y = quote_order(eco, SwapOrder("amm1", SIDE_Y, dx), alg)
                via_relabel = quote_order(flipped, SwapOrder("amm1", SIDE_X, dx), alg)
                assert via_y == via_relabel
                route_y = outcome(lambda: apply_swap(eco, SwapOrder("amm1", SIDE_Y, dx), alg))
                route_x = outcome(lambda: apply_swap(flipped, SwapOrder("amm1", SIDE_X, dx), alg))
                if isinstance(route_x[0], Ecosystem):
                    route_x = route_x[0].relabeled(), route_x[1]
                assert route_y == route_x


    @given(
        pairs=st.lists(st.tuples(reserves, reserves), min_size=1, max_size=5),
        steps=st.lists(
            st.tuples(st.integers(0, 4), st.sampled_from((SIDE_X, SIDE_Y)),
                      st.fractions(F(1, 1000), F(3), max_denominator=1000),
                      st.sampled_from((Algorithm.CPMM, Algorithm.GMM, Algorithm.NGMM))),
            min_size=1, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_carried_totals_match_fresh_sums(self, pairs, steps):
        # each swap builds its successor without re-summing exact totals;
        # they must equal the totals of a freshly built ecosystem, and the
        # float totals must be the same bits
        for conv in (F, float):
            work = Ecosystem.from_reserves([(conv(x), conv(y)) for x, y in pairs])
            for k, side, scale, alg in steps:
                pool = work.pools[k % len(work.pools)]
                size = (pool.x if side == SIDE_X else pool.y) * conv(scale)
                try:
                    work, _ = apply_swap(work, SwapOrder(pool.pool_id, side, size), alg)
                except ReserveDepletionError:
                    break
                fresh = Ecosystem(work.pools)
                assert (work.total_x, work.total_y) == (fresh.total_x, fresh.total_y)
                assert type(work.total_x) is type(fresh.total_x)
                assert work.pool(pool.pool_id) is work.pools[k % len(work.pools)]

    @given(
        pairs=st.lists(st.tuples(st.integers(1, 10**7), st.integers(1, 10**7)),
                       min_size=1, max_size=5),
        steps=st.lists(
            st.tuples(st.integers(0, 4), st.sampled_from((SIDE_X, SIDE_Y)),
                      st.fractions(F(1, 1000), F(3), max_denominator=1000),
                      st.sampled_from((Algorithm.CPMM, Algorithm.GMM))),
            min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_int_and_fraction_pools_carry_exact_totals(self, pairs, steps):
        # even pools are given ints, odd ones Fractions; every pool holds
        # Fractions, and the carried totals must equal fresh sums in value and
        # type
        work = Ecosystem.from_reserves(
            [(x, y) if i % 2 == 0 else (F(x), F(y)) for i, (x, y) in enumerate(pairs)]
        )
        for k, side, scale, alg in steps:
            pool = work.pools[k % len(work.pools)]
            size = (pool.x if side == SIDE_X else pool.y) * scale
            work, _ = apply_swap(work, SwapOrder(pool.pool_id, side, size), alg)
            fresh = Ecosystem(work.pools)
            assert (work.total_x, work.total_y) == (fresh.total_x, fresh.total_y)
            assert (type(work.total_x), type(work.total_y)) == (type(fresh.total_x),
                                                              type(fresh.total_y))


class TestAmountKernel:
    """``apply_swap`` prices only the amount; ``quote_order`` adds the label."""

    @given(eco=exact_ecosystems(), k=st.integers(0, 4), side=st.sampled_from((SIDE_X, SIDE_Y)),
           scale=st.fractions(min_value=0, max_value=4, max_denominator=1000))
    @example(eco=Ecosystem.from_reserves([(F(100), F(5)), (F(90), F(844_439))]),
             k=0, side=SIDE_X, scale=F(1, 10))
    @example(eco=Ecosystem.from_reserves([(F(5), F(100)), (F(844_439), F(90))]),
             k=0, side=SIDE_Y, scale=F(1, 10))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_swap_pays_the_quote(self, eco, k, side, scale):
        pool = eco.pools[k % len(eco.pools)]
        view = eco if side == SIDE_X else eco.relabeled()
        target = view.pool(pool.pool_id)
        x_i, y_i = target.x, target.y
        dx = x_i * scale
        order = SwapOrder(pool.pool_id, side, dx)
        local = cpmm_out(dx, x_i, y_i)
        naive = min(view.total_y * dx / (view.total_x + dx), y_i)
        expected = {Algorithm.CPMM: local, Algorithm.NGMM: naive, Algorithm.GMM: min(naive, local)}
        for alg, out in expected.items():
            assert quote_order(eco, order, alg).amount_out == out
            if out == y_i:  # only the naive rule can pay out a whole reserve
                assert alg is Algorithm.NGMM
                with pytest.raises(ReserveDepletionError):
                    apply_swap(eco, order, alg)
            else:
                assert apply_swap(eco, order, alg)[1] == out

    @given(eco=exact_ecosystems(), k=st.integers(0, 4), side=st.sampled_from((SIDE_X, SIDE_Y)),
           scale=st.fractions(min_value=F(1, 10**6), max_value=4, max_denominator=10**6))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_float_swap_parts_from_quote_only_on_rounding(self, eco, k, side, scale):
        # the global rule's swap takes min(naive, local); its quote prices a
        # divergent order locally, where exactly naive >= local.  In floats
        # the two may differ only where naive rounds below local
        floats = float_image(eco)
        pool = floats.pools[k % len(floats.pools)]
        order = SwapOrder(pool.pool_id, side, (pool.x if side == SIDE_X else pool.y) * float(scale))
        for alg in Algorithm:
            quote = quote_order(floats, order, alg)
            try:
                out = apply_swap(floats, order, alg)[1]
            except ReserveDepletionError:
                assert alg is Algorithm.NGMM
                continue
            if out != quote.amount_out:
                assert alg is Algorithm.GMM and quote.classification == DIVERGENT
                assert out == quote_order(floats, order, Algorithm.NGMM).amount_out
                assert out < quote.amount_out

    @pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf, -1.0, F(-1, 3)])
    @pytest.mark.parametrize("side", [SIDE_X, SIDE_Y])
    def test_order_amount_must_be_finite_and_nonnegative(self, side, amount):
        with pytest.raises(DomainError, match="amount_in"):
            SwapOrder("amm1", side, amount)

    @pytest.mark.parametrize("side", ["x", "Z", "", None])
    def test_order_side_must_be_x_or_y(self, side):
        with pytest.raises(DomainError, match="side must be 'X' or 'Y', got " + re.escape(repr(side))):
            SwapOrder("amm1", side, F(1))

    @pytest.mark.parametrize("amount", [0, 0.0, F(0), 1e308, 10**400, F(10**400, 3)])
    def test_large_and_zero_amounts_are_orders(self, amount):
        assert SwapOrder("amm1", SIDE_Y, amount).amount_in == amount


class TestRelabeled:
    @staticmethod
    def _check(eco):
        flipped, fresh = eco.relabeled(), Ecosystem(tuple(p.relabeled() for p in eco.pools))
        assert flipped == fresh
        assert (flipped.total_x, flipped.total_y) == (fresh.total_x, fresh.total_y)
        assert (type(flipped.total_x), type(flipped.total_y)) == (type(fresh.total_x),
                                                                  type(fresh.total_y))
        assert flipped._index == fresh._index
        back = flipped.relabeled()
        assert back == eco
        assert (back.total_x, back.total_y) == (eco.total_x, eco.total_y)

    @given(eco=exact_ecosystems(),
           steps=st.lists(st.tuples(st.integers(0, 4), st.sampled_from((SIDE_X, SIDE_Y)),
                                    st.fractions(F(1, 1000), F(3), max_denominator=1000)),
                          max_size=4))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_same_as_a_fresh_ecosystem(self, eco, steps):
        # fresh and after global-rule swaps, whose totals are carried
        for work in (eco, float_image(eco)):
            conv = type(work.total_x)
            self._check(work)
            for k, side, scale in steps:
                pool = work.pools[k % len(work.pools)]
                size = (pool.x if side == SIDE_X else pool.y) * conv(scale)
                work, _ = apply_swap(work, SwapOrder(pool.pool_id, side, size), Algorithm.GMM)
                self._check(work)


class TestPoolValue:
    def test_toy_hold_value(self):
        assert pool_value(PoolState("p", F(100), F(400_000)), F(3_000)) == 700_000

    def test_toy_final_value(self):
        value = pool_value(PoolState("p", F("115.47"), F("346410.16")), F(3_000))
        assert abs(float(value) - 692_820.16) < 0.01

    def test_ratio_price_doubles(self):
        pool = PoolState("p", F(123), F(456_789))
        assert pool_value(pool, pool.ratio) == 2 * pool.y


class TestProductMonotonicity:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_products_never_shrink_under_global_rule(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        eco = rand_eco(rng, rng.randint(2, 4))
        work = eco
        for _ in range(6):
            idx = rng.randrange(len(work.pools))
            side = rng.choice((SIDE_X, SIDE_Y))
            pool = work.pools[idx]
            size = (pool.x if side == SIDE_X else pool.y) * F(rng.randint(1, 50), 100)
            before = pool.product
            canonical = work if side == SIDE_X else work.relabeled()
            quote = gmm_out(size, canonical, pool.pool_id)
            local = cpmm_out(
                size,
                pool.x if side == SIDE_X else pool.y,
                pool.y if side == SIDE_X else pool.x,
            )
            work, _ = apply_swap(work, SwapOrder(pool.pool_id, side, size), Algorithm.GMM)
            after = work.pools[idx].product
            assert after >= before
            if quote.classification == CONVERGENT and quote.amount_out < local:
                assert after > before


class TestFloatAgreement:
    GOLDEN = [
        (F("44444.44"), F(400_000), F(100)),
        (F(60_000), F(400_000), F(100)),
        (F(400_000, 9), F(400_000), F(100)),
        (F(1), F(3), F(7)),
    ]

    @pytest.mark.parametrize("dx,x,y", GOLDEN)
    def test_cpmm_paths_agree(self, dx, x, y):
        exact = cpmm_out(dx, x, y)
        fast = cpmm_out(float(dx), float(x), float(y))
        assert abs(fast - float(exact)) <= 1e-9 * float(exact)

    def test_gmm_paths_agree(self):
        eco = Ecosystem.from_reserves([(F(90), F(444_444)), (F(100), F(400_000))])
        eco_f = Ecosystem.from_reserves([(90.0, 444_444.0), (100.0, 400_000.0)])
        for dx in (F(10), F(5), F("0.25"), F(150)):
            exact = gmm_out(dx, eco, "amm1")
            fast = gmm_out(float(dx), eco_f, "amm1")
            assert fast.classification == exact.classification
            assert abs(fast.amount_out - float(exact.amount_out)) <= 1e-9 * float(exact.amount_out)


class TestAlgorithmParse:
    def test_rebalancing_is_not_a_pricing_rule(self):
        # gmm-rebal is a quote procedure of the rebalance module and the CLI
        with pytest.raises(DomainError, match="unknown algorithm 'gmm-rebal'"):
            Algorithm.parse("gmm-rebal")


class TestEcosystemValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DomainError):
            Ecosystem((PoolState("a", F(1), F(1)), PoolState("a", F(2), F(2))))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Ecosystem(())

    def test_nonpositive_reserve_rejected(self):
        with pytest.raises(DomainError):
            PoolState("a", F(0), F(1))

    def test_aggregates(self):
        eco = Ecosystem.from_reserves([(F(90), F(444_444)), (F(100), F(400_000))])
        assert eco.total_x == 190
        assert eco.total_y == 844_444
