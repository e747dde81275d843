import random
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


class TestCpmmOut:
    def test_toy_buy_ten_eth(self):
        # 44444.44 is a display-rounded size; exactly 400000/9 buys 10 ETH
        assert abs(cpmm_out(F("44444.44"), F(400_000), F(100)) - 10) < 1e-3
        assert cpmm_out(F(400_000, 9), F(400_000), F(100)) == 10

    def test_zero_order(self):
        assert cpmm_out(F(0), F(400_000), F(100)) == 0

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
