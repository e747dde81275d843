"""A stateful twin: one exact ecosystem and its float image, driven through
the same swaps, drains (toy part 5's four-swap pattern), rebalancing quotes
and bare rebalancing.

After every step the carried totals equal fresh sums, and the float image
stays within 1e-9 relative of the exact one (the README numerics contract,
here over sequences of operations).  Under the global and naive-global
rules a swap never decreases ``total_x * total_y``, and rebalancing never
moves the exact totals.  Over each run of global-rule swaps no pool ends
weakly below its start in both assets and strictly below in one (criterion
06's claim); any other step that changes state starts a new run.  Bare
rebalancing keeps the promises of ``rebalance_pools``: the exact loop makes
at most ``len(pools) - 1`` transfers, and the target's ratio moves weakly
toward the global one and never past it.  Quotes change no state: each
rule's float quote is within 1e-9 of its exact one, a global-rule quote is
at most both the local and the naive-global one, and a naive-global quote
is capped at the reserve it pays from.

The float and exact rebalancing loops may part only on a near-tie: where
one stops (or does not trigger) and the other goes on, the deciding ratio
gap is within ``FLOAT_RATIO_TOL``; where they pick different receivers,
those receivers' exact ratios differ, but by at most that tolerance
(receivers at one exact ratio go to the lowest index in both loops).
After such a step the float image restarts from the exact ecosystem,
since the two results then differ by a whole transfer.
"""

from fractions import Fraction as F
from itertools import zip_longest

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from ammlab.core import (
    Algorithm,
    Ecosystem,
    PoolState,
    ReserveDepletionError,
    SIDE_X,
    SIDE_Y,
    SwapOrder,
    apply_swap,
    quote_order,
)
from ammlab.rebalance import FLOAT_RATIO_TOL, gmm_rebal_transfers, rebalance_pools

FLOAT_REL_TOL = F(1, 10**9)
RESERVES = st.integers(1_000, 10_000_000)
POOL = st.integers(0, 4)  # taken modulo the pool count


def _close(value: float, exact: F) -> bool:
    return abs(F(value) - exact) <= FLOAT_REL_TOL * abs(exact)


def _float_image(eco: Ecosystem) -> Ecosystem:
    return Ecosystem(tuple(PoolState(p.pool_id, float(p.x), float(p.y)) for p in eco.pools))


def _replay(eco: Ecosystem, transfers) -> Ecosystem:
    """``eco`` after the given rebalancing transfers, pool by pool."""
    pools = list(eco.pools)
    for t in transfers:
        i, j = eco.index_of(t.from_pool), eco.index_of(t.to_pool)
        pools[i] = PoolState(t.from_pool, pools[i].x - t.amount_x, pools[i].y + t.amount_y_received)
        pools[j] = PoolState(t.to_pool, pools[j].x + t.amount_x, pools[j].y - t.amount_y_received)
    return Ecosystem(tuple(pools))


def _deciding_gap(eco: Ecosystem, idx: int) -> F:
    """The smaller relative gap the rebalancing loop tests at ``eco``: the
    target below the global ratio, the best receiver above it."""
    r = eco.ratio
    target = (r - eco.pools[idx].ratio) / r
    receiver = max((p.ratio - r) / p.ratio for k, p in enumerate(eco.pools) if k != idx)
    return min(target, receiver)


class ExactFloatTwin(RuleBasedStateMachine):
    @initialize(pairs=st.lists(st.tuples(RESERVES, RESERVES), min_size=1, max_size=5))
    def build(self, pairs):
        self.exact = Ecosystem.from_reserves([(F(x), F(y)) for x, y in pairs])
        self.float = _float_image(self.exact)
        self.baseline = self.exact  # the start of the current run of global-rule swaps

    def _target(self, pool: int):
        idx = pool % len(self.exact.pools)
        return idx, self.exact.pools[idx]

    def _sized(self, pool: int, side: str, k: int):
        """The id of the drawn pool and ``k/32`` of the reserve ``side`` sends."""
        _, target = self._target(pool)
        return target.pool_id, (target.x if side == SIDE_X else target.y) * F(k, 32)

    def _swap(self, alg, side, pool_id, amount):
        """Swap ``amount`` on both twins; the exact output, or None when the
        exact swap (and so the float one) would drain the pool."""
        exact_order = SwapOrder(pool_id, side, amount)
        float_order = SwapOrder(pool_id, side, float(amount))
        try:
            exact, exact_out = apply_swap(self.exact, exact_order, alg)
        except ReserveDepletionError:
            with pytest.raises(ReserveDepletionError):
                apply_swap(self.float, float_order, alg)
            return None
        self.float, float_out = apply_swap(self.float, float_order, alg)
        assert _close(float_out, exact_out)
        if alg is not Algorithm.CPMM:
            assert exact.total_x * exact.total_y >= self.exact.total_x * self.exact.total_y
        self.exact = exact
        if alg is not Algorithm.GMM:
            self.baseline = exact
        return exact_out

    @rule(alg=st.sampled_from(Algorithm), side=st.sampled_from((SIDE_X, SIDE_Y)),
          pool=POOL, k=st.integers(1, 64))
    def swap(self, alg, side, pool, k):
        self._swap(alg, side, *self._sized(pool, side, k))

    @rule(alg=st.sampled_from((Algorithm.GMM, Algorithm.NGMM)),
          side=st.sampled_from((SIDE_X, SIDE_Y)),
          first=POOL, second=POOL, k1=st.integers(1, 64), k2=st.integers(1, 64))
    def drain(self, alg, side, first, second, k1, k2):
        """Toy part 5's drain: two same-direction swaps, then each one's
        proceeds sent back to the pool that paid them.  It drains pools
        under the naive global rule, which the global rule must prevent.

        Exact denominators compound with every swap priced on the totals,
        so both twins first restart from the float image, read back
        exactly, and a new run of global-rule swaps starts there.
        """
        self.exact = Ecosystem(tuple(PoolState(p.pool_id, F(p.x), F(p.y))
                                     for p in _float_image(self.exact).pools))
        self.float, self.baseline = _float_image(self.exact), self.exact
        legs = []
        for pool, k in ((first, k1), (second, k2)):
            pool_id, amount = self._sized(pool, side, k)
            out = self._swap(alg, side, pool_id, amount)
            if out is None:
                return
            legs.append((pool_id, out))
        back = SIDE_Y if side == SIDE_X else SIDE_X
        for pool_id, out in legs:
            if self._swap(alg, back, pool_id, out) is None:
                return

    @rule(side=st.sampled_from((SIDE_X, SIDE_Y)), pool=POOL, k=st.integers(1, 64))
    def quote(self, side, pool, k):
        _, target = self._target(pool)
        amount = (target.x if side == SIDE_X else target.y) * F(k, 32)
        reserve_out = target.y if side == SIDE_X else target.x
        exact_order = SwapOrder(target.pool_id, side, amount)
        float_order = SwapOrder(target.pool_id, side, float(amount))
        out = {}
        for alg in Algorithm:
            out[alg] = quote_order(self.exact, exact_order, alg).amount_out
            assert _close(quote_order(self.float, float_order, alg).amount_out, out[alg])
        gmm = out[Algorithm.GMM]
        assert gmm <= out[Algorithm.CPMM] and gmm <= out[Algorithm.NGMM]
        assert out[Algorithm.NGMM] <= reserve_out  # the naive rule's cap

    @rule(pool=POOL, k=st.integers(1, 64), forced=st.booleans())
    def rebalance(self, pool, k, forced):
        idx, target = self._target(pool)
        dx = target.x * F(k, 16)
        exact, exact_quote, exact_moves = gmm_rebal_transfers(dx, self.exact, target.pool_id, forced)
        image, float_quote, float_moves = gmm_rebal_transfers(
            float(dx), self.float, target.pool_id, forced
        )
        assert (exact.total_x, exact.total_y) == (self.exact.total_x, self.exact.total_y)
        if self._take_rebalanced(idx, exact, exact_moves, image, float_moves):
            assert _close(float_quote.amount_out, exact_quote.amount_out)

    @rule(pool=POOL)
    def rebalance_alone(self, pool):
        idx, target = self._target(pool)
        r = self.exact.ratio
        exact, exact_moves = rebalance_pools(self.exact, target.pool_id)
        image, float_moves = rebalance_pools(self.float, target.pool_id)
        assert (exact.total_x, exact.total_y) == (self.exact.total_x, self.exact.total_y)
        assert len(exact_moves) <= len(exact.pools) - 1
        assert min(target.ratio, r) <= exact.pools[idx].ratio <= max(target.ratio, r)
        self._take_rebalanced(idx, exact, exact_moves, image, float_moves)

    def _take_rebalanced(self, idx, exact, exact_moves, image, float_moves) -> bool:
        """Move the twin to the rebalanced ecosystems; True when both loops
        made the same moves."""
        exact_path = [t.to_pool for t in exact_moves]
        float_path = [t.to_pool for t in float_moves]
        same = exact_path == float_path
        if not same:
            # the loops parted on a tie, at the first move they disagree on
            n = next(i for i, pair in enumerate(zip_longest(exact_path, float_path))
                     if pair[0] != pair[1])
            at = _replay(self.exact, exact_moves[:n])
            if n < min(len(exact_path), len(float_path)):  # two receivers at nearly one ratio
                a, b = at.pool(exact_path[n]).ratio, at.pool(float_path[n]).ratio
                assert a != b and abs(a - b) <= FLOAT_RATIO_TOL * max(a, b)
            else:  # one loop stopped, or did not start, where the other went on
                assert _deciding_gap(at, idx) <= FLOAT_RATIO_TOL
            image = _float_image(exact)  # from here on the two differ by design
        self.exact, self.float, self.baseline = exact, image, exact
        return same

    @invariant()
    def totals_are_fresh_sums(self):
        for eco in (self.exact, self.float):
            fresh = Ecosystem(eco.pools)
            assert (eco.total_x, eco.total_y) == (fresh.total_x, fresh.total_y)

    @invariant()
    def global_rule_drains_no_pool(self):
        for start, now in zip(self.baseline.pools, self.exact.pools):
            dx, dy = now.x - start.x, now.y - start.y
            assert not (dx <= 0 and dy <= 0 and (dx < 0 or dy < 0)), (start, now)

    @invariant()
    def float_image_tracks_exact(self):
        for image, exact in zip(self.float.pools, self.exact.pools):
            assert _close(image.x, exact.x) and _close(image.y, exact.y)


TestExactFloatTwin = ExactFloatTwin.TestCase
TestExactFloatTwin.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None, derandomize=True
)


def test_receivers_at_one_ratio_part_the_twin():
    # amm1, amm3 and amm4 land on one ratio; after the ratio moves, amm3 and
    # amm4 are tied receivers; float rounding leaves amm4's ratio an ulp
    # higher, and the float loop still takes amm3, as the exact loop does
    twin = ExactFloatTwin()
    twin.build(pairs=[(1000, 1000), (6397, 1000), (1001, 1000), (1000, 1000)])
    twin.rebalance(pool=1, k=9, forced=False)
    twin.swap(alg=Algorithm.CPMM, side=SIDE_X, pool=0, k=1)
    twin.swap(alg=Algorithm.CPMM, side=SIDE_X, pool=1, k=1)
    assert twin.exact.pools[2].ratio == twin.exact.pools[3].ratio
    assert twin.float.pools[2].ratio < twin.float.pools[3].ratio
    for eco in (twin.exact, twin.float):
        assert rebalance_pools(eco, "amm1")[1][0].to_pool == "amm3"
    twin.rebalance(pool=0, k=1, forced=True)
    twin.totals_are_fresh_sums()
    twin.float_image_tracks_exact()
