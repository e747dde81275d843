"""Adversarial strategies against pool ecosystems: sandwich attacks with
their closed-form profits, arbitrage-cycle search and certification, exploit
sequence replay, and the profit-maximizing insider of the two-pool
benchmark.

Closed forms are written out literally so the simulation engine and the
formulas stay independent routes that the tests reconcile.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import (
    Algorithm,
    DomainError,
    Ecosystem,
    PoolState,
    ReserveDepletionError,
    SIDE_X,
    SIDE_Y,
    SwapOrder,
    apply_swap,
    gmm_out,
)
from .numeric import Num, golden_section_max, is_exact, sqrt_any


def _other(side: str) -> str:
    return SIDE_Y if side == SIDE_X else SIDE_X


@dataclass(frozen=True)
class SandwichSpec:
    """Front-run and victim sizes, both in the sent asset, canonical send-X."""

    pool_id: str
    victim_dx: Num
    attack_dx: Num

    def __post_init__(self):
        if not self.victim_dx > 0:
            raise DomainError("victim order must be positive")
        if self.attack_dx < 0:
            raise DomainError("attack size must be nonnegative")


@dataclass(frozen=True)
class SandwichReport:
    attacker_profit: Num  # back-run output minus front-run input; may be negative
    victim_out: Num
    front_out: Num
    back_out: Num
    trajectory: Tuple[Ecosystem, ...]  # before, after front, after victim, after back


@dataclass(frozen=True)
class ArbitrageCycle:
    """An executable sequence of swaps and the arbitrageur's net position."""

    legs: Tuple[SwapOrder, ...]
    leg_outputs: Tuple[Num, ...]
    net_x: Num
    net_y: Num
    start_side: str
    profit: Num  # in units of the start asset; the other asset nets to zero
    value_y: Num  # profit valued in Y at the initial global ratio


@dataclass(frozen=True)
class ExploitReport:
    """Per-pool reserve drift of an order sequence versus the initial state."""

    deltas: Tuple[Tuple[str, Num, Num], ...]
    exploited: Tuple[str, ...]  # pools weakly down in both assets, one strictly
    final: Ecosystem


def simulate_sandwich(eco: Ecosystem, spec: SandwichSpec, alg: Algorithm) -> SandwichReport:
    """Run front-run / victim / back-run against ``spec.pool_id`` under ``alg``.

    The back-run sends exactly the front-run's output back to the same pool
    (the elementary shape); profit is back-run output minus front-run input.
    """
    trajectory = [eco]
    front_out: Num = 0
    if spec.attack_dx > 0:
        eco, front_out = apply_swap(
            eco, SwapOrder(spec.pool_id, SIDE_X, spec.attack_dx, "attacker"), alg
        )
    trajectory.append(eco)
    eco, victim_out = apply_swap(
        eco, SwapOrder(spec.pool_id, SIDE_X, spec.victim_dx, "trader"), alg
    )
    trajectory.append(eco)
    back_out: Num = 0
    if spec.attack_dx > 0:
        eco, back_out = apply_swap(
            eco, SwapOrder(spec.pool_id, SIDE_Y, front_out, "attacker"), alg
        )
    trajectory.append(eco)
    return SandwichReport(
        attacker_profit=back_out - spec.attack_dx,
        victim_out=victim_out,
        front_out=front_out,
        back_out=back_out,
        trajectory=tuple(trajectory),
    )


def sandwich_profit_cpmm_closed(x_i: Num, victim_dx: Num, attack_dx: Num) -> Num:
    """Closed-form sandwich profit against a lone constant-product pool.

    Depends only on the sent-asset reserve; agrees exactly with the three-leg
    simulation on the rational path.
    """
    if not x_i > 0:
        raise DomainError("reserve must be strictly positive")
    d = victim_dx / x_i
    dh = attack_dx / x_i
    t = 1 + dh + d
    return (t * t / (t * (1 + dh) - d) - 1) * attack_dx


def sandwich_profit_gmm_closed(x_i: Num, x_global: Num, victim_dx: Num, attack_dx: Num) -> Num:
    """Closed-form sandwich profit under the global rule, for a pool embedded
    in equal-ratio global reserves ``x_global >= x_i``."""
    if not x_i > 0:
        raise DomainError("reserve must be strictly positive")
    if x_global < x_i:
        raise DomainError("global reserves cannot be smaller than the pool's")
    t_loc = 1 + (attack_dx + victim_dx) / x_i
    t_glob = 1 + (attack_dx + victim_dx) / x_global
    return (t_glob * t_loc / (t_loc * (1 + attack_dx / x_i) - victim_dx / x_global) - 1) * attack_dx


def sandwich_profit_beta(x_i: Num, beta: Num, victim_dx: Num, attack_dx: Num) -> Num:
    """Sandwich profit when outside pools hold ``beta`` times this pool's reserves:
    :func:`sandwich_profit_gmm_closed` with global reserves ``(1+beta)*x_i``."""
    if beta < 0:
        raise DomainError("reserve multiple must be nonnegative")
    return sandwich_profit_gmm_closed(x_i, (1 + beta) * x_i, victim_dx, attack_dx)


def sandwich_profit_nsplit(x_global: Num, n: int, victim_dx: Num, attack_dx: Num) -> Num:
    """Sandwich profit when ``x_global`` is evenly split across ``n`` pools:
    :func:`sandwich_profit_gmm_closed` with ``x_i = x_global / n``."""
    if not (type(n) is int and n >= 1):  # bool is an int subclass, not a count
        raise DomainError("split count must be a positive integer")
    return sandwich_profit_gmm_closed(x_global / n, x_global, victim_dx, attack_dx)


def _float_ecosystem(eco: Ecosystem) -> Ecosystem:
    return Ecosystem(
        tuple(PoolState(p.pool_id, float(p.x), float(p.y)) for p in eco.pools)
    )


def _cycle_profit(eco: Ecosystem, alg: Algorithm, first: str, second: str,
                  side: str, amount: Num) -> Optional[Tuple[Num, Num]]:
    """Forward-all two-leg cycle: send ``amount`` of ``side`` to ``first``,
    forward the proceeds to ``second``.  Returns (middle output, profit)."""
    if amount == 0:
        return 0, 0
    try:
        work, mid = apply_swap(eco, SwapOrder(first, side, amount, "arbitrageur"), alg)
        _, back = apply_swap(work, SwapOrder(second, _other(side), mid, "arbitrageur"), alg)
    except (ReserveDepletionError, DomainError):
        return None
    return mid, back - amount


def _refined_two_leg(eco: Ecosystem, alg: Algorithm, first: str, second: str,
                     side: str) -> Optional[ArbitrageCycle]:
    shadow = _float_ecosystem(eco)
    reserve = shadow.total_x if side == SIDE_X else shadow.total_y

    def objective(q: float) -> float:
        res = _cycle_profit(shadow, alg, first, second, side, q)
        return float("-inf") if res is None else res[1]

    q_star, _ = golden_section_max(objective, 0.0, 10.0 * float(reserve))
    amount: Num = Fraction(q_star) if is_exact(eco.pools[0].x) else q_star
    if amount < 0:
        amount = 0
    res = _cycle_profit(eco, alg, first, second, side, amount)
    if res is None:
        return None
    mid, profit = res
    legs = (
        SwapOrder(first, side, amount, "arbitrageur"),
        SwapOrder(second, _other(side), mid, "arbitrageur"),
    )
    net_start = profit
    net_x, net_y = (net_start, 0) if side == SIDE_X else (0, net_start)
    value_y = profit * eco.ratio if side == SIDE_X else profit
    return ArbitrageCycle(legs, (mid, profit + amount), net_x, net_y, side, profit, value_y)


def best_two_pool_arbitrage(eco: Ecosystem, alg: Algorithm) -> ArbitrageCycle:
    """Most profitable two-leg cycle on a two-pool ecosystem.

    Tries both directions and both pool orders, maximizing the first-leg
    size by a coarse scan plus golden-section refinement (relative 1e-12);
    candidates are re-evaluated exactly on the rational path.  The winner is
    picked by profit valued at the initial global ratio.
    """
    if len(eco.pools) != 2:
        raise DomainError("two-pool search needs exactly two pools")
    ids = [p.pool_id for p in eco.pools]
    best: Optional[ArbitrageCycle] = None
    for side in (SIDE_X, SIDE_Y):
        for first, second in ((ids[0], ids[1]), (ids[1], ids[0])):
            cand = _refined_two_leg(eco, alg, first, second, side)
            if cand is not None and (best is None or cand.value_y > best.value_y):
                best = cand
    assert best is not None
    return best


def _cycle_value(eco: Ecosystem, alg: Algorithm, draws, max_legs: int,
                 exact: bool) -> Optional[Num]:
    """Value (in Y at the initial global ratio) of one random closed cycle,
    or None when a leg would drain a pool.

    The arbitrageur opens with a random-sized swap, shuffles random
    fractions of its holdings through random pools, and the closing leg
    converts everything back into the start asset, so the net position is a
    single signed number.  ``draws`` is the generator, or a :class:`_Replay`
    of a screening pass's draws.
    """
    n_legs = draws.randint(2, max_legs)
    side = draws.choice((SIDE_X, SIDE_Y))
    pool = draws.choice(eco.pools)
    reserve = pool.x if side == SIDE_X else pool.y
    frac = Fraction(draws.randint(1, 96), 128) if exact else draws.uniform(0.01, 0.75)
    opening = reserve * frac
    hold = {SIDE_X: 0, SIDE_Y: 0}
    work = eco
    try:
        work, out = apply_swap(
            work, SwapOrder(pool.pool_id, side, opening, "arbitrageur"), alg
        )
        hold[_other(side)] = out
        for _ in range(n_legs - 2):
            send = draws.choice((SIDE_X, SIDE_Y))
            if hold[send] <= 0:
                continue
            part = Fraction(draws.randint(1, 16), 16) if exact else draws.uniform(0.05, 1.0)
            amt = hold[send] * part
            target = draws.choice(eco.pools).pool_id
            work, out = apply_swap(work, SwapOrder(target, send, amt, "arbitrageur"), alg)
            hold[send] -= amt
            hold[_other(send)] += out
        left = hold[_other(side)]
        if left > 0:
            target = draws.choice(eco.pools).pool_id
            work, out = apply_swap(work, SwapOrder(target, _other(side), left, "arbitrageur"), alg)
            hold[_other(side)] = 0
            hold[side] += out
    except ReserveDepletionError:
        return None
    profit = hold[side] - opening
    return profit * eco.ratio if side == SIDE_X else profit


class _Replay:
    """Draw source for the exact pass: hands back the draws a screening pass
    recorded (ints, and indices for ``choice``), then continues from the
    generator, so the stream is consumed exactly as without screening."""

    __slots__ = ("_rng", "_plan", "_next")

    def __init__(self, rng: random.Random, plan: List[int]):
        self._rng = rng
        self._plan = plan
        self._next = 0

    def randint(self, a: int, b: int) -> int:
        if self._next < len(self._plan):
            self._next += 1
            return self._plan[self._next - 1]
        return self._rng.randint(a, b)

    def choice(self, seq):
        if self._next < len(self._plan):
            self._next += 1
            return seq[self._plan[self._next - 1]]
        return self._rng.choice(seq)


# Float screen of exact cycles.  Every float quantity q of a screening pass
# stays within a relative error bound of its exact counterpart, carried to
# first order (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
# _EPS is twice the unit roundoff per rounding; bounds are capped at
# _BOUND_CAP, so the second-order terms and the use of float values in place
# of exact ones change a bound by a factor under 1 + 1e-4, which the factor
# 2 on every margin and on the returned bound covers.
_EPS = 2.0 ** -52
_BOUND_CAP = 2.0 ** -20
# Screened ecosystems keep their reserves in [2**-100, 2**100] and outputs
# above _OUT_FLOOR, so no product or quotient of a pass leaves the normal
# float range and each rounding is relative.
_RESERVE_RANGE = (2.0 ** -100, 2.0 ** 100)
_OUT_FLOOR = 2.0 ** -400
_SIDE_INDEX = (0, 1)  # X, Y: rng.choice draws from it as from (SIDE_X, SIDE_Y)
_SCREENED = (Algorithm.CPMM, Algorithm.NGMM, Algorithm.GMM)


class _Shadow:
    """Float image of an exact ecosystem, the start state of every
    screening pass: reserves by side (0 = X, 1 = Y), totals, global ratio
    and the pool indices to draw from."""

    __slots__ = ("reserves", "totals", "ratio", "indices")

    def __init__(self, reserves: Tuple[Tuple[float, ...], Tuple[float, ...]],
                 totals: Tuple[float, float], ratio: float, indices: range):
        self.reserves = reserves
        self.totals = totals
        self.ratio = ratio
        self.indices = indices


def _shadow(eco: Ecosystem) -> Optional[_Shadow]:
    """The float image of ``eco``, or None when a reserve is outside the
    range the error bound assumes (its cycles then all run exactly)."""
    try:
        xs = tuple(float(p.x) for p in eco.pools)
        ys = tuple(float(p.y) for p in eco.pools)
        ratio = float(eco.ratio)
    except OverflowError:
        return None
    lo, hi = _RESERVE_RANGE
    if not all(lo <= v <= hi for v in xs + ys):
        return None
    totals = (float(eco.total_x), float(eco.total_y))
    return _Shadow((xs, ys), totals, ratio, range(len(eco.pools)))


def _screen_leg(res: List[List[float]], tot: List[float], s: int, i: int,
                d: float, rd: float, bound: float,
                alg: Algorithm) -> Optional[Tuple[float, float, float, int]]:
    """Float image of :func:`apply_swap` sending ``d`` of side ``s`` to pool
    ``i``, updating ``res`` and ``tot`` in place.

    ``d`` is within relative ``rd`` of its exact value and every reserve and
    total within ``bound``.  Returns ``(out, bound on out, bound on the
    state after the leg, the constant product that priced it)`` -- pool
    ``i``, or -1 for the aggregate one -- or None when a branch of the
    pricing rule lands within its error bound of a tie, or the exact swap
    could drain the pool.
    """
    o = 1 - s
    x = res[s][i]
    y = res[o][i]
    tx = tot[s]
    ty = tot[o]
    a = rd if rd > bound else bound
    if not a <= _BOUND_CAP:
        return None
    r_out = bound + rd + a + 3 * _EPS  # relative bound of y * d / (x + d)
    local = y * d / (x + d)
    product = i
    if alg is Algorithm.CPMM:
        out = local
    else:
        divergent = False
        if alg is Algorithm.GMM:
            # r_i <= r_rest, cross-multiplied: y * (tx - x) <= (ty - y) * x
            cx = tx - x
            cy = ty - y
            lhs = y * cx
            rhs = cy * x
            e_lhs = (bound * (tx + x) + _EPS * abs(cx)) * y + (bound + _EPS) * abs(lhs)
            e_rhs = (bound * (ty + y) + _EPS * abs(cy)) * x + (bound + _EPS) * abs(rhs)
            if not abs(lhs - rhs) > 2 * (e_lhs + e_rhs):
                return None
            divergent = lhs <= rhs
        if divergent:
            out = local
        else:
            raw = ty * d / (tx + d)  # within r_out too
            if not abs(raw - y) > 2 * (r_out * raw + bound * y):
                return None
            if raw >= y:  # the naive output is capped at y
                if alg is Algorithm.NGMM:
                    return None  # the exact swap drains the pool
                out = local  # local < y: overshooting
            elif alg is Algorithm.NGMM:
                out = raw
                product = -1
            else:
                if not abs(raw - local) > 2 * r_out * (raw + local):
                    return None
                if raw <= local:  # convergent
                    out = raw
                    product = -1
                else:
                    out = local
    if not out >= _OUT_FLOOR:
        return None
    rest = y - out
    if not rest > 0.0:
        return None
    res[s][i] = x + d
    res[o][i] = rest
    tot[s] = tx + d
    tot[o] = ty - out
    # y - out grows the error by y / (y - out); ty - out by less, as ty >= y
    grown = (bound * y + r_out * out) / rest + _EPS
    return out, r_out, max(a + _EPS, grown), product


def _screen_cycle(shadow: _Shadow, alg: Algorithm, rng: random.Random, max_legs: int,
                  plan: List[int]) -> Optional[Tuple[float, float]]:
    """Float pass over the next random cycle, drawing from ``rng`` exactly
    as :func:`_cycle_value` on an exact ecosystem does and recording each
    draw in ``plan``.

    Returns ``(value, err)`` with the exact cycle value within ``err`` of
    ``value``, or None when the pass cannot bound it (a branch near a tie,
    a possible depletion, a bound past the cap).  It stops at that point,
    so ``plan`` holds the draws made so far and the exact pass draws the
    rest.

    A cycle whose every leg priced against one constant product (one
    pool's, or the aggregate one) is worth exactly 0: it ends holding none
    of the other asset, so that product's other reserve is back where it
    started, and with it the start asset's.
    """
    res = [list(shadow.reserves[0]), list(shadow.reserves[1])]
    tot = list(shadow.totals)
    pools = shadow.indices
    if alg is Algorithm.GMM and len(pools) == 1:
        alg = Algorithm.CPMM  # a lone pool is divergent: the global rule prices it locally
    n_legs = rng.randint(2, max_legs)
    side = rng.choice(_SIDE_INDEX)
    i = rng.choice(pools)
    k = rng.randint(1, 96)
    plan += (n_legs, side, i, k)
    opening = res[side][i] * (k / 128)  # k / 128 is exact
    r_open = 2 * _EPS
    leg = _screen_leg(res, tot, side, i, opening, r_open, _EPS, alg)
    if leg is None:
        return None
    out, r_out, after, product = leg
    hold = [0.0, 0.0]
    hold[1 - side] = out
    bound = max(after, r_out)  # from here on it covers the holdings too
    one_product = True
    for _ in range(n_legs - 2):
        send = rng.choice(_SIDE_INDEX)
        plan.append(send)
        held = hold[send]
        if held <= 0.0:  # zero exactly when the exact holding is zero
            continue
        k = rng.randint(1, 16)
        i = rng.choice(pools)
        plan += (k, i)
        amt = held * (k / 16)
        leg = _screen_leg(res, tot, send, i, amt, bound + _EPS, bound, alg)
        if leg is None:
            return None
        out, r_out, after, used = leg
        one_product = one_product and used == product
        rest = held - amt  # exactly zero when k == 16, as is the exact one
        if rest > 0.0:
            after = max(after, (bound * held + (bound + _EPS) * amt) / rest + _EPS)
        hold[send] = rest
        hold[1 - send] += out
        bound = max(after, r_out + _EPS)
    left = hold[1 - side]
    if left > 0.0:
        i = rng.choice(pools)
        plan.append(i)
        leg = _screen_leg(res, tot, 1 - side, i, left, bound, bound, alg)
        if leg is None:
            return None
        out, r_out, after, used = leg
        one_product = one_product and used == product
        hold[side] += out
        bound = max(after, r_out + _EPS)
    if not bound <= _BOUND_CAP:
        return None
    if one_product:
        return 0.0, 0.0
    profit = hold[side] - opening
    err = bound * hold[side] + r_open * opening + _EPS * abs(profit)
    if side == 0:
        value = profit * shadow.ratio
        err = (err + 2 * _EPS * abs(profit)) * shadow.ratio
    else:
        value = profit
    return value, 2 * err + 4 * _EPS * abs(value)


def _random_cycle_value(eco: Ecosystem, alg: Algorithm, rng: random.Random,
                        max_legs: int, exact: bool, best: Num = 0,
                        shadow: Optional[_Shadow] = None) -> Optional[Num]:
    """Value of the next random cycle (see :func:`_cycle_value`), or None
    when the exact cycle drains a pool.

    With a ``shadow`` the cycle runs in float first.  When that pass proves
    the exact value is at most ``best``, the returned value is its float
    upper bound, itself at most ``best``; otherwise the cycle re-runs
    exactly on the same draws.
    """
    if shadow is None:
        return _cycle_value(eco, alg, rng, max_legs, exact)
    plan: List[int] = []
    try:
        screened = _screen_cycle(shadow, alg, rng, max_legs, plan)
    except (ZeroDivisionError, OverflowError):
        screened = None
    if screened is not None:
        upper = screened[0] + screened[1]
        if upper <= best:  # float against Fraction compares exactly
            return upper
    return _cycle_value(eco, alg, _Replay(rng, plan), max_legs, True)


def no_arbitrage_certificate(
    eco: Ecosystem,
    samples: int,
    alg: Algorithm = Algorithm.GMM,
    seed: int = 0,
    max_legs: int = 6,
    include_refined: bool = True,
) -> Num:
    """Maximum profit found over randomized multi-leg cycles (plus refined
    two-leg candidates for every pool pair), valued in Y units.

    A nonpositive result over a large sample is the statistical certificate
    that the ecosystem admits no profitable cycle; under the global rule the
    result is provably nonpositive for every cycle.  On an exact ecosystem
    each random cycle is screened in float and re-run in ``Fraction`` only
    when it could beat the running best, so the result is the exact value
    of the best cycle, as if every cycle had run exactly.
    """
    rng = random.Random(seed)
    exact = is_exact(eco.pools[0].x)
    best: Num = 0
    if include_refined and len(eco.pools) >= 2:
        ids = [p.pool_id for p in eco.pools]
        for i in range(len(ids)):
            for j in range(len(ids)):
                if i == j:
                    continue
                for side in (SIDE_X, SIDE_Y):
                    cand = _refined_two_leg(eco, alg, ids[i], ids[j], side)
                    if cand is not None and cand.value_y > best:
                        best = cand.value_y
    shadow = _shadow(eco) if exact and alg in _SCREENED else None
    cutoff = _float_floor(best)
    for _ in range(samples):
        value = _random_cycle_value(eco, alg, rng, max_legs, exact, cutoff, shadow)
        # a screened value is a float at most cutoff; skip the slow exact compare
        if value is not None and value > cutoff and value > best:
            best = value
            cutoff = _float_floor(best)
    return best


def _float_floor(value: Num) -> float:
    """The float nearest ``value`` from below: float comparisons against it
    are fast and imply the exact comparison against ``value``."""
    f = float(value)
    return f if f <= value else math.nextafter(f, -math.inf)


def replay_exploit_sequence(
    eco: Ecosystem, orders: Sequence[SwapOrder], alg: Algorithm
) -> ExploitReport:
    """Apply ``orders`` in sequence and report each pool's net reserve drift.

    A pool whose final reserves are weakly below the initial ones in both
    assets, strictly in at least one, witnesses exploitability of ``alg``.
    """
    work = eco
    for order in orders:
        work, _ = apply_swap(work, order, alg)
    deltas = []
    exploited = []
    for before, after in zip(eco.pools, work.pools):
        dx = after.x - before.x
        dy = after.y - before.y
        deltas.append((before.pool_id, dx, dy))
        if dx <= 0 and dy <= 0 and (dx < 0 or dy < 0):
            exploited.append(before.pool_id)
    return ExploitReport(tuple(deltas), tuple(exploited), work)


def _refine_stationary(total_x: Fraction, total_y: Fraction, r_new: Fraction,
                       guess: Fraction, steps: int = 90) -> Fraction:
    """Polish the second trade's size past float noise.

    The insider's marginal profit on the naive-global leg changes sign where
    ``total_x * total_y = r_new * (total_x + d)^2``; bisecting on that sign
    is exact in rational arithmetic and stays independent of the benchmark's
    closed form.
    """
    def rising(d: Fraction) -> bool:
        edge = total_x + d
        return total_x * total_y > r_new * edge * edge

    lo = guess * Fraction(999, 1000)
    hi = guess * Fraction(1001, 1000)
    while not rising(lo):
        lo /= 2
        if lo < Fraction(1, 10**12):
            return guess
    while rising(hi):
        hi *= 2
    for _ in range(steps):
        mid = (lo + hi) / 2
        if rising(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _common_ratio(eco: Ecosystem) -> Num:
    first = eco.pools[0]
    for pool in eco.pools[1:]:
        if is_exact(pool.x) and is_exact(first.x):
            same = pool.y * first.x == first.y * pool.x
        else:
            same = abs(float(pool.ratio) - float(first.ratio)) <= 1e-9 * float(first.ratio)
        if not same:
            raise DomainError("benchmark pools must share a common ratio")
    return eco.ratio


def insider_optimal_trades(eco: Ecosystem, r_new: Num) -> List[SwapOrder]:
    """Two-trade sequence of a profit-maximizing insider moving marginal
    prices from the pools' common ratio to ``r_new``.

    The first trade hits the larger pool at local constant-product prices
    and lands it exactly on ``r_new``; the second hits the smaller pool at
    naive-global prices with the size that maximizes the insider's position
    value, found by golden-section search.  When ``r_new`` is above the
    current ratio the whole construction runs on relabeled assets.  After
    both trades every pool's marginal ratio equals ``r_new``.
    """
    if len(eco.pools) > 2:
        raise DomainError("the benchmark is defined for one or two pools")
    if not r_new > 0:
        raise DomainError("target price must be positive")
    r_init = _common_ratio(eco)
    if r_new == r_init:
        return []
    if r_new > r_init:
        flipped = insider_optimal_trades(eco.relabeled(), 1 / r_new)
        return [SwapOrder(o.pool_id, SIDE_Y, o.amount_in, o.sender_tag) for o in flipped]

    large_idx = max(range(len(eco.pools)), key=lambda k: (eco.pools[k].x, -k))
    large = eco.pools[large_idx]
    growth = sqrt_any(r_init / r_new)  # > 1
    first = SwapOrder(large.pool_id, SIDE_X, large.x * (growth - 1), "insider")
    if len(eco.pools) == 1:
        return [first]

    after_first, _ = apply_swap(eco, first, Algorithm.GMM)
    small = eco.pools[1 - large_idx]
    shadow = _float_ecosystem(after_first)
    target = float(r_new)

    def objective(d: float) -> float:
        if d <= 0.0:
            return 0.0
        return gmm_out(d, shadow, small.pool_id).amount_out - target * d

    hi = float(sqrt_any(shadow.total_x * shadow.total_y / target))
    d_star, _ = golden_section_max(objective, 0.0, hi)
    if is_exact(eco.pools[0].x):
        amount: Num = _refine_stationary(
            after_first.total_x, after_first.total_y, r_new, Fraction(d_star)
        )
    else:
        amount = d_star
    return [first, SwapOrder(small.pool_id, SIDE_X, amount, "insider")]


def insider_final_small_reserve(x_small: Num, x_large: Num, r_init: Num, r_new: Num) -> Num:
    """Closed-form final X reserve of the smaller pool in the benchmark
    (canonical orientation ``r_new < r_init``); cross-checks the optimizer."""
    alpha = x_small / (x_small + x_large)
    k = (1 - alpha) / alpha
    a = sqrt_any(r_new / r_init)
    b = sqrt_any(r_init / r_new)
    return x_small * b * (sqrt_any((a + k) * (b + k)) - k)
