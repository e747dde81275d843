"""Adversarial strategies against pool ecosystems: sandwich attacks with
their closed-form profits, arbitrage-cycle search and certification, exploit
sequence replay, and the profit-maximizing insider of the two-pool
benchmark.

Closed forms are written out literally so the simulation engine and the
formulas stay independent routes that the tests reconcile.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .core import (
    Algorithm,
    DomainError,
    Ecosystem,
    ReserveDepletionError,
    SIDE_X,
    SIDE_Y,
    SwapOrder,
    apply_swap,
)
from .numeric import Num, sqrt_any, sqrt_bounds


def _other(side: str) -> str:
    return SIDE_Y if side == SIDE_X else SIDE_X


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
    start_side: str
    profit: Num  # in units of the start asset; the other asset nets to zero
    value_y: Num  # profit valued in Y at the initial global ratio


@dataclass(frozen=True)
class ExploitReport:
    """Per-pool reserve drift of an order sequence versus the initial state."""

    deltas: Tuple[Tuple[str, Num, Num], ...]
    exploited: Tuple[str, ...]  # pools weakly down in both assets, one strictly


def simulate_sandwich(eco: Ecosystem, pool_id: str, victim_dx: Num, attack_dx: Num,
                      alg: Algorithm) -> SandwichReport:
    """Run front-run / victim / back-run against ``pool_id`` under ``alg``.
    Both sizes are in the sent asset, canonical send-X.

    The back-run sends exactly the front-run's output back to the same pool
    (the elementary shape); profit is back-run output minus front-run input.
    """
    if not victim_dx > 0:
        raise DomainError("victim order must be positive")
    if attack_dx < 0:
        raise DomainError("attack size must be nonnegative")
    after_front, front_out = apply_swap(eco, SwapOrder(pool_id, SIDE_X, attack_dx), alg)
    after_victim, victim_out = apply_swap(after_front, SwapOrder(pool_id, SIDE_X, victim_dx), alg)
    after_back, back_out = apply_swap(after_victim, SwapOrder(pool_id, SIDE_Y, front_out), alg)
    return SandwichReport(
        attacker_profit=back_out - attack_dx,
        victim_out=victim_out,
        front_out=front_out,
        back_out=back_out,
        trajectory=(eco, after_front, after_victim, after_back),
    )


#: Number types the closed forms treat as exact: an int is, as in a ``PoolState``
_EXACT = (int, Fraction)


def _sandwich_profit(x_i: Num, x_global: Num, victim_dx: Num, attack_dx: Num) -> Num:
    """The one sandwich closed form: the profit of attack ``A`` around victim
    ``V`` on a pool ``x`` in equal-ratio global reserves ``G``.  ``x`` must be
    positive and both sizes nonnegative (``V`` is 0 for a bracket without
    victims); callers check ``G >= x``.

    With ``S = A + V`` the profit is
    ``A * [(x+S)(x*S - G*A) + V*x**2] / [G(x+S)(x+A) - V*x**2]``.  When every
    input is an int or a ``Fraction`` it is one integer quotient: over one
    common denominator ``L`` every term is an integer and ``L`` is left once
    in the denominator, and the domain is checked on those integers.  Other
    inputs (a float among them) evaluate the float expression below, with
    ints held as ``Fraction``s so that no division of an int by an int turns
    it float.  Where its denominator could cancel, or the expression is not
    finite, the exact quotient is rounded to float instead; it is finite,
    since the profit lies between ``-A`` and ``V``.  An infinite or nan
    input has no exact value: that is a ``DomainError``, as a float overflow
    in :func:`~ammlab.core.apply_swap` is.
    """
    values = (x_i, x_global, victim_dx, attack_dx)
    exact = (type(x_i) in _EXACT and type(x_global) in _EXACT
             and type(victim_dx) in _EXACT and type(attack_dx) in _EXACT)
    if exact:
        den = math.lcm(*(q.denominator for q in values))
        x, g, v, a = (q.numerator * (den // q.denominator) for q in values)
    else:
        x, g, v, a = (Fraction(q) if type(q) is int else q for q in values)
    if not x > 0:
        raise DomainError("reserve must be strictly positive")
    if not (v >= 0 and a >= 0):
        raise DomainError("victim and attack sizes must be nonnegative")
    if exact:
        s = a + v
        xs = x + s
        vxx = v * x * x
        return Fraction(a * (xs * (x * s - g * a) + vxx), den * (g * xs * (x + a) - vxx))
    t_loc = 1 + (a + v) / x
    t_glob = 1 + (a + v) / g
    v_g = v / g
    denom = t_loc * (1 + a / x) - v_g  # at least 1 exactly
    # The first term carries 6 roundings of u = 2**-53 and V/G one, so denom
    # is off by up to about 7u(denom + V/G), under 7·2**-37 ≈ 5e-11 of it
    # while V/G < 2**16 denom.  Past that, or where the expression overflows,
    # the exact quotient is taken: a finite float is a Fraction exactly.
    profit = (t_glob * t_loc / denom - 1) * a if denom * 2**16 > v_g else math.nan
    if math.isfinite(profit):
        return profit
    try:
        return float(_sandwich_profit(*map(Fraction, (x, g, v, a))))
    except (OverflowError, ValueError):  # an infinite or nan input has no exact value
        raise DomainError("sandwich profit lost to float overflow or cancellation") from None


def sandwich_profit_cpmm_closed(x_i: Num, victim_dx: Num, attack_dx: Num) -> Num:
    """Closed-form sandwich profit against a lone constant-product pool: the
    global form at ``x_global = x_i``, since a lone pool's reserves are the
    global ones.

    Depends only on the sent-asset reserve; agrees exactly with the three-leg
    simulation on the rational path, where an int input is exact.
    """
    return _sandwich_profit(x_i, x_i, victim_dx, attack_dx)


def sandwich_profit_gmm_closed(x_i: Num, x_global: Num, victim_dx: Num, attack_dx: Num) -> Num:
    """Closed-form sandwich profit under the global rule, for a pool embedded
    in equal-ratio global reserves ``x_global >= x_i``; an int input is
    exact."""
    if x_global < x_i:
        raise DomainError("global reserves cannot be smaller than the pool's")
    return _sandwich_profit(x_i, x_global, victim_dx, attack_dx)


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
    x_i = Fraction(x_global, n) if type(x_global) is int else x_global / n
    return sandwich_profit_gmm_closed(x_i, x_global, victim_dx, attack_dx)


def _two_leg_sizes(alg: Algorithm, x: Num, y: Num, tx: Num, ty: Num,
                   u: Num, v: Num) -> List[Num]:
    """First-leg sizes among which the forward-all two-leg cycle is most
    profitable, seen from the first leg as send-X: it sends ``d`` to a pool
    holding ``(x, y)`` in an ecosystem with totals ``(tx, ty)``, then the
    proceeds to a pool holding ``u`` of the received asset and ``v`` of the
    sent one.  The inputs are all ints or all floats; the sizes are then
    ``Fraction``s, square roots enclosed by :func:`sqrt_bounds`, or floats.
    Every size is positive; the size 0 is left implicit.

    Each leg prices against one constant product at a time, so the profit
    is continuous and concave between breakpoints, and it peaks at a
    breakpoint or at the stationary point of a piece.  A constant-product
    leg (``x1`` in, ``y1`` out) whose proceeds a local leg prices composes
    with it into one constant-product map, with reserves
    ``X = x1*u/(y1+u)`` and ``Y = v*y1/(y1+u)``; its profit ``Y*d/(X+d) - d``
    peaks at ``d = sqrt(X*Y) - X``, positive exactly when ``v*y1 > x1*u``.

    * CPMM: both legs local, one piece.
    * NGMM: both legs price on the aggregate reserves, whose product the
      cycle restores, so every cycle that does not drain a pool is worth 0.
    * GMM: a leg pays the lesser of its naive and local outputs (the cap
      never binds, and a divergent order's naive output is the larger), so
      it prices on the aggregate reserves exactly where the naive one is
      lower.  The first leg does up to ``d1 = (y*tx - ty*x)/(ty - y)``.
      After a first leg with map ``(x1, y1)`` the second leg's totals are
      ``(ty - m, tx + d)``, so its naive output is ``(tx + d)*m/ty``, the
      lower one where ``g(d) = (tx + d)*(u*(x1 + d) + y1*d) - v*ty*(x1 + d)``
      is at most 0: a quadratic in ``d`` (one root is ``-tx`` when the first
      leg is aggregate).  An aggregate second leg after a local first leg
      earns ``y*d*(tx + d)/(ty*(x + d)) - d``, stationary where
      ``(x + d)**2 = x*y*(tx - x)/(ty - y)``; that is below ``d1``, where
      ``(x + d1)**2`` is ``y*(tx - x)/(x*(ty - y)) > 1`` times it, so this
      piece peaks at a breakpoint.  A stationary point is kept only inside
      its own piece.
    """
    if alg is Algorithm.NGMM:
        return []
    if isinstance(x, float):
        div, root = operator.truediv, math.sqrt
    else:  # the lower end of a 96-bit enclosure
        div, root = Fraction, lambda n: sqrt_bounds(n, 96)[0]

    def composed(x1: Num, y1: Num) -> Optional[Num]:
        if v * y1 > x1 * u:
            return div(root(x1 * y1 * u * v) - x1 * u, y1 + u)
        return None

    if alg is Algorithm.CPMM:
        return [d for d in (composed(x, y),) if d is not None]
    sizes: List[Num] = []
    pieces = [(x, y, 0, None)]  # first-leg map (x1, y1) on [lo, hi]
    if y * tx > ty * x:  # the naive output is the lower one for small sizes
        d1 = div(y * tx - ty * x, ty - y)
        pieces = [(tx, ty, 0, d1), (x, y, d1, None)]
        sizes.append(d1)
    for x1, y1, lo, hi in pieces:
        a = u + y1
        b = a * tx + u * x1 - v * ty
        c = x1 * (tx * u - v * ty)
        d = composed(x1, y1)
        candidates = [d] if d is not None and (a * d + b) * d + c >= 0 else []
        disc = b * b - 4 * a * c
        if disc >= 0:  # roots q/a and c/q; this q keeps the smaller one accurate
            q = -(b + root(disc)) / 2 if b >= 0 else (root(disc) - b) / 2
            if q != 0:
                candidates += [div(q, a), div(c, q)]
        sizes += [d for d in candidates if lo < d and (hi is None or d <= hi)]
    return sizes


def _two_leg_candidates(eco: Ecosystem,
                        alg: Algorithm) -> Iterator[Tuple[str, int, int, Num, List[Num]]]:
    """Every forward-all two-leg cycle, side Y first, as ``(side, first pool
    index, second pool index, reserve of the first pool on that side,
    sizes)``: it sends a size of ``side`` to the first pool and the proceeds
    to the second.  The sizes are those of :func:`_two_leg_sizes`; an exact
    ecosystem's are computed on integers, as they scale with the reserves.
    """
    pairs = list(itertools.permutations(range(len(eco.pools)), 2))
    for side, (first, second) in itertools.product((SIDE_Y, SIDE_X), pairs):
        a, b = eco.pools[first], eco.pools[second]
        if side == SIDE_X:
            view = (a.x, a.y, eco.total_x, eco.total_y, b.y, b.x)
        else:
            view = (a.y, a.x, eco.total_y, eco.total_x, b.x, b.y)
        reserve = view[0]
        scale = 1
        if not isinstance(reserve, float):
            view = tuple(map(Fraction, view))
            scale = math.lcm(*(q.denominator for q in view))
            view = tuple(q.numerator * (scale // q.denominator) for q in view)
        sizes = [d / scale for d in _two_leg_sizes(alg, *view)]
        yield side, first, second, reserve, sizes


def _best_two_leg(eco: Ecosystem, alg: Algorithm,
                  shadow: Optional[_Shadow]) -> Tuple[Num, Tuple[str, int, int, Num]]:
    """The best value (in Y at the initial global ratio) of a forward-all
    two-leg cycle of :func:`_two_leg_candidates`, and that cycle as ``(side,
    first pool index, second pool index, size)``.

    Each size is priced as a closed cycle (see :func:`_screened_value`) from
    ``shadow``, ``_shadow(eco)``, so a size that cannot beat the best so far
    is settled in float; the size 0 (value 0) stands when none pays.  Ties
    keep the earlier cycle, so a cycle starting in Y, whose profit needs no
    valuation, wins one.
    """
    best: Num = 0
    cutoff = 0.0
    winner: Tuple[str, int, int, Num] = (SIDE_Y, 0, 1, 0)
    for side, first, second, reserve, sizes in _two_leg_candidates(eco, alg):
        for d in sizes:
            # sends d/reserve of the reserve, then all of the proceeds
            legs = ((side, first, d, reserve), (_other(side), second, 1, 1))
            value = _screened_value(eco, alg, legs, cutoff, shadow)
            if value is not None and value > cutoff and value > best:
                best, cutoff = value, _float_floor(value)
                winner = (side, first, second, d)
    return best, winner


def best_two_pool_arbitrage(eco: Ecosystem, alg: Algorithm) -> ArbitrageCycle:
    """Most profitable two-leg cycle on a two-pool ecosystem.

    Tries both directions and both pool orders.  The first-leg size of each
    is chosen among closed-form candidates, the breakpoints of the pricing
    rule and the stationary point of each piece between them (see
    :func:`_two_leg_sizes`), each priced exactly on the rational path.  The
    winner is picked by profit valued at the initial global ratio; a tie
    goes to a cycle that starts in Y.
    """
    if len(eco.pools) != 2:
        raise DomainError("two-pool search needs exactly two pools")
    _, (side, first, second, amount) = _best_two_leg(eco, alg, _shadow(eco))
    opening = SwapOrder(eco.pools[first].pool_id, side, amount)
    work, mid = apply_swap(eco, opening, alg)
    closing = SwapOrder(eco.pools[second].pool_id, _other(side), mid)
    _, back = apply_swap(work, closing, alg)
    profit = back - amount
    value_y = profit * eco.ratio if side == SIDE_X else profit
    return ArbitrageCycle((opening, closing), (mid, profit + amount), side, profit, value_y)


#: One leg of a closed cycle: side sent, pool index, and the fraction k/den
#: sent; ints in a random cycle, rationals in a two-leg candidate.
_Leg = Tuple[str, int, Num, Num]


def _cycle_legs(rng: random.Random, n_pools: int, max_legs: int) -> List[_Leg]:
    """One random closed cycle, drawn whole, as a list of ``(side sent,
    pool index, k, den)``: the leg sends ``k/den`` of a reserve (the
    opening leg, ``k/128``) or of the holding of that side (``k/16``, and
    ``1/1`` for the closing leg).

    Every leg pays out a positive amount, so a holding is empty exactly when
    it was never paid or its last send was all of it (``k == den``): the
    draws never depend on prices, and pricing the cycle never changes them.

    Each value below ``n`` is ``getrandbits(n.bit_length())``, redrawn
    until it is below ``n``: what ``randint``, ``randrange`` and ``choice``
    do through ``Random._randbelow``, so the legs and the words taken are
    theirs, without their argument checks on every draw.
    """
    if max_legs < 2:
        raise DomainError(f"a cycle needs at least 2 legs, got max_legs={max_legs}")
    bits = rng.getrandbits
    spread = max_legs - 1  # randint(2, max_legs)
    k_legs = spread.bit_length()
    k_pool = n_pools.bit_length()
    r = bits(k_legs)
    while r >= spread:
        r = bits(k_legs)
    n_legs = r + 2
    r = bits(2)  # choice of a side
    while r >= 2:
        r = bits(2)
    side = SIDE_Y if r else SIDE_X
    i = bits(k_pool)
    while i >= n_pools:
        i = bits(k_pool)
    k = bits(7)  # randint(1, 96)
    while k >= 96:
        k = bits(7)
    legs = [(side, i, k + 1, 128)]
    held_start, held_other = False, True  # holdings of the start side and the other one
    for _ in range(n_legs - 2):
        r = bits(2)
        while r >= 2:
            r = bits(2)
        send = SIDE_Y if r else SIDE_X
        if not (held_start if send == side else held_other):
            continue
        k = bits(5)  # randint(1, 16)
        while k >= 16:
            k = bits(5)
        i = bits(k_pool)
        while i >= n_pools:
            i = bits(k_pool)
        legs.append((send, i, k + 1, 16))
        if send == side:
            held_start, held_other = k < 15, True
        else:
            held_start, held_other = True, k < 15
    if held_other:
        i = bits(k_pool)
        while i >= n_pools:
            i = bits(k_pool)
        legs.append((_other(side), i, 1, 1))
    return legs


def _cycle_value(eco: Ecosystem, alg: Algorithm, legs: Sequence[_Leg]) -> Optional[Num]:
    """Value (in Y at the initial global ratio) of the closed cycle ``legs``
    (see :func:`_cycle_legs`), or None when a leg would drain a pool.

    The arbitrageur opens with a swap of part of a reserve, shuffles parts
    of its holdings through pools, and the closing leg converts everything
    back into the start asset, so the net position is a single signed
    number.
    """
    side, i, k, den = legs[0]
    pool = eco.pools[i]
    opening = (pool.x if side == SIDE_X else pool.y) * k / den
    hold = {SIDE_X: 0, SIDE_Y: 0}
    work = eco
    try:
        work, out = apply_swap(work, SwapOrder(pool.pool_id, side, opening), alg)
        hold[_other(side)] = out
        for send, i, k, den in legs[1:]:
            amt = hold[send] * k / den
            work, out = apply_swap(work, SwapOrder(eco.pools[i].pool_id, send, amt), alg)
            hold[send] -= amt
            hold[_other(send)] += out
    except ReserveDepletionError:
        return None
    profit = hold[side] - opening
    return profit * eco.ratio if side == SIDE_X else profit


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
#: Verdict of a screening pass whose exact cycle certainly drains a pool.
_DRAINS = "drains"


#: Float image of an exact ecosystem, the start state of every screening
#: pass: ``((xs, ys), (total_x, total_y), global ratio)``.
_Shadow = Tuple[Tuple[Tuple[float, ...], Tuple[float, ...]], Tuple[float, float], float]


def _shadow(eco: Ecosystem) -> Optional[_Shadow]:
    """The float image of an exact ``eco``, or None: for a float ecosystem
    (it needs no screen), and when a reserve is outside the range the error
    bound assumes (its cycles then all run exactly)."""
    if isinstance(eco.pools[0].x, float):
        return None
    try:
        xs = tuple(float(p.x) for p in eco.pools)
        ys = tuple(float(p.y) for p in eco.pools)
        ratio = float(eco.ratio)
    except OverflowError:
        return None
    lo, hi = _RESERVE_RANGE
    if not all(lo <= v <= hi for v in xs + ys):
        return None
    return (xs, ys), (float(eco.total_x), float(eco.total_y)), ratio


def _screen_cycle(shadow: _Shadow, alg: Algorithm,
                  legs: Sequence[_Leg]) -> Union[None, str, Tuple[float, float]]:
    """Float pass over the cycle ``legs``.

    Returns ``(value, err)`` with the exact cycle value within ``err`` of
    ``value``, ``_DRAINS`` when a leg certainly drains a pool, or None when
    the pass cannot bound it (a branch near a tie, the naive rule's cap
    within its error bound of a tie, a possible depletion, a bound past the
    cap).

    Each leg is the float image of :func:`apply_swap`: it sends ``d``,
    within relative ``rd`` of its exact value, while every reserve, total
    and holding is within ``bound`` of its own.  A cycle whose every leg
    priced against one constant product (one pool's, or the aggregate one)
    is worth exactly 0: it ends holding none of the other asset, so that
    product's other reserve is back where it started, and with it the start
    asset's.
    """
    (xs, ys), totals, ratio = shadow
    res = [list(xs), list(ys)]
    tot = list(totals)
    if alg is Algorithm.GMM and len(res[0]) == 1:
        alg = Algorithm.CPMM  # a lone pool is divergent: the global rule prices it locally
    local_only = alg is Algorithm.CPMM
    naive = alg is Algorithm.NGMM
    hold = [0.0, 0.0]
    bound = _EPS
    first = True
    # max() and min() are spelled as conditionals: the same pick, without a call
    for side_sent, i, k, den in legs:
        s = 0 if side_sent == SIDE_X else 1
        o = 1 - s
        x = res[s][i]
        y = res[o][i]
        if first:
            # k / 128 is exact; a two-leg size over its reserve rounds once, as
            # does the product and the float reserve: three roundings of at
            # most _EPS / 2
            side = s
            d = opening = x * (k / den)
            rd = 2 * _EPS
        else:
            held = hold[s]
            d = held * (k / den)  # k / 16 is exact; the closing leg sends the holding itself
            rd = bound if den == 1 else bound + _EPS
        a = rd if rd > bound else bound
        if not a <= _BOUND_CAP:
            return None
        r_out = bound + rd + a + 3 * _EPS  # relative bound of y * d / (x + d)
        local = y * d / (x + d)
        # the constant product that priced the leg: pool i, -1 for the
        # aggregate one, None when the global rule's two outputs are within
        # their bound of each other
        used = i
        if local_only:
            out = local
        else:
            raw = tot[o] * d / (tot[s] + d)  # within r_out too
            if naive:
                if not abs(raw - y) > 2 * (r_out * raw + bound * y):
                    return None
                if raw >= y:  # the naive output is capped at y: the exact swap drains the pool
                    return _DRAINS
                out = raw
                used = -1
            else:
                # the global rule pays min(naive, local), which is min(raw, local)
                # as local < y (a divergent order has raw >= local), whatever the
                # classification: no tie of it changes the output
                out = local if local < raw else raw
                if not abs(raw - local) > 2 * r_out * (raw + local):
                    used = None  # either constant product may have priced it
                elif raw < local:
                    used = -1
        if not out >= _OUT_FLOOR:
            return None
        rest = y - out
        if not rest > 0.0:
            return None
        res[s][i] = x + d
        res[o][i] = rest
        tot[s] += d
        tot[o] -= out
        # y - out grows the error by y / (y - out); ty - out by less, as ty >= y
        after = a + _EPS
        grown = (bound * y + r_out * out) / rest + _EPS
        if grown > after:
            after = grown
        if first:
            first = False
            hold[o] = out
            bound = r_out if r_out > after else after  # from here on it covers the holdings too
            product = used
            one_product = used is not None
            continue
        one_product = one_product and used == product
        left = held - d  # exactly zero when k == den, as is the exact one
        if left > 0.0:
            grown = (bound * held + (bound + _EPS) * d) / left + _EPS
            if grown > after:
                after = grown
        hold[s] = left
        hold[o] += out
        r_held = r_out + _EPS
        bound = r_held if r_held > after else after
    if not bound <= _BOUND_CAP:
        return None
    if one_product:
        return 0.0, 0.0
    profit = hold[side] - opening
    err = bound * hold[side] + 2 * _EPS * opening + _EPS * abs(profit)
    if side == 0:
        value = profit * ratio
        err = (err + 2 * _EPS * abs(profit)) * ratio
    else:
        value = profit
    return value, 2 * err + 4 * _EPS * abs(value)


def _random_cycle_value(eco: Ecosystem, alg: Algorithm, rng: random.Random,
                        max_legs: int, best: Num, shadow: Optional[_Shadow]) -> Optional[Num]:
    """Value of the next random cycle drawn from ``rng``, screened as in
    :func:`_screened_value`; None when it drains a pool."""
    return _screened_value(eco, alg, _cycle_legs(rng, len(eco.pools), max_legs), best, shadow)


def _screened_value(eco: Ecosystem, alg: Algorithm, legs: Sequence[_Leg], best: Num,
                    shadow: Optional[_Shadow]) -> Optional[Num]:
    """Value of the closed cycle ``legs`` (see :func:`_cycle_value`), or
    None when it drains a pool.

    With a ``shadow`` the cycle runs in float first.  When that pass proves
    the exact value is at most ``best``, the returned value is its float
    upper bound, itself at most ``best``; otherwise the cycle re-runs
    exactly on the same legs.
    """
    if shadow is None:
        return _cycle_value(eco, alg, legs)
    try:
        screened = _screen_cycle(shadow, alg, legs)
    except (ZeroDivisionError, OverflowError):
        screened = None
    if screened is _DRAINS:
        return None  # the exact pass would stop at the same leg
    if screened is not None:
        upper = screened[0] + screened[1]
        if upper <= best:  # float against Fraction compares exactly
            return upper
    return _cycle_value(eco, alg, legs)


def no_arbitrage_certificate(
    eco: Ecosystem,
    samples: int,
    alg: Algorithm = Algorithm.GMM,
    seed: int = 0,
    max_legs: int = 6,
    include_refined: bool = True,
) -> Num:
    """Maximum profit found over randomized multi-leg cycles (plus the best
    two-leg cycle of every ordered pool pair and side, sized in closed form
    and priced exactly), valued in Y units.

    A nonpositive result over a large sample is the statistical certificate
    that the ecosystem admits no profitable cycle; under the global rule the
    result is provably nonpositive for every cycle.  On an exact ecosystem
    each random cycle is screened in float and re-run in ``Fraction`` only
    when it could beat the running best, so the result is the exact value
    of the best cycle, as if every cycle had run exactly.
    """
    rng = random.Random(seed)
    shadow = _shadow(eco)
    best: Num = 0
    if include_refined:
        best, _ = _best_two_leg(eco, alg, shadow)
    cutoff = _float_floor(best)
    for _ in range(samples):
        value = _random_cycle_value(eco, alg, rng, max_legs, cutoff, shadow)
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
    return ExploitReport(tuple(deltas), tuple(exploited))


def _common_ratio(eco: Ecosystem) -> Num:
    first = eco.pools[0]
    for pool in eco.pools[1:]:
        if not (isinstance(pool.x, float) or isinstance(first.x, float)):
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
    value.  Its marginal profit ``total_x*total_y/(total_x + d)**2 - r_new``
    vanishes at ``d = sqrt(total_x*total_y/r_new) - total_x``, the totals
    taken after the first trade.  When ``r_new`` is above the
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
        return [SwapOrder(o.pool_id, SIDE_Y, o.amount_in) for o in flipped]

    large_idx = max(range(len(eco.pools)), key=lambda k: (eco.pools[k].x, -k))
    large = eco.pools[large_idx]
    growth = sqrt_any(r_init / r_new)  # > 1
    first = SwapOrder(large.pool_id, SIDE_X, large.x * (growth - 1))
    if len(eco.pools) == 1:
        return [first]

    after_first, _ = apply_swap(eco, first, Algorithm.GMM)
    small = eco.pools[1 - large_idx]
    total_x, total_y = after_first.total_x, after_first.total_y
    amount = sqrt_any(total_x * total_y / r_new) - total_x
    return [first, SwapOrder(small.pool_id, SIDE_X, amount)]


def insider_final_small_reserve(x_small: Num, x_large: Num, r_init: Num, r_new: Num) -> Num:
    """Closed-form final X reserve of the smaller pool in the benchmark
    (canonical orientation ``r_new < r_init``); cross-checks the optimizer.
    Int inputs are held as ``Fraction``s, so that they stay exact."""
    x_small, x_large, r_init, r_new = (Fraction(q) if type(q) is int else q
                                       for q in (x_small, x_large, r_init, r_new))
    alpha = x_small / (x_small + x_large)
    k = (1 - alpha) / alpha
    a = sqrt_any(r_new / r_init)
    b = sqrt_any(r_init / r_new)
    return x_small * b * (sqrt_any((a + k) * (b + k)) - k)
