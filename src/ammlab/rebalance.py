"""Inter-pool rebalancing: the zero-profit arbitrage the global rule leaves
on the table, executed internally before quoting.

Three pieces: the trade-preservation condition (when does an all-local
ecosystem with arbitrage beat the global rule for a given order), balanced
arbitrage (the canonical resolution that equalizes every pool's ratio while
preserving its product), and the rebalancing algorithm proper, which moves
reserves from the quoted pool to higher-ratio pools at the global price
until the quoted pool's ratio reaches the global one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .core import (
    DomainError,
    Ecosystem,
    PoolState,
    Quote,
    cpmm_out,
    gmm_out,
)
from .numeric import Num, sqrt_any

#: Relative tolerance closing the rebalancing loop on the float path; the
#: exact path terminates on equality after at most ``len(pools) - 1`` moves.
FLOAT_RATIO_TOL = 1e-12


@dataclass(frozen=True)
class PreservationReport:
    holds: bool
    ngmm_rate: Num
    balanced_rate: Num


@dataclass(frozen=True, slots=True)
class RebalanceTransfer:
    """One internal move: ``from_pool`` sends X, receives Y at the global price."""

    from_pool: str
    to_pool: str
    amount_x: Num
    amount_y_received: Num


def trade_preservation_condition(dx: Num, eco: Ecosystem) -> PreservationReport:
    """Check, for every pool, that the global naive rate beats the local rate
    and the local rate stays below the best post-arbitrage local rate.

    Both inequalities are strict, and the check stops at the first pool
    that fails one.  The second inequality is decided by comparing squares,
    so the exact verdict is rigorous; the one square root is taken for the
    reported ``balanced_rate`` (a high-precision root on the exact path).
    """
    if not dx > 0:
        raise DomainError("order size must be positive")
    holds, ngmm_rate, r, s_squared = _preservation(dx, eco)
    s = sqrt_any(s_squared)
    return PreservationReport(holds, ngmm_rate, r * s / (s + dx))


def _preservation(dx: Num, eco: Ecosystem) -> Tuple[bool, Num, Num, Num]:
    """The verdict of :func:`trade_preservation_condition` for ``dx > 0``,
    with what it rests on: the naive global rate, the global ratio ``r`` and
    the square of the best pool's balanced X reserve.  It takes no root."""
    x, y = eco.total_x, eco.total_y
    r = y / x
    max_product = max(p.product for p in eco.pools)
    s_squared = max_product * x / y  # square of the best pool's balanced X reserve
    ngmm_rate = y / (x + dx)
    for pool in eco.pools:
        local_rate = pool.y / (pool.x + dx)
        gap = r - local_rate
        # local_rate < r*s/(s+dx)  <=>  local_rate*dx < s*(r - local_rate)
        # `>=` on the left gives the same verdict: at equality r - local_rate = y*dx/(x*(x + dx)),
        # so the right test reads s > x, that is max_product > x*y, which no ecosystem meets
        if not (ngmm_rate > local_rate and gap > 0
                and (local_rate * dx) ** 2 < s_squared * gap * gap):
            return False, ngmm_rate, r, s_squared
    return True, ngmm_rate, r, s_squared


def balanced_arbitrage(eco: Ecosystem) -> Ecosystem:
    """Resolve all arbitrage while preserving the global ratio.

    Each pool lands on the global ratio with its reserve product unchanged.
    Pools already at the global ratio are returned untouched; for the rest,
    the product is preserved exactly and the ratio matches the global one up
    to the precision of the square root (exact when it is rational).
    """
    x, y = eco.total_x, eco.total_y
    r = y / x
    pools = []
    for pool in eco.pools:
        if pool.y * x == pool.x * y:  # already at ratio r
            pools.append(pool)
            continue
        new_x = sqrt_any(pool.product / r)
        pools.append(PoolState(pool.pool_id, new_x, pool.product / new_x))
    return Ecosystem(tuple(pools))


def inter_pool_quote(dx: Num, to_pool: str, eco: Ecosystem) -> Num:
    """Price an inter-pool transfer of ``dx`` X into ``to_pool``.

    The receiving pool pays the lesser of its local constant-product output
    and the global-ratio value ``r * dx`` (the naive leg of an inter-pool
    move is value-preserving at the global ratio, so it has no slippage).
    """
    if dx < 0:
        raise DomainError("transfer amount must be nonnegative")
    pool = eco.pool(to_pool)
    return min(cpmm_out(dx, pool.x, pool.y), eco.ratio * dx)


def _ratio_strictly_below(num_ratio: Num, target: Num) -> bool:
    if not (isinstance(num_ratio, float) or isinstance(target, float)):
        return num_ratio < target  # both exact
    gap = target - num_ratio
    return gap > FLOAT_RATIO_TOL * max(abs(num_ratio), abs(target), 1e-300)


def _is_max_product(pools: Tuple[PoolState, ...], idx: int) -> bool:
    """True when ``pools[idx]`` has the largest reserve product, ties going
    to the lowest index."""
    target = pools[idx]
    best = target.x * target.y
    for k, pool in enumerate(pools):
        product = pool.x * pool.y
        if product > best or (product == best and k < idx):
            return False
    return True


def rebalance_pools(
    eco: Ecosystem, pool_id: str
) -> Tuple[Ecosystem, Tuple[RebalanceTransfer, ...]]:
    """Iteratively move X from ``pool_id`` to the highest-ratio pool until the
    target pool's ratio reaches the global one.

    Each move sends ``min((r*x_l - y_l) / 2r, (y_j - r*x_j) / 2r)`` units of
    X priced by :func:`inter_pool_quote`; that brings either the receiving
    pool or the target pool exactly onto the global ratio, so the exact path
    terminates after at most ``len(pools) - 1`` transfers.  Aggregates are
    unchanged throughout (in-loop transfers always price at the global
    ratio).  The target's ratio moves weakly toward the global ratio and
    never past it.  A loop still unsettled after ``16 * len(pools) + 16``
    transfers raises :class:`DomainError`.
    """
    l_idx = eco.index_of(pool_id)
    others = [k for k in range(len(eco.pools)) if k != l_idx]
    exact = not (isinstance(eco.total_x, float) or isinstance(eco.total_y, float))
    work = eco
    transfers = []
    limit = 16 * len(eco.pools) + 16
    for _ in range(limit):
        pools = work.pools
        l = pools[l_idx]
        r = work.ratio
        if not _ratio_strictly_below(l.ratio, r):
            break
        # the highest ratio, ties to the lowest index; "strictly above r" is
        # monotone in the ratio, so no other pool can pass when this one fails.
        # A float ratio within FLOAT_RATIO_TOL of the best is a tie, so that
        # rounding does not part the float loop from the exact one.
        j_idx = j_ratio = None
        for k in others:
            ratio = pools[k].y / pools[k].x
            if j_idx is None or ratio > j_ratio and (
                    exact or ratio - j_ratio > FLOAT_RATIO_TOL * ratio):
                j_idx, j_ratio = k, ratio
        j = pools[j_idx]
        if not _ratio_strictly_below(r, j_ratio):
            break
        amount = min(r * l.x - l.y, j.y - r * j.x) / (2 * r)
        if not amount > 0:
            break
        paid = inter_pool_quote(amount, j.pool_id, work)
        moved = list(pools)
        moved[l_idx] = PoolState(l.pool_id, l.x - amount, l.y + paid)
        moved[j_idx] = PoolState(j.pool_id, j.x + amount, j.y - paid)
        work = work._successor(tuple(moved), 0, 0)  # a transfer moves no total
        transfers.append(RebalanceTransfer(l.pool_id, j.pool_id, amount, paid))
    else:
        raise DomainError(f"rebalancing {pool_id!r} did not settle within {limit} transfers")
    return work, tuple(transfers)


def gmm_rebal_quote(
    dx: Num,
    eco: Ecosystem,
    pool_id: str,
    force_trigger: bool = False,
) -> Tuple[Ecosystem, Quote]:
    """Quote ``dx`` X at ``pool_id`` under the rebalancing variant.

    Rebalancing engages only when the target is the max-product pool (ties
    go to the lowest index), its ratio sits strictly below the global one
    and the trade-preservation condition holds, checked in that order;
    otherwise the plain global quote on the unmodified ecosystem is
    returned.  ``force_trigger`` skips the checks (the guard conditions
    and several worked scenarios disagree, so the trigger is explicit).
    Returns the (possibly rebalanced) ecosystem and the final quote; the
    transfer trace is available from :func:`gmm_rebal_transfers`.
    """
    work, quote, _ = gmm_rebal_transfers(dx, eco, pool_id, force_trigger)
    return work, quote


def gmm_rebal_transfers(
    dx: Num,
    eco: Ecosystem,
    pool_id: str,
    force_trigger: bool = False,
) -> Tuple[Ecosystem, Quote, Tuple[RebalanceTransfer, ...]]:
    """:func:`gmm_rebal_quote` plus the transfers rebalancing made (none
    when it did not engage)."""
    if not dx > 0:
        raise DomainError("order size must be positive")
    idx = eco.index_of(pool_id)
    target = eco.pools[idx]
    if force_trigger or (
        _is_max_product(eco.pools, idx)
        and _ratio_strictly_below(target.ratio, eco.ratio)
        and _preservation(dx, eco)[0]
    ):
        work, transfers = rebalance_pools(eco, pool_id)
    else:
        work, transfers = eco, ()
    return work, gmm_out(dx, work, pool_id), transfers
