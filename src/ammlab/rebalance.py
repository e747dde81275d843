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
from typing import Optional, Tuple

from .core import (
    Algorithm,
    DomainError,
    Ecosystem,
    PoolState,
    Quote,
    cpmm_out,
    gmm_out,
)
from .numeric import Num, is_exact, rel_close, sqrt_any

#: Relative tolerance closing the rebalancing loop on the float path; the
#: exact path terminates on equality after at most ``len(pools) - 1`` moves.
FLOAT_RATIO_TOL = 1e-12


@dataclass(frozen=True)
class PoolSlack:
    """Per-pool slack of the two preservation inequalities (positive = satisfied)."""

    pool_id: str
    left_slack: Num
    right_slack: Num
    left_ok: bool
    right_ok: bool


@dataclass(frozen=True)
class PreservationReport:
    holds: bool
    ngmm_rate: Num
    balanced_rate: Num
    per_pool: Tuple[PoolSlack, ...]


@dataclass(frozen=True)
class RebalanceTransfer:
    """One internal move: ``from_pool`` sends X, receives Y at the global price."""

    from_pool: str
    to_pool: str
    amount_x: Num
    amount_y_received: Num


def trade_preservation_condition(dx: Num, eco: Ecosystem) -> PreservationReport:
    """Check, for every pool, that the global naive rate beats the local rate
    and the local rate stays below the best post-arbitrage local rate.

    Both inequalities are strict.  On the exact path the second one (which
    involves a square root) is decided by comparing squares, so the verdict
    is rigorous; the reported slack values use a high-precision root.
    """
    if not dx > 0:
        raise DomainError("order size must be positive")
    x, y = eco.total_x, eco.total_y
    r = y / x
    max_product = max(p.product for p in eco.pools)
    s_squared = max_product * x / y  # square of the best pool's balanced X reserve
    s = sqrt_any(s_squared)
    ngmm_rate = y / (x + dx)
    balanced_rate = r * s / (s + dx)

    slacks = []
    holds = True
    for pool in eco.pools:
        local_rate = pool.y / (pool.x + dx)
        left_ok = ngmm_rate > local_rate
        gap = r - local_rate
        # local_rate < r*s/(s+dx)  <=>  local_rate*dx < s*(r - local_rate)
        right_ok = gap > 0 and (local_rate * dx) ** 2 < s_squared * gap * gap
        holds = holds and left_ok and right_ok
        slacks.append(
            PoolSlack(
                pool.pool_id,
                ngmm_rate - local_rate,
                balanced_rate - local_rate,
                left_ok,
                right_ok,
            )
        )
    return PreservationReport(holds, ngmm_rate, balanced_rate, tuple(slacks))


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
    if dx == 0:
        return 0
    return min(cpmm_out(dx, pool.x, pool.y), eco.ratio * dx)


def _ratio_strictly_below(num_ratio: Num, target: Num) -> bool:
    if is_exact(num_ratio) and is_exact(target):
        return num_ratio < target
    return num_ratio < target and not rel_close(num_ratio, target, FLOAT_RATIO_TOL)


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
    work = eco
    transfers = []
    limit = 16 * len(eco.pools) + 16
    for _ in range(limit):
        l = work.pools[l_idx]
        r = work.ratio
        if not _ratio_strictly_below(l.ratio, r):
            break
        j_idx = None
        j_ratio = None
        for k, pool in enumerate(work.pools):
            if k == l_idx:
                continue
            rk = pool.ratio
            if not _ratio_strictly_below(r, rk):
                continue
            if j_ratio is None or rk > j_ratio:  # ties keep the lowest index
                j_idx, j_ratio = k, rk
        if j_idx is None:
            break
        j = work.pools[j_idx]
        amount = min(r * l.x - l.y, j.y - r * j.x) / (2 * r)
        if not amount > 0:
            break
        paid = inter_pool_quote(amount, j.pool_id, work)
        pools = list(work.pools)
        pools[l_idx] = PoolState(l.pool_id, l.x - amount, l.y + paid)
        pools[j_idx] = PoolState(j.pool_id, j.x + amount, j.y - paid)
        work = Ecosystem(tuple(pools))
        transfers.append(RebalanceTransfer(l.pool_id, j.pool_id, amount, paid))
    else:
        raise DomainError(f"rebalancing {pool_id!r} did not settle within {limit} transfers")
    return work, tuple(transfers)


def _definition_conditions(dx: Num, eco: Ecosystem, pool_id: str) -> bool:
    # the target must be the max-product pool (ties broken to the lowest index)
    best = max(range(len(eco.pools)), key=lambda k: (eco.pools[k].product, -k))
    if eco.pools[best].pool_id != pool_id:
        return False
    if not trade_preservation_condition(dx, eco).holds:
        return False
    return _ratio_strictly_below(eco.pool(pool_id).ratio, eco.ratio)


def gmm_rebal_quote(
    dx: Num,
    eco: Ecosystem,
    pool_id: str,
    force_trigger: bool = False,
) -> Tuple[Ecosystem, Quote]:
    """Quote ``dx`` X at ``pool_id`` under the rebalancing variant.

    Rebalancing engages only when the target is the max-product pool, the
    trade-preservation condition holds and the target's ratio sits below the
    global one; otherwise the plain global quote on the unmodified ecosystem
    is returned.  ``force_trigger`` skips the checks (the guard conditions
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
    eco.index_of(pool_id)
    if force_trigger or _definition_conditions(dx, eco, pool_id):
        work, transfers = rebalance_pools(eco, pool_id)
    else:
        work, transfers = eco, ()
    return work, gmm_out(dx, work, pool_id), transfers
