"""Impermanent-loss measures, volatility bucketing and trader-surplus
comparisons across pricing regimes.

Impermanent loss is always reported as a fraction of the hold value, both
valued in Y units at the final price.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import DomainError, Ecosystem, PoolState, cpmm_out, gmm_out, pool_value
from .numeric import Num, sqrt_any
from .rebalance import (
    PreservationReport,
    balanced_arbitrage,
    gmm_rebal_quote,
    trade_preservation_condition,
)

VOL_LOW = "low"
VOL_HIGH = "high"


def _price_move(r_init: Num, r_final: Num) -> Num:
    """``max(g, 1/g)`` for ``g = r_final / r_init``: both loss measures and
    the volatility bucket depend on nothing else.  Two ints give a
    ``Fraction``, as an int is exact (a ``PoolState`` holds an int reserve
    as one)."""
    if not (r_init > 0 and r_final > 0):
        raise DomainError("prices must be positive")
    if type(r_init) is int and type(r_final) is int:
        g = Fraction(r_final, r_init)
    else:
        g = r_final / r_init
    return g if g >= 1 else 1 / g


def il_cpmm(r_init: Num, r_final: Num) -> Num:
    """Impermanent loss of a constant-product pool for a price move
    ``r_init -> r_final``: ``1 - 2 / (sqrt(g) + 1/sqrt(g))`` with
    ``g = r_final / r_init``.  Symmetric in its arguments and zero only when
    they coincide."""
    g = _price_move(r_init, r_final)
    root = sqrt_any(g)
    return 1 - 2 * root / (g + 1)


def il_gmm_small_pool(r_init: Num, r_final: Num, alpha: Num) -> Num:
    """Impermanent loss of the smaller pool in the two-pool insider benchmark.

    ``alpha`` is the small pool's share of the global X reserves, in
    ``(0, 0.5]``.  Zero exactly on a flat price, strictly below the local
    constant-product loss otherwise, and vanishing as ``alpha -> 0``.
    """
    g = _price_move(r_init, r_final)
    if not (alpha > 0 and 2 * alpha <= 1):
        raise DomainError("alpha must lie in (0, 0.5]")
    if g == 1:  # in float, inner - k need not be exactly 1: a zero of g's flavour
        return 0 * g
    k = (1 - alpha) / alpha
    s = sqrt_any(g)  # s = sqrt(g) >= 1, the two price roots are s and 1/s
    inner = sqrt_any((s + k) * (1 / s + k))
    return 1 - 2 * (inner - k) / (s + 1 / s)


def il_from_trajectory(initial: PoolState, final: PoolState, price_final: Num) -> Num:
    """Measured impermanent loss: one minus final over hold value, both at
    the final price."""
    return 1 - pool_value(final, price_final) / pool_value(initial, price_final)


def volatility_class(price_first: Num, price_last: Num, lam: Num) -> str:
    """Bucket a pair by its first-to-last price move: ``high`` when the move
    exceeds a factor ``lam`` in either direction (strictly), else ``low``."""
    factor = _price_move(price_first, price_last)
    if not lam > 1:
        raise DomainError("volatility threshold must exceed 1")
    return VOL_HIGH if factor > lam else VOL_LOW


@dataclass(frozen=True)
class SurplusReport:
    """Best quotes for one order size under the three regimes."""

    quote_cpmm_balanced: Num  # best local quote after balanced arbitrage
    quote_gmm: Num
    quote_gmm_rebal: Num
    preservation: PreservationReport

    @property
    def gmm_beats_balanced(self) -> bool:
        return self.quote_gmm >= self.quote_cpmm_balanced


def trader_surplus_comparison(eco: Ecosystem, dx: Num) -> SurplusReport:
    """Quote ``dx`` X optimally routed under (a) all-local pricing after
    balanced arbitrage, (b) the global rule, (c) the global rule with
    rebalancing.

    (c) is never worse than (a); the (a) versus (b) ordering is exactly what
    the preservation condition decides, and both are reported.
    """
    if not dx > 0:
        raise DomainError("order size must be positive")
    arbitraged = balanced_arbitrage(eco)
    best_cpmm = max(cpmm_out(dx, p.x, p.y) for p in arbitraged.pools)
    best_gmm = max(gmm_out(dx, eco, p.pool_id).amount_out for p in eco.pools)
    best_rebal = max(
        gmm_rebal_quote(dx, eco, p.pool_id)[1].amount_out for p in eco.pools
    )
    report = SurplusReport(
        quote_cpmm_balanced=best_cpmm,
        quote_gmm=best_gmm,
        quote_gmm_rebal=best_rebal,
        preservation=trade_preservation_condition(dx, eco),
    )
    # guaranteed by construction; tolerate only square-root noise in (a)
    slack = float(best_cpmm) * 1e-9
    if float(best_rebal) < float(best_cpmm) - slack:
        raise DomainError(
            f"rebalanced quote {best_rebal} fell below balanced-arbitrage quote {best_cpmm}"
        )
    return report
