"""Deterministic simulation, adversary analysis and counterfactual replay
for ecosystems of two-asset constant-product pools.

Importing the package loads no layer.  Each exported name, and each
submodule, is loaded on first read (PEP 562) and then bound here, so a
later read is a plain attribute lookup.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Every exported name and the module that defines it.
_EXPORTS = {
    "Algorithm": "core",
    "BRANCH_CPMM": "core",
    "BRANCH_NGMM": "core",
    "CONVERGENT": "core",
    "DIVERGENT": "core",
    "DomainError": "core",
    "Ecosystem": "core",
    "LogFormatError": "core",
    "OVERSHOOTING": "core",
    "PoolState": "core",
    "Quote": "core",
    "ReserveDepletionError": "core",
    "SIDE_X": "core",
    "SIDE_Y": "core",
    "SwapOrder": "core",
    "apply_swap": "core",
    "classify_swap": "core",
    "cpmm_out": "core",
    "gmm_out": "core",
    "ngmm_out": "core",
    "pool_value": "core",
    "quote_order": "core",
    "PreservationReport": "rebalance",
    "RebalanceTransfer": "rebalance",
    "balanced_arbitrage": "rebalance",
    "gmm_rebal_quote": "rebalance",
    "inter_pool_quote": "rebalance",
    "rebalance_pools": "rebalance",
    "trade_preservation_condition": "rebalance",
    "ArbitrageCycle": "adversary",
    "SandwichReport": "adversary",
    "best_two_pool_arbitrage": "adversary",
    "insider_optimal_trades": "adversary",
    "no_arbitrage_certificate": "adversary",
    "replay_exploit_sequence": "adversary",
    "sandwich_profit_beta": "adversary",
    "sandwich_profit_cpmm_closed": "adversary",
    "sandwich_profit_gmm_closed": "adversary",
    "sandwich_profit_nsplit": "adversary",
    "simulate_sandwich": "adversary",
    "SurplusReport": "analytics",
    "il_cpmm": "analytics",
    "il_from_trajectory": "analytics",
    "il_gmm_small_pool": "analytics",
    "trader_surplus_comparison": "analytics",
    "volatility_class": "analytics",
    "ILScenarioReport": "replay",
    "ReplayRecord": "replay",
    "ReplaySummary": "replay",
    "ScenarioConfig": "replay",
    "il_portfolio_report": "replay",
    "parse_log": "replay",
    "run_counterfactual": "replay",
    "synthetic_attack_records": "replay",
}

_SUBMODULES = frozenset(
    {"adversary", "analytics", "cli", "core", "numeric", "rebalance", "replay", "toy"})

__all__ = tuple(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
