"""Deterministic simulation, adversary analysis and counterfactual replay
for ecosystems of two-asset constant-product pools."""

from .core import (
    Algorithm,
    BRANCH_CPMM,
    BRANCH_NGMM,
    CONVERGENT,
    DIVERGENT,
    DomainError,
    Ecosystem,
    OVERSHOOTING,
    PoolState,
    Quote,
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
from .rebalance import (
    PreservationReport,
    RebalanceTransfer,
    balanced_arbitrage,
    gmm_rebal_quote,
    inter_pool_quote,
    rebalance_pools,
    trade_preservation_condition,
)
from .adversary import (
    ArbitrageCycle,
    SandwichReport,
    SandwichSpec,
    best_two_pool_arbitrage,
    insider_optimal_trades,
    no_arbitrage_certificate,
    replay_exploit_sequence,
    sandwich_profit_beta,
    sandwich_profit_cpmm_closed,
    sandwich_profit_gmm_closed,
    sandwich_profit_nsplit,
    simulate_sandwich,
)
from .analytics import (
    SurplusReport,
    il_cpmm,
    il_from_trajectory,
    il_gmm_small_pool,
    trader_surplus_comparison,
    volatility_class,
)
from .replay import (
    ILScenarioReport,
    LogFormatError,
    ReplayRecord,
    ReplaySummary,
    ScenarioConfig,
    il_portfolio_report,
    parse_log,
    run_counterfactual,
    synthetic_attack_records,
)

__version__ = "0.1.0"
