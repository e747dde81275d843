"""Importing ammlab loads no layer until one of its names is read.

``import ammlab`` and ``import ammlab.cli`` load only ``core`` and
``numeric``; every other layer loads the first time one of its names, or
a command that runs it, is used.  What a fresh interpreter has loaded is
checked in a subprocess on this interpreter, so that the imports of the
rest of the suite do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ammlab
from ammlab import cli, replay

SRC = Path(ammlab.__file__).resolve().parent.parent

#: The package's exports, by the module that defines each.
EXPORTS = {
    "core": ("Algorithm", "BRANCH_CPMM", "BRANCH_NGMM", "CONVERGENT", "DIVERGENT",
             "DomainError", "Ecosystem", "LogFormatError", "OVERSHOOTING", "PoolState", "Quote",
             "ReserveDepletionError", "SIDE_X", "SIDE_Y", "SwapOrder", "apply_swap",
             "classify_swap", "cpmm_out", "gmm_out", "ngmm_out", "pool_value", "quote_order"),
    "rebalance": ("PreservationReport", "RebalanceTransfer", "balanced_arbitrage",
                  "gmm_rebal_quote", "inter_pool_quote", "rebalance_pools",
                  "trade_preservation_condition"),
    "adversary": ("ArbitrageCycle", "SandwichReport",
                  "best_two_pool_arbitrage", "insider_optimal_trades",
                  "no_arbitrage_certificate", "replay_exploit_sequence",
                  "sandwich_profit_beta", "sandwich_profit_cpmm_closed",
                  "sandwich_profit_gmm_closed", "sandwich_profit_nsplit", "simulate_sandwich"),
    "analytics": ("SurplusReport", "il_cpmm", "il_from_trajectory", "il_gmm_small_pool",
                  "trader_surplus_comparison", "volatility_class"),
    "replay": ("ILScenarioReport", "ReplayRecord", "ReplaySummary",
               "ScenarioConfig", "il_portfolio_report", "parse_log", "run_counterfactual",
               "synthetic_attack_records"),
}
NAMES = [name for names in EXPORTS.values() for name in names]

#: Prints, as the last line, the package's modules loaded so far.
LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
          "if m.partition('.')[0] == 'ammlab')))")


def _fresh(code: str, *argv: str):
    """Run ``code`` in a fresh interpreter; returns the JSON it prints last."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_only_core_and_numeric():
    loaded = _fresh(f"import json, sys, ammlab, ammlab.cli\n{LOADED}")
    assert loaded == ["ammlab", "ammlab.cli", "ammlab.core", "ammlab.numeric"]


@pytest.mark.parametrize("argv", [
    ["quote", "--pools", "100:400000,100:400000", "--send", "Y", "--amount", "44444"],
    ["sweep", "il", "--ratio", "2"],
], ids=["quote", "sweep-il"])
def test_a_command_loads_neither_replay_nor_toy(argv):
    code = ("import json, sys\nfrom ammlab import cli\n"
            f"assert cli.main({argv!r}) == 0\n{LOADED}")
    loaded = _fresh(code)
    assert "ammlab.replay" not in loaded
    assert "ammlab.toy" not in loaded


EXPORT_CHECK = """
import importlib, json, sys
import ammlab
exports = json.loads(sys.argv[1])
listed = set(dir(ammlab))  # before any name is read
star = {}
exec("from ammlab import *", star)
wrong = [name for module, names in exports.items() for name in names
         if getattr(ammlab, name) is not getattr(importlib.import_module("ammlab." + module), name)
         or star.get(name) is not getattr(ammlab, name)]
print(json.dumps({
    "wrong": wrong,
    "all": list(ammlab.__all__),
    "unlisted": [n for names in exports.values() for n in names if n not in listed],
    "submodules": [m for m in ("toy", "replay", "cli")
                   if getattr(ammlab, m) is not sys.modules["ammlab." + m]],
    "unknown": [hasattr(ammlab, "no_such_name"), hasattr(ammlab.cli, "no_such_name")],
    "unbound": [n for names in exports.values() for n in names if n not in vars(ammlab)],
}))
"""


def test_every_export_is_the_defining_modules_object():
    result = _fresh(EXPORT_CHECK, json.dumps(EXPORTS))
    assert result["wrong"] == []
    assert sorted(result["all"]) == sorted(NAMES)
    assert result["unlisted"] == []
    assert result["submodules"] == []
    assert result["unknown"] == [False, False]
    assert result["unbound"] == []  # a name read once is a plain attribute from then on


class TestReplayStagesOnTheCliModule:
    """Tracing from outside swaps a replay stage on ``ammlab.cli`` for a
    wrapper; the next replay job must call the wrapper."""

    STAGES = ("parse_log", "run_counterfactual", "il_portfolio_report")

    def argv(self, tmp_path, il: bool) -> list:
        log = tmp_path / "log.csv"
        log.write_text(replay.records_to_csv(replay.synthetic_attack_records(7, 3)))
        out = ["--out", str(tmp_path / "out.json")]
        if il:
            return ["replay", "--log", str(log), "--il", *out]
        config = tmp_path / "config.json"
        config.write_text('{"algorithm": "cpmm"}')
        return ["replay", "--log", str(log), "--config", str(config), *out]

    def test_stages_resolve_after_a_replay(self, tmp_path):
        assert cli.main(self.argv(tmp_path, il=False)) == 0
        for name in self.STAGES:
            assert getattr(cli, name) is getattr(replay, name)

    @pytest.mark.parametrize("stage", STAGES)
    def test_a_patched_stage_is_called(self, tmp_path, monkeypatch, stage):
        argv = self.argv(tmp_path, il=stage == "il_portfolio_report")
        assert cli.main(argv) == 0
        original = getattr(cli, stage)
        calls = []

        def traced(*args, **kwargs):
            calls.append(stage)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, stage, traced)
        assert cli.main(argv) == 0
        assert calls == [stage]
