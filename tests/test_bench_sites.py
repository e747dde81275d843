"""The benchmark's tracer finds the names it wraps, and the program calls them.

``ammbench/tracing.py`` swaps module-level names of ammlab for timing
wrappers; a site that no longer resolves, or that the program stops looking
up, makes its layer read zero without any error.  The tracer is loaded
from its file and only read: these tests change nothing under ``ammbench``.
"""

import importlib
import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest

import ammlab

TRACING = Path(__file__).resolve().parent.parent / "ammbench" / "tracing.py"

#: The one site of the tracer whose name the program no longer has.
GONE = "ammlab.adversary.golden_section_max"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("ammbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, *_ in tracing.SITES:
        importlib.import_module(module)  # the tracer only patches loaded modules
    tracer = tracing.Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_every_site_resolves_but_the_gone_one(tracer):
    assert tracer.missing == [GONE]


def test_simulate_sandwich_calls_the_patched_apply_swap(tracer):
    eco = ammlab.Ecosystem.from_reserves([(F(400_000), F(100))])
    ammlab.simulate_sandwich(eco, "amm1", F(40_000), F(60_000), ammlab.Algorithm.CPMM)
    assert tracer.stat("core.apply_swap.exact")[0] == 3  # front-run, victim, back-run


def test_a_forced_rebalancing_quote_calls_the_patched_rebalance_pools(tracer):
    eco = ammlab.Ecosystem.from_reserves([(F(90), F(440_000)), (F(210), F(760_000))])
    ammlab.gmm_rebal_quote(F(1), eco, "amm2", force_trigger=True)
    assert tracer.stat("rebalance.gmm_rebal_quote")[0] == 1
    assert tracer.stat("rebalance.rebalance_pools")[0] == 1
    assert tracer.counters["rebalance.transfers"] == 1
