"""The value-object contract of the frozen slotted classes.

Pools, ecosystems, quotes, orders, rebalancing transfers and log records
are frozen dataclasses with slots: no instance ``__dict__``, fields that
cannot be assigned, the dataclass ``==``, ``hash`` and ``repr``, and
``pickle``/``deepcopy`` round trips.  The ``_unchecked`` builders skip
``__init__`` and must build what the validated constructor builds.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction as F

import pytest

from ammlab.core import (
    BRANCH_CPMM,
    DIVERGENT,
    SIDE_X,
    Ecosystem,
    PoolState,
    Quote,
    SwapOrder,
    gmm_out,
)
from ammlab.rebalance import RebalanceTransfer
from ammlab.replay import ReplayRecord

POOL_FIELDS = ("amm1", F(100), F(400_000))
RECORD_FIELDS = (17_000_000, 0, "PAIR-01", "frontrun", "atk-0000", "X",
                 F(3, 2), F(100), F(400_000), F(2500), F(1))


def samples():
    eco = Ecosystem.from_reserves([(F(100), F(400_000)), (2.5, 7.0)])
    return [
        PoolState(*POOL_FIELDS),
        eco,
        Quote(F(400_000, 11), BRANCH_CPMM, DIVERGENT),
        SwapOrder("amm1", SIDE_X, F(1, 2)),
        RebalanceTransfer("amm1", "amm2", F(1, 2), F(3)),
        ReplayRecord(*RECORD_FIELDS),
    ]


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
class TestContract:
    def test_fields_cannot_be_assigned(self, value):
        for f in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))

    def test_slotted(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises(TypeError):
            vars(value)
        assert type(value).__slots__ == tuple(f.name for f in fields(value))

    def test_hash_is_that_of_the_compared_fields(self, value):
        compared = tuple(getattr(value, f.name) for f in fields(value) if f.compare)
        assert hash(value) == hash(compared)

    def test_pickle_and_deepcopy_round_trip(self, value):
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert clone == value and clone is not value
            assert hash(clone) == hash(value)
            # every field comes back, those left out of equality included
            for f in fields(value):
                assert getattr(clone, f.name) == getattr(value, f.name)


class TestRepr:
    def test_pool(self):
        assert repr(PoolState("amm1", 100, F(400_000))) == (
            "PoolState(pool_id='amm1', x=Fraction(100, 1), y=Fraction(400000, 1))")

    def test_ecosystem(self):
        eco = Ecosystem.from_reserves([(F(100), F(400_000)), (2.5, 7.0)])
        assert repr(eco) == (
            "Ecosystem(pools=(PoolState(pool_id='amm1', x=Fraction(100, 1), "
            "y=Fraction(400000, 1)), PoolState(pool_id='amm2', x=2.5, y=7.0)))")

    def test_quote(self):
        quote = gmm_out(F(10), Ecosystem.from_reserves([(F(100), F(400_000))]), "amm1")
        assert repr(quote) == (
            "Quote(amount_out=Fraction(400000, 11), branch='local-cpmm', "
            "classification='divergent')")


class TestUncheckedBuilders:
    def test_pool(self):
        built = PoolState._unchecked(*POOL_FIELDS)
        assert built == PoolState(*POOL_FIELDS)
        assert repr(built) == repr(PoolState(*POOL_FIELDS))

    def test_ecosystem(self):
        fresh = Ecosystem.from_reserves([(F(100), F(400_000)), (F(3), F(7))])
        built = Ecosystem._unchecked(fresh.pools, fresh.total_x, fresh.total_y,
                                     {"amm1": 0, "amm2": 1})
        assert built == fresh and hash(built) == hash(fresh)
        assert (built.total_x, built.total_y) == (fresh.total_x, fresh.total_y)
        assert built.pool("amm2") is fresh.pools[1]

    def test_quote(self):
        fields_ = (F(400_000, 11), BRANCH_CPMM, DIVERGENT)
        assert Quote._unchecked(*fields_) == Quote(*fields_)

    def test_record(self):
        built = ReplayRecord._unchecked(*RECORD_FIELDS)
        assert built == ReplayRecord(*RECORD_FIELDS)
        assert repr(built) == repr(ReplayRecord(*RECORD_FIELDS))


def test_ecosystem_equality_ignores_totals_and_index():
    eco = Ecosystem.from_reserves([(F(100), F(400_000)), (F(3), F(7))])
    other = Ecosystem._unchecked(eco.pools, F(0), F(-1), {})
    assert other == eco and hash(other) == hash(eco)
    assert repr(other) == repr(eco)
