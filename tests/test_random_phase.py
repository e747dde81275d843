"""The random phase of ``no_arbitrage_certificate``: its draws and its
results, pinned.

``_cycle_legs`` reads each leg's values as digits of one ``getrandbits(64)``
word.  The tests below check the shape of every leg, that the draws reach
every value, and that a cycle takes at most one word per leg.  Each cycle
is drawn whole before it is priced, so pricing never moves the generator.

The certificate digest was recorded when the draws became one word per
leg; the float screen may not move a certificate.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from ammlab import adversary
from ammlab.adversary import no_arbitrage_certificate
from ammlab.core import Algorithm, DomainError, Ecosystem, SIDE_X, SIDE_Y


_SHAPES = [(n_pools, max_legs) for n_pools in range(1, 10) for max_legs in range(2, 9)]


def _draws():
    """``(n_pools, max_legs, legs)`` of 12 cycles for each of 8 seeds and
    each shape."""
    for seed in range(8):
        for n_pools, max_legs in _SHAPES:
            rng = random.Random(f"{seed}/{n_pools}/{max_legs}")
            for _ in range(12):
                yield n_pools, max_legs, adversary._cycle_legs(rng, n_pools, max_legs)


def test_every_leg_has_its_shape():
    other = {SIDE_X: SIDE_Y, SIDE_Y: SIDE_X}
    for n_pools, max_legs, legs in _draws():
        assert 2 <= len(legs) <= max_legs
        side, i, k, den = legs[0]
        assert side in other and 0 <= i < n_pools and 1 <= k <= 96 and den == 128
        held = {side: False, other[side]: True}
        rest = legs[1:]
        closing = rest[-1:] if rest[-1][3] == 1 else []
        for send, i, k, den in rest[:len(rest) - len(closing)]:
            assert held[send]  # no leg sends an empty holding
            assert 0 <= i < n_pools and 1 <= k <= 16 and den == 16
            held[send] = k < 16
            held[other[send]] = True
        # the closing leg sends all of the other side, present exactly when it is held
        assert bool(closing) == held[other[side]]
        for send, i, k, den in closing:
            assert send == other[side] and 0 <= i < n_pools and (k, den) == (1, 1)


def test_draws_reach_every_value():
    pools = {n_pools: set() for n_pools, _ in _SHAPES}
    lengths = {max_legs: set() for _, max_legs in _SHAPES}
    opening, middle, closing = set(), set(), set()  # (side, k) of each kind of leg
    for n_pools, max_legs, legs in _draws():
        pools[n_pools].update(i for _, i, _, _ in legs)
        lengths[max_legs].add(len(legs))
        opening.add((legs[0][0], legs[0][2]))
        for side, _, k, den in legs[1:]:
            (middle if den == 16 else closing).add((side, k))
    assert all(seen == set(range(n_pools)) for n_pools, seen in pools.items())
    assert all(seen == set(range(2, max_legs + 1)) for max_legs, seen in lengths.items())
    sides = (SIDE_X, SIDE_Y)
    assert opening == {(side, k) for side in sides for k in range(1, 97)}
    assert middle == {(side, k) for side in sides for k in range(1, 17)}
    assert closing == {(side, 1) for side in sides}


class _CountingRandom(random.Random):
    """A generator that counts the words drawn from it."""

    words = 0

    def getrandbits(self, k):
        self.words += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("max_legs", [2, 3, 6, 8])
def test_a_cycle_takes_at_most_one_word_per_leg(max_legs):
    rng = _CountingRandom(max_legs)
    for _ in range(500):
        before = rng.words
        legs = adversary._cycle_legs(rng, 3, max_legs)
        assert len(legs) <= rng.words - before <= max_legs


def test_fewer_than_two_legs_is_a_domain_error():
    with pytest.raises(DomainError):
        adversary._cycle_legs(random.Random(0), 3, 1)


@pytest.mark.parametrize("case", ["screened", "unscreened", "float image"])
def test_pricing_never_changes_the_draws(case):
    # under the naive rule these pools drain on many cycles, part-way
    # through some of them; the generator still ends where 300 whole
    # cycles leave it
    eco = Ecosystem.from_reserves([(F(1), F(50)), (F(50), F(1)), (F(10), F(10))])
    shadow = adversary._shadow(eco) if case == "screened" else None
    if case == "float image":
        eco = Ecosystem.from_reserves([(float(p.x), float(p.y)) for p in eco.pools])
    priced, drawn = random.Random(7), random.Random(7)
    drains = 0
    for _ in range(300):
        value = adversary._random_cycle_value(eco, Algorithm.NGMM, priced, 6, 0, shadow)
        drains += value is None
        adversary._cycle_legs(drawn, len(eco.pools), 6)
    assert drains > 0
    assert priced.getstate() == drawn.getstate()


# sha256 of the repr of every certificate below, recorded when each leg
# became the digits of one 64-bit word
PINNED = "07dddb26b086165cb40ff1463ef333fa76405aa9acd30e3b9025aec9040910e0"


def _pinned_ecosystems():
    for n_pools in range(1, 5):
        rng = random.Random(f"pinned/{n_pools}")
        exact = Ecosystem.from_reserves(
            [(F(rng.randint(10_000, 5_000_000), rng.randint(1, 9)),
              F(rng.randint(10_000, 5_000_000), rng.randint(1, 9)))
             for _ in range(n_pools)]
        )
        yield n_pools, exact
        yield n_pools, Ecosystem.from_reserves([(float(p.x), float(p.y)) for p in exact.pools])


def test_certificates_are_pinned():
    # a lone pool takes the global rule's fallback to the local one
    values = []
    for n_pools, eco in _pinned_ecosystems():
        for alg in (Algorithm.GMM, Algorithm.NGMM, Algorithm.CPMM):
            for refined in (True, False):
                values.append(no_arbitrage_certificate(
                    eco, 200, alg, seed=100 + n_pools, include_refined=refined))
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == PINNED
