"""The random phase of ``no_arbitrage_certificate``: its draws and its
results, pinned.

``_cycle_legs`` draws each value straight from ``getrandbits``.  The oracle
below is the same generator written with ``randint``, ``randrange`` and
``choice``; CPython draws all three through ``Random._randbelow``, so both
must yield the same legs and leave the generator in the same state.  Each
cycle is drawn whole before it is priced, so pricing never moves the
generator.

The certificate digest was recorded before the draws and the float screen
were rewritten; neither may move a certificate.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from ammlab import adversary
from ammlab.adversary import no_arbitrage_certificate
from ammlab.core import Algorithm, DomainError, Ecosystem, SIDE_X, SIDE_Y


def _oracle_legs(rng, n_pools, max_legs):
    """The leg generator as first written, on ``random.Random``'s own
    integer draws."""
    other = {SIDE_X: SIDE_Y, SIDE_Y: SIDE_X}
    n_legs = rng.randint(2, max_legs)
    side = rng.choice((SIDE_X, SIDE_Y))
    i = rng.randrange(n_pools)
    yield side, i, rng.randint(1, 96), 128
    held = {side: False, other[side]: True}
    for _ in range(n_legs - 2):
        send = rng.choice((SIDE_X, SIDE_Y))
        if not held[send]:
            continue
        k = rng.randint(1, 16)
        yield send, rng.randrange(n_pools), k, 16
        held[send] = k < 16
        held[other[send]] = True
    if held[other[side]]:
        yield other[side], rng.randrange(n_pools), 1, 1


@pytest.mark.parametrize("n_pools", range(1, 10))
def test_draws_match_the_random_module(n_pools):
    for max_legs in range(2, 9):
        for seed in range(25):
            fast = random.Random(f"{seed}/{n_pools}/{max_legs}")
            oracle = random.Random(f"{seed}/{n_pools}/{max_legs}")
            for _ in range(12):
                legs = adversary._cycle_legs(fast, n_pools, max_legs)
                assert legs == list(_oracle_legs(oracle, n_pools, max_legs))
                assert fast.getstate() == oracle.getstate()


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


# sha256 of the repr of every certificate below, recorded before the random
# phase drew from getrandbits and screened its legs in one loop
PINNED = "503d1ea3bf51d6f2d9e2b14f4233a0c1e426c0a060e8420c6b60ceb117d3f01e"


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
