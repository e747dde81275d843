import random
from fractions import Fraction

import pytest

from ammlab.core import Ecosystem


def rand_eco(rng: random.Random, n_pools: int, lo: int = 10_000, hi: int = 5_000_000) -> Ecosystem:
    """Random ecosystem with exact integer reserves."""
    return Ecosystem.from_reserves(
        [(Fraction(rng.randint(lo, hi)), Fraction(rng.randint(lo, hi))) for _ in range(n_pools)]
    )


@pytest.fixture
def rng():
    return random.Random(0xA11CE)
