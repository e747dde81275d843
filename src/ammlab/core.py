"""Exact pricing primitives for constant-product pools and pool ecosystems.

A pool holds reserves ``(x, y)`` of two assets.  Three pricing rules are
implemented over a shared ecosystem of pools:

* local constant-product: output keeps ``x * y`` constant at the target pool;
* naive global: the constant-product formula applied to the *aggregate*
  reserves of all pools, capped at the target pool's holdings;
* global: the minimum of the two, which removes the naive rule's
  exploitability while never paying less than the local rule collects.

All operations are pure: ecosystems are immutable values and every state
transition returns a new one.  Quantities can be ``fractions.Fraction``
(exact, the reference semantics for invariant tests; an ``int`` reserve is
held as one) or ``float`` (fast path); each function preserves whichever
flavor it is given.

The package's error types are defined here, so that every layer, and the
command line, can name them without loading another layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple

from .numeric import Num

SIDE_X = "X"
SIDE_Y = "Y"

DIVERGENT = "divergent"
CONVERGENT = "convergent"
OVERSHOOTING = "overshooting"

BRANCH_CPMM = "local-cpmm"
BRANCH_NGMM = "global-ngmm"


class DomainError(ValueError):
    """Inputs outside an operation's domain (nonpositive reserve, unknown pool, ...)."""


class ReserveDepletionError(RuntimeError):
    """A swap tried to pay out an entire reserve.

    Unreachable for the local and global rules (their output is strictly
    below the reserve); the naive global rule can hit it by design.
    """


class LogFormatError(ValueError):
    """Structured parse/validation failure of a replay log; ``errors`` is a
    list of ``(line_number, message)`` pairs (line 1 is the header)."""

    def __init__(self, errors: Sequence[Tuple[int, str]]):
        self.errors = list(errors)
        lines = "; ".join(f"line {ln}: {msg}" for ln, msg in self.errors)
        super().__init__(f"{len(self.errors)} log error(s): {lines}")


class Algorithm(Enum):
    """Pricing rule selector."""

    CPMM = "cpmm"
    NGMM = "ngmm"  # demonstration/exploit use only, not a recommended configuration
    GMM = "gmm"

    @classmethod
    def parse(cls, token: str) -> "Algorithm":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise DomainError(f"unknown algorithm {token!r}") from None


# the per-order path reads the members as globals: an attribute of an Enum
# class is several times slower to look up
_CPMM, _NGMM, _GMM = Algorithm.CPMM, Algorithm.NGMM, Algorithm.GMM

# Value objects are frozen slotted dataclasses.  Their public constructors
# validate; each ``_unchecked`` builder skips ``__init__`` and sets every
# slot through the class's member descriptor, bound once below the class.
_new = object.__new__


@dataclass(frozen=True, slots=True)
class PoolState:
    """Reserves of one pool.  Both sides must stay strictly positive."""

    pool_id: str
    x: Num
    y: Num

    def __post_init__(self):
        if not (self.x > 0 and self.y > 0):
            raise _nonpositive(self.pool_id, self.x, self.y)
        # an int reserve is exact: held as a Fraction, so that no division
        # of an int by an int turns a swap of it into a float
        if isinstance(self.x, int):
            _set_x(self, Fraction(self.x))
        if isinstance(self.y, int):
            _set_y(self, Fraction(self.y))

    @staticmethod
    def _unchecked(pool_id: str, x: Num, y: Num) -> "PoolState":
        """A pool whose reserves the caller has already proven positive."""
        new = _new(PoolState)
        _set_pool_id(new, pool_id)
        _set_x(new, x)
        _set_y(new, y)
        return new

    @property
    def ratio(self) -> Num:
        """Marginal price of X in Y units (y / x), always recomputed."""
        return self.y / self.x

    @property
    def product(self) -> Num:
        return self.x * self.y

    def relabeled(self) -> "PoolState":
        """Same pool with the asset labels swapped."""
        return PoolState._unchecked(self.pool_id, self.y, self.x)


_set_pool_id, _set_x, _set_y = (PoolState.pool_id.__set__, PoolState.x.__set__,
                                PoolState.y.__set__)


def _nonpositive(pool_id: str, x: Num, y: Num) -> DomainError:
    return DomainError(f"pool {pool_id!r} requires strictly positive reserves, got ({x}, {y})")


@dataclass(frozen=True, slots=True)
class Ecosystem:
    """Ordered collection of pools with unique ids.

    The aggregates ``total_x``/``total_y`` (summed in pool order) and the
    id-to-index map are computed once at construction; they take no part in
    equality, hashing or ``repr``.
    """

    pools: Tuple[PoolState, ...]
    total_x: Num = field(init=False, repr=False, compare=False)
    total_y: Num = field(init=False, repr=False, compare=False)
    _index: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pools:
            raise DomainError("an ecosystem needs at least one pool")
        index = {p.pool_id: i for i, p in enumerate(self.pools)}
        if len(index) != len(self.pools):
            raise DomainError(f"duplicate pool ids: {[p.pool_id for p in self.pools]}")
        _set_index(self, index)
        total_x, total_y = _totals(self.pools)
        _set_total_x(self, total_x)
        _set_total_y(self, total_y)

    @staticmethod
    def _unchecked(pools: Tuple[PoolState, ...], total_x: Num, total_y: Num,
                   index: Dict[str, int]) -> "Ecosystem":
        """An ecosystem whose totals and index map the caller has already
        proven to be those of ``pools``."""
        new = _new(Ecosystem)
        _set_pools(new, pools)
        _set_total_x(new, total_x)
        _set_total_y(new, total_y)
        _set_index(new, index)
        return new

    @classmethod
    def from_reserves(cls, pairs: Iterable[Tuple[Num, Num]]) -> "Ecosystem":
        """Pools ``amm1``, ``amm2``, ... holding ``pairs`` in order."""
        return cls(tuple(PoolState(f"amm{i + 1}", x, y) for i, (x, y) in enumerate(pairs)))

    def index_of(self, pool_id: str) -> int:
        idx = self._index.get(pool_id)
        if idx is None:
            raise DomainError(f"no pool {pool_id!r} in ecosystem")
        return idx

    def pool(self, pool_id: str) -> PoolState:
        return self.pools[self.index_of(pool_id)]

    @property
    def ratio(self) -> Num:
        """Global marginal price of X in Y units."""
        return self.total_y / self.total_x

    def _successor(self, pools: Tuple[PoolState, ...], dx: Num, dy: Num) -> "Ecosystem":
        """This ecosystem with its pools replaced by ``pools``, which hold the
        same ids in the same positions and whose totals differ from the old
        ones by ``(dx, dy)``.

        The index map is shared and not checked again.  Exact totals are
        carried as ``total + delta``, which equals the re-summed value; float
        totals are re-summed by :func:`_totals`, so they stay bit-identical
        to a fresh ``Ecosystem``'s.
        """
        total_x, total_y = self.total_x + dx, self.total_y + dy
        if isinstance(total_x, float) or isinstance(total_y, float):
            total_x, total_y = _totals(pools)
        return Ecosystem._unchecked(pools, total_x, total_y, self._index)

    def relabeled(self) -> "Ecosystem":
        """Same ecosystem with the asset labels swapped.

        The index map is shared, and the totals are swapped: a fresh
        ``Ecosystem`` would sum the same values in the same order.
        """
        pools = tuple([PoolState._unchecked(p.pool_id, p.y, p.x) for p in self.pools])
        return Ecosystem._unchecked(pools, self.total_y, self.total_x, self._index)


def _totals(pools: Tuple[PoolState, ...]) -> Tuple[Num, Num]:
    """``(total_x, total_y)`` of ``pools``, added left to right in pool order.

    The one summation of ecosystem totals.  It is a loop, not ``sum()``:
    since Python 3.12 ``sum()`` compensates float rounding, so float totals,
    and every global-rule output priced on them, would differ from one
    interpreter to the next.
    """
    total_x = total_y = 0
    for pool in pools:
        total_x += pool.x
        total_y += pool.y
    return total_x, total_y


_set_pools, _set_total_x, _set_total_y, _set_index = (
    Ecosystem.pools.__set__, Ecosystem.total_x.__set__, Ecosystem.total_y.__set__,
    Ecosystem._index.__set__)


@dataclass(frozen=True, slots=True)
class SwapOrder:
    """One order: send ``amount_in`` of ``side`` to ``pool_id``."""

    pool_id: str
    side: str
    amount_in: Num

    def __post_init__(self):
        if self.side not in (SIDE_X, SIDE_Y):
            raise DomainError(f"side must be {SIDE_X!r} or {SIDE_Y!r}, got {self.side!r}")
        if not 0 <= self.amount_in < math.inf:  # False for NaN
            raise DomainError(f"amount_in must be nonnegative and finite, got {self.amount_in}")


@dataclass(frozen=True, slots=True)
class Quote:
    """Priced swap: output amount, the branch that produced it, and the
    divergent/convergent/overshooting label of the order."""

    amount_out: Num
    branch: str
    classification: str

    @staticmethod
    def _unchecked(amount_out: Num, branch: str, classification: str) -> "Quote":
        """``Quote(amount_out, branch, classification)``, built without ``__init__``."""
        new = _new(Quote)
        _set_amount_out(new, amount_out)
        _set_branch(new, branch)
        _set_classification(new, classification)
        return new


_set_amount_out, _set_branch, _set_classification = (
    Quote.amount_out.__set__, Quote.branch.__set__, Quote.classification.__set__)


def cpmm_out(dx: Num, x_i: Num, y_i: Num) -> Num:
    """Output of a constant-product swap sending ``dx`` against reserves ``(x_i, y_i)``.

    Exactly preserves ``x_i * y_i`` on the rational path, where an ``int``
    reserve is held as a ``Fraction``; the result is always strictly below
    ``y_i``.
    """
    if not (x_i > 0 and y_i > 0):
        raise DomainError("reserves must be strictly positive")
    if dx < 0:
        raise DomainError("swap amount must be nonnegative")
    if isinstance(y_i, int):  # int * int / int would be a float
        y_i = Fraction(y_i)
    return _out(dx, x_i, y_i, x_i, y_i, _CPMM)  # a lone pool: its reserves are the totals


def _out(dx: Num, x_i: Num, y_i: Num, total_x: Num, total_y: Num, alg: Algorithm) -> Num:
    """Amount paid under ``alg`` for ``dx`` of X sent to a pool holding
    ``(x_i, y_i)`` in an ecosystem with aggregates ``(total_x, total_y)``.

    The one place where the local output and the capped naive-global
    output are computed, each only when the rule reads it; the global rule
    takes the lesser (ties to the naive one).  Inputs are not checked.
    """
    if alg is not _NGMM:
        local = y_i * dx / (x_i + dx)
        if alg is _CPMM:
            return local
    raw = total_y * dx / (total_x + dx)
    naive = raw if raw < y_i else y_i
    if alg is _NGMM:
        return naive
    if alg is _GMM:
        return naive if naive <= local else local
    raise DomainError(f"unsupported algorithm {alg}")


def _quote(dx: Num, x_i: Num, y_i: Num, total_x: Num, total_y: Num, alg: Algorithm) -> Quote:
    """:func:`_out` with the branch and the classification of the order.
    Send-Y orders pass every pair swapped.

    A single pool has an empty complement, so it classifies divergent.  A
    divergent order is priced locally: exactly, its naive output is then at
    least the local one.
    """
    if dx < 0:
        raise DomainError("swap amount must be nonnegative")
    local = _out(dx, x_i, y_i, total_x, total_y, _CPMM)
    naive = _out(dx, x_i, y_i, total_x, total_y, _NGMM)
    # r_i <= r_rest, cross-multiplied (all positive)
    if y_i * (total_x - x_i) <= (total_y - y_i) * x_i:
        classification = DIVERGENT
    elif naive <= local:
        classification = CONVERGENT
    else:
        classification = OVERSHOOTING
    if alg is _GMM:  # the global rule takes the lesser output
        alg = _NGMM if classification == CONVERGENT else _CPMM
    if alg is _CPMM:
        return Quote._unchecked(local, BRANCH_CPMM, classification)
    if alg is _NGMM:
        return Quote._unchecked(naive, BRANCH_NGMM, classification)
    raise DomainError(f"unsupported algorithm {alg}")


def _send_x_view(eco: Ecosystem, pool: PoolState, side: str) -> Tuple[Num, Num, Num, Num]:
    """``(x_i, y_i, total_x, total_y)`` of ``pool`` as seen by a send-X order."""
    if side == SIDE_X:
        return pool.x, pool.y, eco.total_x, eco.total_y
    return pool.y, pool.x, eco.total_y, eco.total_x


def ngmm_out(dx: Num, eco: Ecosystem, pool_id: str) -> Num:
    """Naive global output: constant-product formula on aggregate reserves,
    capped at the target pool's holdings of the paid asset."""
    pool = eco.pool(pool_id)
    return _quote(dx, pool.x, pool.y, eco.total_x, eco.total_y, Algorithm.NGMM).amount_out


def classify_swap(dx: Num, eco: Ecosystem, pool_id: str) -> str:
    """Label a send-X order as divergent, convergent or overshooting.

    Divergent: the target pool's ratio is at or below the rest of the
    ecosystem's, so the order pushes it further away.  Otherwise the order
    is convergent while the naive global output does not exceed the local
    one, and overshooting past that point.  A single-pool ecosystem is
    divergent by convention (aggregates coincide with the pool).
    """
    return gmm_out(dx, eco, pool_id).classification


def gmm_out(dx: Num, eco: Ecosystem, pool_id: str) -> Quote:
    """Global quote: the lesser of the local and naive-global outputs.

    The branch is the naive-global one exactly when the order is
    convergent (ties classify convergent: the two prices coincide).
    """
    pool = eco.pool(pool_id)
    return _quote(dx, pool.x, pool.y, eco.total_x, eco.total_y, Algorithm.GMM)


def quote_order(eco: Ecosystem, order: SwapOrder, alg: Algorithm) -> Quote:
    """Price an order under ``alg`` without changing state.

    A send-Y order is priced as send-X with the asset labels swapped; the
    scalar output needs no un-relabeling.
    """
    view = _send_x_view(eco, eco.pool(order.pool_id), order.side)
    return _quote(order.amount_in, *view, alg)


def apply_swap(eco: Ecosystem, order: SwapOrder, alg: Algorithm) -> Tuple[Ecosystem, Num]:
    """Execute an order and return ``(new ecosystem, amount out)``.

    Only the target pool changes: the sent side grows by ``amount_in``, the
    received side shrinks by the output.  The input ecosystem is never
    mutated.  Paying out a full reserve raises ``ReserveDepletionError``
    (reachable only under the naive global rule); reserves that are not
    strictly positive afterwards (a float overflow or NaN) raise
    ``DomainError``.  Only the amount is priced: no label, no ``Quote``.
    """
    idx = eco.index_of(order.pool_id)
    dx = order.amount_in
    if dx == 0:
        return eco, 0
    pool = eco.pools[idx]
    x_i, y_i, total_x, total_y = _send_x_view(eco, pool, order.side)
    out = _out(dx, x_i, y_i, total_x, total_y, alg)
    if out >= y_i:
        raise ReserveDepletionError(
            f"swap would drain pool {order.pool_id!r}: out={out} >= reserve={y_i}"
        )
    if order.side == SIDE_X:
        delta_x, delta_y = dx, -out
    else:
        delta_x, delta_y = -out, dx
    new_x, new_y = pool.x + delta_x, pool.y + delta_y
    if not (new_x > 0 and new_y > 0):
        raise _nonpositive(pool.pool_id, new_x, new_y)
    new_pool = PoolState._unchecked(pool.pool_id, new_x, new_y)
    pools = eco.pools[:idx] + (new_pool,) + eco.pools[idx + 1:]
    return eco._successor(pools, delta_x, delta_y), out


def pool_value(pool: PoolState, price: Num) -> Num:
    """Value of the pool's holdings in Y units at ``price`` Y-per-X."""
    return pool.y + price * pool.x
