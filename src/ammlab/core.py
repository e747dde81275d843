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
(exact, the reference semantics for invariant tests) or ``float`` (fast
path); each function preserves whichever flavor it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from .numeric import is_exact

Num = Union[int, float, Fraction]

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


class Algorithm(Enum):
    """Pricing rule selector."""

    CPMM = "cpmm"
    NGMM = "ngmm"  # demonstration/exploit use only, not a recommended configuration
    GMM = "gmm"
    GMM_REBAL = "gmm-rebal"

    @classmethod
    def parse(cls, token: str) -> "Algorithm":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise DomainError(f"unknown algorithm {token!r}") from None


@dataclass(frozen=True)
class PoolState:
    """Reserves of one pool.  Both sides must stay strictly positive."""

    pool_id: str
    x: Num
    y: Num

    def __post_init__(self):
        if not (self.x > 0 and self.y > 0):
            raise DomainError(
                f"pool {self.pool_id!r} requires strictly positive reserves, got ({self.x}, {self.y})"
            )

    @property
    def ratio(self) -> Num:
        """Marginal price of X in Y units (y / x), always recomputed."""
        return self.y / self.x

    @property
    def product(self) -> Num:
        return self.x * self.y

    def relabeled(self) -> "PoolState":
        """Same pool with the asset labels swapped."""
        return PoolState(self.pool_id, self.y, self.x)


@dataclass(frozen=True)
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
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "total_x", sum(p.x for p in self.pools))
        object.__setattr__(self, "total_y", sum(p.y for p in self.pools))

    @classmethod
    def from_reserves(
        cls, pairs: Iterable[Tuple[Num, Num]], ids: Optional[Sequence[str]] = None
    ) -> "Ecosystem":
        pairs = list(pairs)
        if ids is None:
            ids = [f"amm{i + 1}" for i in range(len(pairs))]
        return cls(tuple(PoolState(pid, x, y) for pid, (x, y) in zip(ids, pairs)))

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

    def complement_x(self, pool_id: str) -> Num:
        return self.total_x - self.pool(pool_id).x

    def complement_y(self, pool_id: str) -> Num:
        return self.total_y - self.pool(pool_id).y

    def with_pool(self, pool: PoolState) -> "Ecosystem":
        idx = self.index_of(pool.pool_id)
        old = self.pools[idx]
        return self._successor(idx, pool, pool.x - old.x, pool.y - old.y)

    def _successor(self, idx: int, pool: PoolState, dx: Num, dy: Num) -> "Ecosystem":
        """This ecosystem with ``pools[idx]`` replaced by ``pool``, whose
        reserves differ from the old ones by ``(dx, dy)``.

        Ids and positions do not change, so the index map is shared and not
        checked again.  Exact totals are carried as ``total + delta``, which
        equals the re-summed value; float totals are re-summed in pool order,
        so they stay bit-identical to those of a fresh ``Ecosystem``.
        """
        pools = self.pools[:idx] + (pool,) + self.pools[idx + 1:]
        if (is_exact(self.total_x) and is_exact(self.total_y)
                and is_exact(pool.x) and is_exact(pool.y)):
            total_x = self.total_x + dx
            total_y = self.total_y + dy
        else:
            total_x = total_y = 0  # the start and order of sum()
            for p in pools:
                total_x += p.x
                total_y += p.y
        new = object.__new__(Ecosystem)
        new.__dict__.update(pools=pools, total_x=total_x, total_y=total_y, _index=self._index)
        return new

    def relabeled(self) -> "Ecosystem":
        return Ecosystem(tuple(p.relabeled() for p in self.pools))


@dataclass(frozen=True)
class SwapOrder:
    """One order: send ``amount_in`` of ``side`` to ``pool_id``."""

    pool_id: str
    side: str
    amount_in: Num
    sender_tag: str = "trader"

    def __post_init__(self):
        if self.side not in (SIDE_X, SIDE_Y):
            raise DomainError(f"side must be {SIDE_X!r} or {SIDE_Y!r}, got {self.side!r}")
        if self.amount_in < 0:
            raise DomainError("amount_in must be nonnegative")


@dataclass(frozen=True)
class Quote:
    """Priced swap: output amount, the branch that produced it, and the
    divergent/convergent/overshooting label of the order."""

    amount_out: Num
    branch: str
    classification: str


def cpmm_out(dx: Num, x_i: Num, y_i: Num) -> Num:
    """Output of a constant-product swap sending ``dx`` against reserves ``(x_i, y_i)``.

    Exactly preserves ``x_i * y_i`` on the rational path; the result is
    always strictly below ``y_i``.
    """
    if not (x_i > 0 and y_i > 0):
        raise DomainError("reserves must be strictly positive")
    if dx < 0:
        raise DomainError("swap amount must be nonnegative")
    return y_i * dx / (x_i + dx)


def _quote(dx: Num, x_i: Num, y_i: Num, total_x: Num, total_y: Num, alg: Algorithm) -> Quote:
    """Price ``dx`` of X sent to a pool holding ``(x_i, y_i)`` in an ecosystem
    with aggregates ``(total_x, total_y)``.  Send-Y orders pass every pair
    swapped.

    The local and naive-global outputs and the classification are each
    computed once.  A single pool has an empty complement, so it classifies
    divergent.
    """
    local = cpmm_out(dx, x_i, y_i)
    raw = total_y * dx / (total_x + dx)
    naive = raw if raw < y_i else y_i
    # r_i <= r_rest, cross-multiplied (all positive)
    if y_i * (total_x - x_i) <= (total_y - y_i) * x_i:
        classification = DIVERGENT
    elif naive <= local:
        classification = CONVERGENT
    else:
        classification = OVERSHOOTING
    if alg is Algorithm.GMM:  # the global rule takes the lesser output
        alg = Algorithm.NGMM if classification == CONVERGENT else Algorithm.CPMM
    if alg is Algorithm.CPMM:
        return Quote(local, BRANCH_CPMM, classification)
    if alg is Algorithm.NGMM:
        return Quote(naive, BRANCH_NGMM, classification)
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
    if alg is Algorithm.GMM_REBAL:
        raise DomainError("rebalancing quotes live in the rebalance module")
    view = _send_x_view(eco, eco.pool(order.pool_id), order.side)
    return _quote(order.amount_in, *view, alg)


def apply_swap(eco: Ecosystem, order: SwapOrder, alg: Algorithm) -> Tuple[Ecosystem, Num]:
    """Execute an order and return ``(new ecosystem, amount out)``.

    Only the target pool changes: the sent side grows by ``amount_in``, the
    received side shrinks by the output.  The input ecosystem is never
    mutated.  Paying out a full reserve raises ``ReserveDepletionError``
    (reachable only under the naive global rule).
    """
    if alg is Algorithm.GMM_REBAL:
        raise DomainError("apply rebalancing swaps via the rebalance module")
    idx = eco.index_of(order.pool_id)
    dx = order.amount_in
    if dx == 0:
        return eco, 0
    pool = eco.pools[idx]
    x_i, y_i, total_x, total_y = _send_x_view(eco, pool, order.side)
    out = _quote(dx, x_i, y_i, total_x, total_y, alg).amount_out
    if out >= y_i:
        raise ReserveDepletionError(
            f"swap would drain pool {order.pool_id!r}: out={out} >= reserve={y_i}"
        )
    if order.side == SIDE_X:
        new_pool = PoolState(pool.pool_id, pool.x + dx, pool.y - out)
        return eco._successor(idx, new_pool, dx, -out), out
    new_pool = PoolState(pool.pool_id, pool.x - out, pool.y + dx)
    return eco._successor(idx, new_pool, -out, dx), out


def pool_value(pool: PoolState, price: Num) -> Num:
    """Value of the pool's holdings in Y units at ``price`` Y-per-X."""
    return pool.y + price * pool.x
