"""Counterfactual replay of logged swap/attack data.

Input is a flat CSV of swaps with pre-flagged sandwich roles (an external
labeler's job, not ours).  Each attack bracket is one front-run, any number
of same-direction victim trades, and one back-run returning the front-run's
proceeds.  The counterfactual engine reprices every attack from its logged
pre-attack reserve snapshot under a configurable scenario: the pool alone
(local pricing), with outside reserves equal to ``beta`` times its own, or
split evenly into ``n`` global-rule pools.

Attacks are independent by construction (snapshot pricing), so summaries
are deterministic for any processing order; aggregation is nevertheless run
in a fixed order (pair id, then block) so that serial and parallel callers
produce bit-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .adversary import (
    sandwich_profit_beta,
    sandwich_profit_cpmm_closed,
    sandwich_profit_nsplit,
)
from .analytics import il_cpmm, il_gmm_small_pool, volatility_class
from .core import Algorithm, DomainError, cpmm_out
from .numeric import Num

CSV_COLUMNS = (
    "block_number",
    "tx_index",
    "pair_id",
    "role",
    "attack_id",
    "token_in",
    "amount_in",
    "reserve_x_before",
    "reserve_y_before",
    "price_usd_x",
    "price_usd_y",
)

ROLE_NORMAL = "normal"
ROLE_FRONTRUN = "frontrun"
ROLE_VICTIM = "victim"
ROLE_BACKRUN = "backrun"
ROLES = (ROLE_NORMAL, ROLE_FRONTRUN, ROLE_VICTIM, ROLE_BACKRUN)

#: Back-run inputs are matched against the front-run's output at this
#: relative tolerance; logs quote rounded decimals.
BACKRUN_MATCH_RTOL = Fraction(1, 1000)

#: Longest numeric field, and largest decimal exponent, a log may hold.  The
#: work and memory a literal costs grow with both: ``1e1000000`` would parse
#: into an integer of 3.3 million bits.
MAX_LITERAL_CHARS = 100
MAX_LITERAL_EXPONENT = 100


class LogFormatError(ValueError):
    """Structured parse/validation failure; ``errors`` is a list of
    ``(line_number, message)`` pairs (line 1 is the header)."""

    def __init__(self, errors: Sequence[Tuple[int, str]]):
        self.errors = list(errors)
        lines = "; ".join(f"line {ln}: {msg}" for ln, msg in self.errors)
        super().__init__(f"{len(self.errors)} log error(s): {lines}")


@dataclass(frozen=True)
class ReplayRecord:
    block_number: int
    tx_index: int
    pair_id: str
    role: str
    attack_id: str
    token_in: str
    amount_in: Fraction
    reserve_x_before: Fraction
    reserve_y_before: Fraction
    price_usd_x: Optional[Fraction] = None
    price_usd_y: Optional[Fraction] = None


@dataclass(frozen=True)
class ScenarioConfig:
    """One counterfactual scenario.

    ``external_reserve_multiple`` (beta) and ``split_count`` (n) are
    mutually exclusive and exactly one must be present when the algorithm is
    the global rule; neither is allowed for local pricing.
    """

    algorithm: Algorithm
    external_reserve_multiple: Optional[Union[Fraction, float]] = None
    split_count: Optional[int] = None
    arithmetic: str = "rational"

    def __post_init__(self):
        if self.algorithm not in (Algorithm.CPMM, Algorithm.GMM):
            raise DomainError("replay scenarios support cpmm or gmm only")
        has_beta = self.external_reserve_multiple is not None
        has_n = self.split_count is not None
        if self.algorithm is Algorithm.CPMM and (has_beta or has_n):
            raise DomainError("cpmm scenarios take neither a reserve multiple nor a split count")
        if self.algorithm is Algorithm.GMM and has_beta == has_n:
            raise DomainError("gmm scenarios need exactly one of reserve multiple / split count")
        if has_beta and self.external_reserve_multiple < 0:
            raise DomainError("reserve multiple must be nonnegative")
        # exactly int: a JSON true is a bool, which Python counts as an int
        if has_n and (type(self.split_count) is not int or self.split_count < 1):
            raise DomainError("split count must be a positive integer")
        if self.arithmetic not in ("rational", "float64"):
            raise DomainError("arithmetic must be 'rational' or 'float64'")

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise DomainError("scenario must be a JSON object")
        if not isinstance(raw.get("algorithm"), str):
            raise DomainError("scenario needs an \"algorithm\" string")
        beta = raw.get("external_reserve_multiple")
        if not isinstance(beta, (str, int, float, type(None))):
            raise DomainError("reserve multiple must be a number or a decimal string")
        if beta is not None:
            beta = Fraction(str(beta))
        return cls(
            algorithm=Algorithm.parse(raw["algorithm"]),
            external_reserve_multiple=beta,
            split_count=raw.get("split_count"),
            arithmetic=raw.get("arithmetic", "rational"),
        )


@dataclass(frozen=True)
class AttackOutcome:
    attack_id: str
    pair_id: str
    block_number: int
    token_in: str
    reserve_in: Num
    attack_dx: Num
    victim_dx: Num
    profit_native: Num
    profit_usd: Optional[Num]


@dataclass(frozen=True)
class PairBreakdown:
    pair_id: str
    attack_count: int
    profit_native: Num
    profit_usd: Optional[Num]
    negative_count: int


@dataclass(frozen=True)
class ReplaySummary:
    attack_count: int
    total_attacker_profit_usd: Num
    pct_negative_profit: Num
    per_pair: Tuple[PairBreakdown, ...]
    excluded_pairs: Tuple[str, ...]
    attacks: Tuple[AttackOutcome, ...]

    def to_json_dict(self) -> dict:
        return {
            "attack_count": self.attack_count,
            "total_attacker_profit_usd": float(self.total_attacker_profit_usd),
            "pct_negative_profit": float(self.pct_negative_profit),
            "per_pair": [
                {
                    "pair_id": p.pair_id,
                    "attack_count": p.attack_count,
                    "profit_native": float(p.profit_native),
                    "profit_usd": None if p.profit_usd is None else float(p.profit_usd),
                    "negative_count": p.negative_count,
                }
                for p in self.per_pair
            ],
            "excluded_pairs": list(self.excluded_pairs),
            "excluded_pair_count": len(self.excluded_pairs),
        }


def _read_text(source) -> str:
    if isinstance(source, (bytes, bytearray)):
        return source.decode("utf-8")
    if hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    with open(source, "rb") as fh:
        return fh.read().decode("utf-8")


def _oversized_literal(fields: Sequence[str]) -> bool:
    for text in fields:
        if len(text) > MAX_LITERAL_CHARS:
            return True
        _, mark, exponent = text.replace("E", "e").rpartition("e")
        if mark:
            try:
                if abs(int(exponent)) > MAX_LITERAL_EXPONENT:
                    return True
            except ValueError:
                pass  # not a number at all: Fraction rejects it below
    return False


def parse_log(source, backrun_match_rtol: Num = BACKRUN_MATCH_RTOL) -> List[ReplayRecord]:
    """Parse and validate a swap log; returns records sorted as given.

    Raises :class:`LogFormatError` collecting every malformed row and every
    violated attack-bracket invariant, each with its line number.
    """
    text = _read_text(source)
    rows = list(csv.reader(io.StringIO(text)))
    errors: List[Tuple[int, str]] = []
    if not rows:
        raise LogFormatError([(1, "empty file, expected header")])
    if tuple(rows[0]) != CSV_COLUMNS:
        raise LogFormatError([(1, f"bad header, expected {','.join(CSV_COLUMNS)}")])

    records: List[ReplayRecord] = []
    lines: List[int] = []
    for offset, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            errors.append((offset, f"expected {len(CSV_COLUMNS)} columns, got {len(row)}"))
            continue
        (block_s, tx_s, pair_id, role, attack_id, token_in, amount_s,
         rx_s, ry_s, px_s, py_s) = row
        try:
            block = int(block_s)
            tx = int(tx_s)
        except ValueError:
            errors.append((offset, "block_number and tx_index must be integers"))
            continue
        if role not in ROLES:
            errors.append((offset, f"unknown role {role!r}"))
            continue
        if token_in not in ("X", "Y"):
            errors.append((offset, f"token_in must be X or Y, got {token_in!r}"))
            continue
        if (role == ROLE_NORMAL) != (attack_id == ""):
            errors.append((offset, "attack_id must be set exactly for attack roles"))
            continue
        numeric = amount_s + rx_s + ry_s + px_s + py_s
        if ((len(numeric) > MAX_LITERAL_CHARS or "e" in numeric or "E" in numeric)
                and _oversized_literal((amount_s, rx_s, ry_s, px_s, py_s))):
            errors.append((offset, f"numeric literal longer than {MAX_LITERAL_CHARS} "
                                   f"characters or with an exponent beyond {MAX_LITERAL_EXPONENT}"))
            continue
        try:
            amount = Fraction(amount_s)
            rx = Fraction(rx_s)
            ry = Fraction(ry_s)
            px = Fraction(px_s) if px_s else None
            py = Fraction(py_s) if py_s else None
        except (ValueError, ZeroDivisionError):
            errors.append((offset, "non-decimal amount, reserve or price"))
            continue
        if amount <= 0 or rx <= 0 or ry <= 0:
            errors.append((offset, "amounts and reserves must be positive"))
            continue
        records.append(
            ReplayRecord(block, tx, pair_id, role, attack_id, token_in, amount, rx, ry, px, py)
        )
        lines.append(offset)

    for prev, cur, line in zip(records, records[1:], lines[1:]):
        if (cur.block_number, cur.tx_index) <= (prev.block_number, prev.tx_index):
            errors.append((line, "records must be strictly sorted by (block_number, tx_index)"))

    groups: Dict[str, List[int]] = {}
    for idx, rec in enumerate(records):
        if rec.attack_id:
            groups.setdefault(rec.attack_id, []).append(idx)
    for attack_id, members in groups.items():
        fronts = [i for i in members if records[i].role == ROLE_FRONTRUN]
        backs = [i for i in members if records[i].role == ROLE_BACKRUN]
        victims = [i for i in members if records[i].role == ROLE_VICTIM]
        line = lines[members[0]]
        if len(fronts) != 1 or len(backs) != 1:
            errors.append(
                (line, f"attack {attack_id!r} needs exactly one frontrun and one backrun")
            )
            continue
        front, back = records[fronts[0]], records[backs[0]]
        if fronts[0] > backs[0]:
            errors.append((lines[fronts[0]], f"attack {attack_id!r}: frontrun after backrun"))
            continue
        if any(records[i].pair_id != front.pair_id for i in members):
            errors.append((line, f"attack {attack_id!r} spans multiple pairs"))
            continue
        if any(not fronts[0] < i < backs[0] for i in victims):
            errors.append((line, f"attack {attack_id!r}: victims must sit between frontrun and backrun"))
        if any(records[i].token_in != front.token_in for i in victims):
            errors.append((line, f"attack {attack_id!r}: mixed-direction victim bracket"))
        if back.token_in == front.token_in:
            errors.append((lines[backs[0]], f"attack {attack_id!r}: backrun must send the other asset"))
            continue
        sent = front.reserve_x_before if front.token_in == "X" else front.reserve_y_before
        received = front.reserve_y_before if front.token_in == "X" else front.reserve_x_before
        front_out = cpmm_out(front.amount_in, sent, received)
        if abs(back.amount_in - front_out) > backrun_match_rtol * front_out:
            errors.append(
                (lines[backs[0]],
                 f"attack {attack_id!r}: backrun input {back.amount_in} does not match "
                 f"frontrun output {float(front_out):.6f}")
            )

    if errors:
        raise LogFormatError(sorted(errors))
    return records


@dataclass
class _Attack:
    front: ReplayRecord
    victims: List[ReplayRecord] = field(default_factory=list)


def _collect_attacks(records: Sequence[ReplayRecord]) -> List[_Attack]:
    # two passes so the result does not depend on the input ordering
    by_id: Dict[str, _Attack] = {}
    for rec in records:
        if rec.role == ROLE_FRONTRUN:
            by_id[rec.attack_id] = _Attack(rec)
    for rec in records:
        if rec.role == ROLE_VICTIM:
            by_id[rec.attack_id].victims.append(rec)
    for attack in by_id.values():
        attack.victims.sort(key=lambda r: (r.block_number, r.tx_index))
    return [by_id[a] for a in sorted(by_id)]


def run_counterfactual(records: Sequence[ReplayRecord], config: ScenarioConfig) -> ReplaySummary:
    """Reprice every attack under ``config`` and aggregate.

    The victim size of an attack is the sum of all victim inputs inside the
    bracket; reserves come from the front-run's logged snapshot.  Profits
    convert to USD with the record-level price of the sent asset; pairs with
    any attack missing that price are excluded from the summary (and
    counted), mirroring a price-coverage cut.
    """
    conv = float if config.arithmetic == "float64" else (lambda v: v)
    beta = config.external_reserve_multiple
    if beta is not None:
        beta = conv(beta)

    outcomes: List[AttackOutcome] = []
    for attack in _collect_attacks(records):
        front = attack.front
        reserve_in = conv(front.reserve_x_before if front.token_in == "X" else front.reserve_y_before)
        attack_dx = conv(front.amount_in)
        victim_dx = conv(sum(v.amount_in for v in attack.victims))
        if config.algorithm is Algorithm.CPMM:
            profit = sandwich_profit_cpmm_closed(reserve_in, victim_dx, attack_dx)
        elif config.split_count is not None:
            profit = sandwich_profit_nsplit(reserve_in, config.split_count, victim_dx, attack_dx)
        else:
            profit = sandwich_profit_beta(reserve_in, beta, victim_dx, attack_dx)
        price = front.price_usd_x if front.token_in == "X" else front.price_usd_y
        usd = None if price is None else profit * conv(price)
        outcomes.append(
            AttackOutcome(
                front.attack_id, front.pair_id, front.block_number, front.token_in,
                reserve_in, attack_dx, victim_dx, profit, usd,
            )
        )

    by_pair: Dict[str, List[AttackOutcome]] = {}
    for out in outcomes:
        by_pair.setdefault(out.pair_id, []).append(out)

    excluded = tuple(
        sorted(pid for pid, outs in by_pair.items() if any(o.profit_usd is None for o in outs))
    )
    per_pair: List[PairBreakdown] = []
    total_usd: Num = conv(Fraction(0))
    attack_count = 0
    negative = 0
    kept: List[AttackOutcome] = []
    for pair_id in sorted(by_pair):
        if pair_id in excluded:
            continue
        outs = sorted(by_pair[pair_id], key=lambda o: (o.block_number, o.attack_id))
        native = sum(o.profit_native for o in outs)
        usd = sum(o.profit_usd for o in outs)
        neg = sum(1 for o in outs if o.profit_native < 0)
        per_pair.append(PairBreakdown(pair_id, len(outs), native, usd, neg))
        total_usd = total_usd + usd
        attack_count += len(outs)
        negative += neg
        kept.extend(outs)

    pct = Fraction(negative, attack_count) if attack_count else Fraction(0)
    if config.arithmetic == "float64":
        pct = float(pct)
    return ReplaySummary(
        attack_count=attack_count,
        total_attacker_profit_usd=total_usd,
        pct_negative_profit=pct,
        per_pair=tuple(per_pair),
        excluded_pairs=excluded,
        attacks=tuple(kept),
    )


@dataclass(frozen=True)
class PairILEntry:
    pair_id: str
    price_first: Num
    price_last: Num
    volatility: str
    il_cpmm: Num
    il_gmm: Tuple[Tuple[Num, Num], ...]  # (alpha, il) pairs
    hold_value_usd: Num


@dataclass(frozen=True)
class ILScenarioReport:
    pairs: Tuple[PairILEntry, ...]
    totals: Dict[str, dict]
    excluded: Dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "pairs": [
                {
                    "pair_id": p.pair_id,
                    "price_first": float(p.price_first),
                    "price_last": float(p.price_last),
                    "volatility": p.volatility,
                    "il_cpmm": float(p.il_cpmm),
                    "il_gmm": {str(float(a)): float(v) for a, v in p.il_gmm},
                    "hold_value_usd": float(p.hold_value_usd),
                }
                for p in self.pairs
            ],
            "totals": self.totals,
            "excluded": dict(self.excluded),
        }


def il_portfolio_report(
    records: Sequence[ReplayRecord],
    alphas: Sequence[Num],
    lam: Num,
    price_epsilon: Num = 0,
) -> ILScenarioReport:
    """Per-pair impermanent-loss comparison from first to last traded price.

    Pairs with fewer than two trades, or without two usable USD price
    observations (present and above ``price_epsilon``), are dropped and
    counted by reason.  Dollar losses weight the loss fraction by the pair's
    hold value: first-seen reserves at last-seen prices.
    """
    by_pair: Dict[str, List[ReplayRecord]] = {}
    for rec in records:
        by_pair.setdefault(rec.pair_id, []).append(rec)

    entries: List[PairILEntry] = []
    excluded = {"too_few_trades": 0, "missing_prices": 0}
    alphas = list(alphas)
    for pair_id in sorted(by_pair):
        recs = by_pair[pair_id]
        if len(recs) < 2:
            excluded["too_few_trades"] += 1
            continue
        priced = [
            r for r in recs
            if r.price_usd_x is not None and r.price_usd_y is not None
            and r.price_usd_x > price_epsilon and r.price_usd_y > price_epsilon
        ]
        if len(priced) < 2:
            excluded["missing_prices"] += 1
            continue
        first, last = priced[0], priced[-1]
        p0 = first.price_usd_x / first.price_usd_y
        p1 = last.price_usd_x / last.price_usd_y
        hold = first.reserve_x_before * last.price_usd_x + first.reserve_y_before * last.price_usd_y
        entries.append(
            PairILEntry(
                pair_id=pair_id,
                price_first=p0,
                price_last=p1,
                volatility=volatility_class(p0, p1, lam),
                il_cpmm=il_cpmm(p0, p1),
                il_gmm=tuple((a, il_gmm_small_pool(p0, p1, a)) for a in alphas),
                hold_value_usd=hold,
            )
        )

    totals: Dict[str, dict] = {}
    for klass in ("low", "high"):
        members = [e for e in entries if e.volatility == klass]
        cpmm_usd = sum((float(e.il_cpmm) * float(e.hold_value_usd) for e in members), 0.0)
        gmm_usd = {}
        for i, alpha in enumerate(alphas):
            gmm_usd[str(float(alpha))] = sum(
                (float(e.il_gmm[i][1]) * float(e.hold_value_usd) for e in members), 0.0
            )
        totals[klass] = {
            "pair_count": len(members),
            "il_cpmm_usd": cpmm_usd,
            "il_gmm_usd": gmm_usd,
            "reduction_usd": {a: cpmm_usd - v for a, v in gmm_usd.items()},
        }
    return ILScenarioReport(tuple(entries), totals, excluded)


def format_decimal(value: Num, places: int = 12) -> str:
    """Plain decimal rendering with at most ``places`` fractional digits,
    trailing zeros stripped.  Exact for inputs whose denominator divides
    ``10**places`` (all fixture amounts are pre-rounded to that grid)."""
    if isinstance(value, float):
        value = Fraction(repr(value))
    q = Fraction(value)
    scaled = round(q * 10**places)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    whole, frac = digits[:-places], digits[-places:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def records_to_csv(records: Sequence[ReplayRecord]) -> str:
    """Serialize records to the interchange CSV (header included)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.block_number,
                r.tx_index,
                r.pair_id,
                r.role,
                r.attack_id,
                r.token_in,
                format_decimal(r.amount_in),
                format_decimal(r.reserve_x_before),
                format_decimal(r.reserve_y_before),
                "" if r.price_usd_x is None else format_decimal(r.price_usd_x),
                "" if r.price_usd_y is None else format_decimal(r.price_usd_y),
            ]
        )
    return out.getvalue()


def _round_to_grid(value: Fraction, places: int = 12) -> Fraction:
    return Fraction(round(value * 10**places), 10**places)


def synthetic_attack_records(seed: int, n_attacks: int = 100) -> List[ReplayRecord]:
    """Deterministic synthetic attack log used by tests and scripts.

    Amounts live on a 12-decimal grid so the CSV round-trips exactly; every
    record carries USD prices so dollar totals are well defined.
    """
    rng = random.Random(seed)
    pair_ids = [f"PAIR-{i:02d}" for i in range(1, 7)]
    base_price_x = {pid: Fraction(rng.randint(1, 4000)) for pid in pair_ids}
    records: List[ReplayRecord] = []
    block = 17_000_000
    for k in range(n_attacks):
        pair = rng.choice(pair_ids)
        block += rng.randint(1, 5)
        token_in = rng.choice(("X", "Y"))
        rx = Fraction(rng.randint(50_000, 5_000_000))
        ry = Fraction(rng.randint(50_000, 5_000_000))
        sent = rx if token_in == "X" else ry
        received = ry if token_in == "X" else rx
        attack_dx = _round_to_grid(sent * Fraction(rng.randint(2, 30), 100))
        n_victims = rng.randint(1, 3)
        victim_sizes = [
            _round_to_grid(sent * Fraction(rng.randint(1, 12), 100)) for _ in range(n_victims)
        ]
        price_x = _round_to_grid(base_price_x[pair] * Fraction(rng.randint(90, 110), 100))
        price_y = Fraction(1)
        attack_id = f"atk-{k:04d}"

        def record(tx, role, token, amount, res_x, res_y):
            return ReplayRecord(
                block, tx, pair, role, attack_id if role != ROLE_NORMAL else "",
                token, amount, _round_to_grid(res_x), _round_to_grid(res_y),
                price_x, price_y,
            )

        front_out = cpmm_out(attack_dx, sent, received)
        records.append(record(0, ROLE_FRONTRUN, token_in, attack_dx, rx, ry))
        cur_sent, cur_recv = sent + attack_dx, received - front_out
        tx = 1
        for size in victim_sizes:
            res_x, res_y = (cur_sent, cur_recv) if token_in == "X" else (cur_recv, cur_sent)
            records.append(record(tx, ROLE_VICTIM, token_in, size, res_x, res_y))
            out = cpmm_out(size, cur_sent, cur_recv)
            cur_sent, cur_recv = cur_sent + size, cur_recv - out
            tx += 1
        res_x, res_y = (cur_sent, cur_recv) if token_in == "X" else (cur_recv, cur_sent)
        back_token = "Y" if token_in == "X" else "X"
        records.append(record(tx, ROLE_BACKRUN, back_token, _round_to_grid(front_out), res_x, res_y))
    return records
