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
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import groupby
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .adversary import (
    sandwich_profit_beta,
    sandwich_profit_cpmm_closed,
    sandwich_profit_nsplit,
)
from .analytics import VOL_HIGH, VOL_LOW, il_cpmm, il_gmm_small_pool, volatility_class
from .core import Algorithm, DomainError, LogFormatError, cpmm_out
from .numeric import (
    MAX_LITERAL_CHARS,
    MAX_LITERAL_EXPONENT,
    Num,
    _oversized_literal,
    parse_number,
)

ROLE_NORMAL = "normal"
ROLE_FRONTRUN = "frontrun"
ROLE_VICTIM = "victim"
ROLE_BACKRUN = "backrun"
ROLES = (ROLE_NORMAL, ROLE_FRONTRUN, ROLE_VICTIM, ROLE_BACKRUN)

#: Back-run inputs are matched against the front-run's output at this
#: relative tolerance; logs quote rounded decimals.
BACKRUN_MATCH_RTOL = Fraction(1, 1000)


@dataclass(frozen=True, slots=True)
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

    @staticmethod
    def _unchecked(block_number: int, tx_index: int, pair_id: str, role: str,
                   attack_id: str, token_in: str, amount_in: Fraction,
                   reserve_x_before: Fraction, reserve_y_before: Fraction,
                   price_usd_x: Optional[Fraction],
                   price_usd_y: Optional[Fraction]) -> "ReplayRecord":
        """``ReplayRecord`` of these fields, built without ``__init__``: each
        slot is set through the class's member descriptor."""
        new = _new(ReplayRecord)
        _set_block(new, block_number)
        _set_tx(new, tx_index)
        _set_pair(new, pair_id)
        _set_role(new, role)
        _set_attack(new, attack_id)
        _set_token(new, token_in)
        _set_amount(new, amount_in)
        _set_rx(new, reserve_x_before)
        _set_ry(new, reserve_y_before)
        _set_px(new, price_usd_x)
        _set_py(new, price_usd_y)
        return new


_new = object.__new__
(_set_block, _set_tx, _set_pair, _set_role, _set_attack, _set_token, _set_amount,
 _set_rx, _set_ry, _set_px, _set_py) = (getattr(ReplayRecord, name).__set__
                                        for name in ReplayRecord.__slots__)

CSV_COLUMNS = tuple(f.name for f in fields(ReplayRecord))


#: Keys a scenario JSON may hold; ``seed`` is accepted and ignored, for old configs.
_SCENARIO_KEYS = frozenset(
    ("algorithm", "external_reserve_multiple", "split_count", "arithmetic", "seed")
)


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
        # capped like a log literal, so that a float64 replay can convert both
        if has_beta and self.external_reserve_multiple > 10**MAX_LITERAL_EXPONENT:
            raise DomainError(f"reserve multiple must be at most 10**{MAX_LITERAL_EXPONENT}")
        if has_n and self.split_count > 10**MAX_LITERAL_EXPONENT:
            raise DomainError(f"split count must be at most 10**{MAX_LITERAL_EXPONENT}")
        if self.arithmetic not in ("rational", "float64"):
            raise DomainError("arithmetic must be 'rational' or 'float64'")

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise DomainError("scenario must be a JSON object")
        unknown = sorted(set(raw) - _SCENARIO_KEYS)
        if unknown:  # a misspelt key would otherwise take its default silently
            raise DomainError(f"unknown scenario keys: {', '.join(map(repr, unknown))}")
        if not isinstance(raw.get("algorithm"), str):
            raise DomainError("scenario needs an \"algorithm\" string")
        beta = raw.get("external_reserve_multiple")
        if not isinstance(beta, (str, int, float, type(None))):
            raise DomainError("reserve multiple must be a number or a decimal string")
        if beta is not None:  # a JSON integer is unbounded: cap it as a literal
            beta = parse_number(str(beta))
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
    profit_usd: Num
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
                    "profit_usd": float(p.profit_usd),
                    "negative_count": p.negative_count,
                }
                for p in self.per_pair
            ],
            "excluded_pairs": list(self.excluded_pairs),
            "excluded_pair_count": len(self.excluded_pairs),
        }


def _decimal(text: str, memo: Dict[str, Fraction]) -> Fraction:
    """``Fraction(text)``, memoised in ``memo``.

    A plain ASCII ``digits[.digits]`` literal is built from its integer
    digits; any other text goes through ``Fraction`` itself, so the grammar
    accepted and the errors raised are exactly ``Fraction``'s.
    """
    value = memo.get(text)
    if value is None:
        whole, dot, frac = text.partition(".")
        if text.isascii() and whole.isdigit() and (frac.isdigit() or not dot):
            value = Fraction(int(whole + frac), 10 ** len(frac))
        else:
            value = Fraction(text)
        memo[text] = value
    return value


def parse_log(source) -> List[ReplayRecord]:
    """Parse and validate a swap log (a path, or bytes, read as one UTF-8
    text stream); returns records sorted as given.

    Raises :class:`LogFormatError` collecting every malformed row and every
    violated attack-bracket invariant, each with its line number; a row that
    csv or the decoder fails to read ends the log, as one more error.
    """
    raw = io.BytesIO(source) if isinstance(source, (bytes, bytearray)) else open(source, "rb")
    stream = io.TextIOWrapper(raw, encoding="utf-8", newline="")
    errors: List[Tuple[int, str]] = []
    memo: Dict[str, Fraction] = {}
    record = ReplayRecord._unchecked
    records: List[ReplayRecord] = []
    lines: List[int] = []
    groups: Dict[str, List[int]] = {}  # attack id -> indices into records
    offset = 0  # rows read: one that cannot be read is row offset + 1
    try:
        rows = enumerate(csv.reader(stream), start=1)
        offset, header = next(rows, (1, None))
        if header is None:
            raise LogFormatError([(1, "empty file, expected header")])
        if tuple(header) != CSV_COLUMNS:
            raise LogFormatError([(1, f"bad header, expected {','.join(CSV_COLUMNS)}")])
        for offset, row in rows:
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
                amount = _decimal(amount_s, memo)
                rx = _decimal(rx_s, memo)
                ry = _decimal(ry_s, memo)
                px = _decimal(px_s, memo) if px_s else None
                py = _decimal(py_s, memo) if py_s else None
            except (ValueError, ZeroDivisionError):
                errors.append((offset, "non-decimal amount, reserve or price"))
                continue
            # denominators are positive: the sign is the numerator's
            if amount.numerator <= 0 or rx.numerator <= 0 or ry.numerator <= 0:
                errors.append((offset, "amounts and reserves must be positive"))
                continue
            if records and (block, tx) <= (records[-1].block_number, records[-1].tx_index):
                errors.append((offset, "records must be strictly sorted by (block_number, tx_index)"))
            if attack_id:
                groups.setdefault(attack_id, []).append(len(records))
            records.append(
                record(block, tx, pair_id, role, attack_id, token_in, amount, rx, ry, px, py)
            )
            lines.append(offset)
    except csv.Error as exc:
        errors.append((offset + 1, str(exc)))
        raise LogFormatError(errors) from None
    except UnicodeDecodeError as exc:  # its offsets are within the decoder's chunk
        at = raw.tell() - len(exc.object) + exc.start  # the byte's offset in the log
        raw.seek(0)
        errors.append((len(raw.read(at + 1).splitlines()),  # the byte's line
                       f"not UTF-8: byte 0x{exc.object[exc.start]:02x}"))
        raise LogFormatError(errors) from None
    finally:
        stream.close()

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
        if _backrun_mismatch(back.amount_in, front.amount_in, sent, received):
            front_out = cpmm_out(front.amount_in, sent, received)
            errors.append(
                (lines[backs[0]],
                 f"attack {attack_id!r}: backrun input {back.amount_in} does not match "
                 f"frontrun output {float(front_out):.6f}")
            )

    if errors:
        raise LogFormatError(sorted(errors))
    return records


def _backrun_mismatch(back: Fraction, a: Fraction, s: Fraction, r: Fraction) -> bool:
    """True when ``back`` is off the front-run's output ``a*r/(s+a)`` by more
    than ``BACKRUN_MATCH_RTOL`` of it, the front-run sending ``a`` against
    reserves ``s`` (sent asset) and ``r`` (received).

    The test ``|back*(s+a) - a*r| > rtol*a*r`` is cross-multiplied by every
    (positive) denominator and decided on integers.
    """
    bn, bd = back.numerator, back.denominator
    an, ad = a.numerator, a.denominator
    sn, sd = s.numerator, s.denominator
    rn, rd = r.numerator, r.denominator
    a_r = an * rn * bd * sd  # a*r, times bd*sd*ad*rd
    gap = abs(bn * (sn * ad + an * sd) * rd - a_r)
    return gap * BACKRUN_MATCH_RTOL.denominator > BACKRUN_MATCH_RTOL.numerator * a_r


def run_counterfactual(records: Sequence[ReplayRecord], config: ScenarioConfig) -> ReplaySummary:
    """Reprice every attack under ``config`` and aggregate.

    ``records`` must be ones :func:`parse_log` accepts.  The victim size of
    an attack is the sum of all victim inputs inside the bracket; reserves
    come from the front-run's logged snapshot.  Profits convert to USD with
    the record-level price of the sent asset; pairs with any attack missing
    that price are excluded from the summary (and counted), mirroring a
    price-coverage cut.
    """
    conv = float if config.arithmetic == "float64" else (lambda v: v)
    beta = config.external_reserve_multiple
    if beta is not None:
        beta = conv(beta)

    fronts: List[ReplayRecord] = []
    victim_in: Dict[str, Fraction] = {}  # exact sums, so their order does not matter
    for rec in records:
        if rec.role == ROLE_FRONTRUN:
            fronts.append(rec)
        elif rec.role == ROLE_VICTIM:
            victim_in[rec.attack_id] = victim_in.get(rec.attack_id, 0) + rec.amount_in
    fronts.sort(key=lambda f: (f.pair_id, f.block_number, f.attack_id))

    per_pair: List[PairBreakdown] = []
    excluded: List[str] = []
    kept: List[AttackOutcome] = []
    total_usd: Num = conv(Fraction(0))
    negative = 0
    for pair_id, pair_fronts in groupby(fronts, key=attrgetter("pair_id")):
        outs: List[AttackOutcome] = []
        native = pair_usd = neg = 0
        unpriced = False
        for front in pair_fronts:
            reserve_in = conv(front.reserve_x_before if front.token_in == "X" else front.reserve_y_before)
            attack_dx = conv(front.amount_in)
            victim_dx = conv(victim_in.get(front.attack_id, 0))
            if config.algorithm is Algorithm.CPMM:
                profit = sandwich_profit_cpmm_closed(reserve_in, victim_dx, attack_dx)
            elif config.split_count is not None:
                profit = sandwich_profit_nsplit(reserve_in, config.split_count, victim_dx, attack_dx)
            else:
                profit = sandwich_profit_beta(reserve_in, beta, victim_dx, attack_dx)
            price = front.price_usd_x if front.token_in == "X" else front.price_usd_y
            usd = None if price is None else profit * conv(price)
            outs.append(
                AttackOutcome(
                    front.attack_id, pair_id, front.block_number, front.token_in,
                    reserve_in, attack_dx, victim_dx, profit, usd,
                )
            )
            # added left to right, as every float sum is (see core._totals)
            native += profit
            if usd is None:
                unpriced = True
            else:
                pair_usd += usd
            if profit < 0:
                neg += 1
        if unpriced:
            excluded.append(pair_id)
            continue
        per_pair.append(PairBreakdown(pair_id, len(outs), native, pair_usd, neg))
        total_usd = total_usd + pair_usd
        negative += neg
        kept.extend(outs)

    attack_count = len(kept)
    pct = Fraction(negative, attack_count) if attack_count else Fraction(0)
    if config.arithmetic == "float64":
        pct = float(pct)
    return ReplaySummary(
        attack_count=attack_count,
        total_attacker_profit_usd=total_usd,
        pct_negative_profit=pct,
        per_pair=tuple(per_pair),
        excluded_pairs=tuple(excluded),
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


def _priced(rec: ReplayRecord) -> bool:
    """True when both USD prices of ``rec`` are present and positive."""
    return all(p is not None and p > 0 for p in (rec.price_usd_x, rec.price_usd_y))


def il_portfolio_report(
    records: Sequence[ReplayRecord],
    alphas: Sequence[Num],
    lam: Num,
) -> ILScenarioReport:
    """Per-pair impermanent-loss comparison from first to last traded price.

    Pairs with fewer than two trades, or without two usable USD price
    observations (present and positive), are dropped and counted by reason.
    Dollar losses weight the loss fraction by the pair's hold value:
    first-seen reserves at last-seen prices.
    """
    alphas = list(alphas)
    # checked here, not first at a pair, so that a log without one rejects them too
    if not lam > 1:
        raise DomainError("volatility threshold must exceed 1")
    if not alphas:
        raise DomainError("alphas must not be empty")
    if not all(a > 0 and 2 * a <= 1 for a in alphas):
        raise DomainError("alpha must lie in (0, 0.5]")
    if len({str(float(a)) for a in alphas}) < len(alphas):  # the report's keys
        raise DomainError("alphas must differ as floats")
    by_pair: Dict[str, List[ReplayRecord]] = {}
    for rec in records:
        by_pair.setdefault(rec.pair_id, []).append(rec)

    entries: List[PairILEntry] = []
    excluded = {"too_few_trades": 0, "missing_prices": 0}
    for pair_id in sorted(by_pair):
        recs = by_pair[pair_id]
        if len(recs) < 2:
            excluded["too_few_trades"] += 1
            continue
        i = next((i for i, r in enumerate(recs) if _priced(r)), None)
        j = next((j for j in range(len(recs) - 1, -1, -1) if _priced(recs[j])), None)
        if i == j:  # no priced record, or only one
            excluded["missing_prices"] += 1
            continue
        first, last = recs[i], recs[j]
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
    for klass in (VOL_LOW, VOL_HIGH):
        members = [e for e in entries if e.volatility == klass]
        cpmm_usd, gmm = 0.0, [0.0] * len(alphas)
        for e in members:
            hold = float(e.hold_value_usd)
            cpmm_usd += float(e.il_cpmm) * hold
            for i, (_, loss) in enumerate(e.il_gmm):
                gmm[i] += float(loss) * hold
        gmm_usd = {str(float(alpha)): v for alpha, v in zip(alphas, gmm)}
        totals[klass] = {
            "pair_count": len(members),
            "il_cpmm_usd": cpmm_usd,
            "il_gmm_usd": gmm_usd,
            "reduction_usd": {a: cpmm_usd - v for a, v in gmm_usd.items()},
        }
    return ILScenarioReport(tuple(entries), totals, excluded)


def _scaled_round(num: int, den: int, places: int) -> int:
    """``round(Fraction(num, den) * 10**places)`` (half to even) on integers;
    ``den`` is positive."""
    quot, rem = divmod(num * 10**places, den)
    twice = 2 * rem
    if twice > den or (twice == den and quot & 1):
        quot += 1
    return quot


def format_decimal(value: Num, places: int = 12) -> str:
    """Plain decimal rendering with at most ``places`` fractional digits,
    trailing zeros stripped.  Exact for inputs whose denominator divides
    ``10**places`` (all fixture amounts are pre-rounded to that grid)."""
    if isinstance(value, float):
        value = Fraction(repr(value))
    scaled = _scaled_round(value.numerator, value.denominator, places)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    cut = len(digits) - places
    whole, frac = digits[:cut], digits[cut:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def records_to_csv(records: Sequence[ReplayRecord]) -> str:
    """Serialize records to the interchange CSV (header included).

    The records of one attack share their price objects, so a price is
    formatted again only when the object differs from the last record's.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    price_x = price_y = None
    text_x = text_y = ""
    for r in records:
        if r.price_usd_x is not price_x:
            price_x = r.price_usd_x
            text_x = "" if price_x is None else format_decimal(price_x)
        if r.price_usd_y is not price_y:
            price_y = r.price_usd_y
            text_y = "" if price_y is None else format_decimal(price_y)
        writer.writerow([r.block_number, r.tx_index, r.pair_id, r.role, r.attack_id, r.token_in,
                         format_decimal(r.amount_in), format_decimal(r.reserve_x_before),
                         format_decimal(r.reserve_y_before), text_x, text_y])
    return out.getvalue()


def synthetic_attack_records(seed: int, n_attacks: int = 100) -> List[ReplayRecord]:
    """Deterministic synthetic attack log used by tests and scripts.

    Amounts live on a 12-decimal grid so the CSV round-trips exactly; every
    record carries USD prices so dollar totals are well defined.  Sizes and
    prices are whole hundredths and an exact swap keeps ``x*y``, so every
    value is worked out on integers and rounded half to even onto the grid.
    """
    if type(n_attacks) is not int or n_attacks < 0:
        raise DomainError("the number of attacks must be a nonnegative integer")
    rng = random.Random(seed)
    pair_ids = [f"PAIR-{i:02d}" for i in range(1, 7)]
    base_price_x = {pid: rng.randint(1, 4000) for pid in pair_ids}
    one = Fraction(1)
    record = ReplayRecord._unchecked
    records: List[ReplayRecord] = []
    block = 17_000_000
    for k in range(n_attacks):
        pair = rng.choice(pair_ids)
        block += rng.randint(1, 5)
        token_in = rng.choice(("X", "Y"))
        back_token = "Y" if token_in == "X" else "X"
        rx = rng.randint(50_000, 5_000_000)
        ry = rng.randint(50_000, 5_000_000)
        sent, received = (rx, ry) if token_in == "X" else (ry, rx)
        attack = sent * rng.randint(2, 30)  # hundredths, as are the victim sizes
        victims = [sent * rng.randint(1, 12) for _ in range(rng.randint(1, 3))]
        price_x = Fraction(base_price_x[pair] * rng.randint(90, 110), 100)
        attack_id = f"atk-{k:04d}"
        records.append(record(block, 0, pair, ROLE_FRONTRUN, attack_id, token_in,
                              Fraction(attack, 100), Fraction(rx), Fraction(ry), price_x, one))
        product = 100 * sent * received

        def reserves(held):  # (x, y) once the sent side holds ``held`` hundredths
            res_sent = Fraction(held, 100)
            res_recv = Fraction(_scaled_round(product, held, 12), 10**12)
            return (res_sent, res_recv) if token_in == "X" else (res_recv, res_sent)

        held = 100 * sent + attack
        for tx, size in enumerate(victims, start=1):
            records.append(record(block, tx, pair, ROLE_VICTIM, attack_id, token_in,
                                  Fraction(size, 100), *reserves(held), price_x, one))
            held += size
        back = Fraction(_scaled_round(received * attack, 100 * sent + attack, 12), 10**12)
        records.append(record(block, len(victims) + 1, pair, ROLE_BACKRUN, attack_id,
                              back_token, back, *reserves(held), price_x, one))
    return records
