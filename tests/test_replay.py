import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ammlab.adversary import (
    sandwich_profit_beta,
    sandwich_profit_cpmm_closed,
    sandwich_profit_gmm_closed,
    sandwich_profit_nsplit,
)
from ammlab.cli import main
from ammlab.core import Algorithm, DomainError, cpmm_out
from ammlab.replay import (
    BACKRUN_MATCH_RTOL,
    CSV_COLUMNS,
    MAX_LITERAL_EXPONENT,
    LogFormatError,
    ReplayRecord,
    ScenarioConfig,
    _backrun_mismatch,
    _decimal,
    _oversized_literal,
    _scaled_round,
    format_decimal,
    il_portfolio_report,
    parse_log,
    records_to_csv,
    run_counterfactual,
    synthetic_attack_records,
)
from scripts import make_synthetic_log

HEADER = ",".join(CSV_COLUMNS)

# the worked single-pool sandwich: 60k front, 40k victim, back-run returns the ETH
PART2_ROWS = [
    "100,0,PAIR-A,frontrun,atk-1,X,60000,400000,100,1.0,4000",
    "100,1,PAIR-A,victim,atk-1,X,40000,460000,86.956522,1.0,4000",
    "100,2,PAIR-A,backrun,atk-1,Y,13.0435,500000,80,1.0,4000",
]


def log_text(rows):
    return "\n".join([HEADER, *rows]) + "\n"


def part2_records():
    return parse_log(log_text(PART2_ROWS).encode())


class TestParseLog:
    def test_part2_fixture_parses_into_one_attack(self):
        records = part2_records()
        assert len(records) == 3
        assert [r.role for r in records] == ["frontrun", "victim", "backrun"]
        assert records[0].amount_in == 60_000
        assert records[0].price_usd_y == 4_000

    def test_empty_file_with_header(self):
        assert parse_log(log_text([]).encode()) == []

    def test_missing_header(self):
        with pytest.raises(LogFormatError):
            parse_log(b"not,a,header\n")

    def test_backrun_mismatch_names_the_attack(self):
        rows = list(PART2_ROWS)
        rows[2] = "100,2,PAIR-A,backrun,atk-1,Y,14.5,500000,80,1.0,4000"
        with pytest.raises(LogFormatError) as err:
            parse_log(log_text(rows).encode())
        assert "atk-1" in str(err.value)
        assert err.value.errors[0][0] == 4  # the backrun's line

    def test_short_row_reports_line_number(self):
        rows = list(PART2_ROWS) + ["101,0,PAIR-A,normal"]
        with pytest.raises(LogFormatError) as err:
            parse_log(log_text(rows).encode())
        assert err.value.errors[0][0] == 5

    def test_non_decimal_amount(self):
        rows = ["100,0,PAIR-A,normal,,X,12bad3,400000,100,,"]
        with pytest.raises(LogFormatError) as err:
            parse_log(log_text(rows).encode())
        assert "non-decimal" in str(err.value)

    def test_unsorted_input_rejected(self):
        rows = [
            "101,0,PAIR-A,normal,,X,5,400000,100,,",
            "100,0,PAIR-A,normal,,X,5,400000,100,,",
        ]
        with pytest.raises(LogFormatError) as err:
            parse_log(log_text(rows).encode())
        assert "sorted" in str(err.value)

    def test_dangling_attack_rejected(self):
        rows = ["100,0,PAIR-A,frontrun,atk-9,X,60000,400000,100,,"]
        with pytest.raises(LogFormatError) as err:
            parse_log(log_text(rows).encode())
        assert "atk-9" in str(err.value)

    def test_mixed_direction_victims_rejected(self):
        rows = list(PART2_ROWS)
        rows[1] = "100,1,PAIR-A,victim,atk-1,Y,3.2,460000,86.956522,1.0,4000"
        with pytest.raises(LogFormatError) as err:
            parse_log(log_text(rows).encode())
        assert "mixed-direction" in str(err.value)

    def test_normal_row_with_attack_id_rejected(self):
        rows = ["100,0,PAIR-A,normal,atk-1,X,5,400000,100,,"]
        with pytest.raises(LogFormatError):
            parse_log(log_text(rows).encode())

    FRONT, VICTIM, BACK = PART2_ROWS

    @pytest.mark.parametrize("rows, error", [
        ([BACK.replace("100,2,", "100,0,"), FRONT.replace("100,0,", "100,1,")],
         (3, "attack 'atk-1': frontrun after backrun")),
        ([FRONT, VICTIM.replace("PAIR-A", "PAIR-B"), BACK],
         (2, "attack 'atk-1' spans multiple pairs")),
        ([FRONT, BACK.replace("100,2,", "100,1,"), VICTIM.replace("100,1,", "100,2,")],
         (2, "attack 'atk-1': victims must sit between frontrun and backrun")),
        ([FRONT, VICTIM, BACK.replace(",Y,", ",X,")],
         (4, "attack 'atk-1': backrun must send the other asset")),
    ])
    def test_bracket_error_line_and_message(self, rows, error):
        with pytest.raises(LogFormatError) as err:
            parse_log(log_text(rows).encode())
        assert err.value.errors == [error]

    def test_empty_file_is_line_one(self):
        with pytest.raises(LogFormatError) as err:
            parse_log(b"")
        assert err.value.errors == [(1, "empty file, expected header")]

    def test_blank_rows_are_skipped_but_counted(self):
        rows = [self.FRONT, "", self.VICTIM, "", self.BACK]
        assert parse_log(log_text(rows).encode()) == part2_records()
        with pytest.raises(LogFormatError) as err:
            parse_log(log_text(rows + ["", "101,0,PAIR-A,normal"]).encode())
        assert err.value.errors == [(8, "expected 11 columns, got 4")]

    def test_synthetic_round_trip_is_exact(self):
        records = synthetic_attack_records(seed=20230101, n_attacks=25)
        parsed = parse_log(records_to_csv(records).encode())
        assert parsed == records

    @pytest.mark.parametrize("ending", ["\r", "\r\n"])
    def test_line_endings_read_as_lf(self, ending, tmp_path):
        text = records_to_csv(synthetic_attack_records(seed=20230101, n_attacks=25))
        data = text.replace("\n", ending).encode()
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        assert parse_log(data) == parse_log(str(path)) == parse_log(text.encode())

    @pytest.mark.parametrize("row, error", [
        ("100,1," + "P" * 200_000 + ",normal,,X,5,400000,100,,",
         "field larger than field limit (131072)"),
        ("100,1,PAIR-\udcff,normal,,X,5,400000,100,,", "not UTF-8: byte 0xff"),
    ])
    def test_unreadable_row_ends_the_log(self, row, error):
        # the rows after it are not read, so the bracket it cuts is not judged
        data = log_text(["100,0,PAIR-A,frontrun,atk-1,X,60000,400000,100,,", row,
                         "100,2,PAIR-A,backrun,atk-1,Y,13.0435,500000,80,,"])
        with pytest.raises(LogFormatError) as err:
            parse_log(data.encode("utf-8", "surrogateescape"))
        assert err.value.errors == [(3, error)]

    @pytest.mark.parametrize("header, error", [
        ("\udcff" + HEADER, "not UTF-8: byte 0xff"),
        ("H" * 200_000, "field larger than field limit (131072)"),
    ])
    def test_unreadable_header_is_line_one(self, header, error):
        with pytest.raises(LogFormatError) as err:
            parse_log(log_text(PART2_ROWS).replace(HEADER, header).encode("utf-8", "surrogateescape"))
        assert err.value.errors == [(1, error)]

    @pytest.mark.parametrize("ending", ["\n", "\r", "\r\n"])
    def test_non_utf8_byte_is_reported_at_its_line(self, ending):
        # The decoder meets the byte in a chunk that may start inside a row or
        # just after a line end it has not passed on; zeros padding the first
        # block number move the chunk edges across a whole row.
        header, first, *rest = records_to_csv(synthetic_attack_records(7, 40)).split("\n")
        for pad in range(100):
            data = ending.join([header, "0" * pad + first, *rest]).encode()
            at = data.index(b",", 12_000) + 1
            with pytest.raises(LogFormatError) as err:
                parse_log(data[:at] + b"\xff" + data[at + 1:])
            line = data[:at].count(ending.encode()) + 1
            assert err.value.errors == [(line, "not UTF-8: byte 0xff")]

    def test_peak_memory_is_within_twice_the_records(self):
        # one pass over one stream: no decoded copy of the log, no list of rows
        data = records_to_csv(synthetic_attack_records(2024, 2000)).encode()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            records = parse_log(data)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == data.count(b"\n") - 1
        assert peak - base <= 2 * (held - base)


# synthetic_attack_records as written before it worked on integers: exact
# Fraction swap chains, each logged value rounded half to even onto the grid.
def on_grid(value):
    return F(round(value * 10**12), 10**12)


def synthetic_oracle(seed, n_attacks):
    rng = random.Random(seed)
    pair_ids = [f"PAIR-{i:02d}" for i in range(1, 7)]
    base_price_x = {pid: F(rng.randint(1, 4000)) for pid in pair_ids}
    records = []
    block = 17_000_000
    for k in range(n_attacks):
        pair = rng.choice(pair_ids)
        block += rng.randint(1, 5)
        token_in = rng.choice(("X", "Y"))
        rx = F(rng.randint(50_000, 5_000_000))
        ry = F(rng.randint(50_000, 5_000_000))
        sent = rx if token_in == "X" else ry
        received = ry if token_in == "X" else rx
        attack_dx = on_grid(sent * F(rng.randint(2, 30), 100))
        n_victims = rng.randint(1, 3)
        victim_sizes = [on_grid(sent * F(rng.randint(1, 12), 100)) for _ in range(n_victims)]
        price_x = on_grid(base_price_x[pair] * F(rng.randint(90, 110), 100))
        price_y = F(1)
        attack_id = f"atk-{k:04d}"

        def record(tx, role, token, amount, res_x, res_y):
            return ReplayRecord(block, tx, pair, role, attack_id, token, amount,
                                on_grid(res_x), on_grid(res_y), price_x, price_y)

        front_out = cpmm_out(attack_dx, sent, received)
        records.append(record(0, "frontrun", token_in, attack_dx, rx, ry))
        cur_sent, cur_recv = sent + attack_dx, received - front_out
        tx = 1
        for size in victim_sizes:
            res_x, res_y = (cur_sent, cur_recv) if token_in == "X" else (cur_recv, cur_sent)
            records.append(record(tx, "victim", token_in, size, res_x, res_y))
            out = cpmm_out(size, cur_sent, cur_recv)
            cur_sent, cur_recv = cur_sent + size, cur_recv - out
            tx += 1
        res_x, res_y = (cur_sent, cur_recv) if token_in == "X" else (cur_recv, cur_sent)
        back_token = "Y" if token_in == "X" else "X"
        records.append(record(tx, "backrun", back_token, on_grid(front_out), res_x, res_y))
    return records


def field_types(records):
    return [tuple(type(getattr(r, name)) for name in ReplayRecord.__slots__) for r in records]


class TestSyntheticLog:
    SEEDS = [*range(56), 77, 2024, 20230101, 20240607]

    @pytest.mark.parametrize("n_attacks", [0, 1, 7, 30, 250])
    def test_equal_to_the_fraction_chains(self, n_attacks):
        for seed in self.SEEDS:
            got, expected = synthetic_attack_records(seed, n_attacks), synthetic_oracle(seed, n_attacks)
            assert got == expected
            assert field_types(got) == field_types(expected)
            assert records_to_csv(got) == records_to_csv(expected)

    @pytest.mark.parametrize("n_attacks", [-1, -4, True, False, 2.0, "3", None])
    def test_count_must_be_a_nonnegative_int(self, n_attacks):
        with pytest.raises(DomainError, match="nonnegative integer"):
            synthetic_attack_records(1, n_attacks)

    def test_script_writes_the_log(self, tmp_path, capsys):
        out = tmp_path / "log.csv"
        assert make_synthetic_log.main(["--seed", "7", "--attacks", "3", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == records_to_csv(synthetic_attack_records(7, 3))
        assert capsys.readouterr().out == f"wrote {len(parse_log(out))} records (3 attacks) to {out}\n"

    def test_script_rejects_a_negative_count(self, tmp_path, capsys):
        out = tmp_path / "log.csv"
        with pytest.raises(SystemExit) as exit_:
            make_synthetic_log.main(["--attacks", "-4", "--out", str(out)])
        assert exit_.value.code == 2
        assert "--attacks must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()


class TestScenarioConfig:
    def test_cpmm_rejects_scenario_parameters(self):
        with pytest.raises(DomainError):
            ScenarioConfig(Algorithm.CPMM, external_reserve_multiple=F(1))

    def test_gmm_needs_exactly_one_parameter(self):
        with pytest.raises(DomainError):
            ScenarioConfig(Algorithm.GMM)
        with pytest.raises(DomainError):
            ScenarioConfig(Algorithm.GMM, external_reserve_multiple=F(1), split_count=2)

    def test_other_algorithms_rejected(self):
        with pytest.raises(DomainError):
            ScenarioConfig(Algorithm.NGMM)

    def test_from_json(self):
        cfg = ScenarioConfig.from_json(
            '{"algorithm": "gmm", "external_reserve_multiple": 0.05, "arithmetic": "rational", "seed": 3}'
        )
        assert cfg.external_reserve_multiple == F(1, 20)
        for bad in ('[]', '{}', '{"algorithm": "gmm", "split_count": true}',
                    '{"algorithm": "gmm", "external_reserve_multiple": "1/0"}',
                    '{"algorithm": "gmm", "external_reserve_multiple": "1e999999"}'):
            with pytest.raises(DomainError):
                ScenarioConfig.from_json(bad)
        with pytest.raises(DomainError):
            ScenarioConfig(Algorithm.GMM, split_count=True)

    @pytest.mark.parametrize("key", ["arithmatic", "reserve_multiple", "Algorithm", ""])
    def test_unknown_key_is_named(self, key):
        text = json.dumps({"algorithm": "cpmm", key: "float64"})
        with pytest.raises(DomainError, match=repr(key)):
            ScenarioConfig.from_json(text)

    def test_seed_is_accepted_and_ignored(self):
        text = '{"algorithm": "gmm", "split_count": 2, "arithmetic": "float64", "seed": 9}'
        assert ScenarioConfig.from_json(text) == ScenarioConfig(
            Algorithm.GMM, split_count=2, arithmetic="float64")

    @pytest.mark.parametrize("make, message", [
        (lambda: ScenarioConfig(Algorithm.GMM, external_reserve_multiple=F(-1, 10)),
         "reserve multiple must be nonnegative"),
        (lambda: ScenarioConfig.from_json('{"algorithm": "gmm", "external_reserve_multiple": -1}'),
         "reserve multiple must be nonnegative"),
        (lambda: ScenarioConfig.from_json('{"algorithm": "gmm", "external_reserve_multiple": [1]}'),
         "reserve multiple must be a number or a decimal string"),
        (lambda: ScenarioConfig.from_json('{"algorithm": "gmm", "external_reserve_multiple": {}}'),
         "reserve multiple must be a number or a decimal string"),
    ], ids=["negative", "negative-json", "list-json", "object-json"])
    def test_reserve_multiple_checks(self, make, message):
        with pytest.raises(DomainError, match=message):
            make()

    def test_bad_arithmetic(self):
        with pytest.raises(DomainError):
            ScenarioConfig(Algorithm.CPMM, arithmetic="decimal")

    @pytest.mark.parametrize("arithmetic", ["rational", "float64"])
    @pytest.mark.parametrize("field", ["external_reserve_multiple", "split_count"])
    def test_scenario_numbers_are_capped(self, field, arithmetic):
        # a float64 replay converts both to float, which overflows past about 1e308
        cap = 10**MAX_LITERAL_EXPONENT
        config = ScenarioConfig(Algorithm.GMM, arithmetic=arithmetic, **{field: cap})
        assert getattr(config, field) == cap
        with pytest.raises(DomainError, match="at most 10\\*\\*100"):
            ScenarioConfig(Algorithm.GMM, arithmetic=arithmetic, **{field: cap + 1})


class TestCounterfactual:
    def test_part2_local_profit(self):
        summary = run_counterfactual(part2_records(), ScenarioConfig(Algorithm.CPMM))
        assert summary.attack_count == 1
        assert float(summary.total_attacker_profit_usd) == pytest.approx(10_093.46, abs=0.01)
        assert summary.pct_negative_profit == 0

    def test_part2_global_beta_one(self):
        cfg = ScenarioConfig(Algorithm.GMM, external_reserve_multiple=F(1))
        summary = run_counterfactual(part2_records(), cfg)
        assert float(summary.total_attacker_profit_usd) == pytest.approx(810.81, abs=0.01)

    def test_part2_split_two(self):
        cfg = ScenarioConfig(Algorithm.GMM, split_count=2)
        summary = run_counterfactual(part2_records(), cfg)
        assert float(summary.total_attacker_profit_usd) == pytest.approx(810.81, abs=0.01)

    def test_mode_consistency(self):
        records = synthetic_attack_records(seed=5, n_attacks=40)
        base = run_counterfactual(records, ScenarioConfig(Algorithm.CPMM))
        beta0 = run_counterfactual(
            records, ScenarioConfig(Algorithm.GMM, external_reserve_multiple=F(0))
        )
        n1 = run_counterfactual(records, ScenarioConfig(Algorithm.GMM, split_count=1))
        assert base.total_attacker_profit_usd == beta0.total_attacker_profit_usd
        assert base.total_attacker_profit_usd == n1.total_attacker_profit_usd

    def test_order_invariance(self):
        records = synthetic_attack_records(seed=5, n_attacks=40)
        cfg = ScenarioConfig(Algorithm.GMM, external_reserve_multiple=F(1, 2))
        assert run_counterfactual(records, cfg) == run_counterfactual(records[::-1], cfg)

    def test_monotone_mitigation(self):
        records = synthetic_attack_records(seed=5, n_attacks=40)
        betas = [F(0), F(1, 100), F(1, 20), F(1, 10), F(1, 2), F(1), F(3, 2), F(10)]
        totals = [
            run_counterfactual(
                records, ScenarioConfig(Algorithm.GMM, external_reserve_multiple=b)
            ).total_attacker_profit_usd
            for b in betas
        ]
        assert all(a >= b for a, b in zip(totals, totals[1:]))
        split_totals = [
            run_counterfactual(
                records, ScenarioConfig(Algorithm.GMM, split_count=n)
            ).total_attacker_profit_usd
            for n in range(1, 6)
        ]
        assert all(a >= b for a, b in zip(split_totals, split_totals[1:]))

    def test_float64_mode_tracks_rational(self):
        records = synthetic_attack_records(seed=9, n_attacks=30)
        cfg_exact = ScenarioConfig(Algorithm.GMM, external_reserve_multiple=F(1, 10))
        cfg_float = ScenarioConfig(
            Algorithm.GMM, external_reserve_multiple=F(1, 10), arithmetic="float64"
        )
        exact = run_counterfactual(records, cfg_exact).total_attacker_profit_usd
        fast = run_counterfactual(records, cfg_float).total_attacker_profit_usd
        assert abs(fast - float(exact)) <= 1e-9 * abs(float(exact))

    def test_priceless_pair_excluded_and_counted(self):
        rows = list(PART2_ROWS) + [
            "200,0,PAIR-B,frontrun,atk-2,X,60000,400000,100,,",
            "200,1,PAIR-B,victim,atk-2,X,40000,460000,86.956522,,",
            "200,2,PAIR-B,backrun,atk-2,Y,13.0435,500000,80,,",
        ]
        records = parse_log(log_text(rows).encode())
        summary = run_counterfactual(records, ScenarioConfig(Algorithm.CPMM))
        assert summary.excluded_pairs == ("PAIR-B",)
        assert summary.attack_count == 1
        distinct_pairs = {r.pair_id for r in records}
        assert len(summary.excluded_pairs) + len(summary.per_pair) == len(distinct_pairs)


class TestIlPortfolio:
    @staticmethod
    def pair_rows(pair, block, px_first, px_last):
        return [
            f"{block},0,{pair},normal,,X,10,1000,4000000,{px_first},1",
            f"{block + 5},0,{pair},normal,,X,10,1010,3960000,{px_last},1",
        ]

    def test_single_pair_golden(self):
        records = parse_log(log_text(self.pair_rows("PAIR-A", 100, 4000, 3000)).encode())
        report = il_portfolio_report(records, [F(1, 2)], F(10))
        assert len(report.pairs) == 1
        entry = report.pairs[0]
        assert entry.volatility == "low"
        assert float(entry.il_cpmm) == pytest.approx(0.0103, abs=1e-4)
        assert float(entry.il_gmm[0][1]) < float(entry.il_cpmm)

    def test_factor_hundred_is_high(self):
        records = parse_log(log_text(self.pair_rows("PAIR-A", 100, 40, 4000)).encode())
        report = il_portfolio_report(records, [F(1, 2)], F(10))
        assert report.pairs[0].volatility == "high"

    def test_totals_are_additive(self):
        rows_a = self.pair_rows("PAIR-A", 100, 4000, 3000)
        rows_b = self.pair_rows("PAIR-B", 300, 50, 200)
        single_a = il_portfolio_report(parse_log(log_text(rows_a).encode()), [F(1, 4)], F(10))
        single_b = il_portfolio_report(parse_log(log_text(rows_b).encode()), [F(1, 4)], F(10))
        both = il_portfolio_report(parse_log(log_text(rows_a + rows_b).encode()), [F(1, 4)], F(10))
        for klass in ("low", "high"):
            assert both.totals[klass]["il_cpmm_usd"] == pytest.approx(
                single_a.totals[klass]["il_cpmm_usd"] + single_b.totals[klass]["il_cpmm_usd"]
            )

    def test_exclusions_counted(self):
        rows = [
            "100,0,PAIR-A,normal,,X,10,1000,4000000,,",  # never priced
            "101,0,PAIR-A,normal,,X,10,1000,4000000,,",
            "102,0,PAIR-B,normal,,X,10,1000,4000000,4000,1",  # single trade
        ]
        report = il_portfolio_report(parse_log(log_text(rows).encode()), [F(1, 2)], F(10))
        assert report.pairs == ()
        assert report.excluded == {"too_few_trades": 1, "missing_prices": 1}

    def test_priced_ends_are_told_apart_by_position(self):
        # one priced record among three is too few; one object listed twice is two trades
        rows = ["100,0,PAIR-A,normal,,X,10,1000,4000000,,",
                "101,0,PAIR-A,normal,,X,10,1000,4000000,4000,1",
                "102,0,PAIR-A,normal,,X,10,1000,4000000,,"]
        records = parse_log(log_text(rows).encode())
        assert il_portfolio_report(records, [F(1, 2)], F(10)).excluded["missing_prices"] == 1
        report = il_portfolio_report([records[1]] * 2, [F(1, 2)], F(10))
        assert [(p.pair_id, p.il_cpmm) for p in report.pairs] == [("PAIR-A", 0)]

    def test_near_zero_prices_dropped(self):
        rows = self.pair_rows("PAIR-A", 100, "0", "0.0000000002")
        report = il_portfolio_report(parse_log(log_text(rows).encode()), [F(1, 2)], F(10))
        assert report.excluded["missing_prices"] == 1

    @pytest.mark.parametrize("alphas", [[F(1, 4), 0.25], [F(1, 10), F(10**21 + 1, 10**22)]])
    def test_alphas_of_one_key_are_rejected_before_any_pair(self, alphas):
        # the report keys its losses by str(float(alpha)): two such alphas would share one
        def unread():
            raise AssertionError("a record was read")
            yield

        with pytest.raises(DomainError, match="alphas must differ as floats"):
            il_portfolio_report(unread(), alphas, F(10))


# Literals near the decimal grammar: signs, bare or trailing points,
# exponents, ratios, underscores, padding and non-ASCII digits.
DIGITS = "0123456789"
ODD_DIGITS = "\u0663\uff15\u00b2"  # Arabic-Indic three, fullwidth five, superscript two
digit_runs = st.text(st.sampled_from(DIGITS + ODD_DIGITS[:2]), min_size=1, max_size=6)
grouped = st.lists(st.text(st.sampled_from(DIGITS), min_size=1, max_size=3),
                   min_size=1, max_size=3).map("_".join)
number = st.one_of(st.just(""), digit_runs, grouped)
# exponents stay small: Fraction itself would build 10**999999 from "1e999999"
exponent = st.one_of(st.just(""), st.text(st.sampled_from(DIGITS + ODD_DIGITS), min_size=1, max_size=2))
structured = st.builds(
    lambda pad, sign, whole, dot, frac, tail, end: pad + sign + whole + dot + frac + tail + end,
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "+", "-"]),
    number,
    st.sampled_from(["", "."]),
    number,
    st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"),
                                    st.sampled_from(["", "+", "-"]), exponent),
              st.builds("/{}".format, number)),
    st.sampled_from(["", " "]),
)
literals = st.one_of(structured, st.text(st.sampled_from(DIGITS + "._+-eE/ " + ODD_DIGITS),
                                         max_size=8))


def fraction_or_error(text):
    try:
        return F(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


class TestDecimalLiterals:
    @settings(max_examples=400)
    @given(literals)
    @example("5.")
    @example(".5")
    @example("-0.5")
    @example("1_000.25")
    @example(" 7 ")
    @example("1e3")
    @example("3/4")
    @example("3/0")
    @example("\u0663.\uff15")
    @example("\u00b2")
    def test_equals_fraction(self, text):
        # parse_log never hands _decimal a literal over the caps, and Fraction
        # would build a huge power of ten for one (say "0e846\u066300")
        assume(not _oversized_literal([text]))
        try:
            value = _decimal(text, {})
        except (ValueError, ZeroDivisionError) as exc:
            value = type(exc)
        expected = fraction_or_error(text)
        assert value == expected and type(value) is type(expected)

    def test_memo_returns_the_first_value(self):
        memo = {}
        first = _decimal("12.50", memo)
        assert _decimal("12.50", memo) is first and first == F(25, 2)

    @settings(max_examples=300)
    @given(literals, st.sampled_from([6, 7, 9]))
    @example("1e101", 6)
    @example("0e846\u066300", 6)  # Fraction alone builds 10**846300 twice
    @example("-3", 7)
    @example("0", 6)
    @example("", 10)
    def test_parse_log_reports_as_fraction_does(self, text, column):
        # the literal replaces the amount, a reserve or a price of a normal row
        row = "100,0,PAIR-A,normal,,X,5,400000,100,1,4000".split(",")
        row[column] = text
        oversized = _oversized_literal([text])
        # the oracle runs only within the caps, as _decimal does in parse_log
        parsed = fraction_or_error(text) if (text or column < 9) and not oversized else None
        if oversized:
            expected = [(2, f"numeric literal longer than 100 characters "
                            f"or with an exponent beyond 100")]
        elif isinstance(parsed, type):
            expected = [(2, "non-decimal amount, reserve or price")]
        elif column < 9 and parsed <= 0:
            expected = [(2, "amounts and reserves must be positive")]
        else:
            expected = None
        log = log_text([",".join(row)]).encode()
        if expected is None:
            (record,) = parse_log(log)
            assert getattr(record, CSV_COLUMNS[column]) == parsed
        else:
            with pytest.raises(LogFormatError) as err:
                parse_log(log)
            assert err.value.errors == expected


class TestIntegerRounding:
    @settings(max_examples=300)
    @given(st.integers(-10**20, 10**20), st.integers(1, 10**15), st.integers(0, 14))
    @example(5, 2, 0)
    @example(-5, 2, 0)
    @example(7, 2, 0)
    @example(-7, 2, 0)
    @example(25, 10**13, 12)
    @example(35, 10**13, 12)
    @example(-25, 10**13, 12)
    def test_half_even_as_round(self, num, den, places):
        assert _scaled_round(num, den, places) == round(F(num, den) * 10**places)

    @settings(max_examples=200)
    @given(st.one_of(st.fractions(max_denominator=10**15), st.integers(-10**12, 10**12),
                     st.floats(-1e9, 1e9)), st.integers(0, 14))
    def test_format_decimal_as_round(self, value, places):
        q = F(repr(value)) if isinstance(value, float) else F(value)
        scaled = round(q * 10**places)
        assert F(format_decimal(value, places)) == F(scaled, 10**places)


def amounts(lo=1):
    return st.fractions(min_value=F(lo, 10**6), max_value=F(10**7), max_denominator=10**12)


class TestBackrunMatch:
    @settings(max_examples=300)
    @given(amounts(), amounts(), amounts(), st.fractions(min_value=F(99, 100), max_value=F(101, 100)))
    def test_same_verdict_as_the_fraction_test(self, a, s, r, scale):
        front_out = cpmm_out(a, s, r)
        for back in (front_out * scale, front_out * (1 + BACKRUN_MATCH_RTOL),
                     front_out * (1 - BACKRUN_MATCH_RTOL)):
            expected = abs(back - front_out) > BACKRUN_MATCH_RTOL * front_out
            assert _backrun_mismatch(back, a, s, r) == expected


# The global closed form as written before the exact path became one
# integer quotient; the float path still evaluates exactly this expression,
# and the lone pool's form is it at x_global = x_i.  Where the float
# denominator falls below 2**-16 V/G it could cancel, and the float path
# returns the exact value rounded instead.
def gmm_oracle(x_i, x_global, victim_dx, attack_dx):
    if x_global < x_i:
        raise DomainError("global reserves cannot be smaller than the pool's")
    t_loc = 1 + (attack_dx + victim_dx) / x_i
    t_glob = 1 + (attack_dx + victim_dx) / x_global
    denom = t_loc * (1 + attack_dx / x_i) - victim_dx / x_global
    if type(denom) is float and not denom * 2**16 > victim_dx / x_global:
        return float(gmm_oracle(*map(F, (x_i, x_global, victim_dx, attack_dx))))
    return (t_glob * t_loc / denom - 1) * attack_dx


def value_or_domain_error(call):
    try:
        return call()
    except DomainError:
        return DomainError


def as_kind(value, kind):
    return {"fraction": value, "int": int(value), "float": float(value)}[kind]


kinds = st.sampled_from(["fraction", "int", "float"])
sizes = st.one_of(st.just(F(0)), amounts())


class TestClosedFormsMatchOracle:
    @settings(max_examples=300)
    @given(amounts(), sizes, sizes, st.fractions(min_value=0, max_value=20, max_denominator=100),
           st.integers(1, 9), st.tuples(kinds, kinds, kinds, kinds))
    @example(F(400_000), F(40_000), F(60_000), F(1), 2, ("fraction", "int", "fraction", "int"))
    @example(F(7), F(0), F(0), F(0), 1, ("int", "int", "int", "int"))
    def test_equal_to_the_expression(self, x, victim, attack, beta, n, kind):
        x = max(x, F(1))  # an int reserve stays positive
        x, victim, attack, beta = (as_kind(v, k) for v, k in zip((x, victim, attack, beta), kind))
        # an int input is exact: the oracle sees it as a Fraction
        ox, ov, oa, ob = (F(v) if type(v) is int else v for v in (x, victim, attack, beta))
        cases = [
            (lambda: sandwich_profit_cpmm_closed(x, victim, attack),
             lambda: gmm_oracle(ox, ox, ov, oa)),
            (lambda: sandwich_profit_gmm_closed(x, x * 3, victim, attack),
             lambda: gmm_oracle(ox, ox * 3, ov, oa)),
            # a float beta may round (1 + beta) * x below x: both raise
            (lambda: sandwich_profit_beta(x, beta, victim, attack),
             lambda: gmm_oracle(ox, (1 + ob) * ox, ov, oa)),
            (lambda: sandwich_profit_nsplit(x, n, victim, attack),
             lambda: gmm_oracle(ox / n, ox, ov, oa)),
        ]
        for call, oracle in cases:
            got, expected = value_or_domain_error(call), value_or_domain_error(oracle)
            assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("x", [F(0), F(-1), 0, -2.5])
    def test_nonpositive_reserve(self, x):
        for call in (lambda: sandwich_profit_cpmm_closed(x, F(1), F(1)),
                     lambda: sandwich_profit_gmm_closed(x, F(10), F(1), F(1)),
                     lambda: sandwich_profit_beta(x, F(1), F(1), F(1)),
                     lambda: sandwich_profit_nsplit(x, 2, F(1), F(1))):
            with pytest.raises(DomainError):
                call()

    def test_other_domain_errors(self):
        with pytest.raises(DomainError):
            sandwich_profit_gmm_closed(F(10), F(9), F(1), F(1))
        with pytest.raises(DomainError):
            sandwich_profit_beta(F(10), F(-1, 10), F(1), F(1))
        for n in (0, True, 2.0):
            with pytest.raises(DomainError):
                sandwich_profit_nsplit(F(10), n, F(1), F(1))

    @pytest.mark.parametrize("victim, attack", [(F(-4), F(1)), (F(1), F(-1, 3)), (-1, 0),
                                                (0.0, -1e-300), (F(1), -2.5)])
    def test_negative_size(self, victim, attack):
        # at (x, V, A) = (1, -4, 1) the exact quotient's denominator is 0
        for call in (lambda: sandwich_profit_cpmm_closed(F(1), victim, attack),
                     lambda: sandwich_profit_gmm_closed(F(1), F(3), victim, attack),
                     lambda: sandwich_profit_beta(F(1), F(1), victim, attack),
                     lambda: sandwich_profit_nsplit(F(1), 2, victim, attack)):
            with pytest.raises(DomainError, match="nonnegative"):
                call()

    @pytest.mark.parametrize("x, victim, attack, n, finite", [
        # (x+S)(x+A)/x**2 overflows, the expression reads nan: the exact value is taken
        pytest.param(1e-100, 1e100, 1e100, 5, True, id="1e-100-1e+100-1e+100-5"),
        # the denominator, at least 1, rounds to 0 at x_global = x: the exact value is taken
        pytest.param(1.0, 1e20, 1e-20, 1, True, id="1.0-1e+20-1e-20-1"),
    ])
    def test_float_result_must_be_finite(self, x, victim, attack, n, finite):
        exact = sandwich_profit_nsplit(F(x), n, F(victim), F(attack))
        lone = sandwich_profit_cpmm_closed(F(x), F(victim), F(attack))  # the split's only at n = 1
        assert abs(exact) < 10**101  # in float range: only the expression overflows
        for call, value in ((lambda: sandwich_profit_cpmm_closed(x, victim, attack), lone),
                            (lambda: sandwich_profit_gmm_closed(x / n, x, victim, attack), exact),
                            (lambda: sandwich_profit_nsplit(x, n, victim, attack), exact)):
            if finite:
                assert call() == float(value)
            else:
                with pytest.raises(DomainError, match="float"):
                    call()

    @pytest.mark.parametrize("x, victim, attack, in_range", [
        (0.0011326, 1.4932e13, 2.9084e-19, True),  # the expression read 2.53e13 for 1.15e13
        (1e-300, 1e300, 1e-300, True),  # its terms are infinite
        (1.0, math.inf, 1.0, False),  # an infinite input has no exact value
    ])
    def test_cancelling_denominator_takes_the_exact_value(self, x, victim, attack, in_range):
        if in_range:
            exact = sandwich_profit_cpmm_closed(F(x), F(victim), F(attack))
            assert sandwich_profit_cpmm_closed(x, victim, attack) == float(exact)
        else:
            with pytest.raises(DomainError, match="float overflow"):
                sandwich_profit_cpmm_closed(x, victim, attack)

    def test_float_error_within_the_contract(self):
        # x in 1e-3..1e3, V in 1e-20..1e20, A in 1e-20..1e3, G = x or above it:
        # within 1e-9 of max(|exact|, A)
        rng = random.Random(2024)
        for _ in range(2000):
            x = 10 ** rng.uniform(-3, 3)
            g = x if rng.random() < 0.5 else x * (1 + 10 ** rng.uniform(-12, 3))
            victim, attack = 10 ** rng.uniform(-20, 20), 10 ** rng.uniform(-20, 3)
            exact = sandwich_profit_gmm_closed(F(x), F(g), F(victim), F(attack))
            got = sandwich_profit_gmm_closed(x, g, victim, attack)
            assert abs(F(got) - exact) <= max(abs(exact), F(attack)) / 10**9


# SHA-256 of the files `ammlab replay` writes for synthetic_attack_records(20240607, 250),
# recorded before the integer parse and closed forms; (--out JSON, --attacks-csv).
GOLDEN_LOG = "5af6f038c9cde73d0f3df235af4b279ea2cd8db4761009d218f3ea1c882053d5"
GOLDEN_REPLAY = {
    "cpmm": ("1e93a683d372cb1ed3da64c12f4cc59d97ee25e8c7e65228bae0f76344b91f6a",
             "5017ffe692c695d1455677c79a4ec576ecaacff7d1fd5b258c29ca2fbb8c5218"),
    "gmm-beta-rational": ("b0c2485c6340cbfeb5e00eaa02debd62095901f652ab8f26a1d370a7a500f4b8",
                          "bc0b6c2748d276d3226cff98b7382926605601d523602279e39233a10744bcd0"),
    "gmm-split-float64": ("b0f18c8ec8692c041101e649ae79a15ad431d5bdb614b7ba6838a06cdb51dc7d",
                          "65f8ef011ebee63018e2fc9edd1d80a140bf5a05a6b63b5ededa106ce1443ddf"),
}
GOLDEN_IL = "1f666b2fdd4d33884281008bf73bf13daa8afaaf2a37e428551773dd97de6df7"
GOLDEN_CONFIGS = {
    "cpmm": {"algorithm": "cpmm"},
    "gmm-beta-rational": {"algorithm": "gmm", "external_reserve_multiple": "9/4"},
    "gmm-split-float64": {"algorithm": "gmm", "arithmetic": "float64", "split_count": 5},
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenReplay:
    @pytest.fixture(scope="class")
    def log(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("golden") / "log.csv"
        path.write_text(records_to_csv(synthetic_attack_records(20240607, 250)), encoding="utf-8")
        return path

    def test_log_csv(self, log):
        assert sha256_of(log) == GOLDEN_LOG

    @pytest.mark.parametrize("scenario", sorted(GOLDEN_CONFIGS))
    def test_scenario_outputs(self, log, tmp_path, scenario):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(GOLDEN_CONFIGS[scenario]), encoding="utf-8")
        out, attacks = tmp_path / "out.json", tmp_path / "attacks.csv"
        assert main(["replay", "--log", str(log), "--config", str(config),
                     "--out", str(out), "--attacks-csv", str(attacks)]) == 0
        assert (sha256_of(out), sha256_of(attacks)) == GOLDEN_REPLAY[scenario]

    def test_il_report(self, log, tmp_path):
        out = tmp_path / "il.json"
        assert main(["replay", "--log", str(log), "--il", "--out", str(out)]) == 0
        assert sha256_of(out) == GOLDEN_IL
