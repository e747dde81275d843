from fractions import Fraction as F

import pytest

from ammlab.core import Algorithm, DomainError
from ammlab.replay import (
    CSV_COLUMNS,
    LogFormatError,
    ReplayRecord,
    ScenarioConfig,
    il_portfolio_report,
    parse_log,
    records_to_csv,
    run_counterfactual,
    synthetic_attack_records,
)

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

    def test_synthetic_round_trip_is_exact(self):
        records = synthetic_attack_records(seed=20230101, n_attacks=25)
        parsed = parse_log(records_to_csv(records).encode())
        assert parsed == records


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
        for bad in ('[]', '{}', '{"algorithm": "gmm", "split_count": true}'):
            with pytest.raises(DomainError):
                ScenarioConfig.from_json(bad)
        with pytest.raises(DomainError):
            ScenarioConfig(Algorithm.GMM, split_count=True)

    def test_bad_arithmetic(self):
        with pytest.raises(DomainError):
            ScenarioConfig(Algorithm.CPMM, arithmetic="decimal")


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

    def test_near_zero_prices_dropped(self):
        rows = self.pair_rows("PAIR-A", 100, "0.0000000001", "0.0000000002")
        report = il_portfolio_report(
            parse_log(log_text(rows).encode()), [F(1, 2)], F(10), price_epsilon=F(1, 10**6)
        )
        assert report.excluded["missing_prices"] == 1
