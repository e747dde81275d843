import contextlib
import csv
import io
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammlab import toy
from ammlab.cli import main
from ammlab.replay import CSV_COLUMNS, records_to_csv, synthetic_attack_records

PART2_LOG = "\n".join(
    [
        ",".join(CSV_COLUMNS),
        "100,0,PAIR-A,frontrun,atk-1,X,60000,400000,100,1.0,4000",
        "100,1,PAIR-A,victim,atk-1,X,40000,460000,86.956522,1.0,4000",
        "100,2,PAIR-A,backrun,atk-1,Y,13.0435,500000,80,1.0,4000",
    ]
) + "\n"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestQuote:
    def test_toy_divergent_buy(self, capsys):
        rc, out, _ = run(capsys, [
            "quote", "--pools", "100:400000,100:400000", "--send", "Y",
            "--amount", "44444", "--pool-index", "0", "--algorithm", "gmm",
        ])
        assert rc == 0
        assert "amount_out: 10.00" in out
        assert "branch: local-cpmm" in out
        assert "classification: divergent" in out

    def test_zero_amount(self, capsys):
        rc, out, _ = run(capsys, [
            "quote", "--pools", "100:400000,100:400000", "--amount", "0",
            "--algorithm", "gmm",
        ])
        assert rc == 0
        assert "amount_out: 0.00" in out

    def test_zero_rebalancing_quote_prices_as_gmm(self, capsys):
        rc, out, _ = run(capsys, [
            "quote", "--pools", "100:400000,100:400000", "--amount", "0",
            "--algorithm", "gmm-rebal",
        ])
        assert rc == 0
        assert out == "amount_out: 0.00\nbranch: local-cpmm\nclassification: divergent\n"

    def test_pool_index_out_of_range(self, capsys):
        rc, out, err = run(capsys, [
            "quote", "--pools", "100:400000,100:400000", "--amount", "1", "--pool-index", "7",
        ])
        assert rc == 1
        assert out == ""
        assert err == "error: pool index 7 out of range\n"

    def test_rebalancing_quote(self, capsys):
        rc, out, _ = run(capsys, [
            "quote", "--pools", "90:440000,210:760000", "--send", "X", "--amount", "1",
            "--pool-index", "1", "--algorithm", "gmm-rebal", "--force-trigger",
        ])
        assert rc == 0
        assert "amount_out: 3980.10" in out
        assert "transfer: amm2 -> amm1 amount=10.00 received=40000.00" in out

    def test_unsettled_rebalancing_is_domain_error(self, capsys, monkeypatch):
        from ammlab import rebalance

        monkeypatch.setattr(rebalance, "inter_pool_quote", lambda dx, to_pool, eco: 0)
        rc, out, err = run(capsys, [
            "quote", "--pools", "90:440000,210:760000", "--amount", "1",
            "--pool-index", "1", "--algorithm", "gmm-rebal", "--force-trigger",
        ])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: rebalancing 'amm2' did not settle")
        assert "Traceback" not in err

    def test_usage_error_is_exit_two(self, capsys):
        rc, _, _ = run(capsys, ["quote", "--pools", "100:400000"])  # no --amount
        assert rc == 2

    def test_bad_pool_entry_is_domain_error(self, capsys):
        rc, _, err = run(capsys, ["quote", "--pools", "100x400000", "--amount", "1"])
        assert rc == 1
        assert "error" in err

    def test_force_trigger_requires_rebalancing(self, capsys):
        rc, _, err = run(capsys, [
            "quote", "--pools", "1:1,2:2", "--amount", "1", "--algorithm", "gmm",
            "--force-trigger",
        ])
        assert rc == 1


class TestSweep:
    def read_csv(self, path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        return rows[0], {float(r[0]): [float(v) for v in r[1:]] for r in rows[1:]}

    def test_mev_local_curve(self, capsys, tmp_path):
        out_file = tmp_path / "cpmm.csv"
        rc, _, _ = run(capsys, [
            "sweep", "mev", "--xi", "400000", "--victim", "40000",
            "--range", "0:200000:1000", "--algorithm", "cpmm", "--out", str(out_file),
        ])
        assert rc == 0
        header, rows = self.read_csv(out_file)
        assert header == ["attack_dx", "profit"]
        assert rows[60_000.0][0] == pytest.approx(10_093.46, abs=0.01)
        assert rows[0.0][0] == 0.0

    def test_mev_global_curve(self, capsys, tmp_path):
        out_file = tmp_path / "gmm.csv"
        rc, _, _ = run(capsys, [
            "sweep", "mev", "--xi", "400000", "--victim", "40000",
            "--range", "0:200000:1000", "--algorithm", "gmm", "--x", "800000",
            "--out", str(out_file),
        ])
        assert rc == 0
        _, rows = self.read_csv(out_file)
        assert rows[60_000.0][0] == pytest.approx(810.81, abs=0.01)

    def test_gmm_requires_global_reserve(self, capsys):
        rc, _, err = run(capsys, [
            "sweep", "mev", "--xi", "400000", "--victim", "40000",
            "--range", "0:1000:100", "--algorithm", "gmm",
        ])
        assert rc == 2

    @pytest.mark.parametrize("algorithm", [[], ["--algorithm", "cpmm"]])
    def test_cpmm_takes_no_global_reserve(self, capsys, tmp_path, algorithm):
        out_file = tmp_path / "cpmm.csv"
        rc, out, err = run(capsys, [
            "sweep", "mev", "--xi", "1", "--victim", "1", "--range", "1:2:1", "--x", "5",
            "--out", str(out_file), *algorithm,
        ])
        assert (rc, out) == (2, "")
        assert err == "error: cpmm sweep takes no --x (a lone pool's reserves are the global ones)\n"
        assert not out_file.exists()

    def test_il_flat_ratio_is_zero(self, capsys, tmp_path):
        for alpha in ("0.01", "0.25", "0.5"):
            out_file = tmp_path / f"il_{alpha}.csv"
            rc, _, _ = run(capsys, [
                "sweep", "il", "--alpha", alpha, "--ratio", "1", "--out", str(out_file),
            ])
            assert rc == 0
            _, rows = self.read_csv(out_file)
            assert rows[1.0] == [0.0, 0.0]

    @pytest.mark.parametrize("ratio", ["1", "2"])
    def test_il_alpha_is_checked_at_every_ratio(self, capsys, ratio):
        # a flat price move is no reason to accept an alpha outside (0, 0.5]
        rc, out, err = run(capsys, ["sweep", "il", "--alpha", "0.9", "--ratio", ratio])
        assert (rc, out, err) == (1, "", "error: alpha must lie in (0, 0.5]\n")

    def test_empty_range_is_usage_error(self, capsys):
        rc, _, err = run(capsys, [
            "sweep", "mev", "--xi", "1", "--victim", "1", "--range", "5:4:1",
        ])
        assert rc == 2
        assert "empty" in err

    def test_range_without_step_is_domain_error(self, capsys):
        rc, out, err = run(capsys, ["sweep", "mev", "--xi", "1", "--victim", "1", "--range", "1:2"])
        assert rc == 1
        assert out == ""
        assert err == "error: bad range '1:2', expected lo:hi:step\n"

    @pytest.mark.parametrize("flags, error", [
        (["--ratio", "2", "--ratio-range", "1:3:1"],
         "error: argument --ratio-range: not allowed with argument --ratio"),
        ([], "error: one of the arguments --ratio --ratio-range is required"),
    ])
    def test_il_takes_one_of_ratio_and_ratio_range(self, capsys, flags, error):
        rc, out, err = run(capsys, ["sweep", "il", *flags])
        assert (rc, out) == (2, "")
        assert err.splitlines()[-1] == f"ammlab sweep il: {error}"

    def test_oversized_range_fails_fast(self, capsys):
        # about 1e9 points: rejected from lo:hi:step before any is built
        rc, _, err = run(capsys, [
            "sweep", "il", "--ratio-range", "0.001:1000000:0.001",
        ])
        assert rc == 1
        assert err.startswith("error:")

    def test_byte_determinism(self, capsys, tmp_path):
        args = ["sweep", "mev", "--xi", "400000", "--victim", "40000",
                "--range", "0:50000:500", "--algorithm", "cpmm"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestToy:
    @pytest.mark.parametrize("part", sorted(toy.PARTS))
    def test_all_parts_pass(self, capsys, part):
        rc, out, _ = run(capsys, ["toy", "--part", str(part)])
        assert rc == 0
        assert "FAIL" not in out

    def test_part5_neutralized_under_global_rule(self, capsys):
        rc, out, _ = run(capsys, ["toy", "--part", "5", "--algorithm", "gmm"])
        assert rc == 0
        assert "no pool drained" in out

    def test_failing_part_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(
            toy.PARTS, 1, lambda: [toy.approx("broken on purpose", 1.0, 2.0)]
        )
        rc, out, err = run(capsys, ["toy", "--part", "1"])
        assert rc == 1
        assert "FAIL" in out
        assert "1 of 1" in err

    def test_algorithm_outside_part5_is_domain_error(self, capsys):
        rc, out, err = run(capsys, ["toy", "--part", "1", "--algorithm", "ngmm"])
        assert rc == 1
        assert out == ""
        assert err == "error: only part 5 takes an algorithm, not part 1\n"

    def test_rebalancing_is_not_a_part_algorithm(self, capsys):
        rc, out, err = run(capsys, ["toy", "--part", "5", "--algorithm", "gmm-rebal"])
        assert rc == 1
        assert out == ""
        assert err == "error: unknown algorithm 'gmm-rebal'\n"

    def test_unknown_part_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, ["toy", "--part", "99"])
        assert rc == 2


class TestReplay:
    def write_inputs(self, tmp_path, config):
        log = tmp_path / "log.csv"
        log.write_text(PART2_LOG)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        return log, cfg

    def test_local_scenario(self, capsys, tmp_path):
        log, cfg = self.write_inputs(tmp_path, {"algorithm": "cpmm"})
        out_file = tmp_path / "summary.json"
        rc, _, _ = run(capsys, [
            "replay", "--log", str(log), "--config", str(cfg), "--out", str(out_file),
        ])
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert payload["attack_count"] == 1
        assert payload["total_attacker_profit_usd"] == pytest.approx(10_093.46, abs=0.01)
        assert payload["pct_negative_profit"] == 0.0

    def test_global_beta_scenario(self, capsys, tmp_path):
        log, cfg = self.write_inputs(
            tmp_path, {"algorithm": "gmm", "external_reserve_multiple": 1}
        )
        out_file = tmp_path / "summary.json"
        rc, _, _ = run(capsys, [
            "replay", "--log", str(log), "--config", str(cfg), "--out", str(out_file),
        ])
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert payload["total_attacker_profit_usd"] == pytest.approx(810.81, abs=0.01)

    def test_attacks_csv(self, capsys, tmp_path):
        log, cfg = self.write_inputs(tmp_path, {"algorithm": "cpmm"})
        attacks_file = tmp_path / "attacks.csv"
        rc, out, _ = run(capsys, [
            "replay", "--log", str(log), "--config", str(cfg),
            "--attacks-csv", str(attacks_file),
        ])
        assert rc == 0
        rows = attacks_file.read_text().splitlines()
        assert rows[0] == ("attack_id,pair_id,block_number,token_in,reserve_in,"
                           "attack_dx,victim_dx,profit_native,profit_usd")
        assert len(rows) == 2

    @pytest.mark.parametrize("config", [{"algorithm": "cpmm", "arithmetic": "float64"},
                                        {"algorithm": "gmm", "split_count": 5,
                                         "arithmetic": "float64"}])
    def test_float_overflow_takes_the_exact_value(self, capsys, tmp_path, config):
        # the float expression overflows to nan: the exact quotient is taken, so
        # the float replay reports what the rational one does (1e100 for cpmm,
        # -6e99 split in 5) and writes both files
        log = tmp_path / "log.csv"
        log.write_text("\n".join([",".join(CSV_COLUMNS),
                                  "1,0,P,frontrun,a1,X,1e100,1e-100,1,1,1",
                                  "1,1,P,victim,a1,X,1e100,1e-100,1,1,1",
                                  "1,2,P,backrun,a1,Y,1,1,1,1,1"]) + "\n")
        totals = []
        for arithmetic in ("float64", "rational"):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(dict(config, arithmetic=arithmetic)))
            out_file = tmp_path / f"summary-{arithmetic}.json"
            attacks_file = tmp_path / f"attacks-{arithmetic}.csv"
            rc, out, err = run(capsys, ["replay", "--log", str(log), "--config", str(cfg),
                                        "--out", str(out_file),
                                        "--attacks-csv", str(attacks_file)])
            assert (rc, out, err) == (0, "", "")
            assert attacks_file.exists()
            totals.append(json.loads(out_file.read_text())["total_attacker_profit_usd"])
        assert totals[0] == totals[1] == (1e100 if config["algorithm"] == "cpmm" else -6e99)

    def test_il_mode(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text(PART2_LOG)
        rc, out, _ = run(capsys, [
            "replay", "--log", str(log), "--il", "--alphas", "0.5",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["pairs"][0]["volatility"] == "low"

    @pytest.mark.parametrize("flags, error", [
        (["--lambda-threshold", "1"], "error: volatility threshold must exceed 1\n"),
        (["--alphas", "0.9,-1"], "error: alpha must lie in (0, 0.5]\n"),
    ])
    @pytest.mark.parametrize("rows", [
        [],  # header only
        ["100,0,PAIR-A,normal,,X,5,400000,100,1,4000"],  # no pair of two trades
        records_to_csv(synthetic_attack_records(20230101, 3)).splitlines()[1:],
    ])
    def test_il_flags_are_checked_before_any_pair(self, capsys, tmp_path, flags, error, rows):
        log = tmp_path / "log.csv"
        log.write_text("\n".join([",".join(CSV_COLUMNS), *rows]) + "\n")
        rc, out, err = run(capsys, ["replay", "--log", str(log), "--il", *flags])
        assert (rc, out, err) == (1, "", error)

    @pytest.mark.parametrize("threshold", ["abc", "1e999999", "nan"])
    def test_bad_lambda_threshold_is_domain_error(self, capsys, tmp_path, threshold):
        # parsed like every other numeric flag: exit 1 with an error line, not a usage error
        log = tmp_path / "log.csv"
        log.write_text(PART2_LOG)
        rc, out, err = run(capsys, ["replay", "--log", str(log), "--il",
                                    "--lambda-threshold", threshold])
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")

    def test_exact_lambda_threshold(self, capsys, tmp_path):
        # 11/10 lies below the pair's price ratio of 4/3.6, and 1.12 above it
        log = tmp_path / "log.csv"
        log.write_text(PART2_LOG.replace(",1.0,4000\n", ",1.0,3600\n", 1))
        for threshold, klass in (("11/10", "high"), ("1.12", "low")):
            rc, out, _ = run(capsys, ["replay", "--log", str(log), "--il", "--alphas", "0.5",
                                      "--lambda-threshold", threshold])
            assert rc == 0
            assert json.loads(out)["pairs"][0]["volatility"] == klass

    def test_bad_log_lists_lines(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text(PART2_LOG.replace("13.0435", "99"))
        cfg = tmp_path / "config.json"
        cfg.write_text('{"algorithm": "cpmm"}')
        rc, _, err = run(capsys, ["replay", "--log", str(log), "--config", str(cfg)])
        assert rc == 1
        assert "line 4" in err
        assert err.splitlines()[0] == "error: invalid log"

    @pytest.mark.parametrize("log_text", [PART2_LOG, PART2_LOG.replace("13.0435", "99"), None],
                             ids=["valid-log", "invalid-log", "missing-log"])
    def test_missing_config_is_usage_error_before_parsing(self, capsys, tmp_path, log_text):
        # a valid log, an invalid one and a missing one all stop at the flags
        log = tmp_path / "log.csv"
        if log_text is not None:
            log.write_text(log_text)
        rc, out, err = run(capsys, ["replay", "--log", str(log)])
        assert rc == 2
        assert out == ""
        assert err == "error: --config is required unless --il is given\n"

    @pytest.mark.parametrize("flag", ["--config", "--attacks-csv"])
    def test_il_flag_with_a_scenario_flag_is_usage_error_before_parsing(
            self, capsys, tmp_path, flag):
        # the report would never read the config nor write the attacks CSV
        log = tmp_path / "log.csv"
        log.write_text(PART2_LOG.replace("13.0435", "99"))
        rc, out, err = run(capsys, ["replay", "--log", str(log), "--il",
                                    flag, str(tmp_path / "file")])
        assert (rc, out, err) == (2, "", "error: --il takes neither --config nor --attacks-csv\n")
        assert not (tmp_path / "file").exists()

    def test_alphas_of_one_key_are_domain_error(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text(PART2_LOG)
        for alphas in ("0.1,0.1000000000000000000001", "0.25,1/4"):
            rc, out, err = run(capsys, ["replay", "--log", str(log), "--il", "--alphas", alphas])
            assert (rc, out, err) == (1, "", "error: alphas must differ as floats\n")

    @pytest.mark.parametrize("alphas", [",", ""])
    def test_no_alphas_are_domain_error(self, capsys, tmp_path, alphas):
        log = tmp_path / "log.csv"
        log.write_text(PART2_LOG)
        rc, out, err = run(capsys, ["replay", "--log", str(log), "--il", "--alphas", alphas])
        assert (rc, out, err) == (1, "", "error: alphas must not be empty\n")

    @pytest.mark.parametrize("literal", ["1e1000000", "1E-1000000", "9" * 101])
    def test_oversized_literal_is_invalid_log(self, capsys, tmp_path, literal):
        # rejected before parsing: such a literal would be a multi-megabit integer
        log, cfg = self.write_inputs(tmp_path, {"algorithm": "cpmm"})
        log.write_text(PART2_LOG.replace(",60000,", f",{literal},"))
        rc, out, err = run(capsys, ["replay", "--log", str(log), "--config", str(cfg)])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: invalid log")
        assert "line 2: numeric literal" in err

    def test_oversized_field_is_invalid_log(self, capsys, tmp_path):
        # past csv's field limit: a log error at the row being read, not a traceback
        log, cfg = self.write_inputs(tmp_path, {"algorithm": "cpmm"})
        log.write_text(PART2_LOG.replace("100,1,PAIR-A,", "100,1," + "P" * 200_000 + ","))
        rc, out, err = run(capsys, ["replay", "--log", str(log), "--il"])
        assert (rc, out) == (1, "")
        assert err == "error: invalid log\n  line 3: field larger than field limit (131072)\n"

    def test_non_utf8_byte_is_invalid_log(self, capsys, tmp_path):
        # deep in the file, so the decoder meets it chunks after the start:
        # the error names the byte's own line
        text = records_to_csv(synthetic_attack_records(20230101, 300)).encode()
        at = text.index(b",PAIR-", 50_000) + 1
        log = tmp_path / "log.csv"
        log.write_bytes(text[:at] + b"\xff" + text[at + 1:])
        rc, out, err = run(capsys, ["replay", "--log", str(log), "--il"])
        assert (rc, out) == (1, "")
        line = text[:at].count(b"\n") + 1
        assert err == f"error: invalid log\n  line {line}: not UTF-8: byte 0xff\n"

    @pytest.mark.parametrize("il", [True, False])
    def test_bare_cr_log_reads_as_its_lf_twin(self, capsys, tmp_path, il):
        text = records_to_csv(synthetic_attack_records(20230101, 40))
        cfg = tmp_path / "config.json"
        cfg.write_text('{"algorithm": "gmm", "external_reserve_multiple": "9/4"}')
        flags = ["--il"] if il else ["--config", str(cfg)]
        outputs = []
        for name, ending in (("lf.csv", "\n"), ("cr.csv", "\r")):
            log = tmp_path / name
            log.write_bytes(text.replace("\n", ending).encode())
            rc, out, err = run(capsys, ["replay", "--log", str(log), *flags])
            assert (rc, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_small_exponent_is_accepted(self, capsys, tmp_path):
        log, cfg = self.write_inputs(tmp_path, {"algorithm": "cpmm"})
        log.write_text(PART2_LOG.replace(",60000,", ",6e4,"))
        out_file = tmp_path / "summary.json"
        rc, _, _ = run(capsys, [
            "replay", "--log", str(log), "--config", str(cfg), "--out", str(out_file),
        ])
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert payload["total_attacker_profit_usd"] == pytest.approx(10_093.46, abs=0.01)

    @pytest.mark.parametrize("config", [
        [], {}, {"algorithm": "gmm", "split_count": True},
        {"algorithm": "gmm", "external_reserve_multiple": "1/0"},
        {"algorithm": "gmm", "external_reserve_multiple": "1e999999"},
        {"algorithm": "gmm", "split_count": 10**400, "arithmetic": "float64"},
        {"algorithm": "gmm", "external_reserve_multiple": 10**400, "arithmetic": "float64"},
    ])
    def test_malformed_config_is_domain_error(self, capsys, tmp_path, config):
        log, cfg = self.write_inputs(tmp_path, config)
        rc, out, err = run(capsys, ["replay", "--log", str(log), "--config", str(cfg)])
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")

    def test_misspelt_config_key_is_domain_error(self, capsys, tmp_path):
        # a typo must not silently fall back to the rational default
        log, cfg = self.write_inputs(tmp_path, {"algorithm": "cpmm", "arithmatic": "float64"})
        rc, out, err = run(capsys, ["replay", "--log", str(log), "--config", str(cfg)])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: unknown scenario keys: 'arithmatic'")

    def test_missing_config_without_il(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text(PART2_LOG)
        rc, _, err = run(capsys, ["replay", "--log", str(log)])
        assert rc == 2

    def test_byte_determinism(self, capsys, tmp_path):
        log, cfg = self.write_inputs(
            tmp_path, {"algorithm": "gmm", "split_count": 3, "seed": 7}
        )
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["replay", "--log", str(log), "--config", str(cfg), "--out", str(first)]) == 0
        assert main(["replay", "--log", str(log), "--config", str(cfg), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_synthetic_fixture_matches_direct_api(self, capsys, tmp_path):
        from fractions import Fraction as F

        from ammlab.core import Algorithm
        from ammlab.replay import (
            ScenarioConfig,
            records_to_csv,
            run_counterfactual,
            synthetic_attack_records,
        )

        records = synthetic_attack_records(seed=77, n_attacks=30)
        log = tmp_path / "log.csv"
        log.write_text(records_to_csv(records))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"algorithm": "gmm", "external_reserve_multiple": 0.5}))
        out_file = tmp_path / "summary.json"
        rc, _, _ = run(capsys, [
            "replay", "--log", str(log), "--config", str(cfg), "--out", str(out_file),
        ])
        assert rc == 0
        payload = json.loads(out_file.read_text())
        direct = run_counterfactual(
            records, ScenarioConfig(Algorithm.GMM, external_reserve_multiple=F(1, 2))
        )
        assert payload["total_attacker_profit_usd"] == float(direct.total_attacker_profit_usd)
        assert payload["attack_count"] == direct.attack_count


#: The subcommands and their flags, for the fuzz test.
_COMMANDS = {
    "quote": ("--pools", "--amount", "--send", "--pool-index", "--algorithm", "--force-trigger"),
    "sweep mev": ("--xi", "--victim", "--range", "--algorithm", "--x", "--out"),
    "sweep il": ("--alpha", "--ratio", "--ratio-range", "--out"),
    "toy": ("--part", "--algorithm"),
    "replay": ("--log", "--config", "--out", "--il", "--alphas", "--lambda-threshold",
               "--attacks-csv"),
}
_SWITCHES = ("--force-trigger", "--il")
_NUMBERS = ("0", "1", "-1", "2.5", "1/3", "1/0", "0.5", "1e400", "1e-400", "1e999999",
            "nan", "inf", "", "abc", "1_000", "٣")
_PATHS = ("log.csv", "config.json", "bad.json", "missing.csv", ".", "out.json")
_FLAG_VALUES = {
    "--pools": ("100:400000,100:400000", "90:440000,210:760000", "1:1", "1:", "0:1", "1/0:1",
                "a:b", "1e400:1"),
    "--amount": ("1", "44444", "0", "-1", "1/0", "1e400"),
    "--pool-index": ("0", "1", "-1", "7"),
    "--send": ("X", "Y", "Z"),
    "--algorithm": ("cpmm", "gmm", "ngmm", "gmm-rebal", "foo"),
    "--xi": ("400000", "0", "-1", "1/0"),
    "--victim": ("40000", "0", "-1"),
    "--range": ("1:10:1", "0:1000:100", "1:2:0", "2:1:1", "1:1e400:1", "1:2:1/0", "1:2:1e-90"),
    "--x": ("800000", "1", "1/0"),
    "--alpha": ("0.5", "0.25", "0", "2"),
    "--ratio": ("2", "0", "-1"),
    "--ratio-range": ("1/2:3:1/2", "0:3:1/2", "1:2:0", "1:1e400:1"),
    "--part": ("1", "5", "8", "9", "x"),
    "--log": ("log.csv", "missing.csv", ".", "bad.json"),
    "--config": ("config.json", "bad.json", "missing.csv"),
    "--alphas": ("0.5,0.25", "0,1", "1/0", "0.1,,x"),
    "--lambda-threshold": ("10", "0", "-1", "inf", "nan"),
    "--out": ("out.json",),
    "--attacks-csv": ("attacks.csv",),
}


@st.composite
def _argv(draw):
    """A command line of a real subcommand and its flags, each present three
    times in four with a value drawn for it (three times in four one meant
    for it), and one time in four a stray token."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = command.split()
    # draws shrink towards 0: present, a value meant for the flag, no stray token
    for flag in _COMMANDS[command]:
        if draw(st.integers(0, 3)) < 3:
            argv.append(flag)
            if flag not in _SWITCHES:
                values = _FLAG_VALUES[flag] if draw(st.integers(0, 3)) < 3 else _NUMBERS + _PATHS
                argv.append(draw(st.sampled_from(values)))
    if draw(st.integers(0, 3)) == 3:
        stray = st.one_of(st.sampled_from(sum(_COMMANDS.values(), ("--help", "bogus"))),
                          st.sampled_from(_NUMBERS), st.text(max_size=6))
        argv.insert(draw(st.integers(0, len(argv))), draw(stray))
    return argv


_LOG_ROWS = [dict(zip(CSV_COLUMNS, line.split(","))) for line in PART2_LOG.splitlines()[1:]]
_LOG_LITERALS = ("0", "1", "-1", "2.5", "0.000001", "1/3", "1e400", "1e-400", "nan", "inf", "",
                 "abc", "1_000", "٣", " 7", "9" * 101, "100", "PAIR-A", "atk-1", "X", "Y")
_LOG_ROLES = ("normal", "frontrun", "victim", "backrun", "", "FRONTRUN", "bogus")


@st.composite
def _log_text(draw):
    """Attack-log CSV contents: the header (now and then one with a column
    dropped), then rows built on the columns of a valid bracket, with drawn
    literals, roles and column counts.  Draws shrink towards the valid
    bracket."""
    columns = list(CSV_COLUMNS)
    if draw(st.integers(0, 7)) == 7:
        del columns[draw(st.integers(0, len(columns) - 1))]
    lines = [",".join(columns)]
    for n in range(draw(st.integers(0, 6))):
        template = _LOG_ROWS[n % 3] if draw(st.integers(0, 3)) < 3 else draw(st.sampled_from(_LOG_ROWS))
        row = dict(template, tx_index=str(n), attack_id=f"atk-{n // 3}")
        if draw(st.integers(0, 3)) == 3:
            row["role"] = draw(st.sampled_from(_LOG_ROLES))
        for column in CSV_COLUMNS:
            if draw(st.integers(0, 7)) == 7:
                row[column] = draw(st.sampled_from(_LOG_LITERALS))
        cells = [row[c] for c in CSV_COLUMNS]
        width = draw(st.sampled_from((len(cells),) * 6 + (len(cells) - 1, len(cells) + 1, 1)))
        lines.append(",".join((cells + ["1"])[:width]))
    return "\n".join(lines) + "\n"


_SCENARIOS = (
    {"algorithm": "cpmm"},
    {"algorithm": "gmm", "external_reserve_multiple": "9/4"},
    {"algorithm": "gmm", "external_reserve_multiple": 0.5, "arithmetic": "float64", "seed": 1},
    {"algorithm": "gmm", "split_count": 3, "arithmetic": "float64"},
)
_SCENARIO_VALUES = {
    "algorithm": ("cpmm", "gmm", "ngmm", "gmm-rebal", "GMM", ""),
    "external_reserve_multiple": (0, 1, -1, 0.5, "9/4", "1e100", "1e101", "1/0", "abc",
                                  10**100, 10**100 + 1, 10**400, float("nan"), float("inf")),
    "split_count": (1, 3, 0, -1, 3.0, "3", True, 10**100, 10**100 + 1, 10**400),
    "arithmetic": ("rational", "float64", "decimal", ""),
    "seed": (0, 7, "x"),
}
_MISSPELT_KEYS = ("reserve_multiple", "arithmatic", "Algorithm", "")
_ANY_VALUE = st.one_of(
    st.sampled_from(_NUMBERS), st.sampled_from((True, None, -10**400)),
    st.integers(), st.floats(), st.lists(st.integers(0, 3), max_size=2),
)
_SCENARIO_DOCUMENTS = ("", "{not json", "[]", "null", '"gmm"', "1e400", "NaN",
                       '{"algorithm": "gmm",}', '{"algorithm": "gmm", "split_count": 1e400}')


@st.composite
def _scenario_text(draw):
    """Scenario-file contents: a valid scenario with keys (now and then a
    misspelt one) set to drawn values or dropped, each value three times in
    four one meant for its key, else of any JSON type; one time in eight a
    document that is not an object.  Draws shrink towards the valid one."""
    scenario = dict(draw(st.sampled_from(_SCENARIOS)))
    for _ in range(draw(st.integers(0, 3))):
        keys = sorted(_SCENARIO_VALUES) if draw(st.integers(0, 7)) < 7 else _MISSPELT_KEYS
        key = draw(st.sampled_from(keys))
        if draw(st.integers(0, 3)) == 3:
            scenario.pop(key, None)
        elif key in _SCENARIO_VALUES and draw(st.integers(0, 3)) < 3:
            scenario[key] = draw(st.sampled_from(_SCENARIO_VALUES[key]))
        else:
            scenario[key] = draw(_ANY_VALUE)
    if draw(st.integers(0, 7)) == 7:
        return draw(st.sampled_from(_SCENARIO_DOCUMENTS))
    return json.dumps(scenario)


def _exits_cleanly(argv, drawn):
    """Run ``main(argv)`` on drawn input: a documented exit code, no
    traceback, and an ``error:`` line exactly when it fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    message = err.getvalue()
    assert rc in (0, 1, 2), (drawn, message)
    assert "Traceback" not in message
    if rc:
        assert message.startswith("error:"), (drawn, message)
    else:
        assert message == ""


#: Literals at the numeric boundary: signs, zero, fractions, extreme exponents
#: and a zero denominator.
_BOUNDARY = st.sampled_from(("-4", "-1/3", "0", "1/3", "1", "4", "1e90", "1e-90", "-1e90", "3/0"))


@st.composite
def _numeric_argv(draw):
    """A ``sweep mev``, ``sweep il`` or ``quote`` command line whose every
    number is drawn from ``_BOUNDARY``, given as ``--flag=value`` so that
    argparse never reads a negative value as a flag."""
    n = lambda: draw(_BOUNDARY)  # noqa: E731
    command = draw(st.sampled_from(("sweep mev", "sweep il", "quote")))
    if command == "sweep mev":
        flags = {"--xi": n(), "--victim": n(), "--range": f"{n()}:{n()}:{n()}",
                 "--algorithm": draw(st.sampled_from(("cpmm", "gmm")))}
        if flags["--algorithm"] == "gmm":  # cpmm takes no --x
            flags["--x"] = n()
    elif command == "sweep il":
        ratio = ("--ratio", n()) if draw(st.booleans()) else ("--ratio-range", f"{n()}:{n()}:{n()}")
        flags = {"--alpha": n(), ratio[0]: ratio[1]}
    else:
        flags = {"--pools": f"{n()}:{n()},{n()}:{n()}", "--amount": n(),
                 "--send": draw(st.sampled_from(("X", "Y"))),
                 "--pool-index": draw(st.sampled_from(("0", "1"))),
                 "--algorithm": draw(st.sampled_from(("cpmm", "ngmm", "gmm", "gmm-rebal")))}
    return command.split() + [f"{flag}={value}" for flag, value in flags.items()]


class TestFuzz:
    @pytest.fixture(scope="class", autouse=True)
    def workdir(self, tmp_path_factory):
        # relative paths in the drawn arguments resolve here
        path = tmp_path_factory.mktemp("fuzz")
        (path / "log.csv").write_text(PART2_LOG)
        (path / "config.json").write_text(
            json.dumps({"algorithm": "gmm", "external_reserve_multiple": 1}))
        (path / "bad.json").write_text("{not json")
        (path / "scenario.json").write_text(json.dumps({"algorithm": "gmm", "split_count": 3}))
        cwd = os.getcwd()
        os.chdir(path)
        yield path
        os.chdir(cwd)

    @given(argv=_argv())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_exit_code_and_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        text = err.getvalue()
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in text
        assert text == "" or text.startswith(("error:", "usage:")), (argv, text)

    @given(text=_log_text(), il=st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_drawn_log_contents(self, text, il):
        with open("drawn.csv", "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["replay", "--log", "drawn.csv", "--out", "drawn.json"]
        argv += ["--il"] if il else ["--config", "scenario.json"]
        _exits_cleanly(argv, text)

    @given(text=_scenario_text())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_drawn_scenario_contents(self, text):
        with open("drawn.json", "w", encoding="utf-8") as fh:
            fh.write(text)
        _exits_cleanly(["replay", "--log", "log.csv", "--config", "drawn.json",
                        "--out", "summary.json"], text)

    @given(argv=_numeric_argv())
    @settings(max_examples=150, deadline=None, derandomize=True)
    @example(argv=["sweep", "mev", "--xi", "1", "--victim", "-4", "--range", "1:1:1"])
    def test_numeric_boundary(self, argv):
        _exits_cleanly(argv, argv)

    @pytest.mark.parametrize("argv", [
        ["quote", "--pools", "1:1", "--amount", "1/0"],
        ["quote", "--pools", "1:1", "--amount", "1e999999"],
        ["sweep", "mev", "--xi", "1/0", "--victim", "1", "--range", "1:2:1"],
        ["sweep", "il", "--ratio", "2", "--alpha", "1/0"],
        # negative sizes; at (1, -4, 1) the exact quotient's denominator is 0
        ["sweep", "mev", "--xi", "1", "--victim", "-4", "--range", "1:1:1"],
        ["sweep", "mev", "--xi", "400000", "--victim", "-40000", "--range=0:10:5"],
        ["sweep", "mev", "--xi", "400000", "--victim", "40000", "--range=-5:0:5"],
    ])
    def test_bad_number_is_domain_error(self, capsys, argv):
        rc, _, err = run(capsys, argv)
        assert rc == 1
        assert err.startswith("error:")
