import csv
import json

import pytest

from ammlab import toy
from ammlab.cli import main
from ammlab.replay import CSV_COLUMNS

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

    def test_il_flat_ratio_is_zero(self, capsys, tmp_path):
        for alpha in ("0.01", "0.25", "0.5"):
            out_file = tmp_path / f"il_{alpha}.csv"
            rc, _, _ = run(capsys, [
                "sweep", "il", "--alpha", alpha, "--ratio", "1", "--out", str(out_file),
            ])
            assert rc == 0
            _, rows = self.read_csv(out_file)
            assert rows[1.0] == [0.0, 0.0]

    def test_empty_range_is_usage_error(self, capsys):
        rc, _, err = run(capsys, [
            "sweep", "mev", "--xi", "1", "--victim", "1", "--range", "5:4:1",
        ])
        assert rc == 2
        assert "empty" in err

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
            toy.PARTS, 1, lambda alg: [toy.approx("broken on purpose", 1.0, 2.0)]
        )
        rc, out, err = run(capsys, ["toy", "--part", "1"])
        assert rc == 1
        assert "FAIL" in out
        assert "1 of 1" in err

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
        assert rows[0].startswith("attack_id,")
        assert len(rows) == 2

    def test_il_mode(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text(PART2_LOG)
        rc, out, _ = run(capsys, [
            "replay", "--log", str(log), "--il", "--alphas", "0.5",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["pairs"][0]["volatility"] == "low"

    def test_bad_log_lists_lines(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text(PART2_LOG.replace("13.0435", "99"))
        cfg = tmp_path / "config.json"
        cfg.write_text('{"algorithm": "cpmm"}')
        rc, _, err = run(capsys, ["replay", "--log", str(log), "--config", str(cfg)])
        assert rc == 1
        assert "line 4" in err

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

    @pytest.mark.parametrize("config", [[], {}, {"algorithm": "gmm", "split_count": True}])
    def test_malformed_config_is_domain_error(self, capsys, tmp_path, config):
        log, cfg = self.write_inputs(tmp_path, config)
        rc, out, err = run(capsys, ["replay", "--log", str(log), "--config", str(cfg)])
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")

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
