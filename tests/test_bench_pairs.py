"""scripts/bench_pairs.py on stub trees: alternation, pair rule and layout."""

import json
import textwrap

from scripts import bench_pairs

STUB_RUN = textwrap.dedent('''
    import json
    from pathlib import Path
    rate = float(Path(__file__).with_name("rate").read_text())
    print(json.dumps({"report": {"output_digest": "d"}}))
    print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "op_s.p50": {"value": 1 / rate, "unit": "s"},
        "ok_ratio": {"value": 1.0, "unit": "ratio"}}}))
''')

DECLARED = {"end_to_end": [{"name": "ops_per_s", "better": "higher"},
                           {"name": "op_s.p50", "better": "lower"},
                           {"name": "ok_ratio", "better": "higher"}]}


def stub_tree(root, rate):
    (root / "ammbench").mkdir(parents=True)
    (root / "ammbench" / "run.py").write_text(STUB_RUN)
    (root / "ammbench" / "rate").write_text(str(rate))
    (root / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    return root


def test_pairs_alternate_and_are_written_in_the_bench_layout(tmp_path, capsys):
    parent = stub_tree(tmp_path / "parent", 100.0)
    change = stub_tree(tmp_path / "change", 120.0)
    out = tmp_path / "BENCH.json"
    args = ["--parent", str(parent), "--change", str(change), "--workload", "w",
            "--seed", "3", "--pairs", "3", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(args) == 0
    assert bench_pairs.main(args) == 0  # a second set is appended

    sets = json.loads(out.read_text())["sets"]
    assert len(sets) == 2
    result = sets[0]
    assert [p["first"] for p in result["pairs"]] == ["parent", "change", "parent"]
    assert result["output_digests_equal"] is True
    assert (result["workload"], result["seed"]) == ("w", 3)
    summary = result["summary"]
    assert summary["ops_per_s"]["change_better_pairs"] == 3
    assert summary["op_s.p50"]["change_better_pairs"] == 3  # lower is better
    assert summary["ok_ratio"]["change_better_pairs"] == 0  # ties win nothing
    assert summary["ops_per_s"]["change_over_parent"] == 1.2
    assert summary["ops_per_s"]["parent_q1"] == summary["ops_per_s"]["parent_q3"] == 100.0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == sets[1]


def test_quartiles_of_one_value():
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0
