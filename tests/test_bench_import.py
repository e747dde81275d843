"""scripts/bench_import.py on stub trees: interleaving, reads and layout."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_import.py"


def stub_tree(root, value):
    package = root / "src" / "ammlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(f"NAME = {value}\n")
    (package / "cli.py").write_text("")
    return root


def test_rounds_are_timed_per_tree_and_appended(tmp_path):
    parent = stub_tree(tmp_path / "parent", 1)
    change = stub_tree(tmp_path / "change", 2)
    out = tmp_path / "BENCH.json"
    args = [sys.executable, str(SCRIPT), "--parent", str(parent), "--change", str(change),
            "--rounds", "3", "--read", "NAME", "--out", str(out)]
    for _ in range(2):  # a second set is appended
        proc = subprocess.run(args, capture_output=True, text=True, check=True)

    sets = json.loads(out.read_text())["sets"]
    assert len(sets) == 2
    result = sets[1]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == result
    assert (result["kind"], result["rounds"], result["read"]) == ("reimport", 3, ["NAME"])
    assert result["bytecode_cached"] is False
    assert [len(result["times_s"][side]) for side in ("parent", "change")] == [3, 3]
    assert 0 <= result["change_won"] <= 3
    for side in ("parent", "change"):
        assert result[side]["q1_s"] <= result[side]["median_s"] <= result[side]["q3_s"]


def test_a_missing_name_fails(tmp_path):
    parent = stub_tree(tmp_path / "parent", 1)
    change = stub_tree(tmp_path / "change", 2)
    proc = subprocess.run([sys.executable, str(SCRIPT), "--parent", str(parent), "--change",
                           str(change), "--read", "OTHER"], capture_output=True, text=True)
    assert proc.returncode != 0
    assert "AttributeError" in proc.stderr
