"""scripts/cross_python.py: the running interpreter's digest is pinned, so
every Python that runs this suite is held to the same output bytes."""

import sys

from scripts import cross_python

# The digest on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0 alike.
PINNED = "d4934ba096246810cc716f3022671e7bf2330cf8b86e8e7e34fbe432ab58ae56"


def test_digest_of_this_interpreter_is_pinned(capsys):
    assert cross_python.main([sys.executable]) == 0
    assert capsys.readouterr().out == f"{PINNED}  {sys.executable}\n"


def test_a_missing_interpreter_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "python")
    assert cross_python.main([missing]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {missing}: ")
