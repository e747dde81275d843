"""One digest of the float outputs that depend on how sums are rounded.

Usage, from anywhere::

    python3 scripts/cross_python.py [PYTHON ...]

With no argument it prints the digest of the interpreter running it.  With
one or more interpreter paths it runs itself under each and prints
``DIGEST  PYTHON`` per line; equal digests mean byte-equal outputs.  It
exits 1 when an interpreter fails to produce a digest.

The digest is a SHA-256 over, in order:

* the files ``ammlab replay`` writes for ``synthetic_attack_records(20240607,
  250)``: ``--out`` and ``--attacks-csv`` for the cpmm, rational-beta and
  float64-split scenarios, then the ``--il`` report;
* each output, and the final reserves and totals, of 1000 seeded float GMM
  swaps in sequence on one 8-pool ecosystem;
* how many of 3000 seeded float GMM swaps, each on a fresh random 8-pool
  ecosystem, leave totals that differ from those of ``Ecosystem(pools)``.

It needs only the standard library and ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ammlab.cli import main as ammlab_main  # noqa: E402
from ammlab.core import Algorithm, Ecosystem, SwapOrder, apply_swap  # noqa: E402
from ammlab.replay import records_to_csv, synthetic_attack_records  # noqa: E402

SCENARIOS = (
    {"algorithm": "cpmm"},
    {"algorithm": "gmm", "external_reserve_multiple": "9/4"},
    {"algorithm": "gmm", "arithmetic": "float64", "split_count": 5},
)


def _random_eco(rng: random.Random) -> Ecosystem:
    return Ecosystem.from_reserves(
        [(rng.uniform(1, 1e4), rng.uniform(1, 1e4)) for _ in range(8)])


def _random_order(rng: random.Random, eco: Ecosystem) -> SwapOrder:
    pool = rng.choice(eco.pools)
    side = rng.choice("XY")
    reserve = pool.x if side == "X" else pool.y
    return SwapOrder(pool.pool_id, side, reserve * rng.uniform(0.001, 0.5))


def replay_outputs() -> list:
    """The bytes of every golden ``ammlab replay`` output, in order."""
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        log, config = root / "log.csv", root / "scenario.json"
        out, attacks = root / "out.json", root / "attacks.csv"
        log.write_text(records_to_csv(synthetic_attack_records(20240607, 250)), encoding="utf-8")
        for scenario in SCENARIOS:
            config.write_text(json.dumps(scenario), encoding="utf-8")
            _run(["replay", "--log", str(log), "--config", str(config),
                  "--out", str(out), "--attacks-csv", str(attacks)])
            outputs += [out.read_bytes(), attacks.read_bytes()]
        _run(["replay", "--log", str(log), "--il", "--out", str(out)])
        outputs.append(out.read_bytes())
    return outputs


def _run(argv: list) -> None:
    code = ammlab_main(argv)  # an error line goes to stderr
    if code != 0:
        raise SystemExit(f"ammlab {' '.join(argv)} exited {code}")


def swap_stream() -> str:
    """Each output of 1000 seeded float GMM swaps in sequence, then every
    reserve and both totals, as ``repr`` lines."""
    rng = random.Random(1)
    eco = _random_eco(rng)
    lines = []
    for _ in range(1000):
        eco, out = apply_swap(eco, _random_order(rng, eco), Algorithm.GMM)
        lines.append(repr(out))
    lines += [f"{p.pool_id} {p.x!r} {p.y!r}" for p in eco.pools]
    lines.append(f"{eco.total_x!r} {eco.total_y!r}")
    return "\n".join(lines)


def successor_mismatches() -> int:
    """How many of 3000 seeded single float GMM swaps leave totals other
    than a fresh ecosystem's; 0 when the successor sums as ``Ecosystem``
    does."""
    rng = random.Random(0)
    bad = 0
    for _ in range(3000):
        eco = _random_eco(rng)
        work, _ = apply_swap(eco, _random_order(rng, eco), Algorithm.GMM)
        fresh = Ecosystem(work.pools)
        bad += (work.total_x, work.total_y) != (fresh.total_x, fresh.total_y)
    return bad


def digest() -> str:
    """The digest of this interpreter's outputs."""
    sha = hashlib.sha256()
    for blob in replay_outputs():
        sha.update(hashlib.sha256(blob).digest())
    sha.update(swap_stream().encode())
    sha.update(b"mismatches %d" % successor_mismatches())
    return sha.hexdigest()


def main(argv: list) -> int:
    if not argv:
        print(digest())
        return 0
    status = 0
    for python in argv:
        try:
            proc = subprocess.run([python, str(Path(__file__).resolve())],
                                  capture_output=True, text=True)
        except OSError as exc:
            print(f"error: {python}: {exc}", file=sys.stderr)
            status = 1
            continue
        if proc.returncode != 0:
            print(f"error: {python} exited {proc.returncode}: {proc.stderr.strip()}",
                  file=sys.stderr)
            status = 1
            continue
        print(f"{proc.stdout.strip()}  {python}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
