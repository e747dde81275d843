"""Write the seeded synthetic attack-log fixture to a CSV file.

Usage: python scripts/make_synthetic_log.py --seed 20230101 --attacks 100 --out attacks.csv
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ammlab.replay import records_to_csv, synthetic_attack_records  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20230101)
    parser.add_argument("--attacks", type=int, default=100)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.attacks < 0:
        parser.error("--attacks must be a nonnegative integer")
    records = synthetic_attack_records(seed=args.seed, n_attacks=args.attacks)
    Path(args.out).write_text(records_to_csv(records), encoding="utf-8")
    print(f"wrote {len(records)} records ({args.attacks} attacks) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
