"""Check that the traced run's count metrics repeat exactly at one seed.

    python3 benchmarks/repeat_counts.py --workload path-certify --seed 7 --seconds 20

Runs ``run.py --trace 1`` twice, one process after the other, and compares
every metric counted per pass.  Prints each mismatch and exits 1 if any.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced run not correct: {proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count/pass"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    first, second = (traced_counts(args.workload, args.seed, args.seconds) for _ in range(2))
    mismatches = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
    for name, (a, b) in mismatches.items():
        print(f"MISMATCH {name}: {a} then {b}")
    print(f"{args.workload} seed {args.seed}: {len(first)} counts, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
