"""Regenerate reference_risks.json, the risks the mc_studies check compares to.

Runs one mc_studies pass for each of several benchmark seeds and averages
each risk over the seeds.  Run from the repository root:

    python3 bench/make_reference.py --seeds 16
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=16)
    p.add_argument("--first-seed", type=int, default=100_000)
    args = p.parse_args()
    work = ROOT / ".bench_work" / "reference"
    sums: dict = {}
    try:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl = workloads.McStudies(work, seed)
            wl.run(0)
            for _, stem, _, _ in wl.configs:
                summary = json.loads((wl.out / f"{stem}.json").read_text())
                csv_text = (wl.out / f"{stem}.csv").read_text()
                gates = wl.check_summary(stem, summary, "")  # no CSV rows: gates only
                print(f"seed {seed} {stem}: {gates or 'gates hold'}", file=sys.stderr)
                for row in workloads.csv_rows(csv_text):
                    for risk_key, se_key in (("risk_empiric", "se_empiric"), ("risk_l2", "se_l2")):
                        if math.isnan(float(row[risk_key])):
                            continue
                        acc = sums.setdefault(stem, {}).setdefault(row["estimator"], {}).setdefault(
                            f"{risk_key}/{row['n']}", [0.0, 0.0, 0])
                        acc[0] += float(row[risk_key])
                        acc[1] += float(row[se_key]) ** 2
                        acc[2] += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    risks = {
        stem: {est: {key: [s / k, math.sqrt(v) / k] for key, (s, v, k) in cells.items()}
               for est, cells in per_est.items()}
        for stem, per_est in sums.items()
    }
    out = {
        "about": "mean risk and its standard error per study, estimator and n, "
                 f"over {args.seeds} benchmark seeds from {args.first_seed}",
        "risks": risks,
    }
    (Path(__file__).resolve().parent / "reference_risks.json").write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
