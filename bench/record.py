"""Run every workload several times and write a BENCH_*.json record.

    python3 bench/record.py --runs 10 --out bench/BENCH_baseline.json

Each end-to-end run uses its own seed; the record keeps every value, the
median, the quartiles and the spread (interquartile range over the median),
plus one traced run per workload and the machine record.  Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    info = {ln.split(" ", 2)[1]: json.loads(ln.split(" ", 2)[2]) for ln in lines if ln.startswith("# ")
            and ln.split(" ", 2)[1] in ("machine", "run")}
    return json.loads(lines[-1]), info


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    record: dict = {"benchmark": spec, "workloads": {}}
    for name in names:
        per_metric: dict[str, list[float]] = {}
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            t0 = time.perf_counter()
            result, info = run_once(name, seed, spec["run_seconds"], 0)
            record.setdefault("machine", info.get("machine"))
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "run": info.get("run")})
            for metric, v in result["metrics"].items():
                per_metric.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()), file=sys.stderr, flush=True)
        entry = {"end_to_end": {m: summarize(v) for m, v in per_metric.items()}, "runs": runs}
        if not args.no_trace:
            result, info = run_once(name, args.first_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {m: v["value"] for m, v in result["metrics"].items()}
            entry["traced_run"] = info.get("run")
        record["workloads"][name] = entry
        for m, s in entry["end_to_end"].items():
            print(f"{name} {m}: median {s['median']:.5g} spread {s['spread']:.3f}", file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
