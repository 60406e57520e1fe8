"""hetreg benchmark: one workload per process, end-to-end or traced per layer.

    python3 bench/run.py --workload estimate_cli --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 the run measures the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 3    # fresh processes timed from start to ready; setup_s is their median
PROBE_TIMEOUT_S = 150
MAX_FAILED = 10     # a run stops early once this many requests have failed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="hetreg benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import hetreg from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "hetreg" / "__init__.py").is_file():
        raise SystemExit(f"error: no hetreg package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    for var in ("HETREG_SEED", "HETREG_WORKERS"):  # the CLI would let these override configs
        os.environ.pop(var, None)
    import hetreg

    if Path(hetreg.__file__).resolve().parent != (src / "hetreg").resolve():
        raise SystemExit(f"error: imported hetreg from {hetreg.__file__}, not {src}")


def steal_s() -> float:
    """Machine-wide CPU steal so far, from /proc/stat (0 where unavailable)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS") if k in os.environ},
        "commit": commit,
    }


def probe_setup(workload: str, seed: int, work: Path) -> float:
    """Seconds from starting a fresh process to the end of its warm-up."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--probe-setup", str(work)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


class Loop:
    """Closed-loop caller: one request at a time, each checked after its timing.

    Requests are grouped into rounds of `wl.round` requests; a round of
    estimate_cli holds every size in equal numbers.
    """

    def __init__(self, wl):
        self.wl = wl
        self.rounds: list[list[tuple[float, int]]] = [[]]  # (seconds, items) per request; 0 items = failed
        self.attempted = 0
        self.errors: list[str] = []

    def step(self, extra=()) -> float:
        dt, items = self._request(extra)
        self.rounds[-1].append((dt, items))
        if len(self.rounds[-1]) == self.wl.round:
            self.rounds.append([])
        return dt

    def _request(self, extra) -> tuple[float, int]:
        i = self.attempted
        self.attempted += 1
        t0 = perf_counter()
        try:
            items = self.wl.run(i, extra)
        except Exception as exc:  # a failed request is counted, not fatal
            self.errors.append(f"request {i}: {type(exc).__name__}: {exc}")
            return perf_counter() - t0, 0
        dt = perf_counter() - t0
        try:
            errors = self.wl.check(i)
        except (KeyError, ValueError, OSError) as exc:
            errors = [f"request {i}: unreadable output: {type(exc).__name__}: {exc}"]
        self.errors += errors
        return dt, 0 if errors else items

    @property
    def failed(self) -> int:
        return sum(1 for r in self.rounds for _, items in r if not items)

    def quiet_half(self) -> list[tuple[float, int]]:
        """Requests of the faster half of the whole, clean rounds.

        Other tenants of a shared machine slow whole stretches of a run by up
        to 1.8x; ranking rounds by their time and keeping the faster half
        drops those stretches while a slower program still slows every round.
        """
        whole = [r for r in self.rounds if len(r) == self.wl.round and all(n for _, n in r)]
        whole.sort(key=lambda r: sum(dt for dt, _ in r))
        return [req for r in whole[: (len(whole) + 1) // 2] for req in r]


def run_timed(wl, seconds: float) -> Loop:
    loop = Loop(wl)
    elapsed = 0.0
    while True:
        elapsed += loop.step()
        if loop.attempted % wl.round == 0 and elapsed >= seconds and loop.attempted >= wl.min_requests:
            return loop
        if loop.failed >= MAX_FAILED:
            return loop


def run_quantum(loop: Loop, extra=()) -> float:
    return sum(loop.step(extra) for _ in range(loop.wl.quantum))


def end_to_end(args, wl, work: Path) -> tuple[Loop, dict, dict]:
    import numpy as np

    setups = [probe_setup(args.workload, args.seed, work) for _ in range(SETUP_PROBES)]
    wl.warm_up()
    steal0, cpu0 = steal_s(), cpu_s()
    loop = run_timed(wl, args.seconds)
    kept = loop.quiet_half() or [(1.0, 0)]  # all failed: correct is false anyway
    lat = [dt for dt, _ in kept]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (sum(n for _, n in kept) / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
        "latency_p90_ms": (1e3 * float(np.percentile(lat, 90)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "requests": loop.attempted,
        "kept_requests": len(kept),
        "failed_frac": loop.failed / loop.attempted,
        "setup_samples_s": setups,
        "timed_s": sum(dt for r in loop.rounds for dt, _ in r),
        "process_cpu_s": cpu_s() - cpu0,
        "steal_s": steal_s() - steal0,
    }
    return loop, metrics, extra


def per_layer(args, wl, work: Path) -> tuple[Loop, dict, dict]:
    from tracing import Tracer
    import hetreg.basis

    wl.warm_up()
    loop = Loop(wl)
    cache = hetreg.basis._basis_matrix.cache_info
    tracer = Tracer()
    untraced, quanta = [], []
    # untraced, traced, traced, untraced: the traced quanta repeat the same work,
    # so their counts must agree exactly; the brackets even out drift in the overhead
    for traced in (False, True, True, False):
        if not traced:
            untraced.append(run_quantum(loop))
            continue
        tracer.reset()
        tracer.install()
        misses0, steal0, cpu0 = cache().misses, steal_s(), cpu_s()
        try:
            wall = run_quantum(loop)
        finally:
            tracer.restore()
        totals = tracer.totals()
        counts = {f"{name}.calls": int(t["calls"]) for name, t in totals.items()}
        counts["basis.basis_matrix.misses"] = cache().misses - misses0
        quanta.append((wall, totals, counts, cpu_s() - cpu0, steal_s() - steal0))
    pass_w1 = run_quantum(loop, ["--workers", "1"]) if wl.name == "mc_studies" else 0.0
    first, second = quanta[0][2], quanta[1][2]
    if first != second:
        diff = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
                if first.get(k) != second.get(k)}
        raise RuntimeError(f"per-layer counts differ between two identical traced quanta: {diff}")

    values: dict[str, float] = dict(first)
    for span in {s for q in quanta for s in q[1]}:
        for field in ("busy_s", "self_s"):
            values[f"{span}.{field}"] = statistics.fmean(q[1].get(span, {}).get(field, 0.0) for q in quanta)
    # worker-thread blocks are the study's own per-replicate work
    values["experiments.study.self_s"] = (values.get("experiments.study.self_s", 0.0)
                                          + values.get("experiments.block.self_s", 0.0))
    values["experiments.pool_wait_s"] = values.get("experiments.pool_wait.busy_s", 0.0)
    plain = statistics.fmean(untraced)
    wall = statistics.fmean(q[0] for q in quanta)
    if pass_w1:
        values["experiments.pass_w1_s"] = pass_w1
        values["experiments.pass_w2_s"] = plain
        values["experiments.pool_speedup"] = pass_w1 / plain
    values["process.wall_s"] = wall
    values["process.cpu_s"] = statistics.fmean(q[3] for q in quanta)
    values["process.steal_s"] = statistics.fmean(q[4] for q in quanta)
    values["trace.overhead_frac"] = wall / plain - 1.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"]) for m in spec}
    extra = {"requests": loop.attempted, "untraced_quanta_s": untraced, "traced_quanta_s": [q[0] for q in quanta],
             "failed_frac": loop.failed / loop.attempted}
    return loop, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    if args.probe_setup:
        cls(Path(args.probe_setup), args.seed, write=False).warm_up()
        print("ready", flush=True)
        return 0

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = cls(work, args.seed)
        loop, metrics, extra = (per_layer if args.trace else end_to_end)(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# machine {json.dumps(machine_record(), sort_keys=True)}")
    print(f"# run {json.dumps({'workload': args.workload, 'seed': args.seed, 'trace': args.trace, **extra})}")
    for err in loop.errors[:20]:
        print(f"# FAILED {err}")
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<13} {name:<{width}} {value:>14.6g} {unit}")
    print(f"{args.workload:<13} {'failed_frac':<{width}} {extra['failed_frac']:>14.6g} ratio")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
