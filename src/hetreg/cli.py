"""Command line interface: estimate one dataset, simulate data, run studies."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .basis import DesignGrid, grid_values
from .experiments import (
    ExperimentConfig,
    efficiency_study,
    lower_bound_study,
    oracle_study,
    resolve_scale,
    resolve_test_function,
    risk_study,
    write_csv,
)
from .models import NoiseSpec, generate_observations, substream
from .selection import EstimatorOutput, estimate
from .weights import default_sequences

_STUDIES = {
    "risk": risk_study,
    "oracle": oracle_study,
    "efficiency": efficiency_study,
    "lower-bound": lower_bound_study,
}


def _estimator_output_json(out: EstimatorOutput, grid: DesignGrid) -> dict:
    return {
        "n": grid.n,
        "selected": {"beta": out.selected.beta, "t": out.selected.t},
        "varsigma_hat": out.varsigma_hat,
        "theta_hat": out.theta_hat.tolist(),
        "lambda_hat": out.lambda_hat.tolist(),
        "costs": [
            {"beta": a.beta, "t": a.t, "cost": c} for a, c in out.costs.items()
        ],
        "estimate_at_grid": grid_values(out.lambda_hat * out.theta_hat).tolist(),
    }


def _cmd_estimate(args) -> int:
    try:
        with open(args.data) as fh:
            names = [name.strip() for name in fh.readline().split(",")]  # the header line
            if "y" not in names:
                raise SystemExit("dataset must be a CSV with a 'y' column")
            y = np.loadtxt(fh, delimiter=",", usecols=names.index("y"), ndmin=1)
        grid = DesignGrid(len(y))
        out = estimate(y, grid, default_sequences(grid.n, rho=args.rho))
        payload = _estimator_output_json(out, grid)
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as err:
        raise SystemExit(f"hetreg estimate: {err}") from err
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(cfg: ExperimentConfig, out: str | None) -> int:
    S, ball, _ = resolve_test_function(cfg)
    scale = resolve_scale(cfg.scale)
    noise = NoiseSpec(**cfg.noise_menu[0])
    n = cfg.n_grid[0]
    grid = DesignGrid(n)
    rng = substream(cfg.seed, 1, n, 0, 0)
    y = generate_observations(S, scale, noise, grid, rng)
    s_true = S.on_grid(grid)
    out = out or "dataset.csv"
    with open(out, "w", newline="\n") as fh:
        fh.write("x,y,s_true\n")
        for x, yy, ss in zip(grid.points, y, s_true):
            fh.write(f"{float(x)!r},{float(yy)!r},{float(ss)!r}\n")
    print(f"wrote {n} observations to {out}")
    return 0


def _load_config(args) -> ExperimentConfig:
    """The config file, overridden by the flags; validated as a whole."""
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    over = {}
    for key in ("seed", "reps", "workers"):
        if getattr(args, key, None) is not None:
            over[key] = getattr(args, key)
    if getattr(args, "out", None):
        over["output_path"] = args.out
    return dataclasses.replace(cfg, **over)


def _cmd_study(name: str, cfg: ExperimentConfig) -> int:
    rows, summary, losses = _STUDIES[name](cfg)
    out_dir = Path(cfg.output_path)
    stem = name.replace("-", "_")
    write_csv(rows, out_dir / f"{stem}.csv")
    with open(out_dir / f"{stem}.json", "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if losses is not None:
        with open(out_dir / f"{stem}_losses.csv", "w", newline="\n") as fh:
            fh.write("estimator,noise,n,rep,loss_empiric,loss_l2\n")
            for est, noise, n, rep, l_n, l_2 in losses:
                fh.write(f"{est},{noise},{n},{rep},{float(l_n)!r},{float(l_2)!r}\n")
    print(f"wrote {out_dir / (stem + '.csv')} and {out_dir / (stem + '.json')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hetreg",
        description="Adaptive estimation for heteroscedastic nonparametric regression",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("estimate", help="run the adaptive estimator on one CSV dataset")
    pe.add_argument("--data", required=True, help="CSV with a 'y' column (odd length)")
    pe.add_argument("--out", help="output JSON path (default stdout)")
    pe.add_argument("--rho", type=float, help="force the penalty coefficient")

    ps = sub.add_parser("simulate", help="emit a synthetic dataset CSV")
    ps.add_argument("--config", help="experiment config JSON")
    ps.add_argument("--out", help="output CSV path")
    ps.add_argument("--seed", type=int)

    for name in _STUDIES:
        q = sub.add_parser(name, help=f"run the {name} study (config JSON -> CSV + JSON)")
        q.add_argument("--config", help="experiment config JSON")
        q.add_argument("--out", help="output directory")
        q.add_argument("--seed", type=int)
        q.add_argument("--reps", type=int)
        q.add_argument("--workers", type=int,
                       help="accepted and validated; changes neither scheduling nor output")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "estimate":
        return _cmd_estimate(args)
    try:
        cfg = _load_config(args)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.out)
        return _cmd_study(args.command, cfg)
    except ValueError as err:
        raise SystemExit(f"hetreg {args.command}: {err}") from err


if __name__ == "__main__":
    raise SystemExit(main())
