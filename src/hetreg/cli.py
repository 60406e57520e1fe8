"""Command line interface: estimate one dataset, simulate data, run studies."""

from __future__ import annotations

import argparse
import functools
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
    """The `hetreg estimate` record; its three n-length fields stay numpy arrays for `_json_text`."""
    return {
        "n": grid.n,
        "selected": {"beta": out.selected.beta, "t": out.selected.t},
        "varsigma_hat": out.varsigma_hat,
        "theta_hat": out.theta_hat,
        "lambda_hat": out.lambda_hat,
        "costs": [
            {"beta": a.beta, "t": a.t, "cost": c} for a, c in out.costs.items()
        ],
        "estimate_at_grid": grid_values(out.lambda_hat * out.theta_hat),
    }


def _json_text(payload: dict) -> str:
    """The text of every JSON file: json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    and a newline, byte for byte, for a mapping of JSON values and nonempty 1-d float arrays.

    An array is written from the repr of its list, whose floats read as json writes
    them, instead of by json's pure-Python encoder, which `indent` selects and which
    takes one call per value; a non-finite value is refused with json's own error.
    """
    fields = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, np.ndarray):
            bad = ~np.isfinite(value)
            if bad.any():
                json.dumps(float(value[bad][0]), allow_nan=False)  # raises json's ValueError
            text = "[\n    " + repr(value.tolist())[1:-1].replace(", ", ",\n    ") + "\n  ]"
        else:
            text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n" if fields else "{}\n"


def _cmd_estimate(args) -> int:
    with open(args.data) as fh:
        names = [name.strip() for name in fh.readline().split(",")]  # the header line
        if "y" not in names:
            raise ValueError("dataset must be a CSV with a 'y' column")
        y = np.loadtxt(fh, delimiter=",", usecols=names.index("y"), ndmin=1)
    grid = DesignGrid(len(y))
    out = estimate(y, grid, default_sequences(grid.n, rho=args.rho))
    text = _json_text(_estimator_output_json(out, grid))
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, newline="\n")
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
    write_csv(zip(grid.points, y, s_true), out, ("x", "y", "s_true"))
    print(f"wrote {n} observations to {out}")
    return 0


def _load_config(args) -> ExperimentConfig:
    """The config file, overridden by the flags; validated once, as a whole."""
    spec = json.loads(Path(args.config).read_text()) if args.config else {}
    if isinstance(spec, dict):  # from_dict refuses anything else
        flags = {"seed": args.seed, "reps": getattr(args, "reps", None),
                 "workers": getattr(args, "workers", None), "output_path": args.out or None}
        spec.update((key, value) for key, value in flags.items() if value is not None)
    return ExperimentConfig.from_dict(spec)


def _cmd_study(name: str, cfg: ExperimentConfig) -> int:
    rows, summary, losses = _STUDIES[name](cfg)
    text = _json_text(summary)  # refuses a non-finite value before any file is written
    out_dir = Path(cfg.output_path)
    stem = name.replace("-", "_")
    write_csv(rows, out_dir / f"{stem}.csv")
    (out_dir / f"{stem}.json").write_text(text, newline="\n")
    if losses is not None:
        write_csv(losses, out_dir / f"{stem}_losses.csv",
                  ("estimator", "noise", "n", "rep", "loss_empiric", "loss_l2"))
    print(f"wrote {out_dir / (stem + '.csv')} and {out_dir / (stem + '.json')}")
    return 0


@functools.cache  # one parser per process; parse_args keeps no state in it
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
    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        cfg = _load_config(args)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.out)
        return _cmd_study(args.command, cfg)
    except (OSError, ValueError) as err:
        raise SystemExit(f"hetreg {args.command}: {err}") from err


if __name__ == "__main__":
    raise SystemExit(main())
