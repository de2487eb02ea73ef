"""Command-line surface: simulate, madd, fip, sweep and the full pipeline.

Every command writes its outputs plus a run manifest; all failures exit
nonzero with a one-line `ErrorName: message` diagnostic on stderr and the
error class's own `exit_code`.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, errors
from .densities import (
    G0,
    Scores,
    build_density_vector,
    check_bandwidth,
    check_bin_count,
    kde_plot_curve,
    madd,
    pool_density_vectors,
)
from .io import read_records, write_columns, write_records
from .model import encode, load_dataset, split, train
from .objective import (
    ObjectiveConfig,
    accuracy_loss,
    apply_threshold,
    default_lambda_grid,
    fairness_loss,
    sweep,
)
from .simulate import SimulationSpec, sample
from .transport import check_lambda, fip

OUT_DIR_ENV = "MADDPP_OUT_DIR"


def _out_dir(args) -> Path:
    base = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(path: Path, command: str, config: dict, inputs: list,
                    outputs: list, group: np.ndarray, **extra) -> None:
    n0 = int((group == G0).sum())
    manifest = {
        "command": command,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "group_counts": {"g0": n0, "g1": group.size - n0},
        **extra,
        "timestamp": _timestamp(),
        "version": __version__,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)


def _check_seed(seed: int) -> None:
    """Raise InvalidSeed for a negative seed, which numpy's generators reject."""
    if seed < 0:
        raise errors.InvalidSeed(f"seed must be >= 0, got {seed}")


def cmd_simulate(args) -> int:
    _check_seed(args.seed)
    spec = SimulationSpec(n_g0=args.n_g0, n_g1=args.n_g1, seed=args.seed)
    if spec.n_g0 <= 0 or spec.n_g1 <= 0:
        raise errors.EmptyPopulation("both group sizes must be positive")
    scores = sample(spec)
    out_dir = _out_dir(args)
    out = Path(args.out) if args.out else out_dir / "records.csv"
    write_records(scores, out)
    _write_manifest(out.with_suffix(".manifest.json"), "simulate",
                    {"n_g0": spec.n_g0, "n_g1": spec.n_g1, "seed": spec.seed,
                     "c0": spec.c0, "c1": spec.c1},
                    inputs=[], outputs=[out], group=scores.group)
    print(f"wrote {out} ({len(scores)} records)")
    return 0


def cmd_madd(args) -> int:
    check_bin_count(args.m)
    if args.kde_bandwidth is not None:
        check_bandwidth(args.kde_bandwidth)
    scores = read_records(args.records)
    mask0 = scores.g0_mask()
    d0 = build_density_vector(scores.proba[mask0], args.m)
    d1 = build_density_vector(scores.proba[~mask0], args.m)
    value = madd(d0, d1)
    result = {
        "madd": value,
        "fairness_loss": 0.5 * value,
        "m": args.m,
        "bins_g0": d0.bins.tolist(),
        "bins_g1": d1.bins.tolist(),
        "bins_pooled": pool_density_vectors(d0, d1).bins.tolist(),
    }
    if args.kde_bandwidth is not None:
        result["kde_g0"] = kde_plot_curve(d0, args.kde_bandwidth)
        result["kde_g1"] = kde_plot_curve(d1, args.kde_bandwidth)
    out_dir = _out_dir(args)
    out = Path(args.out) if args.out else out_dir / "madd.json"
    with open(out, "w") as fh:
        json.dump(result, fh, indent=2)
    _write_manifest(out.with_suffix(".manifest.json"), "madd", {"m": args.m},
                    inputs=[args.records], outputs=[out],
                    group=scores.group)
    print(json.dumps({"madd": value, "fairness_loss": 0.5 * value}))
    return 0


def cmd_fip(args) -> int:
    check_lambda(args.lam)
    check_bin_count(args.m)
    scores = read_records(args.records)
    new_probas = fip(scores, args.lam, args.m)
    out_dir = _out_dir(args)
    out = Path(args.out) if args.out else out_dir / "fip.csv"
    write_columns(out, ["proba", "new_proba", "group"], scores.proba, new_probas, scores.group)
    _write_manifest(out.with_suffix(".manifest.json"), "fip",
                    {"lambda": args.lam, "m": args.m},
                    inputs=[args.records], outputs=[out],
                    group=scores.group)
    print(f"wrote {out}")
    return 0


def _sweep_config(args) -> ObjectiveConfig:
    return ObjectiveConfig(theta=args.theta, threshold=args.t, m=args.m,
                           lambda_grid=default_lambda_grid(args.grid))


def cmd_sweep(args) -> int:
    config = _sweep_config(args)
    scores = read_records(args.records, require_labels=True)
    result = sweep(scores, config)
    out_dir = _out_dir(args)
    prefix = args.out or str(out_dir / "sweep")
    csv_path = Path(f"{prefix}.csv")
    json_path = Path(f"{prefix}.json")
    result.write_csv(csv_path)
    result.write_json(json_path)
    _write_manifest(Path(f"{prefix}.manifest.json"), "sweep",
                    {"theta": args.theta, "t": args.t, "m": args.m, "grid": args.grid},
                    inputs=[args.records], outputs=[csv_path, json_path],
                    group=scores.group)
    print(json.dumps({"lambda_star": result.lambda_star,
                      "min_total_loss": result.min_total_loss}))
    return 0


def cmd_pipeline(args) -> int:
    config = _sweep_config(args)
    _check_seed(args.seed)
    dataset = load_dataset(args.dataset, sensitive=args.sensitive,
                           label_column=args.label_column)
    X, y, rules = encode(dataset)
    groups = dataset.sensitive_groups()
    feature_names, dropped_rows = dataset.feature_names, dataset.dropped_rows
    del dataset  # its raw cells, one str each, are not needed past encoding
    idx_train, idx_val, idx_test = split(len(y), seed=args.seed)
    numeric = np.array([rules[name] == "numeric" for name in feature_names])
    model = train(X[idx_train], y[idx_train], feature_names=feature_names,
                  numeric_columns=numeric)

    def scores(idx):
        return Scores(model.predict_proba(X[idx]), groups[idx], y[idx])

    result = sweep(scores(idx_val), config)
    test = scores(idx_test)
    test_after = fip(test, result.lambda_star, config.m)

    def metrics(probas):
        return {
            "accuracy_loss": accuracy_loss(apply_threshold(probas, config.threshold),
                                           test.label),
            "fairness_loss": fairness_loss(Scores(probas, test.group, test.label), config.m),
        }

    out_dir = _out_dir(args)
    model_path = out_dir / "model.json"
    sweep_csv = out_dir / "validation_sweep.csv"
    sweep_json = out_dir / "validation_sweep.json"
    metrics_path = out_dir / "test_metrics.json"
    model.save(model_path)
    result.write_csv(sweep_csv)
    result.write_json(sweep_json)
    test_metrics = {
        "lambda_star": result.lambda_star,
        "before": metrics(test.proba),
        "after": metrics(test_after),
    }
    with open(metrics_path, "w") as fh:
        json.dump(test_metrics, fh, indent=2)
    _write_manifest(out_dir / "pipeline.manifest.json", "pipeline",
                    {"sensitive": args.sensitive, "theta": args.theta, "t": args.t,
                     "m": args.m, "grid": args.grid, "seed": args.seed,
                     "encodings": rules, "dropped_rows": dropped_rows},
                    inputs=[args.dataset],
                    outputs=[model_path, sweep_csv, sweep_json, metrics_path],
                    group=groups, training=model.training)
    print(json.dumps(test_metrics))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maddpp",
        description="MADD fairness metric and probability post-processing")
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (default: ${OUT_DIR_ENV} or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic records CSV")
    p.add_argument("--n-g0", type=int, default=10_000)
    p.add_argument("--n-g1", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("madd", help="compute the MADD of a records CSV")
    p.add_argument("records")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--kde-bandwidth", type=float, default=None,
                   help="also emit smoothed plot curves per group")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_madd)

    p = sub.add_parser("fip", help="remap probabilities for one lambda")
    p.add_argument("records")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fip)

    p = sub.add_parser("sweep", help="sweep the lambda grid and select lambda*")
    p.add_argument("records")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--out", default=None, help="output path prefix")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pipeline", help="train, sweep on validation, evaluate on test")
    p.add_argument("dataset")
    p.add_argument("--sensitive", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # inputs are opened by io.open_input, which raises UnreadableInput
        # instead, so this comes from creating or writing an output
        err = errors.UnwritableOutput(
            f"cannot write {exc.filename or 'an output'}: {exc.strerror or exc}")
    except errors.MaddError as exc:
        err = exc
    print(f"{type(err).__name__}: {err}", file=sys.stderr)
    return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
