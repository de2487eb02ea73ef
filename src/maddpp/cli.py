"""Command-line surface: simulate, madd, fip, sweep and the full pipeline.

Every command writes its outputs plus a run manifest, each where `_output`
places it; all failures exit nonzero with a one-line `ErrorName: message`
diagnostic on stderr and the error class's own `exit_code`.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, errors
from .densities import (
    DEFAULT_BINS,
    G0,
    G1,
    POOLED,
    Scores,
    build_density_vector,
    check_bin_count,
    check_size,
    madd,
)
from .io import read_records, write_columns, write_json, write_records
from .model import encode, load_dataset, split, train
from .objective import (
    DEFAULT_GRID_SIZE,
    DEFAULT_THETA,
    DEFAULT_THRESHOLD,
    ObjectiveConfig,
    accuracy_loss,
    apply_threshold,
    default_lambda_grid,
    fairness_loss,
    sweep,
)
from .simulate import SimulationSpec, sample
from .transport import check_lambda, fip


def _output(args, name: str) -> Path:
    """Where the output `name` goes: `--out` if given (for sweep a prefix to
    `name`'s suffixes), else `name` inside `--out-dir`, created only here."""
    if getattr(args, "out", None):
        return Path(args.out + name[name.index("."):] if args.command == "sweep" else args.out)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return args.out_dir / name


def _write_manifest(args, config: dict, inputs: list, outputs: list,
                    group: np.ndarray, **extra) -> None:
    """The run manifest, beside the first output (for pipeline, `pipeline.manifest.json`)."""
    path = (_output(args, f"{args.command}.manifest.json")
            if args.command in ("sweep", "pipeline")
            else outputs[0].with_suffix(".manifest.json"))
    n0 = int((group == G0).sum())
    write_json(path, {
        "command": args.command,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "group_counts": {"g0": n0, "g1": group.size - n0},
        **extra,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    })


def _check_seed(seed: int) -> None:
    """Raise InvalidSeed for a negative seed, which numpy's generators reject."""
    if seed < 0:
        raise errors.InvalidSeed(f"seed must be >= 0, got {seed}")


def cmd_simulate(args) -> int:
    _check_seed(args.seed)
    spec = SimulationSpec(n_g0=args.n_g0, n_g1=args.n_g1, seed=args.seed)
    if spec.n_g0 <= 0 or spec.n_g1 <= 0:
        raise errors.EmptyPopulation("both group sizes must be positive")
    check_size(max(spec.n_g0, spec.n_g1), "records")
    scores = sample(spec)
    out = _output(args, "records.csv")
    write_records(scores, out)
    _write_manifest(args,
                    {"n_g0": spec.n_g0, "n_g1": spec.n_g1, "seed": spec.seed,
                     "c0": spec.c0, "c1": spec.c1},
                    inputs=[], outputs=[out], group=scores.group)
    print(f"wrote {out} ({len(scores)} records)")
    return 0


def cmd_madd(args) -> int:
    check_bin_count(args.m)
    scores = read_records(args.records)
    bins = build_density_vector(scores, args.m)
    value = float(madd(bins))
    result = {
        "madd": value,
        "fairness_loss": 0.5 * value,
        "m": args.m,
        "bins_g0": bins[G0].tolist(),
        "bins_g1": bins[G1].tolist(),
        "bins_pooled": bins[POOLED].tolist(),
    }
    out = _output(args, "madd.json")
    write_json(out, result)
    _write_manifest(args, {"m": args.m},
                    inputs=[args.records], outputs=[out],
                    group=scores.group)
    print(json.dumps({"madd": value, "fairness_loss": 0.5 * value}))
    return 0


def cmd_fip(args) -> int:
    check_lambda(args.lam)
    check_bin_count(args.m)
    scores = read_records(args.records)
    new_probas = fip(scores, args.lam, args.m)
    out = _output(args, "fip.csv")
    write_columns(out, ["proba", "new_proba", "group"], scores.proba, new_probas, scores.group)
    _write_manifest(args,
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
    csv_path = _output(args, "sweep.csv")
    json_path = _output(args, "sweep.json")
    result.write_csv(csv_path)
    result.write_json(json_path)
    _write_manifest(args,
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
    dropped_rows = dataset.dropped_rows
    del dataset  # its codes, one per cell, are not needed past encoding
    idx_train, idx_val, idx_test = split(len(y), seed=args.seed)
    for name, idx in (("validation", idx_val), ("test", idx_test)):
        counts = np.bincount(groups[idx], minlength=2)
        if not counts.all():
            raise errors.EmptyGroup(f"{args.dataset}: the {name} split ({idx.size} of {len(y)} "
                                    f"rows) has no record of group {int(np.argmin(counts))}")
    model = train(X[idx_train], y[idx_train], rules)

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

    model_path = _output(args, "model.json")
    sweep_csv = _output(args, "validation_sweep.csv")
    sweep_json = _output(args, "validation_sweep.json")
    metrics_path = _output(args, "test_metrics.json")
    model.save(model_path)
    result.write_csv(sweep_csv)
    result.write_json(sweep_json)
    test_metrics = {
        "lambda_star": result.lambda_star,
        "before": metrics(test.proba),
        "after": metrics(test_after),
    }
    write_json(metrics_path, test_metrics)
    _write_manifest(args,
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
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="output directory, created when an output goes into it (default: .)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic records CSV")
    p.add_argument("--n-g0", type=int, default=10_000)
    p.add_argument("--n-g1", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("madd", help="compute the MADD of a records CSV")
    p.add_argument("records")
    p.add_argument("--m", type=int, default=DEFAULT_BINS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_madd)

    p = sub.add_parser("fip", help="remap probabilities for one lambda")
    p.add_argument("records")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--m", type=int, default=DEFAULT_BINS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fip)

    p = sub.add_parser("sweep", help="sweep the lambda grid and select lambda*")
    p.add_argument("records")
    p.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p.add_argument("--t", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--m", type=int, default=DEFAULT_BINS)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--out", default=None, help="output path prefix")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pipeline", help="train, sweep on validation, evaluate on test")
    p.add_argument("dataset")
    p.add_argument("--sensitive", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p.add_argument("--t", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--m", type=int, default=DEFAULT_BINS)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE)
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
    except MemoryError as exc:  # numpy's, for an --n-g0 or --m below SIZE_LIMIT
        err = errors.OutOfMemory(str(exc) or "out of memory")
    except errors.MaddError as exc:
        err = exc
    print(f"{type(err).__name__}: {err}", file=sys.stderr)
    return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
