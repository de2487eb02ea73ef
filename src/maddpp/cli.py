"""Command-line surface: simulate, madd, fip, sweep and the full pipeline.

Every command writes its outputs and `<command>.manifest.json` into
`--out-dir` under fixed names; all failures exit nonzero with a one-line
`ErrorName: message` diagnostic on stderr and the error class's own `exit_code`.
"""

from __future__ import annotations

import argparse
import atexit
import datetime
import functools
import gc
import json
import os
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
from .model import load_dataset, split, train
from .objective import (
    DEFAULT_GRID_SIZE,
    DEFAULT_THETA,
    DEFAULT_THRESHOLD,
    ObjectiveConfig,
    default_lambda_grid,
    losses,
    sweep,
)
from .simulate import sample
from .transport import check_lambda, fip


# what `vars(args)` holds besides the options of the command
_NOT_CONFIG = {"command", "func", "out_dir", "input", "outputs"}


def _utf8(value: str) -> str:
    return os.fsencode(value).decode("utf-8")  # the bytes given, as UTF-8 whatever the locale


def _output(args, name: str) -> Path:
    """Where the output `name` goes: inside `--out-dir`, created only here;
    recorded in `args.outputs` for the manifest, and for `main` to name it."""
    args.out_dir.mkdir(parents=True, exist_ok=True)
    args.outputs.append(args.out_dir / name)
    return args.outputs[-1]


def _write_manifest(args, group: np.ndarray, **extra) -> None:
    """The run manifest, `<command>.manifest.json`: the options as parsed,
    the input and every output placed before it."""
    def utf8(paths):  # each path's bytes as UTF-8 whatever the locale, U+FFFD where not
        return [os.fsencode(p).decode("utf-8", "replace") for p in paths]
    outputs = utf8(args.outputs)
    path = _output(args, f"{args.command}.manifest.json")
    n0 = int((group == G0).sum())
    write_json(path, {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG},
        "inputs": utf8([args.input] if "input" in args else []),
        "outputs": outputs,
        "group_counts": {"g0": n0, "g1": group.size - n0},
        **extra,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    })


def _check_seed(seed: int) -> None:
    """Raise InvalidSeed for a negative seed, which numpy's generators reject."""
    if seed < 0:
        raise errors.InvalidSeed(f"seed must be >= 0, got {seed}")


def cmd_simulate(args) -> str:
    _check_seed(args.seed)
    if args.n_g0 <= 0 or args.n_g1 <= 0:
        raise errors.EmptyPopulation("both group sizes must be positive")
    check_size(max(args.n_g0, args.n_g1), "records")
    scores = sample(args.n_g0, args.n_g1, args.seed)
    out = _output(args, "records.csv")
    write_records(scores, out)
    _write_manifest(args, scores.group)
    return f"wrote {out} ({len(scores)} records)"


def cmd_madd(args) -> str:
    check_bin_count(args.m)
    scores = read_records(args.input)
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
    write_json(_output(args, "madd.json"), result)
    _write_manifest(args, scores.group)
    return json.dumps({"madd": value, "fairness_loss": 0.5 * value})


def cmd_fip(args) -> str:
    lam = getattr(args, "lambda")  # a keyword, so not `args.lambda`
    check_lambda(lam)
    check_bin_count(args.m)
    scores = read_records(args.input)
    new_probas = fip(scores, lam, args.m)
    out = _output(args, "fip.csv")
    write_columns(out, ["proba", "new_proba", "group"], scores.proba, new_probas, scores.group)
    _write_manifest(args, scores.group)
    return f"wrote {out}"


def _sweep_config(args) -> ObjectiveConfig:
    return ObjectiveConfig(theta=args.theta, threshold=args.t, m=args.m,
                           lambda_grid=default_lambda_grid(args.grid))


def cmd_sweep(args) -> str:
    config = _sweep_config(args)
    scores = read_records(args.input)
    if scores.label is None:
        raise errors.MissingLabels(f"{args.input}: label required on every row")
    result = sweep(scores, config)
    result.write_csv(_output(args, "sweep.csv"))
    result.write_json(_output(args, "sweep.json"))
    _write_manifest(args, scores.group)
    return json.dumps({"lambda_star": result.lambda_star,
                       "min_total_loss": result.min_total_loss})


def cmd_pipeline(args) -> str:
    config = _sweep_config(args)
    _check_seed(args.seed)
    X, y, groups, rules, dropped_rows = load_dataset(args.input, sensitive=args.sensitive,
                                                     label_column=args.label_column)
    idx_train, idx_val, idx_test = split(len(y), seed=args.seed)
    for name, idx in (("validation", idx_val), ("test", idx_test)):
        counts = np.bincount(groups[idx], minlength=2)
        if not counts.all():
            raise errors.EmptyGroup(f"{args.input}: the {name} split ({idx.size} of {len(y)} "
                                    f"rows) has no record of group {int(np.argmin(counts))}")
    model = train(X[idx_train], y[idx_train], rules)

    def scores(idx):
        return Scores(model.predict_proba(X[idx]), groups[idx], y[idx])

    result = sweep(scores(idx_val), config)
    test = scores(idx_test)
    test_after = Scores(fip(test, result.lambda_star, config.m), test.group, test.label)

    def metrics(batch):
        return dict(zip(("accuracy_loss", "fairness_loss"), losses(batch, config)))

    model.save(_output(args, "model.json"))
    result.write_csv(_output(args, "validation_sweep.csv"))
    result.write_json(_output(args, "validation_sweep.json"))
    test_metrics = {
        "lambda_star": result.lambda_star,
        "before": metrics(test),
        "after": metrics(test_after),
    }
    write_json(_output(args, "test_metrics.json"), test_metrics)
    _write_manifest(args, groups, encodings=rules, dropped_rows=dropped_rows,
                    training=model.training)
    return json.dumps(test_metrics)


class _Parser(argparse.ArgumentParser):
    """Refuses with InvalidOption, not a usage message and exit 2; subparsers are _Parsers."""

    def error(self, message):
        raise errors.InvalidOption(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maddpp",
        description="MADD fairness metric and probability post-processing")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory of every output, created by the first one (default: .)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic records CSV")
    p.add_argument("--n-g0", type=int, default=10_000)
    p.add_argument("--n-g1", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("madd", help="compute the MADD of a records CSV")
    p.add_argument("input", metavar="records")
    p.add_argument("--m", type=int, default=DEFAULT_BINS)
    p.set_defaults(func=cmd_madd)

    p = sub.add_parser("fip", help="remap probabilities for one lambda")
    p.add_argument("input", metavar="records")
    p.add_argument("--lambda", type=float, required=True)
    p.add_argument("--m", type=int, default=DEFAULT_BINS)
    p.set_defaults(func=cmd_fip)

    p = sub.add_parser("sweep", help="sweep the lambda grid and select lambda*")
    p.add_argument("input", metavar="records")
    p.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p.add_argument("--t", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--m", type=int, default=DEFAULT_BINS)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pipeline", help="train, sweep on validation, evaluate on test")
    p.add_argument("input", metavar="dataset")
    p.add_argument("--sensitive", required=True, type=_utf8)
    p.add_argument("--label-column", default="label", type=_utf8)
    p.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p.add_argument("--t", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--m", type=int, default=DEFAULT_BINS)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pipeline)

    return parser


@functools.cache
def _freeze_at_exit() -> None:
    """Spare the interpreter's final collection at exit the walk over what
    imports left, numpy's heap above all: every output is closed by `with`
    before `main` returns.  Cached, so registered once per process."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
    outputs = []  # every path `_output` returns, in order
    try:
        args = build_parser().parse_args(argv)
        args.outputs = outputs
        summary = args.func(args)  # the outputs are written by now
        try:
            print(summary, flush=True)
        except OSError as exc:  # a closed pipe, say
            # what the buffer holds goes nowhere, so the final flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            exc.filename = "standard output"  # for the message below
            raise
        return 0
    except OSError as exc:
        # an input fails as UnreadableInput (io.open_input), so this is an output: the
        # one the OS names, else the last one `_output` placed, each written just after
        name = exc.filename or (outputs[-1] if outputs else "an output")
        err = errors.UnwritableOutput(f"cannot write {name}: {exc.strerror or exc}")
    except MemoryError as exc:  # numpy's, for an --n-g0 or --m below SIZE_LIMIT
        err = errors.OutOfMemory(str(exc) or "out of memory")
    except errors.MaddError as exc:
        err = exc
    print(f"{type(err).__name__}: {err}", file=sys.stderr)
    return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
