"""Benchmark of the maddpp CLI: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the program is imported from its
`src/` directory.  With `--trace 0` every CLI command is a fresh process,
spawned by the entry point an installed `maddpp` script runs, one after
another: a closed loop with one client and one worker.  Each command is
timed from spawn to exit, its peak RSS read with `os.wait4`, and its output
files checked from outside (`outputs.py`).  With `--trace 1` the same
commands run in this process through `maddpp.cli.main`, once untraced and
once with the public functions of every layer wrapped (`spans.py`), which
gives the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`, the metric names and units
being those of BENCHMARK.json.  A human-readable `row` line and a `meta`
line (versions, CPU count, host drift probe, recorded results) precede it.
Outputs, stderr and the trace spans go to `.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import coursegen
import outputs
from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
STARTUP_PROBES = 5         # at the start; one more before each iteration
KILL_AFTER_S = 170.0      # a command still running then is killed
LAST_START_S = 140.0      # no new iteration is started after this
ENTRY = "import sys; from maddpp.cli import main; sys.exit(main())"

THETA, THRESHOLD, GRID = 0.5, 0.5, 1000


@dataclass(frozen=True)
class Command:
    label: str
    argv: list
    outputs: list         # files removed before the command, checked after
    check: object         # (out_dir, inputs) -> dict of recorded values


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int                       # input rows, the base of records_per_s
    simulate: tuple | None          # (n_g0, n_g1) when set up by `maddpp simulate`
    commands: object                # out_dir -> list[Command]

    def setup_argv(self, d: Path, seed: int) -> list:
        n_g0, n_g1 = self.simulate
        return ["--out-dir", str(d), "simulate", "--seed", str(seed),
                "--n-g0", str(n_g0), "--n-g1", str(n_g1)]

    def load_inputs(self, d: Path):
        if self.simulate is None:
            return None
        return outputs.check_records(d / "records.csv", *self.simulate)


def _paper_sweep(d: Path) -> list:
    return [Command(
        "sweep",
        ["--out-dir", str(d), "sweep", str(d / "records.csv"), "--m", "100",
         "--grid", str(GRID), "--theta", str(THETA), "--t", str(THRESHOLD)],
        ["sweep.csv", "sweep.json", "sweep.manifest.json"],
        lambda d, recs: outputs.check_sweep(d / "sweep.csv", d / "sweep.json", THETA, GRID,
                                            recs, THRESHOLD, 100))]


def _bulk_measure(d: Path) -> list:
    records = str(d / "records.csv")
    return [
        Command("madd", ["--out-dir", str(d), "madd", records, "--m", "100"],
                ["madd.json", "madd.manifest.json"],
                lambda d, recs: outputs.check_madd(d / "madd.json", recs, 100)),
        Command("fip", ["--out-dir", str(d), "fip", records, "--lambda", "0.97", "--m", "100"],
                ["fip.csv", "fip.manifest.json"],
                lambda d, recs: outputs.check_fip(d / "fip.csv", recs)),
    ]


def _course_pipeline(d: Path) -> list:
    return [Command(
        "pipeline",
        ["--out-dir", str(d), "pipeline", str(d / "course.csv"), "--sensitive", "gender",
         "--m", "500", "--grid", str(GRID)],
        ["model.json", "validation_sweep.csv", "validation_sweep.json",
         "test_metrics.json", "pipeline.manifest.json"],
        lambda d, recs: outputs.check_pipeline(d, THETA, GRID))]


WORKLOADS = {w.name: w for w in (
    Workload("paper-sweep", 20_000, (10_000, 10_000), _paper_sweep),
    Workload("bulk-measure", 200_000, (160_000, 40_000), _bulk_measure),
    Workload("course-pipeline", coursegen.DEFAULT_ROWS, None, _course_pipeline),
)}

# (module, qualname, span): each public function wrapped where its caller
# looks it up; the span's first component names the layer.
TARGETS = [
    ("maddpp.cli", "main", "cli.main"),
    ("maddpp.cli", "read_records", "io.read_records"),
    ("maddpp.cli", "write_records", "io.write_records"),
    ("maddpp.cli", "build_density_vector", "densities.build_density_vector"),
    ("maddpp.objective", "build_density_vector", "densities.build_density_vector"),
    ("maddpp.transport", "build_density_vector", "densities.build_density_vector"),
    ("maddpp.cli", "madd", "densities.madd"),
    ("maddpp.objective", "madd", "densities.madd"),
    ("maddpp.cli", "pool_density_vectors", "densities.pool_density_vectors"),
    ("maddpp.transport", "pool_density_vectors", "densities.pool_density_vectors"),
    ("maddpp.cli", "fip", "transport.fip"),
    ("maddpp.transport", "FipMap.from_probas", "transport.FipMap.from_probas"),
    ("maddpp.transport", "FipMap.remap", "transport.FipMap.remap"),
    ("maddpp.objective", "generalized_inverse", "transport.generalized_inverse"),
    ("maddpp.transport", "generalized_inverse", "transport.generalized_inverse"),
    ("maddpp.cli", "sweep", "objective.sweep"),
    ("maddpp.objective", "SweepResult.write_csv", "objective.SweepResult.write_csv"),
    ("maddpp.objective", "SweepResult.write_json", "objective.SweepResult.write_json"),
    ("maddpp.cli", "accuracy_loss", "objective.accuracy_loss"),
    ("maddpp.cli", "fairness_loss", "objective.fairness_loss"),
    ("maddpp.cli", "sample", "simulate.sample"),
    ("maddpp.cli", "load_dataset", "model.load_dataset"),
    ("maddpp.cli", "encode", "model.encode"),
    ("maddpp.cli", "split", "model.split"),
    ("maddpp.cli", "train", "model.train"),
    ("maddpp.model", "loss_and_gradient", "model.loss_and_gradient"),
    ("maddpp.model", "LogisticModel.predict_proba", "model.LogisticModel.predict_proba"),
    ("maddpp.model", "LogisticModel.save", "model.LogisticModel.save"),
]
# records x lambdas of one sweep call, the base of ns_per_record_lambda
WORK_UNITS = {"objective.sweep": lambda args, kw: len(args[0]) * len(args[1].lambda_grid)}
LAYERS = ("cli", "io", "densities", "transport", "objective", "simulate", "model")


def calibrate() -> float:
    """A fixed numpy kernel (sort + matmul), median of three; drift probe only."""
    rng = np.random.default_rng(12345)
    a = rng.random(1_000_000)
    b = rng.random((300, 300))
    times = []
    for _ in range(3):
        t = time.perf_counter()
        np.sort(a)
        b @ b
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_metadata() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "loop": "closed loop, 1 client, 1 worker, commands run one after another"}


class Run:
    """State of one benchmark run: its work dir, counters and deadline."""

    def __init__(self, workload: Workload, trace: bool):
        self.w = workload
        self.dir = WORK / f"{workload.name}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.recorded: dict = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"FAILED {self.w.name} {what}: {detail}", file=sys.stderr)

    def spawn(self, argv) -> tuple[float, int, float]:
        """Spawn-to-exit seconds, exit code and peak RSS in MB of one process."""
        err_path = self.dir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(KILL_AFTER_S - self.elapsed(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            print(f"exit {proc.returncode}: {' '.join(tail)}", file=sys.stderr)
        return seconds, proc.returncode, usage.ru_maxrss / 1024.0

    def cli(self, argv):
        return self.spawn([sys.executable, "-c", ENTRY, *argv])

    def checked(self, cmd: Command, rc: int, inputs) -> None:
        """Count one attempted command; a nonzero exit or a failed output check fails it."""
        self.attempted += 1
        if rc != 0:
            self.fail(cmd.label, f"exit code {rc}")
            return
        try:
            self.recorded.update(cmd.check(self.dir, inputs))
        except (outputs.CheckFailed, OSError, ValueError, KeyError) as exc:
            self.fail(cmd.label, f"{type(exc).__name__}: {exc}")

    def load_inputs(self):
        self.attempted += 1
        try:
            return self.w.load_inputs(self.dir)
        except (outputs.CheckFailed, OSError, ValueError) as exc:
            self.fail("setup", f"{type(exc).__name__}: {exc}")
            raise SystemExit(f"{self.w.name}: set-up produced no valid input") from None

    def more(self, seconds: float, loop_start: float, last: float) -> bool:
        now = time.monotonic()
        return now - loop_start < seconds and self.elapsed() + last < LAST_START_S

    def clear(self, cmd: Command) -> None:
        for name in cmd.outputs:
            (self.dir / name).unlink(missing_ok=True)


def measure(w: Workload, seed: int, seconds: float):
    """Untraced run: every command a fresh process. Returns (run, metrics, extra)."""
    run = Run(w, trace=False)
    calib = [calibrate()]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        if w.simulate is None:
            t = time.perf_counter()
            coursegen.generate(run.dir / "course.csv", seed)
            setup_s.append(time.perf_counter() - t)
        else:
            t, rc, _ = run.cli(w.setup_argv(run.dir, seed))
            run.attempted += 1
            if rc != 0:
                run.fail("setup", f"exit code {rc}")
                raise SystemExit(f"{w.name}: set-up failed")
            setup_s.append(t)
    inputs = run.load_inputs()
    startup_argv = [sys.executable, "-c", "import maddpp.cli"]
    startup_s = [run.spawn(startup_argv)[0] for _ in range(STARTUP_PROBES)]

    per_cmd: dict[str, list] = {}
    walls, peak_rss = [], 0.0
    loop_start, last = time.monotonic(), 0.0
    while not walls or run.more(seconds, loop_start, last):
        startup_s.append(run.spawn(startup_argv)[0])
        wall = 0.0
        for cmd in w.commands(run.dir):
            run.clear(cmd)
            t, rc, rss = run.cli(cmd.argv)
            run.checked(cmd, rc, inputs)
            per_cmd.setdefault(cmd.label, []).append(t)
            peak_rss = max(peak_rss, rss)
            wall += t
        walls.append(wall)
        last = wall
    calib.append(calibrate())

    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": wall_s,
        "records_per_s": w.rows / wall_s,
        "peak_rss_mb": peak_rss,
        "startup_s": statistics.median(startup_s),
        "setup_s": statistics.median(setup_s),
        "ok_frac": 1.0 - run.failed / run.attempted,
    }
    extra = {f"cmd.{label}_s": statistics.median(ts) for label, ts in per_cmd.items()}
    extra.update({"failed_frac": run.failed / run.attempted, "samples": len(walls),
                  "host.calib_s": calib, "wall_samples_s": walls, "startup_samples_s": startup_s})
    return run, metrics, extra


def _call_main(cli, argv) -> tuple[float, int]:
    """In-process `maddpp.cli.main(argv)`: seconds and exit code."""
    sink = io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except Exception:            # a crash is a failed command, not a crashed benchmark
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - t, rc


def _layer_metrics(s: dict, w: Workload, overhead_s: float, cli_failures: int) -> dict:
    def get(name, key="s"):
        return s.get(name, {}).get(key, 0)

    sweep_work = get("objective.sweep", "work")
    read_s = get("io.read_records")
    out = {
        "cli.main.s": get("cli.main"),
        "cli.self_s": get("cli.main", "self_s"),
        "io.read_records.s": read_s,
        "io.read_records.rows_per_s":
            w.rows * get("io.read_records", "calls") / read_s if read_s else 0.0,
        "io.write_records.s": get("io.write_records"),
        "densities.build_density_vector.s": get("densities.build_density_vector"),
        "densities.build_density_vector.calls": get("densities.build_density_vector", "calls"),
        "densities.madd.s": get("densities.madd"),
        "transport.fip.s": get("transport.fip"),
        "transport.generalized_inverse.s": get("transport.generalized_inverse"),
        "transport.generalized_inverse.calls": get("transport.generalized_inverse", "calls"),
        "objective.sweep.s": get("objective.sweep"),
        "objective.sweep.self_s": get("objective.sweep", "self_s"),
        "objective.sweep.ns_per_record_lambda":
            get("objective.sweep") * 1e9 / sweep_work if sweep_work else 0.0,
        "objective.write_outputs.s": get("objective.SweepResult.write_csv")
                                     + get("objective.SweepResult.write_json"),
        "simulate.sample.s": get("simulate.sample"),
        "model.load_dataset.s": get("model.load_dataset"),
        "model.encode.s": get("model.encode"),
        "model.train.s": get("model.train"),
        "model.train.iterations": get("model.loss_and_gradient", "calls"),
        "model.predict_proba.s": get("model.LogisticModel.predict_proba"),
        "trace.overhead_s": overhead_s,
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(row["errors"] for name, row in s.items()
                                     if name.split(".")[0] == layer)
    out["cli.errors"] += cli_failures
    return out


def _merge(a: dict, b: dict) -> dict:
    out = {name: dict(row) for name, row in a.items()}
    for name, row in b.items():
        dst = out.setdefault(name, dict.fromkeys(row, 0))
        for key, value in row.items():
            dst[key] += value
    return out


def trace(w: Workload, seed: int, seconds: float):
    """Traced run: each command in-process, untraced then traced (order
    alternating per repeat). Returns (run, per-layer metrics, extra)."""
    run = Run(w, trace=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("maddpp.cli")
    calib = [calibrate()]
    setup = Tracer([t for t in TARGETS if t[2] != "cli.main"], WORK_UNITS)
    if w.simulate is None:
        coursegen.generate(run.dir / "course.csv", seed)
    else:
        with setup:
            _, rc = _call_main(cli, w.setup_argv(run.dir, seed))
        run.attempted += 1
        if rc != 0:
            run.fail("setup", f"exit code {rc}")
            raise SystemExit(f"{w.name}: set-up failed")
    inputs = run.load_inputs()
    setup_summary = summarize(setup.spans)

    tracers, reps = [], []
    loop_start, last = time.monotonic(), 0.0
    while not reps or run.more(seconds, loop_start, last):
        rep_start = time.monotonic()
        tracer = Tracer(TARGETS, WORK_UNITS)
        overhead, cli_failures = 0.0, 0
        for cmd in w.commands(run.dir):
            tracer.request = f"rep{len(reps)}:{cmd.label}"
            times = {}
            for traced in ((False, True) if len(reps) % 2 == 0 else (True, False)):
                run.clear(cmd)
                with tracer if traced else contextlib.nullcontext():
                    times[traced], rc = _call_main(cli, cmd.argv)
                run.checked(cmd, rc, inputs)
                cli_failures += traced and rc != 0
            overhead += times[True] - times[False]
        tracers.append(tracer)
        reps.append(_layer_metrics(_merge(setup_summary, summarize(tracer.spans)), w,
                                   overhead, cli_failures))
        last = time.monotonic() - rep_start
    calib.append(calibrate())
    with open(run.dir / "spans.json", "w") as fh:
        json.dump({"absent": tracer.absent, "setup": setup.records(),
                   "reps": [t.records() for t in tracers]}, fh)

    metrics = {name: statistics.median(r[name] for r in reps) for name in reps[0]}
    extra = {"samples": len(reps), "host.calib_s": calib, "absent": tracer.absent}
    return run, metrics, extra


def spec_metrics(trace_on: bool) -> list:
    """The metric list BENCHMARK.json declares for this mode."""
    with open(SPEC) as fh:
        return json.load(fh)["per_layer" if trace_on else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace_on: bool) -> dict:
    """Run one workload; print its `row` and `meta` lines and return its result."""
    run, values, extra = (trace if trace_on else measure)(WORKLOADS[name], seed, seconds)
    spec = spec_metrics(trace_on)
    units = {m["name"]: m["unit"] for m in spec}
    numbers = {**values, **{k: v for k, v in extra.items() if isinstance(v, (int, float))}}
    cells = [f"{k}={v:.6g} {units.get(k, 's' if k.endswith('_s') else '')}".rstrip()
             for k, v in numbers.items()]
    print(f"row {name} " + " | ".join(cells))
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace_on),
            **run_metadata(), "recorded": run.recorded,
            **{k: v for k, v in extra.items() if k not in numbers}}
    print("meta " + json.dumps(meta))
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in spec}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maddpp" / "cli.py").is_file():
        print(f"no maddpp source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(SPEC) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}/{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
