"""Benchmark of evoheat: time from a config to a checked verdict, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_torus48 --seed 3 --seconds 30 --trace 0

Each execution is one in-process ``evoheat.cli.main`` call in a fresh child
interpreter, one at a time, with BLAS pools pinned to one thread.  Executions
repeat until ``--seconds`` would be exceeded (at least MIN_EXECUTIONS).  Every
execution's outputs go through ``workloads.check_outputs``.

--trace 0 reports the end-to-end metrics: medians of setup_s, wall_s,
peak_rss_mb, and vertex_steps_per_s (fixed work / median wall_s), and
pass_frac (1 - failed / attempted).  --trace 1 alternates untraced and traced
executions, reports the per-layer metrics of the median traced execution, and
checks that the work counts repeat exactly across the traced executions.

The last stdout line is the result JSON; the line before it is the
environment stamp.  A full record goes to perfbench/_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import (DATA_SEEDS, WORKLOADS, Workload, artifact_hashes, check_outputs,
                       reference_key)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
WORK = HERE / "_work"
RESULTS = HERE / "_results"

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}
MIN_EXECUTIONS = 3
SETUP_SAMPLES = 9
HARD_STOP_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "vertex_steps_per_s": "1/s",
                    "peak_rss_mb": "MB", "pass_frac": "frac"}
LAYER_UNITS = {
    "cli.self_s": "s", "cli.artifact_bytes": "bytes", "cli.artifacts_identical": "bool",
    "geometry.self_s": "s", "profiles.self_s": "s", "linalg.self_s": "s",
    "scheme.self_s": "s", "verify.self_s": "s",
    "linalg.solves": "count", "linalg.matvecs": "count", "linalg.matvecs_per_solve": "1",
    "linalg.solve_s": "s", "linalg.matvec_s": "s", "linalg.matvec_bytes_computed": "bytes",
    "scheme.steps": "count", "scheme.run_s": "s", "scheme.step_self_s": "s",
    "geometry.build_s": "s", "geometry.coeff_calls": "count", "geometry.coeff_s": "s",
    "geometry.energy_calls": "count", "geometry.growth_bound_s": "s",
    "profiles.initial_s": "s",
    "verify.energy_s": "s", "verify.extremum_s": "s", "verify.contraction_self_s": "s",
    "verify.weak_residual_s": "s", "verify.attainment_s": "s", "verify.chain_error_s": "s",
    "verify.oracle_s": "s", "verify.oracle_rhs_evals": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}
# Counts that must repeat exactly across traced executions of the same inputs.
COUNT_CHECKED = ("linalg.solves", "linalg.matvecs", "scheme.steps",
                 "geometry.coeff_calls", "geometry.energy_calls", "verify.oracle_rhs_evals")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no package source, no reference, broken set-up)."""


@dataclass
class Execution:
    traced: bool
    elapsed_s: float
    result: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    headline: dict | None = None
    hashes: dict = field(default_factory=dict)
    identical: bool = False
    artifact_bytes: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Runner:
    """Runs child interpreters for one workload and checks what they leave behind."""

    def __init__(self, workload: Workload, data_seed: int, reference, hard_stop: float):
        self.workload = workload
        self.reference = reference
        self.hard_stop = hard_stop
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(workload.make_config(data_seed), indent=2))
        self.spans = RESULTS / f"{workload.name}_spans.npz"
        self.env = {**os.environ, **THREAD_PINS}

    def _child(self, command, trace: bool):
        spec = {"src": str(SRC), "config": str(self.config), "command": command,
                "trace": trace, "spans": str(self.spans)}
        timeout = max(1.0, self.hard_stop - time.monotonic())
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                                  cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s", time.monotonic() - t0
        elapsed = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, (proc.stderr.strip().splitlines() or ["no output"])[-1], elapsed
        return json.loads(lines[-1]), "", elapsed

    def setup_only(self) -> float:
        result, err, _ = self._child(None, False)
        if result is None:
            raise BenchmarkError(f"set-up failed: {err}")
        return result["setup_s"]

    def execute(self, trace: bool) -> Execution:
        outdir = self.work / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        result, err, elapsed = self._child(self.workload.command, trace)
        ex = Execution(traced=trace, elapsed_s=elapsed)
        if result is None:
            ex.problems.append(f"child failed: {err}")
            return ex
        ex.result = result
        if result.get("error"):
            ex.problems.append(result["error"].strip().splitlines()[-1])
        try:
            problems, ex.headline = check_outputs(self.workload, str(outdir),
                                                  result["exit_code"], self.reference)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable artifacts: {exc!r}"]
        ex.problems += problems
        ex.hashes = artifact_hashes(self.workload, str(outdir))
        ex.identical = self.reference is not None and ex.hashes == self.reference["sha256"]
        ex.artifact_bytes = sum(p.stat().st_size for p in outdir.glob("*") if p.is_file())
        shutil.rmtree(outdir, ignore_errors=True)
        return ex


def _median(values):
    return statistics.median(values) if values else float("nan")


def _run_loop(runner: Runner, deadline: float, plan) -> list:
    """Executions in the order ``plan(i)`` gives (True = traced) until the deadline.

    Stops once MIN_EXECUTIONS are done and the next one, judged by the last
    one of its kind, would end after the deadline; stops at once on a timeout.
    """
    executions = []
    while True:
        ex = runner.execute(plan(len(executions)))
        executions.append(ex)
        if not ex.result:
            break
        if len(executions) >= MIN_EXECUTIONS:
            nxt = plan(len(executions))
            same = [e.elapsed_s for e in executions if e.traced == nxt] or [ex.elapsed_s]
            if time.monotonic() + same[-1] > deadline:
                break
    return executions


def end_to_end(workload: Workload, executions: list, setups: list) -> dict:
    ok = [e for e in executions if not e.failed] or executions
    walls = [e.result["wall_s"] for e in ok if "wall_s" in e.result]
    wall = _median(walls)
    failed = sum(e.failed for e in executions)
    return {
        "wall_s": wall,
        "setup_s": _median(setups),
        "vertex_steps_per_s": workload.vertex_steps / wall,
        "peak_rss_mb": _median([e.result["peak_rss_mb"] for e in ok if e.result]),
        "pass_frac": 1.0 - failed / len(executions),
    }


def per_layer(executions: list):
    """Per-layer metrics and the count-check problems of a traced run.

    All values come from the traced execution with the median wall time (the
    lower one of an even count), so its layer self times add up to its wall time.
    """
    traced = [e for e in executions if e.traced and "trace" in e.result]
    untraced = [e for e in executions if not e.traced and "wall_s" in e.result]
    if not traced or not untraced:
        return {}, ["the run needs a traced and an untraced execution that finished"]
    problems = []
    for key in COUNT_CHECKED:
        seen = [e.result["trace"][key] for e in traced]
        if len(set(seen)) != 1:
            problems.append(f"count check: {key} differs across traced executions: {seen}")
    chosen = sorted(traced, key=lambda e: e.result["wall_s"])[(len(traced) - 1) // 2]
    layer = dict(chosen.result["trace"])
    layer["trace.wall_s"] = chosen.result["wall_s"]
    layer["trace.overhead_s"] = (chosen.result["wall_s"]
                                 - _median([e.result["wall_s"] for e in untraced]))
    layer["cli.artifact_bytes"] = chosen.artifact_bytes
    layer["cli.artifacts_identical"] = float(all(e.identical for e in executions))
    return {key: layer[key] for key in LAYER_UNITS}, problems


def environment_stamp(args, data_seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "loadavg_at_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "data_seed": data_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args):
    start = time.monotonic()
    if not (SRC / "evoheat" / "__init__.py").is_file():
        raise BenchmarkError(f"package source not found under {SRC}")
    if not REFERENCE.is_file():
        raise BenchmarkError(f"reference values not found: {REFERENCE}")
    workload = WORKLOADS[args.workload]
    data_seed = args.seed % DATA_SEEDS
    key = reference_key(workload, data_seed)
    reference = json.loads(REFERENCE.read_text()).get(workload.name, {}).get(key)
    if reference is None:
        raise BenchmarkError(f"no reference values for {workload.name}, data seed {key}")
    stamp = environment_stamp(args, data_seed)
    RESULTS.mkdir(exist_ok=True)
    runner = Runner(workload, data_seed, reference, start + HARD_STOP_S)
    runner.setup_only()  # warm-up: byte-compiles the package and fills the file cache

    deadline = time.monotonic() + args.seconds
    if args.trace:
        # U, T, T, then alternating: two traced executions for the count check,
        # untraced ones for the overhead baseline.
        executions = _run_loop(runner, deadline, lambda i: i in (1, 2) or (i > 2 and i % 2 == 0))
    else:
        executions = _run_loop(runner, deadline, lambda i: False)
    if not any(e.result for e in executions):
        raise BenchmarkError(f"no execution finished: {executions[0].problems}")
    if args.trace:
        metrics, problems = per_layer(executions)
        units = LAYER_UNITS
    else:
        setups = [e.result["setup_s"] for e in executions if e.result]
        while len(setups) < SETUP_SAMPLES and time.monotonic() < runner.hard_stop - 10:
            setups.append(runner.setup_only())
        metrics, problems = end_to_end(workload, executions, setups), []
        units = END_TO_END_UNITS
        stamp["setup_samples"] = len(setups)
    stamp["executions"] = len(executions)
    stamp["traced_executions"] = sum(e.traced for e in executions)
    stamp["artifacts_identical"] = all(e.identical for e in executions)

    failed = sum(e.failed for e in executions)
    for i, e in enumerate(executions):
        problems += [f"execution {i}: {p}" for p in e.problems]
    record = {"stamp": stamp,
              "executions": [{"traced": e.traced, "elapsed_s": e.elapsed_s,
                              "problems": e.problems, "identical": e.identical,
                              **e.result} for e in executions],
              "problems": problems}
    outcome = {"correct": not problems, "attempted": len(executions), "failed": failed,
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record["result"] = outcome
    (RESULTS / f"{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))
    return stamp, problems, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        stamp, problems, outcome = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
