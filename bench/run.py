"""Benchmark of `distdyn analyze`: timed runs, output checks, traced replay.

Usage (from the repository root):

    python3 bench/run.py --workload demo --seed 11 --seconds 30 --trace 0

--trace 0 times whole `analyze` calls (through distdyn.cli.main, in a worker
process, --threads 1, one call at a time) and prints the end-to-end metrics.
--trace 1 alternates an untraced call with a traced replay of the same
chain through each layer's public functions and prints the per-layer
metrics. Either way every call's output is checked, and the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A record with machine details, quartiles and sample counts goes to
.bench_out/records/. See bench/README.md for the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import worker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

MIN_CALLS = 3  # timed analyze calls per run, at least
MAX_CALLS = 200
DEADLINE_S = 170  # a run must end within 180 s
SOLVER_L1_LIMIT = 1e-6  # stated tolerance on the ergodic density's L1 error
# Limit on the ar1_log panel's L1 distance to the true law: just above the
# largest value over seeds 1-25 (0.1363; median 0.1313, quartile spread
# 1.4%), so an estimator change that recovers the law ~5% worse fails.
AR1_TRUTH_L1_LIMIT = 0.138
SELFTEST_TOL = "1e-6"  # a loosened solver tolerance the accuracy metric must see

END_TO_END = {
    "analyze_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "solver_l1_digits": "digits",
}

STAGES = (
    "panel.load", "panel.prepare", "panel.groups", "panel.pairs",
    "kde.bandwidth", "kde.joint", "kde.marginal", "kde.conditional",
    "dynamics.ergodic", "dynamics.ntp", "dynamics.components",
    "report.build", "report.json",
    "viz.contour", "viz.surface", "viz.curves", "viz.csv",
)
MODULES = (
    "__init__", "__main__", "_quad", "cli", "dynamics", "errors", "kde",
    "panel", "pipeline", "report", "synthesis", "viz",
)
PER_LAYER = {
    "synthesis.simulate_s": "s", "panel.dump_s": "s", "import_s": "s",
    **{f"{stage}_s": "s" for stage in STAGES},
    "panel.rows": "count", "panel.pairs": "count", "kde.joint_madds": "count",
    "kde.supported_share": "ratio", "kde.truth_l1": "L1",
    "dynamics.ergodic_iterations": "count", "dynamics.solver_l1_error": "L1",
    "viz.bytes": "bytes", "cli.other_s": "s", "cli.groups_failed": "count",
    "trace.overhead_s": "s", "src.lines": "lines",
    **{f"src.lines.{m}": "lines" for m in MODULES},
}


class Run:
    """One benchmark run: its work directory, deadline and problems."""

    def __init__(self, workload: workloads.Workload, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.work = OUT / "work" / f"{self.tag}-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def problem(self, text: str):
        self.problems.append(text)
        print(f"check failed: {text}", file=sys.stderr)

    def worker(self, job: dict) -> dict:
        """Run one worker job in a fresh interpreter and return its result."""
        timeout = self.deadline - time.monotonic()
        return worker.spawn({"root": str(ROOT), "timeout": timeout, **job}, timeout)

    def setup(self) -> Path:
        """Generate the input panel. setup_s comes from later samples (worker.py)."""
        panel = self.work / "panel.csv"
        self.worker({"mode": "setup", **self.setup_job(panel)})
        if self.workload.process == "two_club" and self.seed == workloads.DEMO_SEED:
            if panel.read_bytes() != (ROOT / "demo" / "panel.csv").read_bytes():
                self.problem("seed 11 two-club panel differs from demo/panel.csv")
        return panel

    def setup_job(self, panel: Path) -> dict:
        return {"root": str(ROOT), "process": self.workload.process, "seed": self.seed,
                "out": str(panel)}

    def merge_setup(self, res: dict) -> None:
        """Keep the setup samples a timed loop took, and their problems."""
        for key, values in res["setup_samples"].items():
            self.samples[key] = values
        for p in res["setup_problems"]:
            self.problem(p)

    def count_failed(self, problems: list[list[str]]) -> int:
        """Report each call's problems; returns the number of failed calls."""
        for i, call in enumerate(problems):
            for p in call:
                self.problem(f"call {i}: {p}")
        return sum(1 for call in problems if call)

    def accuracy(self, out: Path) -> dict[str, float]:
        """Solver and truth errors of one checked output directory."""
        spec = workloads.process_spec(self.workload.process, self.seed)
        solver, per_group = checks.max_solver_l1_error(out)
        truth = checks.truth_l1_error(out, spec)
        if not solver <= SOLVER_L1_LIMIT:
            self.problem(f"solver L1 error {solver:.3g} exceeds {SOLVER_L1_LIMIT:g}")
        if spec.kind == "ar1_log" and not truth <= AR1_TRUTH_L1_LIMIT:
            self.problem(f"L1 distance to the true law {truth:.4f} exceeds {AR1_TRUTH_L1_LIMIT}")
        return {"solver_l1_error": solver, "ergodic_l1_vs_truth": truth,
                **{f"solver_l1_error.{g}": e for g, e in per_group.items()}}

    def selftest(self, out: Path) -> dict[str, float]:
        """The checks must catch a corrupted file and a loosened solver."""
        copy = self.work / "selftest-copy"
        shutil.copytree(out, copy)
        victim = copy / "pooled" / "ergodic.csv"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        if not checks.check_output(copy, 0, (out / "manifest.json").read_bytes()):
            self.problem("self-test: a flipped byte in pooled/ergodic.csv went unnoticed")
        panel = self.work / "selftest.csv"
        self.worker({"mode": "setup", "process": "two_club", "seed": self.seed, "out": str(panel)})
        errors = {}
        for tol in (None, SELFTEST_TOL):
            argv = ["analyze", "--input", str(panel), "--groups", "pooled",
                    "--grid-count", "128", "--threads", "1"]
            if tol is not None:
                argv += ["--tol", tol]
            base = self.work / f"selftest-tol-{tol}"
            res = self.worker({"mode": "analyze", "argv": argv, "out_base": str(base),
                               "seconds": 0, "min_calls": 1, "max_calls": 1})
            if self.count_failed(res["problems"]):
                self.problem(f"self-test: analyze with tol {tol} failed its checks")
                return {}
            errors[tol], _ = checks.max_solver_l1_error(base / "r000")
        if not errors[SELFTEST_TOL] > 10 * errors[None]:
            self.problem(f"self-test: solver error at tol {SELFTEST_TOL} ({errors[SELFTEST_TOL]:.3g}) "
                         f"is not clearly worse than at the default ({errors[None]:.3g})")
        return {"selftest.solver_l1_error": errors[None],
                f"selftest.solver_l1_error.tol_{SELFTEST_TOL}": errors[SELFTEST_TOL]}

    def timed(self, panel: Path) -> tuple[int, int, dict, dict]:
        argv = workloads.analyze_argv(self.workload, ROOT, panel)
        base = self.work / "calls"
        res = self.worker({"mode": "analyze", "argv": argv, "out_base": str(base),
                           "seconds": self.seconds, "min_calls": MIN_CALLS,
                           "max_calls": MAX_CALLS, "setup": self.setup_job(panel)})
        failed = self.count_failed(res["problems"])
        self.merge_setup(res)
        self.samples["analyze_s"] = res["times"]
        self.samples["peak_rss_mb"] = [res["peak_rss_mb"]]
        first = base / "r000"
        raw = self.accuracy(first)
        raw.update(self.selftest(first))
        self.samples["solver_l1_digits"] = [-math.log10(raw["solver_l1_error"])]
        return len(res["times"]), failed, END_TO_END, raw

    def traced(self, panel: Path) -> tuple[int, int, dict, dict]:
        argv = workloads.analyze_argv(self.workload, ROOT, panel)
        base = self.work / "calls"
        spans = OUT / "spans" / f"{self.tag}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        res = self.worker({"mode": "trace", "argv": argv, "out_base": str(base),
                           "seconds": self.seconds, "spans": str(spans),
                           "setup": self.setup_job(panel)})
        rounds = res["rounds"]
        failed = self.count_failed(res["problems"])
        self.merge_setup(res)
        manifest = json.loads((base / "r000" / "manifest.json").read_bytes())
        raw = self.accuracy(base / "r000")
        self.samples["kde.truth_l1"] = [raw["ergodic_l1_vs_truth"]]
        self.samples["dynamics.solver_l1_error"] = [raw["solver_l1_error"]]
        counts = rounds[0]["counts"]
        if any(r["counts"] != counts for r in rounds):
            self.problem("replay counts differ between rounds")
        for stage in STAGES:
            self.samples[f"{stage}_s"] = [r["self_s"].get(stage, 0.0) for r in rounds]
        self.samples["cli.other_s"] = [
            r["untraced_s"] - sum(r["self_s"].get(s, 0.0) for s in STAGES) for r in rounds
        ]
        self.samples["trace.overhead_s"] = [r["traced_s"] - r["untraced_s"] for r in rounds]
        for key in ("panel.rows", "panel.pairs", "kde.joint_madds", "dynamics.ergodic_iterations",
                    "viz.bytes"):
            self.samples[key] = [counts[key]]
        self.samples["kde.supported_share"] = [counts["kde.supported_rows"] / counts["kde.rows"]]
        self.samples["cli.groups_failed"] = [
            sum(1 for g in manifest["groups"] if g["status"] != "ok")
        ]
        lines = {m: _line_count(ROOT / "src" / "distdyn" / f"{m}.py") for m in MODULES}
        self.samples["src.lines"] = [
            sum(_line_count(p) for p in (ROOT / "src" / "distdyn").glob("*.py"))
        ]
        for m, n in lines.items():
            self.samples[f"src.lines.{m}"] = [n]
        raw.update(self.selftest(base / "r000"))
        return len(rounds), failed, PER_LAYER, raw


def _line_count(path: Path) -> int:
    if not path.is_file():
        return 0
    return len(path.read_text(encoding="utf-8").splitlines())


def _summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def _git_revision() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "git_revision": _git_revision()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEMO_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    needed = [ROOT / "src" / "distdyn" / "__init__.py"]
    if workload.config is not None:
        needed.append(ROOT / workload.config)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True)
    try:
        panel = run.setup()
        step = run.traced if run.trace else run.timed
        attempted, failed, reported, raw = step(panel)
    except checks.CheckError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    metrics = {name: {"value": statistics.median(run.samples[name]), "unit": unit}
               for name, unit in reported.items()}
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": _machine(),
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "problems": run.problems, "accuracy": raw,
        "metrics": {name: {"unit": unit, "workload": workload.name, **_summary(run.samples[name])}
                    for name, unit in reported.items()},
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{run.tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, s in record["metrics"].items():
        print(f"{name:32s} {s['median']:.6g} {s['unit']} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    for name, value in raw.items():
        print(f"{name:32s} {value:.4g}")
    print(json.dumps({"correct": not run.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
