"""Worker process of the benchmark: everything that imports distdyn runs here.

Usage: python3 bench/worker.py '<job as JSON>'

The job's "mode" is one of
  setup    time `import distdyn` and the generation of the input panel,
           write the panel CSV;
  analyze  call `distdyn.cli.main` back to back until the time is used up
           (closed loop, one call at a time), each call into its own
           output directory, checked between calls;
  trace    alternate an untraced CLI call with the traced replay
           (replay.py), and check the replay's bytes against the CLI's.
In analyze and trace mode, setup samples (each a fresh interpreter in
setup mode) are taken between the calls. The result is printed as one JSON
line on stdout. Only the stdlib is imported at module level, so that setup
mode times the whole import of distdyn and numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Setup samples between timed calls take, in sum, this share of the calls'
# time (at least one sample per call). Spread through the timed loop, they
# see the same drift of the machine's speed as the calls do.
SETUP_SHARE = 0.15


def spawn(job: dict, timeout: float) -> dict:
    """Run one job in a fresh interpreter and return its result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), json.dumps(job)],
        cwd=job["root"], capture_output=True, text=True, timeout=max(1.0, timeout),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {job['mode']} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _import_distdyn(root: Path) -> float:
    """Import distdyn from the checkout's src/; returns the import time."""
    src = root / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import distdyn

    elapsed = time.perf_counter() - t0
    if Path(distdyn.__file__).resolve().parent != (src / "distdyn").resolve():
        raise SystemExit(f"imported distdyn from {distdyn.__file__}, not from {src}")
    return elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call_cli(argv: list[str]) -> tuple[int, float]:
    """One `distdyn analyze` call, timed; a crash counts as exit code -1."""
    from distdyn import cli

    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - t0


def do_setup(job: dict, root: Path) -> dict:
    t0 = time.perf_counter()
    import_s = _import_distdyn(root)
    import workloads
    from distdyn import dump_panel

    spec = workloads.process_spec(job["process"], job["seed"])
    t1 = time.perf_counter()
    panel = workloads.build_panel(spec)
    t2 = time.perf_counter()
    data = dump_panel(panel)
    t3 = time.perf_counter()
    Path(job["out"]).write_bytes(data)
    return {"setup_s": time.perf_counter() - t0, "import_s": import_s,
            "synthesis.simulate_s": t2 - t1, "panel.dump_s": t3 - t2}


class CallOutputs:
    """Checks each call's output directory as soon as the call returns.

    Directories after the first are then deleted, so a run keeps at most
    two calls' output on disk however many calls it makes.
    """

    def __init__(self, out_base: Path):
        self.out_base = out_base
        self.reference: bytes | None = None
        self.problems: list[list[str]] = []

    def next_dir(self) -> Path:
        return self.out_base / f"r{len(self.problems):03d}"

    def check(self, out: Path, code: int, extra: list[str] = ()) -> None:
        import checks  # not at module level: it loads numpy, which setup times

        problems = checks.check_output(out, code, self.reference) + list(extra)
        if self.reference is None and (out / "manifest.json").is_file():
            self.reference = (out / "manifest.json").read_bytes()
        if self.problems:
            shutil.rmtree(out, ignore_errors=True)
        self.problems.append(problems)


class SetupSampler:
    """Setup samples taken between the timed calls.

    Each sample generates the run's input panel again in a fresh
    interpreter; its bytes must equal the panel the calls read. A job
    without a "setup" entry takes no samples.
    """

    def __init__(self, job: dict | None, deadline: float):
        self.job = job
        self.deadline = deadline
        self.samples: dict[str, list[float]] = {}
        self.problems: list[str] = []

    def after_call(self, calls_s: float) -> None:
        """Sample until the samples' time is SETUP_SHARE of ``calls_s``."""
        if self.job is None:
            return
        panel = Path(self.job["out"])
        copy = panel.with_name("panel-sample.csv")
        taken = 0
        while taken == 0 or sum(self.samples["setup_s"]) < SETUP_SHARE * calls_s:
            res = spawn({**self.job, "mode": "setup", "out": str(copy)},
                        self.deadline - time.monotonic())
            for key, value in res.items():
                self.samples.setdefault(key, []).append(value)
            if copy.read_bytes() != panel.read_bytes():
                self.problems.append("input generation is not deterministic")
            copy.unlink()
            taken += 1


def do_analyze(job: dict, root: Path) -> dict:
    _import_distdyn(root)
    outputs = CallOutputs(Path(job["out_base"]))
    setup = SetupSampler(job.get("setup"), time.monotonic() + job["timeout"])
    times = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        out = outputs.next_dir()
        code, elapsed = _call_cli(job["argv"] + ["--out-dir", str(out)])
        times.append(elapsed)
        if peak_rss_mb is None:
            # Peak of a process that has run one call; later calls add
            # allocator fragmentation that depends on how many ran.
            peak_rss_mb = _peak_rss_mb()
        outputs.check(out, code)
        setup.after_call(sum(times))
        used = time.perf_counter() - start
        if len(times) >= job["max_calls"]:
            break
        if len(times) >= job["min_calls"] and used + used / len(times) > job["seconds"]:
            break
    return {"times": times, "problems": outputs.problems, "peak_rss_mb": peak_rss_mb,
            "setup_samples": setup.samples, "setup_problems": setup.problems}


def do_trace(job: dict, root: Path) -> dict:
    _import_distdyn(root)
    import replay

    cfg = replay.config_for(job["argv"])
    tr = replay.Tracer()
    outputs = CallOutputs(Path(job["out_base"]))
    setup = SetupSampler(job.get("setup"), time.monotonic() + job["timeout"])
    rounds = []
    start = time.perf_counter()
    while True:
        out = outputs.next_dir()
        code, untraced = _call_cli(job["argv"] + ["--out-dir", str(out)])
        tr.run = len(rounds)
        t0 = time.perf_counter()
        files, counts = replay.replay(cfg, tr)
        traced_total = time.perf_counter() - t0
        differ = sorted(
            name for name, data in files.items()
            if not (out / name).is_file() or (out / name).read_bytes() != data
        )
        written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        differ += sorted(written - set(files) - {"manifest.json"})
        mismatch = [f"traced replay differs from the CLI's files: {differ}"] if differ else []
        outputs.check(out, code, mismatch)
        rounds.append({"untraced_s": untraced, "traced_s": traced_total,
                       "self_s": tr.self_times(tr.run), "counts": counts})
        setup.after_call(sum(r["untraced_s"] + r["traced_s"] for r in rounds))
        used = time.perf_counter() - start
        if used + used / len(rounds) > job["seconds"]:
            break
    Path(job["spans"]).write_text(json.dumps(tr.spans), encoding="utf-8")
    return {"rounds": rounds, "problems": outputs.problems,
            "setup_samples": setup.samples, "setup_problems": setup.problems}


MODES = {"setup": do_setup, "analyze": do_analyze, "trace": do_trace}


def main() -> int:
    job = json.loads(sys.argv[1])
    root = Path(job["root"])
    result = MODES[job["mode"]](job, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
