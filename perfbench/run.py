"""Benchmark of clocksched's transform -> emit -> verify path.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0

Runs one workload (`dense`, `stencil` or `sparse`, see README.md) in
this process, calling `clocksched.cli.main` in-process exactly as the
command line would, on input files made from `--seed`.  A first pass
checks every answer: each good job must verify, a deliberately broken
schedule must not, each schedule's arrays must equal a hand-written
reference, and each `sparse` listing must match the graph.  These
checks run in a forked child, so their memory is not the benchmark's
peak.  Then it repeats the jobs for `--seconds` seconds, and every
pass must reproduce the first pass's outputs byte for byte.

With `--trace 0` the last line of output holds the end-to-end metrics.
With `--trace 1` it alternates untraced passes with traced passes,
which run the same commands with a span around each command and
around every call it makes into a layer (see spans.py), and the last
line holds the per-layer metrics.  Either way a report with sample counts goes to
stdout first, and the full result, spans included, to
`.perfbench_runs/` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench_runs"

TRIALS = 10  # equivalence trials per `verify`, its default
IMPORT_PROBES = 11

IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from calibration import loop_seconds
before = loop_seconds()
start = time.perf_counter()
import clocksched.cli
seconds = time.perf_counter() - start
print(seconds, (before + loop_seconds()) / 2)
"""


def _use_checkout_source() -> None:
    """Import clocksched from this checkout's `src/`, and nowhere else."""
    if not (SRC / "clocksched" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no clocksched sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import clocksched

    if Path(clocksched.__file__).resolve().parent != SRC / "clocksched":
        raise SystemExit(f"perfbench: imported clocksched from {clocksched.__file__}")


_use_checkout_source()

from clocksched import cli  # noqa: E402

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


# ---------------------------------------------------------------------------
# statistics


def summary(values: list[float]) -> dict:
    """Median, sample count and the highest of p99/p95/p90/p75 that has
    at least ten samples above it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def import_seconds() -> list[tuple[float, float]]:
    """Time `import clocksched.cli` in fresh interpreters, one at a time,
    each with the calibration loop's time in that interpreter."""
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, loop = map(float, done.stdout.split())
        times.append((seconds, loop))
    return times


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


# ---------------------------------------------------------------------------
# one job through the command line


def call_cli(argv: list[str]) -> tuple[int | str, float, str]:
    """Exit code (or the exception's type name), seconds, stdout."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a library failure on valid input: counted, not fatal
        code = type(exc).__name__
    return code, time.perf_counter() - start, out.getvalue()


def digest(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


class Outcome:
    """What one job did in one pass: seconds per command, and either its
    outputs (a digest of each written file, `verify`'s stdout) or the
    reason it failed."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}  # calibrated
        self.wall: dict[str, float] = {}
        self.failure: str | None = None
        self.outputs: dict[str, str] = {}

    def signature(self) -> tuple:
        return (self.failure, self.outputs)


def job_steps(job, folder: Path, seed: int) -> list[tuple[str, list[str], Path | None]]:
    """(command, argv, file it writes) for each command the job runs."""
    if isinstance(job, wl.GraphJob):
        edges = folder / f"{job.graph}.edges"
        listing = folder / f"{job.name}.txt"
        return [("sparse", ["sparse", str(edges), *job.sparse_flags(), "-o", str(listing)], listing)]
    spec = folder / f"{job.name}.spec"
    doc = folder / f"{job.name}.json"
    text = folder / f"{job.name}.txt"
    return [
        ("transform", ["transform", str(spec), *job.transform_flags(), "-o", str(doc)], doc),
        ("emit", ["emit", str(doc), "-o", str(text)], text),
        ("verify", ["verify", str(doc), "--trials", str(TRIALS), "--seed", str(seed)], None),
    ]


def run_job(job, folder: Path, seed: int, cal: calibration.Calibrated,
            tracer: spans.Tracer | None = None) -> Outcome:
    """Run the job's commands through `clocksched.cli.main`.  With a
    tracer, each command is a `cmd.<command>` span, and the layer spans
    under it (see spans.py) come from the command's own calls."""
    result = Outcome()
    for command, argv, written in job_steps(job, folder, seed):
        first = len(tracer.spans) if tracer else 0
        with tracer.span(f"cmd.{command}") if tracer else contextlib.nullcontext():
            code, seconds, stdout = call_cli(argv)
        factor = cal.factor()
        if tracer:
            tracer.rescale(first, factor)
        result.wall[command] = seconds
        result.seconds[command] = seconds * factor
        if code == 1 and command == "verify":
            raise wl.Mismatch(f"{job.name}: verify rejected a good schedule:\n{stdout}")
        if code != 0:
            result.failure = f"{command}: {code if isinstance(code, str) else f'exit {code}'}"
            return result
        if tracer and command == "transform":
            tracer.count("emit.json_bytes", written.stat().st_size)
        result.outputs[command] = digest(written) if written else stdout
    if "verify" in result.outputs and "verdict: pass" not in result.outputs["verify"].splitlines():
        raise wl.Mismatch(f"{job.name}: verify exited 0 without 'verdict: pass'")
    return result


def in_child(check: Callable[[], None]) -> None:
    """Run `check` in a forked child and wait for it, so the memory the
    benchmark's own checks take stays out of this process's peak RSS.
    The child's Mismatch, or any other exception, is raised here."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report through the pipe, never return
        os.close(read)
        code = 0
        try:
            check()
        except BaseException as exc:  # every failure goes to the parent
            os.write(write, f"{type(exc).__name__}: {exc}".encode()[:60_000])
            code = 1
        os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        message = pipe.read().decode(errors="replace")
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise wl.Mismatch(message or f"check ended with status {status}")


def check_known_answers(job, folder: Path, seed: int) -> None:
    """The known-answer checks on the files the job's first pass wrote."""
    if isinstance(job, wl.GraphJob):
        listing = (folder / f"{job.name}.txt").read_text()
        wl.check_listing(job, wl.graph_edges(job.graph, seed), listing)
        return
    doc = json.loads((folder / f"{job.name}.json").read_text())
    wl.check_arrays(job, doc, seed)
    bad = folder / f"{job.name}.broken.json"
    bad.write_text(json.dumps(wl.broken_schedule(doc)))
    code, _, stdout = call_cli(["verify", str(bad), "--seed", str(seed)])
    if code != 1 or "verdict: FAIL" not in stdout.splitlines():
        raise wl.Mismatch(f"{job.name}: a schedule missing points got {code!r}:\n{stdout}")


# ---------------------------------------------------------------------------
# the run


class Run:
    def __init__(self, workload: str, seed: int, folder: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.folder = folder
        self.jobs = wl.jobs_of(workload)
        wl.write_inputs(workload, seed, folder)
        self.expected: list[Outcome] = []
        self.attempted = 0
        self.failed = 0
        self.passes: list[dict] = []  # untraced, measured
        self.traced: list[dict] = []
        self.path_probe: str | None = None  # `sparse` only: "ok" or the failure
        self.rss_before_mb = 0.0  # peak RSS before the first command
        self.cal = calibration.Calibrated()

    def first_pass(self) -> None:
        self.rss_before_mb = peak_rss_mb()
        for job in self.jobs:
            outcome = run_job(job, self.folder, self.seed, self.cal)
            if outcome.failure is None:
                in_child(lambda: check_known_answers(job, self.folder, self.seed))
            self.expected.append(outcome)
        if self.workload == "sparse":
            probe = run_job(wl.PATH_PROBE, self.folder, self.seed, self.cal)
            if probe.failure is None:
                in_child(lambda: check_known_answers(wl.PATH_PROBE, self.folder, self.seed))
            self.path_probe = probe.failure or "ok"
        gc.collect()

    def untraced_pass(self) -> None:
        seconds: dict[str, float] = {}
        calls = []  # [wall, calibrated] seconds of each command
        wall = 0.0
        points = failed = 0
        for job, want in zip(self.jobs, self.expected):
            outcome = run_job(job, self.folder, self.seed, self.cal)
            if outcome.signature() != want.signature():
                raise wl.Mismatch(f"{job.name}: output differs from the first pass")
            for name, s in outcome.seconds.items():
                seconds[name] = seconds.get(name, 0.0) + s
            wall += sum(outcome.wall.values())
            calls += [[outcome.wall[c], outcome.seconds[c]] for c in outcome.wall]
            if outcome.failure is None:
                points += job.points
            else:
                failed += 1
        self.attempted += len(self.jobs)
        self.failed += failed
        total = sum(seconds.values())
        self.passes.append({
            "seconds": total,
            "wall_s": wall,
            "points_per_s": points / total,
            "points_per_wall_s": points / wall,
            "transform_s": seconds.get("transform", 0.0) + seconds.get("emit", 0.0),
            "verify_s": seconds.get("verify", 0.0),
            "sparse_s": seconds.get("sparse", 0.0),
            "failed_share": failed / len(self.jobs),
            "loop_s": self.cal.last,
            "calls": calls,
        })

    def traced_pass(self, tracer: spans.Tracer) -> None:
        first = len(tracer.spans)
        tracer.counts.clear()
        with spans.traced(tracer):
            for job, want in zip(self.jobs, self.expected):
                outcome = run_job(job, self.folder, self.seed, self.cal, tracer)
                if outcome.signature() != want.signature():
                    raise wl.Mismatch(f"{job.name}: traced output differs from the first pass")
        self_times = {**dict.fromkeys(spans.SPAN_NAMES, 0.0), **tracer.self_times(first)}
        self.traced.append({
            "seconds": sum(self_times.values()),
            **{f"{name}_s": s for name, s in self_times.items()},
            **{name: tracer.counts[name] for name in spans.COUNT_NAMES},
        })


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def measure(run: Run, seconds: float, trace: bool) -> spans.Tracer | None:
    """Repeat passes for `seconds`; with tracing, each round holds one
    untraced and one traced pass, and which goes first alternates."""
    tracer = spans.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        if trace and len(run.passes) % 2:
            run.traced_pass(tracer)
            run.untraced_pass()
        else:
            run.untraced_pass()
            if trace:
                run.traced_pass(tracer)
        if time.perf_counter() - start >= seconds:
            return tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_seconds(probes: list[tuple[float, float]]) -> list[float]:
    return [s * calibration.REFERENCE_S / loop for s, loop in probes]


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> dict:
    return {
        "points_per_s": (median_of(run.passes, "points_per_s"), "points/s"),
        "setup_s": (statistics.median(setup_seconds(setup)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(run: Run) -> dict:
    metrics = {
        "transform_s": (median_of(run.passes, "transform_s"), "s"),
        "verify_s": (median_of(run.passes, "verify_s"), "s"),
        "failed_share": (median_of(run.passes, "failed_share"), "share"),
        "path_probe_failed": (int(run.path_probe not in (None, "ok")), "count"),
        "trace.overhead_s": (
            median_of(run.traced, "seconds") - median_of(run.passes, "seconds"), "s"
        ),
    }
    for name in spans.SPAN_NAMES:
        metrics[f"{name}_s"] = (median_of(run.traced, f"{name}_s"), "s")
    for name in spans.COUNT_NAMES:
        metrics[name] = (median_of(run.traced, name), "count")
    return metrics


def report(run: Run, setup: list[tuple[float, float]], trace: bool, meta: dict) -> list[str]:
    lines = [
        "clocksched perfbench: "
        + "  ".join(f"{k} {v}" for k, v in meta.items()),
        f"passes: {len(run.passes)} untraced, {len(run.traced)} traced;"
        f" jobs: {run.attempted} attempted, {run.failed} failed"
        f" (failed_share {run.failed / run.attempted:.3f})",
        f"peak_rss_mb before the first command: {run.rss_before_mb:.1f}",
    ]
    if run.path_probe is not None:
        lines.append(f"path graph ({wl.PATH_VERTICES} vertices, run once, not counted):"
                     f" {run.path_probe}")
    series = {
        "points_per_s": ([p["points_per_s"] for p in run.passes], "points/s"),
        "transform_s": ([p["transform_s"] for p in run.passes], "s/pass"),
        "verify_s": ([p["verify_s"] for p in run.passes], "s/pass"),
        "sparse_s": ([p["sparse_s"] for p in run.passes], "s/pass"),
        "pass_s": ([p["seconds"] for p in run.passes], "s"),
        "setup_s": (setup_seconds(setup), "s"),
        "wall points_per_s": ([p["points_per_wall_s"] for p in run.passes], "points/s"),
        "wall pass_s": ([p["wall_s"] for p in run.passes], "s"),
        "wall setup_s": ([s for s, _ in setup], "s"),
        "loop_s": ([p["loop_s"] for p in run.passes], "s"),
    }
    if trace:
        series["traced_pass_s"] = ([p["seconds"] for p in run.traced], "s")
    for name, (values, unit) in series.items():
        if not values:
            continue
        stats = summary(values)
        extra = "".join(f"  {k} {v:.6g}" for k, v in stats.items() if k.startswith("p"))
        lines.append(f"  {name:<16} median {stats['median']:.6g} {unit}  n {stats['n']}{extra}")
    if trace:
        lines.append("  layer self time per traced pass (median, s), then counts:")
        for name in spans.SPAN_NAMES:
            value = median_of(run.traced, f"{name}_s")
            if value:
                lines.append(f"    {name:<34} {value:.6f}")
        for name in spans.COUNT_NAMES:
            value = median_of(run.traced, name)
            if value:
                lines.append(f"    {name:<34} {value:g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup = import_seconds()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
    }
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as folder:
        run = Run(args.workload, args.seed, Path(folder))
        try:
            run.first_pass()
            tracer = measure(run, args.seconds, bool(args.trace))
        except wl.Mismatch as exc:
            print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                              "failed": run.failed, "metrics": {}}))
            return 1
    metrics = per_layer(run) if args.trace else end_to_end(run, setup)
    lines = report(run, setup, bool(args.trace), meta)
    result = {
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {**meta, **result, "setup": setup, "rss_before_mb": run.rss_before_mb,
              "path_probe": run.path_probe, "passes": run.passes, "traced": run.traced}
    if tracer is not None:
        record["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
