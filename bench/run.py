"""Benchmark runner for relaxmdim.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a source checkout: the program is imported from ``src/``. One
closed-loop client runs the workload's jobs one after another, with at most
one child process at a time, in whole passes: at least one, and another
while it would still end within ``--seconds``. The last line of stdout is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); a
readable report goes to stderr.

``--trace 0`` runs every job in a child process (``python -m relaxmdim.cli``,
or ``bench/workloads.py`` for the library job) and reports the end-to-end
metrics. ``--trace 1`` runs the same jobs in this process, through
``relaxmdim.cli.main`` and the library calls, each job three times in a row:
with every public function wrapped, without wrappers (the reference) and
wrapped again, and reports the per-layer metrics and the tracing overhead.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from tracing import DETERMINISTIC, TRACED, Tracer, instrumented, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
OUT_ROOT = ROOT / ".bench_out"

DEFAULT_SEED = 0
IMPORT_REPEATS = 3
# set-up is timed in slices, before the first job and after every job: each
# slice repeats it in this process for this long (at least once), and setup_s
# is the median of every repetition of the run
SETUP_SLICE_S = 0.4
JOB_TIMEOUT_S = 170.0
# nproc is 2: cap BLAS/OpenMP pools so no job oversubscribes the machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
CLI_COMMANDS = ("two-step", "sweep", "mdim", "stats")
JOB_COMMANDS = CLI_COMMANDS + ("density",)
IMPORT_CLI = "import relaxmdim.cli"

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units: dict[str, str] = {}
    for layer, names in TRACED.items():
        for name in names:
            units[f"{layer}.{name}.s"] = "s"
            units[f"{layer}.{name}.calls"] = "count"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.s"] = "s"
        units[f"cli.{command}.calls"] = "count"
    units.update({
        "greedy.rounds": "count",
        "greedy.initial_pairs": "count",
        "greedy.within_targets": "count",
        "graph.apsp_result_mb": "MB",
        "graph.peel_rounds": "count",
        "localization.phase2_classes": "count",
        "trees.md_sum": "count",
        "cli.out_bytes": "bytes",
        "cli.import_s": "s",
    })
    units.update({f"cmd.{command}_s": "s" for command in JOB_COMMANDS})
    units.update({"mc.trees_per_s": "1/s", "exact_tree_s": "s", "trace.overhead_pct": "%", "trace.pass_spread_pct": "%"})
    return units


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update({var: "2" for var in THREAD_VARS})
    return env


def run_child(argv: list[str], logs: Path) -> ChildResult:
    """Run one child to completion and return its exit code, wall time and
    peak RSS (``os.wait4``); it is killed after ``JOB_TIMEOUT_S``."""
    with open(logs / "stdout.log", "wb") as out, open(logs / "stderr.log", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, (logs / "stderr.log").read_text(errors="replace"))


def python_child(code: str, logs: Path) -> ChildResult:
    result = run_child([sys.executable, "-c", code], logs)
    if result.returncode != 0:
        raise RuntimeError(f"{code!r} failed:\n{result.stderr}")
    return result


def child_argv(job) -> list[str]:
    if job.command == "density":
        return [sys.executable, str(BENCH / "workloads.py"), *job.argv[1:]]
    return [sys.executable, "-m", "relaxmdim.cli", *job.argv]


def load_expected(workload: str, seed: int) -> dict:
    """Committed outputs for the default seed; empty for any other seed."""
    if seed != DEFAULT_SEED or not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text()).get(workload, {})


def verify_job(job, returncode: int, out: Path, seen: dict, expected: dict) -> list[str]:
    """Errors of one finished job: a non-zero exit, failed content checks,
    and outputs that differ from the same job's first pass in this run or,
    on the default seed, from the committed ones. ``seen`` collects the
    first-pass outputs: result digests, and md lists of the library job."""
    from workloads import check_job_outputs, digest

    if returncode != 0:
        return [f"exit code {returncode}"]
    if job.command == "density":
        try:
            result = json.loads((out / job.outputs[0]).read_text())
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc!r}"]
        return verify_density(result, seen, expected)
    errors = check_job_outputs(job, out)
    if errors:
        return errors
    for name in job.outputs:
        value = digest(out / name)
        if seen.setdefault(name, value) != value:
            errors.append(f"{name} differs between passes")
        if name in expected and expected[name] != value:
            errors.append(f"{name} differs from the committed digest (now {value})")
    return errors


def verify_density(result: dict, seen: dict, expected: dict) -> list[str]:
    """Errors of one tree-density result, one per failed solve or check: its
    own checks, and md values that differ from the first pass or, on the
    default seed, from the committed lists."""
    errors = list(result["errors"])
    for key, values in result["md"].items():
        key = f"md.{key}"
        for source, reference in (("first pass", seen.setdefault(key, values)), ("committed", expected.get(key))):
            if reference is not None and values != reference:
                bad = sum(a != b for a, b in zip(values, reference)) + abs(len(values) - len(reference))
                errors += [f"{key}: md differs from the {source} list"] * bad
    return errors


def passes(seconds: float):
    """Count passes: always one, then another while one more of the last
    pass's length would still end within ``seconds``."""
    started = last = time.perf_counter()
    count = 0
    while True:
        yield count
        count += 1
        now = time.perf_counter()
        if now - started + (now - last) > seconds:
            return
        last = now


class Run:
    """State of one benchmark run: workload, seed, scratch directories, the
    first-pass outputs and the attempted/failed tally."""

    def __init__(self, workload, seed: int, seconds: float, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.logs = work
        self.expected = load_expected(workload.name, seed)
        self.attempted = 0
        self.failed = 0
        self.seen: dict = {}
        self.errors: list[str] = []
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(exist_ok=True)
        self.jobs = workload.jobs(seed, self.inputs, self.out)

    def finish_job(self, job, returncode: int) -> None:
        errors = verify_job(job, returncode, self.out, self.seen, self.expected.get("outputs", {}))
        self.attempted += job.operations
        self.failed += min(len(errors), job.operations)
        self.errors.extend(f"{job.id}: {error}" for error in errors)

    def density_timing(self) -> dict[str, float]:
        """Timings the library job measured in its last run, if it has one."""
        path = self.out / "tree-density.json"
        return json.loads(path.read_text())["timing"] if path.exists() else {}

    def setup_slice(self) -> list[float]:
        """Times of one slice of set-ups (generating and writing the inputs,
        the same bytes every time), repeated in this process for
        ``SETUP_SLICE_S``. Runs take a slice before the first job and after
        every job, so the median covers the host's speed over the whole run,
        not over one burst: on a shared host it drifts by tens of percent
        within seconds. The CLI's import is not set-up: every job pays it,
        and the traced run reports it as ``cli.import_s``."""
        samples: list[float] = []
        started = time.perf_counter()
        while not samples or time.perf_counter() - started < SETUP_SLICE_S:
            begun = time.perf_counter()
            self.workload.setup(self.seed, self.inputs)
            samples.append(time.perf_counter() - begun)
        return samples

    # -- untraced: child processes --------------------------------------

    def untraced(self) -> dict[str, float]:
        setups = self.setup_slice()
        walls: dict[str, list[float]] = {}
        timings: list[dict[str, float]] = []
        peak = 0.0
        for _ in passes(self.seconds):
            for job in self.jobs:
                child = run_child(child_argv(job), self.logs)
                walls.setdefault(job.id, []).append(child.wall_s)
                peak = max(peak, child.maxrss_mb)
                self.finish_job(job, child.returncode)
                if child.returncode != 0:
                    self.errors.append(f"{job.id}: {child.stderr.strip()}")
                setups += self.setup_slice()
            timings.append(self.density_timing())
        medians = {job_id: statistics.median(values) for job_id, values in walls.items()}
        for command in JOB_COMMANDS:
            report(f"cmd.{command}_s", sum(medians[job.id] for job in self.jobs if job.command == command), "s")
        for name in timings[0]:
            report(name, statistics.median(t[name] for t in timings), per_layer_units()[name])
        report("passes", len(timings), "count")
        # the "outputs" entry of expected.json, for a deliberate change of outputs
        print(f"  outputs {json.dumps(self.seen, sort_keys=True)}", file=sys.stderr)
        report("set-up repetitions", len(setups), "count")
        return {"wall_s": sum(medians.values()), "peak_rss_mb": peak, "setup_s": statistics.median(setups)}

    # -- traced: in-process, public functions wrapped --------------------

    def inprocess_job(self, job, tracer) -> float:
        """Run one job in this process, with every public function wrapped
        if a tracer is given; returns its wall time."""
        from relaxmdim import cli
        import workloads

        if tracer:
            tracer.job = job.id
        started = time.perf_counter()
        with instrumented(tracer) if tracer else nullcontext():
            try:
                if job.command == "density":
                    rc = workloads.density_main(list(job.argv[1:]))
                elif tracer:
                    with tracer.span(f"cli.{job.command}"):
                        rc = cli.main(list(job.argv))
                else:
                    rc = cli.main(list(job.argv))
            except Exception:  # a crashing job is a failed operation, not a crashed benchmark
                traceback.print_exc()
                rc = -1
        wall = time.perf_counter() - started
        self.finish_job(job, rc)
        if tracer and rc == 0 and job.command != "density":
            tracer.counters["cli.out_bytes"] += sum((self.out / name).stat().st_size for name in job.outputs)
        return wall

    def traced(self) -> dict[str, float]:
        import_s = statistics.median(python_child(IMPORT_CLI, self.logs).wall_s for _ in range(IMPORT_REPEATS))
        setup = Tracer()
        setup.job = "setup"
        with instrumented(setup):
            self.workload.setup(self.seed, self.inputs)
        tracers: list[Tracer] = []
        walls: list[float] = []  # one per traced pass
        references: list[tuple[float, dict[str, float]]] = []  # wall and timings per reference pass
        for _ in passes(self.seconds):
            # each job runs traced, untraced, traced before the next starts,
            # so a drift of the host's speed weighs on both sides of the
            # overhead alike
            block = [Tracer(), None, Tracer()]
            block_walls = [0.0] * len(block)
            timings: dict[str, float] = {}
            for job in self.jobs:
                for i, tracer in enumerate(block):
                    wall = self.inprocess_job(job, tracer)
                    block_walls[i] += wall
                    if tracer is None:
                        key = f"cmd.{job.command}_s"
                        timings[key] = timings.get(key, 0.0) + wall
                        if job.command == "density":
                            timings.update(self.density_timing())
            tracers += [block[0], block[2]]
            walls += [block_walls[0], block_walls[2]]
            references.append((block_walls[1], timings))
        reference_wall = statistics.median(wall for wall, _ in references)
        reference = {name: statistics.median(t[name] for _, t in references) for name in references[0][1]}
        write_spans([setup, *tracers], self.workload.name, self.seed)

        per_pass = [layer_metrics(t) for t in tracers]
        for name in DETERMINISTIC:
            values = {m.get(name, 0) for m in per_pass}
            if len(values) > 1:
                self.errors.append(f"counter {name} differs between passes: {sorted(values)}")
        counters = {name: per_pass[0].get(name, 0) for name in DETERMINISTIC}
        for name, value in self.expected.get("counters", {}).items():
            if counters.get(name) != value:
                self.errors.append(f"counter {name} = {counters.get(name)}, committed {value}")

        setup_metrics = layer_metrics(setup)
        metrics = {}
        for name in per_layer_units():
            values = [m.get(name, 0) for m in per_pass]
            metrics[name] = statistics.median(values) + setup_metrics.get(name, 0)
        metrics.update({name: reference.get(name, 0.0) for name in metrics if name.startswith(("cmd.", "mc.", "exact_tree"))})
        metrics["cli.import_s"] = import_s
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(walls) / reference_wall - 1.0)
        # the same work timed twice or more: an overhead within this is noise
        metrics["trace.pass_spread_pct"] = 100.0 * (max(walls) - min(walls)) / statistics.median(walls)
        for name, job_id in self.workload.bypass:
            calls = sum(s.name == name and job_id in (None, s.job) for t in tracers for s in t.spans)
            where = f"job {job_id}" if job_id else "every job"
            report(f"bypass {name} ({where})", calls, "calls, must be 0")
            if calls:
                self.errors.append(f"bypass check failed: {calls} calls of {name} in {where}")
        report("reference pass", reference_wall, "s")
        report("traced passes", len(tracers), "count")
        return metrics


def write_spans(tracers, workload: str, seed: int) -> None:
    """Write every span of the run as JSON (start/end relative to the first)."""
    spans = [s for t in tracers for s in t.spans]
    origin = min((s.start for s in spans), default=0.0)
    rows = [
        {"pass": p, "name": s.name, "start": s.start - origin, "end": s.end - origin, "parent": s.parent, "job": s.job}
        for p, t in enumerate(tracers)
        for s in t.spans
    ]
    (OUT_ROOT / f"spans-{workload}-s{seed}.json").write_text(json.dumps(rows))


def report(name: str, value, unit: str) -> None:
    print(f"  {name:<52} {value!s:>22} {unit}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relaxmdim" / "__init__.py").is_file():
        print(f"error: no relaxmdim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update({var: "2" for var in THREAD_VARS})  # before numpy loads
    # on SIGTERM, unwind through run_child so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    import relaxmdim
    import relaxmdim.cli  # loaded before any wrapping, so its by-name imports get wrapped too
    from workloads import WORKLOADS

    if Path(relaxmdim.__file__).resolve().parent != SRC / "relaxmdim":
        print(f"error: imported relaxmdim from {relaxmdim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work = OUT_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, work)
    print(f"{args.workload} seed={args.seed} trace={args.trace}", file=sys.stderr)
    try:
        values = run.traced() if args.trace else run.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = per_layer_units() if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        report(name, metric["value"], metric["unit"])
    report("attempted", run.attempted, "")
    report("failed", run.failed, "")
    for error in run.errors:
        print(f"  error: {error}", file=sys.stderr)
    result = {"correct": not run.errors and run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
