"""The benchmark's workloads: seeded inputs, job lists and output checks.

Set-up writes seeded edge lists; the jobs are CLI commands on them, plus, in
``tree-cli``, the ``tree-density`` library job, which samples conditioned
branching trees and solves them through public calls. Every generator seed
is derived from the workload seed, so one seed fixes every input. Library
calls go through module attributes (``generators.ba_tree``, not a bound
name) so that the traced run's wrappers see them.

Run as a script, this module is the ``tree-density`` job's child process:
``python bench/workloads.py --seed S --out FILE``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from relaxmdim import generators, graph, gw, trees
from relaxmdim.localization import SWEEP_CSV_HEADER

# tree-density sizes: 24 conditioned Poisson(1) trees per r, then one large
# uniform tree solved at several k.
DENSITY_N = 5000
DENSITY_REPS = 24
DENSITY_R_MAX = 3
DENSITY_TREES = (DENSITY_R_MAX + 1) * DENSITY_REPS
UNIFORM_N = 100_000
UNIFORM_KS = (0, 2, 4, 8, 16)
# A sample mean of MD_2r/n must lie within this many standard errors (plus a
# finite-size allowance) of the closed-form limit; at n = 5000 the bias is a
# few 1e-4 and the standard error 2e-4 to 6e-4.
DENSITY_Z = 4.0
DENSITY_SLACK = 1e-3


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit generator seed determined by the workload seed and a tag."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def write_edge_list(path: Path, g: graph.Graph) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges()), encoding="utf-8")


@dataclass(frozen=True)
class Job:
    """One timed job. ``argv`` follows ``relaxmdim`` on the command line, or
    is ``("density", "--seed", S, "--out", FILE)`` for the library job.
    ``outputs`` are the result files it writes into the output directory
    (manifests excluded); ``operations`` counts what may fail: one CLI run,
    or each tree solve of the library job."""

    id: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    operations: int = 1

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    # setup(seed, inputs_dir) writes the input files
    setup: Callable[[int, Path], None]
    # jobs(seed, inputs_dir, out_dir) lists the timed jobs in run order
    jobs: Callable[[int, Path, Path], list[Job]]
    # bypass checks: (span name, job id or None for every job) that must make no call
    bypass: tuple[tuple[str, str | None], ...]


def _setup_greedy(seed: int, inputs: Path) -> None:
    write_edge_list(inputs / "ba.txt", generators.ba_tree(800, derive_seed(seed, "ba")))
    write_edge_list(
        inputs / "cm.txt", generators.configuration_model(800, derive_seed(seed, "cm"))
    )
    # the largest component keeps every seed's input connected
    g, _ = graph.largest_connected_component(
        generators.rgg(800, 1.5, derive_seed(seed, "rgg"))
    )
    write_edge_list(inputs / "rgg.txt", g)


def _jobs_greedy(seed: int, inputs: Path, out: Path) -> list[Job]:
    def two_step(name: str) -> Job:
        return Job(
            f"two-step-{name}",
            ("two-step", str(inputs / f"{name}.txt"), "--k-max", "4", "--out", str(out / f"two-step-{name}")),
            (f"two-step-{name}.csv", f"two-step-{name}.json"),
        )

    return [
        two_step("ba"),
        two_step("cm"),
        two_step("rgg"),
        Job(
            "sweep-cm",
            ("sweep", str(inputs / "cm.txt"), "--method", "greedy", "--k-max", "6",
             "--out", str(out / "sweep-cm.csv")),
            ("sweep-cm.csv",),
        ),
    ]


def _setup_tree_cli(seed: int, inputs: Path) -> None:
    write_edge_list(inputs / "uniform.txt", generators.uniform_tree(5000, derive_seed(seed, "uniform")))
    tree = generators.gw_tree_conditioned(
        5000, gw.OffspringDistribution.poisson(1.0), derive_seed(seed, "gw")
    )
    write_edge_list(inputs / "gw.txt", tree.graph)
    write_edge_list(inputs / "rgg.txt", generators.rgg(5000, 1.5, derive_seed(seed, "rgg")))


def _jobs_tree_cli(seed: int, inputs: Path, out: Path) -> list[Job]:
    uniform = str(inputs / "uniform.txt")

    def job(job_id: str, *argv: str, ext: str = "json") -> Job:
        name = f"{job_id}.{ext}"
        return Job(job_id, (*argv, "--out", str(out / name)), (name,))

    return [
        job("stats-uniform", "stats", uniform),
        job("mdim-uniform-k2", "mdim", uniform, "--method", "exact-tree", "--k", "2"),
        job("sweep-uniform", "sweep", uniform, "--method", "exact-tree", "--k-max", "8", ext="csv"),
        job("mdim-gw-k6", "mdim", str(inputs / "gw.txt"), "--method", "exact-tree", "--k", "6"),
        job("stats-rgg-lcc", "stats", str(inputs / "rgg.txt"), "--lcc"),
        Job(
            "tree-density",
            ("density", "--seed", str(seed), "--out", str(out / "tree-density.json")),
            ("tree-density.json",),
            DENSITY_TREES + len(UNIFORM_KS),
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("greedy-localize", _setup_greedy, _jobs_greedy, ()),
        Workload(
            "tree-cli",
            _setup_tree_cli,
            _jobs_tree_cli,
            (
                ("greedy.greedy_k_resolving_set", None),
                ("greedy.greedy_resolve_within", None),
                ("graph.all_pairs_distances", "tree-density"),
            ),
        ),
    )
}


def check_job_outputs(job: Job, out: Path) -> list[str]:
    """Content checks on a finished CLI job's result files; returns the errors."""
    try:
        if job.command == "mdim":
            payload = json.loads((out / job.outputs[0]).read_text())
            if payload.get("verified") is not True:
                return ["witness not verified"]
            if len(payload["witness"]) != payload["md"]:
                return ["witness size differs from md"]
        elif job.command == "stats":
            payload = json.loads((out / job.outputs[0]).read_text())
            if payload.get("schema") != "relaxmdim/stats/1" or payload["n"] < 1:
                return ["malformed stats"]
        elif job.command == "sweep":
            lines = (out / job.outputs[0]).read_text().splitlines()
            k_max = int(job.argv[job.argv.index("--k-max") + 1])
            if lines[0] != SWEEP_CSV_HEADER or [int(x.split(",")[0]) for x in lines[1:]] != list(range(k_max + 1)):
                return ["malformed sweep csv"]
        elif job.command == "two-step":
            rows = list(csv.DictReader((out / job.outputs[0]).read_text().splitlines()))
            results = json.loads((out / job.outputs[1]).read_text())["results"]
            if len(rows) != len(results):
                return ["csv and json disagree"]
            for row, res in zip(rows, results):
                if (
                    res["phase1_size"] != len(res["phase1"])
                    or res["qstar"] != res["phase1_size"] + res["max_s2"]
                    or int(row["qstar"]) != res["qstar"]
                    or int(row["k"]) != res["k"]
                ):
                    return [f"inconsistent two-step result at k={res['k']}"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    return []


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def density_pass(seed: int) -> dict:
    """The tree-density job: md lists, the errors found (witness sizes,
    densities against the closed form) and its timings."""
    xi = gw.OffspringDistribution.poisson(1.0)
    errors = []
    md: dict[str, list[int]] = {}
    started = time.perf_counter()
    for r in range(DENSITY_R_MAX + 1):
        base = derive_seed(seed, f"gw-r{r}")
        row = []
        for i in range(DENSITY_REPS):
            tree = generators.gw_tree_conditioned(DENSITY_N, xi, base + i)
            report = trees.exact_tree_md(tree.graph, 2 * r)
            if len(report.witness) != report.md:
                errors.append(f"r={r} replicate {i}: witness size differs from md")
            row.append(report.md)
        md[f"r{r}"] = row
    mc_s = time.perf_counter() - started
    uniform = generators.uniform_tree(UNIFORM_N, derive_seed(seed, "uniform-100k"))
    solve_started = time.perf_counter()
    md["uniform"] = []
    for k in UNIFORM_KS:
        report = trees.exact_tree_md(uniform, k)
        if len(report.witness) != report.md:
            errors.append(f"uniform k={k}: witness size differs from md")
        md["uniform"].append(report.md)
    exact_tree_s = time.perf_counter() - solve_started
    limit = gw.poisson_closed_form(DENSITY_R_MAX).c
    for r in range(DENSITY_R_MAX + 1):
        values = [m / DENSITY_N for m in md[f"r{r}"]]
        mean = statistics.fmean(values)
        se = statistics.stdev(values) / math.sqrt(len(values))
        if abs(mean - limit[r]) > DENSITY_Z * se + DENSITY_SLACK:
            errors.append(f"r={r}: density {mean:.5f} far from the limit {limit[r]:.5f}")
    return {
        "md": md,
        "errors": errors,
        "timing": {"mc.trees_per_s": DENSITY_TREES / mc_s, "exact_tree_s": exact_tree_s},
    }


def density_main(argv: list[str]) -> int:
    """Run the tree-density job and write its result as JSON."""
    parser = argparse.ArgumentParser(description="tree-density job")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    Path(args.out).write_text(json.dumps(density_pass(args.seed)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(density_main(sys.argv[1:]))
