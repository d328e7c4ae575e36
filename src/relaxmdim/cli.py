"""Command-line interface: stats, mdim, sweep, two-step, generate, gw-constants.

Single results are emitted as JSON, curves as CSV. Every result written to a
file gets a ``<file>.manifest.json`` sidecar recording the command, its full
parameter set, input digests, the tool version and wall-clock time; re-running
with the same parameters reproduces result files byte-identically.

Exit codes: 0 success, 2 validation error, 3 incompatible method,
4 resource refusal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Sequence

from . import __version__
from .graph import (
    Graph,
    TooLargeError,
    all_pairs_distances,
    graph_stats,
    is_k_relaxed_resolving,
    largest_connected_component,
    load_edge_list,
)
from .greedy import greedy_k_resolving_set
from .gw import OffspringDistribution, gw_sequence
from .localization import SWEEP_CSV_HEADER, qstar_curve, sweep_metrics
from .trees import IncompatibleMethodError, brute_force_md, exact_tree_md
from . import generators

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCOMPATIBLE = 3
EXIT_RESOURCE = 4

LCC_HELP = "restrict to the largest component; output vertex ids stay the input's"


def _read_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return load_edge_list(handle).graph
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _input_graph(args: argparse.Namespace) -> tuple[Graph, Sequence[int]]:
    """The command's input graph and the input id of each of its vertices.
    With ``--lcc`` the graph is the largest component, renumbered 0..k-1,
    and the ids map its vertices back to the input's."""
    g = _read_graph(args.input)
    if args.lcc:
        return largest_connected_component(g)
    return g, range(g.n)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_path: str, command: str, params: dict, inputs: list[str], elapsed: float) -> None:
    manifest = {
        "schema": "relaxmdim/manifest/1",
        "version": __version__,
        "command": command,
        "parameters": {k: v for k, v in params.items() if k != "func"},
        "inputs": {path: _sha256(path) for path in inputs},
        "wall_clock_s": elapsed,
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _emit(
    text: str, out: str | None, command: str, params: dict, inputs: list[str], started: float
) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)
    _write_manifest(out, command, params, inputs, time.perf_counter() - started)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_stats(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g, _ = _input_graph(args)
    stats = graph_stats(g)
    payload = {"schema": "relaxmdim/stats/1", **stats.as_dict()}
    _emit(_json_text(payload), args.out, "stats", vars(args), [args.input], started)
    return EXIT_OK


def cmd_mdim(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g, ids = _input_graph(args)
    if args.method == "exact-tree":
        report = exact_tree_md(g, args.k)
        dm = all_pairs_distances(g)
        verified = is_k_relaxed_resolving(dm, report.witness, args.k)
        payload = {
            "schema": "relaxmdim/mdim/1",
            "method": "exact-tree",
            **report.as_dict(),
            "verified": verified,
        }
    elif args.method == "greedy":
        dm = all_pairs_distances(g)
        sensors, trace = greedy_k_resolving_set(dm, args.k)
        verified = is_k_relaxed_resolving(dm, sensors, args.k)
        payload = {
            "schema": "relaxmdim/mdim/1",
            "method": "greedy",
            "k": args.k,
            "size": len(sensors),
            "witness": list(sensors),
            "verified": verified,
            "trace": trace.rows(),
        }
    else:  # brute: the size limit is checked before any distance is computed
        md, witness = brute_force_md(g, args.k)
        dm = all_pairs_distances(g)
        verified = is_k_relaxed_resolving(dm, witness, args.k)
        payload = {
            "schema": "relaxmdim/mdim/1",
            "method": "brute",
            "k": args.k,
            "md": md,
            "witness": list(witness),
            "verified": verified,
        }
    if not payload["verified"]:  # pragma: no cover - internal consistency
        raise AssertionError("computed witness failed verification")
    payload["witness"] = [ids[v] for v in payload["witness"]]
    for row in payload.get("trace", ()):
        row["sensor"] = ids[row["sensor"]]
    _emit(_json_text(payload), args.out, "mdim", vars(args), [args.input], started)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g, _ = _input_graph(args)
    if args.k_max < 0:
        raise ValueError(f"--k-max {args.k_max} is negative")
    records = sweep_metrics(g, range(args.k_max + 1), resolver=args.method)
    lines = [SWEEP_CSV_HEADER] + [rec.csv_row() for rec in records]
    _emit("\n".join(lines) + "\n", args.out, "sweep", vars(args), [args.input], started)
    return EXIT_OK


def cmd_two_step(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g, ids = _input_graph(args)
    dm = all_pairs_distances(g)
    k_max = dm.diameter if args.k_max is None else args.k_max
    curve = qstar_curve(g, k_max)
    for result in curve:
        if not is_k_relaxed_resolving(dm, result.phase1, result.k):  # pragma: no cover
            raise AssertionError("phase-1 set failed verification")
    csv_lines = ["k,phase1_size,max_s2,qstar"] + [
        f"{r.k},{len(r.phase1)},{r.max_s2},{r.qstar}" for r in curve
    ]
    results = [r.as_dict() for r in curve]
    for result in results:
        result["phase1"] = [ids[v] for v in result["phase1"]]
        result["worst_class"] = [ids[v] for v in result["worst_class"]]
    json_text = _json_text({"schema": "relaxmdim/two-step/1", "results": results})
    params, inputs = vars(args), [args.input]
    if args.out is None:
        _emit(json_text, None, "two-step", params, inputs, started)
    else:
        _emit("\n".join(csv_lines) + "\n", args.out + ".csv", "two-step", params, inputs, started)
        _emit(json_text, args.out + ".json", "two-step", params, inputs, started)
    return EXIT_OK


def _parse_offspring(spec: str) -> OffspringDistribution:
    kind, _, value = spec.partition(":")
    if kind == "poisson":
        return OffspringDistribution.poisson(float(value or 1.0))
    if kind == "geometric":
        return OffspringDistribution.geometric(float(value))
    if kind == "pmf":
        try:
            with open(value, "r", encoding="utf-8") as handle:
                values = [float(tok) for tok in handle.read().split()]
        except OSError as exc:
            raise ValueError(f"cannot read {value}: {exc}") from exc
        return OffspringDistribution.from_pmf(values)
    raise ValueError(
        f"unknown offspring spec {spec!r}; expected poisson:LAM, geometric:P or pmf:FILE"
    )


def cmd_generate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    header = [f"# relaxmdim generate model={args.model} n={args.n} seed={args.seed}"]
    config = generators.GeneratorConfig(
        model=args.model,
        n=args.n,
        seed=args.seed,
        offspring=_parse_offspring(args.offspring) if args.model == "gw-tree" else None,
        radius_factor=args.radius_factor,
    )
    sampled = config.sample()
    if isinstance(sampled, Graph):
        g = sampled
    else:
        g = sampled.graph
        header.append(f"# root {sampled.root}")
    lines = header + [f"{u} {v}" for u, v in g.edges()]
    _emit("\n".join(lines) + "\n", args.out, "generate", vars(args), [], started)
    return EXIT_OK


def cmd_gw_constants(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    xi = _parse_offspring(args.offspring)
    constants = gw_sequence(xi, args.r_max)
    import io

    buffer = io.StringIO()
    constants.write_csv(buffer)
    _emit(buffer.getvalue(), args.out, "gw-constants", vars(args), [], started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxmdim",
        description="Relaxed metric dimension toolkit: exact tree solver, "
        "greedy resolver, generators, branching-process constants and "
        "two-step sensor placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="structural statistics of an edge list")
    p.add_argument("input")
    p.add_argument("--lcc", action="store_true", help=LCC_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("mdim", help="k-relaxed metric dimension of a graph")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("exact-tree", "greedy", "brute"), required=True)
    p.add_argument("--lcc", action="store_true", help=LCC_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mdim)

    p = sub.add_parser("sweep", help="metrics for k = 0..k-max (CSV)")
    p.add_argument("input")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--method", choices=("exact-tree", "greedy"), default="greedy")
    p.add_argument("--lcc", action="store_true", help=LCC_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("two-step", help="two-step worst-case budget curve (CSV+JSON)")
    p.add_argument("input")
    p.add_argument("--k-max", type=int, default=None, help="default: the diameter")
    p.add_argument("--lcc", action="store_true", help=LCC_HELP)
    p.add_argument("--out", help="basename; writes <out>.csv and <out>.json")
    p.set_defaults(func=cmd_two_step)

    p = sub.add_parser("generate", help="sample a random graph, write an edge list")
    p.add_argument("--model", choices=generators.MODELS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--offspring", default="poisson:1", help="gw-tree only")
    p.add_argument("--radius-factor", type=float, default=1.5, help="rgg only")
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("gw-constants", help="per-r constants of the recursion (CSV)")
    p.add_argument("--offspring", required=True, help="poisson:LAM | geometric:P | pmf:FILE")
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gw_constants)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except IncompatibleMethodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
