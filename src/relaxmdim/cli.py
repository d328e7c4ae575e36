"""Command-line interface: stats, mdim, sweep, two-step, generate, gw-constants.

Each command maps its parsed arguments to its result texts, JSON for single
results and CSV for curves, and :func:`main` alone writes them. With
``--out`` each text goes to ``--out`` plus its suffix (``two-step`` writes
``<out>.csv`` and ``<out>.json``) beside a ``<file>.manifest.json`` sidecar
recording the command, its full parameter set, input digests, the tool
version and wall-clock time; re-running with the same parameters reproduces
result files byte-identically. Without ``--out`` the last text, for
``two-step`` its JSON, goes to stdout.

Exit codes: 0 success, 2 validation error, 3 incompatible method,
4 resource refusal.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import time
from itertools import chain
from typing import Sequence

from . import __version__
from .graph import (
    DistanceMatrix,
    Graph,
    TooLargeError,
    all_pairs_distances,
    graph_stats,
    is_k_relaxed_resolving,
    largest_connected_component,
    load_edge_list,
)
from .gw import OffspringDistribution, gw_sequence
from .localization import _RESOLVERS, SWEEP_CSV_HEADER, qstar_curve, sweep_metrics
from .trees import BRUTE_FORCE_MAX_N, IncompatibleMethodError, brute_force_md
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


def _check_relaxation(args: argparse.Namespace) -> None:
    """Refuse a negative ``--k`` or ``--k-max`` before any input is read."""
    for name in ("k", "k_max"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError(f"--{name.replace('_', '-')} {value} is negative")


def _input_graph(args: argparse.Namespace) -> tuple[Graph, Sequence[int]]:
    """The command's input graph and the input id of each of its vertices.
    With ``--lcc`` the graph is the largest component, renumbered 0..k-1,
    and the ids map its vertices back to the input's."""
    g = _read_graph(args.input)
    if g.n == 0:
        raise ValueError(f"{args.input} is an empty graph: it holds no edges")
    if args.lcc:
        return largest_connected_component(g)
    return g, range(g.n)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write(path: str, text: str, args: argparse.Namespace, started: float) -> None:
    """Write one result file and its ``.manifest.json`` sidecar."""
    inputs = [args.input] if hasattr(args, "input") else []
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        manifest = {
            "schema": "relaxmdim/manifest/1",
            "version": __version__,
            "command": args.command,
            "parameters": {k: v for k, v in vars(args).items() if k != "func"},
            "inputs": {name: _sha256(name) for name in inputs},
            "wall_clock_s": time.perf_counter() - started,
        }
        with open(path + ".manifest.json", "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# A command maps its parsed arguments to its results: (suffix, text) pairs,
# each written to ``--out`` + suffix, the last one to stdout without ``--out``.
Results = list[tuple[str, str]]


def _brute_fields(g: Graph, dm: DistanceMatrix | None, k: int) -> dict:
    md, witness = brute_force_md(g, k, dm)
    return {"k": k, "md": md, "witness": list(witness)}


# Each mdim method: the sweep's resolvers (see localization), and brute
# force, which only mdim offers. TreeMetric refuses a cyclic input and brute
# force one above BRUTE_FORCE_MAX_N vertices, each before any distance is
# computed.
METHODS = {
    **_RESOLVERS,
    "brute": (lambda g: all_pairs_distances(g) if g.n <= BRUTE_FORCE_MAX_N else None, _brute_fields),
}


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


# Each generator model, with the sampler call that reads only that model's
# options; each sampler refuses a size below its own minimum.
MODELS = {
    "ba-tree": lambda a: generators.ba_tree(a.n, a.seed),
    "gw-tree": lambda a: generators.gw_tree_conditioned(a.n, _parse_offspring(a.offspring), a.seed),
    "config-model": lambda a: generators.configuration_model(a.n, a.seed),
    "rgg": lambda a: generators.rgg(a.n, a.radius_factor, a.seed),
    "uniform-tree": lambda a: generators.uniform_tree(a.n, a.seed),
}


def cmd_stats(args: argparse.Namespace) -> Results:
    g, _ = _input_graph(args)
    return [("", _json_text({"schema": "relaxmdim/stats/1", **graph_stats(g).as_dict()}))]


def cmd_mdim(args: argparse.Namespace) -> Results:
    g, ids = _input_graph(args)
    metric_of, solve = METHODS[args.method]
    metric = metric_of(g)
    fields = solve(g, metric, args.k)
    if not is_k_relaxed_resolving(metric, fields["witness"], args.k):  # pragma: no cover
        raise AssertionError("computed witness failed verification")
    fields["witness"] = [ids[v] for v in fields["witness"]]
    for row in fields.get("trace", ()):
        row["sensor"] = ids[row["sensor"]]
    payload = {"schema": "relaxmdim/mdim/1", "method": args.method, **fields, "verified": True}
    return [("", _json_text(payload))]


def cmd_sweep(args: argparse.Namespace) -> Results:
    g, _ = _input_graph(args)
    records = sweep_metrics(g, range(args.k_max + 1), resolver=args.method)
    lines = [SWEEP_CSV_HEADER] + [rec.csv_row() for rec in records]
    return [("", "\n".join(lines) + "\n")]


def cmd_two_step(args: argparse.Namespace) -> Results:
    g, ids = _input_graph(args)
    dm = all_pairs_distances(g)
    k_max = dm.diameter if args.k_max is None else args.k_max
    curve = qstar_curve(g, k_max, dm)
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
    return [(".csv", "\n".join(csv_lines) + "\n"), (".json", json_text)]


def cmd_generate(args: argparse.Namespace) -> Results:
    header = [f"# relaxmdim generate model={args.model} n={args.n} seed={args.seed}\n"]
    sampled = MODELS[args.model](args)
    if isinstance(sampled, Graph):
        g = sampled
    else:
        g = sampled.graph
        header.append(f"# root {sampled.root}\n")
    # one block of edges' lines at a time: no str per edge outlives its block
    blocks = ("".join(f"{u} {v}\n" for u, v in block) for block in g._edge_blocks())
    return [("", "".join(chain(header, blocks)))]


def cmd_gw_constants(args: argparse.Namespace) -> Results:
    buffer = io.StringIO()
    gw_sequence(_parse_offspring(args.offspring), args.r_max).write_csv(buffer)
    return [("", buffer.getvalue())]


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
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--lcc", action="store_true", help=LCC_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mdim)

    p = sub.add_parser("sweep", help="metrics for k = 0..k-max (CSV)")
    p.add_argument("input")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--method", choices=_RESOLVERS, default="greedy")
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
    p.add_argument("--model", choices=MODELS, required=True)
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
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _check_relaxation(args)
        results = args.func(args)
        if args.out is None:
            sys.stdout.write(results[-1][1])
        else:
            for suffix, text in results:
                _write(args.out + suffix, text, args, started)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except IncompatibleMethodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
