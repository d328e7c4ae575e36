"""Command-line surface: outputs, schemas, exit codes, manifests, determinism."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

import pytest

from relaxmdim import cli, graph, localization, trees
from relaxmdim.cli import METHODS, MODELS, build_parser, main
from relaxmdim.generators import rgg, uniform_tree
from relaxmdim.localization import _RESOLVERS

from conftest import path_graph

PATH9 = "\n".join(f"{i} {i + 1}" for i in range(8)) + "\n"
CYCLE4 = "0 1\n1 2\n2 3\n3 0\n"
STAR5 = "\n".join(f"c l{i}" for i in range(5)) + "\n"
TWO_PATHS = "0 1\n1 2\n3 4\n4 5\n5 6\n"


@pytest.fixture
def no_distances(monkeypatch):
    """Make every binding of ``all_pairs_distances`` in the package raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("all_pairs_distances was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "relaxmdim" and hasattr(module, "all_pairs_distances"):
            monkeypatch.setattr(module, "all_pairs_distances", refuse)


@pytest.fixture
def matrix_calls(monkeypatch):
    """Count the calls of ``all_pairs_distances`` through every binding of it
    in the package; returns the list the calls append to."""
    calls = []
    real = graph.all_pairs_distances

    def counted(g):
        calls.append(g.n)
        return real(g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "relaxmdim" and hasattr(module, "all_pairs_distances"):
            monkeypatch.setattr(module, "all_pairs_distances", counted)
    return calls


@pytest.fixture
def path_file(tmp_path):
    p = tmp_path / "path9.txt"
    p.write_text(PATH9)
    return str(p)


@pytest.fixture
def cycle_file(tmp_path):
    p = tmp_path / "cycle4.txt"
    p.write_text(CYCLE4)
    return str(p)


@pytest.fixture
def two_paths_file(tmp_path):
    p = tmp_path / "two-paths.txt"
    p.write_text(TWO_PATHS)
    return str(p)


@pytest.fixture
def star_file(tmp_path):
    p = tmp_path / "star5.txt"
    p.write_text(STAR5)
    return str(p)


class TestStats:
    def test_path_diameter(self, path_file, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["stats", path_file, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 9
        assert payload["diameter"] == 8
        assert payload["schema"] == "relaxmdim/stats/1"

    def test_disconnected_needs_lcc(self, tmp_path, capsys):
        p = tmp_path / "two.txt"
        p.write_text("0 1\n2 3\n")
        assert main(["stats", str(p)]) == 2
        assert main(["stats", str(p), "--lcc"]) == 0

    def test_stdout_when_no_out(self, path_file, capsys):
        assert main(["stats", path_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 8

    def test_core_bitsets_above_physical_memory_exits_4(self, cycle_file, path_file, monkeypatch, capsys):
        # stats builds no matrix; the 4-cycle's BFS bitsets take 4 * 4 * 8 bytes
        monkeypatch.setattr(graph, "_physical_memory", lambda: 4 * 4 * 8 - 1)
        assert main(["stats", cycle_file]) == 4
        assert "physical memory" in capsys.readouterr().err
        assert main(["stats", path_file]) == 0  # a tree has no core

    def test_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/file.txt"]) == 2


class TestMdim:
    def test_exact_equals_brute_on_tree(self, path_file, tmp_path):
        outs = []
        for method in ("exact-tree", "brute"):
            out = tmp_path / f"{method}.json"
            assert main(["mdim", path_file, "--k", "2", "--method", method, "--out", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        assert outs[0]["md"] == outs[1]["md"]
        assert outs[0]["verified"] and outs[1]["verified"]

    def test_odd_even_equal(self, path_file, capsys):
        mds = []
        for k in ("2", "3"):
            assert main(["mdim", path_file, "--k", k, "--method", "exact-tree"]) == 0
            mds.append(json.loads(capsys.readouterr().out)["md"])
        assert mds[0] == mds[1]

    def test_greedy_on_cycle(self, cycle_file, capsys):
        assert main(["mdim", cycle_file, "--k", "0", "--method", "greedy"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] == 2
        assert payload["verified"]
        assert payload["trace"][0]["pick_index"] == 0

    def test_exact_on_cycle_is_incompatible(self, cycle_file, capsys, no_distances):
        assert main(["mdim", cycle_file, "--k", "0", "--method", "exact-tree"]) == 3
        assert "acyclic" in capsys.readouterr().err

    def test_greedy_matrix_above_physical_memory_exits_4(self, path_file, monkeypatch, capsys):
        # 9-vertex path: bound 16, an 81-byte int8 matrix
        monkeypatch.setattr(graph, "_physical_memory", lambda: 80)
        assert main(["mdim", path_file, "--k", "0", "--method", "greedy"]) == 4
        assert "physical memory" in capsys.readouterr().err

    def test_greedy_pair_list_above_physical_memory_exits_4(self, path_file, monkeypatch, capsys):
        # 9-vertex path: the 81-byte int8 matrix fits, a list of its 36 pairs at 8 bytes does not
        monkeypatch.setattr(graph, "_physical_memory", lambda: 200)
        assert main(["mdim", path_file, "--k", "0", "--method", "greedy"]) == 4
        assert "physical memory" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["exact-tree", "greedy", "brute"])
    def test_negative_k_rejected_before_distances(self, path_file, tmp_path, capsys, no_distances, method):
        out = tmp_path / "mdim.json"
        assert main(["mdim", path_file, "--k", "-1", "--method", method, "--out", str(out)]) == 2
        assert "negative" in capsys.readouterr().err
        assert not out.exists()

    def test_brute_refuses_large(self, tmp_path, capsys, no_distances):
        # refused before any distance is computed
        p = tmp_path / "big.txt"
        p.write_text("\n".join(f"{i} {i + 1}" for i in range(19)) + "\n")
        assert main(["mdim", str(p), "--k", "0", "--method", "brute"]) == 4
        assert "refused" in capsys.readouterr().err


class TestSweep:
    def test_kmax_zero_single_row(self, path_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path_file, "--k-max", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,sensors,sensor_fraction,non_resolved_ratio,alpha,alpha_fraction"
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "0"
        assert float(row[3]) == 0.0

    def test_exact_method_on_tree(self, path_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path_file, "--k-max", "3", "--method", "exact-tree", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 5

    def test_exact_on_cycle_refused_before_distances(self, cycle_file, tmp_path, capsys, no_distances):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", cycle_file, "--k-max", "2", "--method", "exact-tree", "--out", str(out)]
        assert main(argv) == 3
        assert "acyclic" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_kmax_rejected(self, path_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path_file, "--k-max", "-1", "--out", str(out)]) == 2
        assert "negative" in capsys.readouterr().err
        assert not out.exists()


class TestTwoStep:
    def test_star_endpoints_equal(self, star_file, tmp_path):
        base = tmp_path / "twostep"
        assert main(["two-step", star_file, "--out", str(base)]) == 0
        rows = (tmp_path / "twostep.csv").read_text().strip().splitlines()[1:]
        first, last = rows[0].split(","), rows[-1].split(",")
        assert first[3] == last[3]  # qstar at k=0 equals qstar at diameter
        payload = json.loads((tmp_path / "twostep.json").read_text())
        assert payload["results"][0]["qstar"] == int(first[3])
        assert (tmp_path / "twostep.csv.manifest.json").exists()
        assert (tmp_path / "twostep.json.manifest.json").exists()

    def test_stdout_when_no_out(self, star_file, capsys):
        assert main(["two-step", star_file, "--k-max", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["k"] for r in payload["results"]] == [0, 1]

    def test_negative_kmax_rejected(self, star_file, tmp_path, capsys, no_distances):
        base = tmp_path / "twostep"
        assert main(["two-step", star_file, "--k-max", "-2", "--out", str(base)]) == 2
        assert "negative" in capsys.readouterr().err
        assert not (tmp_path / "twostep.json").exists()


class TestGenerate:
    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            args = ["generate", "--model", "ba-tree", "--n", "50", "--seed", "11", "--out", str(out)]
            assert main(args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gw_tree_records_root(self, tmp_path):
        out = tmp_path / "gw.txt"
        args = [
            "generate", "--model", "gw-tree", "--n", "30", "--seed", "1",
            "--offspring", "poisson:1", "--out", str(out),
        ]
        assert main(args) == 0
        assert "# root 0" in out.read_text()

    def test_unreachable_conditioned_size_exits_4(self, tmp_path):
        # offspring 0 or 2 only: the total progeny is odd, so n = 4 never comes
        pmf = tmp_path / "pmf.txt"
        pmf.write_text("0.5 0 0.5\n")
        argv = ["generate", "--model", "gw-tree", "--n", "4", "--seed", "0", "--offspring", f"pmf:{pmf}"]
        proc = subprocess.run([sys.executable, "-m", "relaxmdim.cli", *argv], capture_output=True, text=True)
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: conditioning rejected 701 draws")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "model, minimum",
        [("ba-tree", 2), ("gw-tree", 1), ("config-model", 4), ("rgg", 2), ("uniform-tree", 2)],
    )
    def test_each_sampler_refuses_too_small_n(self, model, minimum, capsys):
        argv = ["generate", "--model", model, "--seed", "0", "--n"]
        assert main([*argv, str(minimum - 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: need at least")
        assert "Traceback" not in err
        assert main([*argv, str(minimum)]) == 0

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
    @pytest.mark.parametrize("model", MODELS)
    def test_each_sampler_refuses_a_size_beyond_memory(self, model):
        # the child's address space is capped at 4 GB, so an allocation
        # before the refusal fails fast instead of filling the host's memory
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        argv = ["generate", "--model", model, "--n", str(10**11), "--seed", "0"]
        proc = subprocess.run(
            [sys.executable, "-m", "relaxmdim.cli", *argv],
            capture_output=True,
            text=True,
            preexec_fn=cap,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            timeout=120,
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith(f"error: a sample of {10**11} vertices needs at least")
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
    @pytest.mark.parametrize("n", [20_000, 1_000_000])
    def test_rgg_refuses_candidates_beyond_memory(self, n):
        # at this radius one grid cell holds every point, so every pair is a
        # candidate: 2e8 of them at n = 20 000, 9.6 GB at 48 bytes each, and
        # 5e11 at n = 10**6; the child's address space is capped at 3 GB
        need = n * (n - 1) // 2 * 48
        if need <= graph._physical_memory():
            pytest.skip("this host's physical memory holds the candidates")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        argv = ["generate", "--model", "rgg", "--n", str(n), "--seed", "0", "--radius-factor", "1e6"]
        proc = subprocess.run(
            [sys.executable, "-m", "relaxmdim.cli", *argv],
            capture_output=True,
            text=True,
            preexec_fn=cap,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            timeout=120,
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith(
            f"error: a random geometric graph of {n} vertices has {n * (n - 1) // 2} candidate pairs"
        )
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--model", "rgg", "--radius-factor", "nan"], "radius_factor must be nonnegative"),
            (["--model", "gw-tree", "--offspring", "poisson:nan"], "lam must be positive"),
        ],
        ids=["radius-factor", "offspring"],
    )
    def test_nan_parameter_refused(self, argv, message, capsys):
        assert main(["generate", *argv, "--n", "10", "--seed", "0"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--model", "gw-tree", "--offspring", "poisson:inf", "--n", "10", "--seed", "0"],
            ["gw-constants", "--offspring", "poisson:1e400", "--r-max", "2"],
            ["gw-constants", "--offspring", "poisson:800", "--r-max", "2"],
        ],
        ids=["inf", "overflow", "underflow"],
    )
    def test_poisson_mean_without_a_float_p0_refused(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lam must be positive with exp(-lam) > 0, but lam ")
        assert "pmf mass" not in err

    def test_generated_file_loads_back(self, tmp_path, capsys):
        out = tmp_path / "rgg.txt"
        args = ["generate", "--model", "rgg", "--n", "120", "--seed", "5", "--out", str(out)]
        assert main(args) == 0
        assert main(["stats", str(out), "--lcc"]) == 0

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "g.txt"
        main(["generate", "--model", "uniform-tree", "--n", "20", "--seed", "3", "--out", str(out)])
        manifest = json.loads((tmp_path / "g.txt.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["schema"] == "relaxmdim/manifest/1"
        assert manifest["parameters"]["seed"] == 3


class TestDisconnectedInput:
    @pytest.mark.parametrize(
        "argv",
        [["stats"], ["sweep", "--k-max", "1"], ["two-step"], ["mdim", "--k", "0", "--method", "greedy"]],
        ids=["stats", "sweep", "two-step", "mdim-greedy"],
    )
    def test_refused_before_distances(self, argv, two_paths_file, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("distances computed")

        monkeypatch.setattr(graph, "_component_distances", refuse)
        assert main([argv[0], two_paths_file, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: graph is not connected")
        assert "largest_connected_component" in err and "--lcc on the command line" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--k-max", "2"],
            ["two-step"],
            ["mdim", "--k", "1", "--method", "greedy"],
            ["mdim", "--k", "0", "--method", "exact-tree"],
        ],
        ids=["sweep", "two-step", "mdim-greedy", "mdim-exact-tree"],
    )
    def test_lcc_flag_reports_input_ids(self, argv, tmp_path, capsys):
        # The larger component, 9-8-7-6 with 5 hanging on 8, takes input ids
        # 2, 3, 5, 6, 7 (first appearance, interleaved with the path 0-1-2);
        # written out alone it is numbered 0..4 in the same order. The --lcc
        # result is the component's result with its vertices named by their
        # input ids.
        full = tmp_path / "full.txt"
        full.write_text("0 1\n9 8\n1 2\n8 7\n7 6\n8 5\n")
        component = tmp_path / "component.txt"
        component.write_text("9 8\n8 7\n7 6\n8 5\n")
        to_input = [2, 3, 5, 6, 7]
        assert main([argv[0], str(component), *argv[1:]]) == 0
        alone = capsys.readouterr().out
        assert main([argv[0], str(full), *argv[1:], "--lcc"]) == 0
        lcc = capsys.readouterr().out
        if argv[0] == "sweep":
            assert lcc == alone
            return
        expected = json.loads(alone)
        for result in expected.get("results", [expected]):
            for key in ("witness", "phase1", "worst_class"):
                if key in result:
                    result[key] = [to_input[v] for v in result[key]]
            for row in result.get("trace", ()):
                row["sensor"] = to_input[row["sensor"]]
        assert json.loads(lcc) == expected
        assert lcc != alone


@pytest.mark.parametrize(
    "argv",
    [
        ["stats"],
        ["mdim", "--k", "0", "--method", "exact-tree"],
        ["mdim", "--k", "0", "--method", "greedy"],
        ["mdim", "--k", "0", "--method", "brute"],
        ["sweep", "--k-max", "1", "--method", "exact-tree"],
        ["sweep", "--k-max", "1", "--method", "greedy"],
        ["two-step"],
    ],
    ids=["stats", "mdim-exact-tree", "mdim-greedy", "mdim-brute", "sweep-exact-tree", "sweep-greedy", "two-step"],
)
def test_empty_edge_list_rejected(argv, tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("# no edges\n")
    assert main([argv[0], str(p), *argv[1:]]) == 2
    assert "empty graph" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["stats", "PATH"], ["generate", "--model", "uniform-tree", "--n", "5", "--seed", "0"]],
    ids=["stats", "generate"],
)
def test_unwritable_out_exits_2(argv, path_file, tmp_path, capsys):
    out = tmp_path / "missing" / "result.txt"
    assert main([path_file if a == "PATH" else a for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


class TestGWConstants:
    def test_limit_constant_values(self, tmp_path):
        out = tmp_path / "constants.csv"
        args = ["gw-constants", "--offspring", "poisson:1", "--r-max", "9", "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,d,l,s,e,c"
        c_values = [float(line.split(",")[5]) for line in lines[1:]]
        expected = [0.1408, 0.0544, 0.0294, 0.0185, 0.0128, 0.0094, 0.0072, 0.0057, 0.0046, 0.0038]
        assert all(abs(a - b) < 5e-5 for a, b in zip(c_values, expected))

    def test_pmf_file(self, tmp_path, capsys):
        pmf = tmp_path / "pmf.txt"
        pmf.write_text("0.5 0.0 0.5\n")
        assert main(["gw-constants", "--offspring", f"pmf:{pmf}", "--r-max", "2"]) == 0

    def test_bad_offspring_spec(self, capsys):
        assert main(["gw-constants", "--offspring", "zipf:2", "--r-max", "1"]) == 2

    def test_missing_pmf_file(self, tmp_path, capsys):
        spec = f"pmf:{tmp_path / 'missing.txt'}"
        for argv in (
            ["gw-constants", "--offspring", spec, "--r-max", "1"],
            ["generate", "--model", "gw-tree", "--n", "5", "--seed", "0", "--offspring", spec],
        ):
            assert main(argv) == 2
            assert "cannot read" in capsys.readouterr().err


def test_threads_option_is_gone(path_file, capsys):
    for argv in (["--threads", "2", "stats", path_file], ["stats", path_file, "--threads", "2"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_generate_accepts_exactly_the_generator_models(capsys):
    parser = build_parser()
    for model in MODELS:
        args = parser.parse_args(["generate", "--model", model, "--n", "5", "--seed", "0"])
        assert args.model == model
    with pytest.raises(SystemExit):
        parser.parse_args(["generate", "--model", "erdos-renyi", "--n", "5", "--seed", "0"])


def test_sweep_accepts_exactly_the_resolvers(path_file):
    parser = build_parser()
    for resolver in _RESOLVERS:
        assert parser.parse_args(["sweep", path_file, "--k-max", "0", "--method", resolver]).method == resolver
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", path_file, "--k-max", "0", "--method", "brute"])


def test_mdim_accepts_exactly_the_methods(path_file):
    parser = build_parser()
    for method in METHODS:
        assert parser.parse_args(["mdim", path_file, "--k", "0", "--method", method]).method == method
    with pytest.raises(SystemExit):
        parser.parse_args(["mdim", path_file, "--k", "0", "--method", "lazy-greedy"])


@pytest.mark.parametrize(
    "method, module, solver",
    [
        ("exact-tree", localization, "exact_tree_md"),
        ("greedy", localization, "greedy_k_resolving_set"),
        ("brute", cli, "brute_force_md"),
    ],
    ids=["exact-tree-exact_tree_md", "greedy-greedy_k_resolving_set", "brute-brute_force_md"],
)
def test_each_method_calls_its_solver_through_its_table(
    method, module, solver, path_file, monkeypatch, capsys
):
    # the benchmark's tracer wraps module attributes, so a table that held
    # the solver objects from import time would hide these calls
    calls = []
    real = getattr(module, solver)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, solver, counted)
    assert main(["mdim", path_file, "--k", "1", "--method", method]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["method"] == method


@pytest.mark.parametrize(
    "argv",
    [
        ["mdim", "--k", "2", "--method", "exact-tree"],
        ["mdim", "--k", "8", "--method", "exact-tree"],
        ["sweep", "--k-max", "3", "--method", "exact-tree"],
    ],
    ids=["mdim", "mdim-empty-witness", "sweep"],
)
def test_exact_tree_commands_run_no_bfs(argv, path_file, monkeypatch, capsys):
    # the TreeMetric's peel is the tree check, and the graph keeps its
    # answer: no BFS and no component labelling; the peel also gives the
    # diameter that an empty witness is checked against
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, call)

    counted(graph, "bfs_distances")
    counted(graph, "_component_labels")
    counted(trees, "_component_labels")
    assert main([argv[0], path_file, *argv[1:]]) == 0
    assert calls == []
    if argv[2] == "8":
        assert json.loads(capsys.readouterr().out)["witness"] == []


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "relaxmdim.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "two-step" in proc.stdout


def test_cli_import_loads_no_scipy():
    # scipy is only needed by the all-pairs Dijkstra fallback, imported there
    code = "import sys, relaxmdim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs ``python ARGV`` and prints its exit code and ru_maxrss. A child's
# ru_maxrss starts at its parent's resident set at the fork, so the child is
# started from this bare interpreter rather than from the test process.
_MEASURE_CHILD = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss)
"""


def _peak_rss_mb(argv: list[str], exit_code: int = 0) -> float:
    """Peak resident set of ``python argv``, which must exit with
    ``exit_code``, read through ``os.wait4``."""
    proc = subprocess.run([sys.executable, "-c", _MEASURE_CHILD, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, kilobytes = map(int, proc.stdout.split())
    assert code == exit_code, (argv, proc.stderr)
    return kilobytes / 1024  # ru_maxrss is in kilobytes on Linux


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux only")
def test_stats_peak_memory_per_vertex_pair(tmp_path):
    # An int32 matrix with int32 row blocks, plus a boolean connectivity
    # mask, peaked about 10 bytes per vertex pair above the bare import here,
    # and the narrow matrix with its bit-planes about 4. Without a matrix,
    # the BFS bitsets take half a byte per pair.
    n = 3000
    path = tmp_path / "rgg.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in rgg(n, 1.5, seed=1).edges()))
    base = _peak_rss_mb(["-c", "import relaxmdim.cli"])
    peak = _peak_rss_mb(["-m", "relaxmdim.cli", "stats", str(path), "--lcc"])
    assert peak - base < 2 * n * n / 2**20, (peak, base)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux only")
def test_exact_tree_mdim_peak_memory_per_vertex_pair(tmp_path):
    # the int16 matrix of this tree alone would take 2 bytes per vertex pair
    n = 20_000
    path = tmp_path / "uniform.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in uniform_tree(n, seed=1).edges()))
    base = _peak_rss_mb(["-c", "import relaxmdim.cli"])
    peak = _peak_rss_mb(["-m", "relaxmdim.cli", "mdim", str(path), "--method", "exact-tree", "--k", "2"])
    assert peak - base < n * n / 2**20, (peak, base)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux only")
@pytest.mark.parametrize("model", ["uniform-tree", "path"])
def test_exact_tree_check_is_linear_on_100000_vertices(model, tmp_path):
    # The check keys each vertex by its projection onto the witness's
    # spanning subtree. Distance columns, one per sensor, peaked about
    # 100 MB above the bare import on both trees here, and took 22 s on the
    # uniform tree (14 038 sensors at k = 0).
    n = 100_000
    g = uniform_tree(n, seed=1) if model == "uniform-tree" else path_graph(n)
    path, out = tmp_path / "tree.txt", tmp_path / "mdim.json"
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    base = _peak_rss_mb(["-c", "import relaxmdim.cli"])
    started = time.perf_counter()
    argv = ["-m", "relaxmdim.cli", "mdim", str(path), "--method", "exact-tree", "--k", "0", "--out", str(out)]
    peak = _peak_rss_mb(argv)
    elapsed = time.perf_counter() - started
    assert json.loads(out.read_text())["verified"] is True
    assert peak - base < 80, (peak, base)
    if model == "uniform-tree":
        assert elapsed < 10, elapsed


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux only")
def test_disconnected_refused_before_the_matrix(tmp_path):
    # two disjoint 3000-vertex paths: the int16 matrix alone would take 2
    # bytes per vertex pair
    n = 6000
    path = tmp_path / "two-paths.txt"
    path.write_text("".join(f"{v} {v + 1}\n" for v in range(n - 1) if v != n // 2 - 1))
    base = _peak_rss_mb(["-c", "import relaxmdim.cli"])
    peak = _peak_rss_mb(["-m", "relaxmdim.cli", "two-step", str(path)], exit_code=2)
    assert peak - base < n * n / 2**20, (peak, base)


@pytest.mark.parametrize(
    "argv,matrices",
    [
        (["stats"], 0),
        (["mdim", "--k", "2", "--method", "exact-tree"], 0),
        (["sweep", "--k-max", "3", "--method", "exact-tree"], 0),
        (["mdim", "--k", "2", "--method", "greedy"], 1),
        (["mdim", "--k", "2", "--method", "brute"], 1),
        (["sweep", "--k-max", "3", "--method", "greedy"], 1),
        (["two-step"], 1),
    ],
    ids=["stats", "mdim-exact-tree", "sweep-exact-tree", "mdim-greedy", "mdim-brute", "sweep-greedy", "two-step"],
)
def test_each_command_builds_at_most_one_matrix(argv, matrices, path_file, matrix_calls, capsys):
    assert main([argv[0], path_file, *argv[1:]]) == 0
    assert len(matrix_calls) == matrices


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "PATH"],
        ["stats", "CYCLE"],
        ["mdim", "PATH", "--k", "2", "--method", "exact-tree"],
        ["sweep", "PATH", "--k-max", "8", "--method", "exact-tree"],
    ],
    ids=["stats-tree", "stats-cycle", "mdim-exact-tree", "sweep-exact-tree"],
)
def test_stats_and_exact_tree_commands_fill_no_matrix(argv, path_file, cycle_file, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("distance matrix filled")

    monkeypatch.setattr(graph, "_component_distances", refuse)
    files = {"PATH": path_file, "CYCLE": cycle_file}
    assert main([files.get(a, a) for a in argv]) == 0
