"""Command-line surface: outputs, schemas, exit codes, manifests, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from relaxmdim.cli import build_parser, main
from relaxmdim.generators import MODELS

PATH9 = "\n".join(f"{i} {i + 1}" for i in range(8)) + "\n"
CYCLE4 = "0 1\n1 2\n2 3\n3 0\n"
STAR5 = "\n".join(f"c l{i}" for i in range(5)) + "\n"


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

    def test_exact_on_cycle_is_incompatible(self, cycle_file, capsys):
        assert main(["mdim", cycle_file, "--k", "0", "--method", "exact-tree"]) == 3

    def test_brute_refuses_large(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        p.write_text("\n".join(f"{i} {i + 1}" for i in range(19)) + "\n")
        assert main(["mdim", str(p), "--k", "0", "--method", "brute"]) == 4


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

    def test_negative_kmax_rejected(self, star_file, tmp_path, capsys):
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
