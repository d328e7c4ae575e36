"""Golden outputs: frozen sha256 digests of CLI result files.

Seeded n = 200 inputs (a BA tree, a configuration model and the largest
component of a random geometric graph) go through ``sweep --method greedy``,
``two-step`` and ``mdim --method greedy`` (whose JSON embeds the full greedy
trace); the random geometric graph also goes through ``stats --lcc``, whose
1-shell size comes from the degree-<=1 peel. A seeded n = 200 uniform tree
goes through ``stats``, ``mdim --method exact-tree`` and ``sweep --method
exact-tree`` (stemming, leaf/exterior-major counts, witness and partition).
``generate --out`` writes one seeded sample of every generator model, and of
the conditioned branching tree under four offspring laws (three of them
tilted to unit mean, one read from a pmf file); under three of the laws the
n = 2000 tree is accepted only after more than 256 rejected draws.
Any change to a sensor sequence, a tie-break, a trace row or a number's
formatting changes a digest. Regenerate the table only for an
intended change of results: ``python tests/test_golden.py`` prints it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from relaxmdim import (
    ba_tree,
    configuration_model,
    largest_connected_component,
    rgg,
    uniform_tree,
)
from relaxmdim.cli import main

# (result file, CLI arguments after the input path; "{out}" is the result path)
GREEDY_COMMANDS = (
    ("sweep.csv", ("sweep", "--method", "greedy", "--k-max", "6", "--out", "{out}")),
    ("two-step.csv", ("two-step", "--k-max", "4", "--out", "{base}")),
    ("two-step.json", None),  # written by the two-step command above
    ("mdim-k0.json", ("mdim", "--method", "greedy", "--k", "0", "--out", "{out}")),
    ("mdim-k3.json", ("mdim", "--method", "greedy", "--k", "3", "--out", "{out}")),
)
TREE_COMMANDS = (
    ("stats.json", ("stats", "--out", "{out}")),
    ("mdim-exact-k0.json", ("mdim", "--method", "exact-tree", "--k", "0", "--out", "{out}")),
    ("mdim-exact-k3.json", ("mdim", "--method", "exact-tree", "--k", "3", "--out", "{out}")),
    ("sweep-exact.csv", ("sweep", "--method", "exact-tree", "--k-max", "6", "--out", "{out}")),
)

# generate result file -> CLI arguments after "generate"; "{pmf}" is PMF_TEXT's file
GENERATE_COMMANDS = {
    "ba-tree.txt": ("--model", "ba-tree", "--n", "300", "--seed", "5"),
    "config-model.txt": ("--model", "config-model", "--n", "300", "--seed", "6"),
    "rgg.txt": ("--model", "rgg", "--n", "300", "--seed", "7"),
    "uniform-tree.txt": ("--model", "uniform-tree", "--n", "300", "--seed", "8"),
    "gw-tree-poisson1.txt": ("--model", "gw-tree", "--n", "2000", "--seed", "0", "--offspring", "poisson:1"),
    "gw-tree-geometric0.6.txt": (
        "--model", "gw-tree", "--n", "2000", "--seed", "0", "--offspring", "geometric:0.6",
    ),
    "gw-tree-poisson3.txt": ("--model", "gw-tree", "--n", "2000", "--seed", "6", "--offspring", "poisson:3"),
    "gw-tree-pmf.txt": ("--model", "gw-tree", "--n", "2000", "--seed", "3", "--offspring", "pmf:{pmf}"),
}
PMF_TEXT = "0.3 0.4 0.2 0.1\n"

# input name -> (graph builder, commands run on its edge list)
INPUTS = {
    "ba": (lambda: ba_tree(200, seed=1), GREEDY_COMMANDS),
    "cm": (lambda: configuration_model(200, seed=2), GREEDY_COMMANDS),
    "rgg": (
        lambda: largest_connected_component(rgg(200, 1.5, seed=3))[0],
        GREEDY_COMMANDS + (("stats-lcc.json", ("stats", "--lcc", "--out", "{out}")),),
    ),
    "tree": (lambda: uniform_tree(200, seed=4), TREE_COMMANDS),
}

# recorded from the pair-scan greedy, before the partition engine replaced it
GOLDEN = {
    "ba/mdim-k0.json": "cbfe1470a786df418d5e2d3d21f41b311f4819df35a14ea7d6af296c1c994633",
    "ba/mdim-k3.json": "a3c4a9e7883727398f2ad83a9b78a4f701f4b45aeebb3fda70e206c00a13d9ff",
    "ba/sweep.csv": "2f54e08df209002dc32976f407ec6fef4a13f3463b540517301a21706e4309c6",
    "ba/two-step.csv": "a5f982332baf8df5358b6d03386dfb4907c2dbb1a0e5a0e22c00ab28e5ed54b3",
    "ba/two-step.json": "ef912911a3afc599ddd6b2f889b3f32d888bb55d47d67b899f6254578fc468ad",
    "cm/mdim-k0.json": "aee729d227f7b03e3b1473bac4dc0ed7583dd565fa3433741e8e1e7e235498fd",
    "cm/mdim-k3.json": "36b64c48014ba7f19e42d9d964446e71063906a7250ec1a902faacf6fd4e47ae",
    "cm/sweep.csv": "325e7715f8f0153aae0c41bcae726c2587ab9b23651dd4c3ea2eb3deea9aeca3",
    "cm/two-step.csv": "830a8c85ca1641b6d2d101c351df483447f93a16ad66014f31aee8f2303477b2",
    "cm/two-step.json": "4e4075dd6c5a131cd70d7b5d3c9a1c8c472f08d2c8c68626e6d32a6aa8eb6934",
    "rgg/mdim-k0.json": "807f07ef0620566e7bace8959b7c8242c6c9806db2a7b3452d6c84fdebde0544",
    "rgg/mdim-k3.json": "5a9a0002fc88616d9309369597524455322c27d85d087071add11ac52517fa78",
    "rgg/sweep.csv": "182e35e0e007e92e311880b25471a666762a765cb1b49ff3d5125cf8fbd73cc0",
    "rgg/two-step.csv": "aadafa3fd8a2bca09eb0a157c01ea10ae36ef0b9b72260161092373bc7a829c7",
    "rgg/two-step.json": "53eda2cd533b77a995c604d462a02916525dde9339dd7d7ec36a130aa26d5b8c",
    # recorded from the round-scan peel and the two-walk exact tree solver
    "rgg/stats-lcc.json": "b84326d972664138d0012b63fc2bbf1b2e16bb756f91e07f4b7acb827d338964",
    "tree/mdim-exact-k0.json": "2b1b5f09db717fd10e8189303cf458774e46d5d190d1227240d3ac5db032e4b6",
    "tree/mdim-exact-k3.json": "e097278a747ff932047c4ded4d6538c3f2ffa854eec4e28a0d21820fcb9e98d8",
    "tree/stats.json": "c01f337db7156a5043584ff1a495fd15a9c5e939c397a090e734d18358c78623",
    "tree/sweep-exact.csv": "896a055ca04241e38220c8c2941c48de4510175a07a76a335e6516b2e16eac07",
    # recorded from the 256-row batched conditioned sampler
    "generate/ba-tree.txt": "c5433fb309263ba2aca18f2056d738127d70e1b54fe05c85ea2f14cbf9477553",
    "generate/config-model.txt": "a8f2a40a4e085efa66611172644b068376b6f7d05b02818a27e011f9a04987b6",
    "generate/gw-tree-geometric0.6.txt": "b5127c8596b60070c29bf4db33e103a4568ce1121a0b1a0623dd98e32587c65b",
    "generate/gw-tree-pmf.txt": "d08e442912cd2d05c4bea99130e0ccf5ef9f8ca9877804a80c114904f678c451",
    "generate/gw-tree-poisson1.txt": "2241d1ae850256e046d23c9886f28eff901120c4563b7b3028e66aed874001ee",
    "generate/gw-tree-poisson3.txt": "9b2fc4ec92c98cea919082f5dcaee8a34b7f9607b7baa331fcc0c60008ac45c8",
    "generate/rgg.txt": "f13fe0511750b51a9db3eac6663c04a19c49f35f4d3349b991829926b17215d2",
    "generate/uniform-tree.txt": "c551ab6840d89591b7cf42413e0d70fa613db770f8e6d2e668b1a5556967748b",
}


def result_digests(workdir: Path) -> dict[str, str]:
    """Run every command on every input inside ``workdir``; digest results."""
    digests = {}
    for name, (build, commands) in INPUTS.items():
        g = build()
        edge_list = workdir / f"{name}.txt"
        edge_list.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
        for result, argv in commands:
            out = workdir / f"{name}-{result}"
            if argv is not None:
                base = str(out).rsplit(".", 1)[0]
                args = [a.format(out=out, base=base) for a in argv]
                assert main([args[0], str(edge_list), *args[1:]]) == 0
            digests[f"{name}/{result}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    pmf = workdir / "pmf.txt"
    pmf.write_text(PMF_TEXT)
    for result, argv in GENERATE_COMMANDS.items():
        out = workdir / f"generate-{result}"
        assert main(["generate", *(a.format(pmf=pmf) for a in argv), "--out", str(out)]) == 0
        digests[f"generate/{result}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    return result_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_result_file_unchanged(digests, key):
    assert digests[key] == GOLDEN[key]


def test_table_covers_every_result(digests):
    assert sorted(digests) == sorted(GOLDEN)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, value in sorted(result_digests(Path(tmp)).items()):
            print(f'    "{key}": "{value}",')
