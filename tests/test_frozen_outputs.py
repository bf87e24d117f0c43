"""Frozen outputs: SHA-256 digests of what the commands write, pinned.

"Behaviour-preserving" means the same dataset bytes for the same seed and
the same rankings.  These pins make that a check across commits: each
output file has its own digest, so a mismatch names every file that
moved.  A change whose outputs move by design updates the pins and says
why; any other change leaves them alone.  The pins hold for the numpy and
BLAS they were computed with; the tree's bytes do not depend on the BLAS
thread count.

Every command runs with relative paths from a temporary working
directory, so no temporary path enters a digest.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from rcakit import simulation
from rcakit.cli import main
from rcakit.scoring import SCORER_NAMES

from test_cli import WEB_DB_YAML

SIMULATE = ["simulate", "--nodes", "60", "--edges", "150", "--graphs", "2", "--cases", "6",
            "--seed", "7", "--out", "ds", "--jobs", "1"]
#: The cases ``analyze`` scores with every scorer.
ANALYZED = ("g0/c0", "g1/c5")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digests(root: str) -> dict:
    """Each file under ``root``, by its path relative to ``root``."""
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = digest(fh.read())
    return dict(sorted(out.items()))


def run(argv) -> str:
    """``main(argv)``'s stdout; the command must succeed."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def moved(pins: dict, got: dict) -> list:
    """The names whose digest differs from, or is missing beside, its pin."""
    return sorted(name for name in pins.keys() | got.keys() if pins.get(name) != got.get(name))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Digests of every pinned output, computed in a fresh directory."""
    work = tmp_path_factory.mktemp("frozen")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        run(SIMULATE)
        got = {"tree": tree_digests("ds"), "analyze": {}}
        for case in ANALYZED:
            graph = f"ds/{case.split('/')[0]}/graph.json"
            for scorer in SCORER_NAMES:
                out = f"{scorer}-{case.replace('/', '-')}.json"
                stdout = run(["analyze", f"ds/{case}", "--graph", graph, "--scorer", scorer,
                              "--out", out])
                got["analyze"][f"{out} stdout"] = digest(stdout.encode())
                with open(out, "rb") as fh:
                    got["analyze"][out] = digest(fh.read())
        run(["evaluate", "ds", "--scorers", ",".join(SCORER_NAMES), "--out", "report.json",
             "--jobs", "1"])
        with open("report.json") as fh:
            report = json.load(fh)
        for method in report["methods"].values():
            del method["mean_time_s"]
        got["report"] = digest(json.dumps(report, indent=2, sort_keys=True).encode())
        with open("arch.yaml", "w") as fh:
            fh.write(WEB_DB_YAML)
        run(["graph", "arch.yaml", "--out", "graph.json"])
        with open("graph.json", "rb") as fh:
            got["graph"] = digest(fh.read())
    return got


#: ``simulate`` (SIMULATE above): each file of the tree.
TREE = {
    "g0/c0/case.json": "6d938e060dffe5143d329afe3273d184be954a9668306549af8abed6eaad66f0",
    "g0/c0/data.csv": "4756dc68e2e98397ce0c0bf75674d7d54f314ea6df28c81189f66e22750086b8",
    "g0/c1/case.json": "a2e8296d2b53c5835e86dbb7b916f647110befa9d2ae1eefeada742eef8d933c",
    "g0/c1/data.csv": "debdc10b7b4c887f2d2db2dd18caf319586ea121891310d1d00f5e4011b6b90b",
    "g0/c2/case.json": "fe43dc74529df3697106932419c8957241fc493a1f4ec1c7f251b3ab3e5bfc99",
    "g0/c2/data.csv": "3e4535b40ba6ee3672adcdf13c7c7ad8c28afa0258584185b68b930e04ea3133",
    "g0/c3/case.json": "a0df490b2167bdd179df56706b48aba1eb93ee7a46653ab172ca7413d0ed220a",
    "g0/c3/data.csv": "c1cd8c7c3d556167aaf005425815d7d9fb20bd77fe0af8b5ff4ea87331638c14",
    "g0/c4/case.json": "a839b3970caffe453bf4196b44bc25558dd18456777876080e487b54605e738b",
    "g0/c4/data.csv": "18f85c5bea8cfea45d304a6b2a4a3f0a194cc12459bc19911c4b26ec9d8f898a",
    "g0/c5/case.json": "4a3c71fc92b8dccf1bfa8c597ae313d12f2b9edea6b107e8d1bb8408b31eca50",
    "g0/c5/data.csv": "14f4c7f3113dfe86119215fc7a5e8d8dc8c55d458e2b6b8d8ad5382b4acc3a41",
    "g0/graph.json": "59f4a60ea20a4825a2761255e3fc3c946219c98ba9fe4af266c92e5abf5e69e4",
    "g1/c0/case.json": "04ccf0ece78f23f0cb7f4c77defa633d3a8222fdc4fd7a389a399bf3fa4d69f9",
    "g1/c0/data.csv": "9b6bc65506fb9c7ca0fb5b56edd86103ba766ea0e17849069fd0df6ef4268d2b",
    "g1/c1/case.json": "abea7def982c623e469bc70b05cc33cb5a40b2f77087577cbf89ac0893ab6223",
    "g1/c1/data.csv": "6308f4801c43c71b812edf2568ee39245ec568544d744901d5f8738897a0ca13",
    "g1/c2/case.json": "23cee0704cd7d8000b639d8539afb4b9a31ece1fbb6e2b9dc4c7f088fcf65814",
    "g1/c2/data.csv": "5b690d9cfdbc25ff96f25a5d4f3fe1591ab59e49e065c2ec7b88b6577f27aa87",
    "g1/c3/case.json": "f21b7a4f624d18b90f1c5b821de67743a56d1e1ed11ec9db3477134fccbd1cb5",
    "g1/c3/data.csv": "37d940c254290c08faea30c4b52318869f7447135b00d384b12c8983b2254615",
    "g1/c4/case.json": "3d32d796d4df37dda542a8f8accb13ad41f255ab4eed296bc798e5dcefb36a28",
    "g1/c4/data.csv": "2d9f51320f19ef915ad04428df678aa2a935d9d187f6fc68f4a2ec07bc880c4b",
    "g1/c5/case.json": "c8c2b8a9ee6335592a092067aae5ae4fbc5d1918f7c910d070da482ed0084906",
    "g1/c5/data.csv": "db74eb576803f0f9f83795636ade24eaea811f9ce156e6e972b5793751ac244f",
    "g1/graph.json": "ac3d7a48fb3eb9b7cb1a37e0890c34211a178d2559cf856772059c4e9a26ec9f",
    "manifest.json": "75d6f46e35be83d2a99efa526fa353ce635350ba0a1d82ff6521a00028fb0763",
}

#: ``analyze`` on each case of ANALYZED with each scorer: scores.json and stdout.
ANALYZE = {
    "rht-g0-c0.json stdout": "738ec30edfd0d55ce544fa95f78e1210ef1762166eff5fb8ca88e952a5b8ad0f",
    "rht-g0-c0.json": "85c56a5a6cf0196628daa6b1dc00da396556d79bf7c6732cde03d7e59799b394",
    "rht-pg-g0-c0.json stdout": "0e0f81a48e6e6ee81255fd1ce8775246f2966e65a75eb8f02428b949d9291e73",
    "rht-pg-g0-c0.json": "8952eb52a646100363281b9dcf1943133fa829be4190f0653e9906a88570ca2a",
    "circa-g0-c0.json stdout": "1b57207902e76806a6d8a17d24204b3b80ae113352c2101ff31e53fb0bbca1cd",
    "circa-g0-c0.json": "be1ddaba978520853e64304ccb9929120ede0ba8e8e9ad1a8f5ae34eaa0d04da",
    "nsigma-g0-c0.json stdout": "8648aed3b70734d6d47ad6b8e8504d72f3afeb49a5ff5e8bc691c381aa129469",
    "nsigma-g0-c0.json": "45497f299a5c3d2aba192f3eced1f78aca80e1f4c705f894021b85d9e777721b",
    "dfs-g0-c0.json stdout": "3f36ad835f891da390ff2ee44aa6aef3a8dccbd586ccf8cd392a311a929e6200",
    "dfs-g0-c0.json": "45497f299a5c3d2aba192f3eced1f78aca80e1f4c705f894021b85d9e777721b",
    "ideal-g0-c0.json stdout": "bec8dc36a80be85ff25811db18f91fb6876fca3b5df9808c1a4ef80ea2011c40",
    "ideal-g0-c0.json": "b5c73ad8755fbdec23549ca9e8a16998da834a06016d105bf13c5e49c9bf46b4",
    "rht-g1-c5.json stdout": "558631336dfa7c7fbbfd6e927fdb92cd603c6e35e61caab9e35b5f6e52f62250",
    "rht-g1-c5.json": "47e4b3ca4bd9de1c8ed66c00110cd96a0ea79e992222d8cd83287d9ed535f456",
    "rht-pg-g1-c5.json stdout": "30d6968b4fd7b58263b646d1c21481b00082a13b95ed7488c7292ee35510561d",
    "rht-pg-g1-c5.json": "140a5a2b7797d4f116bfd31f686625a11be01eec4c91812cdd855f27d206fcde",
    "circa-g1-c5.json stdout": "312512f7e5fc9fc3608c09518c620c56cdb459dd5ab83e7e6ff8312baa96ad2b",
    "circa-g1-c5.json": "ed0c17225b75a206fd33e3fd2d08bf4e094952650f11e4cfa9a275a615bfa312",
    "nsigma-g1-c5.json stdout": "8f8aeeb6397c1c95e83965cdae7a179f3fa6afd872b065111a0afef10d62ad0c",
    "nsigma-g1-c5.json": "feb70016822dd666b84ead04ad8f15f9306e525b0481d7c6b324c77b9b9d6854",
    "dfs-g1-c5.json stdout": "165fff391c9293ef7ffb0cf92e4a9d3ab1fae810c1930a674e3bec22bf1a737a",
    "dfs-g1-c5.json": "029641025f117b51157c547d9cdfa865df2db951e1c68e2322ffeeecf9c03db6",
    "ideal-g1-c5.json stdout": "9d5d1a12487352ec4919d46c17d1185d0460e3260a9d40cda9dcbca3ad53393e",
    "ideal-g1-c5.json": "5b8f800745426eb2b93bea94b9e36a8deaa5d03463b2d6dd11760f8d7a73f004",
}

#: ``evaluate`` with every scorer: report.json without any ``mean_time_s``.
REPORT = "00c9ccc86a2c461446aa3ac0d24736ead5a87db494224a2d2b6dcc3c72444c82"

#: ``graph`` on the web/db architecture: graph.json.
GRAPH = "803952b98cd1fa0a1c58323911064bc6f01a759a1577b53857fb5e2a10ec6a8f"


def test_simulate_tree_is_frozen(outputs):
    assert len(outputs["tree"]) == 1 + 2 * (1 + 6 * 2)
    assert moved(TREE, outputs["tree"]) == []


def test_analyze_outputs_are_frozen(outputs):
    assert len(outputs["analyze"]) == 2 * len(ANALYZED) * len(SCORER_NAMES)
    assert moved(ANALYZE, outputs["analyze"]) == []


def test_report_is_frozen(outputs):
    assert outputs["report"] == REPORT


def test_graph_is_frozen(outputs):
    assert outputs["graph"] == GRAPH


@pytest.mark.parametrize("failure", [MemoryError, KeyboardInterrupt])
def test_simulate_that_fails_leaves_nothing(tmp_path, monkeypatch, failure):
    # The third case fails to write: --out stays unmade, no partial tree is
    # left beside it, and a rerun writes the frozen tree.
    monkeypatch.chdir(tmp_path)
    save_case, written = simulation.save_case, []

    def third_fails(*args, **kwargs):
        written.append(args[0])
        if len(written) == 3:
            raise failure()
        return save_case(*args, **kwargs)

    monkeypatch.setattr(simulation, "save_case", third_fails)
    if failure is MemoryError:
        assert main(SIMULATE) == 1
    else:
        with pytest.raises(KeyboardInterrupt):
            main(SIMULATE)
    assert len(written) == 3
    assert os.listdir(".") == []
    monkeypatch.setattr(simulation, "save_case", save_case)
    run(SIMULATE)
    assert moved(TREE, tree_digests("ds")) == []


def test_simulate_into_the_working_directory(tmp_path, monkeypatch):
    # An existing --out stays the same directory: written as ".", the tree
    # shows in a listing of "." and has the bytes of a run into a new one.
    small = ["simulate", "--nodes", "5", "--edges", "6", "--graphs", "1", "--cases", "2",
             "--seed", "1", "--jobs", "1", "--out"]
    monkeypatch.chdir(tmp_path)
    run(small + ["fresh"])
    (tmp_path / "here").mkdir()
    monkeypatch.chdir(tmp_path / "here")
    run(small + ["."])
    assert sorted(os.listdir(".")) == ["g0", "manifest.json"]
    assert tree_digests(".") == tree_digests(str(tmp_path / "fresh"))


@pytest.mark.parametrize("failure", [MemoryError, KeyboardInterrupt])
def test_simulate_that_fails_leaves_an_existing_out_empty(tmp_path, monkeypatch, failure):
    # The third case fails to write into an existing empty --out: it stays,
    # empty, with nothing beside it, and a rerun writes the frozen tree.
    monkeypatch.chdir(tmp_path)
    os.mkdir("ds")
    save_case, written = simulation.save_case, []

    def third_fails(*args, **kwargs):
        written.append(args[0])
        if len(written) == 3:
            raise failure()
        return save_case(*args, **kwargs)

    monkeypatch.setattr(simulation, "save_case", third_fails)
    if failure is MemoryError:
        assert main(SIMULATE) == 1
    else:
        with pytest.raises(KeyboardInterrupt):
            main(SIMULATE)
    assert len(written) == 3
    assert os.listdir(".") == ["ds"] and os.listdir("ds") == []
    monkeypatch.setattr(simulation, "save_case", save_case)
    run(SIMULATE)
    assert moved(TREE, tree_digests("ds")) == []


def test_simulate_interrupted_while_moving_up_leaves_out_empty(tmp_path, monkeypatch):
    # An interrupt after the first entry moved up into an existing --out
    # takes that entry back out with the staged tree.
    monkeypatch.chdir(tmp_path)
    os.mkdir("ds")
    rename, moves = Path.rename, []

    def second_move_fails(self, target):
        if Path(target).parent == tmp_path / "ds":
            moves.append(target)
            if len(moves) == 2:
                raise KeyboardInterrupt
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", second_move_fails)
    with pytest.raises(KeyboardInterrupt):
        main(SIMULATE)
    assert len(moves) == 2
    assert os.listdir(".") == ["ds"] and os.listdir("ds") == []
