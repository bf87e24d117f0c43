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
    "g0/c0/data.csv": "e0117c7937962dde371d96937f2bfacc7c2b5a4474311a05af98dc53aa842122",
    "g0/c1/case.json": "a2e8296d2b53c5835e86dbb7b916f647110befa9d2ae1eefeada742eef8d933c",
    "g0/c1/data.csv": "130e8587ec4af501a3fd4ea7d5b5e2a4e7d4a310b450f49ab4daab9949ab52b1",
    "g0/c2/case.json": "fe43dc74529df3697106932419c8957241fc493a1f4ec1c7f251b3ab3e5bfc99",
    "g0/c2/data.csv": "25bb1cdaf6cb00129dff7e6db7e00beb196fd80f446025c815377c5578841af9",
    "g0/c3/case.json": "a0df490b2167bdd179df56706b48aba1eb93ee7a46653ab172ca7413d0ed220a",
    "g0/c3/data.csv": "3085c2d6bf952d9014b73d376598a1099306bce3800cacbb6697f47659ae3021",
    "g0/c4/case.json": "a839b3970caffe453bf4196b44bc25558dd18456777876080e487b54605e738b",
    "g0/c4/data.csv": "1495823c28869cbc0f61ea1d93f2992b7d7ada6959864316e3c1911693cad2da",
    "g0/c5/case.json": "4a3c71fc92b8dccf1bfa8c597ae313d12f2b9edea6b107e8d1bb8408b31eca50",
    "g0/c5/data.csv": "2d7125ee1c7e28cc19c2ed0dba9efad149c59e4b51b1e5b5bcda1e01712b4e92",
    "g0/graph.json": "59f4a60ea20a4825a2761255e3fc3c946219c98ba9fe4af266c92e5abf5e69e4",
    "g1/c0/case.json": "04ccf0ece78f23f0cb7f4c77defa633d3a8222fdc4fd7a389a399bf3fa4d69f9",
    "g1/c0/data.csv": "846f6eb220b570439b562df7b217bdde78d2d25a9a974313ebddf218f88521ed",
    "g1/c1/case.json": "abea7def982c623e469bc70b05cc33cb5a40b2f77087577cbf89ac0893ab6223",
    "g1/c1/data.csv": "8587df2cbc012793fc38085741a07f23c4f8cdef5ecc7c5160a02fd3bf9940bc",
    "g1/c2/case.json": "23cee0704cd7d8000b639d8539afb4b9a31ece1fbb6e2b9dc4c7f088fcf65814",
    "g1/c2/data.csv": "217ab637f15ac7f1e74956f74d0bdcaf4a1503c699960c94800f13b889e69620",
    "g1/c3/case.json": "f21b7a4f624d18b90f1c5b821de67743a56d1e1ed11ec9db3477134fccbd1cb5",
    "g1/c3/data.csv": "69734cd467c30d6c6d9a85b1bef2278baf3a063bd79b60ffe70930040a9dc94d",
    "g1/c4/case.json": "3d32d796d4df37dda542a8f8accb13ad41f255ab4eed296bc798e5dcefb36a28",
    "g1/c4/data.csv": "ecdf48fed653e0225579aa3717c259c514081573aa9423da0540b024c2effa0e",
    "g1/c5/case.json": "c8c2b8a9ee6335592a092067aae5ae4fbc5d1918f7c910d070da482ed0084906",
    "g1/c5/data.csv": "7e1741158883a307b3cef838011d672f04ad029a1b6c844497ab9dc5b8e60dc7",
    "g1/graph.json": "ac3d7a48fb3eb9b7cb1a37e0890c34211a178d2559cf856772059c4e9a26ec9f",
    "manifest.json": "75d6f46e35be83d2a99efa526fa353ce635350ba0a1d82ff6521a00028fb0763",
}

#: ``analyze`` on each case of ANALYZED with each scorer: scores.json and stdout.
ANALYZE = {
    "rht-g0-c0.json stdout": "738ec30edfd0d55ce544fa95f78e1210ef1762166eff5fb8ca88e952a5b8ad0f",
    "rht-g0-c0.json": "67bd9ef0312caddf02b0087a5448d20d15884c876d42b02a9c9820ee5219ec28",
    "rht-pg-g0-c0.json stdout": "0e0f81a48e6e6ee81255fd1ce8775246f2966e65a75eb8f02428b949d9291e73",
    "rht-pg-g0-c0.json": "2e29c2322cc40574e45d6cb177bcaf40af9366f7c03d0de5c21cf5f3a8ee2ef5",
    "circa-g0-c0.json stdout": "1b57207902e76806a6d8a17d24204b3b80ae113352c2101ff31e53fb0bbca1cd",
    "circa-g0-c0.json": "ff8dcdbdc39cb1b398c36bbd26e43e29a3e2fcfd1f55bf91d18bf8a360c83097",
    "nsigma-g0-c0.json stdout": "8648aed3b70734d6d47ad6b8e8504d72f3afeb49a5ff5e8bc691c381aa129469",
    "nsigma-g0-c0.json": "0b026ad7f10ae43ca4fafdc2f3c54afbaf395912e50dd68db4c3a3bcb24a9e71",
    "dfs-g0-c0.json stdout": "3f36ad835f891da390ff2ee44aa6aef3a8dccbd586ccf8cd392a311a929e6200",
    "dfs-g0-c0.json": "0b026ad7f10ae43ca4fafdc2f3c54afbaf395912e50dd68db4c3a3bcb24a9e71",
    "ideal-g0-c0.json stdout": "bec8dc36a80be85ff25811db18f91fb6876fca3b5df9808c1a4ef80ea2011c40",
    "ideal-g0-c0.json": "b5c73ad8755fbdec23549ca9e8a16998da834a06016d105bf13c5e49c9bf46b4",
    "rht-g1-c5.json stdout": "558631336dfa7c7fbbfd6e927fdb92cd603c6e35e61caab9e35b5f6e52f62250",
    "rht-g1-c5.json": "6e574e42bb8dc27322192c6d26f8a2106f8a45a635a7df4290c487d702ecc220",
    "rht-pg-g1-c5.json stdout": "30d6968b4fd7b58263b646d1c21481b00082a13b95ed7488c7292ee35510561d",
    "rht-pg-g1-c5.json": "2256cb7ebab51c338073cbd12c4f98e43d778067e397e32c07badf5e84dc2fc9",
    "circa-g1-c5.json stdout": "312512f7e5fc9fc3608c09518c620c56cdb459dd5ab83e7e6ff8312baa96ad2b",
    "circa-g1-c5.json": "63a6aed599a62ebc310ffa577ed6d8390feece30555e5ad9ba2b4ecf2ca5ab4f",
    "nsigma-g1-c5.json stdout": "8f8aeeb6397c1c95e83965cdae7a179f3fa6afd872b065111a0afef10d62ad0c",
    "nsigma-g1-c5.json": "2f3f131e543c3a4a9feb760754c1b6a0aa529df97feea7269b1d927fe09ee362",
    "dfs-g1-c5.json stdout": "165fff391c9293ef7ffb0cf92e4a9d3ab1fae810c1930a674e3bec22bf1a737a",
    "dfs-g1-c5.json": "fff84dbb389ca0f4b2538998e2d1109ff7baeba99da3aa47dea181e134667eb6",
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
