"""Golden tests for the command line: byte-exact stdout and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pipedreams
from pipedreams import cli
from pipedreams.cli import _item, main
from pipedreams.perm import zigzag
from pipedreams.poly import SparsePolynomial
from pipedreams.rcgraph import bottom_rcgraph, enumerate_rcgraphs

ENUMERATE_ASCII = """\
.++.
.+.
..
.

.++.
...
+.
.

.+..
++.
..
.

..+.
+..
+.
.

....
++.
+.
.
"""

ENUMERATE_JSON = (
    '{"perm":"1,4,3,2","count":5,"rcgraphs":['
    '{"m":4,"crosses":[[1,2],[1,3],[2,2]]},'
    '{"m":4,"crosses":[[1,2],[1,3],[3,1]]},'
    '{"m":4,"crosses":[[1,2],[2,1],[2,2]]},'
    '{"m":4,"crosses":[[1,3],[2,1],[3,1]]},'
    '{"m":4,"crosses":[[2,1],[2,2],[3,1]]}]}\n'
)

ENUMERATE_LEGEND = """\
legend: '+' = cross, '.' = elbow
.+.
..
.

...
+.
.
"""

SCHUBERT_ORACLE = """\
x1^2*x2 + x1^2*x3 + x1*x2^2 + x1*x2*x3 + x2^2*x3
oracle agreement: yes
"""

SPECIALIZE = "q + 2*q^2 + q^3 + q^4\n"

BIJECT_PARTITION = (
    '{"n":3,"to":"partition","items":['
    '{"rc":{"m":4,"crosses":[[1,2],[1,3],[2,2]]},"partition":[2,1]},'
    '{"rc":{"m":4,"crosses":[[1,2],[1,3],[3,1]]},"partition":[2]},'
    '{"rc":{"m":4,"crosses":[[1,2],[2,1],[2,2]]},"partition":[1,1]},'
    '{"rc":{"m":4,"crosses":[[1,3],[2,1],[3,1]]},"partition":[1]},'
    '{"rc":{"m":4,"crosses":[[2,1],[2,2],[3,1]]},"partition":[]}]}\n'
)

VERIFY_MAX_N_4 = """\
PASS [1] five fillings of 1,4,3,2: 5 fillings with the expected monomials
PASS [2] q-Catalan specialization identity: exact for n=1..4
PASS [3] Catalan counting of zigzag fillings: counts [1, 2, 5, 14] for n=1..4
PASS [4] divided-difference oracle equivalence: all of S_4 and zigzag n<=4
PASS [5] elementary partition bijection: bijective with inverse and weight law for n<=4
PASS [5d] Dyck path coding: round trips and area transport for n<=4
PASS [6] Edelman-Greene correspondence: constant insertion tableau and round trips for n<=4; right-to-left is the single usable reading direction
PASS [7] transposition reverses bracketings: checked every filling for n<=4
PASS [8] split weight identity: exact for every filling with n<=4
PASS [9] Catalan multiplicity: equals catalan(n) for n<=4
PASS [10] q-Catalan cross-method: routes agree for n<=10, q=1 values for n<=12
11/11 checks passed
"""


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_biject_rc_directory_is_refused(capsys, tmp_path):
    code, out, err = run(capsys, "biject", "--n", "3", "--to", "partition",
                         "--rc", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: --rc file {tmp_path} ")
    assert "Traceback" not in err


def test_biject_rc_missing_file(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "biject", "--n", "3", "--to", "partition",
                         "--rc", str(missing))
    assert (code, out) == (1, "")
    assert err == f"error: --rc file {missing} not found\n"


@pytest.mark.parametrize("content, reason", [
    (b"\xff\n", " cannot be read: 'utf-8' codec can't decode byte 0xff in "
                 "position 0: invalid start byte"),
    (b"+++\n.\n", ": line 1 has 3 characters, expected 2"),
    (b"+.\n.\n", ": not a filling for the zigzag permutation of S_2"),
    (b"", ": empty text"),
    (b"\n\n\n", ": empty text"),
], ids=["undecodable", "malformed", "not-zigzag", "empty", "newlines-only"])
def test_biject_rc_bad_content_names_the_flag(capsys, tmp_path, content, reason):
    rc = tmp_path / "grid.txt"
    rc.write_bytes(content)
    code, out, err = run(capsys, "biject", "--n", "1", "--to", "partition",
                         "--rc", str(rc))
    assert (code, out) == (1, "")
    assert err == f"error: --rc file {rc}{reason}\n"


def test_biject_rc_grid_of_another_group_is_refused(capsys, tmp_path):
    rc = tmp_path / "s2.txt"
    rc.write_text("..\n.\n")  # the zigzag of 1, a grid for S_2
    code, out, err = run(capsys, "biject", "--n", "3", "--to", "partition",
                         "--rc", str(rc))
    assert (code, out) == (1, "")
    assert err == "error: --rc grid is for S_2, but --n 3 needs S_4\n"


def test_schubert_oracle_disagreement_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "schubert_via_divided_differences",
                        lambda w: SparsePolynomial())
    code, out, err = run(capsys, "schubert", "--perm", "1,4,3,2", "--oracle")
    assert code == 2
    assert out == SCHUBERT_ORACLE.replace("agreement: yes", "agreement: no")
    assert err == "divided-difference oracle disagrees\n"


def test_biject_rc_file(capsys, tmp_path):
    rc = tmp_path / "bottom.txt"
    rc.write_text("....\n++.\n+.\n.\n")
    code, out, err = run(capsys, "biject", "--n", "3", "--to", "partition",
                         "--rc", str(rc))
    assert (code, err) == (0, "")
    assert out == ('{"n":3,"to":"partition","items":['
                   '{"rc":{"m":4,"crosses":[[2,1],[2,2],[3,1]]},"partition":[]}]}\n')


CATALAN_Q_5 = (
    "1 + 4*q + 6*q^2 + 7*q^3 + 7*q^4 + 5*q^5 + 5*q^6 + 3*q^7 + 2*q^8"
    " + q^9 + q^10\n"
)

BIJECT_DYCK = (
    '{"n":3,"to":"dyck","items":['
    '{"rc":{"m":4,"crosses":[[1,2],[1,3],[2,2]]},"dyck":"URURUR"},'
    '{"rc":{"m":4,"crosses":[[1,2],[1,3],[3,1]]},"dyck":"URUURR"},'
    '{"rc":{"m":4,"crosses":[[1,2],[2,1],[2,2]]},"dyck":"UURRUR"},'
    '{"rc":{"m":4,"crosses":[[1,3],[2,1],[3,1]]},"dyck":"UURURR"},'
    '{"rc":{"m":4,"crosses":[[2,1],[2,2],[3,1]]},"dyck":"UUURRR"}]}\n'
)

BIJECT_TREE = (
    '{"n":3,"to":"tree","items":['
    '{"rc":{"m":4,"crosses":[[1,2],[1,3],[2,2]]},'
    '"bracketing":"(((1 2)3)4)","tree":[[[1,2],3],4]},'
    '{"rc":{"m":4,"crosses":[[1,2],[1,3],[3,1]]},'
    '"bracketing":"((1(2 3))4)","tree":[[1,[2,3]],4]},'
    '{"rc":{"m":4,"crosses":[[1,2],[2,1],[2,2]]},'
    '"bracketing":"((1 2)(3 4))","tree":[[1,2],[3,4]]},'
    '{"rc":{"m":4,"crosses":[[1,3],[2,1],[3,1]]},'
    '"bracketing":"(1((2 3)4))","tree":[1,[[2,3],4]]},'
    '{"rc":{"m":4,"crosses":[[2,1],[2,2],[3,1]]},'
    '"bracketing":"(1(2(3 4)))","tree":[1,[2,[3,4]]]}]}\n'
)

BIJECT_EG = (
    '{"n":3,"to":"eg","items":['
    '{"rc":{"m":4,"crosses":[[1,2],[1,3],[2,2]]},'
    '"p":[[3,4],[4]],"q":[[1,1],[2]],"partition":[2,1]},'
    '{"rc":{"m":4,"crosses":[[1,2],[1,3],[3,1]]},'
    '"p":[[3,4],[4]],"q":[[1,1],[3]],"partition":[2]},'
    '{"rc":{"m":4,"crosses":[[1,2],[2,1],[2,2]]},'
    '"p":[[3,4],[4]],"q":[[1,2],[2]],"partition":[1,1]},'
    '{"rc":{"m":4,"crosses":[[1,3],[2,1],[3,1]]},'
    '"p":[[3,4],[4]],"q":[[1,2],[3]],"partition":[1]},'
    '{"rc":{"m":4,"crosses":[[2,1],[2,2],[3,1]]},'
    '"p":[[3,4],[4]],"q":[[2,2],[3]],"partition":[]}]}\n'
)


WORST_PERM = "1,3,2,9,8,7,6,5,4"  # the slowest --perm case: 163,592 fillings

VERIFY_MAX_N_8 = (Path(__file__).parents[1] / "bench" / "golden"
                  / "verify-max-n-8.stdout").read_text()


def assert_stdout(out: str, expected: str) -> None:
    """expected is the exact stdout, or "sha256:" and the hex digest of it."""
    if expected.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert out == expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("enumerate", "--perm", "1,4,3,2"), ENUMERATE_ASCII),
        (("enumerate", "--perm", "1,4,3,2", "--format", "json"), ENUMERATE_JSON),
        (("schubert", "--perm", "1,4,3,2", "--oracle"), SCHUBERT_ORACLE),
        (("specialize", "--perm", "1,4,3,2"), SPECIALIZE),
        (("biject", "--n", "3", "--to", "partition"), BIJECT_PARTITION),
        (("verify", "--max-n", "4"), VERIFY_MAX_N_4),
        (("enumerate", "--perm", "1,2,3"), "...\n..\n.\n"),
        (("enumerate", "--perm", "1,2,3", "--format", "json"),
         '{"perm":"1,2,3","count":1,"rcgraphs":[{"m":3,"crosses":[]}]}\n'),
        (("enumerate", "--perm", "1,3,2", "--legend"), ENUMERATE_LEGEND),
        (("enumerate", "--perm", "1,3,2", "--legend", "--format", "json"),
         '{"perm":"1,3,2","count":2,"rcgraphs":['
         '{"m":3,"crosses":[[1,2]]},{"m":3,"crosses":[[2,1]]}]}\n'),
        (("catalan", "--n", "5"), "42\n"),
        (("catalan", "--n", "5", "--q"), CATALAN_Q_5),
        (("multiplicity", "--n", "3"), "5\n"),
        (("specialize", "--perm", "1,4,3,2", "--at-one"), "5\n"),
        (("biject", "--n", "3", "--to", "dyck"), BIJECT_DYCK),
        (("biject", "--n", "3", "--to", "tree"), BIJECT_TREE),
        (("biject", "--n", "3", "--to", "eg"), BIJECT_EG),
        # the largest inputs: each command at or near the limit it allows
        (("verify", "--max-n", "8"), VERIFY_MAX_N_8),
        (("verify", "--max-n", "10"),
         "sha256:4a060cbe7979aaf4137fda7cefad91829e728a38fc09f7c5cb2f05a8a90e9d04"),
        (("biject", "--n", "10", "--to", "eg"),
         "sha256:10311ac1744cc77b843f8cdfc4fa2dbb2641e1a7095e10f4f6285054b547ade6"),
        (("biject", "--n", "10", "--to", "partition"),
         "sha256:e4bd09985fc3b743f970e0908500a8f113144bee241492c8242d6321cdebeecf"),
        (("biject", "--n", "10", "--to", "tree"),
         "sha256:0189c2e17a1314f44f4f1d83e9344b273cbfee0d0a0e65801f167c3f244f57b4"),
        (("biject", "--n", "10", "--to", "dyck"),
         "sha256:f53c891bd69bd3a131abc99d5f600ab8dc15935915577452d3ced2ecaa4d7eae"),
        (("enumerate", "--perm", WORST_PERM, "--format", "json"),
         "sha256:5b32270ddbae5554bbd7b3af55875408ce01860b3683e7f9d440233f7785f24d"),
        (("schubert", "--perm", WORST_PERM),
         "sha256:621e33fa58f2314d3cc580ec73f20cd5045a8261dd3862a988c9b32844f18387"),
        (("schubert", "--perm", WORST_PERM, "--oracle"),
         "sha256:044514703879e18580f774d20b7186a093d945d1004c4839d3b1bacdf1445638"),
        (("specialize", "--perm", WORST_PERM),
         "sha256:9f3880bf9988196a0fe7464e2017604826316ceda0f257c3ae67322146869afa"),
        (("specialize", "--perm", WORST_PERM, "--at-one"), "163592\n"),
        (("catalan", "--n", "60", "--q"),
         "sha256:62abb3e6cbc0f377d66643125757ccf5e15c601ec005e035b068ff703cd47e96"),
        (("catalan", "--n", "80", "--q"),
         "sha256:b473fe77840baea2aa6b62c51eb2165efe56f2b787322c81dc11bbe1fd2c27ab"),
        (("multiplicity", "--n", "12"), "208012\n"),
        (("multiplicity", "--n", "17"), "129644790\n"),
    ],
    ids=["enumerate-ascii", "enumerate-json", "schubert-oracle", "specialize",
         "biject-partition", "verify-max-n-4", "enumerate-single-ascii",
         "enumerate-single-json", "enumerate-legend", "enumerate-legend-json",
         "catalan", "catalan-q", "multiplicity", "specialize-at-one", "biject-dyck",
         "biject-tree", "biject-eg",
         "verify-max-n-8", "verify-at-the-limit", "biject-eg-at-the-limit",
         "biject-partition-at-the-limit", "biject-tree-at-the-limit",
         "biject-dyck-at-the-limit", "enumerate-json-worst-perm",
         "schubert-worst-perm", "schubert-oracle-worst-perm",
         "specialize-worst-perm", "specialize-at-one-worst-perm",
         "catalan-q-n-60", "catalan-q-at-the-limit", "multiplicity-n-12",
         "multiplicity-at-the-limit"],
)
def test_golden_stdout(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert_stdout(out, expected)
    assert err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("schubert", "--perm", "1,1,2"),
         "error: --perm: [1, 1, 2] is not a rearrangement of 1..3\n"),
        (("enumerate", "--perm", "1,x"),
         "error: --perm: cannot parse permutation from '1,x'\n"),
        (("catalan", "--n", "-1"), "error: --n must be nonnegative\n"),
        (("catalan", "--n", "5", "--q", "--via", "partitions"),
         "pipedreams: error: unrecognized arguments: --via partitions\n"),
        (("biject", "--n", "0", "--to", "tree"), "error: --n must be positive\n"),
        (("verify", "--max-n", "0"), "error: --max-n must be positive\n"),
        (("multiplicity", "--n", "0"), "error: --n must be positive\n"),
        # oversized input is refused up front
        (("enumerate", "--perm", "1,2,3,4,5,6,7,8,10,9"),
         "error: --perm of size 10 exceeds the limit of 9\n"),
        (("schubert", "--perm", "10,9,8,7,6,5,4,3,2,1", "--oracle"),
         "error: --perm of size 10 exceeds the limit of 9\n"),
        (("specialize", "--perm", "1,10,9,8,7,6,5,4,3,2"),
         "error: --perm of size 10 exceeds the limit of 9\n"),
        # an oversized word is refused before it is parsed or echoed back
        (("enumerate", "--perm", "1,1,2,3,4,5,6,7,8,9"),
         "error: --perm of size 10 exceeds the limit of 9\n"),
        (("catalan", "--n", "5001"), "error: --n 5001 exceeds the limit of 5000\n"),
        (("catalan", "--n", "81", "--q"),
         "error: --q --n 81 exceeds the limit of 80\n"),
        (("biject", "--n", "11", "--to", "partition"),
         "error: --n 11 exceeds the limit of 10\n"),
        (("biject", "--n", "451", "--to", "eg", "--rc", "never-read.txt"),
         "error: --rc --n 451 exceeds the limit of 450\n"),
        (("multiplicity", "--n", "18"), "error: --n 18 exceeds the limit of 17\n"),
        (("verify", "--max-n", "11"), "error: --max-n 11 exceeds the limit of 10\n"),
    ],
    ids=["perm-repeated-entry", "perm-not-a-number", "catalan-negative",
         "via-is-gone", "biject-n-zero", "verify-max-n-zero",
         "multiplicity-n-zero",
         "enumerate-perm", "schubert-perm", "specialize-perm",
         "perm-oversized-non-permutation", "catalan-n",
         "catalan-q-n", "biject-n", "biject-rc-n",
         "multiplicity-n", "verify-max-n"],
)
def test_bad_input_exits_1_with_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == message


@pytest.mark.parametrize("newlines, code", [(17, 0), (18, 1)],
                         ids=["at-the-bound", "past-the-bound"])
def test_biject_rc_file_is_read_up_to_its_bound(capsys, tmp_path, newlines, code):
    # S_4: 4 * 7 / 2 = 14 bytes of rows and newlines, and 16 extra newlines
    rc = tmp_path / "bottom.txt"
    rc.write_text(bottom_rcgraph(3).to_text() + "\n" * newlines)
    assert rc.stat().st_size == 30 + code
    got, out, err = run(capsys, "biject", "--n", "3", "--to", "partition",
                        "--rc", str(rc))
    assert got == code
    if code:
        assert out == ""
        assert err == f"error: --rc file {rc} exceeds the limit of 30 bytes for --n 3\n"
    else:
        assert err == ""
        assert out.endswith('"partition":[]}]}\n')


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_biject_rc_endless_file_is_refused(capsys):
    code, out, err = run(capsys, "biject", "--n", "2", "--to", "eg",
                         "--rc", "/dev/zero")
    assert (code, out) == (1, "")
    assert err == "error: --rc file /dev/zero exceeds the limit of 25 bytes for --n 2\n"


def test_biject_limit_applies_to_the_family_only(capsys, tmp_path):
    rc = tmp_path / "bottom11.txt"
    rc.write_text(bottom_rcgraph(11).to_text())
    code, out, err = run(capsys, "biject", "--n", "11", "--to", "partition",
                         "--rc", str(rc))
    assert (code, err) == (0, "")
    assert out.endswith('"partition":[]}]}\n')


def test_biject_rc_grid_over_the_limit_is_refused(capsys, tmp_path):
    # --to tree on a grid this size would pass the interpreter's recursion limit
    rc = tmp_path / "bottom1000.txt"
    rc.write_text(bottom_rcgraph(1000).to_text())
    code, out, err = run(capsys, "biject", "--n", "1000", "--to", "tree",
                         "--rc", str(rc))
    assert (code, out) == (1, "")
    assert err == "error: --rc --n 1000 exceeds the limit of 450\n"
    assert "Traceback" not in err


def test_biject_rc_grid_at_the_limit(capsys, tmp_path):
    rc = tmp_path / "bottom450.txt"
    rc.write_text(bottom_rcgraph(450).to_text())
    code, out, err = run(capsys, "biject", "--n", "450", "--to", "partition",
                         "--rc", str(rc))
    assert (code, err) == (0, "")
    assert out.endswith('"partition":[]}]}\n')


def test_biject_rc_tree_at_the_limit(capsys, tmp_path):
    rc = tmp_path / "bottom450.txt"
    rc.write_text(bottom_rcgraph(450).to_text())
    code, out, err = run(capsys, "biject", "--n", "450", "--to", "tree",
                         "--rc", str(rc))
    assert (code, err) == (0, "")
    [item] = json.loads(out)["items"]
    tree = [450, 451]
    for x in range(449, 0, -1):
        tree = [x, tree]
    assert item["tree"] == tree
    assert item["bracketing"] == (
        "".join(f"({x}" for x in range(1, 450)) + "(450 451)" + ")" * 449
    )
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1c1c2e83035c817a091ae80d601146e967bca940a3c88f7756c84a45f8e0b393"
    )


START_UP = """
import sys
heavy = {"dataclasses", "inspect", "json"}
before = heavy & set(sys.modules)
import pipedreams.cli
print(sorted(heavy & set(sys.modules) - before), file=sys.stderr)
code = pipedreams.cli.main(["verify", "--max-n", "1"])
print(sorted(heavy & set(sys.modules) - before), file=sys.stderr)
sys.exit(code)
"""


def test_start_up_loads_no_dataclasses_inspect_or_json():
    # pytest itself has loaded all three, so a fresh interpreter checks
    env = dict(os.environ, PYTHONPATH=str(Path(pipedreams.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", START_UP], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.endswith("11/11 checks passed\n")
    assert proc.stderr == "[]\n[]\n"


def test_closed_stdout_exits_1_without_traceback():
    # each about 0.3 MB of output, more than a pipe buffer holds
    env = dict(os.environ, PYTHONPATH=str(Path(pipedreams.__file__).parents[1]))
    for argv in (["enumerate", "--perm", "1,9,8,7,6,5,4,3,2", "--format", "json"],
                 ["biject", "--n", "8", "--to", "eg"]):
        with subprocess.Popen(
            [sys.executable, "-m", "pipedreams.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1, argv
        assert "Traceback" not in err
        assert "Exception ignored" not in err


def assert_same_output(out: str, obj) -> None:
    """out is obj as compact JSON and a newline.  A mismatch reports the
    lengths and the first differing offset, where pytest would diff strings
    of about 0.5 MB for a minute."""
    want = json.dumps(obj, separators=(",", ":")) + "\n"
    if out != want:
        at = len(os.path.commonprefix([out, want]))
        pytest.fail(f"output of {len(out)} chars, expected {len(want)}; first "
                    f"difference at {at}: {out[at:at + 20]!r} != {want[at:at + 20]!r}",
                    pytrace=False)


@pytest.mark.parametrize("to", ["partition", "dyck", "tree", "eg"])
def test_biject_streams_the_object_built_whole(capsys, tmp_path, to):
    # n = 8 has 1,430 items, more than one batch of the writer
    for n in (1, 2, 3, 4, 5, 6, 8):
        code, out, err = run(capsys, "biject", "--n", str(n), "--to", to)
        items = [_item(d, n, to) for d in enumerate_rcgraphs(zigzag(n))]
        assert (code, err) == (0, "")
        assert_same_output(out, {"n": n, "to": to, "items": items})
    d = enumerate_rcgraphs(zigzag(5))[17]
    rc = tmp_path / "grid.txt"
    rc.write_text(d.to_text())
    code, out, err = run(capsys, "biject", "--n", "5", "--to", to, "--rc", str(rc))
    assert (code, err) == (0, "")
    assert_same_output(out, {"n": 5, "to": to, "items": [_item(d, 5, to)]})
