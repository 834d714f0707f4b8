"""Golden tests for the command line: byte-exact stdout and exit codes."""

import pytest

from pipedreams.cli import main
from pipedreams.rcgraph import bottom_rcgraph

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


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("enumerate", "--perm", "1,4,3,2"), ENUMERATE_ASCII),
        (("enumerate", "--perm", "1,4,3,2", "--format", "json"), ENUMERATE_JSON),
        (("schubert", "--perm", "1,4,3,2", "--oracle"), SCHUBERT_ORACLE),
        (("specialize", "--perm", "1,4,3,2"), SPECIALIZE),
        (("biject", "--n", "3", "--to", "partition"), BIJECT_PARTITION),
        (("verify", "--max-n", "4"), VERIFY_MAX_N_4),
    ],
    ids=["enumerate-ascii", "enumerate-json", "schubert-oracle", "specialize",
         "biject-partition", "verify-max-n-4"],
)
def test_golden_stdout(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == expected
    assert err == ""


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


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("catalan", "--n", "5"), "42\n"),
        (("catalan", "--n", "5", "--q"), CATALAN_Q_5),
        (("catalan", "--n", "5", "--q", "--via", "recurrence"), CATALAN_Q_5),
        (("catalan", "--n", "5", "--q", "--via", "partitions"), CATALAN_Q_5),
        (("multiplicity", "--n", "3"), "5\n"),
        (("biject", "--n", "3", "--to", "dyck"), BIJECT_DYCK),
        (("biject", "--n", "3", "--to", "tree"), BIJECT_TREE),
        (("biject", "--n", "3", "--to", "eg"), BIJECT_EG),
    ],
    ids=["catalan", "catalan-q", "catalan-q-recurrence", "catalan-q-partitions",
         "multiplicity", "biject-dyck", "biject-tree", "biject-eg"],
)
def test_golden_stdout_more_commands(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == expected
    assert err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("schubert", "--perm", "1,1,2"),
         "error: [1, 1, 2] is not a rearrangement of 1..3\n"),
        (("enumerate", "--perm", "1,x"),
         "error: cannot parse permutation from '1,x'\n"),
        (("catalan", "--n", "-1"), "error: --n must be nonnegative\n"),
        (("catalan", "--n", "5", "--via", "partitions"),
         "error: --via requires --q\n"),
    ],
    ids=["perm-repeated-entry", "perm-not-a-number", "catalan-negative",
         "via-without-q"],
)
def test_bad_input_exits_1_with_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (("enumerate", "--perm", "1,2,3,4,5,6,7,8,10,9"),
         "error: --perm of size 10 exceeds the limit of 9\n"),
        (("schubert", "--perm", "10,9,8,7,6,5,4,3,2,1", "--oracle"),
         "error: --perm of size 10 exceeds the limit of 9\n"),
        (("specialize", "--perm", "1,10,9,8,7,6,5,4,3,2"),
         "error: --perm of size 10 exceeds the limit of 9\n"),
        (("catalan", "--n", "5001"), "error: --n 5001 exceeds the limit of 5000\n"),
        (("catalan", "--n", "2000", "--q"),
         "error: --q --n 2000 exceeds the limit of 60\n"),
        (("catalan", "--n", "14", "--q", "--via", "partitions"),
         "error: --via partitions --n 14 exceeds the limit of 13\n"),
        (("biject", "--n", "11", "--to", "partition"),
         "error: --n 11 exceeds the limit of 10\n"),
        (("multiplicity", "--n", "13"), "error: --n 13 exceeds the limit of 12\n"),
        (("verify", "--max-n", "10"), "error: --max-n 10 exceeds the limit of 9\n"),
    ],
    ids=["enumerate-perm", "schubert-perm", "specialize-perm", "catalan-n",
         "catalan-q-n", "catalan-partitions-n", "biject-n", "multiplicity-n",
         "verify-max-n"],
)
def test_oversized_input_is_refused_up_front(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == message


def test_biject_limit_applies_to_the_family_only(capsys, tmp_path):
    rc = tmp_path / "bottom11.txt"
    rc.write_text(bottom_rcgraph(11).to_text())
    code, out, err = run(capsys, "biject", "--n", "11", "--to", "partition",
                         "--rc", str(rc))
    assert (code, err) == (0, "")
    assert out.endswith('"partition":[]}]}\n')
