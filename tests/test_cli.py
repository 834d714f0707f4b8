"""Golden tests for the command line: byte-exact stdout and exit codes."""

import pytest

from pipedreams.cli import main

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
