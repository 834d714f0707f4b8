import weakref

import pytest

from pipedreams import rcgraph, verify
from pipedreams.bijections import Bracketing
from pipedreams.catalan import Partition, catalan, enumerate_staircase_partitions
from pipedreams.cli import main
from pipedreams.eg import InsertionError, eg_word
from pipedreams.perm import make_perm, zigzag
from pipedreams.rcgraph import NotReducedError, bottom_rcgraph, enumerate_rcgraphs


def raise_not_reduced(*args):
    raise NotReducedError("strands 1 and 2 cross twice")


def test_all_checks_pass_in_order():
    results = verify.run_checks("all", 3)
    assert [r.ident for r in results] == [
        "1", "2", "3", "4", "5", "5d", "6", "7", "8", "9", "10"
    ]
    assert all(r.passed for r in results)


def test_suite_selects_its_checks():
    results = verify.run_checks("bijections", 3)
    assert [(r.ident, r.suite) for r in results] == [
        ("5", "bijections"), ("5d", "bijections")
    ]


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_checks("nope", 3)


def test_raising_check_becomes_a_failure(monkeypatch):
    monkeypatch.setattr(verify, "check_split", raise_not_reduced)
    results = verify.run_checks("all", 3)
    assert len(results) == 11
    failed = [r for r in results if not r.passed]
    assert [(r.ident, r.name) for r in failed] == [("8", "split weight identity")]
    assert failed[0].detail == "raised NotReducedError: strands 1 and 2 cross twice"
    # the checks after the raising one still ran
    assert results[-1].ident == "10" and results[-1].passed


def test_raise_inside_a_check_is_reported(monkeypatch):
    def broken_insert(word):
        raise InsertionError("letter 3 repeats in row 1 without 4")

    monkeypatch.setattr(verify, "eg_insert", broken_insert)
    (result,) = verify.run_checks("eg", 2)
    assert not result.passed
    assert result.detail == (
        "raised InsertionError: letter 3 repeats in row 1 without 4"
    )


def test_cli_exits_2_when_a_check_raises(monkeypatch, capsys):
    monkeypatch.setattr(verify, "check_split", raise_not_reduced)
    assert main(["verify", "--max-n", "2"]) == 2
    out, err = capsys.readouterr()
    assert ("FAIL [8] split weight identity: raised NotReducedError: "
            "strands 1 and 2 cross twice\n") in out
    assert out.endswith("10/11 checks passed\n")
    assert err == "failed: [8] split weight identity\n"


def test_each_zigzag_family_is_enumerated_once_per_run(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return enumerate_rcgraphs(w)

    def counted_partitions(n):
        partition_calls.append(n)
        return enumerate_staircase_partitions(n)

    partition_calls = []
    monkeypatch.setattr(verify, "enumerate_rcgraphs", counted)
    monkeypatch.setattr(verify, "enumerate_staircase_partitions", counted_partitions)
    for suite in verify.SUITES:
        calls.clear()
        partition_calls.clear()
        assert all(r.passed for r in verify.run_checks(suite, 4))
        # 1,4,3,2 for check [1], then the zigzags of 1..4 once each
        figure = [make_perm((1, 4, 3, 2))] if suite in ("all", "prop1") else []
        assert calls == figure + [zigzag(n) for n in range(1, 5)], suite
        # the staircase partitions of 1..4 once each, shared by [5] and [5d],
        # and none where neither runs
        listed = [1, 2, 3, 4] if suite in ("all", "bijections") else []
        assert partition_calls == listed, suite


# the family checks in plan order, each a function of one n
FAMILY_CHECKS = ["check_counting", "check_partition_bijection", "check_dyck_transport",
                 "check_eg", "check_transpose", "check_split"]


def test_each_family_check_is_called_once_per_n_with_its_listing(monkeypatch):
    calls = []

    def wrapped(name, real):
        def check(n, graphs, partitions):
            listing = partitions if name == "check_dyck_transport" else graphs
            calls.append((n, name, len(listing)))
            return real(n, graphs, partitions)
        return check

    for name in FAMILY_CHECKS:
        monkeypatch.setattr(verify, name, wrapped(name, getattr(verify, name)))
    assert all(r.passed for r in verify.run_checks("all", 4))
    # n by n, C_n fillings each, or C_n partitions for [5d]
    assert calls == [(n, name, catalan(n)) for n in range(1, 5) for name in FAMILY_CHECKS]


class Listed(list):
    """A family that a weak reference can follow."""


def test_one_zigzag_family_is_alive_at_a_time(monkeypatch):
    alive = []
    held = []

    def tracked(w):
        n = w.size - 1
        held.extend((n, m) for m, ref in alive if m < n - 1 and ref() is not None)
        graphs = Listed(enumerate_rcgraphs(w))
        alive.append((n, weakref.ref(graphs)))
        return graphs

    monkeypatch.setattr(verify, "enumerate_rcgraphs", tracked)
    assert all(r.passed for r in verify.run_checks("all", 6))
    # 1,4,3,2 (the zigzag of 3) for check [1], then the zigzags of 1..6
    assert [n for n, _ in alive] == [3, 1, 2, 3, 4, 5, 6]
    assert held == []


# (ident, suite, detail) of every check at max_n = 0, where no family is fed
DETAILS_AT_0 = [
    ("1", "prop1", "5 fillings with the expected monomials"),
    ("2", "prop1", "exact for n=1..0"),
    ("3", "prop1", "counts [] for n=1..0"),
    ("4", "prop1", "all of S_4 and zigzag n<=0"),
    ("5", "bijections", "bijective with inverse and weight law for n<=0"),
    ("5d", "bijections", "round trips and area transport for n<=0"),
    ("6", "eg", "constant insertion tableau and round trips for n<=0; "
     "right-to-left is the single usable reading direction"),
    ("7", "transpose", "checked every filling for n<=0"),
    ("8", "prop1", "exact for every filling with n<=0"),
    ("9", "prop1", "equals catalan(n) for n<=0"),
    ("10", "prop1", "routes agree for n<=10, q=1 values for n<=12"),
]


@pytest.mark.parametrize("suite", verify.SUITES)
def test_every_check_passes_with_no_family_to_walk(suite):
    results = verify.run_checks(suite, 0)
    assert all(r.passed for r in results)
    assert [(r.ident, r.suite, r.detail) for r in results] == [
        row for row in DETAILS_AT_0 if suite in ("all", row[1])
    ]


def raise_at(n, real):
    def listing(arg):
        if arg in (n, zigzag(n)):
            raise ValueError(f"no listing at n={n}")
        return real(arg)
    return listing


@pytest.mark.parametrize("name, n, failed", [
    ("enumerate_rcgraphs", 2, ["3", "5", "6", "7", "8"]),
    ("enumerate_staircase_partitions", 3, ["5", "5d"]),
])
def test_a_raising_listing_fails_only_the_checks_fed_it(monkeypatch, name, n, failed):
    monkeypatch.setattr(verify, name, raise_at(n, getattr(verify, name)))
    results = verify.run_checks("all", 4)
    assert [r.ident for r in results if not r.passed] == failed
    assert {r.detail for r in results if not r.passed} == {
        f"raised ValueError: no listing at n={n}"
    }


def test_each_grid_sweeps_its_strands_once_per_run(monkeypatch):
    real = rcgraph._trace
    traced = []

    def counted(rows):
        traced.append(len(rows))
        return real(rows)

    monkeypatch.setattr(rcgraph, "_trace", counted)
    assert all(r.passed for r in verify.run_checks("all", 8))
    # 2,055 fillings for n = 1..8, each swept once, by [3]; the listed
    # fillings and their transposes ([7]) carry their words, and split ([8])
    # sweeps neither part
    assert len(traced) == 2055


def test_check_3_sweeps_every_filling_against_the_zigzag(monkeypatch):
    real = rcgraph._trace
    bottom = bottom_rcgraph(3).rows

    def corrupt(rows):
        word = real(rows)
        return word[::-1] if rows == bottom else word

    monkeypatch.setattr(rcgraph, "_trace", corrupt)
    result = verify.run_checks("prop1", 4)[2]
    assert (result.ident, result.passed) == ("3", False)
    assert result.detail == "n=3: 1 of 5 fillings do not trace the zigzag"


# Each mutation corrupts one output of one bijection at max_n = 4; the check
# that shares its per-filling work must still report exactly these failures.


def test_check_5_catches_a_corrupt_rcgraph_of(monkeypatch):
    real = verify.rcgraph_of

    def corrupt(p, n):
        if (p, n) == (Partition((2, 1)), 3):
            return bottom_rcgraph(3)  # the filling of the empty partition
        return real(p, n)

    monkeypatch.setattr(verify, "rcgraph_of", corrupt)
    result = verify.run_checks("bijections", 4)[0]
    assert (result.ident, result.passed) == ("5", False)
    assert result.detail == (
        "n=3: rcgraph_of does not invert at [2,1]; n=3: round trip fails at [2,1]"
    )


def test_check_7_catches_a_corrupt_reverse_bracketing(monkeypatch):
    real = verify.reverse_bracketing
    right_comb = Bracketing(4, ((1, 4), (2, 4), (3, 4)))  # (1(2(3 4)))

    def corrupt(b):
        if b == right_comb:
            return b
        return real(b)

    monkeypatch.setattr(verify, "reverse_bracketing", corrupt)
    (result,) = verify.run_checks("transpose", 4)
    assert not result.passed
    assert result.detail == "n=3: transpose is not string reversal"


def test_check_6_catches_a_corrupt_partition_of(monkeypatch):
    real = verify.partition_of
    target = enumerate_rcgraphs(zigzag(4))[5]

    def corrupt(d):
        if d == target:
            return Partition((9,))
        return real(d)

    monkeypatch.setattr(verify, "partition_of", corrupt)
    (result,) = verify.run_checks("eg", 4)
    assert not result.passed
    assert result.detail == "n=4: insertion and elementary bijections differ"


def test_check_5_catches_a_partition_hit_twice(monkeypatch):
    real = verify.partition_of
    first, second = enumerate_rcgraphs(zigzag(3))[:2]

    def corrupt(d):
        return real(first if d == second else d)

    monkeypatch.setattr(verify, "partition_of", corrupt)
    result = verify.run_checks("bijections", 4)[0]
    assert (result.ident, result.passed) == ("5", False)
    assert result.detail == (
        "n=3: [2,1] hit twice; n=3: weight law fails for [2,1]; "
        "n=3: rcgraph_of does not invert at [2,1]; "
        "n=3: image is not all of the staircase set; n=3: round trip fails at [2]"
    )


def test_check_6_catches_a_shared_recording_tableau(monkeypatch):
    real = verify.eg_insert
    first, second = map(eg_word, enumerate_rcgraphs(zigzag(6))[:2])

    def corrupt(word):
        return real(first if word == second else word)

    monkeypatch.setattr(verify, "eg_insert", corrupt)
    (result,) = verify.run_checks("eg", 6)
    assert not result.passed
    assert result.detail == (
        "n=6: insertion and elementary bijections differ; "
        "n=6: recording tableaux are not distinct"
    )


BOTH_DIRECTIONS = ["right-to-left", "left-to-right"]


def test_check_6_lists_its_reading_direction_diagnostic_last(monkeypatch):
    real = verify.partition_of
    target = enumerate_rcgraphs(zigzag(4))[5]

    def corrupt(d):
        if d == target:
            return Partition((9,))
        return real(d)

    reports = []

    def report(n):
        reports.append(n)
        return BOTH_DIRECTIONS

    monkeypatch.setattr(verify, "reading_direction_report", report)
    monkeypatch.setattr(verify, "partition_of", corrupt)
    (result,) = verify.run_checks("eg", 4)
    assert not result.passed
    assert result.detail == (
        "n=4: insertion and elementary bijections differ; "
        "reading-direction diagnostic: usable=['right-to-left', 'left-to-right']"
    )
    assert reports == [3]
    # the diagnostic runs once per run, also where no family is walked
    (result,) = verify.run_checks("eg", 0)
    assert (result.passed, result.detail) == (
        False, "reading-direction diagnostic: usable=['right-to-left', 'left-to-right']"
    )
    assert reports == [3, 3]
