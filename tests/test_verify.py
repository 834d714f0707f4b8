import pytest

from pipedreams import verify
from pipedreams.cli import main
from pipedreams.eg import InsertionError
from pipedreams.rcgraph import NotReducedError, enumerate_rcgraphs


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

    monkeypatch.setattr(verify, "enumerate_rcgraphs", counted)
    assert all(r.passed for r in verify.run_checks("all", 4))
    # 1,4,3,2 for check [1], then the zigzags of 1..4 once each
    assert len(calls) == 5
