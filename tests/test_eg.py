import pickle
from bisect import bisect_left
from collections import Counter
from functools import cache
from itertools import permutations, product

import pytest

from pipedreams import eg
from pipedreams.bijections import partition_of
from pipedreams.catalan import Partition, staircase
from pipedreams.eg import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    InsertionError,
    InvalidQTableauError,
    NonPartitionBoxesError,
    Tableau,
    _recording_partition,
    _transposed,
    eg_insert,
    eg_partition_of,
    eg_word,
    evacuate,
    q_label_row_check,
    reading_direction_report,
)
from pipedreams.perm import Permutation, make_perm, zigzag
from pipedreams.rcgraph import NotZigzagError, RcGraph, bottom_rcgraph, enumerate_rcgraphs

from oracles import crosses, strict


class TestTableau:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Tableau(((1,), (1, 2)))
        with pytest.raises(ValueError):
            Tableau(((0,),))

    def test_transpose(self):
        assert _transposed(((2, 3), (3,))) == ((2, 3), (3,))
        assert _transposed(((1, 2),)) == ((1,), (2,))

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
        """Letter k is (i, i + j) for the k-th cross (i, j), crosses taken
        rows top down and each row in the reading direction."""
        for direction in (RIGHT_TO_LEFT, LEFT_TO_RIGHT):
            sign = -1 if direction == RIGHT_TO_LEFT else 1
            for n in range(1, 6):
                for d in enumerate_rcgraphs(zigzag(n)):
                    word = eg_word(d, direction)
                    cells = sorted(crosses(d), key=lambda c: (c[0], sign * c[1]))
                    assert len(word) == len(cells)
                    for (a, alpha), (i, j) in zip(word, cells):
                        assert (a, alpha - a) == (i, j), (d, direction)
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
                assert labels == Counter(i for i, _ in crosses(d))

    def test_bumping_alone_keeps_rows_and_columns_strict(self):
        # why eg_insert checks neither the rows nor the columns of the
        # insertion tableau: every word the bumping accepts leaves both
        # strict, as its comment proves.  Labels 1, 2, ... keep the
        # recording rows strict, so the only raise left is the bumping's own.
        accepted = 0
        for length in range(1, 7):
            for letters in product(range(1, 6), repeat=length):
                try:
                    p, _ = eg_insert(tuple(enumerate(letters, start=1)))
                except InsertionError as exc:
                    assert str(exc).startswith("letter "), (letters, exc)
                    continue
                accepted += 1
                assert all(map(strict, p.rows)), letters
                assert all(map(strict, _transposed(p.rows))), letters
        assert accepted == 2972

    def test_unrealizable_word(self):
        # inserting 4 twice into a row without a 5 present
        with pytest.raises(InsertionError):
            eg_insert(((1, 3), (1, 4), (2, 4)))

    def test_a_repeat_below_row_1_names_its_row(self):
        # the 1s bump 2 into row 2, where the second 2 has no 3 beside it
        with pytest.raises(InsertionError) as exc:
            eg_insert(((1, 1), (1, 2), (1, 1), (1, 1)))
        assert str(exc.value) == "letter 2 repeats in row 2 without 3"

    def test_recording_row_check_fires(self):
        # unlike the insertion tableau's, the recording tableau's strictness
        # rests on the labels, which a word from outside can repeat
        with pytest.raises(InsertionError) as exc:
            eg_insert(((1, 3), (1, 4)))
        assert str(exc.value) == "recording tableau has a non-strict row [1, 1]"

    def test_a_label_below_1_under_the_first_insertion_row(self):
        # 1 bumps 2 into row 2, whose box records the word's only label < 1:
        # positivity reads all of Q's first insertion column, not its head
        with pytest.raises(ValueError, match="^entries must be positive$"):
            eg_insert(((1, 2), (0, 1)))

    def test_a_letter_below_1_that_bumps_row_1(self):
        # 0 bumps 2 out of row 1 and later letters go right of it: the only
        # letter < 1 stays at P's corner, since only a smaller letter could
        # bump it out of row 1 in its turn
        with pytest.raises(ValueError, match="^entries must be positive$"):
            eg_insert(((1, 2), (2, 0), (3, 3), (4, 4)))


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
        # the bottom filling runs to n = 40, whose box keys need 6 bits for
        # the insertion row; up to n = 9 a fixed 4-bit field would pass
        fillings = [(n, d) for n in range(1, 6) for d in enumerate_rcgraphs(zigzag(n))]
        fillings += [(n, bottom_rcgraph(n)) for n in range(1, 41)]
        for n, d in fillings:
            word = eg_word(d)
            _, q = eg_insert(word)
            assert evacuate(q, n) == word, n

    def test_empty(self):
        assert evacuate(Tableau(()), 1) == ()

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError) as exc:
            evacuate(Tableau(()), -1)
        assert str(exc.value) == "n must be nonnegative"

    def test_closed_form_staircase_is_the_insertion_tableau(self):
        # row r of the row-strict form is r+3, ..., n+1: entry r + c + 3 at
        # (r, c), so the tableau equals its transpose
        for n in range(13):
            closed = tuple(tuple(range(r + 3, n + 2)) for r in range(n - 1))
            p, _ = eg_insert(eg_word(bottom_rcgraph(n)))
            assert p.rows == closed, n
            assert _transposed(p.rows) == closed, n

    def test_every_standard_staircase_tableau_evacuates_and_reinserts(self):
        # the rewind has no failure branch: the passing removals of a
        # standard q leave a partition each time, and some reduced word
        # inserts to (staircase tableau, q).  For n <= 5 there are 788 such
        # q; all 292,864 of n = 6 pass too
        def standard(shape, rows, k):
            if k > sum(shape):
                yield Tableau(tuple(map(tuple, rows)))
            for r, row in enumerate(rows):
                if len(row) < shape[r] and (r == 0 or len(rows[r - 1]) > len(row)):
                    row.append(k)
                    yield from standard(shape, rows, k + 1)
                    row.pop()

        count = 0
        for n in range(1, 6):
            shape = tuple(range(n - 1, 0, -1))
            closed = tuple(tuple(range(r + 3, n + 2)) for r in range(n - 1))
            for q in standard(shape, [[] for _ in shape], 1):
                word = evacuate(q, n)
                assert outcome(ref_evacuate, q.rows, n) == ("ok", word)
                p, again = eg_insert(word)
                assert (p.rows, again) == (closed, q), (n, q)
                count += 1
        assert count == 788

    def test_single_box(self):
        assert evacuate(Tableau(((2,),)), 2) == ((2, 3),)
        assert evacuate(Tableau(((1,),)), 2) == ((1, 3),)

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidQTableauError):
            evacuate(Tableau(((1,),)), 3)

    def test_non_strict_rows_rejected(self):
        with pytest.raises(InvalidQTableauError):
            evacuate(Tableau(_transposed(((1, 1), (2,)))), 3)

    def test_only_a_recorded_q_skips_the_strictness_scan(self):
        # the mark is not a field: a copy built from the rows, or unpickled,
        # equals the recorded q but is scanned, and evacuates the same
        for n in range(1, 7):
            for d in enumerate_rcgraphs(zigzag(n)):
                _, q = eg_insert(eg_word(d))
                for copy in (Tableau(q.rows), pickle.loads(pickle.dumps(q))):
                    assert copy == q and hash(copy) == hash(q)
                    assert repr(copy) == repr(q)
                    assert q._recorded and not copy._recorded
                    assert evacuate(copy, n) == evacuate(q, n), (n, d)

    def test_a_built_copy_of_a_recorded_q_is_still_checked(self):
        _, q = eg_insert(eg_word(bottom_rcgraph(4)))
        rows = [list(r) for r in q.rows]
        rows[1][0] = rows[0][0]  # insertion row 1 now repeats its head
        bad = Tableau(tuple(map(tuple, rows)))
        with pytest.raises(InvalidQTableauError) as exc:
            evacuate(bad, 4)
        assert str(exc.value) == "labels are not strict along row [2, 2, 4]"
        assert outcome(evacuate, bad, 4) == outcome(ref_evacuate, bad.rows, 4)


class TestRoundTripWork:
    """The round trip's work as counts over the zigzag-9 family: per
    filling, ``eg_insert`` transposes P once, builds Q as it returns it and
    wraps both unchecked, ``evacuate`` reads q as it comes, and the
    transpose of a listed grid inverts its carried word without a
    ``Permutation``."""

    def test_calls_per_filling(self, monkeypatch):
        family = enumerate_rcgraphs(zigzag(9))
        calls = Counter()

        def count(owner, name):
            f = getattr(owner, name)

            def counted(*args):
                calls[f.__qualname__] += 1
                return f(*args)

            monkeypatch.setattr(owner, name, counted)

        count(eg, "_transposed")
        count(Tableau, "__init__")
        count(Permutation, "__init__")
        for d in family:
            evacuate(eg_insert(eg_word(d))[1], 9)
            d.transpose()
        assert len(family) == 4_862
        assert calls == {"_transposed": 4_862}

    def test_a_recorded_q_costs_evacuate_no_strictness_comparison(
            self, monkeypatch):
        family = enumerate_rcgraphs(zigzag(9))
        recorded = [eg_insert(eg_word(d))[1] for d in family]
        compared = 0

        def counted(a, b):
            nonlocal compared
            compared += 1
            return a < b

        monkeypatch.setattr(eg, "lt", counted)
        for q in recorded:
            evacuate(q, 9)
        assert compared == 0
        # a copy built by the constructor costs the full scan: the adjacent
        # rows of the staircase of 9 have 7 + 6 + ... + 1 = 28 pairs
        for q in recorded:
            evacuate(Tableau(q.rows), 9)
        assert compared == 4_862 * 28


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
        assert reading_direction_report(3) == [RIGHT_TO_LEFT]
        with pytest.raises(InsertionError):
            for d in enumerate_rcgraphs(zigzag(3)):
                eg_insert(eg_word(d, LEFT_TO_RIGHT))

    def test_report_lists_the_family_once(self, monkeypatch):
        calls = []

        def counting(w):
            calls.append(w)
            return enumerate_rcgraphs(w)

        monkeypatch.setattr(eg, "enumerate_rcgraphs", counting)
        assert reading_direction_report(3) == [RIGHT_TO_LEFT]
        assert calls == [zigzag(3)]

    def test_observed_recording_columns_weakly_increase(self):
        # recorded behaviour of the pre-transposition recording tableau
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                _, q = eg_insert(eg_word(d))
                rows = _transposed(q.rows)
                for c_idx in range(len(rows[0]) if rows else 0):
                    col = [r[c_idx] for r in rows if c_idx < len(r)]
                    assert all(a <= b for a, b in zip(col, col[1:]))


# -- reference implementations ------------------------------------------------
#
# The generator-based tableau code that the library's kernels replaced, kept
# verbatim apart from returning plain row tuples instead of ``Tableau``s.  The
# library must give the same result, or raise the same exception type with
# the same message, on every input below.


def ref_tableau(rows):
    for a, b in zip(rows, rows[1:]):
        if len(b) > len(a):
            raise ValueError("row lengths must weakly decrease")
    if any(len(r) == 0 for r in rows):
        raise ValueError("empty rows are not stored")
    if any(e < 1 for r in rows for e in r):
        raise ValueError("entries must be positive")
    return rows


def ref_transposed(rows):
    if not rows:
        return ()
    return tuple(
        tuple(rows[r][c] for r in range(len(rows)) if c < len(rows[r]))
        for c in range(len(rows[0]))
    )


def ref_insert_letter(p_rows, q_rows, a, x):
    r = 0
    while True:
        if r == len(p_rows):
            p_rows.append([x])
            q_rows.append([a])
            return
        row = p_rows[r]
        idx = bisect_left(row, x)
        if idx < len(row) and row[idx] == x:
            if idx + 1 < len(row) and row[idx + 1] == x + 1:
                x = x + 1
                r += 1
                continue
            raise InsertionError(
                f"letter {x} repeats in row {r + 1} without {x + 1}"
            )
        if idx == len(row):
            row.append(x)
            q_rows[r].append(a)
            return
        x, row[idx] = row[idx], x
        r += 1


def ref_check_rows_strict(rows, what):
    for r in rows:
        if any(a >= b for a, b in zip(r, r[1:])):
            raise InsertionError(f"{what} has a non-strict row {r}")


def ref_eg_insert(word):
    p_rows, q_rows = [], []
    for a, x in word:
        ref_insert_letter(p_rows, q_rows, a, x)
    ref_check_rows_strict(p_rows, "insertion tableau")
    for c in range(len(p_rows[0]) if p_rows else 0):
        column = [r[c] for r in p_rows if c < len(r)]
        if any(a >= b for a, b in zip(column, column[1:])):
            raise InsertionError(
                f"insertion tableau has a non-strict column {column}"
            )
    ref_check_rows_strict(q_rows, "recording tableau")
    return (
        ref_tableau(ref_transposed(tuple(map(tuple, p_rows)))),
        ref_tableau(ref_transposed(tuple(map(tuple, q_rows)))),
    )


@cache
def ref_family_insertion_rows(n):
    p, _ = ref_eg_insert(eg_word(bottom_rcgraph(n)))
    return ref_transposed(p)


def ref_evacuate(q_rows, n):
    p_ref = [list(r) for r in ref_family_insertion_rows(n)]
    qq = [list(r) for r in ref_transposed(q_rows)]
    if [len(r) for r in qq] != [len(r) for r in p_ref]:
        raise InvalidQTableauError(
            f"shape {tuple(len(r) for r in qq)} is not the staircase of {n}"
        )
    for r in qq:
        if any(a >= b for a, b in zip(r, r[1:])):
            raise InvalidQTableauError(f"labels are not strict along row {r}")
    pairs = []
    for _ in range(sum(len(r) for r in qq)):
        best_row = -1
        best_label = 0
        for r, row in enumerate(qq):
            if row and row[-1] >= best_label:
                best_label = row[-1]
                best_row = r
        if best_row + 1 < len(qq) and len(qq[best_row + 1]) == len(qq[best_row]):
            raise InvalidQTableauError(
                f"the box holding {best_label} in row {best_row + 1} is not removable"
            )
        a = qq[best_row].pop()
        z = p_ref[best_row].pop()
        for r in range(best_row - 1, -1, -1):
            row = p_ref[r]
            pos = bisect_left(row, z)
            if pos < len(row) and row[pos] == z:
                if pos == 0 or row[pos - 1] != z - 1:
                    raise InvalidQTableauError(
                        f"cannot rewind the insertion of {z} through row {r + 1}"
                    )
                z = z - 1
            else:
                if pos == 0:
                    raise InvalidQTableauError(
                        f"cannot rewind the insertion of {z} through row {r + 1}"
                    )
                z, row[pos - 1] = row[pos - 1], z
        pairs.append((a, z))
    pairs.reverse()
    return tuple(pairs)


def ref_recording_partition(q_rows):
    counts = []
    for r, row in enumerate(q_rows, start=1):
        matching = [c for c, label in enumerate(row, start=1) if label == r]
        if matching != list(range(1, len(matching) + 1)):
            raise NonPartitionBoxesError(
                f"boxes labelled {r} in row {r} are not left-justified"
            )
        counts.append(len(matching))
    while counts and counts[-1] == 0:
        counts.pop()
    if any(a < b for a, b in zip(counts, counts[1:])):
        raise NonPartitionBoxesError(
            f"row counts {counts} do not weakly decrease"
        )
    return Partition(tuple(counts))


def ref_eg_word(d, direction=RIGHT_TO_LEFT):
    """An independent eg_word: each row's cross columns are collected and
    reversed for the right-to-left scan, where eg_word walks the columns of
    every row in the scan's order."""
    if direction not in (RIGHT_TO_LEFT, LEFT_TO_RIGHT):
        raise ValueError(f"unknown reading direction {direction!r}")
    pairs = []
    for i, row in enumerate(d.rows, start=1):
        cols = [j for j, c in enumerate(row, start=1) if c]
        if direction == RIGHT_TO_LEFT:
            cols.reverse()
        pairs.extend((i, i + j) for j in cols)
    return tuple(pairs)


def ref_q_label_row_check(q_rows):
    return all(
        label in (r, r + 1)
        for r, row in enumerate(q_rows, start=1)
        for label in row
    )


def outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


def rows_of(result):
    """Tableaux in a result replaced by their rows."""
    if isinstance(result, Tableau):
        return result.rows
    if isinstance(result, tuple):
        return tuple(rows_of(r) for r in result)
    return result


def assert_agrees_on_word(word, evacuation_ns):
    """eg_insert and everything read off its recording tableau agree with
    the reference on one word."""
    got = outcome(eg_insert, word)
    want = outcome(ref_eg_insert, word)
    assert (got[0], rows_of(got[1])) == want, word
    if got[0] != "ok":
        return
    q = got[1][1]
    assert outcome(_recording_partition, q) == outcome(ref_recording_partition, q.rows)
    assert q_label_row_check(q) is ref_q_label_row_check(q.rows)
    for n in evacuation_ns:
        assert outcome(evacuate, q, n) == outcome(ref_evacuate, q.rows, n), (word, n)


class TestAgainstGeneratorOracle:
    @pytest.mark.parametrize("direction", [RIGHT_TO_LEFT, LEFT_TO_RIGHT])
    def test_every_zigzag_filling(self, direction):
        for n in range(1, 9):
            for d in enumerate_rcgraphs(zigzag(n)):
                assert_agrees_on_word(eg_word(d, direction), (n - 1, n, n + 1))

    @pytest.mark.parametrize("direction", [RIGHT_TO_LEFT, LEFT_TO_RIGHT])
    def test_every_filling_of_small_symmetric_groups(self, direction):
        for m in range(1, 7):
            for w in permutations(range(1, m + 1)):
                for d in enumerate_rcgraphs(make_perm(w)):
                    assert_agrees_on_word(eg_word(d, direction), (m - 1,))

    @pytest.mark.parametrize("direction", [RIGHT_TO_LEFT, LEFT_TO_RIGHT, "diagonal"])
    def test_eg_word_on_every_filling_of_small_symmetric_groups(self, direction):
        for m in range(1, 7):
            for w in permutations(range(1, m + 1)):
                for d in enumerate_rcgraphs(make_perm(w)):
                    assert (outcome(eg_word, d, direction)
                            == outcome(ref_eg_word, d, direction)), d

    def test_random_biwords(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        # letters and labels <= 0 must fail exactly as before, whatever pads
        # the short rows while transposing
        pairs = st.tuples(st.integers(-2, 5), st.integers(-2, 7))

        @settings(max_examples=400, deadline=None)
        @given(word=st.lists(pairs, max_size=12).map(tuple))
        def check(word):
            assert_agrees_on_word(word, (1, 2, 3, 4))

        check()

    def test_every_short_biword_with_entries_below_1(self):
        # exhaustive where the random words are sparse: positivity is read
        # at P's corner and down Q's first insertion column only
        pairs = list(product(range(-1, 3), range(-1, 4)))
        for length in range(1, 4):
            for word in product(pairs, repeat=length):
                assert_agrees_on_word(word, (2,))

    def test_random_tableaux(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        # unsorted rows, empty rows, growing rows and entries <= 0
        rows = st.lists(
            st.lists(st.integers(-1, 5), max_size=4).map(tuple), max_size=4
        ).map(tuple)

        @settings(max_examples=400, deadline=None)
        @given(rows=rows)
        def check(rows):
            got = outcome(Tableau, rows)
            assert (got[0], rows_of(got[1])) == outcome(ref_tableau, rows)
            if got[0] != "ok":
                return
            t = got[1]
            assert q_label_row_check(t) is ref_q_label_row_check(rows)
            assert _transposed(t.rows) == ref_transposed(rows)
            assert outcome(_recording_partition, t) == outcome(
                ref_recording_partition, rows
            )
            for n in (1, 2, 3, 4):
                assert outcome(evacuate, t, n) == outcome(ref_evacuate, rows, n)

        check()

    def test_random_staircase_tableaux_evacuate(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        # staircase shapes reach the removability raise; no tableau reaches
        # a failed rewind, which ref_evacuate still raises
        def staircase_rows(n):
            return st.tuples(*[
                st.tuples(*[st.integers(1, n + 1)] * (n - 1 - k))
                for k in range(n - 1)
            ])

        @settings(max_examples=400, deadline=None)
        @given(data=st.integers(2, 6).flatmap(
            lambda n: st.tuples(st.just(n), staircase_rows(n))))
        def check(data):
            n, rows = data
            t = Tableau(rows)
            assert outcome(evacuate, t, n) == outcome(ref_evacuate, rows, n)
            assert outcome(_recording_partition, t) == outcome(
                ref_recording_partition, rows
            )
            assert q_label_row_check(t) is ref_q_label_row_check(rows)

        check()

    @pytest.mark.parametrize("rows", [
        ((1,), (1, 2)),
        ((1, 2), ()),
        ((),),
        ((0,),),
        ((2, 1), (-3,)),
        ((3, 1), (2,)),
        ((2, 2, 1), (3, 2)),
        ((1, 2), (3, 2)),
    ], ids=["growing", "empty-last", "only-empty", "zero", "negative",
            "unsorted", "unsorted-repeats", "unsorted-second-row"])
    def test_tableau_and_label_rows_on_fixed_rows(self, rows):
        got = outcome(Tableau, rows)
        assert (got[0], rows_of(got[1])) == outcome(ref_tableau, rows)
        if got[0] == "ok":
            assert q_label_row_check(got[1]) is ref_q_label_row_check(rows)

    def test_label_rows_read_every_label_of_an_unsorted_row(self):
        assert q_label_row_check(Tableau(((2, 1), (3,)))) is True
        assert q_label_row_check(Tableau(((2, 1, 3), (3,)))) is False
        assert q_label_row_check(Tableau(((1, 2), (4, 3)))) is False

    def test_non_positive_letters_fail_as_entries(self):
        # 0 and -1 insert cleanly; the tableau rejects them afterwards
        with pytest.raises(ValueError, match="^entries must be positive$"):
            eg_insert(((1, 0), (1, -1)))
        with pytest.raises(ValueError, match="^entries must be positive$"):
            eg_insert(((-1, 2), (0, 3)))
