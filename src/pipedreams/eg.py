"""Edelman-Greene insertion specialized to pipe dreams.

A filling is read into a two-row word: cross number k, taken row by row
from the top with each row scanned right to left, contributes the pair
(a_k, alpha_k) = (row, row + column).  The alpha letters are inserted with
the Edelman-Greene variant of row bumping (inserting x into a row that
already contains x and x+1 leaves the row alone and bumps x+1), the a
letters record where boxes appear, and both tableaux are returned
transposed, so that columns are the strictly increasing direction of the
recording tableau.  The recording tableau is built in that orientation,
one insertion column per row, and the insertion tableau is transposed
once at the end.  ``evacuate`` reads the recording tableau in that same
orientation: the staircase shape it must have is its own conjugate,
so the shape check needs no transpose, and the strictness of the
insertion's rows is the strictness of q down its columns.

The right-to-left scan inside each row is what keeps the insertion tableau
strictly increasing along rows and columns; reading_direction_report
documents this by trying both scans on a whole family.  For the zigzag
family of n every filling inserts to one staircase tableau, with entry
r + c + 3 at (r, c), 0-based, so it is its own transpose (Edelman-Greene,
1987); this closed form is what lets ``evacuate`` rebuild the word from the
recording tableau alone.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import zip_longest
from operator import lt

from .catalan import Partition
from .perm import Value, zigzag
from .rcgraph import RcGraph, enumerate_rcgraphs, zigzag_index

RIGHT_TO_LEFT = "right-to-left"
LEFT_TO_RIGHT = "left-to-right"

BiWord = tuple[tuple[int, int], ...]


class InsertionError(ValueError):
    """The word cannot be inserted while keeping the tableaux strict."""


class InvalidQTableauError(ValueError):
    """The tableau is not the recording tableau of any zigzag filling."""


class NonPartitionBoxesError(ValueError):
    """The row-matching boxes of the recording tableau fail to form a
    partition shape."""


class Tableau(Value):
    """A filling of a partition shape with positive integers.

    ``_recorded`` is True only on a recording tableau that ``eg_insert``
    returned, whose insertion rows (the columns of ``rows``) it has checked
    strict; it is not a field, so equality, hash, repr and pickling ignore
    it, and every other tableau, an unpickled copy too, is False.
    """

    __slots__ = ("rows", "_recorded")

    def __init__(self, rows: tuple[tuple[int, ...], ...] = ()) -> None:
        _set_rows(self, rows)
        _set_recorded(self, False)
        for a, b in zip(rows, rows[1:]):
            if len(b) > len(a):
                raise ValueError("row lengths must weakly decrease")
        if not all(rows):
            raise ValueError("empty rows are not stored")
        if rows and min(map(min, rows)) < 1:
            raise ValueError("entries must be positive")

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...],
                 recorded: bool = False) -> Tableau:
        """Wrap rows already known to be non-empty, partition-shaped and
        positive, skipping the checks of ``__init__``."""
        out = cls.__new__(cls)
        # the slots' own setters, which the raising __setattr__ does not guard
        _set_rows(out, rows)
        _set_recorded(out, recorded)
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


_set_rows = Tableau.rows.__set__
_set_recorded = Tableau._recorded.__set__


def _transposed(rows) -> tuple[tuple[int, ...], ...]:
    """The columns of rows whose lengths weakly decrease, in one pass.

    ``zip_longest`` pads the short rows with None, and each column is cut
    at its first pad.  None and not 0 is the pad, because the entries of a
    word that ``eg_insert`` is about to reject can be 0 or negative.
    """
    return tuple(
        col if col[-1] is not None else col[:col.index(None)]
        for col in zip_longest(*rows)
    )


def _strict(seq) -> bool:
    """Whether seq strictly increases."""
    return all(map(lt, seq, seq[1:]))


def eg_word(d: RcGraph, direction: str = RIGHT_TO_LEFT) -> BiWord:
    """The two-row word of a filling: pairs (i, i + j) over the crosses
    (i, j), rows top to bottom, each row's cross columns j scanned in the
    given direction.  A row's last cell is never scanned: it is the
    anti-diagonal cell, an elbow in every ``RcGraph``."""
    if direction not in (RIGHT_TO_LEFT, LEFT_TO_RIGHT):
        raise ValueError(f"unknown reading direction {direction!r}")
    backwards = direction == RIGHT_TO_LEFT
    return tuple(
        (i, i + j)
        for i, row in enumerate(d.rows, start=1)
        for j in (range(len(row) - 1, 0, -1) if backwards else range(1, len(row)))
        if row[j - 1]
    )


def eg_insert(word: BiWord) -> tuple[Tableau, Tableau]:
    """Insert a two-row word; returns the insertion and recording tableaux,
    both transposed so columns are the strict direction of the recording."""
    p_rows: list[list[int]] = []
    q_cols: list[list[int]] = []
    for a, x in word:
        for row in p_rows:
            idx = bisect_left(row, x)
            if idx == len(row):
                row.append(x)
                break
            y = row[idx]
            if y == x:
                # x already present: only legal when x+1 sits next to it,
                # in which case the row stays put and x+1 bumps instead
                if idx + 1 < len(row) and row[idx + 1] == x + 1:
                    x += 1
                    continue
                r = next(r for r, other in enumerate(p_rows, 1) if other is row)
                raise InsertionError(f"letter {x} repeats in row {r} without {x + 1}")
            row[idx] = x
            x = y
        else:
            p_rows.append([x])
            idx = 0
        # The new box sits at column idx under the column's other boxes, as
        # P's shape stays a partition (below): it is the last label of q[idx].
        if idx < len(q_cols):
            q_cols[idx].append(a)
        else:
            q_cols.append([a])
    # P stays strict.  Rows: x passes smaller entries; an equal one bumps x+1
    # or raises.  Columns: row r sends down v, the y bumped from column idx or
    # x+1 with x at idx.  As row_{r+1}[idx] > row_r[idx] >= v - 1, v replaces
    # a larger entry or ends row r+1 at c' <= idx, under row_r[c'] <= x < v.
    # Q rows are checked, between adjacent rows of q: labels from outside
    # can break them.  Only a failure rebuilds the rows, to name the first.
    if not all(all(map(lt, a, b)) for a, b in zip(q_cols, q_cols[1:])):
        bad = next(r for r in _transposed(q_cols) if not _strict(r))
        raise InsertionError(f"recording tableau has a non-strict row {list(bad)}")
    # So P is partition-shaped (a box that ends row r+1 sits at c' <= idx,
    # under one of row r), a row is only made with a letter in it, and Q
    # grows where P does, so q, built as returned, is P's shape transposed.
    # Of Tableau's checks only "entries must be positive" is left to run:
    # letters and labels from outside can be <= 0.  P is strict both ways,
    # so its least entry is its corner; the Q rows just checked put every
    # label above the one heading its row, in Q's first insertion column.
    p = _transposed(p_rows)
    if p and (p[0][0] < 1 or min(q_cols[0]) < 1):
        raise ValueError("entries must be positive")
    return Tableau._trusted(p), Tableau._trusted(tuple(map(tuple, q_cols)), True)


def evacuate(q: Tableau, n: int) -> BiWord:
    """Rebuild the word whose insertion has recording tableau q.

    Reads q as ``eg_insert`` returns it, with columns the strict direction,
    so column r of q is row r of the insertion.  The staircase of n is its
    own conjugate, so q.shape is the staircase exactly when the insertion's
    shape is, and no transpose is needed to check it.  Take the boxes by
    biggest label, southernmost first on ties, and rewind one insertion per
    box against the closed-form staircase tableau that every zigzag filling
    of n inserts to; the box labels come back as the a letters and the
    values popped out of the top row as the alpha letters.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    top = list(range(3, n + 2))
    p_ref = [top[r:] for r in range(n - 1)]
    rows = q.rows
    if q.shape != tuple(range(n - 1, 0, -1)):
        raise InvalidQTableauError(
            f"shape {tuple(map(len, _transposed(rows)))} is not the staircase of {n}"
        )
    # eg_insert has checked the insertion rows of a q it recorded
    if not q._recorded and not all(
            all(map(lt, a, b)) for a, b in zip(rows, rows[1:])):
        bad = next(r for r in _transposed(rows) if not _strict(r))
        raise InvalidQTableauError(f"labels are not strict along row {list(bad)}")
    # the insertion's rows are strict, so the biggest label left always ends
    # its row; p_ref loses a box wherever q does, so its row lengths track
    # what is left.  A box's key packs its label over its insertion row r < n.
    shift = n.bit_length()
    mask = (1 << shift) - 1
    boxes = sorted(
        (a << shift | r for row in rows for r, a in enumerate(row)), reverse=True
    )
    # The passing removals leave a partition each time, so read backwards
    # they form a standard tableau Q' of the staircase, and by Edelman and
    # Greene (1987) some reduced word inserts to (p_ref, Q').  So each pass
    # undoes one step of that insertion and no rewind fails: z beside z - 1
    # was bumped by z - 1, which left the row alone, and any other z was
    # displaced by the largest smaller entry, which sits in column pos - 1.
    pairs: list[tuple[int, int]] = []
    for key in boxes:
        a, box_row = key >> shift, key & mask
        if box_row + 1 < len(p_ref) and len(p_ref[box_row + 1]) == len(p_ref[box_row]):
            raise InvalidQTableauError(
                f"the box holding {a} in row {box_row + 1} is not removable"
            )
        z = p_ref[box_row].pop()
        for r in range(box_row - 1, -1, -1):
            row = p_ref[r]
            pos = bisect_left(row, z)
            if pos < len(row) and row[pos] == z:
                z = z - 1
            else:
                z, row[pos - 1] = row[pos - 1], z
        pairs.append((a, z))
    pairs.reverse()
    return tuple(pairs)


def eg_partition_of(d: RcGraph) -> Partition:
    """The partition cut out of the recording tableau by the boxes whose
    label equals their row index (in the transposed, customary form)."""
    zigzag_index(d)
    _, q = eg_insert(eg_word(d))
    return _recording_partition(q)


def _recording_partition(q: Tableau) -> Partition:
    """The partition of ``eg_partition_of``, read off its recording
    tableau q."""
    counts: list[int] = []
    for r, row in enumerate(q.rows, start=1):
        k = row.count(r)
        if row[:k].count(r) != k:
            raise NonPartitionBoxesError(
                f"boxes labelled {r} in row {r} are not left-justified"
            )
        counts.append(k)
    while counts and counts[-1] == 0:
        counts.pop()
    if any(a < b for a, b in zip(counts, counts[1:])):
        raise NonPartitionBoxesError(
            f"row counts {counts} do not weakly decrease"
        )
    # weakly decreasing down to a last count > 0, so every count is positive
    return Partition._trusted(tuple(counts))


def q_label_row_check(q: Tableau) -> bool:
    """Whether every label i of the recording tableau sits in row i-1 or i."""
    return all({*row} <= {r, r + 1} for r, row in enumerate(q.rows, start=1))


def reading_direction_report(n: int) -> list[str]:
    """The within-row scans that, over the whole zigzag family of n, keep
    the insertion strict, insert every filling to one tableau and put every
    recording label i in row i-1 or i.

    This is a diagnostic for the reading-order convention rather than a
    computation; the library's default is the scan this report singles out.
    """
    family = enumerate_rcgraphs(zigzag(n))
    usable = []
    for direction in (RIGHT_TO_LEFT, LEFT_TO_RIGHT):
        try:
            tableaux = [eg_insert(eg_word(d, direction)) for d in family]
        except InsertionError:
            continue
        if len({p for p, _ in tableaux}) <= 1 and all(
            q_label_row_check(q) for _, q in tableaux
        ):
            usable.append(direction)
    return usable
