"""Pipe dreams on the staircase grid.

The grid for S_m occupies the cells (i, j) with i >= 1, j >= 1 and
i + j <= m + 1; the anti-diagonal cells (i, m+1-i) always hold elbows.  Every
cell carries either a cross (two strands pass straight through each other) or
an elbow (the strand arriving from the west turns north, the one arriving
from the south turns east).  The strand entering row i from the left then
exits the top of the grid in some column, and a filling is a pipe dream for
the permutation w exactly when that column is w(i) for every i and no two
strands cross twice.  Along the front of a bottom-up sweep, strands change
order only where they cross, so a pair meeting again is out of order there:
``_trace`` raises when the traveler is larger than the strand it crosses,
and ``fold_rcgraphs``, which labels each strand by its target, places a
cross only when the traveler's target is larger than b's.

Coordinates are (row, column), 1-based, with (1, 3) meaning top row, third
column.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import comb
from typing import Callable, Iterable, TypeVar

from .perm import Permutation, Value, _inverse_word, zigzag

T = TypeVar("T")


class RcGraphError(ValueError):
    """Base class for pipe dream errors."""


class MalformedGridError(RcGraphError):
    """Cells do not cover exactly the staircase region."""


class CrossOnAntiDiagonalError(RcGraphError):
    """A cross was placed on a forced-elbow anti-diagonal cell."""


class NotReducedError(RcGraphError):
    """Two strands cross more than once."""


class NotZigzagError(RcGraphError):
    """The filling does not trace the zigzag permutation 1, n+1, n, ..., 2."""


class ChuteMoveError(RcGraphError):
    """A generalized inverse chute move is not applicable.

    ``condition`` is 1..4 for the numbered adjacency conditions, or 0 when a
    precondition on the two cells themselves fails.
    """

    def __init__(self, condition: int, message: str) -> None:
        super().__init__(message)
        self.condition = condition


class RcGraph(Value):
    """An immutable staircase filling; ``rows[i-1][j-1]`` is True for a cross.

    Row i stores all m+1-i of its cells, including the trailing
    anti-diagonal cell, which is always an elbow.  ``_word`` is the exit
    word where it is known without a sweep, else None (see ``exit_word``).
    """

    __slots__ = ("rows", "_word")

    def __init__(self, rows: tuple[tuple[bool, ...], ...]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_word", None)
        m = len(self.rows)
        if m == 0:
            raise MalformedGridError("a pipe dream needs at least one row")
        for i, row in enumerate(self.rows, start=1):
            if len(row) != m + 1 - i:
                raise MalformedGridError(
                    f"row {i} has {len(row)} cells, expected {m + 1 - i}"
                )
            if row[-1]:
                raise CrossOnAntiDiagonalError(
                    f"cross on the anti-diagonal cell ({i}, {m + 1 - i})"
                )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_crosses(cls, m: int, crosses: Iterable[tuple[int, int]]) -> RcGraph:
        """Build the filling of the S_m staircase with crosses at the given
        cells; ``__init__`` refuses a cross on the anti-diagonal."""
        cells = set()
        for i, j in crosses:
            if i < 1 or j < 1 or i + j > m + 1:
                raise MalformedGridError(f"cell ({i}, {j}) is outside the staircase")
            cells.add((i, j))
        rows = tuple(
            tuple((i, j) in cells for j in range(1, m + 2 - i))
            for i in range(1, m + 1)
        )
        return cls(rows)

    @classmethod
    def from_text(cls, text: str) -> RcGraph:
        """Parse the plain-text form: one line per row, '+' cross, '.' elbow."""
        lines = text.strip("\n").split("\n")
        if lines == [""]:
            raise MalformedGridError("empty text")
        m = len(lines)
        rows = []
        for i, line in enumerate(lines, start=1):
            if len(line) != m + 1 - i:
                raise MalformedGridError(
                    f"line {i} has {len(line)} characters, expected {m + 1 - i}"
                )
            bad = set(line) - {"+", "."}
            if bad:
                raise MalformedGridError(f"unexpected characters {sorted(bad)}")
            rows.append(tuple(ch == "+" for ch in line))
        return cls(tuple(rows))

    # -- basic geometry ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.rows)

    # -- semantics ---------------------------------------------------------

    @property
    def exit_word(self) -> tuple[int, ...]:
        """The strand exiting at each column, which is the inverse word of
        the traced permutation.

        A grid from ``enumerate_rcgraphs`` carries the word of w^-1, as
        ``fold_rcgraphs`` proves every filling it lists exits, and the
        transpose of a grid that carries a word carries its inverse.  Any
        other grid sweeps its rows on every read and keeps nothing, so one
        that is not reduced raises NotReducedError every time.
        """
        word = self._word
        return _trace(self.rows) if word is None else word

    def permutation(self) -> Permutation:
        """Trace all strands and return the permutation they realise.

        Raises NotReducedError as soon as a pair of strands crosses twice.
        """
        return Permutation(self.exit_word).inverse()

    def weight(self) -> int:
        """Sum of (row - 1) over all crosses."""
        return sum(i * row.count(True) for i, row in enumerate(self.rows))

    def monomial(self) -> tuple[int, ...]:
        """Exponent vector: entry i-1 counts the crosses in row i."""
        counts = [row.count(True) for row in self.rows]
        while counts and counts[-1] == 0:
            counts.pop()
        return tuple(counts)

    def transpose(self) -> RcGraph:
        """Reflect across the main diagonal; the traced permutation inverts.

        Column j of the staircase is the first m - j entries of the j-th
        tuple of ``zip_longest`` over the rows, the rest being its padding.
        Cut there, it ends at the anti-diagonal elbow (m - j, j + 1).  Its
        strands swap entry and exit, so a carried exit word passes on
        inverted, by the helper ``Permutation.inverse`` uses: a carried
        word already rearranges 1..m, so no ``Permutation`` is built or
        validated.
        """
        m = self.m
        word = self._word
        if word is not None:
            word = _inverse_word(word)
        return RcGraph._trusted(tuple(
            col[:m - j] for j, col in enumerate(zip_longest(*self.rows))
        ), word)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        return "\n".join(
            "".join("+" if c else "." for c in row) for row in self.rows
        )

    def to_json_dict(self) -> dict:
        """The size and the cross cells (i, j), 1-indexed, in row-major
        order."""
        return {"m": self.m, "crosses": [
            [i, j]
            for i, row in enumerate(self.rows, start=1)
            for j, c in enumerate(row, start=1)
            if c
        ]}


def _trace(rows: tuple[tuple[bool, ...], ...]) -> tuple[int, ...]:
    """Sweep the rows from the bottom up; return the strand exiting at each
    column, which is the inverse word of the traced permutation.

    The strand entering row r from the west starts as the "traveler"; at
    each cell it meets the strand coming up from below, a cross sends the
    lower strand onward to the north while the traveler keeps going east,
    and an elbow parks the traveler and makes the lower strand the new
    traveler.  Raises NotReducedError as soon as a pair of strands crosses
    twice.
    """
    m = len(rows)
    cols: list[int] = []
    for r in range(m, 0, -1):
        traveler = r
        row = rows[r - 1]
        out: list[int] = []
        for j in range(m - r):
            below = cols[j]
            if row[j]:
                # Strands at the front change order only by adjacent
                # swaps, so traveler > below means the pair already
                # crossed once.
                if traveler > below:
                    raise NotReducedError(
                        f"strands {below} and {traveler} cross twice"
                    )
                out.append(below)
            else:
                out.append(traveler)
                traveler = below
        out.append(traveler)
        cols = out
    return tuple(cols)


@lru_cache(maxsize=None)
def _zigzag_word(n: int) -> tuple[int, ...]:
    """The word of zigzag(n); the zigzag is an involution, so this is also
    the exit word of its fillings."""
    return zigzag(n).word


def zigzag_index(d: RcGraph) -> int:
    """The n for which d is a filling of the zigzag of n; raises
    NotZigzagError when d traces another permutation."""
    n = d.m - 1
    if d.exit_word != _zigzag_word(n):
        raise NotZigzagError(
            f"not a filling for the zigzag permutation of S_{d.m}"
        )
    return n


def bottom_rcgraph(n: int) -> RcGraph:
    """The filling for the zigzag of n with elbows in row one and crosses in
    every other decidable cell."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return RcGraph(((False,) * (n + 1),)
                   + tuple((True,) * (n - k) + (False,) for k in range(1, n + 1)))


def fold_rcgraphs(w: Permutation, leaf: T,
                  extend: Callable[[int, tuple[bool, ...], T], T]) -> T:
    """Fold a weight over the pipe dreams for w, in one pass up the rows.

    A state is the tuple of strands crossing a row boundary, column by
    column; the empty state below row m weighs ``leaf``.  For each state
    below row r, the pass extends the row's partial fillings one column at
    a time, and each finished filling adds extend(r, cells, weight below)
    into the weight of the state leaving the top with ``+=``: a path sum by
    transfer matrices (Stanley, EC1, 4.7), which keeps only the weights of
    the boundary below.  The first edge into a state is stored as
    ``extend`` returns it, so a mutable weight it returns must be new.

    A strand is labelled by its target, the column w(s) it must exit at,
    so row r's strand enters as w(r).  A cross is placed only on a pair
    that has not crossed yet and whose targets are inverted in w.  No set
    of crossed pairs is kept: along the front of the sweep the strands
    change order only by the adjacent swap of a cross, and a strand enters
    west of every strand already there, all from lower rows.  So the
    traveler has not crossed b exactly when it comes from the higher row,
    and then the pair is inverted exactly when traveler > b; a pair that
    has crossed was inverted, so now traveler < b.  The two tests reduce
    to traveler > b, and no pair crosses twice.  Strands move weakly east,
    so an entry v of a state must sit at a column c <= v.  By induction
    along a row, the traveler entering column j is at least j: the row's
    strand w(r) is at least 1, an elbow hands over to a b > j, its one
    target test, and a cross keeps a traveler > b >= j, as b came from the
    state below.  So every strand exits north weakly west of its target,
    at an elbow, a cross or the anti-diagonal, with no test of its own.
    Above row 1, m distinct entries with c <= v force the identity: the
    only state left is 1, ..., m.
    """
    word = w.word
    m = len(word)
    weights: dict[tuple[int, ...], T] = {(): leaf}
    for r in range(m, 0, -1):
        above: dict[tuple[int, ...], T] = {}
        for below, weight in weights.items():
            fillings = [(word[r - 1], (), ())]  # (traveler, top, cells so far)
            for j, b in enumerate(below, start=1):
                grown = []
                for traveler, top, cells in fillings:
                    # elbow: the traveler exits north at column j, b takes over east
                    if b > j:
                        grown.append((b, top + (traveler,), cells + (False,)))
                    # cross: b exits north at column j, the traveler passes over it
                    if traveler > b:
                        grown.append((traveler, top + (b,), cells + (True,)))
                fillings = grown
            # forced anti-diagonal elbow: the traveler exits at column m + 1 - r
            for traveler, top, cells in fillings:
                top += (traveler,)
                x = extend(r, cells + (False,), weight)
                if top in above:
                    above[top] += x
                else:
                    above[top] = x
        weights = above
    return weights[tuple(range(1, m + 1))]


def enumerate_rcgraphs(w: Permutation) -> list[RcGraph]:
    """All pipe dreams for w, without duplicates, in canonical order.

    ``fold_rcgraphs`` weighs each state by the list of row tuples below it,
    each row filling prefixing its cells to every tuple of the state below.
    The rows form a staircase ending in the forced elbows and trace w, so
    they are wrapped unchecked, each with the one exit word w^-1.word.

    One sort, True first, gives the canonical order, the row-major list of
    crosses: every filling has l(w) crosses, so two first differ at a cell
    where exactly one has a cross, which sorts first.
    """
    word = w.inverse().word
    listing = fold_rcgraphs(
        w, [()], lambda r, cells, below: [(cells,) + rows for rows in below])
    listing.sort(reverse=True)
    return [RcGraph._trusted(rows, word) for rows in listing]


def count_rcgraphs(w: Permutation) -> int:
    """The number of pipe dreams for w, len(enumerate_rcgraphs(w)), by
    ``fold_rcgraphs``: each state counts the fillings of the rows below it."""
    return fold_rcgraphs(w, 1, lambda r, cells, x: x)


def inverse_chute_move(d: RcGraph, src: tuple[int, int],
                       dst: tuple[int, int]) -> RcGraph:
    """Move the elbow at src = (i, j) to dst = (i', j') with i' > i, j' < j,
    turning src into a cross and the cross at dst into an elbow.

    Four adjacency conditions guard the move; they force the two strands
    meeting at dst to re-route through src, so the traced permutation and
    the cross count are unchanged.  Cells referenced outside the staircase
    count as neither crosses nor elbows, which makes every condition fail
    there.
    """
    rows, m = d.rows, d.m

    def cell(r: int, c: int) -> bool | None:
        """True for a cross, False for an elbow, None outside the staircase:
        falsy, so no cross, and not False, so no elbow."""
        return rows[r - 1][c - 1] if r >= 1 and c >= 1 and r + c <= m + 1 else None

    i, j = src
    i2, j2 = dst
    if cell(i, j) is not False:
        raise ChuteMoveError(0, f"source cell {src} is not an elbow")
    if not (i2 > i and j2 < j):
        raise ChuteMoveError(
            0, f"destination {dst} is not strictly below and left of {src}"
        )
    if not all(cell(k, j) for k in range(i + 1, i2)) or cell(i2, j) is not False:
        raise ChuteMoveError(
            1,
            f"condition 1 fails: column {j} must be crosses strictly between "
            f"rows {i} and {i2} with an elbow at ({i2}, {j})",
        )
    if not all(cell(i, k) for k in range(j2 + 1, j)) or cell(i, j2) is not False:
        raise ChuteMoveError(
            2,
            f"condition 2 fails: row {i} must be crosses strictly between "
            f"columns {j2} and {j} with an elbow at ({i}, {j2})",
        )
    if not all(cell(k, j2) for k in range(i + 1, i2 + 1)):
        raise ChuteMoveError(
            3,
            f"condition 3 fails: column {j2} must be crosses from row {i + 1} "
            f"to row {i2}",
        )
    if not all(cell(i2, k) for k in range(j2, j)):
        raise ChuteMoveError(
            4,
            f"condition 4 fails: row {i2} must be crosses from column {j2} "
            f"to column {j - 1}",
        )
    grid = [list(row) for row in rows]
    grid[i - 1][j - 1] = True
    grid[i2 - 1][j2 - 1] = False
    return RcGraph(tuple(map(tuple, grid)))


def split(d: RcGraph) -> tuple[int, RcGraph, RcGraph]:
    """Cut a zigzag filling at its turn row k into ``(k, south, north)``.

    The strand entering the bottom row climbs column 1, turns at row k (the
    lowest elbow of column 1 above the bottom row) and exits through column
    2.  south, rows k..n of columns 2..n+2-k, fills the zigzag of n-k; north,
    column 1 and columns n+3-k..n+1 of rows 1..k, fills the zigzag of k-1;
    both are reindexed, and rows 1..k-1 of columns 2..n+2-k are forced crosses.
    The zigzag of 0, the one grid of S_1, has no turn row: ValueError.

    Only the guard is checked, by the turn-row lemma: ``unsplit`` of fillings
    for the zigzags of n-k and k-1 is a reduced filling for the zigzag of n
    turning at row k, and its slices give the triple back, so it has
    sum_k C(k-1) C(n-k) = C(n) images.  The partition bijection, which does
    not use the split, counts C(n) fillings for the zigzag of n, so every one
    is an image: its forced block is solid and its parts fill the zigzags.
    """
    n = zigzag_index(d)
    if n < 1:
        raise ValueError("the zigzag of 0 has no turn row to split at")
    rows = d.rows
    k = max(r for r, row in enumerate(rows[:n], start=1) if not row[0])
    # Both are staircases, each row ending at an anti-diagonal or turn elbow.
    south = RcGraph._trusted(tuple(row[1:] for row in rows[k - 1:n]))
    north = RcGraph._trusted(
        tuple(row[:1] + row[n + 2 - k:] for row in rows[:k]))
    return k, south, north


def turn_row_shift(n: int, k: int) -> int:
    """e(k): the weight of a zigzag-of-n filling with turn row k, less the
    weights of its split parts."""
    return ((k - 1) * comb(n - k, 2) + (n + 1 - k) * comb(k - 1, 2)
            + comb(n, 2) - comb(k, 2))


def unsplit(n: int, k: int, south: RcGraph, north: RcGraph) -> RcGraph:
    """Reassemble a zigzag filling from its split parts (inverse of split)."""
    if not 1 <= k <= n:
        raise ValueError(f"turn row {k} out of range for n={n}")
    if south.m != n - k + 1 or north.m != k:
        raise ValueError("part sizes do not match n and k")
    rows = [row[:1] + (True,) * (n + 1 - k) + row[1:] for row in north.rows[:-1]]
    rows.append(north.rows[-1] + south.rows[0])
    rows += [(True,) + row for row in south.rows[1:]]
    rows.append((False,))
    # Parts of the checked sizes fill the staircase of S_(n+1) row by row.
    return RcGraph._trusted(tuple(rows))
