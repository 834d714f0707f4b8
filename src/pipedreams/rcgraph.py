"""Pipe dreams on the staircase grid.

The grid for S_m occupies the cells (i, j) with i >= 1, j >= 1 and
i + j <= m + 1; the anti-diagonal cells (i, m+1-i) always hold elbows.  Every
cell carries either a cross (two strands pass straight through each other) or
an elbow (the strand arriving from the west turns north, the one arriving
from the south turns east).  The strand entering row i from the left then
exits the top of the grid in some column, and a filling is a pipe dream for
the permutation w exactly when that column is w(i) for every i and no two
strands cross twice.  Crossing twice is equivalent to the cross count
exceeding the inversion count of the traced permutation, so reduced fillings
are recognised by counting.

Coordinates are (row, column), 1-based, with (1, 3) meaning top row, third
column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .perm import Permutation, zigzag


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


@dataclass(frozen=True)
class RcGraph:
    """An immutable staircase filling; ``rows[i-1][j-1]`` is True for a cross.

    Row i stores all m+1-i of its cells, including the trailing
    anti-diagonal cell, which is always an elbow.
    """

    rows: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
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
        """Build the filling of the S_m staircase with crosses at the given cells."""
        cells = set()
        for i, j in crosses:
            if i < 1 or j < 1 or i + j > m + 1:
                raise MalformedGridError(f"cell ({i}, {j}) is outside the staircase")
            if i + j == m + 1:
                raise CrossOnAntiDiagonalError(
                    f"cross on the anti-diagonal cell ({i}, {j})"
                )
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

    @classmethod
    def from_json_dict(cls, data: dict) -> RcGraph:
        return cls.from_crosses(int(data["m"]), [tuple(c) for c in data["crosses"]])

    # -- basic geometry ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.rows)

    def in_grid(self, i: int, j: int) -> bool:
        return i >= 1 and j >= 1 and i + j <= self.m + 1

    def is_cross(self, i: int, j: int) -> bool:
        return self.in_grid(i, j) and self.rows[i - 1][j - 1]

    def is_elbow(self, i: int, j: int) -> bool:
        return self.in_grid(i, j) and not self.rows[i - 1][j - 1]

    def crosses(self) -> tuple[tuple[int, int], ...]:
        """Cross cells in row-major order."""
        return tuple(
            (i, j)
            for i, row in enumerate(self.rows, start=1)
            for j, c in enumerate(row, start=1)
            if c
        )

    def elbows(self) -> tuple[tuple[int, int], ...]:
        """Elbow cells off the anti-diagonal, in row-major order."""
        return tuple(
            (i, j)
            for i, row in enumerate(self.rows, start=1)
            for j, c in enumerate(row[:-1], start=1)
            if not c
        )

    def cross_count(self) -> int:
        return sum(sum(row) for row in self.rows)

    # -- semantics ---------------------------------------------------------

    def permutation(self) -> Permutation:
        """Trace all strands and return the permutation they realise.

        Rows are swept from the bottom up.  The strand entering row r from
        the west starts as the "traveler"; at each cell it meets the strand
        coming up from below, a cross sends the lower strand onward to the
        north while the traveler keeps going east, and an elbow parks the
        traveler and makes the lower strand the new traveler.  Raises
        NotReducedError as soon as a pair of strands crosses twice.
        """
        rows = self.rows
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
        # cols[j-1] is the strand exiting at column j, i.e. the inverse word
        return Permutation(tuple(cols)).inverse()

    def weight(self) -> int:
        """Sum of (row - 1) over all crosses."""
        return sum(i - 1 for i, _ in self.crosses())

    def monomial(self) -> tuple[int, ...]:
        """Exponent vector: entry i-1 counts the crosses in row i."""
        counts = [sum(row) for row in self.rows]
        while counts and counts[-1] == 0:
            counts.pop()
        return tuple(counts)

    def transpose(self) -> RcGraph:
        """Reflect across the main diagonal; the traced permutation inverts."""
        return RcGraph.from_crosses(self.m, [(j, i) for i, j in self.crosses()])

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        return "\n".join(
            "".join("+" if c else "." for c in row) for row in self.rows
        )

    def to_json_dict(self) -> dict:
        return {"m": self.m, "crosses": [[i, j] for i, j in self.crosses()]}

    def sort_key(self) -> tuple:
        return (self.m, self.crosses())

    def _replace(self, changes: dict[tuple[int, int], bool]) -> RcGraph:
        rows = [list(r) for r in self.rows]
        for (i, j), value in changes.items():
            rows[i - 1][j - 1] = value
        return RcGraph(tuple(tuple(r) for r in rows))

    def __str__(self) -> str:
        return self.to_text()


def zigzag_index(d: RcGraph, min_n: int = 0) -> int:
    """The n for which d is a filling of the zigzag of n; raises
    NotZigzagError when d traces another permutation or n < min_n."""
    n = d.m - 1
    if n < min_n or d.permutation() != zigzag(n):
        raise NotZigzagError(
            f"not a filling for the zigzag permutation of S_{d.m}"
        )
    return n


def bottom_rcgraph(n: int) -> RcGraph:
    """The filling for the zigzag of n with elbows in row one and crosses in
    every other decidable cell."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = n + 1
    crosses = [(i, j) for i in range(2, m + 1) for j in range(1, m + 1 - i)]
    return RcGraph.from_crosses(m, crosses)


def enumerate_rcgraphs(w: Permutation) -> list[RcGraph]:
    """All pipe dreams for w, without duplicates, in canonical order.

    Depth-first search over the rows from the bottom up.  The state entering
    row r is the tuple of strands crossing upward into it, column by column.
    ``row_moves(r, below)`` lists every admissible filling of row r over
    those strands as (strands leaving the top, the row's cells, its cross
    count); the lists are memoised per (r, below) for the length of one
    call, and fillings that pass through the same state share the same row
    tuples.

    A strand is abandoned as soon as it would sit east of its target column,
    since strands move weakly east.  A cross is placed only on a pair whose
    targets are inverted in w and that has not crossed yet.  No set of
    crossed pairs is kept: along the front of the sweep the strands change
    order only by the adjacent swap of a cross, and a strand enters west of
    every strand already there, all of which carry larger labels.  So a pair
    has crossed exactly when the larger strand is west of the smaller, which
    for the traveler meeting b is traveler > b.  Such a pair is inverted in
    w, so w(traveler) < w(b), and the two tests together reduce to
    w(traveler) > w(b).  With every cross on a fresh inverted pair, spending
    the full budget of l(w) crosses forces the traced permutation to equal
    w; a move is skipped when it overspends the budget or leaves more
    crosses than the decidable cells above it can hold.

    Canonical order is ``RcGraph.sort_key``, the row-major list of crosses.
    Every filling of w has l(w) crosses, so two of them first differ at a
    cell where exactly one has a cross, and that one sorts first.  On the
    rows, where True > False, it sorts last; hence the reverse sort.
    """
    m = w.size
    target = w.length
    wv = (0,) + w.word
    memo: dict[tuple[int, tuple[int, ...]], list] = {}

    def row_moves(r: int, below: tuple[int, ...]) -> list:
        key = (r, below)
        moves = memo.get(key)
        if moves is not None:
            return moves
        moves = memo[key] = []
        width = len(below) + 1

        def fill(j: int, traveler: int, top: tuple[int, ...],
                 cells: tuple[bool, ...], k: int) -> None:
            if j == width:
                # forced anti-diagonal elbow: the traveler exits here
                if wv[traveler] >= width:
                    moves.append((top + (traveler,), cells + (False,), k))
                return
            b = below[j - 1]
            # elbow: the traveler exits north at column j, b takes over east
            if wv[traveler] >= j:
                fill(j + 1, b, top + (traveler,), cells + (False,), k)
            # cross: b exits north at column j, the traveler passes over it
            if wv[traveler] > wv[b] >= j:
                fill(j + 1, traveler, top + (b,), cells + (True,), k + 1)

        fill(1, r, (), (), 0)
        return moves

    rows: list[tuple[bool, ...]] = [()] * m
    found: list[RcGraph] = []

    def descend(r: int, below: tuple[int, ...], ncross: int) -> None:
        if r == 0:
            found.append(RcGraph(tuple(rows)))
            return
        room = (r - 1) * (2 * m - r) // 2  # decidable cells in rows 1..r-1
        for top, cells, k in row_moves(r, below):
            if 0 <= target - (ncross + k) <= room:
                rows[r - 1] = cells
                descend(r - 1, top, ncross + k)

    descend(m, (), 0)
    found.sort(key=lambda d: d.rows, reverse=True)
    return found


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
    i, j = src
    i2, j2 = dst
    if not d.is_elbow(i, j):
        raise ChuteMoveError(0, f"source cell {src} is not an elbow")
    if not (i2 > i and j2 < j):
        raise ChuteMoveError(
            0, f"destination {dst} is not strictly below and left of {src}"
        )
    if not all(d.is_cross(k, j) for k in range(i + 1, i2)) or not d.is_elbow(i2, j):
        raise ChuteMoveError(
            1,
            f"condition 1 fails: column {j} must be crosses strictly between "
            f"rows {i} and {i2} with an elbow at ({i2}, {j})",
        )
    if not all(d.is_cross(i, k) for k in range(j2 + 1, j)) or not d.is_elbow(i, j2):
        raise ChuteMoveError(
            2,
            f"condition 2 fails: row {i} must be crosses strictly between "
            f"columns {j2} and {j} with an elbow at ({i}, {j2})",
        )
    if not all(d.is_cross(k, j2) for k in range(i + 1, i2 + 1)):
        raise ChuteMoveError(
            3,
            f"condition 3 fails: column {j2} must be crosses from row {i + 1} "
            f"to row {i2}",
        )
    if not all(d.is_cross(i2, k) for k in range(j2, j)):
        raise ChuteMoveError(
            4,
            f"condition 4 fails: row {i2} must be crosses from column {j2} "
            f"to column {j - 1}",
        )
    return d._replace({(i, j): True, (i2, j2): False})


def split(d: RcGraph) -> tuple[int, RcGraph, RcGraph]:
    """Cut a zigzag filling along the strand entering the bottom row.

    That strand climbs column 1 and exits through column 2; k is the unique
    row where it occupies both (k, 1) and (k, 2).  Fixing k forces solid
    crosses in rows 1..k-1 of columns 2..n+2-k and in rows k+1..n of
    column 1.  Returns ``(k, south, north)`` where south is the sub-filling
    on rows k..n, columns 2..n+2-k (a filling for the zigzag of n-k) and
    north is the sub-filling on column 1 and columns n+3-k..n+1 of rows 1..k
    with the forced crosses in between dropped (a filling for the zigzag of
    k-1).  Both are reindexed to self-contained staircases.
    """
    n = zigzag_index(d, min_n=1)
    k = max(r for r in range(1, n + 1) if not d.is_cross(r, 1))
    for r in range(1, k):
        for c in range(2, n + 3 - k):
            if not d.is_cross(r, c):
                raise NotZigzagError(
                    f"expected a forced cross at ({r}, {c}) for turn row {k}"
                )
    for r in range(k + 1, n + 1):
        if not d.is_cross(r, 1):
            raise NotZigzagError(
                f"expected a forced cross at ({r}, 1) for turn row {k}"
            )
    south = RcGraph.from_crosses(
        n - k + 1,
        [
            (i - k + 1, j - 1)
            for i, j in d.crosses()
            if i >= k and 2 <= j <= n + 2 - k
        ],
    )
    north = RcGraph.from_crosses(
        k,
        [(i, 1) for i, j in d.crosses() if j == 1 and i <= k]
        + [(i, j - (n + 1 - k)) for i, j in d.crosses() if j >= n + 3 - k],
    )
    if south.permutation() != zigzag(n - k) or north.permutation() != zigzag(k - 1):
        raise NotZigzagError("split parts do not trace zigzag permutations")
    return k, south, north


def unsplit(n: int, k: int, south: RcGraph, north: RcGraph) -> RcGraph:
    """Reassemble a zigzag filling from its split parts (inverse of split)."""
    if not 1 <= k <= n:
        raise ValueError(f"turn row {k} out of range for n={n}")
    if south.m != n - k + 1 or north.m != k:
        raise ValueError("part sizes do not match n and k")
    crosses: list[tuple[int, int]] = []
    crosses += [(r, c) for r in range(1, k) for c in range(2, n + 3 - k)]
    crosses += [(r, 1) for r in range(k + 1, n + 1)]
    crosses += [(i + k - 1, j + 1) for i, j in south.crosses()]
    for i, j in north.crosses():
        crosses.append((i, 1) if j == 1 else (i, j + n + 1 - k))
    return RcGraph.from_crosses(n + 1, crosses)


def chute_closure(start: RcGraph) -> list[RcGraph]:
    """All fillings reachable from ``start`` by inverse chute moves."""
    seen = {start}
    frontier = [start]
    while frontier:
        d = frontier.pop()
        for i, j in d.elbows():
            for i2 in range(i + 1, d.m + 1):
                for j2 in range(1, j):
                    try:
                        nxt = inverse_chute_move(d, (i, j), (i2, j2))
                    except ChuteMoveError:
                        continue
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
    return sorted(seen, key=RcGraph.sort_key)
