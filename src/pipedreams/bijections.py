"""Catalan bijections on pipe dreams for the zigzag permutation.

A filling for the zigzag of n has exactly n elbows off the anti-diagonal.
Collecting (row - 1) over those elbows gives the conjugate of a partition
inside the staircase.  The same elbows also emit one bracket pair each,
which parses the string 1 .. n+1 as a full binary product; the partition
fixes how many pairs close after each letter, which is all the inverse needs
to rebuild the bracketing, and with it the filling, in one pass with a stack
of open factors.  Reflecting the filling across its diagonal reverses the
bracketing: the string read backwards, with the letters renumbered in
order.  The pairs also give the bracketing's parse tree, as nested lists,
and its printed string directly.  Partitions convert to Dyck paths so the
area statistic can travel along.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter

from .catalan import Partition, fits_staircase
from .perm import Value
from .rcgraph import RcGraph, zigzag_index


class PartitionBoundsError(ValueError):
    """The partition does not fit inside the staircase."""


class MalformedPathError(ValueError):
    """Not a lattice path from (0,0) to (n,n) weakly above the diagonal."""


class MalformedBracketingError(ValueError):
    """Not a proper full binary bracketing with matching pairs."""


# -- partitions --------------------------------------------------------------


def partition_of(d: RcGraph) -> Partition:
    """The partition whose conjugate collects row - 1 over the elbows off
    the anti-diagonal (row-one elbows contribute nothing).

    Part k is therefore the number of those elbows in rows k+1 .. m, and
    row i holds ``row.count(False) - 1`` of them, one fewer than its
    elbows because its anti-diagonal cell is always one.  The parts are
    the suffix sums of these counts, read from the bottom row up.
    """
    zigzag_index(d)
    parts = list(accumulate(row.count(False) - 1 for row in d.rows[:0:-1]))
    parts.reverse()
    # a row ends in an elbow, so counts are >= 0: the sums weakly decrease
    return Partition._trusted(tuple(filter(None, parts)))


def _check_staircase(p: Partition, n: int) -> None:
    """Raise unless p fits inside the staircase of n, and n >= 0."""
    if not fits_staircase(p, n):
        raise PartitionBoundsError(f"{p} does not fit inside the staircase of {n}")
    if n < 0:
        raise ValueError("n must be nonnegative")


def rcgraph_of(p: Partition, n: int) -> RcGraph:
    """The filling with partition p, built from the closes of its bracketing.

    The elbow at (i, j) is the pair (j, n+2-i), so row k+1 holds the pairs
    closing after letter c = n+1-k: there are p_k - p_{k+1} of them, and
    n - p_1 after letter n+1 in row one.  Reading the letters left to right,
    each is pushed as the start of a one-letter factor, and each close pops
    once: the new top o starts the merged factor o .. c, whose pair is the
    elbow (k+1, o).  All other cells off the anti-diagonal are crosses.
    The stack never runs short exactly when p fits inside the staircase.
    The parts are read from one tuple, (n, p_1, ..., p_{n-1}) padded with
    zeros, whose entry k less entry k+1 counts the closes in row k+1.
    """
    _check_staircase(p, n)
    rows = [[True] * (n - k) + [False] for k in range(n + 1)]
    parts = (n,) + p.parts + (0,) * (n + 1 - len(p.parts))
    opens: list[int] = []
    for c in range(1, n + 2):
        opens.append(c)
        k = n + 1 - c
        for _ in range(parts[k] - parts[k + 1]):
            opens.pop()
            rows[k][opens[-1] - 1] = False
    # The rows start as a staircase ending in elbows; the loop only adds elbows.
    return RcGraph._trusted(tuple(map(tuple, rows)))


# -- Dyck paths --------------------------------------------------------------


class DyckPath(Value):
    """A path of U and R steps from (0,0) to (n,n) staying weakly above the
    diagonal: every prefix has at least as many U steps as R steps."""

    __slots__ = ("steps",)

    def __init__(self, steps: str) -> None:
        object.__setattr__(self, "steps", steps)
        ups = downs = 0
        for ch in self.steps:
            if ch == "U":
                ups += 1
            elif ch == "R":
                downs += 1
                if downs > ups:
                    raise MalformedPathError(
                        f"path {self.steps!r} dips below the diagonal"
                    )
            else:
                raise MalformedPathError(
                    f"unexpected step {ch!r} in {self.steps!r}"
                )
        if ups != downs:
            raise MalformedPathError(
                f"path {self.steps!r} does not end on the diagonal"
            )

    @property
    def n(self) -> int:
        return len(self.steps) // 2


def partition_to_dyck(p: Partition, n: int) -> DyckPath:
    """Encode a staircase partition as a Dyck path.

    The k-th right step runs at height n - p_k, so the cells strictly above
    the path and strictly above the diagonal form the diagram of p, and the
    cells below the path and strictly above the diagonal number
    binom(n, 2) - |p|.  Ties rise before stepping right.
    """
    _check_staircase(p, n)
    steps: list[str] = []
    h = 0
    # p fits, so it has at most n parts; the parts past its last are 0
    for part in p.parts + (0,) * (n - len(p.parts)):
        target = n - part
        steps.append("U" * (target - h))
        steps.append("R")
        h = target
    steps.append("U" * (n - h))
    # p fits, so the target n - p_k weakly increases and is >= k, the R count
    return DyckPath._trusted("".join(steps))


def dyck_to_partition(path: DyckPath) -> Partition:
    """Inverse of partition_to_dyck; the ambient n is the path's half-length."""
    n = path.n
    heights: list[int] = []
    h = 0
    for ch in path.steps:
        if ch == "U":
            h += 1
        else:
            heights.append(h)
    # the heights weakly increase, so the positive n - h_k weakly decrease
    return Partition._trusted(tuple(n - hk for hk in heights if n - hk > 0))


# -- bracketings and trees ----------------------------------------------------


class Bracketing(Value):
    """A full binary bracketing of the letters 1 .. letters.

    ``pairs`` holds one (open, close) per bracket pair: the left bracket
    sits immediately before letter ``open`` and the right bracket
    immediately after letter ``close``, so the pair encloses the factor
    open .. close.  Construction sorts the pairs and checks, in one stack
    scan, that they are L - 1 distinct pairs with open < close, any two of
    them nested or disjoint.  That makes them the factors of one full
    binary product of the letters: a laminar family of distinct intervals
    of length >= 2 on L letters has at most L - 1 members, and exactly
    L - 1 only when it contains the whole 1 .. L (adding the whole keeps a
    family laminar) and every member splits into two parts, each a member
    or a single letter.
    """

    __slots__ = ("letters", "pairs")

    def __init__(self, letters: int, pairs: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "letters", letters)
        if letters < 1:
            raise MalformedBracketingError("need at least one letter")
        if len(pairs) != letters - 1:
            raise MalformedBracketingError(
                f"{len(pairs)} pairs cannot fully bracket {letters} letters"
            )
        for o, c in pairs:
            if not (1 <= o <= c <= letters):
                raise MalformedBracketingError(
                    f"pair ({o}, {c}) is out of range"
                )
            if o == c:
                raise MalformedBracketingError(
                    f"pair ({o}, {c}) encloses a single letter"
                )
        pairs = sorted(pairs)
        object.__setattr__(self, "pairs", tuple(pairs))
        # Outer pairs first: opens ascending, and the largest close first
        # for each open, which a stable sort by open alone of the reversed
        # pairs gives.  The stack holds the pairs that enclose the current
        # open, innermost on top.
        pairs.reverse()
        pairs.sort(key=itemgetter(0))
        enclosing: list[tuple[int, int]] = []
        for o, c in pairs:
            while enclosing and enclosing[-1][1] < o:
                enclosing.pop()
            if enclosing and enclosing[-1] == (o, c):
                raise MalformedBracketingError(f"pair ({o}, {c}) appears twice")
            if enclosing and enclosing[-1][1] < c:
                raise MalformedBracketingError(
                    f"pairs {enclosing[-1]} and ({o}, {c}) overlap"
                )
            enclosing.append((o, c))

    def __str__(self) -> str:
        """Brackets around every factor of two or more letters, and a space
        only inside a factor of exactly two letters, e.g. ``(1((2 3)4))``.

        One scan of the letters: each prints its pairs' left brackets, then
        itself, then its pairs' right brackets.  The space after x falls
        exactly when (x, x+1) is a pair, since no other pair can open at
        x+1 or close at x without overlapping it.
        """
        size = self.letters + 1
        opens, closes, gaps = [0] * size, [0] * size, [""] * size
        for o, c in self.pairs:
            opens[o] += 1
            closes[c] += 1
            if c == o + 1:
                gaps[o] = " "
        return "".join(
            "(" * opens[x] + str(x) + ")" * closes[x] + gaps[x]
            for x in range(1, size)
        )


def _elbow_pairs(d: RcGraph) -> tuple[int, list[tuple[int, int]]]:
    """The n of the zigzag that d fills, and one bracket pair per elbow off
    the anti-diagonal, unsorted and unchecked: the elbow at (i, j) opens
    before letter j and closes after letter n+2-i.  Each row is scanned for
    its elbows by ``index``, which ends at the anti-diagonal elbow."""
    n = zigzag_index(d)
    pairs: list[tuple[int, int]] = []
    for close, row in zip(range(n + 1, 0, -1), d.rows):
        last = len(row) - 1
        j = row.index(False)
        while j < last:
            pairs.append((j + 1, close))
            j = row.index(False, j + 1)
    return n, pairs


def bracketing_of(d: RcGraph) -> Bracketing:
    """The bracketing of 1 .. n+1 whose pairs are d's elbows off the
    anti-diagonal; ``Bracketing`` sorts and checks them."""
    n, pairs = _elbow_pairs(d)
    return Bracketing(n + 1, tuple(pairs))


def reverse_bracketing(b: Bracketing) -> Bracketing:
    """Reverse the string together with its brackets (letters keep reading
    1 .. n+1; every pair (o, c) becomes (L+1-c, L+1-o))."""
    L = b.letters
    # x -> L+1-x keeps pairs in range, open < close, distinct and laminar
    return Bracketing._trusted(
        L, tuple(sorted((L + 1 - c, L + 1 - o) for o, c in b.pairs))
    )


def tree_of(b: Bracketing) -> int | list:
    """The parse tree of a bracketing as nested lists, e.g. [1, [2, [3, 4]]]
    for (1(2(3 4))); the leaves are the letters in order.

    Read the bracketing as postfix: each letter is pushed as a leaf, and
    each pair closing after it merges the top two items, which are its two
    factors, into one node.  The pairs closing after one letter are nested,
    so they complete innermost first, one merge each.  A valid bracketing
    leaves exactly the whole tree on the stack.
    """
    closes = [0] * (b.letters + 1)
    for _, c in b.pairs:
        closes[c] += 1
    stack: list = []
    for x in range(1, b.letters + 1):
        stack.append(x)
        for _ in range(closes[x]):
            right = stack.pop()
            stack[-1] = [stack[-1], right]
    return stack[0]
