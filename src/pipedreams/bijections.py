"""Catalan bijections on pipe dreams for the zigzag permutation.

A filling for the zigzag of n has exactly n elbows off the anti-diagonal.
Collecting (row - 1) over those elbows gives the conjugate of a partition
inside the staircase.  The same elbows also emit one bracket pair each,
which parses the string 1 .. n+1 as a full binary product; the partition
fixes how many pairs close after each letter, which is all the inverse needs
to rebuild the bracketing, and with it the filling, in one pass with a stack
of open factors.  Reflecting the filling across its diagonal reverses the
bracketing, equivalently flips the parse tree.  Partitions convert to Dyck
paths so the area statistic can travel along.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, count
from operator import itemgetter

from .catalan import Partition, fits_staircase
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
    return Partition(tuple(filter(None, parts)))


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
    if not fits_staircase(p, n):
        raise PartitionBoundsError(
            f"{p} does not fit inside the staircase of {n}"
        )
    if n < 0:
        raise ValueError("n must be nonnegative")
    rows = [[True] * (n - k) + [False] for k in range(n + 1)]
    parts = (n,) + p.parts + (0,) * (n + 1 - len(p.parts))
    opens: list[int] = []
    for c in range(1, n + 2):
        opens.append(c)
        k = n + 1 - c
        for _ in range(parts[k] - parts[k + 1]):
            opens.pop()
            rows[k][opens[-1] - 1] = False
    return RcGraph(tuple(map(tuple, rows)))


# -- Dyck paths --------------------------------------------------------------


@dataclass(frozen=True)
class DyckPath:
    """A path of U and R steps from (0,0) to (n,n) staying weakly above the
    diagonal: every prefix has at least as many U steps as R steps."""

    steps: str

    def __post_init__(self) -> None:
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
    if not fits_staircase(p, n):
        raise PartitionBoundsError(
            f"{p} does not fit inside the staircase of {n}"
        )
    steps: list[str] = []
    h = 0
    for k in range(1, n + 1):
        target = n - p.part(k)
        steps.append("U" * (target - h))
        steps.append("R")
        h = target
    steps.append("U" * (n - h))
    return DyckPath("".join(steps))


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
    return Partition(tuple(n - hk for hk in heights if n - hk > 0))


# -- bracketings and trees ----------------------------------------------------


@dataclass(frozen=True)
class Bracketing:
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

    letters: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.letters < 1:
            raise MalformedBracketingError("need at least one letter")
        if len(self.pairs) != self.letters - 1:
            raise MalformedBracketingError(
                f"{len(self.pairs)} pairs cannot fully bracket "
                f"{self.letters} letters"
            )
        for o, c in self.pairs:
            if not (1 <= o <= c <= self.letters):
                raise MalformedBracketingError(
                    f"pair ({o}, {c}) is out of range"
                )
            if o == c:
                raise MalformedBracketingError(
                    f"pair ({o}, {c}) encloses a single letter"
                )
        pairs = sorted(self.pairs)
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
        def render(t: BinaryTree) -> str:
            if t.is_leaf():
                return str(t.label)
            gap = " " if t.left.is_leaf() and t.right.is_leaf() else ""
            return f"({render(t.left)}{gap}{render(t.right)})"

        return render(tree_of(self))


@dataclass(frozen=True)
class BinaryTree:
    """A full binary tree whose leaves carry the letters 1 .. n+1 in order."""

    label: int | None = None
    left: BinaryTree | None = field(default=None)
    right: BinaryTree | None = field(default=None)

    def __post_init__(self) -> None:
        is_leaf = self.label is not None
        has_children = self.left is not None and self.right is not None
        if is_leaf == has_children or (self.left is None) != (self.right is None):
            raise ValueError("a node is either a labelled leaf or has two children")

    @classmethod
    def leaf(cls, label: int) -> BinaryTree:
        return cls(label=label)

    @classmethod
    def node(cls, left: BinaryTree, right: BinaryTree) -> BinaryTree:
        return cls(left=left, right=right)

    def is_leaf(self) -> bool:
        return self.label is not None

    def leaves(self) -> list[int]:
        if self.is_leaf():
            return [self.label]
        return self.left.leaves() + self.right.leaves()

    def to_nested(self):
        """Nested-list form, e.g. [1, [2, [3, 4]]]."""
        if self.is_leaf():
            return self.label
        return [self.left.to_nested(), self.right.to_nested()]


def bracketing_of(d: RcGraph) -> Bracketing:
    """One bracket pair per elbow off the anti-diagonal: the elbow at (i, j)
    opens before letter j and closes after letter n+2-i.  Each row is
    scanned for its elbows by ``index``, which ends at the anti-diagonal
    elbow, and ``Bracketing`` sorts the pairs."""
    n = zigzag_index(d)
    pairs: list[tuple[int, int]] = []
    for close, row in zip(range(n + 1, 0, -1), d.rows):
        last = len(row) - 1
        j = row.index(False)
        while j < last:
            pairs.append((j + 1, close))
            j = row.index(False, j + 1)
    return Bracketing(n + 1, tuple(pairs))


def reverse_bracketing(b: Bracketing) -> Bracketing:
    """Reverse the string together with its brackets (letters keep reading
    1 .. n+1; every pair (o, c) becomes (L+1-c, L+1-o))."""
    L = b.letters
    return Bracketing(L, tuple((L + 1 - c, L + 1 - o) for o, c in b.pairs))


def tree_of(b: Bracketing) -> BinaryTree:
    """The parse tree of a bracketing; leaves are the letters in order.

    A factor o..c of one letter is a leaf; a longer one must itself be a
    pair.  Its left child is o..e for the largest e < c with (o, e) a pair,
    or the letter o if there is none, and its right child is e+1..c.  Each
    node takes a different pair and a full binary tree on L letters has
    L - 1 nodes, so once the tree is built all L - 1 pairs are used, each
    exactly once.  The closes of each open are indexed once, in ascending
    order, so e is found by bisection.
    """
    closes: dict[int, list[int]] = {}
    for o, c in b.pairs:  # sorted, so each list of closes is too
        closes.setdefault(o, []).append(c)

    def factor(o: int, c: int) -> BinaryTree:
        if o == c:
            return BinaryTree.leaf(o)
        ends = closes.get(o, ())
        k = bisect_left(ends, c)
        if k == len(ends) or ends[k] != c:
            raise MalformedBracketingError(
                f"factor {o}..{c} is not enclosed by a bracket pair"
            )
        e = ends[k - 1] if k else o
        return BinaryTree.node(factor(o, e), factor(e + 1, c))

    return factor(1, b.letters)


def flip(t: BinaryTree) -> BinaryTree:
    """Mirror the tree left-to-right, then relabel leaves 1 .. n+1 in order.

    Involution; on bracketings it corresponds to reverse_bracketing.
    """

    def mirror(u: BinaryTree) -> BinaryTree:
        if u.is_leaf():
            return u
        return BinaryTree.node(mirror(u.right), mirror(u.left))

    labels = count(1)

    def relabel(u: BinaryTree) -> BinaryTree:
        if u.is_leaf():
            return BinaryTree.leaf(next(labels))
        return BinaryTree.node(relabel(u.left), relabel(u.right))

    return relabel(mirror(t))
