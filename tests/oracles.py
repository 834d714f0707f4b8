"""Test oracles: reference code that no command, check or benchmark runs.

Each is an independent or earlier form of a library computation, kept
here so the tests can compare the library against it.
"""

from pipedreams.catalan import Partition
from pipedreams.rcgraph import ChuteMoveError, RcGraph, inverse_chute_move


def conjugate(p):
    """Transpose of the Young diagram of p, by column counting."""
    if not p.parts:
        return Partition()
    return Partition(tuple(
        sum(1 for part in p.parts if part >= j) for j in range(1, p.parts[0] + 1)
    ))


def part(p, k):
    """The k-th part of p, 1-indexed; zero past the last part."""
    return p.parts[k - 1] if 1 <= k <= len(p.parts) else 0


def elbows(d):
    """Elbow cells of d off the anti-diagonal, in row-major order."""
    return tuple(
        (i, j)
        for i, row in enumerate(d.rows, start=1)
        for j, c in enumerate(row[:-1], start=1)
        if not c
    )


def chute_closure(start):
    """All fillings reachable from ``start`` by inverse chute moves, in the
    canonical order.  By Bergeron-Billey ("RC-graphs and Schubert
    polynomials", Experiment. Math. 2, 1993) the closure of the bottom
    pipe dream is every pipe dream of its permutation."""
    seen = {start}
    frontier = [start]
    while frontier:
        d = frontier.pop()
        for i, j in elbows(d):
            for i2 in range(i + 1, d.m + 1):
                for j2 in range(1, j):
                    try:
                        nxt = inverse_chute_move(d, (i, j), (i2, j2))
                    except ChuteMoveError:
                        continue
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
    return sorted(seen, key=RcGraph.crosses)


def helper_inverse_chute_move(d, src, dst):
    """``inverse_chute_move`` as written on per-cell helpers, each of which
    tests that its cell lies in the staircase before reading it."""

    def in_grid(i, j):
        return i >= 1 and j >= 1 and i + j <= d.m + 1

    def is_cross(i, j):
        return in_grid(i, j) and d.rows[i - 1][j - 1]

    def is_elbow(i, j):
        return in_grid(i, j) and not d.rows[i - 1][j - 1]

    i, j = src
    i2, j2 = dst
    if not is_elbow(i, j):
        raise ChuteMoveError(0, f"source cell {src} is not an elbow")
    if not (i2 > i and j2 < j):
        raise ChuteMoveError(
            0, f"destination {dst} is not strictly below and left of {src}"
        )
    if not all(is_cross(k, j) for k in range(i + 1, i2)) or not is_elbow(i2, j):
        raise ChuteMoveError(
            1,
            f"condition 1 fails: column {j} must be crosses strictly between "
            f"rows {i} and {i2} with an elbow at ({i2}, {j})",
        )
    if not all(is_cross(i, k) for k in range(j2 + 1, j)) or not is_elbow(i, j2):
        raise ChuteMoveError(
            2,
            f"condition 2 fails: row {i} must be crosses strictly between "
            f"columns {j2} and {j} with an elbow at ({i}, {j2})",
        )
    if not all(is_cross(k, j2) for k in range(i + 1, i2 + 1)):
        raise ChuteMoveError(
            3,
            f"condition 3 fails: column {j2} must be crosses from row {i + 1} "
            f"to row {i2}",
        )
    if not all(is_cross(i2, k) for k in range(j2, j)):
        raise ChuteMoveError(
            4,
            f"condition 4 fails: row {i2} must be crosses from column {j2} "
            f"to column {j - 1}",
        )
    rows = [list(r) for r in d.rows]
    rows[i - 1][j - 1] = True
    rows[i2 - 1][j2 - 1] = False
    return RcGraph(tuple(tuple(r) for r in rows))
