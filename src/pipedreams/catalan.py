"""Catalan numbers, Carlitz-Riordan q-Catalan polynomials, and the
partitions whose diagrams fit inside the staircase (n-1, n-2, ..., 1)."""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Callable, TypeVar

from .perm import Value
from .poly import QPolynomial, _unpack

T = TypeVar("T")


class Partition(Value):
    """An integer partition: a weakly decreasing tuple of positive parts.

    Zero parts are never stored; the empty partition is ``Partition()``.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "parts", parts)
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise ValueError(
                    f"parts {list(self.parts)} are not weakly decreasing"
                )
        if self.parts and self.parts[-1] <= 0:
            raise ValueError("parts must be positive")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def to_json(self) -> list[int]:
        return list(self.parts)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def staircase(n: int) -> Partition:
    """The partition (n-1, n-2, ..., 1)."""
    return Partition(tuple(range(n - 1, 0, -1)))


def fits_staircase(p: Partition, n: int) -> bool:
    """Whether p_k <= n - k for every k, i.e. the diagram fits inside
    the staircase of n."""
    return all(part <= n - k for k, part in enumerate(p.parts, start=1))


def catalan(n: int) -> int:
    """Exact Catalan number, binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def q_catalan(n: int) -> QPolynomial:
    """Carlitz-Riordan q-Catalan polynomial, by the defining recurrence
    C_n(q) = sum_k q^k C_{n-k-1}(q) C_k(q) with C_0(q) = 1.

    The smaller values are filled into the cache bottom-up first, so every
    inner call is answered from the cache or recurses one level only; the
    stack depth stays flat for any n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return QPolynomial.one()
    for k in range(n):
        q_catalan(k)
    total = QPolynomial.zero()
    for k in range(n):
        total = total + QPolynomial.q_power(k) * q_catalan(n - k - 1) * q_catalan(k)
    return total


def fold_staircase_partitions(n: int, leaf: T, prefix: Callable[[int, T], T]) -> T:
    """Fold a weight over the partitions inside the staircase of n by one
    transfer up the part index k = n-1, ..., 1, as ``fold_rcgraphs`` folds
    over pipe dreams.  Entry b of level k weighs the tails p_k, p_{k+1}, ...
    whose first part is at most b <= n - k: entry b - 1 plus prefix(b, x), x
    entry min(b, n - k - 1) of level k + 1, the tails that may follow part b.
    The empty tail weighs ``leaf``; entry n - 1 of level 1 weighs them all."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    level = [leaf]
    for k in range(n - 1, 0, -1):
        below, level = level, [leaf]
        for b in range(1, n - k + 1):
            level.append(level[-1] + prefix(b, below[min(b, n - k - 1)]))
    return level[-1]


def q_catalan_via_partitions(n: int) -> QPolynomial:
    """The same polynomial as sum over staircase partitions p of
    q^(binom(n,2) - |p|); an independent route to q_catalan.

    ``fold_staircase_partitions`` weighs a tail by the histogram of its size,
    one packed int of width bits per size, so part b shifts it by b fields;
    no partition is built.  The largest size is |staircase(n)| = binom(n, 2), so the
    reversed histogram is the coefficient list.  No field carries:
    prefixing n-1, ..., n-k+1 to a tail from part k gives a distinct
    staircase partition, so each count is at most catalan(n).
    """
    width = catalan(n).bit_length()
    histogram = fold_staircase_partitions(n, 1, lambda b, x: x << width * b)
    return QPolynomial(reversed(_unpack(histogram, width)))


def enumerate_staircase_partitions(n: int) -> list[Partition]:
    """All partitions fitting inside the staircase of n, in lexicographic
    order on part sequences.  There are catalan(n) of them.

    ``fold_staircase_partitions`` weighs a tail by the list of the tails it
    stands for, in order: entry b - 1, those with first part below b, leads.
    """
    # a tail gets a part b >= 1 only before tails whose first part is <= b
    return [Partition._trusted(t) for t in fold_staircase_partitions(
        n, [()], lambda b, tails: [(b,) + t for t in tails])]
