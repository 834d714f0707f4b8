"""Catalan numbers, Carlitz-Riordan q-Catalan polynomials, and the
partitions whose diagrams fit inside the staircase (n-1, n-2, ..., 1)."""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .perm import Value
from .poly import QPolynomial, _unpack


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

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> Partition:
        """Wrap parts already known to be positive and weakly decreasing,
        skipping the checks of ``__init__``."""
        out = cls.__new__(cls)
        object.__setattr__(out, "parts", parts)
        return out

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


def q_catalan_via_partitions(n: int) -> QPolynomial:
    """The same polynomial as sum over staircase partitions p of
    q^(binom(n,2) - |p|); an independent route to q_catalan.

    One bottom-up transfer over the part index k = n-1, ..., 1.  Entry b of
    level k is the histogram of |tail| over the tails p_k, p_{k+1}, ... whose
    first part is at most b <= n - k: entry b - 1, plus part b followed by
    entry min(b, n - k - 1) of level k + 1, i.e. that histogram shifted by b.
    Only level k + 1 is kept while level k is built, and no partition is
    built.  The largest size is |staircase(n)| = binom(n, 2), so the reversed
    histogram is the coefficient list.

    Each histogram is one packed int, width bits per size.  No field
    carries: prefixing n-1, ..., n-k+1 to a tail from part k gives a
    distinct staircase partition, so each count is at most catalan(n).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    width = catalan(n).bit_length()
    level = [1]
    for k in range(n - 1, 0, -1):
        below, level = level, [1]
        for b in range(1, n - k + 1):
            level.append(level[-1] + (below[min(b, n - k - 1)] << width * b))
    return QPolynomial(reversed(_unpack(level[-1], width)))


def enumerate_staircase_partitions(n: int) -> list[Partition]:
    """All partitions fitting inside the staircase of n, in lexicographic
    order on part sequences.  There are catalan(n) of them.

    The same transfer as ``q_catalan_via_partitions``, on part tuples: level
    k lists the tails from part k in lexicographic order, and the tails whose
    first part is at most b are its first ``ends[b]`` entries, so each level
    is one list.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    tails, ends = [()], [1]
    for k in range(n - 1, 0, -1):
        level = [()]
        level_ends = [1]
        for b in range(1, n - k + 1):
            level.extend((b,) + t for t in tails[: ends[min(b, n - k - 1)]])
            level_ends.append(len(level))
        tails, ends = level, level_ends
    # a tail gets a part b >= 1 only before tails whose first part is <= b
    return [Partition._trusted(t) for t in tails]
