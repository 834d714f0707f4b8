"""Catalan numbers, Carlitz-Riordan q-Catalan polynomials, and the
partitions whose diagrams fit inside the staircase (n-1, n-2, ..., 1)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .poly import QPolynomial


@dataclass(frozen=True)
class Partition:
    """An integer partition: a weakly decreasing tuple of positive parts.

    Zero parts are never stored; the empty partition is ``Partition()``.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
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

    def part(self, k: int) -> int:
        """The k-th part, 1-indexed; zero past the last part."""
        return self.parts[k - 1] if 1 <= k <= len(self.parts) else 0

    def conjugate(self) -> Partition:
        """Transpose of the Young diagram, by column counting."""
        if not self.parts:
            return Partition()
        return Partition(
            tuple(
                sum(1 for p in self.parts if p >= j)
                for j in range(1, self.parts[0] + 1)
            )
        )

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

    It splits by parts, not by first return: ``sizes(k, bound)`` is the
    histogram of |tail| over the tails p_k, p_{k+1}, ... whose first part is
    at most bound, branching as ``enumerate_staircase_partitions`` does: the
    empty tail, or a part p <= min(bound, n - k) followed by a tail from
    k + 1 bounded by p.  No partition is built, and the memo lives for one
    call.  The largest size is |staircase(n)| = binom(n, 2), so the reversed
    histogram is the coefficient list.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    memo: dict[tuple[int, int], list[int]] = {}

    def sizes(k: int, bound: int) -> list[int]:
        bound = min(bound, n - k)
        key = (k, bound)
        if key not in memo:
            hist = [1]
            for p in range(1, bound + 1):
                tail = sizes(k + 1, p)
                hist.extend([0] * (p + len(tail) - len(hist)))
                for s, x in enumerate(tail, p):
                    hist[s] += x
            memo[key] = hist
        return memo[key]

    hist = sizes(1, n)
    del sizes  # sizes names itself; unbinding breaks the cycle holding the memo
    return QPolynomial(reversed(hist))


def enumerate_staircase_partitions(n: int) -> list[Partition]:
    """All partitions fitting inside the staircase of n, in lexicographic
    order on part sequences.  There are catalan(n) of them."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Partition] = []

    def grow(prefix: list[int], k: int, bound: int) -> None:
        out.append(Partition(tuple(prefix)))
        for p in range(1, min(bound, n - k) + 1):
            prefix.append(p)
            grow(prefix, k + 1, p)
            prefix.pop()

    grow([], 1, n)
    del grow  # grow names itself; unbinding breaks the cycle holding out
    return out
