"""Exact polynomial arithmetic and Schubert polynomials by two routes.

``SparsePolynomial`` is a multivariate polynomial over x_1, x_2, ... with
arbitrary-precision integer coefficients, stored as a map from exponent
vectors to coefficients.  ``QPolynomial`` is its univariate counterpart in
the single variable q, stored densely.  Schubert polynomials come either
from the pipe dream sum (one monomial per filling) or, independently, from
divided differences applied to the staircase monomial of the longest
element; the two routes share only the raw arithmetic, so they cross-check
each other.

Each divided difference is exact by construction and checked anyway: one
fused pass over the terms builds the quotient Q and the difference
f - s_i f, and ``_check_remainder`` confirms f - s_i f = (x_i - x_{i+1}) Q
coefficient by coefficient, without building the divisor, the swapped
polynomial or a generic product.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .perm import Permutation, longest_element
from .rcgraph import enumerate_rcgraphs


def _strip(exp: Iterable[int]) -> tuple[int, ...]:
    exp = tuple(exp)
    end = len(exp)
    while end and exp[end - 1] == 0:
        end -= 1
    return exp[:end]


def _format(terms: Iterable[tuple[int, str]]) -> str:
    """Join (coefficient, factor) terms: a constant (empty factor) prints
    bare, a coefficient of 1 or -1 as a sign, and no terms as 0."""
    bits = [
        f"{c}" if not f else f if c == 1 else f"-{f}" if c == -1 else f"{c}*{f}"
        for c, f in terms
    ]
    return " + ".join(bits).replace("+ -", "- ") or "0"


def _check_remainder(
    rest: dict[tuple[int, ...], int],
    quotient: Mapping[tuple[int, ...], int],
    i: int,
) -> None:
    """Subtract (x_i - x_{i+1}) * quotient from ``rest`` in place and raise
    ArithmeticError unless every entry cancels.

    ``rest`` holds f - s_i f; both maps key exponent tuples padded to at
    least i + 1 entries, so shifting position i - 1 or i keeps them aligned.
    """
    ai, bi = i - 1, i
    for key, coef in quotient.items():
        head, a, b, tail = key[:ai], key[ai], key[bi], key[bi + 1:]
        times_xi = head + (a + 1, b) + tail
        rest[times_xi] = rest.get(times_xi, 0) - coef
        times_xj = head + (a, b + 1) + tail
        rest[times_xj] = rest.get(times_xj, 0) + coef
    if any(rest.values()):
        raise ArithmeticError("divided difference quotient failed the remainder check")


class QPolynomial:
    """A polynomial in q with integer coefficients, dense and ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> QPolynomial:
        return cls()

    @classmethod
    def one(cls) -> QPolynomial:
        return cls((1,))

    @classmethod
    def q_power(cls, k: int) -> QPolynomial:
        return cls((0,) * k + (1,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def at_one(self) -> int:
        """Value at q = 1, i.e. the coefficient sum."""
        return sum(self.coeffs)

    def __add__(self, other: QPolynomial) -> QPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPolynomial(
            tuple(x + (b[k] if k < len(b) else 0) for k, x in enumerate(a))
        )

    def __mul__(self, other: QPolynomial | int) -> QPolynomial:
        if isinstance(other, int):
            return QPolynomial(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPolynomial(tuple(out))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        return _format(
            (c, "" if k == 0 else "q" if k == 1 else f"q^{k}")
            for k, c in enumerate(self.coeffs)
            if c
        )

    def __repr__(self) -> str:
        return f"QPolynomial({self.coeffs!r})"


class SparsePolynomial:
    """Multivariate polynomial with exact integer coefficients.

    Terms map trailing-zero-normalised exponent tuples to nonzero
    coefficients; treat instances as immutable.
    """

    __slots__ = ("terms",)

    def __init__(
        self,
        terms: Mapping[tuple[int, ...], int]
        | Iterable[tuple[tuple[int, ...], int]]
        | None = None,
    ) -> None:
        data: dict[tuple[int, ...], int] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for exp, coef in items:
                if coef == 0:
                    continue
                key = _strip(exp)
                total = data.get(key, 0) + coef
                if total:
                    data[key] = total
                else:
                    del data[key]
        self.terms = data

    @classmethod
    def _trusted(cls, terms: dict[tuple[int, ...], int]) -> SparsePolynomial:
        """Wrap a map that is already stripped and free of zero coefficients."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> SparsePolynomial:
        return cls()

    @classmethod
    def one(cls) -> SparsePolynomial:
        return cls({(): 1})

    @classmethod
    def monomial(cls, exp: Iterable[int], coef: int = 1) -> SparsePolynomial:
        return cls({_strip(exp): coef})

    @classmethod
    def variable(cls, i: int) -> SparsePolynomial:
        """The variable x_i, 1-indexed."""
        return cls.monomial((0,) * (i - 1) + (1,))

    def __add__(self, other: SparsePolynomial) -> SparsePolynomial:
        data = dict(self.terms)
        for exp, coef in other.terms.items():
            total = data.get(exp, 0) + coef
            if total:
                data[exp] = total
            else:
                del data[exp]
        return SparsePolynomial._trusted(data)

    def __neg__(self) -> SparsePolynomial:
        return SparsePolynomial._trusted(
            {exp: -coef for exp, coef in self.terms.items()}
        )

    def __sub__(self, other: SparsePolynomial) -> SparsePolynomial:
        return self + (-other)

    def __mul__(self, other: SparsePolynomial | int) -> SparsePolynomial:
        if isinstance(other, int):
            return SparsePolynomial(
                {exp: coef * other for exp, coef in self.terms.items()}
            )
        data: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                long, short = (e1, e2) if len(e1) >= len(e2) else (e2, e1)
                exp = _strip(
                    tuple(
                        a + (short[k] if k < len(short) else 0)
                        for k, a in enumerate(long)
                    )
                )
                total = data.get(exp, 0) + c1 * c2
                if total:
                    data[exp] = total
                else:
                    del data[exp]
        return SparsePolynomial._trusted(data)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SparsePolynomial) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def divided_difference(self, i: int) -> SparsePolynomial:
        """Apply (f - s_i f) / (x_i - x_{i+1}) with s_i swapping x_i, x_{i+1}.

        One pass over the terms does the division and the check.  A term
        x_i^a x_{i+1}^b with a != b pairs with its swap into an
        antisymmetric difference that divides termwise into a geometric
        block of the quotient Q; the same pass enters +coef at the term and
        -coef at its swap into a remainder map, which then holds f - s_i f.
        ``_check_remainder`` subtracts (x_i - x_{i+1}) Q from that map and
        raises ArithmeticError unless it cancels to zero, so an inexact
        result can never escape.  Exponent tuples are padded to length
        i + 1 inside the pass; only the returned quotient is stripped.
        """
        ai, bi = i - 1, i
        pad = (0,) * (i + 1)
        quotient: dict[tuple[int, ...], int] = {}
        rest: dict[tuple[int, ...], int] = {}
        for exp, coef in self.terms.items():
            if len(exp) <= bi:
                exp = exp + pad[len(exp):]
            a, b = exp[ai], exp[bi]
            if a == b:
                continue
            head, tail = exp[:ai], exp[bi + 1:]
            rest[exp] = rest.get(exp, 0) + coef
            swapped = head + (b, a) + tail
            rest[swapped] = rest.get(swapped, 0) - coef
            if a < b:
                a, b, coef = b, a, -coef
            for t in range(a - b):
                key = head + (a - 1 - t, b + t) + tail
                quotient[key] = quotient.get(key, 0) + coef
        _check_remainder(rest, quotient, i)
        return SparsePolynomial._trusted(
            {key if key[-1] else _strip(key): c for key, c in quotient.items() if c}
        )

    def principal_specialization(self) -> QPolynomial:
        """Substitute x_i -> q^(i-1)."""
        if not self.terms:
            return QPolynomial.zero()
        coeffs = [0] * (
            max(
                sum(e * k for k, e in enumerate(exp))
                for exp in self.terms
            )
            + 1
        )
        for exp, coef in self.terms.items():
            coeffs[sum(e * k for k, e in enumerate(exp))] += coef
        return QPolynomial(tuple(coeffs))

    def evaluate_all_ones(self) -> int:
        """Value at x_1 = x_2 = ... = 1, i.e. the coefficient sum."""
        return sum(self.terms.values())

    def __str__(self) -> str:
        return _format(
            (
                self.terms[exp],
                "*".join(
                    f"x{k}" + (f"^{e}" if e > 1 else "")
                    for k, e in enumerate(exp, start=1)
                    if e
                ),
            )
            for exp in sorted(self.terms, reverse=True)
        )

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.terms!r})"


def schubert_polynomial(w: Permutation) -> SparsePolynomial:
    """The pipe dream sum: one monomial per filling, x_i per cross in row i."""
    return SparsePolynomial(Counter(d.monomial() for d in enumerate_rcgraphs(w)))


def schubert_via_divided_differences(
    w: Permutation, descent: str = "first"
) -> SparsePolynomial:
    """Independent route to the Schubert polynomial.

    Starts from the staircase monomial x_1^(m-1) x_2^(m-2) ... (the
    polynomial of the longest element) and walks down along a reduced word
    for w^{-1} w_0, one divided difference per letter.  The operators
    satisfy the braid relations, so any descent-picking strategy gives the
    same answer; ``descent`` ("first" or "last") exists so tests can confirm
    that.
    """
    if descent not in ("first", "last"):
        raise ValueError(f"unknown descent strategy {descent!r}")
    m = w.size
    f = SparsePolynomial.monomial(tuple(range(m - 1, 0, -1)))
    u = list((w.inverse() * longest_element(m)).word)
    while True:
        positions = [i for i in range(1, m) if u[i - 1] > u[i]]
        if not positions:
            break
        i = positions[0] if descent == "first" else positions[-1]
        f = f.divided_difference(i)
        u[i - 1], u[i] = u[i], u[i - 1]
    return f
