"""Schubert polynomials by two routes, and the polynomial types they return.

``SparsePolynomial`` holds a Schubert polynomial over x_1, x_2, ... with
arbitrary-precision integer coefficients, stored as a map from exponent
vectors to coefficients.  ``QPolynomial`` is a polynomial in the single
variable q, stored densely: principal specialisations and q-Catalan
polynomials.  Schubert polynomials come either from the pipe dream sum (one
monomial per filling) or, independently, from divided differences; the two
routes share only the result type, so they cross-check each other.

The divided differences start not at the staircase monomial of the longest
element but at x^c(v), c(v) the Lehmer code of a dominant (132-avoiding) v
above w (Macdonald, Notes on Schubert Polynomials, 1991, (4.7)).  The climb
from w to v moves (c_i, c_{i+1}) to (c_{i+1} + 1, c_i) at the first
c_i < c_{i+1}, one ascent at a time.

Divided differences run on packed keys: an exponent vector becomes one
Python int with a fixed ``width`` of bits per variable, x_k in bits
width*(k-1) up to width*k.  Swapping x_i and x_{i+1} in a key with exponents
a, b there is then the single addition key + (a - b) * step, with
step = 2^(width*i) - 2^(width*(i-1)), and each key of a quotient block is
one more step from the last.  One pass over the terms builds the quotient
Q and the difference f - s_i f, and ``_check_remainder`` confirms
f - s_i f = (x_i - x_{i+1}) Q coefficient by coefficient.  That catches a
sign or offset slip, not a carry: on packed ints the product telescopes to
f - s_i f whatever the fields hold.  Only the width rule prevents carries:
every exponent the kernel writes, quotient and remainder keys included, is
at most the largest exponent it reads, so its bit length is enough.
"""

from __future__ import annotations

from collections import Counter
from itertools import zip_longest
from math import comb
from typing import Iterable, Mapping

from .perm import Permutation, Value
from .rcgraph import enumerate_rcgraphs, fold_rcgraphs


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


def _pack(exp: Iterable[int], width: int) -> int:
    return sum(e << (width * k) for k, e in enumerate(exp))


def _unpack(key: int, width: int) -> tuple[int, ...]:
    """The stripped exponent tuple of a packed key."""
    mask = (1 << width) - 1
    exp = []
    while key:
        exp.append(key & mask)
        key >>= width
    return tuple(exp)


def _check_remainder(
    rest: dict[int, int], quotient: Mapping[int, int], i: int, width: int
) -> None:
    """Subtract (x_i - x_{i+1}) * quotient from ``rest`` in place and raise
    ArithmeticError unless every entry cancels.

    ``rest`` holds f - s_i f; both maps key packed exponent vectors of the
    given field width.  A carry between fields passes unseen.
    """
    low = 1 << (width * (i - 1))
    step = (low << width) - low
    for key, coef in quotient.items():
        key += low
        rest[key] = rest.get(key, 0) - coef
        key += step
        rest[key] = rest.get(key, 0) + coef
    if any(rest.values()):
        raise ArithmeticError("divided difference quotient failed the remainder check")


def _divided_difference(
    terms: Mapping[int, int], i: int, width: int
) -> dict[int, int]:
    """(f - s_i f) / (x_i - x_{i+1}) on packed keys, zero entries kept.

    A term x_i^a x_{i+1}^b with a != b pairs with its swap into an
    antisymmetric difference that divides termwise into the geometric block
    x_i^(a-1-t) x_{i+1}^(b+t), t < a - b, of the quotient (with the roles and
    the sign exchanged when a < b); the same pass enters +coef at the term
    and -coef at its swap into the remainder map that ``_check_remainder``
    then cancels against the quotient.  Zero terms are skipped; blocks
    that cancel leave zero entries, for the caller to drop.  Every written
    exponent is at most max(a, b), so ``width`` bits per field never carry.
    """
    shift = width * (i - 1)
    mask = (1 << width) - 1
    low = 1 << shift
    step = (low << width) - low
    quotient: dict[int, int] = {}
    rest: dict[int, int] = {}
    for key, coef in terms.items():
        fields = key >> shift
        d = (fields & mask) - (fields >> width & mask)
        if not (d and coef):
            continue
        swapped = key + d * step
        rest[key] = rest.get(key, 0) + coef
        rest[swapped] = rest.get(swapped, 0) - coef
        if d < 0:
            key, d, coef = swapped, -d, -coef
        key -= low
        for _ in range(d):
            quotient[key] = quotient.get(key, 0) + coef
            key += step
    _check_remainder(rest, quotient, i, width)
    return quotient


class QPolynomial(Value):
    """A polynomial in q with integer coefficients, dense and ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> QPolynomial:
        return cls()

    @classmethod
    def one(cls) -> QPolynomial:
        return cls((1,))

    @classmethod
    def q_power(cls, k: int) -> QPolynomial:
        return cls((0,) * k + (1,))

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

    def __mul__(self, other: QPolynomial) -> QPolynomial:
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPolynomial(tuple(out))

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


class SparsePolynomial(Value):
    """A Schubert polynomial as the two routes return it: a map from
    exponent tuples over x_1, x_2, ... to nonzero integer coefficients.

    It is a result type, not a general ring: it compares, prints,
    specialises x_i -> q^(i-1), evaluates at all ones and takes divided
    differences.  Keys carry no trailing zeros.  ``terms`` cannot be
    rebound; treat its map as immutable.  The constructor normalises any
    map of exponent tuples (``SparsePolynomial()`` is zero); the routes,
    whose keys are already stripped, wrap theirs with ``_trusted``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None) -> None:
        data: dict[tuple[int, ...], int] = {}
        for exp, coef in (terms or {}).items():
            key = _strip(exp)
            total = data.get(key, 0) + coef
            if total:
                data[key] = total
            else:
                data.pop(key, None)
        object.__setattr__(self, "terms", data)

    def __mul__(self, other: SparsePolynomial) -> SparsePolynomial:
        """Kept for the benchmark's traced run; the constructor normalises."""
        data: Counter[tuple[int, ...]] = Counter()
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                data[tuple(map(sum, zip_longest(e1, e2, fillvalue=0)))] += c1 * c2
        return SparsePolynomial(data)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def divided_difference(self, i: int) -> SparsePolynomial:
        """Apply (f - s_i f) / (x_i - x_{i+1}) with s_i swapping x_i, x_{i+1},
        as a chain of the one move i.  Raises ArithmeticError unless the
        quotient passes the remainder check, and ValueError for i < 1.
        """
        if i < 1:
            raise ValueError(f"divided difference needs i >= 1, got i = {i}")
        return _divided_difference_chain(self.terms, (i,))

    def principal_specialization(self) -> QPolynomial:
        """Substitute x_i -> q^(i-1); the oracle of ``schubert_specialization``."""
        degrees: Counter[int] = Counter()
        for exp, coef in self.terms.items():
            degrees[sum(e * k for k, e in enumerate(exp))] += coef
        return QPolynomial([degrees[d] for d in range(max(degrees, default=-1) + 1)])

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


def schubert_polynomial(w: Permutation) -> SparsePolynomial:
    """The pipe dream sum: one monomial per filling, x_i per cross in row i.

    ``monomial()`` returns stripped keys and every count is at least 1, so
    the counter is wrapped as it stands.
    """
    return SparsePolynomial._trusted(
        Counter(d.monomial() for d in enumerate_rcgraphs(w))
    )


def schubert_specialization(w: Permutation) -> QPolynomial:
    """The principal specialisation of the Schubert polynomial of w,
    x_i -> q^(i-1), without listing the fillings.

    ``fold_rcgraphs`` sums one packed int per state, the coefficient of q^k
    in bits width*k up to width*(k+1): a row r with c crosses contributes
    q^((r-1)c), so its edge shifts the state below by (r-1)c fields.
    Equal to ``schubert_polynomial(w).principal_specialization()``.

    No carry reaches w^-1.  Fix a path of rows from a state that reaches
    w^-1 to the top: each partial filling of degree k below the state
    extends along it to a distinct filling of w, so its coefficient of q^k
    is at most the count, at most comb(m(m-1)/2, l(w)), the placings of
    l(w) crosses above the anti-diagonal.  A state that does not reach
    w^-1 may carry, but no state above it reaches w^-1 either.
    """
    m = w.size
    width = comb(m * (m - 1) // 2, w.length).bit_length()
    return QPolynomial(_unpack(fold_rcgraphs(
        w, 1, lambda r, cells, x: x << width * (r - 1) * sum(cells)), width))


def schubert_via_divided_differences(w: Permutation) -> SparsePolynomial:
    """Independent route to the Schubert polynomial.

    Climbs from w to a dominant permutation v above it and walks back down
    by divided differences.  The climb edits the Lehmer code c of w, where
    c_i counts the j > i with w(j) < w(i): while some c_i < c_{i+1}, it
    takes the first such i, sets (c_i, c_{i+1}) to (c_{i+1} + 1, c_i) and
    steps back one place.  Since w(i) < w(i+1) exactly when c_i <= c_{i+1},
    each move is an ascent of the current permutation u, and the new code
    is that of u s_i, one longer.  The climb ends at a weakly decreasing
    code, the code of a dominant (132-avoiding) v, whose Schubert
    polynomial is the single monomial x^c(v) (Macdonald, Notes on Schubert
    Polynomials, 1991, (4.7)).  As d_i S_{u s_i} = S_u for an ascent i of
    u, the divided differences for the moves, taken in reverse order, lead
    from x^c(v) back to S_w.

    ``_divided_difference_chain`` runs the moves on x^c(v), whose largest
    exponent is the largest one any step reads or writes.
    """
    word = w.word
    m = len(word)
    code = [sum(b < a for b in word[k + 1:]) for k, a in enumerate(word)]
    moves = []
    i = 1  # code[:i] weakly decreases, so the first ascent is at i or later
    while i < m:
        if code[i - 1] < code[i]:
            code[i - 1], code[i] = code[i] + 1, code[i - 1]
            moves.append(i)
            i = max(i - 1, 1)
        else:
            i += 1
    return _divided_difference_chain({tuple(code): 1}, reversed(moves))


def _divided_difference_chain(
    terms: Mapping[tuple[int, ...], int], moves: Iterable[int]
) -> SparsePolynomial:
    """Apply d_i for each i of moves in turn to the polynomial with terms.

    The terms are packed once, with a field width of the bit length of
    their largest exponent, at least 1 as the identity's code is all zeros,
    and every step runs on packed keys.  No exponent of a quotient or a
    remainder exceeds the largest one of its dividend, so no field carries
    (unseen by the remainder check).  The entries that cancel to 0 are kept
    between steps and dropped once, at the unpack into stripped tuples.
    """
    width = max((e for exp in terms for e in exp), default=0).bit_length() or 1
    f = {_pack(exp, width): coef for exp, coef in terms.items()}
    for i in moves:
        f = _divided_difference(f, i, width)
    return SparsePolynomial._trusted(
        {_unpack(key, width): coef for key, coef in f.items() if coef}
    )
