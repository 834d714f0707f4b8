"""Multiplicity of a Schubert variety at the identity point, through the
pipe dream count of the complementary permutation, together with the
q-Catalan specialization report for the zigzag family."""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .catalan import q_catalan
from .perm import Permutation, local_equations_condition, longest_element, zigzag
from .poly import QPolynomial, schubert_specialization
from .rcgraph import count_rcgraphs, turn_row_shift


class ConditionNotSatisfiedError(ValueError):
    """The degree formula is only justified for permutations w where every
    (i, j) with i + j > m has (w0 w)^{-1}(i) <= j or (w0 w)(j) <= i."""


def schubert_multiplicity_at_identity(w: Permutation) -> int:
    """Multiplicity of the Schubert variety of w at the identity flag.

    For permutations in the guarded class the local equations at that point
    are exactly the matrix Schubert equations, whose degree is the value of
    the Schubert polynomial of w0*w at all ones: its number of pipe dreams,
    which ``count_rcgraphs`` gives without listing them.  Permutations
    outside the class are refused rather than approximated.
    """
    if not local_equations_condition(w):
        raise ConditionNotSatisfiedError(
            f"permutation {w} fails the local-equations condition "
            "((w0 w)^{-1}(i) <= j or (w0 w)(j) <= i for all i + j > m), "
            "so the degree formula does not apply"
        )
    return count_rcgraphs(longest_element(w.size) * w)


class SpecializationReport(NamedTuple):
    """Outcome of checking the principal specialization of the zigzag
    Schubert polynomial against q^binom(n,3) times the q-Catalan polynomial.

    ``recurrence_ok`` additionally confirms the turn-row recurrence: the
    specialization decomposes as a sum over the turn row k of
    q^e(k) F_{k-1} F_{n-k} with e(k) = ``turn_row_shift(n, k)``.
    """

    n: int
    lhs: QPolynomial
    rhs: QPolynomial
    equal: bool
    count: int
    recurrence_ok: bool


@lru_cache(maxsize=None)
def _zigzag_specialization(k: int) -> QPolynomial:
    return schubert_specialization(zigzag(k))


def verify_catalan_specialization(n: int) -> SpecializationReport:
    """Build the specialization report for the zigzag of n."""
    if n < 1:
        raise ValueError("n must be positive")
    lhs = _zigzag_specialization(n)
    rhs = QPolynomial.q_power(comb(n, 3)) * q_catalan(n)

    recurrence = QPolynomial.zero()
    for k in range(1, n + 1):
        recurrence = recurrence + (
            QPolynomial.q_power(turn_row_shift(n, k))
            * _zigzag_specialization(k - 1)
            * _zigzag_specialization(n - k)
        )

    return SpecializationReport(
        n=n,
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        count=lhs.at_one(),
        recurrence_ok=recurrence == lhs,
    )
