from itertools import permutations

import pytest

from pipedreams.catalan import catalan
from pipedreams.multiplicity import (
    ConditionNotSatisfiedError,
    schubert_multiplicity_at_identity,
    verify_catalan_specialization,
)
from pipedreams.perm import dominant_singular, local_equations_condition, make_perm


@pytest.mark.parametrize("n", range(1, 10))
def test_catalan_specialization(n):
    report = verify_catalan_specialization(n)
    assert report.n == n
    assert report.equal
    assert report.recurrence_ok
    assert report.count == catalan(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_multiplicity_of_dominant_singular_is_catalan(n):
    assert schubert_multiplicity_at_identity(dominant_singular(n)) == catalan(n)


def test_condition_failure_is_refused():
    w = next(
        make_perm(word)
        for word in permutations(range(1, 5))
        if not local_equations_condition(make_perm(word))
    )
    with pytest.raises(ConditionNotSatisfiedError, match="local-equations condition"):
        schubert_multiplicity_at_identity(w)


@pytest.mark.parametrize("n", [0, -1])
def test_n_below_one(n):
    with pytest.raises(ValueError, match="n must be positive"):
        verify_catalan_specialization(n)
    with pytest.raises(ValueError, match="n must be positive"):
        dominant_singular(n)
