import json
from collections import Counter
from itertools import permutations

import pytest

from pipedreams.perm import identity, longest_element, make_perm, zigzag, embed
from pipedreams.poly import (
    QPolynomial,
    SparsePolynomial,
    _check_remainder,
    schubert_polynomial,
    schubert_via_divided_differences,
)
from pipedreams.rcgraph import enumerate_rcgraphs

# x2^2 x3 + x1 x2 x3 + x1^2 x3 + x1 x2^2 + x1^2 x2
SCHUBERT_1432 = SparsePolynomial(
    {(0, 2, 1): 1, (1, 1, 1): 1, (2, 0, 1): 1, (1, 2): 1, (2, 1): 1}
)


class TestSparsePolynomial:
    def test_normalization(self):
        p = SparsePolynomial({(1, 0, 0): 2, (1,): 3})
        assert p.terms == {(1,): 5}
        assert SparsePolynomial({(1,): 0}).terms == {}

    def test_arithmetic(self):
        x1 = SparsePolynomial.variable(1)
        x2 = SparsePolynomial.variable(2)
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
        assert (x1 - x1) == SparsePolynomial.zero()
        assert SparsePolynomial.one() * x2 == x2

    def test_swap_variables(self):
        p = SparsePolynomial({(2, 1): 1})
        assert p.swap_variables(1) == SparsePolynomial({(1, 2): 1})
        assert p.swap_variables(2) == SparsePolynomial({(2, 0, 1): 1})

    def test_divided_difference_of_symmetric_is_zero(self):
        x1 = SparsePolynomial.variable(1)
        x2 = SparsePolynomial.variable(2)
        sym = x1 * x2 + x1 + x2
        assert sym.divided_difference(1) == SparsePolynomial.zero()

    def test_divided_difference_basic(self):
        # (x1^2 - x2^2) / (x1 - x2) = x1 + x2
        p = SparsePolynomial({(2,): 1})
        assert p.divided_difference(1) == SparsePolynomial({(1,): 1, (0, 1): 1})

    def test_str(self):
        assert str(SCHUBERT_1432) == (
            "x1^2*x2 + x1^2*x3 + x1*x2^2 + x1*x2*x3 + x2^2*x3"
        )
        assert str(SparsePolynomial.zero()) == "0"
        assert str(SparsePolynomial.one()) == "1"


class TestDividedDifferenceKernel:
    def test_matches_sympy_exact_quotient(self):
        pytest.importorskip("hypothesis")
        sympy = pytest.importorskip("sympy")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        xs = sympy.symbols("x1:5")
        exponents = st.tuples(*[st.integers(0, 3)] * 4)
        polys = st.dictionaries(exponents, st.integers(-3, 3), max_size=6)

        @settings(max_examples=100, deadline=None)
        @given(terms=polys, i=st.integers(1, 3))
        def check(terms, i):
            f = sum(
                (c * sympy.prod(x**e for x, e in zip(xs, exp)) for exp, c in terms.items()),
                sympy.Integer(0),
            )
            xi, xj = xs[i - 1], xs[i]
            swapped = f.subs({xi: xj, xj: xi}, simultaneous=True)
            exact = sympy.Poly(sympy.cancel((f - swapped) / (xi - xj)), *xs)
            expected = SparsePolynomial(
                {exp: int(c) for exp, c in exact.terms()}
            )
            assert SparsePolynomial(terms).divided_difference(i) == expected

        check()

    def test_pipe_dream_sum_matches_both_descent_strategies(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        words = st.integers(1, 6).flatmap(
            lambda m: st.permutations(range(1, m + 1))
        )

        @settings(max_examples=150, deadline=None)
        @given(word=words)
        def check(word):
            w = make_perm(word)
            expected = schubert_polynomial(w)
            assert schubert_via_divided_differences(w, "first") == expected
            assert schubert_via_divided_differences(w, "last") == expected

        check()


# (f - s_i f, exact quotient, i), exponent tuples padded to length >= i + 1:
# x1^3 - x2^3 = (x1 - x2)(x1^2 + x1 x2 + x2^2) and
# x1 x2^2 x4 - x1 x3^2 x4 = (x2 - x3)(x1 x2 x4 + x1 x3 x4).
REMAINDER_CASES = [
    ({(3, 0): 1, (0, 3): -1}, {(2, 0): 1, (1, 1): 1, (0, 2): 1}, 1),
    ({(1, 2, 0, 1): 1, (1, 0, 2, 1): -1}, {(1, 1, 0, 1): 1, (1, 0, 1, 1): 1}, 2),
]


class TestRemainderCheck:
    @pytest.mark.parametrize("rest, quotient, i", REMAINDER_CASES)
    def test_exact_quotient_passes(self, rest, quotient, i):
        rest = dict(rest)
        _check_remainder(rest, quotient, i)
        assert not any(rest.values())

    @pytest.mark.parametrize("rest, quotient, i", REMAINDER_CASES)
    @pytest.mark.parametrize("delta", (1, -1))
    def test_off_by_one_coefficient_raises(self, rest, quotient, i, delta):
        for key in quotient:
            wrong = dict(quotient)
            wrong[key] += delta
            with pytest.raises(ArithmeticError, match="remainder check"):
                _check_remainder(dict(rest), wrong, i)


class TestQPolynomial:
    def test_normalization(self):
        assert QPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert QPolynomial((0,)).coeffs == ()

    def test_arithmetic(self):
        one_plus_q = QPolynomial((1, 1))
        assert one_plus_q * one_plus_q == QPolynomial((1, 2, 1))
        assert one_plus_q + QPolynomial((0, -1)) == QPolynomial.one()
        assert QPolynomial.q_power(3).degree == 3
        assert (2 * one_plus_q).at_one() == 4

    def test_str(self):
        assert str(QPolynomial((0, 1, 2, 1, 1))) == "q + 2*q^2 + q^3 + q^4"
        assert str(QPolynomial.zero()) == "0"
        assert str(QPolynomial.one()) == "1"


class TestSchubert:
    def test_1432_frozen(self):
        assert schubert_polynomial(make_perm([1, 4, 3, 2])) == SCHUBERT_1432

    def test_identity(self):
        assert schubert_polynomial(identity(3)) == SparsePolynomial.one()

    def test_embedding_invariance(self):
        w = make_perm([1, 4, 3, 2])
        assert schubert_polynomial(embed(w, 5)) == schubert_polynomial(w)
        assert schubert_polynomial(embed(w, 6)) == schubert_polynomial(w)


class TestOracle:
    def test_longest_element_base_case(self):
        assert schubert_via_divided_differences(longest_element(3)) == (
            SparsePolynomial({(2, 1): 1})
        )

    def test_1432(self):
        w = make_perm([1, 4, 3, 2])
        assert schubert_via_divided_differences(w) == SCHUBERT_1432

    def test_s4_exhaustive(self):
        for word in permutations(range(1, 5)):
            w = make_perm(word)
            assert schubert_polynomial(w) == schubert_via_divided_differences(w)

    def test_descent_strategies_agree_s4(self):
        for word in permutations(range(1, 5)):
            w = make_perm(word)
            assert schubert_via_divided_differences(
                w, "first"
            ) == schubert_via_divided_differences(w, "last")

    def test_zigzag_family(self):
        for n in range(1, 6):
            w = zigzag(n)
            assert schubert_polynomial(w) == schubert_via_divided_differences(w)


class TestSpecialization:
    def test_1432(self):
        spec = SCHUBERT_1432.principal_specialization()
        assert spec == QPolynomial((0, 1, 2, 1, 1))

    def test_constant(self):
        assert SparsePolynomial.one().principal_specialization() == QPolynomial.one()

    def test_single_monomial(self):
        # x1^2 x2 -> q
        assert SparsePolynomial({(2, 1): 1}).principal_specialization() == (
            QPolynomial((0, 1))
        )

    def test_exponents_are_weights(self):
        for word in permutations(range(1, 5)):
            w = make_perm(word)
            spec = schubert_polynomial(w).principal_specialization()
            weights = Counter(d.weight() for d in enumerate_rcgraphs(w))
            expected = tuple(weights.get(k, 0) for k in range(max(weights) + 1))
            assert spec.coeffs == expected


class TestEvaluateAllOnes:
    def test_frozen(self):
        assert SCHUBERT_1432.evaluate_all_ones() == 5
        assert SparsePolynomial.one().evaluate_all_ones() == 1

    def test_zigzag5(self):
        assert schubert_polynomial(zigzag(5)).evaluate_all_ones() == 42

    def test_counts_fillings_s4(self):
        for word in permutations(range(1, 5)):
            w = make_perm(word)
            assert schubert_polynomial(w).evaluate_all_ones() == len(
                enumerate_rcgraphs(w)
            )

    def test_positive_coefficients_s4(self):
        for word in permutations(range(1, 5)):
            poly = schubert_polynomial(make_perm(word))
            assert all(c > 0 for c in poly.terms.values())


class TestJson:
    def test_round_trip_and_determinism(self):
        data = SCHUBERT_1432.to_json_dict()
        assert SparsePolynomial.from_json_dict(data) == SCHUBERT_1432
        assert data["terms"][0] == {"exp": [0, 2, 1], "coef": "1"}
        assert json.dumps(data) == json.dumps(SCHUBERT_1432.to_json_dict())

    def test_q_polynomial_json(self):
        p = QPolynomial((0, 1, 2, 1, 1))
        assert p.to_json() == ["0", "1", "2", "1", "1"]
        assert QPolynomial.from_json(p.to_json()) == p
