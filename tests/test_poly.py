import hashlib
import operator
from collections import Counter
from itertools import permutations
from math import comb

import pytest

from pipedreams.catalan import catalan, q_catalan
from pipedreams.perm import longest_element, make_perm, zigzag
from pipedreams import poly
from pipedreams.poly import (
    QPolynomial,
    SparsePolynomial,
    _check_remainder,
    schubert_polynomial,
    schubert_specialization,
    schubert_via_divided_differences,
)
from pipedreams.rcgraph import count_rcgraphs, enumerate_rcgraphs


def schubert_via_last_descents(w):
    """The divided-difference chain from x^delta, the polynomial of the
    longest element, down a reduced word for w^{-1} w_0 that always takes
    the last descent; ``schubert_via_divided_differences`` starts instead
    from the monomial of a dominant permutation above w."""
    m = w.size
    f = SparsePolynomial({tuple(range(m - 1, 0, -1)): 1})
    u = list((w.inverse() * longest_element(m)).word)
    while descents := [i for i in range(1, m) if u[i - 1] > u[i]]:
        i = descents[-1]
        f = f.divided_difference(i)
        u[i - 1], u[i] = u[i], u[i - 1]
    return f


# x2^2 x3 + x1 x2 x3 + x1^2 x3 + x1 x2^2 + x1^2 x2
SCHUBERT_1432 = SparsePolynomial(
    {(0, 2, 1): 1, (1, 1, 1): 1, (2, 0, 1): 1, (1, 2): 1, (2, 1): 1}
)


class TestSparsePolynomial:
    def test_normalization(self):
        p = SparsePolynomial({(1, 0, 0): 2, (1,): 3})
        assert p.terms == {(1,): 5}
        assert SparsePolynomial({(1,): 0}).terms == {}

    def test_product(self):
        x2 = SparsePolynomial({(0, 1): 1})
        # (x1 + x2)(x1 - x2) = x1^2 - x2^2
        assert SparsePolynomial({(1,): 1, (0, 1): 1}) * SparsePolynomial(
            {(1,): 1, (0, 1): -1}
        ) == SparsePolynomial({(2,): 1, (0, 2): -1})
        assert SparsePolynomial({(): 1}) * x2 == x2

    def test_product_and_specialization_match_sympy(self):
        pytest.importorskip("hypothesis")
        sympy = pytest.importorskip("sympy")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        xs = sympy.symbols("x1:5")
        q = sympy.Symbol("q")
        # keys of 0..4 variables, so trailing zeros and unequal lengths occur
        exponents = st.lists(st.integers(0, 3), max_size=4).map(tuple)
        polys = st.dictionaries(exponents, st.integers(-3, 3), max_size=6)

        def expr(terms):
            return sum(
                (c * sympy.prod(x**e for x, e in zip(xs, exp)) for exp, c in terms.items()),
                sympy.Integer(0),
            )

        @settings(max_examples=100, deadline=None)
        @given(a=polys, b=polys)
        def check(a, b):
            product = sympy.Poly(sympy.expand(expr(a) * expr(b)), *xs)
            assert SparsePolynomial(a) * SparsePolynomial(b) == SparsePolynomial(
                {exp: int(c) for exp, c in product.terms()}
            )
            fq = expr(a).subs({x: q**k for k, x in enumerate(xs)}, simultaneous=True)
            coeffs = sympy.Poly(sympy.expand(fq), q).all_coeffs()[::-1]
            assert SparsePolynomial(a).principal_specialization() == QPolynomial(
                int(c) for c in coeffs
            )

        check()

    def test_divided_difference_of_symmetric_is_zero(self):
        # x1 x2 + x1 + x2
        sym = SparsePolynomial({(1, 1): 1, (1,): 1, (0, 1): 1})
        assert sym.divided_difference(1) == SparsePolynomial()

    def test_divided_difference_basic(self):
        # (x1^2 - x2^2) / (x1 - x2) = x1 + x2
        p = SparsePolynomial({(2,): 1})
        assert p.divided_difference(1) == SparsePolynomial({(1,): 1, (0, 1): 1})

    def test_str(self):
        assert str(SCHUBERT_1432) == (
            "x1^2*x2 + x1^2*x3 + x1*x2^2 + x1*x2*x3 + x2^2*x3"
        )
        assert str(SparsePolynomial()) == "0"
        assert str(SparsePolynomial({(): 1})) == "1"

    @pytest.mark.parametrize(
        "terms, text",
        [
            ({(1,): 1, (0, 1): -1, (): -2}, "x1 - x2 - 2"),
            ({(2,): -3}, "-3*x1^2"),
            ({(0, 0, 2): -1, (1, 1): 7}, "7*x1*x2 - x3^2"),
        ],
        ids=["signs-and-constant", "single-term", "leading-7"],
    )
    def test_str_negative_coefficients(self, terms, text):
        assert str(SparsePolynomial(terms)) == text


def assert_quotients_match_sympy(polys, variables):
    """The property that ``divided_difference(i)`` equals sympy's exact
    quotient (f - s_i f) / (x_i - x_{i+1}) on the term maps ``polys`` draws
    over x1 .. x_variables, checked on 100 examples."""
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    xs = sympy.symbols(f"x1:{variables + 1}")

    @settings(max_examples=100, deadline=None)
    @given(terms=polys, i=st.integers(1, variables - 1))
    def check(terms, i):
        f = sympy.Add(*(
            c * sympy.prod(x**e for x, e in zip(xs, exp)) for exp, c in terms.items()
        ))
        xi, xj = xs[i - 1], xs[i]
        swapped = f.subs({xi: xj, xj: xi}, simultaneous=True)
        exact = sympy.Poly(sympy.cancel((f - swapped) / (xi - xj)), *xs)
        expected = SparsePolynomial({exp: int(c) for exp, c in exact.terms()})
        assert SparsePolynomial(terms).divided_difference(i) == expected

    check()


class TestDividedDifferenceKernel:
    def test_matches_sympy_exact_quotient(self):
        pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        exponents = st.tuples(*[st.integers(0, 3)] * 4)
        assert_quotients_match_sympy(
            st.dictionaries(exponents, st.integers(-3, 3), max_size=6), 4)

    def test_matches_sympy_at_width_edges(self):
        # the remainder check cannot see a field that carries, so only the
        # width rule keeps these exact: the largest exponent sits at 2^k - 1
        # or 2^k, where a width of one bit less carries
        pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @st.composite
        def polys(draw):
            top = draw(st.sampled_from((1, 2, 3, 4, 7, 8, 15, 16)))
            exponents = st.tuples(*[st.integers(0, top)] * 3)
            terms = draw(st.dictionaries(exponents, st.integers(-3, 3), max_size=5))
            peak = [draw(st.integers(0, top)) for _ in range(3)]
            peak[draw(st.integers(0, 2))] = top
            terms[tuple(peak)] = draw(st.sampled_from((-2, -1, 1, 2)))
            return terms

        assert_quotients_match_sympy(polys(), 3)

    def test_cancelled_blocks_leave_no_zero_term(self):
        # the x1 x2 entries of the blocks of x1^3 and x1 x2^2 cancel
        result = SparsePolynomial({(3,): 1, (1, 2): 1}).divided_difference(1)
        assert result.terms == {(2,): 1, (0, 2): 1}

    @pytest.mark.parametrize(
        "terms, i, expected",
        [
            ({(0, 300): 1}, 1, {(299 - t, t): -1 for t in range(300)}),
            ({(1,): 1}, 3, {}),
            ({(0, 0, 0, 2): 1}, 3, {(0, 0, 1): -1, (0, 0, 0, 1): -1}),
            ({(0, 0, 2, 0, 1): 3}, 3, {(0, 0, 1, 0, 1): 3, (0, 0, 0, 1, 1): 3}),
            ({}, 1, {}),
            ({(): 5}, 2, {}),
        ],
        ids=[
            "wide-exponent",
            "key-shorter-than-i",
            "variable-i-plus-1-only",
            "key-longer-than-i-plus-1",
            "zero",
            "constant",
        ],
    )
    def test_edge_cases(self, terms, i, expected):
        result = SparsePolynomial(terms).divided_difference(i)
        assert result.terms == SparsePolynomial(expected).terms

    @pytest.mark.parametrize("i", (0, -1, -2))
    def test_index_below_one_raises_value_error(self, i):
        with pytest.raises(ValueError, match=f"i = {i}"):
            SparsePolynomial({(2, 1): 1}).divided_difference(i)

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
            assert schubert_via_divided_differences(w) == expected
            assert schubert_via_last_descents(w) == expected

        check()


# (f - s_i f, exact quotient, i) on keys packed REMAINDER_WIDTH bits per
# variable, x1 in the lowest field, so 0b01_00_10_01 is x1 x2^2 x4:
# x1^3 - x2^3 = (x1 - x2)(x1^2 + x1 x2 + x2^2) and
# x1 x2^2 x4 - x1 x3^2 x4 = (x2 - x3)(x1 x2 x4 + x1 x3 x4).
REMAINDER_WIDTH = 2
REMAINDER_CASES = [
    ({0b00_11: 1, 0b11_00: -1}, {0b00_10: 1, 0b01_01: 1, 0b10_00: 1}, 1),
    (
        {0b01_00_10_01: 1, 0b01_10_00_01: -1},
        {0b01_00_01_01: 1, 0b01_01_00_01: 1},
        2,
    ),
]


class TestRemainderCheck:
    @pytest.mark.parametrize("rest, quotient, i", REMAINDER_CASES)
    def test_exact_quotient_passes(self, rest, quotient, i):
        rest = dict(rest)
        _check_remainder(rest, quotient, i, REMAINDER_WIDTH)
        assert not any(rest.values())

    @pytest.mark.parametrize("rest, quotient, i", REMAINDER_CASES)
    @pytest.mark.parametrize("delta", (1, -1))
    def test_off_by_one_coefficient_raises(self, rest, quotient, i, delta):
        for key in quotient:
            wrong = dict(quotient)
            wrong[key] += delta
            with pytest.raises(ArithmeticError, match="remainder check"):
                _check_remainder(dict(rest), wrong, i, REMAINDER_WIDTH)


class TestQPolynomial:
    def test_normalization(self):
        assert QPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert QPolynomial((0,)).coeffs == ()

    def test_arithmetic(self):
        one_plus_q = QPolynomial((1, 1))
        assert one_plus_q * one_plus_q == QPolynomial((1, 2, 1))
        assert one_plus_q + QPolynomial((0, -1)) == QPolynomial.one()
        assert QPolynomial.q_power(3).coeffs == (0, 0, 0, 1)

    def test_str(self):
        assert str(QPolynomial((0, 1, 2, 1, 1))) == "q + 2*q^2 + q^3 + q^4"
        assert str(QPolynomial.zero()) == "0"
        assert str(QPolynomial.one()) == "1"

    @pytest.mark.parametrize(
        "coeffs, text",
        [((-1, 0, -1, 3), "-1 - q^2 + 3*q^3"), ((0, -2), "-2*q")],
        ids=["minus-one-constant", "single-term"],
    )
    def test_str_negative_coefficients(self, coeffs, text):
        assert str(QPolynomial(coeffs)) == text


class TestSchubert:
    def test_1432_frozen(self):
        assert schubert_polynomial(make_perm([1, 4, 3, 2])) == SCHUBERT_1432

    def test_identity(self):
        assert schubert_polynomial(make_perm([1, 2, 3])) == SparsePolynomial({(): 1})

    def test_embedding_invariance(self):
        expected = schubert_polynomial(make_perm([1, 4, 3, 2]))
        assert schubert_polynomial(make_perm([1, 4, 3, 2, 5])) == expected
        assert schubert_polynomial(make_perm([1, 4, 3, 2, 5, 6])) == expected


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
            assert schubert_via_divided_differences(w) == schubert_via_last_descents(w)

    def test_zigzag_family(self):
        for n in range(1, 6):
            w = zigzag(n)
            assert schubert_polynomial(w) == schubert_via_divided_differences(w)

    def test_no_zero_coefficient_up_to_s6(self):
        # the chain's steps keep entries that cancel; the route drops them
        for m in range(1, 7):
            for word in permutations(range(1, m + 1)):
                terms = schubert_via_divided_differences(make_perm(word)).terms
                assert all(terms.values()), word

    def test_dominant_start_is_the_code_monomial(self):
        """The start of ``schubert_via_divided_differences``: for v with a
        weakly decreasing Lehmer code, the x^delta chain gives x^c(v)
        (Macdonald (4.7)), and S_m has C_m such v."""
        for m in range(1, 8):
            dominant = 0
            for word in permutations(range(1, m + 1)):
                code = [sum(b < a for b in word[k + 1:]) for k, a in enumerate(word)]
                if all(map(operator.ge, code, code[1:])):
                    dominant += 1
                    assert schubert_via_last_descents(make_perm(word)) == (
                        SparsePolynomial({tuple(code): 1})
                    )
            assert dominant == catalan(m)

    @pytest.mark.parametrize(
        "max_n, descent, digest",
        [
            (
                7,
                "first",
                "676c09676c799db595fb4cf67675aec4a3f463254e7c5003298e4632c8aa2e07",
            ),
            (
                6,
                "last",
                "3decb1271bab657e1fa8c02b8a2739c39e2d856c382d7b01685cedf7556d8c08",
            ),
        ],
    )
    def test_printed_output_pinned(self, max_n, descent, digest):
        """sha256 of every printed result on S_1..S_max_n, in lexicographic order."""
        route = {
            "first": schubert_via_divided_differences,
            "last": schubert_via_last_descents,
        }[descent]
        h = hashlib.sha256()
        for n in range(1, max_n + 1):
            for word in permutations(range(1, n + 1)):
                w = make_perm(word)
                poly = route(w)
                h.update(f"{w}:{poly}\n".encode())
        assert h.hexdigest() == digest


class TestDividedDifferenceWork:
    """The route's work as a count of packed kernel calls: one per move of
    the climb from w to its dominant start.  From x^delta it was one per
    letter of w^{-1} w_0, 21 * 5040 - sum l(w) = 52,920 over S_7."""

    def test_kernel_calls_over_s7(self, monkeypatch):
        calls = 0
        kernel = poly._divided_difference

        def counted(terms, i, width):
            nonlocal calls
            calls += 1
            return kernel(terms, i, width)

        monkeypatch.setattr(poly, "_divided_difference", counted)
        for word in permutations(range(1, 8)):
            schubert_via_divided_differences(make_perm(word))
        assert calls == 18_936


class TestSpecialization:
    def test_1432(self):
        spec = SCHUBERT_1432.principal_specialization()
        assert spec == QPolynomial((0, 1, 2, 1, 1))

    def test_constant(self):
        assert SparsePolynomial({(): 1}).principal_specialization() == QPolynomial.one()

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


class TestRowTransferFolds:
    """The row-transfer folds against the listing they replace."""

    @staticmethod
    def assert_fold_matches_listing(w):
        assert count_rcgraphs(w) == len(enumerate_rcgraphs(w)), w
        assert schubert_specialization(w) == (
            schubert_polynomial(w).principal_specialization()
        ), w

    @pytest.mark.parametrize("m", range(1, 8))
    def test_every_permutation(self, m):
        for word in permutations(range(1, m + 1)):
            self.assert_fold_matches_listing(make_perm(word))

    @pytest.mark.parametrize("n", range(0, 11))
    def test_zigzag(self, n):
        self.assert_fold_matches_listing(zigzag(n))

    def test_random_permutations(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        words = st.integers(1, 7).flatmap(
            lambda m: st.permutations(range(1, m + 1))
        )

        @settings(max_examples=100, deadline=None)
        @given(word=words)
        def check(word):
            self.assert_fold_matches_listing(make_perm(word))

        check()

    def test_zigzag_count_is_catalan(self):
        for n in range(15):
            assert count_rcgraphs(zigzag(n)) == catalan(n), n

    @pytest.mark.parametrize("n", range(0, 14))
    def test_zigzag_specialization_is_q_catalan(self, n):
        # the packed coefficients past the listing's reach: a field too
        # narrow for the largest coefficient would carry into the next
        assert schubert_specialization(zigzag(n)) == (
            QPolynomial.q_power(comb(n, 3)) * q_catalan(n)
        ), n


class TestEvaluateAllOnes:
    def test_frozen(self):
        assert SCHUBERT_1432.evaluate_all_ones() == 5
        assert SparsePolynomial({(): 1}).evaluate_all_ones() == 1

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
