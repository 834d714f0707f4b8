import copy
import pickle
from itertools import permutations
from math import comb

import pytest

from pipedreams.bijections import Bracketing, DyckPath
from pipedreams.catalan import Partition, q_catalan
from pipedreams.eg import Tableau
from pipedreams.multiplicity import SpecializationReport
from pipedreams.poly import QPolynomial, SparsePolynomial
from pipedreams.rcgraph import RcGraph, enumerate_rcgraphs
from pipedreams.verify import CheckResult
from pipedreams.perm import (
    NotAPermutationError,
    Permutation,
    dominant_singular,
    local_equations_condition,
    longest_element,
    make_perm,
    zigzag,
)


def inversions(word):
    """Independent double-loop oracle for the length statistic."""
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def condition_oracle(word):
    """Brute-force restatement of the local-equations predicate."""
    m = len(word)
    w0w = [m + 1 - word[i] for i in range(m)]
    inv = [0] * m
    for i, v in enumerate(w0w, start=1):
        inv[v - 1] = i
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i + j > m and inv[i - 1] > j and w0w[j - 1] > i:
                return False
    return True


class TestMakePerm:
    def test_round_trip(self):
        w = make_perm([1, 4, 3, 2])
        assert w.word == (1, 4, 3, 2)
        assert w.size == 4

    def test_singleton(self):
        assert make_perm([1]).word == (1,)

    def test_duplicate_entry(self):
        with pytest.raises(NotAPermutationError):
            make_perm([2, 2, 3])

    def test_out_of_range_entry(self):
        with pytest.raises(NotAPermutationError):
            make_perm([1, 3])

    def test_empty(self):
        with pytest.raises(NotAPermutationError):
            make_perm([])

    def test_string_round_trip(self):
        w = Permutation.from_string("1,4,3,2")
        assert str(w) == "1,4,3,2"
        with pytest.raises(NotAPermutationError):
            Permutation.from_string("1,a,2")


class TestLength:
    def test_frozen_examples(self):
        assert make_perm([1, 4, 3, 2]).length == 3
        assert make_perm([1, 2, 3, 4, 5]).length == 0
        assert make_perm([2, 1]).length == 1

    def test_against_oracle_s4(self):
        for word in permutations(range(1, 5)):
            assert make_perm(word).length == inversions(word)

    def test_inverse_preserves_length_s4(self):
        for word in permutations(range(1, 5)):
            w = make_perm(word)
            assert w.length == w.inverse().length


class TestZigzag:
    def test_n3(self):
        assert zigzag(3).word == (1, 4, 3, 2)

    def test_n1(self):
        assert zigzag(1).word == (1, 2)

    def test_n4_length(self):
        w = zigzag(4)
        assert w.word == (1, 5, 4, 3, 2)
        assert w.length == comb(4, 2)

    def test_self_inverse(self):
        for n in range(7):
            assert zigzag(n).inverse() == zigzag(n)

    def test_length_closed_form(self):
        for n in range(8):
            assert zigzag(n).length == comb(n, 2)


class TestDominantSingular:
    def test_n2(self):
        assert dominant_singular(2).word == (4, 2, 3, 1)

    def test_n1(self):
        assert dominant_singular(1).word == (3, 2, 1)

    def test_length_matches_brute_force(self):
        for n in range(1, 7):
            w = dominant_singular(n)
            assert w.length == inversions(w.word)

    def test_longest_times_it_is_embedded_zigzag(self):
        for n in range(1, 7):
            lhs = longest_element(n + 2) * dominant_singular(n)
            assert lhs == make_perm(zigzag(n).word + (n + 2,))


class TestGroupOperations:
    def test_composition_convention(self):
        u = make_perm([2, 3, 1])
        w = make_perm([3, 1, 2])
        # (u * w)(i) = u(w(i))
        assert (u * w).word == tuple(u(w(i)) for i in (1, 2, 3))

    def test_inverse_product_is_identity_s4(self):
        for word in permutations(range(1, 5)):
            w = make_perm(word)
            assert w * w.inverse() == make_perm([1, 2, 3, 4])

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            make_perm([1, 2, 3]) * make_perm([1, 2, 3, 4])

    def test_longest_element(self):
        assert longest_element(4).word == (4, 3, 2, 1)


class TestLocalEquationsCondition:
    def test_dominant_singular_family(self):
        for n in range(1, 6):
            assert local_equations_condition(dominant_singular(n))

    def test_identity_s2(self):
        w = make_perm([1, 2])
        assert condition_oracle(w.word) is True
        assert local_equations_condition(w) is True

    def test_s3_reference_table(self):
        expected = {
            (1, 2, 3): True,
            (1, 3, 2): True,
            (2, 1, 3): True,
            (2, 3, 1): True,
            (3, 1, 2): False,
            (3, 2, 1): True,
        }
        for word, value in expected.items():
            assert local_equations_condition(make_perm(word)) is value
            assert condition_oracle(word) is value

    def test_matches_oracle_on_s4(self):
        for word in permutations(range(1, 5)):
            assert local_equations_condition(make_perm(word)) == condition_oracle(word)


# Each value class built by keyword, with its field tuple and its repr.
VALUES = [
    (Permutation(word=(3, 1, 2)), ((3, 1, 2),), "Permutation(word=(3, 1, 2))"),
    (Partition(parts=(2, 1)), ((2, 1),), "Partition(parts=(2, 1))"),
    (Partition(), ((),), "Partition(parts=())"),
    (DyckPath(steps="UURR"), ("UURR",), "DyckPath(steps='UURR')"),
    (Bracketing(letters=3, pairs=((2, 3), (1, 3))), (3, ((1, 3), (2, 3))),
     "Bracketing(letters=3, pairs=((1, 3), (2, 3)))"),
    (Tableau(rows=((1, 2), (3,))), (((1, 2), (3,)),), "Tableau(rows=((1, 2), (3,)))"),
    (Tableau(), ((),), "Tableau(rows=())"),
    (RcGraph(rows=((True, False), (False,))), (((True, False), (False,)),),
     "RcGraph(rows=((True, False), (False,)))"),
    (SpecializationReport(n=1, lhs=QPolynomial((1,)), rhs=QPolynomial((1,)),
                          equal=True, count=1, recurrence_ok=True),
     (1, QPolynomial((1,)), QPolynomial((1,)), True, 1, True),
     "SpecializationReport(n=1, lhs=QPolynomial((1,)), rhs=QPolynomial((1,)), "
     "equal=True, count=1, recurrence_ok=True)"),
    (CheckResult(ident="1", name="a", suite="prop1", passed=True, detail="d"),
     ("1", "a", "prop1", True, "d"),
     "CheckResult(ident='1', name='a', suite='prop1', passed=True, detail='d')"),
    (QPolynomial(coeffs=(1, 2)), ((1, 2),), "QPolynomial((1, 2))"),
]
VALUE_IDS = [f"{type(x).__name__}-{i}" for i, (x, _, _) in enumerate(VALUES)]


class TestValueClasses:
    """The value classes keep the semantics of the frozen dataclasses they
    were: equality and hash on the field tuple, the dataclass repr, and no
    assignment or deletion."""

    @pytest.mark.parametrize("value, fields, text", VALUES, ids=VALUE_IDS)
    def test_hash_equality_and_repr(self, value, fields, text):
        assert hash(value) == hash(fields)
        assert repr(value) == text
        twin = type(value)(*fields)
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)

    @pytest.mark.parametrize("value, fields, text", VALUES, ids=VALUE_IDS)
    def test_assignment_and_deletion_raise(self, value, fields, text):
        for name in (*type(value)._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text

    @pytest.mark.parametrize("value, fields, text", VALUES, ids=VALUE_IDS)
    def test_copy_and_pickle_round_trip(self, value, fields, text):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and repr(twin) == text

    def test_other_classes_and_field_tuples_are_unequal(self):
        assert Partition((1,)) != Tableau(((1,),))
        assert Partition((1,)) != ((1,),)
        assert Permutation((2, 1)) != Permutation((1, 2))
        assert Bracketing(2, ((1, 2),)) != Bracketing(3, ((1, 3), (2, 3)))

    def test_polynomial_fields_are_read_only(self):
        # q_catalan is cached: a rebound coeffs would reach every later caller
        before = q_catalan(5).coeffs
        for value, name in ((q_catalan(5), "coeffs"),
                            (SparsePolynomial({(1,): 1}), "terms")):
            with pytest.raises(AttributeError):
                setattr(value, name, (9,))
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert q_catalan(5).coeffs == before

    def test_rcgraph_exit_word_is_not_a_field(self):
        listed = enumerate_rcgraphs(zigzag(3))[0]
        assert listed._word is not None
        plain = RcGraph(listed.rows)
        assert plain._word is None
        assert listed == plain and hash(listed) == hash((listed.rows,))
        assert repr(listed) == f"RcGraph(rows={listed.rows!r})"

    def test_length_is_cached(self):
        w = Permutation((3, 1, 2))
        assert not hasattr(w, "__dict__")
        with pytest.raises(AttributeError):
            w._length
        assert w.length == 2
        assert w._length == 2
        assert repr(w) == "Permutation(word=(3, 1, 2))"
