import inspect
import sys
from collections import Counter
from math import comb

import pytest

from pipedreams.catalan import (
    Partition,
    catalan,
    enumerate_staircase_partitions,
    fits_staircase,
    fold_staircase_partitions,
    q_catalan,
    q_catalan_via_partitions,
    staircase,
)
from pipedreams.perm import zigzag
from pipedreams.poly import QPolynomial
from pipedreams.rcgraph import bottom_rcgraph

from oracles import conjugate, part


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_conjugate_involution(self):
        for n in range(7):
            for p in enumerate_staircase_partitions(n):
                assert conjugate(conjugate(p)) == p

    def test_conjugate_frozen(self):
        assert conjugate(Partition((2, 1))) == Partition((2, 1))
        assert conjugate(Partition((3,))) == Partition((1, 1, 1))
        assert conjugate(Partition()) == Partition()

    def test_part_indexing(self):
        p = Partition((3, 1))
        assert (part(p, 1), part(p, 2), part(p, 3)) == (3, 1, 0)
        assert p.size == 4

    def test_staircase(self):
        assert staircase(4) == Partition((3, 2, 1))
        assert staircase(1) == Partition()

    def test_json(self):
        assert Partition((2, 1)).to_json() == [2, 1]
        assert Partition().to_json() == []


class TestCatalan:
    def test_frozen_values(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(7) == 429
        assert catalan(12) == 208012


class TestQCatalan:
    def test_base(self):
        assert q_catalan(0) == QPolynomial.one()

    def test_n2(self):
        assert q_catalan(2) == QPolynomial((1, 1))

    def test_n3(self):
        assert q_catalan(3) == QPolynomial((1, 2, 1, 1))

    def test_cross_method(self):
        for n in range(31):
            assert q_catalan(n) == q_catalan_via_partitions(n)

    def test_partition_transfer_is_the_size_histogram(self):
        for n in range(11):
            top = comb(n, 2)
            sizes = Counter(top - p.size for p in enumerate_staircase_partitions(n))
            assert q_catalan_via_partitions(n).coeffs == tuple(
                sizes[k] for k in range(top + 1)
            )

    @pytest.mark.parametrize("n", [-1, -5])
    def test_negative_n_raises(self, n):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            q_catalan_via_partitions(n)

    def test_cold_cache_keeps_the_stack_flat(self):
        # With a cold cache a recursive fill would nest about n frames deep;
        # the bottom-up fill nests at most two.
        expected = q_catalan_via_partitions(8)
        limit = sys.getrecursionlimit()
        q_catalan.cache_clear()
        sys.setrecursionlimit(len(inspect.stack()) + 20)
        try:
            top = q_catalan(30)
        finally:
            sys.setrecursionlimit(limit)
        assert top.at_one() == catalan(30)
        assert q_catalan(8) == expected

    def test_staircase_kernels_keep_the_stack_flat(self):
        # On Python 3.11, which counts C calls too, the transfer needs a
        # margin of 12; a recursion over the parts needs 20 for the listing
        # of 9 and more than 25 for the q-route of 40.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 16)
        try:
            top = q_catalan_via_partitions(40)
            listed = enumerate_staircase_partitions(9)
        finally:
            sys.setrecursionlimit(limit)
        assert top.at_one() == catalan(40)
        assert len(listed) == catalan(9)

    def test_value_at_one(self):
        for n in range(13):
            assert q_catalan(n).at_one() == catalan(n)

    def test_degree_and_constant_term(self):
        for n in range(11):
            p = q_catalan(n)
            assert len(p.coeffs) - 1 == comb(n, 2)
            assert p.coeffs[0] == 1


class TestStaircasePartitions:
    def test_n3_frozen(self):
        got = enumerate_staircase_partitions(3)
        assert got == [
            Partition(),
            Partition((1,)),
            Partition((1, 1)),
            Partition((2,)),
            Partition((2, 1)),
        ]

    def test_n1(self):
        assert enumerate_staircase_partitions(1) == [Partition()]

    def test_cardinalities(self):
        for n in range(9):
            got = enumerate_staircase_partitions(n)
            assert len(got) == catalan(n)
            assert len(set(got)) == len(got)
            assert all(fits_staircase(p, n) for p in got)

    def test_lexicographic_order(self):
        for n in range(7):
            parts = [p.parts for p in enumerate_staircase_partitions(n)]
            assert parts == sorted(parts)

    def test_fold_counts_the_catalan_numbers(self):
        for n in range(13):
            assert fold_staircase_partitions(n, 1, lambda b, x: x) == catalan(n)


@pytest.mark.parametrize("build", [
    zigzag, bottom_rcgraph, catalan, q_catalan, enumerate_staircase_partitions,
    lambda n: fold_staircase_partitions(n, 1, lambda b, x: x),
], ids=["zigzag", "bottom_rcgraph", "catalan", "q_catalan",
        "enumerate_staircase_partitions", "fold_staircase_partitions"])
def test_negative_n_is_refused(build):
    with pytest.raises(ValueError) as exc:
        build(-1)
    assert str(exc.value) == "n must be nonnegative"
