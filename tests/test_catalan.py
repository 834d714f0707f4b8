import inspect
import sys
from math import comb

import pytest

from pipedreams.catalan import (
    Partition,
    catalan,
    enumerate_staircase_partitions,
    fits_staircase,
    q_catalan,
    q_catalan_via_partitions,
    staircase,
)
from pipedreams.poly import QPolynomial


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_conjugate_involution(self):
        for n in range(7):
            for p in enumerate_staircase_partitions(n):
                assert p.conjugate().conjugate() == p

    def test_conjugate_frozen(self):
        assert Partition((2, 1)).conjugate() == Partition((2, 1))
        assert Partition((3,)).conjugate() == Partition((1, 1, 1))
        assert Partition().conjugate() == Partition()

    def test_part_indexing(self):
        p = Partition((3, 1))
        assert (p.part(1), p.part(2), p.part(3)) == (3, 1, 0)
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
        for n in range(11):
            assert q_catalan(n) == q_catalan_via_partitions(n)

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

    def test_value_at_one(self):
        for n in range(13):
            assert q_catalan(n).at_one() == catalan(n)

    def test_degree_and_constant_term(self):
        for n in range(11):
            p = q_catalan(n)
            assert p.degree == comb(n, 2)
            assert p.coefficient(0) == 1


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
