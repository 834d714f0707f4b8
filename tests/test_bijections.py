from collections import Counter
from itertools import combinations_with_replacement, count, permutations
from math import comb

import pytest

from pipedreams.bijections import (
    Bracketing,
    DyckPath,
    MalformedBracketingError,
    MalformedPathError,
    PartitionBoundsError,
    bracketing_of,
    dyck_to_partition,
    partition_of,
    partition_to_dyck,
    rcgraph_of,
    reverse_bracketing,
    tree_of,
)
from pipedreams.catalan import (
    Partition,
    catalan,
    enumerate_staircase_partitions,
    fits_staircase,
    staircase,
)
from pipedreams.eg import Tableau, _recording_partition, eg_insert, eg_word
from pipedreams.perm import make_perm, zigzag
from pipedreams.rcgraph import (
    NotZigzagError,
    RcGraph,
    bottom_rcgraph,
    enumerate_rcgraphs,
    inverse_chute_move,
    zigzag_index,
)

from oracles import conjugate, elbows, part

# (crosses, partition, bracketing) for the five fillings of 1,4,3,2
FIGURE_BIJECTIONS = [
    (((2, 1), (2, 2), (3, 1)), (), "(1(2(3 4)))"),
    (((1, 3), (2, 1), (3, 1)), (1,), "(1((2 3)4))"),
    (((1, 2), (1, 3), (3, 1)), (2,), "((1(2 3))4)"),
    (((1, 2), (2, 1), (2, 2)), (1, 1), "((1 2)(3 4))"),
    (((1, 2), (1, 3), (2, 2)), (2, 1), "(((1 2)3)4)"),
]


def path_area_above_diagonal(path):
    """Cells strictly above the diagonal and below the path (oracle)."""
    area = 0
    x = y = 0
    for step in path.steps:
        if step == "U":
            y += 1
        else:
            area += y - x - 1
            x += 1
    return area


class TestPartitionOf:
    def test_bottom_is_empty(self):
        for n in range(1, 7):
            assert partition_of(bottom_rcgraph(n)) == Partition()

    @pytest.mark.parametrize("crosses,parts,_", FIGURE_BIJECTIONS)
    def test_figure_values(self, crosses, parts, _):
        assert partition_of(RcGraph.from_crosses(4, crosses)) == Partition(parts)

    def test_lowest_weight_filling_gives_staircase(self):
        d = RcGraph.from_crosses(4, [(1, 2), (1, 3), (2, 2)])
        assert d.weight() == 1
        assert partition_of(d) == staircase(3)

    def test_weight_law(self):
        for n in range(1, 7):
            for d in enumerate_rcgraphs(zigzag(n)):
                assert d.weight() == comb(n + 1, 3) - partition_of(d).size

    def test_rejects_non_zigzag(self):
        d = enumerate_rcgraphs(make_perm([2, 1, 3]))[0]
        with pytest.raises(NotZigzagError):
            partition_of(d)

    def test_bijective_onto_staircase_set(self):
        for n in range(1, 8):
            images = {partition_of(d) for d in enumerate_rcgraphs(zigzag(n))}
            assert len(images) == catalan(n)
            assert images == set(enumerate_staircase_partitions(n))


def ref_partition_of(d):
    """The elbow-list-and-conjugate partition_of that the suffix sums
    replaced (oracle)."""
    zigzag_index(d)
    conj = Partition(tuple(sorted((i - 1 for i, _ in elbows(d) if i > 1),
                                  reverse=True)))
    return conjugate(conj)


def outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


class TestPartitionOfOracle:
    def test_every_zigzag_filling(self):
        for n in range(1, 9):
            for d in enumerate_rcgraphs(zigzag(n)):
                assert partition_of(d) == ref_partition_of(d)

    def test_every_filling_of_small_symmetric_groups(self):
        for m in range(1, 7):
            for w in permutations(range(1, m + 1)):
                for d in enumerate_rcgraphs(make_perm(w)):
                    assert outcome(partition_of, d) == outcome(ref_partition_of, d)


class TestRcgraphOf:
    def test_empty_gives_bottom(self):
        for n in range(1, 7):
            assert rcgraph_of(Partition(), n) == bottom_rcgraph(n)

    def test_round_trips_n4(self):
        for p in enumerate_staircase_partitions(4):
            assert partition_of(rcgraph_of(p, 4)) == p

    def test_round_trips_both_ways(self):
        for n in range(1, 7):
            for d in enumerate_rcgraphs(zigzag(n)):
                assert rcgraph_of(partition_of(d), n) == d
            for p in enumerate_staircase_partitions(n):
                assert partition_of(rcgraph_of(p, n)) == p

    def test_out_of_bounds(self):
        with pytest.raises(PartitionBoundsError):
            rcgraph_of(Partition((3, 1)), 3)

    def test_matches_chute_walk_reference(self):
        for n in range(0, 9):
            for p in enumerate_staircase_partitions(n):
                assert rcgraph_of(p, n) == chute_walk(p, n), (p, n)

    def test_negative_n(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            rcgraph_of(Partition(), -1)


def chute_walk(p, n):
    """Reference inverse: start from the bottom filling and, for each part k
    of the conjugate, largest first, carry the rightmost cross of row k+1
    that is not under a top-row cross up to row one by an inverse chute
    move."""
    d = bottom_rcgraph(n)
    for k in conjugate(p).parts:
        row, top = k + 1, d.rows[0]
        src_col = max(c for c in range(1, n + 1 - k)
                      if d.rows[row - 1][c - 1] and not top[c - 1])
        dst_col = min(c for c in range(src_col + 1, n + 2) if not top[c - 1])
        d = inverse_chute_move(d, (1, dst_col), (row, src_col))
    return d


class TestDyck:
    def test_empty_partition_n2(self):
        assert partition_to_dyck(Partition(), 2).steps == "UURR"

    def test_staircase_is_sawtooth(self):
        for n in range(1, 7):
            assert partition_to_dyck(staircase(n), n).steps == "UR" * n

    def test_round_trips_n5(self):
        paths = set()
        for p in enumerate_staircase_partitions(5):
            path = partition_to_dyck(p, 5)
            paths.add(path.steps)
            assert dyck_to_partition(path) == p
        assert len(paths) == catalan(5)

    def test_area_transport(self):
        for n in range(1, 7):
            for p in enumerate_staircase_partitions(n):
                path = partition_to_dyck(p, n)
                assert path_area_above_diagonal(path) == comb(n, 2) - p.size

    def test_out_of_bounds(self):
        with pytest.raises(PartitionBoundsError):
            partition_to_dyck(Partition((2,)), 2)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            partition_to_dyck(Partition(), -1)

    def test_malformed_paths(self):
        with pytest.raises(MalformedPathError):
            DyckPath("RU")
        with pytest.raises(MalformedPathError):
            DyckPath("UUR")
        with pytest.raises(MalformedPathError):
            DyckPath("UX")


class TestBracketing:
    def test_bottom_is_right_comb(self):
        assert str(bracketing_of(bottom_rcgraph(3))) == "(1(2(3 4)))"
        assert str(bracketing_of(bottom_rcgraph(5))) == "(1(2(3(4(5 6)))))"

    def test_n1(self):
        assert str(bracketing_of(bottom_rcgraph(1))) == "(1 2)"

    @pytest.mark.parametrize("crosses,_,text", FIGURE_BIJECTIONS)
    def test_figure_values(self, crosses, _, text):
        assert str(bracketing_of(RcGraph.from_crosses(4, crosses))) == text

    def test_all_distinct_and_well_formed_n5(self):
        seen = set()
        for d in enumerate_rcgraphs(zigzag(5)):
            b = bracketing_of(d)  # construction validates matching + full parse
            assert len(b.pairs) == 5
            seen.add(str(b))
        assert len(seen) == catalan(5)

    def test_malformed_rejected(self):
        with pytest.raises(MalformedBracketingError):
            Bracketing(3, ((1, 1), (2, 3)))  # ((1) (2 3)) is not a binary product
        with pytest.raises(MalformedBracketingError):
            Bracketing(3, ((1, 2),))  # wrong number of pairs
        with pytest.raises(MalformedBracketingError):
            Bracketing(4, ((1, 2), (2, 3), (1, 4)))  # overlapping pairs

    def test_reversal_is_involution(self):
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                b = bracketing_of(d)
                assert reverse_bracketing(reverse_bracketing(b)) == b

    def test_transpose_is_reversal(self):
        for n in range(1, 7):
            for d in enumerate_rcgraphs(zigzag(n)):
                assert str(bracketing_of(d.transpose())) == str(
                    reverse_bracketing(bracketing_of(d))
                )


# -- reference implementations ------------------------------------------------
#
# The cell-by-cell and keyed-sort kernels that the row-level ones replaced,
# kept verbatim apart from returning plain pair tuples where they built a
# ``Bracketing``.  The library must give the same result, or raise the same
# exception type with the same message, on every input below.


def ref_rcgraph_of(p, n):
    if not fits_staircase(p, n):
        raise PartitionBoundsError(
            f"{p} does not fit inside the staircase of {n}"
        )
    if n < 0:
        raise ValueError("n must be nonnegative")
    rows = [[True] * (n - k) + [False] for k in range(n + 1)]
    opens = []
    for c in range(1, n + 2):
        opens.append(c)
        k = n + 1 - c
        closes = part(p, k) - part(p, k + 1) if k else n - part(p, 1)
        for _ in range(closes):
            opens.pop()
            rows[k][opens[-1] - 1] = False
    return RcGraph(tuple(map(tuple, rows)))


def ref_bracketing_pairs(letters, pairs):
    """The checks of ``Bracketing.__init__``; returns the sorted pairs."""
    if letters < 1:
        raise MalformedBracketingError("need at least one letter")
    if len(pairs) != letters - 1:
        raise MalformedBracketingError(
            f"{len(pairs)} pairs cannot fully bracket {letters} letters"
        )
    for o, c in pairs:
        if not (1 <= o <= c <= letters):
            raise MalformedBracketingError(f"pair ({o}, {c}) is out of range")
        if o == c:
            raise MalformedBracketingError(
                f"pair ({o}, {c}) encloses a single letter"
            )
    enclosing = []
    for o, c in sorted(pairs, key=lambda pair: (pair[0], -pair[1])):
        while enclosing and enclosing[-1][1] < o:
            enclosing.pop()
        if enclosing and enclosing[-1] == (o, c):
            raise MalformedBracketingError(f"pair ({o}, {c}) appears twice")
        if enclosing and enclosing[-1][1] < c:
            raise MalformedBracketingError(
                f"pairs {enclosing[-1]} and ({o}, {c}) overlap"
            )
        enclosing.append((o, c))
    return tuple(sorted(pairs))


def ref_bracketing_of(d):
    n = zigzag_index(d)
    return ref_bracketing_pairs(
        n + 1, tuple(sorted((j, n + 2 - i) for i, j in elbows(d)))
    )


def ref_reverse_pairs(b):
    L = b.letters
    return ref_bracketing_pairs(
        L, tuple(sorted((L + 1 - c, L + 1 - o) for o, c in b.pairs))
    )


def pairs_of(f, *args):
    """The outcome of f, with a ``Bracketing`` result replaced by its pairs."""
    kind, result = outcome(f, *args)
    return (kind, result.pairs) if kind == "ok" else (kind, result)


def input_orders(pairs, letters):
    """The multiset in sorted order, reversed and rotated, and in every
    order for up to four letters."""
    if letters <= 4:
        return set(permutations(pairs))
    return {pairs, pairs[::-1], pairs[1:] + pairs[:1]}


class TestAgainstCellKernelOracle:
    def test_rcgraph_of_on_every_staircase_partition(self):
        for n in range(0, 9):
            for p in enumerate_staircase_partitions(n):
                assert rcgraph_of(p, n) == ref_rcgraph_of(p, n), (p, n)

    def test_rcgraph_of_on_partitions_that_do_not_fit(self):
        tried = 0
        for n in range(-1, 8):
            for p in enumerate_staircase_partitions(n + 2):
                if fits_staircase(p, n) and n >= 0:
                    continue
                assert outcome(rcgraph_of, p, n) == outcome(ref_rcgraph_of, p, n)
                tried += 1
        assert tried > 0

    @pytest.mark.parametrize("letters", range(1, 6))
    def test_bracketing_on_every_multiset_of_pairs(self, letters):
        # every in-range slot, and three that are out of range or backwards
        slots = [(o, c) for o in range(1, letters + 1) for c in range(o, letters + 1)]
        slots += [(0, 1), (1, letters + 1), (2, 1)]
        accepted = set()
        for multiset in combinations_with_replacement(slots, letters - 1):
            for pairs in input_orders(multiset, letters):
                got = pairs_of(Bracketing, letters, pairs)
                assert got == outcome(ref_bracketing_pairs, letters, pairs), pairs
                if got[0] == "ok":
                    accepted.add(multiset)
                    b = Bracketing(letters, pairs)
                    assert pairs_of(reverse_bracketing, b) == outcome(ref_reverse_pairs, b)
        assert len(accepted) == catalan(letters - 1)

    def test_bracketing_with_a_wrong_number_of_pairs(self):
        for letters, pairs in [(3, ()), (3, ((1, 2),)), (2, ((1, 2), (1, 2))),
                               (1, ((1, 2),)), (0, ()), (-1, ())]:
            assert pairs_of(Bracketing, letters, pairs) == outcome(
                ref_bracketing_pairs, letters, pairs
            )

    def test_bracketing_of_every_zigzag_filling(self):
        for n in range(0, 9):
            for d in enumerate_rcgraphs(zigzag(n)):
                assert bracketing_of(d).pairs == ref_bracketing_of(d), d

    def test_bracketing_of_every_filling_of_small_symmetric_groups(self):
        for m in range(1, 6):
            for w in permutations(range(1, m + 1)):
                for d in enumerate_rcgraphs(make_perm(w)):
                    assert pairs_of(bracketing_of, d) == outcome(ref_bracketing_of, d)


def mirror_relabel(t):
    """Mirror a nested-list tree left to right, then number its leaves
    1, 2, ... in order (oracle for reversing a bracketing, independent of
    the library): the mirror visits each right child first."""
    labels = count(1)

    def mirror(u):
        if isinstance(u, int):
            return next(labels)
        left, right = u
        return [mirror(right), mirror(left)]

    return mirror(t)


def leaves(t):
    if isinstance(t, int):
        return [t]
    return leaves(t[0]) + leaves(t[1])


class TestTrees:
    def test_parse_and_nested_form(self):
        assert tree_of(bracketing_of(bottom_rcgraph(3))) == [1, [2, [3, 4]]]
        assert tree_of(Bracketing(1, ())) == 1

    def test_flip_three_leaves(self):
        right = tree_of(Bracketing(3, ((1, 3), (2, 3))))  # (1(2 3))
        left = tree_of(Bracketing(3, ((1, 2), (1, 3))))  # ((1 2)3)
        assert (right, left) == ([1, [2, 3]], [[1, 2], 3])
        assert mirror_relabel(right) == left

    def test_flip_involution(self):
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                t = tree_of(bracketing_of(d))
                assert mirror_relabel(mirror_relabel(t)) == t

    def test_flip_matches_reversal(self):
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                b = bracketing_of(d)
                assert tree_of(reverse_bracketing(b)) == mirror_relabel(tree_of(b))

    def test_leaves_in_order(self):
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                assert leaves(tree_of(bracketing_of(d))) == list(range(1, n + 2))

    def test_str_renders_the_tree(self):
        for n in range(0, 10):
            for d in enumerate_rcgraphs(zigzag(n)):
                b = bracketing_of(d)
                assert str(b) == render_nested(tree_of(b)), d


def full_binary_trees(lo, hi):
    """Every full binary tree on the leaves lo..hi in nested form, by
    recursive splitting (oracle, independent of the library)."""
    if lo == hi:
        return [lo]
    return [
        [left, right]
        for split_at in range(lo, hi)
        for left in full_binary_trees(lo, split_at)
        for right in full_binary_trees(split_at + 1, hi)
    ]


def nested_intervals(t):
    """(first leaf, last leaf, intervals of the internal nodes) of a tree."""
    if isinstance(t, int):
        return t, t, []
    lo, _, left = nested_intervals(t[0])
    _, hi, right = nested_intervals(t[1])
    return lo, hi, [(lo, hi)] + left + right


def render_nested(t):
    """Brackets around every internal node, a space only between two
    sibling leaves."""
    if isinstance(t, int):
        return str(t)
    left, right = t
    gap = " " if isinstance(left, int) and isinstance(right, int) else ""
    return f"({render_nested(left)}{gap}{render_nested(right)})"


@pytest.mark.parametrize("letters", range(1, 6))
def test_bracketing_accepts_exactly_tree_interval_sets(letters):
    trees = {}
    for t in full_binary_trees(1, letters):
        trees[tuple(sorted(nested_intervals(t)[2]))] = t
    assert len(trees) == catalan(letters - 1)
    slots = [(o, c) for o in range(1, letters + 1) for c in range(o, letters + 1)]
    accepted = 0
    for pairs in combinations_with_replacement(slots, letters - 1):
        expected = trees.get(tuple(sorted(pairs)))
        if expected is None:
            with pytest.raises(MalformedBracketingError):
                Bracketing(letters, pairs)
            continue
        b = Bracketing(letters, pairs)
        accepted += 1
        assert tree_of(b) == expected
        assert str(b) == render_nested(expected)
    assert accepted == len(trees)


@pytest.mark.parametrize("letters", range(1, 9))
def test_bracketing_str_is_injective(letters):
    """Two valid bracketings are == exactly when their str are equal, so a
    check may compare bracketings by == where it used to compare strings."""
    trees = full_binary_trees(1, letters)
    built = [Bracketing(letters, tuple(nested_intervals(t)[2])) for t in trees]
    rebuilt = [Bracketing(letters, tuple(reversed(nested_intervals(t)[2])))
               for t in trees]
    assert len(built) == catalan(letters - 1)
    assert built == rebuilt
    assert [str(b) for b in built] == [str(b) for b in rebuilt]
    assert len(set(built)) == len({str(b) for b in built}) == len(built)


def assert_validates(x):
    """x equals its own fields run through its class's checking constructor."""
    if isinstance(x, Partition):
        assert x == Partition(x.parts), x
    elif isinstance(x, DyckPath):
        assert x == DyckPath(x.steps), x
    elif isinstance(x, Bracketing):
        assert x == Bracketing(x.letters, x.pairs), x
    else:
        assert x == Tableau(x.rows), x


class TestTrustedAgainstValidated:
    """Each value built unchecked, because the code that builds it proves it
    valid, passes the checks it skipped."""

    def test_every_zigzag_filling_and_staircase_partition(self):
        for n in range(0, 10):
            for d in enumerate_rcgraphs(zigzag(n)):
                p = partition_of(d)
                p_tab, q = eg_insert(eg_word(d))
                path = partition_to_dyck(p, n)
                for x in (p, p_tab, q, _recording_partition(q), path,
                          dyck_to_partition(path),
                          reverse_bracketing(bracketing_of(d))):
                    assert_validates(x)
            for p in enumerate_staircase_partitions(n):
                path = partition_to_dyck(p, n)
                for x in (p, path, dyck_to_partition(path)):
                    assert_validates(x)

    def test_dyck_coding_of_random_staircase_partitions(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        # min(v_k, n - k) over a weakly decreasing v fits the staircase of n
        def staircase_partitions(n):
            return st.lists(st.integers(0, n), max_size=n).map(
                lambda v: (n, Partition(tuple(filter(None, (
                    min(x, n - k)
                    for k, x in enumerate(sorted(v, reverse=True), start=1)
                ))))))

        @settings(max_examples=300, deadline=None)
        @given(data=st.integers(0, 30).flatmap(staircase_partitions))
        def check(data):
            n, p = data
            path = partition_to_dyck(p, n)
            assert_validates(path)
            assert path.n == n
            assert path_area_above_diagonal(path) == comb(n, 2) - p.size
            back = dyck_to_partition(path)
            assert_validates(back)
            assert back == p

        check()


class TestTrustedWork:
    """Over the zigzag-9 family and the staircase partitions of 9, the
    bijections build their partitions, paths and reversed bracketings
    without re-running the class checks; only the bracketings read off
    fillings are validated, two per bracket round trip."""

    def test_constructor_checks(self, monkeypatch):
        family = enumerate_rcgraphs(zigzag(9))
        calls = Counter()
        for cls in (Partition, DyckPath, Bracketing):
            def counted(self, *args, init=cls.__init__):
                calls[init.__qualname__] += 1
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)

        partitions = enumerate_staircase_partitions(9)
        qs = [eg_insert(eg_word(d))[1] for d in family]
        brackets = [bracketing_of(d) for d in family]
        assert calls == {"Bracketing.__init__": 4_862}
        calls.clear()
        for d, q, b in zip(family, qs, brackets):
            partition_of(d)
            _recording_partition(q)
            reverse_bracketing(b)
        for p in partitions:
            dyck_to_partition(partition_to_dyck(p, 9))
        assert calls == {}
        for d in family:
            assert bracketing_of(d.transpose()) == reverse_bracketing(bracketing_of(d))
        assert (len(family), len(partitions)) == (4_862, 4_862)
        assert calls == {"Bracketing.__init__": 2 * 4_862}
