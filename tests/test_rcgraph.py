from itertools import combinations, permutations, product
from math import comb

import pytest

from pipedreams.perm import Permutation, identity, make_perm, zigzag
from pipedreams.poly import schubert_polynomial, schubert_via_divided_differences
from pipedreams.rcgraph import (
    ChuteMoveError,
    CrossOnAntiDiagonalError,
    MalformedGridError,
    NotReducedError,
    NotZigzagError,
    RcGraph,
    bottom_rcgraph,
    chute_closure,
    enumerate_rcgraphs,
    inverse_chute_move,
    split,
    unsplit,
)

# The five fillings for 1,4,3,2 with their monomials and weights.
FIGURE_FAMILY = [
    (((2, 1), (2, 2), (3, 1)), (0, 2, 1), 4),
    (((1, 3), (2, 1), (3, 1)), (1, 1, 1), 3),
    (((1, 2), (1, 3), (3, 1)), (2, 0, 1), 2),
    (((1, 2), (2, 1), (2, 2)), (1, 2), 2),
    (((1, 2), (1, 3), (2, 2)), (2, 1), 1),
]


def figure_graphs():
    return [RcGraph.from_crosses(4, crosses) for crosses, _, _ in FIGURE_FAMILY]


def catalan_closed_form(n):
    return comb(2 * n, n) // (n + 1)


def traced_with_crossed_set(d):
    """Reference strand tracing that remembers every crossed pair."""
    m = d.m
    cols = []
    crossed = set()
    for r in range(m, 0, -1):
        traveler = r
        out = []
        for j in range(1, m + 1 - r):
            below = cols[j - 1]
            if d.rows[r - 1][j - 1]:
                pair = (min(traveler, below), max(traveler, below))
                if pair in crossed:
                    raise NotReducedError(f"strands {pair[0]} and {pair[1]} cross twice")
                crossed.add(pair)
                out.append(below)
            else:
                out.append(traveler)
                traveler = below
        out.append(traveler)
        cols = out
    return Permutation(tuple(cols)).inverse()


def traced_or_error(trace, d):
    try:
        return trace(d)
    except NotReducedError as exc:
        return f"NotReducedError: {exc}"


class TestValidate:
    def test_figure_family_traces_1432(self):
        w = make_perm([1, 4, 3, 2])
        for d in figure_graphs():
            assert d.permutation() == w

    def test_all_elbow_is_identity(self):
        for m in range(1, 6):
            d = RcGraph.from_crosses(m, [])
            assert d.permutation() == identity(m)

    def test_extra_cross_changes_perm_or_is_unreduced(self):
        w = make_perm([1, 4, 3, 2])
        for d in figure_graphs():
            free = [(i, j) for i, j in d.elbows()]
            for cell in free:
                mutated = RcGraph.from_crosses(4, d.crosses() + (cell,))
                try:
                    traced = mutated.permutation()
                except NotReducedError:
                    continue
                assert traced != w

    @pytest.mark.parametrize("m", range(1, 5))
    def test_permutation_matches_crossed_set_reference(self, m):
        cells = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1 - i)]
        for bits in product((False, True), repeat=len(cells)):
            d = RcGraph.from_crosses(m, [c for c, b in zip(cells, bits) if b])
            assert traced_or_error(RcGraph.permutation, d) == traced_or_error(
                traced_with_crossed_set, d
            ), d.rows

    def test_cross_on_antidiagonal_rejected(self):
        with pytest.raises(CrossOnAntiDiagonalError):
            RcGraph.from_crosses(4, [(1, 4)])

    def test_outside_staircase_rejected(self):
        with pytest.raises(MalformedGridError):
            RcGraph.from_crosses(4, [(3, 3)])
        with pytest.raises(MalformedGridError):
            RcGraph.from_crosses(4, [(0, 1)])


class TestBottom:
    def test_n3_is_first_figure_graph(self):
        assert bottom_rcgraph(3).crosses() == ((2, 1), (2, 2), (3, 1))

    def test_traces_zigzag(self):
        for n in range(7):
            assert bottom_rcgraph(n).permutation() == zigzag(n)

    def test_weight(self):
        assert bottom_rcgraph(3).weight() == 4

    def test_first_row_all_elbows(self):
        for n in range(1, 7):
            d = bottom_rcgraph(n)
            assert not any(i == 1 for i, _ in d.crosses())
            decidable = sum(1 for i, _ in d.crosses())
            assert decidable == zigzag(n).length


class TestWeightAndMonomial:
    @pytest.mark.parametrize("crosses,monomial,weight", FIGURE_FAMILY)
    def test_figure_values(self, crosses, monomial, weight):
        d = RcGraph.from_crosses(4, crosses)
        assert d.monomial() == monomial
        assert d.weight() == weight

    def test_all_elbow(self):
        d = RcGraph.from_crosses(5, [])
        assert d.weight() == 0
        assert d.monomial() == ()


class TestEnumerate:
    def test_figure_family_exactly(self):
        got = enumerate_rcgraphs(make_perm([1, 4, 3, 2]))
        assert sorted(g.crosses() for g in got) == sorted(
            crosses for crosses, _, _ in FIGURE_FAMILY
        )

    def test_identity_singleton(self):
        assert len(enumerate_rcgraphs(identity(3))) == 1

    def test_zigzag_counts(self):
        for n in range(1, 8):
            got = enumerate_rcgraphs(zigzag(n))
            assert len(got) == catalan_closed_form(n)
            assert len(set(got)) == len(got)

    def test_every_s4_filling_traces_its_permutation(self):
        for word in permutations(range(1, 5)):
            w = make_perm(word)
            graphs = enumerate_rcgraphs(w)
            assert len(set(graphs)) == len(graphs)
            for d in graphs:
                assert d.permutation() == w
                assert d.cross_count() == w.length

    def test_deterministic_order(self):
        w = make_perm([2, 1, 4, 3])
        assert enumerate_rcgraphs(w) == enumerate_rcgraphs(w)


def brute_force_fillings(w):
    """Every l(w)-subset of the decidable cells that traces w."""
    m = w.size
    cells = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1 - i)]
    found = []
    for crosses in combinations(cells, w.length):
        d = RcGraph.from_crosses(m, crosses)
        try:
            if d.permutation() == w:
                found.append(d)
        except NotReducedError:
            pass
    return found


class TestEnumerateOracles:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_matches_brute_force(self, m):
        for word in permutations(range(1, m + 1)):
            w = make_perm(word)
            assert set(enumerate_rcgraphs(w)) == set(brute_force_fillings(w)), w

    @pytest.mark.parametrize("m", range(1, 7))
    def test_order_is_sort_key_order(self, m):
        for word in permutations(range(1, m + 1)):
            got = enumerate_rcgraphs(make_perm(word))
            assert got == sorted(got, key=RcGraph.sort_key), word

    def test_pipe_dream_sum_matches_divided_differences_s5(self):
        for word in permutations(range(1, 6)):
            w = make_perm(word)
            assert schubert_polynomial(w) == schubert_via_divided_differences(w), w

    def test_pipe_dream_sum_matches_divided_differences_zigzag(self):
        for n in range(0, 8):
            w = zigzag(n)
            assert schubert_polynomial(w) == schubert_via_divided_differences(w), n


class TestChuteMoves:
    def test_surjection_first_move_on_bottom3(self):
        # carrying the cross at (3, 1) up to (1, 2): the move for a size-2 part
        d = inverse_chute_move(bottom_rcgraph(3), (1, 2), (3, 1))
        assert d.crosses() == ((1, 2), (2, 1), (2, 2))
        assert d.permutation() == zigzag(3)

    def test_condition_two_violation(self):
        with pytest.raises(ChuteMoveError) as err:
            inverse_chute_move(bottom_rcgraph(3), (1, 3), (2, 1))
        assert err.value.condition == 2

    def test_source_must_be_elbow(self):
        with pytest.raises(ChuteMoveError) as err:
            inverse_chute_move(bottom_rcgraph(3), (2, 1), (3, 1))
        assert err.value.condition == 0

    def test_preserves_permutation_and_cross_count(self):
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                for i, j in d.elbows():
                    for i2 in range(i + 1, d.m + 1):
                        for j2 in range(1, j):
                            try:
                                moved = inverse_chute_move(d, (i, j), (i2, j2))
                            except ChuteMoveError:
                                continue
                            assert moved.permutation() == zigzag(n)
                            assert moved.cross_count() == d.cross_count()

    def test_closure_from_bottom_reaches_everything(self):
        for n in range(1, 6):
            closure = chute_closure(bottom_rcgraph(n))
            assert closure == enumerate_rcgraphs(zigzag(n))


class TestTranspose:
    def test_involution(self):
        for d in figure_graphs():
            assert d.transpose().transpose() == d

    def test_transpose_stays_in_family(self):
        family = set(enumerate_rcgraphs(make_perm([1, 4, 3, 2])))
        for d in family:
            assert d.transpose() in family

    def test_bottom_transposes_into_family(self):
        for n in range(1, 7):
            t = bottom_rcgraph(n).transpose()
            assert t.permutation() == zigzag(n)

    def test_permutes_the_zigzag_family(self):
        for n in range(1, 7):
            family = set(enumerate_rcgraphs(zigzag(n)))
            assert {d.transpose() for d in family} == family

    def test_traces_inverse_for_all_s3(self):
        for word in permutations(range(1, 4)):
            w = make_perm(word)
            for d in enumerate_rcgraphs(w):
                assert d.transpose().permutation() == w.inverse()


class TestSplit:
    def test_bottom_turns_in_row_one(self):
        for n in range(2, 7):
            k, south, north = split(bottom_rcgraph(n))
            assert k == 1
            assert south == bottom_rcgraph(n - 1)
            assert north == RcGraph.from_crosses(1, [])

    def test_n1_both_parts_trivial(self):
        k, south, north = split(bottom_rcgraph(1))
        assert k == 1
        assert south.m == 1 and north.m == 1
        assert south.cross_count() == north.cross_count() == 0

    def test_weight_identity_n4(self):
        n = 4
        for d in enumerate_rcgraphs(zigzag(n)):
            k, south, north = split(d)
            assert d.weight() == (
                north.weight()
                + (k - 1) * comb(n - k, 2)
                + south.weight()
                + (n + 1 - k) * comb(k - 1, 2)
                + comb(n, 2)
                - comb(k, 2)
            )

    def test_round_trip_reassembly(self):
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                k, south, north = split(d)
                assert unsplit(n, k, south, north) == d

    def test_parts_trace_smaller_zigzags(self):
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                k, south, north = split(d)
                assert south.permutation() == zigzag(n - k)
                assert north.permutation() == zigzag(k - 1)

    def test_rejects_non_zigzag(self):
        d = enumerate_rcgraphs(make_perm([2, 1, 3]))[0]
        with pytest.raises(NotZigzagError):
            split(d)


class TestSerialization:
    def test_text_round_trip_figure(self):
        d = bottom_rcgraph(3)
        assert d.to_text() == "....\n++.\n+.\n."
        assert RcGraph.from_text(d.to_text()) == d

    def test_text_round_trip_family(self):
        for d in enumerate_rcgraphs(zigzag(4)):
            assert RcGraph.from_text(d.to_text()) == d

    def test_text_rejects_bad_shapes(self):
        with pytest.raises(MalformedGridError):
            RcGraph.from_text("...\n..\n")
        with pytest.raises(MalformedGridError):
            RcGraph.from_text("..x\n..\n.")
        with pytest.raises(CrossOnAntiDiagonalError):
            RcGraph.from_text("..+\n..\n.")

    def test_json_round_trip(self):
        d = bottom_rcgraph(3)
        data = d.to_json_dict()
        assert data == {"m": 4, "crosses": [[2, 1], [2, 2], [3, 1]]}
        assert RcGraph.from_json_dict(data) == d
