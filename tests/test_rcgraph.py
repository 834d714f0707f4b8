import hashlib
import tracemalloc
from collections import Counter
from itertools import permutations, product
from math import comb

import pytest

from pipedreams.perm import Permutation, make_perm, zigzag
from pipedreams.poly import schubert_polynomial, schubert_via_divided_differences
from pipedreams.rcgraph import (
    ChuteMoveError,
    CrossOnAntiDiagonalError,
    MalformedGridError,
    NotReducedError,
    NotZigzagError,
    RcGraph,
    bottom_rcgraph,
    count_rcgraphs,
    enumerate_rcgraphs,
    fold_rcgraphs,
    inverse_chute_move,
    _trace,
    _zigzag_word,
    split,
    unsplit,
    zigzag_index,
)

from oracles import chute_closure, crosses, elbows, helper_inverse_chute_move

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


def every_grid(m):
    """Every filling of the S_m staircase, reduced or not."""
    widths = [m - i for i in range(1, m + 1)]  # decidable cells per row
    for bits in product((False, True), repeat=sum(widths)):
        rows, at = [], 0
        for w in widths:
            rows.append(bits[at:at + w] + (False,))
            at += w
        yield RcGraph(tuple(rows))


def zigzag_index_reference(d):
    """The zigzag guard as a comparison of Permutations."""
    n = d.m - 1
    if d.permutation() != zigzag(n):
        raise NotZigzagError(
            f"not a filling for the zigzag permutation of S_{d.m}"
        )
    return n


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)


class TestValidate:
    def test_figure_family_traces_1432(self):
        w = make_perm([1, 4, 3, 2])
        for d in figure_graphs():
            assert d.permutation() == w

    def test_all_elbow_is_identity(self):
        for m in range(1, 6):
            d = RcGraph.from_crosses(m, [])
            assert d.permutation() == make_perm(range(1, m + 1))

    def test_extra_cross_changes_perm_or_is_unreduced(self):
        w = make_perm([1, 4, 3, 2])
        for d in figure_graphs():
            for cell in elbows(d):
                mutated = RcGraph.from_crosses(4, crosses(d) + (cell,))
                try:
                    traced = mutated.permutation()
                except NotReducedError:
                    continue
                assert traced != w

    @pytest.mark.parametrize("m", range(1, 7))
    def test_permutation_matches_crossed_set_reference(self, m):
        for d in every_grid(m):
            assert outcome(RcGraph.permutation, d) == outcome(
                traced_with_crossed_set, d
            ), d.rows

    @pytest.mark.parametrize("m", range(1, 7))
    def test_zigzag_guard_and_weight_on_every_grid(self, m):
        """Every grid of the S_m staircase, so every filling of S_m."""
        for d in every_grid(m):
            assert outcome(zigzag_index, d) == outcome(
                zigzag_index_reference, d
            ), d.rows
            assert d.weight() == sum(i - 1 for i, _ in crosses(d))

    def test_cross_on_antidiagonal_rejected(self):
        with pytest.raises(CrossOnAntiDiagonalError) as exc:
            RcGraph.from_crosses(4, [(1, 4)])
        assert str(exc.value) == "cross on the anti-diagonal cell (1, 4)"

    @pytest.mark.parametrize("crosses, error, message", [
        # every cell is placed before the grid names its topmost bad row
        ([(3, 2), (1, 4)], CrossOnAntiDiagonalError,
         "cross on the anti-diagonal cell (1, 4)"),
        ([(1, 4), (9, 9)], MalformedGridError, "cell (9, 9) is outside the staircase"),
    ], ids=["topmost-anti-diagonal", "outside-before-anti-diagonal"])
    def test_several_bad_cells(self, crosses, error, message):
        with pytest.raises(error) as exc:
            RcGraph.from_crosses(4, crosses)
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("rows, message", [
        ((), "a pipe dream needs at least one row"),
        (((False,), (False,)), "row 1 has 1 cells, expected 2"),
    ], ids=["no-rows", "short-row"])
    def test_malformed_rows_rejected(self, rows, message):
        with pytest.raises(MalformedGridError) as exc:
            RcGraph(rows)
        assert str(exc.value) == message

    def test_outside_staircase_rejected(self):
        with pytest.raises(MalformedGridError):
            RcGraph.from_crosses(4, [(3, 3)])
        with pytest.raises(MalformedGridError):
            RcGraph.from_crosses(4, [(0, 1)])


class TestBottom:
    def test_n3_is_first_figure_graph(self):
        assert crosses(bottom_rcgraph(3)) == ((2, 1), (2, 2), (3, 1))

    def test_traces_zigzag(self):
        for n in range(7):
            assert bottom_rcgraph(n).permutation() == zigzag(n)

    def test_weight(self):
        assert bottom_rcgraph(3).weight() == 4

    def test_first_row_all_elbows(self):
        for n in range(1, 7):
            d = bottom_rcgraph(n)
            assert not any(i == 1 for i, _ in crosses(d))
            decidable = sum(1 for i, _ in crosses(d))
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
        assert sorted(crosses(g) for g in got) == sorted(
            crosses for crosses, _, _ in FIGURE_FAMILY
        )

    def test_identity_singleton(self):
        assert len(enumerate_rcgraphs(make_perm([1, 2, 3]))) == 1

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
                assert len(crosses(d)) == w.length

    def test_deterministic_order(self):
        w = make_perm([2, 1, 4, 3])
        assert enumerate_rcgraphs(w) == enumerate_rcgraphs(w)


class TestEnumerateOracles:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_brute_force(self, m):
        """The reduced grids of the S_m staircase, bucketed by the reference
        tracing, are the listings of S_m, one bucket per permutation."""
        bucket = {}
        for d in every_grid(m):
            try:
                bucket.setdefault(traced_with_crossed_set(d), set()).add(d)
            except NotReducedError:
                pass
        for word in permutations(range(1, m + 1)):
            w = make_perm(word)
            assert set(enumerate_rcgraphs(w)) == bucket[w], w

    @pytest.mark.parametrize("m", range(1, 7))
    def test_order_is_sort_key_order(self, m):
        # the key is crosses(): the fillings of one w share their m
        for word in permutations(range(1, m + 1)):
            got = enumerate_rcgraphs(make_perm(word))
            assert got == sorted(got, key=crosses), word

    @pytest.mark.parametrize("perms, digest", [
        ([make_perm(word) for m in range(1, 8)
          for word in permutations(range(1, m + 1))],
         "ba8ab4eca939091afe0be283b6e7b3246848a41e62ab71c6968528a3baa043a1"),
        ([zigzag(n) for n in range(1, 11)],
         "8c1fb8280cc9fb56170f0f530c35cba00c7cd883df89758d2b2049fc02237c88"),
    ], ids=["s1-s7", "zigzag1-10"])
    def test_listing_digest(self, perms, digest):
        """Content and order of every listing, pinned by hash."""
        h = hashlib.sha256()
        for w in perms:
            got = enumerate_rcgraphs(w)
            h.update(f"{w}:{len(got)}\n".encode())
            for d in got:
                h.update((d.to_text() + "\n\n").encode())
        assert h.hexdigest() == digest

    def test_pipe_dream_sum_matches_divided_differences_s5(self):
        for word in permutations(range(1, 6)):
            w = make_perm(word)
            assert schubert_polynomial(w) == schubert_via_divided_differences(w), w

    def test_pipe_dream_sum_matches_divided_differences_zigzag(self):
        for n in range(0, 8):
            w = zigzag(n)
            assert schubert_polynomial(w) == schubert_via_divided_differences(w), n


class TestFoldWork:
    """The fold's work as counts: one ``extend`` call per row filling
    between two states, and one state per edge that is not added into a
    state already reached, counted by a weight whose ``+=`` counts.  The
    fold has one target test, b > j at an elbow, with b labelled by its
    target; without it a strand exits east of its target and the zigzag7
    row reads 10,953 states."""

    @pytest.mark.parametrize("w, states, edges", [
        (zigzag(7), 128, 320),
        (zigzag(9), 512, 1_536),
        (zigzag(12), 4_096, 15_360),
        (make_perm([1, 3, 2, 9, 8, 7, 6, 5, 4]), 740, 4_425),
    ], ids=["zigzag7", "zigzag9", "zigzag12", "132987654"])
    def test_states_and_edges(self, w, states, edges):
        work = {"edges": 0, "merges": 0}

        class Tally:
            def __iadd__(self, other):
                work["merges"] += 1
                return self

        def extend(r, cells, below):
            work["edges"] += 1
            return Tally()

        fold_rcgraphs(w, Tally(), extend)
        assert work["edges"] - work["merges"] == states
        assert work["edges"] == edges

    def test_counting_holds_one_int_per_state(self):
        # one int per state peaks at 2.8 MB; holding each state's edges
        # in a list until the row ends takes 10.5 MB
        tracemalloc.start()
        try:
            assert count_rcgraphs(zigzag(14)) == 2_674_440
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


class TestChuteMoves:
    def test_surjection_first_move_on_bottom3(self):
        # carrying the cross at (3, 1) up to (1, 2): the move for a size-2 part
        d = inverse_chute_move(bottom_rcgraph(3), (1, 2), (3, 1))
        assert crosses(d) == ((1, 2), (2, 1), (2, 2))
        assert d.permutation() == zigzag(3)

    def test_condition_two_violation(self):
        with pytest.raises(ChuteMoveError) as err:
            inverse_chute_move(bottom_rcgraph(3), (1, 3), (2, 1))
        assert err.value.condition == 2

    def test_source_must_be_elbow(self):
        with pytest.raises(ChuteMoveError) as err:
            inverse_chute_move(bottom_rcgraph(3), (2, 1), (3, 1))
        assert err.value.condition == 0

    @pytest.mark.parametrize("text, src, dst, condition, message", [
        ("....\n++.\n+.\n.", (1, 3), (1, 1), 0,
         "destination (1, 1) is not strictly below and left of (1, 3)"),
        ("...\n..\n.", (1, 2), (2, 1), 3,
         "condition 3 fails: column 1 must be crosses from row 2 to row 2"),
        # Not a pipe dream: strands 2 and 3 cross twice.  No pipe dream of
        # S_1..S_7 passes conditions 1-3 and fails condition 4.
        (".+..\n+..\n..\n.", (1, 3), (2, 1), 4,
         "condition 4 fails: row 2 must be crosses from column 1 to column 2"),
    ], ids=["not-below-left", "condition-3", "condition-4"])
    def test_refusal_names_its_condition(self, text, src, dst, condition, message):
        with pytest.raises(ChuteMoveError) as err:
            inverse_chute_move(RcGraph.from_text(text), src, dst)
        assert err.value.condition == condition
        assert str(err.value) == message

    def test_no_pipe_dream_of_s6_reaches_condition_4(self):
        # Every (elbow, cell strictly below-left) pair on every filling of
        # S_1..S_6: condition 4 refuses none of them, while conditions 1-3
        # refuse the rest.  Pinned, not proved.
        pairs, moves, refusals = 0, 0, Counter()
        for m in range(1, 7):
            for word in permutations(range(1, m + 1)):
                for d in enumerate_rcgraphs(make_perm(word)):
                    for i, j in elbows(d):
                        for i2 in range(i + 1, m + 1):
                            for j2 in range(1, j):
                                pairs += 1
                                try:
                                    inverse_chute_move(d, (i, j), (i2, j2))
                                except ChuteMoveError as err:
                                    refusals[err.condition] += 1
                                else:
                                    moves += 1
        assert (pairs, moves) == (315347, 9189)
        assert refusals[4] == 0
        assert sum(refusals.values()) == pairs - moves

    def test_preserves_permutation_and_cross_count(self):
        for n in range(1, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                for i, j in elbows(d):
                    for i2 in range(i + 1, d.m + 1):
                        for j2 in range(1, j):
                            try:
                                moved = inverse_chute_move(d, (i, j), (i2, j2))
                            except ChuteMoveError:
                                continue
                            assert moved.permutation() == zigzag(n)
                            assert len(crosses(moved)) == len(crosses(d))

    def test_closure_from_bottom_reaches_everything(self):
        for n in range(1, 6):
            closure = chute_closure(bottom_rcgraph(n))
            assert closure == enumerate_rcgraphs(zigzag(n))

    def test_matches_the_helper_based_move(self):
        # src and dst range over a border of cells outside the staircase on
        # every side, where a cell read without its staircase test would
        # index a real row or column from the end.  Each refusal's message
        # names its condition.
        for m in range(1, 5):
            cells = list(product(range(m + 2), repeat=2))
            for word in permutations(range(1, m + 1)):
                for d in enumerate_rcgraphs(make_perm(word)):
                    for src, dst in product(cells, repeat=2):
                        assert (outcome(inverse_chute_move, d, src, dst)
                                == outcome(helper_inverse_chute_move, d, src, dst)
                                ), (d, src, dst)


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
        assert len(crosses(south)) == len(crosses(north)) == 0

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

    @pytest.mark.parametrize("k, part_sizes, message", [
        (0, (3, 1), "turn row 0 out of range for n=3"),
        (4, (3, 1), "turn row 4 out of range for n=3"),
        (1, (1, 1), "part sizes do not match n and k"),
        (1, (3, 3), "part sizes do not match n and k"),
    ], ids=["k-0", "k-past-n", "small-south", "large-north"])
    def test_unsplit_refuses_inconsistent_parts(self, k, part_sizes, message):
        south, north = (bottom_rcgraph(m - 1) for m in part_sizes)
        with pytest.raises(ValueError) as err:
            unsplit(3, k, south, north)
        assert err.type is ValueError
        assert str(err.value) == message

    def test_parts_trace_smaller_zigzags(self):
        # the turn-row lemma that lets split check only its guard, up to
        # the largest size verify allows
        for n in range(1, 11):
            for d in enumerate_rcgraphs(zigzag(n)):
                k, south, north = split(d)
                assert all(all(row[1:n + 2 - k]) for row in d.rows[:k - 1])
                assert _trace(south.rows) == _zigzag_word(n - k)
                assert _trace(north.rows) == _zigzag_word(k - 1)

    def test_rejects_non_zigzag(self):
        d = enumerate_rcgraphs(make_perm([2, 1, 3]))[0]
        with pytest.raises(NotZigzagError):
            split(d)

    def test_refuses_the_zigzag_of_0(self):
        # the one grid of S_1 is the zigzag of 0's filling; what it lacks
        # is a turn row
        d = bottom_rcgraph(0)
        assert zigzag_index(d) == 0
        with pytest.raises(ValueError) as err:
            split(d)
        assert err.type is ValueError
        assert str(err.value) == "the zigzag of 0 has no turn row to split at"


def split_by_cross_lists(d):
    """Reference split: reindex the cross cells of each part."""
    n = d.m - 1
    k = max(r for r in range(1, n + 1) if not d.rows[r - 1][0])
    south = RcGraph.from_crosses(
        n - k + 1,
        [(i - k + 1, j - 1) for i, j in crosses(d) if i >= k and 2 <= j <= n + 2 - k],
    )
    north = RcGraph.from_crosses(
        k,
        [(i, 1) for i, j in crosses(d) if j == 1 and i <= k]
        + [(i, j - (n + 1 - k)) for i, j in crosses(d) if j >= n + 3 - k],
    )
    return k, south, north


def unsplit_by_cross_lists(n, k, south, north):
    """Reference unsplit: the forced crosses plus both parts' cross cells."""
    cells = [(r, c) for r in range(1, k) for c in range(2, n + 3 - k)]
    cells += [(r, 1) for r in range(k + 1, n + 1)]
    cells += [(i + k - 1, j + 1) for i, j in crosses(south)]
    cells += [(i, 1) if j == 1 else (i, j + n + 1 - k) for i, j in crosses(north)]
    return RcGraph.from_crosses(n + 1, cells)


def ref_split(d):
    """The cell-by-cell split, with its guard tracing the rows directly,
    that the row slices and the exit-word memo replaced (oracle)."""
    n = d.m - 1
    if _trace(d.rows) != _zigzag_word(n):
        raise NotZigzagError(
            f"not a filling for the zigzag permutation of S_{d.m}"
        )
    if n < 1:
        raise ValueError("the zigzag of 0 has no turn row to split at")
    k = max(r for r in range(1, n + 1) if not d.rows[r - 1][0])
    for r in range(1, k):
        for c in range(2, n + 3 - k):
            if not d.rows[r - 1][c - 1]:
                raise NotZigzagError(
                    f"expected a forced cross at ({r}, {c}) for turn row {k}"
                )
    south = RcGraph(tuple(row[1:] for row in d.rows[k - 1:n]))
    north = RcGraph(tuple(row[:1] + row[n + 2 - k:] for row in d.rows[:k]))
    if (_trace(south.rows) != _zigzag_word(n - k)
            or _trace(north.rows) != _zigzag_word(k - 1)):
        raise NotZigzagError("split parts do not trace zigzag permutations")
    return k, south, north


def without_one_forced_cross(d):
    """d with one of the forced crosses of its turn row removed, for each of
    them: rows 1..k-1 of columns 2..n+2-k."""
    n = d.m - 1
    k, _, _ = ref_split(d)
    for r in range(1, k):
        for c in range(2, n + 3 - k):
            yield RcGraph.from_crosses(
                d.m, [x for x in crosses(d) if x != (r, c)])


class TestSplitOracle:
    def test_every_zigzag_filling(self):
        for n in range(0, 9):
            for d in enumerate_rcgraphs(zigzag(n)):
                assert outcome(split, d) == outcome(ref_split, d), d

    def test_one_forced_cross_removed(self):
        removed = 0
        for n in range(2, 9):
            for d in enumerate_rcgraphs(zigzag(n)):
                for g in without_one_forced_cross(d):
                    assert outcome(split, g) == outcome(ref_split, g), g
                    removed += 1
        assert removed > 0

    @pytest.mark.parametrize("m", range(1, 6))
    def test_every_filling_of_small_symmetric_groups(self, m):
        for word in permutations(range(1, m + 1)):
            for d in enumerate_rcgraphs(make_perm(word)):
                assert outcome(split, d) == outcome(ref_split, d), d

    def test_non_reduced_grids(self):
        for g in every_grid(4):
            assert outcome(split, g) == outcome(ref_split, g), g


class TestExitWordMemo:
    def test_traced_and_untraced_copies_agree(self):
        # a listed grid carries its word in the _word slot; a grid built
        # from the same rows carries none and sweeps instead
        for n in range(0, 6):
            for d in enumerate_rcgraphs(zigzag(n)):
                zigzag_index(d)
                copy = RcGraph(d.rows)
                assert d._word == _zigzag_word(n) and copy._word is None
                assert d.exit_word == copy.exit_word
                assert d == copy and hash(d) == hash(copy)
                assert len({d, copy}) == 1
                assert repr(d) == repr(copy)
                assert d.to_json_dict() == copy.to_json_dict()
                assert d.to_text() == copy.to_text()

    def test_non_reduced_grid_raises_on_every_access(self):
        g = RcGraph.from_text(".+.\n+.\n.")
        for _ in range(2):
            with pytest.raises(NotReducedError, match="^strands 2 and 3 cross twice$"):
                g.exit_word
            assert g._word is None
        with pytest.raises(NotReducedError, match="^strands 2 and 3 cross twice$"):
            g.permutation()

    def test_permutation_unchanged_on_small_symmetric_groups(self):
        for m in range(1, 7):
            for word in permutations(range(1, m + 1)):
                w = make_perm(word)
                for d in enumerate_rcgraphs(w):
                    assert d.permutation() == w
                    assert d.exit_word == w.inverse().word
                    assert d.permutation() == w

    def test_each_grid_traces_once(self, monkeypatch):
        from pipedreams import rcgraph

        traced = []

        def counted(rows):
            traced.append(rows)
            return _trace(rows)

        monkeypatch.setattr(rcgraph, "_trace", counted)
        d = enumerate_rcgraphs(zigzag(4))[3]
        zigzag_index(d)
        d.permutation()
        split(d)
        zigzag_index(d.transpose())
        # a listed grid and its transpose carry their words, and split
        # sweeps neither part
        assert traced == []
        # a grid built from rows keeps no word, so it sweeps once per read
        copy = RcGraph(d.rows)
        zigzag_index(copy)
        copy.permutation()
        assert traced == [d.rows, d.rows]

    def test_carried_words_equal_the_sweep(self):
        fillings = 0
        for m in range(1, 7):
            for word in permutations(range(1, m + 1)):
                w = make_perm(word)
                for d in enumerate_rcgraphs(w):
                    fillings += 1
                    assert _trace(d.rows) == d.exit_word == w.inverse().word
                    t = d.transpose()
                    assert t._word is not None
                    assert _trace(t.rows) == t.exit_word == word
        assert fillings == 6524
        for n in range(1, 11):
            for d in enumerate_rcgraphs(zigzag(n)):
                fillings += 1
                assert _trace(d.rows) == d.exit_word
                t = d.transpose()
                assert t._word is not None and _trace(t.rows) == t.exit_word
        assert fillings == 6524 + 23713

    def test_reading_the_word_allocates_nothing_per_grid(self):
        graphs = enumerate_rcgraphs(zigzag(10))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for d in graphs:
                d.exit_word
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a memo on each grid, such as a cached_property in the instance
        # __dict__, would cost about 190 B per grid
        assert len(graphs) == 16796
        assert grown < 1024


class TestRowBuildersMatchCrossLists:
    def test_split_and_unsplit(self):
        for n in range(1, 8):
            for d in enumerate_rcgraphs(zigzag(n)):
                k, south, north = expected = split_by_cross_lists(d)
                assert split(d) == expected, d
                assert unsplit(n, k, south, north) == unsplit_by_cross_lists(
                    n, k, south, north
                )

    def test_transpose_zigzag(self):
        for n in range(0, 8):
            for d in enumerate_rcgraphs(zigzag(n)):
                assert d.transpose() == RcGraph.from_crosses(
                    d.m, [(j, i) for i, j in crosses(d)]
                )

    @pytest.mark.parametrize("m", range(1, 6))
    def test_transpose_all_fillings(self, m):
        for word in permutations(range(1, m + 1)):
            for d in enumerate_rcgraphs(make_perm(word)):
                assert d.transpose() == RcGraph.from_crosses(
                    m, [(j, i) for i, j in crosses(d)]
                )

    def test_bottom(self):
        for n in range(0, 8):
            assert bottom_rcgraph(n) == RcGraph.from_crosses(
                n + 1, [(i, j) for i in range(2, n + 2) for j in range(1, n + 2 - i)]
            )


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
        assert RcGraph.from_crosses(data["m"], map(tuple, data["crosses"])) == d
