"""End-to-end verification checks behind the command line ``verify``.

Each check mirrors one acceptance property of the library: all of them are
exact (no tolerances), and each returns its list of failures.  A whole-run
check is a function of nothing or of max_n; a family check is a function
``check(n, graphs, partitions)`` of one n, given the zigzag family of n and
the staircase partitions of n.  ``run_checks`` lists both once per n, only
if a check still running takes them, and drops them before n + 1, so no
family outlives the next one.  It turns the failures into CheckResults,
with the detail of the plan row when there are none; a check that raises
is reported as a failure naming the exception, and the run carries on.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import permutations as all_words
from math import comb
from typing import NamedTuple

from .bijections import (
    _elbow_pairs,
    bracketing_of,
    dyck_to_partition,
    partition_of,
    partition_to_dyck,
    rcgraph_of,
    reverse_bracketing,
)
from .catalan import (
    Partition,
    catalan,
    enumerate_staircase_partitions,
    fits_staircase,
    q_catalan,
    q_catalan_via_partitions,
    staircase,
)
from .eg import (
    _recording_partition,
    eg_insert,
    eg_word,
    evacuate,
    q_label_row_check,
    reading_direction_report,
)
from .multiplicity import schubert_multiplicity_at_identity, verify_catalan_specialization
from .perm import (
    dominant_singular,
    local_equations_condition,
    make_perm,
    zigzag,
)
from .poly import schubert_polynomial, schubert_via_divided_differences
from . import rcgraph
from .rcgraph import RcGraph, enumerate_rcgraphs, split, turn_row_shift

SUITES = ("prop1", "bijections", "eg", "transpose", "all")


class CheckResult(NamedTuple):
    ident: str
    name: str
    suite: str
    passed: bool
    detail: str


def check_figure_family() -> list[str]:
    """The five fillings of 1,4,3,2 and their monomials."""
    graphs = enumerate_rcgraphs(make_perm((1, 4, 3, 2)))
    expected = Counter({(0, 2, 1): 1, (1, 1, 1): 1, (2, 0, 1): 1, (1, 2): 1, (2, 1): 1})
    failures = []
    if len(graphs) != 5:
        failures.append(f"expected 5 fillings, found {len(graphs)}")
    got = Counter(g.monomial() for g in graphs)
    if got != expected:
        failures.append(f"monomial multiset {dict(got)} != {dict(expected)}")
    return failures


def check_specialization(max_n: int) -> list[str]:
    """Principal specialization equals q^binom(n,3) C_n(q), with the
    turn-row recurrence confirmed along the way."""
    failures = []
    for n in range(1, max_n + 1):
        report = verify_catalan_specialization(n)
        if not report.equal:
            failures.append(f"n={n}: specialization mismatch")
        if not report.recurrence_ok:
            failures.append(f"n={n}: turn-row recurrence mismatch")
    return failures


def check_counting(n: int, graphs: list[RcGraph], partitions) -> list[str]:
    """The zigzag of n has exactly catalan(n) fillings, and each traces it:
    one sweep each confirms the word the listing carries unswept, which is
    the zigzag's own, since it is an involution."""
    failures = []
    got = len(graphs)
    if got != catalan(n):
        failures.append(f"n={n}: {got} fillings, expected {catalan(n)}")
    word = zigzag(n).word
    astray = sum(rcgraph._trace(d.rows) != word for d in graphs)
    if astray:
        failures.append(
            f"n={n}: {astray} of {got} fillings do not trace the zigzag")
    return failures


def check_oracle(max_n: int) -> list[str]:
    """Pipe dream sum equals the divided-difference construction, on S_4
    and the zigzags up to n = 5."""
    failures = []
    for word in all_words(range(1, 5)):
        w = make_perm(word)
        if schubert_polynomial(w) != schubert_via_divided_differences(w):
            failures.append(f"S_4 mismatch at {w}")
    for n in range(1, min(max_n, 5) + 1):
        w = zigzag(n)
        if schubert_polynomial(w) != schubert_via_divided_differences(w):
            failures.append(f"zigzag mismatch at n={n}")
    return failures


def check_partition_bijection(n: int, graphs: list[RcGraph],
                              targets: list[Partition]) -> list[str]:
    """partition_of is a bijection onto the staircase partitions, with
    rcgraph_of as inverse and the weight law binom(n+1,3) - |p|."""
    failures = []
    seen = set()
    inverted = set()
    top_weight = comb(n + 1, 3)
    for d in graphs:
        p = partition_of(d)
        if not fits_staircase(p, n):
            failures.append(f"n={n}: {p} outside the staircase")
        before = len(seen)
        seen.add(p)
        if len(seen) == before:
            failures.append(f"n={n}: {p} hit twice")
        if d.weight() != top_weight - p.size:
            failures.append(f"n={n}: weight law fails for {p}")
        if rcgraph_of(p, n) != d:
            failures.append(f"n={n}: rcgraph_of does not invert at {p}")
        else:
            inverted.add(p)
    if sorted(seen, key=lambda q: q.parts) != targets:
        failures.append(f"n={n}: image is not all of the staircase set")
    # rcgraph_of(p) == d with partition_of(d) == p is a round trip
    for p in targets:
        if p not in inverted and partition_of(rcgraph_of(p, n)) != p:
            failures.append(f"n={n}: round trip fails at {p}")
    return failures


def check_dyck_transport(n: int, graphs, partitions: list[Partition]) -> list[str]:
    """Dyck path coding round-trips and carries the area statistic."""
    failures = []
    for p in partitions:
        path = partition_to_dyck(p, n)
        if dyck_to_partition(path) != p:
            failures.append(f"n={n}: path round trip fails at {p}")
        area = 0
        x = y = 0
        for step in path.steps:
            if step == "U":
                y += 1
            else:
                area += y - x - 1
                x += 1
        if area != comb(n, 2) - p.size:
            failures.append(f"n={n}: area transport fails at {p}")
    return failures


def check_eg(n: int, graphs: list[RcGraph], partitions) -> list[str]:
    """Insertion-tableau constancy, recording-label rows, agreement with the
    elementary bijection, and the evacuation round trip up to n = 5.

    A recording tableau is kept as the bytes of its rows joined by zeros,
    an injective key because its labels are row indices in 1..n, below 256
    for every n the command line allows."""
    failures = []
    p_seen = set()
    q_seen = set()
    for d in graphs:
        word = eg_word(d)
        p, q = eg_insert(word)
        p_seen.add(p.rows)
        q_seen.add(b"\0".join(map(bytes, q.rows)))
        if not q_label_row_check(q):
            failures.append(f"n={n}: label-row property fails")
        if _recording_partition(q) != partition_of(d):
            failures.append(f"n={n}: insertion and elementary bijections differ")
        if n <= 5 and evacuate(q, n) != word:
            failures.append(f"n={n}: evacuation does not invert insertion")
    if len(p_seen) != 1:
        failures.append(f"n={n}: insertion tableau is not constant")
    else:
        shape = tuple(len(r) for r in next(iter(p_seen)))
        if shape != staircase(n).parts:
            failures.append(f"n={n}: insertion tableau shape {shape}")
    if len(q_seen) != len(graphs):
        failures.append(f"n={n}: recording tableaux are not distinct")
    return failures


def check_reading_direction() -> list[str]:
    """Right-to-left is the single usable reading direction, closing [6];
    n = 3 is the smallest family where the two scans disagree."""
    usable = reading_direction_report(3)
    if usable != ["right-to-left"]:
        return [f"reading-direction diagnostic: usable={usable}"]
    return []


def check_transpose(n: int, graphs: list[RcGraph], partitions) -> list[str]:
    """Transposing a filling reverses its bracketing."""
    failures = []
    for d in graphs:
        rev = reverse_bracketing(bracketing_of(d))
        m, pairs = _elbow_pairs(d.transpose())
        # pairs equal to rev, a valid bracketing, would pass every Bracketing check
        if (m + 1, tuple(sorted(pairs))) != (rev.letters, rev.pairs):
            failures.append(f"n={n}: transpose is not string reversal")
    return failures


def check_split(n: int, graphs: list[RcGraph], partitions) -> list[str]:
    """The turn-row decomposition satisfies the exact weight identity."""
    failures = []
    shift = {k: turn_row_shift(n, k) for k in range(1, n + 1)}
    for d in graphs:
        k, south, north = split(d)
        if d.weight() != north.weight() + south.weight() + shift[k]:
            failures.append(f"n={n}: weight identity fails at k={k}")
    return failures


def check_multiplicity(max_n: int) -> list[str]:
    """Multiplicity of the singular family equals the Catalan numbers."""
    failures = []
    for n in range(1, max_n + 1):
        w = dominant_singular(n)
        if not local_equations_condition(w):
            failures.append(f"n={n}: local-equations condition fails")
        if schubert_multiplicity_at_identity(w) != catalan(n):
            failures.append(f"n={n}: multiplicity is not catalan({n})")
    return failures


def check_q_catalan(max_n: int) -> list[str]:
    """Recurrence and partition-sum routes agree up to n = 10 and the value
    at q=1 is Catalan up to n = 12, or both up to max_n if larger."""
    failures = []
    for n in range(max(10, max_n) + 1):
        if q_catalan(n) != q_catalan_via_partitions(n):
            failures.append(f"n={n}: the two q-Catalan routes differ")
    for n in range(max(12, max_n) + 1):
        if q_catalan(n).at_one() != catalan(n):
            failures.append(f"n={n}: value at q=1 differs from catalan(n)")
    return failures


def run_checks(suite: str = "all", max_n: int = 6) -> list[CheckResult]:
    """Run the requested suite; every check runs up to max_n, within the
    bounds its docstring states.  The whole-run checks run first, then the
    family checks for each n = 1..max_n in turn, then [6]'s closing
    diagnostic.  A check that raises, or whose listing raises, is reported
    as that raise and not called again; the results keep the order of the
    plan."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    # ident, name, suite, check, the listings a family check takes ("" for
    # a whole-run check), and the detail reported when nothing fails
    plan = [
        ("1", "five fillings of 1,4,3,2", "prop1", check_figure_family, "",
         "5 fillings with the expected monomials"),
        ("2", "q-Catalan specialization identity", "prop1",
         partial(check_specialization, max_n), "", f"exact for n=1..{max_n}"),
        # [3] passes only if the count at each n is catalan(n)
        ("3", "Catalan counting of zigzag fillings", "prop1",
         check_counting, "graphs",
         f"counts {[catalan(n) for n in range(1, max_n + 1)]} for n=1..{max_n}"),
        ("4", "divided-difference oracle equivalence", "prop1",
         partial(check_oracle, max_n), "",
         f"all of S_4 and zigzag n<={min(max_n, 5)}"),
        ("5", "elementary partition bijection", "bijections",
         check_partition_bijection, "graphs partitions",
         f"bijective with inverse and weight law for n<={max_n}"),
        ("5d", "Dyck path coding", "bijections", check_dyck_transport, "partitions",
         f"round trips and area transport for n<={max_n}"),
        ("6", "Edelman-Greene correspondence", "eg", check_eg, "graphs",
         f"constant insertion tableau and round trips for n<={max_n}; "
         "right-to-left is the single usable reading direction"),
        ("7", "transposition reverses bracketings", "transpose",
         check_transpose, "graphs", f"checked every filling for n<={max_n}"),
        ("8", "split weight identity", "prop1", check_split, "graphs",
         f"exact for every filling with n<={max_n}"),
        ("9", "Catalan multiplicity", "prop1", partial(check_multiplicity, max_n), "",
         f"equals catalan(n) for n<={max_n}"),
        ("10", "q-Catalan cross-method", "prop1", partial(check_q_catalan, max_n), "",
         f"routes agree for n<={max(10, max_n)}, "
         f"q=1 values for n<={max(12, max_n)}"),
    ]
    plan = [row for row in plan if suite in ("all", row[2])]
    failures = {ident: [] for ident, *_ in plan}
    stopped = set()

    def stop(ident, exc):
        failures[ident] = [f"raised {type(exc).__name__}: {exc}"]
        stopped.add(ident)

    def run(ident, check, *args):
        try:
            failures[ident] += check(*args)
        except Exception as exc:
            stop(ident, exc)

    for ident, _, _, check, takes, _ in plan:
        if not takes:
            run(ident, check)
    for n in range(1, max_n + 1):
        listed = {}
        for key, make in (("graphs", lambda: enumerate_rcgraphs(zigzag(n))),
                          ("partitions", lambda: enumerate_staircase_partitions(n))):
            takers = [row[0] for row in plan if key in row[4] and row[0] not in stopped]
            if takers:
                try:
                    listed[key] = make()
                except Exception as exc:
                    for ident in takers:
                        stop(ident, exc)
        for ident, _, _, check, takes, _ in plan:
            if takes and ident not in stopped:
                run(ident, check, n, listed.get("graphs"), listed.get("partitions"))
    if "6" in failures and "6" not in stopped:
        run("6", check_reading_direction)
    return [CheckResult(ident, name, check_suite, not failures[ident],
                        "; ".join(failures[ident]) or detail)
            for ident, name, check_suite, _, _, detail in plan]
