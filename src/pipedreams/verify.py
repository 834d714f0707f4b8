"""End-to-end verification checks behind the command line ``verify``.

Each check mirrors one acceptance property of the library: all of them are
exact (no tolerances), and each returns its list of failures together with
the short human-readable detail line reported when that list is empty.
``run_checks`` turns these into CheckResults; a check that raises is
reported as a failure naming the exception, and the run carries on.  The
checks that walk the zigzag families take them from ``family``, and [5]
and [5d] take the staircase partitions from ``partitions``; ``run_checks``
memoises both, so each family and each partition list is built once per
run.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from functools import cache
from itertools import permutations as all_words
from math import comb
from typing import NamedTuple

from .bijections import (
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

Family = Callable[[int], list[RcGraph]]
Partitions = Callable[[int], list[Partition]]


class CheckResult(NamedTuple):
    ident: str
    name: str
    suite: str
    passed: bool
    detail: str


def check_figure_family() -> tuple[list[str], str]:
    """The five fillings of 1,4,3,2 and their monomials."""
    graphs = enumerate_rcgraphs(make_perm((1, 4, 3, 2)))
    expected = Counter({(0, 2, 1): 1, (1, 1, 1): 1, (2, 0, 1): 1, (1, 2): 1, (2, 1): 1})
    failures = []
    if len(graphs) != 5:
        failures.append(f"expected 5 fillings, found {len(graphs)}")
    got = Counter(g.monomial() for g in graphs)
    if got != expected:
        failures.append(f"monomial multiset {dict(got)} != {dict(expected)}")
    return failures, "5 fillings with the expected monomials"


def check_specialization(max_n: int) -> tuple[list[str], str]:
    """Principal specialization equals q^binom(n,3) C_n(q), with the
    turn-row recurrence confirmed along the way."""
    failures = []
    for n in range(1, max_n + 1):
        report = verify_catalan_specialization(n)
        if not report.equal:
            failures.append(f"n={n}: specialization mismatch")
        if not report.recurrence_ok:
            failures.append(f"n={n}: turn-row recurrence mismatch")
    return failures, f"exact for n=1..{max_n}"


def check_counting(max_n: int, family: Family) -> tuple[list[str], str]:
    """The zigzag of n has exactly catalan(n) fillings, and each traces it:
    one sweep each confirms the word the listing carries unswept, which is
    the zigzag's own, since it is an involution."""
    failures = []
    counts = []
    for n in range(1, max_n + 1):
        graphs = family(n)
        got = len(graphs)
        counts.append(got)
        if got != catalan(n):
            failures.append(f"n={n}: {got} fillings, expected {catalan(n)}")
        word = zigzag(n).word
        astray = sum(rcgraph._trace(d.rows) != word for d in graphs)
        if astray:
            failures.append(
                f"n={n}: {astray} of {got} fillings do not trace the zigzag")
    return failures, f"counts {counts} for n=1..{max_n}"


def check_oracle(max_n: int) -> tuple[list[str], str]:
    """Pipe dream sum equals the divided-difference construction, on S_4
    and the zigzags up to n = 5."""
    zig_max = min(max_n, 5)
    failures = []
    for word in all_words(range(1, 5)):
        w = make_perm(word)
        if schubert_polynomial(w) != schubert_via_divided_differences(w):
            failures.append(f"S_4 mismatch at {w}")
    for n in range(1, zig_max + 1):
        w = zigzag(n)
        if schubert_polynomial(w) != schubert_via_divided_differences(w):
            failures.append(f"zigzag mismatch at n={n}")
    return failures, f"all of S_4 and zigzag n<={zig_max}"


def check_partition_bijection(max_n: int, family: Family,
                              partitions: Partitions) -> tuple[list[str], str]:
    """partition_of is a bijection onto the staircase partitions, with
    rcgraph_of as inverse and the weight law binom(n+1,3) - |p|."""
    failures = []
    for n in range(1, max_n + 1):
        seen = {}
        inverted = set()
        for d in family(n):
            p = partition_of(d)
            if not fits_staircase(p, n):
                failures.append(f"n={n}: {p} outside the staircase")
            if p in seen:
                failures.append(f"n={n}: {p} hit twice")
            seen[p] = d
            if d.weight() != comb(n + 1, 3) - p.size:
                failures.append(f"n={n}: weight law fails for {p}")
            if rcgraph_of(p, n) != d:
                failures.append(f"n={n}: rcgraph_of does not invert at {p}")
            else:
                inverted.add(p)
        targets = partitions(n)
        if sorted(seen, key=lambda q: q.parts) != targets:
            failures.append(f"n={n}: image is not all of the staircase set")
        # rcgraph_of(p) == d with partition_of(d) == p is a round trip
        for p in targets:
            if p not in inverted and partition_of(rcgraph_of(p, n)) != p:
                failures.append(f"n={n}: round trip fails at {p}")
    return failures, f"bijective with inverse and weight law for n<={max_n}"


def check_dyck_transport(max_n: int, partitions: Partitions) -> tuple[list[str], str]:
    """Dyck path coding round-trips and carries the area statistic."""
    failures = []
    for n in range(1, max_n + 1):
        for p in partitions(n):
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
    return failures, f"round trips and area transport for n<={max_n}"


def check_eg(max_n: int, family: Family) -> tuple[list[str], str]:
    """Insertion-tableau constancy, recording-label rows, agreement with the
    elementary bijection, and the evacuation round trip up to n = 5."""
    failures = []
    for n in range(1, max_n + 1):
        graphs = family(n)
        p_seen = set()
        q_seen = set()
        for d in graphs:
            word = eg_word(d)
            p, q = eg_insert(word)
            p_seen.add(p.rows)
            q_seen.add(q.rows)
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
    # n = 3 is the smallest family where the two scans disagree
    usable = reading_direction_report(3)
    if usable != ["right-to-left"]:
        failures.append(f"reading-direction diagnostic: usable={usable}")
    return failures, (f"constant insertion tableau and round trips for n<={max_n}; "
                      "right-to-left is the single usable reading direction")


def check_transpose(max_n: int, family: Family) -> tuple[list[str], str]:
    """Transposing a filling reverses its bracketing."""
    failures = []
    for n in range(1, max_n + 1):
        for d in family(n):
            if bracketing_of(d.transpose()) != reverse_bracketing(bracketing_of(d)):
                failures.append(f"n={n}: transpose is not string reversal")
    return failures, f"checked every filling for n<={max_n}"


def check_split(max_n: int, family: Family) -> tuple[list[str], str]:
    """The turn-row decomposition satisfies the exact weight identity."""
    failures = []
    for n in range(1, max_n + 1):
        for d in family(n):
            k, south, north = split(d)
            if d.weight() != north.weight() + south.weight() + turn_row_shift(n, k):
                failures.append(f"n={n}: weight identity fails at k={k}")
    return failures, f"exact for every filling with n<={max_n}"


def check_multiplicity(max_n: int) -> tuple[list[str], str]:
    """Multiplicity of the singular family equals the Catalan numbers."""
    failures = []
    for n in range(1, max_n + 1):
        w = dominant_singular(n)
        if not local_equations_condition(w):
            failures.append(f"n={n}: local-equations condition fails")
        if schubert_multiplicity_at_identity(w) != catalan(n):
            failures.append(f"n={n}: multiplicity is not catalan({n})")
    return failures, f"equals catalan(n) for n<={max_n}"


def check_q_catalan(max_n: int) -> tuple[list[str], str]:
    """Recurrence and partition-sum routes agree up to n = 10 and the value
    at q=1 is Catalan up to n = 12, or both up to max_n if larger."""
    cross_max, one_max = max(10, max_n), max(12, max_n)
    failures = []
    for n in range(cross_max + 1):
        if q_catalan(n) != q_catalan_via_partitions(n):
            failures.append(f"n={n}: the two q-Catalan routes differ")
    for n in range(one_max + 1):
        if q_catalan(n).at_one() != catalan(n):
            failures.append(f"n={n}: value at q=1 differs from catalan(n)")
    return failures, f"routes agree for n<={cross_max}, q=1 values for n<={one_max}"


def run_checks(suite: str = "all", max_n: int = 6) -> list[CheckResult]:
    """Run the requested suite; every check runs up to max_n, within the
    bounds its docstring states."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    family = cache(lambda n: enumerate_rcgraphs(zigzag(n)))
    partitions = cache(enumerate_staircase_partitions)
    plan = [
        ("1", "five fillings of 1,4,3,2", "prop1", check_figure_family, ()),
        ("2", "q-Catalan specialization identity", "prop1",
         check_specialization, (max_n,)),
        ("3", "Catalan counting of zigzag fillings", "prop1",
         check_counting, (max_n, family)),
        ("4", "divided-difference oracle equivalence", "prop1",
         check_oracle, (max_n,)),
        ("5", "elementary partition bijection", "bijections",
         check_partition_bijection, (max_n, family, partitions)),
        ("5d", "Dyck path coding", "bijections",
         check_dyck_transport, (max_n, partitions)),
        ("6", "Edelman-Greene correspondence", "eg",
         check_eg, (max_n, family)),
        ("7", "transposition reverses bracketings", "transpose",
         check_transpose, (max_n, family)),
        ("8", "split weight identity", "prop1", check_split, (max_n, family)),
        ("9", "Catalan multiplicity", "prop1", check_multiplicity, (max_n,)),
        ("10", "q-Catalan cross-method", "prop1",
         check_q_catalan, (max_n,)),
    ]
    results = []
    for ident, name, check_suite, check, args in plan:
        if suite not in ("all", check_suite):
            continue
        try:
            failures, detail = check(*args)
        except Exception as exc:
            failures, detail = [f"raised {type(exc).__name__}: {exc}"], ""
        results.append(CheckResult(ident, name, check_suite, not failures,
                                   "; ".join(failures) or detail))
    return results
