"""End-to-end verification checks behind the command line ``verify``.

Each check mirrors one acceptance property of the library: all of them are
exact (no tolerances), and each returns its list of failures together with
the short human-readable detail line reported when that list is empty.
``run_checks`` turns these into CheckResults; a check that raises is
reported as a failure naming the exception, and the run carries on.  The
checks that walk the zigzag families are generators: for each n in turn,
``run_checks`` lists the zigzag family of n and the staircase partitions
of n once, sends both to every such check, and lets them go before n + 1,
so no family outlives the next one.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Generator
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

# the listings a family check takes, as bits of its plan row; each n, every
# running family check is sent (graphs, partitions), with None in place of
# a listing that no running check takes
FAMILY, PARTITIONS = 1, 2

Outcome = tuple[list[str], str]
Fed = Generator[None, tuple[list[RcGraph], list[Partition]], Outcome]


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


def check_counting(max_n: int) -> Fed:
    """The zigzag of n has exactly catalan(n) fillings, and each traces it:
    one sweep each confirms the word the listing carries unswept, which is
    the zigzag's own, since it is an involution."""
    failures = []
    counts = []
    for n in range(1, max_n + 1):
        graphs, _ = yield
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


def check_partition_bijection(max_n: int) -> Fed:
    """partition_of is a bijection onto the staircase partitions, with
    rcgraph_of as inverse and the weight law binom(n+1,3) - |p|."""
    failures = []
    for n in range(1, max_n + 1):
        graphs, targets = yield
        seen = set()
        inverted = set()
        for d in graphs:
            p = partition_of(d)
            if not fits_staircase(p, n):
                failures.append(f"n={n}: {p} outside the staircase")
            if p in seen:
                failures.append(f"n={n}: {p} hit twice")
            seen.add(p)
            if d.weight() != comb(n + 1, 3) - p.size:
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
    return failures, f"bijective with inverse and weight law for n<={max_n}"


def check_dyck_transport(max_n: int) -> Fed:
    """Dyck path coding round-trips and carries the area statistic."""
    failures = []
    for n in range(1, max_n + 1):
        _, partitions = yield
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
    return failures, f"round trips and area transport for n<={max_n}"


def check_eg(max_n: int) -> Fed:
    """Insertion-tableau constancy, recording-label rows, agreement with the
    elementary bijection, and the evacuation round trip up to n = 5.

    A recording tableau is kept as the bytes of its rows joined by zeros,
    an injective key because its labels are row indices in 1..n, below 256
    for every n the command line allows."""
    failures = []
    for n in range(1, max_n + 1):
        graphs, _ = yield
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
    # n = 3 is the smallest family where the two scans disagree
    usable = reading_direction_report(3)
    if usable != ["right-to-left"]:
        failures.append(f"reading-direction diagnostic: usable={usable}")
    return failures, (f"constant insertion tableau and round trips for n<={max_n}; "
                      "right-to-left is the single usable reading direction")


def check_transpose(max_n: int) -> Fed:
    """Transposing a filling reverses its bracketing."""
    failures = []
    for n in range(1, max_n + 1):
        graphs, _ = yield
        for d in graphs:
            if bracketing_of(d.transpose()) != reverse_bracketing(bracketing_of(d)):
                failures.append(f"n={n}: transpose is not string reversal")
    return failures, f"checked every filling for n<={max_n}"


def check_split(max_n: int) -> Fed:
    """The turn-row decomposition satisfies the exact weight identity."""
    failures = []
    for n in range(1, max_n + 1):
        graphs, _ = yield
        for d in graphs:
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
    bounds its docstring states.  The family checks advance together, one
    n at a time, and the results keep the order of the plan."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    plan = [
        ("1", "five fillings of 1,4,3,2", "prop1", check_figure_family, (), 0),
        ("2", "q-Catalan specialization identity", "prop1",
         check_specialization, (max_n,), 0),
        ("3", "Catalan counting of zigzag fillings", "prop1",
         check_counting, (max_n,), FAMILY),
        ("4", "divided-difference oracle equivalence", "prop1",
         check_oracle, (max_n,), 0),
        ("5", "elementary partition bijection", "bijections",
         check_partition_bijection, (max_n,), FAMILY | PARTITIONS),
        ("5d", "Dyck path coding", "bijections",
         check_dyck_transport, (max_n,), PARTITIONS),
        ("6", "Edelman-Greene correspondence", "eg",
         check_eg, (max_n,), FAMILY),
        ("7", "transposition reverses bracketings", "transpose",
         check_transpose, (max_n,), FAMILY),
        ("8", "split weight identity", "prop1", check_split, (max_n,), FAMILY),
        ("9", "Catalan multiplicity", "prop1", check_multiplicity, (max_n,), 0),
        ("10", "q-Catalan cross-method", "prop1",
         check_q_catalan, (max_n,), 0),
    ]
    plan = [row for row in plan if suite in ("all", row[2])]
    outcomes: dict[str, Outcome | None] = {}
    running = {}
    for ident, _, _, check, args, takes in plan:
        run = _checked(check, args, takes)
        outcomes[ident] = _advance(run.send, None)
        if outcomes[ident] is None:
            running[ident] = run, takes
    listers = ((FAMILY, lambda n: enumerate_rcgraphs(zigzag(n))),
               (PARTITIONS, enumerate_staircase_partitions))
    for n in range(1, max_n + 1):
        wanted = 0
        for _, takes in running.values():
            wanted |= takes
        listed = {bit: _listed(make, n) for bit, make in listers if wanted & bit}
        feed = listed.get(FAMILY), listed.get(PARTITIONS)
        for ident, (run, takes) in list(running.items()):
            broken = [x for bit, x in listed.items()
                      if takes & bit and isinstance(x, Exception)]
            outcomes[ident] = (_advance(run.throw, broken[0]) if broken
                               else _advance(run.send, feed))
            if outcomes[ident] is not None:
                del running[ident]
    return [CheckResult(ident, name, check_suite, not outcomes[ident][0],
                        "; ".join(outcomes[ident][0]) or outcomes[ident][1])
            for ident, name, check_suite, *_ in plan]


def _checked(check, args: tuple, takes: int) -> Fed:
    """A check as a generator: a family check (``takes`` nonzero) is
    delegated to, and any other runs whole when first advanced, so that a
    call which raises is caught where every other raise is."""
    if takes:
        return (yield from check(*args))
    return check(*args)


def _advance(step, arg) -> Outcome | None:
    """Advance a check by ``step(arg)``: None while it waits for the next n,
    else its (failures, detail), where a raise is a failure naming it."""
    try:
        step(arg)
    except StopIteration as stop:
        return stop.value
    except Exception as exc:
        return [f"raised {type(exc).__name__}: {exc}"], ""
    return None


def _listed(make, n: int):
    """make(n), or the exception it raised, thrown into each check taking it."""
    try:
        return make(n)
    except Exception as exc:
        return exc
