"""The exact kernels free what they build by reference counting alone.

A recursive closure that still names itself when its function returns is a
reference cycle, and it keeps everything it closes over (a memo, a result
list) alive until the cyclic collector runs.  No kernel has one; these
cases keep it that way.  Each case runs one call with ``gc`` disabled, drops
the result, and asserts that a collection then finds nothing.
"""

import gc

import pytest

from pipedreams.bijections import bracketing_of, tree_of
from pipedreams.catalan import enumerate_staircase_partitions, q_catalan_via_partitions
from pipedreams.multiplicity import schubert_multiplicity_at_identity
from pipedreams.perm import dominant_singular, make_perm, zigzag
from pipedreams.poly import schubert_polynomial, schubert_specialization
from pipedreams.rcgraph import bottom_rcgraph, count_rcgraphs, enumerate_rcgraphs

CASES = {
    "enumerate_rcgraphs": lambda: enumerate_rcgraphs(zigzag(6)),
    "count_rcgraphs": lambda: count_rcgraphs(zigzag(6)),
    "schubert_specialization": lambda: schubert_specialization(zigzag(6)),
    "schubert_polynomial": lambda: schubert_polynomial(make_perm([3, 1, 6, 2, 5, 4])),
    "schubert_multiplicity_at_identity":
        lambda: schubert_multiplicity_at_identity(dominant_singular(6)),
    "q_catalan_via_partitions": lambda: q_catalan_via_partitions(12),
    "enumerate_staircase_partitions": lambda: enumerate_staircase_partitions(6),
    "tree_of": lambda: tree_of(bracketing_of(bottom_rcgraph(6))),
    "Bracketing.__str__": lambda: str(bracketing_of(bottom_rcgraph(6))),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_call_leaves_no_cyclic_garbage(call):
    gc.collect()
    gc.disable()
    try:
        result = call()
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()
