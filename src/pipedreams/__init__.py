"""Pipe dreams, Schubert polynomials, and Catalan combinatorics.

The central object is the staircase pipe dream (``RcGraph``).  Around it
the package provides exact Schubert polynomials by two independent routes,
principal specializations, Carlitz-Riordan q-Catalan polynomials, the
Catalan bijections on the zigzag family (partitions, Dyck paths,
bracketings, binary trees, Edelman-Greene tableaux), and the multiplicity
of a guarded class of Schubert varieties at the identity point.
"""

from .bijections import (
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
    BiWord,
    InsertionError,
    InvalidQTableauError,
    NonPartitionBoxesError,
    Tableau,
    eg_insert,
    eg_partition_of,
    eg_word,
    evacuate,
    q_label_row_check,
    reading_direction_report,
)
from .multiplicity import (
    ConditionNotSatisfiedError,
    SpecializationReport,
    schubert_multiplicity_at_identity,
    verify_catalan_specialization,
)
from .perm import (
    NotAPermutationError,
    Permutation,
    dominant_singular,
    local_equations_condition,
    longest_element,
    make_perm,
    zigzag,
)
from .poly import (
    QPolynomial,
    SparsePolynomial,
    schubert_polynomial,
    schubert_specialization,
    schubert_via_divided_differences,
)
from .rcgraph import (
    ChuteMoveError,
    CrossOnAntiDiagonalError,
    MalformedGridError,
    NotReducedError,
    NotZigzagError,
    RcGraph,
    RcGraphError,
    bottom_rcgraph,
    count_rcgraphs,
    enumerate_rcgraphs,
    inverse_chute_move,
    split,
    unsplit,
)

__version__ = "0.1.0"
