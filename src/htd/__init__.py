"""Hypertree decompositions for conjunctive queries.

Deciding k-bounded hypertree width, validating and normalizing
decompositions, decomposition-guided query evaluation, and hardness-gadget
generation for the width-4 decision problem.
"""

from .components import (
    Component,
    atoms_of_component,
    component_of,
    v_adjacent,
    v_components,
)
from .detect import decompose, hypertree_width, is_acyclic, normalize_hd
from .errors import (
    DatabaseFormatError,
    DecompositionFormatError,
    HtdError,
    InconclusiveError,
    InvalidDecompositionError,
    QuerySyntaxError,
)
from .evaluate import (
    AcyclicInstance,
    eval_boolean,
    eval_full,
    format_answers,
    shrink,
)
from .hardness import (
    ThreePartitionSystem,
    X3CInstance,
    exact_cover,
    format_x3c,
    gen_strict_3ps,
    parse_x3c,
    verify_strict_3ps,
    witness_qd_from_cover,
    x3c_to_query,
)
from .hypertree import (
    Hypertree,
    HtVertex,
    JoinTree,
    JtVertex,
    QdVertex,
    QueryDecomposition,
    ValidationReport,
    Violation,
    complete_hd,
    hd_to_jointree,
    hd_width,
    hypertree_from_json,
    hypertree_to_json,
    is_complete,
    qd_from_json,
    qd_to_hd,
    qd_to_json,
    treecomp,
    treecomps,
    validate_hd,
    validate_jointree,
    validate_nf,
    validate_qd,
)
from .model import (
    Atom,
    ConjunctiveQuery,
    Database,
    Hypergraph,
    Term,
    atoms_vars,
    constant,
    parse_database,
    parse_query,
    print_query,
    query_hypergraph,
    variable,
)
from .oracle import (
    brute_force_eval,
    brute_force_qw,
    fixpoint_decide,
    gyo_acyclic,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
