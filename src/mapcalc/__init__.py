"""Maps on closed surfaces as flag involutions, with the role-permutation
operator family, GF(2) bond/cycle calculus, zigzag words and their linear
operators, structural theorem checks, file codecs and embedding search."""

from .gem import (
    FlagMap,
    GonDecomposition,
    MultiGraph,
    ValidationReport,
    antimap,
    apply_permutation,
    dual,
    euler_connectivity,
    gon_counts,
    gon_labels,
    gons,
    induced_graph,
    loop_balance,
    loop_balances,
    orientable,
    phial,
    projective_loop_map,
    single_edge_map,
    sphere_loop_map,
    validate,
)
from .gf2 import Gf2Subspace, Gf2Vec, LinearOp
from .spaces import bond_of, bond_space, cycle_space
from .words import (
    NotApplicableError,
    SignedWord,
    c_operator,
    cozigzag_word,
    gon_word,
    interlacement,
    kappa,
    vertex_word,
    zigzag_word,
)
from .codec import (
    MapFormatError,
    RotationSystem,
    ValidationFailure,
    embedding_to_map,
    format_word,
    from_signed_word,
    parse_gem,
    parse_rotation,
    parse_word,
    write_gem,
    write_rotation,
    zigzag_map_from_word,
)
from .analysis import MapAnalysis, map_operators, space_bundle
from .theorems import (
    TheoremReport,
    check_absorption,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    recheck_counterexample,
    report_json,
    verify_all,
)
from .search import (
    SearchBudget,
    SearchOutcome,
    candidate_count,
    enumerate_maps,
    search_embedding,
    subdivide_graph,
)

__version__ = "0.1.0"
