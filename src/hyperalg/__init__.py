"""Computations with finite hypergroups.

Validate the axioms, work with closed subsets and quotients, compute
commutator and closed-center series, decide nilpotency, solvability and
residual thinness, enumerate all hypergroups of small order, and verify
the structure statements of the theory over the resulting corpus.
"""

from hyperalg.closed import (
    ClosedSubsetLattice,
    EmptySet,
    all_closed_subsets,
    center,
    centralizer,
    closed_center,
    generated_closure,
    is_closed,
    is_normal,
    is_strongly_normal,
    strong_normalizer,
)
from hyperalg.core import (
    Hypergroup,
    HypergroupError,
    InternalMismatch,
    bits,
    mask_of,
    members,
    validate,
)
from hyperalg.enumeration import (
    EnumerationResult,
    OrderOutOfRange,
    canonical_representatives,
    enumerate_hypergroups,
)
from hyperalg.groups import NotAGroup, builtin_groups, from_group
from hyperalg.harness import CorpusEntry, HarnessReport, build_corpus, run_harness
from hyperalg.quotient import (
    NotClosed,
    Quotient,
    build_quotient,
    lift_blocks,
    project_subset,
)
from hyperalg.report import AnalysisReport, analyze, render_machine, render_text
from hyperalg.series import (
    NotRT,
    RTReport,
    UnknownStatement,
    Verdict,
    closed_center_series,
    commutator_elements,
    commutator_subset,
    inv_hypercenter,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    rt_analysis,
    statement_ids,
    thin_residue,
    valency,
    verify_statement,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "ClosedSubsetLattice", "CorpusEntry", "EmptySet",
    "EnumerationResult", "HarnessReport", "Hypergroup", "HypergroupError",
    "InternalMismatch", "NotAGroup", "NotClosed", "NotRT", "OrderOutOfRange",
    "Quotient", "RTReport", "UnknownStatement", "Verdict",
    "all_closed_subsets", "analyze", "bits", "build_corpus", "build_quotient",
    "builtin_groups", "canonical_representatives", "center", "centralizer",
    "closed_center", "closed_center_series", "commutator_elements",
    "commutator_subset", "enumerate_hypergroups", "from_group",
    "generated_closure", "inv_hypercenter", "is_closed", "is_nilpotent", "is_normal", "is_solvable", "is_strongly_normal",
    "lift_blocks", "lower_central_series", "mask_of", "members", "project_subset",
    "render_machine", "render_text", "rt_analysis", "run_harness",
    "statement_ids", "strong_normalizer", "thin_residue",
    "valency", "validate", "verify_statement",
]
