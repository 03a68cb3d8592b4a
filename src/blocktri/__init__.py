"""Block-tridiagonal operator toolkit.

Truncations of compact operators as block-tridiagonal forms with decaying
block norms, joint Krylov banding, simultaneous triangularization of
matrix pairs, commutator quasinilpotency certificates with an explicit
counterexample family, and triangular-plus-quasinilpotent structure
decompositions.
"""

from .commutators import (
    ClauseResult,
    CounterexamplePair,
    CounterexampleReport,
    LevelRecord,
    SpectralReport,
    StrippedChecksReport,
    StrippedLevelRecord,
    build_counterexample,
    certify_commutator,
    spectrum_union_check,
    stripped_pair_checks,
    verify_counterexample,
)
from .decompose import (
    DecompositionResult,
    DiagonalSplit,
    decompose,
    diagonal_part,
    quasinilpotent_part_certificate,
)
from .krylov import TridiagResult, block_tridiagonalize, verify_block_structure
from .linalg import (
    SchurConvergenceError,
    SchurForm,
    corner_unit,
    eigenvalues,
    is_nilpotent,
    match_distance,
    operator_norm,
    schur,
    shift_matrix,
    spectral_radius,
)
from .matio import (
    MatrixFormatError,
    matrix_document,
    read_matrix,
    render_report,
    write_matrix,
)
from .operators import (
    BlockSchedule,
    BlockTridiagOperator,
    corner_compression,
    make_schedule,
    operator_from_matrix,
)
from .triangular import (
    TriangularizationCertificate,
    mccoy_sample,
    simultaneous_triangularize,
    word_value,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSchedule",
    "BlockTridiagOperator",
    "ClauseResult",
    "CounterexamplePair",
    "CounterexampleReport",
    "DecompositionResult",
    "DiagonalSplit",
    "LevelRecord",
    "MatrixFormatError",
    "SchurConvergenceError",
    "SchurForm",
    "SpectralReport",
    "StrippedChecksReport",
    "StrippedLevelRecord",
    "TriangularizationCertificate",
    "TridiagResult",
    "block_tridiagonalize",
    "build_counterexample",
    "certify_commutator",
    "corner_compression",
    "corner_unit",
    "decompose",
    "diagonal_part",
    "eigenvalues",
    "is_nilpotent",
    "make_schedule",
    "match_distance",
    "matrix_document",
    "mccoy_sample",
    "operator_from_matrix",
    "operator_norm",
    "quasinilpotent_part_certificate",
    "read_matrix",
    "render_report",
    "schur",
    "shift_matrix",
    "simultaneous_triangularize",
    "spectral_radius",
    "spectrum_union_check",
    "stripped_pair_checks",
    "verify_block_structure",
    "verify_counterexample",
    "word_value",
    "write_matrix",
]
