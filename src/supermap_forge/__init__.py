"""Block Choi operators for channels between multimatrix algebras,
deterministic supermap verification, and constructive circuit realisation."""

from .algebra import (
    DEFAULT_TOL,
    BlockOperator,
    HybridState,
    MultiMatrixAlgebra,
    PositivityWitness,
    is_positive,
)
from .cpmaps import (
    Channel,
    CpMap,
    KrausDecomposition,
    apply,
    hs_dual,
    identity_cpmap,
    is_cp,
    is_tp,
    kraus_from_choi,
)
from .errors import (
    AlgebraMismatchError,
    IsometryDefectError,
    NotCompletelyPositiveError,
    NotPositiveError,
    NotTracePreservingError,
    NotUnitalError,
    ResidualTooLargeError,
    ShapeMismatchError,
    SingularMarginalError,
    SupermapForgeError,
)
from .supermap import (
    HomAlgebra,
    Lemma1Decomposition,
    Supermap,
    VerificationReport,
    apply_to_choi,
    choi_element,
    cpmap_from_element,
    hom_algebra,
    identity_supermap,
    kernel_residual,
    lemma1_decompose,
    partial_trace_out,
    tp_residual,
    tp_section,
    traceout_kernel_basis,
    verify_deterministic,
)
from .realize import (
    CircuitRealisation,
    RealisationCheck,
    SolvedW,
    assemble_e,
    assemble_g,
    check_realisation,
    circuit_supermap,
    evaluate_circuit,
    realize,
    solve_w,
)
from . import gen

__version__ = "0.1.0"
