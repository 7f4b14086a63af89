"""Spectral analysis of finite-dimensional pseudo-Hermitian Hamiltonians.

Builds complete biorthonormal eigensystems, classifies spectra into real and
conjugate-paired eigenvalues, constructs the canonical family of metric
operators, intertwines isospectral systems, factors any matching pair as
H1 = L# L / H2 = L L#, and assembles the resulting graded supersymmetric
system together with its Witten index.
"""

from .errors import (
    DegenerateTwoLevel,
    InvalidEta,
    NonDiagonalizable,
    NonRealDeterminant,
    NotIsospectral,
    NotPseudoHermitian,
    NumericalFailure,
    PseudohermError,
    RealSpectrumRequired,
    UsageError,
)
from .intertwine import (
    Factorization,
    Intertwiner,
    MatchedCluster,
    SpectralPairing,
    build_L,
    canonical_factorization,
    match_spectra,
    self_factorization,
    verify_intertwining,
)
from .linalg import (
    DEFAULT_TOLERANCE,
    ResidualCheck,
    Tolerance,
    eig,
    kernel_basis,
    rank,
)
from .metric import (
    AntilinearOperator,
    EtaOperator,
    SignAssignment,
    antilinear_symmetry,
    canonical_eta,
    eta_from_M,
    hermitian_similarity,
    pseudo_adjoint,
    verify_pseudo_hermiticity,
)
from .spectral import (
    BiorthonormalSystem,
    EigenCluster,
    SpectrumClass,
    classify_spectrum,
    decompose,
    verify_biorthonormality,
)
from .susy import (
    PseudoSusySystem,
    WittenReport,
    assemble,
    from_factorization,
    verify_algebra,
    witten_index,
)
from .twolevel import (
    OscillatorReport,
    SpinIntertwineReport,
    TwoLevelParams,
    closed_form_system,
    normalize_traceless,
    oscillator_demo,
    oscillator_hamiltonian,
    spin_hamiltonian,
    spin_intertwine_demo,
    two_level_factorization,
)

__version__ = "0.1.0"
