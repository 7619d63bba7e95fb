"""Random mixed-state sampling, coherence/entropy functionals, and Monte
Carlo verification of their closed-form ensemble averages."""

from .closedforms import (
    avg_coherence,
    avg_diag_entropy,
    avg_entropy_page,
    avg_subentropy,
    concentration_bound,
    derivative_principle_density_m2,
    eigen_density_m2,
    isospectral_avg_diag_entropy,
    max_subentropy,
)
from .ensembles import (
    DensityMatrix,
    EnsembleSpec,
    sample_diag_dirichlet,
    sample_ginibre,
    sample_isospectral_diagonal,
    sample_mixing_state,
    sample_wishart,
)
from .errors import DomainError, NumericalError, ParameterError, RandcohError
from .functionals import (
    harmonic,
    relative_entropy_of_coherence,
    shannon_entropy,
    subentropy,
    von_neumann_entropy,
)
from .linalg import gram, haar_unitary, hermitian_eigenvalues, unitary_conjugate_diagonal
from .mc import (
    ComparisonReport,
    EstimatorConfig,
    RunningStats,
    compare,
    empirical_concentration,
    estimate,
    run_comparison,
    run_comparisons,
)
from .randkit import RngStream, SeedSpec

__version__ = "0.1.0"
