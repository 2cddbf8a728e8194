"""Eigenvalue spectra of linearly reconstructed quantum states.

Simulates finite-statistics state tomography with local Pauli
measurements (and a complete projector scheme for contrast), and
provides the matching analytic spectral models: the noise-induced
semicircle bulk, its moments and physicality probability, minimal
count planning, and a rank-estimation test built on Anderson-Darling
goodness of fit.
"""

__version__ = "0.2.6"

from .pauli import (
    StateSpec,
    build_state,
    check_density_matrix,
    correlation_tensor_values,
    fidelity,
)
from .sampling import (
    MULTINOMIAL,
    POISSON,
    CountModel,
    EmptySettingError,
    stream,
)
from .estimation import (
    CompleteSchemeFrame,
    build_complete_frame,
    correlations_from_frequencies,
    estimate_complete,
    setting_probability_table,
)
from .models import (
    LaplaceModel,
    SemicircleModel,
    SingleQubitModel,
    catalan,
    laplace_model,
    min_counts,
    overcomplete_law,
    physicality_probability,
    semicircle_center,
    semicircle_radius,
)
from .gof import (
    NoAcceptedRankError,
    RankCandidate,
    RankTestReport,
    a2_null_cdf,
    anderson_darling,
    estimate_rank,
    reconstruct_physical_estimate,
    sup_cdf_distance,
)
from .ensemble import (
    ChecksumMismatchError,
    DimensionMismatchError,
    EnsembleIOError,
    EnsembleRunError,
    ExperimentConfig,
    MalformedEnsembleError,
    SchemaVersionError,
    SpectrumEnsemble,
    load_ensemble,
    replica_estimator,
    replica_frequencies,
    run_ensemble,
    save_ensemble,
)

__all__ = [name for name in dir() if not name.startswith("_")]
