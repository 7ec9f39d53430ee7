"""cuelab: a random-matrix laboratory for unitary characteristic polynomials.

Haar sampling on U(N)/SU(N) via complex reflections, characteristic
polynomial analytics (log Z branches, arc counts, Barnes-G moments,
concentration factors, oscillation variances), zero counting for real
trigonometric combinations of characteristic polynomials, and seeded
Monte Carlo experiments with a CLI front end.
"""

from .errors import (
    CuelabError,
    DegenerateCombinationError,
    InvalidArgumentError,
    InvalidConfigError,
    InvalidDimensionError,
    InvalidEnsembleError,
    NumericalFailureError,
    OutOfDomainError,
    SingularPointError,
)
from .rng import RngStream
from .sampling import (
    ReflectionChain,
    UnitaryMatrix,
    chain_to_matrix,
    coupled_chain_pair,
    haar_reflection_chain,
    haar_special_unitary,
    haar_unitary,
    haar_unitary_qr_oracle,
    haar_verblunsky,
    reflection_determinant,
    reflection_matrix,
)
from .spectra import (
    EigenangleSpectrum,
    LogZ,
    arc_count_value,
    count_in_arc,
    eigenangles,
    log_z,
    log_z_from_chain,
    log_z_grid,
    log_z_verblunsky,
)
from .specfun import (
    EULER_GAMMA,
    barnes_g,
    beta_charfn,
    ci,
    expected_narrow_pairs,
    f_mu,
    f_mu_integral,
    joint_mgf_rhs,
    log_barnes_g,
    oscillation_variance_exact,
    q_factor,
    q_factor_product,
    si,
    two_point_correlation,
)
from .ensembles import (
    CombinationEnsemble,
    RootSet,
    circle_root_count,
    circle_zero_counts,
    real_rotation,
    roots_oracle,
    sign_changes,
)
from .carrier import (
    CarrierWaveConfig,
    base_angles,
    carrier_wave_index,
    exceptional_grid,
    exceptional_mask,
    narrow_gap_count,
    narrow_gap_threshold,
    normalized_logs,
    subdivision,
)
from .experiments import (
    ExperimentConfig,
    run_carrier_diagnostics,
    run_clt_check,
    run_fraction_on_circle,
    run_gap_check,
    run_moment_check,
    run_oscillation_check,
    run_selftest,
    run_tail_checks,
    run_trace_covariance,
)
from .results import EstimateRow, ResultRecord, emit, read_record

__version__ = "0.1.0"
