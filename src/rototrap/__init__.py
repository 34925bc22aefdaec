"""Classical and Gaussian quantum dynamics in a rotating anisotropic trap.

The library answers four questions about a harmonic trap spinning at a
constant rate about a fixed axis, phrased in the co-rotating frame:

* where rotation makes the trapped motion unstable (stability windows and
  scans over the rotation rate),
* what the normal modes and characteristic frequencies are,
* at which rotation rates gravity drives a resonance when the axis is not
  vertical, and
* which squeezed Gaussian states are stationary, how generic Gaussian
  states evolve (matrix Riccati flow), and which quadratic constants of
  motion organize all of the above.

Units: the particle mass and hbar are 1, rates are in units of the
reference trap frequency. Conventions (signs of the rotation matrix, the
time-dependence e^{+i omega t}, symplectic form) are documented in the
modules that own them.
"""

from .errors import (
    AmbiguousClassification,
    BracketTooSmall,
    ComplexKappa,
    ConfigError,
    ConvergenceFailure,
    DefectiveMatrix,
    DegenerateModeVector,
    InInstabilityRegion,
    InsufficientSpan,
    InvalidConfig,
    NearSingular,
    NegativeOmega,
    NoValidRoot,
    NonFiniteState,
    NonPositivePotential,
    NonSymmetricPotential,
    NotInSpan,
    NotNormalizable,
    NotSymmetric,
    NumericError,
    OddPowersPresent,
    RototrapError,
    SingularD,
    SingularModeMatrix,
    StepTooLarge,
    VerificationError,
    WrongDimension,
    ZeroAxis,
)
from .gravity import (
    DecomposedGravity,
    GrowthReport,
    ResonanceCoeffs,
    ResonanceReport,
    classify_resonances,
    decompose_gravity,
    default_forced_dt,
    forced_evolve,
    gravity_in_rotating_frame,
    growth_classification,
    resonance_coefficients,
    resonant_frequencies,
    trajectory_to_csv,
)
from .invariants import (
    AmplitudeDecomposition,
    InvarianceResiduals,
    amplitude_energies,
    build_invariant,
    completed_third_invariant,
    evaluate_invariant,
    invariance_nullspace,
    invariance_residuals,
    invariant_forms,
    trajectory_drift,
)
from .modes import (
    ModeSet,
    cubic_modes,
    eigenmodes,
    krein_sign,
    select_positive_signature_modes,
    symplectic_form,
)
from .numerics import (
    OmegaRange,
    Trajectory,
    cinv3,
    cinv3_stack,
    eig_general,
    fmt17,
    linear_flow,
    posdef_min_eig,
    rk4_integrate,
)
from .quantum import (
    GaussianState,
    PlanarStationaryK,
    RiccatiTrajectory,
    WignerDecomposition,
    WignerForm,
    evolve_riccati,
    normalization_constant,
    planar_stationary_K,
    riccati_rhs,
    stationary_K_from_modes,
    wigner_decompose_into_invariants,
    wigner_form,
)
from .stability import (
    EXPONENTIAL,
    OSCILLATORY,
    STABLE,
    RegionLabel,
    RegionMap,
    ScanTable,
    StabilityClass,
    WindowCoeffs,
    classify_chi_roots,
    default_classify_tol,
    cubic_discriminant,
    exponential_window,
    oscillatory_window,
    region_map,
    region_of,
    solve_cubic,
    stability_scan,
    window_coeffs,
)
from .trap import (
    CharPolyCoeffs,
    LinearTrap,
    TrapInvariants,
    ValidatedConfig,
    build_dynamics_matrix,
    char_poly_coeffs,
    char_poly_from_matrix,
    config_errors,
    config_from_dict,
    cross_matrix,
    line_trap,
    make_config,
    planar_trap,
    trap_invariants,
    validate_config,
)
from .verify import CheckResult, VerificationReport, verify_config

__version__ = "0.1.0"
