"""Nonideal joint quantum measurements of incompatible observables.

The package builds which-way polarization POVMs that measure two analyzer
directions at once, quantifies the unavoidable information tradeoff between
the two marginals, and assembles two-arm correlation experiments whose CHSH
statistics separate what a single joint measurement can show (|S| <= 2,
always) from what pooling four incompatible runs can show (up to 2*sqrt(2)).
"""

from .bell import (
    CHSH_PAIRS,
    CHSH_SIGNS,
    QUAD_LABELS,
    BellConfig,
    ChshReport,
    QuadrivariateBell,
    build_bell,
    chsh_aspect,
    chsh_report_from_distribution,
    chsh_single_run,
    correlation_from_distribution,
    detector_correlation,
    quad_distribution,
    singlet_state,
)
from .errors import (
    ConfigError,
    DomainError,
    InvariantViolationError,
    NotCompleteError,
    NotHermitianError,
    NotPositiveError,
    PovmBellError,
    PovmValidationError,
    ShapeMismatchError,
)
from .infometrics import (
    HeisenbergCheck,
    MartensCurve,
    MartensReport,
    heisenberg_check,
    martens_bound,
    martens_check,
    martens_sweep,
    row_entropy,
)
from .measurement import (
    Effect,
    OutcomeDistribution,
    Povm,
    Pvm,
    born_probabilities,
    born_values,
    polarization_pvm,
    povm_from_stack,
    validate_effect_stack,
    validate_povm,
)
from .qcore import (
    DEFAULT_POLICY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ComplexMatrix,
    NumericPolicy,
    PolarizationAngle,
    StateDescriptor,
    as_angle,
    as_matrix,
    expectation,
    hermiticity_defect,
    identity,
    projector_from_angle,
)
from .sampler import (
    GENERATOR_NAME,
    LOG_CHUNK,
    EventLog,
    check_label_set,
    empirical_chsh,
    empirical_frequencies,
    index_dtype,
    sample,
)
from .whichway import (
    WW_LABELS,
    BivariateWhichWay,
    NonidealityMatrix,
    WhichWayConfig,
    build_whichway,
    certainty_check,
    joint_distribution,
    marginals_and_nonideality,
    marginals_from_distribution,
    measured_marginals,
    whichway_effects,
)

__version__ = "0.1.0"
