"""Approximately optimal truthful mechanisms via a privacy/imposition lottery.

The package builds finite mechanism-design environments, runs the
exponential mechanism and imposing commitment mechanisms over them, mixes
the two into a truthful near-optimal lottery, and verifies every claimed
property by exact enumeration or quadrature.
"""

from .combined import (
    MechanismParams,
    build_combined,
    combined_mechanism,
    compute_n0,
    incentive_contract_holds,
    schedule_params,
    saturating_params,
)
from .commitment import (
    CommitmentDistribution,
    commitment_mechanism,
    truth_advantage,
    uniform_commitment,
    uniform_histogram_commitment,
    verify_corollary1,
)
from .environment import (
    ABS_TOL,
    DEFAULT_BUDGET,
    INTERDEPENDENT,
    PRIVATE_REACTIONS,
    PRIVATE_VALUES,
    Environment,
    Gap,
    HistogramInstance,
    ObjectiveFunction,
    SensitivityReport,
    SeparationCertificate,
    check_environment,
    compute_gap,
    find_separating_set,
    optimal_reaction,
    verify_sensitivity,
)
from .errors import (
    ConfigInvalid,
    EnumerationBudgetExceeded,
    GridTooCoarse,
    MechDesignError,
    NotNonTrivial,
    ParamContractViolated,
    PopulationTooSmall,
    ResolutionBudgetExceeded,
    WrongValuesKind,
    ZeroProbabilityAsymmetry,
)
from .exponential import (
    DpAuditReport,
    accuracy_bound_check,
    audit_dp,
    exp_mech_distribution,
    exponential_mechanism,
    near_indifference_bound_check,
)
from .facility import (
    DyadicCommitment,
    Loc3Mechanism,
    Loc3Params,
    build_grid_env,
    continuous_expmech_distribution,
    continuous_expmech_sample,
    dyad_facility_commitment,
    lipschitz_checks,
    loc1,
    loc2,
    loc3,
    loc3_n0,
    loc3_params,
)
from .outcomes import Outcome, OutcomeDistribution, mix
from .payoffs import Mechanism, PayoffTable
from .pricing import (
    BUY,
    NOT_BUY,
    build_pricing_env,
    example1_env,
    example3_env,
    example3_mechanism,
    optimal_announced_price,
    revenue_per_agent,
)
from .verify import (
    VerificationReport,
    check_expost_nash_truthful,
    check_strictly_dominant_truthful,
    constant_map,
    find_dominating_strategy,
    implementation_gap,
    truthful_profile,
)

__version__ = "0.1.0"
