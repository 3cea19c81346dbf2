"""Stable roommates with random preferences: generation, solvers, counting,
Monte Carlo estimators, and a reproducible experiment harness."""

__version__ = "0.1.0"

from .instances import (
    InstanceParseError,
    InvalidInstanceError,
    PreferenceProfile,
    RngStream,
    TieError,
    UtilityMatrix,
    parse_instance,
    rank_from_utilities,
    sample_profile,
    sample_utilities,
    serialize_instance,
)
from .matchings import (
    CycleDecomposition,
    Matching,
    OrientedDifference,
    blocking_pairs,
    is_stable,
    iter_perfect_matchings,
    orient,
    single_cycle_neighbors,
    symmetric_difference,
)
from .solvers import (
    CensusResult,
    ResourceCapError,
    SolveResult,
    enumerate_stable,
    irving_solve,
)
from .combinatorics import (
    CountValue,
    brute_pair_census,
    double_factorial,
    harmonic,
    overlap_pair_bound,
    single_cycle_count,
)
from .estimators import (
    Estimate,
    GpiReport,
    PartnerUtilities,
    check_gpi,
    estimate_conditional_two_point,
    estimate_expected_X,
    exact_small_integral,
    sample_instance_given_stable,
    stability_product_log,
    two_point_kernel_log,
)
from .exponent import (
    ExponentSolution,
    lambert_w_branch_minus1,
    objective,
    tstar_closed_form,
    tstar_grid_search,
)
from .experiments import (
    ConditionalCensusRow,
    ConfigError,
    ExperimentConfig,
    ScalingRow,
    run_conditional_census,
    run_ex_scaling,
    run_experiment,
    run_scaling,
    stable_single_cycle_neighbors,
)
