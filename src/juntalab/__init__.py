"""Biased-spectrum analysis and exact learning of Boolean juntas."""

from .boolfn import (
    MAX_CORE_VARS,
    MAX_ENUM_VARS,
    Junta,
    assignments,
    degree,
    random_junta,
    relevant_variables_bruteforce,
    walsh_numerators,
)
from .errors import (
    BudgetExhaustedError,
    ConstantFunctionError,
    DomainError,
    EmptySampleError,
    InvalidIndexError,
    InvalidParamsError,
    JuntaLabError,
    LengthMismatchError,
    NoCoefficientFoundError,
    NoWitnessError,
    SizeLimitError,
)
from .fourier import (
    DyadicPolynomial,
    biased_coefficient,
    biased_coefficient_bruteforce,
    biased_coefficient_rational,
    biased_spectrum,
    dense_table,
    expectation_polynomial,
    level_weight,
    level_weight_direct,
    parseval_sum,
    relevant_subsets,
)
from .learner import (
    LearnReport,
    LearnStatus,
    LearnerParams,
    RestrictedOracle,
    check_constant,
    constancy_sample_size,
    default_attempt_budget,
    default_threshold,
    find_one_relevant,
    learn_junta,
)
from .measure import as_bias_vector, chi, density, sample_batch, sigma, sigma_vector
from .russo import (
    RootPoint,
    RootSet,
    Witness,
    poly_derivative,
    root_set,
    russo_rhs,
    squarefree_decomposition,
    theorem1_witness,
)
from .sampling import (
    ExampleBatch,
    Oracle,
    ReplayOracle,
    bias_sample_size,
    chi_cross_coefficient,
    chi_l2_distance,
    dump_examples_csv,
    estimate_bias,
    estimate_coefficient,
    estimate_coefficient_unknown_bias,
    estimate_level_batch,
    hoeffding_sample_size,
    load_examples_csv,
    unknown_bias_accuracy,
)

__version__ = "0.1.0"
