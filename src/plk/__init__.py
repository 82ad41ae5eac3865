"""Exact exterior algebra with decomposability criteria and factor recovery."""

from .multivector import (
    Coeff,
    InputError,
    Multivector,
    SupportSpace,
    contract_into,
    indices_of,
    interior,
    mask_of,
    pairing,
    sharp,
    shuffle_sign,
    support_space,
    wedge,
)
from .criteria import (
    CriterionReport,
    DecomposableFamily,
    InvariantViolation,
    ThreePlaneBranch,
    Witness,
    classical_pluecker,
    contraction_criterion,
    dual_improved_pluecker,
    dual_pluecker,
    equation_count,
    factorize,
    from_factors,
    improved_pluecker,
    is_simple_oracle,
    kernel_dimension,
    optimal_component_test,
    oracle_report,
    run_all_criteria,
    three_plane_check,
)
from .young import (
    TwoColumnShape,
    verify_square_decomposition,
    young_dim,
)
from .serialize import dumps, emit_multivector, loads, parse_multivector

__version__ = "0.1.0"
