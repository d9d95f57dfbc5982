"""Two-qubit correlation tensors, Bell criteria, and hidden variable models.

The library computes correlation tensors of two-qubit states, evaluates a
rotationally invariant Bell-type criterion alongside the complete two-setting
CHSH set, solves for the critical noise visibility (3/4 for the noisy
singlet), and constructs explicit two-setting local hidden variable models
whose rotated copies the criterion rules out above that visibility.
"""

from .criteria import (
    BoundReport,
    COMPARISON_THRESHOLDS,
    ChshReport,
    CriterionReport,
    PRIOR_TWO_SETTING_THRESHOLD,
    QuadratureSpec,
    VISIBILITY_THRESHOLD,
    chsh_complete_set,
    critical_visibility,
    evaluate_ri_criterion,
    inner_product_ee,
    ri_bound_check,
)
from .errors import BellriError, DomainError, ValidationError
from .lhv import (
    ConsistencyVerdict,
    LhvSample,
    LhvTwoSettingModel,
    McEstimate,
    build_model,
    consistency_verdict,
    estimate_correlation,
    exact_correlations,
    mc_report,
    model_correlation,
    piecewise_correlation,
    sample,
    verdict_sweep,
)
from .states import (
    check_uu_invariance,
    make_singlet,
    make_werner,
    matrix_from_json,
    matrix_to_json,
    maximally_mixed,
    random_unitary_2x2,
    validate_density_matrix,
)
from .tensor import (
    compute_tensor,
    correlation_value,
    evaluate_via_tensor,
    frobenius_sum,
    random_rotation,
    random_rotation_pair,
    rotate_tensor,
    rotation_from_unitary,
    tensor_from_json,
    tensor_max_grid,
    tensor_max_svd,
    tensor_to_json,
    to_unit_vector,
)

__version__ = "0.1.0"

__all__ = [
    "BellriError",
    "BoundReport",
    "COMPARISON_THRESHOLDS",
    "ChshReport",
    "ConsistencyVerdict",
    "CriterionReport",
    "DomainError",
    "LhvSample",
    "LhvTwoSettingModel",
    "McEstimate",
    "PRIOR_TWO_SETTING_THRESHOLD",
    "QuadratureSpec",
    "VISIBILITY_THRESHOLD",
    "ValidationError",
    "build_model",
    "check_uu_invariance",
    "chsh_complete_set",
    "compute_tensor",
    "consistency_verdict",
    "correlation_value",
    "critical_visibility",
    "estimate_correlation",
    "evaluate_ri_criterion",
    "evaluate_via_tensor",
    "exact_correlations",
    "frobenius_sum",
    "inner_product_ee",
    "make_singlet",
    "make_werner",
    "matrix_from_json",
    "matrix_to_json",
    "maximally_mixed",
    "mc_report",
    "model_correlation",
    "piecewise_correlation",
    "random_rotation",
    "random_rotation_pair",
    "random_unitary_2x2",
    "ri_bound_check",
    "rotate_tensor",
    "rotation_from_unitary",
    "sample",
    "tensor_from_json",
    "tensor_max_grid",
    "tensor_max_svd",
    "tensor_to_json",
    "to_unit_vector",
    "validate_density_matrix",
    "verdict_sweep",
]
