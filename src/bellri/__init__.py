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
    LhvTwoSettingModel,
    McEstimate,
    build_model,
    consistency_verdict,
    estimate_correlation,
    mc_report,
    verdict_sweep,
)
from .states import (
    make_singlet,
    make_werner,
    matrix_from_json,
    matrix_to_json,
    maximally_mixed,
    validate_density_matrix,
)
from .tensor import (
    compute_tensor,
    rotate_tensor,
    rotation_from_unitary,
    tensor_from_json,
    tensor_max_svd,
    tensor_to_json,
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
    "LhvTwoSettingModel",
    "McEstimate",
    "PRIOR_TWO_SETTING_THRESHOLD",
    "VISIBILITY_THRESHOLD",
    "ValidationError",
    "build_model",
    "chsh_complete_set",
    "compute_tensor",
    "consistency_verdict",
    "critical_visibility",
    "estimate_correlation",
    "evaluate_ri_criterion",
    "inner_product_ee",
    "make_singlet",
    "make_werner",
    "matrix_from_json",
    "matrix_to_json",
    "maximally_mixed",
    "mc_report",
    "ri_bound_check",
    "rotate_tensor",
    "rotation_from_unitary",
    "tensor_from_json",
    "tensor_max_svd",
    "tensor_to_json",
    "validate_density_matrix",
    "verdict_sweep",
]
