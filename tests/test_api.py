"""The public surface: the exact exported names, and what importing the CLI loads."""

import os
import subprocess
import sys
from pathlib import Path

import bellri

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert bellri.__all__ == PUBLIC_NAMES
    assert all(hasattr(bellri, name) for name in PUBLIC_NAMES)


def test_importing_the_cli_leaves_the_quadrature_unbuilt():
    # no library module needs numpy.polynomial (the sphere quadrature is a test
    # oracle in tests/reference.py), so importing the CLI must not load it
    src = str(Path(bellri.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, bellri.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"
