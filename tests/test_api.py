"""The public surface: the exact exported names, the names the benchmark resolves,
and what importing the CLI loads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import bellri

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC_NAMES = [
    "BoundReport",
    "ChshReport",
    "ConsistencyVerdict",
    "CriterionReport",
    "DomainError",
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


def benchmark_names():
    """``module.attribute`` for each bellri module attribute perfbench uses, and for
    each name in its tracer's ``TRACED``, read from perfbench's source as text."""
    used, traced = set(), set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "bellri"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                used.add(f"{modules[node.value.id]}.{node.attr}")
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
                for module, fns in zip(node.value.keys, node.value.values):
                    traced.update(f"{modules[module.id]}.{f}" for f in ast.literal_eval(fns))
    return used, traced


def test_every_name_the_benchmark_resolves_exists():
    # a traced benchmark run looks up every name in TRACED, so a missing one fails
    # every run; nothing of perfbench is imported, so the test cannot change its state
    used, traced = benchmark_names()
    assert "lhv.build_model" in used and "lhv.consistency_verdict" in traced
    missing = []
    for name in sorted(used | traced):
        module, _, attr = name.partition(".")
        if not hasattr(importlib.import_module(f"bellri.{module}"), attr):
            missing.append(name)
    assert missing == []


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
