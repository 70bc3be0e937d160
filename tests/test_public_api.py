"""The public surface that the benchmark and the demos call by name.

A deletion or a changed result shape must fail here before it breaks them,
and an export that no shipped code uses fails here too.
"""

import ast
from pathlib import Path

import numpy as np

import qorient as q

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qorient"


def test_every_exported_name_resolves():
    assert [name for name in q.__all__ if not hasattr(q, name)] == []


def test_every_export_has_a_shipped_caller():
    """Each name in __all__ is read, as a name or an attribute, somewhere in
    the package (outside __init__.py), the demos or the benchmark."""
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(q.__all__) - used) == []


def test_single_point_result_shapes():
    phi_plus, optimum = q.bell_state_density(q.BellState.PHI_PLUS), q.OPTIMAL_SETTINGS
    assert q.closed_form_two_param(0.3, -0.7).as_array().shape == (4,)
    assert q.closed_form_one_param(0.3).as_array().shape == (4,)
    spec = q.numeric_spectrum(q.TwoParam(0.3, -0.7))
    assert spec.eigenvalues.shape == (4,) and spec.eigenvectors.shape == (4, 4)
    assert q.game_operator(optimum).shape == (4, 4)
    assert isinstance(q.beta_value(phi_plus, optimum).beta, float)
    trial = q.sample_trial(phi_plus, optimum, np.random.default_rng(0))
    assert isinstance(trial, q.TrialRecord)
