"""The public surface that the benchmark and the demos call by name.

A deletion or a changed result shape must fail here before it breaks them,
and an export that no shipped code uses fails here too.
"""

import ast
from pathlib import Path
from types import FunctionType

import numpy as np

import qorient as q

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qorient"


def test_every_exported_name_resolves():
    assert [name for name in q.__all__ if not hasattr(q, name)] == []


# public members that only the acceptance tests read
READ_BY_ACCEPTANCE_TESTS = {
    "BellDecomposition.magnitude": "criterion 6 reads foreign Bell amplitudes",
}


def test_every_export_has_a_shipped_caller():
    """Each name in __all__, and each public method and property of an
    exported class, is read somewhere in the package (outside
    __init__.py), the demos or the benchmark: an export as a name or an
    attribute, a member as an attribute or as the name string of a
    ``getattr`` call (a local variable of the same name does not count)."""
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    names, attrs = set(), set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                attrs.add(node.args[1].value)
    members = {f"{name}.{attr}": attr
               for name in q.__all__ if isinstance(getattr(q, name), type)
               for attr, value in vars(getattr(q, name)).items()
               if not attr.startswith("_")
               and isinstance(value, (property, classmethod, staticmethod, FunctionType))}
    unread = {member for member, attr in members.items() if attr not in attrs}
    assert sorted(set(q.__all__) - names - attrs) == []
    assert sorted(unread - READ_BY_ACCEPTANCE_TESTS.keys()) == []
    assert sorted(READ_BY_ACCEPTANCE_TESTS.keys() - unread) == []  # no stale entry


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
