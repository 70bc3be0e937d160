"""The public surface that the benchmark and the demos call by name.

A deletion or a changed result shape must fail here before it breaks them.
"""

import numpy as np

import qorient as q


def test_every_exported_name_resolves():
    assert [name for name in q.__all__ if not hasattr(q, name)] == []


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
