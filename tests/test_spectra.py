"""Closed-form spectra, Bell decomposition, optimum search and sweeps."""

import math

import numpy as np
import pytest

from qorient import (
    BellState,
    OneParam,
    SettingTriple,
    TwoParam,
    bell_content_label,
    bell_decompose,
    bell_state_density,
    beta_value,
    closed_form_one_param,
    closed_form_two_param,
    find_optimum,
    numeric_spectrum,
    sweep_surface,
)
from qorient import spectra
from qorient.spectra import MAX_GRID_POINTS, _family_axis, _search_grid

DEG = np.pi / 180.0


class TestClosedFormTwoParam:
    def test_optimum_values(self):
        cf = closed_form_two_param(60 * DEG, -60 * DEG)
        assert abs(cf.lambda1 - 7.5) < 1e-9
        assert abs(cf.lambda2 - 1.5) < 1e-9

    def test_degenerate_pair_at_optimum(self):
        # |4uv - (u+v-1)^2| vanishes here, so both middle eigenvalues sit at 4.5
        cf = closed_form_two_param(60 * DEG, -60 * DEG)
        assert abs(cf.lambda3 - 4.5) < 1e-9
        assert abs(cf.lambda4 - 4.5) < 1e-9

    def test_degenerate_subspace_at_optimum(self):
        # the middle pair is degenerate at (60, -60) degrees: compare the
        # spanned subspace with span{psi+, phi-}, not the vectors
        spec = numeric_spectrum(TwoParam(60 * DEG, -60 * DEG))
        assert np.allclose(spec.eigenvalues, [7.5, 4.5, 4.5, 1.5], atol=1e-12)
        ours = spec.eigenvectors[:, 1:3]
        theirs = np.stack([BellState.PSI_PLUS.vector, BellState.PHI_MINUS.vector], axis=1)
        assert np.abs(ours @ ours.conj().T - theirs @ theirs.conj().T).max() < 1e-12

    def test_zero_angles(self):
        cf = closed_form_two_param(0.0, 0.0)
        assert abs(cf.lambda1 - 3.0) < 1e-12
        assert abs(cf.lambda2 - 6.0) < 1e-12
        assert np.allclose(np.sort(cf.as_array()), [3, 3, 6, 6], atol=1e-12)

    def test_pair_sums(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            phi, theta = rng.uniform(-np.pi, np.pi, size=2)
            cf = closed_form_two_param(phi, theta)
            assert abs(cf.lambda1 + cf.lambda2 - 9.0) < 1e-12
            assert abs(cf.lambda3 + cf.lambda4 - 9.0) < 1e-12
            assert abs(cf.as_array().sum() - 18.0) < 1e-12

    def test_array_inputs_broadcast_and_match_point_calls(self):
        rng = np.random.default_rng(7)
        phi, theta = rng.uniform(-np.pi, np.pi, size=(3, 1)), rng.uniform(-np.pi, np.pi, size=5)
        two = closed_form_two_param(phi, theta).as_array()
        one = closed_form_one_param(phi).as_array()
        assert two.shape == (3, 5, 4) and one.shape == (3, 1, 4)
        for i, j in np.ndindex(3, 5):
            assert np.array_equal(two[i, j], closed_form_two_param(phi[i, 0], theta[j]).as_array())
            assert np.array_equal(one[i, 0], closed_form_one_param(phi[i, 0]).as_array())

    @pytest.mark.parametrize("phi, theta, bad", [
        (math.nan, 0.1, "phi"), (0.1, math.inf, "theta"), (-math.inf, 0.1, "phi"),
        (np.array([0.1, math.nan, 0.3]), 0.2, "phi"),
        (np.zeros((2, 1)), np.array([0.0, -0.4, math.nan]), "theta"),
    ])
    def test_non_finite_parameter_refused(self, phi, theta, bad):
        with pytest.raises(ValueError, match=f"{bad} must be finite"):
            closed_form_two_param(phi, theta)

    def test_matches_numeric_on_random_points(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            phi, theta = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
            cf = closed_form_two_param(phi, theta)
            num = numeric_spectrum(TwoParam(phi, theta))
            assert np.abs(cf.sorted_descending() - num.eigenvalues).max() < 1e-8

    def test_grid_agreement_and_classical_ceiling(self):
        # compact version of the acceptance grid (full 181x181 runs there)
        axis = np.radians(np.linspace(-90, 90, 19))
        for phi in axis:
            for theta in axis:
                cf = closed_form_two_param(phi, theta)
                num = numeric_spectrum(TwoParam(phi, theta))
                assert np.abs(cf.sorted_descending() - num.eigenvalues).max() < 1e-8
                assert cf.lambda3 <= 7 + 1e-9
                assert cf.lambda4 <= 7 + 1e-9


class TestClosedFormOneParam:
    def test_at_60_degrees(self):
        cf = closed_form_one_param(60 * DEG)
        assert abs(cf.lambda1 - 7.5) < 1e-9
        assert abs(cf.lambda4 - 1.5) < 1e-12
        assert cf.eigenvector_labels == ("phi+", "psi+", "phi-", "psi-")

    def test_at_zero(self):
        cf = closed_form_one_param(0.0)
        assert np.allclose(cf.as_array(), [3, 6, 3, 6], atol=1e-12)

    def test_sum_is_trace(self):
        rng = np.random.default_rng(2)
        for theta in rng.uniform(-np.pi, np.pi, size=500):
            assert abs(closed_form_one_param(theta).as_array().sum() - 18.0) < 1e-12

    def test_matches_numeric(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-np.pi / 2, np.pi / 2, size=100):
            cf = closed_form_one_param(theta)
            num = numeric_spectrum(OneParam(theta))
            assert np.abs(cf.sorted_descending() - num.eigenvalues).max() < 1e-8

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf,
                                       np.array([0.1, math.nan, 0.3])])
    def test_non_finite_parameter_refused(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            closed_form_one_param(theta)

    def test_each_eigenvalue_has_its_bell_state(self):
        # away from degeneracies the eigenvector of each formula eigenvalue
        # is the fixed Bell state paired with it
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 50:
            theta = rng.uniform(-np.pi / 2, np.pi / 2)
            cf = closed_form_one_param(theta)
            lams = cf.as_array()
            num = numeric_spectrum(OneParam(theta))
            for k, label in enumerate(cf.eigenvector_labels):
                gaps = np.abs(np.delete(lams, k) - lams[k])
                if gaps.min() <= 1e-6:
                    continue
                j = int(np.argmin(np.abs(num.eigenvalues - lams[k])))
                vec = num.eigenvectors[:, j]
                bell = BellState.from_label(label)
                residual = np.linalg.norm(vec - np.vdot(bell.vector, vec) * bell.vector)
                assert residual < 1e-8
                checked += 1


class TestBellDecompose:
    def test_bell_vector_is_pure(self):
        dec = bell_decompose(BellState.PHI_PLUS.vector)
        assert np.allclose(np.abs(dec.amplitudes), [1, 0, 0, 0], atol=1e-15)
        assert dec.residual < 1e-12

    def test_product_ket_splits_evenly(self):
        # |HV> = (psi+ + psi-)/sqrt(2), basis order (phi+, phi-, psi+, psi-)
        hv = np.array([0, 1, 0, 0], dtype=complex)
        dec = bell_decompose(hv)
        assert np.allclose(np.abs(dec.amplitudes),
                           [0, 0, 1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_amplitudes_normalized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            dec = bell_decompose(v)
            assert abs(np.sum(np.abs(dec.amplitudes) ** 2) - 1.0) < 1e-10
            assert dec.residual <= 1e-10

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            bell_decompose(np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.0), complex(0.0, np.nan)])
    @pytest.mark.parametrize("slot", range(4))
    def test_nan_rejected(self, slot, bad):
        v = BellState.PHI_PLUS.vector.copy()
        v[slot] = bad
        for refuse in (bell_decompose, bell_content_label):
            with pytest.raises(ValueError, match="^expected a unit vector, got norm nan$"):
                refuse(v)

    def test_middle_eigenvectors_span_psi_plus_phi_minus(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 50:
            phi, theta = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
            cf = closed_form_two_param(phi, theta)
            lams = cf.as_array()
            num = numeric_spectrum(TwoParam(phi, theta))
            for k in (2, 3):  # the lambda3/lambda4 formulas
                gaps = np.abs(np.delete(lams, k) - lams[k])
                if gaps.min() <= 1e-6:
                    continue
                j = int(np.argmin(np.abs(num.eigenvalues - lams[k])))
                dec = bell_decompose(num.eigenvectors[:, j])
                assert dec.magnitude(BellState.PHI_PLUS) <= 1e-8
                assert dec.magnitude(BellState.PSI_MINUS) <= 1e-8
                checked += 1

    def test_content_label(self):
        assert bell_content_label(BellState.PSI_MINUS.vector) == "psi-"
        hv = np.array([0, 1, 0, 0], dtype=complex)
        assert bell_content_label(hv) == "span{psi+,psi-}"


class TestFindOptimum:
    def test_two_param_max(self):
        opt = find_optimum(TwoParam, "max")
        assert abs(opt.beta - 7.5) < 1e-9
        assert opt.state_label == "phi+"
        assert (60.0, -60.0) in opt.grid_candidates_deg

    def test_two_param_min(self):
        opt = find_optimum(TwoParam, "min")
        assert abs(opt.beta - 1.5) < 1e-9
        assert opt.state_label == "psi-"

    def test_one_param_max(self):
        opt = find_optimum(OneParam, "max")
        assert abs(opt.beta - 7.5) < 1e-9
        assert opt.state_label == "phi+"
        assert any(abs(abs(c[0]) - 60.0) < 1e-9 for c in opt.grid_candidates_deg)

    @pytest.mark.parametrize("family, objective, beta, angles, params, label, candidates", [
        (TwoParam, "max", "7.499999999999998",
         (0.0, -2.094395053273752, 2.0943951559417364),
         TwoParam(phi=-1.047197526636876, theta=1.0471975779708682),
         "phi+", ((-60.0, 60.0), (60.0, -60.0))),
        (TwoParam, "min", "1.5000000000000009",
         (0.0, -2.0943950720357094, 2.094395139917111),
         TwoParam(phi=-1.0471975360178547, theta=1.0471975699585554),
         "psi-", ((-60.0, 60.0), (60.0, -60.0))),
        (OneParam, "max", "7.5",
         (0.0, -2.0943950907976676, 2.0943950907976676),
         OneParam(theta=-1.0471975453988338), "phi+", ((-60.0,), (60.0,))),
        (OneParam, "min", "1.5000000000000004",
         (0.0, -2.0943950907976676, 2.0943950907976676),
         OneParam(theta=-1.0471975453988338), "psi-", ((-60.0,), (60.0,))),
    ])
    def test_result_is_frozen_bit_for_bit(self, family, objective, beta, angles, params,
                                          label, candidates):
        opt = find_optimum(family, objective)
        assert repr(opt.beta) == beta
        assert opt.settings.as_tuple() == angles
        assert opt.parametrization == params
        assert opt.state_label == label
        assert opt.grid_candidates_deg == candidates

    def test_settings_consistent_with_value(self):
        opt = find_optimum(TwoParam, "max")
        spec = numeric_spectrum(opt.settings)
        assert spec.eigenvalues[-1] - 1e-9 <= opt.beta <= spec.eigenvalues[0] + 1e-9
        assert abs(beta_value(bell_state_density(BellState.PHI_PLUS), opt.settings).beta
                   - opt.beta) < 1e-7

    def test_value_matches_sweep_grid_max(self):
        opt = find_optimum(TwoParam, "max")
        ds = sweep_surface(TwoParam, 181)
        grid_max = max(max(ds.column(c)) for c in ("lambda1", "lambda2",
                                                   "lambda3", "lambda4"))
        assert abs(opt.beta - grid_max) < 1e-9

    @pytest.mark.parametrize("objective", ["max", "min"])
    @pytest.mark.parametrize("closed_form, n_params", [(closed_form_two_param, 2),
                                                        (closed_form_one_param, 1)])
    def test_reflected_grid_equals_full_grid(self, closed_form, n_params, objective):
        pick = np.maximum if objective == "max" else np.minimum

        def extremal(*params):
            cf = closed_form(*params)
            return pick(pick(cf.lambda1, cf.lambda2), pick(cf.lambda3, cf.lambda4))

        axis_deg, values = _search_grid(extremal, n_params)
        full = extremal(*np.meshgrid(*[np.radians(axis_deg)] * n_params, indexing="ij",
                                     sparse=True))
        assert values.shape == full.shape == (361,) * n_params
        assert np.array_equal(values.view(np.int64), full.view(np.int64))

    @pytest.mark.parametrize("family, name, shape", [
        (TwoParam, "closed_form_two_param", (181, 1)),
        (OneParam, "closed_form_one_param", (181,)),
    ])
    def test_grid_is_evaluated_up_to_zero_only(self, monkeypatch, family, name, shape):
        closed_form = getattr(spectra, name)
        firsts = []

        def recording(*params):
            firsts.append(params[0])
            return closed_form(*params)

        monkeypatch.setattr(spectra, name, recording)
        find_optimum(family, "max")
        grid = [p for p in firsts if np.ndim(p)]
        # one grid call, on the 181 rows from -90 to 0 degrees; the rest are scalar probes
        assert len(grid) == 1
        assert np.shape(grid[0]) == shape
        assert np.degrees(grid[0]).min() == -90.0 and np.degrees(grid[0]).max() == 0.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="objective must be 'max' or 'min'"):
            find_optimum(TwoParam, "extremal")
        with pytest.raises(ValueError, match="objective must be 'max' or 'min'"):
            find_optimum(TwoParam, ["max"])
        with pytest.raises(ValueError, match="family must be the TwoParam or OneParam"):
            find_optimum(SettingTriple, "max")
        with pytest.raises(ValueError, match="family must be the TwoParam or OneParam"):
            find_optimum([TwoParam], "max")


class TestSweepSurface:
    def test_two_param_lambda_grid_shape(self):
        ds = sweep_surface(TwoParam, 5)
        assert ds.columns[:2] == ("phi_deg", "theta_deg")
        assert len(ds.rows) == 25

    def test_contains_the_optimum_row(self):
        ds = sweep_surface(TwoParam, 7)  # grid includes 60 and -60
        hit = [r for r in ds.rows if r[0] == 60.0 and r[1] == -60.0]
        assert len(hit) == 1
        assert abs(hit[0][ds.columns.index("lambda1")] - 7.5) < 1e-9

    def test_beta_sweep_matches_direct_evaluation(self):
        state = bell_state_density(BellState.PHI_MINUS)
        ds = sweep_surface(TwoParam, 5, state=state)
        assert ds.columns == ("phi_deg", "theta_deg", "beta")
        for row in ds.rows:
            fam = TwoParam(np.radians(row[0]), np.radians(row[1]))
            assert abs(row[2] - beta_value(state, fam.settings()).beta) < 1e-12

    def test_one_param_sweep_carries_labels(self):
        ds = sweep_surface(OneParam, 9)
        assert "state1" in ds.columns
        k = ds.columns.index("state1")
        assert all(row[k] == "phi+" for row in ds.rows)

    def test_numeric_columns_agree_with_closed_form(self):
        ds = sweep_surface(TwoParam, 5, include_numeric=True)
        for row in ds.rows:
            closed = sorted(row[2:6], reverse=True)
            numeric = list(row[6:10])
            assert np.abs(np.array(closed) - numeric).max() < 1e-8

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match=">= 2"):
            sweep_surface(TwoParam, 1)
        # the cap counts points, so it allows MAX_GRID_POINTS**(1/2) per axis in 2-D
        assert len(_family_axis(400, 2)) == 400 == math.isqrt(MAX_GRID_POINTS)
        assert len(_family_axis(MAX_GRID_POINTS, 1)) == MAX_GRID_POINTS

    def test_one_param_beta_sweep_min(self):
        state = bell_state_density(BellState.PSI_MINUS)
        ds = sweep_surface(OneParam, 7, state=state)
        beta_at_60 = [r for r in ds.rows if r[0] == 60.0]
        assert abs(beta_at_60[0][1] - 1.5) < 1e-9
