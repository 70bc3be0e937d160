"""Projectors, polarization kets, Bell states and noisy mixtures."""

import math

import numpy as np
import pytest

from qorient import hermitian_eigen
from qorient.linalg import IDENTITY_2
from qorient.states import (
    BELL_BASIS_ORDER,
    BellState,
    OneParam,
    QuantumState,
    SettingTriple,
    TwoParam,
    bell_state_density,
    maximally_mixed,
    noisy_phi_plus,
    polarization_ket,
    projector,
    pure_state,
    superpose,
)


class TestSettings:
    def test_degrees_round_trip(self):
        s = SettingTriple.from_degrees(0.0, 120.0, -120.0)
        assert np.allclose(s.as_degrees(), (0.0, 120.0, -120.0))

    def test_two_param_expansion(self):
        s = TwoParam(phi=0.3, theta=-0.4).settings()
        assert s.as_tuple() == (0.0, 0.6, -0.8)

    def test_one_param_expansion(self):
        s = OneParam(theta=0.25).settings()
        assert s.as_tuple() == (0.0, 0.5, -0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SettingTriple(0.0, float("nan"), 1.0)

    def test_angles_are_stored_as_float(self):
        s = SettingTriple("0.5", np.float32(0.25), 1)
        assert s.as_tuple() == (0.5, 0.25, 1.0)
        assert [type(t) for t in s.as_tuple()] == [float] * 3
        assert s.as_degrees() == (math.degrees(0.5), math.degrees(0.25), math.degrees(1.0))


class TestProjector:
    def test_plus_along_z(self):
        assert np.allclose(projector(+1, 0.0), np.diag([1.0, 0.0]), atol=1e-15)

    def test_minus_along_z(self):
        assert np.allclose(projector(-1, 0.0), np.diag([0.0, 1.0]), atol=1e-15)

    def test_plus_along_x(self):
        # (I + sigma_x)/2 by direct substitution at theta = pi/2
        assert np.allclose(projector(+1, np.pi / 2), 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_completeness(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-10, 10, size=1000):
            total = projector(+1, theta) + projector(-1, theta)
            assert np.abs(total - IDENTITY_2).max() < 1e-15

    def test_idempotent_and_orthogonal(self):
        rng = np.random.default_rng(1)
        for theta in rng.uniform(-10, 10, size=200):
            for sign in (+1, -1):
                p = projector(sign, theta)
                assert np.abs(p @ p - p).max() < 1e-12
            cross = projector(+1, theta) @ projector(-1, theta)
            assert np.abs(cross).max() < 1e-12

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            projector(0, 0.0)


class TestPolarizationKet:
    def test_h_ket(self):
        assert np.allclose(polarization_ket(+1, 0.0), [1.0, 0.0], atol=0)

    def test_perpendicular_at_zero(self):
        # sin(0)|H> - cos(0)|V>
        assert np.allclose(polarization_ket(-1, 0.0), [0.0, -1.0], atol=0)

    def test_diagonal_basis(self):
        v = polarization_ket(+1, np.pi / 2)
        assert np.allclose(v, [np.cos(np.pi / 4), np.sin(np.pi / 4)], atol=1e-15)

    def test_outer_product_equals_projector(self):
        rng = np.random.default_rng(2)
        for theta in rng.uniform(-10, 10, size=100):
            ket = polarization_ket(+1, 2 * theta)
            outer = np.outer(ket, ket.conj())
            assert np.abs(outer - projector(+1, 2 * theta)).max() < 1e-12

    def test_orthonormal_pair(self):
        rng = np.random.default_rng(3)
        for two_theta in rng.uniform(-10, 10, size=100):
            plus = polarization_ket(+1, two_theta)
            minus = polarization_ket(-1, two_theta)
            assert abs(np.vdot(plus, plus) - 1) < 1e-15
            assert abs(np.vdot(minus, minus) - 1) < 1e-15
            assert abs(np.vdot(plus, minus)) < 1e-15


class TestBellStates:
    def test_phi_plus_density_entries(self):
        rho = bell_state_density(BellState.PHI_PLUS).rho
        expected = np.zeros((4, 4))
        for r, c in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expected[r, c] = 0.5
        assert np.allclose(rho, expected, atol=0)

    def test_psi_minus_density_entries(self):
        rho = bell_state_density(BellState.PSI_MINUS).rho
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        assert np.allclose(rho, expected, atol=0)

    @pytest.mark.parametrize("label", list(BellState))
    def test_unit_trace(self, label):
        assert abs(np.trace(bell_state_density(label).rho) - 1.0) < 1e-15

    def test_mutually_orthogonal(self):
        for a in BellState:
            for b in BellState:
                overlap = np.trace(bell_state_density(a).rho @ bell_state_density(b).rho).real
                assert abs(overlap - (1.0 if a is b else 0.0)) < 1e-12

    def test_from_label(self):
        assert BellState.from_label(" PHI+ ") is BellState.PHI_PLUS
        with pytest.raises(ValueError, match="unknown Bell state"):
            BellState.from_label("phi")


class TestQuantumState:
    def test_non_hermitian_rejected(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 1] = 1.0
        rho[0, 0] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            QuantumState(rho)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            QuantumState(np.eye(4, dtype=complex))

    def test_negative_rejected(self):
        rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            QuantumState(rho)

    def test_mix(self):
        mixed = bell_state_density(BellState.PHI_PLUS).mix(maximally_mixed(), 0.5)
        assert abs(np.trace(mixed.rho) - 1.0) < 1e-12


class TestNoisyPhiPlus:
    def test_endpoints(self):
        assert np.allclose(noisy_phi_plus(1.0).rho,
                           bell_state_density(BellState.PHI_PLUS).rho, atol=0)
        assert np.allclose(noisy_phi_plus(0.0).rho, np.eye(4) / 4, atol=0)

    def test_out_of_range_rejected(self):
        for p in (-0.01, 1.01):
            with pytest.raises(ValueError):
                noisy_phi_plus(p)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 0.98, 1.0])
    def test_eigenvalues(self, p):
        spec = hermitian_eigen(noisy_phi_plus(p).rho)
        expected = sorted([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3, reverse=True)
        assert np.abs(spec.eigenvalues - expected).max() < 1e-10


class TestSuperpose:
    def test_endpoint_states(self):
        got = superpose(BellState.PSI_PLUS, BellState.PHI_MINUS, 1.0, 0.0)
        assert np.allclose(got.rho, bell_state_density(BellState.PSI_PLUS).rho, atol=0)
        got = superpose(BellState.PSI_PLUS, BellState.PHI_MINUS, 0.0, 1.0)
        assert np.allclose(got.rho, bell_state_density(BellState.PHI_MINUS).rho, atol=0)

    def test_balanced_is_pure(self):
        amp = 1.0 / np.sqrt(2)
        rho = superpose(BellState.PSI_PLUS, BellState.PHI_MINUS, amp, amp).rho
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="!= 1"):
            superpose(BellState.PSI_PLUS, BellState.PHI_MINUS, 1.0, 1.0)

    def test_same_state_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            superpose(BellState.PSI_PLUS, BellState.PSI_PLUS, 1.0, 0.0)

    def test_complex_amplitudes(self):
        rho = superpose(BellState.PSI_PLUS, BellState.PHI_MINUS, 0.6j, 0.8).rho
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


class TestPureState:
    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            pure_state(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_bell_basis_order_is_canonical(self):
        assert [b.value for b in BELL_BASIS_ORDER] == ["phi+", "phi-", "psi+", "psi-"]
