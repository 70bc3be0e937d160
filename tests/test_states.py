"""Measurement settings, Bell states, density matrices and noisy mixtures."""

import math
import re

import numpy as np
import pytest

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

    @pytest.mark.parametrize("rho, message", [
        (np.eye(2) / 2, "expected a 4x4 density matrix, got shape (2, 2)"),
        (np.array([np.eye(4) / 4] * 2), "expected a 4x4 density matrix, got shape (2, 4, 4)"),
        (np.diag([np.nan, 0.5, 0.25, 0.25]), "matrix entries must be finite"),
        (np.diag([np.inf, 0.0, 0.0, 0.0]), "matrix entries must be finite"),
        (np.full((4, 3), np.nan), "expected a 4x4 density matrix, got shape (4, 3)"),
    ], ids=["2x2", "stack", "nan", "inf", "nan-4x3"])
    @pytest.mark.filterwarnings("error")  # refused without a RuntimeWarning
    def test_refused_with_one_value_error(self, rho, message):
        with pytest.raises(ValueError) as exc:
            QuantumState(rho)
        assert str(exc.value) == message and exc.value.__context__ is None

    @pytest.mark.filterwarnings("error")  # refused without a RuntimeWarning
    @pytest.mark.parametrize("bad", [np.nan, complex(0, np.nan), np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (3, 3), (1, 2)])
    def test_one_non_finite_entry(self, bad, where):
        # nan or inf on or off the diagonal of an otherwise valid state; a
        # non-Hermitian entry elsewhere does not change the message
        rho = np.eye(4, dtype=complex) / 4
        rho[where] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            QuantumState(rho)
        rho[0, 3] = 1.0
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            QuantumState(rho)

    def test_hermiticity_tolerance_boundary(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 2e-10
        with pytest.raises(ValueError, match="^" + re.escape(
                "QuantumState requires a Hermitian matrix (defect 2.000e-10 > 1e-10)") + "$"):
            QuantumState(rho)
        rho[0, 1] = 1e-10  # a defect at the tolerance is accepted
        QuantumState(rho)

    def test_mix(self):
        mixed = QuantumState(0.5 * bell_state_density(BellState.PHI_PLUS).rho
                             + 0.5 * maximally_mixed().rho)
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
        eigenvalues = np.linalg.eigvalsh(noisy_phi_plus(p).rho)[::-1]
        expected = sorted([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3, reverse=True)
        assert np.abs(eigenvalues - expected).max() < 1e-10


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

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="^expected a unit vector, got norm nan$"):
            pure_state(np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_bell_basis_order_is_canonical(self):
        assert [b.value for b in BELL_BASIS_ORDER] == ["phi+", "phi-", "psi+", "psi-"]
