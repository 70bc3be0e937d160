"""Joint probabilities, correlators, the score functional and the game operator."""

import itertools

import numpy as np
import pytest

from qorient import (
    CLASSICAL_BOUND,
    MIXED_BETA,
    OPP_PAIRS,
    OPTIMAL_SETTINGS,
    PURE_MAX_BETA,
    BellState,
    QuantumState,
    SettingTriple,
    bell_state_density,
    beta_value,
    correlators,
    game_operator,
    hermitian_eigen,
    maximally_mixed,
    noisy_phi_plus,
    outcome_distribution,
)
from qorient.scoring import GAME_MATRIX

PHI_PLUS = bell_state_density(BellState.PHI_PLUS)
PSI_MINUS = bell_state_density(BellState.PSI_MINUS)
MIXED = maximally_mixed()
# outcome_distribution's last axis, order (++, +-, -+, --)
OUTCOME_INDEX = {(+1, +1): 0, (+1, -1): 1, (-1, +1): 2, (-1, -1): 3}


def random_settings(rng) -> SettingTriple:
    return SettingTriple(*rng.uniform(-np.pi, np.pi, size=3))


def random_bell_mixture(rng) -> QuantumState:
    weights = rng.dirichlet(np.ones(4))
    rho = sum(w * bell_state_density(b).rho for w, b in zip(weights, BellState))
    return QuantumState(rho)


class TestJointProbability:
    def test_phi_plus_aligned(self):
        # (1/2) cos^2(0/2), cross-checked by the trace formula it implements
        assert abs(outcome_distribution(PHI_PLUS, 0.0, 0.0)[0] - 0.5) < 1e-12

    def test_mixed_state_uniform(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sa, sb = rng.choice([+1, -1], size=2)
            ta, tb = rng.uniform(-np.pi, np.pi, size=2)
            p = outcome_distribution(MIXED, ta, tb)[OUTCOME_INDEX[sa, sb]]
            assert abs(p - 0.25) < 1e-12

    def test_phi_plus_at_120_degrees(self):
        # (1/2) cos^2(60 deg) = 1/8
        got = outcome_distribution(PHI_PLUS, 0.0, 2 * np.pi / 3)[0]
        assert abs(got - 0.125) < 1e-12

    def test_phi_plus_halved_angle_rule(self):
        rng = np.random.default_rng(1)
        ta, tb = rng.uniform(-np.pi, np.pi, size=(100, 2)).T
        expected = 0.5 * np.cos((ta - tb) / 2) ** 2
        assert np.abs(outcome_distribution(PHI_PLUS, ta, tb)[:, 0] - expected).max() < 1e-12

    def test_outcomes_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            state = random_bell_mixture(rng)
            ta, tb = rng.uniform(-np.pi, np.pi, size=2)
            assert abs(outcome_distribution(state, ta, tb).sum() - 1.0) < 1e-10

    def test_probabilities_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            state = random_bell_mixture(rng)
            sa, sb = rng.choice([+1, -1], size=2)
            ta, tb = rng.uniform(-np.pi, np.pi, size=2)
            p = outcome_distribution(state, ta, tb)[OUTCOME_INDEX[sa, sb]]
            assert -1e-9 <= p <= 1 + 1e-9


class TestSameOpposite:
    """p_same = (1 + E(t, t)) / 2 and p_opp = (1 - E(t_i, t_j)) / 2."""

    def test_phi_plus_always_agrees_on_equal_settings(self):
        rng = np.random.default_rng(4)
        theta = rng.uniform(-np.pi, np.pi, size=100)
        p_same = (1.0 + correlators(PHI_PLUS, theta, theta)) / 2.0
        assert np.abs(p_same - 1.0).max() < 1e-12

    def test_phi_plus_opp_at_120(self):
        # sin^2(60 deg) = 3/4
        assert abs((1.0 - correlators(PHI_PLUS, 0.0, 2 * np.pi / 3)) / 2.0 - 0.75) < 1e-12

    def test_mixed_state_coin_flip(self):
        rng = np.random.default_rng(5)
        theta = rng.uniform(-np.pi, np.pi, size=50)
        p_same = (1.0 + correlators(MIXED, theta, theta)) / 2.0
        assert np.abs(p_same - 0.5).max() < 1e-12


class TestGameOperator:
    def test_trace_is_18_everywhere(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            op = game_operator(random_settings(rng))
            assert abs(np.trace(op).real - 18.0) < 1e-9

    def test_hermitian(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            op = game_operator(random_settings(rng))
            assert np.abs(op - op.conj().T).max() < 1e-12

    def test_top_eigenvalue_at_optimum(self):
        spec = hermitian_eigen(game_operator(OPTIMAL_SETTINGS))
        assert abs(spec.eigenvalues[0] - 7.5) < 1e-9

    def test_all_settings_zero(self):
        # collapses to 3*(same terms) + 6*(cross terms); spectrum {6, 6, 3, 3}
        spec = hermitian_eigen(game_operator(SettingTriple(0.0, 0.0, 0.0)))
        assert np.allclose(np.sort(spec.eigenvalues), [3, 3, 6, 6], atol=1e-12)


class TestBetaValue:
    def test_phi_plus_at_optimum(self):
        b = beta_value(PHI_PLUS, OPTIMAL_SETTINGS)
        assert abs(b.beta - 7.5) < 1e-9
        assert abs(b.success_probability - 7.5 / 9) < 1e-12

    def test_mixed_state_baseline(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            b = beta_value(MIXED, random_settings(rng))
            assert abs(b.beta - MIXED_BETA) < 1e-12

    def test_psi_minus_at_optimum(self):
        assert abs(beta_value(PSI_MINUS, OPTIMAL_SETTINGS).beta - 1.5) < 1e-9

    def test_breakdown_sums(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            state = random_bell_mixture(rng)
            b = beta_value(state, random_settings(rng))
            assert abs(b.beta - (sum(b.p_same) + sum(b.p_opp))) < 1e-12
            assert abs(b.success_probability - b.beta / 9) < 1e-12
            assert len(b.p_same) == 3 and len(b.p_opp) == len(OPP_PAIRS)
            for p in b.p_same + b.p_opp:
                assert -1e-9 <= p <= 1 + 1e-9

    def test_matches_operator_expectation(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            state = random_bell_mixture(rng)
            settings = random_settings(rng)
            via_terms = beta_value(state, settings).beta
            via_operator = np.trace(state.rho @ game_operator(settings)).real
            assert abs(via_terms - via_operator) < 1e-10

    def test_linear_in_the_state(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s1 = random_bell_mixture(rng)
            s2 = random_bell_mixture(rng)
            settings = random_settings(rng)
            w = rng.uniform()
            mixed = s1.mix(s2, w)
            expected = w * beta_value(s1, settings).beta + (1 - w) * beta_value(s2, settings).beta
            assert abs(beta_value(mixed, settings).beta - expected) < 1e-10

    def test_bounded_by_spectrum(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            state = random_bell_mixture(rng)
            settings = random_settings(rng)
            spec = hermitian_eigen(game_operator(settings))
            b = beta_value(state, settings).beta
            assert spec.eigenvalues[-1] - 1e-9 <= b <= spec.eigenvalues[0] + 1e-9

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 0.98, 1.0])
    def test_noise_line(self, p):
        b = beta_value(noisy_phi_plus(p), OPTIMAL_SETTINGS).beta
        assert abs(b - (4.5 + 3 * p)) < 1e-9

    def test_accepts_parametrization_families(self):
        from qorient import TwoParam
        direct = beta_value(PHI_PLUS, SettingTriple.from_degrees(0, 120, -120)).beta
        via_family = beta_value(PHI_PLUS, TwoParam(np.radians(60), np.radians(-60))).beta
        assert abs(direct - via_family) < 1e-12


class TestGameMatrix:
    """The score is ``4.5 + <M, E> / 2`` with ``M = 2I - J``. For any quantum
    strategy Tsirelson's theorem gives ``E_ij = u_i . v_j`` for unit vectors,
    so ``<M, E> <= ||M||_2 ||U||_F ||V||_F = 3 ||M||_2``; a deterministic
    strategy has ``E = a b^T`` for sign vectors a and b."""

    def test_spectral_norm_gives_the_quantum_optimum(self):
        assert 4.5 + 3 * np.linalg.norm(GAME_MATRIX, 2) / 2 == PURE_MAX_BETA

    def test_sign_vectors_give_the_classical_bound(self):
        signs = np.array(list(itertools.product((1, -1), repeat=3)))
        assert 4.5 + (signs @ GAME_MATRIX @ signs.T).max() / 2 == CLASSICAL_BOUND
