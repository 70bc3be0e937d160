"""Quantum scoring of the orientation game.

Both players pick one of three paths; the score credits matching
directions on the same path and opposite directions on different paths.
With ``E_ij`` the correlator of paths i and j, term ij is won with
probability ``(1 + M_ij E_ij) / 2`` for the sign matrix ``M = 2I - J``,
so the Bell-type score over the 9 terms is ``beta = 4.5 + <M, E> / 2``,
with success probability beta / 9. It is the expectation of a single
self-adjoint game operator, which is what makes the min-max eigenvalue
analysis in :mod:`qorient.spectra` work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import Parametrization, QuantumState

N_TERMS = 9  # 3 same-path + 6 ordered cross-path
CLASSICAL_BOUND = 7.0

# M = 2I - J, the sign of term ij; its -1 entries in row-major order are the
# ordered cross-path pairs OPP_PAIRS, the order of BetaBreakdown.p_opp
GAME_MATRIX = 2 * np.eye(3, dtype=np.int64) - 1
OPP_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))

OPERATOR_TRACE = 18.0  # 18 terms, each a product of two unit-trace projectors
MIXED_BETA = OPERATOR_TRACE / 4.0  # score of the maximally mixed state, any settings
PURE_MAX_BETA = 7.5  # top of the spectrum over all settings (reached by phi+)

# tau_k (x) tau_l for tau = (I, X, Z): contracting rho with these gives its
# local Bloch components and correlations in the x-z plane
_TAU = (linalg.IDENTITY_2, linalg.PAULI_X, linalg.PAULI_Z)
_PAULI_PAIRS = np.array([[np.kron(p, q) for q in _TAU] for p in _TAU])
# sigma_k (x) sigma_l for k, l in (x, z), flattened to (4, 16); all four are
# real, and each of the 16 entries is nonzero (+-1) in exactly one of them
_XZ_PAIRS = _PAULI_PAIRS[1:, 1:].reshape(4, 16).real.copy()
# the constant term of every game operator
_MIXED_OPERATOR = MIXED_BETA * linalg.IDENTITY_4.real
# outcome signs of Alice and Bob in the order (++, +-, -+, --)
_SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])


@dataclass(frozen=True)
class BetaBreakdown:
    """Per-term scores: 3 same-path, 6 cross-path (OPP_PAIRS order)."""

    p_same: tuple[float, float, float]
    p_opp: tuple[float, float, float, float, float, float]
    beta: float
    success_probability: float

    @classmethod
    def from_wins(cls, wins) -> "BetaBreakdown":
        """From the (3, 3) table of per-term win probabilities."""
        p_same = tuple(wins[GAME_MATRIX > 0].tolist())
        p_opp = tuple(wins[GAME_MATRIX < 0].tolist())
        beta = sum(p_same) + sum(p_opp)
        return cls(p_same=p_same, p_opp=p_opp, beta=beta,
                   success_probability=beta / N_TERMS)


def _directions(theta) -> np.ndarray:
    """x-z components (sin, cos) of n(theta), for an angle array: shape (..., 2)."""
    theta = np.asarray(theta, dtype=float)
    n = np.empty(theta.shape + (2,))
    np.sin(theta, out=n[..., 0])
    np.cos(theta, out=n[..., 1])
    return n


def _bloch_components(state: QuantumState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x-z blocks of rho's Bloch data: Alice's vector a, Bob's b, correlations T.

    ``a_k = tr(rho sigma_k (x) I)``, ``b_k = tr(rho I (x) sigma_k)`` and
    ``T_kl = tr(rho sigma_k (x) sigma_l)`` for k, l in (x, z). Every
    Born-rule number of the game depends on rho only through these.
    """
    block = np.einsum("klxy,yx->kl", _PAULI_PAIRS, state.rho).real
    return block[1:, 0], block[0, 1:], block[1:, 1:]


def correlators(state: QuantumState, theta_a, theta_b) -> np.ndarray:
    """Correlators E = tr(rho [A(theta_a) (x) A(theta_b)]) = n_a . T . n_b.

    ``theta_a`` and ``theta_b`` broadcast against each other, and so
    does the result; for the three settings of a triple ``t`` the
    correlation matrix ``E = N T N^T`` is
    ``correlators(state, t[..., :, None], t[..., None, :])``.
    """
    _, _, t = _bloch_components(state)
    return np.einsum("...k,kl,...l->...", _directions(theta_a), t, _directions(theta_b))


def outcome_distribution(state: QuantumState, theta_a, theta_b) -> np.ndarray:
    """Joint outcome probabilities at angle pairs, order (++, +-, -+, --).

    ``theta_a`` and ``theta_b`` broadcast against each other; the result
    has their broadcast shape plus a trailing axis of 4. Each entry is
    ``(1 + s_a a.n_a + s_b b.n_b + s_a s_b E) / 4``, which is
    ``tr(rho [A_sa(ta) (x) A_sb(tb)])`` expanded over the Pauli basis.
    """
    a, b, t = _bloch_components(state)
    n_a, n_b = _directions(theta_a), _directions(theta_b)
    local_a = (n_a @ a)[..., None]
    local_b = (n_b @ b)[..., None]
    # correlators' einsum, so that E keeps its bits
    corr = np.einsum("...k,kl,...l->...", n_a, t, n_b)[..., None]
    return (1.0 + _SIGN_A * local_a + _SIGN_B * local_b + _SIGN_A * _SIGN_B * corr) / 4.0


def _wins(state: QuantumState, angles) -> np.ndarray:
    """Per-term win probabilities ``(1 + M_ij E_ij) / 2``, shape (..., 3, 3).

    ``E = N T N^T`` is the correlation matrix at setting angles of shape
    (..., 3) and M is ``GAME_MATRIX``.
    """
    angles = np.asarray(angles, dtype=float)
    e = correlators(state, angles[..., :, None], angles[..., None, :])
    return (1.0 + GAME_MATRIX * e) / 2.0


def beta_grid(state: QuantumState, angles) -> np.ndarray:
    """Score at setting angles of shape (..., 3): ``beta_value`` over a grid.

    The same-path wins summed, plus the cross-path wins summed in
    OPP_PAIRS order. Equal to ``4.5 + <M, E> / 2`` up to rounding.
    """
    wins = _wins(state, angles)
    return wins[..., GAME_MATRIX > 0].sum(axis=-1) + wins[..., GAME_MATRIX < 0].sum(axis=-1)


def game_operators(angles) -> np.ndarray:
    """Game operators for setting angles of shape (..., 3), shape (..., 4, 4).

    ``G = 4.5 I + (2 sum_i A_i (x) A_i - S (x) S) / 2`` with
    ``A_i = sin(t_i) X + cos(t_i) Z`` and ``S = sum_i A_i``: the 18
    projector products (equal signs on equal paths, unequal signs on the
    6 ordered unequal path pairs) collected over the Pauli basis. Its
    trace is 18 for any settings. With N the (..., 3, 2) matrix of x-z
    directions, ``A_i (x) A_j = sum_kl N_ik N_jl sigma_k (x) sigma_l``,
    so the bracket is ``sum_kl K_kl sigma_k (x) sigma_l`` with the 2x2
    ``K = 2 N^T N - (N^T 1)(N^T 1)^T = N^T M N``, built in the first
    form: the matmul rounds differently, and G's bits are pinned.

    Each entry is 4.5 (on the diagonal) or 0, plus one ``+-K_kl / 2``,
    so G is real. It is returned as complex128 all the same: ``eigh``
    of a real matrix runs another LAPACK routine, whose eigenvalues
    differ from the complex one's in the last bits.
    """
    n = _directions(angles)
    total = n.sum(axis=-2)
    k = 2.0 * (np.swapaxes(n, -1, -2) @ n) - total[..., :, None] * total[..., None, :]
    pairs = k.reshape(k.shape[:-2] + (4,)) @ _XZ_PAIRS
    g = _MIXED_OPERATOR + pairs.reshape(pairs.shape[:-1] + (4, 4)) / 2.0
    return g.astype(complex)


def game_operator(settings: Parametrization) -> np.ndarray:
    """The self-adjoint operator whose expectation in rho equals beta.

    ``game_operators`` at the single setting triple of ``settings``.
    """
    return game_operators(settings.settings().as_tuple())


def beta_value(state: QuantumState, settings: Parametrization) -> BetaBreakdown:
    """Score the state at the given settings, term by term (see ``_wins``)."""
    return BetaBreakdown.from_wins(_wins(state, settings.settings().as_tuple()))
