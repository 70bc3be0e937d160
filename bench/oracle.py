"""Independent numpy reference for the benchmark's correctness checks.

Nothing here imports qorient. The game operator is rebuilt from its
definition, the sum of 18 Kronecker products of spin projectors; scores
come from the correlator identity
``beta = 4.5 + (2*sum_i E_ii - sum_ij E_ij)/2`` with
``E_ij = tr(rho (n_i.sigma x n_j.sigma))``; states are rebuilt from their
spec strings. Values are compared to an absolute tolerance, never by
byte hashes, so a change that moves the last printed digit still passes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TOL = 1e-9
SUMMARY_RTOL = 1e-8  # summaries print 9 significant digits

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

_H = 1.0 / math.sqrt(2.0)
BELL = {
    "phi+": np.array([_H, 0, 0, _H], dtype=complex),
    "phi-": np.array([_H, 0, 0, -_H], dtype=complex),
    "psi+": np.array([0, _H, _H, 0], dtype=complex),
    "psi-": np.array([0, _H, -_H, 0], dtype=complex),
}
BELL_ORDER = ("phi+", "phi-", "psi+", "psi-")
# eigenvector of each formula-order eigenvalue in the one-parameter family
ONE_PARAM_LABELS = ("phi+", "psi+", "phi-", "psi-")
OPP_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
OPERATOR_TRACE = 18.0
SPECTRUM_MAX = 7.5
SPECTRUM_MIN = 1.5
CLASSICAL_MAX = 7


class CheckFailed(Exception):
    """An output disagrees with the reference."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(got, want, what: str, tol: float = TOL) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    expect(err <= tol, f"{what}: off by {err:.3e} (tolerance {tol:.0e})")


def close_summary(printed: float, value: float, what: str) -> None:
    err = abs(printed - value)
    expect(err <= SUMMARY_RTOL * max(1.0, abs(value)),
           f"summary {what} {printed!r} != dataset value {value!r}")


def spin(angles) -> np.ndarray:
    """n(theta).sigma in the x-z plane, for an array of angles."""
    a = np.asarray(angles, dtype=float)[..., None, None]
    return np.sin(a) * SIGMA_X + np.cos(a) * SIGMA_Z


def kron(a, b) -> np.ndarray:
    """Batched Kronecker product of (..., 2, 2) arrays."""
    return np.einsum("...ij,...kl->...ikjl", a, b).reshape(np.broadcast_shapes(
        a.shape[:-2], b.shape[:-2]) + (4, 4))


def operator(angles) -> np.ndarray:
    """Game operator for settings of shape (..., 3): equal signs on equal
    paths plus unequal signs on the six ordered unequal path pairs."""
    spins = spin(angles)
    plus = [(I2 + spins[..., i, :, :]) / 2 for i in range(3)]
    minus = [(I2 - spins[..., i, :, :]) / 2 for i in range(3)]
    g = np.zeros(spins.shape[:-3] + (4, 4), dtype=complex)
    for i in range(3):
        g += kron(plus[i], plus[i]) + kron(minus[i], minus[i])
    for i, j in OPP_PAIRS:
        g += kron(plus[i], minus[j]) + kron(minus[i], plus[j])
    return g


def correlators(rho, angles) -> np.ndarray:
    """E_ij = tr(rho (A_i x A_j)) for settings of shape (..., 3)."""
    spins = spin(angles)
    pairs = np.einsum("...iab,...jcd->...ijacbd", spins, spins)
    pairs = pairs.reshape(spins.shape[:-3] + (3, 3, 4, 4))
    return np.einsum("...ijxy,yx->...ij", pairs, rho).real


def score(rho, angles) -> np.ndarray:
    """Beta by the correlator identity."""
    e = correlators(rho, angles)
    return 4.5 + (2.0 * np.trace(e, axis1=-2, axis2=-1) - e.sum(axis=(-2, -1))) / 2.0


def born(rho, sign_a: int, theta_a: float, sign_b: int, theta_b: float) -> float:
    """Probability of the outcome pair (sign_a, sign_b)."""
    pa = (I2 + sign_a * spin(theta_a)) / 2
    pb = (I2 + sign_b * spin(theta_b)) / 2
    return float(np.trace(rho @ kron(pa, pb)).real)


def terms(rho, angles) -> tuple[list[float], list[float]]:
    """Same-path and ordered cross-path success probabilities."""
    same = [born(rho, +1, t, +1, t) + born(rho, -1, t, -1, t) for t in angles]
    opp = [born(rho, +1, angles[i], -1, angles[j]) + born(rho, -1, angles[i], +1, angles[j])
           for i, j in OPP_PAIRS]
    return same, opp


def family_angles(family: str, *params) -> np.ndarray:
    """Setting angles (radians) of the two-parameter family (0, 2phi, 2theta)
    or the one-parameter family (0, 2theta, -2theta)."""
    if family == "two":
        phi, theta = (np.asarray(p, dtype=float) for p in params)
        return np.stack(np.broadcast_arrays(np.zeros_like(phi), 2 * phi, 2 * theta), axis=-1)
    (theta,) = (np.asarray(p, dtype=float) for p in params)
    return np.stack([np.zeros_like(theta), 2 * theta, -2 * theta], axis=-1)


def pure(vector) -> np.ndarray:
    return np.outer(vector, np.conj(vector))


def noisy(p: float) -> np.ndarray:
    return p * pure(BELL["phi+"]) + (1.0 - p) / 4.0 * np.eye(4)


def state(spec: str) -> np.ndarray:
    """Density matrix of a CLI state spec: label | noisy:P | superpose:A,B,AMP."""
    if spec.startswith("noisy:"):
        return noisy(float(spec.removeprefix("noisy:")))
    if spec.startswith("superpose:"):
        a, b, amp = spec.removeprefix("superpose:").split(",")
        amp = float(amp)
        return pure(amp * BELL[a] + math.sqrt(1.0 - amp * amp) * BELL[b])
    return pure(BELL[spec])


def bell_label(vector, tol: float = 1e-6) -> str:
    names = [b for b in BELL_ORDER if abs(np.vdot(BELL[b], vector)) > tol]
    return names[0] if len(names) == 1 else "span{" + ",".join(names) + "}"


def classical_scores() -> dict:
    """Score of every deterministic (alice, bob) sign-triple pair, in
    product order with +1 first."""
    scored = {}
    for a in itertools.product((1, -1), repeat=3):
        for b in itertools.product((1, -1), repeat=3):
            same = sum(a[i] == b[i] for i in range(3))
            opp = sum(a[i] != b[j] for i, j in OPP_PAIRS)
            scored[(a, b)] = same + opp
    return scored


def check_counts(cells, n_per_pair: int, rho, angles, what: str) -> float:
    """Coincidence counts of shape (3, 3, 4), ordered (++, +-, -+, --):
    whole, with fixed pair totals, and giving a beta within 5 standard
    errors of the Born-rule value. Returns the reconstructed beta."""
    cells = np.asarray(cells, dtype=float)
    expect(cells.shape == (3, 3, 4), f"{what}: shape {cells.shape}")
    expect(np.all(cells >= 0) and np.all(cells == np.round(cells)), f"{what} not whole")
    expect(np.all(cells.sum(axis=2) == n_per_pair), f"{what} pair totals")
    same, opp = terms(rho, angles)
    probs = np.array(same + opp)
    hat = ([(cells[i, i, 0] + cells[i, i, 3]) / n_per_pair for i in range(3)]
           + [(cells[i, j, 1] + cells[i, j, 2]) / n_per_pair for i, j in OPP_PAIRS])
    beta_hat, beta = float(sum(hat)), float(probs.sum())
    sigma = math.sqrt(float(np.sum(probs * (1.0 - probs))) / n_per_pair)
    expect(abs(beta_hat - beta) <= 5.0 * sigma + TOL,
           f"{what}: beta {beta_hat} vs Born rule {beta} (sigma {sigma:.2e})")
    return beta_hat


def check_spectrum(lambdas, angles, what: str) -> None:
    """Eigenvalues (any order) against eigvalsh of the reference operator;
    rows must also sum to the operator trace 18."""
    lam = np.asarray(lambdas, dtype=float)
    close(lam.sum(axis=-1), np.full(lam.shape[:-1], OPERATOR_TRACE), f"{what} trace")
    close(np.sort(lam, axis=-1), np.linalg.eigvalsh(operator(angles)), what)


def check_bell_eigenpairs(lambdas, labels, angles, what: str) -> None:
    """Each lambda_k belongs to a fixed Bell eigenvector: G b_k = lambda_k b_k."""
    g = operator(angles)
    for k, label in enumerate(labels):
        b = BELL[label]
        lam = np.asarray(lambdas)[..., k]
        close(g @ b, lam[..., None] * b, f"{what} lambda{k + 1} on {label}")
