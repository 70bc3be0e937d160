"""Measurement settings, projectors, polarization kets and two-qubit states.

Conventions fixed here and relied on everywhere else:

* Measurement directions lie in the x-z plane, n(theta) = (sin, 0, cos),
  so theta = 0 measures along z and the polarization half-angle identity
  |s(2t)><s(2t)| = projector(+1, 2t) holds exactly.
* The two-qubit product basis is ordered |HH>, |HV>, |VH>, |VV> with the
  left factor belonging to Alice.
* All angles are radians; degrees appear only at file/CLI boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg

SIGNS = (+1, -1)

STATE_HERMITICITY_TOL = 1e-10
STATE_TRACE_TOL = 1e-10
STATE_EIGENVALUE_FLOOR = -1e-9
AMPLITUDE_NORM_TOL = 1e-10


def _check_sign(sign: int) -> int:
    if sign not in SIGNS:
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return sign


def _check_angle(value: float, name: str = "angle") -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


@dataclass(frozen=True)
class SettingTriple:
    """The three measurement angles (radians), one per path."""

    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        for name in ("t1", "t2", "t3"):
            _check_angle(getattr(self, name), name)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.t1, self.t2, self.t3)

    def as_degrees(self) -> tuple[float, float, float]:
        return tuple(math.degrees(t) for t in self.as_tuple())

    @classmethod
    def from_degrees(cls, d1: float, d2: float, d3: float) -> "SettingTriple":
        return cls(math.radians(d1), math.radians(d2), math.radians(d3))

    def settings(self) -> "SettingTriple":
        return self


@dataclass(frozen=True)
class TwoParam:
    """Two-parameter measurement family: angles (0, 2*phi, 2*theta)."""

    phi: float
    theta: float

    @staticmethod
    def angles(phi, theta) -> np.ndarray:
        """The angles of ``settings()`` for parameter arrays, shape (..., 3)."""
        phi, theta = np.broadcast_arrays(np.asarray(phi, dtype=float),
                                         np.asarray(theta, dtype=float))
        return np.stack([np.zeros_like(phi), 2.0 * phi, 2.0 * theta], axis=-1)

    def settings(self) -> SettingTriple:
        return SettingTriple(0.0, 2.0 * self.phi, 2.0 * self.theta)


@dataclass(frozen=True)
class OneParam:
    """One-parameter measurement family: angles (0, 2*theta, -2*theta)."""

    theta: float

    @staticmethod
    def angles(theta) -> np.ndarray:
        """The angles of ``settings()`` for a parameter array, shape (..., 3)."""
        theta = np.asarray(theta, dtype=float)
        return np.stack([np.zeros_like(theta), 2.0 * theta, -2.0 * theta], axis=-1)

    def settings(self) -> SettingTriple:
        return SettingTriple(0.0, 2.0 * self.theta, -2.0 * self.theta)


# Any of these expands deterministically to a SettingTriple via .settings().
Parametrization = SettingTriple | TwoParam | OneParam


class BellState(Enum):
    """The four maximally entangled two-qubit states."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    @property
    def vector(self) -> np.ndarray:
        return _BELL_VECTORS[self]

    @classmethod
    def from_label(cls, label: str) -> "BellState":
        try:
            return cls(label.strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown Bell state {label!r}, expected one of: {valid}") from None


_SQRT_HALF = 1.0 / math.sqrt(2.0)
_BELL_VECTORS = {
    BellState.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * _SQRT_HALF,
    BellState.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * _SQRT_HALF,
    BellState.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * _SQRT_HALF,
    BellState.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * _SQRT_HALF,
}
for _v in _BELL_VECTORS.values():
    _v.setflags(write=False)

# decomposition order used by spectra.bell_decompose and reports
BELL_BASIS_ORDER = (BellState.PHI_PLUS, BellState.PHI_MINUS,
                    BellState.PSI_PLUS, BellState.PSI_MINUS)


@dataclass(frozen=True)
class QuantumState:
    """A two-qubit density matrix.

    Validated on construction: Hermitian, unit trace, and positive
    semidefinite up to a small numerical floor.
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = linalg.as_matrix(self.rho, dims=(4,))
        defect = linalg.hermiticity_defect(rho)
        if defect > STATE_HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian (defect {defect:.3e})")
        tr = rho.trace()
        if abs(tr - 1.0) > STATE_TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} != 1")
        smallest = float(np.linalg.eigvalsh(rho)[0])
        if smallest < STATE_EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix not positive semidefinite "
                             f"(smallest eigenvalue {smallest:.3e})")
        rho = rho.copy()
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    def mix(self, other: "QuantumState", weight: float) -> "QuantumState":
        """Convex mixture weight*self + (1-weight)*other."""
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"mixture weight must lie in [0, 1], got {weight}")
        return QuantumState(weight * self.rho + (1.0 - weight) * other.rho)


def projector(sign: int, theta: float) -> np.ndarray:
    """Spin projector (I + sign * n(theta).sigma) / 2 in the x-z plane."""
    _check_sign(sign)
    theta = _check_angle(theta, "theta")
    n_dot_sigma = math.sin(theta) * linalg.PAULI_X + math.cos(theta) * linalg.PAULI_Z
    return 0.5 * (linalg.IDENTITY_2 + sign * n_dot_sigma)


def polarization_ket(sign: int, two_theta: float) -> np.ndarray:
    """Polarization analysis basis vector for the setting angle 2*theta.

    The + output is cos(t)|H> + sin(t)|V>; the - output is the
    orthogonal sin(t)|H> - cos(t)|V>, with t = two_theta / 2.
    """
    _check_sign(sign)
    t = 0.5 * _check_angle(two_theta, "two_theta")
    if sign == +1:
        return np.array([math.cos(t), math.sin(t)], dtype=complex)
    return np.array([math.sin(t), -math.cos(t)], dtype=complex)


def pure_state(vector: np.ndarray) -> QuantumState:
    """Density matrix |v><v| of a unit 4-vector."""
    v = np.asarray(vector, dtype=complex)
    if v.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > AMPLITUDE_NORM_TOL:
        raise ValueError(f"state vector norm {norm:.12g} != 1")
    return QuantumState(np.outer(v, v.conj()))


def bell_state_density(label: BellState) -> QuantumState:
    """Rank-1 density matrix of the named Bell state."""
    return pure_state(label.vector)


def maximally_mixed() -> QuantumState:
    """The white-noise state I/4."""
    return QuantumState(linalg.IDENTITY_4 / 4.0)


def noisy_phi_plus(p: float) -> QuantumState:
    """Convex mixture p * |phi+><phi+| + (1 - p)/4 * I."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise mixing parameter must lie in [0, 1], got {p}")
    phi_plus = BellState.PHI_PLUS.vector
    rho = p * np.outer(phi_plus, phi_plus.conj()) + (1.0 - p) / 4.0 * np.asarray(linalg.IDENTITY_4)
    return QuantumState(rho)


def superpose(a: BellState, b: BellState, amp_a: complex, amp_b: complex) -> QuantumState:
    """Pure state amp_a*|a> + amp_b*|b> for two distinct Bell states."""
    if a == b:
        raise ValueError("superpose requires two distinct Bell states")
    amp_a = complex(amp_a)
    amp_b = complex(amp_b)
    norm_sq = abs(amp_a) ** 2 + abs(amp_b) ** 2
    if abs(norm_sq - 1.0) > AMPLITUDE_NORM_TOL:
        raise ValueError(f"|amp_a|^2 + |amp_b|^2 = {norm_sq:.12g} != 1")
    return pure_state(amp_a * a.vector + amp_b * b.vector)
