"""Dense complex linear algebra for 2x2 and 4x4 operators.

Everything the rest of the package touches is a small complex matrix:
single-qubit projectors, two-qubit density matrices, and the game
operator. Products, Kronecker products and traces are plain numpy;
this module holds the Pauli constants, the input checks (shape,
dimension, finiteness, Hermiticity) and a Hermitian eigensolver, a
validating front end to ``numpy.linalg.eigh`` that also takes whole
stacks of matrices. No attempt is made to scale past dimension 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VALID_DIMS = (2, 4)

HERMITICITY_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


IDENTITY_2 = _readonly(np.eye(2, dtype=complex))
IDENTITY_4 = _readonly(np.eye(4, dtype=complex))
PAULI_X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))


def as_matrix(a, dims: tuple[int, ...] = VALID_DIMS, stack: bool = False) -> np.ndarray:
    """Validate a square complex matrix of an allowed dimension.

    With ``stack`` the input may also be a stack of such matrices,
    shape ``(..., n, n)``. Returns a complex128 copy-free view when
    possible. Rejects non-square shapes, unsupported dimensions and
    non-finite entries.
    """
    m = np.asarray(a, dtype=complex)
    _check_shape(m, dims, stack)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _check_shape(m: np.ndarray, dims: tuple[int, ...], stack: bool) -> None:
    """Refuse a non-square shape, then an unsupported dimension."""
    if (m.ndim != 2 and not (stack and m.ndim > 2)) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] not in dims:
        raise ValueError(f"unsupported dimension {m.shape[-1]}, expected one of {dims}")


def hermiticity_defect(a) -> float:
    """Max entrywise |a - a^dagger|, over a whole stack of matrices.

    Any nan or inf entry makes the defect nan or inf.
    """
    m = np.asarray(a, dtype=complex)
    return float(np.abs(m - m.conj().swapaxes(-1, -2)).max())


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with matching unit eigenvectors.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]`` (for a stack,
    ``eigenvectors[..., :, k]`` to ``eigenvalues[..., k]``). Within a
    degenerate cluster the individual vectors are basis-arbitrary; only
    the spanned subspace is meaningful. ``hermitian_eigen`` returns both
    arrays read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(a) -> Spectrum:
    """Full spectrum of a Hermitian matrix, or of a stack of them.

    ``a`` has shape ``(n, n)`` or ``(..., n, n)`` with n in VALID_DIMS;
    a stack is diagonalized in one ``numpy.linalg.eigh`` call. The
    Spectrum then holds ``(..., n)`` eigenvalues and ``(..., n, n)``
    eigenvectors, with ``eigenvectors[..., :, k]`` belonging to
    ``eigenvalues[..., k]``.

    The input is checked in one pass: after the shape, only the
    Hermiticity defect is computed, and a nan or inf entry makes that
    defect nan or inf, so one comparison refuses both faults. Only a
    refused input is then checked for finiteness, so that the error
    names the first fault in the order shape, dimension, finite,
    Hermitian. Raises ValueError for each of them.
    """
    m = np.asarray(a, dtype=complex)
    _check_shape(m, VALID_DIMS, stack=True)
    with np.errstate(invalid="ignore"):  # an inf entry subtracts inf from inf
        defect = hermiticity_defect(m)
    if not defect <= HERMITICITY_TOL:
        as_matrix(m, stack=True)  # raises if an entry is nan or inf
        raise ValueError("hermitian_eigen requires a Hermitian matrix "
                         f"(defect {defect:.3e} > {HERMITICITY_TOL:.0e})")
    vals, vecs = np.linalg.eigh(m)
    # eigh sorts ascending; the Spectrum convention is descending. The
    # outputs are fresh, so read-only views of them need no copy.
    return Spectrum(eigenvalues=_readonly(vals[..., ::-1]),
                    eigenvectors=_readonly(vecs[..., ::-1]))
