"""Dense complex linear algebra for 2x2 and 4x4 operators.

Everything the rest of the package touches is a small complex matrix:
two-qubit density matrices and the game operator. Products, Kronecker
products and traces are plain numpy; this module holds the Pauli
constants, the one Hermitian-matrix check (shape, dimension,
finiteness, Hermiticity) that density matrices and the eigensolver
share, and a Hermitian eigensolver, a validating front end to
``numpy.linalg.eigh`` that also takes whole stacks of matrices. No
attempt is made to scale past dimension 4.
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
PAULI_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))


def _hermitian(a, name: str) -> np.ndarray:
    """``a`` as a complex array, refused unless it is a Hermitian matrix of
    dimension 2 or 4, or a stack of them (shape ``(..., n, n)``).

    The input is checked in one pass: after the shape, only the
    Hermiticity defect (max entrywise ``|a - a^dagger|``) is computed,
    and a nan or inf entry makes that defect nan or inf, so one
    comparison refuses both faults. Only a refused input is then checked
    for finiteness, so that the error names the first fault in the order
    shape, dimension, finite, Hermitian; ``name`` is the caller named by
    the last of these.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] not in VALID_DIMS:
        raise ValueError(f"unsupported dimension {m.shape[-1]}, expected one of {VALID_DIMS}")
    with np.errstate(invalid="ignore"):  # an inf entry subtracts inf from inf
        defect = float(np.abs(m - m.conj().swapaxes(-1, -2)).max())
    if not defect <= HERMITICITY_TOL:
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        raise ValueError(f"{name} requires a Hermitian matrix "
                         f"(defect {defect:.3e} > {HERMITICITY_TOL:.0e})")
    return m


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

    Raises ValueError for a non-square shape, an unsupported dimension,
    a nan or inf entry, or a Hermiticity defect above HERMITICITY_TOL,
    checked in one pass (see ``_hermitian``).
    """
    vals, vecs = np.linalg.eigh(_hermitian(a, "hermitian_eigen"))
    # eigh sorts ascending; the Spectrum convention is descending. The
    # outputs are fresh, so read-only views of them need no copy.
    return Spectrum(eigenvalues=_readonly(vals[..., ::-1]),
                    eigenvectors=_readonly(vecs[..., ::-1]))
