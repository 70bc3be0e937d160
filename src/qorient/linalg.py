"""Dense complex linear algebra for the 4x4 game operator.

Everything the rest of the package touches is a small complex matrix:
two-qubit density matrices and the game operator. Products, Kronecker
products and traces are plain numpy; this module holds the Pauli
constants and the one eigensolve, ``numpy.linalg.eigh`` with its
spectrum in descending order. It checks nothing: its only inputs are
the game operators that ``scoring.game_operators`` builds exactly
Hermitian (density matrices are checked in ``states``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


IDENTITY_2 = _readonly(np.eye(2, dtype=complex))
IDENTITY_4 = _readonly(np.eye(4, dtype=complex))
PAULI_X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with matching unit eigenvectors.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]`` (for a stack,
    ``eigenvectors[..., :, k]`` to ``eigenvalues[..., k]``). Within a
    degenerate cluster the individual vectors are basis-arbitrary; only
    the spanned subspace is meaningful. Both arrays are read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eigh_descending(g: np.ndarray) -> Spectrum:
    """Spectrum of a Hermitian matrix ``g``, or of a stack ``(..., n, n)``
    of them in one ``eigh`` call, unchecked."""
    vals, vecs = np.linalg.eigh(g)
    # eigh sorts ascending; the Spectrum convention is descending. The
    # outputs are fresh, so read-only views of them need no copy.
    return Spectrum(eigenvalues=_readonly(vals[..., ::-1]),
                    eigenvectors=_readonly(vecs[..., ::-1]))
