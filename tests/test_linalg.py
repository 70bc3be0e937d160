"""Matrix plumbing and the Hermitian eigensolver."""

import re

import numpy as np
import pytest

from qorient.linalg import (
    IDENTITY_2,
    IDENTITY_4,
    PAULI_X,
    PAULI_Z,
    hermitian_eigen,
)


def exactly(message):
    """A pytest.raises pattern matching the whole message and nothing else."""
    return "^" + re.escape(message) + "$"


def random_hermitian(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return h + h.conj().T


class TestPauliMatrices:
    def test_pauli_involution(self):
        assert np.allclose(PAULI_X @ PAULI_X, IDENTITY_2, atol=0)


class TestHermitianEigen:
    def test_identity(self):
        spec = hermitian_eigen(IDENTITY_4)
        assert np.allclose(spec.eigenvalues, [1, 1, 1, 1], atol=0)
        assert not spec.eigenvalues.flags.writeable
        assert not spec.eigenvectors.flags.writeable

    def test_pauli_z(self):
        spec = hermitian_eigen(PAULI_Z)
        assert np.allclose(spec.eigenvalues, [1, -1], atol=0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_unsupported_dimension_rejected(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            hermitian_eigen(np.eye(3))

    def test_non_finite_rejected(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigen(bad)

    @pytest.mark.filterwarnings("error")  # refused without a RuntimeWarning
    @pytest.mark.parametrize("bad", [np.nan, complex(0, np.nan), np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(1, 0, 0), (2, 3, 3), (0, 1, 2)])
    def test_one_non_finite_matrix_in_a_stack(self, bad, where):
        # nan or inf on or off the diagonal of one matrix in a Hermitian stack;
        # a non-Hermitian matrix elsewhere in the stack does not change the message
        stack = np.array([np.eye(4), np.diag([1.0, 2, 3, 4]), np.eye(4)], dtype=complex)
        stack[where] = bad
        with pytest.raises(ValueError, match=exactly("matrix entries must be finite")):
            hermitian_eigen(stack)
        stack[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match=exactly("matrix entries must be finite")):
            hermitian_eigen(stack)

    @pytest.mark.parametrize("shape", [(4, 3), (4,), (), (2, 4, 3)])
    def test_non_square_rejected_before_finite(self, shape):
        with pytest.raises(ValueError, match=exactly(
                f"expected a square matrix, got shape {shape}")):
            hermitian_eigen(np.full(shape, np.nan))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_unsupported_dimension_rejected_before_finite(self, n):
        with pytest.raises(ValueError, match=exactly(
                f"unsupported dimension {n}, expected one of (2, 4)")):
            hermitian_eigen(np.full((2, n, n), np.inf))

    def test_non_hermitian_message_names_the_defect(self):
        with pytest.raises(ValueError, match=exactly(
                "hermitian_eigen requires a Hermitian matrix (defect 2.000e-10 > 1e-10)")):
            hermitian_eigen(np.array([[0, 2e-10], [0, 0]], dtype=complex))
        # a defect at the tolerance is accepted
        hermitian_eigen(np.array([[0, 1e-10], [0, 0]], dtype=complex))

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(4)
        stack = np.array([random_hermitian(rng, 4) for _ in range(12)]).reshape(3, 4, 4, 4)
        spec = hermitian_eigen(stack)
        assert spec.eigenvalues.shape == (3, 4, 4)
        assert spec.eigenvectors.shape == (3, 4, 4, 4)
        for idx in np.ndindex(3, 4):
            single = hermitian_eigen(stack[idx])
            assert np.array_equal(spec.eigenvalues[idx], single.eigenvalues)
            v = spec.eigenvectors[idx]
            assert np.abs(stack[idx] @ v - v * spec.eigenvalues[idx]).max() < 1e-9

    def test_stack_with_one_non_hermitian_rejected(self):
        stack = np.array([np.eye(2), [[0, 1], [0, 0]]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigen(stack)

    @pytest.mark.parametrize("n", [2, 4])
    def test_descending_order_and_residuals(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(200):
            h = random_hermitian(rng, n)
            spec = hermitian_eigen(h)
            assert np.all(np.diff(spec.eigenvalues) <= 0)
            for k in range(n):
                v = spec.eigenvectors[:, k]
                residual = np.linalg.norm(h @ v - spec.eigenvalues[k] * v)
                assert residual <= 1e-9

    @pytest.mark.parametrize("n", [2, 4])
    def test_eigenvalue_sum_is_trace(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(200):
            h = random_hermitian(rng, n)
            spec = hermitian_eigen(h)
            assert abs(spec.eigenvalues.sum() - np.trace(h).real) < 1e-9

    @pytest.mark.parametrize("n", [2, 4])
    def test_orthonormal_eigenvectors(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(100):
            spec = hermitian_eigen(random_hermitian(rng, n))
            v = spec.eigenvectors
            for k in range(n):
                assert abs(np.linalg.norm(v[:, k]) - 1.0) < 1e-12
            gram = v.conj().T @ v
            assert np.abs(gram - np.eye(n)).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 4])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(100):
            h = random_hermitian(rng, n)
            spec = hermitian_eigen(h)
            recon = sum(spec.eigenvalues[k] * np.outer(spec.eigenvectors[:, k],
                                                       spec.eigenvectors[:, k].conj())
                        for k in range(n))
            assert np.abs(recon - h).max() < 1e-8

    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_numpy_eigvalsh(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(200):
            h = random_hermitian(rng, n)
            ours = hermitian_eigen(h).eigenvalues
            ref = np.linalg.eigvalsh(h)[::-1]
            assert np.abs(ours - ref).max() < 1e-10

    def test_degenerate_spectrum_subspace(self):
        # twofold degenerate middle pair; compare subspace projectors, not vectors
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        vals = np.array([2.0, 1.0, 1.0, 0.0])
        h = (q * vals) @ q.conj().T
        spec = hermitian_eigen(h)
        assert np.allclose(spec.eigenvalues, vals, atol=1e-10)
        ours = spec.eigenvectors[:, 1:3]
        theirs = q[:, 1:3]
        proj_ours = ours @ ours.conj().T
        proj_theirs = theirs @ theirs.conj().T
        assert np.abs(proj_ours - proj_theirs).max() < 1e-9
