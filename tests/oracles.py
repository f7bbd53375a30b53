"""Dense reference constructions the fast solvers are tested against."""

from __future__ import annotations

import numpy as np

from floqlat import HermitianOperator, NumericalError, QuasienergySpectrum, fold_quasienergy

EIGENVALUE_UNIT_TOL = 1e-6


def hermitian_exponential(h: HermitianOperator, angle: float) -> np.ndarray:
    """exp(-i * angle * h) by spectral decomposition of the Hermitian matrix of h."""
    w, v = np.linalg.eigh(h.matrix)
    return (v * np.exp(-1.0j * angle * w)) @ v.conj().T


def floquet_operator(
    h0: HermitianOperator, h1: HermitianOperator, theta0: float, theta1: float
) -> np.ndarray:
    """One-period operator exp(-i theta1 h1) exp(-i theta0 h0) as a dense matrix."""
    return hermitian_exponential(h1, theta1) @ hermitian_exponential(h0, theta0)


def _on_unit_circle(lam: np.ndarray) -> np.ndarray:
    deviation = float(np.abs(np.abs(lam) - 1.0).max())
    if not deviation <= EIGENVALUE_UNIT_TOL:
        raise NumericalError(f"eigenvalues leave the unit circle by {deviation:.3e}")
    return lam


def dense_quasienergies(matrix) -> QuasienergySpectrum:
    """Sorted quasienergies -arg(lambda) of a unitary matrix from dense eigvals."""
    lam = _on_unit_circle(np.linalg.eigvals(np.asarray(matrix, dtype=complex)))
    return QuasienergySpectrum(np.sort(fold_quasienergy(-np.angle(lam))))


def dense_quasienergy_states(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Sorted quasienergies of a unitary matrix with normalized eigenvector
    columns from dense eig."""
    lam, vec = np.linalg.eig(np.asarray(matrix, dtype=complex))
    eps = fold_quasienergy(-np.angle(_on_unit_circle(lam)))
    order = np.argsort(eps)
    vec = vec[:, order]
    vec = vec / np.linalg.norm(vec, axis=0, keepdims=True)
    return eps[order], vec
