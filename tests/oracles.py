"""Dense reference constructions the fast solvers are tested against."""

from __future__ import annotations

import numpy as np

from floqlat import (
    HermitianOperator,
    NumericalError,
    QuasienergySpectrum,
    UnitaryOperator,
    fold_quasienergy,
)
from floqlat.floquet import UNITARITY_ATOL, _apply_drive, _chiral_entries, _drive_phases

EIGENVALUE_UNIT_TOL = 1e-6


def dense_matrix(op: HermitianOperator | UnitaryOperator) -> np.ndarray:
    """The dense 2N x 2N matrix of an operator kept as bond data.

    A drive is _apply_drive on the identity, checked for unitarity; a chiral
    chain is sum_ij h[i, j] (|a_i><b_j| + |b_j><a_i|) in its orbitals, with
    h its block's dense form.
    """
    if isinstance(op, UnitaryOperator):
        m = _apply_drive(op, np.eye(op.dim, dtype=complex))
        deviation = float(np.abs(m.conj().T @ m - np.eye(op.dim)).max())
        if not deviation < UNITARITY_ATOL:
            raise NumericalError(f"matrix is not unitary: max |U^dag U - 1| = {deviation:.3e}")
        return m
    half = np.kron(op.block.dense(), np.outer(op.orbitals[:, 0], op.orbitals[:, 1].conj()))
    return half + half.conj().T


def chiral_blocks(u: UnitaryOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The drive's real N x N chiral blocks a, b, c and d (see floquet._chiral_entries)
    as dense arrays."""
    a, b, c_t, d_t = _chiral_entries(*_drive_phases(u), u.params.bc)
    return a.dense(), b.dense(), c_t.dense().T, d_t.dense().T


def sublattice_parity(dim: int) -> np.ndarray:
    """diag(+1, -1, +1, ...): the chiral operator of the bipartite chains."""
    return np.diag(np.where(np.arange(dim) % 2 == 0, 1.0, -1.0))


def hermitian_exponential(h: HermitianOperator, angle: float) -> np.ndarray:
    """exp(-i * angle * h) by spectral decomposition of the Hermitian matrix of h."""
    w, v = np.linalg.eigh(dense_matrix(h))
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
