"""One-period evolution operator, quasienergy spectra, and phase classification.

Quasienergies are dimensionless (epsilon * T) and live in the half-open window
[-pi, pi).  The branch convention is epsilon = -arg(lambda) for an eigenvalue
lambda of the one-period operator, so that U = exp(-i H_F) holds with arg in
[-pi, pi); values within 1e-12 of +pi fold to -pi.

Operators built from the drive keep it and are solved in the chiral timeframe
from two N x N singular-value problems; dense eigvals of the 2N x 2N matrix is
kept for raw matrices and as the test oracle.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    DispersionDomainError,
    GaplessPointError,
    NotUnitaryError,
    ProfileLengthError,
    ValidationError,
)
from .models import BoundaryCondition, DriveParams, HermitianOperator, h1_bond_sites

FOLD_ATOL = 1e-12
UNITARITY_ATOL = 1e-10
EIGENVALUE_UNIT_TOL = 1e-6
ARCCOS_CLAMP = 1e-12

DEFAULT_TOL_MODE = 0.05
DEFAULT_MIN_EDGE_WEIGHT = 0.5


def fold_quasienergy(x):
    """Fold angles into [-pi, pi); values within 1e-12 of +pi map to -pi."""
    arr = np.asarray(x, dtype=float)
    folded = np.mod(arr + np.pi, 2.0 * np.pi) - np.pi
    folded = np.where(folded >= np.pi - FOLD_ATOL, -np.pi, folded)
    if np.isscalar(x) or arr.ndim == 0:
        return float(folded)
    return folded


def wrap_distance(a, b):
    """Distance between angles modulo 2 pi: min(|a - b|, 2 pi - |a - b|)."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return np.minimum(d, 2.0 * np.pi - d)


@dataclass(frozen=True, eq=False)
class Drive:
    """The two-step drive as bond data: its parameters and one coefficient per
    second-step bond (in h1_bond_sites order; None means the native 2 on every bond).
    """

    params: DriveParams
    h1_coeffs: np.ndarray | None = None

    def __post_init__(self):
        n_bonds = len(h1_bond_sites(self.params.n_cells, self.params.bc))
        if self.h1_coeffs is None:
            coeffs = np.full(n_bonds, 2.0)
        else:
            coeffs = np.array(self.h1_coeffs, dtype=float)
        if coeffs.shape != (n_bonds,):
            raise ProfileLengthError(
                f"expected {n_bonds} bond coefficients for bc={self.params.bc.value}, "
                f"got {coeffs.shape}"
            )
        coeffs.flags.writeable = False
        object.__setattr__(self, "h1_coeffs", coeffs)


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Unitary matrix with the unitarity invariant checked when the dense matrix is formed.

    Built from a matrix, the check runs on construction.  Built from a Drive
    (UnitaryOperator(drive=...)), the operator keeps the drive and forms and
    checks the dense matrix only when `matrix` is first read; `quasienergies`
    works from the drive alone and never reads it.
    """

    dense: np.ndarray | None = None
    drive: Drive | None = None

    def __post_init__(self):
        if (self.dense is None) == (self.drive is None):
            raise ValidationError("a unitary operator takes either a matrix or a drive")
        if self.dense is None:
            return
        m = np.array(self.dense, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        deviation = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
        if deviation >= UNITARITY_ATOL:
            raise NotUnitaryError(f"matrix is not unitary: max |U^dag U - 1| = {deviation:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "dense", m)

    @property
    def matrix(self) -> np.ndarray:
        if self.dense is None:
            formed = UnitaryOperator(composed_drive_evolution(self.drive))
            object.__setattr__(self, "dense", formed.dense)
        return self.dense

    @property
    def dim(self) -> int:
        return self.drive.params.n_sites if self.drive is not None else self.dense.shape[0]


@dataclass(frozen=True)
class QuasienergySpectrum:
    """Sorted multiset of dimensionless quasienergies in [-pi, pi)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1:
            raise ValidationError(f"expected a 1D value list, got shape {v.shape}")
        if np.any(np.diff(v) < 0):
            raise ValidationError("quasienergies must be sorted ascending")
        if v.size and (v[0] < -np.pi or v[-1] >= np.pi):
            raise ValidationError("quasienergies must lie in [-pi, pi)")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


def hermitian_exponential(h: HermitianOperator | np.ndarray, angle: float) -> np.ndarray:
    """exp(-i * angle * h) by spectral decomposition of the Hermitian matrix h."""
    matrix = h.matrix if isinstance(h, HermitianOperator) else np.asarray(h, dtype=complex)
    w, v = np.linalg.eigh(matrix)
    return (v * np.exp(-1.0j * angle * w)) @ v.conj().T


def dimer_evolution(n_sites: int, bonds, coeffs, angle: float) -> np.ndarray:
    """exp(-i * angle * H) for a hopping H made of disjoint bonds.

    On each 2x2 bond block (eigenvalues +-c) the spectral decomposition closes:
    cos(c * angle) on the diagonal and -i sin(c * angle) off it; uncoupled
    sites stay at 1.  Exact, and O(N^2) instead of a dense eigensolve.
    """
    u = np.eye(n_sites, dtype=complex)
    for (a, b), c in zip(bonds, coeffs):
        u[a, a] = u[b, b] = np.cos(angle * c)
        u[a, b] = u[b, a] = -1.0j * np.sin(angle * c)
    return u


def _dimer_evolution_apply(n_sites, bonds, coeffs, angle, matrix) -> np.ndarray:
    """exp(-i * angle * H) @ matrix with at most two entries per row of the factor."""
    rows_a = np.array([a for a, _ in bonds], dtype=int)
    rows_b = np.array([b for _, b in bonds], dtype=int)
    phases = angle * np.asarray(coeffs, dtype=float)
    diag = np.ones(n_sites)
    diag[rows_a] = np.cos(phases)
    diag[rows_b] = np.cos(phases)
    out = diag[:, None] * matrix
    out[rows_a] += (-1.0j * np.sin(phases))[:, None] * matrix[rows_b]
    out[rows_b] += (-1.0j * np.sin(phases))[:, None] * matrix[rows_a]
    return out


def floquet_operator(
    h0: HermitianOperator, h1: HermitianOperator, theta0: float, theta1: float
) -> UnitaryOperator:
    """One-period operator exp(-i theta1 h1) exp(-i theta0 h0)."""
    return UnitaryOperator(hermitian_exponential(h1, theta1) @ hermitian_exponential(h0, theta0))


def composed_drive_evolution(drive: Drive) -> np.ndarray:
    """exp(-i H1 theta1) exp(-i H0 theta0) assembled from exact 2x2 bond blocks.

    Both drive steps are disjoint-dimer Hamiltonians, so each factor is the
    spectral decomposition of its bond blocks (identical to a dense eigensolve
    of the factor); the product is applied row-wise in O(N^2).
    """
    params = drive.params
    n = params.n_sites
    h0_bonds = [(2 * j, 2 * j + 1) for j in range(params.n_cells)]
    e0 = dimer_evolution(n, h0_bonds, [2.0] * len(h0_bonds), params.theta0)
    h1_bonds = h1_bond_sites(params.n_cells, params.bc)
    return _dimer_evolution_apply(n, h1_bonds, drive.h1_coeffs, params.theta1, e0)


def build_floquet(params: DriveParams) -> UnitaryOperator:
    """One-period evolution operator exp(-i H1 theta1) exp(-i H0 theta0), kept as its drive."""
    return UnitaryOperator(drive=Drive(params))


def chiral_blocks(drive: Drive) -> tuple[np.ndarray, np.ndarray]:
    """Real N x N blocks a = G_AA and c = i G_BA of the half-period factor G.

    G = exp(-i theta1 H1 / 2) exp(-i theta0 H0 / 2).  With phi(x) the
    half-step phase theta1 * coeff / 2 of the second-step bond at site x (0
    where there is none), G sends the A site of cell j to
    cos(theta0) [cos phi(A_j) A_j - i sin phi(A_j) B'] - i sin(theta0)
    [cos phi(B_j) B_j - i sin phi(B_j) A'], where B' and A' are the bond
    partners of A_j and B_j.  So both blocks are bidiagonal (cyclic for
    periodic chains), read straight off the bond list.
    """
    params = drive.params
    n = params.n_cells
    bonds = np.array(h1_bond_sites(n, params.bc), dtype=int).reshape(-1, 2)
    b_cell, a_cell = bonds[:, 0] // 2, bonds[:, 1] // 2
    phi = 0.5 * params.theta1 * drive.h1_coeffs
    cos0, sin0 = math.cos(params.theta0), math.sin(params.theta0)
    cos_a, cos_b = np.ones(n), np.ones(n)
    cos_a[a_cell] = cos_b[b_cell] = np.cos(phi)
    a = np.diag(cos0 * cos_a)
    c = np.diag(sin0 * cos_b)
    a[a_cell, b_cell] = -sin0 * np.sin(phi)
    c[b_cell, a_cell] = cos0 * np.sin(phi)
    return a, c


def timeframe_quasienergies(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unsorted, unfolded quasienergies +-2 atan2(sigma_c, sigma_a) of the chiral blocks.

    Both drive steps flip sign under the sublattice operator Gamma, so U is
    similar to Gamma G^dag Gamma G, a product of two reflections (the
    timeframe construction of Asboth and Obuse, PRB 88, 121406(R) (2013)).
    Its eigenphases are +-2 theta_k, where theta_k are the principal angles
    between the A sublattice and its image under G^dag: cos theta_k are the
    singular values of a (descending) and sin theta_k those of c (ascending).
    The pairing rests on the CS identity sigma_a^2 + sigma_c^2 = 1, which is
    checked in place of the dense U^dag U test.
    """
    sigma_a = np.linalg.svd(a, compute_uv=False)
    sigma_c = np.linalg.svd(c, compute_uv=False)[::-1]
    deviation = float(np.abs(sigma_a**2 + sigma_c**2 - 1.0).max())
    if not deviation < UNITARITY_ATOL:
        raise NotUnitaryError(
            f"chiral blocks are not a CS pair: max |sigma_a^2 + sigma_c^2 - 1| = {deviation:.3e}"
        )
    eps = 2.0 * np.arctan2(sigma_c, sigma_a)
    return np.concatenate([-eps, eps])


def _unit_circle_eigenvalues(u: UnitaryOperator | np.ndarray) -> np.ndarray:
    matrix = u.matrix if isinstance(u, UnitaryOperator) else np.asarray(u, dtype=complex)
    lam = np.linalg.eigvals(matrix)
    deviation = float(np.abs(np.abs(lam) - 1.0).max())
    if deviation > EIGENVALUE_UNIT_TOL:
        raise NotUnitaryError(f"eigenvalues leave the unit circle by {deviation:.3e}")
    return lam


def quasienergies(u: UnitaryOperator | np.ndarray) -> QuasienergySpectrum:
    """Sorted quasienergies -arg(lambda) of the one-period operator's eigenvalues.

    A drive-built operator is solved in the chiral timeframe from two N x N
    singular-value problems; a raw or dense matrix goes through dense eigvals.
    """
    if isinstance(u, UnitaryOperator) and u.drive is not None:
        eps = timeframe_quasienergies(*chiral_blocks(u.drive))
    else:
        eps = -np.angle(_unit_circle_eigenvalues(u))
    return QuasienergySpectrum(np.sort(fold_quasienergy(eps)))


def quasienergy_states(u: UnitaryOperator | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quasienergies sorted ascending with matching normalized eigenvector columns."""
    matrix = u.matrix if isinstance(u, UnitaryOperator) else np.asarray(u, dtype=complex)
    lam, vec = np.linalg.eig(matrix)
    deviation = float(np.abs(np.abs(lam) - 1.0).max())
    if deviation > EIGENVALUE_UNIT_TOL:
        raise NotUnitaryError(f"eigenvalues leave the unit circle by {deviation:.3e}")
    eps = fold_quasienergy(-np.angle(lam))
    order = np.argsort(eps)
    vec = vec[:, order]
    vec = vec / np.linalg.norm(vec, axis=0, keepdims=True)
    return eps[order], vec


def _check_cos_domain(argument: np.ndarray) -> np.ndarray:
    overshoot = float(np.abs(argument).max()) - 1.0 if argument.size else 0.0
    if overshoot > ARCCOS_CLAMP:
        raise DispersionDomainError(f"arccos argument outside [-1, 1] by {overshoot:.3e}")
    return np.clip(argument, -1.0, 1.0)


def analytic_dispersion_general(theta0: float, theta1: float, k) -> np.ndarray:
    """Both quasienergy branches -+epsilon(k) of the two-step drive at momentum k.

    epsilon(k) = arccos{(1/4)[cos(2k - 2 theta0 - 2 theta1) + 2 cos(2 theta0 - 2 theta1)
    - cos(2k + 2 theta0 - 2 theta1) - cos(2k - 2 theta0 + 2 theta1)
    + 2 cos(2 theta0 + 2 theta1) + cos(2k + 2 theta0 + 2 theta1)]}.

    The angle is extracted with atan2 from the cosine above together with the
    closed-form sine of the eigenphase (a sum of products with no subtractive
    cancellation), so the result stays accurate to machine precision even
    where the gap closes and a bare arccos would amplify roundoff by 1e8.

    Returns an array of shape (2,) + shape(k): row 0 is -epsilon, row 1 is +epsilon.
    """
    k = np.asarray(k, dtype=float)
    a, b = 2.0 * theta0, 2.0 * theta1
    cos_eps = 0.25 * (
        np.cos(2.0 * k - a - b)
        + 2.0 * np.cos(a - b)
        - np.cos(2.0 * k + a - b)
        - np.cos(2.0 * k - a + b)
        + 2.0 * np.cos(a + b)
        + np.cos(2.0 * k + a + b)
    )
    cos_eps = _check_cos_domain(cos_eps)
    sin_eps = np.sqrt(
        (np.sin(a + b) * np.cos(k)) ** 2
        + (np.sin(b - a) * np.sin(k)) ** 2
        + (np.sin(a) * np.sin(b) * np.sin(2.0 * k)) ** 2
    )
    eps = np.arctan2(sin_eps, cos_eps)
    return np.stack([-eps, eps])


def analytic_dispersion_line(eta: float, k) -> np.ndarray:
    """Both quasienergy branches -+arccos[-cos(2 eta) cos(2k)] on the theta0 = pi/4 line.

    eta = theta1 - pi/4 measures the distance from the gap closure.  Extracted
    with atan2 as in analytic_dispersion_general.
    """
    k = np.asarray(k, dtype=float)
    cos_eps = _check_cos_domain(-np.cos(2.0 * eta) * np.cos(2.0 * k))
    sin_eps = np.sqrt(
        (np.sin(2.0 * eta) * np.cos(2.0 * k)) ** 2 + np.sin(2.0 * k) ** 2
    )
    eps = np.arctan2(sin_eps, cos_eps)
    return np.stack([-eps, eps])


def floquet_momentum_grid(n_cells: int) -> np.ndarray:
    """Crystal momenta k = pi j / N, j = 0 .. N - 1, of the 2N-site periodic chain."""
    return np.pi * np.arange(n_cells) / n_cells


def analytic_pbc_spectrum(theta0: float, theta1: float, n_cells: int) -> np.ndarray:
    """Sorted 2N-value quasienergy multiset from the dispersion on the momentum grid."""
    branches = analytic_dispersion_general(theta0, theta1, floquet_momentum_grid(n_cells))
    return np.sort(fold_quasienergy(branches.ravel()))


def bulk_gaps(theta0: float, theta1: float) -> tuple[float, float]:
    """Bulk quasienergy gaps around 0 and around pi.

    cos(epsilon) sweeps [A - |B|, A + |B|] with A = cos(2 theta0) cos(2 theta1)
    and B = sin(2 theta0) sin(2 theta1), so both gaps follow in closed form.
    """
    a = math.cos(2.0 * theta0) * math.cos(2.0 * theta1)
    b = abs(math.sin(2.0 * theta0) * math.sin(2.0 * theta1))
    gap_zero = math.acos(min(1.0, a + b))
    gap_pi = math.pi - math.acos(max(-1.0, a - b))
    return gap_zero, gap_pi


class PiPairingCheck(NamedTuple):
    paired: bool
    max_mismatch: float


def check_pi_pairing(spectrum, tol: float) -> PiPairingCheck:
    """Check whether the folded multiset {pi - eps} equals the multiset {eps}.

    Both lists are sorted and matched index-wise with the wrap-aware angle
    distance; the check passes when the largest matched discrepancy is at most
    tol.
    """
    values = np.sort(np.asarray(getattr(spectrum, "values", spectrum), dtype=float))
    partner = np.sort(fold_quasienergy(np.pi - values))
    if values.size == 0:
        return PiPairingCheck(True, 0.0)
    mismatch = float(wrap_distance(values, partner).max())
    return PiPairingCheck(mismatch <= tol, mismatch)


class Phase(enum.Enum):
    TRIVIAL = "trivial"
    ZERO = "0"
    PI = "pi"
    ZERO_PI = "0pi"


@dataclass(frozen=True)
class EdgeModeReport:
    """Localization diagnostics of one boundary mode of the open chain."""

    quasienergy: float
    ipr: float
    edge_weight: float
    kind: str  # "zero" or "pi"


@dataclass(frozen=True)
class PhaseLabel:
    label: Phase
    n_zero_modes: int
    n_pi_modes: int


def find_edge_modes(
    params: DriveParams,
    tol_mode: float = DEFAULT_TOL_MODE,
    min_edge_weight: float = DEFAULT_MIN_EDGE_WEIGHT,
) -> list[EdgeModeReport]:
    """Boundary modes of the open chain: eigenstates near quasienergy 0 or +-pi.

    A state qualifies when |eps| < tol_mode (zero mode) or pi - |eps| < tol_mode
    (pi mode) and at least min_edge_weight of its probability sits on the outer
    10% of sites (5% per end).  Results are sorted by quasienergy.
    """
    if params.bc is not BoundaryCondition.OPEN:
        raise ValidationError("edge-mode search requires open boundary conditions")
    eps, states = quasienergy_states(build_floquet(params))
    dim = len(eps)
    n_edge = max(1, math.ceil(0.05 * dim))
    reports = []
    for value, state in zip(eps, states.T):
        near_zero = abs(value) < tol_mode
        near_pi = np.pi - abs(value) < tol_mode
        if not (near_zero or near_pi):
            continue
        weight = np.abs(state) ** 2
        edge_weight = float(weight[:n_edge].sum() + weight[-n_edge:].sum())
        if edge_weight < min_edge_weight:
            continue
        reports.append(
            EdgeModeReport(
                quasienergy=float(value),
                ipr=float((weight**2).sum()),
                edge_weight=edge_weight,
                kind="zero" if near_zero else "pi",
            )
        )
    return reports


def classify_phase(
    params: DriveParams,
    tol_mode: float = DEFAULT_TOL_MODE,
    min_edge_weight: float = DEFAULT_MIN_EDGE_WEIGHT,
) -> PhaseLabel:
    """Label the drive point by its boundary-mode content (open chain is forced).

    Points where either bulk gap drops below 4 * tol_mode are refused with
    GaplessPointError rather than guessed: with a closed gap the mode counts
    carry no phase information.
    """
    gap_zero, gap_pi = bulk_gaps(params.theta0, params.theta1)
    if min(gap_zero, gap_pi) < 4.0 * tol_mode:
        raise GaplessPointError(
            f"bulk gaps ({gap_zero:.4f} around 0, {gap_pi:.4f} around pi) too small to classify"
        )
    open_params = dataclasses.replace(params, bc=BoundaryCondition.OPEN)
    modes = find_edge_modes(open_params, tol_mode=tol_mode, min_edge_weight=min_edge_weight)
    n_zero = sum(1 for m in modes if m.kind == "zero")
    n_pi = sum(1 for m in modes if m.kind == "pi")
    if n_zero >= 2 and n_pi >= 2:
        label = Phase.ZERO_PI
    elif n_zero >= 2 and n_pi == 0:
        label = Phase.ZERO
    elif n_zero == 0 and n_pi >= 2:
        label = Phase.PI
    elif n_zero == 0 and n_pi == 0:
        label = Phase.TRIVIAL
    else:
        raise GaplessPointError(
            f"ambiguous edge-mode counts (n_zero={n_zero}, n_pi={n_pi}) near a boundary"
        )
    return PhaseLabel(label=label, n_zero_modes=n_zero, n_pi_modes=n_pi)
