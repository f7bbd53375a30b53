"""One-period evolution operator, quasienergy spectra, and phase classification.

Quasienergies are dimensionless (epsilon * T) and live in the half-open window
[-pi, pi).  The branch convention is epsilon = -arg(lambda) for an eigenvalue
lambda of the one-period operator, so that U = exp(-i H_F) holds with arg in
[-pi, pi); values within 1e-12 of +pi fold to -pi.

Operators built from the drive keep it and are solved in the chiral timeframe:
the spectrum from two N x N singular-value problems, the eigenvectors from the
CS decomposition of the same real blocks.  Dense eigvals and eig of the 2N x 2N
matrix are kept for raw matrices and as the test oracle.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DispersionDomainError,
    GaplessPointError,
    NotUnitaryError,
    ValidationError,
)
from .models import (
    BoundaryCondition,
    DriveParams,
    HermitianOperator,
    bond_coefficients,
    h0_bond_sites,
    h1_bond_sites,
    ssh_momentum_grid,
)

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
        values = np.full(n_bonds, 2.0) if self.h1_coeffs is None else self.h1_coeffs
        coeffs = bond_coefficients(values, n_bonds, self.params.bc)
        coeffs.flags.writeable = False
        object.__setattr__(self, "h1_coeffs", coeffs)


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Unitary matrix with the unitarity invariant checked when the dense matrix is formed.

    Built from a matrix, the check runs on construction.  Built from a Drive
    (UnitaryOperator(drive=...)), the operator keeps the drive and forms and
    checks the dense matrix only when `matrix` is first read; `quasienergies`
    and `quasienergy_states` work from the drive alone and never read it.
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
        if not deviation < UNITARITY_ATOL:
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


def _dimer_evolution_apply(n_sites, bonds, coeffs, angle, matrix) -> np.ndarray:
    """exp(-i * angle * H) @ matrix for a hopping H made of disjoint bonds.

    On each 2x2 bond block (eigenvalues +-c) the spectral decomposition closes:
    cos(c * angle) on the diagonal and -i sin(c * angle) off it; uncoupled
    sites stay at 1.  So the factor has at most two entries per row and is
    applied row-wise in O(N^2), with no eigensolve.
    """
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

    Both drive steps are disjoint-dimer Hamiltonians on the bonds of
    h0_bond_sites and h1_bond_sites, so each factor is the spectral
    decomposition of its bond blocks (identical to a dense eigensolve of the
    factor), applied row-wise to the identity in O(N^2).
    """
    params = drive.params
    n = params.n_sites
    h0_bonds = h0_bond_sites(params.n_cells)
    e0 = _dimer_evolution_apply(
        n, h0_bonds, [2.0] * len(h0_bonds), params.theta0, np.eye(n, dtype=complex)
    )
    h1_bonds = h1_bond_sites(params.n_cells, params.bc)
    return _dimer_evolution_apply(n, h1_bonds, drive.h1_coeffs, params.theta1, e0)


def build_floquet(params: DriveParams) -> UnitaryOperator:
    """One-period evolution operator exp(-i H1 theta1) exp(-i H0 theta0), kept as its drive."""
    return UnitaryOperator(drive=Drive(params))


def chiral_blocks(drive: Drive) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Real N x N blocks a, b, c, d of the half-period factor G in the real form
    S G S^-1 = [[a, -b], [c, d]], S = diag(1_A, i 1_B).

    Here G = exp(-i theta1 H1 / 2) exp(-i theta0 H0 / 2), a = G_AA,
    b = i G_AB, c = i G_BA and d = G_BB.  Both factors of G are real
    orthogonal in this form, and so is G.  With phi(x) the half-step phase theta1 * coeff / 2 of
    the second-step bond at site x (0 where there is none), G sends the A site
    of cell j to cos(theta0) [cos phi(A_j) A_j - i sin phi(A_j) B'] - i
    sin(theta0) [cos phi(B_j) B_j - i sin phi(B_j) A'], where B' and A' are
    the bond partners of A_j and B_j, and the B site alike.  So all four
    blocks are bidiagonal (cyclic for periodic chains), read straight off the
    bond list: a and b carry their bond entry at [a_cell, b_cell], c and d at
    [b_cell, a_cell].
    """
    return tuple(_dense_block(*entries) for entries in _chiral_entries(drive))


def _chiral_entries(drive: Drive) -> tuple[tuple, tuple, tuple, tuple]:
    """(diagonal, bond positions, bond entries) of each of a, b, c, d; see chiral_blocks."""
    params = drive.params
    n = params.n_cells
    bonds = np.array(h1_bond_sites(n, params.bc), dtype=int).reshape(-1, 2)
    b_cell, a_cell = bonds[:, 0] // 2, bonds[:, 1] // 2
    phi = 0.5 * params.theta1 * drive.h1_coeffs
    sin_phi = np.sin(phi)
    cos0, sin0 = math.cos(params.theta0), math.sin(params.theta0)
    cos_a, cos_b = np.ones(n), np.ones(n)
    cos_a[a_cell] = cos_b[b_cell] = np.cos(phi)
    upper, lower = (a_cell, b_cell), (b_cell, a_cell)
    return (
        (cos0 * cos_a, upper, -sin0 * sin_phi),
        (sin0 * cos_a, upper, cos0 * sin_phi),
        (sin0 * cos_b, lower, cos0 * sin_phi),
        (cos0 * cos_b, lower, -sin0 * sin_phi),
    )


def _dense_block(diagonal: np.ndarray, at: tuple, bond: np.ndarray) -> np.ndarray:
    block = np.diag(diagonal)
    block[at] = bond
    return block


def _cs_angles(sigma_a: np.ndarray, sigma_c: np.ndarray) -> np.ndarray:
    """Principal angles atan2(sigma_c, sigma_a) of the paired singular values.

    The pairing rests on the CS identity sigma_a^2 + sigma_c^2 = 1, which is
    checked in place of the dense U^dag U test.
    """
    deviation = float(np.abs(sigma_a**2 + sigma_c**2 - 1.0).max())
    if not deviation < UNITARITY_ATOL:
        raise NotUnitaryError(
            f"chiral blocks are not a CS pair: max |sigma_a^2 + sigma_c^2 - 1| = {deviation:.3e}"
        )
    return np.arctan2(sigma_c, sigma_a)


def timeframe_quasienergies(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unsorted, unfolded quasienergies +-2 atan2(sigma_c, sigma_a) of the chiral blocks.

    Both drive steps flip sign under the sublattice operator Gamma, so U is
    similar to Gamma G^dag Gamma G, a product of two reflections (the
    timeframe construction of Asboth and Obuse, PRB 88, 121406(R) (2013)).
    Its eigenphases are +-2 theta_k, where theta_k are the principal angles
    between the A sublattice and its image under G^dag: cos theta_k are the
    singular values of a (descending) and sin theta_k those of c (ascending).
    """
    sigma_a = np.linalg.svd(a, compute_uv=False)
    sigma_c = np.linalg.svd(c, compute_uv=False)[::-1]
    eps = 2.0 * _cs_angles(sigma_a, sigma_c)
    return np.concatenate([-eps, eps])


def _cs_decomposition(drive: Drive) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Principal angles theta and the right factors V1, V2 of the CS
    decomposition of the chiral blocks.

    The real form [[a, -b], [c, d]] of G is orthogonal, so a = U1 C V1^T,
    b = U1 S V2^T, c = U2 S V1^T and d = U2 C V2^T with C = cos theta and
    S = sin theta (Van Loan, Numer. Math. 46, 479 (1985)).  numpy has no CS
    decomposition, so it is assembled from two SVDs: pairs with small sigma_c
    come from svd(c), with v2 = d^T u2 / sigma_a, and pairs with small sigma_a
    from svd(a), with v2 = b^T u1 / sigma_c.  The two groups are split at the
    widest gap of sigma_a inside [1/2, sqrt(3)/2], so every division is by at
    least about 1/2 and no degenerate pair is cut in two.
    """
    a, b, c, d = chiral_blocks(drive)
    u1, sigma_a, v1_from_a = np.linalg.svd(a)
    u2, sigma_c, v1_from_c = np.linalg.svd(c)
    u2, sigma_c, v1_from_c = u2[:, ::-1], sigma_c[::-1], v1_from_c[::-1]
    theta = _cs_angles(sigma_a, sigma_c)
    lo, hi = 0.5, 0.5 * math.sqrt(3.0)
    edges = np.concatenate([[hi], sigma_a[(sigma_a > lo) & (sigma_a < hi)], [lo]])
    widest = int(np.argmax(edges[:-1] - edges[1:]))
    m = int(np.count_nonzero(sigma_a > 0.5 * (edges[widest] + edges[widest + 1])))
    v1 = np.concatenate([v1_from_c[:m], v1_from_a[m:]]).T
    v2 = np.concatenate([d.T @ u2[:, :m] / sigma_a[:m], b.T @ u1[:, m:] / sigma_c[m:]], axis=1)
    return theta, v1, v2


def timeframe_states(drive: Drive) -> tuple[np.ndarray, np.ndarray]:
    """Sorted quasienergies and orthonormal eigenvector columns of a drive-built U.

    In the CS basis the timeframe operator Gamma G^dag Gamma G rotates each
    pair (v1, v2) by 2 theta, so phi = (v1; -+v2) / sqrt(2) is its eigenvector
    with quasienergy -+2 theta, and psi = exp(+i theta0 H0 / 2) phi that of U.
    """
    params = drive.params
    n = params.n_cells
    theta, v1, v2 = _cs_decomposition(drive)
    eps = fold_quasienergy(np.concatenate([-2.0 * theta, 2.0 * theta]))
    order = np.argsort(eps)
    column = np.empty(2 * n, dtype=int)
    column[order] = np.arange(2 * n)
    states = np.empty((2 * n, 2 * n), dtype=complex)
    # per cell psi_A = cos(theta0) phi_A + i sin(theta0) phi_B and
    # psi_B = i sin(theta0) phi_A + cos(theta0) phi_B; the 1 / sqrt(2) of phi
    # is folded into the two coefficients
    cos0 = math.cos(params.theta0) / math.sqrt(2.0)
    sin0 = math.sin(params.theta0) / math.sqrt(2.0)
    for sign, cols in ((-1.0, column[:n]), (1.0, column[n:])):
        states.real[0::2, cols] = cos0 * v1
        states.imag[0::2, cols] = sign * sin0 * v2
        states.real[1::2, cols] = sign * cos0 * v2
        states.imag[1::2, cols] = sin0 * v1
    return eps[order], states


def localizing_rotation(states: np.ndarray, components_per_site: int = 1) -> np.ndarray:
    """Unitary R such that states @ R diagonalizes the site position (row x is
    site x // components_per_site) within the span of the orthonormal columns.

    Modes that are degenerate, or that tunnelling splits into a +-eps pair (a
    wall and a chain end, or the two ends), come out of an eigensolver mixed;
    the position eigenbasis of their span puts each at one place.
    """
    position = np.arange(states.shape[0]) // components_per_site
    _, rotation = np.linalg.eigh(states.conj().T @ (position[:, None] * states))
    return rotation


def _dense(u: UnitaryOperator | np.ndarray) -> np.ndarray:
    return u.matrix if isinstance(u, UnitaryOperator) else np.asarray(u, dtype=complex)


def _on_unit_circle(lam: np.ndarray) -> np.ndarray:
    deviation = float(np.abs(np.abs(lam) - 1.0).max())
    if not deviation <= EIGENVALUE_UNIT_TOL:
        raise NotUnitaryError(f"eigenvalues leave the unit circle by {deviation:.3e}")
    return lam


def quasienergies(u: UnitaryOperator | np.ndarray) -> QuasienergySpectrum:
    """Sorted quasienergies -arg(lambda) of the one-period operator's eigenvalues.

    A drive-built operator is solved in the chiral timeframe from two N x N
    singular-value problems; a raw or dense matrix goes through dense eigvals.
    """
    if isinstance(u, UnitaryOperator) and u.drive is not None:
        a, _, c, _ = _chiral_entries(u.drive)
        eps = timeframe_quasienergies(_dense_block(*a), _dense_block(*c))
    else:
        eps = -np.angle(_on_unit_circle(np.linalg.eigvals(_dense(u))))
    return QuasienergySpectrum(np.sort(fold_quasienergy(eps)))


def quasienergy_states(u: UnitaryOperator | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quasienergies sorted ascending with matching normalized eigenvector columns.

    A drive-built operator is solved in the chiral timeframe (timeframe_states:
    orthonormal columns); a raw or dense matrix goes through dense eig.
    """
    if isinstance(u, UnitaryOperator) and u.drive is not None:
        return timeframe_states(u.drive)
    lam, vec = np.linalg.eig(_dense(u))
    eps = fold_quasienergy(-np.angle(_on_unit_circle(lam)))
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


def analytic_pbc_spectrum(theta0: float, theta1: float, n_cells: int) -> np.ndarray:
    """Sorted 2N-value quasienergy multiset from the dispersion on the momentum grid."""
    branches = analytic_dispersion_general(theta0, theta1, ssh_momentum_grid(n_cells))
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
    """Boundary modes of the open chain: localized states near quasienergy 0 or +-pi.

    The eigenstates with |eps| < tol_mode (zero modes), and apart from them
    those with pi - |eps| < tol_mode (pi modes), are rotated by
    localizing_rotation so that the modes at the two ends count apart; their
    quasienergies go to the rotated states one to one, in the order of the
    eigenvector each draws the most weight from.  A rotated state qualifies
    when at least min_edge_weight of its probability sits on the outer 10% of
    sites (5% per end).  Results are sorted by quasienergy.
    """
    if params.bc is not BoundaryCondition.OPEN:
        raise ValidationError("edge-mode search requires open boundary conditions")
    eps, states = quasienergy_states(build_floquet(params))
    n_edge = max(1, math.ceil(0.05 * len(eps)))
    reports = []
    for kind, distance in (("zero", np.abs(eps)), ("pi", np.pi - np.abs(eps))):
        idx = np.flatnonzero(distance < tol_mode)
        if idx.size == 0:
            continue
        rotation = localizing_rotation(states[:, idx])
        order = np.argsort(np.argmax(np.abs(rotation), axis=0), kind="stable")
        for value, state in zip(eps[idx], (states[:, idx] @ rotation[:, order]).T):
            weight = np.abs(state) ** 2
            edge_weight = float(weight[:n_edge].sum() + weight[-n_edge:].sum())
            if edge_weight < min_edge_weight:
                continue
            reports.append(
                EdgeModeReport(
                    quasienergy=float(value),
                    ipr=float((weight**2).sum()),
                    edge_weight=edge_weight,
                    kind=kind,
                )
            )
    return sorted(reports, key=lambda report: report.quasienergy)


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
