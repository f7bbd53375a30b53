"""One-period evolution operator, quasienergy spectra, and phase classification.

Quasienergies are dimensionless (epsilon * T) and live in the half-open window
[-pi, pi).  The branch convention is epsilon = -arg(lambda) for an eigenvalue
lambda of the one-period operator, so that U = exp(-i H_F) holds with arg in
[-pi, pi); values within 1e-12 of +pi fold to -pi.

The one-period operator is kept as the drive's bond data and solved in the
chiral timeframe from its N x N chiral blocks, Bidiagonal values: the spectrum
from the singular values of a and c, the 0 and the pi modes from the triplets
of c and of a.  On pi-paired drives (theta0 = pi/4 on an open or even periodic
chain) the half-size drive that U^2 restricts to does both at ceil(N/2) cells:
two values-only SVDs for the spectrum, the triplets of its block a for both
kinds of mode.  No solve forms the dense 2N x 2N matrix; the tests build it.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessPointError, NumericalError, ValidationError
from .models import (
    SITE_ORBITALS,
    Bidiagonal,
    BoundaryCondition,
    DriveParams,
    bond_coefficients,
    bond_count,
    cell_states,
    h1_bond_cells,
    ssh_momentum_grid,
)

FOLD_ATOL = 1e-12
LINE_ATOL = 1e-12
QUARTER_PI = math.pi / 4.0
UNITARITY_ATOL = 1e-10
ARCCOS_CLAMP = 1e-12

DEFAULT_TOL_MODE = 0.05
MIN_EDGE_WEIGHT = 0.5
# Rotation weights this close to the largest count as a tie in giving a
# localized state its quasienergy.
WEIGHT_TIE_ATOL = 1e-9


def fold_quasienergy(x):
    """Fold angles into [-pi, pi); values within 1e-12 of +pi map to -pi.  Only
    values outside [-pi, pi - 1e-12) are moved, the rest keep every digit."""
    arr = np.asarray(x, dtype=float)
    outside = (arr < -np.pi) | (arr >= np.pi - FOLD_ATOL)
    folded = np.where(outside, np.mod(arr + np.pi, 2.0 * np.pi) - np.pi, arr) + 0.0
    folded = np.where(folded >= np.pi - FOLD_ATOL, -np.pi, folded)
    if np.isscalar(x) or arr.ndim == 0:
        return float(folded)
    return folded


def wrap_distance(a, b):
    """Distance between angles modulo 2 pi: min(|a - b|, 2 pi - |a - b|)."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return np.minimum(d, 2.0 * np.pi - d)


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """One-period operator of the two-step drive, kept as its bond data: the
    parameters and one coefficient per second-step bond (in h1_bond_cells
    order; None means the native 2 on every bond).

    `quasienergies` and `mode_states` work from the bond data alone, and no
    dense matrix is kept; `shape` is (dim, dim), the operator's shape as a
    linear map on the 2N sites.
    """

    params: DriveParams
    h1_coeffs: np.ndarray | None = None

    def __post_init__(self):
        n_bonds = bond_count(self.params.n_cells, self.params.bc)
        values = np.full(n_bonds, 2.0) if self.h1_coeffs is None else self.h1_coeffs
        coeffs = bond_coefficients(values, n_bonds, self.params.bc)
        coeffs.flags.writeable = False
        object.__setattr__(self, "h1_coeffs", coeffs)

    @property
    def dim(self) -> int:
        return self.params.n_sites

    @property
    def shape(self) -> tuple[int, int]:
        return self.dim, self.dim


@dataclass(frozen=True)
class QuasienergySpectrum:
    """Sorted multiset of dimensionless quasienergies in [-pi, pi)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1:
            raise ValidationError(f"expected a 1D value list, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValidationError("quasienergies must be finite")
        if np.any(np.diff(v) < 0):
            raise ValidationError("quasienergies must be sorted ascending")
        if v.size and (v[0] < -np.pi or v[-1] >= np.pi):
            raise ValidationError("quasienergies must lie in [-pi, pi)")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


def _dimer_evolution_apply(sites_a, sites_b, phases, matrix) -> np.ndarray:
    """exp(-i H) @ matrix for a hopping H with amplitude phases[k] on the
    disjoint bonds (sites_a[k], sites_b[k]).

    On each 2x2 bond block the spectral decomposition closes: cos(phase) on
    the diagonal and -i sin(phase) off it; uncoupled sites stay at 1.  So the
    factor has at most two entries per row and is applied row-wise in
    O(N k) to k columns, with no eigensolve.
    """
    off = (-1.0j * np.sin(phases))[:, None]
    diag = np.ones(len(matrix))
    diag[sites_a] = diag[sites_b] = np.cos(phases)
    out = diag[:, None] * matrix
    out[sites_a] += off * matrix[sites_b]
    out[sites_b] += off * matrix[sites_a]
    return out


def _apply_drive(u: UnitaryOperator, matrix: np.ndarray) -> np.ndarray:
    """U @ matrix, for any matrix with 2N rows, as exp(-i H1 theta1) exp(-i H0 theta0)
    applied from exact 2x2 bond blocks.

    Both drive steps are disjoint-dimer Hamiltonians, on the intra-cell bonds
    and on the bonds of h1_bond_cells, so each factor is the spectral
    decomposition of its bond blocks (identical to a dense eigensolve of the
    factor), applied row-wise in O(N k) to k columns.
    """
    params = u.params
    cells = np.arange(params.n_cells)
    b_cell, a_cell = h1_bond_cells(params.n_cells, params.bc).T
    phases0 = np.full(params.n_cells, 2.0 * params.theta0)
    first = _dimer_evolution_apply(2 * cells, 2 * cells + 1, phases0, matrix)
    return _dimer_evolution_apply(2 * b_cell + 1, 2 * a_cell, params.theta1 * u.h1_coeffs, first)


def build_floquet(params: DriveParams) -> UnitaryOperator:
    """One-period evolution operator exp(-i H1 theta1) exp(-i H0 theta0) of the uniform drive."""
    return UnitaryOperator(params)


def is_pi_paired(params: DriveParams) -> bool:
    """Whether the spectrum is closed under eps -> pi - eps for every bond
    profile: theta0 is pi/4 (the float nearest it), on an open chain or on a
    periodic chain with an even number of cells.

    At theta0 = pi/4 the first step exp(-i theta0 H0) is -i X, where X swaps
    A_j and B_j in every cell.  The diagonal V with (-1)^j on A_j and -(-1)^j
    on B_j anticommutes with X, and its signs agree across every second-step
    bond B_j - A_(j+1), so it commutes with H1 whatever the bond profile.
    Hence V U V^dag = -U, and with the chiral symmetry eps -> -eps the
    spectrum is closed under eps -> pi - eps.  In the timeframe that reads
    {theta} = {pi/2 - theta}, so the chiral blocks a and c have the same
    singular values.  The periodic wrap bond B_(N-1) - A_0 keeps the signs in
    agreement only when (-1)^N = 1.

    So U^2 = -E1 (X E1 X), E1 = exp(-i theta1 H1), commutes with V.  Bond j
    of H1 joins B_j to A_(j+1) and bond j of X H1 X joins A_j to B_(j+1), so
    together they form two chains of N sites: the +1 sector of V,
    {A_0, B_1, A_2, B_3, ...} (sites 0, 3, 4, 7, 8, ...), and the -1 sector.
    U maps one sector onto the other, so U^2 has the same spectrum on both,
    and each of its eigenvalues mu on one sector gives U the pair +-sqrt(mu).
    On the +1 sector U^2 is minus a two-step drive on N/2 cells; an open
    chain with odd N is padded with one decoupled cell first (_squared_drive).
    quasienergies solves that drive for the spectrum, and mode_states for the
    eigenvectors: an eigenvector phi of U^2 on the +1 sector gives U the two
    eigenvectors phi + U phi / lambda, one for each root lambda.

    A theta0 that is within LINE_ATOL of pi/4 but not on it does not count:
    read as paired, its quasienergies would move by a few times the offset,
    more than the 1e-12 to which quasienergies and mode_states agree.
    """
    return params.theta0 == QUARTER_PI and (params.bc is BoundaryCondition.OPEN or params.n_cells % 2 == 0)


def _drive_phases(u: UnitaryOperator) -> tuple[np.ndarray, np.ndarray]:
    """First-step half-phases theta0, one per cell, and second-step half-phases
    theta1 * coeff / 2, one per bond."""
    params = u.params
    return np.full(params.n_cells, params.theta0), 0.5 * params.theta1 * u.h1_coeffs


def _chiral_entries(
    half0: np.ndarray, half1: np.ndarray, bc: BoundaryCondition, partners: bool = True
) -> tuple[Bidiagonal, ...]:
    """The chiral blocks a, b, c^T and d^T, as Bidiagonal values, of a
    two-step drive with first-step half-phase half0[j] on cell j and
    second-step half-phase half1[i] on bond i of h1_bond_cells; without
    partners only a and c^T, the two the spectrum reads.

    They are the real blocks of the half-period factor
    G = exp(-i theta1 H1 / 2) exp(-i theta0 H0 / 2) in the real orthogonal
    form S G S^-1 = [[a, -b], [c, d]], S = diag(1_A, i 1_B): a = G_AA,
    b = i G_AB, c = i G_BA and d = G_BB.  With phi(x) the second-step
    half-phase of the bond at site x (0 where there is none), G sends the A
    site of cell j to cos(theta0) [cos phi(A_j) A_j - i sin phi(A_j) B'] - i
    sin(theta0) [cos phi(B_j) B_j - i sin phi(B_j) A'], where B' and A' are
    the bond partners of A_j and B_j, and the B site alike.  So a and b carry
    their bond entry at [A cell, B cell], as a static chain's block does, and
    c and d at [B cell, A cell].  A bond entry takes the first-step phase of
    the cell whose column it sits in: the B cell in a and b, the A cell in
    c^T and d^T.
    """
    n = len(half0)
    b_cell, a_cell = h1_bond_cells(n, bc).T
    sin_phi = np.sin(half1)
    cos0, sin0 = np.cos(half0), np.sin(half0)
    cos_a, cos_b = np.ones(n), np.ones(n)
    cos_a[a_cell] = cos_b[b_cell] = np.cos(half1)
    a = Bidiagonal(cos0 * cos_a, -sin0[b_cell] * sin_phi, bc)
    c_t = Bidiagonal(sin0 * cos_b, cos0[a_cell] * sin_phi, bc)
    if not partners:
        return a, c_t
    return (
        a,
        Bidiagonal(sin0 * cos_a, cos0[b_cell] * sin_phi, bc),
        c_t,
        Bidiagonal(cos0 * cos_b, -sin0[a_cell] * sin_phi, bc),
    )


def _cs_angles(sigma_a: np.ndarray, sigma_c: np.ndarray) -> np.ndarray:
    """Principal angles atan2(sigma_c, sigma_a) of the paired singular values.

    The pairing rests on the CS identity sigma_a^2 + sigma_c^2 = 1, which is
    checked in place of the dense U^dag U test.
    """
    deviation = float(np.abs(sigma_a**2 + sigma_c**2 - 1.0).max(initial=0.0))
    if not deviation < UNITARITY_ATOL:
        raise NumericalError(
            f"chiral blocks are not a CS pair: max |sigma_a^2 + sigma_c^2 - 1| = {deviation:.3e}"
        )
    return np.arctan2(sigma_c, sigma_a)


def timeframe_quasienergies(a: Bidiagonal, c: Bidiagonal) -> np.ndarray:
    """Unsorted, unfolded quasienergies +-2 atan2(sigma_c, sigma_a) of the
    chiral blocks a and c (or c^T, which has the same singular values).

    Both drive steps flip sign under the sublattice operator Gamma, so U is
    similar to Gamma G^dag Gamma G, a product of two reflections (the
    timeframe construction of Asboth and Obuse, PRB 88, 121406(R) (2013)).
    Its eigenphases are +-2 theta_k, where theta_k are the principal angles
    between the A sublattice and its image under G^dag: cos theta_k are the
    singular values of a (descending) and sin theta_k those of c (ascending).

    Swapping the blocks, (a, c) -> (c, a), maps theta_k to pi/2 - theta_k,
    so it gives the spectrum of -U: on the half-size drive of a pi-paired
    drive, that of U^2 (is_pi_paired).  Small theta come from small singular
    values, which keep their relative digits (Bidiagonal.singular_values).
    """
    eps = 2.0 * _cs_angles(a.singular_values(), c.singular_values()[::-1])
    return np.concatenate([-eps, eps])


def _squared_drive(u: UnitaryOperator) -> tuple[np.ndarray, np.ndarray, bool]:
    """First- and second-step half-phases of the half-size drive that U^2 of a
    pi-paired drive restricts to, and whether an odd open chain was padded.

    Bond i of the drive, with coefficient c_i, is bond i of the sector chain
    {A_0, B_1, A_2, ...} (see is_pi_paired), so that chain is a two-step
    drive on ceil(N/2) cells: first-step half-phase theta1 c_(2k) / 2 on cell
    k, second-step half-phase theta1 c_(2k+1) / 2 on its bonds, with the
    periodic wrap when N is even.  An open chain with odd N gets one more
    cell, joined by a bond with c = 0, whose second site is decoupled.
    """
    params = u.params
    _, phases = _drive_phases(u)
    padded = params.bc is BoundaryCondition.OPEN and params.n_cells % 2 == 1
    if padded:
        phases = np.append(phases, 0.0)
    return phases[0::2], phases[1::2], padded


def _squared_drive_quasienergies(u: UnitaryOperator) -> np.ndarray:
    """Unsorted quasienergies in [-pi, pi) of a pi-paired drive (is_pi_paired),
    from the half-size drive that U^2 restricts to (_squared_drive).

    The padding cell of an odd open chain has first step -i X, which adds
    eps = +-pi/2 to the spectrum; the values nearest +pi/2 and -pi/2 are
    dropped again.  U^2 is minus the sector drive, so
    timeframe_quasienergies with the blocks swapped gives the spectrum 2 eps
    of U^2, and U has both square roots, eps and eps + pi.  The CS check runs
    on the half-size blocks.  The half-angles eps lie in the fold window,
    which leaves them as they are, so the 0 modes keep the relative precision
    of a's singular values.
    """
    half0, half1, padded = _squared_drive(u)
    a, c_t = _chiral_entries(half0, half1, u.params.bc, partners=False)
    half = 0.5 * timeframe_quasienergies(c_t, a)
    eps = fold_quasienergy(np.concatenate([half, half + np.pi]))
    if padded:
        eps = np.delete(eps, [np.argmin(np.abs(eps - side)) for side in (0.5 * np.pi, -0.5 * np.pi)])
    return eps


def quasienergies(u: UnitaryOperator) -> QuasienergySpectrum:
    """Sorted quasienergies -arg(lambda) of the one-period operator's eigenvalues,
    solved in the chiral timeframe from the singular values of the N x N
    blocks a and c, or, on a pi-paired drive (is_pi_paired), of the two
    ceil(N / 2) x ceil(N / 2) blocks of the half-size drive that U^2
    restricts to."""
    if is_pi_paired(u.params):
        return QuasienergySpectrum(np.sort(_squared_drive_quasienergies(u)))
    a, c_t = _chiral_entries(*_drive_phases(u), u.params.bc, partners=False)
    eps = timeframe_quasienergies(a, c_t)
    return QuasienergySpectrum(np.sort(fold_quasienergy(eps)))


def _check_mode_window(window: float) -> None:
    """Refuse a mode window outside (0, pi/2]; wider, the 0 and pi windows overlap."""
    if not 0.0 < window <= 0.5 * math.pi:
        raise ValidationError(f"mode window {window} outside (0, pi/2]")


def _timeframe_states(eps, v1, v2, half0) -> tuple[np.ndarray, np.ndarray]:
    """eps ascending with the states exp(+i theta0 H0 / 2) (v1; -+v2) / sqrt(2)
    at eps[:k] and eps[k:], k = v1.shape[1], for the first-step half-phase
    half0[j] on cell j: the timeframe eigenvectors (see mode_states) moved back
    to the drive's frame, cell by cell."""
    eps, phi = cell_states(eps, v1, v2, SITE_ORBITALS)
    cells = np.arange(len(half0))
    return eps, _dimer_evolution_apply(2 * cells, 2 * cells + 1, -half0, phi)


def _block_mode_states(u: UnitaryOperator, window: float) -> tuple[tuple, tuple]:
    """The 0 modes and the pi modes of the full-size blocks (see mode_states):
    c^T's triplets are c's (v1, s, u2), and a's reversed are (v1, s, u1)."""
    half0, half1 = _drive_phases(u)
    a, b, c_t, d_t = _chiral_entries(half0, half1, u.params.bc)
    below = math.sin(0.5 * window)
    modes = []
    for zero, (v1, s, left), partner, transpose in ((True, c_t.triplets(below), d_t, False),
                                                    (False, a.triplets(below)[::-1], b, True)):
        v2 = partner.product(left, transpose)
        norm = np.linalg.norm(v2, axis=0)
        theta = _cs_angles(norm, s) if zero else _cs_angles(s, norm)
        eps = fold_quasienergy(np.concatenate([-2.0 * theta, 2.0 * theta]))
        modes.append(_timeframe_states(eps, v1, v2 / norm, half0))
    return tuple(modes)


def _squared_drive_mode_states(u: UnitaryOperator, window: float) -> tuple[tuple, tuple]:
    """Both kinds of modes of a pi-paired drive from the half-size block a (see mode_states)."""
    half0, half1, padded = _squared_drive(u)
    a, b, _, _ = _chiral_entries(half0, half1, u.params.bc)
    u1, s, v1 = a.triplets(math.sin(window))
    v2 = b.product(u1, transpose=True)
    norm = np.linalg.norm(v2, axis=0)
    delta = _cs_angles(norm, s)
    # (v1; +-v2) gives U^2 the eigenvalue exp(+-2 i delta), so the 0 mode -+delta
    eps = fold_quasienergy(np.concatenate([-delta, delta]))
    eps, phi = _timeframe_states(eps, v1, -v2 / norm, half0)
    # site m of the sector chain is site 2m + (m mod 2) of the drive
    sector = np.arange(len(phi) - padded)
    states = np.zeros((u.dim, phi.shape[1]), dtype=complex)
    states[2 * sector + sector % 2] = phi[: len(sector)]
    image = _apply_drive(u, states)
    modes = []
    for values in (eps, fold_quasienergy(eps + np.pi)):
        order = np.argsort(values, kind="stable")
        psi = (states + image * np.exp(1.0j * values)) * math.sqrt(0.5)
        modes.append((values[order], psi[:, order]))
    return tuple(modes)


def mode_states(u: UnitaryOperator, window: float) -> tuple[tuple, tuple]:
    """The 0 modes (|eps| < window) and the pi modes (pi - |eps| < window),
    ((eps_zero, states_zero), (eps_pi, states_pi)), each with quasienergies
    ascending and orthonormal eigenvector columns.

    The orthogonal real form [[a, -b], [c, d]] of G has the CS decomposition
    a = U1 C V1^T, b = U1 S V2^T, c = U2 S V1^T, d = U2 C V2^T with C = cos
    theta, S = sin theta (Van Loan, Numer. Math. 46, 479 (1985)).  A 0 mode
    is a small singular value s = sin theta of c, a pi mode one s = cos theta
    of a, so the triplets (Bidiagonal.triplets) of one block hold each kind:
    v1, s, u2 of c (from c^T) and v2 = d^T u2 / |d^T u2|, or u1, s, v1 of a and
    v2 = b^T u1 / |b^T u1|.  The pairs with s < sin(window / 2) are kept; their
    norm, at least cos(pi/4), is the other CS value, and s^2 + norm^2 = 1 is
    checked on them in place of the dense U^dag U test.  In the CS basis the
    timeframe operator Gamma G^dag Gamma G rotates each pair (v1, v2) by
    2 theta, so phi = (v1; -+v2) / sqrt(2) is its eigenvector with
    quasienergy -+2 theta, and psi = exp(+i theta0 H0 / 2) phi that of U.

    On a pi-paired drive (is_pi_paired) with window <= pi/4 both kinds come
    from the triplets of the half-size drive's block a.  Its pi modes are the
    eigenvectors phi of U^2 on the +1 sector of V, each with eigenvalue
    mu = exp(-2 i eps) near 1, and as U maps that sector onto the -1 one,
    psi = (phi + U phi / lambda) / sqrt(2) is a unit eigenvector of U for
    either root lambda = +-sqrt(mu): the 0 mode eps and the pi mode eps + pi.
    A pair of a is kept when s = sin |eps| < sin(window), with the same CS
    check; phi is assembled in the sector drive's timeframe, placed on the
    sector sites, and the padding site of an odd open chain, which phi never
    reaches, is dropped.  U phi costs O(N k) for k pairs (_apply_drive).
    Past pi/4 the kept pairs would reach s = 1, where the partner norm
    cos eps vanishes and v2 is lost to round-off, so wider windows take the
    full-size blocks.
    """
    _check_mode_window(window)
    if is_pi_paired(u.params) and window <= QUARTER_PI:
        return _squared_drive_mode_states(u, window)
    return _block_mode_states(u, window)


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


def localized_modes(
    values: np.ndarray, states: np.ndarray, components_per_site: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """The value each state rotated by localizing_rotation takes, and those
    states (columns in ascending mean position).

    A state takes the smallest of the eigenvalues it draws the most weight
    from, within WEIGHT_TIE_ATOL: one that draws evenly from a split +-eps
    pair would otherwise take its sign from round-off in the eigenbasis.
    """
    rotation = localizing_rotation(states, components_per_site)
    drawn = np.abs(rotation) ** 2
    tied = drawn >= drawn.max(axis=0, initial=0.0) - WEIGHT_TIE_ATOL
    taken = np.where(tied, values[:, None], np.inf).min(axis=0, initial=np.inf)
    return taken, states @ rotation


def _check_cos_domain(argument: np.ndarray) -> np.ndarray:
    overshoot = float(np.abs(argument).max()) - 1.0 if argument.size else 0.0
    if overshoot > ARCCOS_CLAMP:
        raise NumericalError(f"arccos argument outside [-1, 1] by {overshoot:.3e}")
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
    params: DriveParams, tol_mode: float = DEFAULT_TOL_MODE
) -> list[EdgeModeReport]:
    """Boundary modes of the open chain: localized states near quasienergy 0 or +-pi.

    The 0 modes (|eps| < tol_mode) and apart from them the pi modes
    (pi - |eps| < tol_mode), both from one mode_states call, are rotated by
    localized_modes so that the modes at the two ends count apart; their
    quasienergies go out ascending to the states in the order of the values
    they take, and of mean position among equal ones.  A rotated state
    qualifies when at least MIN_EDGE_WEIGHT of its probability sits on the
    outer 10% of sites (5% per end).  Results are sorted by quasienergy.
    """
    if params.bc is not BoundaryCondition.OPEN:
        raise ValidationError("edge-mode search requires open boundary conditions")
    n_edge = max(1, math.ceil(0.05 * params.n_sites))
    reports = []
    for kind, (eps, states) in zip(("zero", "pi"), mode_states(build_floquet(params), tol_mode)):
        taken, localized = localized_modes(eps, states)
        order = np.argsort(taken, kind="stable")
        for value, state in zip(np.sort(eps), localized[:, order].T):
            weight = np.abs(state) ** 2
            edge_weight = float(weight[:n_edge].sum() + weight[-n_edge:].sum())
            if edge_weight < MIN_EDGE_WEIGHT:
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


def classify_phase(params: DriveParams, tol_mode: float = DEFAULT_TOL_MODE) -> PhaseLabel:
    """Label the drive point by its mode counts on the open chain (open is forced).

    With eps = +-2 atan2(sigma_c, sigma_a), the 2 #(sigma_c < sin(tol_mode / 2))
    modes within tol_mode of 0 and the 2 #(sigma_a < sin(tol_mode / 2)) within
    tol_mode of pi are read off the spectrum: twice the timeframe windings.

    Points where either bulk gap drops below 4 * tol_mode are refused with
    GaplessPointError rather than guessed: with a closed gap the mode counts
    carry no phase information.
    """
    _check_mode_window(tol_mode)
    gap_zero, gap_pi = bulk_gaps(params.theta0, params.theta1)
    if min(gap_zero, gap_pi) < 4.0 * tol_mode:
        raise GaplessPointError(
            f"bulk gaps ({gap_zero:.4f} around 0, {gap_pi:.4f} around pi) too small to classify"
        )
    open_params = dataclasses.replace(params, bc=BoundaryCondition.OPEN)
    eps = np.abs(quasienergies(build_floquet(open_params)).values)
    n_zero = int(np.count_nonzero(eps < tol_mode))
    n_pi = int(np.count_nonzero(np.pi - eps < tol_mode))
    label = {(False, False): Phase.TRIVIAL, (True, False): Phase.ZERO,
             (False, True): Phase.PI, (True, True): Phase.ZERO_PI}[n_zero > 0, n_pi > 0]
    return PhaseLabel(label=label, n_zero_modes=n_zero, n_pi_modes=n_pi)
