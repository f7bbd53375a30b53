"""Single-particle Hamiltonians for the driven dimerized chain and its static relatives.

All couplings are stored in units of the inverse driving period (T = 1) and the
spatial lattice spacing is 1.  Chains are indexed in physical order, sites
0 .. 2N-1, with sublattice A on even and B on odd sites.  Matrices are dense
complex; momentum-space dispersions are provided only as analytic oracles and
are never used to assemble matrices.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, ProfileLengthError, ValidationError

HERMITICITY_ATOL = 1e-12
_RANGE_SLACK = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _check_count(owner, name: str, value) -> None:
    """Require an integer cell or site count >= 2 (numpy integers too) and store it as int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 2:
        raise DimensionError(f"{name} must be >= 2, got {value}")
    object.__setattr__(owner, name, int(value))


class BoundaryCondition(enum.Enum):
    PERIODIC = "pbc"
    OPEN = "obc"


@dataclass(frozen=True)
class DriveParams:
    """Configuration of the two-step drive: phases theta_i = t_i / T and chain size.

    The chain has 2 * n_cells sites; PERIODIC identifies site 2N with site 0.
    Both phases live in the window [0, pi/2].
    """

    theta0: float
    theta1: float
    n_cells: int
    bc: BoundaryCondition = BoundaryCondition.PERIODIC

    def __post_init__(self):
        for name in ("theta0", "theta1"):
            value = getattr(self, name)
            if not (-_RANGE_SLACK <= value <= math.pi / 2 + _RANGE_SLACK):
                raise ValidationError(f"{name}={value} outside [0, pi/2]")
        _check_count(self, "n_cells", self.n_cells)

    @property
    def n_sites(self) -> int:
        return 2 * self.n_cells


@dataclass(frozen=True)
class SSHParams:
    """Static dimerized chain: intra-cell coupling v, inter-cell coupling u."""

    u: float
    v: float
    n_cells: int
    bc: BoundaryCondition = BoundaryCondition.PERIODIC

    def __post_init__(self):
        if self.u < 0 or self.v < 0:
            raise ValidationError(f"couplings must be non-negative, got u={self.u}, v={self.v}")
        _check_count(self, "n_cells", self.n_cells)


@dataclass(frozen=True)
class WDParams:
    """Wilson-Dirac chain: mass m, Wilson parameter r, one 2-spinor per site."""

    m: float
    r: float
    n_sites: int
    bc: BoundaryCondition = BoundaryCondition.PERIODIC

    def __post_init__(self):
        if self.r < 0:
            raise ValidationError(f"Wilson parameter must be non-negative, got r={self.r}")
        _check_count(self, "n_sites", self.n_sites)


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix with the hermiticity invariant checked on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        deviation = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
        if deviation >= HERMITICITY_ATOL:
            raise ValidationError(f"matrix is not Hermitian: max |M - M^dag| = {deviation:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def diagonalize(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.matrix)


def sublattice_parity(dim: int) -> np.ndarray:
    """diag(+1, -1, +1, ...): the chiral operator of the bipartite chains."""
    return np.diag(np.where(np.arange(dim) % 2 == 0, 1.0, -1.0))


def build_h0(params: DriveParams) -> HermitianOperator:
    """Hopping Hamiltonian of the first drive step: amplitude 2 on bonds (2j, 2j+1).

    The bonds never cross the boundary, so the matrix is identical for both
    boundary conditions.
    """
    n = params.n_sites
    m = np.zeros((n, n), dtype=complex)
    for j in range(params.n_cells):
        m[2 * j, 2 * j + 1] = 2.0
        m[2 * j + 1, 2 * j] = 2.0
    return HermitianOperator(m)


def h1_bond_sites(n_cells: int, bc: BoundaryCondition) -> list[tuple[int, int]]:
    """Site pairs coupled by the second drive step, in bond order.

    Open chains stop at bond (2N-3, 2N-2), leaving sites 0 and 2N-1 without a
    second-step bond; periodic chains append the wrap-around bond (2N-1, 0).
    """
    bonds = [(2 * j + 1, 2 * j + 2) for j in range(n_cells - 1)]
    if bc is BoundaryCondition.PERIODIC:
        bonds.append((2 * n_cells - 1, 0))
    return bonds


def build_h1(params: DriveParams) -> HermitianOperator:
    """Hopping Hamiltonian of the second drive step: amplitude 2 on bonds (2j+1, 2j+2)."""
    bonds = h1_bond_sites(params.n_cells, params.bc)
    return build_h1_scaled(params, [2.0] * len(bonds))


def build_h1_scaled(params: DriveParams, coeff_profile: Sequence[float]) -> HermitianOperator:
    """Second-step Hamiltonian with bond j carrying coeff_profile[j] instead of 2.

    The profile length must match the bond count for the given boundary
    condition (N for periodic, N-1 for open chains).
    """
    bonds = h1_bond_sites(params.n_cells, params.bc)
    profile = np.asarray(coeff_profile, dtype=float)
    if profile.shape != (len(bonds),):
        raise ProfileLengthError(
            f"expected {len(bonds)} bond coefficients for bc={params.bc.value}, got {profile.shape}"
        )
    n = params.n_sites
    m = np.zeros((n, n), dtype=complex)
    for coeff, (a, b) in zip(profile, bonds):
        m[a, b] += coeff
        m[b, a] += coeff
    return HermitianOperator(m)


def build_ssh_profile(
    v_bonds: Sequence[float], u_bonds: Sequence[float], bc: BoundaryCondition
) -> HermitianOperator:
    """Dimerized chain with bond-resolved couplings.

    v_bonds[j] sits on the intra-cell bond (2j, 2j+1) and u_bonds[j] on the
    inter-cell bond (2j+1, 2j+2); periodic chains include the wrap-around
    inter-cell bond as the last entry of u_bonds.
    """
    v = np.asarray(v_bonds, dtype=float)
    u = np.asarray(u_bonds, dtype=float)
    n_cells = len(v)
    if n_cells < 2:
        raise DimensionError(f"need at least 2 cells, got {n_cells}")
    expected_u = n_cells if bc is BoundaryCondition.PERIODIC else n_cells - 1
    if u.shape != (expected_u,):
        raise ProfileLengthError(
            f"expected {expected_u} inter-cell couplings for bc={bc.value}, got {u.shape}"
        )
    n = 2 * n_cells
    m = np.zeros((n, n), dtype=complex)
    for j in range(n_cells):
        m[2 * j, 2 * j + 1] += v[j]
        m[2 * j + 1, 2 * j] += v[j]
    for j in range(expected_u):
        a, b = 2 * j + 1, (2 * j + 2) % n
        m[a, b] += u[j]
        m[b, a] += u[j]
    return HermitianOperator(m)


def build_ssh(params: SSHParams) -> HermitianOperator:
    """Uniform dimerized chain; equals (u/2) H1 + (v/2) H0 on the same site count."""
    n_u = params.n_cells if params.bc is BoundaryCondition.PERIODIC else params.n_cells - 1
    return build_ssh_profile([params.v] * params.n_cells, [params.u] * n_u, params.bc)


def build_wd_profile(
    mass_profile: Sequence[float], wilson_profile: Sequence[float], bc: BoundaryCondition
) -> HermitianOperator:
    """Wilson-Dirac chain with site-resolved mass m(x) and Wilson parameter r(x).

    The stored matrix is the Hermitian single-particle form whose uniform
    periodic dispersion is +-sqrt(r^2 sin^2 p + [m + r(1 - cos p)]^2): per site
    a (m + r) sigma_y block, per bond (i r_b / 2) sigma_z - (r_b / 2) sigma_y
    with the bond-averaged r_b = (r(x) + r(x+1)) / 2 keeping the matrix
    Hermitian for non-uniform profiles.  The on-site r contribution from the
    second-derivative term is kept on every site, including open ends.
    """
    mass = np.asarray(mass_profile, dtype=float)
    wilson = np.asarray(wilson_profile, dtype=float)
    if mass.shape != wilson.shape or mass.ndim != 1:
        raise ProfileLengthError(
            f"mass and Wilson profiles must be 1D of equal length, got {mass.shape} and {wilson.shape}"
        )
    n_sites = len(mass)
    if n_sites < 2:
        raise DimensionError(f"n_sites must be >= 2, got {n_sites}")
    dim = 2 * n_sites
    m = np.zeros((dim, dim), dtype=complex)
    for x in range(n_sites):
        m[2 * x : 2 * x + 2, 2 * x : 2 * x + 2] = (mass[x] + wilson[x]) * SIGMA_Y
    bonds = [(x, x + 1) for x in range(n_sites - 1)]
    if bc is BoundaryCondition.PERIODIC:
        bonds.append((n_sites - 1, 0))
    for x, y in bonds:
        r_bond = 0.5 * (wilson[x] + wilson[y])
        hop = (0.5j * r_bond) * SIGMA_Z - (0.5 * r_bond) * SIGMA_Y
        m[2 * x : 2 * x + 2, 2 * y : 2 * y + 2] += hop
        m[2 * y : 2 * y + 2, 2 * x : 2 * x + 2] += hop.conj().T
    return HermitianOperator(m)


def build_wd(params: WDParams) -> HermitianOperator:
    """Uniform Wilson-Dirac chain on n_sites sites (matrix dimension 2 n_sites)."""
    return build_wd_profile(
        [params.m] * params.n_sites, [params.r] * params.n_sites, params.bc
    )


def ssh_dispersion(u: float, v: float, k) -> np.ndarray:
    """Positive dispersion branch sqrt(u^2 + v^2 + 2 u v cos 2k) of the dimerized chain."""
    k = np.asarray(k, dtype=float)
    return np.sqrt(u * u + v * v + 2.0 * u * v * np.cos(2.0 * k))


def wd_dispersion(m: float, r: float, p) -> np.ndarray:
    """Positive dispersion branch sqrt(r^2 sin^2 p + [m + r(1 - cos p)]^2)."""
    p = np.asarray(p, dtype=float)
    return np.sqrt((r * np.sin(p)) ** 2 + (m + r * (1.0 - np.cos(p))) ** 2)


def ssh_momentum_grid(n_cells: int) -> np.ndarray:
    """Crystal momenta k = pi j / n_cells, j = 0 .. n_cells - 1."""
    return np.pi * np.arange(n_cells) / n_cells


def wd_momentum_grid(n_sites: int) -> np.ndarray:
    """Ring momenta 2 pi j / n_sites folded to [-pi, pi).

    For even n_sites this is the same set as 2 pi j / n_sites - pi.
    """
    p = 2.0 * np.pi * np.arange(n_sites) / n_sites
    return np.mod(p + np.pi, 2.0 * np.pi) - np.pi
