"""Domain walls in the detuning eta and their bound states.

A wall is a spatial step of eta = theta1 - pi/4 at a chosen bond.  In the
driven chain it is realized by rescaling the second-step bond coefficient on
one side (the drive phase itself stays uniform); in the static models it is a
step in the couplings (u, v) or (m, r).  The zero mode bound to a Wilson-Dirac
wall has the closed-form profile phi(x) = (1 + m/R)^x with reciprocal decay
factors on the two sides.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EtaRangeError, FitWindowError, ValidationError
from .floquet import Drive, UnitaryOperator, localizing_rotation, quasienergy_states
from .models import (
    BoundaryCondition,
    DriveParams,
    HermitianOperator,
    build_ssh_profile,
    build_wd_profile,
    h0_bond_sites,
    h1_bond_sites,
)
from .doubling import solve_ssh_params, solve_wd_params

QUARTER_PI = math.pi / 4.0


class WallModel(enum.Enum):
    FLOQUET = "floquet"
    SSH = "ssh"
    WD = "wd"


@dataclass(frozen=True)
class DomainWallProfile:
    """Spatial step in eta: eta_left for sites below the wall, eta_right at and above.

    The canonical configuration is antisymmetric, eta_right = -eta_left; the
    wall sits between sites wall_position - 1 and wall_position (chain midpoint
    when wall_position is None).
    """

    model: WallModel
    eta_left: float
    eta_right: float
    wall_position: int | None = None

    def __post_init__(self):
        for name in ("eta_left", "eta_right"):
            value = getattr(self, name)
            if not abs(value) <= QUARTER_PI + 1e-12:
                raise EtaRangeError(f"{name}={value} outside [-pi/4, pi/4]")

    def wall_site(self, n_sites: int) -> int:
        if self.wall_position is None:
            return n_sites // 2
        if not 0 < self.wall_position < n_sites:
            raise ValidationError(
                f"wall_position={self.wall_position} outside the chain of {n_sites} sites"
            )
        return self.wall_position


@dataclass(frozen=True)
class BoundState:
    """A localized state: per-site probability weights and side decay lengths."""

    energy: float
    amplitudes: np.ndarray  # per-site weights, sum = 1
    xi_left: float
    xi_right: float
    positions: np.ndarray

    def __post_init__(self):
        w = np.array(self.amplitudes, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "amplitudes", w)
        p = np.array(self.positions, dtype=int)
        p.flags.writeable = False
        object.__setattr__(self, "positions", p)


def h1_step_profile(n_cells: int, eta_left: float, eta_right: float, wall_site: int) -> np.ndarray:
    """Second-step bond coefficients encoding the eta step at fixed drive phase.

    With theta1 = pi/4 + eta_left, a bond rescaled to
    2 (pi/4 + eta_right) / (pi/4 + eta_left) accumulates the phase of the
    eta_right drive; bonds whose left site lies below the wall keep the native
    coefficient 2 (the wall bond takes the left value).
    """
    if QUARTER_PI + eta_left < 1e-9:
        raise EtaRangeError("eta_left = -pi/4 freezes the second drive step; no rescaling exists")
    right_coeff = 2.0 * (QUARTER_PI + eta_right) / (QUARTER_PI + eta_left)
    bonds = h1_bond_sites(n_cells, BoundaryCondition.OPEN)
    return np.array([2.0 if a < wall_site else right_coeff for a, _ in bonds])


def build_floquet_wall(profile: DomainWallProfile, n_cells: int) -> UnitaryOperator:
    """One-period operator of the open driven chain with an eta step.

    theta0 is pi/4 and theta1 = pi/4 + eta_left; the right region enters only
    through the rescaled second-step bond coefficients.
    """
    if profile.model is not WallModel.FLOQUET:
        raise ValidationError(f"profile is for model {profile.model.value}, expected floquet")
    params = DriveParams(
        theta0=QUARTER_PI,
        theta1=QUARTER_PI + profile.eta_left,
        n_cells=n_cells,
        bc=BoundaryCondition.OPEN,
    )
    wall = profile.wall_site(params.n_sites)
    coeffs = h1_step_profile(n_cells, profile.eta_left, profile.eta_right, wall)
    return UnitaryOperator(drive=Drive(params, coeffs))


def build_ssh_wall(profile: DomainWallProfile, n_cells: int) -> HermitianOperator:
    """Open dimerized chain whose (u, v) step across the wall follows the eta step.

    Each bond takes the couplings of the side its left site belongs to, so the
    wall bond carries the left value.
    """
    if profile.model is not WallModel.SSH:
        raise ValidationError(f"profile is for model {profile.model.value}, expected ssh")
    n_sites = 2 * n_cells
    wall = profile.wall_site(n_sites)
    left = solve_ssh_params(profile.eta_left)
    right = solve_ssh_params(profile.eta_right)
    v_bonds = [left.v if a < wall else right.v for a, _ in h0_bond_sites(n_cells)]
    u_bonds = [
        left.u if a < wall else right.u for a, _ in h1_bond_sites(n_cells, BoundaryCondition.OPEN)
    ]
    return build_ssh_profile(v_bonds, u_bonds, BoundaryCondition.OPEN)


def build_wd_wall(profile: DomainWallProfile, n_sites: int) -> HermitianOperator:
    """Open Wilson-Dirac chain with (m, r) stepping across the wall.

    Sites below the wall take the eta_left couplings, the rest take eta_right;
    hopping terms use the bond-averaged r.
    """
    if profile.model is not WallModel.WD:
        raise ValidationError(f"profile is for model {profile.model.value}, expected wd")
    wall = profile.wall_site(n_sites)
    left = solve_wd_params(profile.eta_left)
    right = solve_wd_params(profile.eta_right)
    mass = [left.m if x < wall else right.m for x in range(n_sites)]
    wilson = [left.r if x < wall else right.r for x in range(n_sites)]
    return build_wd_profile(mass, wilson, BoundaryCondition.OPEN)


def wall_decay_factors(eta: float) -> tuple[float, float]:
    """Per-site amplitude factors (1 + m/R) on the eta and -eta sides of a wall.

    For the canonical wall the two factors are exact reciprocals:
    (1 - sin 2 eta) / (1 + sin 2 eta) on the eta > 0 side and its inverse on
    the other.  Both are evaluated as tan^2(pi/4 -+ eta), the same quantity
    without the subtractive cancellation that 1 + m/R suffers near the band
    edge eta = pi/4.
    """
    return math.tan(QUARTER_PI - eta) ** 2, math.tan(QUARTER_PI + eta) ** 2


def analytic_wd_zero_mode(eta: float, x_range: tuple[int, int]) -> BoundState:
    """Closed-form zero mode of the antisymmetric Wilson-Dirac wall.

    The spinor is (1, 1)^T phi(x) with phi(x) = (1 + m/R)^x per side (x = 0 at
    the wall), normalized over the requested offset window x_range = (lo, hi).
    Both localization lengths equal -1 / log of the decaying factor.
    """
    if not 0.0 < eta < QUARTER_PI:
        raise EtaRangeError(f"eta={eta} outside (0, pi/4)")
    lo, hi = int(x_range[0]), int(x_range[1])
    if lo > hi:
        raise ValidationError(f"empty position window ({lo}, {hi})")
    q_plus, _ = wall_decay_factors(eta)
    positions = np.arange(lo, hi + 1)
    # q_minus = 1 / q_plus, so the two-sided profile is q_plus ** |x|.
    profile = q_plus ** np.abs(positions)
    weights = profile**2
    weights = weights / weights.sum()
    xi = -1.0 / math.log(q_plus)
    return BoundState(
        energy=0.0, amplitudes=weights, xi_left=xi, xi_right=xi, positions=positions
    )


def analytic_wall_state(eta: float, n_sites: int, wall_site: int | None = None) -> np.ndarray:
    """The closed-form zero mode as a normalized spinor vector on an n_sites chain."""
    wall = n_sites // 2 if wall_site is None else wall_site
    q_plus, _ = wall_decay_factors(eta)
    profile = q_plus ** np.abs(np.arange(n_sites) - wall)
    state = np.repeat(profile, 2).astype(complex)
    return state / np.linalg.norm(state)


def fit_localization_length(
    amplitudes,
    wall_position: int,
    amp_floor: float = 1e-10,
    wall_exclusion: int = 2,
    edge_fraction: float = 0.1,
) -> tuple[float, float]:
    """Decay lengths on both sides of a wall from log-linear least squares.

    Fits log(amplitude) against the distance from the wall on each side,
    using sites with amplitude above amp_floor, skipping wall_exclusion sites
    nearest the wall and the edge_fraction of sites nearest each chain end.
    Returns (xi_left, xi_right) with xi = -1 / slope.
    """
    amps = np.asarray(amplitudes, dtype=float)
    n = len(amps)
    n_edge = math.ceil(edge_fraction * n)

    def _side_fit(sites: np.ndarray, distances: np.ndarray, side: str) -> float:
        keep = (distances >= wall_exclusion) & (amps[sites] > amp_floor)
        keep &= (sites >= n_edge) & (sites < n - n_edge)
        if keep.sum() < 4:
            raise FitWindowError(f"only {int(keep.sum())} usable sites on the {side} side")
        slope = np.polyfit(distances[keep], np.log(amps[sites[keep]]), 1)[0]
        return -1.0 / slope

    left_sites = np.arange(0, wall_position)
    right_sites = np.arange(wall_position, n)
    xi_left = _side_fit(left_sites, (wall_position - 1) - left_sites, "left")
    xi_right = _side_fit(right_sites, right_sites - wall_position, "right")
    return xi_left, xi_right


def _select_bound_state(
    values: np.ndarray,
    distance: np.ndarray,
    states: np.ndarray,
    wall_position: int,
    energy_window: float,
    components_per_site: int = 1,
) -> BoundState:
    """Fit the wall-localized state among the eigenstates with distance < energy_window.

    The candidates are rotated by localizing_rotation, since a chain end can
    host a partner degenerate with the wall mode or mixed with it into a +-E
    pair.  The rotated state with the most weight within a few sites of the
    wall is fitted; its energy is the eigenvalue it draws the most weight from.
    """
    candidates = np.flatnonzero(distance < energy_window)
    if candidates.size == 0:
        raise ValidationError(f"no eigenstate within {energy_window} of the mode energy")
    n_sites = states.shape[0] // components_per_site
    rotation = localizing_rotation(states[:, candidates], components_per_site)
    weights = np.abs(states[:, candidates] @ rotation) ** 2
    weights = weights.reshape(n_sites, components_per_site, -1).sum(axis=1)
    radius = max(4, min(10, n_sites // 10))
    best = np.argmax(weights[max(0, wall_position - radius) : wall_position + radius].sum(axis=0))
    xi_left, xi_right = fit_localization_length(np.sqrt(weights[:, best]), wall_position)
    return BoundState(
        energy=float(values[candidates[np.argmax(np.abs(rotation[:, best]))]]),
        amplitudes=weights[:, best] / weights[:, best].sum(),
        xi_left=xi_left,
        xi_right=xi_right,
        positions=np.arange(n_sites),
    )


def numeric_bound_state(
    op: HermitianOperator,
    wall_position: int,
    energy_window: float,
    components_per_site: int = 1,
) -> BoundState:
    """Fit the wall-localized eigenstate with |E| < energy_window of a wall Hamiltonian."""
    energies, states = op.diagonalize()
    return _select_bound_state(
        energies, np.abs(energies), states, wall_position, energy_window, components_per_site
    )


def floquet_bound_states(
    unitary: UnitaryOperator, wall_position: int, energy_window: float
) -> tuple[BoundState, BoundState]:
    """The wall-localized zero mode (|eps| < energy_window) and pi mode
    (pi - |eps| < energy_window) of a driven-chain wall, from one eigensolve."""
    eps, states = quasienergy_states(unitary)
    return tuple(
        _select_bound_state(eps, distance, states, wall_position, energy_window)
        for distance in (np.abs(eps), np.pi - np.abs(eps))
    )
