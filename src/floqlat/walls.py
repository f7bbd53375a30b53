"""Domain walls in the detuning eta and their bound states.

A wall is a spatial step of eta = theta1 - pi/4 at a chosen bond.  In the
driven chain it is realized by rescaling the second-step bond coefficient on
one side (the drive phase itself stays uniform); in the static models it is a
step in the couplings (u, v) or (m, r).  A DomainWallProfile holds only the
step; the builder it is handed to (build_floquet_wall, build_ssh_wall or
build_wd_wall) names the model.  The zero mode bound to a Wilson-Dirac wall
has the closed-form profile phi(x) = (1 + m/R)^x with reciprocal decay
factors on the two sides.  Bound states are fitted among the eigenpairs in
an energy window, the only ones built (mode_states of either operator), and
take their energy by the rule of floquet.localized_modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .floquet import QUARTER_PI, UnitaryOperator, localized_modes, mode_states
from .models import (
    BoundaryCondition,
    DriveParams,
    HermitianOperator,
    _integer,
    build_ssh_profile,
    build_wd_profile,
    h1_bond_cells,
)
from .doubling import solve_ssh_params, solve_wd_params

# Amplitudes below this fraction of a state's peak are left out of the decay
# fits: 1e4 ulp, above the roundoff of the eigenvector components.
AMP_REL_FLOOR = 1e4 * np.finfo(float).eps


def _check_wall_site(wall_position, n_sites: int) -> int:
    """wall_position as an int, where it is an integer (_integer) inside a chain of n_sites sites."""
    wall = _integer("wall_position", wall_position)
    if not 0 < wall < n_sites:
        raise ValidationError(f"wall_position={wall} outside the chain of {n_sites} sites")
    return wall


@dataclass(frozen=True)
class DomainWallProfile:
    """Spatial step in eta: eta_left for sites below the wall, eta_right at and above.

    The canonical configuration is antisymmetric, eta_right = -eta_left; the
    wall sits between sites wall_position - 1 and wall_position, an integer
    (chain midpoint when wall_position is None).
    """

    eta_left: float
    eta_right: float
    wall_position: int | None = None

    def __post_init__(self):
        for name in ("eta_left", "eta_right"):
            value = getattr(self, name)
            if not abs(value) <= QUARTER_PI + 1e-12:
                raise ValidationError(f"{name}={value} outside [-pi/4, pi/4]")
        if self.wall_position is not None:
            object.__setattr__(self, "wall_position", _integer("wall_position", self.wall_position))

    def wall_site(self, n_sites: int) -> int:
        return n_sites // 2 if self.wall_position is None else _check_wall_site(self.wall_position, n_sites)


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
        raise ValidationError("eta_left = -pi/4 freezes the second drive step; no rescaling exists")
    right_coeff = 2.0 * (QUARTER_PI + eta_right) / (QUARTER_PI + eta_left)
    b_cell, _ = h1_bond_cells(n_cells, BoundaryCondition.OPEN).T
    return np.where(2 * b_cell + 1 < wall_site, 2.0, right_coeff)


def build_floquet_wall(profile: DomainWallProfile, n_cells: int) -> UnitaryOperator:
    """One-period operator of the open driven chain with an eta step.

    theta0 is pi/4 and theta1 = pi/4 + eta_left; the right region enters only
    through the rescaled second-step bond coefficients.
    """
    params = DriveParams(
        theta0=QUARTER_PI,
        theta1=QUARTER_PI + profile.eta_left,
        n_cells=n_cells,
        bc=BoundaryCondition.OPEN,
    )
    wall = profile.wall_site(params.n_sites)
    coeffs = h1_step_profile(n_cells, profile.eta_left, profile.eta_right, wall)
    return UnitaryOperator(params, coeffs)


def build_ssh_wall(profile: DomainWallProfile, n_cells: int) -> HermitianOperator:
    """Open dimerized chain whose (u, v) step across the wall follows the eta step.

    Each bond takes the couplings of the side its left site belongs to, so the
    wall bond carries the left value.
    """
    wall = profile.wall_site(2 * n_cells)
    left = solve_ssh_params(profile.eta_left)
    right = solve_ssh_params(profile.eta_right)
    b_cell, _ = h1_bond_cells(n_cells, BoundaryCondition.OPEN).T
    v_bonds = np.where(2 * np.arange(n_cells) < wall, left.v, right.v)
    u_bonds = np.where(2 * b_cell + 1 < wall, left.u, right.u)
    return build_ssh_profile(v_bonds, u_bonds, BoundaryCondition.OPEN)


def build_wd_wall(profile: DomainWallProfile, n_sites: int) -> HermitianOperator:
    """Open Wilson-Dirac chain with (m, r) stepping across the wall.

    Sites below the wall take the eta_left couplings, the rest take eta_right;
    hopping terms use the bond-averaged r.
    """
    wall = profile.wall_site(n_sites)
    left = solve_wd_params(profile.eta_left)
    right = solve_wd_params(profile.eta_right)
    below = np.arange(n_sites) < wall
    mass = np.where(below, left.m, right.m)
    wilson = np.where(below, left.r, right.r)
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
        raise ValidationError(f"eta={eta} outside (0, pi/4)")
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


def fit_localization_length(amplitudes, wall_position: int) -> tuple[float, float]:
    """Decay lengths on both sides of a wall from log-linear least squares.

    Fits log(amplitude) against the distance from the wall on each side,
    using sites with amplitude above AMP_REL_FLOOR times the peak amplitude,
    skipping the 2 sites nearest the wall and the 10% of sites nearest each
    chain end.  Returns (xi_left, xi_right) with xi = -1 / slope.
    """
    amps = np.asarray(amplitudes, dtype=float)
    n = len(amps)
    wall_position = _check_wall_site(wall_position, n)
    n_edge = math.ceil(0.1 * n)
    amp_floor = AMP_REL_FLOOR * amps.max(initial=0.0)

    def _side_fit(sites: np.ndarray, distances: np.ndarray, side: str) -> float:
        keep = (distances >= 2) & (amps[sites] > amp_floor)
        keep &= (sites >= n_edge) & (sites < n - n_edge)
        if keep.sum() < 4:
            raise ValidationError(f"only {int(keep.sum())} usable sites on the {side} side")
        slope = np.polyfit(distances[keep], np.log(amps[sites[keep]]), 1)[0]
        return -1.0 / slope

    left_sites = np.arange(0, wall_position)
    right_sites = np.arange(wall_position, n)
    xi_left = _side_fit(left_sites, (wall_position - 1) - left_sites, "left")
    xi_right = _side_fit(right_sites, right_sites - wall_position, "right")
    return xi_left, xi_right


def _select_bound_state(
    values: np.ndarray,
    states: np.ndarray,
    wall_position: int,
    energy_window: float,
    components_per_site: int = 1,
) -> BoundState:
    """Fit the wall-localized state among the eigenpairs within energy_window of the mode energy.

    The candidates are rotated by localized_modes, since a chain end can
    host a partner degenerate with the wall mode or mixed with it into a +-E
    pair.  The rotated state with the most weight within a few sites of the
    wall is fitted, and its energy is the value it takes by localized_modes'
    rule, whatever the eigenbasis and its phases.
    """
    n_sites = states.shape[0] // components_per_site
    wall_position = _check_wall_site(wall_position, n_sites)
    if values.size == 0:
        raise ValidationError(
            f"no eigenstate within {energy_window} of the mode energy on the chain of {n_sites} "
            "sites: the wall mode may be longer than the chain"
        )
    taken, localized = localized_modes(values, states, components_per_site)
    weights = np.abs(localized) ** 2
    weights = weights.reshape(n_sites, components_per_site, -1).sum(axis=1)
    radius = max(4, min(10, n_sites // 10))
    best = np.argmax(weights[max(0, wall_position - radius) : wall_position + radius].sum(axis=0))
    xi_left, xi_right = fit_localization_length(np.sqrt(weights[:, best]), wall_position)
    return BoundState(
        energy=float(taken[best]),
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
    return _select_bound_state(
        *op.mode_states(energy_window), wall_position, energy_window, components_per_site
    )


def floquet_bound_states(
    unitary: UnitaryOperator, wall_position: int, energy_window: float
) -> tuple[BoundState, BoundState]:
    """The wall-localized zero mode (|eps| < energy_window) and pi mode
    (pi - |eps| < energy_window) of a driven-chain wall, from one mode_states
    call.  build_floquet_wall puts every wall on the line, so for windows up
    to pi/4 one SVD of the half-size drive's block a holds both."""
    return tuple(
        _select_bound_state(*modes, wall_position, energy_window)
        for modes in mode_states(unitary, energy_window)
    )
