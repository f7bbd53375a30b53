"""Finite-size sweeps of the spectral-difference metric and power-law fits.

For each chain size N the open (or domain-wall) driven chain is diagonalized,
the mapped static model is built with the matching boundary configuration on
its reduced lattice, and the doubled static poles are compared against the
quasienergies in the sorted-list metric.  Periodic chains reproduce the
spectrum exactly; open boundaries leave a mismatch that shrinks like 1/N.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CellCountError, FitWindowError, NonPositiveMetricError, ValidationError
from .doubling import (
    EnergySpectrum,
    compare_spectra,
    double_poles,
    solve_ssh_params,
    solve_wd_params,
    static_spectrum,
)
from .floquet import analytic_pbc_spectrum, build_floquet, quasienergies
from .models import BoundaryCondition, DriveParams, SSHParams, WDParams, build_ssh, build_wd
from .walls import DomainWallProfile, WallModel, build_floquet_wall, build_ssh_wall

QUARTER_PI = math.pi / 4.0


class ScalingConfig(enum.Enum):
    OBC = "obc"
    DOMAIN_WALL = "wall"


class MapTarget(enum.Enum):
    SSH = "ssh"
    WD = "wd"


@dataclass(frozen=True)
class ScalingRun:
    sizes: tuple[int, ...]
    metric_values: tuple[float, ...]
    config: ScalingConfig
    eta: float
    target: MapTarget

    def __post_init__(self):
        if len(self.sizes) != len(self.metric_values):
            raise ValidationError("sizes and metric values must have equal length")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValidationError("sizes must be strictly increasing")
        if any(n % 4 != 0 for n in self.sizes):
            raise CellCountError(f"all sizes must be multiples of 4, got {self.sizes}")


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    prefactor: float
    r_squared: float


def _validate_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    sizes = tuple(int(n) for n in sizes)
    if any(n % 4 != 0 or n < 8 for n in sizes):
        raise CellCountError(f"sizes must be multiples of 4 (and >= 8), got {sizes}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError("sizes must be strictly increasing")
    return sizes


def _check_wall_target(config: ScalingConfig, target: MapTarget) -> None:
    if config is ScalingConfig.DOMAIN_WALL and target is not MapTarget.SSH:
        # The Wilson-Dirac wall hosts states slightly outside |E| = 1, so its
        # doubled poles are not real; the wall comparison pairs the driven wall
        # with the dimerized-chain mass wall.
        raise ValidationError("the domain-wall comparison is defined for the ssh target")


def mapped_static_spectrum(
    config: ScalingConfig, eta: float, target: MapTarget, n_cells: int
) -> EnergySpectrum:
    """Sorted energies of the open static model mapped from an N-cell driven chain.

    OBC builds the open dimerized chain on N sites or the open Wilson-Dirac
    chain on N/2 sites; DOMAIN_WALL builds the dimerized-chain mass wall on N
    sites (ssh target only).
    """
    _check_wall_target(config, target)
    if config is ScalingConfig.OBC:
        if target is MapTarget.SSH:
            u, v = solve_ssh_params(eta)
            op = build_ssh(SSHParams(u=u, v=v, n_cells=n_cells // 2, bc=BoundaryCondition.OPEN))
        else:
            m, r = solve_wd_params(eta)
            op = build_wd(WDParams(m=m, r=r, n_sites=n_cells // 2, bc=BoundaryCondition.OPEN))
    else:
        # The static wall is built in its in-band orientation (weak wall bond,
        # topological side on the right): it is the mirror image of the driven
        # wall, so the sorted spectra still correspond, and all energies stay
        # inside [-1, 1] where the pole doubling is real.
        profile = DomainWallProfile(model=WallModel.SSH, eta_left=-eta, eta_right=eta)
        op = build_ssh_wall(profile, n_cells // 2)
    return EnergySpectrum(op.eigenvalues())


def scaling_metric(config: ScalingConfig, eta: float, target: MapTarget, n_cells: int) -> float:
    """Sorted-list spectral difference at one size N (open chains)."""
    _check_wall_target(config, target)
    if config is ScalingConfig.OBC:
        params = DriveParams(
            theta0=QUARTER_PI, theta1=QUARTER_PI + eta, n_cells=n_cells, bc=BoundaryCondition.OPEN
        )
        floquet_spec = quasienergies(build_floquet(params))
    else:
        profile = DomainWallProfile(model=WallModel.FLOQUET, eta_left=eta, eta_right=-eta)
        floquet_spec = quasienergies(build_floquet_wall(profile, n_cells))
    poles = double_poles(mapped_static_spectrum(config, eta, target, n_cells))
    return compare_spectra(floquet_spec.values, poles.values)


def run_scaling(
    config: ScalingConfig, eta: float, target: MapTarget, sizes: Sequence[int]
) -> ScalingRun:
    """Evaluate the spectral-difference metric over a list of sizes (in size order)."""
    sizes = _validate_sizes(sizes)
    metrics = tuple(scaling_metric(config, eta, target, n) for n in sizes)
    return ScalingRun(sizes=sizes, metric_values=metrics, config=config, eta=eta, target=target)


def pbc_control(eta: float, target: MapTarget, sizes: Sequence[int]) -> np.ndarray:
    """Round-trip metric of the periodic pipeline at each size; exact up to roundoff.

    The periodic quasienergies come from the dispersion (numerically validated
    against diagonalization elsewhere), so the control isolates the partition,
    sine transform, pole doubling, and comparison stages.  Both targets share
    the periodic static spectrum, so target only names the mapped chain.
    """
    if not isinstance(target, MapTarget):
        raise ValidationError(f"target must be a MapTarget, got {target!r}")
    sizes = _validate_sizes(sizes)
    metrics = []
    for n in sizes:
        full = analytic_pbc_spectrum(QUARTER_PI, QUARTER_PI + eta, n)
        poles = double_poles(static_spectrum(eta, n))
        metrics.append(compare_spectra(full, poles.values))
    return np.asarray(metrics)


def fit_power_law(run: ScalingRun) -> PowerLawFit:
    """Ordinary least squares of log(metric) against log(1/N)."""
    metrics = np.asarray(run.metric_values, dtype=float)
    if len(metrics) < 4:
        raise FitWindowError(f"power-law fit needs at least 4 points, got {len(metrics)}")
    if np.any(metrics <= 0.0):
        raise NonPositiveMetricError("all metric values must be positive for a log-log fit")
    x = -np.log(np.asarray(run.sizes, dtype=float))
    y = np.log(metrics)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot < 1e-300:
        r_squared = 1.0 if ss_res < 1e-300 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return PowerLawFit(exponent=float(slope), prefactor=float(np.exp(intercept)), r_squared=r_squared)
