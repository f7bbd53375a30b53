"""Finite-size sweeps of the spectral-difference metric and power-law fits.

For each chain size N the quasienergies of the open (or domain-wall) driven
chain are solved from its chiral blocks, each on one band, by their secular
equation in O(N) (Bidiagonal.singular_values); the mapped static model, whose
block lies on one band too, is built with the matching boundary configuration
on its reduced lattice, and the doubled static poles are matched to the
quasienergies around the circle from the widest empty arc (compare_spectra).
Periodic chains reproduce the spectrum exactly; open boundaries leave a
mismatch that shrinks like 1/N.  The dimerized (ssh) and Wilson-Dirac (wd)
targets share their static spectra, so the target (MapTarget) only labels a
run: no solve takes it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .doubling import compare_spectra, double_poles, static_spectrum
from .floquet import QUARTER_PI, analytic_pbc_spectrum, build_floquet, quasienergies
from .models import BoundaryCondition, DriveParams
from .walls import DomainWallProfile, build_floquet_wall, build_ssh_wall

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
        _validate_sizes(self.sizes)


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    prefactor: float
    r_squared: float


def _validate_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """The sizes as ints: integers (numpy integers too, not bools), multiples
    of 4 and >= 8, strictly increasing."""
    if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in sizes):
        raise ValidationError(f"sizes must be integers, got {tuple(sizes)!r}")
    sizes = tuple(int(n) for n in sizes)
    if any(n % 4 != 0 or n < 8 for n in sizes):
        raise ValidationError(f"sizes must be multiples of 4 (and >= 8), got {sizes}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError("sizes must be strictly increasing")
    return sizes


def _check_target(config: ScalingConfig, eta: float, target: MapTarget) -> None:
    if not isinstance(target, MapTarget):
        raise ValidationError(f"target must be a MapTarget, got {target!r}")
    if config is ScalingConfig.DOMAIN_WALL and target is not MapTarget.SSH:
        # The Wilson-Dirac wall hosts states slightly outside |E| = 1, so its
        # doubled poles are not real; the wall comparison pairs the driven wall
        # with the dimerized-chain mass wall.
        raise ValidationError("the domain-wall comparison is defined for the ssh target")
    if config is ScalingConfig.DOMAIN_WALL and eta < 0:
        # The static wall's bound state then lies outside |E| <= 1 from N ~ 100.
        raise ValidationError(f"the domain-wall comparison needs a non-negative eta, got {eta:g}")


def mapped_static_spectrum(config: ScalingConfig, eta: float, n_cells: int) -> np.ndarray:
    """Sorted energies of the open static model mapped from an N-cell driven chain.

    Both targets share one hopping block with open ends: the open Wilson-Dirac
    chain on N/2 sites has m + r = v on the diagonal and -r = -u on the bonds,
    the open dimerized chain on N/2 cells the same up to the bond signs, which
    leave the singular values unchanged.  So only the config picks the profile
    of the dimerized chain: uniform at eta for OBC, the mass wall from -eta to
    eta for DOMAIN_WALL.  The static wall is built in its in-band orientation
    (weak wall bond, topological side on the right): it is the mirror image of
    the driven wall, so the sorted spectra still correspond, and for eta >= 0
    all energies stay inside [-1, 1] where the pole doubling is real.
    """
    eta_left = eta if config is ScalingConfig.OBC else -eta
    profile = DomainWallProfile(eta_left=eta_left, eta_right=eta)
    return build_ssh_wall(profile, n_cells // 2).eigenvalues()


def scaling_metric(config: ScalingConfig, eta: float, n_cells: int) -> float:
    """Largest wrap-aware difference at one size N between the driven chain's
    quasienergies and the doubled poles of its mapped static chain, matched
    from the widest empty arc (compare_spectra)."""
    if config is ScalingConfig.OBC:
        params = DriveParams(
            theta0=QUARTER_PI, theta1=QUARTER_PI + eta, n_cells=n_cells, bc=BoundaryCondition.OPEN
        )
        floquet_spec = quasienergies(build_floquet(params))
    else:
        profile = DomainWallProfile(eta_left=eta, eta_right=-eta)
        floquet_spec = quasienergies(build_floquet_wall(profile, n_cells))
    poles = double_poles(mapped_static_spectrum(config, eta, n_cells))
    return compare_spectra(floquet_spec.values, poles.values)


def run_scaling(
    config: ScalingConfig, eta: float, target: MapTarget, sizes: Sequence[int]
) -> ScalingRun:
    """Evaluate the spectral-difference metric over a list of sizes, one
    after the other in size order; the first size that fails, the smallest,
    raises, and the sizes after it are not solved.

    The target labels the run; a target that is not a MapTarget, a domain-wall
    sweep for any target but ssh, or one at eta < 0, is refused before any
    size is solved.
    """
    _check_target(config, eta, target)
    sizes = _validate_sizes(sizes)
    metrics = tuple(scaling_metric(config, eta, n) for n in sizes)
    return ScalingRun(sizes=sizes, metric_values=metrics, config=config, eta=eta, target=target)


def pbc_control(eta: float, sizes: Sequence[int]) -> np.ndarray:
    """Round-trip metric of the periodic pipeline at each size; exact up to roundoff.

    The periodic quasienergies come from the dispersion (numerically validated
    against diagonalization elsewhere), so the control isolates the partition,
    sine transform, pole doubling, and comparison stages.  Both targets share
    the periodic static spectrum (static_spectrum).
    """
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
        raise ValidationError(f"power-law fit needs at least 4 points, got {len(metrics)}")
    if np.any(metrics <= 0.0):
        raise ValidationError("all metric values must be positive for a log-log fit")
    x = -np.log(np.asarray(run.sizes, dtype=float))
    y = np.log(metrics)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    # Sums of squares below eps |y|^2 are round-off: a flat metric fits exactly.
    flat = np.finfo(float).eps * float((y**2).sum())
    if ss_tot <= flat:
        r_squared = 1.0 if ss_res <= flat else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return PowerLawFit(exponent=float(slope), prefactor=float(np.exp(intercept)), r_squared=r_squared)
