"""Mapping between the drive's quasienergy spectrum and static lattice models.

On the symmetric-drive line theta0 = pi/4 the quasienergy spectrum is closed
under eps -> pi - eps, so half of it determines the rest.  Keeping the half on
the central momentum window, applying E = sin(eps), and re-emitting each energy
as the pole pair {asin(E), pi - asin(E)} of a time step of length T reproduces
the full spectrum.  The kept half is also the exact periodic spectrum of a
static dimerized chain on half the sites, or of a Wilson-Dirac chain on a
quarter of the sites, with couplings fixed by eta = theta1 - pi/4.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .floquet import (
    LINE_ATOL,
    QUARTER_PI,
    QuasienergySpectrum,
    analytic_dispersion_line,
    fold_quasienergy,
    wrap_distance,
)
from .models import BoundaryCondition, DriveParams, _integer

ASIN_CLAMP = 1e-12


class SSHCouplings(NamedTuple):
    u: float
    v: float


class WDCouplings(NamedTuple):
    m: float
    r: float


def partition_quasienergies(params: DriveParams) -> QuasienergySpectrum:
    """The half of the periodic spectrum carried by the central momentum window.

    Both dispersion branches are evaluated on k = pi j / N for N/4 <= j < 3N/4,
    giving N of the 2N quasienergies; the discarded half equals the folded
    multiset {pi - eps} of the kept one.
    """
    if params.bc is not BoundaryCondition.PERIODIC:
        raise ValidationError("the spectrum partition is defined for periodic chains")
    if abs(params.theta0 - QUARTER_PI) > LINE_ATOL:
        raise ValidationError(f"theta0={params.theta0} is not pi/4")
    n = params.n_cells
    if n % 4 != 0:
        raise ValidationError(f"n_cells must be a multiple of 4, got {n}")
    return QuasienergySpectrum(np.sort(_central_branches(params.theta1 - QUARTER_PI, n)))


def _central_branches(eta: float, n_cells: int) -> np.ndarray:
    """Both line-dispersion branches on k = pi j / N for N/4 <= j < 3N/4 (unsorted)."""
    k = np.pi * np.arange(n_cells // 4, 3 * n_cells // 4) / n_cells
    return analytic_dispersion_line(eta, k).ravel()


def sine_transform(quasienergies: np.ndarray) -> np.ndarray:
    """Static energies E = sin(eps) of the kept quasienergies, sorted."""
    return np.sort(np.sin(np.asarray(quasienergies, dtype=float)))


def solve_ssh_params(eta: float) -> SSHCouplings:
    """Dimerized-chain couplings u = (1 + sin 2 eta) / 2, v = 1 - u.

    This is the + branch of u = (1 +- sin 2 eta) / 2: it makes u > v exactly
    when eta > 0, matching the boundary-mode content of the drive.
    """
    u = 0.5 * (1.0 + math.sin(2.0 * eta))
    return SSHCouplings(u=u, v=1.0 - u)


def solve_wd_params(eta: float) -> WDCouplings:
    """Wilson-Dirac couplings m = -sin(2 eta), r = 1/2 - m/2.

    This is the - branch of m = -+ sin(2 eta): it makes m < 0 (edge modes
    present) exactly when eta > 0.
    """
    m = -math.sin(2.0 * eta)
    return WDCouplings(m=m, r=0.5 * (1.0 - m))


def static_spectrum(eta: float, floquet_cells: int) -> np.ndarray:
    """Periodic spectrum of both mapped static chains for N drive cells.

    The dimerized chain on N sites (couplings solve_ssh_params(eta)) and the
    Wilson-Dirac chain on N/2 sites (solve_wd_params(eta)) share it: it is the
    sine of the kept quasienergies, evaluated on the drive's own grid momenta
    so that the floats match partition_quasienergies exactly and asin(E)
    inverts cleanly even at the band edge |E| = 1, where diagonalization
    roundoff would be amplified by the asin slope.  Equals dense
    diagonalization of either built chain to better than 1e-10.
    """
    floquet_cells = _integer("n_cells", floquet_cells)
    if floquet_cells % 4 != 0 or floquet_cells < 4:
        raise ValidationError(f"n_cells must be a positive multiple of 4, got {floquet_cells}")
    return np.sort(np.sin(_central_branches(eta, floquet_cells)))


def double_poles(energies: np.ndarray) -> QuasienergySpectrum:
    """Pole pair {asin(E), fold(pi - asin(E))} of each energy on a time lattice.

    Every energy yields two poles, so the output is twice as long as the input;
    a zero mode acquires a partner at -pi (the fold of +pi).  The poles are
    quasienergies of the time step, sorted in [-pi, pi).
    """
    values = np.asarray(energies, dtype=float)
    overshoot = float(np.abs(values).max()) - 1.0 if values.size else 0.0
    if overshoot > ASIN_CLAMP:
        raise ValidationError(f"|E| exceeds 1 by {overshoot:.3e}")
    principal = np.arcsin(np.clip(values, -1.0, 1.0))
    doubled = np.concatenate([principal, fold_quasienergy(np.pi - principal)])
    return QuasienergySpectrum(np.sort(doubled))


def compare_spectra(a, b) -> float:
    """Largest wrap-aware difference between two equally long spectra, matched in order.

    Both lists are read around the circle starting from the widest empty arc
    of their union and matched index by index from there.  Plain ascending
    order cuts the circle at -pi instead, which shifts the matching by one
    when a pair at +-(pi - delta) on one side faces two values folded to -pi
    on the other; the smaller of the two matchings is returned.
    """
    av = np.sort(np.asarray(a, dtype=float))
    bv = np.sort(np.asarray(b, dtype=float))
    if av.shape != bv.shape:
        raise ValidationError(f"spectra have different lengths: {av.shape} vs {bv.shape}")
    if av.size == 0:
        return 0.0
    sorted_match = float(wrap_distance(av, bv).max())
    union = np.sort(np.mod(np.concatenate([av, bv]), 2.0 * np.pi))
    gaps = np.diff(union, append=union[0] + 2.0 * np.pi)
    cut = union[(int(np.argmax(gaps)) + 1) % union.size]

    def from_cut(values):
        return values[np.argsort(np.mod(values - cut, 2.0 * np.pi), kind="stable")]

    return min(sorted_match, float(wrap_distance(from_cut(av), from_cut(bv)).max()))


class PiPairingCheck(NamedTuple):
    paired: bool
    max_mismatch: float


def check_pi_pairing(quasienergies: np.ndarray, tol: float) -> PiPairingCheck:
    """Check whether the folded multiset {pi - eps} equals the multiset {eps}.

    The two lists are matched by compare_spectra, so a pair straddling the
    fold at -pi still meets its partner; the check passes when the largest
    matched discrepancy is at most tol.
    """
    values = np.asarray(quasienergies, dtype=float)
    mismatch = compare_spectra(values, fold_quasienergy(np.pi - values))
    return PiPairingCheck(mismatch <= tol, mismatch)
