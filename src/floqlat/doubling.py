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

import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    AsinDomainError,
    CellCountError,
    LengthMismatchError,
    OffLineError,
    ValidationError,
)
from .floquet import (
    QuasienergySpectrum,
    analytic_dispersion_line,
    fold_quasienergy,
    wrap_distance,
)
from .models import BoundaryCondition, DriveParams

LINE_ATOL = 1e-12
ASIN_CLAMP = 1e-12


class BranchChoice(enum.Enum):
    PLUS = "+"
    MINUS = "-"


class SSHCouplings(NamedTuple):
    u: float
    v: float


class WDCouplings(NamedTuple):
    m: float
    r: float


class EnergySpectrum(NamedTuple):
    """Sorted static-model energies (units 1/T); |E| <= 1 up to roundoff."""

    values: np.ndarray


class PoleSpectrum(NamedTuple):
    """Sorted discrete-time pole frequencies in [-pi, pi)."""

    values: np.ndarray


def partition_quasienergies(params: DriveParams) -> QuasienergySpectrum:
    """The half of the periodic spectrum carried by the central momentum window.

    Both dispersion branches are evaluated on k = pi j / N for N/4 <= j < 3N/4,
    giving N of the 2N quasienergies; the discarded half equals the folded
    multiset {pi - eps} of the kept one.
    """
    if params.bc is not BoundaryCondition.PERIODIC:
        raise ValidationError("the spectrum partition is defined for periodic chains")
    if abs(params.theta0 - math.pi / 4.0) > LINE_ATOL:
        raise OffLineError(f"theta0={params.theta0} is not pi/4")
    n = params.n_cells
    if n % 4 != 0:
        raise CellCountError(f"n_cells must be a multiple of 4, got {n}")
    return QuasienergySpectrum(np.sort(_central_branches(params.theta1 - math.pi / 4.0, n)))


def _central_branches(eta: float, n_cells: int) -> np.ndarray:
    """Both line-dispersion branches on k = pi j / N for N/4 <= j < 3N/4 (unsorted)."""
    k = np.pi * np.arange(n_cells // 4, 3 * n_cells // 4) / n_cells
    return analytic_dispersion_line(eta, k).ravel()


def sine_transform(spectrum: QuasienergySpectrum) -> EnergySpectrum:
    """Static energies E = sin(eps) of the kept quasienergies, sorted."""
    values = np.asarray(getattr(spectrum, "values", spectrum), dtype=float)
    return EnergySpectrum(np.sort(np.sin(values)))


def solve_ssh_params(eta: float, branch: BranchChoice = BranchChoice.PLUS) -> SSHCouplings:
    """Dimerized-chain couplings u = (1 +- sin 2 eta) / 2, v = 1 - u.

    The PLUS branch is canonical: it makes u > v exactly when eta > 0, matching
    the boundary-mode content of the drive.
    """
    s = math.sin(2.0 * eta)
    u = 0.5 * (1.0 + s) if branch is BranchChoice.PLUS else 0.5 * (1.0 - s)
    return SSHCouplings(u=u, v=1.0 - u)


def solve_wd_params(eta: float, branch: BranchChoice = BranchChoice.MINUS) -> WDCouplings:
    """Wilson-Dirac couplings m = -+ sin(2 eta), r = 1/2 - m/2.

    The MINUS branch is canonical: it makes m < 0 (edge modes present) exactly
    when eta > 0.
    """
    s = math.sin(2.0 * eta)
    m = -s if branch is BranchChoice.MINUS else s
    return WDCouplings(m=m, r=0.5 * (1.0 - m))


def static_spectrum(eta: float, floquet_cells: int) -> EnergySpectrum:
    """Periodic spectrum of both mapped static chains for N drive cells.

    The dimerized chain on N sites (couplings solve_ssh_params(eta)) and the
    Wilson-Dirac chain on N/2 sites (solve_wd_params(eta)) share it: it is the
    sine of the kept quasienergies, evaluated on the drive's own grid momenta
    so that the floats match partition_quasienergies exactly and asin(E)
    inverts cleanly even at the band edge |E| = 1, where diagonalization
    roundoff would be amplified by the asin slope.  Equals dense
    diagonalization of either built chain to better than 1e-10.
    """
    if floquet_cells % 4 != 0 or floquet_cells < 4:
        raise CellCountError(f"n_cells must be a positive multiple of 4, got {floquet_cells}")
    return EnergySpectrum(np.sort(np.sin(_central_branches(eta, floquet_cells))))


def double_poles(spectrum: EnergySpectrum) -> PoleSpectrum:
    """Pole pair {asin(E), fold(pi - asin(E))} of each energy on a time lattice.

    Every energy yields two poles, so the output is twice as long as the input;
    a zero mode acquires a partner at -pi (the fold of +pi).
    """
    values = np.asarray(getattr(spectrum, "values", spectrum), dtype=float)
    overshoot = float(np.abs(values).max()) - 1.0 if values.size else 0.0
    if overshoot > ASIN_CLAMP:
        raise AsinDomainError(f"|E| exceeds 1 by {overshoot:.3e}")
    principal = np.arcsin(np.clip(values, -1.0, 1.0))
    doubled = np.concatenate([principal, fold_quasienergy(np.pi - principal)])
    return PoleSpectrum(np.sort(doubled))


def compare_spectra(a, b) -> float:
    """Largest wrap-aware difference between two equally long spectra, matched in order.

    Both lists are read around the circle starting from the widest empty arc
    of their union and matched index by index from there.  Plain ascending
    order cuts the circle at -pi instead, which shifts the matching by one
    when a pair at +-(pi - delta) on one side faces two values folded to -pi
    on the other; the smaller of the two matchings is returned.
    """
    av = np.sort(np.asarray(getattr(a, "values", a), dtype=float))
    bv = np.sort(np.asarray(getattr(b, "values", b), dtype=float))
    if av.shape != bv.shape:
        raise LengthMismatchError(f"spectra have different lengths: {av.shape} vs {bv.shape}")
    if av.size == 0:
        return 0.0
    sorted_match = float(wrap_distance(av, bv).max())
    union = np.sort(np.mod(np.concatenate([av, bv]), 2.0 * np.pi))
    gaps = np.diff(union, append=union[0] + 2.0 * np.pi)
    cut = union[(int(np.argmax(gaps)) + 1) % union.size]

    def from_cut(values):
        return values[np.argsort(np.mod(values - cut, 2.0 * np.pi), kind="stable")]

    return min(sorted_match, float(wrap_distance(from_cut(av), from_cut(bv)).max()))


def doubled_static_poles(eta: float, floquet_cells: int, target: str) -> PoleSpectrum:
    """Doubled poles of the mapped periodic static model ("ssh" or "wd")."""
    if target not in ("ssh", "wd"):
        raise ValidationError(f"unknown mapping target {target!r}")
    return double_poles(static_spectrum(eta, floquet_cells))


class PiPairingCheck(NamedTuple):
    paired: bool
    max_mismatch: float


def check_pi_pairing(spectrum, tol: float) -> PiPairingCheck:
    """Check whether the folded multiset {pi - eps} equals the multiset {eps}.

    The two lists are matched by compare_spectra, so a pair straddling the
    fold at -pi still meets its partner; the check passes when the largest
    matched discrepancy is at most tol.
    """
    values = np.asarray(getattr(spectrum, "values", spectrum), dtype=float)
    mismatch = compare_spectra(values, fold_quasienergy(np.pi - values))
    return PiPairingCheck(mismatch <= tol, mismatch)
