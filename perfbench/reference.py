"""Independent references the benchmark checks the program's outputs against.

Everything here is built from the model definitions with plain numpy; nothing
is imported from floqlat, so a change to the package cannot change its own
yardstick.  The dense Floquet operator is the same product
exp(-i theta1 H1) exp(-i theta0 H0) that floqlat's dense oracle
(floquet_operator of build_h0 and build_h1_scaled) forms.
"""

from __future__ import annotations

import math

import numpy as np

QUARTER_PI = math.pi / 4.0
FOLD_ATOL = 1e-12


def fold(x: np.ndarray) -> np.ndarray:
    """Angles folded into [-pi, pi), values within 1e-12 of +pi mapped to -pi."""
    folded = np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(folded >= np.pi - FOLD_ATOL, -np.pi, folded)


def wrap_metric(a, b) -> float:
    """Largest wrap-aware distance between two sorted lists of angles."""
    d = np.abs(np.sort(np.asarray(a, dtype=float)) - np.sort(np.asarray(b, dtype=float)))
    return float(np.minimum(d, 2.0 * np.pi - d).max())


def _hopping(n_sites: int, bonds, coeffs) -> np.ndarray:
    h = np.zeros((n_sites, n_sites), dtype=complex)
    for (a, b), c in zip(bonds, coeffs):
        h[a, b] += c
        h[b, a] += c
    return h


def _evolution(h: np.ndarray, angle: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1.0j * angle * w)) @ v.conj().T


def open_drive_quasienergies(theta0: float, theta1: float, n_cells: int, h1_coeffs=None):
    """Sorted quasienergies of the open driven chain by dense exponentials and eigvals."""
    n = 2 * n_cells
    h0 = _hopping(n, [(2 * j, 2 * j + 1) for j in range(n_cells)], [2.0] * n_cells)
    h1_bonds = [(2 * j + 1, 2 * j + 2) for j in range(n_cells - 1)]
    if h1_coeffs is None:
        h1_coeffs = [2.0] * len(h1_bonds)
    u = _evolution(_hopping(n, h1_bonds, h1_coeffs), theta1) @ _evolution(h0, theta0)
    return np.sort(fold(-np.angle(np.linalg.eigvals(u))))


def _ssh_couplings(eta: float) -> tuple[float, float]:
    u = 0.5 * (1.0 + math.sin(2.0 * eta))
    return u, 1.0 - u


def _doubled_poles(energies: np.ndarray) -> np.ndarray:
    principal = np.arcsin(np.clip(energies, -1.0, 1.0))
    return np.sort(np.concatenate([principal, fold(np.pi - principal)]))


def sweep_metric(config: str, eta: float, n_cells: int) -> float:
    """The criterion-6 spectral difference at one size, for config 'obc' or 'wall'.

    The driven chain has n_cells cells; the mapped static dimerized chain has
    n_cells // 2 cells.  The wall configuration puts the eta step at the chain
    midpoint: eta on the left of the driven chain (the right bonds rescaled to
    the -eta phase), and the mirror-image static wall, -eta on the left.
    """
    m = n_cells // 2
    intra = [(2 * j, 2 * j + 1) for j in range(m)]
    inter = [(2 * j + 1, 2 * j + 2) for j in range(m - 1)]
    if config == "obc":
        drive = open_drive_quasienergies(QUARTER_PI, QUARTER_PI + eta, n_cells)
        u, v = _ssh_couplings(eta)
        static = _hopping(2 * m, intra + inter, [v] * m + [u] * (m - 1))
    else:
        wall = n_cells
        right = 2.0 * (QUARTER_PI - eta) / (QUARTER_PI + eta)
        coeffs = [2.0 if 2 * j + 1 < wall else right for j in range(n_cells - 1)]
        drive = open_drive_quasienergies(QUARTER_PI, QUARTER_PI + eta, n_cells, coeffs)
        (u_l, v_l), (u_r, v_r) = _ssh_couplings(-eta), _ssh_couplings(eta)
        static_wall = m
        v_bonds = [v_l if 2 * j < static_wall else v_r for j in range(m)]
        u_bonds = [u_l if 2 * j + 1 < static_wall else u_r for j in range(m - 1)]
        static = _hopping(2 * m, intra + inter, v_bonds + u_bonds)
    return wrap_metric(drive, _doubled_poles(np.linalg.eigvalsh(static)))


def bulk_gaps(theta0: float, theta1: float) -> tuple[float, float]:
    """Bulk gaps around 0 and pi: cos(eps) sweeps [A - |B|, A + |B|]."""
    a = math.cos(2.0 * theta0) * math.cos(2.0 * theta1)
    b = abs(math.sin(2.0 * theta0) * math.sin(2.0 * theta1))
    return math.acos(min(1.0, a + b)), math.pi - math.acos(max(-1.0, a - b))


def region_label(theta0: float, theta1: float) -> str:
    """Criterion-4 rule: the two diagonals of the phase square separate the phases."""
    zero_side = theta1 > theta0
    pi_side = theta0 + theta1 > math.pi / 2.0
    return {(False, False): "trivial", (True, False): "0",
            (False, True): "pi", (True, True): "0pi"}[(zero_side, pi_side)]


def wd_wall_xi(eta: float) -> float:
    """Closed-form decay length of the Wilson-Dirac wall zero mode, -1 / log tan^2(pi/4 - eta)."""
    return -1.0 / math.log(math.tan(QUARTER_PI - eta) ** 2)
