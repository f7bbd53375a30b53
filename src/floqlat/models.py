"""Single-particle Hamiltonians for the driven dimerized chain and its static relatives.

All couplings are stored in units of the inverse driving period (T = 1) and the
spatial lattice spacing is 1.  Chains are indexed in physical order, sites
0 .. 2N-1, with sublattice A on even and B on odd sites.  Every built chain is
chiral and is kept as its real hopping block h, a Bidiagonal of O(N) entries:
the spectrum is +-svd(h), the eigenpairs in an energy window come from the
singular triplets inside it, and no N x N array is kept.  An open chain of
BAND_MIN_CELLS cells or more whose cells all lie on one band, up to a wall
and a few entries, takes its values from the band's secular equation in O(N)
(floqlat.band); other open chains from dqds on h's entries in O(N^2);
uniform rings from the circulant rule in O(N).  The few vectors of a narrow
window come from bisection and inverse iteration on the entries in O(N k).
Only wide windows, non-uniform rings and the fallbacks form N x N arrays, in
the one dense SVD of h^T, which refuses a block whose arrays would pass
MAX_DENSE_BYTES.  Momentum-space dispersions are provided only as analytic
oracles and are never used to assemble matrices.
"""

from __future__ import annotations

import ctypes
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

_RANGE_SLACK = 1e-12
# Runs whose arrays are estimated above this (2 GiB) are refused before
# anything is allocated.
MAX_DENSE_BYTES = 2**31

# Columns: the a and b orbital of one cell on its two rows.  The dimerized
# chains put A and B on their own sites; the Wilson-Dirac spinor uses the
# sigma_x eigenstates |+> and -i|->, in which its sigma_y mass and hopping
# terms form one real block.
SITE_ORBITALS = np.eye(2, dtype=complex)
SPINOR_ORBITALS = np.array([[1.0, -1.0j], [1.0, 1.0j]]) / math.sqrt(2.0)


def _integer(name: str, value) -> int:
    """value as an int, where it is an integer (numpy integers too, bools not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_count(owner, name: str, value) -> None:
    """Require an integer cell or site count >= 2 (_integer) and store it as int."""
    value = _integer(name, value)
    if value < 2:
        raise ValidationError(f"{name} must be >= 2, got {value}")
    object.__setattr__(owner, name, value)


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
        if not (0.0 <= self.u < math.inf and 0.0 <= self.v < math.inf):
            raise ValidationError(
                f"couplings must be finite and non-negative, got u={self.u}, v={self.v}"
            )
        _check_count(self, "n_cells", self.n_cells)


@dataclass(frozen=True)
class WDParams:
    """Wilson-Dirac chain: mass m, Wilson parameter r, one 2-spinor per site."""

    m: float
    r: float
    n_sites: int
    bc: BoundaryCondition = BoundaryCondition.PERIODIC

    def __post_init__(self):
        if not abs(self.m) < math.inf:
            raise ValidationError(f"mass must be finite, got m={self.m}")
        if not 0.0 <= self.r < math.inf:
            raise ValidationError(f"Wilson parameter must be finite and non-negative, got r={self.r}")
        _check_count(self, "n_sites", self.n_sites)


def _lapack(name: str, *argtypes):
    """LAPACK routine `name` from the ILP64 OpenBLAS that numpy bundles, with
    c_int64 integers, or None where the build does not export it."""
    try:
        kernel = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), f"scipy_{name}_64_")
    except (AttributeError, OSError):
        return None
    kernel.argtypes = argtypes
    kernel.restype = None
    return kernel


_INT = ctypes.POINTER(ctypes.c_int64)
_INTS = np.ctypeslib.ndpointer(np.int64, ndim=1, flags=("C", "W"))
_VECTOR = np.ctypeslib.ndpointer(np.float64, ndim=1, flags=("C", "W"))
_MATRIX = np.ctypeslib.ndpointer(np.float64, ndim=2, flags=("F", "W"))
# gesdd's values-only step after its reduction: dlasq1(n, d, e, work, info)
_DQDS = _lapack("dlasq1", _INT, _VECTOR, _VECTOR, _VECTOR, _INT)
# Bisection and inverse iteration on a symmetric tridiagonal: dstebz(range, order, n, vl,
# vu, il, iu, abstol, d, e, m, nsplit, w, iblock, isplit, work, iwork, info, and range's
# and order's lengths) and dstein(n, d, e, m, w, iblock, isplit, z, ldz, work, iwork,
# ifail, info)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_STEBZ = _lapack("dstebz", ctypes.c_char_p, ctypes.c_char_p, _INT, _DOUBLE, _DOUBLE, _INT, _INT,
                 _DOUBLE, _VECTOR, _VECTOR, _INT, _INT, _VECTOR, _INTS, _INTS, _VECTOR, _INTS,
                 _INT, ctypes.c_size_t, ctypes.c_size_t)
_STEIN = _lapack("dstein", _INT, _VECTOR, _VECTOR, _INT, _VECTOR, _INTS, _INTS, _MATRIX, _INT,
                 _VECTOR, _INTS, _INTS, _INT)
# Bisection takes an open block's in-window triplets while it holds at most one
# in-window value per this many cells; past that, they come from the dense SVD.
# Measured on random open blocks with one BLAS thread, bisection of k values
# costs as much as the dense SVD near k = N / 20 at N = 100, N / 13 at N = 200,
# N / 10 at N = 400 and N / 6 at N = 800, so every window sent to bisection is
# one it solves faster.
BISECTION_CELLS_PER_VALUE = 40
# An open block on one band takes its values from the band's secular equation
# from this many cells up.  Measured on the sweep's blocks with one BLAS
# thread, that route costs about 0.13-0.16 ms at any N (0.22-0.29 ms with a
# wall), dqds about 20 ns N^2: 0.07 ms at N = 50, 0.22 ms at 100 and 1.2 ms
# at 250.  So below it dqds is the faster of the two.
BAND_MIN_CELLS = 96


def _band_value(gap: float, width: float, half: np.ndarray) -> np.ndarray:
    """sqrt(p^2 + q^2 + 2 p q cos phi) at half = (pi - phi) / 2 in the hypot
    form hypot(|p - q|, 2 sqrt(p q) sin(half)), from gap = |p - q| and width
    = 2 sqrt(p q): the values of the band of the (p, q) cells, which keep
    their relative digits near its lower edge."""
    return np.hypot(gap, width * np.sin(half))


@dataclass(frozen=True, eq=False)
class Bidiagonal:
    """Real N x N block h with diagonal[j] at h[j, j] and bonds[i] on bond i
    of h1_bond_cells, at h[A cell, B cell]: h[j + 1, j], and h[0, N - 1] for
    the periodic wrap.  So h is lower bidiagonal, cyclic for periodic chains.
    A bond entry is added, so the one bond of a 1-cell ring, which joins B_0
    back to A_0, lands on the diagonal.  Only dense() forms h.

    Every SVD reads h^T, upper bidiagonal on an open chain.  On one band its
    values solve the band's secular equation (_band_values, O(N)), else they
    are dqds on diagonal and bonds (LAPACK dlasq1: Fernando and Parlett,
    Numer. Math. 67, 191 (1994), O(N^2)); its vectors come from bisection and
    inverse iteration on them in a narrow window (_bisection_vectors), else
    from _dense_svd(), which reduces that form without rounding (Demmel and
    Kahan, SIAM J. Sci. Stat. Comput. 11, 873 (1990)) and runs the same
    steps.  A ring with one diagonal entry and one bond takes its values from
    the circulant rule.  Small values keep the relative digits that h can
    lose.  product() applies h or h^T from the entries.
    """

    diagonal: np.ndarray
    bonds: np.ndarray
    bc: BoundaryCondition

    def __post_init__(self):
        diagonal = np.array(self.diagonal, dtype=float)
        if diagonal.ndim != 1 or not np.isfinite(diagonal).all():
            raise ValidationError(f"diagonal must be 1-D and finite, got shape {diagonal.shape}")
        bonds = bond_coefficients(self.bonds, bond_count(len(diagonal), self.bc), self.bc)
        diagonal.flags.writeable = bonds.flags.writeable = False
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "bonds", bonds)

    def dense(self) -> np.ndarray:
        h = np.diag(self.diagonal)
        b_cell, a_cell = h1_bond_cells(len(h), self.bc).T
        h[a_cell, b_cell] += self.bonds
        return h

    def product(self, columns: np.ndarray, transpose: bool = False) -> np.ndarray:
        """h @ columns, or h^T @ columns, from the entries: O(N k) for k columns."""
        b_cell, a_cell = h1_bond_cells(len(self.diagonal), self.bc).T
        rows, cols = (b_cell, a_cell) if transpose else (a_cell, b_cell)
        out = self.diagonal[:, None] * columns
        out[rows] += self.bonds[:, None] * columns[cols]
        return out

    def _on_entries(self) -> bool:
        """Whether np.linalg.svd(h^T) runs its last steps on h's own entries:
        gesdd reduces an open block to itself, and rescales it first only when
        its largest entry lies outside [sqrt(safmin) / eps, eps / sqrt(safmin)]."""
        largest = max(np.abs(self.diagonal).max(), np.abs(self.bonds).max(initial=0.0))
        return self.bc is BoundaryCondition.OPEN and 2.0**-459 <= largest <= 2.0**459

    def singular_values(self) -> np.ndarray:
        """Singular values of h, descending: the program's one values-only SVD.
        An open block on one band of at least BAND_MIN_CELLS cells takes them
        from its secular equation in O(N) (_band_values), another open one
        from dqds on the entries (_on_entries) in O(N^2), a uniform ring from
        the circulant rule in O(N); where a rule does not apply or a kernel is
        missing or fails, the next one runs, and last _dense_svd()."""
        if self.bc is BoundaryCondition.OPEN and len(self.diagonal) >= BAND_MIN_CELLS:
            sigma = self._band_values()
            if sigma is not None:
                return sigma
        if _DQDS is not None and self._on_entries():
            sigma = self._dqds_values()
            if sigma is not None:
                return sigma
        if (self.bc is BoundaryCondition.PERIODIC and (self.diagonal == self.diagonal[0]).all()
                and (self.bonds == self.bonds[0]).all()):
            return self._circulant_values()
        return self._dense_svd(compute_uv=False)

    def _band_values(self) -> np.ndarray | None:
        """The values of an open block on one band (band._BandChain) in O(N),
        or None.  The block qualifies where (|d_j|, |e_j|) of every cell is
        (p, q) or (q, p) for one p, q > 0, the cells switch between the two at
        most once, and at most two single entries, all nonzero, lie off the
        band; an entry within band._SAME of p or q counts as it.  It gives
        None where its entries away from both ends form two clusters, where
        two values or more lie off the band, and where a self-check fails:
        then dqds runs."""
        from .band import band_values  # compiled only once a block needs it

        return band_values(self.diagonal, self.bonds)

    def _dqds_values(self) -> np.ndarray | None:
        """dqds (LAPACK dlasq1) on an open block's entries, or None where it fails."""
        n = len(self.diagonal)
        sigma, info = self.diagonal.copy(), ctypes.c_int64()
        _DQDS(ctypes.c_int64(n), sigma, np.append(self.bonds, 0.0), np.empty(4 * n), info)
        return sigma if info.value == 0 else None

    def _circulant_values(self) -> np.ndarray:
        """Singular values of a ring with one diagonal entry d and one bond e,
        descending.  h = d + e S with S the cyclic shift is circulant, so its
        values are |d + e w^j|, w = exp(2 pi i / N): _band_value of |d| and |e|
        at the half-angle pi j / N when de <= 0, or pi/2 - pi j / N when
        de > 0, each taken in [0, pi/2] so that small values keep their
        relative digits."""
        n, d, e = len(self.diagonal), float(self.diagonal[0]), float(self.bonds[0])
        j = np.arange(n)
        quarter_turns = np.abs(n - 2 * j) if (d > 0) == (e > 0) else 2 * np.minimum(j, n - j)
        width = 2.0 * math.sqrt(abs(d)) * math.sqrt(abs(e))
        return -np.sort(-_band_value(abs(d) - abs(e), width, 0.5 * np.pi * quarter_turns / n))

    def triplets(self, below: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """h's left vectors, singular values and right vectors (as columns) of
        the values below `below`, descending: the program's one SVD with vectors.
        Open blocks take the values of singular_values() and pair vectors with
        them by index: by bisection (_bisection_vectors) while the k values
        below `below` number at most one per BISECTION_CELLS_PER_VALUE cells,
        else from _dense_svd(), which also gives a ring all three."""
        if self.bc is not BoundaryCondition.OPEN:
            right, sigma, left_t = self._dense_svd()
            keep = sigma < below
            return left_t[keep].T, sigma[keep], right[:, keep]
        sigma = self.singular_values()
        first = len(sigma) - int(np.count_nonzero(sigma < below))
        kept = sigma[first:]
        if math.isfinite(below) and len(kept) <= len(sigma) // BISECTION_CELLS_PER_VALUE:
            vectors = self._bisection_vectors(below, kept)
            if vectors is not None:
                return vectors[0], kept, vectors[1]
        right, _, left_t = self._dense_svd()
        return left_t[first:].T, kept, right[:, first:]

    def _bisection_vectors(
        self, below: float, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """h's left and right vectors of its k smallest singular values
        `values`, all below `below`, in O(N k^2) and no N x N array; None where
        a kernel is missing or fails, or the block is not on its entries.

        They are the eigenvectors of the Golub-Kahan tridiagonal of h^T, of
        2N rows, zero diagonal and off-diagonal d_1, e_1, ..., d_N, with the
        eigenvalues +-sigma (Golub and Kahan, SIAM J. Numer. Anal. 2, 205
        (1965)).  Bisection (LAPACK dstebz) counts the ones in (-below, below]
        by Sturm sequences, exact but within a few ulps of `below` as the
        diagonal is zero (Demmel and Kahan), and there must be 2k.  It finds
        them to an ulp of the largest entry, all that the shifts of inverse
        iteration (LAPACK dstein) need: their values are dqds's.  The shifts
        are kept 1024 ulps of the largest entry from 0: closer, the two of a
        pair +-sigma share one factorization, and dstein returns one vector
        twice.  The even rows of the 2k vectors span h's left vectors and the
        odd rows its right ones.  A thin SVD of each half gives a basis, and
        the SVD of the k x k block h^T takes on them pairs them, descending, as
        a Rayleigh-Ritz step.  The pairs must solve h v = s u and h^T u = s v
        to those 1024 ulps.
        """
        n, k = len(self.diagonal), len(values)
        if k == 0:
            return np.empty((n, 0)), np.empty((n, 0))
        if _STEBZ is None or _STEIN is None or not self._on_entries():
            return None
        size, found, splits, info = (ctypes.c_int64(2 * n), ctypes.c_int64(), ctypes.c_int64(),
                                     ctypes.c_int64())
        zeros, off = np.zeros(2 * n), np.zeros(2 * n)
        off[0::2], off[1:-1:2] = self.diagonal, self.bonds
        shifts, block, split = np.empty(2 * n), np.empty(2 * n, np.int64), np.empty(2 * n, np.int64)
        _STEBZ(b"V", b"B", size, ctypes.c_double(-below), ctypes.c_double(below), ctypes.c_int64(0),
               ctypes.c_int64(0), ctypes.c_double(0.0), zeros, off, found,
               splits, shifts, block, split, np.empty(8 * n), np.empty(6 * n, np.int64), info, 1, 1)
        if info.value != 0 or found.value != 2 * k:
            return None
        tolerance = 1024 * np.finfo(float).eps * np.abs(off).max()
        found_shifts = shifts[: 2 * k]
        found_shifts[:] = np.copysign(np.maximum(np.abs(found_shifts), tolerance), found_shifts)
        vectors = np.empty((2 * n, 2 * k), order="F")
        _STEIN(size, zeros, off, found, shifts, block, split, vectors, size, np.empty(10 * n),
               np.empty(2 * n, np.int64), np.empty(2 * k, np.int64), info)
        if info.value != 0:
            return None
        left, right = (np.linalg.svd(half, full_matrices=False)[0][:, :k]
                       for half in (vectors[0::2], vectors[1::2]))
        pair_right, _, pair_left_t = np.linalg.svd(right.T @ self.product(left, transpose=True))
        left, right = left @ pair_left_t.T, right @ pair_right
        residual = max(np.abs(self.product(right) - left * values).max(),
                       np.abs(self.product(left, transpose=True) - right * values).max())
        return (left, right) if residual <= tolerance else None

    def _dense_svd(self, compute_uv: bool = True):
        """np.linalg.svd(h^T, compute_uv): the program's one solve that forms
        N x N arrays.  It refuses, before allocating, a block whose arrays would
        pass MAX_DENSE_BYTES: 64 N^2 bytes with vectors and 16 N^2 without, the
        growth of peak RSS measured at N = 1000 to 4000 with one BLAS thread."""
        n = len(self.diagonal)
        needed = (64 if compute_uv else 16) * n**2
        if needed > MAX_DENSE_BYTES:
            raise ValidationError(
                f"a dense SVD at N = {n} needs about {needed / 2**30:.1f} GiB of arrays, "
                f"above the {MAX_DENSE_BYTES / 2**30:.0f} GiB limit"
            )
        return np.linalg.svd(self.dense().T, compute_uv=compute_uv)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Chiral chain with two orbitals per cell, kept as its Bidiagonal hopping
    block h: H = sum_ij h[i, j] (|a_i><b_j| + |b_j><a_i|), where a_i and b_i
    are the columns of `orbitals` placed on rows 2i and 2i + 1."""

    block: Bidiagonal
    orbitals: np.ndarray

    def __post_init__(self):
        orbitals = np.array(self.orbitals, dtype=complex)
        if orbitals.shape != (2, 2):
            raise ValidationError(f"expected 2 x 2 orbitals, got {orbitals.shape}")
        orbitals.flags.writeable = False
        object.__setattr__(self, "orbitals", orbitals)

    @property
    def dim(self) -> int:
        return 2 * len(self.block.diagonal)

    def eigenvalues(self) -> np.ndarray:
        sigma = self.block.singular_values()
        return np.concatenate([-sigma, sigma[::-1]])

    def mode_states(self, window: float) -> tuple[np.ndarray, np.ndarray]:
        """The eigenpairs with |E| < window: energies ascending, orthonormal state columns.

        For a block h = U S V^T the chiral chain has (u_k; -+v_k) / sqrt(2) in the
        (a, b) orbitals at energy -+s_k: the block's triplets with s_k < window.
        """
        left, sigma, right = self.block.triplets(window)
        return cell_states(np.concatenate([-sigma, sigma]), left, right, self.orbitals)


def cell_states(values, a, b, orbitals) -> tuple[np.ndarray, np.ndarray]:
    """Values ascending with the state columns (a; -+b) / sqrt(2) at values[:k]
    and values[k:], k = a.shape[1]: in cell i, on rows 2i and 2i + 1, the a
    part times the a orbital plus the b part times the b one (the columns of
    `orbitals`).  The one state assembly of the chiral chains: the static
    chains pass +-s with their singular vectors (HermitianOperator.mode_states),
    the drive +-2 theta with its CS vectors (floquet.mode_states).
    """
    order = np.argsort(values, kind="stable")
    a = np.concatenate([a, a], axis=1)[:, order]
    b = np.concatenate([-b, b], axis=1)[:, order]
    states = np.empty((len(a), 2, a.shape[1]), dtype=complex)
    for row, (to_a, to_b) in zip(states.transpose(1, 0, 2), orbitals * math.sqrt(0.5)):
        np.multiply(to_a, a, out=row)
        row += to_b * b
    return values[order], states.reshape(2 * len(a), a.shape[1])


def h1_bond_cells(n_cells: int, bc: BoundaryCondition) -> np.ndarray:
    """The second-step bonds as rows (B cell, A cell), in bond order.

    Bond j joins the B site of cell j to the A site of cell (j + 1) mod N.
    Open chains stop at j = N - 2, leaving the A site of cell 0 and the B site
    of cell N - 1 without a second-step bond; periodic chains keep the
    wrap-around bond j = N - 1.  The first-step bonds are the intra-cell
    pairs (A_j, B_j) on both boundary conditions.
    """
    b_cell = np.arange(bond_count(n_cells, bc))
    return np.stack([b_cell, (b_cell + 1) % n_cells], axis=1)


def bond_count(n_cells: int, bc: BoundaryCondition) -> int:
    """The number of second-step bonds: N on periodic chains, N - 1 on open ones."""
    return n_cells if bc is BoundaryCondition.PERIODIC else n_cells - 1


def bond_coefficients(values: Sequence[float], n_bonds: int, bc: BoundaryCondition) -> np.ndarray:
    """One finite float coefficient per bond, as a fresh array."""
    coeffs = np.array(values, dtype=float)
    if coeffs.shape != (n_bonds,):
        raise ValidationError(
            f"expected {n_bonds} bond coefficients for bc={bc.value}, got {coeffs.shape}"
        )
    if not np.isfinite(coeffs).all():
        raise ValidationError("bond coefficients must be finite")
    return coeffs


def build_h0(params: DriveParams) -> HermitianOperator:
    """Hopping Hamiltonian of the first drive step: amplitude 2 on bonds (2j, 2j+1)."""
    n_u = bond_count(params.n_cells, params.bc)
    return build_ssh_profile([2.0] * params.n_cells, [0.0] * n_u, params.bc)


def build_h1(params: DriveParams) -> HermitianOperator:
    """Hopping Hamiltonian of the second drive step: amplitude 2 on bonds (2j+1, 2j+2)."""
    return build_h1_scaled(params, [2.0] * bond_count(params.n_cells, params.bc))


def build_h1_scaled(params: DriveParams, coeff_profile: Sequence[float]) -> HermitianOperator:
    """Second-step Hamiltonian with bond j carrying coeff_profile[j] instead of 2.

    The profile length must match the bond count for the given boundary
    condition (N for periodic, N-1 for open chains).
    """
    return build_ssh_profile([0.0] * params.n_cells, coeff_profile, params.bc)


def build_ssh_profile(
    v_bonds: Sequence[float], u_bonds: Sequence[float], bc: BoundaryCondition
) -> HermitianOperator:
    """Dimerized chain with bond-resolved couplings.

    v_bonds[j] sits on the intra-cell bond (2j, 2j+1) and u_bonds[j] on the
    inter-cell bond (2j+1, 2j+2): the bonds of the two drive steps.  Periodic
    chains include the wrap-around inter-cell bond as the last entry of u_bonds.
    """
    block = Bidiagonal(v_bonds, u_bonds, bc)
    if len(block.diagonal) < 2:
        raise ValidationError(f"need at least 2 cells, got {len(block.diagonal)}")
    return HermitianOperator(block, SITE_ORBITALS)


def build_ssh(params: SSHParams) -> HermitianOperator:
    """Uniform dimerized chain; equals (u/2) H1 + (v/2) H0 on the same site count."""
    n_u = bond_count(params.n_cells, params.bc)
    return build_ssh_profile([params.v] * params.n_cells, [params.u] * n_u, params.bc)


def build_wd_profile(
    mass_profile: Sequence[float], wilson_profile: Sequence[float], bc: BoundaryCondition
) -> HermitianOperator:
    """Wilson-Dirac chain with site-resolved mass m(x) and Wilson parameter r(x).

    This is the Hermitian single-particle form whose uniform periodic
    dispersion is +-sqrt(r^2 sin^2 p + [m + r(1 - cos p)]^2): per site a
    (m + r) sigma_y block, per bond (i r_b / 2) sigma_z - (r_b / 2) sigma_y
    with the bond-averaged r_b = (r(x) + r(x+1)) / 2 keeping the matrix
    Hermitian for non-uniform profiles.  The on-site r contribution from the
    second-derivative term is kept on every site, including open ends.  In
    the sigma_x orbitals (SPINOR_ORBITALS) the bond term is i r_b |-_x><+_x+1|,
    so the chain is the block with m + r on the diagonal and -r_b on the bonds,
    one site per cell.
    """
    mass = np.asarray(mass_profile, dtype=float)
    wilson = np.asarray(wilson_profile, dtype=float)
    if mass.shape != wilson.shape or mass.ndim != 1:
        raise ValidationError(
            f"mass and Wilson profiles must be 1D of equal length, got {mass.shape} and {wilson.shape}"
        )
    n_sites = len(mass)
    if n_sites < 2:
        raise ValidationError(f"n_sites must be >= 2, got {n_sites}")
    left, right = h1_bond_cells(n_sites, bc).T
    block = Bidiagonal(mass + wilson, -0.5 * (wilson[left] + wilson[right]), bc)
    return HermitianOperator(block, SPINOR_ORBITALS)


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
