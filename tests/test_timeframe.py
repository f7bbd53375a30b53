"""The chiral-timeframe quasienergy, mode and phase-count solvers against the dense oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floqlat import (
    BoundaryCondition,
    DomainWallProfile,
    DriveParams,
    NumericalError,
    SSHParams,
    UnitaryOperator,
    ValidationError,
    WDParams,
    build_floquet,
    build_floquet_wall,
    build_h0,
    build_h1_scaled,
    build_ssh,
    build_ssh_wall,
    build_wd,
    build_wd_wall,
    classify_phase,
    compare_spectra,
    find_edge_modes,
    floquet_bound_states,
    mode_states,
    quasienergies,
    wrap_distance,
)
from floqlat import floquet, models
from floqlat.floquet import (
    DEFAULT_TOL_MODE,
    LINE_ATOL,
    bulk_gaps,
    fold_quasienergy,
    is_pi_paired,
    localizing_rotation,
    timeframe_quasienergies,
)
from floqlat.models import Bidiagonal, h1_bond_cells
from oracles import (
    chiral_blocks,
    dense_matrix,
    dense_quasienergies,
    dense_quasienergy_states,
    floquet_operator,
)

PI = np.pi
PBC = BoundaryCondition.PERIODIC
OBC = BoundaryCondition.OPEN
ORACLE_TOL = 1e-10
LINE_OFFSET = 1e-6


def dense_operator(params, coeffs):
    """The one-period matrix from dense exponentials of H0 and the scaled H1."""
    return floquet_operator(build_h0(params), build_h1_scaled(params, coeffs),
                            params.theta0, params.theta1)


def dense_oracle(params, coeffs):
    """Sorted quasienergies of the dense operator from eigvals."""
    return dense_quasienergies(dense_operator(params, coeffs)).values


def chiral_entries(drive):
    """The drive's chiral blocks a, b, c^T and d^T as Bidiagonal values."""
    return floquet._chiral_entries(*floquet._drive_phases(drive), drive.params.bc)


def scaled(block, scale):
    """The Bidiagonal block with every entry times scale."""
    return dataclasses.replace(block, diagonal=scale * block.diagonal, bonds=scale * block.bonds)


def _clip(theta):
    return float(min(max(theta, 0.0), PI / 2))


# theta1 on the symmetric line: generic, or within 1e-6 of pi/4, where both gaps close
line_theta1 = st.one_of(
    st.floats(0.0, PI / 2), st.floats(-LINE_OFFSET, LINE_OFFSET).map(lambda x: PI / 4 + x)
)


@st.composite
def drive_angles(draw):
    """Generic points, points within 1e-6 of the gap-closing lines
    theta1 = theta0 and theta0 + theta1 = pi/2, and points with theta0 = pi/4
    exactly or within LINE_ATOL of it."""
    kind = draw(st.sampled_from(["generic", "diagonal", "antidiagonal", "line"]))
    if kind == "line":
        offset = draw(st.one_of(st.just(0.0), st.floats(-LINE_ATOL, LINE_ATOL)))
        return PI / 4 + offset, draw(line_theta1)
    theta0 = draw(st.floats(0.0, PI / 2))
    if kind == "generic":
        return theta0, draw(st.floats(0.0, PI / 2))
    offset = draw(st.floats(-LINE_OFFSET, LINE_OFFSET))
    partner = theta0 if kind == "diagonal" else PI / 2 - theta0
    return theta0, _clip(partner + offset)


@st.composite
def drives(draw, angles=drive_angles()):
    theta0, theta1 = draw(angles)
    bc = draw(st.sampled_from([OBC, PBC]))
    n_cells = draw(st.integers(2, 64))
    params = DriveParams(theta0, theta1, n_cells, bc)
    n_bonds = len(h1_bond_cells(n_cells, bc))
    positive = st.floats(0.01, 4.0)
    profile = draw(st.sampled_from(["uniform", "random", "wall"]))
    if profile == "uniform":
        coeffs = np.full(n_bonds, 2.0)
    elif profile == "random":
        coeffs = np.array(draw(st.lists(positive, min_size=n_bonds, max_size=n_bonds)))
    else:
        wall = draw(st.integers(0, n_bonds))
        left, right = draw(positive), draw(positive)
        coeffs = np.where(np.arange(n_bonds) < wall, left, right)
    return UnitaryOperator(params, coeffs)


@settings(max_examples=300, deadline=None)
@given(drive=drives())
def test_timeframe_matches_dense_oracle(drive):
    fast = quasienergies(drive).values
    assert fast.shape == (drive.params.n_sites,)
    assert compare_spectra(fast, dense_oracle(drive.params, drive.h1_coeffs)) < ORACLE_TOL


@settings(max_examples=200, deadline=None)
@given(
    drive=drives(st.tuples(st.just(PI / 4), line_theta1)).filter(
        lambda drive: is_pi_paired(drive.params)
    )
)
def test_half_size_drive_matches_the_full_blocks_on_pi_paired_drives(drive):
    a, _, c_t, _ = chiral_entries(drive)
    both = fold_quasienergy(timeframe_quasienergies(a, c_t))
    assert compare_spectra(quasienergies(drive).values, both) <= 1e-12


@st.composite
def pi_paired_drives(draw):
    """Drives on theta0 = pi/4: open chains of odd and even length and even
    rings down to 2 cells, with random or wall profiles that take zero and
    negative coefficients, at theta1 = 0, pi/4 (gapless) or pi/2."""
    bc = draw(st.sampled_from([OBC, PBC]))
    n_cells = draw(st.integers(2, 65))
    if bc is PBC:
        n_cells += n_cells % 2
    n_bonds = len(h1_bond_cells(n_cells, bc))
    coeff = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        coeffs = np.array(draw(st.lists(coeff, min_size=n_bonds, max_size=n_bonds)))
    else:
        wall = draw(st.integers(0, n_bonds))
        coeffs = np.where(np.arange(n_bonds) < wall, draw(coeff), draw(coeff))
    theta1 = draw(st.sampled_from([0.0, PI / 4, PI / 2]))
    return UnitaryOperator(DriveParams(PI / 4, theta1, n_cells, bc), coeffs)


@settings(max_examples=300, deadline=None)
@given(drive=pi_paired_drives())
@example(drive=UnitaryOperator(DriveParams(PI / 4, 0.9, 2, PBC), [1.3, -0.4]))  # the 1-cell ring
@example(drive=UnitaryOperator(DriveParams(PI / 4, PI / 4, 3, OBC), [0.0, 0.0]))
@example(drive=UnitaryOperator(DriveParams(PI / 4, PI / 2, 101, OBC)))  # exact 0 modes
def test_half_size_drive_matches_dense_oracle(drive):
    assert is_pi_paired(drive.params)
    fast = quasienergies(drive).values
    assert fast.shape == (drive.params.n_sites,)
    assert not np.signbit(fast[fast == 0.0]).any()  # written as 0, not -0
    assert compare_spectra(fast, dense_oracle(drive.params, drive.h1_coeffs)) < ORACLE_TOL


@pytest.mark.parametrize(
    "n_cells, theta1, splitting",
    [(63, 1.1, 4.8373217159552803e-19), (64, 0.9, 1.7448032504822728e-7),
     (101, 0.9, 3.3575203684174452e-11)],
)
def test_pi_paired_end_mode_splitting_to_full_relative_precision(n_cells, theta1, splitting):
    # the splitting of the two end modes of the open chain, from a 40-digit
    # SVD (mpmath) of the full-size block c
    eps = quasienergies(build_floquet(DriveParams(PI / 4, theta1, n_cells, OBC))).values
    assert np.abs(eps).min() == pytest.approx(splitting, rel=1e-12, abs=0.0)


def _sector_coupling(drive):
    """Largest |U^2| entry between the sites {0, 3, 4, 7, 8, ...} and the rest."""
    u = dense_matrix(drive)
    square = u @ u
    sector = (np.arange(drive.dim) + 1) // 2 % 2 == 0
    return np.abs(square[np.ix_(sector, ~sector)]).max()


@pytest.fixture
def svd_calls(monkeypatch):
    """(shape, whether singular vectors were asked for) of the np.linalg.svd
    calls made while the test runs, (shape, "band") of the values-only solves
    that take an open block on one band from its secular equation, (shape,
    "dqds") of those that run dqds on an open block's entries, and (shape,
    "dstebz") and (shape, "dstein") of the bisection and inverse iteration
    on their Golub-Kahan tridiagonal, the block's shape in each."""
    calls = []
    svd, dqds = np.linalg.svd, models._DQDS
    stebz, stein = models._STEBZ, models._STEIN
    band = Bidiagonal._band_values

    def counting_band(block):
        sigma = band(block)
        if sigma is not None:
            calls.append(((len(sigma),) * 2, "band"))
        return sigma

    def counting_svd(matrix, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((matrix.shape, compute_uv))
        return svd(matrix, full_matrices, compute_uv, **kwargs)

    def counting_dqds(n, *args):
        calls.append(((n.value,) * 2, "dqds"))
        return dqds(n, *args)

    def counting_stebz(range_, order, n, *args):
        calls.append(((n.value // 2,) * 2, "dstebz"))
        return stebz(range_, order, n, *args)

    def counting_stein(n, *args):
        calls.append(((n.value // 2,) * 2, "dstein"))
        return stein(n, *args)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(Bidiagonal, "_band_values", counting_band)
    for name, kernel, counting in (("_DQDS", dqds, counting_dqds), ("_STEBZ", stebz, counting_stebz),
                                   ("_STEIN", stein, counting_stein)):
        if kernel is not None:
            monkeypatch.setattr(models, name, counting)
    return calls


_BAND_VALUES = Bidiagonal._band_values  # unpatched by svd_calls


def values_only(block):
    """How svd_calls marks the values-only solve of a block, or of a block
    with this boundary condition that lies on no band: the band route for an
    open block on one band of BAND_MIN_CELLS cells or more, dqds where the
    kernel resolves and the block is open, else np.linalg.svd without
    vectors."""
    bc = block if isinstance(block, BoundaryCondition) else block.bc
    if (bc is OBC and not isinstance(block, BoundaryCondition)
            and len(block.diagonal) >= models.BAND_MIN_CELLS and _BAND_VALUES(block) is not None):
        return "band"
    return "dqds" if bc is OBC and models._DQDS is not None else False


def spectrum_blocks(drive):
    """The blocks quasienergies(drive) solves, in order: c^T and a of the
    half-size drive on a pi-paired drive (U^2 swaps them), else a and c^T."""
    if is_pi_paired(drive.params):
        half0, half1, _ = floquet._squared_drive(drive)
        return floquet._chiral_entries(half0, half1, drive.params.bc, partners=False)[::-1]
    return floquet._chiral_entries(*floquet._drive_phases(drive), drive.params.bc, partners=False)


def bisects(size, k):
    """Whether Bidiagonal.triplets takes the k in-window vectors of an open
    size x size block by bisection and inverse iteration."""
    kernels = models._STEBZ is not None and models._STEIN is not None
    return kernels and 0 < k <= size // models.BISECTION_CELLS_PER_VALUE


def with_vectors(size, block, k):
    """The svd_calls records of one Bidiagonal.triplets call on a size x size
    block (or one with this boundary condition on no band) with k values in
    its window.  On an open block: the values-only solve whose values it
    keeps (values_only), then for k > 0 either bisection and inverse
    iteration, the thin SVDs of the two halves of their 2k vectors and the
    k x k Rayleigh-Ritz SVD, or the dense SVD with vectors, which is all a
    ring takes."""
    shape = (size,) * 2
    bc = block if isinstance(block, BoundaryCondition) else block.bc
    if bc is not OBC:
        return [(shape, True)]
    if k == 0:
        return [(shape, values_only(block))]
    if bisects(size, k):
        halves = [((size, 2 * k), True)] * 2
        return [(shape, values_only(block)), (shape, "dstebz"), (shape, "dstein"), *halves, ((k, k), True)]
    return [(shape, values_only(block)), (shape, True)]


def kept_pairs(drive, window):
    """How many triplets mode_states(drive, window) keeps of the block behind
    its 0 modes and of the one behind its pi modes, from the modes it returns:
    each pair gives two modes of its kind.  On the half-size path both counts
    are those of the block a, whose pairs give two modes of each kind."""
    return tuple(len(eps) // 2 for eps, _ in mode_states(drive, window))


@pytest.fixture
def entries_calls(monkeypatch):
    """The floquet._chiral_entries calls made while the test runs: one per
    build of a drive's four chiral blocks."""
    calls = []
    entries = floquet._chiral_entries

    def counting_entries(*args):
        calls.append(args)
        return entries(*args)

    monkeypatch.setattr(floquet, "_chiral_entries", counting_entries)
    return calls


def _random_drive(theta0, n_cells, bc, seed=0):
    coeffs = np.random.default_rng(seed).uniform(0.01, 4.0, len(h1_bond_cells(n_cells, bc)))
    return UnitaryOperator(DriveParams(theta0, 0.6, n_cells, bc), coeffs)


@pytest.mark.parametrize(
    "drive, svd_size",
    [
        (build_floquet_wall(DomainWallProfile(PI / 8, -PI / 8), 12), 6),
        (build_floquet_wall(DomainWallProfile(PI / 8, -PI / 8), 13), 7),
        (_random_drive(PI / 4, 12, PBC), 6),
        (_random_drive(PI / 4, 2, PBC), 1),  # the 1-cell ring
        (_random_drive(PI / 4, 7, PBC), 7),  # the wrap bond breaks the pairing
        (_random_drive(PI / 4 + 1e-9, 12, OBC), 12),
        (_random_drive(PI / 4 + 1e-9, 12, PBC), 12),
        (_random_drive(PI / 4 + 0.5 * LINE_ATOL, 12, OBC), 12),  # near the line is not on it
    ],
)
def test_pi_paired_drives_need_two_half_size_svds(drive, svd_size, svd_calls):
    assert is_pi_paired(drive.params) is (svd_size < drive.params.n_cells)
    fast = quasienergies(drive).values
    # a 1-cell ring is uniform: the circulant rule solves it with no SVD
    uniform_ring = drive.params.bc is PBC and svd_size == 1
    solves = [((svd_size,) * 2, values_only(block)) for block in spectrum_blocks(drive)]
    assert svd_calls == ([] if uniform_ring else solves)
    assert compare_spectra(fast, dense_quasienergies(dense_matrix(drive)).values) < ORACLE_TOL


@pytest.mark.parametrize(
    "params, svd_size",
    [
        (DriveParams(PI / 4, 3 * PI / 8, 24, PBC), 12),  # classified on the open chain
        (DriveParams(PI / 4, 0.3, 25, OBC), 13),
        (DriveParams(0.3, 1.0, 24, OBC), 24),
        (DriveParams(PI / 4 + 1e-9, 1.2, 24, PBC), 24),
    ],
)
def test_phase_counts_need_singular_values_only(params, svd_size, svd_calls):
    classify_phase(params)
    drive = build_floquet(dataclasses.replace(params, bc=OBC))
    assert svd_calls == [((svd_size,) * 2, values_only(block)) for block in spectrum_blocks(drive)]


PAIRED_WALLS = [build_floquet_wall(DomainWallProfile(eta, -eta), n_cells)
                for eta, n_cells in ((PI / 8, 100), (0.3, 63), (-0.2, 24))]


@pytest.mark.parametrize("drive", PAIRED_WALLS, ids=lambda drive: f"{drive.params.n_cells}cells")
def test_pi_paired_modes_need_one_half_size_svd(drive, svd_calls):
    n_cells = drive.params.n_cells
    (k, _), (k_uniform, _) = kept_pairs(drive, 0.05), kept_pairs(build_floquet(drive.params), 0.05)
    # the triplets of the half-size drive's block a
    (_, a), (_, a_uniform) = spectrum_blocks(drive), spectrum_blocks(build_floquet(drive.params))
    svd_calls.clear()
    floquet_bound_states(drive, n_cells, 0.05)
    assert svd_calls == with_vectors((n_cells + 1) // 2, a, k)
    svd_calls.clear()
    find_edge_modes(drive.params)
    assert svd_calls == with_vectors((n_cells + 1) // 2, a_uniform, k_uniform)


@pytest.mark.parametrize("offset", [1e-9, 0.5 * LINE_ATOL])  # near the line is not on it
def test_modes_off_the_line_need_two_full_size_svds(offset, svd_calls, entries_calls):
    wall = PAIRED_WALLS[0]
    drive = UnitaryOperator(dataclasses.replace(wall.params, theta0=PI / 4 + offset), wall.h1_coeffs)
    n_cells = drive.params.n_cells
    (k_zero, k_pi), uniform = kept_pairs(drive, 0.05), kept_pairs(build_floquet(drive.params), 0.05)
    svd_calls.clear()
    entries_calls.clear()
    floquet_bound_states(drive, n_cells, 0.05)
    assert svd_calls == with_vectors(n_cells, OBC, k_zero) + with_vectors(n_cells, OBC, k_pi)
    assert len(entries_calls) == 1  # both kinds from one build of the blocks
    svd_calls.clear()
    find_edge_modes(drive.params)
    assert svd_calls == with_vectors(n_cells, OBC, uniform[0]) + with_vectors(n_cells, OBC, uniform[1])
    assert len(entries_calls) == 2


def test_wide_windows_on_the_line_take_the_full_size_blocks(svd_calls, entries_calls):
    # past pi/4 the half-size pairs would reach s = 1, where v2 is lost
    drive = _random_drive(PI / 4, 12, OBC)
    wider = np.nextafter(PI / 4, PI)
    (k, _), (k_zero, k_pi) = kept_pairs(drive, PI / 4), kept_pairs(drive, wider)
    svd_calls.clear()
    entries_calls.clear()
    mode_states(drive, PI / 4)
    assert svd_calls == with_vectors(6, OBC, k)
    assert len(entries_calls) == 1
    svd_calls.clear()
    mode_states(drive, wider)
    assert svd_calls == with_vectors(12, OBC, k_zero) + with_vectors(12, OBC, k_pi)
    assert len(entries_calls) == 2


@pytest.mark.parametrize("n_cells", [64, 200])
def test_full_first_step_blocks_bisect_like_the_dense_svd(n_cells, svd_calls):
    # at theta0 = pi/2 the diagonal of a and the bonds of c^T are cos(pi/2),
    # 6e-17: LAPACK's dbdsvdx found a spurious zero value of a here
    a, _, c_t, _ = chiral_entries(build_floquet(DriveParams(PI / 2, 0.3, n_cells, OBC)))
    below = math.sin(0.5 * DEFAULT_TOL_MODE)
    for block, k in ((a, 1), (c_t, 0)):
        svd_calls.clear()
        left, values, right = block.triplets(below)
        assert svd_calls == with_vectors(n_cells, OBC, k)
        assert bisects(n_cells, k) or k == 0
        dense_right, dense_sigma, dense_left_t = np.linalg.svd(block.dense().T)
        assert np.count_nonzero(dense_sigma < below) == len(values) == k
        np.testing.assert_array_equal(values, block.singular_values()[n_cells - k:])
        kept_left, kept_right = dense_left_t[n_cells - k:].T, dense_right[:, n_cells - k:]
        assert np.abs(left @ left.T - kept_left @ kept_left.T).max(initial=0.0) <= 1e-12
        assert np.abs(right @ right.T - kept_right @ kept_right.T).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("n_cells, bc", [(12, PBC), (12, OBC), (13, OBC), (2, PBC)])
def test_squared_drive_splits_into_two_sectors_on_the_line(n_cells, bc):
    assert _sector_coupling(_random_drive(PI / 4, n_cells, bc)) < 1e-14


def test_odd_periodic_chain_on_the_line_is_not_pi_paired():
    drive = _random_drive(PI / 4, 7, PBC)
    a, _, c, _ = chiral_blocks(drive)
    sigma_a, sigma_c = (np.linalg.svd(block, compute_uv=False) for block in (a, c))
    assert np.abs(sigma_a - sigma_c).max() > 1e-3
    # the wrap bond joins the two sectors of U^2, so no half-size drive exists
    assert _sector_coupling(drive) > 1e-3
    eps = quasienergies(drive).values
    assert compare_spectra(eps, np.sort(fold_quasienergy(PI - eps))) > 1e-3


def test_near_line_drive_read_as_paired_misses_by_more_than_1e_12():
    # within LINE_ATOL of pi/4 the half-size drive, which takes the first
    # step as -i X, is off the two-block spectrum by a few times the offset
    drive = _random_drive(PI / 4 + LINE_ATOL, 12, OBC)
    paired = np.sort(floquet._squared_drive_quasienergies(drive))
    assert compare_spectra(paired, quasienergies(drive).values) > 1e-12


def test_half_size_blocks_are_checked_for_the_cs_identity(monkeypatch):
    entries = floquet._chiral_entries
    monkeypatch.setattr(floquet, "_chiral_entries",
                        lambda *args, **kwargs: [scaled(m, 1.01) for m in entries(*args, **kwargs)])
    with pytest.raises(NumericalError, match="chiral blocks are not a CS pair"):
        quasienergies(_random_drive(PI / 4, 12, OBC))


@pytest.mark.parametrize("theta0", [PI / 4, 0.3])
def test_spectrum_builds_only_the_blocks_it_reads(theta0, monkeypatch):
    # a and c^T, on the half-size drive or the full one; b and d^T are never built
    built = []
    monkeypatch.setattr(floquet, "Bidiagonal", lambda *args: built.append(args) or Bidiagonal(*args))
    quasienergies(_random_drive(theta0, 12, OBC))
    assert len(built) == 2


@settings(max_examples=100, deadline=None)
@given(drive=drives(), offset=st.floats(1e-8, 0.1), sign=st.sampled_from([-1.0, 1.0]))
def test_blocks_off_the_cs_identity_are_refused(drive, offset, sign):
    a, _, c_t, _ = chiral_entries(drive)
    scale = 1.0 + sign * offset  # shifts sigma_a^2 + sigma_c^2 to scale^2 everywhere
    with pytest.raises(NumericalError, match="chiral blocks are not a CS pair"):
        timeframe_quasienergies(scaled(a, scale), scaled(c_t, scale))


@settings(max_examples=50, deadline=None)
@given(drive=drives(), data=st.data())
def test_single_entry_perturbation_is_refused(drive, data):
    a, _, c_t, _ = chiral_entries(drive)
    n = drive.params.n_cells
    entries = np.concatenate([a.diagonal, a.bonds])  # every entry a block of a can hold
    k = data.draw(st.integers(0, len(entries) - 1))
    delta = 1e-3 if entries[k] >= 0.0 else -1e-3
    entries[k] += delta
    a = Bidiagonal(entries[:n], entries[n:], a.bc)
    # sum_k (sigma_a^2 + sigma_c^2 - 1) = |a|_F^2 + |c|_F^2 - N grows by
    # 2 delta a_k + delta^2 >= 1e-6, so some pair is off by >= 1e-6 / N
    with pytest.raises(NumericalError, match="chiral blocks are not a CS pair"):
        timeframe_quasienergies(a, c_t)


def test_blocks_are_real_bidiagonal():
    for bc in (OBC, PBC):
        drive = UnitaryOperator(DriveParams(0.37, 1.12, 9, bc))
        for block in chiral_blocks(drive):
            assert block.dtype == float
            assert (np.count_nonzero(block, axis=0) <= 2).all()
            assert (np.count_nonzero(block, axis=1) <= 2).all()


def test_blocks_are_the_half_period_factor():
    # a = G_AA, b = i G_AB, c = i G_BA and d = G_BB of
    # G = exp(-i theta1 H1 / 2) exp(-i theta0 H0 / 2)
    for bc in (OBC, PBC):
        params = DriveParams(0.37, 1.12, 7, bc)
        coeffs = np.linspace(0.5, 3.0, len(h1_bond_cells(7, bc)))
        half = DriveParams(params.theta0 / 2, params.theta1 / 2, 7, bc)
        g = dense_matrix(UnitaryOperator(half, coeffs))
        a, b, c, d = chiral_blocks(UnitaryOperator(params, coeffs))
        np.testing.assert_allclose(a, g[0::2, 0::2], atol=1e-15)
        np.testing.assert_allclose(b, 1j * g[0::2, 1::2], atol=1e-15)
        np.testing.assert_allclose(c, 1j * g[1::2, 0::2], atol=1e-15)
        np.testing.assert_allclose(d, g[1::2, 1::2], atol=1e-15)
        real_form = np.block([[a, -b], [c, d]])
        np.testing.assert_allclose(real_form.T @ real_form, np.eye(14), atol=1e-14)


@pytest.mark.parametrize("n_cells, bc", [(7, OBC), (7, PBC), (1, OBC), (1, PBC)])
def test_blocks_with_a_first_step_phase_per_cell(n_cells, bc):
    # the half-size drive of a pi-paired drive has its own first-step phase
    # on each cell, and on 1 cell both steps join the same A - B pair
    rng = np.random.default_rng(n_cells)
    cells = np.arange(n_cells)
    b_cell, a_cell = h1_bond_cells(n_cells, bc).T
    half0, half1 = rng.uniform(-2.0, 2.0, n_cells), rng.uniform(-2.0, 2.0, len(b_cell))
    g = floquet._dimer_evolution_apply(2 * cells, 2 * cells + 1, half0, np.eye(2 * n_cells, dtype=complex))
    g = floquet._dimer_evolution_apply(2 * b_cell + 1, 2 * a_cell, half1, g)
    a, b, c, d = (block.dense() for block in floquet._chiral_entries(half0, half1, bc))
    np.testing.assert_allclose(a, g[0::2, 0::2], atol=1e-15)
    np.testing.assert_allclose(b, 1j * g[0::2, 1::2], atol=1e-15)
    np.testing.assert_allclose(c.T, 1j * g[1::2, 0::2], atol=1e-15)
    np.testing.assert_allclose(d.T, g[1::2, 1::2], atol=1e-15)


@pytest.mark.parametrize("n_cells", [60, 100])
def test_wall_and_open_chain_match_oracle_at_sweep_sizes(n_cells):
    eta = PI / 8
    profile = DomainWallProfile(eta_left=eta, eta_right=-eta)
    params = DriveParams(PI / 4, PI / 4 + eta, n_cells, OBC)
    for u in (build_floquet_wall(profile, n_cells), build_floquet(params)):
        fast = quasienergies(u).values
        assert compare_spectra(fast, dense_quasienergies(dense_matrix(u)).values) < 1e-12


def _reachable_arrays(value):
    """Every ndarray reachable from value through the attributes of
    dataclass instances, tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _reachable_arrays(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for item in vars(value).values():
            yield from _reachable_arrays(item)


def test_operators_are_kept_as_bond_data():
    wall = DomainWallProfile(PI / 8, -PI / 8)
    drives = [
        build_floquet(DriveParams(PI / 4, 0.7, 6, OBC)),
        build_floquet(DriveParams(PI / 4, 0.7, 6, PBC)),
        build_floquet(DriveParams(0.3, 0.7, 6, OBC)),
        build_floquet(DriveParams(0.3, 0.7, 6, PBC)),
        build_floquet_wall(wall, 7),
    ]
    chains = [
        build_ssh(SSHParams(0.4, 1.0, 6, OBC)),
        build_wd(WDParams(-0.5, 1.0, 6, PBC)),
        build_ssh_wall(DomainWallProfile(0.3, -0.3), 6),
        build_wd_wall(DomainWallProfile(0.3, -0.3), 12),
    ]
    for u in drives:
        quasienergies(u)
        mode_states(u, DEFAULT_TOL_MODE)
        assert not hasattr(u, "matrix")
        assert u.shape == (u.dim, u.dim) == (u.params.n_sites,) * 2
    for op in chains:
        op.eigenvalues()
        op.mode_states(1.0)
        assert not hasattr(op, "matrix")
    # no N x N array is kept: only the bond data and a chain's 2 x 2 orbitals
    for op in drives + chains:
        arrays = list(_reachable_arrays(op))
        assert arrays
        for array in arrays:
            assert array.ndim <= 1 or (array is getattr(op, "orbitals", None) and array.shape == (2, 2))
            assert not array.flags.writeable


def test_every_svd_takes_an_upper_bidiagonal_block(monkeypatch):
    # an open chain's block is lower bidiagonal; from that form LAPACK's
    # reduction rounds and the small singular values lose their relative
    # digits.  dqds and the dense SVD must read h^T's own diagonal and
    # superdiagonal, dstebz and dstein the Golub-Kahan tridiagonal they
    # interleave into.
    calls, solved, solved_with_vectors, kept = [], [], [], []
    svd, dqds = np.linalg.svd, models._DQDS
    stebz, stein = models._STEBZ, models._STEIN
    singular_values, triplets = Bidiagonal.singular_values, Bidiagonal.triplets
    band = Bidiagonal._band_values

    def recording_svd(matrix, full_matrices=True, compute_uv=True, **kwargs):
        # the thin and Rayleigh-Ritz SVDs of bisection's vectors are not a block's
        if not compute_uv or np.shape(matrix) == solved_with_vectors[-1].shape:
            calls.append((np.array(matrix), compute_uv))
        return svd(matrix, full_matrices, compute_uv, **kwargs)

    def recording_dqds(n, d, e, work, info):
        upper = solved[-1]
        assert len(d) == len(e) == n.value == len(upper)
        np.testing.assert_array_equal(d, np.diag(upper))
        np.testing.assert_array_equal(e[:-1], np.diag(upper, 1))
        calls.append((upper, "dqds"))
        return dqds(n, d, e, work, info)

    def check_golub_kahan(n, d, e, route):
        upper = solved_with_vectors[-1]
        assert len(d) == len(e) == n.value == 2 * len(upper)
        np.testing.assert_array_equal(d, 0.0)
        np.testing.assert_array_equal(e[0::2], np.diag(upper))
        np.testing.assert_array_equal(e[1:-1:2], np.diag(upper, 1))
        calls.append((upper, route))

    def recording_stebz(range_, order, n, vl, vu, il, iu, abstol, d, e, *args):
        check_golub_kahan(n, d, e, "dstebz")
        return stebz(range_, order, n, vl, vu, il, iu, abstol, d, e, *args)

    def recording_stein(n, d, e, *args):
        check_golub_kahan(n, d, e, "dstein")
        return stein(n, d, e, *args)

    def recording_singular_values(block):
        solved.append(block.dense().T)
        return singular_values(block)

    def recording_band(block):
        # the band route reads |d_j| and |e_j|, which h and h^T share
        sigma = band(block)
        if sigma is not None:
            calls.append((solved[-1], "band"))
        return sigma

    def recording_triplets(block, below):
        solved_with_vectors.append(block.dense().T)
        found = triplets(block, below)
        kept.append(len(found[1]))
        return found

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(Bidiagonal, "singular_values", recording_singular_values)
    monkeypatch.setattr(Bidiagonal, "triplets", recording_triplets)
    monkeypatch.setattr(Bidiagonal, "_band_values", recording_band)
    if dqds is not None:
        monkeypatch.setattr(models, "_DQDS", recording_dqds)
    if stebz is not None and stein is not None:
        monkeypatch.setattr(models, "_STEBZ", recording_stebz)
        monkeypatch.setattr(models, "_STEIN", recording_stein)
    drives = [
        _random_drive(PI / 4, 12, OBC),
        _random_drive(PI / 4, 13, OBC),
        _random_drive(0.3, 12, OBC),
        _random_drive(PI / 4 + 1e-9, 12, OBC),
        build_floquet_wall(DomainWallProfile(PI / 8, -PI / 8), 24),
    ]
    chains = [
        build_ssh(SSHParams(0.4, 1.0, 12, OBC)),
        build_wd(WDParams(-0.5, 1.0, 12, OBC)),
        build_ssh_wall(DomainWallProfile(0.3, -0.3), 12),
        build_wd_wall(DomainWallProfile(0.3, -0.3), 12),
    ]
    for u in drives:
        quasienergies(u)
        mode_states(u, 0.3)
    mode_states(drives[0], 1.2)  # past pi/4: the full-size blocks on the line
    find_edge_modes(drives[2].params)
    for op in chains:
        op.eigenvalues()
        op.mode_states(1.0)
    routes = [route for _, route in calls]
    # one half-size SVD per mode solve on the line, two full-size ones off it
    vector_solves = 3 + 2 * 2 + 2 + 2 + len(chains)
    assert vector_solves == len(solved_with_vectors) == len(kept)
    # a window with no value in it needs no vectors; the rest take one solve
    # with vectors, or bisection and inverse iteration
    assert routes.count("dstebz") == routes.count("dstein")
    with_values = sum(k > 0 for k in kept)
    assert routes.count(True) + routes.count("dstein") == with_values
    # each open block's triplets keep the values of its values-only solve
    values_only_solves = routes.count(values_only(OBC)) + routes.count("band")
    assert values_only_solves == 2 * len(drives) + len(chains) + vector_solves
    assert values_only_solves == len(solved)
    assert len(routes) == len(solved) + with_values + routes.count("dstebz")
    for block, _ in calls:
        assert block.shape[0] > 1 and np.count_nonzero(np.diag(block, 1))
        np.testing.assert_array_equal(block, np.triu(np.tril(block, 1)))


def test_drive_checks_profile_length():
    with pytest.raises(ValidationError, match="expected 3 bond coefficients for bc=obc"):
        UnitaryOperator(DriveParams(0.3, 0.7, 4, OBC), [2.0] * 4)  # open chains have N - 1 bonds
    np.testing.assert_array_equal(
        UnitaryOperator(DriveParams(0.3, 0.7, 4, PBC)).h1_coeffs, [2.0] * 4
    )


# ------------------------------------------------------------- mode counts


def region_counts(theta0, theta1):
    """(n_zero, n_pi) of the uniform drive by the region rule: a mode at each end
    once theta1 > theta0 (0 modes) or theta0 + theta1 > pi/2 (pi modes)."""
    return 2 * int(theta1 > theta0), 2 * int(theta0 + theta1 > PI / 2)


GRID_12 = np.linspace(0.05, PI / 2 - 0.05, 12)


@settings(max_examples=200, deadline=None)
@given(
    theta0=st.floats(0.0, PI / 2),
    theta1=st.floats(0.0, PI / 2),
    n_cells=st.integers(10, 48),
    tol_mode=st.floats(DEFAULT_TOL_MODE, 0.3),
)
# a 16-cell phase-diagram row once labelled trivial: the eigenvector filter
# dropped both end modes
@example(theta0=float(GRID_12[3]), theta1=float(GRID_12[4]), n_cells=16, tol_mode=DEFAULT_TOL_MODE)
def test_mode_counts_match_dense_eigvals_and_region_rule(theta0, theta1, n_cells, tol_mode):
    if min(bulk_gaps(theta0, theta1)) < 4.0 * tol_mode:
        return  # refused as gapless; see test_floquet
    result = classify_phase(DriveParams(theta0, theta1, n_cells, PBC), tol_mode=tol_mode)
    open_chain = DriveParams(theta0, theta1, n_cells, OBC)
    dense = np.abs(dense_oracle(open_chain, np.full(n_cells - 1, 2.0)))
    dense_counts = np.count_nonzero(dense < tol_mode), np.count_nonzero(PI - dense < tol_mode)
    assert (result.n_zero_modes, result.n_pi_modes) == dense_counts
    assert dense_counts == region_counts(theta0, theta1)


# ------------------------------------------------------------- mode states

WINDOWS = (1e-3, DEFAULT_TOL_MODE, 1.0, PI / 2)


def assert_states_match_oracle(op, windows=WINDOWS):
    """For each window and kind, the mode eigenpairs solve the dense operator,
    are orthonormal, number as many as dense eig finds in the window (up to
    ORACLE_TOL at its end), and carry the quasienergies of the spectrum solver."""
    u = dense_operator(op.params, op.h1_coeffs)
    dense_eps = dense_quasienergy_states(u)[0]
    spectrum = quasienergies(op).values
    for window in windows:
        modes = mode_states(op, window)
        for (eps, states), dense_distance in zip(modes, (np.abs(dense_eps), PI - np.abs(dense_eps))):
            assert (np.diff(eps) >= 0.0).all()
            assert states.shape == (op.params.n_sites, len(eps))
            assert np.count_nonzero(dense_distance < window - ORACLE_TOL) <= len(eps)
            assert len(eps) <= np.count_nonzero(dense_distance < window + ORACLE_TOL)
            residual = np.abs(u @ states - states * np.exp(-1j * eps)).max(initial=0.0)
            assert residual <= ORACLE_TOL
            overlap = states.conj().T @ states - np.eye(len(eps))
            assert np.abs(overlap).max(initial=0.0) <= ORACLE_TOL
            nearest = wrap_distance(eps[:, None], spectrum[None, :]).min(axis=1, initial=PI)
            assert nearest.max(initial=0.0) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(drive=drives(), window=st.floats(0.0, PI / 2, exclude_min=True))
def test_mode_states_match_dense_oracle(drive, window):
    assert_states_match_oracle(drive, (window,))


@settings(max_examples=200, deadline=None)
@given(drive=pi_paired_drives(), window=st.floats(0.0, PI / 2, exclude_min=True))
@example(drive=UnitaryOperator(DriveParams(PI / 4, 0.9, 2, PBC), [1.3, -0.4]), window=PI / 4)
@example(drive=UnitaryOperator(DriveParams(PI / 4, PI / 8, 8, PBC)), window=PI / 2)
@example(drive=UnitaryOperator(DriveParams(PI / 4, 1.1, 13, OBC)), window=PI / 4)
def test_pi_paired_mode_states_match_dense_oracle(drive, window):
    assert_states_match_oracle(drive, (window,))


@pytest.mark.parametrize(
    "theta0, theta1, n_cells, bc",
    [
        # exact periodic degeneracies at eps = +-pi/2: sigma_a = 1/sqrt(2) twice
        (PI / 4, PI / 8, 8, PBC),
        (PI / 4, PI / 8, 16, PBC),
        (PI / 4, PI / 4, 8, PBC),
        # within 1e-6 of the gap-closing lines theta1 = theta0 and theta0 + theta1 = pi/2
        (0.4, 0.4 + LINE_OFFSET, 32, OBC),
        (0.7, 0.7 - LINE_OFFSET, 32, PBC),
        (0.3, PI / 2 - 0.3 + LINE_OFFSET, 32, OBC),
        (1.1, PI / 2 - 1.1 - LINE_OFFSET, 32, PBC),
        # theta0 at the ends of its window: no first step, or a full swap
        (0.0, 0.9, 12, OBC),
        (0.0, 0.9, 12, PBC),
        (PI / 2, 0.3, 12, OBC),
        (PI / 2, 0.3, 12, PBC),
        (0.0, 0.0, 4, PBC),
        (PI / 2, PI / 2, 4, OBC),
        # pi-paired: open chains of odd and even length, even rings down to 2 cells
        (PI / 4, 0.6, 13, OBC),
        (PI / 4, 0.6, 12, OBC),
        (PI / 4, 1.1, 63, OBC),
        (PI / 4, 0.6, 12, PBC),
        (PI / 4, 0.9, 2, PBC),
        (PI / 4, 0.6, 2, OBC),
        (PI / 4, 0.6, 3, OBC),
    ],
)
def test_mode_states_at_degeneracies_and_window_ends(theta0, theta1, n_cells, bc):
    assert_states_match_oracle(UnitaryOperator(DriveParams(theta0, theta1, n_cells, bc)))


@pytest.mark.parametrize("seed", range(4))
def test_mode_states_on_random_wall_profiles(seed):
    rng = np.random.default_rng(seed)
    n_cells = 40
    for bc in (OBC, PBC):
        n_bonds = len(h1_bond_cells(n_cells, bc))
        wall = rng.integers(1, n_bonds)
        left, right = rng.uniform(0.01, 4.0, size=2)
        coeffs = np.where(np.arange(n_bonds) < wall, left, right)
        theta0, theta1 = rng.uniform(0.0, PI / 2, size=2)
        window = rng.uniform(0.0, PI / 2)
        assert_states_match_oracle(
            UnitaryOperator(DriveParams(theta0, theta1, n_cells, bc), coeffs), (window,)
        )


@pytest.mark.parametrize("seed", range(4))
def test_pi_paired_mode_states_on_random_wall_profiles(seed):
    # windows up to pi/4, which the half-size path solves
    rng = np.random.default_rng(seed)
    for n_cells, bc in ((40 + seed % 2, OBC), (40, PBC)):  # open chains of even and odd length
        n_bonds = len(h1_bond_cells(n_cells, bc))
        wall = rng.integers(1, n_bonds)
        left, right = rng.uniform(0.01, 4.0, size=2)
        coeffs = np.where(np.arange(n_bonds) < wall, left, right)
        theta1, window = rng.uniform(0.0, PI / 2), rng.uniform(0.0, PI / 4)
        drive = UnitaryOperator(DriveParams(PI / 4, theta1, n_cells, bc), coeffs)
        assert is_pi_paired(drive.params)
        assert_states_match_oracle(drive, (window,))


@pytest.mark.parametrize(
    "drive, tampered",
    [
        (UnitaryOperator(DriveParams(0.3, 1.4, 16, OBC)), "cd"),  # a 0 and a pi mode at each end
        (UnitaryOperator(DriveParams(0.3, 1.4, 16, OBC)), "ab"),
        (UnitaryOperator(DriveParams(PI / 4, 1.2, 17, OBC)), "ab"),  # the half-size blocks
    ],
    ids=["zero", "pi", "pi-paired"],
)
def test_mode_states_check_the_cs_identity(drive, tampered, monkeypatch):
    entries = floquet._chiral_entries

    def tampering_entries(half0, half1, bc):
        built = entries(half0, half1, bc)
        return [scaled(m, 1.01) if name in tampered else m for name, m in zip("abcd", built)]

    monkeypatch.setattr(floquet, "_chiral_entries", tampering_entries)
    with pytest.raises(NumericalError, match="chiral blocks are not a CS pair"):
        mode_states(drive, 0.5)


def test_degenerate_wall_and_end_modes_come_out_localized():
    # the wall mode and the left-end mode are degenerate far below FOLD_ATOL;
    # rotated to the position eigenbasis, each sits at one of the two places,
    # not on both
    eta, n_cells = PI / 8, 100
    profile = DomainWallProfile(eta_left=eta, eta_right=-eta)
    drive = build_floquet_wall(profile, n_cells)
    assert_states_match_oracle(drive, (1e-3, DEFAULT_TOL_MODE, PI / 4))
    for _, block in mode_states(drive, 0.05):
        assert block.shape[1] == 2
        weights = np.abs(block @ localizing_rotation(block)) ** 2
        at_end = weights[:20].sum(axis=0)
        at_wall = weights[n_cells - 20 : n_cells + 20].sum(axis=0)
        assert sorted(np.round(at_end)) == [0.0, 1.0]
        assert sorted(np.round(at_wall)) == [0.0, 1.0]
        assert (np.maximum(at_end, at_wall) > 1.0 - 1e-6).all()


def test_edge_mode_search_never_forms_the_dense_matrix(monkeypatch):
    built, applied = [], []
    dimer_apply = floquet._dimer_evolution_apply

    def recording_build(params):
        op = build_floquet(params)
        built.append(op)
        return op

    def recording_apply(sites_a, sites_b, phases, matrix):
        applied.append(matrix.shape)
        return dimer_apply(sites_a, sites_b, phases, matrix)

    monkeypatch.setattr(floquet, "build_floquet", recording_build)
    monkeypatch.setattr(floquet, "_dimer_evolution_apply", recording_apply)
    find_edge_modes(DriveParams(PI / 4, 3 * PI / 8, 32, OBC))
    classify_phase(DriveParams(PI / 4, PI / 8, 32, PBC))
    assert len(built) == 2
    assert applied and all(columns < 64 for _, columns in applied)
