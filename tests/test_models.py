import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floqlat import (
    BoundaryCondition,
    DriveParams,
    HermitianOperator,
    SSHParams,
    ValidationError,
    WDParams,
    build_h0,
    build_h1,
    build_h1_scaled,
    build_ssh,
    build_ssh_profile,
    build_ssh_wall,
    build_wd,
    build_wd_profile,
    build_wd_wall,
    DomainWallProfile,
    ssh_dispersion,
    ssh_momentum_grid,
    solve_ssh_params,
    solve_wd_params,
    wd_dispersion,
    wd_momentum_grid,
)
from floqlat import band, models
from floqlat.floquet import localizing_rotation
from floqlat.models import Bidiagonal, bond_count
from floqlat.walls import h1_step_profile
from oracles import dense_matrix, sublattice_parity

PBC = BoundaryCondition.PERIODIC
OBC = BoundaryCondition.OPEN


def drive(n_cells, bc=PBC):
    return DriveParams(theta0=0.3, theta1=0.4, n_cells=n_cells, bc=bc)


# ---------------------------------------------------------------- H0


@pytest.mark.parametrize("bc", [PBC, OBC])
def test_h0_two_cells_matrix(bc):
    m = dense_matrix(build_h0(drive(2, bc)))
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 2.0
    np.testing.assert_allclose(m, expected, atol=0)


@pytest.mark.parametrize("n_cells", [2, 5, 8])
def test_h0_eigenvalues_are_dimer_pair(n_cells):
    eig = build_h0(drive(n_cells)).eigenvalues()
    np.testing.assert_allclose(eig, [-2.0] * n_cells + [2.0] * n_cells, atol=1e-12)


def test_h0_commutes_with_two_site_translation():
    n_cells = 6
    m = dense_matrix(build_h0(drive(n_cells)))
    t2 = np.roll(np.eye(2 * n_cells), 2, axis=0)  # site i -> i + 2 mod 2N
    assert np.abs(t2 @ m - m @ t2).max() < 1e-12


# ---------------------------------------------------------------- H1


def test_h1_two_cells_open():
    m = dense_matrix(build_h1(drive(2, OBC)))
    expected = np.zeros((4, 4))
    expected[1, 2] = expected[2, 1] = 2.0
    np.testing.assert_allclose(m, expected, atol=0)


def test_h1_two_cells_periodic_wraps():
    m = dense_matrix(build_h1(drive(2, PBC)))
    expected = np.zeros((4, 4))
    expected[1, 2] = expected[2, 1] = 2.0
    expected[3, 0] = expected[0, 3] = 2.0
    np.testing.assert_allclose(m, expected, atol=0)


def test_h1_open_has_two_decoupled_end_sites():
    eig = build_h1(drive(4, OBC)).eigenvalues()
    assert np.sum(np.abs(eig) < 1e-12) == 2


# ---------------------------------------------------------------- scaled H1


def test_h1_scaled_uniform_profile_matches_h1():
    params = drive(5, OBC)
    uniform = build_h1_scaled(params, [2.0] * 4)
    assert np.abs(dense_matrix(uniform) - dense_matrix(build_h1(params))).max() < 1e-15


def test_h1_scaled_zero_profile_is_zero():
    params = drive(4, PBC)
    assert np.abs(dense_matrix(build_h1_scaled(params, [0.0] * 4))).max() == 0.0


def test_h1_scaled_step_profile():
    # right-half coefficient 2 (pi/4 - eta) / (pi/4 + eta) at eta = pi/8
    right = 2.0 * (np.pi / 8) / (3 * np.pi / 8)
    np.testing.assert_allclose(right, 0.66667, atol=5e-6)
    params = drive(4, OBC)
    m = dense_matrix(build_h1_scaled(params, [2.0, 2.0, right]))
    values = sorted(set(np.round(m[np.nonzero(m)].real, 12)))
    assert values == [np.round(right, 12), 2.0]


def test_h1_scaled_rejects_wrong_length():
    with pytest.raises(ValidationError, match="expected 3 bond coefficients for bc=obc"):
        build_h1_scaled(drive(4, OBC), [2.0] * 4)  # OBC has N - 1 bonds
    with pytest.raises(ValidationError, match="expected 4 bond coefficients for bc=pbc"):
        build_h1_scaled(drive(4, PBC), [2.0] * 3)


# ---------------------------------------------------------------- bond layout
#
# The site pairs are written out here, not read from the package, so that a
# layout error in the shared bond table cannot hide behind the dense oracles,
# which build from the same table.


def intra_cell_sites(n_cells):
    return [(2 * j, 2 * j + 1) for j in range(n_cells)]


def inter_cell_sites(n_cells, bc):
    n_bonds = n_cells if bc is PBC else n_cells - 1
    return [(2 * j + 1, (2 * j + 2) % (2 * n_cells)) for j in range(n_bonds)]


def symmetric_matrix(n_sites, bonds, values):
    m = np.zeros((n_sites, n_sites))
    for (x, y), value in zip(bonds, values):
        m[x, y] = m[y, x] = value
    return m


@pytest.mark.parametrize("bc", [PBC, OBC])
@pytest.mark.parametrize("n_cells", range(2, 10))
def test_bond_layout_of_the_drive_steps(n_cells, bc):
    params = drive(n_cells, bc)
    expected_h0 = symmetric_matrix(2 * n_cells, intra_cell_sites(n_cells), [2.0] * n_cells)
    np.testing.assert_array_equal(dense_matrix(build_h0(params)), expected_h0)
    bonds = inter_cell_sites(n_cells, bc)
    coeffs = np.random.default_rng(n_cells).uniform(0.5, 3.0, len(bonds))
    expected_h1 = symmetric_matrix(2 * n_cells, bonds, coeffs)
    np.testing.assert_array_equal(dense_matrix(build_h1_scaled(params, coeffs)), expected_h1)


@pytest.mark.parametrize("n_cells", range(2, 10))
def test_bond_layout_of_the_walls(n_cells):
    eta_left, eta_right = 0.3, -0.2
    right_coeff = 2.0 * (np.pi / 4 + eta_right) / (np.pi / 4 + eta_left)
    left, right = solve_ssh_params(eta_left), solve_ssh_params(eta_right)
    intra, inter = intra_cell_sites(n_cells), inter_cell_sites(n_cells, OBC)
    for wall_site in range(1, 2 * n_cells):
        # a bond takes the side of its left site
        on_left = [x < wall_site for x, _ in inter]
        coeffs = h1_step_profile(n_cells, eta_left, eta_right, wall_site)
        np.testing.assert_array_equal(coeffs, [2.0 if side else right_coeff for side in on_left])
        profile = DomainWallProfile(eta_left, eta_right, wall_site)
        v = [left.v if x < wall_site else right.v for x, _ in intra]
        u = [left.u if side else right.u for side in on_left]
        expected = symmetric_matrix(2 * n_cells, intra + inter, v + u)
        np.testing.assert_array_equal(dense_matrix(build_ssh_wall(profile, n_cells)), expected)


def test_bidiagonal_of_the_one_cell_ring_adds_the_bond_to_the_diagonal():
    # on one periodic cell the wrap bond joins B_0 back to A_0, the pair the
    # diagonal already couples
    np.testing.assert_array_equal(Bidiagonal(np.array([0.25]), np.array([-1.5]), PBC).dense(), [[-1.25]])
    np.testing.assert_array_equal(Bidiagonal(np.array([0.25]), np.array([]), OBC).dense(), [[0.25]])
    np.testing.assert_array_equal(
        Bidiagonal(np.array([1.0, 2.0]), np.array([3.0, 4.0]), PBC).dense(), [[1.0, 4.0], [3.0, 2.0]]
    )


# ---------------------------------------------------------------- SSH


def test_ssh_decoupled_dimers():
    eig = build_ssh(SSHParams(u=0.0, v=1.0, n_cells=6, bc=PBC)).eigenvalues()
    np.testing.assert_allclose(eig, [-1.0] * 6 + [1.0] * 6, atol=1e-12)


def test_ssh_gap_at_mapped_couplings():
    # min |E| = |u - v| is attained at the on-grid momentum k = pi/2
    u, v = 0.85355, 0.14645
    eig = build_ssh(SSHParams(u=u, v=v, n_cells=8, bc=PBC)).eigenvalues()
    assert abs(np.abs(eig).min() - (u - v)) < 1e-9
    np.testing.assert_allclose(u - v, 0.70711, atol=2e-5)


def test_ssh_gapless_at_equal_couplings():
    eig = build_ssh(SSHParams(u=1.0, v=1.0, n_cells=8, bc=PBC)).eigenvalues()
    assert np.abs(eig).min() < 1e-12


@pytest.mark.parametrize("u,v,n_cells", [(0.85355, 0.14645, 8), (0.3, 1.1, 6), (1.0, 1.0, 5)])
def test_ssh_pbc_spectrum_matches_dispersion(u, v, n_cells):
    eig = build_ssh(SSHParams(u=u, v=v, n_cells=n_cells, bc=PBC)).eigenvalues()
    bands = ssh_dispersion(u, v, ssh_momentum_grid(n_cells))
    expected = np.sort(np.concatenate([-bands, bands]))
    np.testing.assert_allclose(eig, expected, atol=1e-10)


def test_ssh_rejects_negative_couplings():
    with pytest.raises(ValidationError):
        SSHParams(u=-0.1, v=0.5, n_cells=4)


def test_ssh_rejects_nan_couplings():
    with pytest.raises(ValidationError):
        SSHParams(u=float("nan"), v=0.5, n_cells=4)


def test_ssh_profile_builder():
    from floqlat import build_ssh_profile

    uniform = build_ssh_profile([0.3] * 4, [0.7] * 4, PBC)
    reference = build_ssh(SSHParams(u=0.7, v=0.3, n_cells=4, bc=PBC))
    assert np.abs(dense_matrix(uniform) - dense_matrix(reference)).max() == 0.0
    with pytest.raises(ValidationError, match="expected 2 bond coefficients for bc=obc"):
        build_ssh_profile([0.5, 0.5, 0.5], [0.5], OBC)  # OBC expects n_cells - 1
    with pytest.raises(ValidationError, match="need at least 2 cells"):
        build_ssh_profile([0.5], [], OBC)


# ---------------------------------------------------------------- Wilson-Dirac


def test_wd_mass_gap_at_zero_momentum():
    eig = build_wd(WDParams(m=-0.70711, r=0.85355, n_sites=8, bc=PBC)).eigenvalues()
    # p = 0 is on the grid, so +-|m| are exact eigenvalues
    assert np.min(np.abs(eig - 0.70711)) < 1e-9
    assert np.min(np.abs(eig + 0.70711)) < 1e-9


def test_wd_massless_spectrum():
    eig = build_wd(WDParams(m=0.0, r=0.5, n_sites=8, bc=PBC)).eigenvalues()
    assert np.min(np.abs(eig - 1.0)) < 1e-12  # p = -pi on the grid gives +-1
    assert np.min(np.abs(eig + 1.0)) < 1e-12


@pytest.mark.parametrize("m,r,n_sites", [(-0.70711, 0.85355, 8), (0.0, 0.5, 10), (0.3, 0.7, 9)])
def test_wd_pbc_spectrum_matches_dispersion(m, r, n_sites):
    eig = build_wd(WDParams(m=m, r=r, n_sites=n_sites, bc=PBC)).eigenvalues()
    bands = wd_dispersion(m, r, wd_momentum_grid(n_sites))
    expected = np.sort(np.concatenate([-bands, bands]))
    np.testing.assert_allclose(eig, expected, atol=1e-10)


def test_wd_positive_mass_has_no_midgap_state():
    m, r = 0.1, 0.45
    eig = build_wd(WDParams(m=m, r=r, n_sites=64, bc=OBC)).eigenvalues()
    bulk_gap = wd_dispersion(m, r, np.linspace(-np.pi, np.pi, 2001)).min()
    assert abs(np.abs(eig).min() - bulk_gap) < 0.1 * bulk_gap


def test_wd_requires_two_sites():
    with pytest.raises(ValidationError, match="n_sites must be >= 2"):
        WDParams(m=0.1, r=0.5, n_sites=1)
    with pytest.raises(ValidationError, match="n_sites must be >= 2"):
        build_wd_profile([0.1], [0.5], OBC)


def test_wd_profile_rejects_mismatched_lengths():
    with pytest.raises(ValidationError, match="mass and Wilson profiles must be 1D of equal length"):
        build_wd_profile([0.1, 0.1], [0.5], OBC)


def test_wd_rejects_nan_couplings():
    with pytest.raises(ValidationError):
        WDParams(m=float("nan"), r=float("nan"), n_sites=4)
    with pytest.raises(ValidationError):
        WDParams(m=float("nan"), r=0.5, n_sites=4)
    with pytest.raises(ValidationError, match="Wilson parameter must be finite and non-negative"):
        WDParams(m=0.5, r=-0.5, n_sites=4)


def test_hermitian_operator_rejects_nan_entries():
    with pytest.raises(ValidationError):
        HermitianOperator(Bidiagonal(np.full(2, np.nan), np.full(1, np.nan), OBC), np.eye(2))


# ---------------------------------------------------------------- shared invariants


@pytest.mark.parametrize("bc", [PBC, OBC])
def test_builders_are_hermitian(bc):
    params = drive(6, bc)
    ops = [
        build_h0(params),
        build_h1(params),
        build_ssh(SSHParams(u=0.7, v=0.3, n_cells=6, bc=bc)),
        build_wd(WDParams(m=-0.2, r=0.6, n_sites=6, bc=bc)),
    ]
    for op in ops:
        m = dense_matrix(op)
        assert np.abs(m - m.conj().T).max() < 1e-12


@pytest.mark.parametrize("bc", [PBC, OBC])
def test_chiral_symmetry_of_bipartite_chains(bc):
    params = drive(6, bc)
    gamma = sublattice_parity(12)
    for op in (
        build_h0(params),
        build_h1(params),
        build_ssh(SSHParams(u=0.7, v=0.3, n_cells=6, bc=bc)),
    ):
        m = dense_matrix(op)
        assert np.abs(gamma @ m @ gamma + m).max() < 1e-12
        eig = op.eigenvalues()
        np.testing.assert_allclose(eig, -eig[::-1], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    u=st.floats(0.0, 2.0),
    v=st.floats(0.0, 2.0),
    n_cells=st.integers(2, 7),
    periodic=st.booleans(),
)
def test_ssh_is_coupling_combination_of_drive_steps(u, v, n_cells, periodic):
    bc = PBC if periodic else OBC
    params = DriveParams(theta0=0.1, theta1=0.1, n_cells=n_cells, bc=bc)
    combined = 0.5 * u * dense_matrix(build_h1(params)) + 0.5 * v * dense_matrix(build_h0(params))
    ssh = dense_matrix(build_ssh(SSHParams(u=u, v=v, n_cells=n_cells, bc=bc)))
    assert np.abs(combined - ssh).max() < 1e-15


def test_drive_params_validation():
    with pytest.raises(ValidationError):
        DriveParams(theta0=-0.2, theta1=0.1, n_cells=4)
    with pytest.raises(ValidationError):
        DriveParams(theta0=0.1, theta1=2.0, n_cells=4)
    with pytest.raises(ValidationError, match="n_cells must be >= 2"):
        DriveParams(theta0=0.1, theta1=0.1, n_cells=1)


# ---------------------------------------------------------------- cell and site counts


@pytest.mark.parametrize("count", [4.5, 4.0, "4", None, True, np.float64(4.0)])
def test_counts_must_be_integers(count):
    with pytest.raises(ValidationError):
        DriveParams(0.3, 0.7, count)
    with pytest.raises(ValidationError):
        SSHParams(u=0.7, v=0.3, n_cells=count)
    with pytest.raises(ValidationError):
        WDParams(m=0.1, r=0.5, n_sites=count)


@pytest.mark.parametrize("count", [np.int64(6), np.int32(6), np.uint8(6)])
def test_counts_accept_numpy_integers(count):
    params = DriveParams(0.3, 0.7, count)
    assert params.n_cells == 6 and type(params.n_cells) is int
    assert build_h0(params).dim == 12
    assert SSHParams(u=0.7, v=0.3, n_cells=count).n_cells == 6
    assert WDParams(m=0.1, r=0.5, n_sites=count).n_sites == 6


# ---------------------------------------------------------------- hopping-block solver

ORACLE_TOL = 1e-10


def assert_eigenpairs(op, energies, states):
    assert np.abs(dense_matrix(op) @ states - states * energies).max(initial=0.0) < ORACLE_TOL
    assert np.abs(states.conj().T @ states - np.eye(len(energies))).max(initial=0.0) < ORACLE_TOL
    assert np.all(np.diff(energies) >= 0)


def assert_matches_dense_eigh(op):
    """eigenvalues() and mode_states() of a block-built chain against eigh of its matrix:
    all eigenpairs, and the count within a window in the widest gap of |E|."""
    oracle = np.linalg.eigvalsh(dense_matrix(op))
    energies, states = op.mode_states(np.inf)
    np.testing.assert_allclose(op.eigenvalues(), oracle, rtol=0, atol=ORACLE_TOL)
    np.testing.assert_allclose(energies, oracle, rtol=0, atol=ORACLE_TOL)
    assert_eigenpairs(op, energies, states)
    magnitudes = np.sort(np.abs(oracle))
    widest = int(np.argmax(np.diff(magnitudes)))
    if magnitudes[widest + 1] - magnitudes[widest] > 2 * ORACLE_TOL:
        energies, states = op.mode_states(0.5 * (magnitudes[widest] + magnitudes[widest + 1]))
        assert len(energies) == widest + 1
        assert_eigenpairs(op, energies, states)


# Exact zeros or magnitudes >= 1e-12: the oracle, LAPACK's dense eigh, goes
# wrong once a squared coupling underflows (see the underflow test below).
couplings = st.one_of(st.just(0.0), st.floats(1e-12, 2.0))
masses = st.one_of(couplings, st.floats(-1.0, -1e-12))


@settings(max_examples=60, deadline=None)
@given(
    n_cells=st.integers(2, 24),
    periodic=st.booleans(),
    data=st.data(),
)
def test_ssh_profile_block_matches_dense_oracle(n_cells, periodic, data):
    bc = PBC if periodic else OBC
    n_u = n_cells if periodic else n_cells - 1
    v = data.draw(st.lists(couplings, min_size=n_cells, max_size=n_cells))
    u = data.draw(st.lists(couplings, min_size=n_u, max_size=n_u))
    assert_matches_dense_eigh(build_ssh_profile(v, u, bc))


@settings(max_examples=60, deadline=None)
@given(
    n_sites=st.integers(2, 24),
    periodic=st.booleans(),
    data=st.data(),
)
def test_wd_profile_block_matches_dense_oracle(n_sites, periodic, data):
    bc = PBC if periodic else OBC
    mass = data.draw(st.lists(masses, min_size=n_sites, max_size=n_sites))
    wilson = data.draw(st.lists(couplings, min_size=n_sites, max_size=n_sites))
    assert_matches_dense_eigh(build_wd_profile(mass, wilson, bc))


@settings(max_examples=40, deadline=None)
@given(
    eta_left=st.floats(-np.pi / 4, np.pi / 4),
    eta_right=st.floats(-np.pi / 4, np.pi / 4),
    n_cells=st.integers(2, 40),
    wd=st.booleans(),
)
def test_wall_blocks_match_dense_oracle(eta_left, eta_right, n_cells, wd):
    profile = DomainWallProfile(eta_left=eta_left, eta_right=eta_right)
    build = build_wd_wall if wd else build_ssh_wall
    assert_matches_dense_eigh(build(profile, n_cells))


@pytest.mark.parametrize("bc", [PBC, OBC])
@pytest.mark.parametrize(
    "u,v",
    [(0.5, 0.5), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1e-9), (1e-9, 1.0)],
)
def test_gap_closings_and_zero_couplings_match_dense_oracle(bc, u, v):
    for n_cells in (2, 3, 16, 64):
        assert_matches_dense_eigh(build_ssh(SSHParams(u=u, v=v, n_cells=n_cells, bc=bc)))
    m, r = v - u, u  # the Wilson-Dirac chain with the same block up to bond signs
    for n_sites in (2, 3, 16, 64):
        assert_matches_dense_eigh(build_wd(WDParams(m=m, r=r, n_sites=n_sites, bc=bc)))


@pytest.mark.parametrize("n_cells", [24, 40, 100])
def test_nearly_degenerate_end_modes_match_dense_oracle(n_cells):
    # the two end modes of a long topological chain split by (v/u)^N, far
    # below roundoff; localizing_rotation puts the pair one state per end
    op = build_ssh(SSHParams(u=0.9, v=0.1, n_cells=n_cells, bc=OBC))
    assert_matches_dense_eigh(op)
    assert_matches_dense_eigh(build_ssh(SSHParams(u=0.9, v=0.1, n_cells=n_cells // 3, bc=OBC)))
    energies, states = op.mode_states(0.4)
    assert len(energies) == 2
    localized = states @ localizing_rotation(states)
    assert sorted(np.argmax(np.abs(localized), axis=0)) == [0, 2 * n_cells - 1]


def test_block_spectrum_survives_an_underflowing_coupling():
    # dense eigh of this chain's matrix returns +-1.999951 for the exact +-2
    # (the square of the 4.5e-160 bond underflows); the singular values do not
    op = build_ssh_profile([0.0] * 10 + [2.0], [0.0] * 9 + [4.4905010034278886e-160], OBC)
    assert abs(op.eigenvalues()[-1] - 2.0) < 1e-15
    energies, states = op.mode_states(np.inf)
    assert np.abs(dense_matrix(op) @ states - states * energies).max() < 1e-15


def test_block_spectrum_is_plus_minus_singular_values():
    op = build_wd(WDParams(m=-0.3, r=0.65, n_sites=12, bc=OBC))
    sigma = np.linalg.svd(op.block.dense().T, compute_uv=False)
    np.testing.assert_array_equal(op.eigenvalues(), np.concatenate([-sigma, sigma[::-1]]))


def _ilp64_openblas() -> bool:
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):  # numpy < 1.26 has no config dicts
        return False
    return "openblas" in lapack.get("name", "") and "USE64BITINT" in lapack.get(
        "openblas configuration", "")


@pytest.mark.skipif(not _ilp64_openblas(), reason="numpy is not built on an ILP64 OpenBLAS")
def test_dqds_kernel_resolves_on_ilp64_openblas():
    assert models._DQDS is not None


needs_dqds = pytest.mark.skipif(models._DQDS is None, reason="this numpy exports no dlasq1")


def _dqds_or_dense(block: Bidiagonal) -> np.ndarray:
    """The values dqds gives an open block on its entries, or where it does
    not apply or fails, the dense SVD's: singular_values() without its band
    route, which takes some of these blocks."""
    sigma = block._dqds_values() if block._on_entries() else None
    return block._dense_svd(compute_uv=False) if sigma is None else sigma


@needs_dqds
@settings(max_examples=200, deadline=None)
@given(
    n_cells=st.sampled_from([1, 2, 3, 5, 17, 33, 64]),
    data=st.data(),
)
def test_dqds_gives_the_dense_svds_values_bit_for_bit(n_cells, data):
    entries = st.one_of(
        st.just(0.0),
        st.floats(-4.0, 4.0),
        st.builds(lambda sign, power: sign * 10.0 ** power, st.sampled_from([-1.0, 1.0]),
                  st.integers(-150, 0)),
    )
    diagonal = data.draw(st.lists(entries, min_size=n_cells, max_size=n_cells))
    bonds = data.draw(st.lists(entries, min_size=n_cells - 1, max_size=n_cells - 1))
    block = Bidiagonal(diagonal, bonds, OBC)
    np.testing.assert_array_equal(_dqds_or_dense(block), block._dense_svd(compute_uv=False))


def test_a_failed_dqds_run_falls_back_to_the_dense_svd(monkeypatch):
    block = build_ssh_wall(DomainWallProfile(0.3, -0.3), 40).block
    runs = []

    def failing_dqds(n, d, e, work, info):
        runs.append(n.value)
        d[:] = np.nan
        info.value = 1

    monkeypatch.setattr(models, "_DQDS", failing_dqds)
    np.testing.assert_array_equal(
        block.singular_values(), np.linalg.svd(block.dense().T, compute_uv=False)
    )
    assert runs == [40]


def _band_cells(eta: float, n_cells: int, wall: int | None, equal: bool):
    """Entries of an open block of (v, u) cells at eta, (u, v) from cell
    `wall` on; with `equal` both are sqrt(u v), the c^T block of a drive."""
    u = 0.5 * (1.0 + math.sin(2.0 * eta))
    v = 1.0 - u
    if equal:
        u = v = math.sqrt(u * v)
    diagonal, bonds = np.full(n_cells, v), np.full(n_cells - 1, u)
    if wall is not None:
        diagonal[wall:], bonds[wall:] = u, v
    return diagonal, bonds, u, v


@needs_dqds
@settings(max_examples=150, deadline=None)
@given(
    n_cells=st.integers(8, 600),
    eta=st.floats(-0.78, 0.78),
    shape=st.sampled_from(["uniform", "corners", "wall"]),
    equal=st.booleans(),
    data=st.data(),
)
def test_band_blocks_match_dqds(n_cells, eta, shape, equal, data):
    # uniform blocks, one or two corners, mirrored walls with up to two
    # entries off the band, p near q; the route may give way to dqds, but
    # what it returns must agree with it
    wall = data.draw(st.integers(1, n_cells - 2)) if shape == "wall" else None
    diagonal, bonds, u, v = _band_cells(eta, n_cells, wall, equal)
    entries = np.empty(2 * n_cells - 1)
    entries[0::2], entries[1::2] = diagonal, bonds
    off_values = st.sampled_from([math.sqrt(u), math.sqrt(v), math.sqrt(u * v), 2.0 * u, 0.5 * v])
    places = ([0, len(entries) - 1] if shape == "corners"
              else [0, 2 * wall - 1, 2 * wall, 2 * wall + 1, len(entries) - 1] if wall else [])
    for place in data.draw(st.lists(st.sampled_from(places), max_size=2, unique=True)) if places else []:
        entries[place] = data.draw(off_values)
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(entries), max_size=len(entries)))
    entries *= signs
    block = Bidiagonal(entries[0::2], entries[1::2], OBC)
    sigma, reference = block._band_values(), block._dqds_values()
    assume(reference is not None)
    if sigma is not None:
        assert len(sigma) == n_cells
        assert np.abs(sigma - reference).max() <= 1e-13
        small = (reference < 1e-8) & (reference >= np.finfo(float).tiny)
        assert (np.abs(sigma - reference)[small] <= 1e-12 * reference[small]).all()


@pytest.mark.parametrize("eta", [0.05, 0.3, -0.3, 0.6])
@pytest.mark.parametrize("n_cells", [8, 51, 250])
def test_sweep_shaped_blocks_take_the_band_route(eta, n_cells):
    # uniform cells, a corner sqrt(v) first, the mirrored wall of (u, v)
    # then (v, u) cells, and (v, u) then (u, v) cells with the corner and
    # an entry sqrt(u v) at the wall: the kinds of block of the criterion-6
    # sweep, whose walls bind one state
    diagonal, bonds, u, v = _band_cells(eta, n_cells, None, False)
    blocks = [Bidiagonal(diagonal, bonds, OBC)]
    diagonal[0] = math.sqrt(v)
    blocks.append(Bidiagonal(diagonal, bonds, OBC))
    blocks.append(Bidiagonal(*_band_cells(-abs(eta), n_cells, n_cells // 2, False)[:2], OBC))
    diagonal, bonds, u, v = _band_cells(abs(eta), n_cells, n_cells // 2, False)
    diagonal[0], diagonal[n_cells // 2] = math.sqrt(v), math.sqrt(u * v)
    blocks.append(Bidiagonal(diagonal, bonds, OBC))
    for block in blocks:
        sigma = block._band_values()
        assert sigma is not None
        assert np.abs(sigma - block._dense_svd(compute_uv=False)).max() <= 1e-13


@pytest.mark.parametrize("fault", ["drop", "repeat"])
def test_a_lost_or_repeated_root_falls_back_to_dqds(monkeypatch, fault):
    # the band route must find N distinct values whose squares sum to |h|_F^2
    block = build_ssh(SSHParams(u=0.7, v=0.3, n_cells=models.BAND_MIN_CELLS + 24, bc=OBC)).block
    n_cells = len(block.diagonal)
    assert block._band_values() is not None
    band_value = band._band_value

    def faulty(p, q, half):
        values = band_value(p, q, half)
        return np.delete(values, 7) if fault == "drop" else np.insert(values[:-1], 7, values[7])

    runs, dqds = [], models._DQDS
    monkeypatch.setattr(band, "_band_value", faulty)
    monkeypatch.setattr(models, "_DQDS", lambda n, *args: runs.append(n.value) or dqds(n, *args))
    assert block._band_values() is None
    np.testing.assert_array_equal(block.singular_values(), block._dqds_values())
    assert runs == [n_cells, n_cells]


def test_uniform_rings_take_the_circulant_rule(monkeypatch):
    block = build_ssh(SSHParams(u=0.7, v=0.3, n_cells=8, bc=PBC)).block
    expected = np.linalg.svd(block.dense().T, compute_uv=False)
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("a ring took the SVD"))
    monkeypatch.setattr(models, "_DQDS", lambda *args: pytest.fail("dqds ran on a cyclic block"))
    np.testing.assert_allclose(block.singular_values(), expected, rtol=0, atol=1e-15)


def test_non_uniform_rings_take_the_dense_svd_of_the_transpose(monkeypatch):
    block = build_ssh_profile([0.3] * 8, [0.7] * 7 + [0.6], PBC).block
    expected = np.linalg.svd(block.dense().T, compute_uv=False)
    svd, solved = np.linalg.svd, []

    def recording_svd(matrix, *args, **kwargs):
        solved.append(np.array(matrix))
        return svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(models, "_DQDS", lambda *args: pytest.fail("dqds ran on a cyclic block"))
    np.testing.assert_array_equal(block.singular_values(), expected)
    assert len(solved) == 1
    np.testing.assert_array_equal(solved[0], block.dense().T)


RING_CELLS = st.sampled_from([1, 2, 3, 4, 5, 7, 16, 33, 64])
RING_ENTRY = st.builds(lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]), st.floats(0.01, 4.0))


@st.composite
def near_closing_bond(draw, diagonal):
    """A bond of size |diagonal| (1 +- 10^p), p in [-12, -2], of either sign:
    the ring's gap closes at |d| = |e|."""
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -2.0))
    return draw(st.sampled_from([-1.0, 1.0])) * abs(diagonal) * (1.0 + offset)


def _ring(n_cells, diagonal, bond):
    return Bidiagonal(np.full(n_cells, diagonal), np.full(n_cells, bond), PBC)


@settings(max_examples=300, deadline=None)
@given(n_cells=RING_CELLS, diagonal=RING_ENTRY, data=st.data())
def test_uniform_rings_match_the_dense_svd(n_cells, diagonal, data):
    bond = data.draw(st.one_of(RING_ENTRY, st.just(0.0), near_closing_bond(diagonal)))
    block = _ring(n_cells, diagonal, bond)
    rule = block.singular_values()
    assert (np.diff(rule) <= 0.0).all()
    # the dense SVD's own error reaches about 50 ulps of |d| + |e| at 7 cells and more
    dense = np.linalg.svd(block.dense().T, compute_uv=False)
    atol = 128 * np.finfo(float).eps * (abs(diagonal) + abs(bond))
    np.testing.assert_allclose(rule, dense, rtol=0, atol=atol)


@settings(max_examples=300, deadline=None)
@given(n_cells=RING_CELLS, diagonal=RING_ENTRY, data=st.data())
def test_uniform_ring_small_values_keep_relative_digits(n_cells, diagonal, data):
    # near a gap closing |det h| = |d^N - (-e)^N| factors into |d + e| times a
    # sum of terms of one sign; the values multiply to it only when the small
    # ones keep their relative digits (the dense SVD misses them by 1e-16
    # absolute)
    bond = data.draw(near_closing_bond(diagonal))
    same_sign = (diagonal > 0.0) == (bond > 0.0)
    if same_sign and n_cells % 2 == 1:
        return  # |d^N + e^N|: no value is small
    partner = bond if same_sign else -bond
    terms = [diagonal ** (n_cells - 1 - j) * partner**j for j in range(n_cells)]
    log_det = math.log(abs(diagonal - partner)) + math.log(abs(math.fsum(terms)))
    sigma = _ring(n_cells, diagonal, bond).singular_values()
    # a few ulps per value, and the rounding of sums of the size of log_det
    assert abs(np.log(sigma).sum() - log_det) <= 8 * np.finfo(float).eps * (n_cells + abs(log_det))


@pytest.mark.parametrize("scale", [0.0, 2.0**-459, np.nextafter(2.0**-459, 0.0), 1e-307, 2.0**459,
                                   np.nextafter(2.0**459, np.inf), 1e300])
def test_blocks_gesdd_rescales_take_the_dense_svd(scale, monkeypatch):
    # gesdd first scales a block whose largest entry lies outside
    # [2**-459, 2**459]; dqds on the raw entries rounds differently there
    block = Bidiagonal(scale * np.array([0.5, 1.0, 0.25]), scale * np.array([0.75, 0.5]), OBC)
    values = np.linalg.svd(block.dense().T, compute_uv=False)
    right, _, left_t = np.linalg.svd(block.dense().T)
    if not 2.0**-459 <= scale <= 2.0**459:
        monkeypatch.setattr(models, "_DQDS", lambda *args: pytest.fail("dqds ran"))
    np.testing.assert_array_equal(block.singular_values(), values)
    for fast, dense in zip(block.triplets(np.inf), (left_t.T, values, right)):
        np.testing.assert_array_equal(fast, dense)


@pytest.mark.parametrize("solve", ["wide window", "ring triplets", "ring values"])
def test_the_dense_svd_refuses_blocks_past_the_memory_limit(solve, monkeypatch):
    # 64 N^2 bytes with vectors and 16 N^2 without: admitted at the limit,
    # refused one byte below it before any N x N array is formed
    if solve == "wide window":
        block, charge = build_wd_wall(DomainWallProfile(0.3, -0.3), 80).block, 64
    else:
        block = Bidiagonal(np.linspace(0.5, 1.5, 80), np.linspace(1.0, 2.0, 80), PBC)
        charge = 16 if solve == "ring values" else 64
    run = Bidiagonal.singular_values if solve == "ring values" else lambda b: b.triplets(np.inf)
    monkeypatch.setattr(models, "MAX_DENSE_BYTES", charge * 80**2)
    run(block)
    monkeypatch.setattr(models, "MAX_DENSE_BYTES", charge * 80**2 - 1)
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("an SVD ran"))
    monkeypatch.setattr(Bidiagonal, "dense", lambda *args: pytest.fail("h was formed"))
    with pytest.raises(ValidationError, match="dense SVD at N = 80 needs about"):
        run(block)


def test_cyclic_blocks_take_the_dense_triplets_of_the_transpose(monkeypatch):
    block = build_ssh(SSHParams(u=0.7, v=0.3, n_cells=8, bc=PBC)).block
    right, sigma, left_t = np.linalg.svd(block.dense().T)
    svd, solved = np.linalg.svd, []

    def recording_svd(matrix, *args, **kwargs):
        solved.append(np.array(matrix))
        return svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(models, "_DQDS", lambda *args: pytest.fail("dqds ran on a cyclic block"))
    for fast, dense in zip(block.triplets(np.inf), (left_t.T, sigma, right)):
        np.testing.assert_array_equal(fast, dense)
    assert len(solved) == 1
    np.testing.assert_array_equal(solved[0], block.dense().T)


@pytest.mark.skipif(not _ilp64_openblas(), reason="numpy is not built on an ILP64 OpenBLAS")
def test_bisection_kernels_resolve_on_ilp64_openblas():
    assert models._STEBZ is not None and models._STEIN is not None


needs_bisection = pytest.mark.skipif(models._STEBZ is None or models._STEIN is None,
                                     reason="this numpy exports no dstebz or dstein")


def _projector_distance(a, b):
    return np.abs(a @ a.T - b @ b.T).max(initial=0.0)


@st.composite
def open_blocks(draw):
    """Open blocks of 40 to 160 cells: random entries, or the ssh and wd walls."""
    n_cells = draw(st.integers(40, 160))
    kind = draw(st.sampled_from(["random", "ssh", "wd"]))
    if kind == "random":
        entries = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
        diagonal = draw(st.lists(entries, min_size=n_cells, max_size=n_cells))
        return Bidiagonal(diagonal, draw(st.lists(entries, min_size=n_cells - 1, max_size=n_cells - 1)), OBC)
    eta = draw(st.floats(0.05, 0.75)) * draw(st.sampled_from([-1.0, 1.0]))
    build = build_ssh_wall if kind == "ssh" else build_wd_wall
    return build(DomainWallProfile(-eta, eta), n_cells).block


@needs_bisection
@settings(max_examples=150, deadline=None)
@given(block=open_blocks(), data=st.data())
def test_bisection_triplets_match_the_dense_svd(block, data):
    # a window that ends in a gap of at least 1e-3 of the norm, so that its
    # subspaces are well determined, holding k values, few enough to bisect
    n = len(block.diagonal)
    sigma = block.singular_values()
    k = data.draw(st.integers(1, n // models.BISECTION_CELLS_PER_VALUE))
    gap = sigma[n - k - 1] - sigma[n - k]
    assume(gap > 1e-3 * sigma[0])
    below = sigma[n - k] + 0.5 * gap
    left, values, right = block.triplets(below)
    np.testing.assert_array_equal(values, sigma[n - k:])
    bisected = block._bisection_vectors(below, values)
    assert bisected is not None
    np.testing.assert_array_equal(left, bisected[0])
    np.testing.assert_array_equal(right, bisected[1])
    dense_right, dense_sigma, dense_left_t = np.linalg.svd(block.dense().T)
    assert np.count_nonzero(dense_sigma < below) == k
    assert _projector_distance(left, dense_left_t[n - k:].T) <= 1e-12
    assert _projector_distance(right, dense_right[:, n - k:]) <= 1e-12
    for vectors in (left, right):
        assert np.abs(vectors.T @ vectors - np.eye(k)).max() <= 1e-12
    assert np.abs(block.product(right) - left * values).max() <= 1e-12 * sigma[0]


@needs_bisection
@pytest.mark.parametrize("n_sites", [74, 200])
def test_bisection_separates_a_pair_of_values_below_round_off(n_sites):
    # the wall's one in-window value is 3e-40: its pair +-sigma in the
    # Golub-Kahan tridiagonal is one double eigenvalue 0 to working precision,
    # on which inverse iteration at the values themselves returned one vector twice
    block = build_wd_wall(DomainWallProfile(-0.5, 0.5), n_sites).block
    sigma = block.singular_values()
    below = 0.5 * (sigma[-1] + sigma[-2])
    assert sigma[-1] < 1e-30
    left, right = block._bisection_vectors(below, sigma[-1:])
    dense_right, _, dense_left_t = np.linalg.svd(block.dense().T)
    assert _projector_distance(left, dense_left_t[-1:].T) <= 1e-12
    assert _projector_distance(right, dense_right[:, -1:]) <= 1e-12


def _dense_triplets(block, below):
    """triplets(below) as the dense SVD gives them, paired with the dqds values."""
    right, _, left_t = np.linalg.svd(block.dense().T)
    sigma = block.singular_values()
    keep = sigma < below
    return left_t[keep].T, sigma[keep], right[:, keep]


def _assert_same_triplets(got, expected):
    for fast, slow in zip(got, expected):
        np.testing.assert_array_equal(fast, slow)


@needs_bisection
@pytest.mark.parametrize("fault", ["no dstebz", "no dstein", "count", "dstebz info", "dstein info",
                                   "residual"])
def test_failed_bisection_falls_back_to_the_dense_svd(fault, monkeypatch):
    block = build_ssh_wall(DomainWallProfile(0.3, -0.3), 200).block
    below = 0.5 * math.sin(0.6)
    expected = _dense_triplets(block, below)
    stebz, stein, runs = models._STEBZ, models._STEIN, []

    def faulty_stebz(range_, order, n, vl, vu, il, iu, abstol, d, e, found, splits, w, *rest):
        runs.append("dstebz")
        stebz(range_, order, n, vl, vu, il, iu, abstol, d, e, found, splits, w, *rest)
        if fault == "count":
            found.value += 1
        elif fault == "dstebz info":
            rest[-3].value = 1

    def faulty_stein(*args):
        runs.append("dstein")
        stein(*args)
        if fault == "dstein info":
            args[-1].value = 1
        else:  # vectors that solve nothing
            args[7][:] = np.linalg.qr(np.random.default_rng(0).normal(size=args[7].shape))[0]

    monkeypatch.setattr(models, "_STEBZ", None if fault == "no dstebz" else faulty_stebz)
    monkeypatch.setattr(models, "_STEIN", None if fault == "no dstein" else faulty_stein)
    _assert_same_triplets(block.triplets(below), expected)
    assert runs == {"no dstebz": [], "no dstein": [], "count": ["dstebz"],
                    "dstebz info": ["dstebz"], "dstein info": ["dstebz", "dstein"],
                    "residual": ["dstebz", "dstein"]}[fault]


@pytest.mark.parametrize("below", [np.inf, "past the cut-over"])
def test_wide_windows_take_the_dense_svd(below, monkeypatch):
    block = build_wd_wall(DomainWallProfile(0.3, -0.3), 80).block
    sigma = block.singular_values()
    if below == "past the cut-over":
        k = 80 // models.BISECTION_CELLS_PER_VALUE + 1
        below = 0.5 * (sigma[80 - k] + sigma[80 - k - 1])
    expected = _dense_triplets(block, below)
    monkeypatch.setattr(models, "_STEBZ", lambda *args: pytest.fail("dstebz ran"))
    monkeypatch.setattr(models, "_STEIN", lambda *args: pytest.fail("dstein ran"))
    _assert_same_triplets(block.triplets(below), expected)


def test_empty_windows_need_no_vector_solve(monkeypatch):
    block = build_ssh(SSHParams(u=0.4, v=1.0, n_cells=12, bc=OBC)).block
    for name in ("_STEBZ", "_STEIN"):
        monkeypatch.setattr(models, name, lambda *args: pytest.fail("a vector solve ran"))
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("an SVD ran"))
    left, values, right = block.triplets(0.5)
    assert left.shape == right.shape == (12, 0) and values.shape == (0,)


def test_block_products_match_the_dense_block():
    rng = np.random.default_rng(3)
    columns = rng.normal(size=(7, 3))
    for bc in (OBC, PBC):
        block = Bidiagonal(rng.normal(size=7), rng.normal(size=bond_count(7, bc)), bc)
        np.testing.assert_allclose(block.product(columns), block.dense() @ columns, rtol=0, atol=1e-15)
        np.testing.assert_allclose(block.product(columns, transpose=True), block.dense().T @ columns,
                                   rtol=0, atol=1e-15)
    ring = Bidiagonal([0.25], [-1.5], PBC)  # the 1-cell ring's bond lands on the diagonal
    np.testing.assert_array_equal(ring.product(np.ones((1, 2))), [[-1.25, -1.25]])


@pytest.mark.parametrize("n_cells", [8, 50, 200])
@pytest.mark.parametrize("eta", [0.1, 0.26, 0.37, 0.6])
def test_open_chain_singular_values_keep_relative_precision(n_cells, eta):
    # an open chain's block is lower bidiagonal, so |det h| is the product of
    # its diagonal; the singular values multiply to it only when the small
    # ones keep their relative digits (svd of h itself returns exact zeros
    # or misses by up to 25% here)
    ssh, wd = solve_ssh_params(eta), solve_wd_params(eta)
    for op in (
        build_ssh(SSHParams(u=ssh.u, v=ssh.v, n_cells=n_cells, bc=OBC)),
        build_wd(WDParams(m=wd.m, r=wd.r, n_sites=n_cells, bc=OBC)),
        build_ssh_wall(DomainWallProfile(eta, -eta), n_cells),
        build_wd_wall(DomainWallProfile(eta, -eta), n_cells),
    ):
        log_det = np.log(np.abs(op.block.diagonal)).sum()
        sigma = op.eigenvalues()[n_cells:]
        assert abs(np.log(sigma).sum() - log_det) <= 1e-14 * abs(log_det)


def test_open_wd_block_is_the_ssh_block_up_to_bond_signs():
    u, v = 0.7, 0.3
    ssh = build_ssh(SSHParams(u=u, v=v, n_cells=6, bc=OBC)).block.dense()
    wd = build_wd(WDParams(m=v - u, r=u, n_sites=6, bc=OBC)).block.dense()
    np.testing.assert_allclose(np.abs(wd), ssh, rtol=0, atol=1e-15)


def test_hermitian_operator_checks_block_and_orbital_shapes():
    with pytest.raises(ValidationError, match="diagonal must be 1-D and finite"):
        HermitianOperator(Bidiagonal(np.ones((2, 3)), np.ones(1), OBC), np.eye(2))
    with pytest.raises(ValidationError, match="expected 2 x 2 orbitals"):
        HermitianOperator(Bidiagonal(np.ones(2), np.ones(1), OBC), np.eye(3))


def test_ssh_profile_rejects_nan_couplings():
    with pytest.raises(ValidationError):
        build_ssh_profile([0.5, float("nan")], [0.5], OBC)
    with pytest.raises(ValidationError):
        build_ssh_profile(0.5, [0.5], OBC)
    with pytest.raises(ValidationError):
        build_ssh_profile([[1.0, 2.0], [3.0, 4.0]], [5.0], OBC)
