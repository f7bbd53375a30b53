import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlat import (
    BoundaryCondition,
    DimensionError,
    DriveParams,
    ProfileLengthError,
    SSHParams,
    ValidationError,
    WDParams,
    build_h0,
    build_h1,
    build_h1_scaled,
    build_ssh,
    build_wd,
    build_wd_profile,
    ssh_dispersion,
    ssh_momentum_grid,
    sublattice_parity,
    wd_dispersion,
    wd_momentum_grid,
)

PBC = BoundaryCondition.PERIODIC
OBC = BoundaryCondition.OPEN


def drive(n_cells, bc=PBC):
    return DriveParams(theta0=0.3, theta1=0.4, n_cells=n_cells, bc=bc)


# ---------------------------------------------------------------- H0


@pytest.mark.parametrize("bc", [PBC, OBC])
def test_h0_two_cells_matrix(bc):
    m = build_h0(drive(2, bc)).matrix
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 2.0
    np.testing.assert_allclose(m, expected, atol=0)


@pytest.mark.parametrize("n_cells", [2, 5, 8])
def test_h0_eigenvalues_are_dimer_pair(n_cells):
    eig = build_h0(drive(n_cells)).eigenvalues()
    np.testing.assert_allclose(eig, [-2.0] * n_cells + [2.0] * n_cells, atol=1e-12)


def test_h0_commutes_with_two_site_translation():
    n_cells = 6
    m = build_h0(drive(n_cells)).matrix
    t2 = np.roll(np.eye(2 * n_cells), 2, axis=0)  # site i -> i + 2 mod 2N
    assert np.abs(t2 @ m - m @ t2).max() < 1e-12


# ---------------------------------------------------------------- H1


def test_h1_two_cells_open():
    m = build_h1(drive(2, OBC)).matrix
    expected = np.zeros((4, 4))
    expected[1, 2] = expected[2, 1] = 2.0
    np.testing.assert_allclose(m, expected, atol=0)


def test_h1_two_cells_periodic_wraps():
    m = build_h1(drive(2, PBC)).matrix
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
    assert np.abs(uniform.matrix - build_h1(params).matrix).max() < 1e-15


def test_h1_scaled_zero_profile_is_zero():
    params = drive(4, PBC)
    assert np.abs(build_h1_scaled(params, [0.0] * 4).matrix).max() == 0.0


def test_h1_scaled_step_profile():
    # right-half coefficient 2 (pi/4 - eta) / (pi/4 + eta) at eta = pi/8
    right = 2.0 * (np.pi / 8) / (3 * np.pi / 8)
    np.testing.assert_allclose(right, 0.66667, atol=5e-6)
    params = drive(4, OBC)
    m = build_h1_scaled(params, [2.0, 2.0, right]).matrix
    values = sorted(set(np.round(m[np.nonzero(m)].real, 12)))
    assert values == [np.round(right, 12), 2.0]


def test_h1_scaled_rejects_wrong_length():
    with pytest.raises(ProfileLengthError):
        build_h1_scaled(drive(4, OBC), [2.0] * 4)  # OBC has N - 1 bonds
    with pytest.raises(ProfileLengthError):
        build_h1_scaled(drive(4, PBC), [2.0] * 3)


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


def test_ssh_profile_builder():
    from floqlat import build_ssh_profile

    uniform = build_ssh_profile([0.3] * 4, [0.7] * 4, PBC)
    reference = build_ssh(SSHParams(u=0.7, v=0.3, n_cells=4, bc=PBC))
    assert np.abs(uniform.matrix - reference.matrix).max() == 0.0
    with pytest.raises(ProfileLengthError):
        build_ssh_profile([0.5, 0.5, 0.5], [0.5], OBC)  # OBC expects n_cells - 1
    with pytest.raises(DimensionError):
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
    with pytest.raises(DimensionError):
        WDParams(m=0.1, r=0.5, n_sites=1)
    with pytest.raises(DimensionError):
        build_wd_profile([0.1], [0.5], OBC)


def test_wd_profile_rejects_mismatched_lengths():
    with pytest.raises(ProfileLengthError):
        build_wd_profile([0.1, 0.1], [0.5], OBC)


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
        assert np.abs(op.matrix - op.matrix.conj().T).max() < 1e-12


@pytest.mark.parametrize("bc", [PBC, OBC])
def test_chiral_symmetry_of_bipartite_chains(bc):
    params = drive(6, bc)
    gamma = sublattice_parity(12)
    for op in (
        build_h0(params),
        build_h1(params),
        build_ssh(SSHParams(u=0.7, v=0.3, n_cells=6, bc=bc)),
    ):
        assert np.abs(gamma @ op.matrix @ gamma + op.matrix).max() < 1e-12
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
    combined = 0.5 * u * build_h1(params).matrix + 0.5 * v * build_h0(params).matrix
    ssh = build_ssh(SSHParams(u=u, v=v, n_cells=n_cells, bc=bc)).matrix
    assert np.abs(combined - ssh).max() < 1e-15


def test_drive_params_validation():
    with pytest.raises(ValidationError):
        DriveParams(theta0=-0.2, theta1=0.1, n_cells=4)
    with pytest.raises(ValidationError):
        DriveParams(theta0=0.1, theta1=2.0, n_cells=4)
    with pytest.raises(DimensionError):
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
