"""The chiral-timeframe quasienergy and eigenvector solvers against the dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlat import (
    BoundaryCondition,
    DomainWallProfile,
    Drive,
    DriveParams,
    NotUnitaryError,
    ProfileLengthError,
    UnitaryOperator,
    ValidationError,
    WallModel,
    build_floquet,
    build_floquet_wall,
    build_h0,
    build_h1_scaled,
    classify_phase,
    compare_spectra,
    find_edge_modes,
    quasienergies,
    quasienergy_states,
)
from floqlat import floquet
from floqlat.floquet import (
    chiral_blocks,
    composed_drive_evolution,
    floquet_operator,
    localizing_rotation,
    timeframe_quasienergies,
)
from floqlat.models import h1_bond_sites

PI = np.pi
PBC = BoundaryCondition.PERIODIC
OBC = BoundaryCondition.OPEN
ORACLE_TOL = 1e-10
LINE_OFFSET = 1e-6


def dense_operator(params, coeffs):
    """The one-period operator from dense exponentials of H0 and the scaled H1."""
    return floquet_operator(build_h0(params), build_h1_scaled(params, coeffs),
                            params.theta0, params.theta1)


def dense_oracle(params, coeffs):
    """Sorted quasienergies of the dense operator from eigvals."""
    return quasienergies(dense_operator(params, coeffs)).values


def _clip(theta):
    return float(min(max(theta, 0.0), PI / 2))


@st.composite
def drive_angles(draw):
    """Generic points, plus points within 1e-6 of the gap-closing lines
    theta1 = theta0 and theta0 + theta1 = pi/2."""
    kind = draw(st.sampled_from(["generic", "diagonal", "antidiagonal"]))
    theta0 = draw(st.floats(0.0, PI / 2))
    if kind == "generic":
        return theta0, draw(st.floats(0.0, PI / 2))
    offset = draw(st.floats(-LINE_OFFSET, LINE_OFFSET))
    partner = theta0 if kind == "diagonal" else PI / 2 - theta0
    return theta0, _clip(partner + offset)


@st.composite
def drives(draw):
    theta0, theta1 = draw(drive_angles())
    bc = draw(st.sampled_from([OBC, PBC]))
    n_cells = draw(st.integers(2, 64))
    params = DriveParams(theta0, theta1, n_cells, bc)
    n_bonds = len(h1_bond_sites(n_cells, bc))
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
    return Drive(params, coeffs)


@settings(max_examples=300, deadline=None)
@given(drive=drives())
def test_timeframe_matches_dense_oracle(drive):
    fast = quasienergies(UnitaryOperator(drive=drive)).values
    assert fast.shape == (drive.params.n_sites,)
    assert compare_spectra(fast, dense_oracle(drive.params, drive.h1_coeffs)) < ORACLE_TOL


@settings(max_examples=100, deadline=None)
@given(drive=drives(), offset=st.floats(1e-8, 0.1), sign=st.sampled_from([-1.0, 1.0]))
def test_blocks_off_the_cs_identity_are_refused(drive, offset, sign):
    a, _, c, _ = chiral_blocks(drive)
    scale = 1.0 + sign * offset  # shifts sigma_a^2 + sigma_c^2 to scale^2 everywhere
    with pytest.raises(NotUnitaryError):
        timeframe_quasienergies(scale * a, scale * c)


@settings(max_examples=50, deadline=None)
@given(drive=drives(), data=st.data())
def test_single_entry_perturbation_is_refused(drive, data):
    a, _, c, _ = chiral_blocks(drive)
    n = drive.params.n_cells
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    delta = 1e-3 if a[i, j] >= 0.0 else -1e-3
    a = a.copy()
    a[i, j] += delta
    # sum_k (sigma_a^2 + sigma_c^2 - 1) = |a|_F^2 + |c|_F^2 - N grows by
    # 2 delta a[i, j] + delta^2 >= 1e-6, so some pair is off by >= 1e-6 / N
    with pytest.raises(NotUnitaryError):
        timeframe_quasienergies(a, c)


def test_blocks_are_real_bidiagonal():
    for bc in (OBC, PBC):
        drive = Drive(DriveParams(0.37, 1.12, 9, bc))
        for block in chiral_blocks(drive):
            assert block.dtype == float
            assert (np.count_nonzero(block, axis=0) <= 2).all()
            assert (np.count_nonzero(block, axis=1) <= 2).all()


def test_blocks_are_the_half_period_factor():
    # a = G_AA, b = i G_AB, c = i G_BA and d = G_BB of
    # G = exp(-i theta1 H1 / 2) exp(-i theta0 H0 / 2)
    for bc in (OBC, PBC):
        params = DriveParams(0.37, 1.12, 7, bc)
        coeffs = np.linspace(0.5, 3.0, len(h1_bond_sites(7, bc)))
        half = DriveParams(params.theta0 / 2, params.theta1 / 2, 7, bc)
        g = composed_drive_evolution(Drive(half, coeffs))
        a, b, c, d = chiral_blocks(Drive(params, coeffs))
        np.testing.assert_allclose(a, g[0::2, 0::2], atol=1e-15)
        np.testing.assert_allclose(b, 1j * g[0::2, 1::2], atol=1e-15)
        np.testing.assert_allclose(c, 1j * g[1::2, 0::2], atol=1e-15)
        np.testing.assert_allclose(d, g[1::2, 1::2], atol=1e-15)
        real_form = np.block([[a, -b], [c, d]])
        np.testing.assert_allclose(real_form.T @ real_form, np.eye(14), atol=1e-14)


@pytest.mark.parametrize("n_cells", [60, 100])
def test_wall_and_open_chain_match_oracle_at_sweep_sizes(n_cells):
    eta = PI / 8
    profile = DomainWallProfile(model=WallModel.FLOQUET, eta_left=eta, eta_right=-eta)
    params = DriveParams(PI / 4, PI / 4 + eta, n_cells, OBC)
    for u in (build_floquet_wall(profile, n_cells), build_floquet(params)):
        assert u.drive is not None
        fast = quasienergies(u).values
        assert compare_spectra(fast, quasienergies(UnitaryOperator(u.matrix)).values) < 1e-12


def test_dense_matrix_is_formed_on_demand():
    params = DriveParams(0.3, 0.7, 6, PBC)
    u = build_floquet(params)
    assert u.dim == 12
    quasienergies(u)
    assert u.dense is None  # the spectrum never forms the matrix
    np.testing.assert_array_equal(u.matrix, composed_drive_evolution(Drive(params)))
    assert u.dense is u.matrix
    assert not u.matrix.flags.writeable


def test_operator_takes_a_matrix_or_a_drive():
    with pytest.raises(ValidationError):
        UnitaryOperator()
    with pytest.raises(ValidationError):
        UnitaryOperator(np.eye(4), Drive(DriveParams(0.3, 0.7, 2, PBC)))


def test_drive_checks_profile_length():
    with pytest.raises(ProfileLengthError):
        Drive(DriveParams(0.3, 0.7, 4, OBC), [2.0] * 4)  # open chains have N - 1 bonds
    np.testing.assert_array_equal(Drive(DriveParams(0.3, 0.7, 4, PBC)).h1_coeffs, [2.0] * 4)


# ------------------------------------------------------------- eigenvectors


def assert_states_match_oracle(drive):
    """The timeframe eigenpairs solve the dense operator, are orthonormal, and
    carry the quasienergies of the spectrum solver."""
    op = UnitaryOperator(drive=drive)
    eps, states = quasienergy_states(op)
    assert op.dense is None  # the eigenvectors never form the matrix
    dim = drive.params.n_sites
    assert eps.shape == (dim,) and states.shape == (dim, dim)
    u = dense_operator(drive.params, drive.h1_coeffs).matrix
    residual = np.abs(u @ states - states * np.exp(-1j * eps)).max()
    assert residual <= ORACLE_TOL
    assert np.abs(states.conj().T @ states - np.eye(dim)).max() <= ORACLE_TOL
    assert np.abs(eps - quasienergies(op).values).max() <= 1e-12


@settings(max_examples=150, deadline=None)
@given(drive=drives())
def test_timeframe_states_match_dense_oracle(drive):
    assert_states_match_oracle(drive)


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
    ],
)
def test_timeframe_states_at_degeneracies_and_window_ends(theta0, theta1, n_cells, bc):
    assert_states_match_oracle(Drive(DriveParams(theta0, theta1, n_cells, bc)))


@pytest.mark.parametrize("seed", range(4))
def test_timeframe_states_on_random_wall_profiles(seed):
    rng = np.random.default_rng(seed)
    n_cells = 40
    for bc in (OBC, PBC):
        n_bonds = len(h1_bond_sites(n_cells, bc))
        wall = rng.integers(1, n_bonds)
        left, right = rng.uniform(0.01, 4.0, size=2)
        coeffs = np.where(np.arange(n_bonds) < wall, left, right)
        theta0, theta1 = rng.uniform(0.0, PI / 2, size=2)
        assert_states_match_oracle(Drive(DriveParams(theta0, theta1, n_cells, bc), coeffs))


def test_degenerate_wall_and_end_modes_come_out_localized():
    # the wall mode and the left-end mode are degenerate far below FOLD_ATOL;
    # rotated to the position eigenbasis, each sits at one of the two places,
    # not on both
    eta, n_cells = PI / 8, 100
    profile = DomainWallProfile(model=WallModel.FLOQUET, eta_left=eta, eta_right=-eta)
    eps, states = quasienergy_states(build_floquet_wall(profile, n_cells))
    for group in (np.abs(eps) < 0.05, PI - np.abs(eps) < 0.05):
        idx = np.flatnonzero(group)
        assert len(idx) == 2
        block = states[:, idx]
        weights = np.abs(block @ localizing_rotation(block)) ** 2
        at_end = weights[:20].sum(axis=0)
        at_wall = weights[n_cells - 20 : n_cells + 20].sum(axis=0)
        assert sorted(np.round(at_end)) == [0.0, 1.0]
        assert sorted(np.round(at_wall)) == [0.0, 1.0]
        assert (np.maximum(at_end, at_wall) > 1.0 - 1e-6).all()


def test_edge_mode_search_never_forms_the_dense_matrix(monkeypatch):
    built = []

    def recording_build(params):
        op = build_floquet(params)
        built.append(op)
        return op

    monkeypatch.setattr(floquet, "build_floquet", recording_build)
    find_edge_modes(DriveParams(PI / 4, 3 * PI / 8, 32, OBC))
    classify_phase(DriveParams(PI / 4, PI / 8, 32, PBC))
    assert len(built) == 2
    assert all(op.dense is None for op in built)
