"""The chiral-timeframe quasienergy solver against the dense eigvals oracle."""

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
    compare_spectra,
    quasienergies,
)
from floqlat.floquet import (
    chiral_blocks,
    composed_drive_evolution,
    floquet_operator,
    timeframe_quasienergies,
)
from floqlat.models import h1_bond_sites

PI = np.pi
PBC = BoundaryCondition.PERIODIC
OBC = BoundaryCondition.OPEN
ORACLE_TOL = 1e-10
LINE_OFFSET = 1e-6


def dense_oracle(params, coeffs):
    """Sorted quasienergies from dense exponentials of H0 and the scaled H1, then eigvals."""
    u = floquet_operator(build_h0(params), build_h1_scaled(params, coeffs),
                         params.theta0, params.theta1)
    return quasienergies(u).values


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
    a, c = chiral_blocks(drive)
    scale = 1.0 + sign * offset  # shifts sigma_a^2 + sigma_c^2 to scale^2 everywhere
    with pytest.raises(NotUnitaryError):
        timeframe_quasienergies(scale * a, scale * c)


@settings(max_examples=50, deadline=None)
@given(drive=drives(), data=st.data())
def test_single_entry_perturbation_is_refused(drive, data):
    a, c = chiral_blocks(drive)
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
    # a = G_AA and c = i G_BA of G = exp(-i theta1 H1 / 2) exp(-i theta0 H0 / 2)
    for bc in (OBC, PBC):
        params = DriveParams(0.37, 1.12, 7, bc)
        coeffs = np.linspace(0.5, 3.0, len(h1_bond_sites(7, bc)))
        half = DriveParams(params.theta0 / 2, params.theta1 / 2, 7, bc)
        g = composed_drive_evolution(Drive(half, coeffs))
        a, c = chiral_blocks(Drive(params, coeffs))
        np.testing.assert_allclose(a, g[0::2, 0::2], atol=1e-15)
        np.testing.assert_allclose(c, 1j * g[1::2, 0::2], atol=1e-15)


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
