import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlat import (
    BoundaryCondition,
    DomainWallProfile,
    DriveParams,
    EtaRangeError,
    FitWindowError,
    ValidationError,
    WallModel,
    analytic_wall_state,
    analytic_wd_zero_mode,
    build_floquet,
    build_floquet_wall,
    build_ssh_wall,
    build_wd_wall,
    fit_localization_length,
    numeric_bound_state,
    quasienergy_states,
    solve_ssh_params,
    solve_wd_params,
    wall_decay_factors,
)
from floqlat.floquet import localizing_rotation
from floqlat.walls import h1_step_profile

PI = np.pi
ETA = PI / 8
XI_CLOSED_FORM = 0.5672963553349892  # -1 / log((1 - sin 2 eta) / (1 + sin 2 eta)) at eta = pi/8


def wall(model, eta_left, eta_right, position=None):
    return DomainWallProfile(model=model, eta_left=eta_left, eta_right=eta_right,
                             wall_position=position)


# ---------------------------------------------------------------- driven wall


def test_step_profile_coefficients():
    coeffs = h1_step_profile(8, ETA, -ETA, wall_site=8)
    assert set(np.round(coeffs, 5)) == {2.0, 0.66667}
    # the wall bond (sites 7, 8) keeps the left coefficient
    assert coeffs[3] == 2.0 and coeffs[4] != 2.0


def test_uniform_wall_reduces_to_plain_drive():
    u_wall = build_floquet_wall(wall(WallModel.FLOQUET, 0.0, 0.0), 8)
    params = DriveParams(PI / 4, PI / 4, 8, BoundaryCondition.OPEN)
    np.testing.assert_allclose(u_wall.matrix, build_floquet(params).matrix, atol=1e-14)


def test_floquet_wall_binds_midgap_states():
    # eta > 0 on the left: both-mode region left of the wall, trivial right of it
    unitary = build_floquet_wall(wall(WallModel.FLOQUET, ETA, -ETA), 100)
    eps, states = quasienergy_states(unitary)
    near_zero = np.nonzero(np.abs(eps) < 0.05)[0]
    near_pi = np.nonzero(PI - np.abs(eps) < 0.05)[0]
    assert len(near_zero) == 2 and len(near_pi) == 2  # wall plus left chain end
    for group in (near_zero, near_pi):
        weights = np.abs(states[:, group] @ localizing_rotation(states[:, group])) ** 2
        positions = [int(np.argmax(column)) for column in weights.T]
        assert min(positions) < 10  # one state pinned at the left (topological) end
        assert any(abs(p - 100) < 10 for p in positions)  # one pinned at the wall


def test_floquet_wall_model_check():
    with pytest.raises(ValidationError):
        build_floquet_wall(wall(WallModel.SSH, ETA, -ETA), 8)


def test_wall_profile_rejects_nan_detuning():
    with pytest.raises(EtaRangeError):
        wall(WallModel.SSH, np.nan, 0.1)


# ---------------------------------------------------------------- static walls


def test_ssh_wall_uniform_profile():
    op = build_ssh_wall(wall(WallModel.SSH, ETA, ETA), 8)
    u, v = solve_ssh_params(ETA)
    values = sorted(set(np.round(op.matrix[np.nonzero(op.matrix)].real, 10)))
    np.testing.assert_allclose(values, sorted({np.round(v, 10), np.round(u, 10)}), atol=0)


def test_ssh_wall_hosts_wall_and_edge_state():
    n_cells = 100
    op = build_ssh_wall(wall(WallModel.SSH, -ETA, ETA), n_cells)
    u, v = solve_ssh_params(ETA)
    energies, states = op.diagonalize()
    midgap = np.nonzero(np.abs(energies) < 0.5 * abs(u - v))[0]
    assert len(midgap) == 2
    peaks = sorted(int(np.argmax(np.abs(states[:, i]) ** 2)) for i in midgap)
    assert abs(peaks[0] - n_cells) <= 2  # bound to the wall (site N of 2N)
    assert peaks[1] >= 2 * n_cells - 3  # edge state at the topological end


def test_ssh_wall_state_energy_vanishes():
    op = build_ssh_wall(wall(WallModel.SSH, -ETA, ETA), 200)
    u, v = solve_ssh_params(ETA)
    energies = op.eigenvalues()
    midgap = energies[np.abs(energies) < 0.5 * abs(u - v)]
    assert np.abs(midgap).max() < 1e-8


def test_wd_wall_couplings():
    plus = solve_wd_params(ETA)
    minus = solve_wd_params(-ETA)
    np.testing.assert_allclose([plus.m, plus.r], [-0.70711, 0.85355], atol=5e-6)
    np.testing.assert_allclose([minus.m, minus.r], [0.70711, 0.14645], atol=5e-6)


def test_wd_wall_binds_single_zero_mode_at_wall():
    op = build_wd_wall(wall(WallModel.WD, -ETA, ETA), 200)
    m, _ = solve_wd_params(ETA)
    state = numeric_bound_state(op, 100, energy_window=0.5 * abs(m), components_per_site=2)
    assert abs(state.energy) < 1e-6
    assert int(np.argmax(state.amplitudes)) in (99, 100)


def test_asymmetric_wall_still_binds_a_zero_mode():
    # the couplings step preserves the sublattice antisymmetry, so the wall
    # mode stays pinned at zero energy even for unequal detuning magnitudes
    op = build_wd_wall(wall(WallModel.WD, -0.1, 0.3), 120)
    window = 0.5 * min(abs(solve_wd_params(-0.1).m), abs(solve_wd_params(0.3).m))
    state = numeric_bound_state(op, 60, energy_window=window, components_per_site=2)
    assert abs(state.energy) < 1e-6
    assert abs(int(np.argmax(state.amplitudes)) - 60) <= 1


def test_wd_wall_energy_decreases_with_size():
    # eta small enough that the finite-size splitting at N=200 is resolvable
    eta = 0.05
    m, _ = solve_wd_params(eta)
    energies = {}
    for n_sites in (200, 400):
        op = build_wd_wall(wall(WallModel.WD, -eta, eta), n_sites)
        state = numeric_bound_state(
            op, n_sites // 2, energy_window=0.5 * abs(m), components_per_site=2
        )
        energies[n_sites] = abs(state.energy)
    assert energies[400] < energies[200]


# ---------------------------------------------------------------- analytic solution


def test_decay_factors_at_reference_detuning():
    q_plus, q_minus = wall_decay_factors(ETA)
    np.testing.assert_allclose(q_plus, 0.17157, atol=5e-6)
    np.testing.assert_allclose(q_minus, 5.82843, atol=5e-6)


@settings(max_examples=50, deadline=None)
@given(eta=st.floats(1e-3, PI / 4 - 1e-3))
def test_decay_factors_are_reciprocal(eta):
    q_plus, q_minus = wall_decay_factors(eta)
    assert abs(q_plus * q_minus - 1.0) < 1e-12


def test_analytic_zero_mode_values():
    state = analytic_wd_zero_mode(ETA, (-30, 30))
    assert state.energy == 0.0
    np.testing.assert_allclose(state.xi_right, XI_CLOSED_FORM, atol=1e-12)
    np.testing.assert_allclose(state.xi_left, XI_CLOSED_FORM, atol=1e-12)
    np.testing.assert_allclose(state.amplitudes.sum(), 1.0, atol=1e-12)
    assert int(np.argmax(state.amplitudes)) == 30  # peak at the wall offset x = 0


def test_analytic_zero_mode_eta_range():
    with pytest.raises(EtaRangeError):
        analytic_wd_zero_mode(-0.1, (-5, 5))
    with pytest.raises(EtaRangeError):
        analytic_wd_zero_mode(PI / 4 + 0.01, (-5, 5))


def test_delocalization_near_transition():
    state = analytic_wd_zero_mode(1e-4, (-5, 5))
    assert state.xi_right > 1e3


def test_analytic_state_solves_discrete_equation_of_motion():
    n_sites = 60
    op = build_wd_wall(wall(WallModel.WD, -ETA, ETA), n_sites)
    psi = analytic_wall_state(ETA, n_sites)
    residual = (op.matrix @ psi).reshape(n_sites, 2)
    per_site = np.sqrt((np.abs(residual) ** 2).sum(axis=1))
    interior = np.ones(n_sites, dtype=bool)
    interior[[0, n_sites - 1]] = False  # open ends
    interior[[n_sites // 2 - 1, n_sites // 2]] = False  # rows touching the wall bond
    assert per_site[interior].max() < 1e-12


def test_analytic_state_overlaps_numeric_wall_mode():
    # the bond-averaged coupling at the wall bond perturbs the numeric mode
    # locally, so the overlap is large but not 1
    n_sites = 120
    op = build_wd_wall(wall(WallModel.WD, -ETA, ETA), n_sites)
    m, _ = solve_wd_params(ETA)
    energies, states = op.diagonalize()
    psi = analytic_wall_state(ETA, n_sites)
    midgap = np.nonzero(np.abs(energies) < 0.5 * abs(m))[0]
    overlap = max(abs(states[:, i].conj() @ psi) for i in midgap)
    assert overlap > 0.85


# ---------------------------------------------------------------- localization fits


def test_fit_recovers_synthetic_decay():
    x = np.arange(-50, 51)
    amplitudes = np.exp(-np.abs(x) / 2.0)
    xi_left, xi_right = fit_localization_length(amplitudes, wall_position=50)
    np.testing.assert_allclose([xi_left, xi_right], [2.0, 2.0], rtol=0.01)


def test_fit_needs_enough_sites():
    with pytest.raises(FitWindowError):
        fit_localization_length(np.exp(-np.abs(np.arange(-4, 5))), wall_position=4)


def test_fitted_wd_wall_length_matches_closed_form():
    op = build_wd_wall(wall(WallModel.WD, -ETA, ETA), 200)
    m, _ = solve_wd_params(ETA)
    state = numeric_bound_state(op, 100, energy_window=0.5 * abs(m), components_per_site=2)
    np.testing.assert_allclose(state.xi_right, XI_CLOSED_FORM, rtol=0.05)
    np.testing.assert_allclose(state.xi_left, XI_CLOSED_FORM, rtol=0.05)


def test_fitted_ssh_wall_lengths_symmetric():
    op = build_ssh_wall(wall(WallModel.SSH, -ETA, ETA), 100)
    u, v = solve_ssh_params(ETA)
    state = numeric_bound_state(op, 100, energy_window=0.5 * abs(u - v))
    assert state.xi_left > 0 and state.xi_right > 0
    np.testing.assert_allclose(state.xi_left, state.xi_right, rtol=0.10)
