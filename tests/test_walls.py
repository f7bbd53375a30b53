import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlat import (
    BoundaryCondition,
    DomainWallProfile,
    DriveParams,
    ValidationError,
    analytic_wall_state,
    analytic_wd_zero_mode,
    build_floquet,
    build_floquet_wall,
    build_ssh_wall,
    build_wd_wall,
    fit_localization_length,
    floquet_bound_states,
    mode_states,
    numeric_bound_state,
    quasienergies,
    solve_ssh_params,
    solve_wd_params,
    static_spectrum,
    wall_decay_factors,
)
import floqlat.models
from floqlat import floquet
from floqlat.floquet import localizing_rotation
from floqlat.models import cell_states
from floqlat.walls import _select_bound_state, h1_step_profile
from oracles import dense_matrix

PI = np.pi
ETA = PI / 8
XI_CLOSED_FORM = 0.5672963553349892  # -1 / log((1 - sin 2 eta) / (1 + sin 2 eta)) at eta = pi/8


def wall(eta_left, eta_right, position=None):
    return DomainWallProfile(eta_left=eta_left, eta_right=eta_right, wall_position=position)


# ---------------------------------------------------------------- driven wall


def test_step_profile_coefficients():
    coeffs = h1_step_profile(8, ETA, -ETA, wall_site=8)
    assert set(np.round(coeffs, 5)) == {2.0, 0.66667}
    # the wall bond (sites 7, 8) keeps the left coefficient
    assert coeffs[3] == 2.0 and coeffs[4] != 2.0
    with pytest.raises(ValidationError, match="eta_left = -pi/4 freezes the second drive step"):
        h1_step_profile(8, -PI / 4, ETA, wall_site=8)


def test_uniform_wall_reduces_to_plain_drive():
    u_wall = build_floquet_wall(wall(0.0, 0.0), 8)
    params = DriveParams(PI / 4, PI / 4, 8, BoundaryCondition.OPEN)
    np.testing.assert_allclose(dense_matrix(u_wall), dense_matrix(build_floquet(params)), atol=1e-14)


def test_floquet_wall_binds_midgap_states():
    # eta > 0 on the left: both-mode region left of the wall, trivial right of it
    unitary = build_floquet_wall(wall(ETA, -ETA), 100)
    for _, states in mode_states(unitary, 0.05):
        assert states.shape[1] == 2  # wall plus left chain end
        weights = np.abs(states @ localizing_rotation(states)) ** 2
        positions = [int(np.argmax(column)) for column in weights.T]
        assert min(positions) < 10  # one state pinned at the left (topological) end
        assert any(abs(p - 100) < 10 for p in positions)  # one pinned at the wall


def _wall_candidates(case):
    """(values, states, wall site, window, orbitals per site) handed to _select_bound_state."""
    if case in ("zero", "pi"):
        eta, n_cells = 0.10070634684340969, 41
        unitary = build_floquet_wall(wall(-eta, eta), n_cells)
        return (*mode_states(unitary, 0.05)[case == "pi"], n_cells, 0.05, 1)
    # the walls of `domainwall --eta pi/8 --model ssh|wd` on 200 cells or sites
    window = 0.5 * abs(np.sin(2.0 * ETA))
    if case == "ssh":
        return (*build_ssh_wall(wall(-ETA, ETA), 200).mode_states(window), 200, window, 1)
    return (*build_wd_wall(wall(-ETA, ETA), 200).mode_states(window), 100, window, 2)


@pytest.mark.parametrize("case", ["zero", "pi", "ssh", "wd"])
def test_bound_state_energy_does_not_depend_on_the_eigenbasis(case):
    values, states, wall_site, window, components = _wall_candidates(case)
    reported = _select_bound_state(values, states, wall_site, window, components)
    if case in ("zero", "pi"):
        # at this detuning the wall state draws evenly from a split +-E pair, so
        # the eigenvector it draws the most from is picked by round-off
        drawn = np.abs(localizing_rotation(states)) ** 2
        assert np.abs(drawn - 0.5).max() < 1e-6
        assert reported.energy == values.min()
    rng = np.random.default_rng(0)
    for _ in range(8):
        order = rng.permutation(len(values))
        phases = np.exp(2j * PI * rng.random(len(values)))
        shuffled = _select_bound_state(
            values[order], states[:, order] * phases, wall_site, window, components
        )
        assert shuffled.energy == reported.energy
        np.testing.assert_allclose(
            [shuffled.xi_left, shuffled.xi_right], [reported.xi_left, reported.xi_right], rtol=1e-9
        )


def test_wall_profile_rejects_nan_detuning():
    with pytest.raises(ValidationError, match=r"eta_left=nan outside \[-pi/4, pi/4\]"):
        wall(np.nan, 0.1)
    with pytest.raises(ValidationError, match="wall_position=16 outside the chain of 16 sites"):
        wall(-ETA, ETA, position=16).wall_site(16)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: wall(-0.3, 0.3, position=40.5), "wall_position must be an integer, got 40.5"),
        (lambda: wall(-0.3, 0.3, position=True), "wall_position must be an integer, got True"),
        (lambda: static_spectrum(0.3, 8.0), "n_cells must be an integer, got 8.0"),
        (lambda: fit_localization_length(np.ones(10), 20), "wall_position=20 outside the chain of 10 sites"),
    ],
)
def test_wall_positions_and_cell_counts_must_be_integers_in_range(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


# ---------------------------------------------------------------- static walls


def test_ssh_wall_uniform_profile():
    op = build_ssh_wall(wall(ETA, ETA), 8)
    u, v = solve_ssh_params(ETA)
    m = dense_matrix(op)
    values = sorted(set(np.round(m[np.nonzero(m)].real, 10)))
    np.testing.assert_allclose(values, sorted({np.round(v, 10), np.round(u, 10)}), atol=0)


def test_ssh_wall_hosts_wall_and_edge_state():
    n_cells = 100
    op = build_ssh_wall(wall(-ETA, ETA), n_cells)
    u, v = solve_ssh_params(ETA)
    _, states = op.mode_states(0.5 * abs(u - v))
    assert states.shape[1] == 2
    peaks = sorted(np.argmax(np.abs(states @ localizing_rotation(states)), axis=0))
    assert abs(peaks[0] - n_cells) <= 2  # bound to the wall (site N of 2N)
    assert peaks[1] >= 2 * n_cells - 3  # edge state at the topological end


def test_ssh_wall_state_energy_vanishes():
    op = build_ssh_wall(wall(-ETA, ETA), 200)
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
    op = build_wd_wall(wall(-ETA, ETA), 200)
    m, _ = solve_wd_params(ETA)
    state = numeric_bound_state(op, 100, energy_window=0.5 * abs(m), components_per_site=2)
    assert abs(state.energy) < 1e-6
    assert int(np.argmax(state.amplitudes)) in (99, 100)


def test_asymmetric_wall_still_binds_a_zero_mode():
    # the couplings step preserves the sublattice antisymmetry, so the wall
    # mode stays pinned at zero energy even for unequal detuning magnitudes
    op = build_wd_wall(wall(-0.1, 0.3), 120)
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
        op = build_wd_wall(wall(-eta, eta), n_sites)
        state = numeric_bound_state(
            op, n_sites // 2, energy_window=0.5 * abs(m), components_per_site=2
        )
        energies[n_sites] = abs(state.energy)
    assert energies[400] < energies[200]


@pytest.mark.parametrize("model", ["ssh", "wd"])
@pytest.mark.parametrize("eta, n_cells", [(-0.2, 64), (0.325, 40), (-0.325, 40)])
def test_static_wall_energies_keep_their_digits(model, eta, n_cells):
    # the walls of `domainwall --model ssh|wd`: their energies, from the SVD
    # with vectors, keep the relative digits of the values-only SVD above 1e-13
    profile = wall(-eta, eta)
    op = (build_ssh_wall if model == "ssh" else build_wd_wall)(profile, n_cells)
    window = 0.5 * abs(np.sin(2.0 * eta))
    n_sites, components = (2 * n_cells, 1) if model == "ssh" else (n_cells, 2)
    energies, _ = op.mode_states(window)
    state = numeric_bound_state(op, profile.wall_site(n_sites), window, components)
    sigma = op.block.singular_values()
    resolved = [energy for energy in [*energies, state.energy] if abs(energy) > 1e-13]
    assert len(resolved) == len(energies) + 1 == 3
    for energy in resolved:
        assert np.abs(sigma - abs(energy)).min() <= 1e-12 * abs(energy)


@pytest.mark.parametrize("eta, n_cells", [(-0.2, 200), (0.3, 100), (0.5, 64)])
def test_wall_triplets_below_1e_13_take_the_values_only_digits(eta, n_cells):
    # the SVD with vectors gives values below about 1e-13 to about 1e-16
    # absolute only, so triplets pair its vectors with singular_values()
    window = 0.5 * abs(np.sin(2.0 * eta))
    profile = wall(-eta, eta)
    drive = build_floquet_wall(wall(eta, -eta), n_cells)
    half0, half1, _ = floquet._squared_drive(drive)
    a = floquet._chiral_entries(half0, half1, BoundaryCondition.OPEN)[0]  # half size
    c_t = floquet._chiral_entries(*floquet._drive_phases(drive), BoundaryCondition.OPEN)[2]
    cases = [
        (build_ssh_wall(profile, n_cells).block, window),
        (build_wd_wall(profile, n_cells).block, window),
        (a, np.sin(window)),
        (c_t, np.sin(0.5 * window)),
    ]
    for block, below in cases:
        _, sigma, _ = block.triplets(below)
        assert 0.0 < sigma.min() < 1e-13
        tiny = sigma < 1e-13
        values = block.singular_values()[len(block.diagonal) - len(sigma):]
        np.testing.assert_array_equal(sigma[tiny], values[tiny])
    # the 0 mode of `domainwall --model floquet` keeps the spectrum's digits
    zero_mode = floquet_bound_states(drive, profile.wall_site(2 * n_cells), window)[0]
    assert abs(zero_mode.energy) == pytest.approx(np.abs(quasienergies(drive).values).min(),
                                                  rel=1e-12, abs=0.0)


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
    with pytest.raises(ValidationError, match=r"eta=-0\.1 outside \(0, pi/4\)"):
        analytic_wd_zero_mode(-0.1, (-5, 5))
    with pytest.raises(ValidationError, match=r"outside \(0, pi/4\)"):
        analytic_wd_zero_mode(PI / 4 + 0.01, (-5, 5))
    with pytest.raises(ValidationError, match=r"empty position window \(5, -5\)"):
        analytic_wd_zero_mode(ETA, (5, -5))


def test_delocalization_near_transition():
    state = analytic_wd_zero_mode(1e-4, (-5, 5))
    assert state.xi_right > 1e3


def test_analytic_state_solves_discrete_equation_of_motion():
    n_sites = 60
    op = build_wd_wall(wall(-ETA, ETA), n_sites)
    psi = analytic_wall_state(ETA, n_sites)
    residual = (dense_matrix(op) @ psi).reshape(n_sites, 2)
    per_site = np.sqrt((np.abs(residual) ** 2).sum(axis=1))
    interior = np.ones(n_sites, dtype=bool)
    interior[[0, n_sites - 1]] = False  # open ends
    interior[[n_sites // 2 - 1, n_sites // 2]] = False  # rows touching the wall bond
    assert per_site[interior].max() < 1e-12


def test_analytic_state_overlaps_numeric_wall_mode():
    # the bond-averaged coupling at the wall bond perturbs the numeric mode
    # locally, so the overlap is large but not 1
    n_sites = 120
    op = build_wd_wall(wall(-ETA, ETA), n_sites)
    m, _ = solve_wd_params(ETA)
    _, states = op.mode_states(0.5 * abs(m))
    assert states.shape[1] == 2  # the wall mode and the one at the topological end
    localized = states @ localizing_rotation(states, components_per_site=2)
    psi = analytic_wall_state(ETA, n_sites)
    assert np.abs(localized.conj().T @ psi).max() > 0.85


# ---------------------------------------------------------------- localization fits


def test_fit_recovers_synthetic_decay():
    x = np.arange(-50, 51)
    amplitudes = np.exp(-np.abs(x) / 2.0)
    xi_left, xi_right = fit_localization_length(amplitudes, wall_position=50)
    np.testing.assert_allclose([xi_left, xi_right], [2.0, 2.0], rtol=0.01)


def test_fit_needs_enough_sites():
    with pytest.raises(ValidationError, match="usable sites on the left side"):
        fit_localization_length(np.exp(-np.abs(np.arange(-4, 5))), wall_position=4)


def test_fitted_wd_wall_length_matches_closed_form():
    op = build_wd_wall(wall(-ETA, ETA), 200)
    m, _ = solve_wd_params(ETA)
    state = numeric_bound_state(op, 100, energy_window=0.5 * abs(m), components_per_site=2)
    np.testing.assert_allclose(state.xi_right, XI_CLOSED_FORM, rtol=0.05)
    np.testing.assert_allclose(state.xi_left, XI_CLOSED_FORM, rtol=0.05)


@pytest.mark.parametrize("eta", [0.1, -0.1, 0.3, -0.3, 0.5])
def test_wd_wall_lengths_equal_the_closed_form(eta):
    # as domainwall --model wd fits them: inverse iteration resolves the deep
    # tail to relative accuracy, where the dense SVD's vectors carry about
    # 1e-16 absolute error and the fitted lengths missed by up to 1.6e-7
    profile = wall(-eta, eta)
    state = numeric_bound_state(build_wd_wall(profile, 200), profile.wall_site(200),
                                0.5 * abs(math.sin(2.0 * eta)), components_per_site=2)
    closed_form = analytic_wd_zero_mode(abs(eta), (-10, 10)).xi_right
    np.testing.assert_allclose([state.xi_left, state.xi_right], closed_form, rtol=1e-9)


@pytest.mark.parametrize("wd", [False, True])
def test_static_bound_state_builds_only_the_window_states(wd, monkeypatch):
    n_cells = 100
    op = (build_wd_wall if wd else build_ssh_wall)(wall(-ETA, ETA), n_cells)
    window = 0.5 * abs(solve_wd_params(ETA).m)  # |m| = |u - v| = sin(2 eta)
    built = []

    def spy(*args):
        values, states = cell_states(*args)
        built.append(states.shape)
        return values, states

    monkeypatch.setattr(floqlat.models, "cell_states", spy)
    # the wall sits mid-chain: site N of the 2N dimerized sites, N/2 of the N spinor sites
    numeric_bound_state(op, n_cells // 2 if wd else n_cells, window, 2 if wd else 1)
    in_window = int(np.count_nonzero(np.abs(np.linalg.eigvalsh(dense_matrix(op))) < window))
    assert built == [(op.dim, in_window)] and in_window == 2


def test_fitted_ssh_wall_lengths_symmetric():
    op = build_ssh_wall(wall(-ETA, ETA), 100)
    u, v = solve_ssh_params(ETA)
    state = numeric_bound_state(op, 100, energy_window=0.5 * abs(u - v))
    assert state.xi_left > 0 and state.xi_right > 0
    np.testing.assert_allclose(state.xi_left, state.xi_right, rtol=0.10)
