import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlat import (
    BoundaryCondition,
    DriveParams,
    GaplessPointError,
    NumericalError,
    Phase,
    QuasienergySpectrum,
    UnitaryOperator,
    ValidationError,
    analytic_dispersion_general,
    analytic_dispersion_line,
    analytic_pbc_spectrum,
    build_floquet,
    bulk_gaps,
    check_pi_pairing,
    classify_phase,
    find_edge_modes,
    floquet_bound_states,
    fold_quasienergy,
    mode_states,
    quasienergies,
    wrap_distance,
)

from floqlat import floquet
from floqlat.floquet import DEFAULT_TOL_MODE, localizing_rotation, timeframe_quasienergies
from oracles import dense_matrix, dense_quasienergies

PBC = BoundaryCondition.PERIODIC
OBC = BoundaryCondition.OPEN
PI = np.pi


# ---------------------------------------------------------------- folding


def test_fold_half_open_window():
    assert fold_quasienergy(PI) == -PI
    assert fold_quasienergy(-PI) == -PI
    assert fold_quasienergy(PI - 1e-13) == -PI  # within 1e-12 of +pi
    np.testing.assert_allclose(fold_quasienergy(3 * PI / 2), -PI / 2, atol=1e-14)
    np.testing.assert_allclose(fold_quasienergy(-3 * PI / 2), PI / 2, atol=1e-14)
    # a spectrum holds folded values only, sorted, in one list
    for values, message in (([[0.0]], "expected a 1D value list"), ([0.1, 0.0], "sorted ascending"),
                            ([0.0, PI], r"must lie in \[-pi, pi\)")):
        with pytest.raises(ValidationError, match=message):
            QuasienergySpectrum(values)


def test_wrap_distance():
    np.testing.assert_allclose(wrap_distance(-PI + 1e-3, PI - 1e-3), 2e-3, atol=1e-15)
    np.testing.assert_allclose(wrap_distance(0.2, -0.3), 0.5, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-100.0, 100.0))
def test_fold_lands_in_half_open_window(x):
    folded = fold_quasienergy(x)
    assert -PI <= folded < PI
    assert abs(np.sin(folded - x)) < 1e-9  # congruent modulo 2 pi


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-PI, PI - 1e-12, exclude_max=True))
def test_fold_leaves_values_in_the_window_bit_identical(x):
    folded = fold_quasienergy(np.array([x, -0.0]))
    assert folded[0].tobytes() == np.float64(x + 0.0).tobytes()
    assert folded[1] == 0.0 and not np.signbit(folded[1])  # -0.0 is written as 0.0


def test_open_chain_end_mode_splitting_keeps_its_relative_digits():
    # off the line the end modes split by about 5e-15; folding every value
    # through mod(x + pi, 2 pi) - pi would round them to multiples of ulp(pi)
    u = build_floquet(DriveParams(0.3, 0.9, 24, OBC))
    a, _, c_t, _ = floquet._chiral_entries(*floquet._drive_phases(u), OBC)
    unfolded = np.abs(timeframe_quasienergies(a, c_t)).min()
    np.testing.assert_allclose(np.abs(quasienergies(u).values).min(), unfolded, rtol=1e-12)


# ---------------------------------------------------------------- one-period operator


def test_zero_drive_gives_identity():
    u = build_floquet(DriveParams(0.0, 0.0, 4, PBC))
    np.testing.assert_allclose(dense_matrix(u), np.eye(8), atol=1e-14)
    assert np.abs(quasienergies(u).values).max() == 0.0


@pytest.mark.parametrize("bc", [PBC, OBC])
def test_first_step_only_gives_dimer_phases(bc):
    theta0 = 0.3
    u = build_floquet(DriveParams(theta0, 0.0, 6, bc))
    eps = quasienergies(u).values
    np.testing.assert_allclose(eps, [-2 * theta0] * 6 + [2 * theta0] * 6, atol=1e-12)


def test_block_composition_matches_generic_spectral_path():
    from floqlat import build_h0, build_h1, build_h1_scaled
    from oracles import floquet_operator
    from floqlat.walls import h1_step_profile

    step = h1_step_profile(10, 0.3, -0.3, wall_site=10)  # 2 left of the wall, ~0.89 right
    for bc in (PBC, OBC):
        params = DriveParams(0.37, 1.12, 10, bc)
        generic = floquet_operator(
            build_h0(params), build_h1(params), params.theta0, params.theta1
        )
        assert np.abs(dense_matrix(build_floquet(params)) - generic).max() < 1e-13
        coeffs = step if bc is OBC else np.append(step, step[-1])  # PBC adds the wrap bond
        generic = floquet_operator(
            build_h0(params), build_h1_scaled(params, coeffs), params.theta0, params.theta1
        )
        from_drive = UnitaryOperator(params, coeffs)
        assert np.abs(dense_matrix(from_drive) - generic).max() < 1e-13


def test_unitarity_over_phase_grid():
    grid = np.linspace(0.0, PI / 2, 10)
    for theta0 in grid:
        for theta1 in grid:
            u = dense_matrix(build_floquet(DriveParams(theta0, theta1, 4, PBC)))
            assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-10


# ---------------------------------------------------------------- quasienergies


def test_quasienergy_of_diagonal_phases():
    eps = dense_quasienergies(np.diag([np.exp(1j * PI / 2), np.exp(-1j * PI / 2)]))
    np.testing.assert_allclose(eps.values, [-PI / 2, PI / 2], atol=1e-15)


def test_quasienergy_of_identity():
    assert np.abs(dense_quasienergies(np.eye(6)).values).max() == 0.0


def test_quasienergies_reject_non_unitary():
    with pytest.raises(NumericalError, match="eigenvalues leave the unit circle"):
        dense_quasienergies(np.diag([2.0, 1.0]))


def test_drive_rejects_nan_coefficients():
    with pytest.raises(ValidationError):
        UnitaryOperator(DriveParams(PI / 4, 0.9, 4, OBC), [np.nan, 2.0, 2.0])


def test_pbc_quasienergies_match_line_dispersion():
    params = DriveParams(PI / 4, 3 * PI / 8, 8, PBC)
    eps = quasienergies(build_floquet(params)).values
    k = PI * np.arange(8) / 8
    expected = np.sort(analytic_dispersion_line(PI / 8, k).ravel())
    np.testing.assert_allclose(eps, expected, atol=1e-10)


@pytest.mark.parametrize("n_cells", [4, 8, 16])
@pytest.mark.parametrize("theta0,theta1", [(0.3, 0.0), (0.3, 0.7), (PI / 4, 3 * PI / 8), (1.2, 1.5)])
def test_pbc_quasienergies_match_general_dispersion(n_cells, theta0, theta1):
    params = DriveParams(theta0, theta1, n_cells, PBC)
    eps = quasienergies(build_floquet(params)).values
    np.testing.assert_allclose(
        eps, analytic_pbc_spectrum(theta0, theta1, n_cells), atol=1e-10
    )


def test_numeric_matches_dispersion_over_phase_grid():
    grid = np.linspace(0.0, PI / 2, 10)
    for n_cells in (4, 8, 16):
        for theta0 in grid:
            for theta1 in grid:
                eps = quasienergies(build_floquet(DriveParams(theta0, theta1, n_cells, PBC)))
                expected = analytic_pbc_spectrum(theta0, theta1, n_cells)
                assert np.max(wrap_distance(eps.values, expected)) < 1e-10


@pytest.mark.parametrize("theta0,theta1", [(0.3, 0.7), (PI / 4, 0.2), (1.1, 1.4)])
def test_particle_hole_symmetry(theta0, theta1):
    eps = quasienergies(build_floquet(DriveParams(theta0, theta1, 8, PBC))).values
    np.testing.assert_allclose(eps, -eps[::-1], atol=1e-10)


# ---------------------------------------------------------------- analytic dispersion


def test_dispersion_gap_closure_at_center():
    np.testing.assert_allclose(
        analytic_dispersion_general(PI / 4, PI / 4, PI / 2), [0.0, 0.0], atol=1e-12
    )


def test_dispersion_line_values():
    np.testing.assert_allclose(analytic_dispersion_line(0.0, PI / 2), [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(
        analytic_dispersion_line(PI / 8, PI / 4), [-PI / 2, PI / 2], atol=1e-12
    )
    np.testing.assert_allclose(
        analytic_dispersion_line(PI / 8, PI / 2), [-PI / 4, PI / 4], atol=1e-12
    )
    np.testing.assert_allclose(
        analytic_dispersion_general(PI / 4, 3 * PI / 8, PI / 2), [-PI / 4, PI / 4], atol=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(eta=st.floats(-PI / 4, PI / 4), k=st.floats(0.0, PI))
def test_dispersion_line_agrees_with_general(eta, k):
    line = analytic_dispersion_line(eta, k)
    general = analytic_dispersion_general(PI / 4, eta + PI / 4, k)
    np.testing.assert_allclose(line, general, atol=1e-12)


def test_dispersion_domain_guard():
    from floqlat.floquet import _check_cos_domain

    with pytest.raises(NumericalError, match=r"arccos argument outside \[-1, 1\]"):
        _check_cos_domain(np.array([1.0 + 1e-9]))
    # overshoot within the clamp tolerance is absorbed
    assert _check_cos_domain(np.array([1.0 + 1e-13]))[0] == 1.0


def test_static_limit_matches_diagonalization():
    # theta1 = 0 reduces to stroboscopic evolution under the first step alone
    theta0 = 0.3
    eps = quasienergies(build_floquet(DriveParams(theta0, 0.0, 8, PBC))).values
    np.testing.assert_allclose(eps, analytic_pbc_spectrum(theta0, 0.0, 8), atol=1e-10)


# ---------------------------------------------------------------- pi pairing


def test_pi_pairing_exact_quadruple():
    result = check_pi_pairing(np.array([-3 * PI / 4, -PI / 4, PI / 4, 3 * PI / 4]), tol=1e-12)
    assert result.paired and result.max_mismatch <= 1e-15  # exact up to folding roundoff


def test_pi_pairing_on_symmetric_line():
    eps = quasienergies(build_floquet(DriveParams(PI / 4, 3 * PI / 8, 8, PBC))).values
    result = check_pi_pairing(eps, tol=1e-10)
    assert result.paired and result.max_mismatch < 1e-10


def test_pi_pairing_across_the_fold():
    # the partner of 0.95e-12 lies within the fold tolerance of +pi and folds to -pi,
    # so index-wise matching of the sorted lists would be off by one
    result = check_pi_pairing(np.array([0.95e-12, PI - 1.05e-12]), tol=1e-10)
    assert result.paired and result.max_mismatch < 2e-12


def test_no_pairing_at_generic_point():
    eps = quasienergies(build_floquet(DriveParams(0.3, 0.2, 8, PBC))).values
    assert not check_pi_pairing(eps, tol=1e-10).paired


@pytest.mark.parametrize("eta", [-PI / 8, 0.05, PI / 8, 0.2])
def test_pairing_along_line_for_all_test_detunings(eta):
    eps = quasienergies(build_floquet(DriveParams(PI / 4, PI / 4 + eta, 8, PBC))).values
    assert check_pi_pairing(eps, tol=1e-10).paired


def test_pairing_on_second_line_pbc_but_not_obc():
    # theta1 = pi/4 with theta0 = 0.3 lies in the phase with zero modes only
    pbc_eps = quasienergies(build_floquet(DriveParams(0.3, PI / 4, 64, PBC))).values
    assert check_pi_pairing(pbc_eps, tol=1e-10).paired
    obc_eps = quasienergies(build_floquet(DriveParams(0.3, PI / 4, 64, OBC))).values
    result = check_pi_pairing(obc_eps, tol=1e-10)
    assert not result.paired
    assert result.max_mismatch > 0.1


# ---------------------------------------------------------------- edge modes


def test_edge_modes_in_both_mode_phase():
    # at 32 cells with tol_mode 1.2, 44 states lie in the window, 40 of them in the bulk
    for theta1, n_cells, tol_mode in ((3 * PI / 8, 64, DEFAULT_TOL_MODE), (PI / 4 + 0.3, 32, 1.2)):
        modes = find_edge_modes(DriveParams(PI / 4, theta1, n_cells, OBC), tol_mode)
        kinds = sorted(m.kind for m in modes)
        assert kinds == ["pi", "pi", "zero", "zero"]
        assert all(m.edge_weight >= 0.5 for m in modes)
        assert all(m.ipr > 0.2 for m in modes)


def test_edge_modes_at_the_two_ends_count_apart():
    # on 16 cells the two ends split each mode pair into +-eps; an eigenvector
    # is then half at each end (IPR 0.192 zero, 0.228 pi), a localized mode
    # sits at one (0.384, 0.456)
    modes = find_edge_modes(DriveParams(0.8869211363018753, 1.2648148484579396, 16, OBC))
    assert [m.kind for m in modes] == ["pi", "zero", "zero", "pi"]
    assert all(m.ipr > 0.38 for m in modes if m.kind == "zero")
    assert all(m.ipr > 0.45 for m in modes if m.kind == "pi")
    values = [m.quasienergy for m in modes]
    assert values[1] == -values[2] and values[0] == -values[3]  # each split value reported once


def test_no_edge_modes_on_trivial_side():
    assert find_edge_modes(DriveParams(PI / 4, PI / 8, 64, OBC)) == []
    # next to the gap closing the 12 states in the window all lie in the bulk
    assert find_edge_modes(DriveParams(PI / 4, PI / 4 + 0.02, 32, OBC), 0.3) == []


def test_pi_modes_only_at_full_first_step():
    modes = find_edge_modes(DriveParams(PI / 2, 0.3, 64, OBC))
    assert sorted(m.kind for m in modes) == ["pi", "pi"]


def test_edge_modes_require_open_chain():
    with pytest.raises(ValidationError):
        find_edge_modes(DriveParams(PI / 4, 3 * PI / 8, 64, PBC))


def _value_positions(eps, states):
    """(value, mean site position) of each localized state, as find_edge_modes pairs them."""
    taken, localized = floquet.localized_modes(eps, states)
    positions = np.arange(len(localized)) @ (np.abs(localized) ** 2)
    order = np.argsort(taken, kind="stable")
    return list(zip(np.sort(eps), np.round(positions[order], 6)))


@pytest.mark.parametrize("theta1, n_cells", [(1.1, 16), (1.2, 12), (3 * PI / 8, 32)])
def test_edge_mode_values_do_not_depend_on_the_eigenbasis(theta1, n_cells, monkeypatch):
    # on these chains localizing_rotation mixes each +-eps end-mode pair evenly
    # (weights 0.5 within 1e-15), so which end takes -eps must not be read
    # off round-off in the eigenbasis
    params = DriveParams(PI / 4, theta1, n_cells, OBC)
    modes = mode_states(build_floquet(params), DEFAULT_TOL_MODE)
    for _, states in modes:
        assert np.abs(np.abs(localizing_rotation(states)) ** 2 - 0.5).max() < 1e-12
    pairings = [_value_positions(*mode) for mode in modes]
    reports = find_edge_modes(params)
    assert len(reports) == 4
    rng = np.random.default_rng(0)

    def reordered_mode_states(u, window):
        shuffled = []
        for eps, states in modes:
            order = rng.permutation(len(eps))
            phases = np.exp(2j * PI * rng.random(len(eps)))
            shuffled.append((eps[order], states[:, order] * phases))
        return tuple(shuffled)

    monkeypatch.setattr(floquet, "mode_states", reordered_mode_states)
    for _ in range(16):
        assert [_value_positions(*mode) for mode in reordered_mode_states(None, None)] == pairings
        shuffled_reports = find_edge_modes(params)
        assert [r.quasienergy for r in shuffled_reports] == [r.quasienergy for r in reports]
        assert [r.kind for r in shuffled_reports] == [r.kind for r in reports]
        for shuffled, report in zip(shuffled_reports, reports):
            assert shuffled.ipr == pytest.approx(report.ipr, rel=1e-12)
            assert shuffled.edge_weight == pytest.approx(report.edge_weight, rel=1e-12)


def test_localized_modes_count_a_site_per_component_group():
    # two states on a 6-site two-component chain, both mostly on site 3: x
    # with even orbitals, y with odd ones and a tail on site 4.  Per site they
    # are already the position eigenbasis; counting each orbital row as its
    # own site would mix them by about 40 degrees, towards orbital a and b.
    beta = 0.3
    x, y = np.zeros(12), np.zeros(12)
    x[[6, 7]] = np.sqrt(0.5)
    y[[6, 7]] = np.cos(beta) * np.sqrt(0.5) * np.array([1.0, -1.0])
    y[[8, 9]] = np.sin(beta) * np.sqrt(0.5) * np.array([1.0, -1.0])
    values = np.array([0.2, -0.1])
    taken, localized = floquet.localized_modes(values, np.stack([x, y], axis=1), 2)
    np.testing.assert_array_equal(taken, values)
    np.testing.assert_allclose(np.abs(localized.T @ np.stack([x, y], axis=1)), np.eye(2), atol=1e-12)


# ---------------------------------------------------------------- classification


def test_bulk_gaps_closed_form():
    gap0, gap_pi = bulk_gaps(PI / 4, 3 * PI / 8)
    np.testing.assert_allclose(gap0, PI / 4, atol=1e-12)
    np.testing.assert_allclose(gap_pi, PI / 4, atol=1e-12)


@pytest.mark.parametrize(
    "theta0,theta1,expected",
    [
        (0.3, 0.1, Phase.TRIVIAL),
        (0.1, 0.3, Phase.ZERO),
        (PI / 2 - 0.1, 0.3, Phase.PI),
        (0.3, PI / 2 - 0.05, Phase.ZERO_PI),
        # the exact representative lines of the four phases
        (0.3, 0.0, Phase.TRIVIAL),
        (0.0, 0.3, Phase.ZERO),
        (PI / 2, 0.3, Phase.PI),
        (0.3, PI / 2, Phase.ZERO_PI),
    ],
)
def test_classification_of_representative_points(theta0, theta1, expected):
    result = classify_phase(DriveParams(theta0, theta1, 64, PBC))
    assert result.label is expected


def test_classification_refuses_gapless_point():
    with pytest.raises(GaplessPointError):
        classify_phase(DriveParams(0.3, 0.3, 64, PBC))  # on the gap-closing diagonal


@pytest.mark.parametrize("window", [np.nan, -1.0, 0.0, PI / 2 + 1e-9, np.inf])
def test_mode_window_outside_zero_to_half_pi_is_refused(window):
    params = DriveParams(0.3, 1.2, 32, OBC)
    drive = build_floquet(params)
    calls = [
        lambda: classify_phase(params, tol_mode=window),
        lambda: find_edge_modes(params, tol_mode=window),
        lambda: mode_states(drive, window),
        lambda: floquet_bound_states(drive, 32, window),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=r"mode window .* outside \(0, pi/2\]"):
            call()
