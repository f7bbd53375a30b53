"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The full-size sweeps in criterion 6 dominate the runtime (about 2 seconds).
"""

import time

import numpy as np
import pytest

from floqlat import (
    BoundaryCondition,
    DomainWallProfile,
    DriveParams,
    GaplessPointError,
    MapTarget,
    Phase,
    SSHParams,
    ScalingConfig,
    WDParams,
    analytic_pbc_spectrum,
    analytic_wall_state,
    build_floquet,
    build_ssh,
    build_wd,
    build_wd_wall,
    check_pi_pairing,
    classify_phase,
    compare_spectra,
    double_poles,
    find_edge_modes,
    fit_power_law,
    numeric_bound_state,
    pbc_control,
    quasienergies,
    run_scaling,
    solve_ssh_params,
    solve_wd_params,
    static_spectrum,
    wall_decay_factors,
)
from floqlat import build_h0, build_h1
from oracles import dense_matrix, sublattice_parity

PI = np.pi
PBC = BoundaryCondition.PERIODIC
OBC = BoundaryCondition.OPEN

TEST_DETUNINGS = (-PI / 8, 0.05, PI / 8, 0.2)
XI_CLOSED_FORM = 0.5672963553349892


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(number, elapsed, detail):
    print(f"[acceptance] criterion {number}: PASS ({elapsed:.2f} s) {detail}")


def test_criterion_1_round_trip_spectral_identity():
    with _Timer() as t:
        worst = 0.0
        for eta in TEST_DETUNINGS:
            for n_cells in (8, 16, 64):
                params = DriveParams(PI / 4, PI / 4 + eta, n_cells, PBC)
                full = quasienergies(build_floquet(params)).values
                poles = double_poles(static_spectrum(eta, n_cells))
                metric = compare_spectra(full, poles.values)
                worst = max(worst, metric)
                assert metric < 1e-10
    assert t.elapsed < 1.0
    _report(1, t.elapsed, f"round-trip identity, worst metric {worst:.2e}")


def test_criterion_2_analytic_dispersion_oracle():
    with _Timer() as t:
        n_cells = 16
        worst = 0.0
        for theta0 in np.linspace(0.0, PI / 2, 10):
            for theta1 in np.linspace(0.0, PI / 2, 10):
                numeric = quasienergies(build_floquet(DriveParams(theta0, theta1, n_cells, PBC)))
                analytic = analytic_pbc_spectrum(theta0, theta1, n_cells)
                worst = max(worst, compare_spectra(numeric.values, analytic))
                assert worst < 1e-10
    assert t.elapsed < 5.0
    _report(2, t.elapsed, f"corrected dispersion matches diagonalization, worst {worst:.2e}")


def test_criterion_3_pi_pairing_and_its_boundary_sensitivity():
    with _Timer() as t:
        for eta in TEST_DETUNINGS:
            eps = quasienergies(build_floquet(DriveParams(PI / 4, PI / 4 + eta, 64, PBC))).values
            result = check_pi_pairing(eps, tol=1e-10)
            assert result.paired, f"pairing failed at eta={eta}"
        # theta1 = pi/4 with theta0 = 0.3: zero modes only, so open
        # boundaries break the pairing
        pbc_point = quasienergies(build_floquet(DriveParams(0.3, PI / 4, 64, PBC))).values
        assert check_pi_pairing(pbc_point, tol=1e-10).paired
        obc_point = quasienergies(build_floquet(DriveParams(0.3, PI / 4, 64, OBC))).values
        obc_result = check_pi_pairing(obc_point, tol=1e-10)
        assert not obc_result.paired
    _report(3, t.elapsed, f"pairing holds on the symmetric line, breaks with OBC "
                          f"(mismatch {obc_result.max_mismatch:.2f})")


def test_criterion_4_phase_diagram_grid():
    with _Timer() as t:
        grid_n = 8
        thetas = np.linspace(0.05, PI / 2 - 0.05, grid_n)
        labels = {}
        for i, theta0 in enumerate(thetas):
            for j, theta1 in enumerate(thetas):
                try:
                    labels[i, j] = classify_phase(DriveParams(theta0, theta1, 64, PBC)).label
                except GaplessPointError:
                    labels[i, j] = None
        classified = {v for v in labels.values() if v is not None}
        assert classified == {Phase.TRIVIAL, Phase.ZERO, Phase.PI, Phase.ZERO_PI}
        # cells exactly on the gap-closing diagonals are refused, nothing else
        boundary = {key for key, v in labels.items() if v is None}
        assert boundary == {(i, i) for i in range(8)} | {(i, 7 - i) for i in range(8)}
        # every classified cell carries the label of its region: the two
        # diagonals of the phase square separate the four mode contents
        for (i, j), got in labels.items():
            if got is None:
                continue
            zero_side = thetas[j] > thetas[i]
            pi_side = thetas[i] + thetas[j] > PI / 2
            expected = {
                (False, False): Phase.TRIVIAL,
                (True, False): Phase.ZERO,
                (False, True): Phase.PI,
                (True, True): Phase.ZERO_PI,
            }[(zero_side, pi_side)]
            assert got is expected, (i, j, got, expected)
        for line, expected in (
            ([(i, 0) for i in range(8)], Phase.TRIVIAL),   # theta1 ~ 0
            ([(0, j) for j in range(8)], Phase.ZERO),      # theta0 ~ 0
            ([(7, j) for j in range(8)], Phase.PI),        # theta0 ~ pi/2
            ([(i, 7) for i in range(8)], Phase.ZERO_PI),   # theta1 ~ pi/2
        ):
            line_labels = [labels[c] for c in line if labels[c] is not None]
            assert len(line_labels) == 6  # two boundary crossings per line
            assert all(v is expected for v in line_labels)
    assert t.elapsed < 30.0
    _report(4, t.elapsed, "four phases with correctly labeled representative lines")


def test_criterion_5_edge_mode_counts_in_both_mode_phase():
    with _Timer() as t:
        eta = PI / 8
        modes = find_edge_modes(DriveParams(PI / 4, PI / 4 + eta, 64, OBC))
        assert sorted(m.kind for m in modes) == ["pi", "pi", "zero", "zero"]
        assert all(m.edge_weight >= 0.5 for m in modes)

        u, v = solve_ssh_params(eta)
        assert u > v
        ssh = build_ssh(SSHParams(u=u, v=v, n_cells=32, bc=OBC))
        assert np.sum(np.abs(ssh.eigenvalues()) < abs(u - v)) == 2

        m, r = solve_wd_params(eta)
        assert m < 0
        wd = build_wd(WDParams(m=m, r=r, n_sites=32, bc=OBC))
        assert np.sum(np.abs(wd.eigenvalues()) < abs(m)) == 2

        assert find_edge_modes(DriveParams(PI / 4, PI / 4 - eta, 64, OBC)) == []
        u2, v2 = solve_ssh_params(-eta)
        ssh2 = build_ssh(SSHParams(u=u2, v=v2, n_cells=32, bc=OBC))
        assert np.sum(np.abs(ssh2.eigenvalues()) < abs(u2 - v2)) == 0
        m2, r2 = solve_wd_params(-eta)
        wd2 = build_wd(WDParams(m=m2, r=r2, n_sites=32, bc=OBC))
        assert np.sum(np.abs(wd2.eigenvalues()) < abs(m2)) == 0
    _report(5, t.elapsed, "2 zero + 2 pi drive modes; 2 mid-gap static states; none for eta < 0")


def test_criterion_6_finite_size_scaling():
    sizes = range(100, 1000, 100)
    with _Timer() as t:
        obc = fit_power_law(run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, sizes))
        wall = fit_power_law(run_scaling(ScalingConfig.DOMAIN_WALL, PI / 8, MapTarget.SSH, sizes))
    for fit in (obc, wall):
        assert 0.85 <= fit.exponent <= 1.15
        assert fit.r_squared > 0.98
    assert t.elapsed < 120.0
    _report(6, t.elapsed, f"1/N scaling: exponents {obc.exponent:.3f} (OBC), "
                          f"{wall.exponent:.3f} (wall)")


def test_criterion_7_domain_wall_bound_state():
    with _Timer() as t:
        eta = PI / 8
        n_sites = 200
        profile = DomainWallProfile(eta_left=-eta, eta_right=eta)
        op = build_wd_wall(profile, n_sites)
        m, _ = solve_wd_params(eta)
        state = numeric_bound_state(op, n_sites // 2, energy_window=0.5 * abs(m),
                                    components_per_site=2)
        assert abs(state.energy) < 1e-6
        assert abs(state.xi_right - XI_CLOSED_FORM) < 0.05 * XI_CLOSED_FORM
        assert abs(state.xi_left - XI_CLOSED_FORM) < 0.05 * XI_CLOSED_FORM

        psi = analytic_wall_state(eta, n_sites)
        residual = (dense_matrix(op) @ psi).reshape(n_sites, 2)
        per_site = np.sqrt((np.abs(residual) ** 2).sum(axis=1))
        interior = np.ones(n_sites, dtype=bool)
        interior[[0, n_sites - 1, n_sites // 2 - 1, n_sites // 2]] = False
        assert per_site[interior].max() < 1e-12
    _report(7, t.elapsed, f"wall state E={state.energy:.1e}, xi={state.xi_right:.5f} "
                          f"vs {XI_CLOSED_FORM:.5f}")


def test_criterion_8_property_battery():
    with _Timer() as t:
        # hermiticity and unitarity over a parameter grid
        grid = np.linspace(0.0, PI / 2, 10)
        for theta0 in grid:
            for theta1 in grid:
                params = DriveParams(theta0, theta1, 4, PBC)
                for op in (build_h0(params), build_h1(params)):
                    assert np.abs(dense_matrix(op) - dense_matrix(op).conj().T).max() < 1e-12
                u = dense_matrix(build_floquet(params))
                assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-10

        # chiral symmetry of the bipartite chains
        gamma = sublattice_parity(12)
        for bc in (PBC, OBC):
            params = DriveParams(0.3, 0.4, 6, bc)
            for op in (build_h0(params), build_h1(params),
                       build_ssh(SSHParams(u=0.7, v=0.3, n_cells=6, bc=bc))):
                assert np.abs(gamma @ dense_matrix(op) @ gamma + dense_matrix(op)).max() < 1e-12

        # particle-hole symmetry of quasienergy spectra
        for theta0, theta1 in ((0.3, 0.7), (PI / 4, 0.2), (1.1, 1.4)):
            eps = quasienergies(build_floquet(DriveParams(theta0, theta1, 8, PBC))).values
            np.testing.assert_allclose(eps, -eps[::-1], atol=1e-10)

        # reciprocal decay factors of the wall solution
        for eta in np.linspace(0.01, PI / 4 - 0.01, 25):
            q_plus, q_minus = wall_decay_factors(eta)
            assert abs(q_plus * q_minus - 1.0) < 1e-12

        # periodic scaling control at every sweep size
        sizes = range(100, 1000, 100)
        control = pbc_control(PI / 8, sizes)
        assert control.max() < 1e-10
    assert t.elapsed < 60.0
    _report(8, t.elapsed, "invariant battery green (symmetries, reciprocity, PBC control)")
