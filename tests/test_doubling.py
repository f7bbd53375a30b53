import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlat import (
    BoundaryCondition,
    DriveParams,
    QuasienergySpectrum,
    SSHParams,
    ValidationError,
    WDParams,
    analytic_pbc_spectrum,
    build_floquet,
    build_ssh,
    build_wd,
    compare_spectra,
    double_poles,
    fold_quasienergy,
    partition_quasienergies,
    quasienergies,
    sine_transform,
    solve_ssh_params,
    solve_wd_params,
    static_spectrum,
    wrap_distance,
)

PBC = BoundaryCondition.PERIODIC
OBC = BoundaryCondition.OPEN
PI = np.pi


def line_params(eta, n_cells, bc=PBC):
    return DriveParams(theta0=PI / 4, theta1=PI / 4 + eta, n_cells=n_cells, bc=bc)


# ---------------------------------------------------------------- partition


def test_partition_example_multiset():
    kept = partition_quasienergies(line_params(PI / 8, 8))
    # k in {pi/4, 3pi/8, pi/2, 5pi/8} gives +-{pi/2, pi/3, pi/4, pi/3}
    expected = np.sort([PI / 2, PI / 3, PI / 4, PI / 3, -PI / 2, -PI / 3, -PI / 4, -PI / 3])
    np.testing.assert_allclose(kept.values, expected, atol=1e-12)


def test_partition_contains_gap_closure_at_zero_detuning():
    kept = partition_quasienergies(line_params(0.0, 8))
    assert np.abs(kept.values).min() < 1e-12


@pytest.mark.parametrize("eta", [-PI / 8, 0.05, PI / 8])
def test_partition_is_half_of_spectrum_with_folded_complement(eta):
    n_cells = 16
    kept = partition_quasienergies(line_params(eta, n_cells)).values
    full = analytic_pbc_spectrum(PI / 4, PI / 4 + eta, n_cells)
    assert len(kept) == n_cells and len(full) == 2 * n_cells
    # remove the kept values from the full multiset; the rest is fold(pi - kept)
    remaining = list(np.round(full, 12))
    for value in np.round(kept, 12):
        remaining.remove(value)
    complement = np.sort(remaining)
    expected = np.sort(np.round(fold_quasienergy(PI - kept), 12))
    np.testing.assert_allclose(complement, expected, atol=1e-10)


def test_partition_preconditions():
    with pytest.raises(ValidationError):
        partition_quasienergies(line_params(PI / 8, 8, OBC))
    with pytest.raises(ValidationError, match="is not pi/4"):
        partition_quasienergies(DriveParams(0.3, 0.5, 8, PBC))
    with pytest.raises(ValidationError, match="n_cells must be a multiple of 4"):
        partition_quasienergies(line_params(PI / 8, 6))


# ---------------------------------------------------------------- sine transform


def test_sine_transform_values():
    np.testing.assert_allclose(sine_transform(np.array([0.0])), [0.0], atol=0)
    np.testing.assert_allclose(
        sine_transform(np.array([-PI / 2, PI / 2])), [-1.0, 1.0], atol=1e-15
    )
    np.testing.assert_allclose(
        sine_transform(np.array([-PI / 4, PI / 4])),
        [-0.70711, 0.70711],
        atol=5e-6,
    )


# ---------------------------------------------------------------- coupling solutions


def test_ssh_couplings_plus_branch():
    u, v = solve_ssh_params(PI / 8)
    np.testing.assert_allclose([u, v], [0.85355, 0.14645], atol=5e-6)
    assert u > v  # topological side


def test_wd_couplings_minus_branch():
    m, r = solve_wd_params(PI / 8)
    np.testing.assert_allclose([m, r], [-0.70711, 0.85355], atol=5e-6)
    assert m < 0  # edge modes present


def test_couplings_at_zero_detuning():
    assert solve_ssh_params(0.0) == (0.5, 0.5)
    assert solve_wd_params(0.0) == (0.0, 0.5)


@settings(max_examples=50, deadline=None)
@given(eta=st.floats(-PI / 4, PI / 4))
def test_coupling_sum_rules(eta):
    u, v = solve_ssh_params(eta)
    m, r = solve_wd_params(eta)
    assert u >= 0 and v >= 0 and r >= 0
    np.testing.assert_allclose(u + v, 1.0, atol=1e-15)
    np.testing.assert_allclose(m + 2 * r, 1.0, atol=1e-15)
    if abs(np.sin(2 * eta)) > 1e-15:  # sign only resolvable above the ulp of 1/2
        assert (u > v) == (eta > 0)
        assert (m < 0) == (eta > 0)


# ---------------------------------------------------------------- static spectra


@pytest.mark.parametrize("eta", [0.0, PI / 8, -PI / 8, 0.2])
@pytest.mark.parametrize("n_cells", [8, 16])
def test_static_spectra_equal_transformed_partition(eta, n_cells):
    expected = sine_transform(partition_quasienergies(line_params(eta, n_cells)).values)
    np.testing.assert_allclose(static_spectrum(eta, n_cells), expected, atol=1e-10)


@pytest.mark.parametrize("eta", [PI / 8, -0.2])
@pytest.mark.parametrize("n_cells", [8, 16])
def test_static_spectra_match_dense_diagonalization(eta, n_cells):
    # independent oracle: diagonalize the actually built chains
    u, v = solve_ssh_params(eta)
    ssh = build_ssh(SSHParams(u=u, v=v, n_cells=n_cells // 2, bc=PBC))
    np.testing.assert_allclose(
        static_spectrum(eta, n_cells), ssh.eigenvalues(), atol=1e-10
    )
    m, r = solve_wd_params(eta)
    wd = build_wd(WDParams(m=m, r=r, n_sites=n_cells // 2, bc=PBC))
    np.testing.assert_allclose(
        static_spectrum(eta, n_cells), wd.eigenvalues(), atol=1e-10
    )


def test_static_spectra_contain_zero_at_zero_detuning():
    assert np.abs(static_spectrum(0.0, 8)).min() < 1e-12


def test_static_spectrum_requires_multiple_of_four():
    with pytest.raises(ValidationError, match="n_cells must be a positive multiple of 4"):
        static_spectrum(0.1, 6)
    with pytest.raises(ValidationError, match="n_cells must be a positive multiple of 4"):
        static_spectrum(0.1, 10)


def test_reduced_lattice_sizes():
    n_cells = 8
    assert len(partition_quasienergies(line_params(0.1, n_cells))) == n_cells
    u, v = solve_ssh_params(0.1)
    ssh = build_ssh(SSHParams(u=u, v=v, n_cells=n_cells // 2, bc=PBC))
    assert ssh.dim == n_cells  # N sites for N drive cells
    m, r = solve_wd_params(0.1)
    wd = build_wd(WDParams(m=m, r=r, n_sites=n_cells // 2, bc=PBC))
    assert wd.dim == n_cells  # N/2 sites, two spinor components each


# ---------------------------------------------------------------- pole doubling


def test_double_poles_of_zero_mode():
    poles = double_poles(np.array([0.0]))
    np.testing.assert_allclose(poles.values, [-PI, 0.0], atol=0)


def test_double_poles_of_positive_energy():
    poles = double_poles(np.array([np.sin(PI / 4)]))
    np.testing.assert_allclose(poles.values, [PI / 4, 3 * PI / 4], atol=1e-14)


def test_double_poles_of_negative_energy():
    poles = double_poles(np.array([-np.sin(PI / 4)]))
    np.testing.assert_allclose(poles.values, [-3 * PI / 4, -PI / 4], atol=1e-14)


def test_double_poles_length_doubles():
    poles = double_poles(np.linspace(-0.9, 0.9, 7))
    assert isinstance(poles, QuasienergySpectrum)  # sorted in [-pi, pi) by construction
    assert len(poles.values) == 14


def test_double_poles_band_edge_duplicates():
    # |E| = 1 puts both poles at the same frequency
    poles = double_poles(np.array([-1.0, 1.0]))
    np.testing.assert_allclose(poles.values, [-PI / 2, -PI / 2, PI / 2, PI / 2], atol=1e-14)


def test_double_poles_rejects_out_of_band():
    with pytest.raises(ValidationError, match=r"\|E\| exceeds 1 by"):
        double_poles(np.array([1.5]))


def test_non_finite_quasienergies_are_refused():
    # NaN passes the sort, range and overshoot checks, which all compare
    with pytest.raises(ValidationError, match="quasienergies must be finite"):
        QuasienergySpectrum([np.nan])
    with pytest.raises(ValidationError, match="quasienergies must be finite"):
        double_poles(np.array([np.nan, 0.1]))


def test_band_edge_detuning_spectrum():
    # at eta = pi/4 every kept quasienergy is +-pi/2 and doubling is degenerate
    kept = partition_quasienergies(line_params(PI / 4, 8))
    np.testing.assert_allclose(np.abs(kept.values), PI / 2, atol=1e-12)
    poles = double_poles(sine_transform(kept.values))
    full = quasienergies(build_floquet(line_params(PI / 4, 8)))
    assert compare_spectra(poles.values, full.values) < 1e-10


# ---------------------------------------------------------------- comparison metric


def test_compare_identical_spectra():
    values = np.array([-1.0, 0.0, 2.0])
    assert compare_spectra(values, values) == 0.0
    assert compare_spectra([], []) == 0.0


def test_compare_rejects_length_mismatch():
    with pytest.raises(ValidationError, match="spectra have different lengths"):
        compare_spectra(np.array([0.0]), np.array([0.0, 1.0]))


def test_compare_is_wrap_aware():
    a = np.array([-PI + 1e-4])
    b = np.array([PI - 1e-4])
    np.testing.assert_allclose(compare_spectra(a, b), 2e-4, atol=1e-12)


def test_compare_matches_across_the_pi_fold():
    # a pair at +-(pi - delta) on one side, both partners folded to -pi on the
    # other: ascending order would pair -0.5 with -pi
    delta = 1e-3
    a = np.array([-PI + delta, -0.5, 0.5, PI - delta])
    b = np.array([-PI, -PI, -0.5, 0.5])
    np.testing.assert_allclose(compare_spectra(a, b), delta, atol=1e-15)
    np.testing.assert_allclose(compare_spectra(b, a), delta, atol=1e-15)


angle_lists = st.lists(st.floats(-PI, PI, exclude_max=True), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(a=angle_lists, data=st.data())
def test_compare_is_bounded_by_both_matchings(a, data):
    a = np.array(a)
    b = np.array(data.draw(st.lists(st.floats(-PI, PI, exclude_max=True),
                                    min_size=len(a), max_size=len(a))))
    metric = compare_spectra(a, b)
    # never above the ascending index matching ...
    assert metric <= float(wrap_distance(np.sort(a), np.sort(b)).max())
    # ... and never below what any one-to-one matching must reach
    cross = wrap_distance(a[:, None], b[None, :])
    assert metric >= max(cross.min(axis=1).max(), cross.min(axis=0).max()) - 1e-15


# ---------------------------------------------------------------- round trip


@pytest.mark.parametrize("eta", [-PI / 8, 0.05, PI / 8, 0.2])
@pytest.mark.parametrize("n_cells", [8, 16])
def test_round_trip_identity(eta, n_cells):
    params = line_params(eta, n_cells)
    full = quasienergies(build_floquet(params))
    poles = double_poles(sine_transform(partition_quasienergies(params).values))
    assert compare_spectra(full.values, poles.values) < 1e-10


# ---------------------------------------------------------------- branch correctness


@pytest.mark.parametrize("eta", [PI / 8, 0.2, 0.5])
def test_canonical_branches_host_midgap_states(eta):
    u, v = solve_ssh_params(eta)
    assert u > v
    ssh = build_ssh(SSHParams(u=u, v=v, n_cells=32, bc=OBC))
    gap = 2 * abs(u - v)
    assert np.sum(np.abs(ssh.eigenvalues()) < 1e-6 * gap) == 2
    m, r = solve_wd_params(eta)
    assert m < 0
    wd = build_wd(WDParams(m=m, r=r, n_sites=32, bc=OBC))
    assert np.sum(np.abs(wd.eigenvalues()) < 1e-6 * 2 * abs(m)) == 2


@pytest.mark.parametrize("eta", [-PI / 8, -0.3])
def test_negative_detuning_has_no_midgap_states(eta):
    u, v = solve_ssh_params(eta)
    assert u < v
    ssh = build_ssh(SSHParams(u=u, v=v, n_cells=32, bc=OBC))
    assert np.sum(np.abs(ssh.eigenvalues()) < abs(u - v)) == 0
    m, r = solve_wd_params(eta)
    assert m > 0
    wd = build_wd(WDParams(m=m, r=r, n_sites=32, bc=OBC))
    assert np.sum(np.abs(wd.eigenvalues()) < abs(m)) == 0
