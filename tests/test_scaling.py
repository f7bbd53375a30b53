
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlat import (
    MapTarget,
    ScalingConfig,
    ScalingRun,
    ValidationError,
    BoundaryCondition,
    WDParams,
    build_wd,
    fit_power_law,
    mapped_static_spectrum,
    pbc_control,
    solve_wd_params,
    run_scaling,
    scaling_metric,
)
from floqlat import models, scaling

PI = np.pi


def synthetic_run(sizes, metrics):
    return ScalingRun(
        sizes=tuple(sizes),
        metric_values=tuple(metrics),
        config=ScalingConfig.OBC,
        eta=PI / 8,
        target=MapTarget.SSH,
    )


# ---------------------------------------------------------------- power-law fit


def test_fit_recovers_inverse_size_law():
    sizes = (100, 200, 300, 400, 500)
    fit = fit_power_law(synthetic_run(sizes, [3.0 / n for n in sizes]))
    np.testing.assert_allclose(fit.exponent, 1.0, atol=1e-6)
    np.testing.assert_allclose(fit.prefactor, 3.0, atol=1e-6)
    np.testing.assert_allclose(fit.r_squared, 1.0, atol=1e-12)


def test_fit_recovers_inverse_square_law():
    sizes = (100, 200, 300, 400)
    fit = fit_power_law(synthetic_run(sizes, [5.0 / n**2 for n in sizes]))
    np.testing.assert_allclose(fit.exponent, 2.0, atol=1e-6)
    # a constant metric has no spread to explain: R^2 is set, not divided by 0
    flat = fit_power_law(synthetic_run(sizes, [0.5] * 4))
    np.testing.assert_allclose([flat.exponent, flat.prefactor], [0.0, 0.5], atol=1e-12)
    assert flat.r_squared == 1.0


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(1e-6, 1e6))
def test_fit_exponent_is_scale_equivariant(scale):
    sizes = (100, 200, 300, 400)
    metrics = [2.0 / n**1.3 for n in sizes]
    base = fit_power_law(synthetic_run(sizes, metrics))
    scaled = fit_power_law(synthetic_run(sizes, [scale * m for m in metrics]))
    assert abs(scaled.exponent - base.exponent) < 1e-12
    np.testing.assert_allclose(scaled.prefactor, scale * base.prefactor, rtol=1e-9)
    assert abs(scaled.r_squared - base.r_squared) < 1e-12


def test_fit_rejects_nonpositive_metrics():
    with pytest.raises(ValidationError, match="must be positive for a log-log fit"):
        fit_power_law(synthetic_run((100, 200, 300, 400), [1.0, 0.5, 0.0, 0.1]))


def test_fit_needs_four_points():
    with pytest.raises(ValidationError, match="power-law fit needs at least 4 points"):
        fit_power_law(synthetic_run((100, 200, 300), [0.1, 0.05, 0.03]))


# ---------------------------------------------------------------- sweep plumbing


def test_run_validates_sizes():
    with pytest.raises(ValidationError, match=r"sizes must be multiples of 4 \(and >= 8\)"):
        run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, [10, 20, 30, 40])
    with pytest.raises(ValidationError):
        run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, [16, 16, 32, 48])
    # a float or bool size is refused, not truncated to an int
    with pytest.raises(ValidationError, match="sizes must be integers"):
        run_scaling(ScalingConfig.OBC, 0.3, MapTarget.SSH, [40.9, 80, 120, 160])
    for sizes in ([8, np.float64(16.5), 24], [8, 12, True]):
        with pytest.raises(ValidationError, match="sizes must be integers"):
            pbc_control(0.3, sizes)
    assert pbc_control(0.3, np.arange(8, 24, 4)).max() < 1e-10
    for sizes, metrics, message in (
        ((16, 32, 48), (0.1, 0.05), "sizes and metric values must have equal length"),
        ((32, 16, 48), (0.1, 0.05, 0.03), "sizes must be strictly increasing"),
        ((16, 30, 48), (0.1, 0.05, 0.03), r"sizes must be multiples of 4 \(and >= 8\)"),
        ((16.0, 32, 48), (0.1, 0.05, 0.03), "sizes must be integers"),
    ):
        with pytest.raises(ValidationError, match=message):
            synthetic_run(sizes, metrics)


def test_wall_sweep_is_ssh_only(metric_calls):
    # refused before any size is solved
    with pytest.raises(ValidationError, match="defined for the ssh target"):
        run_scaling(ScalingConfig.DOMAIN_WALL, PI / 8, MapTarget.WD, SIZES)
    assert metric_calls == []


@pytest.mark.parametrize("eta", [-0.01, -0.3])
def test_wall_sweep_refuses_a_negative_eta(eta, metric_calls):
    # refused before any size is solved: the static wall's bound state would
    # lie outside |E| <= 1, where the doubled poles are real
    with pytest.raises(ValidationError, match=f"needs a non-negative eta, got {eta:g}$"):
        run_scaling(ScalingConfig.DOMAIN_WALL, eta, MapTarget.SSH, SIZES)
    assert metric_calls == []


def test_wall_sweep_admits_eta_zero():
    run = run_scaling(ScalingConfig.DOMAIN_WALL, 0.0, MapTarget.SSH, (8, 12, 16, 20))
    assert len(run.metric_values) == 4


@pytest.mark.parametrize("target", ["bogus", "ssh", None])
def test_run_rejects_a_non_target(target, metric_calls):
    # the target only labels the run, but the label must be a MapTarget
    with pytest.raises(ValidationError, match="target must be a MapTarget"):
        run_scaling(ScalingConfig.OBC, PI / 8, target, SIZES)
    assert metric_calls == []


@pytest.mark.parametrize("eta", [PI / 8, -PI / 8])
@pytest.mark.parametrize("target", [MapTarget.SSH, MapTarget.WD])
def test_open_chain_metric_is_positive_and_shrinks(target, eta):
    run = run_scaling(ScalingConfig.OBC, eta, target, [16, 32, 48, 64])
    metrics = np.asarray(run.metric_values)
    assert np.all(metrics > 0)
    assert metrics[-1] < metrics[0]


def test_wall_metric_is_positive_and_shrinks():
    run = run_scaling(ScalingConfig.DOMAIN_WALL, PI / 8, MapTarget.SSH, [32, 64, 96, 128])
    metrics = np.asarray(run.metric_values)
    assert np.all(metrics > 0)
    assert metrics[-1] < metrics[0]


@pytest.mark.parametrize("eta", [PI / 8, -PI / 8])
def test_periodic_control_is_exact(eta):
    metrics = pbc_control(eta, [16, 32, 64])
    assert metrics.max() < 1e-10


def test_doubling_halves_the_metric():
    run = run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, [64, 128])
    ratio = run.metric_values[0] / run.metric_values[1]
    assert 1.6 < ratio < 2.4


def test_open_chain_pi_pair_straddling_the_fold():
    # At eta = 0.32 and N = 40 the driven pi pair sits at +-(pi - delta), just
    # outside the fold tolerance, while both doubled poles fold to -pi.
    # Matched from the widest empty arc the metric is the true 1/N mismatch
    # (matching in ascending order would give 0.644).
    metric = scaling_metric(ScalingConfig.OBC, 0.32, 40)
    np.testing.assert_allclose(metric, 0.030374382813, atol=1e-9)


@pytest.mark.parametrize("eta", [0.1, PI / 8, 0.5, -0.3])
@pytest.mark.parametrize("n_cells", [8, 100, 900])
def test_open_targets_share_one_block(eta, n_cells):
    # the mapped block is built as the dimerized chain; the Wilson-Dirac chain
    # built from its own couplings has the same spectrum
    mapped = mapped_static_spectrum(ScalingConfig.OBC, eta, n_cells)
    m, r = solve_wd_params(eta)
    chain = build_wd(WDParams(m=m, r=r, n_sites=n_cells // 2, bc=BoundaryCondition.OPEN))
    assert np.abs(chain.eigenvalues() - mapped).max() <= 1e-14


# ---------------------------------------------------------------- one size at a time

SIZES = (100, 200, 300, 400, 500)


@pytest.fixture
def metric_calls(monkeypatch):
    """The sizes scaling_metric runs at, in order; the metric is N."""
    calls = []

    def spy(config, eta, n):
        calls.append(n)
        return float(n)

    monkeypatch.setattr(scaling, "scaling_metric", spy)
    return calls


def test_sweeps_solve_their_sizes_in_order(metric_calls):
    run = run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, SIZES)
    assert metric_calls == list(SIZES)
    assert run.metric_values == tuple(map(float, SIZES))


@pytest.mark.parametrize("failing, raised", [((300, 500), 300), ((100, 400), 100)])
def test_the_smallest_failing_size_raises(monkeypatch, failing, raised):
    # the sizes after the first that fails are not solved
    ran = []

    def metric(config, eta, n):
        ran.append(n)
        if n in failing:
            raise ValidationError(f"size {n}")
        return float(n)

    monkeypatch.setattr(scaling, "scaling_metric", metric)
    with pytest.raises(ValidationError, match=f"^size {raised}$"):
        run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, SIZES)
    assert ran == [n for n in SIZES if n <= raised]


@pytest.mark.parametrize("config", [ScalingConfig.OBC, ScalingConfig.DOMAIN_WALL])
@pytest.mark.parametrize("eta", [0.25, PI / 8, 0.5])
def test_sweeps_take_every_block_from_its_band(monkeypatch, config, eta):
    # every block of the criterion-6 sweep lies on one band: from N = 200, past
    # BAND_MIN_CELLS cells per block, no dqds and no dense SVD, and the
    # metrics of the dqds solves to 1e-12
    sizes = (200, 300, 400, 500)
    assert sizes[0] // 2 >= models.BAND_MIN_CELLS
    dqds, svd = models._DQDS, np.linalg.svd
    if dqds is None:
        pytest.skip("this numpy exports no dlasq1")
    run = run_scaling(config, eta, MapTarget.SSH, sizes)
    monkeypatch.setattr(models, "_DQDS", lambda *args: pytest.fail("dqds ran"))
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("np.linalg.svd ran"))
    assert run_scaling(config, eta, MapTarget.SSH, sizes).metric_values == run.metric_values
    monkeypatch.setattr(models, "_DQDS", dqds)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(models.Bidiagonal, "_band_values", lambda block: None)
    reference = run_scaling(config, eta, MapTarget.SSH, sizes).metric_values
    assert max(abs(a - b) for a, b in zip(run.metric_values, reference)) <= 1e-12
