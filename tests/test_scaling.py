import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlat import (
    CellCountError,
    FitWindowError,
    MapTarget,
    NonPositiveMetricError,
    ScalingConfig,
    ScalingRun,
    ValidationError,
    fit_power_law,
    pbc_control,
    run_scaling,
    scaling_metric,
)

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
    with pytest.raises(NonPositiveMetricError):
        fit_power_law(synthetic_run((100, 200, 300, 400), [1.0, 0.5, 0.0, 0.1]))


def test_fit_needs_four_points():
    with pytest.raises(FitWindowError):
        fit_power_law(synthetic_run((100, 200, 300), [0.1, 0.05, 0.03]))


# ---------------------------------------------------------------- sweep plumbing


def test_run_validates_sizes():
    with pytest.raises(CellCountError):
        run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, [10, 20, 30, 40])
    with pytest.raises(ValidationError):
        run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, [16, 16, 32, 48])


def test_wall_sweep_is_ssh_only():
    with pytest.raises(ValidationError):
        run_scaling(ScalingConfig.DOMAIN_WALL, PI / 8, MapTarget.WD, [16, 32, 48, 64])


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


@pytest.mark.parametrize("target", [MapTarget.SSH, MapTarget.WD])
def test_periodic_control_is_exact(target):
    metrics = pbc_control(PI / 8, target, [16, 32, 64])
    assert metrics.max() < 1e-10


@pytest.mark.parametrize("target", ["bogus", "ssh", None])
def test_periodic_control_rejects_a_non_target(target):
    with pytest.raises(ValidationError):
        pbc_control(0.1, target, [8, 12, 16, 20])


def test_doubling_halves_the_metric():
    run = run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, [64, 128])
    ratio = run.metric_values[0] / run.metric_values[1]
    assert 1.6 < ratio < 2.4


def test_open_chain_pi_pair_straddling_the_fold():
    # At eta = 0.32 and N = 40 the driven pi pair sits at +-(pi - delta), just
    # outside the fold tolerance, while both doubled poles fold to -pi.
    # Matched from the widest empty arc the metric is the true 1/N mismatch
    # (matching in ascending order would give 0.644).
    metric = scaling_metric(ScalingConfig.OBC, 0.32, MapTarget.SSH, 40)
    np.testing.assert_allclose(metric, 0.030374382813, atol=1e-9)
