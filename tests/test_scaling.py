import os
import sys
import threading

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
from floqlat import scaling

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


def test_wall_sweep_is_ssh_only(two_cpus, metric_threads):
    # refused before any size is solved or the helper thread starts
    with pytest.raises(ValidationError, match="defined for the ssh target"):
        run_scaling(ScalingConfig.DOMAIN_WALL, PI / 8, MapTarget.WD, ABOVE)
    assert metric_threads == {None: []}


@pytest.mark.parametrize("eta", [-0.01, -0.3])
def test_wall_sweep_refuses_a_negative_eta(eta, two_cpus, metric_threads):
    # refused before any size is solved: the static wall's bound state would
    # lie outside |E| <= 1, where the doubled poles are real
    with pytest.raises(ValidationError, match=f"needs a non-negative eta, got {eta:g}$"):
        run_scaling(ScalingConfig.DOMAIN_WALL, eta, MapTarget.SSH, ABOVE)
    assert metric_threads == {None: []}


def test_wall_sweep_admits_eta_zero():
    run = run_scaling(ScalingConfig.DOMAIN_WALL, 0.0, MapTarget.SSH, (8, 12, 16, 20))
    assert len(run.metric_values) == 4


@pytest.mark.parametrize("target", ["bogus", "ssh", None])
def test_run_rejects_a_non_target(target, two_cpus, metric_threads):
    # the target only labels the run, but the label must be a MapTarget
    with pytest.raises(ValidationError, match="target must be a MapTarget"):
        run_scaling(ScalingConfig.OBC, PI / 8, target, ABOVE)
    assert metric_threads == {None: []}


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


# ---------------------------------------------------------------- helper thread

ABOVE = (100, 200, 300, 400, 500)  # 300000 cells^2 after the largest: threaded
BELOW = (40, 80, 120, 160, 200)  # 48000 cells^2 after the largest: in place


@pytest.fixture
def two_cpus(monkeypatch):
    """run_scaling sees two usable CPUs, so the helper thread starts whatever
    the machine has."""
    monkeypatch.setattr(scaling, "_usable_cpus", lambda: 2)


@pytest.fixture
def metric_threads(monkeypatch):
    """size -> the thread that ran scaling_metric at it (the metric is N), and
    under None the threads started."""
    ran = {None: []}

    def spy(config, eta, n):
        assert n not in ran, f"size {n} ran twice"
        ran[n] = threading.current_thread()
        return float(n)

    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: ran[None].append(self) or start(self))
    monkeypatch.setattr(scaling, "scaling_metric", spy)
    return ran


@pytest.mark.parametrize("config", [ScalingConfig.OBC, ScalingConfig.DOMAIN_WALL])
@pytest.mark.parametrize("sizes", [ABOVE, BELOW])
def test_threaded_sweeps_give_the_sequential_metrics_bit_for_bit(config, sizes, two_cpus):
    run = run_scaling(config, PI / 8, MapTarget.SSH, sizes)
    assert run.sizes == sizes
    assert run.metric_values == tuple(scaling_metric(config, PI / 8, n) for n in sizes)


def test_each_thread_takes_its_sizes_largest_first(two_cpus, metric_threads):
    # the spy refuses a size that runs twice
    run = run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, ABOVE)
    assert run.metric_values == tuple(map(float, ABOVE))
    (helper,) = metric_threads.pop(None)
    assert sorted(metric_threads) == list(ABOVE)
    for thread in (helper, threading.current_thread()):
        taken = [n for n, t in metric_threads.items() if t is thread]
        assert taken == sorted(taken, reverse=True)
    assert not helper.is_alive()


@pytest.fixture
def stalled_helper(monkeypatch, metric_threads):
    """metric_threads, where the caller solves once the helper holds a size
    and the helper's solve lasts until the caller joins it."""
    taken, joined = threading.Event(), threading.Event()
    join = threading.Thread.join
    monkeypatch.setattr(threading.Thread, "join", lambda self, *a, **k: joined.set() or join(self, *a, **k))
    spy, caller = scaling.scaling_metric, threading.current_thread()

    def stalled(config, eta, n):
        if threading.current_thread() is caller:
            assert taken.wait(timeout=30)
        else:
            taken.set()
            assert joined.wait(timeout=30)
        return spy(config, eta, n)

    monkeypatch.setattr(scaling, "scaling_metric", stalled)
    return metric_threads


def test_a_stalled_helper_holds_one_size(two_cpus, stalled_helper):
    # by the join the caller must have taken every other size from the list
    run = run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, ABOVE)
    assert run.metric_values == tuple(map(float, ABOVE))
    (helper,) = stalled_helper.pop(None)
    assert sorted(stalled_helper) == list(ABOVE)
    assert sum(t is helper for t in stalled_helper.values()) == 1


def test_an_interrupt_leaves_the_helper_its_one_size(monkeypatch, two_cpus, stalled_helper):
    # the caller is interrupted at its first size; the helper ends with the
    # size it holds instead of solving the rest of the list
    stalled, caller = scaling.scaling_metric, threading.current_thread()

    def interrupted(config, eta, n):
        value = stalled(config, eta, n)
        if threading.current_thread() is caller:
            raise KeyboardInterrupt
        return value

    monkeypatch.setattr(scaling, "scaling_metric", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, ABOVE)
    (helper,) = stalled_helper.pop(None)
    assert sorted(t is helper for t in stalled_helper.values()) == [False, True]


def test_concurrent_sweeps_solve_each_size_once(monkeypatch, two_cpus):
    # three sweeps at once, six threads on two CPUs, switching every
    # microsecond: a size popped twice or lost would show in the calls
    sizes, etas = tuple(range(8, 808, 4)), (0.1, 0.2, 0.3)
    calls, runs = [], {}
    monkeypatch.setattr(scaling, "scaling_metric", lambda config, eta, n: calls.append((eta, n)) or eta + n)

    def sweep(eta):
        runs[eta] = run_scaling(ScalingConfig.OBC, eta, MapTarget.SSH, sizes)

    threads = [threading.Thread(target=sweep, args=(eta,)) for eta in etas]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for eta in etas:
        assert sorted(n for e, n in calls if e == eta) == list(sizes)
        assert runs[eta].metric_values == tuple(eta + n for n in sizes)


def test_the_sizes_after_the_largest_start_the_helper(two_cpus, metric_threads):
    # 69120 cells^2 after the largest; split into lanes, the lighter held 59904
    run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, (48, 96, 144, 192, 240))
    assert len(metric_threads.pop(None)) == 1


def test_light_sweeps_run_in_place(two_cpus, metric_threads):
    run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, BELOW)
    assert metric_threads.pop(None) == []
    assert set(metric_threads.values()) == {threading.current_thread()}


def test_one_usable_cpu_runs_in_place(monkeypatch, metric_threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, ABOVE)
    assert metric_threads.pop(None) == []
    assert set(metric_threads.values()) == {threading.current_thread()}


@pytest.mark.parametrize("failing, raised", [((300, 500), 300), ((100, 400), 100)])
def test_the_smallest_failing_size_raises_across_threads(monkeypatch, two_cpus, failing, raised):
    # every size is solved although some fail, whichever thread takes it; an
    # error left unhandled in the helper would be a warning, here an error
    ran = []

    def metric(config, eta, n):
        ran.append(n)
        if n in failing:
            raise ValidationError(f"size {n}")
        return float(n)

    monkeypatch.setattr(scaling, "scaling_metric", metric)
    with pytest.raises(ValidationError, match=f"^size {raised}$"):
        run_scaling(ScalingConfig.OBC, PI / 8, MapTarget.SSH, ABOVE)
    assert sorted(ran) == list(ABOVE)
