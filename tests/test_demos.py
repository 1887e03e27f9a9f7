import numpy as np
import pytest

from hyperapprox.demos import (
    CLOSURE_TOL,
    PI2_OVER_6,
    build_counterexample,
    closure_failure_demo,
    counterexample_rates,
    fiberwise_constant_probe,
)
from hyperapprox.sets_metrics import Multigraph, SampledCompact, fit_geometric_rate
from tests.oracles import polyline_hausdorff


def test_breakpoint_recursion():
    stair = build_counterexample(8)
    assert stair.breakpoints[1] == pytest.approx(0.5)
    assert stair.breakpoints[2] == pytest.approx(0.75)
    assert stair.values[1] == pytest.approx(1.0)
    assert stair.values[2] == pytest.approx(1.25)
    # a_k = 1 - 2^-k exactly
    for k in range(9):
        assert stair.breakpoints[k] == pytest.approx(1.0 - 0.5 ** k, abs=1e-15)


def test_limit_function_endpoint():
    stair = build_counterexample(6)
    assert stair.f(np.array([1.0]))[0] == pytest.approx(PI2_OVER_6, abs=1e-12)
    assert PI2_OVER_6 == pytest.approx(1.6449340668482264)


def test_values_increase_to_pi2_over_6():
    stair = build_counterexample(10)
    assert np.all(np.diff(stair.values) > 0)
    assert stair.values[-1] < PI2_OVER_6


def test_modified_function_agrees_outside_interval():
    stair = build_counterexample(8)
    xs = np.linspace(0, 1, 4097)
    for k in (2, 5, 8):
        lo, hi = stair.modified_interval(k)
        outside = (xs < lo - 1e-12) | (xs > hi + 1e-12)
        np.testing.assert_allclose(stair.f_k(k, xs)[outside], stair.f(xs)[outside], atol=1e-12)


def test_sup_norm_exact_at_midpoint():
    stair = build_counterexample(8)
    for k in range(2, 9):
        lo, hi = stair.modified_interval(k)
        mid = (lo + hi) / 2.0
        gap = stair.f_k(k, np.array([mid]))[0] - stair.f(np.array([mid]))[0]
        assert gap == pytest.approx(1.0 / (2.0 * k * k), abs=1e-12)
        assert stair.sup_norm(k) == pytest.approx(1.0 / (2.0 * k * k))


def test_sup_norm_ratio_tends_to_one():
    stair = build_counterexample(10)
    ratios = [stair.sup_norm(k + 1) / stair.sup_norm(k) for k in range(2, 10)]
    for k, ratio in zip(range(2, 10), ratios):
        assert ratio == pytest.approx(k * k / (k + 1.0) ** 2)
    assert np.all(np.diff(ratios) > 0)


@pytest.fixture(scope="module")
def rate_rows():
    return counterexample_rates(8, mesh=2.0 ** -14)


def test_counterexample_row_k2(rate_rows):
    assert rate_rows[0].k == 2
    assert rate_rows[0].sup_norm == pytest.approx(0.125, abs=1e-12)


def test_graph_distance_bounded(rate_rows):
    for row in rate_rows:
        assert row.graph_dh <= 0.5 ** row.k + 2.0 * 2.0 ** -14


def test_rate_dichotomy(rate_rows):
    sup_fit = fit_geometric_rate([(r.k, r.sup_norm) for r in rate_rows])
    dh_fit = fit_geometric_rate([(r.k, r.graph_dh) for r in rate_rows])
    assert sup_fit.verdict == "not-geometric"
    assert dh_fit.verdict == "geometric"


def test_counterexample_mesh_precondition():
    with pytest.raises(ValueError):
        counterexample_rates(8, mesh=2.0 ** -8)


def test_c_est_increases_from_k3(rate_rows):
    cs = [r.c_est for r in rate_rows if r.k >= 3]
    assert all(a < b for a, b in zip(cs, cs[1:]))


def test_c_est_at_least_one(rate_rows):
    for row in rate_rows:
        assert row.c_est >= 1.0 - 1e-6


def _staircase_window(k):
    """Vertices of f and f_k over [a_(k-2), a_(k+1)], built from the
    definition a_j = 1 - 2^-j, b_j = sum_(i <= j) 1/i^2 alone."""
    a = [1.0 - 0.5 ** j for j in range(k - 2, k + 2)]
    b = [sum(1.0 / (i * i) for i in range(1, j + 1)) for j in range(k - 2, k + 2)]
    f = np.column_stack([a, b])
    corner = [a[1] + 0.5 ** (k + 1), b[2]]
    return f, np.insert(f, 2, corner, axis=0)


def test_graph_distance_closed_form_matches_oracle():
    # The farthest point is f_k's corner (a_(k-1) + w/2, b_k); its distance to
    # f's modified segment is w h / (2 sqrt(w^2 + h^2)).
    for k in range(2, 9):
        w, h = 0.5 ** k, 1.0 / k ** 2
        closed = w * h / (2.0 * np.sqrt(w * w + h * h))
        f, fk = _staircase_window(k)
        assert polyline_hausdorff(f, fk) == pytest.approx(closed, rel=1e-12)
        assert closed < w


def test_probe_uniform_shift_gives_constant_one():
    xs = np.linspace(0.0, 1.0, 2001)
    base = SampledCompact(xs.reshape(-1, 1).astype(complex), mesh=0.00025)
    flat = Multigraph(base, tuple(np.array([0.25], dtype=complex) for _ in xs), 1)
    shifted = Multigraph(base, flat.fibers + 0.125, 1)
    probe = fiberwise_constant_probe(flat, shifted)
    assert probe.c_est == pytest.approx(1.0, abs=1e-9)
    assert probe.delta == pytest.approx(0.125, abs=1e-12)


def test_closure_demo_points_on_curve():
    # x = 1/2 is a zero of x^2 - 1/4, so (0.5, 0) lies on every curve
    nu = 100.0
    assert nu * (0.5 ** 2 - 0.25) == 0.0
    # at x = 0 the curve dives to -nu/4, escaping any fixed box
    assert nu * (0.0 - 0.25) == -25.0


def test_closure_demo_report():
    rep = closure_failure_demo([10, 100, 1000])
    assert rep.cond1
    assert rep.cond2


def test_closure_demo_first_member_not_yet_close():
    rep = closure_failure_demo([10, 100, 1000])
    sups = rep.per_step_sup
    assert sups[0] > CLOSURE_TOL and sups[-1] <= CLOSURE_TOL


def test_build_counterexample_requires_kmax():
    with pytest.raises(ValueError):
        build_counterexample(1)
