import warnings

import numpy as np
import pytest

from hyperapprox.algebra import (
    Add,
    Const,
    Coord,
    Cos,
    Exp,
    Mul,
    Neg,
    Polynomial,
    Pseudopolynomial,
    Sin,
)
from hyperapprox import forward, sets_metrics
from hyperapprox.chebyshev import basis_dimension, least_squares
from hyperapprox.forward import forward_rate_experiment, sample_multigraph
from hyperapprox.roots import hoelder_check, match_roots
from hyperapprox.extremal import Box
from hyperapprox.sets_metrics import Multigraph, SampledCompact, sample_box, sample_segment
from tests.oracles import hausdorff


@pytest.fixture(scope="module")
def K401():
    return sample_segment(-1.0, 1.0, 401)


@pytest.fixture(scope="module")
def exp_experiment(K401):
    F = Pseudopolynomial(2, (Const(0.0), Neg(Exp(Coord(0)))))
    return forward_rate_experiment(F, K401, range(2, 15))


def test_algebraic_input_hits_floor(K401):
    # coefficients already polynomial of degree <= 3: approximation is exact
    a2 = Polynomial.from_coeffs_1d([-3.0, 0.0, 0.0, -1.0])  # -(x^3 + 3)
    F = Pseudopolynomial(2, (Const(0.0), a2))
    coeffs = F.coefficients_at(K401.points)
    assert max(r.error for r in least_squares(coeffs, K401, [5])[0]) <= 1e-10
    exp = forward_rate_experiment(F, K401, range(3, 13))
    assert max(r.delta for r in exp.records) <= 1e-10
    assert exp.delta_fit.theta == 0.0
    assert exp.delta_fit.verdict == "geometric"


def test_coefficient_error_equals_one_column_fit(exp_experiment, K401):
    # exp_experiment's F is t^2 - e^x
    (rec,) = [r for r in exp_experiment.records if r.d == 8]
    ((direct,),) = least_squares(-np.exp(K401.points[:, 0]), K401, [8])
    assert rec.coeff_errors[1] == pytest.approx(direct.error, rel=1e-9)


def test_one_fit_per_degree(K401, monkeypatch):
    # all n coefficient columns at every degree come from one least_squares
    # call, which factors one Vandermonde matrix
    calls = []

    def counted(samples, points, degrees):
        calls.append((samples.shape, list(degrees)))
        return least_squares(samples, points, degrees)

    monkeypatch.setattr(forward, "least_squares", counted)
    F = Pseudopolynomial(3, (Const(0.5), Neg(Exp(Coord(0))), Const(0.1)))
    exp = forward_rate_experiment(F, K401, range(3, 10))
    assert calls == [((K401.count, 3), list(range(3, 10)))]
    assert [(r.rank, r.basis_dim) for r in exp.records] == [
        (basis_dimension(1, d), basis_dimension(1, d)) for d in range(3, 10)
    ]
    assert exp.checks["full_rank"]


def test_diagonal_box_sample_fails_full_rank():
    # on x1 = x0 the degree-d monomials in (x0, x1) span only the d + 1
    # powers of x0: the graded solve reads that rank with no patch
    x = np.linspace(-1.0, 1.0, 41)
    K = SampledCompact(np.column_stack([x, x]), mesh=0.05, shape=Box(((-1.0, 1.0), (-1.0, 1.0))))
    F = Pseudopolynomial(2, (Const(0.0), Neg(Exp(Coord(0)))))
    exp = forward_rate_experiment(F, K, range(2, 8))
    assert all(r.rank == r.d + 1 < r.basis_dim for r in exp.records)
    assert exp.checks["full_rank"] is False


def test_forward_box_run_factors_once_and_keeps_the_target_tree(monkeypatch):
    # a run shaped like the forward-box benchmark: one QR for all ten
    # degrees, and 11 k-d trees (each approximant's and the target's once,
    # against 20 when every query built its own), with every graph
    # distance bitwise the plain Hausdorff distance
    trees, qrs = [], []
    real_tree, real_qr = sets_metrics._kdtree, np.linalg.qr

    def counted_tree(points):
        trees.append(points.shape)
        return real_tree(points)

    def counted_qr(*args, **kwargs):
        qrs.append(args[0].shape)
        return real_qr(*args, **kwargs)

    monkeypatch.setattr(sets_metrics, "_kdtree", counted_tree)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    K = sample_box([(-1.0, 1.0), (-1.0, 1.0)], 21)
    x0, x1 = Coord(0), Coord(1)
    F = Pseudopolynomial(3, (Sin(Add((x0, x1))), Neg(Exp(x0)), Cos(Mul((x0, x1)))))
    exp = forward_rate_experiment(F, K, range(3, 13))
    assert qrs == [(441, basis_dimension(2, 12))]
    assert trees == [(1323, 6)] * 11
    assert all(r.flagged_count == 0 for r in exp.records)
    target = exp.target.graph_points()
    for rec in exp.records:
        approx = Multigraph(K, rec.fibers, 3).graph_points()
        assert rec.graph_dh == hausdorff(target, approx)


def test_forward_evaluates_F_once(K401, monkeypatch):
    calls, fitted = [], []
    original = Pseudopolynomial.coefficients_at

    def counted(self, pts):
        calls.append(self)
        return original(self, pts)

    def kept(samples, points, degrees):
        fitted.append(least_squares(samples, points, degrees))
        return fitted[-1]

    monkeypatch.setattr(Pseudopolynomial, "coefficients_at", counted)
    monkeypatch.setattr(forward, "least_squares", kept)
    F = Pseudopolynomial(2, (Const(0.0), Neg(Exp(Coord(0)))))
    exp = forward_rate_experiment(F, K401, range(2, 8))
    assert calls == [F]
    # each approximant's fibers solve the coefficient values its fits computed
    (per_degree,) = fitted
    assert len(per_degree) == len(exp.records)
    for rec, fits in zip(exp.records, per_degree):
        assert rec.coeff_polys == tuple(r.poly for r in fits)
        vals = np.column_stack([r.values for r in fits])
        assert np.array_equal(rec.fibers, sample_multigraph(K401, vals).fibers)


def test_singleton_fibers_reduce_to_sup_norm(K401):
    # n = 1: fibers are singletons {-a_1(x)}, so the fiberwise distance is
    # exactly the uniform distance of the coefficients
    F = Pseudopolynomial(1, (Neg(Exp(Coord(0))),))
    exp = forward_rate_experiment(F, K401, range(1, 8))
    for r in exp.records:
        assert r.delta == pytest.approx(r.coeff_errors[0], rel=1e-7, abs=1e-13)


def _unit_circle(count: int) -> SampledCompact:
    """A circle sample with no shape tag: a circle is not polynomially convex."""
    return SampledCompact(np.exp(2j * np.pi * np.arange(count) / count).reshape(-1, 1),
                          mesh=np.pi / count)


def test_requires_standard_shape():
    circle = _unit_circle(64)
    F = Pseudopolynomial(1, (Const(0.0),))
    with pytest.raises(ValueError, match="shape"):
        forward_rate_experiment(F, circle, range(0, 6))


def test_requires_degree_span(K401):
    F = Pseudopolynomial(1, (Const(0.0),))
    with pytest.raises(ValueError):
        forward_rate_experiment(F, K401, [1, 2, 3])


def test_sample_multigraph_constant_fibers(K401):
    F = Pseudopolynomial(2, (Const(0.0), Const(-1.0)))  # t^2 - 1
    mg = sample_multigraph(K401, F.coefficients_at(K401.points))
    for fib in mg.fibers:
        np.testing.assert_allclose(sorted(fib, key=lambda z: z.real), [-1.0, 1.0], atol=1e-10)


def test_sample_multigraph_square_root_fibers():
    circle = _unit_circle(64)
    F = Pseudopolynomial(2, (Const(0.0), Neg(Coord(0))))  # t^2 - x
    mg = sample_multigraph(circle, F.coefficients_at(circle.points))
    for x, fib in zip(circle.points[:, 0], mg.fibers):
        r = np.sqrt(x)
        got = sorted(fib, key=lambda z: (z.real, z.imag))
        want = sorted([r, -r], key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_collision_warning_reads_the_solvers_cluster_gap(K401):
    # rounding splits a double root by about 1.5e-8, so a gap threshold of
    # that size would see some fibers and miss others; the solver's
    # CLUSTER_GAP (1e-4) sees them all
    c = K401.points[:, 0] + 0.5j
    with pytest.warns(RuntimeWarning, match="persistent root collisions"):
        sample_multigraph(K401, np.column_stack([-2.0 * c, c * c]))  # (t - x - 0.5i)^2
    F = Pseudopolynomial(2, (Const(0.0), Neg(Exp(Coord(0)))))  # t^2 - e^x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_multigraph(K401, F.coefficients_at(K401.points))


def test_records_satisfy_graph_le_delta(exp_experiment):
    for r in exp_experiment.records:
        assert r.graph_dh <= r.delta + 1e-12


def test_rate_chain(exp_experiment):
    n = exp_experiment.F.n
    worst = max(cf.theta for cf in exp_experiment.coeff_fits)
    assert exp_experiment.delta_fit.theta <= worst ** (1.0 / n) + 0.1
    assert exp_experiment.graph_fit.theta <= exp_experiment.delta_fit.theta + 0.05


def test_delta_rate_is_geometric(exp_experiment):
    assert exp_experiment.delta_fit.verdict == "geometric"
    assert exp_experiment.checks["delta_rate_geometric"]
    assert exp_experiment.passed


def test_fibers_obey_hoelder_bound(exp_experiment, K401):
    # matched fibers of the target and each approximant satisfy the
    # perturbation bound with C = max coeff sup norm + max error + 1
    F = exp_experiment.F
    coeff_values = F.coefficients_at(K401.points)
    sup_a = float(np.abs(coeff_values).max())
    for rec in exp_experiment.records[:4]:
        C = sup_a + max(rec.coeff_errors) + 1.0
        approx_vals = np.column_stack(
            [p.evaluate_many(K401.points) for p in rec.coeff_polys]
        )
        for i in range(0, K401.count, 40):
            target_fiber = exp_experiment.target.fibers[i]
            rep = hoelder_check(coeff_values[i], approx_vals[i], C)
            assert rep.passed
            got = match_roots(target_fiber, rec.fibers[i]).bottleneck
            diff = np.abs(coeff_values[i] - approx_vals[i]).max()
            assert got <= 4 * F.n * C * diff ** (1.0 / F.n) + 1e-8
