import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperapprox import sets_metrics
from hyperapprox.demos import build_counterexample, counterexample_rates
from hyperapprox.sets_metrics import (
    Multigraph,
    SampledCompact,
    fiber_profile,
    fiberwise_hausdorff,
    fit_geometric_rate,
    kuratowski_check,
    sample_box,
    sample_disc,
    sample_segment,
)
from tests.oracles import hausdorff, stable_decreasing_order


def _compact(points, mesh=1e-3):
    return SampledCompact(np.asarray(points, dtype=complex).reshape(-1, 1), mesh=mesh)


# ------------------------------------------------- hausdorff (test oracle)


def test_hausdorff_identical_sets():
    e = _compact([0.0, 1.0, 2.0])
    assert hausdorff(e, e) == 0.0


def test_hausdorff_two_singletons():
    assert hausdorff(_compact([0.0]), _compact([3.0])) == pytest.approx(3.0)


def test_hausdorff_empty_cases():
    empty = SampledCompact(np.zeros((0, 1), dtype=complex), mesh=0.0)
    assert hausdorff(empty, empty) == 0.0
    assert hausdorff(empty, _compact([1.0]), ambient_diam=2.0) == pytest.approx(3.0)


def test_hausdorff_one_empty_needs_ambient():
    empty = SampledCompact(np.zeros((0, 1), dtype=complex), mesh=0.0)
    with pytest.raises(ValueError):
        hausdorff(empty, _compact([1.0]))


def test_hausdorff_metric_properties():
    rng = np.random.default_rng(31)
    for _ in range(25):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=5) + 1j * rng.normal(size=5)
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        dab, dba = hausdorff(_compact(a), _compact(b)), hausdorff(_compact(b), _compact(a))
        assert dab == dba
        dac = hausdorff(_compact(a), _compact(c))
        dcb = hausdorff(_compact(c), _compact(b))
        assert dab <= dac + dcb + 1e-12


# ------------------------------------------------------------- fiberwise


def _mg(base_pts, fibers, n, mesh=1e-3):
    base = _compact(base_pts, mesh=mesh)
    return Multigraph(base, tuple(np.asarray(f, dtype=complex) for f in fibers), n)


def test_fiberwise_zero_on_equal():
    y = _mg([0.0, 1.0], [[1.0, -1.0], [2.0, 0.5]], 2)
    res = fiberwise_hausdorff(y, y)
    assert res.delta == 0.0 and res.graph_dh == 0.0


def test_fiberwise_uniform_translation():
    y = _mg([0.0, 0.5, 1.0], [[1.0, -1.0], [0.3, 2.0], [0.0, 1.5]], 2)
    c = 0.7 - 0.2j
    w = Multigraph(y.base, y.fibers + c, 2)
    res = fiberwise_hausdorff(y, w)
    assert res.delta == pytest.approx(abs(c), abs=1e-12)


def test_fiberwise_graph_distance_below_delta():
    rng = np.random.default_rng(37)
    base = rng.uniform(-1, 1, 12)
    y = _mg(base, [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in base], 3)
    w = _mg(base, [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in base], 3)
    res = fiberwise_hausdorff(y, w)
    assert res.graph_dh <= res.delta + 1e-12


def test_fiberwise_keep_mask_ignores_masked_rows():
    rng = np.random.default_rng(43)
    base = np.linspace(-1.0, 1.0, 9)
    fy = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    fw = fy + 1e-3 * (rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)))
    fw[4] = [50.0 + 50.0j, -80.0]  # one wildly different fiber
    y, w = _mg(base, fy, 2), _mg(base, fw, 2)
    keep = np.ones(9, dtype=bool)
    keep[4] = False
    res = fiberwise_hausdorff(y, w, keep)
    alone = fiberwise_hausdorff(_mg(base[keep], fy[keep], 2), _mg(base[keep], fw[keep], 2))
    assert res.delta == alone.delta and res.graph_dh == alone.graph_dh
    assert fiberwise_hausdorff(y, w).delta > 50.0 > res.delta


def test_graph_distance_above_delta_fails_forward_check(monkeypatch, tmp_path):
    # a graph distance above delta must surface as the failed named check
    # graph_dh_le_delta (and CLI exit 3), not pass silently
    from hyperapprox import sets_metrics
    from hyperapprox.algebra import Const, Polynomial, Pseudopolynomial
    from hyperapprox.cli import main
    from hyperapprox.forward import forward_rate_experiment

    real = sets_metrics._directed_bounded
    monkeypatch.setattr(sets_metrics, "_directed_bounded", lambda *args: real(*args) + 1.0)
    K = sample_segment(-1.0, 1.0, 101)
    F = Pseudopolynomial(2, (Const(0.0), Polynomial.from_coeffs_1d([-2.0, -1.0])))
    exp = forward_rate_experiment(F, K, range(1, 9))
    assert exp.checks["graph_dh_le_delta"] is False
    assert not exp.passed

    cfg = {
        "command": "forward",
        "shape": {"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0]},
        "samples": 101,
        "fiber_degree": 2,
        "coefficients": [{"op": "const", "args": [0.0, 0.0]},
                         {"op": "poly", "args": [{"m": 1, "terms": [[[0], [-2.0, 0.0]],
                                                                    [[1], [-1.0, 0.0]]]}]}],
        "d_range": [1, 8],
    }
    cfg_path = tmp_path / "forward.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert results["checks"]["graph_dh_le_delta"] is False


def _unpruned(y, w, keep=None):
    """(delta, graph_dh) of the masked multigraphs by a full query of every graph point."""
    keep = np.ones(y.base.count, dtype=bool) if keep is None else keep
    gy, gw = y.graph_points()[np.repeat(keep, y.n)], w.graph_points()[np.repeat(keep, w.n)]
    return float(fiber_profile(y, w)[keep].max()), hausdorff(gy, gw)


@st.composite
def _multigraph_pairs(draw):
    """Random pairs over one base: w's fibers repeat y's points cyclically
    (w may have another n), about half of them exactly, the rest moved by
    10^s with s in [-12, 1]; and a random keep mask.  Up to 1200 graph
    points span several query blocks; a narrow base puts many nearest
    neighbours in other fibers, so the bounds are loose."""
    n, m, rows = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 300))
    nw = draw(st.sampled_from([n, draw(st.integers(1, 4))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([1e-3, 1.0, 100.0]))
    base = SampledCompact(width * (rng.normal(size=(rows, m)) + 1j * rng.normal(size=(rows, m))),
                          mesh=1e-3)
    fy = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    fw = fy[:, np.arange(nw) % n]
    moved = rng.random(rows) < 0.5 if draw(st.booleans()) else np.zeros(rows, dtype=bool)
    scale = 10.0 ** draw(st.floats(-12.0, 1.0))
    shift = rng.normal(size=(rows, nw)) + 1j * rng.normal(size=(rows, nw))
    fw[moved] += scale * shift[moved]
    keep = rng.random(rows) < 0.8
    keep[rng.integers(rows)] = True
    return Multigraph(base, fy, n), Multigraph(base, fw, nw), keep


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_multigraph_pairs())
def test_fiberwise_hausdorff_equals_unpruned_path(pair):
    y, w, keep = pair
    res = fiberwise_hausdorff(y, w, keep)
    assert (res.delta, res.graph_dh) == _unpruned(y, w, keep)
    if np.array_equal(y.fibers, w.fibers):  # identical graphs: no point is queried
        assert res.graph_dh == 0.0


def test_staircase_graph_distance_equals_unpruned_path():
    mesh = 2.0 ** -14
    rows = counterexample_rates(8, mesh)
    stair = build_counterexample(8)
    xs = np.arange(0.0, 1.0 + mesh / 2.0, mesh)
    base = SampledCompact(xs.reshape(-1, 1).astype(complex), mesh=mesh)
    f_mg = Multigraph(base, stair.f(xs).reshape(-1, 1), 1)
    for row in rows:
        g_mg = Multigraph(base, stair.f_k(row.k, xs).reshape(-1, 1), 1)
        assert fiberwise_hausdorff(f_mg, g_mg).graph_dh == row.graph_dh == _unpruned(f_mg, g_mg)[1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_multigraph_pairs())
def test_kept_trees_give_the_unpruned_distance(pair):
    # unmasked queries may run against a graph's kept tree; repeated and
    # swapped calls, which reuse it, still give the unpruned distance
    y, w, _ = pair
    want = _unpruned(y, w)
    for first, second in ((y, w), (w, y), (y, w)):
        res = fiberwise_hausdorff(first, second)
        assert (res.delta, res.graph_dh) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.0, 4.0),
                max_size=300),
       st.sampled_from([1, 2, 64]))
def test_decreasing_head_is_the_stable_order(values, count):
    # the partitioned first block is the head of one full stable sort,
    # ties included
    bound = np.array(values, dtype=float)
    order = stable_decreasing_order(bound)
    head = sets_metrics._decreasing_head(bound, np.flatnonzero(bound > 0), count)
    assert np.array_equal(head, order[:count])


def test_staircase_builds_the_same_trees(monkeypatch):
    # no staircase row keeps every point in its box, so each direction
    # builds its own filtered tree, of the sizes it had before trees were
    # kept, and each graph distance is bitwise the plain one
    sizes = []
    real = sets_metrics._kdtree

    def counted(points):
        sizes.append(points.shape[0])
        return real(points)

    monkeypatch.setattr(sets_metrics, "_kdtree", counted)
    mesh = 2.0 ** -14
    rows = counterexample_rates(8, mesh)
    assert sizes == [7167, 7167, 3867, 3866, 1935, 1936, 1022, 1022, 519, 519, 262, 261, 116, 114]
    stair = build_counterexample(8)
    xs = np.arange(0.0, 1.0 + mesh / 2.0, mesh)
    base = SampledCompact(xs.reshape(-1, 1).astype(complex), mesh=mesh)
    f_mg = Multigraph(base, stair.f(xs).reshape(-1, 1), 1)
    for row in rows:
        g_mg = Multigraph(base, stair.f_k(row.k, xs).reshape(-1, 1), 1)
        assert row.graph_dh == hausdorff(f_mg.graph_points(), g_mg.graph_points())


def _tied_bound_pair():
    """The k-d tree's sqrt(0.47^2 + 0.14^2) is one ulp above the bound
    hypot(0.47, 0.14): after a first block of 64 points at exactly that
    bound, the last point, whose bound ties the running max, must be queried."""
    u = abs(0.47 + 0.14j)
    fw = np.full((65, 1), u, dtype=complex)
    fw[64] = 0.47 + 0.14j
    base = 10.0 * np.arange(65)
    return _mg(base, np.zeros((65, 1)), 1), _mg(base, fw, 1)


def _loose_bounds_pair():
    """100 points whose partner is at least 1 away but whose nearest
    neighbour sits at most 1e-7 away in another fiber (w is y shifted by one
    fiber), then one isolated point at distance 0.5: the max lies past the
    first block of bounds."""
    base = np.append(1e-9 * np.arange(100), 1.0)
    fy = np.append(np.arange(100.0), 1000.0)
    fw = np.append(np.roll(np.arange(100.0), -1), 1000.5)
    return _mg(base, fy.reshape(-1, 1), 1), _mg(base, fw.reshape(-1, 1), 1)


def _rounded_bound_pair():
    """|1.0 - (-1.1e-16)| rounds to 1.0, so the partner lies just outside a
    k-d tree box widened by exactly the largest bound."""
    return _mg([0.0], [[1.0]], 1), _mg([0.0], [[-1.1e-16]], 1)


def _subnormal_squares_pair():
    """The partner's squared differences, 5.6 and 4.6 subnormal steps, round
    to 6 + 5 = 11 steps, while a point of w over another base point, just
    farther than the bound hypot = sqrt(10.2) steps, rounds to 10 steps: the
    tree finds it nearer, although it lies outside a box widened by the bound
    with a relative margin only.  A third row puts a point of y on w's
    partner, so the other direction reads 0."""
    step = 2.0 ** -537
    p = complex(np.sqrt(5.6) * step, np.sqrt(4.6) * step)
    base = [0.0, np.sqrt(10.3) * step, 2.0 ** -600]
    return _mg(base, [[0.0], [0.0], [p]], 1), _mg(base, [[p], [0.0], [p]], 1)


def _screened_pair():
    """Each group is a point of y at bound c from its partner in w, an anchor
    whose point of w lies `near` from it, and an anchor whose point of y lies
    1e-3 from the partner.  The first block (64 groups, c = 10, near = 1) sets
    the running max 1; the approximate screen skips 127 rows of the second
    block (c = 5, near = 0.1); its last row (near = 1.5) then sets the max."""
    xs, fw = [], []
    for x, c, near in ([(10.0 * i, 10.0, 1.0) for i in range(64)]
                       + [(1000.0 + i, 5.0, 0.1) for i in range(127)] + [(5000.0, 5.0, 1.5)]):
        xs += [x, x + near, x + 1e-3]
        fw += [c, 0.0, c]
    fy = [c if k % 3 == 2 else 0.0 for k, c in enumerate(fw)]
    return _mg(xs, np.reshape(fy, (-1, 1)), 1), _mg(xs, np.reshape(fw, (-1, 1)), 1)


@pytest.mark.parametrize("pair", [_tied_bound_pair, _loose_bounds_pair, _rounded_bound_pair,
                                  _subnormal_squares_pair, _screened_pair],
                         ids=["tied", "loose", "rounded", "subnormal", "screened"])
def test_fiberwise_hausdorff_queries_every_point_that_can_win(pair):
    y, w = pair()
    assert fiberwise_hausdorff(y, w).graph_dh == _unpruned(y, w)[1]


@pytest.mark.parametrize("keep", [np.array([1, 1, 1]), np.ones(3), np.ones(4, dtype=bool),
                                  np.ones((3, 1), dtype=bool)],
                         ids=["int", "float", "long", "2-d"])
def test_fiberwise_hausdorff_rejects_malformed_keep(keep):
    # an integer mask would select rows 1, 1, 1 and read delta 0.0, not 4.0
    y = _mg([0.0, 1.0, 2.0], np.zeros((3, 2)), 2)
    w = _mg([0.0, 1.0, 2.0], [[4.0, 4.0], [0.0, 0.0], [0.0, 0.0]], 2)
    assert fiberwise_hausdorff(y, w, np.ones(3, dtype=bool)).delta == 4.0
    with pytest.raises(ValueError, match="keep must be a boolean array of shape"):
        fiberwise_hausdorff(y, w, keep)


@pytest.mark.parametrize("where, row, value", [
    ("fibers", 0, np.nan), ("fibers", 2, complex(0.0, np.inf)), ("base", 1, np.nan),
])
def test_multigraph_rejects_non_finite_rows(where, row, value):
    # a skipped query must not hide a non-finite point: the multigraph refuses it
    arrays = {"base": np.array([0.0, 0.5, 1.0, 1.5], dtype=complex),
              "fibers": np.array([[1.0, -1.0], [2.0, 0.5], [0.0, 1.5], [1.0, 1.0]], dtype=complex)}
    arrays[where][row] = value
    with pytest.raises(ValueError, match=f"must be finite: row {row} is not"):
        Multigraph(_compact(arrays["base"]), arrays["fibers"], 2)


def test_fiberwise_base_mismatch():
    y = _mg([0.0, 1.0], [[1.0], [2.0]], 1)
    w = _mg([0.0, 2.0], [[1.0], [2.0]], 1)
    with pytest.raises(ValueError):
        fiber_profile(y, w)


def test_multigraph_validators():
    base = _compact([0.0, 1.0])
    with pytest.raises(ValueError):
        Multigraph(base, (np.array([1.0]),), 1)  # missing fiber
    with pytest.raises(ValueError):
        Multigraph(base, (np.array([]), np.array([1.0])), 1)  # empty fiber
    with pytest.raises(ValueError):
        Multigraph(base, (np.array([1.0, 2.0]), np.array([1.0])), 1)  # too big


def test_multigraph_fibers_are_a_read_only_array():
    y = _mg([0.0, 1.0], [[1.0, -1.0], [0.5j, 2.0]], 2)
    assert y.fibers.shape == (2, 2) and y.fibers.dtype == complex
    with pytest.raises(ValueError):
        y.fibers[0, 0] = 3.0
    with pytest.raises(ValueError):
        Multigraph(y.base, [[1.0], [2.0]], 2)  # one point short in every fiber


def test_graph_points_order_and_fiber_profile_match_loops():
    rng = np.random.default_rng(41)
    base = rng.uniform(-1, 1, 9)
    fy = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    fw = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    y, w = _mg(base, fy, 3), _mg(base, fw, 3)
    rows = [[x, t] for x, fib in zip(base, fy) for t in fib]
    assert np.array_equal(y.graph_points(), np.asarray(rows, dtype=complex))
    for i in range(9):
        d = np.abs(fy[i][:, None] - fw[i][None, :])
        assert fiber_profile(y, w)[i] == max(d.min(axis=1).max(), d.min(axis=0).max())


# ------------------------------------------------------------- kuratowski


def test_kuratowski_constant_sequence():
    f = _compact(np.linspace(0, 1, 50), mesh=0.02)
    rep = kuratowski_check([f, f, f, f], f, tol=0.05, witnesses=[_compact([5.0])])
    assert rep.cond1 and rep.cond2


def test_kuratowski_oscillating_sequence_fails():
    seq = [_compact([float(nu % 2)], mesh=1e-6) for nu in range(1, 11)]
    limit = _compact([0.0], mesh=1e-6)
    rep = kuratowski_check(seq, limit, tol=0.1)
    assert not rep.cond1


def test_kuratowski_rejects_tol_below_mesh():
    f = _compact(np.linspace(0, 1, 10), mesh=0.2)
    with pytest.raises(ValueError):
        kuratowski_check([f], f, tol=0.1)


def _parabola_graph(nu, count=20001, clip=6.0):
    xs = np.linspace(-1, 1, count)
    ts = nu * (xs * xs - 0.25)
    keep = np.abs(ts) <= clip
    pts = np.column_stack([xs[keep], ts[keep]]).astype(complex)
    dx = 2.0 / (count - 1)
    mesh = 0.5 * dx * np.sqrt(1 + 4 * nu * nu)
    return SampledCompact(pts, mesh=mesh)


def test_kuratowski_parabola_to_vertical_lines():
    t_vals = np.arange(-5.0, 5.0 + 0.005, 0.01)
    rows = [np.column_stack([np.full_like(t_vals, x0), t_vals]) for x0 in (-0.5, 0.5)]
    limit = SampledCompact(np.vstack(rows).astype(complex), mesh=0.005)
    seq = [_parabola_graph(nu, count=80001) for nu in (50, 200, 800)]
    rep = kuratowski_check(seq, limit, tol=0.05)
    assert rep.cond1


def test_kuratowski_mesh_stability():
    # refining the sampling of the same sets does not change the verdict
    t_vals = np.arange(-3.0, 3.0 + 0.005, 0.01)
    rows = [np.column_stack([np.full_like(t_vals, x0), t_vals]) for x0 in (-0.5, 0.5)]
    limit = SampledCompact(np.vstack(rows).astype(complex), mesh=0.005)
    for count in (40001, 80001):
        seq = [_parabola_graph(nu, count=count, clip=4.0) for nu in (50, 200, 800)]
        rep = kuratowski_check(seq, limit, tol=0.05)
        assert rep.cond1


# ------------------------------------------------------------- rate fitting


def _assert_envelope(fit, pairs):
    # alpha_d <= M theta^d at every entry that is neither floor-masked nor at the floor
    for i, (d, a) in enumerate(pairs):
        if i not in fit.floor_mask and a > fit.floor:
            assert a <= fit.M * fit.theta ** d


def test_fit_exact_geometric():
    fit = fit_geometric_rate([(d, 0.5 ** d) for d in range(1, 21)])
    assert fit.verdict == "geometric"
    assert fit.theta == pytest.approx(0.5, abs=1e-10)
    _assert_envelope(fit, [(d, 0.5 ** d) for d in range(1, 21)])


def test_fit_quadratic_decay_not_geometric():
    thetas = []
    for span in (50, 100, 200):
        fit = fit_geometric_rate([(d, 1.0 / d ** 2) for d in range(1, span + 1)])
        thetas.append(fit.theta)
    assert thetas[0] < thetas[1] < thetas[2]
    assert thetas[2] >= 0.97
    final = fit_geometric_rate([(d, 1.0 / d ** 2) for d in range(1, 201)])
    assert final.verdict == "not-geometric"


def test_fit_all_floor_is_geometric_theta_zero():
    fit = fit_geometric_rate([(d, 5e-14) for d in range(1, 10)])
    assert fit.verdict == "geometric"
    assert fit.theta == 0.0


def test_fit_too_few_points_inconclusive():
    fit = fit_geometric_rate([(1, 0.5), (2, 0.25), (3, 0.125)])
    assert fit.verdict == "inconclusive"


def test_fit_envelope_with_noise():
    rng = np.random.default_rng(41)
    pairs = [(d, 0.6 ** d * rng.uniform(0.5, 2.0)) for d in range(1, 25)]
    fit = fit_geometric_rate(pairs)
    assert fit.verdict == "geometric"
    _assert_envelope(fit, pairs)


def test_fit_rejects_negative_values():
    with pytest.raises(ValueError):
        fit_geometric_rate([(1, -0.1), (2, 0.1), (3, 0.1), (4, 0.1)])


def test_fit_reports_limsup_proxy():
    fit = fit_geometric_rate([(d, 0.5 ** d) for d in range(1, 31)])
    # d-th roots of 0.5^d are exactly 0.5
    assert fit.limsup_proxy == pytest.approx(0.5, abs=1e-12)


# ------------------------------------------------------------- samplers


def test_segment_sampler_mesh():
    sc = sample_segment(-1.0, 1.0, 401)
    assert sc.count == 401
    assert sc.mesh == pytest.approx(1.0 / 400.0)
    assert sc.shape is not None


def test_disc_sampler_contains_boundary():
    sc = sample_disc(0.0, 1.0, 21)
    assert np.abs(sc.points).max() <= 1.0 + 1e-12
    assert np.abs(np.abs(sc.points) - 1.0).min() <= 1e-12


def test_box_sampler_dimension():
    sc = sample_box([(-1.0, 1.0), (0.0, 2.0)], per_axis=9)
    assert sc.m == 2
    assert sc.count == 81
