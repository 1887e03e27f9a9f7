"""Self-tests of the benchmark: input generation, self-time arithmetic and
tracer clean-up.  Run with `python3 -m pytest -q bench/tests`."""

import json

import numpy as np
import pytest

from bench import tracer, workloads
from hyperapprox import forward, roots, sets_metrics
from hyperapprox.algebra import Polynomial, Pseudopolynomial
from hyperapprox.sets_metrics import Multigraph

SEEDED = ("forward-box", "roundtrip-segment", "hoelder-suite")


def _library_view(name, prep):
    """The library objects a pass receives, reduced to comparable data."""
    if name == "forward-box":
        K = prep["K"]
        return (K.points.tobytes(), K.mesh, prep["F"].coefficients_at(K.points).tobytes(),
                tuple(prep["d_range"]))
    if name == "hoelder-suite":
        return [(a.tobytes(), b.tobytes()) for a, b in prep["pairs"]], prep["C"]
    return {k: v for k, v in prep.items() if k != "inputs"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_plain_data(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    for seed in (0, 1, 7):
        first = wl.inputs(seed)
        assert first == wl.inputs(seed)
        # the inputs are plain JSON data, and the library objects of a pass
        # are built from those data and the work directory alone
        copied = json.loads(json.dumps(first))
        assert copied == first
        assert _library_view(name, wl.prepare(first, tmp_path)) == \
            _library_view(name, wl.prepare(copied, tmp_path))
    if name in SEEDED:
        assert wl.inputs(1) != wl.inputs(2)


def test_seed_zero_is_the_paper_configuration():
    assert workloads.forward_box_inputs(0)["c"] == [1.0, 1.0, 1.0, 1.0]
    assert workloads.roundtrip_inputs(0)["c"] == [1.0]
    for seed in range(1, 20):
        assert all(0.5 <= c <= 1.5 for c in workloads.forward_box_inputs(seed)["c"])


def test_hoelder_trials_respect_the_bound_hypothesis():
    trials = workloads.hoelder_inputs(3)["trials"]
    assert len(trials) == 2000
    sizes = [len(t["a"]) for t in trials]
    assert [sizes.count(n) for n in range(2, 7)] == [400] * 5
    for t in trials:
        for z in t["a"] + t["b"]:
            assert abs(complex(*z)) <= workloads.HOELDER_C


def test_self_times_on_nested_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has children d [5, 6] and e [7, 8.5]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["d", 5.0, 6.0, 3],
        ["e", 7.0, 8.5, 3],
        ["lone", 20.0, 21.5, -1],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.5])
    # self times of a tree add up to the root durations
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0 + 1.5)


def _bindings():
    return (forward.fiber_profile, sets_metrics.fiber_profile, forward.solve_monic_batch,
            roots.solve_monic_batch, Multigraph.__dict__["graph_points"],
            Polynomial.__dict__["evaluate_many"], Pseudopolynomial.__dict__["coefficients_at"])


def test_tracer_records_nested_spans_and_restores_bindings():
    before = _bindings()
    with tracer.Tracer() as tr:
        assert forward.fiber_profile is not before[0]
        assert Multigraph.__dict__["graph_points"] is not before[4]
        assert tracer.installed_wrappers()
        rep = roots.hoelder_check([0.5, -0.25], [0.5, -0.2], 2.0)
    assert rep.passed
    assert _bindings() == before
    assert tracer.installed_wrappers() == []
    names = [s[0] for s in tr.spans]
    assert names.count("roots.hoelder_check") == 1
    assert names.count("roots.solve_monic_batch") == 2
    for span in tr.spans:
        if span[0] == "roots.solve_monic_batch":
            assert tr.spans[span[3]][0] == "roots.solve_monic"
    metrics = tracer.layer_metrics(tr.spans, tr.counters)
    assert metrics["roots.solves_per_check"] == 2.0
    assert metrics["roots.solve_monic_batch.rows"] == 2
    assert set(metrics) == set(tracer.layer_metric_units())


def test_tracer_restores_bindings_after_an_exception():
    before = _bindings()
    with pytest.raises(ValueError):
        with tracer.Tracer():
            roots.hoelder_check([0.5], [0.5, 0.1], 2.0)
    assert _bindings() == before
    assert tracer.installed_wrappers() == []


def test_tracer_counts_lawson_iterations():
    from hyperapprox import chebyshev

    pts = sets_metrics.sample_segment(-1.0, 1.0, 41)
    with tracer.Tracer() as tr:
        res = chebyshev.best_approx(np.exp(pts.points[:, 0]), pts, 4)
    assert tr.counters["lawson_iterations"] == res.iterations
    assert tr.counters["minimax_solves"] == 1
    assert tr.counters["rank_sum"] == res.rank
    assert tr.counters["dim_sum"] == 5
