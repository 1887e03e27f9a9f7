import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from hyperapprox import converse, demos, forward
from hyperapprox.cli import (COMMANDS, ConfigError, ExperimentConfig, _multigraphs_json, _read_forward,
                             main, run)
from hyperapprox.sets_metrics import DeltaResult, Multigraph, sample_segment

FORWARD_CFG = {
    "command": "forward",
    "shape": {"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0]},
    "samples": 201,
    "fiber_degree": 2,
    "coefficients": [
        {"op": "const", "args": [0.0, 0.0]},
        {"op": "neg", "args": [{"op": "exp", "args": [{"op": "coord", "args": [0]}]}]},
    ],
    "d_range": [2, 9],
}


def _write_cfg(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_config_rejects_unknown_field():
    bad = dict(FORWARD_CFG, meshiness=3)
    with pytest.raises(ConfigError, match="meshiness"):
        ExperimentConfig.from_json(bad)


def test_config_rejects_unknown_command():
    for command in ("frobnicate", ["forward"], None):
        with pytest.raises(ConfigError, match="command"):
            ExperimentConfig.from_json({"command": command})


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects an unknown flag this way
        return exc.code


_STAIRCASE = {"command": "counterexample", "k_max": 8}

SCALAR_CFG = {
    "command": "scalar-bws",
    "shape": {"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0]},
    "samples": 201,
    "function": {"op": "exp", "args": [{"op": "coord", "args": [0]}]},
    "d_range": [0, 10],
}
_CLOSURE = {"command": "closure-demo"}
_EXTREMAL = {"command": "extremal", "shape": {"kind": "disc", "center": [0.0, 0.0], "radius": 1.0}}


def test_config_round_trip():
    # one config per command; the echo holds the fields set, out_dir, and the
    # table's default of every field left out that has one
    for cfg, defaults in ((FORWARD_CFG, {}), ({"command": "converse", "from_forward": "results.json"}, {}),
                          (SCALAR_CFG, {}), (_STAIRCASE, {}),
                          (_CLOSURE, {"nu_list": [10.0, 100.0, 1000.0]}),
                          (_EXTREMAL, {"grid_step": 0.05}), (dict(_EXTREMAL, grid_step=0.1), {})):
        config = ExperimentConfig.from_json(cfg)
        assert ExperimentConfig.from_json(config.to_json()) == config
        assert config.to_json() == {"out_dir": "results", **defaults, **cfg}


@pytest.mark.parametrize("cfg, flags, message", [
    (dict(FORWARD_CFG, seed=1), [], "unknown field 'seed'"),
    (dict(FORWARD_CFG, mode="minimax"), [], "unknown field 'mode'"),
    (dict(SCALAR_CFG, mode="minimax"), [], "unknown field 'mode'"),
    ({"command": "converse", "n": 2}, [], "unknown field 'n'"),
    (FORWARD_CFG, ["--seed", "1"], "unrecognized arguments: --seed"),
    (dict(FORWARD_CFG, store_multigraphs=True), [], "unknown field 'store_multigraphs'"),
    (_STAIRCASE, ["--mesh", str(2.0 ** -12)], "unrecognized arguments: --mesh"),
    (FORWARD_CFG, ["--tol", "1e-10"], "unrecognized arguments: --tol"),
    (dict(SCALAR_CFG, tol=0.5), [], "unknown field 'tol'"),
    (dict(FORWARD_CFG, tol=1e-10), [], "unknown field 'tol'"),
    ({"command": "converse", "tol": 1e-10}, [], "unknown field 'tol'"),
    ({"command": "converse", "x0_index": 0}, [], "unknown field 'x0_index'"),
    (dict(_CLOSURE, box_height=-1), [], "unknown field 'box_height'"),
    (dict(_EXTREMAL, h=0.01), [], "unknown field 'h'"),
    ({"command": "converse", "multigraph_paths": ["w1.json"]}, [], "unknown field 'multigraph_paths'"),
    ({"command": "converse", "limit_path": "limit.json"}, [], "unknown field 'limit_path'"),
], ids=["seed", "forward-mode", "scalar-mode", "converse-n", "seed-flag",
        "store-multigraphs", "mesh-flag", "tol-flag", "scalar-tol", "forward-tol",
        "converse-tol", "converse-x0-index", "closure-box-height", "extremal-h",
        "converse-multigraph-paths", "converse-limit-path"])
def test_removed_setting_exits_2(forward_results, tmp_path, capsys, cfg, flags, message):
    if cfg["command"] == "converse":
        cfg = dict(cfg, from_forward=forward_results)
    argv = ["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out"), *flags]
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err


_SEVEN_ROOTS = [{"op": "const", "args": [0.0, 0.0]}] * 6 + [{"op": "const", "args": [-1.0, 0.0]}]
_X0 = {"op": "coord", "args": [0]}


def _scalar_fn(op, args):
    return dict(SCALAR_CFG, function={"op": op, "args": args})


def _poly_coefficient(poly):
    return dict(FORWARD_CFG, coefficients=[{"op": "const", "args": [0.0, 0.0]},
                                           {"op": "poly", "args": [poly]}])


_LINE = {"m": 1, "terms": [[[1], [1.0, 0.0]]]}
_PLANE = {"m": 2, "terms": [[[1, 0], [1.0, 0.0]]]}


@pytest.mark.parametrize("cfg, field", [
    (dict(FORWARD_CFG, samples="abc"), "samples"),
    (dict(FORWARD_CFG, samples=1), "samples"),
    (dict(FORWARD_CFG, d_range=[2, 3, 4, 5, 6]), "d_range"),
    (dict(FORWARD_CFG, d_range=[2, 2, 3, 4, 5, 6, 6]), "d_range"),
    (dict(FORWARD_CFG, d_range=[2.5, 9]), "d_range"),
    (dict(FORWARD_CFG, fiber_degree=7, coefficients=_SEVEN_ROOTS, d_range=[0, 5]), "d_range"),
    (dict(SCALAR_CFG, d_range=[0, 4]), "d_range"),
    (dict(SCALAR_CFG, function={"op": "exp"}), "function"),
    (dict(SCALAR_CFG, function={"op": "const", "args": [[1.0]]}), "function"),
    (dict(SCALAR_CFG, function={"op": "poly", "args": [{}]}), "function"),
    (dict(FORWARD_CFG, coefficients=5), "coefficients"),
    (dict(_STAIRCASE, k_max="8"), "k_max"),
    (dict(_STAIRCASE, k_max=1), "k_max"),
    (dict(_STAIRCASE, mesh=0), "mesh"),
    (dict(_STAIRCASE, mesh=-0.001), "mesh"),
    (dict(_STAIRCASE, mesh=2.0 ** -10), "mesh"),
    (dict(_CLOSURE, nu_list=[0, 10, 100]), "nu_list"),
    (dict(_EXTREMAL, grid_step=0), "grid_step"),
    (dict(_EXTREMAL, grid_step="a"), "grid_step"),
    (dict(FORWARD_CFG, fiber_degree=2.0), "fiber_degree"),
    (dict(FORWARD_CFG, fiber_degree=True, coefficients=FORWARD_CFG["coefficients"][1:]),
     "fiber_degree"),
    (dict(FORWARD_CFG, fiber_degree=0, coefficients=[]), "fiber_degree"),
    (dict(FORWARD_CFG, out_dir=5), "out_dir"),
    (_scalar_fn("exp", [_X0, _X0]), "function"),
    (_scalar_fn("coord", [0.7]), "function"),
    (_scalar_fn("coord", [0, 4]), "function"),
    (_scalar_fn("coord", [-1]), "function"),
    (_scalar_fn("coord", [True]), "function"),
    (_scalar_fn("const", [1.0, 2.0, 3.0]), "function"),
    (_scalar_fn("const", ["2"]), "function"),
    (_scalar_fn("const", [10 ** 400]), "function"),
    (_scalar_fn("poly", [_LINE, _LINE]), "function"),
    (_scalar_fn("coord", [1]), "function"),
    (_poly_coefficient(_PLANE), "coefficients"),
], ids=["samples-str", "samples-1", "five-degrees", "five-distinct", "float-degree",
        "top-below-fiber-degree", "scalar-five-degrees", "function-no-args",
        "function-const-list", "function-poly-empty", "coefficients-int",
        "k_max-str", "k_max-1", "mesh-0", "mesh-negative", "mesh-coarse", "nu-zero",
        "grid-step-0", "grid-step-str",
        "fiber-degree-float", "fiber-degree-bool", "fiber-degree-0", "out-dir-int",
        "unary-two-children", "coord-float", "coord-two", "coord-negative",
        "coord-bool", "const-three", "const-str", "const-huge-int", "poly-two", "coord-beyond-m",
        "poly-m-mismatch"])
def test_bad_samples_or_degrees_exit_2(tmp_path, capsys, cfg, field):
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


_BOX = {"kind": "box", "intervals": [[-1.0, 1.0], [-1.0, 1.0]]}


@pytest.mark.parametrize("cfg, count", [
    (dict(FORWARD_CFG, samples=4, d_range=[2, 7]), 4),
    (dict(FORWARD_CFG, shape=_BOX, samples=25, d_range=[5, 10]), 25),
    (dict(SCALAR_CFG, samples=4), 4),
    (dict(SCALAR_CFG, shape=_BOX, samples=25), 25),
], ids=["forward-segment", "forward-box", "scalar-segment", "scalar-box"])
def test_degree_beyond_samples_exits_2(tmp_path, capsys, cfg, count):
    # the top degree's basis has more functions than the compact has samples
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "field 'd_range'" in err and f"only {count} samples" in err


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("cfg", [
    dict(FORWARD_CFG, shape={"kind": "annulus", "radius": 1.0}),
    dict(FORWARD_CFG, shape="disc"),
    dict(FORWARD_CFG, shape=[1]),
    dict(FORWARD_CFG, shape={"kind": "disc", "center": [0.0, 0.0], "radius": _INF}),
    dict(FORWARD_CFG, shape={"kind": "segment", "a": [_NAN, 0.0], "b": [1.0, 0.0]}),
    dict(FORWARD_CFG, shape={"kind": "box", "intervals": [[-1.0, _INF], [-1.0, 1.0]]}),
    dict(FORWARD_CFG, shape={"kind": "polydisc", "radii": [1.0, _INF]}),
    dict(_EXTREMAL, shape={"kind": "disc", "center": [0.0, 0.0], "radius": _NAN}),
    dict(_EXTREMAL, shape={"kind": "segment", "a": [-1.0, 0.0], "b": [_INF, 0.0]}),
], ids=["unknown-kind", "string", "list", "disc-radius-inf", "segment-nan", "box-inf",
        "polydisc-inf", "extremal-disc-nan", "extremal-segment-inf"])
def test_invalid_shape_exits_2(tmp_path, capsys, cfg):
    code = main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "field 'shape'" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, field", [
    (FORWARD_CFG, "shape"), (FORWARD_CFG, "fiber_degree"), (FORWARD_CFG, "coefficients"),
    (FORWARD_CFG, "d_range"), (SCALAR_CFG, "function"), (_STAIRCASE, "k_max"), (_EXTREMAL, "shape"),
    ({"command": "converse", "from_forward": "results.json"}, "from_forward"),
], ids=["forward-shape", "fiber-degree", "coefficients", "d-range", "function", "k-max",
        "extremal-shape", "from-forward"])
def test_missing_required_field_exits_2(tmp_path, capsys, cfg, field):
    cfg = {key: value for key, value in cfg.items() if key != field}
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


def test_forward_run_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(["run", _write_cfg(tmp_path, FORWARD_CFG), "--out", str(out)])
    assert code == 0
    rates = (out / "rates.csv").read_text().strip().splitlines()
    assert rates[0] == "d,coeff_err_1,coeff_err_2,delta,graph_dh"
    deltas = [float(line.split(",")[3]) for line in rates[1:]]
    # strictly decreasing until the floor
    for lo, hi in zip(deltas[1:], deltas[:-1]):
        if hi > 1e-10:
            assert lo < hi
    assert (out / "plot_data.csv").exists()
    results = json.loads((out / "results.json").read_text())
    assert results["checks"]["delta_rate_geometric"]


def test_forward_run_deterministic(tmp_path):
    cfg_path = _write_cfg(tmp_path, FORWARD_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg_path, "--out", str(out1)]) == 0
    assert main(["run", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()


def test_counterexample_run(tmp_path):
    cfg = {"command": "counterexample", "k_max": 8}
    out = tmp_path / "out"
    code = main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    lines = (out / "rates.csv").read_text().strip().splitlines()
    assert lines[0] == "k,sup_norm,graph_dh,c_est"
    k2 = lines[1].split(",")
    assert k2[0] == "2"
    assert float(k2[1]) == 0.125


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: with 5 entries above the shelf the drift "
                   "test cannot run, so fit_geometric_rate reads the algebraic 1/(2k^2) as geometric")
def test_counterexample_k_max_6_exits_0(tmp_path):
    cfg = dict(_STAIRCASE, k_max=6)
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0


def test_scalar_run(tmp_path):
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, SCALAR_CFG), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["fit"]["verdict"] == "geometric"


def test_closure_run(tmp_path):
    cfg = {"command": "closure-demo", "nu_list": [10.0, 100.0, 1000.0]}
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["checks"] == {"kuratowski_cond1": True, "kuratowski_cond2": True}
    assert [p.name for p in out.iterdir()] == ["results.json"]


def test_extremal_run(tmp_path):
    cfg = dict(_EXTREMAL, grid_step=0.1)
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert list(results) == ["config"]


@pytest.mark.parametrize("shape", [
    {"kind": "disc", "center": [5.0, -3.0], "radius": 1.0},
    {"kind": "segment", "a": [2.0, 0.0], "b": [4.0, 0.0]},
], ids=["off-centre-disc", "segment-2-4"])
def test_extremal_scan_covers_K(tmp_path, shape):
    # the scan is centred on K, so it holds points of K, where Phi_K = 1
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, {"command": "extremal", "shape": shape}),
                 "--out", str(out)]) == 0
    rows = np.loadtxt(out / "phi.csv", delimiter=",", skiprows=1)
    assert rows[:, 2].min() <= 1.0 + 1e-12


def test_converse_run_from_forward(tmp_path):
    fwd_out = tmp_path / "fwd"
    assert main(["run", _write_cfg(tmp_path, FORWARD_CFG), "--out", str(fwd_out)]) == 0
    cfg = {"command": "converse", "from_forward": str(fwd_out / "results.json")}
    cfg_path = tmp_path / "converse.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "conv"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["verdict"] == "holomorphic-witness"
    assert results["checks"] == {"verdict_holomorphic_witness": True, "lemma_bounds_hold": True,
                                 "theta_envelope_ok": True}


def test_converse_failed_check_exits_3_unflagged(tmp_path):
    # a_2 reaches its floor after three entries: the verdict is inconclusive,
    # which fails a named check without a numerical failure
    from tests.test_converse import _perturbed_sequence

    K = sample_segment(-1.0, 1.0, 21)
    x = K.points[:, 0].real
    coeffs = np.column_stack([0.3 * x, -(1.0 + 0.25 * x) ** 2]).astype(complex)
    steps = [0.1 * 0.5 ** d * np.array([1.0, 0.01 if d <= 3 else 0.0]) for d in range(1, 13)]
    limit, w_seq = _perturbed_sequence(K, coeffs, steps)
    forward_path = tmp_path / "forward.json"
    forward_path.write_text(json.dumps(
        _multigraphs_json(limit, [(d, w.fibers) for d, w in enumerate(w_seq, start=1)])))
    cfg = {"command": "converse", "from_forward": str(forward_path)}
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    results = json.loads((out / "results.json").read_text())
    assert "flagged" not in results
    assert results["verdict"] == "inconclusive"
    assert results["checks"] == {"verdict_holomorphic_witness": False, "lemma_bounds_hold": True,
                                 "theta_envelope_ok": True}


def test_forward_artifact_round_trip_is_exact(tmp_path):
    # the one writer and the one reader, through a from_forward file: signed
    # zeros in base points and fibers come back bit for bit, and so does m = 2
    from hyperapprox.extremal import Box
    from hyperapprox.sets_metrics import SampledCompact

    points = np.array([[complex(-0.0, -0.0), complex(1.0, -0.0)], [0.5, complex(-0.0, 2.0)]])
    base = SampledCompact(points, mesh=0.25, shape=Box(((-1.0, 1.0), (0.0, 2.0))))
    fibers = np.array([[complex(1.0, -0.0), -1.0], [complex(0.5, -0.0), complex(2.0, 1e-300)]])
    assert np.signbit(fibers.imag).tolist() == [[True, False], [True, False]]
    target = Multigraph(base, fibers, 2)
    path = tmp_path / "results.json"
    path.write_text(json.dumps(_multigraphs_json(target, [(3, -fibers), (4, fibers)])))
    limit, w_seq, d_values = _read_forward(str(path))
    assert d_values == [3, 4] and limit.n == 2 and limit.base.mesh == 0.25
    for got, want in ((limit.base.points, points), (limit.fibers, fibers),
                      (w_seq[0].fibers, -fibers), (w_seq[1].fibers, fibers)):
        assert got.shape == want.shape
        for part in ("real", "imag"):
            a, b = getattr(got, part), getattr(want, part)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("cfg", [
    FORWARD_CFG,
    dict(FORWARD_CFG, shape=_BOX, samples=49, d_range=[0, 5]),
], ids=["m1", "m2"])
def test_forward_artifact_layout(tmp_path, cfg):
    # the keys and nesting of results.json that bench/workloads.py reads
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert set(results) == {"config", "checks", "fits", "records", "target_multigraph",
                            "approximant_multigraphs"}
    assert set(results["fits"]) == {"delta", "graph_dh", "coefficients"}
    target = results["target_multigraph"]
    assert set(target) == {"m", "points", "mesh", "n", "fibers", "flagged"}
    m, n = target["m"], target["n"]
    assert (m, n) == (len(cfg["shape"].get("intervals", [0])), 2)
    count = len(target["points"])
    assert all(len(row) == 2 * m and all(type(v) is float for v in row) for row in target["points"])
    if m == 1:  # row i is [re x_i, im x_i]
        assert [row[0] for row in target["points"]] == np.linspace(-1.0, 1.0, count).tolist()
        assert {row[1] for row in target["points"]} == {0.0}
    degrees = [r["d"] for r in results["records"]]
    assert [e["d"] for e in results["approximant_multigraphs"]] == degrees
    for entry in [target] + results["approximant_multigraphs"]:
        fibers = entry["fibers"]
        assert len(fibers) == count
        assert all(len(f) == n and all(len(p) == 2 for p in f) for f in fibers)
    assert set(results["approximant_multigraphs"][-1]) == {"d", "fibers"}
    assert type(results["records"][-1]["delta"]) is float
    assert all(r["rank"] == r["basis_dim"] for r in results["records"])


def test_forward_flagged_point_exits_3(tmp_path, monkeypatch, capsys):
    # a root-solver flag fails a named check; the artifact is still written,
    # and converse refuses its flagged target
    solve = forward.solve_monic_batch

    def flag_row_3(coeffs):
        roots, res, iterations, tol_used, converged = solve(coeffs)
        converged = converged.copy()
        converged[3] = False
        return roots, res, iterations, tol_used, converged

    monkeypatch.setattr(forward, "solve_monic_batch", flag_row_3)
    out = tmp_path / "fwd"
    with pytest.warns(RuntimeWarning, match="flagged 1 sample point"):
        assert main(["run", _write_cfg(tmp_path, FORWARD_CFG), "--out", str(out)]) == 3
    results = json.loads((out / "results.json").read_text())
    assert "flagged" not in results
    assert [k for k, ok in results["checks"].items() if not ok] == ["no_flagged_points"]
    assert results["target_multigraph"]["flagged"] == [3]
    assert {r["flagged_count"] for r in results["records"]} == {1}
    cfg = {"command": "converse", "from_forward": str(out / "results.json")}
    capsys.readouterr()
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "conv")]) == 2
    assert "flagged" in capsys.readouterr().err


def test_forward_rank_loss_exits_3(tmp_path, monkeypatch):
    # a rank-deficient fit fails a named check; the artifact is still written
    fit = forward.least_squares

    def lose_one_rank(samples, points, degrees):
        return tuple(tuple(dataclasses.replace(r, rank=r.rank - 1) for r in fits)
                     for fits in fit(samples, points, degrees))

    monkeypatch.setattr(forward, "least_squares", lose_one_rank)
    out = tmp_path / "fwd"
    assert main(["run", _write_cfg(tmp_path, FORWARD_CFG), "--out", str(out)]) == 3
    results = json.loads((out / "results.json").read_text())
    assert "flagged" not in results
    assert [k for k, ok in results["checks"].items() if not ok] == ["full_rank"]
    assert all(r["rank"] == r["basis_dim"] - 1 == r["d"] for r in results["records"])
    assert (out / "rates.csv").is_file()


# ---------------------------------------------------------------------------
# every named check can fail: each row makes exactly the named checks false,
# through an input or through a patched layer that the checks guard


def _patch_calls(module, name, change):
    """A row set-up that routes each result of module.name through
    change(i, result), i counting the calls from 0."""
    def setup(tmp_path, monkeypatch):
        real, calls = getattr(module, name), itertools.count()
        monkeypatch.setattr(module, name, lambda *a, **k: change(next(calls), real(*a, **k)))
    return setup


def _envelope_breach_file(tmp_path):
    """A forward artifact whose fibers r1 + e_d, r2 - e_d + f_d close in at
    rate 1/2 while a_1's error f_d decays at rate 0.9: the Vieta bounds hold,
    every fit is geometric, and a_1's theta leaves delta's envelope."""
    K = sample_segment(-1.0, 1.0, 21)
    r = 1.0 + 0.25 * K.points[:, 0].real
    limit = Multigraph(K, np.column_stack([-r, r]), 2)
    seq = []
    for d in range(1, 13):
        e, f = 0.1 * 0.5 ** d, 0.1 * 0.5 ** 12 * 0.9 ** d
        seq.append((d, np.column_stack([-r - e + f, r + e])))
    path = tmp_path / "envelope.json"
    path.write_text(json.dumps(_multigraphs_json(limit, seq)))
    return str(path)


_POLE_CFG = dict(FORWARD_CFG, samples=401, fiber_degree=1, d_range=[2, 14], coefficients=[
    {"op": "inv", "args": [{"op": "add", "args": [{"op": "coord", "args": [0]},
                                                  {"op": "const", "args": [-1.0001, 0.0]}]}]}])
_STAIRCASE_CFG = {"command": "counterexample", "k_max": 8}
_CLOSURE_CFG = {"command": "closure-demo", "nu_list": [10.0, 100.0, 1000.0]}
_STICK = np.column_stack([np.zeros(101), np.linspace(-0.5, 0.5, 101)]).astype(complex)


@pytest.mark.parametrize("cfg, setup, failing", [
    pytest.param(FORWARD_CFG, _patch_calls(forward, "fiberwise_hausdorff",
                                           lambda i, r: DeltaResult(r.delta, 1.5 * r.delta)),
                 ["graph_dh_le_delta"], id="graph_dh_le_delta"),
    # the coefficient has a pole 1e-4 beyond K: far too slow to read as geometric
    pytest.param(_POLE_CFG, None, ["delta_rate_geometric"], id="delta_rate_geometric"),
    # delta decays at 0.6, slower than the coefficients' theta ~ 0.08 allows
    pytest.param(FORWARD_CFG, _patch_calls(forward, "fiberwise_hausdorff",
                                           lambda i, r: DeltaResult(0.6 ** i, r.graph_dh)),
                 ["rate_chain"], id="rate_chain"),
    # graph_dh stays below delta but decays four times slower per degree
    pytest.param(FORWARD_CFG, _patch_calls(forward, "fiberwise_hausdorff",
                                           lambda i, r: DeltaResult(r.delta, r.delta * 4.0 ** (i - 7))),
                 ["graph_rate_le_delta_rate"], id="graph_rate_le_delta_rate"),
    # matched distances 1000 times too small: the Vieta errors exceed D_k r
    pytest.param({"command": "converse"}, _patch_calls(converse, "match_bottlenecks",
                                                       lambda i, r: 1e-3 * r),
                 ["lemma_bounds_hold"], id="lemma_bounds_hold"),
    pytest.param({"command": "converse", "from_forward": _envelope_breach_file}, None,
                 ["theta_envelope_ok"], id="theta_envelope_ok"),
    pytest.param(_STAIRCASE_CFG, _patch_calls(demos, "fiberwise_hausdorff",
                                              lambda i, r: DeltaResult(r.delta, 10.0 * r.graph_dh)),
                 ["graph_dh_bound"], id="graph_dh_bound"),
    pytest.param(_STAIRCASE_CFG, _patch_calls(demos, "fiberwise_hausdorff",
                                              lambda i, r: DeltaResult(r.delta, 1e-4)),
                 ["graph_rate_geometric"], id="graph_rate_geometric"),
    # on k = 2..5 the fit reads the algebraic 1/(2k^2) as geometric
    pytest.param(dict(_STAIRCASE_CFG, k_max=5), None, ["sup_rate_not_geometric"],
                 id="sup_rate_not_geometric"),
    # two rows per fit: too few to decide either verdict
    pytest.param(dict(_STAIRCASE_CFG, k_max=3), None,
                 ["graph_rate_geometric", "sup_rate_not_geometric"], id="k_max-3"),
    # a parabola this flat stays far from the limit lines
    pytest.param(dict(_CLOSURE_CFG, nu_list=[10.0]), None, ["kuratowski_cond1"],
                 id="kuratowski_cond1"),
    # every member also holds the witness stick at x = 0
    pytest.param(_CLOSURE_CFG, _patch_calls(demos, "_parabola_points",
                                            lambda i, pts: np.vstack([pts, _STICK])),
                 ["kuratowski_cond2"], id="kuratowski_cond2"),
    # the parabola t = x^2 - 1/4 crosses the witness and misses the lines
    pytest.param(dict(_CLOSURE_CFG, nu_list=[1.0]), None,
                 ["kuratowski_cond1", "kuratowski_cond2"], id="nu-1"),
])
def test_named_check_fails(tmp_path, monkeypatch, forward_results, cfg, setup, failing):
    # no_flagged_points, full_rank and verdict_holomorphic_witness have their
    # rows above; this table covers every other named check
    if cfg["command"] == "converse":
        source = cfg.get("from_forward", lambda _: forward_results)
        cfg = dict(cfg, from_forward=source(tmp_path))
    if setup is not None:
        setup(tmp_path, monkeypatch)
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    results = json.loads((out / "results.json").read_text())
    assert "flagged" not in results
    assert sorted(k for k, ok in results["checks"].items() if not ok) == failing


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("via", ["--out", "out_dir"])
def test_uncreatable_out_dir_exits_2(tmp_path, capsys, via):
    # an output directory under a regular file cannot be created
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")
    cfg = dict(_EXTREMAL, out_dir=out) if via == "out_dir" else _EXTREMAL
    flags = ["--out", out] if via == "--out" else []
    assert main(["run", _write_cfg(tmp_path, cfg), *flags]) == 2
    assert f"output directory {out}" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path):
    # slow synthetic distance data: converse hypothesis fails -> exit 3 with
    # flagged partial artifacts
    fwd_out = tmp_path / "fwd"
    assert main(["run", _write_cfg(tmp_path, FORWARD_CFG), "--out", str(fwd_out)]) == 0
    data = json.loads((fwd_out / "results.json").read_text())
    # corrupt the stored multigraphs so the sequence stops converging
    first = data["approximant_multigraphs"][0]["fibers"]
    for entry in data["approximant_multigraphs"]:
        entry["fibers"] = first
    (fwd_out / "results.json").write_text(json.dumps(data))
    cfg = {"command": "converse", "from_forward": str(fwd_out / "results.json")}
    cfg_path = tmp_path / "converse.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "conv"
    code = main(["run", str(cfg_path), "--out", str(out)])
    assert code == 3
    results = json.loads((out / "results.json").read_text())
    assert results.get("flagged") is True


def test_converse_ragged_fibers_exit_2(tmp_path, capsys):
    # one stored fiber loses a root: rejected at the input boundary, naming the file
    fwd_out = tmp_path / "fwd"
    assert main(["run", _write_cfg(tmp_path, FORWARD_CFG), "--out", str(fwd_out)]) == 0
    results_path = fwd_out / "results.json"
    data = json.loads(results_path.read_text())
    data["approximant_multigraphs"][2]["fibers"][17].pop()
    results_path.write_text(json.dumps(data))
    cfg = {"command": "converse", "from_forward": str(results_path)}
    cfg_path = tmp_path / "converse.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "conv")]) == 2
    assert str(results_path) in capsys.readouterr().err


def test_converse_malformed_multigraph_file_exit_2(forward_results, tmp_path, capsys):
    data = json.loads(Path(forward_results).read_text())
    entry = data["approximant_multigraphs"][-1]
    entry["fibers"] = [[re for re, _im in fiber] for fiber in entry["fibers"]]  # bare numbers
    bad_path = tmp_path / "results.json"
    bad_path.write_text(json.dumps(data))
    cfg = {"command": "converse", "from_forward": str(bad_path)}
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    assert str(bad_path) in capsys.readouterr().err


def _ragged_target(data):
    data["target_multigraph"]["fibers"][17].pop()


def _triple_pairs(data):
    for fiber in data["approximant_multigraphs"][0]["fibers"]:
        for pair in fiber:
            pair.append(0.0)


def _fiber_count_unlike_base(data):
    data["approximant_multigraphs"][2]["fibers"].pop()


def _wide_points(data):
    for row in data["target_multigraph"]["points"]:
        row.append(0.0)


@pytest.mark.parametrize("corrupt, message", [
    (_ragged_target, "no valid multigraph data"),  # numpy words the ragged-list error
    (_triple_pairs, "[re, im] pairs"),
    (_fiber_count_unlike_base, "per base sample point"),
    (_wide_points, "rows of 2m = 2 numbers"),
], ids=["ragged-target", "triple", "fiber-shape", "points-width"])
def test_converse_malformed_forward_file_exits_2(forward_results, tmp_path, capsys, corrupt, message):
    data = json.loads(Path(forward_results).read_text())
    corrupt(data)
    bad_path = tmp_path / "results.json"
    bad_path.write_text(json.dumps(data))
    cfg = {"command": "converse", "from_forward": str(bad_path)}
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(bad_path) in err and message in err


def _nan_target_fiber(data):
    data["target_multigraph"]["fibers"][17][0][1] = float("nan")


def _nan_approximant_fiber(data):
    data["approximant_multigraphs"][-1]["fibers"][17][1][0] = float("nan")


def _nan_base_point(data):
    data["target_multigraph"]["points"][17][0] = float("nan")


def _flagged_target(data):
    data["target_multigraph"]["flagged"] = [17]


@pytest.mark.parametrize("corrupt, word", [
    (_nan_target_fiber, "finite"), (_nan_approximant_fiber, "finite"), (_nan_base_point, "finite"),
    (_flagged_target, "flagged"),
], ids=["target-fiber", "approximant-fiber", "base-point", "flagged-target"])
def test_converse_non_finite_input_exits_2(forward_results, tmp_path, capsys, corrupt, word):
    # a NaN or a flagged target point read from the forward output is bad
    # input, not a failed hypothesis
    data = json.loads(Path(forward_results).read_text())
    corrupt(data)
    results_path = tmp_path / "results.json"
    results_path.write_text(json.dumps(data))
    cfg = {"command": "converse", "from_forward": str(results_path)}
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(results_path) in err
    assert word in err


@pytest.fixture(scope="module")
def forward_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("fwd")
    assert run(ExperimentConfig.from_json(FORWARD_CFG), str(out)) == 0
    return str(out / "results.json")


def test_converse_empty_input_exits_2(forward_results, tmp_path, capsys):
    data = json.loads(Path(forward_results).read_text())
    data["approximant_multigraphs"] = []
    results_path = tmp_path / "results.json"
    results_path.write_text(json.dumps(data))
    cfg = {"command": "converse", "from_forward": str(results_path)}
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert str(results_path) in capsys.readouterr().err
    assert not (out / "results.json").exists()


def test_converse_rejects_forward_fields(forward_results, tmp_path, capsys):
    cfg = {"command": "converse", "from_forward": forward_results, "mode": "bogus", "samples": 3}
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    assert "unknown field" in capsys.readouterr().err
    for field in ("shape", "samples", "fiber_degree", "coefficients", "d_range", "mode"):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_json({"command": "converse", "from_forward": "x", field: None})


def test_poly_coefficient_with_bad_scale_exits_2(tmp_path, capsys):
    poly = {"m": 1, "terms": [[[1], [1.0, 0.0]]], "center": [[10.0, 0.0]], "scale": [0.0]}
    cfg = dict(FORWARD_CFG, coefficients=[{"op": "const", "args": [0.0, 0.0]},
                                          {"op": "poly", "args": [poly]}])
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    assert "coefficients" in capsys.readouterr().err


def _exp_config(a: float, b: float) -> dict:
    """Forward t^2 - exp(x - c) on 401 points of [a, b], c the midpoint, d = 2..20."""
    shifted = {"op": "add", "args": [{"op": "coord", "args": [0]},
                                     {"op": "const", "args": [-(a + b) / 2.0, 0.0]}]}
    return dict(FORWARD_CFG, shape={"kind": "segment", "a": [a, 0.0], "b": [b, 0.0]},
                samples=401, d_range=[2, 20],
                coefficients=[{"op": "const", "args": [0.0, 0.0]},
                              {"op": "neg", "args": [{"op": "exp", "args": [shifted]}]}])


def test_translated_segment_matches_unit_segment(tmp_path):
    from hyperapprox.algebra import Pseudopolynomial

    runs = {}
    for a, b in ((-1.0, 1.0), (9.0, 11.0)):
        fwd, conv = tmp_path / f"fwd{a}", tmp_path / f"conv{a}"
        assert main(["run", _write_cfg(tmp_path, _exp_config(a, b)), "--out", str(fwd)]) == 0
        cfg = {"command": "converse", "from_forward": str(fwd / "results.json")}
        assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(conv)]) == 0
        runs[a] = [json.loads((d / "results.json").read_text()) for d in (fwd, conv)]
    (fwd_u, conv_u), (fwd_t, conv_t) = runs[-1.0], runs[9.0]
    assert fwd_t["fits"]["delta"]["verdict"] == "geometric"
    assert conv_t["verdict"] == "holomorphic-witness"
    thetas = [
        (fwd["fits"]["delta"]["theta"], *[f["theta"] for f in fwd["fits"]["coefficients"]],
         *[f["theta"] for f in conv["coefficient_fits"]])
        for fwd, conv in ((fwd_u, conv_u), (fwd_t, conv_t))
    ]
    assert thetas[0] == pytest.approx(thetas[1], abs=1e-3)
    assert abs(thetas[1][0] - 0.0740) <= 1e-3
    # the reconstructed witness loads back as a pseudopolynomial and
    # evaluates, on the translated base, to the unit run's values
    x = np.array(fwd_t["target_multigraph"]["points"])[:, :1]
    coeffs_t = Pseudopolynomial.from_json(conv_t["reconstructed"]).coefficients_at(x)
    coeffs_u = Pseudopolynomial.from_json(conv_u["reconstructed"]).coefficients_at(x - 10.0)
    assert np.abs(coeffs_t - coeffs_u).max() <= 1e-10
    assert np.abs(coeffs_t[:, 1] + np.exp(x[:, 0] - 10.0)).max() <= 1e-10


def _readme_configs() -> list:
    """Every config in the README's JSON blocks, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    decoder, configs = json.JSONDecoder(), []
    for block in text.split("```json\n")[1:]:
        block, pos = block.split("```")[0], 0
        while block[pos:].strip():
            pos += len(block[pos:]) - len(block[pos:].lstrip())
            cfg, pos = decoder.raw_decode(block, pos)
            configs.append(cfg)
    return configs


def test_readme_config_examples_run(tmp_path):
    configs = _readme_configs()
    assert sorted(cfg["command"] for cfg in configs) == sorted(COMMANDS)
    forward_results = tmp_path / "forward" / "results.json"
    for cfg in configs:
        if cfg["command"] == "converse":
            cfg = dict(cfg, from_forward=str(forward_results))
        out = tmp_path / cfg["command"]
        assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0, cfg["command"]
