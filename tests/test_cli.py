import json

import pytest

from hyperapprox.cli import ConfigError, ExperimentConfig, main, run

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


def test_config_round_trip():
    cfg = ExperimentConfig.from_json(FORWARD_CFG)
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_rejects_unknown_field():
    bad = dict(FORWARD_CFG, meshiness=3)
    with pytest.raises(ConfigError, match="meshiness"):
        ExperimentConfig.from_json(bad)


def test_config_rejects_unknown_command():
    with pytest.raises(ConfigError, match="command"):
        ExperimentConfig.from_json({"command": "frobnicate"})


def test_invalid_shape_exits_2(tmp_path, capsys):
    cfg = dict(FORWARD_CFG, shape={"kind": "annulus", "radius": 1.0})
    code = main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "shape" in capsys.readouterr().err


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


def test_scalar_run(tmp_path):
    cfg = {
        "command": "scalar-bws",
        "shape": {"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0]},
        "samples": 201,
        "function": {"op": "exp", "args": [{"op": "coord", "args": [0]}]},
        "d_range": [0, 10],
    }
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["fit"]["verdict"] == "geometric"


def test_closure_run(tmp_path):
    cfg = {"command": "closure-demo", "nu_list": [10.0, 100.0, 1000.0], "box_height": 2.0}
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    growth = (out / "fiber_growth.csv").read_text().strip().splitlines()
    counts = [int(line.split(",")[1]) for line in growth[1:]]
    assert counts[0] < counts[1] < counts[2]


def test_extremal_run(tmp_path):
    cfg = {"command": "extremal", "shape": {"kind": "disc", "center": [0.0, 0.0], "radius": 1.0},
           "grid_step": 0.1, "h": 0.25}
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["checks"]["phi_ge_1"]


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


def test_converse_run_from_multigraph_files(tmp_path):
    import numpy as np

    from hyperapprox.algebra import Const, Polynomial, Pseudopolynomial
    from hyperapprox.forward import forward_rate_experiment
    from hyperapprox.sets_metrics import Multigraph, sample_segment

    K = sample_segment(-1.0, 1.0, 101)
    a2 = Polynomial.from_coeffs_1d([-2.0, -1.0])  # t^2 - (x + 2)
    F = Pseudopolynomial(2, (Const(0.0), a2))
    exp = forward_rate_experiment(F, K, range(1, 9))
    limit_path = tmp_path / "limit.json"
    limit_path.write_text(json.dumps(exp.target.to_json()))
    paths = []
    for r in exp.records:
        pth = tmp_path / f"w{r.d}.json"
        pth.write_text(json.dumps(Multigraph(K, r.fibers, 2).to_json()))
        paths.append(str(pth))
    cfg = {"command": "converse", "multigraph_paths": paths, "limit_path": str(limit_path), "n": 2}
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["verdict"] == "holomorphic-witness"


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_mesh_flag_overrides_config(tmp_path):
    cfg = {"command": "counterexample", "k_max": 8, "mesh": 2.0 ** -11}
    out = tmp_path / "out"
    code = main(["run", _write_cfg(tmp_path, cfg), "--out", str(out), "--mesh", str(2.0 ** -12)])
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert results["config"]["mesh"] == 2.0 ** -12


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


def test_converse_malformed_multigraph_file_exit_2(tmp_path, capsys):
    from hyperapprox.sets_metrics import Multigraph, SampledCompact

    base = SampledCompact([[0.0], [1.0]], mesh=0.5, ambient_diam=1.0)
    limit = Multigraph(base, [[1.0, -1.0], [2.0, -2.0]], 2).to_json()
    limit_path = tmp_path / "limit.json"
    limit_path.write_text(json.dumps(limit))
    bad = dict(limit, fibers=[[1.0, -1.0], [2.0, -2.0]])  # bare numbers, not [re, im]
    bad_path = tmp_path / "w1.json"
    bad_path.write_text(json.dumps(bad))
    cfg = {"command": "converse", "multigraph_paths": [str(bad_path)], "limit_path": str(limit_path)}
    assert main(["run", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    assert str(bad_path) in capsys.readouterr().err
