"""The benchmark's four workloads: input generation from a seed, one pass
through the library, the correctness checks and the results fingerprint.

Each workload is split into
  * `inputs(seed)`: plain JSON data drawn from the seed (seed 0 is the
    configuration used in the paper experiments);
  * `prepare(inputs, workdir)`: library objects built from those data only;
  * `run_pass(prepared, trial_times)`: the timed call into the library
    (`hoelder-suite` also appends the time of each call to `trial_times`);
  * `outputs(result, prepared)`: the results fingerprint of one pass, read
    from the returned objects or the files the CLI wrote;
  * `checks(result, prepared, tracer)`: named checks, each marked strict or
    verdict (see README.md).
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np


def lib(name: str):
    """A hyperapprox module, imported on first use so that importing this
    module stays cheap and the set-up timing covers the library import."""
    return importlib.import_module(f"hyperapprox.{name}")


def coefficient_constants(seed: int, count: int) -> list:
    """c_i = 1 at seed 0; otherwise drawn from U[0.5, 1.5]."""
    if seed == 0:
        return [1.0] * count
    return [float(c) for c in np.random.default_rng(seed).uniform(0.5, 1.5, size=count)]


# oracle tolerance for roots against mpmath.polyroots; the library's solver
# targets a residual of 1e-12 * max(1, |a|), so well-separated roots agree to
# about 1e-10 and a relaxed row (cluster within 1e-4) to about 1e-3
ORACLE_ROOT_TOL = 1e-8
ORACLE_FIBERS = 12
ORACLE_DPS = 30


def _mp_roots(coeffs) -> np.ndarray:
    """Roots of the monic t^n + a_1 t^(n-1) + ... + a_n by mpmath."""
    with mpmath.workdps(ORACLE_DPS):
        poly = [mpmath.mpc(1)] + [mpmath.mpc(c) for c in coeffs]
        roots = mpmath.polyroots(poly, maxsteps=200, extraprec=60)
    return np.array([complex(r) for r in roots])


def _bottleneck(a, b) -> float:
    """Smallest max-distance over all pairings (n <= 8 by permutation)."""
    a, b = np.asarray(a), np.asarray(b)
    dist = np.abs(a[:, None] - b[None, :])
    rows = np.arange(a.size)
    return min(float(dist[rows, list(p)].max()) for p in itertools.permutations(range(a.size)))


def _oracle_indices(count: int) -> list:
    return sorted(set(np.linspace(0, count - 1, ORACLE_FIBERS).round().astype(int).tolist()))


def _fiber_array(json_fiber) -> np.ndarray:
    return np.array([complex(re, im) for re, im in json_fiber])


def _mp_poly(terms, x):
    """mpmath value of a polynomial given as Polynomial.terms at point x."""
    out = mpmath.mpc(0)
    for exps, coeff in terms:
        mono = mpmath.mpc(coeff)
        for xi, e in zip(x, exps):
            mono *= mpmath.mpc(xi) ** e
        out += mono
    return out


def _fit_json(fit):
    """theta and verdict of a RateFit, of its results.json form, or of a list."""
    if isinstance(fit, list):
        return [_fit_json(f) for f in fit]
    if isinstance(fit, dict):
        return {"theta": fit["theta"], "verdict": fit["verdict"]}
    return {"theta": fit.theta, "verdict": fit.verdict}


def result_bytes(prep: dict) -> int:
    """Bytes of the files the CLI wrote in the last pass (0 without the CLI)."""
    return sum(p.stat().st_size for d in prep.get("dirs", ()) for p in Path(d).iterdir()
               if p.is_file())


# ---------------------------------------------------------------------------
# forward-box: forward_rate_experiment on the 21x21 box, n = 3, d = 3..12


def forward_box_inputs(seed: int) -> dict:
    return {"c": coefficient_constants(seed, 4),
            "intervals": [[-1.0, 1.0], [-1.0, 1.0]], "per_axis": 21, "d_range": [3, 12]}


def forward_box_coefficients(c) -> list:
    """JSON trees of a_1 = sin(c1 x0 + c2 x1), a_2 = -exp(c3 x0),
    a_3 = cos(c4 x0 x1)."""
    def k(v):
        return {"op": "const", "args": [v, 0.0]}

    def x(i):
        return {"op": "coord", "args": [i]}

    def mul(*a):
        return {"op": "mul", "args": list(a)}

    return [
        {"op": "sin", "args": [{"op": "add", "args": [mul(k(c[0]), x(0)), mul(k(c[1]), x(1))]}]},
        {"op": "neg", "args": [{"op": "exp", "args": [mul(k(c[2]), x(0))]}]},
        {"op": "cos", "args": [mul(k(c[3]), x(0), x(1))]},
    ]


def forward_box_prepare(inp: dict, workdir: Path) -> dict:
    algebra, sm = lib("algebra"), lib("sets_metrics")
    coeffs = tuple(algebra.expr_from_json(e) for e in forward_box_coefficients(inp["c"]))
    F = algebra.Pseudopolynomial(3, coeffs)
    K = sm.sample_box([tuple(iv) for iv in inp["intervals"]], inp["per_axis"])
    lo, hi = inp["d_range"]
    return {"inputs": inp, "F": F, "K": K, "d_range": range(lo, hi + 1)}


def forward_box_run(prep: dict, trial_times=None):
    return lib("forward").forward_rate_experiment(prep["F"], prep["K"], prep["d_range"])


def forward_box_outputs(exp, prep: dict) -> dict:
    return {
        "delta": _fit_json(exp.delta_fit),
        "graph_dh": _fit_json(exp.graph_fit),
        "coefficients": _fit_json(list(exp.coeff_fits)),
        "last_delta": exp.records[-1].delta,
    }


def _forward_box_target_mp(c, x):
    x0, x1 = mpmath.mpf(x[0].real), mpmath.mpf(x[1].real)
    return [mpmath.sin(c[0] * x0 + c[1] * x1), -mpmath.exp(c[2] * x0), mpmath.cos(c[3] * x0 * x1)]


def forward_box_checks(exp, prep: dict, tracer) -> list:
    c = prep["inputs"]["c"]
    out = [(f"lib.{k}", bool(v), k in STRICT_LIB_CHECKS) for k, v in exp.checks.items()]
    pts = exp.K.points
    last = exp.records[-1]
    for i in _oracle_indices(exp.K.count):
        want = _mp_roots(_forward_box_target_mp(c, pts[i]))
        out.append((f"oracle.target_fiber[{i}]",
                    _bottleneck(exp.target.fibers[i], want) <= ORACLE_ROOT_TOL, True))
        approx = [_mp_poly(p.terms, pts[i]) for p in last.coeff_polys]
        got = last.fibers[i]
        out.append((f"oracle.approx_fiber[{i}]",
                    _bottleneck(got, _mp_roots(approx)) <= ORACLE_ROOT_TOL, True))
        out.append((f"oracle.delta_covers[{i}]",
                    _hausdorff_1d(got, want) <= last.delta + ORACLE_ROOT_TOL, True))
    return out


def _hausdorff_1d(a, b) -> float:
    d = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


# ---------------------------------------------------------------------------
# roundtrip-segment: CLI forward on t^2 - exp(c1 x), then CLI converse


def roundtrip_inputs(seed: int) -> dict:
    (c1,) = coefficient_constants(seed, 1)
    forward = {
        "command": "forward",
        "shape": {"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0]},
        "samples": 1601,
        "fiber_degree": 2,
        "coefficients": [
            {"op": "const", "args": [0.0, 0.0]},
            {"op": "neg", "args": [{"op": "exp", "args": [
                {"op": "mul", "args": [{"op": "const", "args": [c1, 0.0]},
                                       {"op": "coord", "args": [0]}]}]}]},
        ],
        "d_range": [2, 14],
    }
    return {"c": [c1], "forward": forward, "converse": {"command": "converse"}}


def roundtrip_prepare(inp: dict, workdir: Path) -> dict:
    cli = lib("cli")
    fwd_dir, conv_dir = workdir / "forward", workdir / "converse"
    conv = dict(inp["converse"], from_forward=str(fwd_dir / "results.json"))
    return {"inputs": inp, "dirs": (fwd_dir, conv_dir),
            "forward": cli.ExperimentConfig.from_json(inp["forward"]),
            "converse": cli.ExperimentConfig.from_json(conv)}


def roundtrip_run(prep: dict, trial_times=None):
    cli = lib("cli")
    fwd_dir, conv_dir = prep["dirs"]
    return (cli.run(prep["forward"], str(fwd_dir)), cli.run(prep["converse"], str(conv_dir)))


def _read_results(path: Path) -> dict:
    return json.loads((path / "results.json").read_text())


def roundtrip_outputs(codes, prep: dict) -> dict:
    fwd_dir, conv_dir = prep["dirs"]
    fwd, conv = _read_results(fwd_dir), _read_results(conv_dir)
    return {
        "exit_codes": list(codes),
        "forward": {k: _fit_json(v) for k, v in fwd.get("fits", {}).items()},
        "last_delta": fwd["records"][-1]["delta"] if fwd.get("records") else None,
        "converse": {"verdict": conv.get("verdict"),
                     "coefficients": _fit_json(conv.get("coefficient_fits", []))},
    }


def roundtrip_checks(codes, prep: dict, tracer) -> list:
    fwd_dir, conv_dir = prep["dirs"]
    fwd, conv = _read_results(fwd_dir), _read_results(conv_dir)
    out = [("cli.forward_exit_0", codes[0] == 0, False),
           ("cli.converse_exit_0", codes[1] == 0, False),
           ("cli.forward_not_flagged", "flagged" not in fwd, True),
           ("cli.converse_not_flagged", "flagged" not in conv, True)]
    out += [(f"lib.forward.{k}", bool(v), k in STRICT_LIB_CHECKS) for k, v in fwd.get("checks", {}).items()]
    result = tracer.captured.get("converse.converse_experiment")
    out.append(("lib.converse.verdict", conv.get("verdict") == "holomorphic-witness", False))
    if result is not None:
        out += [(f"lib.converse.lemma_ok[{i}]", bool(ok), True) for i, ok in enumerate(result.lemma_ok)]
        out.append(("lib.converse.theta_envelope_ok", bool(result.theta_envelope_ok), False))
    else:
        out.append(("lib.converse.completed", False, True))
    (c1,) = prep["inputs"]["c"]
    if "target_multigraph" in fwd:
        base = fwd["target_multigraph"]["points"]
        last = fwd["approximant_multigraphs"][-1]["fibers"]
        delta = fwd["records"][-1]["delta"]
        for i in _oracle_indices(len(base)):
            x = mpmath.mpf(base[i][0])
            want = _mp_roots([0, -mpmath.exp(c1 * x)])
            got = _fiber_array(fwd["target_multigraph"]["fibers"][i])
            out.append((f"oracle.target_fiber[{i}]", _bottleneck(got, want) <= ORACLE_ROOT_TOL, True))
            out.append((f"oracle.delta_covers[{i}]",
                        _hausdorff_1d(_fiber_array(last[i]), want) <= delta + ORACLE_ROOT_TOL, True))
    else:
        out.append(("oracle.multigraphs_stored", False, True))
    return out


# ---------------------------------------------------------------------------
# hoelder-suite: 2000 hoelder_check calls, 400 per n = 2..6


HOELDER_C = 2.0
HOELDER_PER_N = 400
HOELDER_ORACLE_EVERY = 50


def _draw_bounded(rng, n: int, C: float) -> list:
    out = []
    while len(out) < n:
        z = complex(rng.uniform(-C, C), rng.uniform(-C, C))
        if abs(z) <= C:
            out.append(z)
    return out


def hoelder_inputs(seed: int) -> dict:
    """Trials of the criterion-1 generator: even trials draw an independent
    pair, odd trials perturb a at scale 10^U(-6, 0); all |coeff| <= C."""
    rng = np.random.default_rng(seed)
    trials = []
    for n in range(2, 7):
        for trial in range(HOELDER_PER_N):
            a = _draw_bounded(rng, n, HOELDER_C)
            if trial % 2 == 0:
                b = _draw_bounded(rng, n, HOELDER_C)
            else:
                scale = 10.0 ** rng.uniform(-6, 0)
                while True:
                    pert = (rng.normal(size=n) + 1j * rng.normal(size=n)) * scale
                    b = [ai + p for ai, p in zip(a, pert)]
                    if max(abs(z) for z in b) <= HOELDER_C:
                        break
            trials.append({"a": [[z.real, z.imag] for z in a], "b": [[z.real, z.imag] for z in b]})
    return {"C": HOELDER_C, "trials": trials}


def hoelder_prepare(inp: dict, workdir: Path) -> dict:
    pairs = [(np.array([complex(*z) for z in t["a"]]), np.array([complex(*z) for z in t["b"]]))
             for t in inp["trials"]]
    return {"inputs": inp, "C": inp["C"], "pairs": pairs}


def hoelder_run(prep: dict, trial_times: list | None = None):
    """One pass; appends the seconds of each hoelder_check call to trial_times."""
    check = lib("roots").hoelder_check
    C = prep["C"]
    reports = []
    for a, b in prep["pairs"]:
        t0 = time.perf_counter()
        rep = check(a, b, C)
        t1 = time.perf_counter()
        reports.append(rep)
        if trial_times is not None:
            trial_times.append(t1 - t0)
    return reports


def hoelder_outputs(reports, prep: dict) -> dict:
    ratios = [r.ratio for r in reports]
    return {"passed": sum(r.passed for r in reports), "ratio_max": max(ratios),
            "ratio_sum": float(np.sum(ratios)), "tol_relaxed": sum(r.tol_used > 1e-12 for r in reports)}


def hoelder_checks(reports, prep: dict, tracer) -> list:
    out = [(f"lib.hoelder_passed[{i}]", r.passed, True) for i, r in enumerate(reports)]
    C = prep["C"]
    solve = lib("roots").solve_monic
    for i in range(0, len(reports), HOELDER_ORACLE_EVERY):
        a, b = prep["pairs"][i]
        ra, rb = _mp_roots(a), _mp_roots(b)
        n = a.size
        lhs = _bottleneck(ra, rb)
        rhs = 4.0 * n * C * float(np.abs(a - b).max()) ** (1.0 / n)
        out.append((f"oracle.hoelder_bound[{i}]", lhs <= rhs, True))
        out.append((f"oracle.roots_a[{i}]", _bottleneck(solve(a).roots, ra) <= ORACLE_ROOT_TOL, True))
        out.append((f"oracle.lhs_agrees[{i}]",
                    abs(lhs - float(reports[i].lhs.max())) <= ORACLE_ROOT_TOL, True))
    return out


# ---------------------------------------------------------------------------
# counterexamples: CLI staircase table, then CLI closure demo (seed unused)


def counterexamples_inputs(seed: int) -> dict:
    return {"counterexample": {"command": "counterexample", "k_max": 8, "mesh": 2.0 ** -14},
            "closure": {"command": "closure-demo", "nu_list": [10.0, 100.0, 1000.0]}}


def counterexamples_prepare(inp: dict, workdir: Path) -> dict:
    cli = lib("cli")
    return {"inputs": inp, "dirs": (workdir / "counterexample", workdir / "closure"),
            "counterexample": cli.ExperimentConfig.from_json(inp["counterexample"]),
            "closure": cli.ExperimentConfig.from_json(inp["closure"])}


def counterexamples_run(prep: dict, trial_times=None):
    cli = lib("cli")
    stair_dir, closure_dir = prep["dirs"]
    return (cli.run(prep["counterexample"], str(stair_dir)),
            cli.run(prep["closure"], str(closure_dir)))


def _staircase_rows(stair_dir: Path) -> list:
    path = stair_dir / "rates.csv"
    if not path.is_file():  # the run failed; its flagged results.json says why
        return []
    lines = path.read_text().split()
    header = lines[0].split(",")
    return [dict(zip(header, (float(v) for v in line.split(",")))) for line in lines[1:]]


def counterexamples_outputs(codes, prep: dict) -> dict:
    stair_dir, closure_dir = prep["dirs"]
    stair, closure = _read_results(stair_dir), _read_results(closure_dir)
    return {
        "exit_codes": list(codes),
        "staircase": [{"k": int(r["k"]), "graph_dh": r["graph_dh"], "c_est": r["c_est"]}
                      for r in _staircase_rows(stair_dir)],
        "fits": {k: _fit_json(v) for k, v in stair.get("fits", {}).items()},
        "closure_per_step_sup": closure.get("per_step_sup"),
    }


def counterexamples_checks(codes, prep: dict, tracer) -> list:
    stair_dir, closure_dir = prep["dirs"]
    stair, closure = _read_results(stair_dir), _read_results(closure_dir)
    out = [("cli.counterexample_exit_0", codes[0] == 0, False),
           ("cli.closure_exit_0", codes[1] == 0, False),
           ("cli.counterexample_not_flagged", "flagged" not in stair, True),
           ("cli.closure_not_flagged", "flagged" not in closure, True)]
    out += [(f"lib.counterexample.{k}", bool(v), k in STRICT_LIB_CHECKS)
            for k, v in stair.get("checks", {}).items()]
    out += [(f"lib.closure.{k}", bool(v), False) for k, v in closure.get("checks", {}).items()]
    mesh = prep["inputs"]["counterexample"]["mesh"]
    for row in _staircase_rows(stair_dir):
        k = int(row["k"])
        out.append((f"exact.sup_norm[k={k}]", row["sup_norm"] == 1.0 / (2.0 * k * k), True))
        out.append((f"exact.graph_dh_bound[k={k}]", row["graph_dh"] <= 0.5 ** k + 2.0 * mesh, True))
    return out


# library checks that hold for every input (theorems or exact identities);
# the others are rate verdicts fitted on finite data
STRICT_LIB_CHECKS = {"graph_dh_le_delta", "degree_bound", "sup_norm_k2", "graph_dh_bound"}


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable
    prepare: Callable
    run_pass: Callable
    outputs: Callable
    checks: Callable
    per_call_trials: bool = False


WORKLOADS = {
    "forward-box": Workload("forward-box", forward_box_inputs, forward_box_prepare,
                            forward_box_run, forward_box_outputs,
                            forward_box_checks),
    "roundtrip-segment": Workload("roundtrip-segment", roundtrip_inputs, roundtrip_prepare,
                                  roundtrip_run, roundtrip_outputs, roundtrip_checks),
    "hoelder-suite": Workload("hoelder-suite", hoelder_inputs, hoelder_prepare,
                              hoelder_run, hoelder_outputs,
                              hoelder_checks, per_call_trials=True),
    "counterexamples": Workload("counterexamples", counterexamples_inputs,
                                counterexamples_prepare, counterexamples_run,
                                counterexamples_outputs, counterexamples_checks),
}
