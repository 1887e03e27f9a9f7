"""Experiment runner: validates a JSON config, executes one of the pipelines,
and writes deterministic JSON / CSV / plot-data artifacts.

One table, `_COMMANDS`, names each command's runner and its fields with
their defaults.  A runner writes its CSVs and returns its results.json
payload, with its named checks where it has any; `run` adds the config
echo, writes results.json and decides the exit code.  Forward's multigraphs
go into its results.json through one writer, and converse reads them back
through one reader, its only input.

Exit codes: 0 when every named check in results.json holds, 2 for config
validation errors, 3 when a check fails or on a numerical failure (partial
artifacts are kept with a "flagged" marker).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import Pseudopolynomial, check_num_vars, expr_from_json
from .chebyshev import basis_dimension, scalar_bws_rate
from .converse import converse_experiment
from .demos import closure_failure_demo, counterexample_rates
from .extremal import shape_from_json
from .forward import forward_rate_experiment
from .sets_metrics import (
    Multigraph,
    SampledCompact,
    degree_list,
    fit_geometric_rate,
    sample_box,
    sample_disc,
    sample_polydisc,
    sample_segment,
)

__all__ = ["ExperimentConfig", "ConfigError", "run", "main"]


class ConfigError(ValueError):
    pass


_REQUIRED = object()  # a field default: the config must set the field


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config: the command, its output directory, and `fields`,
    every field of the command with the table's default where the config
    does not set it."""

    command: str
    fields: dict
    out_dir: str = "results"

    def to_json(self) -> dict:
        echo = {"command": self.command, "out_dir": self.out_dir, **self.fields}
        return {key: value for key, value in echo.items() if value is not None}

    @staticmethod
    def from_json(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        command = data.get("command")
        if type(command) is not str or command not in _COMMANDS:
            raise ConfigError(f"field 'command' must be one of {COMMANDS}, got {command!r}")
        defaults = _COMMANDS[command][1]
        for key in data:
            if key not in defaults and key not in ("command", "out_dir"):
                raise ConfigError(f"unknown field {key!r} for command {command!r}")
        for key, default in defaults.items():
            if default is _REQUIRED and data.get(key) is None:
                raise ConfigError(f"field {key!r} is required for command {command!r}")
        out_dir = data.get("out_dir", "results")
        if type(out_dir) is not str:
            raise ConfigError(f"field 'out_dir' must be a path string, got {out_dir!r}")
        fields = {key: data.get(key, default) for key, default in defaults.items()}
        return ExperimentConfig(command, fields, out_dir)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _write_rates(out: Path, header, rows, plotted):
    """rates.csv, and plot_data.csv: the first column against log10 of the
    plotted columns, each clamped to 1e-300 so a zero error stays finite."""
    _write_csv(out / "rates.csv", header, rows)
    cols = [header.index(name) for name in plotted]
    _write_csv(out / "plot_data.csv", [header[0], *(f"log10_{name}" for name in plotted)],
               [[row[0], *(math.log10(max(row[i], 1e-300)) for i in cols)] for row in rows])


def _number(field: str, value, *, above=-math.inf, at_least=-math.inf, at_most=math.inf,
            integer: bool = False):
    """value if it is a finite number (an int when integer) with value > above
    and at_least <= value <= at_most; otherwise a ConfigError naming field."""
    ok = type(value) is int or (not integer and type(value) is float and math.isfinite(value))
    if not (ok and above < value and at_least <= value <= at_most):
        bounds = " and ".join(f"{op} {b:.6g}" for op, b in
                              ((">", above), (">=", at_least), ("<=", at_most)) if math.isfinite(b))
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"field {field!r} must be {kind} {bounds}, got {value!r}")
    return value


def _parse_shape(cfg: dict):
    try:
        return shape_from_json(cfg["shape"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"field 'shape' is invalid: {exc}") from exc


def _build_compact(cfg: dict) -> SampledCompact:
    shape = _parse_shape(cfg)
    samples = _number("samples", cfg["samples"], at_least=2, integer=True)
    kind = cfg["shape"]["kind"]
    if kind == "segment":
        return sample_segment(shape.a, shape.b, samples)
    if kind == "box":
        per_axis = max(3, int(round(samples ** (1.0 / len(shape.intervals)))))
        return sample_box(shape.intervals, per_axis)
    grid_n = max(5, int(math.sqrt(samples)))
    if kind == "disc":
        return sample_disc(shape.center, shape.radius, grid_n)
    return sample_polydisc(shape.radii, grid_n)


def _rate_fit_json(fit) -> dict:
    return {
        "M": fit.M,
        "theta": fit.theta,
        "residual": fit.residual if fit.residual == fit.residual else None,
        "verdict": fit.verdict,
        "limsup_proxy": fit.limsup_proxy,
        "floor": fit.floor,
        "n_used": fit.n_used,
    }


def _parse_expr(field: str, data, m: int):
    """The coefficient function in data, checked to be a function on C^m."""
    try:
        fn = expr_from_json(data)
        check_num_vars(fn, m)
        return fn
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"field {field!r} is invalid: {exc}") from exc


def _parse_pseudopolynomial(cfg: dict, m: int) -> Pseudopolynomial:
    n = _number("fiber_degree", cfg["fiber_degree"], at_least=1, integer=True)
    if type(cfg["coefficients"]) is not list or len(cfg["coefficients"]) != n:
        raise ConfigError(f"field 'coefficients' must list exactly fiber_degree={n} entries")
    coeffs = tuple(_parse_expr("coefficients", c, m) for c in cfg["coefficients"])
    return Pseudopolynomial(n, coeffs)


def _d_list(cfg: dict, K: SampledCompact, top_at_least: int = 0) -> list:
    d = cfg["d_range"]
    if type(d) is not list or any(type(x) is not int or x < 0 for x in d):
        raise ConfigError(f"field 'd_range' must list nonnegative integer degrees, got {d!r}")
    if len(d) == 2 and d[0] < d[1]:
        d = range(d[0], d[1] + 1)
    try:
        d_list = degree_list(d, top_at_least)
    except ValueError as exc:
        raise ConfigError(f"field 'd_range' is invalid: {exc}") from exc
    dim = basis_dimension(K.m, d_list[-1])
    if dim > K.count:
        raise ConfigError(
            f"field 'd_range' reaches degree {d_list[-1]}, whose basis has {dim} "
            f"functions, but the compact has only {K.count} samples"
        )
    return d_list


def _run_forward(cfg: dict, out: Path) -> dict:
    K = _build_compact(cfg)
    F = _parse_pseudopolynomial(cfg, K.m)
    exp = forward_rate_experiment(F, K, _d_list(cfg, K, top_at_least=F.n))
    header = ["d"] + [f"coeff_err_{j + 1}" for j in range(F.n)] + ["delta", "graph_dh"]
    rows = [[r.d, *[float(e) for e in r.coeff_errors], r.delta, r.graph_dh] for r in exp.records]
    _write_rates(out, header, rows, header[1:])
    return {
        "checks": exp.checks,
        "fits": {
            "delta": _rate_fit_json(exp.delta_fit),
            "graph_dh": _rate_fit_json(exp.graph_fit),
            "coefficients": [_rate_fit_json(f) for f in exp.coeff_fits],
        },
        "records": [
            {
                "d": r.d,
                "coeff_errors": [float(e) for e in r.coeff_errors],
                "delta": r.delta,
                "graph_dh": r.graph_dh,
                "flagged_count": r.flagged_count,
                "rank": r.rank,
                "basis_dim": r.basis_dim,
            }
            for r in exp.records
        ],
        **_multigraphs_json(exp.target, [(r.d, r.fibers) for r in exp.records]),
    }


def _pairs(z: np.ndarray) -> list:
    """A complex array (..., n) as nested lists of [re, im] pairs."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _from_pairs(data, what: str) -> np.ndarray:
    """Inverse of _pairs on N lists of n [re, im] pairs: the (N, n) complex
    array, built exactly (signed zeros kept).  Raises ValueError unless the
    lists are that regular and every value is finite."""
    raw = np.asarray(data, dtype=float)
    if raw.ndim != 3 or raw.shape[2] != 2:
        raise ValueError(f"{what} must be N lists of n [re, im] pairs, "
                         f"got an array of shape {raw.shape}")
    if not np.all(np.isfinite(raw)):
        raise ValueError(f"{what} must be finite")
    return np.ascontiguousarray(raw).view(complex)[..., 0]


def _multigraphs_json(target: Multigraph, approximants) -> dict:
    """The forward artifact's multigraph fields; _read_forward is their one
    reader.  approximants lists (d, fibers) per degree.

    target_multigraph holds the base sample (m; points, row i being
    [re x_i1 .. re x_im, im x_i1 .. im x_im]; mesh) and the target's n,
    fibers and flagged base points; the shape is the config echo's.  Every
    fibers entry is N lists of n [re, im] pairs.
    """
    K = target.base
    return {
        "target_multigraph": {
            "m": K.m,
            "points": np.column_stack([K.points.real, K.points.imag]).tolist(),
            "mesh": K.mesh,
            "n": target.n,
            "fibers": _pairs(target.fibers),
            "flagged": list(target.flagged),
        },
        "approximant_multigraphs": [{"d": d, "fibers": _pairs(f)} for d, f in approximants],
    }


def _read_forward(path: str):
    """(limit, w_seq, d_values) from the forward results.json at path.

    Converse needs the base points, mesh, n and fibers.
    An unreadable file, a missing field, an empty approximant list, a
    flagged target, or points or fibers that are non-finite or shaped
    unlike the base and n are a ConfigError naming the file.
    """
    try:
        data = json.loads(Path(path).read_text())
        target = data["target_multigraph"]
        if target["flagged"]:
            raise ValueError(f"the target has flagged base points {target['flagged']}")
        m, n = int(target["m"]), int(target["n"])
        raw = np.asarray(target["points"], dtype=float)
        if raw.ndim != 2 or raw.shape[1] != 2 * m:
            raise ValueError(f"points must be rows of 2m = {2 * m} numbers, got shape {raw.shape}")
        points = _from_pairs(np.stack([raw[:, :m], raw[:, m:]], axis=-1), "base points")
        base = SampledCompact(points, mesh=float(target["mesh"]))
        limit = Multigraph(base, _from_pairs(target["fibers"], "fibers"), n)
        entries = data["approximant_multigraphs"]
        if not entries:
            raise ValueError("'approximant_multigraphs' is empty")
        w_seq = [Multigraph(base, _from_pairs(e["fibers"], "fibers"), n) for e in entries]
        d_values = [int(e["d"]) for e in entries]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"input file {path} holds no valid multigraph data: {exc}") from exc
    return limit, w_seq, d_values


def _run_converse(cfg: dict, out: Path) -> dict:
    limit, w_seq, d_values = _read_forward(cfg["from_forward"])
    result = converse_experiment(w_seq, limit, d_values=d_values)
    header = ["d"] + [f"coeff_err_{j + 1}" for j in range(limit.n)]
    rows = [[d, *[float(e) for e in result.coeff_errors[i]]] for i, d in enumerate(result.d_values)]
    _write_rates(out, header, rows, header[1:])
    return {
        "checks": {
            "verdict_holomorphic_witness": result.verdict == "holomorphic-witness",
            "lemma_bounds_hold": all(result.lemma_ok),
            "theta_envelope_ok": result.theta_envelope_ok,
        },
        "verdict": result.verdict,
        "delta_fit": _rate_fit_json(result.delta_fit),
        "coefficient_fits": [_rate_fit_json(f) for f in result.coeff_fits],
        "lemma_constants": {"R": result.lemma.R, "C": list(result.lemma.C), "D": list(result.lemma.D)},
        "lemma_bound_ok": list(result.lemma_ok),
        "reconstructed": result.reconstructed.to_json(),
    }


def _run_scalar(cfg: dict, out: Path) -> dict:
    K = _build_compact(cfg)
    fn = _parse_expr("function", cfg["function"], K.m)
    errors, fit = scalar_bws_rate(fn.evaluate_many(K.points), K, _d_list(cfg, K))
    _write_rates(out, ["d", "error"], [[d, e] for d, e in errors], ["error"])
    return {"fit": _rate_fit_json(fit)}


def _run_counterexample(cfg: dict, out: Path) -> dict:
    k_max = _number("k_max", cfg["k_max"], at_least=2, integer=True)
    mesh = 0.5 ** (k_max + 3)
    if cfg["mesh"] is not None:
        # the grid must resolve the finest modified interval, 2^-k_max wide
        mesh = _number("mesh", cfg["mesh"], above=0.0, at_most=0.5 ** k_max / 8.0)
    rows = counterexample_rates(k_max, mesh)
    _write_rates(out, ["k", "sup_norm", "graph_dh", "c_est"],
                 [[r.k, r.sup_norm, r.graph_dh, r.c_est] for r in rows], ["sup_norm", "graph_dh"])
    sup_fit = fit_geometric_rate([(r.k, r.sup_norm) for r in rows])
    dh_fit = fit_geometric_rate([(r.k, r.graph_dh) for r in rows])
    checks = {
        "graph_dh_bound": all(r.graph_dh <= 0.5 ** r.k + 2 * mesh for r in rows),
        "graph_rate_geometric": dh_fit.verdict == "geometric",
        "sup_rate_not_geometric": sup_fit.verdict == "not-geometric",
    }
    return {
        "checks": checks,
        "fits": {"sup_norm": _rate_fit_json(sup_fit), "graph_dh": _rate_fit_json(dh_fit)},
    }


def _run_closure(cfg: dict, out: Path) -> dict:
    nu_list = cfg["nu_list"]
    if type(nu_list) is not list or not nu_list:
        raise ConfigError(f"field 'nu_list' must be a nonempty list, got {nu_list!r}")
    for nu in nu_list:
        _number("nu_list", nu, above=0.0)
    report = closure_failure_demo(nu_list)
    checks = {"kuratowski_cond1": report.cond1, "kuratowski_cond2": report.cond2}
    return {"checks": checks, "per_step_sup": list(report.per_step_sup)}


def _run_extremal(cfg: dict, out: Path) -> dict:
    shape = _parse_shape(cfg)
    step = _number("grid_step", cfg["grid_step"], above=0.0)
    if shape.dim != 1:
        raise ConfigError("extremal command currently samples 1-dimensional shapes")
    # the scan is the square of half-width diam(K) centred on K: a disc's
    # centre, a segment's or interval's midpoint, a polydisc's origin
    kind = cfg["shape"]["kind"]
    if kind == "disc":
        mid = shape.center
    elif kind == "segment":
        mid = (shape.a + shape.b) / 2.0
    elif kind == "box":
        mid = sum(shape.intervals[0]) / 2.0
    else:
        mid = 0.0
    half = shape.diameter()
    xs = np.arange(-half, half + step / 2.0, step)
    gx, gy = np.meshgrid(xs, xs)
    pts = (mid + gx.ravel() + 1j * gy.ravel()).reshape(-1, 1)
    vals = shape.phi_many(pts)
    _write_csv(out / "phi.csv", ["re", "im", "phi"],
               [[float(p[0].real), float(p[0].imag), float(v)] for p, v in zip(pts, vals)])
    return {}


# command -> (runner, {field: default}); a None default leaves the value to the
# runner (counterexample's mesh follows k_max), and every config may also set out_dir
_COMMANDS = {
    "forward": (_run_forward, {"shape": _REQUIRED, "samples": 401, "fiber_degree": _REQUIRED,
                               "coefficients": _REQUIRED, "d_range": _REQUIRED}),
    "converse": (_run_converse, {"from_forward": _REQUIRED}),
    "scalar-bws": (_run_scalar, {"shape": _REQUIRED, "samples": 401, "function": _REQUIRED,
                                 "d_range": _REQUIRED}),
    "counterexample": (_run_counterexample, {"k_max": _REQUIRED, "mesh": None}),
    "closure-demo": (_run_closure, {"nu_list": [10.0, 100.0, 1000.0]}),
    "extremal": (_run_extremal, {"shape": _REQUIRED, "grid_step": 0.05}),
}
COMMANDS = tuple(_COMMANDS)


def run(config: ExperimentConfig, out_dir: str | None = None) -> int:
    """Run the config's command, write results.json, and return 0 when every
    named check in it holds, else 3.  Raises ConfigError on a bad field or
    an output directory that cannot be created."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out} cannot be created: {exc}") from exc
    try:
        payload = _COMMANDS[config.command][0](config.fields, out)
    except ConfigError:
        raise
    except (ValueError, RuntimeError, AssertionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        payload = {"flagged": True, "error": str(exc)}
    _write_json(out / "results.json", {"config": config.to_json(), **payload})
    return 3 if "flagged" in payload or not all(payload.get("checks", {}).values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hyperapprox",
        description="run approximation-rate experiments from a JSON config",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("config", help="path to the experiment config JSON")
    runp.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = ExperimentConfig.from_json(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
