"""Counterexample and edge-case demonstrations.

* A staircase of piecewise-linear functions whose graphs converge at a
  geometric rate in the Hausdorff distance while their uniform distance
  decays only quadratically: horizontal steps shrink like 2^-k, vertical
  steps like 1/k^2, so "looking in all directions" beats the purely vertical
  Chebyshev view by an unbounded factor.
* A sequence of steepening parabola graphs whose Kuratowski limit is a pair
  of vertical lines {+-1/2} x C: each member is an algebraic multigraph but
  the limit's fibers over x = +-1/2 are unbounded, so the family of
  bounded-degree graphs over a disc is not closed.  The demo samples the
  lines clipped to a fixed height and checks the convergence; the
  unboundedness is a fact of the limit, not something a sample can show.
* A probe for the smallest constant relating the fiberwise metric to the
  graph Hausdorff distance of two multigraphs; on the staircase pair it
  equals sqrt(1 + (2^k/k^2)^2) ~ 2^k/k^2, which is the obstruction to
  transporting graph-distance rates back to fiberwise rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets_metrics import (
    KuratowskiReport,
    Multigraph,
    SampledCompact,
    fiberwise_hausdorff,
    kuratowski_check,
)

__all__ = [
    "StaircaseFunctions",
    "CounterexampleRow",
    "build_counterexample",
    "counterexample_rates",
    "closure_failure_demo",
    "fiberwise_constant_probe",
]

PI2_OVER_6 = math.pi ** 2 / 6.0
# Kuratowski tolerance of the closure demo; its grids resolve CLOSURE_TOL / 5
CLOSURE_TOL = 0.05
# the closure demo clips its limit lines to |t| <= CLOSURE_BOX_HEIGHT
CLOSURE_BOX_HEIGHT = 2.0


@dataclass(frozen=True)
class StaircaseFunctions:
    """Breakpoints a_k = a_(k-1) + 2^-k, heights b_k = b_(k-1) + 1/k^2, the
    limit polyline f through (a_k, b_k) closed off at (1, pi^2/6), and the
    modified family f_k.

    f_k agrees with f outside [a_(k-1), a_k] (the segment that rises by
    1/k^2 over a width of 2^-k); inside, it climbs to b_k by the midpoint
    and stays flat, so sup|f - f_k| = 1/(2 k^2) exactly while the two graphs
    stay within 2^-k of each other.  With w = 2^-k and h = 1/k^2 the exact
    graph Hausdorff distance is w h / (2 sqrt(w^2 + h^2)), the distance from
    f_k's corner (a_(k-1) + w/2, b_k) to f's modified segment.
    """

    k_max: int
    breakpoints: np.ndarray
    values: np.ndarray

    def f(self, x: np.ndarray) -> np.ndarray:
        xs = np.concatenate([self.breakpoints, [1.0]])
        ys = np.concatenate([self.values, [PI2_OVER_6]])
        return np.interp(np.asarray(x, dtype=float), xs, ys)

    def f_k(self, k: int, x: np.ndarray) -> np.ndarray:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k must be in 1..{self.k_max}")
        a_lo, a_hi = self.breakpoints[k - 1], self.breakpoints[k]
        b_lo, b_hi = self.values[k - 1], self.values[k]
        mid = (a_lo + a_hi) / 2.0
        xs = np.concatenate([self.breakpoints[:k], [mid, a_hi], self.breakpoints[k + 1 :], [1.0]])
        ys = np.concatenate([self.values[:k], [b_hi, b_hi], self.values[k + 1 :], [PI2_OVER_6]])
        return np.interp(np.asarray(x, dtype=float), xs, ys)

    def sup_norm(self, k: int) -> float:
        """Exact uniform distance between f and f_k: half the vertical rise."""
        return 1.0 / (2.0 * k * k)

    def modified_interval(self, k: int):
        return float(self.breakpoints[k - 1]), float(self.breakpoints[k])


def build_counterexample(k_max: int) -> StaircaseFunctions:
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    a = np.zeros(k_max + 1)
    b = np.zeros(k_max + 1)
    for k in range(1, k_max + 1):
        a[k] = a[k - 1] + 0.5 ** k
        b[k] = b[k - 1] + 1.0 / (k * k)
    return StaircaseFunctions(k_max=k_max, breakpoints=a, values=b)


@dataclass(frozen=True)
class CounterexampleRow:
    k: int
    sup_norm: float
    graph_dh: float
    c_est: float


def counterexample_rates(k_max: int, mesh: float):
    """Table of (k, sup_norm, graph_dh, c_est) for k = 2..k_max.

    mesh is the x-grid spacing and must resolve the finest modified interval
    (mesh <= 2^-k_max / 8).  The sup norm is the exact breakpoint value
    1/(2 k^2), cross-checked against the sampled maximum; the graph distance
    is measured between the sampled graphs and always stays below
    2^-k + 2*mesh.
    """
    if mesh > 0.5 ** k_max / 8.0:
        raise ValueError(
            f"mesh {mesh:.3e} too coarse: need <= 2^-{k_max}/8 = {0.5 ** k_max / 8:.3e}"
        )
    stair = build_counterexample(k_max)
    xs = np.arange(0.0, 1.0 + mesh / 2.0, mesh)
    fv = stair.f(xs)
    # one base for every graph: fiberwise_hausdorff then skips comparing bases
    base = SampledCompact(xs.reshape(-1, 1).astype(complex), mesh=mesh)
    f_mg = Multigraph(base, fv.reshape(-1, 1), n=1)

    max_slope = 2.0 ** (k_max + 1)  # steepest modified segment
    rows = []
    for k in range(2, k_max + 1):
        gv = stair.f_k(k, xs)
        exact = stair.sup_norm(k)
        sampled = float(np.abs(fv - gv).max())
        if abs(sampled - exact) > mesh * (max_slope + 2.0):
            raise AssertionError(
                f"sampled sup {sampled!r} disagrees with exact value {exact!r} at k={k}"
            )
        g_mg = Multigraph(base, gv.reshape(-1, 1), n=1)
        probe = fiberwise_constant_probe(f_mg, g_mg)
        rows.append(CounterexampleRow(k=k, sup_norm=exact, graph_dh=probe.graph_dh,
                                      c_est=probe.c_est))
    return rows


@dataclass(frozen=True)
class ProbeResult:
    delta: float
    graph_dh: float
    c_est: float


def fiberwise_constant_probe(fm: Multigraph, gm: Multigraph) -> ProbeResult:
    """Smallest observed constant with delta <= C * d_H(graphs).

    delta and d_H come from sets_metrics.fiberwise_hausdorff over every
    base point.  Always >= 1 up to sampling effects; on pairs whose
    difference is concentrated on a short steep feature it grows without
    bound, which is why a graph-distance rate cannot be converted to a
    fiberwise rate with a uniform constant.
    """
    dist = fiberwise_hausdorff(fm, gm)
    return ProbeResult(delta=dist.delta, graph_dh=dist.graph_dh,
                       c_est=dist.delta / max(dist.graph_dh, 1e-15))


# ---------------------------------------------------------------------------
# closure failure of bounded-degree multigraphs


def _parabola_points(nu: float, dx: float) -> np.ndarray:
    xs = np.arange(-1.0, 1.0 + dx / 2.0, dx)
    ts = nu * (xs * xs - 0.25)
    keep = np.abs(ts) <= CLOSURE_BOX_HEIGHT + 1.0
    pts = np.column_stack([xs[keep], ts[keep]]).astype(complex)
    return pts


def _clipped_lines(dt: float) -> np.ndarray:
    ts = np.arange(-CLOSURE_BOX_HEIGHT, CLOSURE_BOX_HEIGHT + dt / 2.0, dt)
    rows = [np.column_stack([np.full_like(ts, x0), ts]) for x0 in (-0.5, 0.5)]
    return np.vstack(rows).astype(complex)


def closure_failure_demo(nu_list) -> KuratowskiReport:
    """Steepening parabola graphs t = nu (x^2 - 1/4) over [-1, 1] against
    their vertical-line limit {+-1/2} x C, clipped to |t| <= CLOSURE_BOX_HEIGHT.

    The sampled graphs converge in the two-condition sense to the clipped
    limit, yet the limit's fibers {+-1/2} x C are unbounded: no
    bounded-fiber multigraph can represent it.
    """
    nu_list = tuple(float(nu) for nu in nu_list)
    dt = CLOSURE_TOL / 5.0
    limit_pts = _clipped_lines(dt)
    limit = SampledCompact(limit_pts, mesh=dt / 2.0)

    seq = []
    for nu in nu_list:
        dx = min(2e-4, CLOSURE_TOL / (5.0 * nu))
        pts = _parabola_points(nu, dx)
        # covering radius along the curve: spacing stretched by the max slope
        slope = 2.0 * nu
        mesh = 0.5 * dx * math.sqrt(1.0 + slope * slope)
        seq.append(SampledCompact(pts, mesh=mesh))

    # witness compact disjoint from the limit lines: a short vertical stick
    # at x = 0 (the parabolas dive far below it as nu grows)
    ts = np.arange(-0.5, 0.5 + dt / 2.0, dt)
    witness = np.column_stack([np.zeros_like(ts), ts]).astype(complex)

    return kuratowski_check(seq, limit, CLOSURE_TOL, witnesses=[witness])
