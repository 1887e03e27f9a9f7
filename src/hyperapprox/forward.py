"""Forward pipeline: from a pseudopolynomial with analytic coefficients on a
standard compact K, build degree-d algebraic approximants (coefficient-wise
least-squares fits), sample both zero multigraphs, and fit the decay of the
fiberwise and graph Hausdorff distances across the degree range.

The pipeline reads F once, as its (N, n) array of coefficient samples on K.
That array gives the target multigraph, the fit floor's scale and every
degree's fits, all n columns at every degree from one least_squares call
(one QR per run); each approximant's coefficient samples are the values
its fits already computed.  Target and approximants share one solve path,
sample_multigraph, and every degree's graph distance queries the target's
one k-d tree (see fiberwise_hausdorff).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import Pseudopolynomial
from .chebyshev import basis_dimension, least_squares
from .roots import CLUSTER_GAP, DEFAULT_TOL, min_gaps, solve_monic_batch
from .sets_metrics import (
    RATE_FLOOR,
    Multigraph,
    RateFit,
    SampledCompact,
    degree_list,
    fiber_profile,  # not called here; bench/tests traces this from-import binding
    fiberwise_hausdorff,
    fit_geometric_rate,
)

__all__ = [
    "ForwardRecord",
    "ForwardExperiment",
    "sample_multigraph",
    "forward_rate_experiment",
]


def sample_multigraph(K: SampledCompact, coeffs: np.ndarray) -> Multigraph:
    """Zero multigraph over K of the monic polynomials whose coefficient
    samples are coeffs, an (N, n) array with row i = (a_1(x_i), .., a_n(x_i)).

    The forward pipeline passes both the target's and each degree-d
    approximant's coefficient samples through this one path.  Fibers carry
    multiplicity.  Sample points where the solver fails to converge are
    flagged and kept with their best iterate; forward_rate_experiment
    excludes them from every sup and fails its no_flagged_points check.
    When more than half the fibers have two roots closer than the solver's
    CLUSTER_GAP, the fiber polynomial may not be reduced (a multiple root
    persists over the base); that is a warning only.
    """
    roots, _res, _it, _tol, ok = solve_monic_batch(coeffs)
    flagged = tuple(int(i) for i in np.nonzero(~ok)[0])
    if flagged:
        warnings.warn(f"root solver flagged {len(flagged)} sample point(s)", RuntimeWarning)
    mg = Multigraph(K, roots, coeffs.shape[1], flagged)
    if K.count and np.mean(min_gaps(roots) < CLUSTER_GAP) > 0.5:
        warnings.warn(
            "fibers show persistent root collisions; the fiber polynomial "
            "may not be reduced", RuntimeWarning,
        )
    return mg


@dataclass(frozen=True)
class ForwardRecord:
    d: int
    coeff_polys: tuple
    coeff_errors: tuple  # least-squares sup errors on the samples
    rank: int  # rank of the degree-d fit's Vandermonde matrix
    basis_dim: int
    delta: float
    graph_dh: float
    flagged_count: int
    fibers: np.ndarray | None = field(repr=False, default=None)  # (N, n) approximant fibers


@dataclass(frozen=True)
class ForwardExperiment:
    """Per-degree records plus the fitted decay rates and invariant checks."""

    F: Pseudopolynomial
    K: SampledCompact
    records: tuple
    delta_fit: RateFit
    graph_fit: RateFit
    coeff_fits: tuple
    target: Multigraph
    checks: dict
    fit_floor: float

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def forward_rate_experiment(F: Pseudopolynomial, K: SampledCompact, d_range) -> ForwardExperiment:
    """Run the forward pipeline over a degree range and fit the decay rates.

    Requires at least 6 distinct degrees with max degree >= the fiber degree
    n.  The rate fits mask entries below the solver resolution floor (10 *
    DEFAULT_TOL * coefficient scale): distances there measure rounding.
    Each degree's fit records its rank against its basis dimension, and a
    rank-deficient fit fails the full_rank check.
    """
    d_list = degree_list(d_range, F.n)
    if K.shape is None:
        raise ValueError("K must carry a standard shape tag (declared polynomially convex)")

    coeffs = F.coefficients_at(K.points)
    target = sample_multigraph(K, coeffs)
    coeff_scale = max(1.0, float(np.abs(coeffs).max()))
    fit_floor = max(RATE_FLOOR, 10.0 * DEFAULT_TOL * coeff_scale)

    def run_degree(d: int, fits: tuple):
        approx_mg = sample_multigraph(K, np.column_stack([r.values for r in fits]))
        keep = ~np.isin(np.arange(K.count), target.flagged + approx_mg.flagged)
        if not keep.any():
            raise RuntimeError(f"all sample points flagged at degree {d}")
        dist = fiberwise_hausdorff(target, approx_mg, keep)
        return ForwardRecord(
            d=d,
            coeff_polys=tuple(r.poly for r in fits),
            coeff_errors=tuple(r.error for r in fits),
            rank=fits[0].rank,
            basis_dim=basis_dimension(K.m, d),
            delta=dist.delta,
            graph_dh=dist.graph_dh,
            flagged_count=int(K.count - keep.sum()),
            fibers=approx_mg.fibers,
        )

    records = tuple(map(run_degree, d_list, least_squares(coeffs, K, d_list)))

    delta_fit = fit_geometric_rate([(r.d, r.delta) for r in records], floor=fit_floor)
    graph_fit = fit_geometric_rate([(r.d, r.graph_dh) for r in records], floor=fit_floor)
    coeff_fits = tuple(
        fit_geometric_rate([(r.d, r.coeff_errors[j]) for r in records], floor=fit_floor)
        for j in range(F.n)
    )

    # graph_dh <= delta holds on exact data; this named check is its one guard
    checks = {
        "graph_dh_le_delta": all(r.graph_dh <= r.delta + 1e-12 for r in records),
        "delta_rate_geometric": delta_fit.verdict == "geometric",
        "no_flagged_points": not target.flagged and all(r.flagged_count == 0 for r in records),
        "full_rank": all(r.rank == r.basis_dim for r in records),
    }
    # rate chain: fiber distances may only be slower than coefficients by the
    # 1/n root, up to a fitting tolerance
    worst_coeff_theta = max((cf.theta for cf in coeff_fits), default=0.0)
    checks["rate_chain"] = delta_fit.theta <= worst_coeff_theta ** (1.0 / F.n) + 0.1
    checks["graph_rate_le_delta_rate"] = graph_fit.theta <= delta_fit.theta + 0.05

    return ForwardExperiment(
        F=F,
        K=K,
        records=records,
        delta_fit=delta_fit,
        graph_fit=graph_fit,
        coeff_fits=coeff_fits,
        target=target,
        checks=checks,
        fit_floor=fit_floor,
    )
