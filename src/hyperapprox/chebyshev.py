"""Discrete polynomial approximation on a sampled compact: batched least
squares for the rate pipelines, Lawson minimax for the scalar rate analyzer.

Every fit runs on the monomial basis in the coordinates w = (z - center) /
scale that place the samples in the unit box, and the returned Polynomial
keeps that affine map with the coefficients solved for, so a translated or
rescaled compact gives the same approximation error.  least_squares fits
every column of an (N, k) sample array with one solve; its sup error on
the samples is an upper bound on the discrete minimax error, which is all
the forward and converse rate arguments need.  best_approx runs Lawson's
iteratively reweighted least squares towards the discrete minimax error,
which scalar_bws_rate fits.  Each result carries the approximant's values
on the samples, from which its error is computed, so the forward pipeline
solves the approximant's fibers from them without evaluating it again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Polynomial, power_tables
from .sets_metrics import RATE_FLOOR, RateFit, SampledCompact, degree_list, fit_geometric_rate

__all__ = ["ApproxResult", "least_squares", "best_approx", "scalar_bws_rate", "basis_dimension"]

LAWSON_MAX_ITER = 200
LAWSON_OSC_TOL = 1e-3
EXACT_FLOOR = 1e-14


def _multi_indices(m: int, d: int):
    """All exponent tuples with total degree <= d, graded-lex order."""
    out = []
    for total in range(d + 1):
        for combo in itertools.combinations_with_replacement(range(m), total):
            e = [0] * m
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    # combinations_with_replacement already yields a canonical order per total
    out = sorted(set(out), key=lambda e: (sum(e), e))
    return out


def basis_dimension(m: int, d: int) -> int:
    return math.comb(d + m, m)


def _affine_maps(pts: np.ndarray):
    """Per-coordinate center/scale placing the samples in the unit box."""
    centers = np.empty(pts.shape[1], dtype=complex)
    scales = np.empty(pts.shape[1], dtype=float)
    for i in range(pts.shape[1]):
        re, im = pts[:, i].real, pts[:, i].imag
        c = complex((re.max() + re.min()) / 2.0, (im.max() + im.min()) / 2.0)
        s = float(np.abs(pts[:, i] - c).max())
        centers[i] = c
        scales[i] = s if s > 0 else 1.0
    return centers, scales


def _vandermonde(w: np.ndarray, exponents) -> np.ndarray:
    max_deg = max((max(e) for e in exponents), default=0)
    pows = power_tables(w, [max_deg] * w.shape[1])
    cols = []
    for e in exponents:
        col = np.ones(w.shape[0], dtype=w.dtype)
        for i, k in enumerate(e):
            if k:
                col = col * pows[i][k]
        cols.append(col)
    return np.column_stack(cols)


@dataclass(frozen=True)
class ApproxResult:
    """A degree-<= d approximant with its discrete Chebyshev error.

    values is poly evaluated on the samples, and error is max |f - values|:
    recomputed from the returned polynomial after the solve, not read off
    the solver residual.
    """

    poly: Polynomial
    error: float
    iterations: int
    rank: int
    values: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class _Design:
    """Set-up shared by every fit: the (N, m) points, the samples as an (N, k)
    array F, the graded exponents, the unit-box map, the Vandermonde matrix V
    and the right-hand side.  V and rhs are real when both the mapped points
    and the samples are."""

    pts: np.ndarray
    F: np.ndarray
    exponents: list
    centers: np.ndarray
    scales: np.ndarray
    V: np.ndarray
    rhs: np.ndarray


def _design(samples, points, d: int) -> _Design:
    pts = points.points if isinstance(points, SampledCompact) else np.atleast_2d(
        np.asarray(points, dtype=complex)
    )
    F = np.asarray(samples, dtype=complex)
    if F.shape[0] != pts.shape[0]:
        raise ValueError("sample count mismatch between values and points")
    if d < 0:
        raise ValueError("degree must be >= 0")
    F = F.reshape(pts.shape[0], -1)
    exponents = _multi_indices(pts.shape[1], d)
    dim = len(exponents)
    if pts.shape[0] < dim:
        raise ValueError(
            f"Vandermonde rank is at most {pts.shape[0]} < {dim} basis monomials: "
            "too few samples for this degree"
        )

    centers, scales = _affine_maps(pts)
    w = (pts - centers[None, :]) / scales[None, :]
    real_case = bool(np.abs(w.imag).max(initial=0.0) == 0.0 and np.abs(F.imag).max(initial=0.0) == 0.0)
    if real_case:
        V = _vandermonde(w.real.astype(float), exponents)
        rhs = F.real.astype(float)
    else:
        V = _vandermonde(w.astype(complex), exponents)
        rhs = F
    return _Design(pts, F, exponents, centers, scales, V, rhs)


def _result(ds: _Design, f, coeffs, iterations: int, rank) -> ApproxResult:
    """The fitted polynomial, its values on the samples and the error
    recomputed from those values."""
    poly = Polynomial.from_terms(ds.pts.shape[1], zip(ds.exponents, coeffs), ds.centers, ds.scales)
    values = poly.evaluate_many(ds.pts)
    err = float(np.abs(f - values).max())
    return ApproxResult(poly=poly, error=err, iterations=iterations, rank=int(rank), values=values)


def least_squares(F_samples, points, d: int) -> tuple[ApproxResult, ...]:
    """Least-squares degree-<= d fits of every column of F_samples, one
    result per column.

    points may be a SampledCompact or an (N, m) complex array; F_samples is
    (N, k), or (N,) for one column.  All columns share one Vandermonde
    matrix and one lstsq solve, whose rank every result reports.  Each
    error is the fit's sup error on the samples, an upper bound on the
    discrete minimax error, and each result has iterations == 1.
    """
    ds = _design(F_samples, points, d)
    coeffs, _, rank, _ = np.linalg.lstsq(ds.V, ds.rhs, rcond=None)
    return tuple(_result(ds, ds.F[:, j], coeffs[:, j], 1, rank) for j in range(ds.F.shape[1]))


def best_approx(f_samples, points, d: int) -> ApproxResult:
    """Best degree-<= d approximation on sampled points by Lawson's iteration.

    points may be a SampledCompact or an (N, m) complex array; f_samples the
    corresponding values.  Lawson-weighted reweighted least squares runs
    until the weighted residual moduli equioscillate to 1e-3 relative
    (capped at 200 iterations, keeping the best iterate).

    The fit runs in the per-coordinate unit-box coordinates of the samples,
    and the returned polynomial carries that center and scale with the
    solved coefficients.  It is evaluated on the samples once: those values
    are returned, and the error is recomputed from them.
    """
    f = np.asarray(f_samples, dtype=complex).ravel()
    ds = _design(f, points, d)
    V, rhs = ds.V, ds.rhs[:, 0]
    scale = 1.0 + float(np.abs(f).max(initial=0.0))

    def solve_weighted(weights):
        sw = np.sqrt(weights)
        coeffs, _, rank, _ = np.linalg.lstsq(V * sw[:, None], rhs * sw, rcond=None)
        return coeffs, rank

    weights = np.full(f.shape[0], 1.0 / f.shape[0])
    coeffs, rank = solve_weighted(weights)
    resid = np.abs(rhs - V @ coeffs)
    best_coeffs, best_max, iterations = coeffs, float(resid.max()), 1

    for it in range(2, LAWSON_MAX_ITER + 1):
        total = float((weights * resid).sum())
        if total <= 0.0 or best_max <= EXACT_FLOOR * scale:
            break
        weights = weights * resid / total
        coeffs, rank = solve_weighted(weights)
        resid = np.abs(rhs - V @ coeffs)
        cur = float(resid.max())
        iterations = it
        if cur < best_max:
            best_max, best_coeffs = cur, coeffs
        support = weights > weights.max() * 1e-12
        r_sup = resid[support]
        if r_sup.size and r_sup.max() > 0:
            osc = (r_sup.max() - r_sup.min()) / r_sup.max()
            if osc <= LAWSON_OSC_TOL:
                break

    return _result(ds, f, best_coeffs, iterations, rank)


def scalar_bws_rate(f_samples, K: SampledCompact, d_range,
                    floor: float = RATE_FLOOR) -> tuple[list, RateFit]:
    """Geometric-rate fit of the minimax approximation errors over a degree range.

    Returns the (d, error) pairs in increasing degree and their fit.  A
    geometric verdict is the numerical witness that the d-th roots of the
    errors stay below 1; the range must span at least 6 distinct degrees.
    """
    errors = [(d, best_approx(f_samples, K, d).error) for d in degree_list(d_range)]
    return errors, fit_geometric_rate(errors, floor=floor)
