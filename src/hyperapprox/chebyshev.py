"""Discrete polynomial approximation on a sampled compact by least squares,
for the forward and converse rate pipelines and the scalar rate analyzer.

Every fit runs on the monomial basis in the coordinates w = (z - center) /
scale that place the samples in the unit box, and the returned Polynomial
keeps that affine map with the coefficients solved for, so a translated or
rescaled compact gives the same approximation error.  least_squares fits
every column of an (N, k) sample array at every degree of a run from one
Householder QR of the top degree's graded-lex Vandermonde matrix: the
degree-<= d basis is its leading columns, so each degree is a small
triangular least-squares solve, not an N-row lstsq of its own.  Its sup
error on the samples is an upper bound on the discrete minimax error, and
within the subexponential factor 1 + Lambda_d of it, which is all the rate
arguments need.  Each result carries the approximant's values on the
samples, the Vandermonde product from which its error is computed, so the
forward pipeline solves the approximant's fibers from them without
evaluating the polynomial.

The Vandermonde matrix is one gather per variable of that variable's power
table, and each Polynomial is built straight from the graded-lex exponents
and the solved coefficients.  Real samples on real points give a real
solve, so the approximant's values have imaginary part 0 and forward
solves its fibers from real companion matrices (see roots).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .algebra import Polynomial, power_tables
from .sets_metrics import RateFit, SampledCompact, degree_list, fit_geometric_rate

__all__ = ["ApproxResult", "least_squares", "scalar_bws_rate", "basis_dimension"]


@lru_cache(maxsize=None)
def _multi_indices(m: int, d: int) -> tuple:
    """All exponent tuples with total degree <= d, graded-lex order: the
    order of Polynomial's terms."""
    out = []
    for total in range(d + 1):
        for combo in itertools.combinations_with_replacement(range(m), total):
            e = [0] * m
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    # combinations_with_replacement already yields a canonical order per total
    return tuple(sorted(set(out), key=lambda e: (sum(e), e)))


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
    """(N, k) matrix of the monomials w ** e, one gather of each variable's
    power table, multiplied in variable order."""
    E = np.array(exponents, dtype=int).reshape(len(exponents), w.shape[1])
    pows = power_tables(w, E.max(axis=0))
    return reduce(operator.mul, (pows[i][E[:, i]] for i in range(w.shape[1]))).T


@dataclass(frozen=True)
class ApproxResult:
    """A degree-<= d least-squares approximant with its discrete sup error.

    values is the polynomial on the samples through the Vandermonde
    product V_k c, the leading k = basis_dimension(m, d) columns of the
    run's matrix times the solved coefficients, and error is max |f -
    values|.  The unit-box map gives |w| <= 1, so every monomial has
    modulus at most 1 and values differs from poly.evaluate_many(samples)
    by at most 2 k eps sum |c_e|: each side sums k terms of the same power
    tables (Higham's gamma_k, ch. 3).  rank is the numerical rank of V_k.
    """

    poly: Polynomial
    error: float
    rank: int
    values: np.ndarray = field(repr=False)


def least_squares(F_samples, points, degrees) -> tuple[tuple[ApproxResult, ...], ...]:
    """Least-squares fits of every column of F_samples at every degree of
    degrees: one tuple of results per degree, in the order given, and one
    result per column within it.

    points may be a SampledCompact or an (N, m) complex array; F_samples is
    (N, k), or (N,) for one column.  The fit runs in the per-coordinate
    unit-box coordinates of the samples, and each returned polynomial
    carries that center and scale with the solved coefficients.

    One graded-lex Vandermonde matrix V at max(degrees) is factored once,
    V = QR (Householder, reduced), and G = Q^H F.  In graded order the
    degree-<= d basis is the leading k_d columns of V, and V_k = Q_k R_k
    with Q_k orthonormal, so each degree's fit is the least-squares solve
    of R_k c = G_k: the singular values of R_k are those of V_k, so the
    rank rule (rcond = eps max(N, k)) and the minimum-norm solution are
    those of lstsq on V_k itself, rank-deficient samples included.  Each
    error is the fit's sup error on the samples, an upper bound on the
    discrete minimax error.
    """
    degrees = [operator.index(d) for d in degrees]
    if not degrees or min(degrees) < 0:
        raise ValueError(f"degrees must be a nonempty list of degrees >= 0, got {degrees}")
    pts = points.points if isinstance(points, SampledCompact) else np.atleast_2d(
        np.asarray(points, dtype=complex)
    )
    F = np.asarray(F_samples, dtype=complex)
    if F.shape[0] != pts.shape[0]:
        raise ValueError("sample count mismatch between values and points")
    F = F.reshape(pts.shape[0], -1)
    n_pts, m = pts.shape
    exponents = _multi_indices(m, max(degrees))
    if n_pts < len(exponents):
        raise ValueError(
            f"Vandermonde rank is at most {n_pts} < {len(exponents)} basis monomials: "
            "too few samples for this degree"
        )

    centers, scales = _affine_maps(pts)
    w = (pts - centers[None, :]) / scales[None, :]
    # V and the right-hand side are real when both the mapped points and the
    # samples are
    if np.abs(w.imag).max(initial=0.0) == 0.0 and np.abs(F.imag).max(initial=0.0) == 0.0:
        V = _vandermonde(w.real.astype(float), exponents)
        rhs = F.real.astype(float)
    else:
        V = _vandermonde(w.astype(complex), exponents)
        rhs = F
    Q, R = np.linalg.qr(V)
    G = Q.conj().T @ rhs
    eps = np.finfo(float).eps
    out = []
    for d in degrees:
        k = basis_dimension(m, d)
        coeffs, _, rank, _ = np.linalg.lstsq(R[:k, :k], G[:k], rcond=eps * max(n_pts, k))
        values = V[:, :k] @ coeffs + 0j
        fits = []
        # the exponents are unique and graded-lex sorted, so each Polynomial
        # is built as from_terms would build it; adding 0j complexifies a real
        # solve and turns -0.0 parts into 0.0, as from_terms' sum does
        for j, col in enumerate((coeffs + 0j).T.tolist()):
            terms = tuple((e, c) for e, c in zip(exponents, col) if c != 0)
            poly = Polynomial(m, terms, centers, scales)
            err = float(np.abs(F[:, j] - values[:, j]).max())
            fits.append(ApproxResult(poly=poly, error=err, rank=int(rank), values=values[:, j]))
        out.append(tuple(fits))
    return tuple(out)


def scalar_bws_rate(f_samples, K: SampledCompact, d_range) -> tuple[list, RateFit]:
    """Geometric-rate fit of the least-squares approximation errors over a
    degree range.

    Returns the (d, error) pairs in increasing degree and their fit.  Each
    error lies within the factor 1 + Lambda_d of the discrete minimax error,
    where Lambda_d is the sup norm of the least-squares projector on the
    samples; that factor is subexponential, so the d-th roots give the same
    rate.  A geometric verdict is the numerical witness that the d-th roots
    of the errors stay below 1; the range must span at least 6 distinct
    degrees.
    """
    d_list = degree_list(d_range)
    fits = least_squares(f_samples, K, d_list)
    errors = [(d, fit[0].error) for d, fit in zip(d_list, fits)]
    return errors, fit_geometric_rate(errors)
