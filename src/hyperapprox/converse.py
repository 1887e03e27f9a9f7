"""Converse pipeline: given algebraic multigraphs converging geometrically to
a target multigraph in the fiberwise metric, certify the target's covering
number on the sequence, reconstruct the coefficient functions from the
fibers by Vieta's formulas, verify that their decay inherits the geometric
rate through explicit product-perturbation constants, and emit the
reconstructed pseudopolynomial.

It assumes K is regular (Phi_K continuous).  That is an assumption of the
standard catalogue, whose closed-form Phi_K are continuous; the library does
not check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Pseudopolynomial, vieta_from_roots
from .chebyshev import basis_dimension, least_squares
from .roots import DEFAULT_TOL, match_bottlenecks, min_gaps
from .sets_metrics import (
    RATE_FLOOR,
    Multigraph,
    RateFit,
    fiber_profile,
    fit_geometric_rate,
    tail_start,
)

__all__ = [
    "LemmaConstants",
    "CoveringNumberError",
    "ConverseResult",
    "product_bound_constants",
    "detect_covering_number",
    "reconstruct_coefficients",
    "converse_experiment",
]


# near a multiple root the solver cannot resolve gaps below about the square
# root of its relaxed tolerance, so closer fiber points count as one root
SEPARATION_TOL = 1e-3


class CoveringNumberError(ValueError):
    """A multigraph in the sequence violates the declared covering number."""

    def __init__(self, message, d=None, index=None):
        super().__init__(message)
        self.d = d
        self.index = index


@dataclass(frozen=True)
class LemmaConstants:
    """Constants bounding k-fold product perturbations of bounded roots.

    If max|t_i| <= R and max|t_i - s_i| <= r then every k-subset product
    differs by at most C_k * r, with C_1 = 1 and
    C_k = R^(k-1) + (r + R) C_(k-1).  The D_k aggregate these over the
    binomial number of subsets appearing in the k-th elementary symmetric
    polynomial, with the perturbation bound relaxed to M (valid whenever
    r <= M): D_1 = n, D_k = binom(n, k) (R^(k-1) + (M + R) CM_(k-1)) where
    CM uses r = M in the recursion.
    """

    n: int
    R: float
    r: float
    M: float
    C: tuple
    D: tuple


def product_bound_constants(n: int, R: float, r: float, M: float | None = None) -> LemmaConstants:
    if n < 1 or R <= 0 or r <= 0:
        raise ValueError("need n >= 1, R > 0, r > 0")
    if M is None:
        M = r
    c = [1.0]
    cm = [1.0]
    for k in range(2, n + 1):
        c.append(R ** (k - 1) + (r + R) * c[-1])
        cm.append(R ** (k - 1) + (M + R) * cm[-1])
    d = [float(n)]
    for k in range(2, n + 1):
        d.append(math.comb(n, k) * (R ** (k - 1) + (M + R) * cm[k - 2]))
    return LemmaConstants(n=n, R=R, r=r, M=M, C=tuple(c), D=tuple(d))


def detect_covering_number(w_seq, n_expected: int, x0_index: int, target_fiber) -> None:
    """Verify the sequence has covering number n_expected, using a base point
    whose target fiber has n_expected distinct values; raise
    CoveringNumberError otherwise.

    Fiber points at most SEPARATION_TOL (1e-3) apart count as one root, so
    target_fiber, the limit's fiber at x0_index, must hold n_expected points
    whose smallest gap exceeds it.  Those points are separated by disjoint
    closed discs of radius one third of that gap (unbounded for a single
    point); for every multigraph in the tail of the sequence, each disc must
    capture at least one fiber point at the declared base point, while no
    multigraph may carry more than n_expected points per fiber.  The tail
    must cover at least the second half of the sequence.
    """
    if not w_seq:
        raise ValueError("empty multigraph sequence")
    for d_idx, w in enumerate(w_seq):
        if w.n > n_expected:
            raise CoveringNumberError(
                f"fiber cardinality {w.n} > covering number {n_expected} "
                f"at sequence entry {d_idx}", d=d_idx,
            )

    target_fiber = np.asarray(target_fiber, dtype=complex).ravel()
    gap = float(min_gaps(target_fiber[None, :])[0])
    if target_fiber.size != n_expected or gap <= SEPARATION_TOL:
        raise CoveringNumberError(
            f"target fiber at sample {x0_index} does not hold {n_expected} points "
            f"separated by more than {SEPARATION_TOL:g} (smallest gap {gap:.3e})",
            index=x0_index,
        )
    radius = gap / 3.0

    ok = []
    for w in w_seq:
        fib = w.fibers[x0_index]
        ok.append(bool(all(np.abs(fib - t).min() <= radius for t in target_fiber)))
    start = tail_start(ok)
    if start is None or start > len(ok) // 2:
        raise CoveringNumberError(
            f"disc-separation test failed at sample {x0_index}: the sequence tail "
            f"does not hold {n_expected} separated fiber points", index=x0_index,
        )


def reconstruct_coefficients(w: Multigraph, n: int) -> np.ndarray:
    """Per-sample monic coefficient vectors recovered from the fibers.

    Row i is (a_1(x_i), ..., a_n(x_i)) with a_k the k-th signed elementary
    symmetric polynomial of the fiber points, computed for all rows in one
    batched Vieta call.  The multigraph must carry exactly n points per
    fiber (with multiplicity).
    """
    if w.n != n:
        raise ValueError(f"multigraph has {w.n} points per fiber, expected {n}")
    return vieta_from_roots(w.fibers)


@dataclass(frozen=True)
class ConverseResult:
    d_values: tuple
    coeff_errors: np.ndarray  # (num_d, n) sup errors against the target coefficients
    coeff_fits: tuple
    matched_sup: tuple
    lemma: LemmaConstants
    lemma_ok: tuple
    delta_fit: RateFit
    verdict: str
    reconstructed: Pseudopolynomial
    theta_envelope_ok: bool


def converse_experiment(w_seq, limit: Multigraph, *, d_values=None) -> ConverseResult:
    """Reconstruct coefficient data from a geometrically convergent sequence
    of algebraic multigraphs.

    Every multigraph must share the limit's base sample; the covering number
    is the limit's n.  d_values lists one degree per multigraph (1, 2, ...
    when omitted); a list of another length raises ValueError.  The
    fiberwise distances of w_seq to the limit must fit a geometric decay in
    d_values, otherwise the hypothesis fails and no reconstruction is
    attempted.  n is certified at the base point whose limit fiber is best
    separated.  The verdict is holomorphic-witness when every reconstructed
    coefficient's sup error decays geometrically, rejected when some
    coefficient's fit is not-geometric, and inconclusive otherwise (some fit
    has too few entries above its floor, or too large a residual, to
    decide).  The witness (reconstructed) is the least-squares polynomial
    fit of the last multigraph's Vieta coefficients, at the largest degree
    <= the last of d_values whose basis the base samples can carry.
    Regularity of the base compact is assumed, not checked here.
    """
    if not w_seq:
        raise ValueError("empty multigraph sequence")
    base, n = limit.base, limit.n
    for w in w_seq:
        if not np.array_equal(w.base.points, base.points):
            raise ValueError("all multigraphs must share the limit's base sample")
    if d_values is None:
        d_values = tuple(range(1, len(w_seq) + 1))
    d_values = tuple(int(d) for d in d_values)
    if len(d_values) != len(w_seq):
        raise ValueError(f"d_values lists {len(d_values)} degrees for {len(w_seq)} multigraphs")

    delta_pairs = [(d, float(fiber_profile(limit, w).max())) for d, w in zip(d_values, w_seq)]
    fit_floor = max(RATE_FLOOR, 10.0 * DEFAULT_TOL)
    delta_fit = fit_geometric_rate(delta_pairs, floor=fit_floor)
    if delta_fit.verdict != "geometric":
        raise ValueError(
            f"fiberwise distance sequence is not geometric (verdict "
            f"{delta_fit.verdict}, theta {delta_fit.theta:.3f}); hypothesis fails"
        )

    x0_index = int(np.argmax(min_gaps(limit.fibers)))
    detect_covering_number(w_seq, n, x0_index, target_fiber=limit.fibers[x0_index])

    target_coeffs = reconstruct_coefficients(limit, n)
    R = max(float(np.abs(w.fibers).max()) for w in (*w_seq, limit)) + 0.1
    r_last = max(float(delta_pairs[-1][1]), fit_floor)
    lemma = product_bound_constants(n, R=R, r=r_last, M=max(delta_fit.M, r_last))

    coeff_errors = np.empty((len(w_seq), n))
    matched_sup = []
    lemma_ok = []
    for di, w in enumerate(w_seq):
        rec = reconstruct_coefficients(w, n)
        coeff_errors[di] = np.abs(rec - target_coeffs).max(axis=0)
        sup_match = float(match_bottlenecks(limit.fibers, w.fibers).max())
        matched_sup.append(sup_match)
        bound_r = max(sup_match, fit_floor)
        # D depends on n, R and M only, so the lemma's D bounds every entry
        lemma_ok.append(bool(all(
            coeff_errors[di, k] <= lemma.D[k] * bound_r * (1 + 1e-9) + 1e-12
            for k in range(n)
        )))

    coeff_fit_floor = max(fit_floor, lemma.D[-1] * 10.0 * DEFAULT_TOL)
    coeff_fits = tuple(
        fit_geometric_rate(list(zip(d_values, coeff_errors[:, k])), floor=coeff_fit_floor)
        for k in range(n)
    )
    # a fit from fewer than 4 entries reports a placeholder theta, not a fitted one
    theta_env_ok = all(f.theta <= delta_fit.theta + 0.1 for f in coeff_fits if f.n_used >= 4)

    # the witness fits rec, the last multigraph's coefficient samples; those
    # of an algebraic multigraph of degree d are polynomial, so a
    # least-squares fit at that degree is near-exact
    fit_deg = d_values[-1]
    while fit_deg > 0 and basis_dimension(base.m, fit_deg) > base.count:
        fit_deg -= 1
    (fits,) = least_squares(rec, base, [fit_deg])
    reconstructed = Pseudopolynomial(n, tuple(r.poly for r in fits))

    fit_verdicts = {f.verdict for f in coeff_fits}
    if "not-geometric" in fit_verdicts:
        verdict = "rejected"
    elif "inconclusive" in fit_verdicts:
        verdict = "inconclusive"
    else:
        verdict = "holomorphic-witness"
    return ConverseResult(
        d_values=d_values,
        coeff_errors=coeff_errors,
        coeff_fits=coeff_fits,
        matched_sup=tuple(matched_sup),
        lemma=lemma,
        lemma_ok=tuple(lemma_ok),
        delta_fit=delta_fit,
        verdict=verdict,
        reconstructed=reconstructed,
        theta_envelope_ok=theta_env_ok,
    )
