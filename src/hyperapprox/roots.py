"""Root solving for monic univariate polynomials by batched companion
eigenvalues, optimal (bottleneck) root matching, and the Hoelder-type root
perturbation bound |zeta^a_j - zeta^b_j| <= 4 n C |a - b|_inf^(1/n).

A batch whose coefficients are all real is solved from real companion
matrices by the real QR algorithm, as backward stable as the complex one
and faster; its fibers are exactly closed under conjugation, with real
roots at imaginary part exactly 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RootSet",
    "RootMatching",
    "HoelderReport",
    "NonConvergenceError",
    "solve_monic",
    "solve_monic_batch",
    "match_roots",
    "hoelder_check",
]

DEFAULT_TOL = 1e-12
RELAXED_TOL = 1e-6
CLUSTER_GAP = 1e-4


class NonConvergenceError(RuntimeError):
    """Raised when a solve_monic_batch row misses its residual target
    tol_used * max(1, max|a_j|); carries the roots found and their residual."""

    def __init__(self, roots, residual, tol_used, coeffs):
        target = tol_used * max(1.0, float(np.abs(coeffs).max()))
        super().__init__(
            f"root solve missed its target: residual {residual:.3e} > target {target:.3e}"
        )
        self.roots = roots
        self.residual = residual


@dataclass(frozen=True)
class RootSet:
    """All n roots (with multiplicity) of a monic polynomial, plus the
    max |P(root)| residual actually achieved."""

    roots: np.ndarray
    residual: float
    tol_used: float


@dataclass(frozen=True)
class RootMatching:
    """A bijection pairing two equal-size root multisets that minimizes the
    maximum pairwise distance (bottleneck matching)."""

    permutation: tuple
    bottleneck: float


def _horner_monic_batch(coeffs: np.ndarray, z: np.ndarray):
    """P_i(z_ij) and P_i'(z_ij) for coeffs (N, n) and z (N, n)."""
    val, dval = np.ones_like(z), np.zeros_like(z)
    for j in range(coeffs.shape[1]):
        dval = dval * z + val
        val = val * z + coeffs[:, j][:, None]
    return val, dval


def min_gaps(z: np.ndarray) -> np.ndarray:
    """Minimum pairwise distance within each row of z (N, n); inf where n < 2."""
    nbatch, n = z.shape
    if n < 2:
        return np.full(nbatch, np.inf)
    gaps = np.abs(z[:, :, None] - z[:, None, :])
    gaps[:, np.arange(n), np.arange(n)] = np.inf
    return gaps.min(axis=(1, 2))


def solve_monic_batch(coeffs: np.ndarray):
    """Solve a batch of monic polynomials t^n + a_1 t^(n-1) + ... + a_n.

    coeffs: (N, n) complex array of (a_1..a_n) rows.
    Returns (roots (N, n), residuals (N,), iterations (N,), tol_used (N,),
    converged (N,) bool).  The roots are the eigenvalues of the companion
    matrices, computed in one batched call (backward stable for monic
    polynomials), followed by one Newton step that is kept only on rows
    where it lowers the max residual; iterations is therefore 1 on every
    row.  The companion matrices are real (real QR, conjugate pairs exact)
    when no coefficient in the batch has a nonzero imaginary part, and
    complex otherwise.  A row whose residual misses
    DEFAULT_TOL * max(1, max|a_j|) is relaxed to 1e-6 when its roots
    cluster (min pairwise gap < 1e-4, computed on such rows only), the
    expected accuracy near multiple roots; converged says whether the row
    meets its (possibly relaxed) target.  Each row's roots are sorted by
    real, then imaginary part, by numpy's stable complex sort, so equal
    roots (signed zeros included) keep their computed order; on finite
    roots this is the order of a lexsort on (imag, real).
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    nbatch, n = coeffs.shape
    if n < 1:
        raise ValueError("fiber degree n must be >= 1")
    if not np.isfinite(coeffs).all():
        raise ValueError("coefficients must be finite")
    scale = np.maximum(1.0, np.abs(coeffs).max(axis=1))

    tail = coeffs if coeffs.imag.any() else coeffs.real
    # row-major (N, n*n): first row -a, then the subdiagonal of ones at
    # flat positions n, 2n + 1, ..., one strided slice
    companion = np.zeros((nbatch, n * n), dtype=tail.dtype)
    companion[:, :n] = -tail
    companion[:, n :: n + 1] = 1.0
    z = np.linalg.eigvals(companion.reshape(nbatch, n, n)).astype(complex)

    val, dval = _horner_monic_batch(coeffs, z)
    res = np.abs(val).max(axis=1)
    z_new = z - np.divide(val, dval, out=np.zeros_like(z), where=dval != 0)
    res_new = np.abs(_horner_monic_batch(coeffs, z_new)[0]).max(axis=1)
    better = res_new < res
    z[better] = z_new[better]
    res[better] = res_new[better]

    tol_used = np.full(nbatch, DEFAULT_TOL)
    miss = np.flatnonzero(res > DEFAULT_TOL * scale)
    if miss.size:
        tol_used[miss[min_gaps(z[miss]) < CLUSTER_GAP]] = RELAXED_TOL
    converged = res <= tol_used * scale

    # canonical ordering for reproducibility
    z = np.sort(z, axis=1, kind="stable")
    return z, res, np.ones(nbatch, dtype=int), tol_used, converged


def solve_monic(coeffs) -> RootSet:
    """Roots of the monic polynomial t^n + a_1 t^(n-1) + ... + a_n.

    Raises NonConvergenceError if the residual misses 1e-12 * max(1, max|a_j|),
    or 1e-6 times that scale where the roots cluster (see solve_monic_batch).
    """
    arr = np.asarray(coeffs, dtype=complex).reshape(1, -1)
    roots, res, _, tol_used, ok = solve_monic_batch(arr)
    if not ok[0]:
        raise NonConvergenceError(roots[0], float(res[0]), tol_used[0], arr[0])
    return RootSet(roots[0], float(res[0]), float(tol_used[0]))


# ---------------------------------------------------------------------------
# bottleneck matching


def _kuhn_perfect_matching(dists: list, threshold: float):
    """Perfect matching of the bipartite graph with an edge (u, v) wherever
    dists[u][v] <= threshold (nested lists of floats), or None."""
    n = len(dists)
    match_r = [-1] * n

    def try_augment(u, seen):
        row = dists[u]
        for v in range(n):
            if row[v] <= threshold and not seen[v]:
                seen[v] = True
                if match_r[v] == -1 or try_augment(match_r[v], seen):
                    match_r[v] = u
                    return True
        return False

    for u in range(n):
        if not try_augment(u, [False] * n):
            return None
    perm = [0] * n
    for v, u in enumerate(match_r):
        perm[u] = v
    return tuple(perm)


def match_roots(a_roots, b_roots) -> RootMatching:
    """Bottleneck matching between two equal-size multisets in C.

    Binary search over the sorted pairwise distances, with a bipartite
    feasibility matching (Kuhn's augmenting paths) at each candidate
    threshold; minimizes the maximum matched distance (the renumbering used
    by the root perturbation bound).  The matching runs on the distances as
    Python floats, so each edge test is one float comparison.  Raises
    ValueError unless the roots, and so their distances, are finite.
    """
    a = np.asarray(a_roots, dtype=complex).ravel()
    b = np.asarray(b_roots, dtype=complex).ravel()
    if a.size != b.size or a.size == 0:
        raise ValueError(f"root multisets must have equal positive size, got {a.size} and {b.size}")
    dists = np.abs(a[:, None] - b[None, :])
    candidates = np.unique(dists)  # ascending, NaN last
    # a non-finite root is at distance inf or NaN from every root of the other set
    if not np.isfinite(candidates[-1]):
        raise ValueError("roots and their distances must be finite")
    rows, thresholds = dists.tolist(), candidates.tolist()
    lo, hi = 0, len(thresholds) - 1
    best_perm = None
    while lo <= hi:
        mid = (lo + hi) // 2
        perm = _kuhn_perfect_matching(rows, thresholds[mid])
        if perm is not None:
            best_perm = perm
            hi = mid - 1
        else:
            lo = mid + 1
    assert best_perm is not None  # full threshold always matches
    bottleneck = max(rows[i][v] for i, v in enumerate(best_perm))
    return RootMatching(best_perm, bottleneck)


def match_bottlenecks(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bottleneck matching distance of each row pair of y, w (N, n).

    For n <= 4 this is the minimum over all n! permutations of the row-wise
    max of the gathered pairwise distances, one (N, n) gather per
    permutation; larger n falls back to match_roots per row.  Either way
    row i equals match_roots(y[i], w[i]).bottleneck bitwise: both take the
    same entries of the same distance array.  Raises ValueError unless both
    arrays are finite.
    """
    nrows, n = y.shape
    if w.shape != y.shape or n == 0:
        raise ValueError(f"fiber arrays must share a shape (N, n >= 1), got {y.shape} and {w.shape}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
        raise ValueError("fibers must be finite")
    if n > 4:
        return np.array([match_roots(a, b).bottleneck for a, b in zip(y, w)])
    dists = np.abs(y[:, :, None] - w[:, None, :])
    rows = np.arange(n)
    best = np.full(nrows, np.inf)
    for perm in itertools.permutations(range(n)):
        np.minimum(best, dists[:, rows, perm].max(axis=1), out=best)
    return best


# ---------------------------------------------------------------------------
# Hoelder perturbation bound


@dataclass(frozen=True)
class HoelderReport:
    """Outcome of one perturbation-bound check: matched distances per root,
    the bound 4 n C |a-b|_inf^(1/n), and the observed lhs/rhs ratio."""

    lhs: np.ndarray
    rhs: float
    passed: bool
    ratio: float
    tol_used: float


def hoelder_check(a_coeffs, b_coeffs, C: float) -> HoelderReport:
    """Check the root continuity bound for two monic coefficient vectors.

    Preconditions (rejected, never clamped): C > 1 and |a|_inf <= C,
    |b|_inf <= C.  Both vectors are solved in one solve_monic_batch call,
    whose convergence verdict is the one rule: NonConvergenceError is raised
    when either row is not converged, and tol_used is the larger of the two
    rows' tolerances.  The bound is asserted up to 10x that tolerance to
    absorb residual root error.
    """
    a = np.asarray(a_coeffs, dtype=complex).ravel()
    b = np.asarray(b_coeffs, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError("coefficient vectors must have equal length")
    n = a.size
    if C <= 1.0:
        raise ValueError(f"need C > 1, got {C}")
    both = np.stack([a, b])
    if np.abs(both).max(initial=0.0) > C:
        raise ValueError("coefficient max norm exceeds C; hypothesis violated")

    sets, res, _iters, tol, ok = solve_monic_batch(both)
    if not ok.all():
        i = int(np.argmin(ok))
        raise NonConvergenceError(sets[i], float(res[i]), tol[i], both[i])
    tol_used = float(tol.max())

    matching = match_roots(sets[0], sets[1])
    lhs = np.abs(sets[0] - sets[1][list(matching.permutation)])
    diff = float(np.abs(a - b).max())
    rhs = 4.0 * n * C * diff ** (1.0 / n)
    slack = 10.0 * tol_used
    passed = bool(lhs.max() <= rhs + slack)
    ratio = float(lhs.max() / rhs) if rhs > 0 else 0.0
    return HoelderReport(lhs, rhs, passed, ratio, tol_used)
