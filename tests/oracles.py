"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: mpmath's
extended-precision polyroots for root solving, exhaustive permutations for
bottleneck matching, the same binary search as match_roots with Kuhn's
matching on boolean adjacency matrices, a lexsort and a gather for the
canonical root order, grid search for the best constant approximation, a
linear program for the discrete minimax error, the Lebesgue constant of
least squares from an orthonormal Chebyshev basis, the three-term
Chebyshev recurrence for extremal-function growth, exact
point-to-segment distances for the Hausdorff distance of polylines, the
plain Hausdorff distance of finite samples by querying every point, a
direct walk of the JSON expression tree for coefficient functions, and a
column-by-column loop for the monomial Vandermonde matrix.

The plain Hausdorff distance is the unpruned reference for the library's
fiberwise_hausdorff, which must return the same float; it therefore
computes with the same k-d tree queries, on points laid out in the
library's real column order.
"""

from __future__ import annotations

import functools
import itertools

import mpmath
import numpy as np
from scipy.spatial import cKDTree


def mp_roots(monic_tail) -> np.ndarray:
    """Roots of t^n + a_1 t^(n-1) + ... + a_n by mpmath.polyroots at 30
    digits with 60 extra bits of working precision.

    polyroots raises NoConvergence on exact multiple roots; compare those
    with their known values instead.
    """
    a = np.asarray(monic_tail, dtype=complex).ravel()
    with mpmath.workdps(30):
        roots = mpmath.polyroots([mpmath.mpc(1)] + [mpmath.mpc(c) for c in a],
                                 maxsteps=200, extraprec=60)
    return np.array([complex(r) for r in roots])


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)


def brute_bottleneck(a, b) -> float:
    """Minimal over all bijections of the max pairwise distance (n <= 8):
    each row of the (n!, n) table of permutations gathers its n distances."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    assert a.size == b.size <= 8
    dists = np.abs(a[:, None] - b[None, :])
    return float(dists[np.arange(a.size), _permutations(a.size)].max(axis=1).min())


def lexsort_rows(z) -> np.ndarray:
    """Each row of z (N, n) ordered by real, then imaginary part, ties in
    their given order: the canonical root order as lexsort and a gather."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    return np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=1), axis=1)


def _kuhn_bool(adj: np.ndarray):
    """Perfect matching in a bipartite boolean adjacency matrix, or None."""
    n = adj.shape[0]
    match_r = [-1] * n

    def try_augment(u, seen):
        for v in range(n):
            if adj[u, v] and not seen[v]:
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


def bool_kuhn_matching(a, b) -> tuple:
    """(permutation, bottleneck) of the binary search over the sorted
    pairwise distances of equal-size finite multisets a, b, testing each
    threshold by Kuhn's matching on the boolean matrix dists <= threshold."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    dists = np.abs(a[:, None] - b[None, :])
    candidates = np.unique(dists)
    lo, hi = 0, candidates.size - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        perm = _kuhn_bool(dists <= candidates[mid])
        if perm is not None:
            best, hi = perm, mid - 1
        else:
            lo = mid + 1
    return best, float(max(dists[i, best[i]] for i in range(a.size)))


def hausdorff(e, f, ambient_diam: float | None = None) -> float:
    """Extended Hausdorff distance between finite samples of C^m, each a
    SampledCompact or an (N, m) point array.

    Max of the two directed sup-inf distances in the Euclidean norm, each
    querying every point against a k-d tree on the other set's points,
    taken as real rows [Re x, Im x].  Three cases: 0 when both sets are
    empty; ambient_diam + 1 when exactly one is (ambient_diam is then
    required); the distance otherwise.
    """
    ep, fp = (np.atleast_2d(np.asarray(getattr(s, "points", s), dtype=complex)) for s in (e, f))
    if ep.shape[0] == 0 and fp.shape[0] == 0:
        return 0.0
    if ep.shape[0] == 0 or fp.shape[0] == 0:
        if ambient_diam is None:
            raise ValueError("ambient_diam required when exactly one set is empty")
        return float(ambient_diam) + 1.0
    a, b = (np.column_stack([p.real, p.imag]) for p in (ep, fp))
    return max(float(np.max(cKDTree(b).query(a, k=1)[0])),
               float(np.max(cKDTree(a).query(b, k=1)[0])))


def grid_minimax_constant(values: np.ndarray, resolution: int = 200001) -> float:
    """Best max-error achievable by a real constant, by brute grid search."""
    values = np.asarray(values, dtype=float)
    cs = np.linspace(values.min(), values.max(), resolution)
    errs = np.abs(values[None, :] - cs[:, None]).max(axis=1)
    return float(errs.min())


def lp_minimax(x, f, d: int) -> float:
    """Discrete minimax error of real f by real degree-<= d polynomials on
    the real points x, as the linear program min t subject to
    |f_i - sum_k c_k T_k(x_i)| <= t, solved by HiGHS.

    HiGHS solves to about 1e-7 feasibility, so errors below about 1e-8
    come back as 0: use it only on errors above 1e-6.
    """
    from scipy.optimize import linprog

    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    V = np.polynomial.chebyshev.chebvander(x, d)
    ones = np.ones((x.size, 1))
    res = linprog(
        c=np.r_[np.zeros(d + 1), 1.0],
        A_ub=np.block([[V, -ones], [-V, -ones]]),
        b_ub=np.r_[f, -f],
        bounds=[(None, None)] * (d + 1) + [(0.0, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def lebesgue_constant(x, d: int) -> float:
    """Sup norm on the real points x of the discrete least-squares projector
    onto degree-<= d polynomials: max_i sum_j |(Q Q^T)_ij|, with Q the
    orthonormal factor of the Chebyshev-Vandermonde matrix."""
    Q, _ = np.linalg.qr(np.polynomial.chebyshev.chebvander(np.asarray(x, dtype=float), d))
    return float(np.abs(Q @ Q.T).sum(axis=1).max())


def cheb_t(d: int, z: complex) -> complex:
    """T_d(z) by the three-term recurrence."""
    if d == 0:
        return 1.0
    prev, cur = 1.0 + 0j, complex(z)
    for _ in range(d - 1):
        prev, cur = cur, 2 * z * cur - prev
    return cur


def cheb_growth_oracle(z: complex, d: int = 30) -> float:
    """d-th root growth of the norm-calibrated Chebyshev value 2 T_d(z).

    The factor 2 removes the 2^(d-1) leading-coefficient offset so the d-th
    root converges at a geometric (not 1/d) rate.
    """
    return float(abs(2.0 * cheb_t(d, z)) ** (1.0 / d))


def exp_cheb_tail(d: int, terms: int = 60) -> float:
    """Upper bound on the minimax error of e^x on [-1, 1] at degree d via the
    Chebyshev series tail: sum of |2 I_k(1)| for k > d."""
    from scipy.special import iv

    ks = np.arange(d + 1, d + 1 + terms)
    return float(np.sum(2.0 * iv(ks, 1.0)))


def subset_products_ok(t, s, R: float, r: float, C: np.ndarray) -> bool:
    """Check every subset-product difference against its C_k bound."""
    t = np.asarray(t, dtype=complex)
    s = np.asarray(s, dtype=complex)
    n = t.size
    for k in range(1, n + 1):
        for idx in itertools.combinations(range(n), k):
            pt = np.prod(t[list(idx)])
            ps = np.prod(s[list(idx)])
            if abs(pt - ps) > C[k - 1] * r * (1.0 + 1e-12) + 1e-15:
                return False
    return True


def _distances_to_segments(pts: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the polyline through verts."""
    a, b = verts[:-1], verts[1:]
    ab = b - a
    ap = pts[:, None, :] - a[None, :, :]
    s = np.clip(np.einsum("psd,sd->ps", ap, ab) / np.einsum("sd,sd->s", ab, ab), 0.0, 1.0)
    foot = a[None, :, :] + s[..., None] * ab[None, :, :]
    return np.linalg.norm(pts[:, None, :] - foot, axis=2).min(axis=1)


def _arc_samples(verts: np.ndarray) -> np.ndarray:
    """2001 evenly spaced points on every segment, vertices included."""
    s = np.linspace(0.0, 1.0, 2001)[None, :, None]
    a, b = verts[:-1, None, :], verts[1:, None, :]
    return (a + s * (b - a)).reshape(-1, 2)


def polyline_hausdorff(p, q) -> float:
    """Hausdorff distance between two planar polylines given by their
    vertices, from dense samples of each against the exact distance to every
    segment of the other.

    The distance to a polyline is 1-Lipschitz, so the result is exact where
    the farthest point is a vertex and low by at most the sample spacing
    otherwise.  Memory grows like (segments of p) * (segments of q) * 2001,
    so pass only the stretch where the polylines differ plus a neighbouring
    segment on each side: the parts they share add nothing.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(max(_distances_to_segments(_arc_samples(p), q).max(),
                     _distances_to_segments(_arc_samples(q), p).max()))


def eval_expr_json(node: dict, pts: np.ndarray) -> np.ndarray:
    """Value of a JSON coefficient expression at an (N, m) point array,
    walking the JSON itself with the numpy ops the library documents.

    Sums and products fold from 0 and 1 in argument order; a "poly" node is
    summed term by term, each power built by repeated multiplication in the
    node's affine coordinates.  Raises ZeroDivisionError where an "inv"
    denominator has modulus below 1e-13, the library's pole floor.
    """
    op, args = node["op"], node["args"]
    count = pts.shape[0]
    if op == "const":
        re, im = args if len(args) == 2 else (args[0], 0.0)
        return np.full(count, complex(re, im), dtype=complex)
    if op == "coord":
        return pts[:, args[0]].astype(complex)
    if op == "poly":
        data = args[0]
        w = pts.astype(complex)
        if "center" in data:
            w = (w - np.array([complex(*c) for c in data["center"]])) / np.array(data["scale"])
        out = np.zeros(count, dtype=complex)
        for exps, (re, im) in data["terms"]:
            mono = np.full(count, complex(re, im), dtype=complex)
            for i, e in enumerate(exps):
                if e:
                    power = np.ones(count, dtype=complex)
                    for _ in range(e):
                        power = power * w[:, i]
                    mono = mono * power
            out += mono
        return out
    vals = [eval_expr_json(a, pts) for a in args]
    if op == "add":
        out = np.zeros(count, dtype=complex)
        for v in vals:
            out = out + v
        return out
    if op == "mul":
        out = np.ones(count, dtype=complex)
        for v in vals:
            out = out * v
        return out
    (v,) = vals
    if op == "inv":
        if np.any(np.abs(v) < 1e-13):
            raise ZeroDivisionError("inv denominator at a pole")
        return 1.0 / v
    return {"neg": np.negative, "exp": np.exp, "sin": np.sin, "cos": np.cos}[op](v)


def vandermonde_loop(w: np.ndarray, exponents) -> np.ndarray:
    """(N, k) monomial matrix of w (N, m), built one column at a time.

    Each power w_i ** k is formed by k repeated multiplications starting
    from 1, and each column multiplies the powers of its nonzero exponents
    in variable order, so the entries are the same floats as those of a
    power table gathered per variable.
    """
    cols = []
    for e in exponents:
        col = np.ones(w.shape[0], dtype=w.dtype)
        for i, k in enumerate(e):
            if k:
                power = np.ones(w.shape[0], dtype=w.dtype)
                for _ in range(k):
                    power = power * w[:, i]
                col = col * power
        cols.append(col)
    return np.column_stack(cols)
