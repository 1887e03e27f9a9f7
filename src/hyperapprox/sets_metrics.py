"""Sampled compact sets and multigraphs, the fiberwise (sup-over-base)
Hausdorff metric together with the Hausdorff distance of the sampled
graphs, sampled Kuratowski convergence checks, and geometric
convergence-rate fitting.

All sets are finite samples, so every sup/inf is a finite max/min; each
sample records its covering radius (mesh) so distances carry an honest
+-2*mesh error bar.

scipy.spatial is loaded by the first k-d tree built (the graph Hausdorff
distance, kuratowski_check, sample_disc and so sample_polydisc), not on
import, so the paths that build no tree run on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .extremal import Box, Disc, Polydisc, Segment, StandardShape

__all__ = [
    "SampledCompact",
    "Multigraph",
    "DeltaResult",
    "KuratowskiReport",
    "RateFit",
    "fiberwise_hausdorff",
    "fiber_profile",
    "kuratowski_check",
    "fit_geometric_rate",
    "sample_segment",
    "sample_disc",
    "sample_box",
    "sample_polydisc",
]

# entries at or below this are treated as exactly-represented noise
RATE_FLOOR = 1e-13
# slow-decay detection only looks at entries above this shelf; smaller values
# sit in solver/rounding territory where the decay shape is meaningless
NOISE_SHELF = 1e-10
RESIDUAL_MAX = 3.0
DRIFT_MAX = 1.15
GEOMETRIC_THETA_MAX = 0.95


def _kdtree(points: np.ndarray):
    """A k-d tree on real points (N, k).  scipy.spatial is imported here, at
    the first tree built, so paths that build none never load it."""
    from scipy.spatial import cKDTree

    return cKDTree(points)


def _to_real(pts: np.ndarray) -> np.ndarray:
    """View points of C^m as real 2m-vectors (distance-preserving)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=complex))
    return np.column_stack([pts.real, pts.imag])


@dataclass(frozen=True)
class SampledCompact:
    """Finite sample of a compact subset of C^m.

    mesh is the covering radius of the sample (max distance from any point of
    the declared set to its nearest sample).
    """

    points: np.ndarray
    mesh: float
    shape: StandardShape | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=complex))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Multigraph:
    """Map from each base sample point to its fiber of n points in C.

    fibers is a read-only (base.count, n) complex array: row i lists the n
    roots, with multiplicity, of the monic fiber polynomial at base point i;
    base points and fibers must be finite.
    The graph (union of {x} x fiber(x)) is a sampled subset of K x C.
    flagged holds the indices of base points whose roots the solver did not
    certify.
    """

    base: SampledCompact
    fibers: np.ndarray
    n: int
    flagged: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"covering number must be >= 1, got {self.n}")
        try:
            fibs = np.asarray(self.fibers, dtype=complex)
        except ValueError as exc:
            raise ValueError(f"fibers must all have {self.n} points: {exc}") from exc
        if fibs.shape != (self.base.count, self.n):
            raise ValueError(
                f"fibers have shape {fibs.shape}, need one row of n = {self.n} points "
                f"per base sample point ({self.base.count}, {self.n})"
            )
        finite = np.isfinite(fibs).all(axis=1) & np.isfinite(self.base.points).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"base points and fibers must be finite: row {int(np.argmin(finite))} is not"
            )
        fibs.setflags(write=False)
        object.__setattr__(self, "fibers", fibs)

    def graph_points(self) -> np.ndarray:
        """All points (x, t) of the sampled graph, shape (N * n, m + 1), x-major."""
        return np.column_stack([np.repeat(self.base.points, self.n, axis=0), self.fibers.ravel()])

    @cached_property
    def _tree(self):
        """k-d tree of the whole graph in _real_graph's layout, built at the
        first query that needs it and kept: the fibers and base are
        read-only, so every later query against this graph reuses it."""
        return _kdtree(_real_graph(self, slice(None)))


# ---------------------------------------------------------------------------
# distances

# first query block of _directed_bounded; each later block doubles
_QUERY_BLOCK = 64
# eps of _directed_bounded's approximate screen query, from a sweep over the
# staircase table (1, 3, 5, 10 and 30 were timed; 3 to 30 tie)
_SCREEN_EPS = 5.0
# absolute part of _directed_bounded's box margin: its square, 1e-300, is far
# above the subnormal grid step 2^-1074 of the tree's summed squares
_BOX_ABS_MARGIN = 1e-150


def _decreasing_head(bound: np.ndarray, pos: np.ndarray, count: int) -> np.ndarray:
    """The first count entries of pos[np.argsort(-bound[pos], kind="stable")]
    without sorting the rest: a partition finds the count-th largest bound,
    every row above it is taken, and of the rows tied at it the earliest in
    pos fill the block, as the stable sort keeps them."""
    if pos.size > count:
        vals = bound[pos]
        cut = np.partition(vals, pos.size - count)[pos.size - count]
        take = vals > cut
        take[np.flatnonzero(vals == cut)[:count - np.count_nonzero(take)]] = True
        pos = pos[take]
    return pos[np.argsort(-bound[pos], kind="stable")]


def _directed_bounded(a_re: np.ndarray, b_re: np.ndarray, bound: np.ndarray,
                      b_graph: Multigraph | None = None) -> float:
    """sup over a of the distance to b, given bound[i] >= dist(a_i, b) that is
    exact where it is 0, and attained up to rounding by a partner point of b
    that differs from a_i only in the last column of each half (the fiber's
    real and imaginary part).  Serves fiberwise_hausdorff.

    Rows with bound 0 are never queried.  The others are queried in
    decreasing-bound blocks, skipping every row whose bound, widened by
    1e-12 relative, is at most the running max, against one k-d tree on the
    points of b that a queried row's nearest neighbour can be.  The result is
    the same float as querying every row of a against a tree on all of b.

    Order: the rows run by decreasing bound, ties by increasing index (a
    stable sort).  The first block is _decreasing_head's.  After it, only
    the rows whose widened bound still exceeds the running max are sorted:
    the widening is monotone, so they are a prefix of the full order that
    starts with the first block, every later block is the same slice of
    it, and the rows cut off would all have been skipped.

    Box: with U the largest bound and M = U (1 + 1e-12) + 1e-150, the tree
    holds the points of b inside the bounding box of the rows with bound > 0,
    widened by M; b itself when the box holds every point.  Rounding is
    monotone, so a point of b outside the box differs from every such row by
    more than M in some coordinate, and the tree's summed squares for it are
    at least about M^2.  For the partner they are at most u^2 (1 + 2^-50)
    + 2^-1074, the last term where the squares are subnormal.  M^2 exceeds
    that by the relative 1e-12 where u^2 is normal and by the absolute 1e-300
    where it is not (for subnormal u the partner's summed squares round to 0),
    so no point outside the box is nearer than the partner, which lies inside
    it.  The tree computes the same float for the same pair of points
    whatever other points it holds, so the nearest distance is unchanged.
    Kept tree: when the box holds every point and b_re is all of the graph
    b_graph (the caller passes it only then), the query runs against
    b_graph's kept tree instead of a new one.

    Screen: after the first block, each block is first queried with the
    (1 + eps)-approximate search bounded by the running max.  A finite
    answer is the tree's distance to an actual point of b, so it is at least
    the row's exact distance, and a row whose answer is at most the running
    max cannot raise it.  Only the other rows, those that returned inf
    included, get the exact query.
    """
    pos = np.flatnonzero(bound > 0)
    if pos.size == 0:
        return 0.0
    head = _decreasing_head(bound, pos, _QUERY_BLOCK)
    # coordinate-major copies: numpy reduces contiguous rows far faster than
    # the columns of a narrow (N, 2m + 2) array
    cand = np.take(a_re.T, pos, axis=1)
    margin = bound[head[0]] * (1.0 + 1e-12) + _BOX_ABS_MARGIN
    lo, hi = cand.min(axis=1) - margin, cand.max(axis=1) + margin
    coords = b_re.T.copy()
    out = (coords.min(axis=1) < lo) | (coords.max(axis=1) > hi)
    if out.any():
        cols = coords[out]
        tree = _kdtree(b_re[((cols >= lo[out, None]) & (cols <= hi[out, None])).all(axis=0)])
    else:
        tree = _kdtree(b_re) if b_graph is None else b_graph._tree
    best, start, size, rows, order = 0.0, 0, _QUERY_BLOCK, head, None
    while True:
        block = a_re[rows[bound[rows] * (1.0 + 1e-12) > best]]
        if not block.size:
            break
        if best > 0:
            near, _ = tree.query(block, k=1, eps=_SCREEN_EPS, distance_upper_bound=best)
            block = block[near > best]
        if block.size:
            best = max(best, float(np.max(tree.query(block, k=1)[0])))
        start, size = start + size, 2 * size
        if order is None:
            live = pos[bound[pos] * (1.0 + 1e-12) > best]
            order = live[np.argsort(-bound[live], kind="stable")]
        rows = order[start:start + size]
    return best


def _points_of(obj) -> np.ndarray:
    if isinstance(obj, SampledCompact):
        return obj.points
    return np.atleast_2d(np.asarray(obj, dtype=complex))


def _fiber_bounds(y: Multigraph, w: Multigraph):
    """min_k |y_ij - w_ik| (N, n_y) and min_j |y_ij - w_ik| (N, n_w): each
    fiber point's distance to the other fiber over the same base point, from
    one (N, n_y, n_w) array of pairwise distances."""
    if y.base is not w.base and (y.base.points.shape != w.base.points.shape
                                 or not np.array_equal(y.base.points, w.base.points)):
        raise ValueError("multigraphs must share the same base sample points")
    d = np.abs(y.fibers[:, :, None] - w.fibers[:, None, :])
    return d.min(axis=2), d.min(axis=1)


def _real_graph(g: Multigraph, sel) -> np.ndarray:
    """_to_real(g.graph_points()) over the base points sel selects, filled in
    place: columns [Re x, Re t, Im x, Im t], n rows per base point."""
    x, t = g.base.points[sel], g.fibers[sel]
    m = x.shape[1]
    out = np.empty(t.shape + (2 * m + 2,))
    out[:, :, :m] = x.real[:, None, :]
    out[:, :, m] = t.real
    out[:, :, m + 1:-1] = x.imag[:, None, :]
    out[:, :, -1] = t.imag
    return out.reshape(t.size, -1)


def fiber_profile(y: Multigraph, w: Multigraph) -> np.ndarray:
    """Per-base-point Hausdorff distance between the two fibers, shape (N,)."""
    uy, uw = _fiber_bounds(y, w)
    return np.maximum(uy.max(axis=1), uw.max(axis=1))


@dataclass(frozen=True)
class DeltaResult:
    delta: float
    graph_dh: float


def fiberwise_hausdorff(y: Multigraph, w: Multigraph, keep: np.ndarray | None = None) -> DeltaResult:
    """The fiberwise distance delta (sup over base points of the fiber
    Hausdorff distance) and the Hausdorff distance graph_dh of the sampled
    graphs: the one path that computes this pair.

    keep, an optional boolean (N,) mask of base points, restricts both the
    profile max and the graph rows (each base point owns n rows); any other
    keep raises ValueError, since an integer array would select rows by
    index.  On exact data graph_dh <= delta; callers that need the invariant
    check it.

    graph_dh equals, bitwise and without querying every point, the plain
    Hausdorff distance of the two (masked) graphs that queries every point
    against a k-d tree on the other (the tests' oracle
    tests/oracles.py::hausdorff).  Bound: the graph point (x_i, y_ij) has the point
    (x_i, w_ik) of the other graph over the same base point, so its
    nearest-neighbour distance is at most u_ij = min_k |y_ij - w_ik|, the
    array fiber_profile reduces; u_ij = 0 means the point itself is in the
    other graph.  Stop rule: each direction queries its points with u > 0 in
    decreasing-u blocks and stops once the next u, widened by 1e-12 relative,
    is at most the running max.  Exactness: the base coordinates of the
    partner pair are equal, so the k-d tree's distance to the partner is the
    square root of the summed squares of the same two real differences whose
    hypot is u.  The two differ by a few ulp (where the squares are
    subnormal, the summed squares exceed u^2 by less than one step of the
    grid that every tree distance's square lies on), so every skipped point's
    tree distance is at most the running max, and the max is the same float
    as the full query's.

    More exact savings (argued in _directed_bounded).  Box: the k-d tree
    holds only the points of the other graph inside the bounding box of the
    points with u > 0, widened by max u (1 + 1e-12) + 1e-150; the margin keeps
    every partner inside and every point outside farther, in the tree's own
    float arithmetic, than the partner, subnormal squares included.  Screen:
    after the first block, a point whose (1 + eps)-approximate distance,
    bounded by the running max, is finite and at most that max is not queried
    exactly: that answer is the distance to an actual point, so the exact
    one is no larger.  Kept tree: with no base point masked, a direction
    whose box holds every point of the other graph queries that graph's
    whole-graph tree, built at its first such query and kept with the
    Multigraph, so forward's target builds one tree per run; it holds the
    same points, in the same order, as the tree it replaces.
    """
    if keep is not None:
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (y.base.count,):
            raise ValueError(f"keep must be a boolean array of shape ({y.base.count},), "
                             f"got {keep.dtype} of shape {keep.shape}")
        if keep.all():  # nothing masked: skip the masked copies
            keep = None
    sel = slice(None) if keep is None else keep
    uy, uw = _fiber_bounds(y, w)
    uy, uw = uy[sel], uw[sel]
    a, b = _real_graph(y, sel), _real_graph(w, sel)
    delta = float(max(uy.max(), uw.max()))
    # unmasked rows are whole graphs, whose kept trees may serve the query
    gy, gw = (y, w) if keep is None else (None, None)
    return DeltaResult(delta, max(_directed_bounded(a, b, uy.ravel(), gw),
                                  _directed_bounded(b, a, uw.ravel(), gy)))


# ---------------------------------------------------------------------------
# sampled Kuratowski convergence


@dataclass(frozen=True)
class KuratowskiReport:
    """Sampled two-condition convergence check.

    cond1: every limit point is eventually within tol of the sequence sets,
    with the good tail covering at least half the sampled sequence.
    cond2: every supplied witness compact (disjoint from the limit) is
    eventually missed by more than tol, same tail convention.
    """

    cond1: bool
    cond2: bool
    per_step_sup: tuple


def tail_start(flags) -> int | None:
    """First index from which all flags hold, or None if the last fails."""
    if not flags or not flags[-1]:
        return None
    idx = len(flags) - 1
    while idx > 0 and flags[idx - 1]:
        idx -= 1
    return idx


def degree_list(d_range, top_at_least: int = 0) -> list:
    """Sorted distinct degrees: at least 6 for a rate fit, the last >= top_at_least."""
    d_list = sorted(set(int(d) for d in d_range))
    if len(d_list) < 6:
        raise ValueError("degree range must span at least 6 degrees")
    if d_list[-1] < top_at_least:
        raise ValueError(f"max degree must be at least {top_at_least}")
    return d_list


def kuratowski_check(seq, limit: SampledCompact, tol: float, witnesses=()) -> KuratowskiReport:
    """Check sampled Kuratowski convergence of seq toward limit.

    tol must exceed every recorded sampling mesh, otherwise the check is
    meaningless and is rejected.
    """
    meshes = [limit.mesh] + [s.mesh for s in seq]
    if tol <= max(meshes):
        raise ValueError(f"tol {tol:.3e} must exceed the sampling mesh {max(meshes):.3e}")
    lim_re = _to_real(limit.points)
    trees = [_kdtree(_to_real(s.points)) for s in seq]
    sup_dists = [float(np.max(tree.query(lim_re, k=1)[0])) for tree in trees]
    ok1 = [d <= tol for d in sup_dists]
    nu0 = tail_start(ok1)
    half = len(seq) // 2
    cond1 = nu0 is not None and nu0 <= half

    cond2 = True
    for w in witnesses:
        w_re = _to_real(_points_of(w))
        start = tail_start([float(np.min(tree.query(w_re, k=1)[0])) > tol for tree in trees])
        cond2 = cond2 and start is not None and start <= half
    return KuratowskiReport(cond1, cond2, tuple(sup_dists))


# ---------------------------------------------------------------------------
# geometric rate fitting


@dataclass(frozen=True)
class RateFit:
    """Fit of alpha_d <= M * theta^d on a nonnegative sequence.

    theta comes from the least-squares line on (d, log alpha_d) over non-floor
    entries (clamped to [0, 1]); M is lifted so the envelope alpha_d <= M
    theta^d holds at every non-floor entry.  verdict is one of geometric /
    not-geometric / inconclusive; the d-th root tail max is reported as a
    finite-data limsup proxy.
    """

    M: float
    theta: float
    residual: float
    floor_mask: tuple
    verdict: str
    limsup_proxy: float
    floor: float = RATE_FLOOR
    n_used: int = 0


def _ls_slope(ds: np.ndarray, logs: np.ndarray):
    dbar, lbar = ds.mean(), logs.mean()
    var = ((ds - dbar) ** 2).sum()
    if var == 0:
        return 0.0, lbar
    slope = ((ds - dbar) * (logs - lbar)).sum() / var
    return slope, lbar - slope * dbar


def fit_geometric_rate(pairs, floor: float = RATE_FLOOR) -> RateFit:
    """Fit M, theta with alpha_d <= M theta^d from (d, alpha_d) data.

    Entries at or below floor are masked as exactly-represented noise.  The
    verdict is geometric only when theta <= 0.95, the log-space fit residual
    stays moderate, and the decay shows no slow-down drift: the fitted theta
    of the later half of the above-shelf entries must not exceed the earlier
    half's by more than 15% (polynomially decaying data drifts toward 1,
    genuinely geometric data does not).  Fewer than 4 usable entries gives an
    inconclusive verdict instead of an exception, except when everything is
    already at the floor, which is geometric with theta = 0 by convention.
    """
    pairs = [(float(d), float(a)) for d, a in pairs]
    if any(a < 0 for _, a in pairs):
        raise ValueError("rate data must be nonnegative")
    pairs.sort(key=lambda t: t[0])
    ds_all = np.array([d for d, _ in pairs])
    al_all = np.array([a for _, a in pairs])
    floor_mask = tuple(i for i, a in enumerate(al_all) if a <= floor)
    keep = np.array([i for i in range(len(pairs)) if i not in floor_mask], dtype=int)

    dth_roots = tuple(
        float(a ** (1.0 / d)) if d > 0 and a > 0 else 0.0 for d, a in pairs
    )
    tail_third = max(1, len(pairs) // 3)
    limsup_proxy = max(dth_roots[-tail_third:]) if dth_roots else 0.0

    if keep.size == 0:
        return RateFit(M=floor, theta=0.0, residual=0.0, floor_mask=floor_mask,
                       verdict="geometric", limsup_proxy=limsup_proxy, floor=floor, n_used=0)

    ds, al = ds_all[keep], al_all[keep]
    if keep.size < 4:
        # too few informative entries; if they all sit barely above the floor
        # the sequence is numerically resolved and geometric by convention
        if al.max() <= 100.0 * floor:
            return RateFit(M=floor * 100.0, theta=0.0, residual=0.0, floor_mask=floor_mask,
                           verdict="geometric", limsup_proxy=limsup_proxy,
                           floor=floor, n_used=int(keep.size))
        return RateFit(M=float(al.max()), theta=1.0, residual=float("nan"),
                       floor_mask=floor_mask, verdict="inconclusive",
                       limsup_proxy=limsup_proxy, floor=floor, n_used=int(keep.size))

    logs = np.log(al)
    slope, intercept = _ls_slope(ds, logs)
    residual = float(np.sqrt(np.mean((logs - (intercept + slope * ds)) ** 2)))
    theta = float(min(1.0, math.exp(slope)))

    if theta > 0.0:
        m_env = max(math.exp(intercept), float(np.max(al / theta ** ds)))
    else:  # pragma: no cover - exp never returns 0 here
        m_env = float(al.max())
    m_env *= 1.0 + 1e-12  # keep the envelope assertion safe under rounding

    active = keep[al_all[keep] > NOISE_SHELF]
    drift_bad = False
    if active.size >= 6:
        half = (active.size + 1) // 2
        head, tail = active[:half], active[-half:]
        sh, _ = _ls_slope(ds_all[head], np.log(al_all[head]))
        st, _ = _ls_slope(ds_all[tail], np.log(al_all[tail]))
        theta_head = float(min(1.0, math.exp(sh)))
        theta_tail = float(min(1.0, math.exp(st)))
        if theta_tail > GEOMETRIC_THETA_MAX:
            drift_bad = True
        elif theta_head > 0 and theta_tail / theta_head > DRIFT_MAX:
            drift_bad = True

    if theta > GEOMETRIC_THETA_MAX or drift_bad:
        verdict = "not-geometric"
    elif residual <= RESIDUAL_MAX:
        verdict = "geometric"
    else:
        verdict = "inconclusive"
    return RateFit(M=float(m_env), theta=theta, residual=residual, floor_mask=floor_mask,
                   verdict=verdict, limsup_proxy=limsup_proxy, floor=floor,
                   n_used=int(keep.size))


# ---------------------------------------------------------------------------
# samplers for the standard catalogue


def sample_segment(a: complex, b: complex, count: int) -> SampledCompact:
    """Uniform sample of the segment [a, b] in C, endpoints included."""
    if count < 2:
        raise ValueError("need at least 2 samples")
    ts = np.linspace(0.0, 1.0, count)
    pts = (a + (b - a) * ts).reshape(-1, 1).astype(complex)
    mesh = abs(b - a) / (2.0 * (count - 1))
    return SampledCompact(pts, mesh=mesh, shape=Segment(a, b))


def sample_disc(center: complex, radius: float, grid_n: int = 41) -> SampledCompact:
    """Square-grid sample of a closed disc, boundary circle included."""
    if grid_n < 5:
        raise ValueError("grid too coarse")
    xs = np.linspace(-radius, radius, grid_n)
    gx, gy = np.meshgrid(xs, xs)
    z = gx.ravel() + 1j * gy.ravel()
    z = z[np.abs(z) <= radius]
    nb = max(16, 4 * grid_n)
    ring = radius * np.exp(2j * np.pi * np.arange(nb) / nb)
    pts = np.concatenate([z, ring]) + center
    probe_n = 2 * grid_n + 1
    pxs = np.linspace(-radius, radius, probe_n)
    px, py = np.meshgrid(pxs, pxs)
    pz = px.ravel() + 1j * py.ravel()
    pz = pz[np.abs(pz) <= radius] + center
    # covering radius: farthest probe point of the disc from the samples
    tree = _kdtree(_to_real(pts.reshape(-1, 1)))
    mesh = float(tree.query(_to_real(pz.reshape(-1, 1)))[0].max())
    return SampledCompact(pts.reshape(-1, 1), mesh=mesh, shape=Disc(center, radius))


def sample_box(intervals, per_axis: int = 21) -> SampledCompact:
    """Grid sample of a product of real intervals (one per complex coordinate)."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in intervals]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids]).astype(complex)
    mesh = 0.5 * math.sqrt(sum(((hi - lo) / (per_axis - 1)) ** 2 for lo, hi in intervals))
    return SampledCompact(pts, mesh=mesh, shape=Box(tuple(tuple(iv) for iv in intervals)))


def sample_polydisc(radii, grid_n: int = 15) -> SampledCompact:
    """Grid sample of a polydisc centred at 0 (product of disc grids)."""
    factor_samples = [sample_disc(0.0, r, grid_n) for r in radii]
    grids = np.meshgrid(*[sc.points[:, 0] for sc in factor_samples], indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    mesh = math.sqrt(sum(sc.mesh ** 2 for sc in factor_samples))
    return SampledCompact(pts, mesh=mesh, shape=Polydisc(tuple(radii)))
