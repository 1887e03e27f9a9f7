import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperapprox import roots
from hyperapprox.algebra import vieta_from_roots
from hyperapprox.roots import (
    NonConvergenceError,
    hoelder_check,
    match_bottlenecks,
    match_roots,
    min_gaps,
    solve_monic,
    solve_monic_batch,
)
from tests.oracles import bool_kuhn_matching, brute_bottleneck, lexsort_rows, mp_roots


def test_solve_quadratic_plus_minus_one():
    rs = solve_monic([0.0, -1.0])
    got = sorted(rs.roots, key=lambda z: z.real)
    np.testing.assert_allclose(got, [-1.0, 1.0], atol=1e-10)


def test_solve_double_root_with_relaxed_tol():
    rs = solve_monic([0.0, 0.0])
    np.testing.assert_allclose(rs.roots, [0.0, 0.0], atol=1e-3)
    assert rs.residual <= 1e-6


def test_solve_cubic_explicit_roots():
    rs = solve_monic([-6.0, 11.0, -6.0])
    oracle = mp_roots([-6.0, 11.0, -6.0])
    assert match_roots(rs.roots, oracle).bottleneck <= 1e-9
    np.testing.assert_allclose(sorted(r.real for r in rs.roots), [1, 2, 3], atol=1e-9)


_coeff = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)).filter(lambda z: abs(z) <= 3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_coeff, min_size=1, max_size=8))
def test_solver_matches_mpmath_oracle_property(coeffs):
    try:
        oracle = mp_roots(coeffs)
    except mpmath.libmp.NoConvergence:
        # exact multiple roots: polyroots cannot resolve them, and
        # test_solver_multiple_roots_converge compares those with known roots
        assume(False)
    roots, res, _, tol_used, ok = solve_monic_batch(np.array([coeffs]))
    assert ok[0]
    assert res[0] <= tol_used[0] * max(1.0, max(abs(c) for c in coeffs))
    assert match_roots(roots[0], oracle).bottleneck <= 1e-8


def test_solver_residual_contract():
    rng = np.random.default_rng(9)
    coeffs = rng.uniform(-3, 3, (50, 4)) + 1j * rng.uniform(-3, 3, (50, 4))
    roots, res, _, tol_used, ok = solve_monic_batch(coeffs)
    assert ok.all()
    scale = np.maximum(1.0, np.abs(coeffs).max(axis=1))
    assert (res <= tol_used * scale).all()


# monic tails with known multiple or tightly clustered roots
_MULTIPLE = [
    ([-3.0, 3.0, -1.0], [1.0, 1.0, 1.0]),  # (t - 1)^3
    ([0.0] * 6, [0.0] * 6),  # t^6
    ([0.0, 2.0, 0.0, 1.0], [1j, 1j, -1j, -1j]),  # (t^2 + 1)^2
    ([-(2.0 + 1e-5), 1.0 + 1e-5], [1.0, 1.0 + 1e-5]),  # pair 1e-5 apart
]


@pytest.mark.parametrize("tail, exact", _MULTIPLE)
def test_solver_multiple_roots_converge(tail, exact):
    roots, res, _, tol_used, ok = solve_monic_batch(np.array([tail]))
    assert ok[0]
    assert res[0] <= tol_used[0] * max(1.0, np.abs(tail).max())
    assert match_roots(roots[0], np.array(exact, dtype=complex)).bottleneck <= 1e-4


def test_solver_keeps_strict_tol_where_the_residual_meets_it():
    rng = np.random.default_rng(31)
    batches = [np.array([tail]) for tail, _ in _MULTIPLE]
    batches.append(rng.uniform(-3, 3, (20, 4)) + 1j * rng.uniform(-3, 3, (20, 4)))
    strict_multiple = 0
    for coeffs in batches:
        _, res, iters, tol_used, ok = solve_monic_batch(coeffs)
        strict = res <= 1e-12 * np.maximum(1.0, np.abs(coeffs).max(axis=1))
        assert ok.all()
        assert (iters == 1).all()
        assert (tol_used[strict] == 1e-12).all()
        strict_multiple += int(strict.sum()) if coeffs.shape[0] == 1 else 0
    # clustered roots alone must not relax the tolerance
    assert strict_multiple >= 3


def test_solver_rejects_nonfinite():
    # by its own check, before the eigenvalue solve sees the value
    for tail in ([np.inf, 1.0], [1.0, complex(0.0, np.nan)]):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            solve_monic(tail)


def test_match_simple_example():
    m = match_roots([1.0, 2.0], [2.1, 0.9])
    assert m.bottleneck == pytest.approx(0.1, abs=1e-12)
    # 1 pairs with 0.9 (index 1), 2 pairs with 2.1 (index 0)
    assert m.permutation == (1, 0)


def test_match_identity():
    a = np.array([0.3 + 1j, -2.0, 0.5j])
    assert match_roots(a, a).bottleneck == 0.0


def _attained(a, b, matching) -> float:
    """The largest distance that the matching's permutation pairs."""
    return float(np.abs(np.asarray(a) - np.asarray(b)[list(matching.permutation)]).max())


def test_match_against_bruteforce():
    # normal draws, and grid draws (one with a single root of multiplicity
    # n) whose repeated roots and exactly tied distances leave several
    # optimal permutations
    rng = np.random.default_rng(13)
    grid = np.array([-1.0, 0.0, 0.5, 1.0, 1j, 0.5 + 1j])
    for n in range(1, 9):
        for _ in range(8):
            normal = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2)]
            ties = [rng.choice(grid, size=n) for _ in range(2)]
            repeated = [np.full(n, rng.choice(grid)), rng.choice(grid, size=n)]
            for a, b in (normal, ties, repeated):
                m = match_roots(a, b)
                assert m.bottleneck == pytest.approx(brute_bottleneck(a, b), abs=1e-12)
                assert _attained(a, b, m) == m.bottleneck


# real and imaginary parts from a grid with both signed zeros, or any float:
# tied real parts, repeated roots and exactly tied distances
_part = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]), st.floats(-3, 3))
_root = st.builds(complex, _part, _part)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.lists(_root, min_size=n, max_size=n),
                                                    min_size=2, max_size=2)))
def test_match_roots_equals_the_boolean_kuhn_oracle(pair):
    # the same thresholds tested on the same floats: the same permutation
    # among several optimal ones, and the same bottleneck
    a, b = pair
    m = match_roots(a, b)
    assert (m.permutation, m.bottleneck) == bool_kuhn_matching(a, b)


@st.composite
def _root_rows(draw):
    """(rows, n) roots with conjugate pairs and, on a drawn share of the
    rows, one root repeated."""
    n, rows = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    z = np.array(draw(st.lists(_root, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    pairs = draw(st.integers(0, n // 2))
    z[:, n - pairs:] = z[:, :pairs].conj()
    repeat = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    z[repeat, : n - pairs] = z[repeat, :1]
    return z


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_root_rows(), st.booleans())
def test_solver_rows_follow_the_lexsort_order(z, real):
    # a real batch takes the real QR: exact conjugate pairs, real roots at +-0j
    coeffs = vieta_from_roots(z)
    roots = solve_monic_batch(coeffs.real if real else coeffs)[0]
    assert roots.tobytes() == lexsort_rows(roots).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_root_rows())
def test_vieta_rows_follow_the_lexsort_order(z):
    # the factors are multiplied in lexsort order, whatever their given order
    assert vieta_from_roots(z).tobytes() == vieta_from_roots(lexsort_rows(z)).tobytes()
    assert vieta_from_roots(z[0]).tobytes() == vieta_from_roots(lexsort_rows(z)[0]).tobytes()


# a coarse grid forces repeated roots and exactly tied distances
_grid_point = st.builds(complex, st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.sampled_from([0.0, 1.0]))


@st.composite
def _fiber_pairs(draw):
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 20))
    point = st.one_of(_grid_point, _coeff)
    y, w = (np.array(draw(st.lists(point, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
            for _ in range(2))
    if draw(st.booleans()):  # every row of y one root of multiplicity n
        y[:] = y[:, :1]
    return y, w


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_fiber_pairs())
def test_match_bottlenecks_rows_equal_match_roots(pair):
    # n = 5..8 take the per-row fallback, n <= 4 the permutation minimum
    y, w = pair
    got = match_bottlenecks(y, w)
    assert got.shape == (y.shape[0],)
    for i in range(y.shape[0]):
        m = match_roots(y[i], w[i])
        assert got[i] == m.bottleneck == _attained(y[i], w[i], m)
        assert got[i] == pytest.approx(brute_bottleneck(y[i], w[i]), abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_match_roots_rejects_nonfinite(bad):
    for a, b in (([bad], [0.0]), ([bad, 1.0], [0.0, 1.0]), ([0.0, 1.0], [1.0, bad])):
        with pytest.raises(ValueError, match="finite"):
            match_roots(a, b)


@pytest.mark.parametrize("n", [2, 5])
def test_match_bottlenecks_rejects_nonfinite(n):
    # both the permutation minimum (n <= 4) and the per-row fallback
    y = np.zeros((3, n), dtype=complex)
    for bad in (np.nan, np.inf):
        w = y.copy()
        w[1, -1] = bad
        for args in ((y, w), (w, y)):
            with pytest.raises(ValueError, match="finite"):
                match_bottlenecks(*args)


def test_match_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rng.normal(size=5) + 1j * rng.normal(size=5)
        b = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert match_roots(a, b).bottleneck == pytest.approx(match_roots(b, a).bottleneck, abs=1e-12)


def test_match_size_mismatch():
    with pytest.raises(ValueError):
        match_roots([1.0], [1.0, 2.0])


def _hausdorff_1d(a, b):
    d = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def test_hausdorff_never_exceeds_bottleneck():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert _hausdorff_1d(a, b) <= match_roots(a, b).bottleneck + 1e-12


def test_hoelder_equal_inputs():
    rep = hoelder_check([0.5, -0.25], [0.5, -0.25], C=2.0)
    assert rep.passed
    assert rep.lhs.max() <= 1e-10


def test_hoelder_linear_case():
    rep = hoelder_check([0.5], [-0.5], C=2.0)
    assert rep.lhs.max() == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(8.0)
    assert rep.passed


def _set_last_row(monkeypatch, tol_used, converged):
    # the solver's verdict on the last row of every batch, as if it had found it
    solve = roots.solve_monic_batch

    def patched(coeffs):
        z, res, iterations, tol, ok = solve(coeffs)
        tol, ok = tol.copy(), ok.copy()
        tol[-1], ok[-1] = tol_used, converged
        return z, res, iterations, tol, ok

    monkeypatch.setattr(roots, "solve_monic_batch", patched)


def test_hoelder_tol_used_is_the_solvers(monkeypatch):
    a, b = [1.5, -0.5], [1.5, -0.4]
    assert hoelder_check(a, b, C=2.0).tol_used == roots.DEFAULT_TOL
    _set_last_row(monkeypatch, roots.RELAXED_TOL, True)
    assert hoelder_check(a, b, C=2.0).tol_used == roots.RELAXED_TOL


def test_flagged_row_raises_naming_the_tested_target(monkeypatch):
    # both raisers report tol_used * max(1, max|a_j|), the target the solver tested
    _set_last_row(monkeypatch, roots.DEFAULT_TOL, False)
    with pytest.raises(NonConvergenceError, match=r"target 1\.500e-12$"):
        hoelder_check([1.5, -0.5], [1.5, -0.4], C=2.0)
    with pytest.raises(NonConvergenceError, match=r"target 3\.000e-12$"):
        solve_monic([3.0, -2.0])


def test_hoelder_rejects_bad_constant():
    with pytest.raises(ValueError):
        hoelder_check([0.5], [0.2], C=1.0)
    for a, b in (([3.0], [0.2]), ([0.2, 0.1], [0.1, 3.0j])):
        with pytest.raises(ValueError, match="hypothesis violated"):
            hoelder_check(a, b, C=2.0)
    # the checks run in order: lengths, then C, then the coefficient norm
    with pytest.raises(ValueError, match="equal length"):
        hoelder_check([3.0], [0.2, 0.1], C=0.5)
    with pytest.raises(ValueError, match="need C > 1"):
        hoelder_check([3.0], [0.2], C=0.5)


def test_hoelder_random_trials():
    rng = np.random.default_rng(29)
    C = 2.0
    for _ in range(150):
        n = int(rng.integers(2, 7))
        a = _draw_bounded(rng, n, C)
        if rng.random() < 0.5:
            b = _draw_bounded(rng, n, C)
        else:
            scale = 10.0 ** rng.uniform(-6, 0)
            b = _perturb_bounded(rng, a, scale, C)
        rep = hoelder_check(a, b, C)
        assert rep.passed, f"bound failed: lhs {rep.lhs.max()} rhs {rep.rhs}"
        assert rep.ratio <= 1.0 + 1e-6
        assert rep.tol_used == solve_monic_batch(np.stack([a, b]))[3].max()


def _draw_bounded(rng, n, C):
    out = np.empty(n, dtype=complex)
    for i in range(n):
        while True:
            z = complex(rng.uniform(-C, C), rng.uniform(-C, C))
            if abs(z) <= C:
                out[i] = z
                break
    return out


def _perturb_bounded(rng, a, scale, C):
    while True:
        delta = (rng.normal(size=a.size) + 1j * rng.normal(size=a.size)) * scale
        b = a + delta
        if np.abs(b).max() <= C:
            return b


def test_min_gaps_per_row():
    z = np.array([[0.0, 3.0, 1.0], [2.0, 2.0, 5.0j]], dtype=complex)
    assert min_gaps(z).tolist() == [1.0, 0.0]
    assert min_gaps(np.array([[1.0], [2.0]], dtype=complex)).tolist() == [np.inf, np.inf]


def _real_batch():
    rng = np.random.default_rng(26)
    return [rng.uniform(-3, 3, (60, n)) for n in (2, 3, 4, 6)]


def test_real_batch_fibers_closed_under_conjugation():
    for coeffs in _real_batch():
        roots, _, _, _, ok = solve_monic_batch(coeffs)
        assert ok.all()
        for row, z in zip(coeffs, roots):
            assert np.array_equal(np.sort_complex(z.conj()), np.sort_complex(z))
            oracle = mp_roots(row)
            scale = max(1.0, np.abs(row).max())
            assert (z.imag == 0).sum() == (np.abs(oracle.imag) <= 1e-10 * scale).sum()


def test_real_batch_matches_mpmath_oracle():
    for coeffs in _real_batch():
        roots, *_ = solve_monic_batch(coeffs)
        for row, z in zip(coeffs, roots):
            scale = max(1.0, np.abs(row).max())
            assert match_roots(z, mp_roots(row)).bottleneck <= 1e-10 * scale


def test_batch_with_one_complex_row_matches_rows_solved_alone():
    for coeffs in _real_batch():
        coeffs = coeffs.astype(complex)
        coeffs[7, 1] += 0.5j
        roots, res, _, tol_used, ok = solve_monic_batch(coeffs)
        for i, row in enumerate(coeffs):
            alone, res_1, _, tol_1, ok_1 = solve_monic_batch(row[None, :])
            scale = max(1.0, np.abs(row).max())
            assert match_roots(roots[i], alone[0]).bottleneck <= 1e-10 * scale
            assert (ok[i], tol_used[i]) == (ok_1[0], tol_1[0])
            assert res[i] <= tol_used[i] * scale and res_1[0] <= tol_1[0] * scale


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a k-fold root, k >= 4, splits by about eps^(1/k) |r|, above "
                          "CLUSTER_GAP, so its row is never relaxed and misses 1e-12 * scale")
def test_solver_converges_on_one_root_of_multiplicity_5_or_6():
    # one k-fold root and one simple root, moduli 0.1..20 at uniform angles
    flagged = []
    for k in (5, 6):
        rng = np.random.default_rng(k)
        r = rng.uniform(0.1, 20, (200, 2)) * np.exp(2j * np.pi * rng.random((200, 2)))
        ok = solve_monic_batch(vieta_from_roots(np.column_stack([r[:, [0] * k], r[:, 1]])))[4]
        flagged.append(int((~ok).sum()))
    assert flagged == [0, 0], f"rows flagged of 200 per k = 5, 6: {flagged}"
