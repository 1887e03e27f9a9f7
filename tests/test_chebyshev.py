import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperapprox.algebra import Polynomial
from hyperapprox.chebyshev import (
    _multi_indices,
    _vandermonde,
    basis_dimension,
    least_squares,
    scalar_bws_rate,
)
from hyperapprox.sets_metrics import SampledCompact, sample_box, sample_disc, sample_segment
from tests.oracles import (
    exp_cheb_tail,
    grid_minimax_constant,
    lebesgue_constant,
    lp_minimax,
    vandermonde_loop,
)


@pytest.fixture(scope="module")
def segment_401():
    return sample_segment(-1.0, 1.0, 401)


def test_reproduces_polynomial(segment_401):
    x = segment_401.points[:, 0]
    f = 0.3 * x ** 3 - 1.2 * x + 0.7
    (res,) = least_squares(f, segment_401, 5)
    assert res.error <= 1e-10
    assert np.abs(res.poly.evaluate_many(segment_401.points) - f).max() <= 1e-9


def test_constant_minimax_matches_grid_oracle(segment_401):
    # the least-squares constant lies within 1 + Lambda_0 = 2 of the grid's
    # best constant
    x = segment_401.points[:, 0].real
    f = np.exp(x)
    (res,) = least_squares(f, segment_401, 0)
    oracle = grid_minimax_constant(f)
    assert oracle == pytest.approx((np.e - 1.0 / np.e) / 2.0, rel=1e-3)
    lam0 = lebesgue_constant(x, 0)
    assert lam0 == pytest.approx(1.0, rel=1e-12)
    assert oracle <= res.error <= (1.0 + lam0) * oracle


def test_least_squares_upper_bounds_minimax(segment_401):
    x = segment_401.points[:, 0].real
    f = np.exp(x)
    for d in (0, 2, 5):
        mm = lp_minimax(x, f, d)
        ls = least_squares(f, segment_401, d)[0].error
        assert 1e-6 < mm <= ls + 1e-15


def test_error_monotone_in_degree(segment_401):
    f = np.exp(segment_401.points[:, 0])
    errs = [least_squares(f, segment_401, d)[0].error for d in range(0, 12)]
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-12


def test_rank_error_names_rank():
    sc = sample_segment(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="rank"):
        least_squares(np.ones(5), sc, 5)
    with pytest.raises(ValueError, match="rank"):
        least_squares(np.ones((5, 3)), sc, 5)


# every fit's error is far above rounding (1e-4 or more), so agreement to
# rel 1e-12 compares the fits rather than the rounding of the two solves
_BATCH_CASES = {
    "real-box": (
        sample_box([(-1.0, 2.0), (0.0, 1.0)], 12), 5,
        lambda z: np.exp(z[:, 0] * z[:, 1]),
        lambda z: 1.0 / (4.0 - z[:, 0] - z[:, 1]),
        lambda z: np.cos(2.0 * z[:, 0]) * z[:, 1],
    ),
    "complex-disc": (
        sample_disc(0.5j, 1.0, 15), 6,
        lambda z: np.exp(z[:, 0]),
        lambda z: 1.0 / (z[:, 0] - 2.5),
        lambda z: np.sin(z[:, 0]) + 1j * z[:, 0] ** 2,
    ),
    "real-beside-complex": (
        sample_segment(-1.0, 1.0, 101), 3,
        lambda z: np.exp(z[:, 0]),
        lambda z: np.cos(3.0 * z[:, 0]) + 1j / (z[:, 0] - 1.5),
    ),
}


@pytest.mark.parametrize("case", list(_BATCH_CASES))
def test_least_squares_column_matches_one_column_fit(case):
    K, d, *fns = _BATCH_CASES[case]
    F = np.column_stack([fn(K.points) for fn in fns])
    batch = least_squares(F, K, d)
    assert len(batch) == F.shape[1]
    for j, res in enumerate(batch):
        (alone,) = least_squares(F[:, j], K, d)
        assert res.error == pytest.approx(alone.error, rel=1e-12, abs=0.0)
        assert np.abs(res.values - alone.values).max() <= 1e-12 * np.abs(alone.values).max()
        assert res.rank == basis_dimension(K.m, d)
        assert np.array_equal(res.values, res.poly.evaluate_many(K.points))
        assert res.error == np.abs(F[:, j] - res.values).max()


def test_basis_dimension():
    assert basis_dimension(1, 4) == 5
    assert basis_dimension(2, 3) == 10


def test_two_variable_fit():
    K = sample_box([(-1.0, 1.0), (-1.0, 1.0)], per_axis=15)
    x, y = K.points[:, 0], K.points[:, 1]
    f = (x * y + 0.5 * x ** 2).real
    (res,) = least_squares(f, K, 2)
    assert res.error <= 1e-10


def test_scalar_rate_exp_geometric(segment_401):
    f = np.exp(segment_401.points[:, 0])
    errors, fit = scalar_bws_rate(f, segment_401, range(15, -1, -1))
    assert [d for d, _ in errors] == list(range(16))
    assert errors[5][1] == least_squares(f, segment_401, 5)[0].error
    assert fit.verdict == "geometric"
    assert fit.theta < 0.5


def test_scalar_rate_exp_cross_checked_against_chebyshev_series(segment_401):
    # the series tail bounds the minimax error from above, tightly; the
    # least-squares error is at most 1 + Lambda_d times the minimax error
    x = segment_401.points[:, 0].real
    f = np.exp(x)
    for d in range(0, 12):
        err = least_squares(f, segment_401, d)[0].error
        tail = exp_cheb_tail(d)
        assert 0.05 * tail <= err <= (1.0 + lebesgue_constant(x, d)) * tail * 1.01
    # the minimax error itself, where the LP oracle resolves it
    for d in range(2, 7):
        mm = lp_minimax(x, f, d)
        tail = exp_cheb_tail(d)
        assert mm <= tail * 1.01 + 1e-13
        assert mm >= 0.05 * tail


def test_scalar_rate_abs_not_geometric(segment_401):
    f = np.abs(segment_401.points[:, 0])
    _, fit = scalar_bws_rate(f, segment_401, range(0, 31, 2))
    assert fit.verdict == "not-geometric"


def test_scalar_rate_polynomial_floor(segment_401):
    x = segment_401.points[:, 0]
    f = x ** 2 - 0.25
    _, fit = scalar_bws_rate(f, segment_401, range(2, 9))
    assert fit.verdict == "geometric"
    assert fit.theta == 0.0


def test_scalar_rate_needs_six_degrees(segment_401):
    with pytest.raises(ValueError):
        scalar_bws_rate(np.ones(segment_401.count), segment_401, [1, 2, 3])


# functions of the unit coordinates w, analytic near the unit segment or box
_UNIT_FUNCTIONS = {
    "segment": (
        lambda w: np.exp(w[:, 0]),
        lambda w: 1.0 / (w[:, 0] - 1.5),
        lambda w: np.cos(3.0 * w[:, 0]) + 1j * w[:, 0] ** 2,
    ),
    "box": (
        lambda w: np.exp(w[:, 0] + 0.5 * w[:, 1]),
        lambda w: 1.0 / (2.0 - w[:, 0] * w[:, 1]),
    ),
}
_UNIT_SAMPLES = {
    "segment": sample_segment(-1.0, 1.0, 101),
    "box": sample_box([(-1.0, 1.0), (-1.0, 1.0)], per_axis=11),
}


@st.composite
def _affine_case(draw):
    shape = draw(st.sampled_from(["segment", "box"]))
    m = 1 if shape == "segment" else 2
    coord = st.floats(-20.0, 20.0, allow_nan=False)
    # segments may sit anywhere in C; boxes stay real
    center = [complex(draw(coord), draw(coord) if shape == "segment" else 0.0) for _ in range(m)]
    scale = [draw(st.floats(0.05, 5.0)) for _ in range(m)]
    fn = draw(st.integers(0, len(_UNIT_FUNCTIONS[shape]) - 1))
    d = draw(st.integers(0, 14 if shape == "segment" else 6))
    return shape, np.array(center), np.array(scale), fn, d


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_affine_case())
def test_error_invariant_under_affine_maps(case):
    # the same function values on an affine image of the unit sample give
    # the same approximation error as on the unit sample itself
    shape, center, scale, fn, d = case
    unit = _UNIT_SAMPLES[shape]
    f = _UNIT_FUNCTIONS[shape][fn](unit.points)
    K = SampledCompact(center + scale * unit.points, mesh=unit.mesh * scale.max())
    want = least_squares(f, unit, d)[0].error
    (got,) = least_squares(f, K, d)
    assert abs(got.error - want) <= max(1e-6 * want, 1e-12)
    assert np.allclose(got.poly.center, center, rtol=0, atol=1e-12 * (1 + np.abs(center)))
    assert np.allclose(got.poly.scale, scale, rtol=1e-12)


def test_translated_segment_keeps_its_map():
    K = sample_segment(9.0, 11.0, 401)
    x = K.points[:, 0]
    (res,) = least_squares(np.exp(x - 10.0), K, 20)
    assert res.error <= 1e-13
    assert res.poly.center == (10.0 + 0j,) and res.poly.scale == (1.0,)
    # the error is that of the returned polynomial
    assert res.error == np.abs(np.exp(x - 10.0) - res.poly.evaluate_many(K.points)).max()


def test_values_are_the_polynomial_on_the_samples():
    K = sample_box([(-1.0, 2.0), (0.0, 1.0)], 9)
    f = np.exp(K.points[:, 0] * K.points[:, 1]) + 1j * np.sin(K.points[:, 0])
    (res,) = least_squares(f, K, 4)
    assert np.array_equal(res.values, res.poly.evaluate_many(K.points))
    assert res.error == np.abs(f - res.values).max()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_vandermonde_equals_per_column_loop(m, kind):
    rng = np.random.default_rng(10 * m)
    w = rng.uniform(-1, 1, (40, m))
    if kind == "complex":
        w = w + 1j * rng.uniform(-1, 1, (40, m))
    exponents = _multi_indices(m, 7)
    V = _vandermonde(w, exponents)
    assert V.shape == (40, basis_dimension(m, 7)) and V.dtype == w.dtype
    assert np.array_equal(V, vandermonde_loop(w, exponents))


def _fit_cases():
    seg = sample_segment(-1.0, 3.0, 60)
    x = seg.points[:, 0]
    box = sample_box([(-1.0, 2.0), (0.0, 1.0)], 9)
    u, v = box.points[:, 0], box.points[:, 1]
    return [
        ("real", seg, np.column_stack([np.exp(x), np.zeros(x.size), x ** 2]), 6),
        ("complex", box, np.column_stack([np.exp(u * v) + 1j * np.sin(u), np.zeros(u.size)]), 4),
    ]


@pytest.mark.parametrize("name, K, F, d", _fit_cases(), ids=["real", "complex"])
def test_least_squares_poly_equals_from_terms(name, K, F, d):
    fits = least_squares(F, K, d)
    center, scale = fits[0].poly.center, fits[0].poly.scale
    w = (K.points - np.array(center)) / np.array(scale)
    V = vandermonde_loop(w.real if name == "real" else w, _multi_indices(K.m, d))
    coeffs = np.linalg.lstsq(V, F.real if name == "real" else F, rcond=None)[0]
    for j, fit in enumerate(fits):
        want = Polynomial.from_terms(K.m, zip(_multi_indices(K.m, d), coeffs[:, j]), center, scale)
        assert fit.poly == want
        assert repr(fit.poly) == repr(want)  # same types, same signed zeros
    # the all-zero column is the zero polynomial
    assert fits[1].poly.terms == () and fits[1].poly.degree == -1
    assert fits[1].error == 0.0
