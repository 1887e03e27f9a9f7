import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperapprox import algebra
from hyperapprox.algebra import (
    Add,
    Const,
    Coord,
    Exp,
    Inv,
    Mul,
    Neg,
    Polynomial,
    Pseudopolynomial,
    expr_from_json,
    expr_to_json,
    vieta_from_roots,
)
from hyperapprox.roots import match_roots, solve_monic
from tests.oracles import eval_expr_json


def test_eval_constant_one():
    p = Polynomial.from_terms(3, [((0, 0, 0), 1.0)])
    assert p.evaluate([0.3, -1j, 2.0]) == 1.0


def test_eval_square():
    p = Polynomial.from_terms(1, [((2,), 1.0)])
    assert p.evaluate(2.0) == 4.0


def test_eval_root_by_construction():
    p = Polynomial.from_coeffs_1d([2.0, -3.0, 1.0])  # t^2 - 3t + 2
    assert abs(p.evaluate(1.0)) == 0.0


def test_eval_dimension_mismatch():
    p = Polynomial.from_terms(2, [((1, 0), 1.0)])
    with pytest.raises(ValueError):
        p.evaluate([1.0, 2.0, 3.0])


def test_zero_polynomial_degree_sentinel():
    assert Polynomial(2).degree == -1
    assert Polynomial.from_terms(2, [((0, 0), 5.0)]).degree == 0


def test_no_zero_terms_stored():
    p = Polynomial.from_terms(1, [((1,), 1.0), ((1,), -1.0), ((0,), 2.0)])
    assert p.terms == (((0,), 2.0 + 0j),)


def test_vieta_simple():
    np.testing.assert_allclose(vieta_from_roots([1, 2]), [-3, 2])


def test_vieta_empty():
    assert vieta_from_roots([]).size == 0


def test_vieta_permutation_invariant_exact():
    rng = np.random.default_rng(7)
    roots = rng.normal(size=5) + 1j * rng.normal(size=5)
    base = vieta_from_roots(roots)
    for perm in ([4, 2, 0, 1, 3], [1, 0, 3, 4, 2]):
        again = vieta_from_roots(roots[perm])
        assert np.array_equal(base, again)


def test_vieta_batch_rows_match_single_rows():
    rng = np.random.default_rng(13)
    roots = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
    batch = vieta_from_roots(roots)
    assert batch.shape == (50, 4)
    for row, coeffs in zip(roots, batch):
        assert np.array_equal(vieta_from_roots(row[::-1]), coeffs)
        with mpmath.workdps(30):
            ref = [mpmath.mpc(1)]
            for r in row:  # multiply out prod (t - r) one linear factor at a time
                ref = [a - mpmath.mpc(r) * b for a, b in zip(ref + [0], [0] + ref)]
            ref = np.array([complex(c) for c in ref[1:]])
        assert np.abs(coeffs - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_vieta_solver_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(1, 9)
        roots = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * 5.0
        coeffs = vieta_from_roots(roots)
        solved = solve_monic(coeffs)
        assert match_roots(roots, solved.roots).bottleneck <= 1e-8


def test_product_of_linear_factors_eval():
    rng = np.random.default_rng(3)
    for _ in range(10):
        cs = rng.uniform(-10, 10, 4) + 1j * rng.uniform(-10, 10, 4)
        factors = [Polynomial.from_coeffs_1d([c, 1.0]) for c in cs]
        # prod (t + c) is the monic polynomial with roots -c
        prod = Polynomial.from_coeffs_1d([*vieta_from_roots(-cs)[::-1], 1.0])
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        direct = np.prod([f.evaluate(x) for f in factors])
        assert abs(prod.evaluate(x) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_fiber_poly_exp_example():
    F = Pseudopolynomial(2, (Const(0.0), Neg(Exp(Coord(0)))))  # t^2 - e^x
    np.testing.assert_allclose(F.coefficients_at(0.0)[0], [0.0, -1.0])


def test_fiber_poly_linear():
    F = Pseudopolynomial(1, (Const(0.0),))  # F = t
    np.testing.assert_allclose(F.coefficients_at(1.7)[0], [0.0])


def test_fiber_poly_constant_coeffs():
    F = Pseudopolynomial(2, (Const(2.0), Const(1.0)))  # t^2 + 2t + 1
    np.testing.assert_allclose(F.coefficients_at(0.3)[0], [2.0, 1.0])


def test_fiber_poly_reports_offending_index():
    # second coefficient has a pole at x = 0
    F = Pseudopolynomial(2, (Const(0.0), Inv(Coord(0))))
    with pytest.raises(ValueError, match="a_2"):
        F.coefficients_at(0.0)[0]


def test_monic_invariant_enforced():
    with pytest.raises(ValueError):
        Pseudopolynomial(2, (Const(0.0),))
    with pytest.raises(ValueError):
        Pseudopolynomial(0, ())


def test_polynomial_json_round_trip():
    p = Polynomial.from_terms(2, [((1, 0), 2.0 + 1.0j), ((0, 3), -0.5)])
    again = Polynomial.from_json(p.to_json())
    assert again == p


def test_expression_json_round_trip():
    expr = Add((Mul((Const(3.0 - 1j), Coord(0))), Exp(Neg(Coord(1)))))
    again = expr_from_json(expr.to_json())
    pts = np.array([[0.3 + 0.1j, -0.2j]])
    np.testing.assert_allclose(again.evaluate_many(pts), expr.evaluate_many(pts))


def test_expression_json_rejects_unknown_op():
    with pytest.raises(ValueError, match="unknown expression op"):
        expr_from_json({"op": "tanh", "args": []})


def test_poly_expr_round_trip():
    p = Polynomial.from_coeffs_1d([1.0, 0.0, -2.0])
    node = expr_to_json(p)
    assert node == {"op": "poly", "args": [p.to_json()]}
    again = expr_from_json(node)
    assert isinstance(again, Polynomial)
    assert again == p


def test_pseudopolynomial_polynomial_coefficient_json_round_trip():
    p = Polynomial.from_terms(1, [((0,), 1.0), ((2,), -0.5j)], center=[0.5], scale=[2.0])
    F = Pseudopolynomial(2, (p, Add((p, Exp(Coord(0))))))
    data = json.loads(json.dumps(F.to_json()))
    # a Polynomial is written as a "poly" node, also inside an expression
    assert data["coeffs"][0] == {"op": "poly", "args": [p.to_json()]}
    assert data["coeffs"][1]["args"][0] == data["coeffs"][0]
    again = Pseudopolynomial.from_json(data)
    assert again.coeffs[0] == p and again.coeffs[1].args[0] == p
    pts = np.array([[0.3 + 0.1j], [-0.7]])
    assert np.array_equal(again.coefficients_at(pts), F.coefficients_at(pts))


def test_affine_map_evaluates_in_its_coordinates():
    # ((x - 3) / 2)^2 + 1j * (y + 1j)
    p = Polynomial.from_terms(2, [((2, 0), 1.0), ((0, 1), 1j)], center=[3.0, -1j], scale=[2.0, 1.0])
    x, y = 5.0 + 1j, 0.5
    assert p.evaluate([x, y]) == pytest.approx(((x - 3.0) / 2.0) ** 2 + 1j * (y + 1j), abs=1e-15)
    assert p.center == (3 + 0j, -1j) and p.scale == (2.0, 1.0)
    assert Polynomial(2).center == (0j, 0j) and Polynomial(2).scale == (1.0, 1.0)


def test_polynomial_json_affine_map_round_trip():
    p = Polynomial.from_terms(1, [((1,), 2.0), ((3,), -0.5j)], center=[10.0 - 2j], scale=[0.25])
    data = json.loads(json.dumps(p.to_json()))
    assert data["center"] == [[10.0, -2.0]] and data["scale"] == [0.25]
    again = Polynomial.from_json(data)
    assert again == p
    pts = np.array([[9.5 + 0.1j], [10.25 - 2j]])
    assert np.array_equal(again.evaluate_many(pts), p.evaluate_many(pts))
    # the identity map is not written, so plain polynomials keep their JSON
    assert set(Polynomial.from_coeffs_1d([1.0, 2.0]).to_json()) == {"m", "terms"}


@pytest.mark.parametrize("extra", [
    {"scale": [1.0, 2.0]},  # one entry per variable, and m = 1
    {"center": [[1.0, 0.0], [2.0, 0.0]]},
    {"scale": [0.0]},
    {"scale": [-1.0]},
    {"scale": [float("inf")]},
    {"scale": [float("nan")]},
    {"center": [[float("nan"), 0.0]]},
])
def test_polynomial_json_rejects_bad_affine_map(extra):
    data = dict(Polynomial.from_coeffs_1d([1.0, 2.0]).to_json(), **extra)
    with pytest.raises(ValueError):
        Polynomial.from_json(data)


_UNARY_OPS = ["neg", "exp", "sin", "cos", "inv"]
_NARY_OPS = ["add", "mul"]
_real = st.floats(-2.0, 2.0, allow_nan=False, width=64)
_complex = st.builds(complex, _real, _real)


@st.composite
def _poly_node(draw):
    """A "poly" node in two variables, as Polynomial.to_json writes it,
    with or without an affine map."""
    terms = draw(st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), _complex),
                          max_size=4))
    affine = draw(st.booleans())
    center = [draw(_complex) for _ in range(2)] if affine else ()
    scale = [draw(st.floats(0.25, 4.0)) for _ in range(2)] if affine else ()
    return expr_to_json(Polynomial.from_terms(2, terms, center, scale))


_leaves = st.one_of(
    st.builds(lambda c: {"op": "const", "args": c}, st.lists(_real, min_size=1, max_size=2)),
    st.builds(lambda i: {"op": "coord", "args": [i]}, st.integers(0, 1)),
    _poly_node(),
)


def _trees(depth: int):
    """JSON expression trees over every op, at most depth levels above the leaves."""
    if depth == 0:
        return _leaves
    sub = _trees(depth - 1)
    return st.one_of(
        _leaves,
        st.builds(lambda op, a: {"op": op, "args": [a]}, st.sampled_from(_UNARY_OPS), sub),
        st.builds(lambda op, a: {"op": op, "args": a}, st.sampled_from(_NARY_OPS),
                  st.lists(sub, max_size=3)),
    )


_PTS = np.array([[0.3 + 0.1j, -0.7 + 0.2j], [-0.9, 0.45 - 0.6j], [0.05j, 1.1], [0.6 - 0.4j, -0.2j]])


def test_expression_trees_cover_every_op():
    assert set(algebra._OPS) == {"const", "coord", "poly", *_UNARY_OPS, *_NARY_OPS}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_trees(3))
def test_expression_catalogue_round_trips_and_matches_json_oracle(node):
    fn = expr_from_json(node)
    assert expr_to_json(fn) == node
    with np.errstate(all="ignore"):
        try:
            want = eval_expr_json(node, _PTS)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="pole"):
                fn.evaluate_many(_PTS)
            return
        got = fn.evaluate_many(_PTS)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
