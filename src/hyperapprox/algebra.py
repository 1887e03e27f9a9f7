"""Multivariate complex polynomials, coefficient expression trees, and monic
pseudopolynomials (polynomials in a fiber variable t with function coefficients).

Polynomials use a dense term list in graded-lexicographic order over the
coordinates of a per-variable affine map (identity by default), so an
approximant keeps the well-scaled coordinates it was fitted in; the zero
polynomial has degree -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "Expr",
    "Const",
    "Coord",
    "Add",
    "Mul",
    "Neg",
    "Exp",
    "Sin",
    "Cos",
    "Inv",
    "Pseudopolynomial",
    "vieta_from_roots",
    "assembled_degree_bound",
    "expr_from_json",
    "expr_to_json",
]

_POLE_FLOOR = 1e-13


def _as_points(x, m: int) -> np.ndarray:
    """Coerce a single point or an (N, m) batch to a complex (N, m) array."""
    pts = np.atleast_1d(np.asarray(x, dtype=complex))
    if pts.ndim == 1:
        if m == 1 and pts.shape[0] != 1:
            # a 1-d array of scalars is a batch of points in C^1
            pts = pts.reshape(-1, 1)
        else:
            pts = pts.reshape(1, -1)
    if pts.shape[1] != m:
        raise ValueError(
            f"point dimension {pts.shape[1]} does not match num_vars={m}"
        )
    return pts


def power_tables(w: np.ndarray, degrees) -> list:
    """Per-variable power tables of an (N, m) array: entry i has shape
    (degrees[i] + 1, N) and row k holds w[:, i] ** k, built by repeated
    multiplication in w's dtype."""
    n = w.shape[0]
    tables = []
    for i, deg in enumerate(degrees):
        table = np.empty((deg + 1, n), dtype=w.dtype)
        table[0] = 1.0
        for k in range(1, deg + 1):
            table[k] = table[k - 1] * w[:, i]
        tables.append(table)
    return tables


@dataclass(frozen=True)
class Polynomial:
    """Dense multivariate polynomial with complex coefficients, stored in the
    coordinates of an affine map.

    terms: tuple of (exponent tuple, coefficient), graded-lex sorted,
    no duplicate exponents, no stored zero coefficients.  The polynomial is
    sum c_e * prod(((x_i - center_i) / scale_i) ** e_i): center (complex) and
    scale (positive float) hold one value per variable and default to the
    identity map, in which case terms are plain monomials.
    """

    num_vars: int
    terms: tuple = ()
    center: tuple = ()
    scale: tuple = ()

    def __post_init__(self):
        m = self.num_vars
        center = tuple(complex(c) for c in self.center) or (0j,) * m
        scale = tuple(float(s) for s in self.scale) or (1.0,) * m
        if len(center) != m or len(scale) != m:
            raise ValueError(f"center and scale need one entry per variable (num_vars={m})")
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in center):
            raise ValueError(f"center entries must be finite, got {center}")
        if not all(math.isfinite(s) and s > 0 for s in scale):
            raise ValueError(f"scale entries must be finite and positive, got {scale}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "scale", scale)

    @staticmethod
    def from_terms(num_vars: int, terms: Iterable, center=(), scale=()) -> "Polynomial":
        acc: dict = {}
        for exps, coeff in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars:
                raise ValueError("exponent length does not match num_vars")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            acc[exps] = acc.get(exps, 0.0 + 0.0j) + complex(coeff)
        cleaned = [(e, c) for e, c in acc.items() if c != 0]
        cleaned.sort(key=lambda t: (sum(t[0]), t[0]))
        return Polynomial(num_vars, tuple(cleaned), tuple(center), tuple(scale))

    @staticmethod
    def from_coeffs_1d(coeffs: Sequence[complex]) -> "Polynomial":
        """Univariate polynomial from coefficients ordered low to high degree."""
        return Polynomial.from_terms(1, [((k,), c) for k, c in enumerate(coeffs)])

    @property
    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    @property
    def _is_identity_map(self) -> bool:
        return all(c == 0 for c in self.center) and all(s == 1.0 for s in self.scale)

    def evaluate(self, x) -> complex:
        return complex(self.evaluate_many(_as_points(x, self.num_vars))[0])

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, m) array of points; returns (N,) complex."""
        pts = _as_points(pts, self.num_vars)
        n = pts.shape[0]
        if not self.terms:
            return np.zeros(n, dtype=complex)
        if not self._is_identity_map:
            pts = (pts - np.asarray(self.center)) / np.asarray(self.scale)
        max_deg = [max(exps[i] for exps, _ in self.terms) for i in range(self.num_vars)]
        pows = power_tables(pts, max_deg)
        out = np.zeros(n, dtype=complex)
        for exps, coeff in self.terms:
            mono = np.full(n, coeff, dtype=complex)
            for i, e in enumerate(exps):
                if e:
                    mono = mono * pows[i][e]
            out += mono
        return out

    def to_json(self) -> dict:
        out = {
            "m": self.num_vars,
            "terms": [[list(e), [c.real, c.imag]] for e, c in self.terms],
        }
        if not self._is_identity_map:
            out["center"] = [[c.real, c.imag] for c in self.center]
            out["scale"] = list(self.scale)
        return out

    @staticmethod
    def from_json(data: dict) -> "Polynomial":
        """Inverse of to_json; raises ValueError on a malformed affine map."""
        center = [complex(c[0], c[1]) for c in data.get("center", ())]
        return Polynomial.from_terms(
            int(data["m"]),
            [(tuple(e), complex(c[0], c[1])) for e, c in data["terms"]],
            center,
            data.get("scale", ()),
        )


# ---------------------------------------------------------------------------
# coefficient expression trees


class Expr:
    """Base class for coefficient expressions C^m -> C.

    The supported operations are constants, coordinates, sums, products,
    negation, exp, sin, cos and reciprocals (the caller guarantees the
    reciprocal's argument has no zero on the evaluation domain); a
    Polynomial is the "poly" leaf.  Every coefficient function, expression
    or Polynomial, evaluates an (N, m) point array through evaluate_many.
    """

    op = ""

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def to_json(self) -> dict:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: complex
    op = "const"

    def evaluate_many(self, pts):
        return np.full(pts.shape[0], complex(self.value), dtype=complex)

    def to_json(self):
        v = complex(self.value)
        return {"op": "const", "args": [v.real, v.imag]}


@dataclass(frozen=True)
class Coord(Expr):
    index: int
    op = "coord"

    def evaluate_many(self, pts):
        if self.index >= pts.shape[1]:
            raise ValueError(f"coordinate {self.index} out of range for m={pts.shape[1]}")
        return np.asarray(pts[:, self.index], dtype=complex)

    def to_json(self):
        return {"op": "coord", "args": [self.index]}


@dataclass(frozen=True)
class Add(Expr):
    args: tuple
    op = "add"

    def evaluate_many(self, pts):
        out = np.zeros(pts.shape[0], dtype=complex)
        for a in self.args:
            out = out + a.evaluate_many(pts)
        return out

    def to_json(self):
        return {"op": "add", "args": [expr_to_json(a) for a in self.args]}


@dataclass(frozen=True)
class Mul(Expr):
    args: tuple
    op = "mul"

    def evaluate_many(self, pts):
        out = np.ones(pts.shape[0], dtype=complex)
        for a in self.args:
            out = out * a.evaluate_many(pts)
        return out

    def to_json(self):
        return {"op": "mul", "args": [expr_to_json(a) for a in self.args]}


def _unary(name):
    fn = {"exp": np.exp, "sin": np.sin, "cos": np.cos}[name]

    @dataclass(frozen=True)
    class _U(Expr):
        arg: Expr
        op = name

        def evaluate_many(self, pts):
            return fn(self.arg.evaluate_many(pts))

        def to_json(self):
            return {"op": name, "args": [expr_to_json(self.arg)]}

    _U.__name__ = name.capitalize()
    return _U


Exp = _unary("exp")
Sin = _unary("sin")
Cos = _unary("cos")


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    op = "neg"

    def evaluate_many(self, pts):
        return -self.arg.evaluate_many(pts)

    def to_json(self):
        return {"op": "neg", "args": [expr_to_json(self.arg)]}


@dataclass(frozen=True)
class Inv(Expr):
    """Reciprocal of a subexpression; the domain must stay clear of its zeros."""

    arg: Expr
    op = "inv"

    def evaluate_many(self, pts):
        den = self.arg.evaluate_many(pts)
        bad = np.abs(den) < _POLE_FLOOR
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise ValueError(
                f"reciprocal hit a pole: |denominator|={abs(den[idx]):.3e} at point index {idx}"
            )
        return 1.0 / den

    def to_json(self):
        return {"op": "inv", "args": [expr_to_json(self.arg)]}


def expr_to_json(fn: Expr | Polynomial) -> dict:
    """JSON node of a coefficient function; a Polynomial is a "poly" node."""
    if isinstance(fn, Polynomial):
        return {"op": "poly", "args": [fn.to_json()]}
    return fn.to_json()


def expr_from_json(data: dict) -> Expr | Polynomial:
    if not isinstance(data, dict) or "op" not in data:
        raise ValueError("expression node must be an object with an 'op' field")
    op = data["op"]
    args = data.get("args", [])
    if op == "const":
        if len(args) == 1:
            return Const(complex(args[0]))
        return Const(complex(args[0], args[1]))
    if op == "coord":
        return Coord(int(args[0]))
    if op == "add":
        return Add(tuple(expr_from_json(a) for a in args))
    if op == "mul":
        return Mul(tuple(expr_from_json(a) for a in args))
    if op == "neg":
        return Neg(expr_from_json(args[0]))
    if op == "exp":
        return Exp(expr_from_json(args[0]))
    if op == "sin":
        return Sin(expr_from_json(args[0]))
    if op == "cos":
        return Cos(expr_from_json(args[0]))
    if op == "inv":
        return Inv(expr_from_json(args[0]))
    if op == "poly":
        return Polynomial.from_json(args[0])
    raise ValueError(f"unknown expression op {op!r}")


# ---------------------------------------------------------------------------
# pseudopolynomials


@dataclass(frozen=True)
class Pseudopolynomial:
    """Monic polynomial in the fiber variable t of degree n with coefficient
    functions a_1..a_n on the base: t^n + a_1(x) t^(n-1) + ... + a_n(x).

    The leading coefficient 1 is implicit and never stored.
    """

    n: int
    coeffs: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("fiber degree n must be >= 1")
        if len(self.coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficient functions, got {len(self.coeffs)}")

    def coefficients_at(self, pts: np.ndarray) -> np.ndarray:
        """Coefficient matrix (N, n): row i is (a_1(x_i), ..., a_n(x_i))."""
        pts = np.atleast_2d(np.asarray(pts, dtype=complex))
        out = np.empty((pts.shape[0], self.n), dtype=complex)
        for j, fn in enumerate(self.coeffs):
            try:
                out[:, j] = fn.evaluate_many(pts)
            except Exception as exc:
                raise ValueError(f"coefficient a_{j + 1} failed to evaluate: {exc}") from exc
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": [expr_to_json(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "Pseudopolynomial":
        return Pseudopolynomial(int(data["n"]), tuple(expr_from_json(c) for c in data["coeffs"]))


def vieta_from_roots(roots) -> np.ndarray:
    """Coefficients (a_1, ..., a_n) of the monic polynomials with the given roots.

    roots is one root vector (n,) or a batch (N, n) with one polynomial per
    row; the output has the same shape.  Each row's linear factors are
    multiplied in a canonical order (sorted by real, then imaginary part),
    so the output is exactly permutation-invariant.  The product runs as one
    column recurrence over the (n, N) layout.
    """
    z = np.asarray(roots, dtype=complex)
    rows = np.atleast_2d(z)
    order = np.lexsort((rows.imag, rows.real), axis=1)
    cols = np.ascontiguousarray(np.take_along_axis(rows, order, axis=1).T)
    n = cols.shape[0]
    coeffs = np.zeros((n + 1, cols.shape[1]), dtype=complex)
    coeffs[0] = 1.0
    for k, r in enumerate(cols):
        coeffs[k + 1] = -r * coeffs[k]
        coeffs[1 : k + 1] -= r * coeffs[:k]
    return coeffs[1:].T.reshape(z.shape)


def assembled_degree_bound(d: int, n: int) -> int:
    """Degree bound max(n, d + n - 1) of t^n + a_1 t^(n-1) + ... + a_n with
    deg a_j <= d; at most 2d - 1 whenever d >= n."""
    if d < 0 or n < 1:
        raise ValueError("need d >= 0 and n >= 1")
    return max(n, d + n - 1)
