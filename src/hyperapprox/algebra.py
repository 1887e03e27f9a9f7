"""Multivariate complex polynomials, coefficient expression trees, and monic
pseudopolynomials (polynomials in a fiber variable t with function coefficients).

Polynomials use a dense term list in graded-lexicographic order over the
coordinates of a per-variable affine map (identity by default), so an
approximant keeps the well-scaled coordinates it was fitted in; the zero
polynomial has degree -1.

A coefficient expression is one frozen node type, Expr(op, args).  One op
table gives each op's kind and count of arguments and how its value is
computed; construction checks against it, and evaluate_many, to_json and
expr_from_json read it, so a new op is one table entry.  A Polynomial is
the trees' "poly" leaf.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
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
    "expr_from_json",
    "expr_to_json",
    "check_num_vars",
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
            mono = coeff
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


def _reciprocal(pts, den):
    bad = np.abs(den) < _POLE_FLOOR
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise ValueError(
            f"reciprocal hit a pole: |denominator|={abs(den[idx]):.3e} at point index {idx}"
        )
    return 1.0 / den


def _is_fn(a) -> bool:
    return isinstance(a, (Expr, Polynomial))


# argument kind -> (fewest args, most args, what the args must be, test of
# one argument of an Expr node)
_KINDS = {
    "number": (1, 2, "one or two finite real numbers",
               lambda a: type(a) in (int, float) and math.isfinite(a)),
    "index": (1, 1, "one non-negative integer", lambda a: type(a) is int and a >= 0),
    "child": (1, 1, "one expression", _is_fn),
    "children": (0, math.inf, "a list of expressions", _is_fn),
    "poly": (1, 1, "one polynomial object", None),
}

# op -> (argument kind, value at the points from the node's arguments, each
# child already evaluated there); n-ary ops fold from 0 or 1
_OPS = {
    "const": ("number", lambda pts, *c: np.full(pts.shape[0], complex(*c), dtype=complex)),
    "coord": ("index", lambda pts, i: np.asarray(pts[:, i], dtype=complex)),
    "add": ("children", lambda pts, *v: reduce(operator.add, v, np.zeros(pts.shape[0], complex))),
    "mul": ("children", lambda pts, *v: reduce(operator.mul, v, np.ones(pts.shape[0], complex))),
    "neg": ("child", lambda pts, v: -v),
    "exp": ("child", lambda pts, v: np.exp(v)),
    "sin": ("child", lambda pts, v: np.sin(v)),
    "cos": ("child", lambda pts, v: np.cos(v)),
    "inv": ("child", _reciprocal),
    "poly": ("poly", None),  # read as the bare Polynomial, which evaluates itself
}


@dataclass(frozen=True)
class Expr:
    """Coefficient expression C^m -> C: an op from the op table and its args.

    Leaf ops hold numbers: "const" its real part and optionally its
    imaginary part, "coord" a coordinate index.  The other ops hold child
    coefficient functions, expressions or Polynomials: "add" and "mul" any
    number, "neg", "exp", "sin", "cos" and "inv" exactly one (the caller
    keeps the reciprocal's argument clear of zeros on the evaluation
    domain).  The table checks the args on construction; evaluate_many,
    to_json and expr_from_json all read it, so a new op is one table entry.
    A "poly" node reads and writes a bare Polynomial, which is the tree's
    polynomial leaf.
    """

    op: str
    args: tuple = ()

    def __post_init__(self):
        if self.op not in _OPS or self.op == "poly":
            raise ValueError(f"no expression node has op {self.op!r}")
        lo, hi, what, ok = _KINDS[_OPS[self.op][0]]
        args = tuple(self.args)
        if not (lo <= len(args) <= hi and all(map(ok, args))):
            raise ValueError(f"op {self.op!r} takes {what}, got {list(args)!r}")
        object.__setattr__(self, "args", args)

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, m) array of points; returns (N,) complex."""
        return _OPS[self.op][1](pts, *(a.evaluate_many(pts) if _is_fn(a) else a for a in self.args))

    def to_json(self) -> dict:
        return {"op": self.op, "args": [expr_to_json(a) if _is_fn(a) else a for a in self.args]}


# one-line constructors for building trees in Python
def Const(value) -> Expr: return Expr("const", (complex(value).real, complex(value).imag))
def Coord(index: int) -> Expr: return Expr("coord", (index,))
def Add(args) -> Expr: return Expr("add", args)
def Mul(args) -> Expr: return Expr("mul", args)
def Neg(arg) -> Expr: return Expr("neg", (arg,))
def Exp(arg) -> Expr: return Expr("exp", (arg,))
def Sin(arg) -> Expr: return Expr("sin", (arg,))
def Cos(arg) -> Expr: return Expr("cos", (arg,))
def Inv(arg) -> Expr: return Expr("inv", (arg,))  # the domain must avoid arg's zeros


def expr_to_json(fn: Expr | Polynomial) -> dict:
    """JSON node of a coefficient function; a Polynomial is a "poly" node."""
    if isinstance(fn, Polynomial):
        return {"op": "poly", "args": [fn.to_json()]}
    return fn.to_json()


def expr_from_json(data: dict) -> Expr | Polynomial:
    """Inverse of expr_to_json; raises ValueError on an unknown op or on args
    the op table does not accept."""
    if not isinstance(data, dict) or "op" not in data:
        raise ValueError("expression node must be an object with an 'op' field")
    op, args = data["op"], data.get("args", [])
    if op not in _OPS:
        raise ValueError(f"unknown expression op {op!r}")
    kind = _OPS[op][0]
    lo, hi, what, _ = _KINDS[kind]
    if type(args) is not list or not lo <= len(args) <= hi:
        raise ValueError(f"op {op!r} takes {what}, got {args!r}")
    if kind == "poly":
        return Polynomial.from_json(args[0])
    if kind in ("child", "children"):
        args = map(expr_from_json, args)
    return Expr(op, tuple(args))


def check_num_vars(fn: Expr | Polynomial, m: int) -> None:
    """Raise ValueError unless fn is a function on C^m: every coord index is
    below m and every poly leaf has m variables."""
    if isinstance(fn, Polynomial):
        if fn.num_vars != m:
            raise ValueError(f"a poly leaf has m={fn.num_vars}, but the compact has m={m}")
    elif fn.op == "coord" and fn.args[0] >= m:
        raise ValueError(f"coordinate {fn.args[0]} out of range for m={m}")
    else:
        for a in fn.args:
            if _is_fn(a):
                check_num_vars(a, m)


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
    multiplied in a canonical order (sorted by real, then imaginary part,
    by the stable complex sort that orders solve_monic_batch's rows), so
    the output is exactly permutation-invariant.  The product runs as one
    column recurrence over the (n, N) layout.
    """
    z = np.asarray(roots, dtype=complex)
    rows = np.atleast_2d(z)
    cols = np.ascontiguousarray(np.sort(rows, axis=1, kind="stable").T)
    n = cols.shape[0]
    coeffs = np.zeros((n + 1, cols.shape[1]), dtype=complex)
    coeffs[0] = 1.0
    for k, r in enumerate(cols):
        coeffs[k + 1] = -r * coeffs[k]
        coeffs[1 : k + 1] -= r * coeffs[:k]
    return coeffs[1:].T.reshape(z.shape)
