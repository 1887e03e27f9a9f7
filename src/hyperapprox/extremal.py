"""Standard polynomially convex model sets and their closed-form Siciak
extremal functions.

Only the standard catalogue is supported (disc, segment, box and polydisc):
these are the sets whose extremal function has an elementary closed form,
and they are the only sets the experiment pipelines accept as "polynomially
convex by declaration".  Box and polydisc are products of intervals and of
discs, and their extremal function is the max over factors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StandardShape",
    "Disc",
    "Segment",
    "Box",
    "Polydisc",
    "siciak_phi",
    "shape_from_json",
]


class StandardShape:
    """Base class for the standard set catalogue; dim = complex dimension."""

    dim = 1

    def phi_many(self, pts: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def diameter(self) -> float:  # pragma: no cover
        raise NotImplementedError


def _phi_unit_segment(w: np.ndarray) -> np.ndarray:
    # |w + sqrt(w^2 - 1)| with the branch of modulus >= 1; the two branch
    # values have product of modulus exactly 1, so the max is the right one.
    s = np.sqrt(w * w - 1.0)
    return np.maximum(np.abs(w + s), np.abs(w - s))


@dataclass(frozen=True)
class Disc(StandardShape):
    center: complex = 0.0
    radius: float = 1.0
    dim = 1

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and 0 < self.radius < math.inf):
            raise ValueError("disc center must be finite and radius finite and positive")

    def phi_many(self, pts):
        z = np.asarray(pts, dtype=complex).reshape(-1)
        return np.maximum(1.0, np.abs(z - self.center) / self.radius)

    def diameter(self):
        return 2.0 * self.radius


@dataclass(frozen=True)
class Segment(StandardShape):
    """Closed segment between two endpoints of C (typically a real interval)."""

    a: complex = -1.0
    b: complex = 1.0
    dim = 1

    def __post_init__(self):
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.b)):
            raise ValueError("segment endpoints must be finite")
        if self.a == self.b:
            raise ValueError("segment endpoints must differ")

    def phi_many(self, pts):
        z = np.asarray(pts, dtype=complex).reshape(-1)
        w = (2.0 * z - self.a - self.b) / (self.b - self.a)
        return _phi_unit_segment(w)

    def diameter(self):
        return float(abs(self.b - self.a))


@dataclass(frozen=True)
class Box(StandardShape):
    """Product of real intervals, one per complex coordinate."""

    intervals: tuple

    def __post_init__(self):
        for lo, hi in self.intervals:
            if not -math.inf < lo < hi < math.inf:
                raise ValueError("box intervals must be finite and nondegenerate")

    @property
    def dim(self):
        return len(self.intervals)

    def phi_many(self, pts):
        z = np.atleast_2d(np.asarray(pts, dtype=complex))
        vals = np.ones(z.shape[0])
        for i, (lo, hi) in enumerate(self.intervals):
            w = (2.0 * z[:, i] - lo - hi) / (hi - lo)
            vals = np.maximum(vals, _phi_unit_segment(w))
        return vals

    def diameter(self):
        return float(np.sqrt(sum((hi - lo) ** 2 for lo, hi in self.intervals)))


@dataclass(frozen=True)
class Polydisc(StandardShape):
    """Polydisc centred at the origin with the given multiradius."""

    radii: tuple

    def __post_init__(self):
        if not all(0 < r < math.inf for r in self.radii):
            raise ValueError("polydisc radii must be finite and positive")

    @property
    def dim(self):
        return len(self.radii)

    def phi_many(self, pts):
        z = np.atleast_2d(np.asarray(pts, dtype=complex))
        vals = np.ones(z.shape[0])
        for i, r in enumerate(self.radii):
            vals = np.maximum(vals, np.abs(z[:, i]) / r)
        return vals

    def diameter(self):
        return float(2.0 * np.sqrt(sum(r * r for r in self.radii)))


def shape_from_json(data: dict) -> StandardShape:
    if not isinstance(data, dict):
        raise ValueError(f"shape must be a JSON object with a 'kind', got {data!r}")
    kind = data.get("kind")
    if kind == "disc":
        c = data.get("center", [0.0, 0.0])
        c = complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)
        return Disc(c, float(data["radius"]))
    if kind == "segment":
        def _c(v):
            return complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
        return Segment(_c(data["a"]), _c(data["b"]))
    if kind == "box":
        return Box(tuple(tuple(iv) for iv in data["intervals"]))
    if kind == "polydisc":
        return Polydisc(tuple(data["radii"]))
    raise ValueError(f"unknown shape kind {kind!r}")


def siciak_phi(shape: StandardShape, z) -> float:
    """Extremal function value at a point; always >= 1 and == 1 on the set."""
    pts = np.atleast_2d(np.asarray(z, dtype=complex))
    if pts.shape[1] != shape.dim:
        raise ValueError(f"point dimension {pts.shape[1]} != shape dimension {shape.dim}")
    return float(shape.phi_many(pts)[0])

