import math

import numpy as np
import pytest

from hyperapprox.extremal import (
    Box,
    Disc,
    Polydisc,
    Segment,
    shape_from_json,
    siciak_phi,
)
from hyperapprox.sets_metrics import sample_disc
from tests.oracles import cheb_growth_oracle, cheb_t


def test_phi_disc_center():
    assert siciak_phi(Disc(0.0, 1.0), 0.0) == 1.0


def test_phi_is_one_on_disc_samples():
    sc = sample_disc(0.3 + 0.1j, 2.0, 21)
    vals = Disc(0.3 + 0.1j, 2.0).phi_many(sc.points)
    assert np.abs(vals - 1.0).max() <= 1e-10


def test_phi_segment_at_two():
    val = siciak_phi(Segment(-1.0, 1.0), 2.0)
    assert val == pytest.approx(2.0 + math.sqrt(3.0), abs=1e-12)
    assert val == pytest.approx(cheb_growth_oracle(2.0, d=30), abs=1e-6)


def test_phi_polydisc_interior():
    assert siciak_phi(Polydisc((1.0, 2.0)), [0.0, 0.0]) == 1.0


def test_phi_always_at_least_one():
    rng = np.random.default_rng(43)
    shapes = [Disc(0.5, 1.5), Segment(-2.0, 1.0), Polydisc((1.0, 0.5)), Box(((-1.0, 1.0),))]
    for shape in shapes:
        pts = rng.normal(size=(50, shape.dim)) + 1j * rng.normal(size=(50, shape.dim))
        assert shape.phi_many(pts).min() >= 1.0 - 1e-12


def test_chebyshev_growth_dominated_by_phi():
    seg = Segment(-1.0, 1.0)
    for z in (1.5, 2.0, 3.0, 1.0 + 1.0j):
        phi = siciak_phi(seg, z)
        for d in (10, 20, 30):
            assert abs(cheb_t(d, z)) ** (1.0 / d) <= phi + 0.01


def test_product_rule_exact():
    # a box is a product of segments, a polydisc a product of discs
    rng = np.random.default_rng(47)
    pts = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
    box = Box(((-1.0, 1.0), (0.0, 2.0)))
    rhs = np.maximum(Segment(-1.0, 1.0).phi_many(pts[:, :1]), Segment(0.0, 2.0).phi_many(pts[:, 1:]))
    assert np.array_equal(box.phi_many(pts), rhs)
    poly = Polydisc((1.0, 2.0))
    rhs = np.maximum(Disc(0.0, 1.0).phi_many(pts[:, :1]), Disc(0.0, 2.0).phi_many(pts[:, 1:]))
    assert np.array_equal(poly.phi_many(pts), rhs)


# converse assumes K regular (Phi_K continuous); on the catalogue that follows
# from the closed forms, probed here at neighbouring points of a grid


def test_continuity_probe_disc_lipschitz():
    # a disc's Phi_K is Lipschitz with constant 1/r
    step, r = 0.004, 0.8
    xs = np.arange(-1.5, 1.5 + step / 2, step)
    gx, gy = np.meshgrid(xs, xs)
    z = gx + 1j * gy
    phi = Disc(0.2 + 0.1j, r).phi_many(z.ravel()).reshape(z.shape)
    for axis in (0, 1):
        assert np.abs(np.diff(phi, axis=axis)).max() <= step / r + 1e-12


def test_continuity_probe_product_bounded_by_factors():
    # a box's Phi_K moves between grid neighbours no more than a factor's
    xs = np.arange(-1.2, 1.2001, 0.05)
    g1, g2 = np.meshgrid(xs, xs)
    box = Box(((-1.0, 1.0), (-1.0, 1.0))).phi_many(np.column_stack([g1.ravel(), g2.ravel()]))
    segment_jump = np.abs(np.diff(Segment(-1.0, 1.0).phi_many(xs))).max()
    for axis in (0, 1):
        assert np.abs(np.diff(box.reshape(g1.shape), axis=axis)).max() <= segment_jump + 1e-12


def test_unsupported_shape_rejected():
    with pytest.raises(ValueError, match="unknown shape"):
        shape_from_json({"kind": "annulus", "r": 1.0})


def test_shape_from_json_reads_each_kind():
    cases = [
        ({"kind": "disc", "center": [0.5, -0.25], "radius": 2.0}, Disc(0.5 - 0.25j, 2.0)),
        ({"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0]}, Segment(-1.0, 1.0)),
        ({"kind": "box", "intervals": [[-1.0, 1.0], [0.0, 2.0]]}, Box(((-1.0, 1.0), (0.0, 2.0)))),
        ({"kind": "polydisc", "radii": [1.0, 2.0]}, Polydisc((1.0, 2.0))),
    ]
    for data, shape in cases:
        assert shape_from_json(data) == shape


def test_phi_dimension_mismatch():
    with pytest.raises(ValueError):
        siciak_phi(Polydisc((1.0, 1.0)), [0.0])
