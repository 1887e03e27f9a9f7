"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with pytest -s to see them all) and
enforces its stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from hyperapprox.algebra import Const, Coord, Exp, Neg, Polynomial, Pseudopolynomial
from hyperapprox.converse import converse_experiment, product_bound_constants
from hyperapprox.demos import closure_failure_demo, counterexample_rates
from hyperapprox.extremal import Disc, Segment, siciak_phi
from hyperapprox.forward import forward_rate_experiment
from hyperapprox.roots import hoelder_check
from hyperapprox.sets_metrics import Multigraph, fit_geometric_rate, sample_disc, sample_segment
from hyperapprox.chebyshev import scalar_bws_rate
from tests.oracles import cheb_growth_oracle, subset_products_ok


def _report(name: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def segment_401():
    return sample_segment(-1.0, 1.0, 401)


@pytest.fixture(scope="module")
def forward_exp_experiment(segment_401):
    F = Pseudopolynomial(2, (Const(0.0), Neg(Exp(Coord(0)))))
    t0 = time.perf_counter()
    exp = forward_rate_experiment(F, segment_401, range(2, 15))
    return exp, time.perf_counter() - t0


def _draw_bounded(rng, n, C):
    out = np.empty(n, dtype=complex)
    for i in range(n):
        while True:
            z = complex(rng.uniform(-C, C), rng.uniform(-C, C))
            if abs(z) <= C:
                out[i] = z
                break
    return out


def test_criterion_01_hoelder_bound_suite():
    rng = np.random.default_rng(2024)
    C = 2.0
    t0 = time.perf_counter()
    failures = 0
    trials = 0
    for n in range(2, 7):
        for trial in range(1000):
            a = _draw_bounded(rng, n, C)
            if trial % 2 == 0:
                b = _draw_bounded(rng, n, C)
            else:
                scale = 10.0 ** rng.uniform(-6, 0)
                while True:
                    b = a + (rng.normal(size=n) + 1j * rng.normal(size=n)) * scale
                    if np.abs(b).max() <= C:
                        break
            rep = hoelder_check(a, b, C)
            trials += 1
            if not rep.passed:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    _report("criterion 1 (root perturbation bound, 5000 trials)", ok,
            f"{trials - failures}/{trials} within bound, {elapsed:.1f}s (< 30s)")


def test_criterion_02_product_bound_suite():
    rng = np.random.default_rng(2025)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        t = 2.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        R = float(np.abs(t).max()) + rng.uniform(1e-6, 1.0)
        r = 10.0 ** rng.uniform(-3, 0)
        delta = rng.normal(size=n) + 1j * rng.normal(size=n)
        delta *= r / max(1e-15, float(np.abs(delta).max()))
        s = t + delta
        lemma = product_bound_constants(n, R=R, r=r)
        if not subset_products_ok(t, s, R, r, np.asarray(lemma.C)):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _report("criterion 2 (subset-product bounds, 10^4 trials)", ok,
            f"{violations} violations, {elapsed:.1f}s (< 10s)")


def test_criterion_03_forward_rate(forward_exp_experiment):
    exp, elapsed = forward_exp_experiment
    rows_ok = all(r.graph_dh <= r.delta + 1e-12 for r in exp.records)
    theta_delta = exp.delta_fit.theta
    theta_coeff = max(f.theta for f in exp.coeff_fits)
    chain_ok = theta_delta <= math.sqrt(theta_coeff) + 0.1
    ok = (exp.delta_fit.verdict == "geometric" and theta_delta <= 0.6
          and chain_ok and rows_ok and elapsed < 120.0)
    _report("criterion 3 (forward rate for t^2 - e^x)", ok,
            f"verdict={exp.delta_fit.verdict}, theta={theta_delta:.4f} (<= 0.6), "
            f"chain {theta_delta:.4f} <= sqrt({theta_coeff:.4f})+0.1, "
            f"graph<=delta rows={rows_ok}, {elapsed:.1f}s (< 120s)")


def test_criterion_04_forward_floor(segment_401):
    a2 = Polynomial.from_coeffs_1d([-3.0, 0.0, 0.0, -1.0])  # -(x^3 + 3)
    F = Pseudopolynomial(2, (Const(0.0), a2))
    exp = forward_rate_experiment(F, segment_401, range(3, 13))
    worst = max(r.delta for r in exp.records)
    ok = worst <= 1e-8
    _report("criterion 4 (forward floor, degree-3 coefficients)", ok,
            f"max delta {worst:.2e} (<= 1e-8) over d=3..12")


def test_criterion_05_converse_round_trip(forward_exp_experiment, segment_401):
    exp, _ = forward_exp_experiment
    t0 = time.perf_counter()
    w_seq = [Multigraph(segment_401, r.fibers, 2) for r in exp.records]
    res = converse_experiment(w_seq, exp.target, d_values=[r.d for r in exp.records])
    target = -np.exp(segment_401.points[:, 0])
    a2_samples = np.array([np.prod(f) for f in w_seq[-1].fibers])  # a_2 = t_1 t_2
    sup_err = float(np.abs(a2_samples - target).max())
    delta_last = max(exp.records[-1].delta, 1e-13)
    bound = res.lemma.D[1] * delta_last
    elapsed = time.perf_counter() - t0
    ok = (res.verdict == "holomorphic-witness" and sup_err <= bound and elapsed < 120.0)
    _report("criterion 5 (converse round trip)", ok,
            f"verdict={res.verdict}, a2 sup err {sup_err:.2e} <= D2*delta_last "
            f"{bound:.2e}, {elapsed:.1f}s (< 120s)")


@pytest.fixture(scope="module")
def staircase_rows():
    t0 = time.perf_counter()
    rows = counterexample_rates(8, mesh=2.0 ** -14)
    return rows, time.perf_counter() - t0


def test_criterion_06_counterexample_exactness(staircase_rows):
    rows, elapsed = staircase_rows
    mesh = 2.0 ** -14
    sup_ok = all(abs(r.sup_norm - 1.0 / (2.0 * r.k ** 2)) <= 1e-9 for r in rows)
    k2_ok = rows[0].k == 2 and abs(rows[0].sup_norm - 0.125) <= 1e-12
    dh_ok = all(r.graph_dh <= 0.5 ** r.k + 2.0 * mesh for r in rows)
    sup_fit = fit_geometric_rate([(r.k, r.sup_norm) for r in rows])
    dh_fit = fit_geometric_rate([(r.k, r.graph_dh) for r in rows])
    fits_ok = sup_fit.verdict == "not-geometric" and dh_fit.verdict == "geometric"
    ok = sup_ok and k2_ok and dh_ok and fits_ok and elapsed < 30.0
    _report("criterion 6 (staircase exactness + rate dichotomy)", ok,
            f"sup exact={sup_ok} (k=2 row {rows[0].sup_norm}), dh bound={dh_ok}, "
            f"graph fit {dh_fit.verdict}, sup fit {sup_fit.verdict}, {elapsed:.1f}s (< 30s)")


def test_criterion_07_fiberwise_constant_divergence(staircase_rows):
    # delta = h/2 and the exact graph distance is w h / (2 sqrt(w^2 + h^2)),
    # with w = 2^-k and h = 1/k^2, so the probe constant is
    # sqrt(1 + (2^k/k^2)^2) ~ 2^k/k^2.  The divergence itself needs only the
    # bound d_H <= 2^-k + 2*mesh: C_est >= (1/(2k^2)) / (2^-k + 2*mesh).
    rows, _ = staircase_rows
    mesh = 2.0 ** -14
    details = []
    worst = 0.0
    above_floor = True
    for r in rows:
        if r.k < 3:
            continue
        reference = math.sqrt(1.0 + (2.0 ** r.k / r.k ** 2) ** 2)
        floor = (1.0 / (2.0 * r.k ** 2)) / (0.5 ** r.k + 2.0 * mesh)
        rel = abs(r.c_est - reference) / reference
        worst = max(worst, rel)
        above_floor = above_floor and r.c_est >= floor
        details.append(f"k={r.k}: C_est={r.c_est:.4f} exact={reference:.4f} "
                       f"rel={rel:.1e} floor={floor:.3f}")
    ok = worst <= 0.20 and above_floor
    _report("criterion 7 (fiberwise constant: exact sqrt(1 + (2^k/k^2)^2) within 20%, "
            "above the divergence floor)", ok, "; ".join(details))


def test_criterion_08_closure_failure():
    t0 = time.perf_counter()
    rep = closure_failure_demo([10.0, 100.0, 1000.0])
    elapsed = time.perf_counter() - t0
    ok = rep.cond1 and rep.cond2
    _report("criterion 8 (closure failure demo)", ok,
            f"cond1={rep.cond1}, cond2={rep.cond2}, {elapsed:.1f}s")


def test_criterion_09_scalar_dichotomy():
    t0 = time.perf_counter()
    K = sample_segment(-1.0, 1.0, 801)
    x = K.points[:, 0]
    _, fit_exp = scalar_bws_rate(np.exp(x), K, range(0, 16))
    _, fit_abs = scalar_bws_rate(np.abs(x), K, range(20, 61, 2))
    elapsed = time.perf_counter() - t0
    ok = (fit_exp.verdict == "geometric" and fit_exp.theta < 0.5
          and fit_abs.verdict == "not-geometric" and fit_abs.theta >= 0.97
          and elapsed < 60.0)
    _report("criterion 9 (scalar rate dichotomy)", ok,
            f"exp: {fit_exp.verdict} theta={fit_exp.theta:.4f} (< 0.5); "
            f"|x|: {fit_abs.verdict} theta={fit_abs.theta:.4f} (>= 0.97); "
            f"{elapsed:.1f}s (< 60s)")


def test_criterion_10_extremal_sanity():
    disc_samples = sample_disc(0.0, 1.0, 31)
    vals = Disc(0.0, 1.0).phi_many(disc_samples.points)
    disc_ok = float(np.abs(vals - 1.0).max()) <= 1e-10
    phi2 = siciak_phi(Segment(-1.0, 1.0), 2.0)
    oracle = cheb_growth_oracle(2.0, d=30)
    seg_ok = abs(phi2 - oracle) <= 1e-6
    ok = disc_ok and seg_ok
    _report("criterion 10 (extremal sanity)", ok,
            f"phi on disc samples max dev {float(np.abs(vals - 1.0).max()):.1e} (<= 1e-10); "
            f"phi_segment(2)={phi2:.9f} vs oracle {oracle:.9f} (diff {abs(phi2 - oracle):.1e} <= 1e-6)")
