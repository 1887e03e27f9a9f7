import numpy as np
import pytest

from hyperapprox import converse, roots
from hyperapprox.algebra import Const, Coord, Exp, Neg, Polynomial, Pseudopolynomial
from hyperapprox.converse import (
    CoveringNumberError,
    converse_experiment,
    detect_covering_number,
    product_bound_constants,
    reconstruct_coefficients,
)
from hyperapprox.forward import forward_rate_experiment, sample_multigraph
from hyperapprox.roots import solve_monic_batch
from hyperapprox.sets_metrics import (
    Multigraph,
    SampledCompact,
    fit_geometric_rate,
    sample_box,
    sample_segment,
)
from tests.oracles import subset_products_ok


@pytest.fixture(scope="module")
def K401():
    return sample_segment(-1.0, 1.0, 401)


@pytest.fixture(scope="module")
def exp_round_trip(K401):
    F = Pseudopolynomial(2, (Const(0.0), Neg(Exp(Coord(0)))))
    fwd = forward_rate_experiment(F, K401, range(2, 15))
    w_seq = [Multigraph(K401, r.fibers, 2) for r in fwd.records]
    res = converse_experiment(w_seq, fwd.target, d_values=[r.d for r in fwd.records])
    return fwd, res


def _perturbed_sequence(K, coeffs, steps):
    """Limit fibers of the monic coefficient rows coeffs (N, n) and, per row
    of steps (num_d, n), the fibers of coeffs + steps[d]."""
    limit = Multigraph(K, solve_monic_batch(coeffs)[0], coeffs.shape[1])
    return limit, [Multigraph(K, solve_monic_batch(coeffs + step)[0], coeffs.shape[1]) for step in steps]


@pytest.fixture(scope="module")
def cubic_sequence():
    # t^3 - (1 + x/4)^3: roots (1 + x/4) times the cube roots of unity, each coefficient
    # perturbed by 0.1 * 2^-d in its own complex direction
    K = sample_segment(-1.0, 1.0, 41)
    x = K.points[:, 0].real
    coeffs = np.column_stack([0 * x, 0 * x, -(1.0 + 0.25 * x) ** 3]).astype(complex)
    steps = [0.1 * 0.5 ** d * np.array([1.0, 1j, -1.0]) for d in range(1, 11)]
    limit, w_seq = _perturbed_sequence(K, coeffs, steps)
    return w_seq, limit, tuple(range(1, 11))


def test_lemma_constant_base_case():
    lemma = product_bound_constants(1, R=2.0, r=0.1)
    assert lemma.C == (1.0,)
    assert lemma.D == (1.0,)


def test_lemma_constant_recursion_example():
    lemma = product_bound_constants(2, R=3.0, r=0.5)
    assert lemma.C[1] == pytest.approx(3.0 + 3.5 * 1.0)


def test_lemma_bound_brute_force():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        t = rng.normal(size=n) + 1j * rng.normal(size=n)
        R = float(np.abs(t).max()) + rng.uniform(0.0, 1.0) + 1e-9
        r = 10.0 ** rng.uniform(-3, 0)
        delta = rng.normal(size=n) + 1j * rng.normal(size=n)
        delta *= r / max(1e-15, np.abs(delta).max())
        s = t + delta
        lemma = product_bound_constants(n, R=R, r=r)
        assert subset_products_ok(t, s, R, r, np.asarray(lemma.C))


def test_detect_covering_number_from_pipeline(K401):
    F = Pseudopolynomial(2, (Const(0.0), Const(-1.0)))  # fibers {1, -1} everywhere
    mg = sample_multigraph(K401, F.coefficients_at(K401.points))
    detect_covering_number([mg, mg, mg, mg], 2, x0_index=0, target_fiber=mg.fibers[0])


def test_detect_covering_number_rejects_spurious_branch(K401):
    F = Pseudopolynomial(2, (Const(0.0), Const(-1.0)))
    mg = sample_multigraph(K401, F.coefficients_at(K401.points))
    bloated = Multigraph(K401, tuple(np.append(f, 5.0) for f in mg.fibers), 3)
    with pytest.raises(CoveringNumberError):
        detect_covering_number([bloated], 2, x0_index=0, target_fiber=mg.fibers[0])


def test_detect_covering_number_needs_separated_point():
    # fibers of t^2 - x: double root at x = 0, simple roots at x = 1
    base = SampledCompact(np.array([[0.0], [1.0]], dtype=complex), mesh=0.5)
    F = Pseudopolynomial(2, (Const(0.0), Neg(Coord(0))))
    mg = sample_multigraph(base, F.coefficients_at(base.points))
    with pytest.raises(CoveringNumberError):
        detect_covering_number([mg], 2, x0_index=0, target_fiber=mg.fibers[0])
    detect_covering_number([mg], 2, x0_index=1, target_fiber=mg.fibers[1])


def test_detect_covering_number_separation_boundary():
    # target points exactly SEPARATION_TOL apart count as one root; a wider
    # gap separates them
    base = SampledCompact(np.array([[0.0]], dtype=complex), mesh=0.5)
    close, apart = np.array([0.0, 0.001]), np.array([0.0, 0.0011])
    with pytest.raises(CoveringNumberError):
        detect_covering_number([Multigraph(base, (close,), 2)], 2, x0_index=0, target_fiber=close)
    detect_covering_number([Multigraph(base, (apart,), 2)], 2, x0_index=0, target_fiber=apart)


def test_reconstruct_constant_fibers():
    base = SampledCompact(np.array([[0.0], [0.5]], dtype=complex), mesh=0.25)
    mg = Multigraph(base, (np.array([1.0, -1.0]), np.array([1.0, -1.0])), 2)
    coeffs = reconstruct_coefficients(mg, 2)
    np.testing.assert_allclose(coeffs, [[0.0, -1.0], [0.0, -1.0]], atol=1e-14)


def test_reconstruct_rejects_wrong_fiber_size():
    base = SampledCompact(np.array([[0.0]], dtype=complex), mesh=0.5)
    mg = Multigraph(base, (np.array([1.0, -1.0]),), 2)
    with pytest.raises(ValueError):
        reconstruct_coefficients(mg, 3)


def test_reconstruct_matches_stored_coeff_polys(exp_round_trip, K401):
    fwd, _ = exp_round_trip
    for rec in fwd.records[:5]:
        mg = Multigraph(K401, rec.fibers, 2)
        rec_coeffs = reconstruct_coefficients(mg, 2)
        poly_vals = np.column_stack([p.evaluate_many(K401.points) for p in rec.coeff_polys])
        assert np.abs(rec_coeffs - poly_vals).max() <= 1e-8


def test_perturbed_fibers_stay_within_product_bounds(K401):
    rng = np.random.default_rng(59)
    F = Pseudopolynomial(2, (Const(0.0), Neg(Exp(Coord(0)))))
    mg = sample_multigraph(K401, F.coefficients_at(K401.points))
    base_coeffs = reconstruct_coefficients(mg, 2)
    R = float(np.abs(np.concatenate(mg.fibers)).max()) + 0.1
    for r in (1e-3, 1e-6):
        lemma = product_bound_constants(2, R=R, r=r, M=1.0)
        fibers = []
        for f in mg.fibers:
            delta = rng.normal(size=f.size) + 1j * rng.normal(size=f.size)
            delta *= r / max(1e-300, float(np.abs(delta).max()))
            fibers.append(f + delta)
        fibers = tuple(fibers)
        pert = Multigraph(K401, fibers, 2)
        pert_coeffs = reconstruct_coefficients(pert, 2)
        err = np.abs(pert_coeffs - base_coeffs).max(axis=0)
        for k in range(2):
            assert err[k] <= lemma.D[k] * r


def test_round_trip_verdict(exp_round_trip, K401):
    fwd, res = exp_round_trip
    assert res.verdict == "holomorphic-witness"
    assert all(f.verdict == "geometric" for f in res.coeff_fits)
    assert all(res.lemma_ok)
    assert res.theta_envelope_ok
    # reconstructed top coefficient matches -e^x within the product-bound
    # envelope at the final degree
    target = -np.exp(K401.points[:, 0])
    rec = res.reconstructed.coeffs[1].evaluate_many(K401.points)
    bound = res.lemma.D[1] * max(fwd.records[-1].delta, 1e-13)
    assert np.abs(rec - target).max() <= bound + 1e-10


def test_round_trip_coefficient_errors_track_delta(exp_round_trip):
    fwd, res = exp_round_trip
    deltas = np.array([r.delta for r in fwd.records])
    for di in range(len(fwd.records)):
        for k in range(2):
            assert res.coeff_errors[di][k] <= res.lemma.D[k] * max(deltas[di], 1e-13) * 1.01 + 1e-12


def test_constant_sequence_trivially_geometric(K401):
    F = Pseudopolynomial(2, (Const(0.0), Const(-1.0)))
    mg = sample_multigraph(K401, F.coefficients_at(K401.points))
    w_seq = [mg] * 8
    res = converse_experiment(w_seq, mg)
    assert res.verdict == "holomorphic-witness"
    assert res.delta_fit.theta == 0.0


@pytest.mark.parametrize("count", [6, 11])
def test_d_values_of_another_length_rejected(K401, count):
    # 8 multigraphs with fewer or more degrees: nothing is truncated or
    # fitted at a degree that has no multigraph
    F = Pseudopolynomial(2, (Const(0.0), Const(-1.0)))
    mg = sample_multigraph(K401, F.coefficients_at(K401.points))
    with pytest.raises(ValueError, match=f"d_values lists {count} degrees for 8 multigraphs"):
        converse_experiment([mg] * 8, mg, d_values=range(1, count + 1))


def test_sequence_on_another_base_rejected(K401):
    F = Pseudopolynomial(2, (Const(0.0), Const(-1.0)))
    mg = sample_multigraph(K401, F.coefficients_at(K401.points))
    K2 = sample_segment(0.0, 2.0, 401)
    other = sample_multigraph(K2, F.coefficients_at(K2.points))
    with pytest.raises(ValueError, match="base sample"):
        converse_experiment([mg] * 7 + [other], mg)


def test_witness_degree_fits_box_samples():
    # 9 samples on a box carry the degree-2 basis (6 functions) but not the
    # degree-3 one (10), so the witness is fitted at degree 2, which
    # reproduces t^2 - (x0^2 + 2) exactly
    K = sample_box([(-1.0, 1.0), (-1.0, 1.0)], 3)
    a2 = Polynomial.from_terms(2, [((0, 0), -2.0), ((2, 0), -1.0)])
    mg = sample_multigraph(K, Pseudopolynomial(2, (Const(0.0), a2)).coefficients_at(K.points))
    res = converse_experiment([mg] * 8, mg)
    assert res.verdict == "holomorphic-witness"
    for p, want in zip(res.reconstructed.coeffs, (0.0, a2.evaluate_many(K.points))):
        np.testing.assert_allclose(p.evaluate_many(K.points), want, atol=1e-12)


def test_slow_sequence_rejected_before_reconstruction(K401):
    F = Pseudopolynomial(2, (Const(0.0), Const(-1.0)))
    mg = sample_multigraph(K401, F.coefficients_at(K401.points))
    # every fiber offset by 1/d^2: the distances decay polynomially
    w_seq = [Multigraph(K401, mg.fibers + 1.0 / d ** 2, 2) for d in range(1, 11)]
    with pytest.raises(ValueError, match="not geometric"):
        converse_experiment(w_seq, mg)


def test_subsampled_rate_stays_geometric(exp_round_trip):
    # halving the degree sequence (the square-root/interleaving step of the
    # rate argument) preserves the geometric verdict
    fwd, _ = exp_round_trip
    pairs = [(r.d, r.delta) for r in fwd.records][::2]
    fit = fit_geometric_rate(pairs, floor=fwd.fit_floor)
    assert fit.verdict == "geometric"


def test_single_root_fibers_round_trip(tmp_path):
    # n = 1: the target fiber is one point, so its separating disc is
    # unbounded and the covering number check passes
    import json

    from hyperapprox.cli import main

    fwd_cfg = {
        "command": "forward",
        "shape": {"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0]},
        "samples": 201,
        "fiber_degree": 1,
        "coefficients": [{"op": "neg", "args": [{"op": "exp", "args": [{"op": "coord", "args": [0]}]}]}],
        "d_range": [1, 10],
    }
    fwd_path = tmp_path / "forward.json"
    fwd_path.write_text(json.dumps(fwd_cfg))
    assert main(["run", str(fwd_path), "--out", str(tmp_path / "fwd")]) == 0
    conv_path = tmp_path / "converse.json"
    conv_path.write_text(json.dumps(
        {"command": "converse", "from_forward": str(tmp_path / "fwd" / "results.json")}))
    assert main(["run", str(conv_path), "--out", str(tmp_path / "conv")]) == 0
    results = json.loads((tmp_path / "conv" / "results.json").read_text())
    assert results["verdict"] == "holomorphic-witness"


def test_coefficient_at_floor_after_three_entries_is_inconclusive():
    # a_1 is perturbed by 0.1 * 2^-d at every d, a_2 only at d <= 3: the a_2
    # error sits on its floor from the fourth entry on, so its fit has 3
    # usable entries and cannot decide, which is not a rejection
    K = sample_segment(-1.0, 1.0, 21)
    x = K.points[:, 0].real
    coeffs = np.column_stack([0.3 * x, -(1.0 + 0.25 * x) ** 2]).astype(complex)
    steps = [0.1 * 0.5 ** d * np.array([1.0, 0.01 if d <= 3 else 0.0]) for d in range(1, 13)]
    limit, w_seq = _perturbed_sequence(K, coeffs, steps)
    res = converse_experiment(w_seq, limit)
    assert res.delta_fit.verdict == "geometric"
    assert [f.verdict for f in res.coeff_fits] == ["geometric", "inconclusive"]
    assert res.coeff_fits[1].n_used == 3
    assert res.verdict == "inconclusive"
    assert all(res.lemma_ok)
    # the unfitted a_2 placeholder theta (1.0) is not an envelope breach
    assert res.theta_envelope_ok


@pytest.mark.parametrize("case", ["exp_round_trip", "cubic_sequence"])
def test_converse_matches_without_match_roots(request, monkeypatch, case):
    if case == "exp_round_trip":
        fwd, _ = request.getfixturevalue(case)
        w_seq = [Multigraph(fwd.target.base, r.fibers, 2) for r in fwd.records]
        limit, d_values = fwd.target, [r.d for r in fwd.records]
    else:
        w_seq, limit, d_values = request.getfixturevalue(case)
    assert limit.n <= 4
    original = roots.match_roots
    calls = []

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    # converse must not reach match_roots through the roots module or a
    # binding of its own
    monkeypatch.setattr(roots, "match_roots", counted)
    monkeypatch.setattr(converse, "match_roots", counted, raising=False)
    res = converse_experiment(w_seq, limit, d_values=d_values)
    assert calls == []

    # reference: the per-fiber loop converse ran before the batched kernel
    fit_floor = max(1e-13, 10.0 * 1e-12)
    ref_sup, ref_ok = [], []
    for di, w in enumerate(w_seq):
        sup_match = 0.0
        for fy, fw in zip(limit.fibers, w.fibers):
            sup_match = max(sup_match, original(fy, fw).bottleneck)
        ref_sup.append(sup_match)
        bound_r = max(sup_match, fit_floor)
        ref_ok.append(bool(all(
            res.coeff_errors[di, k] <= res.lemma.D[k] * bound_r * (1 + 1e-9) + 1e-12
            for k in range(limit.n)
        )))
    assert res.matched_sup == tuple(ref_sup)
    assert res.lemma_ok == tuple(ref_ok)
