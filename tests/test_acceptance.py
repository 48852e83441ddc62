"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import cmath
import math
import time

import numpy as np
import scipy.linalg

from tetrakit import classify as cl
from tetrakit import fundops as fo
from tetrakit import gen
from tetrakit import geometry as geo
from tetrakit import models as md
from tetrakit.gen import GenConfig
from tetrakit.matkernel import operator_norm, spectral_radius


def _report(num, label, elapsed, budget):
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.1f}s, budget {budget:.0f}s)")


def test_criterion_1_spectral_radius_identity():
    start = time.time()
    for seed in range(500):
        dim = 1 + seed % 8
        trip = gen.gen_pc_unitary(GenConfig(seed=seed, dim=dim))
        lhs = spectral_radius(trip.a @ trip.b)
        norm_a = operator_norm(trip.a)
        norm_b = operator_norm(trip.b)
        rhs = max(norm_a**2, norm_b**2)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + norm_a**2), (seed, lhs, rhs)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _report(1, "r(AB) = max(||A||^2, ||B||^2) on 500 pc unitaries", elapsed, 10)


def test_criterion_2_fundamental_operator_suite():
    start = time.time()
    scalars_checked = 0
    for seed in range(500):
        dim = 1 + seed % 5
        if seed % 2 == 0:
            trip = gen.gen_normal_e_contraction(GenConfig(seed=seed, dim=dim))
        else:
            trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=dim))
        scale = trip.scale_norm()
        for adjoint in (False, True):
            pair = fo.fundamental_pair(trip, adjoint=adjoint)
            assert pair.residuals["sandwich_1"] <= 1e-9 * scale, seed
            assert pair.residuals["sandwich_2"] <= 1e-9 * scale, seed
            assert pair.pencil_nu_max <= 1.0 + 1e-8, (seed, pair.pencil_nu_max)
        if trip.dim == 1:
            scalars_checked += 1
            a, b, t = trip.a[0, 0], trip.b[0, 0], trip.t[0, 0]
            pair = fo.fundamental_pair(trip)
            f1 = (a - np.conj(b) * t) / (1.0 - abs(t) ** 2)
            f2 = (b - np.conj(a) * t) / (1.0 - abs(t) ** 2)
            assert abs(pair.x1[0, 0] - f1) <= 1e-12
            assert abs(pair.x2[0, 0] - f2) <= 1e-12
    assert scalars_checked >= 50
    elapsed = time.time() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(2, "fundamental pairs: sandwich <= 1e-9, nu-pencil <= 1+1e-8", elapsed, 30)


def test_criterion_3_douglas_lift_verification():
    start = time.time()
    halving_checked = 0
    for seed in range(200):
        dim = 1 + seed % 3
        trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=dim))
        model = md.build_lift(trip)
        assert model.tail <= 1e-10 or model.warnings, seed
        res = md.verify_lift(model, trip)
        for name in ("a", "b", "t"):
            assert res[f"intertwine_{name}"] <= 1e-8, (seed, name, res)
            assert res[f"recover_{name}"] <= 1e-7, (seed, name, res)
        radius = spectral_radius(trip.t)
        if 0.4 <= radius <= 0.9 and halving_checked < 30:
            res_n = md.verify_lift(md.build_lift(trip, 8), trip)
            res_2n = md.verify_lift(md.build_lift(trip, 16), trip)
            worst_n = max(res_n[f"intertwine_{k}"] for k in "abt")
            worst_2n = max(res_2n[f"intertwine_{k}"] for k in "abt")
            if worst_n > 1e-12:
                halving_checked += 1
                assert worst_2n <= 0.5 * worst_n, (seed, worst_n, worst_2n)
    assert halving_checked >= 10
    elapsed = time.time() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    _report(3, "Douglas lifts: intertwine <= 1e-8, recover <= 1e-7, halving", elapsed, 120)


def test_criterion_4_strictness_equivalence():
    start = time.time()
    rng = np.random.default_rng(404)
    checked = 0
    # Model-built instances: strictness of the lift must agree with the
    # special-pair test of the adjoint fundamental pair plus residual
    # strictness.
    for seed in range(200):
        kind = seed % 4
        if kind == 0:
            trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=1 + seed % 2))
        elif kind == 1:
            trip = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=2))
        elif kind == 2:
            _, trip = gen.gen_scalar_special_model(GenConfig(seed=seed, dim=1))
        else:
            # T = 0 with non-normal A: the pair (A*, B*) is not special.
            a = np.array([[0, 0.4 + 0.1j * (seed % 3)], [0, 0]], dtype=complex)
            b = 0.3 * np.eye(2, dtype=complex)
            trip = cl.OperatorTriple(a, b, np.zeros((2, 2)))
        model = md.build_lift(trip)
        expected = (
            fo.is_special_pair(model.g1, model.g2)[0] and model.residual.strict
        )
        assert md.lift_is_strict(model) == expected, seed
        if seed % 4 == 3:
            assert not md.lift_is_strict(model)
        checked += 1
    # Injected pairs: noncommuting pairs are guaranteed negatives, and a
    # random pair is special exactly when it is a pair of scalars.
    for k in range(300):
        n = 1 + k % 3
        if k % 3 == 0 and n > 1:
            g1 = np.zeros((n, n), dtype=complex)
            g1[0, -1] = 0.5
            g2 = g1.conj().T
            assert not fo.is_special_pair(g1, g2)[0]
        else:
            g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert fo.is_special_pair(g1, g2)[0] == (n == 1), k
        checked += 1
    assert checked == 500
    elapsed = time.time() - start
    _report(4, "lift_is_strict == special pair on 500 instances", elapsed, 60)


def _mixed_triple(seed):
    pure = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=2))
    unit = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=2))
    trip = cl.OperatorTriple(
        scipy.linalg.block_diag(pure.a, unit.a),
        scipy.linalg.block_diag(pure.b, unit.b),
        scipy.linalg.block_diag(pure.t, unit.t),
    )
    rng = np.random.default_rng(seed + 31337)
    return trip.conjugate_by(gen.haar_unitary(rng, 4))


def test_criterion_5_unitary_invariants():
    start = time.time()
    for seed in range(100):
        trip = _mixed_triple(seed)
        rng = np.random.default_rng(seed + 271828)
        u = gen.haar_unitary(rng, trip.dim)
        other = trip.conjugate_by(u)
        d1 = md.extract_data_set(trip, grid=8)
        d2 = md.extract_data_set(other, grid=8)
        rep = md.coincide(d1, d2)
        assert rep.coincide, (seed, rep.residuals)
        assert max(rep.residuals.values()) <= 1e-9, (seed, rep.residuals)
        omega = md.omega_tau(trip, other, u)
        rt1, rt2 = md.residual_triple(trip), md.residual_triple(other)
        for m1, m2 in ((rt1.r, rt2.r), (rt1.s, rt2.s), (rt1.w, rt2.w)):
            assert operator_norm(omega @ m1 - m2 @ omega) <= 1e-9, seed
    # Mismatched pure pairs with distinct |Theta(0)|.
    rng = np.random.default_rng(5150)
    rejected = 0
    while rejected < 100:
        t1, t2 = rng.uniform(0.1, 0.9, 2)
        if abs(t1 - t2) < 0.05:
            continue
        d1 = md.extract_data_set(cl.OperatorTriple([[0.2]], [[0.1]], [[t1]]), grid=8)
        d2 = md.extract_data_set(cl.OperatorTriple([[0.2]], [[0.1]], [[t2]]), grid=8)
        assert not md.coincide(d1, d2).coincide, (t1, t2)
        rejected += 1
    elapsed = time.time() - start
    _report(5, "coincidence under conjugation; mismatches rejected", elapsed, 120)


def test_criterion_6_special_dataset_pipeline():
    start = time.time()
    for seed in range(100):
        ds, trip = gen.gen_scalar_special_model(GenConfig(seed=seed, dim=1))
        rep = md.validate_special_data_set(ds, fourier_modes=64)
        assert rep["passes_i"], seed
        assert rep["passes_ii"], seed
        assert rep["invariance_residual"] <= 1e-8, (seed, rep)
        extracted = md.extract_data_set(trip, grid=16, boundary=128)
        verdict = md.coincide(ds, extracted)
        assert verdict.coincide, (seed, verdict.residuals)
        assert max(verdict.residuals.values()) <= 1e-6, (seed, verdict.residuals)
    elapsed = time.time() - start
    _report(6, "100 scalar special sets validate and round-trip", elapsed, 120)


def _sampling_sup_oracle(p, samples=4096):
    """Pure sampling maximization of |Psi| on the unit circle with
    golden-section polish; independent of the closed form."""
    thetas = 2.0 * np.pi * np.arange(samples) / samples
    z = np.exp(1j * thetas)
    denom = 1.0 - z * p.b
    vals = np.abs((p.a - z * p.t) / denom)
    k = int(np.argmax(vals))

    def f(theta):
        zz = cmath.exp(1j * theta)
        return abs((p.a - zz * p.t) / (1.0 - zz * p.b))

    lo, hi = thetas[k] - 2 * np.pi / samples, thetas[k] + 2 * np.pi / samples
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best = max(float(vals[k]), fc, fd)
    for _ in range(80):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        best = max(best, fc, fd)
    return best


def test_criterion_7_geometry_suite():
    start = time.time()
    rng = np.random.default_rng(777)
    count = 0
    while count < 1000:
        a, b, t = 0.8 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        if abs(b) > 0.95:
            continue
        count += 1
        p = geo.Point3(a, b, t)
        closed = geo.sup_psi_circle(p)
        oracle = _sampling_sup_oracle(p)
        assert abs(closed - oracle) <= 1e-9 * (1.0 + closed), (p, closed, oracle)
    for seed in range(1000):
        rng2 = np.random.default_rng(seed + 10_000)
        a, b, t = 0.9 * (rng2.standard_normal(3) + 1j * rng2.standard_normal(3))
        p = geo.Point3(a, b, t)
        v = geo.in_tetrablock(p)
        assert v.in_open == geo.in_tetrablock(p.conjugated()).in_open
        swapped = geo.in_tetrablock(p.swapped())
        assert v.in_open == swapped.in_open
        assert v.in_closure == swapped.in_closure
    rng3 = np.random.default_rng(31415)
    for _ in range(1000):
        g = rng3.standard_normal((2, 2)) + 1j * rng3.standard_normal((2, 2))
        x = g * (rng3.uniform(0.05, 0.99) / np.linalg.norm(g, 2))
        assert geo.in_tetrablock(
            geo.Point3(x[0, 0], x[1, 1], np.linalg.det(x))
        ).in_open
    elapsed = time.time() - start
    _report(7, "Mobius sup vs sampling oracle; symmetries; pushforwards", elapsed, 60)


def test_criterion_8_classification_logic():
    start = time.time()
    for seed in range(2000):
        kind = seed % 5
        dim = 1 + seed % 3
        if kind == 0:
            trip = gen.gen_normal_e_contraction(GenConfig(seed=seed, dim=dim))
        elif kind == 1:
            trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=dim))
        elif kind == 2:
            trip = gen.gen_pc_unitary(GenConfig(seed=seed, dim=dim))
        elif kind == 3:
            trip = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=dim))
        else:
            trip = gen.gen_non_example(GenConfig(seed=seed, dim=max(dim, 2)))
        commuting, _ = cl.is_commuting(trip)
        iso = cl.check_e_isometry(trip)
        pc = cl.check_pc(trip)
        if iso["e_unitary"]:
            assert iso["e_isometry"] and pc["pc_unitary"], seed
        if iso["e_isometry"]:
            assert pc["pc_isometry"], seed
        if iso["e_isometry"]:
            assert commuting, seed
    for seed in range(100):
        trip = gen.gen_normal_e_contraction(GenConfig(seed=seed, dim=3)) if seed % 2 \
            else _mixed_triple(seed)
        dec = cl.canonical_decomposition(trip)
        assert dec.residuals["t_unitary_on_hu"] <= 1e-9, seed
        for name in ("a", "b", "t"):
            assert dec.residuals[f"reduce_{name}"] <= 1e-9, seed
    elapsed = time.time() - start
    _report(8, "implication lattice on 2000 instances; decomposition", elapsed, 60)
