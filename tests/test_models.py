import cmath
import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrakit import classify as cl
from tetrakit import fundops as fo
from tetrakit import gen
from tetrakit import models as md
from tetrakit.errors import (
    NotAContractionError,
    NotCommutingError,
    PoleError,
    PreconditionError,
)
from tetrakit.gen import ClassTag, GenConfig
from tetrakit.matkernel import (
    DEFAULT_TOL,
    SubspaceBasis,
    compress,
    operator_norm,
    spectral_radius,
)
from tetrakit.matkernel import _PSD_TOL
from tetrakit.matkernel import _norm_or_zero as _nrm
from test_contraction_edge import EQ_TOL, edge_triples


def scalar_triple(a, b, t):
    return cl.OperatorTriple([[a]], [[b]], [[t]])


def mixed_triple(seed, pure_dim=2, unitary_dim=2, conjugate=True):
    """Direct sum of a pure contraction and a strict tetrablock unitary."""
    pure = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=pure_dim))
    unit = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=unitary_dim))
    trip = cl.OperatorTriple(
        scipy.linalg.block_diag(pure.a, unit.a),
        scipy.linalg.block_diag(pure.b, unit.b),
        scipy.linalg.block_diag(pure.t, unit.t),
    )
    if conjugate:
        rng = np.random.default_rng(seed + 1000)
        trip = trip.conjugate_by(gen.haar_unitary(rng, pure_dim + unitary_dim))
    return trip


def nonnormal_triple(seed, pure_dim, unitary_dim=0):
    """(0, 0, T) with T a random non-normal contraction of norm 0.8 plus a
    diagonal unitary block, Haar-conjugated; its Theta samples are not
    complex symmetric, unlike those of the normal-based generators."""
    rng = np.random.default_rng([seed, pure_dim, unitary_dim])
    g = rng.standard_normal((pure_dim, pure_dim)) + 1j * rng.standard_normal((pure_dim, pure_dim))
    w = np.exp(2j * np.pi * rng.uniform(size=unitary_dim))
    t = scipy.linalg.block_diag(0.8 * g / operator_norm(g), np.diag(w))
    zero = np.zeros_like(t)
    return cl.OperatorTriple(zero, zero, t).conjugate_by(gen.haar_unitary(rng, t.shape[0]))


class TestComputeQ:
    def test_unitary(self):
        rng = np.random.default_rng(0)
        w = gen.haar_unitary(rng, 4)
        ql = md.compute_Q(w)
        assert np.allclose(ql.q, np.eye(4), atol=1e-9)
        assert ql.carrier.dim == 4

    def test_pure(self):
        for seed in range(5):
            trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=3))
            ql = md.compute_Q(trip.t)
            assert ql.carrier.dim == 0
            assert operator_norm(ql.q) <= 1e-9 if ql.q.size else True

    def test_mixed_diagonal(self):
        ql = md.compute_Q(np.diag([1.0, 0.5]))
        assert np.allclose(ql.q, np.diag([1.0, 0.0]), atol=1e-10)


class TestResidualTriple:
    def test_pure_triple_empty(self):
        trip = gen.gen_pure_e_contraction(GenConfig(seed=2, dim=2))
        rt = md.residual_triple(trip)
        assert rt.dim == 0 and rt.strict

    def test_unitary_triple_is_itself(self):
        trip = gen.gen_strict_e_unitary(GenConfig(seed=3, dim=3))
        rt = md.residual_triple(trip)
        assert rt.dim == 3
        # Same spectra as the original triple (unitarily equivalent).
        got = sorted(np.linalg.eigvals(rt.w), key=lambda z: (z.real, z.imag))
        want = sorted(np.linalg.eigvals(trip.t), key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want, atol=1e-9)

    def test_one_dimensional_carrier(self):
        trip = cl.OperatorTriple(np.zeros((2, 2)), np.zeros((2, 2)), np.diag([1.0, 0.5]))
        rt = md.residual_triple(trip)
        assert rt.dim == 1
        assert rt.w[0, 0] == pytest.approx(1.0)
        assert abs(rt.r[0, 0]) <= 1e-12 and abs(rt.s[0, 0]) <= 1e-12

    def test_pc_identities_hold(self):
        for seed in range(10):
            trip = mixed_triple(seed)
            rt = md.residual_triple(trip)
            assert rt.residuals["pc_rw"] <= 1e-9
            assert rt.residuals["pc_sw"] <= 1e-9
            assert rt.residuals["pc_r_eq_sstar_w"] <= 1e-9
            assert rt.strict


def assert_one_unitary_part(trip):
    """compute_Q, canonical_decomposition and residual_triple pick the same
    unitary part of T."""
    ql = md.compute_Q(trip.t)
    dec = cl.canonical_decomposition(trip)
    rt = md.residual_triple(trip)
    assert ql.carrier.dim == dec.h_u.dim == rt.dim
    for basis in (dec.h_u.basis, rt.carrier.basis):
        assert np.allclose(basis @ basis.conj().T, ql.q, atol=1e-12)
    return rt.dim


class TestOneUnitaryPart:
    @pytest.mark.parametrize("eps", [1e-3, 1e-9, 1e-11])
    def test_near_unitary_diagonal(self, eps):
        zero = np.zeros((2, 2))
        assert_one_unitary_part(cl.OperatorTriple(zero, zero, np.diag([1.0 - eps, 0.5])))

    def test_haar_conjugated_mixed(self):
        for seed in range(8):
            for pure_dim, unitary_dim in ((2, 2), (3, 1), (1, 3)):
                trip = mixed_triple(seed, pure_dim, unitary_dim)
                assert assert_one_unitary_part(trip) == unitary_dim
            assert assert_one_unitary_part(nonnormal_triple(seed, 3, 2)) == 2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**16),
        st.lists(st.integers(1, 3), max_size=3),
        st.integers(0, 4),
        st.sampled_from(["nonnormal", "jordan"]),
    )
    def test_planted_unitary_part(self, seed, repeats, cnu_dim, kind):
        # T = block_diag(diag(phases), C), Haar-conjugated: each unimodular
        # phase is repeated, and C is a non-normal or Jordan-type contraction
        # of norm <= 0.95; the unitary part is the planted one.
        rng = np.random.default_rng(seed)
        phases = np.repeat(np.exp(2j * np.pi * rng.uniform(size=len(repeats))), repeats)
        if kind == "jordan":
            c = rng.uniform(-0.6, 0.6) * np.eye(cnu_dim) + np.eye(cnu_dim, k=-1)
        else:
            c = rng.standard_normal((cnu_dim, cnu_dim)) + 1j * rng.standard_normal((cnu_dim, cnu_dim))
        if cnu_dim:
            c *= rng.uniform(0.1, 0.95) / operator_norm(c)
        k = phases.size
        u = gen.haar_unitary(rng, k + cnu_dim)
        zero = np.zeros((k + cnu_dim, k + cnu_dim))
        trip = cl.OperatorTriple(zero, zero, u @ scipy.linalg.block_diag(np.diag(phases), c) @ u.conj().T)
        planted = u[:, :k] @ u[:, :k].conj().T
        assert _nrm(md.compute_Q(trip.t).q - planted) <= 1e-12
        assert assert_one_unitary_part(trip) == k


class TestNearUnitaryFamily:
    @pytest.mark.parametrize(
        "eps, unitary_dim", [(1e-3, 0), (1e-5, 0), (1e-7, 0), (1e-9, 1), (1e-11, 1)]
    )
    def test_no_member_raises(self, eps, unitary_dim):
        # 1 - |1 - eps|^2 <= eq_tol (1 + ||T||) holds from eps = 1e-9 down.
        zero = np.zeros((2, 2))
        trip = cl.OperatorTriple(zero, zero, np.diag([1.0 - eps, 0.5]))
        assert md.residual_triple(trip).dim == unitary_dim
        assert md.extract_data_set(trip, grid=4).residual.dim == unitary_dim
        assert md.build_lift(trip).residual.dim == unitary_dim


def tail_of_order(t, k):
    """||D_{T*} T*^(k+1)||, the tail of truncation order k, by matrix powers."""
    d_op, _ = fo.defect(t, adjoint=True)
    return _nrm(d_op @ np.linalg.matrix_power(t.conj().T, k + 1))


class TestAutoOrder:
    @pytest.mark.parametrize("seed, dim", [(0, 1), (3, 2), (5, 3), (8, 5)])
    def test_pure_order_is_the_first_to_meet_the_target(self, seed, dim):
        trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=dim))
        model = md.build_lift(trip)
        order, capped = md.auto_order(trip.t)
        assert (order, capped) == (model.order_n, bool(model.warnings))
        assert not capped
        tails = [tail_of_order(trip.t, k) for k in range(order + 1)]
        assert tails[-1] <= md._ORDER_TAIL_TARGET < min(tails[:-1], default=math.inf)

    def test_near_unitary_input_is_capped(self):
        zero = np.zeros((2, 2))
        trip = cl.OperatorTriple(zero, zero, np.diag([1.0 - 1e-3, 0.5]))
        model = md.build_lift(trip)
        assert md.auto_order(trip.t) == (512, True) == (model.order_n, bool(model.warnings))

    def test_unitary_t_needs_order_zero(self):
        # The defect of a unitary T is empty, so every tail is 0.
        trip = gen.gen_strict_e_unitary(GenConfig(seed=1, dim=2))
        assert md.auto_order(trip.t) == (0, False) == md.auto_order(np.eye(3))


def count_calls(monkeypatch, original):
    """Record the arguments of every call to ``original`` through every
    binding in the package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "tetrakit" or name.startswith("tetrakit.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def q_calls(monkeypatch):
    return count_calls(monkeypatch, md.compute_Q)


@pytest.mark.parametrize("make", [lambda: mixed_triple(4), lambda: gen.gen_pure_e_contraction(
    GenConfig(seed=4, dim=3))], ids=["mixed", "pure"])
@pytest.mark.parametrize("call", [
    md.residual_triple,
    lambda trip: md.extract_data_set(trip, grid=4),
    lambda trip: md.build_lift(trip, n_order=6),
], ids=["residual_triple", "extract_data_set", "build_lift"])
def test_compute_q_runs_once_per_call(q_calls, make, call):
    call(make())
    assert len(q_calls) == 1


@pytest.mark.parametrize("n_order", [None, 6], ids=["auto", "fixed"])
def test_defect_computed_once_per_lift(monkeypatch, n_order):
    # D_{T*} in build_lift, shared with the fundamental pair of (A*, B*, T*).
    calls = count_calls(monkeypatch, fo.defect)
    md.build_lift(mixed_triple(4), n_order)
    assert len(calls) == 1


@pytest.mark.parametrize("make", [lambda: mixed_triple(4), lambda: gen.gen_pure_e_contraction(
    GenConfig(seed=4, dim=5))], ids=["mixed", "pure"])
def test_shared_defect_gives_the_public_pair(make):
    # build_lift and extract_data_set hand their D_{T*} to the pair's core;
    # the pair must be the one fundamental_pair(adjoint=True) computes.
    trip = make()
    model = md.build_lift(trip, 3)
    pair = fo.fundamental_pair(trip, adjoint=True)
    assert np.array_equal(model.g1, pair.x1) and np.array_equal(model.g2, pair.x2)
    dec = cl.canonical_decomposition(trip)
    cnu = dec.cnu_part if dec.unitary_part.dim else trip
    ds = md.extract_data_set(trip, grid=4)
    cnu_pair = fo.fundamental_pair(cnu, adjoint=True)
    assert np.array_equal(ds.g1, cnu_pair.x1) and np.array_equal(ds.g2, cnu_pair.x2)


def test_pipeline_pair_skips_the_pencil_bracket(monkeypatch):
    # The model builders take the closed-form pair alone; only the
    # fundamental_pair report brackets the pencil supremum.
    trip = gen.gen_pure_e_contraction(GenConfig(seed=4, dim=3))
    calls = count_calls(monkeypatch, fo._circle_sup)
    md.build_lift(trip, 3)
    md.extract_data_set(trip, grid=4)
    assert len(calls) == 0
    fo.fundamental_pair(trip, adjoint=True)
    assert len(calls) == 1


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(0, 2**16))
def test_pipeline_pair_matches_the_report(n, seed):
    trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=n))
    pair = fo.fundamental_pair(trip, adjoint=True)
    model = md.build_lift(trip, 2)
    ds = md.extract_data_set(trip, grid=2)
    for g1, g2 in ((model.g1, model.g2), (ds.g1, ds.g2)):
        assert _nrm(g1 - pair.x1) <= 1e-12 and _nrm(g2 - pair.x2) <= 1e-12
    assert model.special == pair.is_special


def dense_deficiency(t, n_order):
    """||T^(N+1) T*^(N+1) - Q|| by dense matrix powers."""
    power = np.linalg.matrix_power(t, n_order + 1)
    return _nrm(power @ power.conj().T - md.compute_Q(t).q)


def gram_error(pi):
    """||Pi* Pi - I||."""
    return _nrm(pi.conj().T @ pi - np.eye(pi.shape[1]))


class TestEmbedding:
    def test_t_zero_identity_embedding(self):
        # T = 0: the order-0 block is C* (C the carrier of D_{T*} = I); the
        # later blocks and the remainder T*^(N+1) vanish.
        trip = cl.OperatorTriple(0.3 * np.eye(2), 0.2 * np.eye(2), np.zeros((2, 2)))
        pi, tail, carrier, ql = md.observability_embedding(trip, 4)
        assert tail == pytest.approx(0.0, abs=1e-14)
        assert pi.shape == (12, 2)
        assert gram_error(pi) <= 1e-13
        assert _nrm(pi[2:]) == 0.0

    def test_scalar_geometric_deficiency(self):
        trip = scalar_triple(0.2, 0.1, 0.5)
        pi, tail, _, _ = md.observability_embedding(trip, 10)
        assert gram_error(pi) <= 1e-13
        assert tail == pytest.approx(np.sqrt(0.75) * 0.5**11, rel=1e-12)
        model = md.build_lift(trip, 10)
        assert model.deficiency == pytest.approx(0.25**11, rel=1e-9)
        assert model.deficiency == pytest.approx(dense_deficiency(trip.t, 10), abs=1e-15)

    def test_unitary_t_residual_only(self):
        # A unitary T has an empty defect and Q = I, so Pi is the identity.
        trip = gen.gen_strict_e_unitary(GenConfig(seed=1, dim=3))
        pi, tail, carrier, _ = md.observability_embedding(trip, 6)
        assert carrier.dim == 0
        assert pi.shape == (3, 3)
        assert tail == pytest.approx(0.0, abs=1e-12)
        assert _nrm(pi - np.eye(3)) <= 1e-13

    def test_deficiency_bounded_by_power_norm(self):
        for seed in range(10):
            trip = mixed_triple(seed)
            n_order = 6
            pi, _, _, _ = md.observability_embedding(trip, n_order)
            assert gram_error(pi) <= 1e-13
            model = md.build_lift(trip, n_order)
            assert np.array_equal(model.embedding, pi)
            assert model.deficiency == pytest.approx(dense_deficiency(trip.t, n_order), abs=1e-13)
            bound = operator_norm(np.linalg.matrix_power(trip.t, n_order + 1)) ** 2
            assert model.deficiency <= bound + 1e-13


class TestBuildAndVerifyLift:
    def test_scalar_pure_residuals_decay(self):
        trip = scalar_triple(0.3, 0.4, 0.5)
        model = md.build_lift(trip, 30)
        res = md.verify_lift(model, trip)
        for name in ("a", "b", "t"):
            assert res[f"intertwine_{name}"] <= 1e-8

    def test_contract_bound(self):
        for seed in range(10):
            trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=2))
            model = md.build_lift(trip)
            res = md.verify_lift(model, trip)
            for name in ("a", "b", "t"):
                assert res[f"intertwine_{name}"] <= res["bound"]
                assert res[f"recover_{name}"] <= res["bound"]

    def test_unitary_input_exact(self):
        trip = gen.gen_strict_e_unitary(GenConfig(seed=5, dim=3))
        model = md.build_lift(trip, 2)
        res = md.verify_lift(model, trip)
        for name in ("a", "b", "t"):
            assert res[f"intertwine_{name}"] <= 1e-9
            assert res[f"recover_{name}"] <= 1e-9

    def test_halving_with_order_doubling(self):
        # The model is exact at every order; doubling the order halves its
        # distance to the E-isometric model.
        count = 0
        seed = 0
        while count < 10:
            seed += 1
            trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=2))
            r = spectral_radius(trip.t)
            if not 0.4 <= r <= 0.9:
                continue
            count += 1
            deficiency_n = md.build_lift(trip, 8).deficiency
            deficiency_2n = md.build_lift(trip, 16).deficiency
            if deficiency_n < 1e-12:
                continue
            assert deficiency_2n <= 0.5 * deficiency_n

    def test_t_zero_block_structure(self):
        trip = cl.OperatorTriple(
            0.4 * np.eye(2), 0.3 * np.eye(2), np.zeros((2, 2))
        )
        model = md.build_lift(trip, 3)
        # With T = 0 the adjoint fundamental pair is (A*, B*).
        assert np.allclose(model.g1, trip.a.conj().T, atol=1e-10)
        assert np.allclose(model.g2, trip.b.conj().T, atol=1e-10)
        d = model.defect_dim
        assert d == 2
        # V3 is the block shift, coupled from its last block into the
        # remainder by link* = C, the carrier of D_{T*} = I; T = 0 there.
        link = model.embedding[:d]
        assert _nrm(link @ link.conj().T - np.eye(d)) <= 1e-12
        expected = np.zeros((4 * d + 2, 4 * d + 2), dtype=complex)
        expected[: 4 * d, : 4 * d] = np.kron(np.eye(4, k=-1), np.eye(d))
        expected[4 * d:, 3 * d: 4 * d] = link.conj().T
        assert np.allclose(model.v3.dense(), expected, atol=1e-12)
        for v, x in ((model.v1, trip.a), (model.v2, trip.b), (model.v3, trip.t)):
            assert np.array_equal(v.remainder, x) and np.array_equal(v.link, link)

    def test_wold_form_on_interior_blocks(self):
        # V1 = V2* V3 and V2 = V1* V3 away from the truncation edge.
        for seed in range(5):
            trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=2))
            model = md.build_lift(trip, 6)
            d = model.defect_dim
            cols = 6 * d  # all block columns except the top-degree one
            v1, v2, v3 = model.v1.dense(), model.v2.dense(), model.v3.dense()
            diff1 = v2.conj().T @ v3 - v1
            diff2 = v1.conj().T @ v3 - v2
            assert operator_norm(diff1[:, :cols]) <= 1e-9
            assert operator_norm(diff2[:, :cols]) <= 1e-9

    def test_lift_uniqueness_perturbation(self):
        # Perturbing G1 must break the first intertwining by a margin tied
        # to the smallest singular value of the observability stack.
        trip = gen.gen_pure_e_contraction(GenConfig(seed=7, dim=2))
        model = md.build_lift(trip)
        pi = model.embedding
        base = md.verify_lift(model, trip)["intertwine_a"]
        rng = np.random.default_rng(3)
        delta = 1e-3
        e = rng.standard_normal(model.g1.shape) + 1j * rng.standard_normal(model.g1.shape)
        e /= operator_norm(e)
        bad = dataclasses.replace(
            model,
            g1=model.g1 + delta * e,
            v1=dataclasses.replace(model.v1, diag=(model.g1 + delta * e).conj().T),
        )
        perturbed = md.verify_lift(bad, trip)["intertwine_a"]
        top = pi[: model.defect_dim, :]
        sigma_min = np.linalg.svd(top, compute_uv=False)[-1]
        assert perturbed >= delta * sigma_min / 2
        assert perturbed > 100 * base


@st.composite
def exact_lift_cases(draw):
    """(triple, order), order None for the automatic one.  The triple is
    pure, a Haar-conjugated mixed triple with an exactly unitary part, a
    non-normal mixed triple, (0, 0, diag(1 - eps, 0.5)) with eps = 1e-3,
    1e-5 or 1e-7, or an edge_triples member within the contraction rule."""
    order = draw(st.none() | st.integers(0, 64))
    seed = draw(st.integers(0, 2**16))
    family = draw(st.sampled_from(["pure", "mixed", "nonnormal", "near_unitary", "edge"]))
    if family == "pure":
        trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=draw(st.integers(1, 4))))
    elif family == "mixed":
        trip = mixed_triple(seed, draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    elif family == "nonnormal":
        trip = nonnormal_triple(seed, draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    elif family == "near_unitary":
        zero = np.zeros((2, 2))
        eps = draw(st.sampled_from([1e-3, 1e-5, 1e-7]))
        trip = cl.OperatorTriple(zero, zero, np.diag([1.0 - eps, 0.5]))
    else:
        trip = draw(edge_triples().filter(lambda case: case[1] <= EQ_TOL))[0]
    return trip, order


@settings(max_examples=80, deadline=None, derandomize=True)
@given(exact_lift_cases())
def test_lift_is_exact_at_every_order(case):
    # D_{T*}^2 = I - T T* telescopes, so Pi* Pi = I and Vi* Pi = Pi Xi* hold
    # at every order, up to rounding.
    trip, order = case
    model = md.build_lift(trip, order)
    res = md.verify_lift(model, trip)
    worst = max(v for k, v in res.items() if k != "bound")
    assert worst <= 1e-12 * trip.scale_norm(), res
    assert gram_error(model.embedding) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.floats(1e-10, 1e-9),
    st.floats(0.0, 1.0),
    st.none() | st.integers(0, 64),
    st.integers(0, 2**16),
)
def test_near_unitary_band_within_bound(eps, phase, order, seed):
    # compute_Q calls the eigenvalue (1 - eps) e^(2 pi i phase) unimodular
    # while D_{T*} still carries it, so the residuals reach the tail scale;
    # they stay within verify_lift's bound.
    zero = np.zeros((2, 2))
    t = np.diag([(1.0 - eps) * np.exp(2j * np.pi * phase), 0.5])
    trip = cl.OperatorTriple(zero, zero, t).conjugate_by(
        gen.haar_unitary(np.random.default_rng(seed), 2)
    )
    res = md.verify_lift(md.build_lift(trip, order), trip)
    assert max(v for k, v in res.items() if k != "bound") <= res["bound"], res


def dense_lift_reference(diag, sub, blocks, remainder, link):
    """The lift operator as one dense matrix: the block Toeplitz part, the
    remainder block, and link* sub from the last block into the remainder."""
    d, n = diag.shape[0], remainder.shape[0]
    m = blocks * d
    ref = np.zeros((m + n, m + n), dtype=complex)
    if d:
        ref[:m, :m] = np.kron(np.eye(blocks), diag) + np.kron(np.eye(blocks, k=-1), sub)
    ref[m:, m:] = remainder
    ref[m:, m - d: m] = link.conj().T @ sub
    return ref


def dense_verify_reference(model, triple):
    """verify_lift on dense matrices built by dense_lift_reference."""
    pi = model.embedding
    blocks = model.order_n + 1
    d = model.defect_dim
    link = pi[:d]
    out = {}
    for name, diag, sub, x in (
        ("a", model.g1.conj().T, model.g2, triple.a),
        ("b", model.g2.conj().T, model.g1, triple.b),
        ("t", np.zeros((d, d)), np.eye(d), triple.t),
    ):
        v = dense_lift_reference(diag, sub, blocks, x, link)
        out[f"intertwine_{name}"] = _nrm(v.conj().T @ pi - pi @ x.conj().T)
        out[f"recover_{name}"] = _nrm(pi.conj().T @ (v @ pi) - x)
    out["bound"] = (
        2.0 * (1.0 + _nrm(model.g1) + _nrm(model.g2)) * model.tail + DEFAULT_TOL.eq_tol
    )
    return out


def random_lift_operator(rng, d, n, blocks):
    def mat(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    return md.LiftOperator(mat(d, d), mat(d, d), blocks, mat(n, n), mat(d, n))


def normal_with_radius(seed, n, radius):
    """Commuting normal triple whose T has spectral radius ``radius``: joint
    eigenvalues (x11, x22, det X) of X = rho U, U a Haar 2x2 unitary."""
    rng = np.random.default_rng(seed)
    rhos = [np.sqrt(radius)] + list(rng.uniform(0.3, np.sqrt(radius), n - 1))
    pts = []
    for rho in rhos:
        x = rho * gen.haar_unitary(rng, 2)
        pts.append((x[0, 0], x[1, 1], x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]))
    u = gen.haar_unitary(rng, n)
    return cl.OperatorTriple(*[u @ np.diag([p[i] for p in pts]) @ u.conj().T for i in range(3)])


class TestLiftOperator:
    @pytest.mark.parametrize("d", [0, 1, 3])
    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("blocks", [1, 5])
    def test_against_dense_reference(self, d, n, blocks):
        rng = np.random.default_rng([d, n, blocks])
        op = random_lift_operator(rng, d, n, blocks)
        ref = dense_lift_reference(op.diag, op.sub, blocks, op.remainder, op.link)
        size = blocks * d + n
        assert op.dense().shape == (size, size)
        assert np.array_equal(op.dense(), ref)
        for shape in ((size,), (size, 3)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert op.matvec(x).shape == shape
            assert np.allclose(op.matvec(x), ref @ x, rtol=0, atol=1e-12)
            assert np.allclose(op.rmatvec(x), ref.conj().T @ x, rtol=0, atol=1e-12)

    def test_nbytes_counts_generators_only(self):
        op = random_lift_operator(np.random.default_rng(0), 3, 2, 500)
        assert op.nbytes == 16 * (9 + 9 + 4 + 6)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 4), st.integers(0, 3), st.integers(1, 7), st.integers(0, 2**16))
    def test_adjoint_identity(self, d, n, blocks, seed):
        rng = np.random.default_rng(seed)
        op = random_lift_operator(rng, d, n, blocks)
        size = blocks * d + n
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        y = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        lhs = np.vdot(y, op.matvec(x))
        rhs = np.vdot(op.rmatvec(y), x)
        scale = 1.0 + np.linalg.norm(x) * np.linalg.norm(y) * (
            _nrm(op.diag) + _nrm(op.sub) + _nrm(op.remainder) + _nrm(op.link) * _nrm(op.sub)
        )
        assert abs(lhs - rhs) <= 1e-13 * scale


class TestStructuredLift:
    @pytest.mark.parametrize("n, limit_mib", [(6, 50), (12, 100)])
    def test_capped_lift_memory(self, n, limit_mib):
        trip = normal_with_radius([n, 0x97], n, 0.97)
        tracemalloc.start()
        try:
            model = md.build_lift(trip)
            res = md.verify_lift(model, trip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.warnings and model.order_n == 512
        assert all(np.isfinite(v) for v in res.values())
        assert peak < limit_mib * 2**20

    def test_near_unitary_capped_lift_matches_dense_reference(self):
        zero = np.zeros((2, 2))
        trip = cl.OperatorTriple(zero, zero, np.diag([1.0 - 1e-3, 0.5]))
        model = md.build_lift(trip)
        assert model.order_n == 512 and model.embedding.shape == (1028, 2)
        res = md.verify_lift(model, trip)
        ref = dense_verify_reference(model, trip)
        assert res.keys() == ref.keys()
        for key, value in ref.items():
            assert abs(res[key] - value) <= 1e-13 * max(1.0, value), key
            assert key == "bound" or res[key] <= res["bound"], key


class TestStrictness:
    def test_scalar_model_strict(self):
        model = md.build_lift(scalar_triple(0.3, 0.4, 0.5))
        assert md.lift_is_strict(model)

    def test_unitary_input_strict(self):
        model = md.build_lift(gen.gen_strict_e_unitary(GenConfig(seed=2, dim=2)))
        assert md.lift_is_strict(model)

    def test_nonnormal_t_zero_not_strict(self):
        # With T = 0 the pair is (A*, B*); a non-normal A breaks the
        # self-commutator balance, so no strict lift exists.
        a = np.array([[0, 0.5], [0, 0]], dtype=complex)
        b = 0.3 * np.eye(2, dtype=complex)
        trip = cl.OperatorTriple(a, b, np.zeros((2, 2)))
        model = md.build_lift(trip, 4)
        assert not md.lift_is_strict(model)
        assert not fo.is_special_pair(model.g1, model.g2)[0]

    def test_agrees_with_special_pair(self):
        for seed in range(20):
            if seed % 3 == 0:
                trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=2))
            elif seed % 3 == 1:
                trip = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=2))
            else:
                trip = mixed_triple(seed, 1, 2)
            model = md.build_lift(trip)
            expected = fo.is_special_pair(model.g1, model.g2)[0] and model.residual.strict
            assert md.lift_is_strict(model) == expected


class TestCharFunction:
    def test_t_zero_is_z_times_identity(self):
        z = 0.37 + 0.21j
        theta = md.char_function(np.zeros((3, 3)), z)
        assert np.allclose(theta, z * np.eye(3), atol=1e-12)

    def test_scalar_mobius(self):
        for z in (0.0, 0.25, -0.6j, 0.3 + 0.4j):
            theta = md.char_function(np.array([[0.5]]), z)
            assert theta[0, 0] == pytest.approx((z - 0.5) / (1 - 0.5 * z), abs=1e-12)

    def test_series_oracle(self):
        # Resummation agrees with the power series
        # Theta(z) = -T + sum_{n>=0} z^{n+1} D_{T*} T^{*n} D_T.
        rng = np.random.default_rng(9)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = 0.5 * g / operator_norm(g)
        d_in, c_in = fo.defect(t)
        d_out, c_out = fo.defect(t, adjoint=True)
        z = 0.4 - 0.2j
        series = -t.astype(complex)
        power = np.eye(3, dtype=complex)
        for _ in range(200):
            series = series + z * (d_out @ power @ d_in)
            power = z * (power @ t.conj().T)
        oracle = c_out.basis.conj().T @ series @ c_in.basis
        got = md.char_function(t, z)
        assert np.allclose(got, oracle, atol=1e-10)

    def test_zero_argument_is_minus_t_compressed(self):
        rng = np.random.default_rng(10)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        t = 0.7 * g / operator_norm(g)
        theta0 = md.char_function(t, 0.0)
        d_in, c_in = fo.defect(t)
        d_out, c_out = fo.defect(t, adjoint=True)
        assert np.allclose(theta0, -c_out.basis.conj().T @ t @ c_in.basis, atol=1e-12)

    def test_contractive_on_closed_disk(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = 0.8 * g / operator_norm(g)
        for k in range(16):
            z = cmath.exp(2j * cmath.pi * k / 16)
            assert operator_norm(md.char_function(t, z)) <= 1 + 1e-9

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            md.char_function(np.array([[1.0]]), 1.0)


def pointwise_theta_samples(trip, grid):
    """Theta samples of extract_data_set taken one char_function call at a
    time, on T compressed to its completely non-unitary part as there."""
    t = trip.t
    if md.residual_triple(trip).dim:
        t = compress(t, md.compute_Q(trip.t).complement)
    return [(z, md.char_function(t, z)) for z in md.theta_sample_points(grid, 2 * grid)]


def assert_theta_matches_pointwise(trip, grid):
    ds = md.extract_data_set(trip, grid=grid)
    reference = pointwise_theta_samples(trip, grid)
    assert [z for z, _ in ds.theta_samples] == [z for z, _ in reference]
    for (_, got), (_, want) in zip(ds.theta_samples, reference):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13


class TestStackedTheta:
    def test_generator_classes(self):
        for tag in ClassTag:
            for n in range(1, 7):
                if tag is ClassTag.SPECIAL_SCALAR_DATASET:
                    _, trip = gen.gen_scalar_special_model(GenConfig(seed=n, dim=1))
                else:
                    trip = gen.generate(GenConfig(seed=n, dim=n, class_tag=tag))
                try:
                    assert_theta_matches_pointwise(trip, grid=8)
                except (NotCommutingError, NotAContractionError):
                    # The non-commuting controls, the ||A|| = 1.2 ones and the
                    # pc-unitaries with ||S|| > 1 are rejected, so no data set
                    # carries their samples.
                    s_beyond_one = operator_norm(trip.b) > 1.0 + DEFAULT_TOL.eq_tol
                    assert tag is ClassTag.NON_EXAMPLE or (
                        tag is ClassTag.PC_UNITARY and s_beyond_one
                    )

    def test_mixed_and_nonnormal_triples(self):
        for seed in range(3):
            assert_theta_matches_pointwise(mixed_triple(seed, 3, 2), grid=8)
            assert_theta_matches_pointwise(nonnormal_triple(seed, 4), grid=8)
            assert_theta_matches_pointwise(nonnormal_triple(seed, 3, 2), grid=8)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(0, 2**16), st.integers(1, 12))
    def test_random_pure_triples(self, n, seed, grid):
        trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=n))
        assert_theta_matches_pointwise(trip, grid)


def boundary_defect_spectrum(t, zeta):
    """Eigenvalues of I - Theta(zeta)* Theta(zeta), the square of the
    sample's boundary defect."""
    theta = md.char_function(t, zeta)
    return np.linalg.eigvalsh(np.eye(theta.shape[1]) - theta.conj().T @ theta)


class TestDefectOfTheta:
    def test_t_zero(self):
        assert np.all(np.abs(boundary_defect_spectrum(np.zeros((2, 2)), 1.0)) <= 1e-18)

    def test_scalar_inner(self):
        w = boundary_defect_spectrum(np.array([[0.5]]), cmath.exp(0.7j))
        assert np.all(np.abs(w) <= 1e-14)

    def test_boundary_values_are_inner(self):
        # At regular boundary points the characteristic function of a
        # finite matrix contraction is unitary, so the defect vanishes.
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            t = 0.7 * g / operator_norm(g)
            zeta = cmath.exp(2j * cmath.pi * rng.uniform())
            assert np.all(np.abs(boundary_defect_spectrum(t, zeta)) <= 1e-14)

    def test_interior_defect_strictly_positive(self):
        # Inside the disk the sample of a strict contraction is strictly
        # contractive, so I - Theta(z)*Theta(z) is positive definite.
        t = np.diag([0.3, 0.5]) @ np.array([[1, 0.2], [0, 1]])
        t = t / (operator_norm(t) / 0.6)
        for z in (0.0, 0.4, -0.3 + 0.5j):
            theta = md.char_function(t, z)
            gap = np.linalg.eigvalsh(np.eye(2) - theta.conj().T @ theta)[0]
            assert gap > 0.01


def contractive_pc_unitary(dim):
    """A generated pc-unitary (S* W, S, W), with S scaled to ||S|| <= 0.9 where
    it is larger, so that it is a tetrablock unitary."""
    trip = gen.gen_pc_unitary(GenConfig(seed=dim, dim=dim))
    c = min(1.0, 0.9 / operator_norm(trip.b))
    return cl.OperatorTriple(c * trip.a, c * trip.b, trip.t)


class TestExtractAndCoincide:
    def test_pure_scalar_matches_mobius(self):
        trip = scalar_triple(0.2, 0.3, 0.5)
        ds = md.extract_data_set(trip, grid=8)
        assert ds.pure_flag
        assert ds.residual.dim == 0
        for z, mat in ds.theta_samples:
            expect = (z - 0.5) / (1 - 0.5 * z)
            assert abs(abs(mat[0, 0]) - abs(expect)) <= 1e-10

    def test_unitary_triple_trivial_theta(self):
        trip = gen.gen_strict_e_unitary(GenConfig(seed=6, dim=2))
        ds = md.extract_data_set(trip, grid=8)
        assert ds.defect_dims == (0, 0)
        assert ds.residual.dim == 2

    def test_t_zero_dataset(self):
        trip = cl.OperatorTriple(0.4 * np.eye(2), 0.3 * np.eye(2), np.zeros((2, 2)))
        ds = md.extract_data_set(trip, grid=8)
        assert np.allclose(ds.g1, trip.a.conj().T, atol=1e-10)
        assert np.allclose(ds.g2, trip.b.conj().T, atol=1e-10)
        for z, mat in ds.theta_samples:
            assert np.allclose(mat, z * np.eye(2), atol=1e-10)

    def test_self_coincidence(self):
        ds = md.extract_data_set(mixed_triple(4), grid=8)
        rep = md.coincide(ds, ds)
        assert rep.coincide
        assert max(rep.residuals.values()) <= 1e-12

    def test_unitary_conjugation_coincides(self):
        for seed in range(10):
            trip = mixed_triple(seed)
            rng = np.random.default_rng(seed + 5000)
            u = gen.haar_unitary(rng, trip.dim)
            ds1 = md.extract_data_set(trip, grid=8)
            ds2 = md.extract_data_set(trip.conjugate_by(u), grid=8)
            rep = md.coincide(ds1, ds2)
            assert rep.coincide, rep.residuals
            assert max(rep.residuals.values()) <= 1e-9

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize(
        "make",
        [
            lambda dim: gen.gen_strict_e_unitary(GenConfig(seed=dim, dim=dim)),
            contractive_pc_unitary,
            lambda dim: cl.OperatorTriple(0.3 * np.eye(dim), 0.3 * np.eye(dim), np.eye(dim)),
            lambda dim: cl.OperatorTriple(
                0.4 * np.eye(dim), 0.4 * np.exp(-0.7j) * np.eye(dim), np.exp(0.7j) * np.eye(dim)
            ),
        ],
        ids=["strict-e-unitary", "pc-unitary", "identity-t", "scalar-t"],
    )
    def test_unitary_t_sets_coincide(self, make, dim):
        # A unitary T has an empty defect, so the Theta samples are 0x0.
        trip = make(dim)
        u = gen.haar_unitary(np.random.default_rng(dim + 40), dim)
        ds = md.extract_data_set(trip, grid=8)
        assert ds.defect_dims == (0, 0)
        for other in (ds, md.extract_data_set(trip.conjugate_by(u), grid=8)):
            rep = md.coincide(ds, other)
            assert rep.coincide, rep.residuals
            assert max(rep.residuals.values()) <= 1e-9

    def test_pc_unitary_beyond_one_is_rejected(self):
        # (S* W, S, W) with ||S|| > 1 is no E-contraction, although T is unitary
        # and the completely non-unitary part is empty.
        trips = [gen.gen_pc_unitary(GenConfig(seed=seed, dim=3)) for seed in range(6)]
        trips = [trip for trip in trips if operator_norm(trip.b) > 1.0 + DEFAULT_TOL.eq_tol]
        assert len(trips) >= 2
        for trip in trips:
            with pytest.raises(NotAContractionError, match="must be contractions"):
                md.extract_data_set(trip, grid=8)

    def test_unitary_candidates_on_wide_system(self):
        # Seven equations in eight unknowns (two 2x2 blocks): the null space
        # is spanned by the known unitary pair, and only the full right
        # singular basis reaches it.
        rng = np.random.default_rng(23)
        u1, u2 = gen.haar_unitary(rng, 2), gen.haar_unitary(rng, 2)
        x = np.concatenate([u1.T.ravel(), u2.T.ravel()])  # column-major vecs
        m = rng.standard_normal((7, 8)) + 1j * rng.standard_normal((7, 8))
        system = m - np.outer(m @ x, x.conj()) / np.vdot(x, x)
        candidates = md._unitary_candidates(system, [(2, 2), (2, 2)])
        assert candidates
        first, second = candidates[0]
        vec = np.concatenate([first.T.ravel(), second.T.ravel()])
        assert np.linalg.norm(system @ vec) <= 1e-12
        for block in (first, second):
            assert np.allclose(block.conj().T @ block, np.eye(2), atol=1e-12)

    def test_unitary_candidates_wide_with_null_directions_beyond_rows(self):
        # Two equations in five unknowns that both vanish: every direction
        # is null, and the seeded combinations span all five of them.
        system = np.zeros((2, 5))
        candidates = md._unitary_candidates(system, [(2, 2), (1, 1)])
        assert len(candidates) > 1
        for first, second in candidates:
            assert np.allclose(first.conj().T @ first, np.eye(2), atol=1e-12)
            assert abs(abs(second[0, 0]) - 1.0) <= 1e-12

    def test_distinct_theta_zero_spectra_rejected(self):
        d1 = md.extract_data_set(scalar_triple(0.2, 0.3, 0.4), grid=8)
        d2 = md.extract_data_set(scalar_triple(0.2, 0.3, 0.7), grid=8)
        rep = md.coincide(d1, d2)
        assert not rep.coincide


def reference_candidates(system, shapes):
    """The unitary-candidate search with a full SVD: last right singular
    vector plus eight seeded combinations of the near-null basis, each
    block polar-corrected, numerically singular candidates dropped."""
    _, svals, vh = np.linalg.svd(system)
    right = vh.conj()
    vectors = [right[-1]]
    rank = int(np.sum(svals > 1e-7 * max(1.0, svals[0]))) if svals.size else 0
    basis = right[rank:]
    if len(basis) > 1:
        rng = np.random.default_rng(11)
        for _ in range(8):
            coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            vectors.append(coeffs @ basis)
    candidates = []
    for vec in vectors:
        blocks, start = [], 0
        for rows, cols in shapes:
            blocks.append(vec[start:start + rows * cols].reshape(cols, rows).T)
            start += rows * cols
        if any(min(b.shape) and np.linalg.svd(b, compute_uv=False)[-1] < 1e-8 for b in blocks):
            continue
        polar = []
        for b in blocks:
            if min(b.shape):
                u, _, w = np.linalg.svd(b)
                b = u @ w
            polar.append(b)
        candidates.append(polar)
    return candidates


def kronecker_coincide(d1, d2, tol=DEFAULT_TOL):
    """coincide with one np.kron row block per matched sample, a full SVD
    and one _nrm per pair; returns (coincide, undecided, note, residuals,
    scale)."""
    in1, out1 = d1.defect_dims
    in2, out2 = d2.defect_dims
    if (in1, out1) != (in2, out2) or d1.residual.dim != d2.residual.dim:
        return False, False, "dimension mismatch", {}, 1.0
    pairs = md._match_samples(d1, d2)
    if d1.theta_samples and len(pairs) < min(3, len(d1.theta_samples)):
        return False, False, "sample grids do not overlap", {}, 1.0
    scale = 1.0 + max(
        [_nrm(m) for m, _ in pairs]
        + [_nrm(d1.g1), _nrm(d1.g2), _nrm(d2.g1), _nrm(d2.g2)]
        + [0.0]
    )
    theta_res = fund_res = 0.0
    if in1 or out1:
        blocks = [
            np.hstack([-np.kron(np.eye(in1), m2), np.kron(m1.T, np.eye(out2))])
            for m1, m2 in pairs
        ]
        for g_a, g_b in ((d1.g1, d2.g1), (d1.g2, d2.g2)):
            blocks.append(
                np.hstack([
                    np.zeros((out2 * out1, in2 * in1)),
                    np.kron(g_a.T, np.eye(out2)) - np.kron(np.eye(out1), g_b),
                ])
            )
        theta_res = fund_res = math.inf
        system = np.vstack(blocks)
        for phi, star in reference_candidates(system, [(in2, in1), (out2, out1)]):
            t_res = max((_nrm(star @ m1 - m2 @ phi) for m1, m2 in pairs), default=0.0)
            f_res = max(_nrm(star @ d1.g1 - d2.g1 @ star), _nrm(star @ d1.g2 - d2.g2 @ star))
            if max(t_res, f_res) < max(theta_res, fund_res):
                theta_res, fund_res = t_res, f_res
    residuals = {"theta": theta_res, "fundamental": fund_res}
    res_res = 0.0
    rdim = d1.residual.dim
    if rdim:
        res_pairs = [(getattr(d1.residual, k), getattr(d2.residual, k)) for k in "rsw"]
        eye = np.eye(rdim)
        system = np.vstack([np.kron(x.T, eye) - np.kron(eye, y) for x, y in res_pairs])
        res_res = min(
            (max(_nrm(c @ x - y @ c) for x, y in res_pairs)
             for (c,) in reference_candidates(system, [(rdim, rdim)])),
            default=math.inf,
        )
    residuals["residual"] = res_res
    if res_res == math.inf:
        return False, False, "no unitary intertwines the residual triples", residuals, scale
    worst = max(residuals.values())
    if worst <= tol.eq_tol * scale:
        return True, False, "", residuals, scale
    if worst <= math.sqrt(tol.eq_tol) * scale:
        note = "residuals between tol and sqrt(tol); verdict unreliable"
        return False, True, note, residuals, scale
    return False, False, "", residuals, scale


def assert_coincide_matches_kronecker(d1, d2):
    rep = md.coincide(d1, d2)
    want, undecided, note, residuals, scale = kronecker_coincide(d1, d2)
    assert (rep.coincide, rep.undecided, rep.note) == (want, undecided, note)
    assert rep.residuals.keys() == residuals.keys()
    for key, value in residuals.items():
        assert rep.residuals[key] == value or abs(rep.residuals[key] - value) <= 1e-12 * scale, key
    return rep


class TestCoincideAgainstKronecker:
    def test_mixed_pairs_conjugated(self):
        for pure_dim, unitary_dim in ((2, 2), (4, 4)):
            for seed in range(3):
                trip = mixed_triple(seed, pure_dim, unitary_dim)
                u = gen.haar_unitary(np.random.default_rng(seed + 7000), trip.dim)
                d1 = md.extract_data_set(trip, grid=8)
                d2 = md.extract_data_set(trip.conjugate_by(u), grid=8)
                assert assert_coincide_matches_kronecker(d1, d2).coincide

    def test_pure_pairs_conjugated(self):
        for n in (8, 10):
            trip = gen.gen_pure_e_contraction(GenConfig(seed=n, dim=n))
            u = gen.haar_unitary(np.random.default_rng(n + 7000), n)
            d1 = md.extract_data_set(trip, grid=8)
            d2 = md.extract_data_set(trip.conjugate_by(u), grid=8)
            assert assert_coincide_matches_kronecker(d1, d2).coincide

    def test_nonnormal_pairs_conjugated(self):
        for trip in (nonnormal_triple(1, 6), nonnormal_triple(2, 3, 2)):
            n = trip.dim
            u = gen.haar_unitary(np.random.default_rng(n + 7000), n)
            d1 = md.extract_data_set(trip, grid=8)
            d2 = md.extract_data_set(trip.conjugate_by(u), grid=8)
            assert assert_coincide_matches_kronecker(d1, d2).coincide

    def test_mismatched_scalar_pairs(self):
        for t1, t2 in ((0.3, 0.6), (0.15, 0.85)):
            d1 = md.extract_data_set(scalar_triple(0.2, 0.1, t1), grid=8)
            d2 = md.extract_data_set(scalar_triple(0.2, 0.1, t2), grid=8)
            assert not assert_coincide_matches_kronecker(d1, d2).coincide

    def test_special_set_against_model_data(self):
        dataset, trip = gen.gen_scalar_special_model(GenConfig(seed=3, dim=1))
        extracted = md.extract_data_set(trip, grid=16, boundary=128)
        assert assert_coincide_matches_kronecker(dataset, extracted).coincide

    def test_data_sets_without_theta_samples(self):
        # Empty sample stacks: only the fundamental pairs and the residual
        # triples constrain the unitaries.
        trip = mixed_triple(5)
        u = gen.haar_unitary(np.random.default_rng(5), trip.dim)
        sets = []
        for source in (trip, trip.conjugate_by(u)):
            ds = md.extract_data_set(source, grid=8)
            sets.append(md.TetrablockDataSet([], ds.g1, ds.g2, ds.residual, ds.pure_flag))
        assert sets[0].defect_dims == (0, 2)
        assert assert_coincide_matches_kronecker(*sets).coincide


def conjugated_data_sets(trip, seed=7000):
    u = gen.haar_unitary(np.random.default_rng(seed + trip.dim), trip.dim)
    return md.extract_data_set(trip, grid=8), md.extract_data_set(trip.conjugate_by(u), grid=8)


def zero_ab(t):
    zero = np.zeros_like(t)
    return cl.OperatorTriple(zero, zero, t)


@pytest.fixture
def no_kronecker(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Kronecker system was solved")

    monkeypatch.setattr(md, "_kronecker_coincidence", refuse)


@pytest.fixture
def kronecker_calls(monkeypatch):
    return count_calls(monkeypatch, md._kronecker_coincidence)


class TestPhaseRoute:
    """Which route decides: the diagonal phase system in the singular-vector
    basis of one sample, or the Kronecker system it falls back to."""

    def test_pure_pairs_need_no_kronecker_system(self, no_kronecker):
        for n in range(2, 13):
            d1, d2 = conjugated_data_sets(gen.gen_pure_e_contraction(GenConfig(seed=n, dim=n)))
            rep = md.coincide(d1, d2)
            assert rep.coincide, (n, rep.residuals)
            assert max(rep.residuals.values()) <= 1e-9

    def test_nonnormal_and_mixed_pairs_need_no_kronecker_system(self, no_kronecker):
        trips = [nonnormal_triple(1, 6), nonnormal_triple(2, 3, 2)]
        trips += [mixed_triple(seed, p, u) for p, u in ((2, 2), (4, 4)) for seed in range(3)]
        for trip in trips:
            rep = md.coincide(*conjugated_data_sets(trip))
            assert rep.coincide, rep.residuals
            assert max(rep.residuals.values()) <= 1e-9

    def test_special_sets_need_no_kronecker_system(self, no_kronecker):
        for seed in range(4):
            dataset, trip = gen.gen_scalar_special_model(GenConfig(seed=seed, dim=1))
            extracted = md.extract_data_set(trip, grid=16, boundary=128)
            assert md.coincide(dataset, extracted).coincide

    def assert_kronecker_decides(self, kronecker_calls, d1, d2):
        rep = assert_coincide_matches_kronecker(d1, d2)
        assert len(kronecker_calls) == 1
        m1s, m2s = kronecker_calls[0][:2]
        _, _, theta_res, fund_res = md._kronecker_coincidence(m1s, m2s, d1, d2)
        assert (rep.residuals["theta"], rep.residuals["fundamental"]) == (theta_res, fund_res)
        kronecker_calls.clear()
        return rep

    def test_repeated_and_zero_singular_values_fall_back(self, kronecker_calls):
        # A normal T with a repeated eigenvalue repeats a singular value in
        # every sample; T = 0.6 (J2 + J2) is nilpotent, so Theta(0) has
        # zero singular values, and every other sample repeats each one.
        jordan = np.diag([0.6], 1)
        normal = np.diag([0.5, 0.5, -0.3j])
        for t in (normal, scipy.linalg.block_diag(jordan, jordan)):
            u = gen.haar_unitary(np.random.default_rng(1), t.shape[0])
            d1, d2 = conjugated_data_sets(zero_ab(u @ t @ u.conj().T))
            assert self.assert_kronecker_decides(kronecker_calls, d1, d2).coincide

    def test_sets_without_samples_fall_back(self, kronecker_calls):
        sets = []
        for ds in conjugated_data_sets(mixed_triple(5)):
            sets.append(md.TetrablockDataSet([], ds.g1, ds.g2, ds.residual, ds.pure_flag))
        assert self.assert_kronecker_decides(kronecker_calls, *sets).coincide

    def test_mismatched_pairs_fall_back(self, kronecker_calls):
        pairs = [(scalar_triple(0.2, 0.1, t1), scalar_triple(0.2, 0.1, t2))
                 for t1, t2 in ((0.3, 0.6), (0.15, 0.85))]
        pairs.append((mixed_triple(1), mixed_triple(2)))
        pairs.append((nonnormal_triple(1, 4), nonnormal_triple(2, 4)))
        for first, second in pairs:
            d1 = md.extract_data_set(first, grid=8)
            d2 = md.extract_data_set(second, grid=8)
            assert not self.assert_kronecker_decides(kronecker_calls, d1, d2).coincide


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 10_000),
    nonnormal=st.booleans(),
)
def test_conjugated_pairs_match_the_kronecker_reference(n, seed, nonnormal):
    trip = nonnormal_triple(seed, n) if nonnormal else gen.gen_pure_e_contraction(
        GenConfig(seed=seed, dim=n))
    d1, d2 = conjugated_data_sets(trip, seed)
    rep = assert_coincide_matches_kronecker(d1, d2)
    assert rep.coincide
    assert max(rep.residuals.values()) <= 1e-9
    # T moved by 1e-3 (scaled, so A and B still commute with it).
    moved = cl.OperatorTriple(trip.a, trip.b, (1.0 + 1e-3) * trip.t)
    assert_coincide_matches_kronecker(d1, md.extract_data_set(moved, grid=8))


def omega_tau_reference(triple, triple2, tau):
    """omega_tau as computed before its closed form: omega maps the columns
    W^k C1* to W'^k C2* tau for k <= r, solved by a pseudo-inverse."""
    rt1, rt2 = md.residual_triple(triple), md.residual_triple(triple2)
    r = rt1.dim
    x = np.hstack([np.linalg.matrix_power(rt1.w, k) @ rt1.carrier.basis.conj().T for k in range(r + 1)])
    y = np.hstack(
        [np.linalg.matrix_power(rt2.w, k) @ rt2.carrier.basis.conj().T @ tau for k in range(r + 1)]
    )
    u, _, vh = np.linalg.svd(y @ np.linalg.pinv(x))
    return u @ vh


class TestOmegaTau:
    def test_identity(self):
        trip = mixed_triple(3)
        omega = md.omega_tau(trip, trip, np.eye(trip.dim))
        assert np.allclose(omega, np.eye(omega.shape[0]), atol=1e-9)

    def test_conjugated(self):
        for seed in range(8):
            trip = mixed_triple(seed)
            rng = np.random.default_rng(seed + 99)
            u = gen.haar_unitary(rng, trip.dim)
            other = trip.conjugate_by(u)
            omega = md.omega_tau(trip, other, u)
            rt1, rt2 = md.residual_triple(trip), md.residual_triple(other)
            for m1, m2 in ((rt1.r, rt2.r), (rt1.s, rt2.s), (rt1.w, rt2.w)):
                assert operator_norm(omega @ m1 - m2 @ omega) <= 1e-9

    def test_nonnormal_conjugated(self):
        for seed in range(6):
            for unitary_dim in (1, 2, 3):
                trip = nonnormal_triple(seed, 3, unitary_dim)
                u = gen.haar_unitary(np.random.default_rng(seed + 199), trip.dim)
                other = trip.conjugate_by(u)
                omega = md.omega_tau(trip, other, u)
                want = omega_tau_reference(trip, other, u)
                assert omega.shape == (unitary_dim, unitary_dim)
                assert np.allclose(omega, want, atol=1e-12)

    def test_pure_triples_give_empty_map(self):
        trip = gen.gen_pure_e_contraction(GenConfig(seed=5, dim=2))
        omega = md.omega_tau(trip, trip, np.eye(2))
        assert omega.shape == (0, 0)

    def test_rejects_non_intertwiner(self):
        trip = mixed_triple(2)
        with pytest.raises(PreconditionError):
            md.omega_tau(trip, trip, 2.0 * np.eye(trip.dim))


def validate_special_reference(d, modes, tol=DEFAULT_TOL):
    """(invariance_residual, passes_ii) of validate_special_data_set as
    computed before the graph was one matrix: one defect per boundary
    point, one graph vector per column, a QR per degree bound, and one
    leak per column and lift operator."""
    boundary = md._boundary_grid(d, modes)
    m = len(boundary)
    din, dout = d.defect_dims
    zs = np.array([z for z, _ in boundary])
    thetas = np.stack([mat for _, mat in boundary])
    defects = []  # kept rows sqrt(w) v* of I - Theta*Theta, per point
    for theta in thetas:
        herm = np.eye(din) - theta.conj().T @ theta
        w, v = np.linalg.eigh(0.5 * (herm + herm.conj().T))
        keep = w > _PSD_TOL * 2.0
        delta = (v * np.sqrt(np.where(keep, w, 0.0))) @ v.conj().T
        defects.append(v[:, keep].conj().T @ delta)
    rank = sum(len(rows) for rows in defects)
    if d.residual.dim != rank:
        raise PreconditionError(f"does not match boundary defect rank {rank}")
    scale = 1.0 + max(_nrm(d.g1), _nrm(d.g2), 1.0)
    if din == 0:
        return 0.0, True

    def basis(k_max):
        cols = []
        for k in range(k_max + 1):
            for i in range(din):
                parts = [((zs**k)[:, None] * thetas[:, :, i]).ravel()]
                parts += [rows[:, i] * z**k for rows, z in zip(defects, zs)]
                cols.append(np.concatenate(parts) / math.sqrt(m))
        return np.linalg.qr(np.stack(cols, axis=1))[0]

    graph, enlarged = basis(modes), basis(modes + 1)
    res = d.residual
    empty = np.zeros((0, 0))
    worst = 0.0
    for const, slope, bottom in (
        (d.g1.conj().T, d.g2, res.r if rank else empty),
        (d.g2.conj().T, d.g1, res.s if rank else empty),
        (np.zeros((dout, dout)), np.eye(dout), res.w if rank else empty),
    ):
        symbol = const + zs[:, None, None] * slope
        for col in graph.T:
            top = np.einsum("jab,jb->ja", symbol, col[: m * dout].reshape(m, dout))
            image = np.concatenate([top.ravel(), bottom @ col[m * dout:]])
            leak = image - enlarged @ (enlarged.conj().T @ image)
            worst = max(worst, float(np.linalg.norm(leak)))
    return worst, worst <= 100.0 * tol.eq_tol * scale


def boundary_defect_set(theta, w_symbol, residual_dim=None, g1=0.3, g2=0.4, modes=64):
    """Scalar data set whose Theta = theta(z) is not inner, so every one of
    the 2 * modes boundary points carries a rank-one defect.  The residual
    acts on the identity carrier of those points, in grid order, as
    diag(conj(g1) + z g2), diag(conj(g2) + z g1) and diag(w_symbol(z)); with
    residual_dim it is instead the identity of that size."""
    points = md.theta_sample_points(8, 2 * modes)
    samples = [(z, np.array([[theta(z)]], dtype=complex)) for z in points]
    if residual_dim is None:
        zs = np.exp(2j * np.pi * np.arange(2 * modes) / (2 * modes))
        r = np.diag(np.conj(g1) + zs * g2)
        s = np.diag(np.conj(g2) + zs * g1)
        w = np.diag(w_symbol(zs))
    else:
        r = s = w = np.eye(residual_dim, dtype=complex)
    size = r.shape[0]
    residual = md.ResidualTriple(r, s, w, SubspaceBasis(size, np.eye(size)), True, {})
    return md.TetrablockDataSet(samples, np.array([[g1]]), np.array([[g2]]), residual, False)


_BOUNDARY_THETAS = pytest.mark.parametrize(
    "theta", [lambda z: 0.0, lambda z: z / 2], ids=["zero", "half-z"]
)


class TestValidateSpecial:
    def test_epilogue_scalar_set(self):
        cfg = GenConfig(seed=123, dim=1)
        ds = gen.gen_scalar_special_dataset(cfg, interior=8, fourier_modes=64)
        ds.g1[:] = 0.3
        ds.g2[:] = 0.4
        rep = md.validate_special_data_set(ds, fourier_modes=64)
        assert rep["passes_i"] and rep["passes_ii"]
        assert rep["pencil_sup"] == pytest.approx(0.7, abs=1e-9)
        assert rep["invariance_residual"] <= 1e-8

    def test_noncommuting_pair_fails_first_condition(self):
        ds = gen.gen_scalar_special_dataset(GenConfig(seed=3, dim=1))
        bad = md.TetrablockDataSet(
            [(z, np.kron(m, np.eye(2))) for z, m in ds.theta_samples],
            0.3 * np.array([[0, 1], [0, 0]], dtype=complex),
            0.3 * np.array([[0, 0], [1, 0]], dtype=complex),
            ds.residual,
            True,
        )
        rep = md.validate_special_data_set(bad, fourier_modes=64)
        assert not rep["passes_i"]

    @pytest.mark.parametrize("g1", [1.5, 1e160])
    def test_pair_beyond_norm_one_fails_first_condition(self, g1):
        # ||G1|| <= 1 is necessary for a contractive pencil, and is decided
        # first: a huge finite pair is a negative verdict, not a crash.
        ds = gen.gen_scalar_special_dataset(GenConfig(seed=1, dim=1))
        ds.g1[:] = g1
        rep = md.validate_special_data_set(ds, fourier_modes=64)
        assert not rep["passes_i"] and not rep["passes"]
        assert rep["pencil_sup"] == g1 and rep["residuals"] == {}

    def test_missing_boundary_samples_rejected(self):
        ds = gen.gen_scalar_special_dataset(GenConfig(seed=4, dim=1), fourier_modes=16)
        with pytest.raises(PreconditionError):
            md.validate_special_data_set(ds, fourier_modes=64)

    def test_extracted_special_contraction_passes(self):
        _, trip = gen.gen_scalar_special_model(GenConfig(seed=11, dim=1))
        ds = md.extract_data_set(trip, grid=8, boundary=128)
        rep = md.validate_special_data_set(ds, fourier_modes=64)
        assert rep["passes"], rep

    @_BOUNDARY_THETAS
    def test_boundary_defect_graph_is_invariant(self, theta):
        rep = md.validate_special_data_set(boundary_defect_set(theta, lambda z: z), 64)
        assert rep["passes_ii"], rep
        assert rep["invariance_residual"] <= 1e-12

    @_BOUNDARY_THETAS
    def test_wrong_residual_unitary_leaks(self, theta):
        rep = md.validate_special_data_set(boundary_defect_set(theta, lambda z: z**2), 64)
        assert not rep["passes_ii"]
        assert rep["invariance_residual"] == pytest.approx(1.0, abs=0.05)

    def test_residual_dim_must_match_boundary_defect_rank(self):
        ds = boundary_defect_set(lambda z: 0.0, None, residual_dim=5)
        with pytest.raises(PreconditionError, match="does not match boundary defect rank 128"):
            md.validate_special_data_set(ds, 64)

    def test_matches_per_column_reference(self):
        sets = [gen.gen_scalar_special_dataset(GenConfig(seed=seed, dim=1)) for seed in range(20)]
        for theta in (lambda z: 0.0, lambda z: z / 2):
            sets += [boundary_defect_set(theta, w) for w in (lambda z: z, lambda z: z**2)]
        for ds in sets:
            rep = md.validate_special_data_set(ds, 64)
            worst, passes_ii = validate_special_reference(ds, 64)
            assert rep["invariance_residual"] == pytest.approx(worst, abs=1e-12)
            assert rep["passes_ii"] == passes_ii


class TestKernelModel:
    def test_single_zero_model_is_scalar(self):
        trip = md.kernel_model_triple([0.4 + 0.1j], 0.2, 0.3)
        assert trip.dim == 1
        assert trip.t[0, 0] == pytest.approx(0.4 + 0.1j)

    def test_two_zero_model_char_function(self):
        zeros = [0.3, -0.2 + 0.4j]
        trip = md.kernel_model_triple(zeros, 0.1, 0.2)
        # Characteristic function modulus matches the Blaschke product.
        for z in (0.0, 0.3j, -0.5, 0.2 + 0.2j):
            theta = md.char_function(trip.t, z)
            blaschke = np.prod(
                [(z - a) / (1 - np.conj(a) * z) for a in zeros]
            )
            assert abs(theta[0, 0]) == pytest.approx(abs(blaschke), abs=1e-9)

    def test_model_is_e_contraction(self):
        for seed in range(5):
            _, trip = gen.gen_scalar_special_model(GenConfig(seed=seed, dim=1))
            frag = cl.certify_e_contraction(trip, mc_samples=8, seed=seed)
            assert frag["certificate"] is cl.Certificate.PASSED_NECESSARY


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda trip: md.extract_data_set(trip, grid=4, boundary=-1),
            "boundary must be nonnegative, got -1",
        ),
        (
            lambda trip: md.validate_special_data_set(
                gen.gen_scalar_special_dataset(GenConfig(seed=7, dim=1)), -1
            ),
            "fourier_modes must be nonnegative, got -1",
        ),
        (
            lambda trip: cl.certify_e_contraction(trip, mc_samples=-1),
            "mc_samples must be nonnegative, got -1",
        ),
    ],
    ids=["boundary", "fourier_modes", "mc_samples"],
)
def test_negative_counts_rejected(call, message):
    trip = gen.gen_pure_e_contraction(GenConfig(seed=3, dim=2))
    with pytest.raises(PreconditionError, match=message):
        call(trip)
