import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrakit import classify as cl
from tetrakit import gen
from tetrakit import geometry as geo
from tetrakit.errors import DimensionError, NotCommutingError
from tetrakit.gen import ClassTag, GenConfig
from tetrakit.matkernel import (
    DEFAULT_TOL,
    commutator,
    joint_eigenvalues,
    operator_norm,
    spectral_radius,
)


def nilpotent_pair():
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    return e01, e01.conj().T


class TestOperatorTriple:
    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cl.OperatorTriple(np.eye(2), np.eye(3), np.eye(3))

    def test_nonfinite_rejected(self):
        bad = np.array([[np.inf, 0], [0, 0]])
        with pytest.raises(DimensionError):
            cl.OperatorTriple(bad, np.eye(2), np.eye(2))

    def test_immutability(self):
        trip = cl.OperatorTriple(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            trip.a[0, 0] = 5.0


class TestIsCommuting:
    def test_diagonal(self):
        trip = cl.OperatorTriple(np.diag([1, 2.0]), np.diag([3, 4.0]), np.diag([5, 6.0]))
        ok, _ = cl.is_commuting(trip)
        assert ok

    def test_noncommuting(self):
        a, b = nilpotent_pair()
        ok, res = cl.is_commuting(cl.OperatorTriple(a, b, np.eye(2)))
        assert not ok
        assert res["comm_ab"] == pytest.approx(1.0)

    def test_polynomials_in_one_matrix(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ok, _ = cl.is_commuting(cl.OperatorTriple(m, m @ m, m @ m @ m))
        assert ok


class TestEIsometry:
    def test_trivial_isometry(self):
        n = 3
        frag = cl.check_e_isometry(
            cl.OperatorTriple(np.zeros((n, n)), np.zeros((n, n)), np.eye(n))
        )
        assert frag["e_isometry"] and frag["e_unitary"]

    def test_normal_commutant_unitary(self):
        w = np.diag([1j, -1j])
        s = np.diag([0.5, 0.7])
        frag = cl.check_e_isometry(cl.OperatorTriple(s.conj().T @ w, s, w))
        assert frag["e_unitary"] and frag["forms_agree"]

    def test_scaled_identity_fails(self):
        half = 0.5 * np.eye(2)
        frag = cl.check_e_isometry(cl.OperatorTriple(half, half, half))
        assert not frag["e_isometry"]


class TestPc:
    def test_nonnormal_pc_unitary(self):
        s = np.array([[0, 2], [0, 0]], dtype=complex)
        frag = cl.check_pc(cl.OperatorTriple(s.conj().T, s, np.eye(2)))
        assert frag["pc_unitary"] and frag["forms_agree"]

    def test_strict_isometry_is_pc(self):
        for seed in range(20):
            trip = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=3))
            assert cl.check_e_isometry(trip)["e_isometry"]
            assert cl.check_pc(trip)["pc_isometry"]

    def test_non_isometric_t_fails(self):
        eye = np.eye(2)
        frag = cl.check_pc(cl.OperatorTriple(eye, eye, 0.5 * eye))
        assert not frag["pc_isometry"]


class TestCertifier:
    def test_diagonal_in_closure_passes(self):
        for seed in range(10):
            trip = gen.gen_normal_e_contraction(GenConfig(seed=seed, dim=3))
            frag = cl.certify_e_contraction(trip, mc_samples=16, seed=seed)
            assert frag["certificate"] is cl.Certificate.PASSED_NECESSARY

    def test_empty_triple(self):
        empty = np.zeros((0, 0))
        trip = cl.OperatorTriple(empty, empty, empty)
        frag = cl.certify_e_contraction(trip)
        assert frag["certificate"] is cl.Certificate.PASSED_NECESSARY
        assert frag["failed"] == []
        assert frag["residuals"]["mobius_form_max"] == 0.0
        assert frag["residuals"]["mobius_form_upper"] == 0.0
        report = cl.classify_triple(trip)
        assert report.contraction_certificate is cl.Certificate.PASSED_NECESSARY
        assert report.failed_checks == []

    def test_norm_violation(self):
        trip = cl.OperatorTriple(1.2 * np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
        frag = cl.certify_e_contraction(trip)
        assert frag["certificate"] is cl.Certificate.CERTIFIED_NOT
        assert "norm_bound" in frag["failed"]

    def test_noncommuting(self):
        a, b = nilpotent_pair()
        frag = cl.certify_e_contraction(cl.OperatorTriple(a, b, np.eye(2)))
        assert frag["certificate"] is cl.Certificate.CERTIFIED_NOT
        assert "commutativity" in frag["failed"]

    def test_spectrum_escape_detected(self):
        for seed in (2, 5, 8):
            trip = gen.gen_non_example(GenConfig(seed=seed, dim=3))
            frag = cl.certify_e_contraction(trip, mc_samples=8, seed=seed)
            assert frag["certificate"] is cl.Certificate.CERTIFIED_NOT
            assert "joint_spectrum" in frag["failed"]

    def test_e_unitaries_pass(self):
        # Boundary spectrum must not trip the sampled von Neumann check.
        for seed in range(8):
            trip = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=3))
            frag = cl.certify_e_contraction(trip, mc_samples=24, seed=seed)
            assert frag["certificate"] is cl.Certificate.PASSED_NECESSARY, frag["failed"]


def mobius_form(trip, z, swap=False):
    """N*N - P*P with N = A - zT, P = I - zB (A and B swapped if swap): the
    Hermitian form whose top eigenvalue is <= 0 iff ||N P^{-1}|| <= 1.  An
    array of z gives a stack of forms."""
    first, second = (trip.b, trip.a) if swap else (trip.a, trip.b)
    z = np.asarray(z)[..., None, None]
    n = first - z * trip.t
    p = np.eye(trip.dim) - z * second
    return n.conj().swapaxes(-1, -2) @ n - p.conj().swapaxes(-1, -2) @ p


def pointwise_certify(trip, mc_samples=64, seed=0, boundary_samples=2048):
    """The certifier written point by point: one Mobius form per z, one
    polynomial at a time, each boundary point as a Point3."""
    tol = DEFAULT_TOL
    point_tol = dataclasses.replace(tol, eq_tol=tol.eq_tol * trip.scale_norm())
    residuals, failed = {}, []
    commuting, _ = cl.is_commuting(trip, tol)
    if not commuting:
        failed.append("commutativity")
    norms = [operator_norm(m) for m in (trip.a, trip.b, trip.t)]
    if any(v > 1.0 + tol.eq_tol for v in norms):
        failed.append("norm_bound")
    # Conditions (c)-(e) are tested once (a) and (b) have passed.
    if commuting and "norm_bound" not in failed:
        # The form is affine in w = z / r, so at a vertex c e^{i phi} of the
        # circumscribed 128-gon it mixes the forms at r e^{i phi} and -r e^{i phi}.
        c = 1.0 / np.cos(np.pi / 128)
        grid_max = vertex_max = -np.inf
        for radius in (0.9, 0.99, 1.0):
            for k in range(128):
                u = np.exp(2j * np.pi * k / 128)
                v = np.exp(1j * np.pi * (2 * k + 1) / 128)
                for swap in (False, True):
                    on_grid = mobius_form(trip, radius * u, swap)
                    vertex = (0.5 * (1 + c) * mobius_form(trip, radius * v, swap)
                              + 0.5 * (1 - c) * mobius_form(trip, -radius * v, swap))
                    grid_max = max(grid_max, np.linalg.eigvalsh(on_grid)[-1])
                    vertex_max = max(vertex_max, np.linalg.eigvalsh(vertex)[-1])
        residuals["mobius_form_max"] = grid_max
        residuals["mobius_form_upper"] = max(vertex_max, grid_max)
        delta = 100.0 * tol.eq_tol
        if grid_max > (2.0 * delta + delta**2) * trip.scale_norm() ** 2:
            failed.append("mobius_contractivity")
        try:
            tuples = joint_eigenvalues([trip.a, trip.b, trip.t], tol)
        except NotCommutingError:
            tuples = []
            failed.append("joint_spectrum")
        inside = [t for t in tuples if geo.in_tetrablock(geo.Point3(*t), point_tol).in_closure]
        if len(inside) < len(tuples):
            failed.append("joint_spectrum")
        if tuples:
            rng = np.random.default_rng(seed)
            pts = np.array(
                [[q.a, q.b, q.t] for q in geo.sample_bE(boundary_samples, seed + 1)]
                + [list(t) for t in inside],
                dtype=complex,
            )
            exps = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]
            pw = [[np.linalg.matrix_power(m, p) for p in range(4)] for m in (trip.a, trip.b, trip.t)]
            excess = 0.0
            for _ in range(mc_samples):
                coeffs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
                op = sum(c * pw[0][i] @ pw[1][j] @ pw[2][k] for c, (i, j, k) in zip(coeffs, exps))
                vals = sum(c * pts[:, 0] ** i * pts[:, 1] ** j * pts[:, 2] ** k
                           for c, (i, j, k) in zip(coeffs, exps))
                mass = sum(abs(c) for c in coeffs)
                excess = max(excess, operator_norm(op) - np.max(np.abs(vals)) - 10.0 * tol.eq_tol * mass)
            residuals["von_neumann_excess"] = excess
            if excess > 0.0:
                failed.append("von_neumann")
    return failed, residuals


def assert_matches_pointwise(trip, mc_samples=64, seed=0):
    frag = cl.certify_e_contraction(trip, mc_samples=mc_samples, seed=seed)
    failed, residuals = pointwise_certify(trip, mc_samples, seed)
    want = cl.Certificate.CERTIFIED_NOT if failed else cl.Certificate.PASSED_NECESSARY
    assert frag["certificate"] is want
    assert frag["failed"] == failed
    for name, value in residuals.items():
        assert abs(frag["residuals"][name] - value) <= 1e-12 * max(1.0, abs(value)), name
    assert ("von_neumann_excess" in frag["residuals"]) == ("von_neumann_excess" in residuals)


# Diagonals of commuting normal triples of dimension 1..4, interleaved (a, b, t).
NORMAL_ENTRIES = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=3 * n,
        max_size=3 * n,
    )
)


def normal_triple(entries, seed):
    """The diagonal triple of entries, conjugated by a Haar unitary."""
    u = gen.haar_unitary(np.random.default_rng(seed), len(entries) // 3)
    a, b, t = (u @ np.diag(entries[k::3]) @ u.conj().T for k in range(3))
    return cl.OperatorTriple(a, b, t)


class TestBatchedCertifier:
    def test_generator_classes(self):
        for tag in ClassTag:
            for n in range(1, 6):
                if tag is ClassTag.SPECIAL_SCALAR_DATASET:
                    _, trip = gen.gen_scalar_special_model(GenConfig(seed=n, dim=1))
                else:
                    trip = gen.generate(GenConfig(seed=n, dim=n, class_tag=tag))
                assert_matches_pointwise(trip, seed=n)

    def test_form_defined_where_pencil_is_singular(self):
        # B has eigenvalue 1, so I - zB is singular at z = 1 on the unit
        # circle; the form N*N - P*P is evaluated there all the same.
        trip = cl.OperatorTriple(np.diag([0.5, 0.2]), np.diag([1.0, 0.3]), np.diag([0.5, 0.06]))
        assert_matches_pointwise(trip)

    def test_near_unitary_t(self):
        trip = cl.OperatorTriple(np.zeros((2, 2)), np.zeros((2, 2)), np.diag([1 - 1e-7, 0.5]))
        assert_matches_pointwise(trip)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(NORMAL_ENTRIES, st.integers(0, 2**16))
    def test_commuting_normal_triples(self, entries, seed):
        assert_matches_pointwise(normal_triple(entries, seed), mc_samples=16, seed=seed)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(NORMAL_ENTRIES, st.integers(0, 2**16))
    def test_mobius_bracket_holds_the_fine_grid_maximum(self, entries, seed):
        trip = normal_triple(entries, seed)
        res = cl.certify_e_contraction(trip, mc_samples=1, seed=seed)["residuals"]
        fine = np.exp(2j * np.pi * np.arange(4096) / 4096)
        fine_max = max(
            np.linalg.eigvalsh(mobius_form(trip, r * fine, swap))[:, -1].max()
            for r in (0.9, 0.99, 1.0)
            for swap in (False, True)
        )
        assert res["mobius_form_max"] <= res["mobius_form_upper"]
        assert res["mobius_form_max"] <= fine_max + 1e-12
        assert res["mobius_form_upper"] >= fine_max - 1e-12

    def test_boundary_sups_drawn_once_per_setting(self, monkeypatch):
        cl._test_polynomials.cache_clear()
        calls = []
        draw = geo._sample_bE_array
        monkeypatch.setattr(geo, "_sample_bE_array", lambda *a: calls.append(a) or draw(*a))
        for dim in (1, 2, 3):
            trip = gen.gen_normal_e_contraction(GenConfig(seed=dim, dim=dim))
            cert = cl.certify_e_contraction(trip, mc_samples=4, seed=5)["certificate"]
            assert cert is cl.Certificate.PASSED_NECESSARY
        assert calls == [(2048, 6)]

    @pytest.mark.parametrize("scale", [1e100, 1e160, 1e300])
    def test_huge_entries_fail_the_norm_bound_alone(self, scale):
        # Conditions (c)-(e) would square A; the norm bound decides first.
        trip = cl.OperatorTriple(scale * np.eye(2), np.diag([0.5, 0.2]), np.diag([0.1, 0.3]))
        frag = cl.certify_e_contraction(trip)
        assert frag["certificate"] is cl.Certificate.CERTIFIED_NOT
        assert frag["failed"] == ["norm_bound"]
        assert "mobius_form_max" not in frag["residuals"]

    def test_bracket_closes_on_strict_e_unitaries(self):
        # B = A*T makes M_r = 0, so the form is constant on each circle.
        for seed in range(20):
            trip = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=1 + seed % 4))
            res = cl.certify_e_contraction(trip, mc_samples=1, seed=seed)["residuals"]
            assert 0.0 <= res["mobius_form_upper"] - res["mobius_form_max"] <= 1e-12, seed


def dense_mobius_maxima(trip):
    """Condition (c)'s two maxima from the top eigenvalue of every one of
    the 6 x 256 pencils, as the certifier computed them before it skipped
    pencils by their Weyl bound."""
    n = trip.dim
    eye = np.eye(n)
    rows = []
    t, tt = trip.t, trip.t.conj().T @ trip.t
    pairs = ((trip.a, trip.b), (trip.b, trip.a)) if n else ()
    for radius, (first, second) in itertools.product(cl._MOBIUS_RADII, pairs):
        fixed = first.conj().T @ first - eye + radius**2 * (tt - second.conj().T @ second)
        s = cl._MOBIUS_POINTS[:, None, None] * (radius * (second - first.conj().T @ t))
        rows.append(np.linalg.eigvalsh(fixed + s + s.conj().swapaxes(1, 2))[:, -1])
    tops = np.array(rows) if rows else np.zeros((1, 2 * cl._MOBIUS_GRID))
    lower = float(np.max(tops[:, : cl._MOBIUS_GRID]))
    return lower, max(float(np.max(tops[:, cl._MOBIUS_GRID:])), lower)


@st.composite
def mobius_triples(draw):
    """Triples whose forms are sloped, flat (K_r = 0 up to rounding: strict
    E-unitaries, pc-unitaries, special models), nearly unitary in T, or
    defined where I - zB is singular on the circle."""
    family = draw(st.sampled_from(
        ["normal", "generated", "unitary", "special", "near_unitary", "singular"]
    ))
    seed = draw(st.integers(0, 2**16))
    if family == "normal":
        n = draw(st.integers(1, 6))
        unit = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
        return normal_triple(draw(st.lists(unit, min_size=3 * n, max_size=3 * n)), seed)
    if family == "generated":
        tag = draw(st.sampled_from([ClassTag.PURE_E_CONTRACTION, ClassTag.NORMAL_E_CONTRACTION]))
        return gen.generate(GenConfig(seed=seed, dim=draw(st.integers(1, 8)), class_tag=tag))
    if family == "unitary":
        tag = draw(st.sampled_from([ClassTag.STRICT_E_UNITARY, ClassTag.PC_UNITARY]))
        return gen.generate(GenConfig(seed=seed, dim=draw(st.integers(1, 5)), class_tag=tag))
    if family == "special":
        return gen.gen_scalar_special_model(GenConfig(seed=seed, dim=1))[1]
    if family == "near_unitary":
        eps = 10.0 ** -draw(st.floats(3.0, 9.0))
        zero = np.zeros((2, 2))
        return cl.OperatorTriple(zero, zero, np.diag([1.0 - eps, 0.5]))
    # B has the eigenvalue e^{i phi}, so I - zB is singular at z = e^{-i phi}.
    phase = np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))
    return cl.OperatorTriple(
        np.diag([0.5, 0.2]), np.diag([phase, 0.3]), np.diag([0.5 * phase, 0.06])
    )


class TestMobiusMaxima:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mobius_triples())
    def test_equal_to_the_dense_grid(self, trip):
        # Read from the helper: the certifier skips condition (c) on the
        # triples of this strategy that fail the norm bound.
        assert cl._mobius_form_maxima(trip) == dense_mobius_maxima(trip)

    def test_pencil_counts(self, monkeypatch):
        counts = []
        eigvalsh = np.linalg.eigvalsh

        def counted(pencils):
            counts[-1] += len(pencils)
            return eigvalsh(pencils)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for tag in (ClassTag.PURE_E_CONTRACTION, ClassTag.NORMAL_E_CONTRACTION):
            for dim in range(2, 6):
                for seed in range(40):
                    counts.append(0)
                    cl._mobius_form_maxima(gen.generate(GenConfig(seed, dim, tag)))
        # A quarter of the 6 x 256 pencils of the dense grid and vertices.
        assert max(counts) <= 0.25 * 6 * 2 * cl._MOBIUS_GRID, max(counts)

    def test_one_by_one_forms_need_no_eigensolver(self, monkeypatch):
        def no_solver(*args, **kwargs):
            raise AssertionError("eigensolver called on a 1x1 form")

        trips = [gen.gen_scalar_special_model(GenConfig(seed, 1))[1] for seed in range(4)]
        for tag in ClassTag:
            if tag is not ClassTag.SPECIAL_SCALAR_DATASET:
                trips += [gen.generate(GenConfig(seed, 1, tag)) for seed in range(5)]
        trips = [trip for trip in trips if trip.dim == 1]
        assert len(trips) == 22
        for name in ("eigvalsh", "eigh", "eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, no_solver)
        for trip in trips:
            cl._mobius_form_maxima(trip)


class TestSymmetrySuite:
    def test_swap_and_adjoint_invariance(self):
        # Class flags are invariant under (A,B,T) -> (B,A,T), and the
        # unitary class under adjoints, across 500 generated triples.
        for seed in range(500):
            kind = seed % 4
            dim = 1 + seed % 3
            if kind == 0:
                trip = gen.gen_normal_e_contraction(GenConfig(seed=seed, dim=dim))
            elif kind == 1:
                trip = gen.gen_pc_unitary(GenConfig(seed=seed, dim=dim))
            elif kind == 2:
                trip = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=dim))
            else:
                trip = gen.gen_non_example(GenConfig(seed=seed, dim=max(dim, 2)))
            swapped = trip.swapped()
            assert cl.is_commuting(trip)[0] == cl.is_commuting(swapped)[0]
            iso, iso_s = cl.check_e_isometry(trip), cl.check_e_isometry(swapped)
            assert iso["e_isometry"] == iso_s["e_isometry"], seed
            assert iso["e_unitary"] == iso_s["e_unitary"], seed
            pc, pc_s = cl.check_pc(trip), cl.check_pc(swapped)
            assert pc["pc_isometry"] == pc_s["pc_isometry"], seed
            assert pc["pc_unitary"] == pc_s["pc_unitary"], seed
            adj = cl.check_e_isometry(trip.adjoint())
            assert iso["e_unitary"] == adj["e_unitary"], seed

    def test_full_reports_swap_invariant(self):
        flags = ("commuting", "e_unitary", "e_isometry", "pc_isometry", "pc_unitary")
        for seed in range(12):
            kind = seed % 3
            if kind == 0:
                trip = gen.gen_normal_e_contraction(GenConfig(seed=seed, dim=3))
            elif kind == 1:
                trip = gen.gen_pc_unitary(GenConfig(seed=seed, dim=3))
            else:
                trip = gen.gen_non_example(GenConfig(seed=seed, dim=3))
            rep = cl.classify_triple(trip, mc_samples=4, seed=seed)
            swapped = cl.classify_triple(trip.swapped(), mc_samples=4, seed=seed)
            for flag in flags:
                assert getattr(rep, flag) == getattr(swapped, flag), (seed, flag)

    def test_spectral_radius_identity_for_pc_unitaries(self):
        for seed in range(100):
            trip = gen.gen_pc_unitary(GenConfig(seed=seed, dim=1 + seed % 5))
            lhs = spectral_radius(trip.a @ trip.b)
            rhs = max(operator_norm(trip.a) ** 2, operator_norm(trip.b) ** 2)
            assert abs(lhs - rhs) <= 1e-8 * (1 + operator_norm(trip.a) ** 2)

    def test_promotion_to_strict(self):
        # pc isometry + AB = BA + spectral radii <= 1 forces a strict isometry.
        for seed in range(50):
            trip = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=4))
            pc = cl.check_pc(trip)
            assert pc["pc_isometry"]
            assert operator_norm(commutator(trip.a, trip.b)) <= 1e-9 * 4
            assert spectral_radius(trip.a) <= 1 + 1e-9
            assert cl.check_e_isometry(trip)["e_isometry"]

    def test_strict_unitaries_are_normal(self):
        for seed in range(50):
            trip = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=4))
            assert operator_norm(commutator(trip.a.conj().T, trip.a)) <= 1e-9 * 4
            assert operator_norm(commutator(trip.b.conj().T, trip.b)) <= 1e-9 * 4


class TestInterlockingLemma:
    def test_only_zero_intertwines_unitary_into_pure(self):
        # X W = S X with W unitary and ||S|| < 1 forces X = 0: the Kronecker
        # system has trivial nullspace.
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = 4
            w = gen.haar_unitary(rng, n)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            s = g * (rng.uniform(0.1, 0.95) / np.linalg.norm(g, 2))
            system = np.kron(w.T, np.eye(n)) - np.kron(np.eye(n), s)
            smallest = np.linalg.svd(system, compute_uv=False)[-1]
            assert smallest > 1e-8


class TestCanonicalDecomposition:
    def test_unitary_t_gives_whole_space(self):
        rng = np.random.default_rng(3)
        w = gen.haar_unitary(rng, 4)
        trip = cl.OperatorTriple(0.3 * np.eye(4), 0.2 * np.eye(4), w)
        dec = cl.canonical_decomposition(trip)
        assert dec.h_u.dim == 4 and dec.h_cnu.dim == 0

    def test_mixed_diagonal(self):
        trip = cl.OperatorTriple(
            np.zeros((2, 2)), np.zeros((2, 2)), np.diag([1.0, 0.5])
        )
        dec = cl.canonical_decomposition(trip)
        assert dec.h_u.dim == 1
        assert abs(dec.h_u.basis[0, 0]) == pytest.approx(1.0)

    def test_pure_t_gives_zero(self):
        for seed in range(10):
            trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=3))
            dec = cl.canonical_decomposition(trip)
            assert dec.h_u.dim == 0

    def test_reduction_residuals_on_mixed_inputs(self):
        import scipy.linalg

        rng = np.random.default_rng(77)
        for seed in range(20):
            pure = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=2))
            unit = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=2))
            u = gen.haar_unitary(rng, 4)
            trip = cl.OperatorTriple(
                scipy.linalg.block_diag(pure.a, unit.a),
                scipy.linalg.block_diag(pure.b, unit.b),
                scipy.linalg.block_diag(pure.t, unit.t),
            ).conjugate_by(u)
            dec = cl.canonical_decomposition(trip)
            assert dec.h_u.dim == 2
            assert dec.residuals["t_unitary_on_hu"] <= 1e-9
            for name in ("a", "b", "t"):
                assert dec.residuals[f"reduce_{name}"] <= 1e-9


class TestReportInvariants:
    def test_implication_lattice(self):
        for seed in range(80):
            kind = seed % 4
            dim = 1 + seed % 3
            if kind == 0:
                trip = gen.gen_normal_e_contraction(GenConfig(seed=seed, dim=dim))
            elif kind == 1:
                trip = gen.gen_pc_unitary(GenConfig(seed=seed, dim=dim))
            elif kind == 2:
                trip = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=dim))
            else:
                trip = gen.gen_non_example(GenConfig(seed=seed, dim=max(dim, 2)))
            rep = cl.classify_triple(trip, mc_samples=4, seed=seed)
            if rep.e_unitary:
                assert rep.e_isometry and rep.pc_unitary
            if rep.e_isometry:
                assert rep.pc_isometry
            assert rep.semi_strict is None

    def test_class_keys_nest(self):
        # A class that implies another bounds every norm-table entry of it.
        implied = {
            cl._E_UNITARY: (cl._E_ISOMETRY, cl._PC_UNITARY, cl._PC_ISOMETRY, cl._COMMUTATORS),
            cl._E_ISOMETRY: (cl._PC_ISOMETRY, cl._COMMUTATORS),
            cl._PC_UNITARY: (cl._PC_ISOMETRY,),
        }
        for keys, weaker in implied.items():
            assert set(keys) <= set(cl._FORMULAS)
            for other in weaker:
                assert set(other) <= set(keys)


def edge_triple(family, seed, dim):
    """A strict E-unitary moved to the edge of the tolerance: "a" adds
    0.9 eq_tol scale_norm() T to A, "b" rescales B to norm 1 + 0.9 eq_tol
    and sets A = B*T."""
    trip = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=dim))
    eq_tol = DEFAULT_TOL.eq_tol
    if family == "a":
        a = trip.a + 0.9 * eq_tol * trip.scale_norm() * trip.t
        return cl.OperatorTriple(a, trip.b, trip.t)
    b = trip.b * (1.0 + 0.9 * eq_tol) / operator_norm(trip.b)
    return cl.OperatorTriple(b.conj().T @ trip.t, b, trip.t)


class TestToleranceEdge:
    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["a", "b"]),
        seed=st.integers(0, 10**6),
        dim=st.integers(1, 5),
    )
    def test_edge_families_keep_the_implications(self, family, seed, dim):
        rep = cl.classify_triple(edge_triple(family, seed, dim), mc_samples=8, seed=seed)
        assert rep.e_unitary
        assert rep.e_isometry and rep.pc_unitary and rep.pc_isometry
        # Every joint eigenvalue tuple lies on bE up to the class tests'
        # eq_tol scale_norm(), so in the closure at that scale.
        assert rep.failed_checks == []
        assert rep.contraction_certificate is cl.Certificate.PASSED_NECESSARY

    def test_pc_unitary_needs_no_identity_check(self):
        # The pc identities A*A = BB*, AA* = B*B read about 2.4e-9 here,
        # beyond eq_tol scale_norm(); they are implied, not tested.
        trip = edge_triple("a", 4, 3)
        pc = cl.check_pc(trip)
        assert pc["pc_isometry"] and pc["pc_unitary"] and pc["forms_agree"]
        assert set(pc["residuals"]) == {"comm_at", "comm_bt", *cl._IDENTITIES}
        identity = operator_norm(trip.a.conj().T @ trip.a - trip.b @ trip.b.conj().T)
        assert identity > DEFAULT_TOL.eq_tol * trip.scale_norm()
