import cmath
import dataclasses
import math

import numpy as np
import pytest

from tetrakit import geometry as geo
from tetrakit.errors import PoleError


def random_points(rng, count, b_cap=None):
    pts = []
    while len(pts) < count:
        a, b, t = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 0.8
        if b_cap is not None and abs(b) > b_cap:
            continue
        pts.append(geo.Point3(a, b, t))
    return pts


def sampling_oracle(p, samples=4096):
    """Dense circle+disk sampling of sup |Psi| excluding poles."""
    best = 0.0
    for radius in (1.0, 0.7, 0.3):
        for k in range(samples):
            z = radius * cmath.exp(2j * cmath.pi * k / samples)
            denom = 1 - z * p.b
            if abs(denom) < 1e-9:
                continue
            best = max(best, abs((p.a - z * p.t) / denom))
    return best


class TestPsiEval:
    def test_zero_point(self):
        assert geo.psi_eval(0.3 + 0.1j, geo.Point3(0, 0, 0)) == 0

    def test_direct_arithmetic(self):
        assert geo.psi_eval(1, geo.Point3(0.5, 0, 0.3)) == pytest.approx(0.2)

    def test_pole(self):
        with pytest.raises(PoleError):
            geo.psi_eval(1, geo.Point3(1, 1, 1))


class TestSupPsiCircle:
    def test_affine_case(self):
        assert geo.sup_psi_circle(geo.Point3(0.5, 0, 0.3)) == pytest.approx(0.8)

    def test_degenerate_constant(self):
        assert geo.sup_psi_circle(geo.Point3(0.5, 0.5, 0.25)) == pytest.approx(0.5)

    def test_constant_one(self):
        assert geo.sup_psi_circle(geo.Point3(1, 1, 1)) == pytest.approx(1.0)

    def test_pole_inside_marker(self):
        assert geo.sup_psi_circle(geo.Point3(0.5, 2.0, 0.3)) == np.inf

    def test_closed_form_matches_sampling_oracle(self):
        rng = np.random.default_rng(101)
        for p in random_points(rng, 200, b_cap=0.95):
            closed = geo.sup_psi_circle(p)
            oracle = sampling_oracle(p)
            assert closed >= oracle - 1e-9
            assert closed == pytest.approx(oracle, abs=1e-3 * (1 + closed))


class TestInTetrablock:
    def test_origin(self):
        assert geo.in_tetrablock(geo.Point3(0, 0, 0)).in_open

    def test_thin_set_interior(self):
        v = geo.in_tetrablock(geo.Point3(0.5, 0.5, 0.25))
        assert v.in_open and v.in_closure
        assert v.sup_psi_ab == pytest.approx(0.5)
        assert v.witness is not None
        assert np.allclose(v.witness, np.diag([0.5, 0.5]))

    def test_boundary_point(self):
        v = geo.in_tetrablock(geo.Point3(1, 1, 1))
        assert not v.in_open and v.in_closure
        assert v.witness is not None
        assert np.linalg.norm(v.witness, 2) <= 1 + 1e-9

    def test_far_outside(self):
        v = geo.in_tetrablock(geo.Point3(2, 0, 0))
        assert not v.in_open and not v.in_closure

    def test_pushforward_of_contractions(self):
        # Any 2x2 X with ||X|| < 1 yields (x11, x22, det X) in the open set.
        rng = np.random.default_rng(55)
        for _ in range(1000):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = g * (rng.uniform(0.05, 0.99) / np.linalg.norm(g, 2))
            p = geo.Point3(x[0, 0], x[1, 1], np.linalg.det(x))
            assert geo.in_tetrablock(p).in_open

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(56)
        for p in random_points(rng, 1000):
            assert (
                geo.in_tetrablock(p).in_open
                == geo.in_tetrablock(p.conjugated()).in_open
            )

    def test_swap_symmetry(self):
        rng = np.random.default_rng(57)
        for p in random_points(rng, 1000):
            v1, v2 = geo.in_tetrablock(p), geo.in_tetrablock(p.swapped())
            assert v1.in_open == v2.in_open
            assert v1.in_closure == v2.in_closure
            assert v1.in_bE == v2.in_bE

    def test_witness_invariants(self):
        # A witness is a 2x2 completion: diagonal (a, b), determinant t,
        # norm at most 1 + eq_tol.
        rng = np.random.default_rng(59)
        pts = random_points(rng, 100)
        for _ in range(100):  # pushforward points are guaranteed inside
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = g * (rng.uniform(0.1, 0.95) / np.linalg.norm(g, 2))
            pts.append(geo.Point3(x[0, 0], x[1, 1], np.linalg.det(x)))
        seen = 0
        for p in pts:
            v = geo.in_tetrablock(p)
            if v.witness is None:
                continue
            seen += 1
            w = v.witness
            assert w[0, 0] == pytest.approx(complex(p.a))
            assert w[1, 1] == pytest.approx(complex(p.b))
            assert np.linalg.det(w) == pytest.approx(complex(p.t), abs=1e-10)
            assert np.linalg.norm(w, 2) <= 1 + 1e-9
        assert seen > 20

    def test_boundary_marginal_flag(self):
        v = geo.in_tetrablock(geo.Point3(1, 1, 1))
        assert v.boundary_marginal and not v.in_open and v.in_closure

    @pytest.mark.parametrize("swap", [False, True])
    def test_pole_within_eq_tol_off_the_thin_set(self, swap):
        # (1 + delta, 0.5, 0.5) is delta from (1, 0.5, 0.5), on the thin set
        # ab = t of the closed tetrablock.  One orientation's sup is +inf, so
        # the minimal completion norm, about 1 + delta, decides the closure.
        for delta, inside in ((1e-11, True), (1e-6, False)):
            p = geo.Point3(1 + delta, 0.5, 0.5)
            v = geo.in_tetrablock(p.swapped() if swap else p)
            assert math.inf in (v.sup_psi_ab, v.sup_psi_ba)
            assert v.in_closure is inside and not v.in_open
            assert (v.witness is not None) is inside

    def test_min_completion_oracle_agrees(self):
        # Independent membership oracle: minimal completion norm < 1.
        rng = np.random.default_rng(58)
        for p in random_points(rng, 500):
            verdict = geo.in_tetrablock(p)
            norm = geo.min_completion_norm(p)
            if verdict.boundary_marginal or abs(norm - 1.0) <= 1e-9:
                continue
            assert verdict.in_open == (norm < 1.0)
            assert verdict.in_closure == (norm <= 1.0)

    def test_min_completion_norm_on_distinguished_boundary(self):
        # On bE the two singular values of the completion meet at 1, where a
        # closed form in a, b, t loses about half the digits; the witness's
        # SVD norm does not, and in_tetrablock attaches every such witness.
        for p in geo.sample_bE(2000, seed=4):
            assert abs(geo.min_completion_norm(p) - 1.0) <= 1e-12
            assert geo.in_tetrablock(p).witness is not None


class TestDistinguishedBoundary:
    def test_real_rotation_point(self):
        v = geo.in_distinguished_boundary(geo.Point3(0.6, 0.6, 1))
        assert v.in_bE
        assert np.allclose(v.witness, [[0.6, 0.8], [-0.8, 0.6]])
        assert np.allclose(v.witness.conj().T @ v.witness, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 1.1, 2.7, 4.4])
    def test_antidiagonal_family(self, phi):
        t = cmath.exp(1j * phi)
        v = geo.in_distinguished_boundary(geo.Point3(0, 0, t))
        assert v.in_bE
        assert np.allclose(v.witness @ v.witness.conj().T, np.eye(2), atol=1e-12)

    def test_interior_point_not_bE(self):
        assert not geo.in_distinguished_boundary(geo.Point3(0.5, 0, 0.3)).in_bE

    def test_criterion_against_random_unitary_oracle(self):
        # Every (x11, x22, det X) with X a random 2x2 unitary must pass, and
        # the witness construction must return a genuine unitary.
        rng = np.random.default_rng(60)
        for _ in range(500):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, r = np.linalg.qr(g)
            q = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
            p = geo.Point3(q[0, 0], q[1, 1], np.linalg.det(q))
            v = geo.in_distinguished_boundary(p)
            assert v.in_bE
            w = v.witness
            assert np.allclose(w.conj().T @ w, np.eye(2), atol=1e-9)
            assert np.linalg.det(w) == pytest.approx(complex(p.t), abs=1e-9)

    def test_bE_subset_of_closure(self):
        for p in geo.sample_bE(300, seed=61):
            assert geo.in_tetrablock(p).in_closure

    def test_perturbed_bE_points(self):
        # Points within a few eq_tol of bE, |b| = 1 included: a bE verdict
        # lies in the closure and outside the open set, and
        # in_distinguished_boundary is in_tetrablock's verdict but for its
        # witness.
        rng = np.random.default_rng(62)
        fields = [f.name for f in dataclasses.fields(geo.MembershipVerdict) if f.name != "witness"]
        on_bE = 0
        for p in geo.sample_bE(1500, seed=63):
            b = p.b / abs(p.b) if rng.random() < 0.3 else p.b
            b, t = (x * (1.0 + 2e-9 * rng.uniform(-1.0, 1.0)) for x in (b, p.t))
            a = b.conjugate() * t + 1e-9 * complex(*rng.uniform(-1.0, 1.0, 2))
            q = geo.Point3(a, b, t)
            verdict = geo.in_tetrablock(q)
            if verdict.in_bE:
                on_bE += 1
                assert verdict.in_closure and not verdict.in_open
            boundary = geo.in_distinguished_boundary(q)
            assert [getattr(boundary, f) for f in fields] == [getattr(verdict, f) for f in fields]
        assert 0 < on_bE < 1500


class TestSampleBE:
    def test_all_points_on_boundary(self):
        pts = geo.sample_bE(1000, seed=5)
        for p in pts:
            assert abs(abs(p.t) - 1.0) <= 1e-12
            assert abs(p.a) <= 1.0 + 1e-12
            assert geo.in_distinguished_boundary(p).in_bE

    def test_deterministic(self):
        a = geo.sample_bE(50, seed=9)
        b = geo.sample_bE(50, seed=9)
        assert all(x == y for x, y in zip(a, b))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            geo.sample_bE(0, seed=1)
