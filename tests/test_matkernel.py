import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrakit import matkernel as mk
from tetrakit.gen import haar_unitary
from tetrakit.errors import (
    DimensionError,
    NoSolutionError,
    NotCommutingError,
    NotPSDError,
    PreconditionError,
)


def rand_matrix(rng, n, m=None, scale=1.0):
    m = n if m is None else m
    return scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))


class TestOperatorNorm:
    def test_identity(self):
        assert mk.operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert mk.operator_norm([[0, 2], [0, 0]]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            mk.operator_norm(np.zeros((0, 3)))

    def test_against_power_iteration_oracle(self):
        # Oracle: power iteration on M*M gives the top singular value squared.
        rng = np.random.default_rng(1750)
        for _ in range(20):
            m = rand_matrix(rng, 5, 7)
            gram = m.conj().T @ m
            v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            v /= np.linalg.norm(v)
            for _ in range(3000):
                v = gram @ v
                v /= np.linalg.norm(v)
            oracle = np.sqrt(np.real(np.vdot(v, gram @ v)))
            assert mk.operator_norm(m) == pytest.approx(oracle, rel=1e-12)


class TestSpectralRadius:
    def test_nilpotent(self):
        assert mk.spectral_radius([[0, 2], [0, 0]]) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        assert mk.spectral_radius(np.diag([0.5, -0.9j])) == pytest.approx(0.9)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            mk.spectral_radius(np.zeros((2, 3)))

    def test_dominated_by_norm_and_gershgorin(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rand_matrix(rng, 6)
            r = mk.spectral_radius(m)
            assert r <= mk.operator_norm(m) + 1e-12
            gersh = max(
                abs(m[i, i]) + np.sum(np.abs(m[i])) - abs(m[i, i]) for i in range(6)
            )
            assert r <= gersh + 1e-12


class TestNumericalRadius:
    def test_identity(self):
        assert mk.numerical_radius(np.eye(4)) == pytest.approx(1.0)

    @pytest.mark.parametrize("c,expected", [(2.0, 1.0), (1.0, 0.5)])
    def test_nilpotent_disk(self, c, expected):
        # Numerical range of [[0, c], [0, 0]] is the closed disk of radius c/2.
        m = np.array([[0, c], [0, 0]], dtype=complex)
        assert mk.numerical_radius(m) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("z", [0.0, 1.0, -2.5, 0.3j, 3 - 4j, 0.1 + 0.7j, 1e-300 - 1e-300j])
    def test_scalar(self, z):
        assert mk.numerical_radius([[z]]) == abs(z)

    def test_against_dense_grid_oracle(self):
        rng = np.random.default_rng(21)
        thetas = 2 * np.pi * np.arange(4096) / 4096
        for _ in range(10):
            m = rand_matrix(rng, 4)
            oracle = max(
                np.linalg.eigvalsh(
                    0.5 * (np.exp(1j * t) * m + np.exp(-1j * t) * m.conj().T)
                )[-1]
                for t in thetas
            )
            val = mk.numerical_radius(m)
            assert val == pytest.approx(oracle, abs=1e-7 * (1 + mk.operator_norm(m)))
            assert val >= oracle - 1e-12

    def test_radius_sandwich_invariant(self):
        # r(M) <= nu(M) <= ||M|| <= 2 nu(M)
        rng = np.random.default_rng(33)
        for _ in range(30):
            m = rand_matrix(rng, 5)
            r = mk.spectral_radius(m)
            nu = mk.numerical_radius(m)
            norm = mk.operator_norm(m)
            assert r <= nu + 1e-9
            assert nu <= norm + 1e-9
            assert norm <= 2 * nu + 1e-9


def herm(m):
    return 0.5 * (m + m.conj().T)


def circle_oracle(fixed, mats, points):
    """Dense-grid max of lambda_max(fixed + sum_j Re(e^{i theta_j} M_j)),
    ``points`` phases per circle; k = len(mats) in {1, 2}."""
    phases = np.exp(2j * np.pi * np.arange(points) / points)[:, None, None]

    def re(p, m):
        return 0.5 * (p * m + np.conj(p) * m.conj().T)

    last = fixed + re(phases, mats[-1])
    if len(mats) == 1:
        return float(np.max(np.linalg.eigvalsh(last)[:, -1]))
    return max(float(np.max(np.linalg.eigvalsh(last + re(p, mats[0]))[:, -1])) for p in phases)


def random_mats(seed, n, k, scale=1.0):
    rng = np.random.default_rng(seed)
    return [rand_matrix(rng, n, scale=scale) for _ in range(k)]


def jointly_diagonal(rng, n, k, distinct=None, scale=1.0):
    """(U, [U diag(d_j) U*], (d_j)): k matrices diagonal in one Haar basis
    U, with at most ``distinct`` joint values (d_1i, ..., d_ki), each entry
    in the disk of radius ``scale``; the first of them is taken, the others
    drawn with repetition."""
    u = haar_unitary(rng, n)
    values = np.concatenate([[0], rng.integers(0, min(distinct or n, n), n - 1)])
    d = scale * rng.uniform(0, 1, (k, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, (k, n)))
    d = d[:, values]
    return u, [u @ np.diag(dj) @ u.conj().T for dj in d], d


class TestCircleSup:
    def test_one_phase_against_dense_oracle(self):
        # fixed = 0 takes the homogeneous polygon bound, a Hermitian fixed
        # part the extra vertex batch.
        rng = np.random.default_rng(61)
        for trial in range(12):
            n = 1 + trial % 5
            m = rand_matrix(rng, n)
            fixed = herm(rand_matrix(rng, n)) if trial % 2 else 0.0
            oracle = circle_oracle(fixed, [m], 4096)
            lower, upper = mk._circle_sup(fixed, [m])
            assert lower >= oracle - 1e-12
            assert upper >= oracle

    def test_two_phases_against_dense_oracle(self):
        rng = np.random.default_rng(62)
        for trial in range(6):
            n = 1 + trial % 4
            x1, x2 = rand_matrix(rng, n), rand_matrix(rng, n)
            oracle = circle_oracle(0.0, [x1, x2], 256)
            lower, upper = mk._circle_sup(0.0, [x1, x2])
            assert lower >= oracle - 1e-12
            assert upper >= oracle

    def test_scalar_closed_form(self):
        # sup over u, v of Re(e^{iu} x1) + Re(e^{iv} x2) is |x1| + |x2|.
        rng = np.random.default_rng(63)
        for _ in range(20):
            x1, x2 = rand_matrix(rng, 1), rand_matrix(rng, 1)
            lower, upper = mk._circle_sup(0.0, [x1, x2])
            exact = abs(x1[0, 0]) + abs(x2[0, 0])
            assert lower == pytest.approx(exact, abs=1e-14 * (1 + exact))
            assert upper >= exact

    def test_one_by_one_closed_form(self):
        # One phase, 1x1: f(theta) = fixed + Re(e^{i theta} m) peaks at
        # fixed + |m|, with fixed = 0 and with a Hermitian (real) fixed part.
        rng = np.random.default_rng(66)
        for trial in range(40):
            m = complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-3, 3)
            c = float(rng.standard_normal()) if trial % 2 else 0.0
            lower, upper = mk._circle_sup(np.array([[c]], dtype=complex), [np.array([[m]])])
            exact = c + abs(m)
            assert lower <= exact <= upper
            assert upper == np.nextafter(lower, np.inf)
        assert mk._circle_sup(0.0, [np.array([[3 - 4j]])]) == (5.0, np.nextafter(5.0, 6.0))

    def test_pencil_counts(self, monkeypatch):
        # A non-normal family pays one basis eigh for the closed form, then
        # the grid: with fixed = 0 the pencil at -p is the negated pencil at
        # p, so the first 16 x 16 grid takes one eigvalsh of 128 pencils, not
        # 256.  A normal family takes one eigh and one eigvalsh in all, and
        # the 1x1 closed form factors nothing.
        batches = []
        for name in ("eigvalsh", "eigh"):
            def counted(a, _f=getattr(np.linalg, name), _name=name):
                batches.append((_name, len(a)))
                return _f(a)
            monkeypatch.setattr(np.linalg, name, counted)
        mk._circle_sup(0.0, random_mats(67, 3, 2))
        assert batches[:2] == [("eigh", 1), ("eigvalsh", 128)]
        batches.clear()
        mk._circle_sup(0.0, random_mats(68, 3, 1))
        assert batches[:2] == [("eigh", 1), ("eigvalsh", 8)]
        batches.clear()
        mk._circle_sup(0.0, jointly_diagonal(np.random.default_rng(71), 5, 2)[1])
        assert batches == [("eigh", 1), ("eigvalsh", 1)]
        batches.clear()
        mk._circle_sup(0.0, random_mats(69, 1, 2))
        mk._circle_sup(np.eye(1), random_mats(70, 1, 1))
        assert batches == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(1, 8), st.integers(1, 2), st.integers(1, 8), st.booleans(),
        st.floats(1e-3, 1e3), st.integers(0, 2**16),
    )
    def test_jointly_normal_closed_form(self, n, k, distinct, fixed_part, scale, seed):
        # A Haar-conjugated jointly diagonal family, fixed = 0 or Hermitian
        # in the same basis, with at most ``distinct`` joint values (so some
        # repeat): the sup is max_i (f_i + sum_j |d_ji|), and the closed form
        # brackets it within a relative 1e-12 (and within the rounding of
        # forming U diag(d_j) U*, a relative 1e-14).
        rng = np.random.default_rng(seed)
        u, mats, d = jointly_diagonal(rng, n, k, distinct, scale)
        # fixed takes one value per joint value of the M_j, so its joint
        # values repeat with theirs.
        joint = np.unique(d, axis=1, return_inverse=True)[1]
        f = fixed_part * scale * rng.uniform(0.0, 1.0, n)[joint]
        fixed = u @ np.diag(f) @ u.conj().T if fixed_part else 0.0
        exact = max(f + np.abs(d).sum(axis=0))
        lower, upper = mk._circle_sup(fixed, mats)
        assert lower <= exact * (1 + 1e-14) and exact * (1 - 1e-14) <= upper
        assert upper - lower <= 1e-12 * exact

    @pytest.mark.parametrize("size", [1e-10, 1e-8, 1e-6, 1e-4])
    def test_near_normal_contains_oracle(self, size):
        # A jointly normal pair moved by a perturbation of norm about
        # ``size``: the bracket holds the dense grid's max, and for fixed = 0
        # the grid's polygon bound sec(pi/N) times that max caps the sup,
        # so it caps lower too.
        rng = np.random.default_rng(72)
        for trial in range(8):
            n, k = 2 + trial % 4, 1 + trial % 2
            points = 2048 if k == 1 else 256
            mats = [m + size * rand_matrix(rng, n) / (2 * n) for m in jointly_diagonal(rng, n, k)[1]]
            oracle = circle_oracle(0.0, mats, points)
            lower, upper = mk._circle_sup(0.0, mats)
            assert oracle <= upper
            assert lower <= oracle / np.cos(np.pi / points)
            assert upper - lower <= 1e-6 * lower

    def test_bracket_width(self):
        # Refinement stops once no cell's bound exceeds lower by more than a
        # relative 1e-6; none of these small cases reaches a limit.
        rng = np.random.default_rng(64)
        for trial in range(20):
            n, k = 1 + trial % 6, 1 + trial % 2
            fixed = herm(rand_matrix(rng, n)) if trial % 4 == 1 else 0.0
            lower, upper = mk._circle_sup(fixed, [rand_matrix(rng, n) for _ in range(k)])
            assert lower <= upper <= lower + 1e-6 * abs(lower) + 1e-15

    def test_bound_is_decided(self):
        # A bound inside the bracket makes the splitting go on until the
        # bracket lies on one side of it.
        rng = np.random.default_rng(65)
        for trial in range(10):
            n, k = 2 + trial % 4, 1 + trial % 2
            mats = [rand_matrix(rng, n) for _ in range(k)]
            lower, upper = mk._circle_sup(0.0, mats)
            assert lower < upper
            for bound in (0.5 * (lower + upper), lower - 1e-3 * abs(lower)):
                low, up = mk._circle_sup(0.0, mats, bound=bound)
                assert up <= bound or low > bound
                assert low >= lower - 1e-12 * abs(lower)

    def test_flat_targets(self):
        # The disk [[0, 1], [0, 0]] makes f flat along its phase.  Beside a
        # zero matrix it is the one-phase case; with a second flat block
        # every cell stays live, and the cell limit stops the splitting at
        # 64 points per phase, within sec(pi/64) - 1 of the sup.
        disk = np.array([[0, 1], [0, 0]], dtype=complex)
        one = mk._circle_sup(0.0, [disk])
        assert mk._circle_sup(0.0, [disk, 0 * disk]) == one
        assert one[0] == pytest.approx(0.5, abs=1e-15) and one[1] <= 0.5 * (1 + 1e-6)
        blocks = [np.kron(np.diag(d), disk) for d in ([1, 0], [0, 1])]
        lower, upper = mk._circle_sup(0.0, blocks)
        assert lower == pytest.approx(0.5, abs=1e-15)
        assert 0.5 * (1 + 1e-6) < upper <= 0.5 / np.cos(np.pi / 64) + 1e-15

    @pytest.mark.parametrize("k", [1, 2])
    def test_empty(self, k):
        assert mk._circle_sup(0.0, [np.zeros((0, 0), dtype=complex)] * k) == (0.0, 0.0)

    @pytest.mark.parametrize("c", [1.0, 2.0, 0.3j])
    def test_nilpotent_disk(self, c):
        # The numerical range of [[0, c], [0, 0]] is the disk of radius |c|/2.
        m = np.array([[0, c], [0, 0]], dtype=complex)
        lower, upper = mk._circle_sup(0.0, [m])
        assert lower == pytest.approx(abs(c) / 2, abs=1e-12)
        assert upper >= abs(c) / 2

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 2), st.floats(1e-3, 1e3), st.integers(0, 2**16))
    def test_bracket_ordered_and_unitarily_invariant(self, n, k, scale, seed):
        mats = random_mats(seed, n, k, scale)
        lower, upper = mk._circle_sup(0.0, mats)
        assert lower <= upper
        u = haar_unitary(np.random.default_rng(seed + 1), n)
        moved = mk._circle_sup(0.0, [u @ m @ u.conj().T for m in mats])
        assert moved[0] == pytest.approx(lower, abs=1e-10 * (1 + k * scale))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(1, 5), st.integers(1, 2), st.booleans(), st.booleans(), st.integers(0, 2**16)
    )
    def test_one_family_stack_is_the_unstacked_call(self, n, k, normal, fixed_part, seed):
        # Bit for bit, in the closed form and on the grid, with a bound on
        # either side of the sup or inside the bracket.
        rng = np.random.default_rng(seed)
        mats = jointly_diagonal(rng, n, k)[1] if normal else random_mats(seed, n, k)
        fixed = herm(rand_matrix(rng, n)) if fixed_part else 0.0
        lower, upper = mk._circle_sup(fixed, mats)
        stack = np.asarray(fixed)[None] if fixed_part else 0.0, [m[None] for m in mats]
        for bound in (np.inf, 0.5 * (lower + upper), lower - 1e-3 * abs(lower)):
            assert mk._circle_sup(*stack, bound=bound) == mk._circle_sup(fixed, mats, bound=bound)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(2, 6), st.integers(1, 2), st.integers(0, 2**16))
    def test_stack_holds_the_best_family(self, n, families, k, seed):
        # Jointly normal and general families, stacked: the sup over the
        # stack is the largest family sup, so its bracket holds the largest
        # lower end of the families taken alone.
        rng = np.random.default_rng(seed)
        fixed, mats = [], []
        for _ in range(families):
            if rng.uniform() < 0.5:
                u, family, _ = jointly_diagonal(rng, n, k)
                part = u @ np.diag(rng.standard_normal(n)) @ u.conj().T
            else:
                family, part = [rand_matrix(rng, n) for _ in range(k)], herm(rand_matrix(rng, n))
            # Two phases take fixed = 0, as the fundamental pair does.
            fixed.append(part if k == 1 else 0.0)
            mats.append(family)
        best = max(mk._circle_sup(f, m)[0] for f, m in zip(fixed, mats))
        stack = [np.array(m) for m in zip(*mats)]
        lower, upper = mk._circle_sup(np.array(fixed) if k == 1 else 0.0, stack)
        assert lower <= best <= upper
        assert upper - lower <= 1e-6 * abs(lower)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.floats(1e-3, 1e3), st.integers(0, 2**16))
    def test_swap_invariant(self, n, scale, seed):
        x1, x2 = random_mats(seed, n, 2, scale)
        lower, upper = mk._circle_sup(0.0, [x1, x2])
        swapped = mk._circle_sup(0.0, [x2, x1])
        assert swapped[0] == pytest.approx(lower, abs=1e-10 * (1 + scale))
        assert swapped[1] == pytest.approx(upper, abs=1e-10 * (1 + scale))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(mk.psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(mk.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_construct_then_verify(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rand_matrix(rng, 6)
            m = c.conj().T @ c
            s = mk.psd_sqrt(m)
            assert np.allclose(s, s.conj().T)
            assert mk.operator_norm(s @ s - m) <= 1e-9 * (1 + mk.operator_norm(m))

    def test_rejects_non_hermitian(self):
        with pytest.raises(PreconditionError):
            mk.psd_sqrt(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            mk.psd_sqrt(np.diag([1.0, -0.5]))

    def test_clips_tiny_negative(self):
        s = mk.psd_sqrt(np.diag([1.0, -1e-12]))
        assert s[1, 1] == pytest.approx(0.0, abs=1e-6)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(2)
        x = rand_matrix(rng, 4)
        assert mk.operator_norm(mk.commutator(x, x)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonals_commute(self):
        assert np.allclose(
            mk.commutator(np.diag([1.0, 2.0]), np.diag([5.0, -3.0])), 0.0
        )

    def test_rank_one_pair(self):
        e01 = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(mk.commutator(e01, e01.T), np.diag([1.0, -1.0]))

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            mk.commutator(np.eye(2), np.eye(3))


class TestOrthonormalRange:
    def test_zero_matrix(self):
        assert mk.orthonormal_range(np.zeros((3, 3))).dim == 0

    def test_identity(self):
        basis = mk.orthonormal_range(np.eye(4))
        assert basis.dim == 4
        assert basis.check_orthonormal() <= 1e-12

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        basis = mk.orthonormal_range(np.outer(u, v.conj()))
        assert basis.dim == 1
        # The single basis vector spans u (SVD oracle).
        uu = u / np.linalg.norm(u)
        overlap = abs(np.vdot(uu, basis.basis[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-10)


class TestCompress:
    def test_full_basis_is_unitary_equivalence(self):
        rng = np.random.default_rng(3)
        m = rand_matrix(rng, 4)
        basis = mk.orthonormal_range(np.eye(4))
        c = mk.compress(m, basis)
        assert sorted(np.round(np.linalg.eigvals(c), 8).tolist(), key=abs) == sorted(
            np.round(np.linalg.eigvals(m), 8).tolist(), key=abs
        )

    def test_identity_compresses_to_identity(self):
        basis = mk.SubspaceBasis(3, np.array([[1, 0], [0, 0], [0, 1]], dtype=complex))
        assert np.allclose(mk.compress(np.eye(3), basis), np.eye(2))

    def test_coordinate_subspace(self):
        basis = mk.SubspaceBasis(3, np.array([[1, 0], [0, 0], [0, 1]], dtype=complex))
        assert np.allclose(
            mk.compress(np.diag([1.0, 2.0, 3.0]), basis), np.diag([1.0, 3.0])
        )

    def test_polynomials_respect_invariant_compression(self):
        # On a joint invariant subspace, compression commutes with monomials
        # of degree <= 3 for a commuting family.
        rng = np.random.default_rng(17)
        d1 = np.diag(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        d2 = np.diag(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        q, _ = np.linalg.qr(rand_matrix(rng, 5))
        m1, m2 = q @ d1 @ q.conj().T, q @ d2 @ q.conj().T
        basis = mk.SubspaceBasis(5, q[:, :3])
        c1, c2 = mk.compress(m1, basis), mk.compress(m2, basis)
        for p in [(1, 0), (0, 1), (2, 1), (1, 2), (3, 0)]:
            full = np.linalg.matrix_power(m1, p[0]) @ np.linalg.matrix_power(m2, p[1])
            small = np.linalg.matrix_power(c1, p[0]) @ np.linalg.matrix_power(c2, p[1])
            assert mk.operator_norm(mk.compress(full, basis) - small) <= 1e-9


class TestJointEigenvalues:
    def test_diagonal_family(self):
        tuples = mk.joint_eigenvalues([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        assert tuples == [(1 + 0j, 3 + 0j), (2 + 0j, 4 + 0j)]

    def test_matrix_and_square(self):
        rng = np.random.default_rng(4)
        m = rand_matrix(rng, 5)
        tuples = mk.joint_eigenvalues([m, m @ m])
        for lam, mu in tuples:
            assert mu == pytest.approx(lam * lam, abs=1e-8 * (1 + abs(lam)) ** 2)

    def test_identity_family(self):
        tuples = mk.joint_eigenvalues([np.eye(3)] * 3)
        assert tuples == [(1 + 0j, 1 + 0j, 1 + 0j)] * 3

    def test_derogatory_family(self):
        # Two 2x2 Jordan blocks at one joint eigenvalue make it 4-fold for
        # every combination, whose eigenvectors then do not span the
        # cluster; three simple tuples complete the 7x7 family.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            joint = (0.2, 0.05, 0.1)
            simple = rng.uniform(-0.5, 0.5, (3, 3)) + 1j * rng.uniform(-0.5, 0.5, (3, 3))
            u = haar_unitary(rng, 7)
            family = []
            for k in range(3):
                m = np.diag(np.concatenate([[joint[k]] * 4, simple[:, k]])).astype(complex)
                m[0, 1], m[2, 3] = rng.uniform(0.1, 0.3, 2)
                family.append(u @ m @ u.conj().T)
            expected = [joint] * 4 + [tuple(row) for row in simple]
            expected.sort(key=lambda t: [(complex(z).real, complex(z).imag) for z in t])
            tuples = mk.joint_eigenvalues(family)
            assert np.abs(np.array(tuples) - np.array(expected)).max() <= 1e-12, seed

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.data(), st.integers(0, 2**16))
    def test_planted_jordan_families(self, n, data, seed):
        # U (diag + 2x2 Jordan blocks) U*: each slot is a Jordan block or a
        # simple position, and slots draw their joint value from a pool of
        # three, so joint values repeat across blocks and simple positions.
        # Under rounding a block's eigenvalue splits by about
        # 2 sqrt(|nu| u ||C||) for its nilpotent part nu in the combination
        # C; moduli up to 0.05 keep that split inside the cluster bound
        # 10 sqrt(n) eq_tol (1 + max norm)^2 at every n.  Moduli near 0.3
        # can split beyond it at n = 2 (ROADMAP item 3).
        blocks = data.draw(st.integers(0, n // 2))
        labels = data.draw(st.lists(st.integers(0, 2), min_size=n - blocks, max_size=n - blocks))
        rng = np.random.default_rng(seed)
        pool = rng.uniform(-0.5, 0.5, (3, 3)) + 1j * rng.uniform(-0.5, 0.5, (3, 3))
        planted = np.array([pool[s] for k, s in enumerate(labels) for _ in range(1 + (k < blocks))])
        nilpotent = rng.uniform(0.01, 0.05, (blocks, 3)) * np.exp(2j * np.pi * rng.uniform(size=(blocks, 3)))
        u = haar_unitary(rng, n)
        family = []
        for k in range(3):
            m = np.diag(planted[:, k])
            m[2 * np.arange(blocks), 2 * np.arange(blocks) + 1] = nilpotent[:, k]
            family.append(u @ m @ u.conj().T)
        scale = 1.0 + max(mk.operator_norm(a) for a in family)
        bound = 1e-12 * scale
        tuples = np.array(mk.joint_eigenvalues(family))
        key = lambda t: [(z.real, z.imag) for z in t]
        assert np.abs(tuples - np.array(sorted(map(tuple, planted), key=key))).max() <= bound

        # Reference: the members' Schur-basis diagonals of the same
        # combination, averaged over its clusters.
        import scipy.linalg

        comm_scale = mk.DEFAULT_TOL.eq_tol * scale**2
        coeffs = [1, 1j] @ np.random.default_rng(mk._COMBO_SEED).standard_normal((2, 3))
        tri, z = scipy.linalg.schur(sum(c * a for c, a in zip(coeffs, family)), output="complex")
        lam = np.diag(tri)
        same = np.abs(lam[:, None] - lam[None, :]) <= 10.0 * comm_scale * math.sqrt(n)
        diags = np.array([np.diag(z.conj().T @ a @ z) for a in family]).T
        schur = sorted((tuple(diags[same[i]].mean(axis=0)) for i in range(n)), key=key)
        assert np.abs(tuples - np.array(schur)).max() <= bound

    def test_rejects_noncommuting(self):
        e01 = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotCommutingError):
            mk.joint_eigenvalues([e01, e01.conj().T])


class TestSolveSandwich:
    def test_zero_rhs(self):
        rng = np.random.default_rng(6)
        c = rand_matrix(rng, 4)
        d = c.conj().T @ c
        x = mk.solve_sandwich(d, d, np.zeros((4, 4)))
        assert mk.operator_norm(x) <= 1e-10 if x.size else True

    def test_scalar(self):
        x = mk.solve_sandwich([[0.5]], [[0.5]], [[0.1]])
        assert x[0, 0] == pytest.approx(0.4)

    def test_construct_then_solve(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = rand_matrix(rng, 5)
            d = c.conj().T @ c
            basis = mk.orthonormal_range(d)
            x0 = rand_matrix(rng, basis.dim)
            rhs = d @ basis.basis @ x0 @ basis.basis.conj().T @ d
            x = mk.solve_sandwich(d, d, rhs)
            assert mk.operator_norm(x - x0) <= 1e-8 * (1 + mk.operator_norm(x0))

    def test_inconsistent_system(self):
        d = np.diag([1.0, 0.0])
        rhs = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NoSolutionError):
            mk.solve_sandwich(d, d, rhs)


class TestTolerances:
    def test_defaults(self):
        tol = mk.Tolerances()
        assert tol.eq_tol == 1e-9
        assert mk._PSD_TOL == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [{"eq_tol": 0.0}, {"eq_tol": -1e-3}, {"eq_tol": math.inf}, {"eq_tol": math.nan}],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError, match="eq_tol must be positive and finite"):
            mk.Tolerances(**kwargs)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 2), st.floats(1e-3, 1e3), st.integers(0, 2**16))
    def test_negation_invariant(self, n, k, scale, seed):
        # theta -> theta + pi maps the sup for -M_j to the sup for M_j; the
        # first grid is closed under that shift, so both ends agree.
        mats = random_mats(seed, n, k, scale)
        lower, upper = mk._circle_sup(0.0, mats)
        neg = mk._circle_sup(0.0, [-m for m in mats])
        assert neg[0] == pytest.approx(lower, rel=1e-12)
        assert neg[1] == pytest.approx(upper, rel=1e-12)
