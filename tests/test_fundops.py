import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrakit import classify as cl
from tetrakit import fundops as fo
from tetrakit import gen
from tetrakit import models as md
from tetrakit.errors import InconsistentInputError, NotAContractionError
from tetrakit.gen import GenConfig
from tetrakit.matkernel import _circle_sup, operator_norm


def scalar_triple(a, b, t):
    return cl.OperatorTriple([[a]], [[b]], [[t]])


def random_e_contraction(seed, dim):
    if seed % 2 == 0:
        return gen.gen_normal_e_contraction(GenConfig(seed=seed, dim=dim))
    return gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=dim))


class TestDefect:
    def test_unitary_has_empty_defect(self):
        rng = np.random.default_rng(0)
        w = gen.haar_unitary(rng, 4)
        d, carrier = fo.defect(w)
        assert carrier.dim == 0
        assert operator_norm(d) <= 1e-7

    def test_zero_contraction(self):
        d, carrier = fo.defect(np.zeros((3, 3)))
        assert np.allclose(d, np.eye(3))
        assert carrier.dim == 3

    def test_scalar(self):
        d, _ = fo.defect(np.array([[0.5]]))
        assert d[0, 0] == pytest.approx(np.sqrt(0.75))

    def test_expansive_rejected(self):
        with pytest.raises(NotAContractionError):
            fo.defect(1.5 * np.eye(2))

    def test_norm_read_off_the_eigenvalues(self, monkeypatch):
        def no_norm(*args, **kwargs):
            raise AssertionError("defect took a separate norm")

        monkeypatch.setattr(np.linalg, "svd", no_norm)
        for adjoint in (False, True):
            for scale in (1.5, 1.000000002):
                with pytest.raises(NotAContractionError):
                    fo.defect(scale * np.eye(2), adjoint=adjoint)
            # Within the contraction rule: I - T*T is negative, and below the
            # rank cut, so the defect is zero on an empty carrier.
            d, carrier = fo.defect((1 + 5e-10) * np.eye(2), adjoint=adjoint)
            assert carrier.dim == 0 and not np.any(d)
            assert fo.defect(0.5 * np.eye(2), adjoint=adjoint)[1].dim == 2


def determining_residuals(trip, pair, adjoint=False):
    """||X1 M + X2* M T - M A|| and ||X2 M + X1* M T - M B|| with M = Q* D,
    evaluated from the pair rather than read from the library."""
    work = trip.adjoint() if adjoint else trip
    m = pair.carrier.basis.conj().T @ fo.defect(work.t)[0]
    x1, x2 = pair.x1, pair.x2
    return (
        operator_norm(x1 @ m + x2.conj().T @ m @ work.t - m @ work.a),
        operator_norm(x2 @ m + x1.conj().T @ m @ work.t - m @ work.b),
    )


class TestFundamentalPair:
    def test_scalar_closed_form(self):
        trip = scalar_triple(0.5, 0.5, 0.25)
        pair = fo.fundamental_pair(trip)
        assert pair.x1[0, 0] == pytest.approx(0.4, abs=1e-12)
        assert pair.x2[0, 0] == pytest.approx(0.4, abs=1e-12)

    def test_scalar_zero(self):
        pair = fo.fundamental_pair(scalar_triple(0, 0, 0.5))
        assert abs(pair.x1[0, 0]) <= 1e-12
        assert abs(pair.x2[0, 0]) <= 1e-12

    @pytest.mark.parametrize("scale", [5.0, 1e160])
    def test_norm_of_a_or_b_beyond_one_rejected(self, scale):
        # ||A|| <= 1 and ||B|| <= 1 are necessary, and the pipeline stages
        # read them from the norm table that is_commuting has filled.
        big, small = scale * np.eye(2), np.diag([0.5, 0.2])
        for a, b in ((big, small), (small, big)):
            trip = cl.OperatorTriple(a, b, np.diag([0.1, 0.3]))
            for call in (
                lambda: fo.fundamental_pair(trip),
                lambda: fo.fundamental_pair(trip, adjoint=True),
                lambda: md.build_lift(trip),
                lambda: md.extract_data_set(trip, grid=4),
            ):
                with pytest.raises(NotAContractionError, match="must be contractions"):
                    call()

    def test_unitary_t_empty_carrier(self):
        trip = gen.gen_strict_e_unitary(GenConfig(seed=4, dim=3))
        pair = fo.fundamental_pair(trip)
        assert pair.carrier.dim == 0
        assert pair.x1.shape == (0, 0)
        assert pair.is_special

    def test_scalar_formula_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            while True:
                a, b, t = 0.6 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
                from tetrakit.geometry import Point3, in_tetrablock

                if in_tetrablock(Point3(a, b, t)).in_open:
                    break
            pair = fo.fundamental_pair(scalar_triple(a, b, t))
            f1 = (a - np.conj(b) * t) / (1 - abs(t) ** 2)
            f2 = (b - np.conj(a) * t) / (1 - abs(t) ** 2)
            assert pair.x1[0, 0] == pytest.approx(f1, abs=1e-12)
            assert pair.x2[0, 0] == pytest.approx(f2, abs=1e-12)

    def test_sandwich_identities_and_nu_bound(self):
        for seed in range(40):
            trip = random_e_contraction(seed, 1 + seed % 4)
            for adjoint in (False, True):
                pair = fo.fundamental_pair(trip, adjoint=adjoint)
                scale = trip.scale_norm()
                assert pair.residuals["sandwich_1"] <= 1e-9 * scale
                assert pair.residuals["sandwich_2"] <= 1e-9 * scale
                assert pair.pencil_nu_max <= 1 + 1e-8
                for res in determining_residuals(trip, pair, adjoint):
                    assert res <= 1e-9 * scale

    def test_cross_check_against_determining_equations(self):
        # Independent oracle: the determining equations, which the library
        # does not evaluate.
        for seed in range(10):
            trip = random_e_contraction(seed, 3)
            pair = fo.fundamental_pair(trip)
            for res in determining_residuals(trip, pair):
                assert res <= 1e-9 * trip.scale_norm()

    def test_swap_coherence(self):
        for seed in range(20):
            trip = random_e_contraction(seed, 3)
            pair = fo.fundamental_pair(trip)
            swapped = fo.fundamental_pair(trip.swapped())
            assert operator_norm(swapped.x1 - pair.x2) <= 1e-9
            assert operator_norm(swapped.x2 - pair.x1) <= 1e-9

    def test_near_threshold_defect(self):
        # Commuting normal triples at n = 4 with one joint eigenvalue whose
        # defect 1 - |t|^2 sits just above psd_tol, so D Q has singular
        # values down to ~2e-5.  Joint eigenvalues use the parametrization
        # a = b1 + conj(b2) t, b = b2 + conj(b1) t with |b1| + |b2| <= 0.9,
        # whose fundamental pair is (diag(b1), diag(b2)); rounding in
        # A - B*T is amplified by at most ~1/gap.
        rng = np.random.default_rng(17)
        for gap in (1e-6, 1e-8, 1e-9, 5e-10):
            for _ in range(5):
                mods = np.append(rng.uniform(0.0, 0.9, 3), np.sqrt(1.0 - gap))
                t = mods * np.exp(2j * np.pi * rng.uniform(size=4))
                b1 = rng.uniform(0.0, 0.9, 4) * np.exp(2j * np.pi * rng.uniform(size=4))
                b2 = (0.9 - np.abs(b1)) * rng.uniform(size=4)
                b2 = b2 * np.exp(2j * np.pi * rng.uniform(size=4))
                a = b1 + np.conj(b2) * t
                b = b2 + np.conj(b1) * t
                u = gen.haar_unitary(rng, 4)
                trip = cl.OperatorTriple(*(u @ np.diag(x) @ u.conj().T for x in (a, b, t)))
                scale = trip.scale_norm()
                pair = fo.fundamental_pair(trip)
                assert pair.carrier.dim == 4, gap
                q = pair.carrier.basis
                for x, beta in ((pair.x1, b1), (pair.x2, b2)):
                    exact = u @ np.diag(beta) @ u.conj().T
                    assert operator_norm(q @ x @ q.conj().T - exact) <= 1e-13 / gap
                for name in ("sandwich_1", "sandwich_2"):
                    assert pair.residuals[name] <= 1e-9 * scale, (gap, name)
                for res in determining_residuals(trip, pair):
                    assert res <= 1e-9 * scale, gap
                assert pair.pencil_nu_max <= 1 + 1e-8, gap
                swapped = fo.fundamental_pair(trip.swapped())
                assert operator_norm(swapped.x1 - pair.x2) <= 1e-9
                assert operator_norm(swapped.x2 - pair.x1) <= 1e-9

    def test_uniqueness_via_perturbation(self):
        # Perturbing the solution must increase the sandwich residual; D Q
        # has full column rank on the carrier.
        trip = random_e_contraction(3, 3)
        pair = fo.fundamental_pair(trip)
        d, carrier = fo.defect(trip.t)
        q = carrier.basis
        rng = np.random.default_rng(5)
        e = rng.standard_normal(pair.x1.shape) + 1j * rng.standard_normal(pair.x1.shape)
        x1p = pair.x1 + 1e-3 * e
        res = operator_norm(
            trip.a - trip.b.conj().T @ trip.t - d @ q @ x1p @ q.conj().T @ d
        )
        assert res > 1e-6

    def test_pencil_bracket_on_criterion_2_pairs(self):
        # The 1000 pairs of acceptance criterion 2: the polygon upper end
        # certifies every pencil supremum at most 1.
        for seed in range(500):
            trip = random_e_contraction(seed, 1 + seed % 5)
            for adjoint in (False, True):
                pair = fo.fundamental_pair(trip, adjoint=adjoint)
                assert pair.pencil_nu_max <= pair.pencil_nu_upper <= 1.0, (seed, adjoint)
                assert pair.pencil_nu_max == fo.pencil_numerical_radius_max(pair.x1, pair.x2)

    def test_empty_carrier_bracket(self):
        pair = fo.fundamental_pair(gen.gen_strict_e_unitary(GenConfig(seed=4, dim=3)))
        assert (pair.pencil_nu_max, pair.pencil_nu_upper) == (0.0, 0.0)

    def test_unitary_t_with_a_not_bstar_t_is_inconsistent(self):
        trip = cl.OperatorTriple(0.5 * np.eye(2), np.zeros((2, 2)), np.eye(2))
        for adjoint in (False, True):
            with pytest.raises(InconsistentInputError):
                fo.fundamental_pair(trip, adjoint=adjoint)
        with pytest.raises(InconsistentInputError):
            md.build_lift(trip)


def adjoint_kind_triple(kind, n, seed):
    cfg = GenConfig(seed=seed, dim=n)
    if kind == "pure":
        return gen.gen_pure_e_contraction(cfg)
    if kind == "normal":
        return gen.gen_normal_e_contraction(cfg)
    if kind == "unitary":
        return gen.gen_strict_e_unitary(cfg)
    pure = gen.gen_pure_e_contraction(cfg)
    unit = gen.gen_strict_e_unitary(cfg)
    mats = [scipy.linalg.block_diag(getattr(pure, k), getattr(unit, k)) for k in "abt"]
    u = gen.haar_unitary(np.random.default_rng(seed), 2 * n)
    return cl.OperatorTriple(*mats).conjugate_by(u)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(("pure", "mixed", "normal", "unitary")),
    st.integers(1, 5),
    st.integers(0, 2**16),
)
def test_adjoint_pair_equals_the_pair_of_the_adjoint_triple(kind, n, seed):
    trip = adjoint_kind_triple(kind, n, seed)
    got = fo.fundamental_pair(trip, adjoint=True)
    want = fo.fundamental_pair(trip.adjoint())
    for x, y in (
        (got.x1, want.x1),
        (got.x2, want.x2),
        (got.carrier.basis, want.carrier.basis),
    ):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert list(got.residuals.items()) == list(want.residuals.items())
    if kind == "unitary":
        assert got.carrier.dim == 0


class TestPencilNumericalRadiusMax:
    def test_scalar_closed_form(self):
        assert fo.pencil_numerical_radius_max([[0.3j]], [[-0.4]]) == pytest.approx(0.7)

    def test_regression_grid_underestimate(self):
        # The former 64 x 64 grid with golden-section polish returned
        # 0.7256010202748613 on this pair, 2.3e-5 below an attained value.
        rng = np.random.default_rng(425)
        x1, x2 = (
            0.5 * m / operator_norm(m)
            for m in (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                      for _ in range(2))
        )
        value = fo.pencil_numerical_radius_max(x1, x2)
        assert value >= 0.7256010202748613 + 1e-5
        assert value <= _circle_sup(0.0, [x1, x2])[1]

    def test_regression_peak_hidden_between_grid_points(self):
        # Block 1 gives 1 at every (u, v) and traps the eigenvector ascent;
        # block 2 peaks at 1.005 at u = v = -pi/16, midway between points
        # of a 16-point grid, where it reads only 0.9857.  Searching the
        # 16-point grid with ascent alone returned 1.0 here.
        c = 0.5025 * np.exp(1j * np.pi / 16)
        x1 = np.zeros((3, 3), dtype=complex)
        x1[0, 1], x1[2, 2] = 2.0, c
        x2 = np.diag([0.0, 0.0, c])
        assert fo.pencil_numerical_radius_max(x1, x2) == pytest.approx(1.005, abs=1e-12)


class TestSpecialPair:
    def test_scalars_always_special(self):
        ok, _ = fo.is_special_pair([[0.3 + 0.2j]], [[0.1 - 0.7j]])
        assert ok

    def test_huge_pair_raises_no_overflow_error(self):
        # (1 + ||G1||)^2 is beyond the float range; the bound is formed as a
        # product, and the residual products overflow to non-finite entries,
        # which the norm reports as LinAlgError, a ValueError.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            fo.is_special_pair([[1e160]], [[0.1]])

    def test_noncommuting_nilpotents(self):
        g1 = 0.3 * np.array([[0, 1], [0, 0]], dtype=complex)
        g2 = 0.3 * np.array([[0, 0], [1, 0]], dtype=complex)
        ok, res = fo.is_special_pair(g1, g2)
        assert not ok
        assert res["special_comm"] == pytest.approx(0.09)

    def test_zero_second_reduces_to_normality(self):
        rng = np.random.default_rng(8)
        normal = np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        ok, _ = fo.is_special_pair(normal, np.zeros((3, 3)))
        assert ok
        nonnormal = np.array([[0, 1], [0, 0]], dtype=complex)
        ok, _ = fo.is_special_pair(nonnormal, np.zeros((2, 2)))
        assert not ok

    def test_toeplitz_truncations_commute_on_interior_rows(self):
        # Special pairs make the truncated pencil Toeplitz matrices commute
        # away from the truncation edge.
        rng = np.random.default_rng(15)
        d = np.diag(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        e = np.diag(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        blocks = 8
        sub = np.eye(blocks, k=-1)
        t1 = np.kron(np.eye(blocks), d.conj().T) + np.kron(sub, e)
        t2 = np.kron(np.eye(blocks), e.conj().T) + np.kron(sub, d)
        comm = t1 @ t2 - t2 @ t1
        interior = comm[: 2 * (blocks - 1), :]
        assert operator_norm(interior) <= 1e-12


class TestPencilContractive:
    def test_scalar_sum(self):
        ok, sup = fo.pencil_contractive([[0.3]], [[0.4]])
        assert ok and sup == pytest.approx(0.7)

    def test_scalar_closed_form(self):
        # sup over |z| = 1 of |conj(g1) + z g2| is |g1| + |g2|: the square
        # root of the engine's 1x1 closed form on the Gram pencil.
        rng = np.random.default_rng(14)
        for _ in range(20):
            g1, g2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            ok, sup = fo.pencil_contractive([[g1]], [[g2]])
            exact = abs(g1) + abs(g2)
            assert sup == pytest.approx(exact, abs=1e-14)
            assert ok == (sup <= 1.0 + 1e-9)

    def test_too_large(self):
        ok, sup = fo.pencil_contractive(0.8 * np.eye(2), 0.8 * np.eye(2))
        assert not ok and sup == pytest.approx(1.6)

    def test_against_dense_sampling_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g1 = 0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            g2 = 0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            _, sup = fo.pencil_contractive(g1, g2)
            oracle = max(
                operator_norm(g1.conj().T + np.exp(2j * np.pi * k / 4096) * g2)
                for k in range(4096)
            )
            assert sup >= oracle - 1e-9
            assert sup == pytest.approx(oracle, abs=1e-6 * (1 + oracle))

    def test_regression_peak_hidden_between_grid_points(self):
        # ||G1* + z G2|| is 1 on block 1 for every z, and 0.5005 |e^{i pi/16} + z|
        # on block 2, whose sup 1.001 at z = e^{i pi/16} lies midway between
        # points of a 16-point grid.  Searching that grid with eigenvector
        # ascent alone returned (True, 1.0) here.
        c = 0.5005
        g1 = np.diag([0.0, c * np.exp(-1j * np.pi / 16)])
        g2 = np.diag([1.0, c])
        ok, sup = fo.pencil_contractive(g1, g2)
        assert not ok
        assert sup == pytest.approx(1.001, abs=1e-12)

    def test_scalar_runs_no_eigensolver(self, monkeypatch):
        calls = []
        for name in ("eigvalsh", "eigh"):
            def counted(a, _f=getattr(np.linalg, name), _name=name):
                calls.append(_name)
                return _f(a)
            monkeypatch.setattr(np.linalg, name, counted)
        ok, sup = fo.pencil_contractive([[0.3 - 0.1j]], [[0.2j]])
        assert ok and sup == pytest.approx(abs(0.3 - 0.1j) + 0.2, abs=1e-15)
        assert calls == []

    def test_engine_gets_the_n_by_n_gram_pencil(self, monkeypatch):
        shapes = []

        def recording(fixed, mats, bound):
            shapes.append((np.shape(fixed), [np.shape(m) for m in mats], bound))
            return _circle_sup(fixed, mats, bound)

        monkeypatch.setattr(fo, "_circle_sup", recording)
        rng = np.random.default_rng(17)
        for n in (2, 3, 5):
            g1, g2 = (0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                      for _ in range(2))
            fo.pencil_contractive(g1, g2)
            assert shapes.pop() == ((n, n), [(n, n)], (1.0 + 1e-9) ** 2)


def dilation_bracket(g1, g2):
    """The pencil norm's bracket on the 2n x 2n Hermitian dilation
    [[0, G1* + z G2], [G1 + conj(z) G2*, 0]]: an independent reference."""
    n = len(g1)
    dilation = np.zeros((2 * n, 2 * n), dtype=complex)
    dilation[:n, n:] = g1.conj().T
    dilation[n:, :n] = g1
    shift = np.zeros_like(dilation)
    shift[:n, n:] = 2.0 * g2
    return _circle_sup(dilation, [shift], bound=1.0 + 1e-9)


def structured_matrix(rng, n, kind):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "nilpotent":
        u = gen.haar_unitary(rng, n)
        return u @ np.triu(m, 1) @ u.conj().T
    if kind == "low-rank":
        r = max(n // 2, 1)
        return m[:, :r] @ m[:r, :]
    return m


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 6),
    st.sampled_from(("full", "nilpotent", "low-rank")),
    st.sampled_from(("full", "nilpotent", "low-rank")),
    st.floats(0.2, 1.2),
    st.integers(0, 2**16),
)
def test_gram_pencil_matches_dilation_and_dense_oracle(n, kind1, kind2, size, seed):
    rng = np.random.default_rng(seed)
    g1, g2 = structured_matrix(rng, n, kind1), structured_matrix(rng, n, kind2)
    total = operator_norm(g1) + operator_norm(g2)
    if total > 0:
        g1, g2 = size * g1 / total, size * g2 / total
    ok, sup = fo.pencil_contractive(g1, g2)
    assert ok == (sup <= 1.0 + 1e-9)
    # Both are attained values, so either may be the nearer; the dilation's
    # ascent can stop ~1e-10 short on a rank-one G, never above its upper end.
    lower, upper = dilation_bracket(g1, g2)
    assert lower * (1.0 - 1e-12) <= sup <= upper * (1.0 + 1e-12)
    zs = np.exp(2j * np.pi * np.arange(4096) / 4096)
    pencils = g1.conj().T + zs[:, None, None] * g2
    oracle = float(np.linalg.svd(pencils, compute_uv=False)[:, 0].max())
    assert sup >= oracle - 1e-12
