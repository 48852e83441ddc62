import numpy as np
import pytest

from tetrakit import classify as cl
from tetrakit import gen
from tetrakit import models as md
from tetrakit.gen import ClassTag, GenConfig
from tetrakit.geometry import Point3, in_tetrablock
from tetrakit.matkernel import joint_eigenvalues, operator_norm, spectral_radius


class TestDeterminism:
    @pytest.mark.parametrize(
        "tag",
        [
            ClassTag.NORMAL_E_CONTRACTION,
            ClassTag.PURE_E_CONTRACTION,
            ClassTag.PC_UNITARY,
            ClassTag.STRICT_E_UNITARY,
            ClassTag.NON_EXAMPLE,
        ],
    )
    def test_triples_bitwise_identical(self, tag):
        cfg = GenConfig(seed=17, dim=3, class_tag=tag)
        t1 = gen.generate(cfg)
        t2 = gen.generate(cfg)
        assert np.array_equal(t1.a, t2.a)
        assert np.array_equal(t1.b, t2.b)
        assert np.array_equal(t1.t, t2.t)

    def test_dataset_bitwise_identical(self):
        cfg = GenConfig(seed=4, dim=1, class_tag=ClassTag.SPECIAL_SCALAR_DATASET)
        d1 = gen.generate(cfg)
        d2 = gen.generate(cfg)
        assert np.array_equal(d1.g1, d2.g1)
        for (z1, m1), (z2, m2) in zip(d1.theta_samples, d2.theta_samples):
            assert z1 == z2 and np.array_equal(m1, m2)


class TestNormal:
    def test_scalar_point_in_domain(self):
        trip = gen.gen_normal_e_contraction(GenConfig(seed=0, dim=1))
        p = Point3(trip.a[0, 0], trip.b[0, 0], trip.t[0, 0])
        assert in_tetrablock(p).in_open

    def test_joint_spectrum_inside(self):
        for seed in range(30):
            trip = gen.gen_normal_e_contraction(GenConfig(seed=seed, dim=4))
            for tup in joint_eigenvalues([trip.a, trip.b, trip.t]):
                assert in_tetrablock(Point3(*tup)).in_open

    def test_passes_certifier(self):
        for seed in range(20):
            trip = gen.gen_normal_e_contraction(GenConfig(seed=seed, dim=3))
            frag = cl.certify_e_contraction(trip, mc_samples=8, seed=seed)
            assert frag["certificate"] is cl.Certificate.PASSED_NECESSARY


class TestPure:
    def test_spectral_radius_below_one(self):
        # Each draw has norm below 0.94, so its determinant, and with it
        # every eigenvalue of the cut T, has modulus below 0.94^2.
        for seed in range(30):
            for dim in (1, 3, 8):
                trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=dim))
                assert spectral_radius(trip.t) <= 0.94**2

    def test_passes_certifier(self):
        for seed in range(15):
            trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=2))
            frag = cl.certify_e_contraction(trip, mc_samples=8, seed=seed)
            assert frag["certificate"] is cl.Certificate.PASSED_NECESSARY

    def test_q_limit_vanishes(self):
        for seed in range(10):
            trip = gen.gen_pure_e_contraction(GenConfig(seed=seed, dim=3))
            assert md.compute_Q(trip.t).carrier.dim == 0


class TestPcUnitary:
    def test_always_pc_unitary(self):
        for seed in range(50):
            trip = gen.gen_pc_unitary(GenConfig(seed=seed, dim=1 + seed % 4))
            assert cl.check_pc(trip)["pc_unitary"]

    def test_contractive_normal_scaling_gives_strict(self):
        for seed in range(20):
            trip = gen.gen_strict_e_unitary(GenConfig(seed=seed, dim=3))
            assert cl.check_e_isometry(trip)["e_unitary"]

    def test_spectral_radius_identity(self):
        for seed in range(50):
            trip = gen.gen_pc_unitary(GenConfig(seed=seed, dim=2 + seed % 3))
            lhs = spectral_radius(trip.a @ trip.b)
            rhs = max(operator_norm(trip.a) ** 2, operator_norm(trip.b) ** 2)
            assert abs(lhs - rhs) <= 1e-8 * (1 + rhs)


class TestSpecialDataset:
    def test_pencil_mass_bounded(self):
        for seed in range(20):
            ds = gen.gen_scalar_special_dataset(GenConfig(seed=seed, dim=1))
            assert abs(ds.g1[0, 0]) + abs(ds.g2[0, 0]) <= 0.95 + 1e-12

    def test_validator_accepts(self):
        for seed in range(10):
            ds = gen.gen_scalar_special_dataset(GenConfig(seed=seed, dim=1))
            rep = md.validate_special_data_set(ds, fourier_modes=64)
            assert rep["passes"], rep

    def test_degenerate_second_coefficient(self):
        ds = gen.gen_scalar_special_dataset(GenConfig(seed=2, dim=1))
        ds.g2[:] = 0.0
        rep = md.validate_special_data_set(ds, fourier_modes=64)
        assert rep["passes"], rep

    def test_pipeline_roundtrip(self):
        # dataset -> model triple -> extracted data set -> coincide.
        for seed in range(10):
            ds, trip = gen.gen_scalar_special_model(GenConfig(seed=seed, dim=1))
            extracted = md.extract_data_set(trip, grid=16, boundary=128)
            rep = md.coincide(ds, extracted)
            assert rep.coincide
            assert max(rep.residuals.values()) <= 1e-6


class TestNonExample:
    def test_noncommuting_mode(self):
        trip = gen.gen_non_example(GenConfig(seed=0, dim=3))
        frag = cl.certify_e_contraction(trip)
        assert frag["certificate"] is cl.Certificate.CERTIFIED_NOT
        assert "commutativity" in frag["failed"]

    def test_norm_mode(self):
        trip = gen.gen_non_example(GenConfig(seed=1, dim=3))
        assert operator_norm(trip.a) == pytest.approx(1.2)
        frag = cl.certify_e_contraction(trip)
        assert "norm_bound" in frag["failed"]

    def test_spectrum_escape_mode(self):
        trip = gen.gen_non_example(GenConfig(seed=2, dim=3))
        frag = cl.certify_e_contraction(trip)
        assert "joint_spectrum" in frag["failed"]
        # Confirm by the membership oracle on the planted tuple.
        tuples = joint_eigenvalues([trip.a, trip.b, trip.t])
        escapes = [t for t in tuples if not in_tetrablock(Point3(*t)).in_closure]
        assert escapes
