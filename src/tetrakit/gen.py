"""Seeded generators for every operator class the library names.

Each generator is a pure function of its GenConfig: identical configs give
bitwise-identical outputs.  Positive examples come with a construction
that certifies their class; negative controls are planted violations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .classify import OperatorTriple
from .matkernel import SubspaceBasis
from .matkernel import _norm_or_zero as _nrm
from .models import (
    ResidualTriple,
    TetrablockDataSet,
    kernel_model_triple,
    theta_sample_points,
)

__all__ = [
    "ClassTag",
    "GenConfig",
    "haar_unitary",
    "gen_normal_e_contraction",
    "gen_pure_e_contraction",
    "gen_pc_unitary",
    "gen_strict_e_unitary",
    "gen_scalar_special_dataset",
    "gen_scalar_special_model",
    "gen_non_example",
    "generate",
]


class ClassTag(enum.Enum):
    NORMAL_E_CONTRACTION = "NormalEContraction"
    PURE_E_CONTRACTION = "PureEContraction"
    PC_UNITARY = "PcUnitary"
    STRICT_E_UNITARY = "StrictEUnitary"
    SPECIAL_SCALAR_DATASET = "SpecialScalarDataSet"
    NON_EXAMPLE = "NonExample"


@dataclass(frozen=True)
class GenConfig:
    seed: int
    dim: int = 2
    class_tag: ClassTag = ClassTag.NORMAL_E_CONTRACTION

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[None, :]


def _contraction_points(rng: np.random.Generator, count: int):
    """Points (x11, x22, det X) of 2x2 strict contractions X.

    Norm targets are drawn in [0.2, 0.94], so |det X| <= ||X||^2 < 0.89.
    """
    pts = []
    for _ in range(count):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = g * (rng.uniform(0.2, 0.94) / _nrm(g))
        pts.append((x[0, 0], x[1, 1], x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]))
    return pts


def gen_normal_e_contraction(cfg: GenConfig) -> OperatorTriple:
    """Commuting normal triple with joint spectrum inside the tetrablock.

    Diagonal entries are pushforwards of random 2x2 strict contractions,
    conjugated by a Haar unitary.
    """
    rng = np.random.default_rng([cfg.seed, cfg.dim, 0x01])
    pts = _contraction_points(rng, cfg.dim)
    a = np.diag([p[0] for p in pts])
    b = np.diag([p[1] for p in pts])
    t = np.diag([p[2] for p in pts])
    u = haar_unitary(rng, cfg.dim)
    return OperatorTriple(u @ a @ u.conj().T, u @ b @ u.conj().T, u @ t @ u.conj().T)


def gen_pure_e_contraction(cfg: GenConfig) -> OperatorTriple:
    """Pure tetrablock contraction: spectral_radius(T) < 1.

    Restricts a normal tetrablock contraction of twice the dimension to a
    seeded joint invariant subspace; restriction to an invariant subspace
    preserves polynomial norms.  Purity is automatic: the spectrum of the
    cut T lies among the determinants of the drawn contractions, all of
    modulus below 0.94^2.
    """
    rng = np.random.default_rng([cfg.seed, cfg.dim, 0x02])
    big = 2 * cfg.dim
    pts = _contraction_points(rng, big)
    pts.sort(key=lambda p: (p[0].real, p[0].imag, p[1].real, p[1].imag))
    a = np.diag([p[0] for p in pts])
    b = np.diag([p[1] for p in pts])
    t = np.diag([p[2] for p in pts])
    u = haar_unitary(rng, big)
    # Leading columns of an upper-triangularized basis span a joint
    # invariant subspace; for a diagonal family any coordinate subset
    # works, so conjugate first and then cut.
    triple = OperatorTriple(
        u @ a @ u.conj().T, u @ b @ u.conj().T, u @ t @ u.conj().T
    )
    basis = u[:, : cfg.dim] @ haar_unitary(rng, cfg.dim)
    return OperatorTriple(
        basis.conj().T @ triple.a @ basis,
        basis.conj().T @ triple.b @ basis,
        basis.conj().T @ triple.t @ basis,
    )


def _scaled_polynomial(rng: np.random.Generator, w: np.ndarray, low: float, high: float):
    """Random polynomial in w of degree dim(w), scaled to a norm drawn
    uniformly from [low, high]; the coefficients are drawn first."""
    n = w.shape[0]
    coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    s = np.zeros_like(w)
    power = np.eye(n, dtype=complex)
    for c in coeffs:
        s = s + c * power
        power = power @ w
    return s * (rng.uniform(low, high) / max(_nrm(s), 1e-12))


def gen_pc_unitary(cfg: GenConfig) -> OperatorTriple:
    """Pseudo-commutative tetrablock unitary (S* W, S, W).

    W is Haar unitary and S a random polynomial in W of degree <= dim with
    coefficients scaled so that ||S|| <= 2; S commutes with W by
    construction but is not forced contractive, so strictness generally
    fails when the scale exceeds one.
    """
    rng = np.random.default_rng([cfg.seed, cfg.dim, 0x03])
    w = haar_unitary(rng, cfg.dim)
    s = _scaled_polynomial(rng, w, 0.3, 2.0)
    return OperatorTriple(s.conj().T @ w, s, w)


def _special_parameters(cfg: GenConfig):
    rng = np.random.default_rng([cfg.seed, cfg.dim, 0x04])
    q = 1 + (cfg.seed % 2)
    while True:
        zeros = 0.6 * (rng.uniform(0.05, 1.0, q)) * np.exp(
            2j * np.pi * rng.uniform(0.0, 1.0, q)
        )
        if q == 1 or np.min(np.abs(zeros[:, None] - zeros[None, :]) + np.eye(q)) > 0.05:
            break
    phase = np.exp(2j * np.pi * rng.uniform())
    mass = rng.uniform(0.2, 0.95)
    split = rng.uniform(0.15, 0.85)
    g1 = mass * split * np.exp(2j * np.pi * rng.uniform())
    g2 = mass * (1.0 - split) * np.exp(2j * np.pi * rng.uniform())
    return zeros, phase, complex(g1), complex(g2)


def _blaschke(z: complex, zeros: np.ndarray, phase: complex) -> complex:
    val = phase
    for alpha in zeros:
        val *= (z - alpha) / (1.0 - np.conj(alpha) * z)
    return complex(val)


def gen_scalar_special_dataset(
    cfg: GenConfig, interior: int = 16, fourier_modes: int = 64
) -> TetrablockDataSet:
    """Scalar special data set: inner Blaschke samples plus scalar (g1, g2).

    The scalar pair automatically satisfies the commutativity conditions,
    |g1| + |g2| <= 0.95 keeps the pencil contractive, and an inner Theta
    has zero boundary defect, so the residual triple is the empty
    tetrablock unitary and the graph-invariance condition holds exactly.
    """
    zeros, phase, g1, g2 = _special_parameters(cfg)
    samples = [
        (z, np.array([[_blaschke(z, zeros, phase)]]))
        for z in theta_sample_points(interior, 2 * fourier_modes)
    ]
    empty = np.zeros((0, 0), dtype=complex)
    residual = ResidualTriple(
        empty, empty, empty, SubspaceBasis(0, empty), True, {}
    )
    return TetrablockDataSet(
        samples, np.array([[g1]]), np.array([[g2]]), residual, True
    )


def gen_scalar_special_model(
    cfg: GenConfig, interior: int = 16, fourier_modes: int = 64
):
    """Data set together with the model triple it describes.

    The model is the compression of the lift to the complement of the
    graph space, computed exactly in the reproducing-kernel basis of the
    Blaschke zeros; its characteristic data coincides with the data set.
    """
    zeros, phase, g1, g2 = _special_parameters(cfg)
    dataset = gen_scalar_special_dataset(cfg, interior, fourier_modes)
    triple = kernel_model_triple(zeros, g1, g2)
    return dataset, triple


def gen_non_example(cfg: GenConfig) -> OperatorTriple:
    """Negative control, cycling by seed among three planted violations:

    0: non-commuting triple; 1: commuting triple with ||A|| = 1.2;
    2: commuting contractions whose joint spectrum leaves the closed
    tetrablock (a planted diagonal entry (0.99, 0.99, -0.99)).
    """
    rng = np.random.default_rng([cfg.seed, cfg.dim, 0x05])
    mode = cfg.seed % 3
    n = max(cfg.dim, 2)
    if mode == 0:
        a = np.zeros((n, n), dtype=complex)
        a[0, 1] = 1.0
        b = a.conj().T
        return OperatorTriple(0.5 * a, 0.5 * b, 0.5 * np.eye(n))
    if mode == 1:
        w = haar_unitary(rng, n)
        return OperatorTriple(1.2 * w, 0.3 * w @ w, 0.4 * w @ w @ w)
    pts = _contraction_points(rng, n - 1)
    diag_a = np.array([p[0] for p in pts] + [0.99])
    diag_b = np.array([p[1] for p in pts] + [0.99])
    diag_t = np.array([p[2] for p in pts] + [-0.99])
    u = haar_unitary(rng, n)
    return OperatorTriple(
        u @ np.diag(diag_a) @ u.conj().T,
        u @ np.diag(diag_b) @ u.conj().T,
        u @ np.diag(diag_t) @ u.conj().T,
    )


def gen_strict_e_unitary(cfg: GenConfig) -> OperatorTriple:
    """Strict tetrablock unitary: (S* W, S, W) with S a normal contraction
    commuting with W (here a polynomial in W scaled below one)."""
    rng = np.random.default_rng([cfg.seed, cfg.dim, 0x06])
    w = haar_unitary(rng, cfg.dim)
    s = _scaled_polynomial(rng, w, 0.2, 0.98)
    return OperatorTriple(s.conj().T @ w, s, w)


def generate(cfg: GenConfig):
    """Dispatch on the class tag."""
    table = {
        ClassTag.NORMAL_E_CONTRACTION: gen_normal_e_contraction,
        ClassTag.PURE_E_CONTRACTION: gen_pure_e_contraction,
        ClassTag.PC_UNITARY: gen_pc_unitary,
        ClassTag.STRICT_E_UNITARY: gen_strict_e_unitary,
        ClassTag.SPECIAL_SCALAR_DATASET: gen_scalar_special_dataset,
        ClassTag.NON_EXAMPLE: gen_non_example,
    }
    return table[cfg.class_tag](cfg)
