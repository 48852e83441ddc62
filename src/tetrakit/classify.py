"""Classification of commuting (and pseudo-commuting) operator triples.

Covers the algebraic classes attached to the tetrablock: unitaries and
isometries (A = B*T with T isometric and B contractive), their
pseudo-commutative relaxations (A, B commute with T but not necessarily
with each other), a one-sided necessary-condition certifier for tetrablock
contractions, and the canonical splitting into a unitary and a completely
non-unitary part, decided from the spectrum of T by ``compute_Q``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .errors import DimensionError, NotAContractionError, PreconditionError
from .matkernel import (
    DEFAULT_TOL,
    SubspaceBasis,
    Tolerances,
    as_matrix,
    commutator,
    compress,
    joint_eigenvalues,
)
from .matkernel import _circle_sup, _norms_or_zero
from .matkernel import _norm_or_zero as _nrm

__all__ = [
    "OperatorTriple",
    "Certificate",
    "ClassificationReport",
    "DecompositionResult",
    "QLimit",
    "is_commuting",
    "check_e_isometry",
    "check_pc",
    "certify_e_contraction",
    "classify_triple",
    "canonical_decomposition",
    "compute_Q",
]


@dataclass(frozen=True)
class OperatorTriple:
    """Ordered triple (A, B, T) of equal-size square complex matrices.

    Commutativity is not an invariant; the pseudo-commutative classes
    deliberately relax it.
    """

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = as_matrix(self.a, square=True, name="A")
        b = as_matrix(self.b, square=True, name="B")
        t = as_matrix(self.t, square=True, name="T")
        if not (a.shape == b.shape == t.shape):
            raise DimensionError("triple members must share one size")
        for name, m in (("a", a), ("b", b), ("t", t)):
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def adjoint(self) -> "OperatorTriple":
        return OperatorTriple(self.a.conj().T, self.b.conj().T, self.t.conj().T)

    def swapped(self) -> "OperatorTriple":
        return OperatorTriple(self.b, self.a, self.t)

    def conjugate_by(self, u: np.ndarray) -> "OperatorTriple":
        u = as_matrix(u, square=True, name="U")
        uh = u.conj().T
        return OperatorTriple(u @ self.a @ uh, u @ self.b @ uh, u @ self.t @ uh)

    def __reduce__(self):
        # Copies and unpickled triples are rebuilt, so their arrays are
        # read-only too and their norm table is filled afresh.
        return OperatorTriple, (self.a, self.b, self.t)

    def scale_norm(self) -> float:
        return 1.0 + max(self._norms(*_NORMS).values())

    def _norm(self, key: str) -> float:
        """One entry of the triple's norm table (_FORMULAS), computed on
        first use and kept: the arrays are read-only, so it cannot go stale."""
        table = self.__dict__.setdefault("_norm_table", {})
        if key not in table:
            table[key] = _nrm(_FORMULAS[key](self.a, self.b, self.t))
        return table[key]

    def _norms(self, *keys: str) -> dict[str, float]:
        """A new dict of the named entries of the norm table."""
        return {k: self._norm(k) for k in keys}

    def _holds(self, keys, tol: Tolerances) -> bool:
        """Whether every named entry of the norm table is within its bound:
        a norm of A, B or T at most tol.contraction_bound, any other
        residual at most eq_tol * scale_norm().  This is the one bound rule
        of every class test."""
        bound = tol.eq_tol * self.scale_norm()
        return all(
            self._norm(k) <= (tol.contraction_bound if k in _NORMS else bound) for k in keys
        )


# The tol-free norms of a triple, keyed by their residual names: the norms
# of A, B, T, the commutators, and the identities A = B*T, B = A*T, T*T = I
# and TT* = I.  Each is written only here.
_NORMS = ("norm_a", "norm_b", "norm_t")
_COMMUTATORS = ("comm_ab", "comm_at", "comm_bt")
_IDENTITIES = ("a_minus_bstar_t", "b_minus_astar_t", "isometry_t", "coisometry_t")
_FORMULAS = {
    "norm_a": lambda a, b, t: a,
    "norm_b": lambda a, b, t: b,
    "norm_t": lambda a, b, t: t,
    "comm_ab": lambda a, b, t: commutator(a, b),
    "comm_at": lambda a, b, t: commutator(a, t),
    "comm_bt": lambda a, b, t: commutator(b, t),
    "a_minus_bstar_t": lambda a, b, t: a - b.conj().T @ t,
    "b_minus_astar_t": lambda a, b, t: b - a.conj().T @ t,
    "isometry_t": lambda a, b, t: t.conj().T @ t - np.eye(len(t)),
    "coisometry_t": lambda a, b, t: t @ t.conj().T - np.eye(len(t)),
}

# Each class as the norm-table entries that _holds bounds.  A class that
# implies another lists a superset of its entries, so e_unitary =>
# e_isometry => pc_isometry and e_unitary => pc_unitary hold by
# construction.
_PC_ISOMETRY = ("isometry_t", "comm_at", "comm_bt", "a_minus_bstar_t")
_PC_UNITARY = _PC_ISOMETRY + ("coisometry_t",)
_E_ISOMETRY = _PC_ISOMETRY + ("comm_ab", "norm_b")
_E_UNITARY = _E_ISOMETRY + ("coisometry_t",)


class Certificate(enum.Enum):
    """Outcome of the necessary-condition certifier.

    There is deliberately no "certified yes": no finite procedure decides
    the spectral-set property, so the strongest positive verdict is that
    every necessary condition passed.
    """

    CERTIFIED_NOT = "CertifiedNot"
    PASSED_NECESSARY = "PassedNecessary"


@dataclass
class ClassificationReport:
    commuting: bool
    e_unitary: bool
    e_isometry: bool
    pc_isometry: bool
    pc_unitary: bool
    contraction_certificate: Certificate
    residuals: dict[str, float]
    failed_checks: list[str] = field(default_factory=list)


@dataclass
class QLimit:
    """Projection Q onto the unitary part of T, with its range and kernel.

    In finite dimensions Q is the strong limit of T^n T^{*n}.
    """

    q: np.ndarray = field(repr=False)
    carrier: SubspaceBasis
    complement: SubspaceBasis


@dataclass
class DecompositionResult:
    h_u: SubspaceBasis
    h_cnu: SubspaceBasis
    unitary_part: OperatorTriple
    cnu_part: OperatorTriple
    residuals: dict[str, float]


def is_commuting(
    triple: OperatorTriple, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, dict[str, float]]:
    """Pairwise commutativity of (A, B, T) within eq_tol * (1 + max norm)."""
    return triple._holds(_COMMUTATORS, tol), triple._norms(*_COMMUTATORS)


def check_e_isometry(
    triple: OperatorTriple, tol: Tolerances = DEFAULT_TOL
) -> dict:
    """Test the tetrablock isometry/unitary criteria.

    Isometry: the triple commutes, A = B*T, B is a contraction and T is an
    isometry; unitary additionally requires T to be co-isometric.  The
    equivalent form B = A*T, ||A|| <= 1 is implied (A*T = T*BT = T*TB = B
    and ||A|| <= ||B||), so its residual b_minus_astar_t is only reported.
    """
    return {
        "e_isometry": triple._holds(_E_ISOMETRY, tol),
        "e_unitary": triple._holds(_E_UNITARY, tol),
        "residuals": triple._norms(*_COMMUTATORS, *_IDENTITIES),
    }


def check_pc(triple: OperatorTriple, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Test the pseudo-commutative isometry/unitary criteria.

    A pc-isometry has T isometric, A and B commuting with T, and A = B*T;
    B = A*T is implied (A*T = T*BT = T*TB = B), so its residual is only
    reported.  A pc-unitary is a pc-isometry with TT* = I.  Its identities
    A*A = BB* and AA* = B*B are not tested either: T is unitary, so normal, and
    by Fuglede's theorem B commutes with T* as well, so A = B*T = TB* and
    A*A = BT*TB* = BB*, AA* = B*TT*B = B*B.
    """
    return {
        "pc_isometry": triple._holds(_PC_ISOMETRY, tol),
        "pc_unitary": triple._holds(_PC_UNITARY, tol),
        "residuals": triple._norms("comm_at", "comm_bt", *_IDENTITIES),
    }


# The radii of the circles of certify_e_contraction's condition (c).
_MOBIUS_RADII = (0.9, 0.99, 1.0)


# The exponents of a, b and t in the monomials a^i b^j t^k of total degree <= 3.
_EXP_A, _EXP_B, _EXP_T = np.array([e for e in np.ndindex(4, 4, 4) if sum(e) <= 3]).T
_BOUNDARY_SAMPLES = 2048  # points of the distinguished boundary bE


def _poly_sups(points, coeffs) -> np.ndarray:
    """Per coefficient row, the largest |p(a, b, t)| over the points (a, b, t)."""
    powers = np.array(points, dtype=complex).reshape(-1, 3, 1) ** np.arange(4)
    # Built in place, and the power table is freed before the product with
    # coeffs, which keeps the peak memory of the 2048-point boundary call low.
    vandermonde = powers[:, 0, _EXP_A]
    vandermonde *= powers[:, 1, _EXP_B]
    vandermonde *= powers[:, 2, _EXP_T]
    del powers
    return np.max(np.abs(vandermonde @ coeffs.T), axis=0, initial=0.0)


@functools.lru_cache(maxsize=8)
def _test_polynomials(count: int, seed: int):
    """Condition (e)'s coefficients, drawn as each polynomial's real then
    imaginary parts in turn, and their sups over the sampled bE.  Neither
    depends on the triple, so each setting is computed once."""
    draws = np.random.default_rng(seed).standard_normal((count, 2, len(_EXP_A)))
    coeffs = draws[:, 0] + 1j * draws[:, 1]
    sups = _poly_sups(geometry._sample_bE_array(_BOUNDARY_SAMPLES, seed + 1), coeffs)
    coeffs.flags.writeable = sups.flags.writeable = False
    return coeffs, sups


def certify_e_contraction(
    triple: OperatorTriple, tol: Tolerances = DEFAULT_TOL, mc_samples: int = 64, seed: int = 0
) -> dict:
    """One-sided certifier for the tetrablock-contraction property.

    Returns CERTIFIED_NOT as soon as any necessary condition fails.  (a)
    and (b) are always tested; (c)-(e) only once both have passed, so a
    triple with huge entries is certified not contractive by its norm alone:

      (a) pairwise commutativity;
      (b) ||A||, ||B||, ||T|| <= 1 + eq_tol, the contraction rule;
      (c) contractivity of the operator Mobius maps (A - zT)(I - zB)^{-1}
          and the swapped variant on circles of radius 0.9, 0.99 and 1.
          On |z| = r the map is contractive iff the Hermitian form
          N*N - P*P <= 0, N = A - zT, P = I - zB, whose top eigenvalue is
          that of F_r + Re(e^{i theta} M_r), F_r = A*A - I + r^2(T*T - B*B),
          M_r = 2r(B - A*T); it needs no inverse, so it is defined where
          I - zB is singular.  One _circle_sup call brackets the sup of the
          six forms (three radii, two orientations) over their circles:
          mobius_form_max is a value attained there and mobius_form_upper
          bounds the sup.  Their gap is at most 1e-6 |mobius_form_max| +
          1e-12 (1 + max ||F_r|| + max ||M_r||), and the threshold below is
          not between them, unless a refinement limit is hit.  It fails when
          mobius_form_max exceeds (2d + d^2) scale_norm()^2, d = 100 eq_tol,
          the image of ||N P^{-1}|| <= 1 + d;
      (d) every joint eigenvalue tuple lies in the closed tetrablock, tested
          at eq_tol scale_norm(), the scale of the class tests;
      (e) a randomized polynomial von Neumann test of total degree <= 3
          against the supremum over 2048 sampled points of bE and the
          joint eigenvalue tuples, with an additive margin
          10 * eq_tol * (coefficient mass).

    Passing everything yields PASSED_NECESSARY, never a certified yes.
    """
    if mc_samples < 0:
        raise PreconditionError(f"mc_samples must be nonnegative, got {mc_samples}")
    residuals: dict[str, float] = {}
    failed: list[str] = []

    commuting, comm_res = is_commuting(triple, tol)
    residuals.update(comm_res)
    if not commuting:
        failed.append("commutativity")

    residuals.update(triple._norms(*_NORMS))
    norm_bound = triple._holds(_NORMS, tol)
    if not norm_bound:
        failed.append("norm_bound")

    if commuting and norm_bound:
        n, t, tt = triple.dim, triple.t, triple.t.conj().T @ triple.t
        # A*A - I, T*T - B*B and B - A*T per orientation, then F_r and M_r
        # per radius: the six forms, as one stack.
        terms = np.array([
            (f.conj().T @ f - np.eye(n), tt - s.conj().T @ s, s - f.conj().T @ t)
            for f, s in ((triple.a, triple.b), (triple.b, triple.a))
        ])
        radii = np.array(_MOBIUS_RADII)[:, None, None, None]
        forms = (terms[:, 0] + radii**2 * terms[:, 1]).reshape(6, n, n)
        slopes = (2.0 * radii * terms[:, 2]).reshape(6, n, n)
        norms = _norms_or_zero(*forms, *slopes)
        # ||X|| <= 1 + d with X = N P^{-1} gives N*N - P*P = P*(X*X - I)P
        # <= (2d + d^2) ||P||^2, and ||P|| = ||I - zB|| <= scale_norm().
        delta = 100.0 * tol.eq_tol
        threshold = (2.0 * delta + delta**2) * triple.scale_norm() ** 2
        slack = 1e-12 * (1.0 + max(norms[:6]) + max(norms[6:]))
        lower, upper = _circle_sup(forms, [slopes], bound=threshold, slack=slack)
        residuals["mobius_form_max"] = lower
        residuals["mobius_form_upper"] = upper
        if lower > threshold:
            failed.append("mobius_contractivity")

        tuples = joint_eigenvalues([triple.a, triple.b, triple.t], tol)
        # Each tuple is tested on the scale of the class tests, which bound
        # ||A - B*T|| at eq_tol scale_norm().
        point_tol = replace(tol, eq_tol=tol.eq_tol * triple.scale_norm())
        verdicts = [geometry.in_tetrablock(geometry.Point3(*tup), point_tol) for tup in tuples]
        in_closure = [tup for tup, verdict in zip(tuples, verdicts) if verdict.in_closure]
        if len(in_closure) < len(tuples):
            failed.append("joint_spectrum")
        residuals["joint_spectrum_excess"] = max(
            [0.0] + [max(v.sup_psi_ab, v.sup_psi_ba) - 1.0 for v in verdicts]
        )

        if tuples:
            coeffs, boundary_sups = _test_polynomials(mc_samples, seed)
            sups = np.maximum(boundary_sups, _poly_sups(in_closure, coeffs))
            # powers[m, p] is the p-th power of A, B or T.
            powers = np.empty((3, 4, triple.dim, triple.dim), dtype=complex)
            powers[:, 0], powers[:, 1] = np.eye(triple.dim), (triple.a, triple.b, triple.t)
            for p in (2, 3):
                powers[:, p] = powers[:, p - 1] @ powers[:, 1]
            monomials = powers[0, _EXP_A] @ powers[1, _EXP_B] @ powers[2, _EXP_T]
            ops = np.tensordot(coeffs, monomials, axes=1)
            op_norms = np.linalg.svd(ops, compute_uv=False)[:, 0]
            mass = np.sum(np.abs(coeffs), axis=1)
            violation = op_norms - sups - 10.0 * tol.eq_tol * mass
            worst_violation = float(np.max(violation, initial=0.0))
            residuals["von_neumann_excess"] = worst_violation
            if worst_violation > 0.0:
                failed.append("von_neumann")

    certificate = Certificate.CERTIFIED_NOT if failed else Certificate.PASSED_NECESSARY
    return {"certificate": certificate, "residuals": residuals, "failed": failed}


def classify_triple(
    triple: OperatorTriple,
    tol: Tolerances = DEFAULT_TOL,
    mc_samples: int = 64,
    seed: int = 0,
) -> ClassificationReport:
    """Run every classification check and assemble one report."""
    commuting, comm_res = is_commuting(triple, tol)
    iso = check_e_isometry(triple, tol)
    pc = check_pc(triple, tol)
    cert = certify_e_contraction(triple, tol, mc_samples=mc_samples, seed=seed)
    residuals = dict(comm_res)
    residuals.update({f"iso_{k}": v for k, v in iso["residuals"].items()})
    residuals.update({f"pc_{k}": v for k, v in pc["residuals"].items()})
    residuals.update({f"cert_{k}": v for k, v in cert["residuals"].items()})
    return ClassificationReport(
        commuting=commuting,
        e_unitary=iso["e_unitary"],
        e_isometry=iso["e_isometry"],
        pc_isometry=pc["pc_isometry"],
        pc_unitary=pc["pc_unitary"],
        contraction_certificate=cert["certificate"],
        residuals=residuals,
        failed_checks=cert["failed"],
    )


def compute_Q(t_mat, tol: Tolerances = DEFAULT_TOL) -> QLimit:
    """Projection Q = lim T^n T^{*n} onto the unitary part H_u of T.

    T must pass the contraction rule, ||T|| <= tol.contraction_bound, or
    NotAContractionError is raised.  This is the one rule that decides the
    unitary part of T: its carrier is H_u for canonical_decomposition, and
    through it for residual_triple, build_lift and extract_data_set.  For a
    contraction, T v = lambda v with |lambda| = 1 implies
    T* v = conj(lambda) v, so H_u is the span of the eigenvectors of
    unimodular eigenvalues, and it reduces T.  An eigenvalue counts as
    unimodular when 1 - |lambda|^2 <= eq_tol (1 + ||T||), never stricter
    than the unitarity test residual_triple applies to W; one complete QR
    of those eigenvectors gives the carrier and its complement.
    """
    t = as_matrix(t_mat, square=True, name="T")
    norm = _nrm(t)
    if norm > tol.contraction_bound:
        raise NotAContractionError(f"||T|| = {norm:.6f} exceeds 1")
    lam, vecs = np.linalg.eig(t)
    unimodular = 1.0 - np.abs(lam) ** 2 <= tol.eq_tol * (1.0 + norm)
    basis, _ = np.linalg.qr(vecs[:, unimodular], mode="complete")
    k = int(np.count_nonzero(unimodular))
    carrier = SubspaceBasis(t.shape[0], basis[:, :k])
    complement = SubspaceBasis(t.shape[0], basis[:, k:])
    return QLimit(carrier.basis @ carrier.basis.conj().T, carrier, complement)


def canonical_decomposition(
    triple: OperatorTriple, tol: Tolerances = DEFAULT_TOL
) -> DecompositionResult:
    """Split the space into the maximal T-unitary part and its complement.

    H_u and H_cnu are the carrier and complement of compute_Q's projection,
    so T must be a contraction.  No second rule (such as a joint kernel of
    I - T^{*k} T^k and I - T^k T^{*k}) is consulted, so every consumer of
    the unitary part splits a triple the same way.  For genuine tetrablock
    contractions H_u reduces A and B as well; the reduction residuals are
    reported, not assumed.
    """
    ql = compute_Q(triple.t, tol)
    h_u, h_cnu = ql.carrier, ql.complement

    unitary_part = OperatorTriple(
        compress(triple.a, h_u), compress(triple.b, h_u), compress(triple.t, h_u)
    )
    cnu_part = OperatorTriple(
        compress(triple.a, h_cnu), compress(triple.b, h_cnu), compress(triple.t, h_cnu)
    )

    unitary = unitary_part._norms("isometry_t", "coisometry_t")
    residuals = {"t_unitary_on_hu": max(unitary.values())}
    # Off-diagonal blocks measure failure of H_u to reduce each operator
    # (empty blocks, when either part is empty, count as 0).
    for name, m in (("a", triple.a), ("b", triple.b), ("t", triple.t)):
        off1 = h_cnu.basis.conj().T @ m @ h_u.basis
        off2 = h_u.basis.conj().T @ m @ h_cnu.basis
        residuals[f"reduce_{name}"] = max(_nrm(off1), _nrm(off2))
    return DecompositionResult(h_u, h_cnu, unitary_part, cnu_part, residuals)
