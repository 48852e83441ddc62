"""Fundamental operator pairs and the pencil algebra around them.

The fundamental pair of a triple (A, B, T) with contractive T is the
unique (X1, X2) on the defect space of T with

    A - B*T = D_T X1 D_T,      B - A*T = D_T X2 D_T,

equivalently the unique solution of the determining equations
D_T A = X1 D_T + X2* D_T T and D_T B = X2 D_T + X1* D_T T.  It is computed
in closed form from the sandwich identity and checked against it; with
commutativity that check bounds the determining residuals as well.  The
pair built from (A*, B*, T*) drives the functional models and is
conventionally called (G1, G2).  The pencil bracket and the special-pair
flag are part of the fundamental_pair report only.

The pair holds A, B and T to the one contraction rule of every stage,
norm <= 1 + eq_tol (Tolerances.contraction_bound); the defect space is
the range of D_T = (I - T*T)^{1/2} under the one rank cut,
Tolerances.defect_support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import _NORMS, OperatorTriple, is_commuting
from .errors import (
    InconsistentInputError,
    NotAContractionError,
    NotCommutingError,
    PreconditionError,
)
from .matkernel import DEFAULT_TOL, SubspaceBasis, Tolerances, as_matrix, commutator
from .matkernel import _circle_sup, _norms_or_zero

__all__ = [
    "FundamentalPair",
    "defect",
    "fundamental_pair",
    "is_special_pair",
    "pencil_contractive",
    "pencil_numerical_radius_max",
]


@dataclass
class FundamentalPair:
    """Report of fundamental_pair: the pair on a defect carrier, in carrier
    coordinates, with what is known of its pencil.

    ``residuals`` holds the sandwich residuals, and on a nonempty carrier
    the special-pair residuals and ``pencil_nu_excess``.
    [pencil_nu_max, pencil_nu_upper] brackets the supremum over the unit
    circle of the numerical radius of X1 + z X2, and pencil_nu_max is an
    attained value.  When X1 and X2 are jointly normal, as for a normal
    triple, the supremum is max_i (|x1_i| + |x2_i|) over their joint
    eigenvalues, and pencil_nu_upper is that closed form plus a certified
    term for rounding and departure from normality, a relative 1e-13 or so
    above pencil_nu_max at n <= 5 and 2e-12 at n = 32.  Otherwise
    pencil_nu_upper is a bound from circumscribed polygons, at most a
    relative 1e-6 above pencil_nu_max unless the refinement limits of the
    engine were reached.  Both are 0.0 on an empty carrier.  For a genuine
    tetrablock contraction the supremum does not exceed 1 (a violation of
    pencil_nu_max is evidence against contractivity, and is recorded
    rather than raised).
    """

    carrier: SubspaceBasis
    x1: np.ndarray = field(repr=False)
    x2: np.ndarray = field(repr=False)
    pencil_nu_max: float
    pencil_nu_upper: float
    is_special: bool
    residuals: dict[str, float] = field(default_factory=dict)


def defect(t_mat, adjoint: bool = False, tol: Tolerances = DEFAULT_TOL):
    """Defect operator D = (I - T*T)^{1/2} (or (I - TT*)^{1/2}) and its range.

    ||T|| is read off the least eigenvalue of I - T*T, and T must pass the
    one contraction rule, ||T|| <= tol.contraction_bound, or
    NotAContractionError is raised.  The carrier is cut by the one rank
    rule, tol.defect_support; every other eigenvalue, including those a
    T just beyond norm 1 makes negative, is zeroed, so a numerically
    unitary T gets the empty carrier instead of picking up rounding noise.
    """
    t = as_matrix(t_mat, square=True, name="T")
    n = t.shape[0]
    if n == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return empty, SubspaceBasis(0, empty)
    gram = t @ t.conj().T if adjoint else t.conj().T @ t
    herm = np.eye(n) - 0.5 * (gram + gram.conj().T)
    w, v = np.linalg.eigh(herm)
    norm_t = math.sqrt(max(1.0 - w[0], 0.0))
    if norm_t > tol.contraction_bound:
        raise NotAContractionError(f"||T|| = {norm_t:.6f} exceeds 1")
    keep = tol.defect_support(w)
    w = np.where(keep, w, 0.0)
    d = (v * np.sqrt(w)) @ v.conj().T
    d = 0.5 * (d + d.conj().T)
    return d, SubspaceBasis(n, v[:, keep])


def fundamental_pair(
    triple: OperatorTriple, adjoint: bool = False, tol: Tolerances = DEFAULT_TOL
) -> FundamentalPair:
    """The fundamental pair, in closed form, with its pencil report.

    With adjoint=True the pair of (A*, B*, T*) is computed, which is the
    (G1, G2) used by the functional model.  On the defect carrier Q,
    X1 = L (A - B*T) L* and X2 = L (B - A*T) L* with L = (D Q)^+, checked
    against the sandwich identities A - B*T = D X1 D, B - A*T = D X2 D.
    The report adds the bracket of the pencil numerical radius
    sup over the circle of nu(X1 + z X2), its excess over 1 and the
    special-pair flag; the model builders take the pair alone.
    """
    d, carrier = defect(triple.t, adjoint=adjoint, tol=tol)
    x1, x2, residuals = _fundamental_pair(triple, adjoint, d, carrier, tol)
    if carrier.dim == 0:
        return FundamentalPair(carrier, x1, x2, 0.0, 0.0, True, residuals)
    nu_max, nu_upper = _circle_sup(0.0, [x1, x2])
    nu_max = max(nu_max, 0.0)
    special, special_res = is_special_pair(x1, x2, tol)
    residuals.update(special_res)
    # A pencil radius beyond 1 with a consistent solve is evidence that the
    # input is not a tetrablock contraction, not a solver failure; record
    # the excess instead of raising.
    residuals["pencil_nu_excess"] = max(nu_max - 1.0, 0.0)
    return FundamentalPair(carrier, x1, x2, nu_max, nu_upper, special, residuals)


def _fundamental_pair(
    triple: OperatorTriple, adjoint: bool, d: np.ndarray, carrier: SubspaceBasis, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
    """(X1, X2, sandwich residuals) of ``triple``, or of (A*, B*, T*) if
    ``adjoint``, with its D_T and carrier given.  The adjoint has the same
    commutator and operator norms, so both read the triple's norm table."""
    commuting, comm_res = is_commuting(triple, tol)
    if not commuting:
        raise NotCommutingError(
            "fundamental pair requires a commuting triple: " + str(comm_res)
        )
    if not triple._holds(_NORMS, tol):
        raise NotAContractionError(f"A, B and T must be contractions: {triple._norms(*_NORMS)}")
    a, b, t = triple.a, triple.b, triple.t
    if adjoint:
        a, b, t = (np.ascontiguousarray(m.conj().T) for m in (a, b, t))

    # Closed form on the carrier: with L = (D Q)^+ the sandwich identity
    # A - B*T = (D Q) X1 (D Q)* gives X1 = L (A - B*T) L*, and likewise X2.
    # On the empty carrier of a unitary T it is the check A = B*T, B = A*T.
    dq = d @ carrier.basis
    lpinv = np.linalg.pinv(dq)
    c1 = a - b.conj().T @ t
    c2 = b - a.conj().T @ t
    x1 = lpinv @ c1 @ lpinv.conj().T
    x2 = lpinv @ c2 @ lpinv.conj().T
    residuals = dict(zip(("sandwich_1", "sandwich_2"), _norms_or_zero(
        c1 - dq @ x1 @ dq.conj().T, c2 - dq @ x2 @ dq.conj().T
    )))
    if max(residuals.values()) > tol.eq_tol * triple.scale_norm():
        raise InconsistentInputError(
            "sandwich identities inconsistent; input is not a tetrablock "
            f"contraction: residuals {residuals}"
        )
    return x1, x2, residuals


def is_special_pair(
    g1, g2, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, dict[str, float]]:
    """Commutativity conditions [G1, G2] = 0 and [G1*, G1] = [G2*, G2]."""
    a = as_matrix(g1, square=True, name="G1")
    b = as_matrix(g2, square=True, name="G2")
    if a.shape != b.shape:
        raise PreconditionError("G1, G2 must have equal size")
    norm_a, norm_b, comm, balance = _norms_or_zero(
        a, b, commutator(a, b), a.conj().T @ a + b @ b.conj().T - a @ a.conj().T - b.conj().T @ b
    )
    scale = 1.0 + max(norm_a, norm_b)
    res = {"special_comm": comm, "special_balance": balance}
    bound = tol.eq_tol * (scale * scale)
    return all(v <= bound for v in res.values()), res


def pencil_contractive(
    g1, g2, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, float]:
    """Check sup over the circle of ||G1* + z G2|| <= 1, returning the sup.

    On |z| = 1, (G1* + z G2)*(G1* + z G2) = G1 G1* + G2* G2 + Re(z 2 G1 G2),
    so the sup is the square root of the lower end of that Gram pencil's
    circle-supremum bracket, whose two ends lie on one side of
    (1 + eq_tol)^2 unless a refinement limit is hit.  For a jointly normal
    pair (G1, G2) the Gram pencil is jointly normal too, and the bracket is
    the closed form (|g1_i| + |g2_i|)^2 over joint eigenvalues, with one
    eigh and one eigvalsh (and none for 1x1 inputs); other pairs go on to
    the grid.
    """
    a = as_matrix(g1, square=True, name="G1")
    b = as_matrix(g2, square=True, name="G2")
    if a.shape != b.shape:
        raise PreconditionError("G1, G2 must have equal size")
    bound = tol.contraction_bound
    gram = a @ a.conj().T + b.conj().T @ b
    sup = math.sqrt(max(_circle_sup(gram, [2.0 * a @ b], bound=bound**2)[0], 0.0))
    return sup <= bound, sup


def pencil_numerical_radius_max(x1, x2) -> float:
    """Supremum over the unit circle in z of nu(X1 + z X2).

    Since nu(X1 + z X2) is the sup over beta of the top eigenvalue of
    Re(beta X1) + Re(beta z X2), this is the sup over (u, v) of the top
    eigenvalue of Re(e^{iu} X1) + Re(e^{iv} X2): the lower end of the
    circle-supremum bracket, an attained value, from the closed form
    max_i (|x1_i| + |x2_i|) for a jointly normal pair and else from a grid
    raised by eigenvector ascent, within a relative 1e-6 of the sup unless
    the refinement limits are reached.  fundamental_pair records the upper
    end as well.
    """
    a = as_matrix(x1, square=True, name="X1")
    b = as_matrix(x2, square=True, name="X2")
    if a.shape != b.shape:
        raise PreconditionError("X1, X2 must have equal size")
    return max(_circle_sup(0.0, [a, b])[0], 0.0)
