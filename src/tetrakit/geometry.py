"""Scalar geometry of the tetrablock in C^3.

The tetrablock is the set of points (a, b, det X) where X runs over the
2x2 strict contractions with diagonal (a, b); its distinguished boundary
consists of the points coming from 2x2 unitaries.  Membership is decided
through the Mobius map

    Psi(z, (a, b, t)) = (a - z t) / (1 - z b),

whose supremum over the closed unit disk has a closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import PoleError
from .matkernel import DEFAULT_TOL, Tolerances

__all__ = [
    "Point3",
    "MembershipVerdict",
    "psi_eval",
    "sup_psi_circle",
    "min_completion_norm",
    "completion_witness",
    "in_tetrablock",
    "in_distinguished_boundary",
    "sample_bE",
]

# Absolute tolerance for detecting the thin set a*b = t, where the extra
# |b| < 1 clause activates and the Mobius map degenerates to a constant.
_THIN_SET_TOL = 1e-14
_POLE_TOL = 1e-14


@dataclass(frozen=True)
class Point3:
    """A point (a, b, t) of C^3 in tetrablock coordinates."""

    a: complex
    b: complex
    t: complex

    def __post_init__(self):
        for name in ("a", "b", "t"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"coordinate {name} is not finite")
            object.__setattr__(self, name, v)

    def swapped(self) -> "Point3":
        return Point3(self.b, self.a, self.t)

    def conjugated(self) -> "Point3":
        return Point3(self.a.conjugate(), self.b.conjugate(), self.t.conjugate())


@dataclass
class MembershipVerdict:
    """Result of a tetrablock membership test.

    boundary_marginal is set when the decision quantity sits within eq_tol
    of the open/closed threshold, in which case in_open is reported False
    and in_closure True.
    """

    in_open: bool
    in_closure: bool
    in_bE: bool
    sup_psi_ab: float
    sup_psi_ba: float
    witness: Optional[np.ndarray] = field(default=None, repr=False)
    boundary_marginal: bool = False


def psi_eval(z: complex, p: Point3) -> complex:
    """Evaluate Psi(z, p) = (a - z t)/(1 - z b); raises PoleError at poles."""
    z = complex(z)
    denom = 1.0 - z * p.b
    if abs(denom) < _POLE_TOL:
        raise PoleError(f"denominator 1 - z*b = {denom:.3e} at z = {z}")
    return (p.a - z * p.t) / denom


def sup_psi_circle(p: Point3) -> float:
    """Exact supremum of |Psi(z, p)| over the closed unit disk.

    Psi(., p) is a Mobius map of z; when a*b = t it degenerates to the
    constant a, and otherwise, for |b| < 1, it maps the closed disk onto a
    closed disk of center (a - t*conj(b)) / (1 - |b|^2) and radius
    |a*b - t| / (1 - |b|^2).  For |b| >= 1 the pole lies in the closed disk
    and the supremum is +inf.
    """
    det = p.a * p.b - p.t
    scale = 1.0 + abs(p.a) + abs(p.b) + abs(p.t)
    if abs(det) <= _THIN_SET_TOL * scale:
        return abs(p.a)
    if abs(p.b) >= 1.0:
        return math.inf
    denom = 1.0 - abs(p.b) ** 2
    center = (p.a - p.t * p.b.conjugate()) / denom
    radius = abs(det) / denom
    return abs(center) + radius


def min_completion_norm(p: Point3) -> float:
    """Minimal operator norm of a 2x2 matrix with diagonal (a, b), det t.

    Any completion has the form [[a, q], [r, b]] with q*r = a*b - t, and
    the norm-minimizing choice is |q| = |r| = sqrt|a*b - t|: this is the
    SVD norm of completion_witness(p), exact where its singular values meet
    (on bE).  The point lies in the closed (open) tetrablock iff this value
    is <= 1 (< 1).
    """
    return float(np.linalg.svd(completion_witness(p), compute_uv=False)[0])


def completion_witness(p: Point3) -> np.ndarray:
    """The norm-minimizing 2x2 completion [[a, q], [r, b]] with q*r = ab - t."""
    d = p.a * p.b - p.t
    if abs(d) == 0.0:
        q = r = 0.0 + 0.0j
    else:
        half = cmath.exp(0.5j * cmath.phase(d)) * math.sqrt(abs(d))
        q = r = half
    return np.array([[p.a, q], [r, p.b]], dtype=complex)


def _criterion(p: Point3, tol: Tolerances) -> tuple[bool, bool, bool, float]:
    """One orientation of the disk-supremum criterion.

    Returns (open, closed, marginal, sup).  The thin set a*b = t adds the
    clause |b| < 1 (<= 1 for the closure).
    """
    sup = sup_psi_circle(p)
    scale = 1.0 + abs(p.a) + abs(p.b) + abs(p.t)
    thin = abs(p.a * p.b - p.t) <= _THIN_SET_TOL * scale
    is_open = sup < 1.0
    is_closed = sup <= 1.0 + tol.eq_tol
    marginal = abs(sup - 1.0) <= tol.eq_tol if math.isfinite(sup) else False
    if thin:
        is_open = is_open and abs(p.b) < 1.0
        is_closed = is_closed and abs(p.b) <= 1.0 + tol.eq_tol
        marginal = marginal or abs(abs(p.b) - 1.0) <= tol.eq_tol
    if marginal:
        is_open = False
    return is_open, is_closed, marginal, sup


def in_tetrablock(p: Point3, tol: Tolerances = DEFAULT_TOL) -> MembershipVerdict:
    """Membership verdict for the open tetrablock and its closure.

    Both the (a, b, t) and the swapped (b, a, t) criteria are evaluated;
    they agree up to rounding, and disagreement is flagged as marginal.
    The distinguished boundary is decided once, by _bE_check, and lies in
    the closure and outside the open set; the disk criterion alone calls
    bE points with |b| = 1 + O(eq_tol) outside.  Off the thin set ab = t,
    |a| or |b| in [1, 1 + eq_tol] puts the pole of one orientation's Mobius
    map in the closed disk, and that supremum jumps to +inf; there the
    closure is decided by min_completion_norm(p) <= 1 + eq_tol.  When the
    point is in the closure and that norm passes, the norm-minimizing
    completion is attached as a witness.
    """
    open_ab, closed_ab, marg_ab, sup_ab = _criterion(p, tol)
    open_ba, closed_ba, marg_ba, sup_ba = _criterion(p.swapped(), tol)
    marginal = marg_ab or marg_ba or (open_ab != open_ba) or (closed_ab != closed_ba)
    bE = _bE_check(p, tol)
    in_open = open_ab and open_ba and not marginal and not bE
    in_closure = bE or (closed_ab and closed_ba)
    pole = math.inf in (sup_ab, sup_ba) and max(abs(p.a), abs(p.b)) <= tol.contraction_bound
    witness = None
    if in_closure or pole:
        fits = min_completion_norm(p) <= tol.contraction_bound
        in_closure = in_closure or fits
        witness = completion_witness(p) if fits else None
    return MembershipVerdict(
        in_open=in_open,
        in_closure=in_closure,
        in_bE=bE,
        sup_psi_ab=sup_ab,
        sup_psi_ba=sup_ba,
        witness=witness,
        boundary_marginal=marginal,
    )


def _bE_check(p: Point3, tol: Tolerances) -> bool:
    return (
        abs(abs(p.t) - 1.0) <= tol.eq_tol
        and abs(p.a - p.b.conjugate() * p.t) <= tol.eq_tol
        and abs(p.b) <= 1.0 + tol.eq_tol
    )


def in_distinguished_boundary(
    p: Point3, tol: Tolerances = DEFAULT_TOL
) -> MembershipVerdict:
    """Distinguished-boundary membership: |t| = 1, a = conj(b) t, |b| <= 1.

    The verdict of in_tetrablock, whose in_bE is this test, with its
    witness replaced: these are exactly the points whose 2x2 completion can
    be made unitary, and when the test passes an explicit unitary witness
    is constructed by splitting the phase of t over the off-diagonal
    entries (None otherwise).
    """
    verdict = in_tetrablock(p, tol)
    verdict.witness = None
    if verdict.in_bE:
        s = math.sqrt(max(1.0 - abs(p.b) ** 2, 0.0))
        half_phase = cmath.exp(0.5j * cmath.phase(p.t))
        verdict.witness = np.array(
            [[p.a, s * half_phase], [-s * half_phase, p.b]], dtype=complex
        )
    return verdict


def _sample_bE_array(count: int, seed: int) -> np.ndarray:
    """The points of sample_bE as rows (a, b, t) of a (count, 3) array."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    radii = np.sqrt(rng.uniform(0.0, 1.0, size=count))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    t_angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    b = radii * np.exp(1j * angles)
    t = np.exp(1j * t_angles)
    return np.stack([b.conj() * t, b, t], axis=1)


def sample_bE(count: int, seed: int) -> list[Point3]:
    """Deterministic sample of distinguished-boundary points.

    Draws b uniformly from the closed unit disk and t from the unit circle,
    and returns (conj(b) t, b, t); every output satisfies the boundary
    criterion by construction.  Wraps the array core _sample_bE_array.
    """
    return [Point3(*row) for row in _sample_bE_array(count, seed)]
