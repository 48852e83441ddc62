"""Douglas-type functional model, characteristic function, and data sets.

The model for a triple (A, B, T) with contractive T lives on the truncated
analytic space C^{(N+1) d} (d = dim of the defect of T*) plus a remainder
copy of the input space.  The embedding stacks the observability blocks
C* D_{T*} T^{*k}, k <= N, over the remainder T^{*(N+1)} (I - Q) + Q (Q the
projection onto the unitary part of T); the lift triple is block Toeplitz in
the adjoint fundamental pair (G1, G2) and (A, B, T) itself on the remainder,
coupled through the embedding's first block row, so X = Pi* V Pi exactly at
every order N.  Each lift operator is stored by its generators (LiftOperator)
and applied blockwise, so a model holds O((N+1) d n + n^2) numbers, not
O(((N+1) d)^2).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .classify import (
    _NORMS,
    DecompositionResult,
    OperatorTriple,
    QLimit,
    canonical_decomposition,
    compute_Q,
)
from .errors import (
    DimensionError,
    InconsistentInputError,
    InternalConsistencyError,
    NotAContractionError,
    PoleError,
    PreconditionError,
)
from .fundops import (
    _fundamental_pair,
    defect,
    is_special_pair,
    pencil_contractive,
)
from .matkernel import (
    DEFAULT_TOL,
    SubspaceBasis,
    Tolerances,
    as_matrix,
    psd_sqrt,
)
from .matkernel import _norm_or_zero as _nrm

__all__ = [
    "QLimit",
    "ResidualTriple",
    "LiftOperator",
    "DouglasModel",
    "TetrablockDataSet",
    "CoincidenceReport",
    "compute_Q",
    "residual_triple",
    "auto_order",
    "observability_embedding",
    "build_lift",
    "verify_lift",
    "lift_is_strict",
    "char_function",
    "theta_sample_points",
    "extract_data_set",
    "coincide",
    "validate_special_data_set",
    "omega_tau",
    "kernel_model_triple",
]

_MAX_ORDER = 512
_ORDER_TAIL_TARGET = 1e-10
_ORDER_BLOCK = 32  # auto_order's tails per batched norm
_CLUSTER_GAP = 1e-2  # coincide: relative singular-value gap below which D has a block


@dataclass
class ResidualTriple:
    """Canonical residual tetrablock unitary (R, S, W) in carrier coordinates.

    W is the unitary part of T; R and S are the matching compressions of A
    and B.  ``strict`` records whether R and S commute and are contractive,
    which upgrades the pseudo-commutative unitary to a strict one.
    """

    r: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    carrier: SubspaceBasis
    strict: bool
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.carrier.dim


@dataclass(frozen=True, eq=False)
class LiftOperator:
    """Block Toeplitz part and remainder block, stored by their generators.

    The Toeplitz part is lower bidiagonal with ``blocks`` block rows of
    size d: ``diag`` on the diagonal and ``sub`` below it.  V maps the last
    block into the n x n ``remainder`` block by link* sub, ``link`` (d x n)
    being the embedding's first block row C* D_{T*}.  Arguments of matvec
    and rmatvec are arrays whose first axis has blocks * d + n rows.
    """

    diag: np.ndarray = field(repr=False)
    sub: np.ndarray = field(repr=False)
    blocks: int
    remainder: np.ndarray = field(repr=False)
    link: np.ndarray = field(repr=False)

    def _apply(self, x, diag, sub, remainder, coupling, lower: bool) -> np.ndarray:
        """Product with the given blocks; ``lower`` puts ``sub`` below the
        diagonal and ``coupling`` below the last block (V), else above (V*)."""
        flat = np.reshape(x, (len(x), int(np.prod(np.shape(x)[1:]))))
        m = self.blocks * diag.shape[0]
        top = flat[:m].reshape(self.blocks, diag.shape[0], flat.shape[1])
        out, rest = diag @ top, remainder @ flat[m:]
        if lower:
            out[1:] += sub @ top[:-1]
            rest = rest + coupling @ top[-1]
        else:
            out[:-1] += sub @ top[1:]
            out[-1] += coupling @ flat[m:]
        return np.concatenate([out.reshape(m, flat.shape[1]), rest]).reshape(np.shape(x))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """V x: block k is diag x_k + sub x_{k-1}; the remainder adds link* sub x_N."""
        coupling = self.link.conj().T @ self.sub
        return self._apply(x, self.diag, self.sub, self.remainder, coupling, True)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """V* y: block k is diag* y_k + sub* y_{k+1}, plus sub* link y_r at k = N."""
        adj = [m.conj().T for m in (self.diag, self.sub, self.remainder)]
        return self._apply(y, *adj, adj[1] @ self.link, False)

    def dense(self) -> np.ndarray:
        """The matrix itself, ((blocks d + n) x (blocks d + n))."""
        return self.matvec(np.eye(self.blocks * self.diag.shape[0] + self.remainder.shape[0]))

    @property
    def nbytes(self) -> int:
        """Bytes held by the generators."""
        return self.diag.nbytes + self.sub.nbytes + self.remainder.nbytes + self.link.nbytes


@dataclass
class DouglasModel:
    """Truncated functional model with its lift triple.

    v1, v2 and v3 are LiftOperators; ``.dense()`` gives one as a matrix.
    ``special`` is the special-pair flag of (G1, G2), decided with them.
    ``tail`` is ||D_{T*} T^{*(N+1)}||, which sets the order, and ``deficiency``
    ||T^{N+1} T^{*(N+1)} - Q||, the distance to the E-isometric model.
    """

    order_n: int
    defect_dim: int
    g1: np.ndarray = field(repr=False)
    g2: np.ndarray = field(repr=False)
    embedding: np.ndarray = field(repr=False)
    v1: LiftOperator
    v2: LiftOperator
    v3: LiftOperator
    residual: ResidualTriple
    special: bool
    tail: float
    deficiency: float
    warnings: list[str] = field(default_factory=list)


@dataclass
class TetrablockDataSet:
    """Sampled characteristic data: (Theta samples, (G1, G2), residual).

    theta_samples is a list of (z, matrix) pairs with matrices mapping the
    defect of T into the defect of T*; pure_flag records whether the sample
    at z = 0 is a strict contraction on the whole input defect.
    """

    theta_samples: list[tuple[complex, np.ndarray]]
    g1: np.ndarray = field(repr=False)
    g2: np.ndarray = field(repr=False)
    residual: ResidualTriple
    pure_flag: bool

    def __post_init__(self):
        shapes = {m.shape for _, m in self.theta_samples}
        if len(shapes) > 1:
            raise DimensionError(f"inconsistent Theta sample shapes: {shapes}")

    @property
    def defect_dims(self) -> tuple[int, int]:
        """(dim of input defect, dim of output defect)."""
        if not self.theta_samples:
            return (0, self.g1.shape[0])
        out_d, in_d = self.theta_samples[0][1].shape
        return (in_d, out_d)


@dataclass
class CoincidenceReport:
    coincide: bool
    phi: Optional[np.ndarray] = field(default=None, repr=False)
    phi_star: Optional[np.ndarray] = field(default=None, repr=False)
    omega: Optional[np.ndarray] = field(default=None, repr=False)
    residuals: dict[str, float] = field(default_factory=dict)
    undecided: bool = False
    note: str = ""


def residual_triple(
    triple: OperatorTriple, tol: Tolerances = DEFAULT_TOL
) -> ResidualTriple:
    """Compress (A, B, T) to the unitary part of T.

    The unitary part is canonical_decomposition's H_u, the carrier of
    compute_Q's projection; W is the compression of T to it, and R, S
    those of A, B.  W must come out unitary (a failure means the input was
    not a tetrablock contraction).  The strict flag is set when R, S commute
    and are contractions.
    """
    return _residual_part(triple, canonical_decomposition(triple, tol), tol)


def _residual_part(
    triple: OperatorTriple, dec: DecompositionResult, tol: Tolerances
) -> ResidualTriple:
    """The residual triple of one decomposition: its residuals are the norm
    table of the unitary part (R, S, W) and the decomposition's reduction
    residuals."""
    basis = dec.h_u
    if basis.dim == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return ResidualTriple(empty, empty, empty, basis, True, {"q_rank": 0.0})
    part = dec.unitary_part
    res = {
        "w_isometry": part._norm("isometry_t"),
        "w_coisometry": part._norm("coisometry_t"),
        "pc_rw": part._norm("comm_at"),
        "pc_sw": part._norm("comm_bt"),
        "pc_r_eq_sstar_w": part._norm("a_minus_bstar_t"),
        "invariance_a": dec.residuals["reduce_a"],
        "invariance_b": dec.residuals["reduce_b"],
    }
    bound = tol.eq_tol * triple.scale_norm()
    if max(res["w_isometry"], res["w_coisometry"]) > bound:
        raise InconsistentInputError(
            f"residual compression of T is not unitary: {res}"
        )
    strict = part._norm("comm_ab") <= bound and part._holds(("norm_a", "norm_b"), tol)
    return ResidualTriple(part.a, part.b, part.t, basis, strict, res)


def auto_order(t_mat, tol: Tolerances = DEFAULT_TOL) -> tuple[int, bool]:
    """Smallest truncation order with tail <= 1e-10, capped at 512.

    Returns (order, capped); the cap is reported, not silently absorbed,
    because a capped model's tail and deficiency stay above the target.
    """
    t = as_matrix(t_mat, square=True, name="T")
    d_op, d_carrier = defect(t, adjoint=True, tol=tol)
    return _observability_rows(t, d_op, d_carrier)[2:]


def observability_embedding(
    triple: OperatorTriple, n_order: int, tol: Tolerances = DEFAULT_TOL
):
    """Stack the observability blocks over the remainder (_embedding).

    Returns (embedding, tail, defect_carrier, q_limit).  The embedding has
    shape ((N+1) d + n, n) and is an isometry at every order.
    """
    ql = compute_Q(triple.t, tol)
    d_op, d_carrier = defect(triple.t, adjoint=True, tol=tol)
    pi, tail = _embedding(triple.t, d_op, d_carrier, ql.carrier, n_order)[:2]
    return pi, tail, d_carrier, ql


def _embedding(t, d_op, d_carrier: SubspaceBasis, unitary: SubspaceBasis, n_order):
    """(Pi, tail, order, capped, ||T^(N+1) T*^(N+1) - Q||): _observability_rows
    over the remainder T*^(N+1) (I - Q) + Q, Q the projection on ``unitary``.
    As D_{T*}^2 = I - T T* telescopes, the rows give I - T^(N+1) T*^(N+1); Q
    reduces T, unitary on it, so the remainder makes Pi* Pi = I at every order.
    """
    rows, tail, order, capped = _observability_rows(t, d_op, d_carrier, n_order)
    q = unitary.basis @ unitary.basis.conj().T
    power = np.linalg.matrix_power(t.conj().T, order + 1)
    rows.append(power @ (np.eye(len(t)) - q) + q)
    return np.vstack(rows), tail, order, capped, _nrm(power.conj().T @ power - q)


def _observability_rows(
    t: np.ndarray, d_op: np.ndarray, d_carrier: SubspaceBasis, n_order: Optional[int] = None
):
    """(rows, tail, order, capped): the blocks R_k = C* D_{T*} T*^k for
    k <= order, C the carrier of D_{T*}, and the tail of that order.

    The tail of order k is ||D_{T*} T*^(k+1)|| = ||R_{k+1}||, since
    D_{T*} = C C* D_{T*}.  Without n_order, the order is the first one whose
    tail meets _ORDER_TAIL_TARGET: the rows are extended _ORDER_BLOCK at a
    time and their tails taken in one batched norm (the tail need not be
    monotone, so nothing is skipped), up to the cap _MAX_ORDER.
    """
    if n_order is not None and n_order < 0:
        raise PreconditionError("truncation order must be nonnegative")
    tstar = t.conj().T
    rows = [d_carrier.basis.conj().T @ d_op]
    capped = False

    def extend(count: int) -> None:
        for _ in range(count):
            rows.append(rows[-1] @ tstar)

    if n_order is None:
        for first in range(0, _MAX_ORDER, _ORDER_BLOCK):
            extend(min(_ORDER_BLOCK, _MAX_ORDER - first))
            # An empty defect has no singular values; its tails are 0.
            tails = np.linalg.svd(np.stack(rows[first + 1:]), compute_uv=False)
            tails = tails.max(axis=1, initial=0.0)
            hits = np.flatnonzero(tails <= _ORDER_TAIL_TARGET)
            if hits.size:
                order = first + int(hits[0])
                return rows[: order + 1], float(tails[hits[0]]), order, False
        n_order, capped = _MAX_ORDER, True
    extend(n_order + 2 - len(rows))
    return rows[: n_order + 1], _nrm(rows[n_order + 1]), n_order, capped


def build_lift(
    triple: OperatorTriple,
    n_order: Optional[int] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> DouglasModel:
    """Assemble the truncated model and its lift triple.

    v3 is the truncated block shift, and v1 and v2 the block-Toeplitz
    truncations of the multiplication operators with symbols G1* + z G2 and
    G2* + z G1; each carries T, A or B on the remainder, with the
    embedding's first block row as its link.  All three are LiftOperators.
    D_{T*} is computed once, for both the order search and the embedding,
    and the residual triple's carrier gives Q.
    """
    d_op, d_carrier = defect(triple.t, adjoint=True, tol=tol)
    g1, g2, _ = _fundamental_pair(triple, True, d_op, d_carrier, tol)
    rt = residual_triple(triple, tol)
    pi, tail, n_order, capped, deficiency = _embedding(
        triple.t, d_op, d_carrier, rt.carrier, n_order
    )
    warnings = [f"truncation order capped at {_MAX_ORDER}; tail target not met"] if capped else []
    d = d_carrier.dim
    blocks = n_order + 1

    v3 = LiftOperator(np.zeros((d, d), dtype=complex), np.eye(d), blocks, triple.t, pi[:d])
    v1 = LiftOperator(g1.conj().T, g2, blocks, triple.a, pi[:d])
    v2 = LiftOperator(g2.conj().T, g1, blocks, triple.b, pi[:d])
    return DouglasModel(
        order_n=n_order,
        defect_dim=d,
        g1=g1,
        g2=g2,
        embedding=pi,
        v1=v1,
        v2=v2,
        v3=v3,
        residual=rt,
        special=is_special_pair(g1, g2, tol)[0],
        tail=tail,
        deficiency=deficiency,
        warnings=warnings,
    )


def verify_lift(
    model: DouglasModel, triple: OperatorTriple, tol: Tolerances = DEFAULT_TOL
) -> dict[str, float]:
    """Intertwining and compression-recovery residuals of a built model.

    The model is exact at every order, Vi* Pi = Pi Xi* and Pi* Pi = I, so
    the intertwining residuals ||Vi* Pi - Pi Xi*|| and the recovery
    residuals ||Pi* Vi Pi - Xi|| are at rounding level; each is checked
    against c * tail + eq_tol with c = 2 (1 + ||G1|| + ||G2||).  Vi* Pi and
    Vi Pi are applied blockwise, never as dense matrices.
    """
    pi = model.embedding
    out = {}
    for name, v, x in (
        ("a", model.v1, triple.a),
        ("b", model.v2, triple.b),
        ("t", model.v3, triple.t),
    ):
        out[f"intertwine_{name}"] = _nrm(v.rmatvec(pi) - pi @ x.conj().T)
        out[f"recover_{name}"] = _nrm(pi.conj().T @ v.matvec(pi) - x)
    out["bound"] = (
        2.0 * (1.0 + _nrm(model.g1) + _nrm(model.g2)) * model.tail + tol.eq_tol
    )
    return out


def lift_is_strict(model: DouglasModel) -> bool:
    """Strictness of the lift: special (G1, G2) and a strict residual part."""
    return model.special and model.residual.strict


def _defect_carriers(t: np.ndarray, tol: Tolerances):
    d_in, c_in = defect(t, adjoint=False, tol=tol)
    d_out, c_out = defect(t, adjoint=True, tol=tol)
    return d_in, c_in, d_out, c_out


def _theta_stack(t: np.ndarray, zs: Sequence[complex], carriers) -> np.ndarray:
    """Theta at every point of zs as one (Z, out, in) stack: one pencil
    stack, one batched pole test and solve, one compression."""
    d_in, c_in, d_out, c_out = carriers
    n = t.shape[0]
    zs = np.asarray(zs, dtype=complex)
    pencils = np.eye(n) - zs[:, None, None] * t.conj().T
    if n:
        small = np.linalg.svd(pencils, compute_uv=False)[:, -1]
        singular = small < 1e-12 * (1.0 + np.abs(zs) * _nrm(t))
        if singular.any():
            raise PoleError(f"resolvent singular at z = {complex(zs[np.argmax(singular)])}")
    core = -t + zs[:, None, None] * (d_out @ np.linalg.solve(pencils, d_in))
    return c_out.basis.conj().T @ core @ c_in.basis


def char_function(
    t_mat,
    z: complex,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Characteristic function sample Theta(z) : defect(T) -> defect(T*).

    Uses the resolvent form -T + z D_{T*} (I - z T*)^{-1} D_T compressed to
    the defect carriers (for a scalar t this is the Mobius map
    (z - t)/(1 - conj(t) z)).  A singular resolvent raises PoleError.
    Wraps the stacked core _theta_stack for a single z.
    """
    t = as_matrix(t_mat, square=True, name="T")
    return _theta_stack(t, [complex(z)], _defect_carriers(t, tol))[0]


def theta_sample_points(interior: int, boundary: int) -> list[complex]:
    """Sampling grid: z = 0, an interior circle of radius 0.95, and the
    unit circle."""
    pts: list[complex] = [0.0 + 0.0j]
    pts += [0.95 * cmath.exp(2j * cmath.pi * k / interior) for k in range(interior)]
    pts += [cmath.exp(2j * cmath.pi * k / boundary) for k in range(boundary)]
    return pts


def extract_data_set(
    triple: OperatorTriple,
    grid: int,
    tol: Tolerances = DEFAULT_TOL,
    boundary: Optional[int] = None,
) -> TetrablockDataSet:
    """Characteristic data set of a triple, in defect-carrier coordinates.

    The unitary part of T carries the residual triple; Theta and the
    fundamental pair are computed from the completely non-unitary part
    (whose boundary samples are always regular in finite dimensions).
    """
    if grid < 1:
        raise PreconditionError("grid must be positive")
    if boundary is not None and boundary < 0:
        raise PreconditionError(f"boundary must be nonnegative, got {boundary}")
    if not triple._holds(_NORMS, tol):
        raise NotAContractionError(f"A, B and T must be contractions: {triple._norms(*_NORMS)}")
    boundary = 2 * grid if boundary is None else boundary
    dec = canonical_decomposition(triple, tol)
    rt = _residual_part(triple, dec, tol)
    work = dec.cnu_part if rt.dim else triple
    points = theta_sample_points(grid, boundary)
    carriers = _defect_carriers(work.t, tol)
    samples = list(zip(points, _theta_stack(work.t, points, carriers)))
    g1, g2, _ = _fundamental_pair(work, True, *carriers[2:], tol)
    theta0 = samples[0][1]
    pure = theta0.shape[1] == 0 or _nrm(theta0) < 1.0 - tol.eq_tol
    return TetrablockDataSet(samples, g1, g2, rt, pure)


def _match_samples(d1: TetrablockDataSet, d2: TetrablockDataSet):
    lookup = {}
    for z, m in d2.theta_samples:
        lookup[(round(z.real, 10), round(z.imag, 10))] = m
    pairs = []
    for z, m in d1.theta_samples:
        key = (round(z.real, 10), round(z.imag, 10))
        if key in lookup:
            pairs.append((m, lookup[key]))
    return pairs


def _max_nrm(stack: np.ndarray) -> float:
    """Largest operator norm in a (P, rows, cols) stack; 0.0 if it is empty."""
    return float(np.max(np.linalg.svd(stack, compute_uv=False)[:, 0])) if stack.size else 0.0


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _unitary_candidates(
    system: np.ndarray, shapes: Sequence[tuple[int, int]]
) -> list[list[np.ndarray]]:
    """Polar-corrected unitary candidates from a homogeneous system.

    The system acts on the column-major vecs of unknown blocks of the given
    shapes, stacked in order.  Candidates are the last right singular vector
    and eight seeded combinations of the near-null basis, which for a wide
    system includes the directions beyond its rows; each block is
    polar-corrected, and a candidate with a numerically singular block is
    dropped.  Callers verify each candidate.
    """
    # A tall system's economy vh is already square, so U is skipped; a wide
    # system needs the full vh, whose rows beyond its own carry null directions.
    _, svals, vh = np.linalg.svd(system, full_matrices=system.shape[0] < system.shape[1])
    right = vh.conj()  # rows of vh are conjugated right singular vectors
    vectors = [right[-1]]
    rank = int(np.sum(svals > 1e-7 * max(1.0, svals[0]))) if svals.size else 0
    basis = right[rank:]
    if len(basis) > 1:
        rng = np.random.default_rng(11)
        for _ in range(8):
            coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            vectors.append(coeffs @ basis)
    candidates = []
    # A real system gives a real first vector; it keeps its own (real) stack.
    for _, group in itertools.groupby(vectors, key=lambda vec: vec.dtype):
        candidates += _polar_blocks(np.array(list(group)), shapes)
    return candidates


def _polar_blocks(vectors: np.ndarray, shapes) -> list[list[np.ndarray]]:
    """Split each row of vectors into column-major blocks of the given
    shapes and polar-correct them; a row with a numerically singular block
    is dropped.  One batched SVD per shape gives both the singular-value
    test and the polar factor."""
    pieces = np.split(vectors, np.cumsum([rows * cols for rows, cols in shapes])[:-1], axis=1)
    blocks = [None] * len(shapes)
    keep = np.ones(len(vectors), dtype=bool)
    for rows, cols in dict.fromkeys(shapes):
        where = [k for k, shape in enumerate(shapes) if shape == (rows, cols)]
        stack = np.stack([pieces[k] for k in where], axis=1)
        stack = stack.reshape(len(vectors), len(where), cols, rows).swapaxes(-1, -2)
        if rows and cols:
            u, s, w = np.linalg.svd(stack, full_matrices=False)
            keep &= ~np.any(s[..., -1] < 1e-8, axis=1)
            stack = u @ w
        for j, k in enumerate(where):
            blocks[k] = stack[:, j]
    return [[b[v] for b in blocks] for v in np.flatnonzero(keep)]


def _defect_residuals(phi, phi_star, m1s, m2s, d1, d2) -> tuple[float, float]:
    """Verified residuals of (phi, phi_star): the worst matched sample, then
    the worse of the two fundamental operators."""
    t_res = _max_nrm(phi_star @ m1s - m2s @ phi)
    f_res = max(
        _nrm(phi_star @ d1.g1 - d2.g1 @ phi_star),
        _nrm(phi_star @ d1.g2 - d2.g2 @ phi_star),
    )
    return t_res, f_res


def _phase_coincidence(m1s, m2s, d1, d2, bound: float):
    """(phi, phi_star, theta residual, fundamental residual) from a phase
    system in the singular-vector basis of one sample, or None when this
    route does not apply.

    Unitaries keep singular values, so where Theta1 = U1 S V1* has simple,
    nonzero singular values, every coincidence is phi = V2 D V1* and
    phi_star = U2 D U1* with D diagonal unitary and Theta2 = U2 S V2* at the
    same point.  In those bases each sample and both G's give the rows
    (D X1 - X2 D)_ij = 0.  Singular vectors are only computed to about
    eps ||Theta|| / gap, so singular values closer than _CLUSTER_GAP ||Theta||
    share one unitary block of D, which absorbs that rotation; the other
    blocks are phases.  Among the samples whose singular values are simple
    and nonzero (every gap, and the smallest value, above bound), the
    reference is the one with the fewest unknowns, then the largest gap.
    The first candidate verified within bound is returned.  None (non-square
    or empty stacks, no such sample, singular values that differ, no
    verified candidate) leaves the decision to the Kronecker system.
    """
    p, out, inn = m1s.shape
    if not (p and inn) or out != inn:
        return None
    svals = np.linalg.svd(m1s, compute_uv=False)
    steps = svals[:, :-1] - svals[:, 1:]
    gaps = np.min(np.concatenate([steps, svals[:, -1:]], axis=1), axis=1)
    cluster = np.cumsum(np.c_[np.zeros(p, bool), steps >= _CLUSTER_GAP * svals[:, :1]], axis=1)
    unknowns = np.sum(cluster[:, :, None] == cluster[:, None, :], axis=(1, 2))
    usable = np.flatnonzero(gaps > bound)
    if not usable.size:
        return None
    ref = usable[np.lexsort((-gaps[usable], unknowns[usable]))[0]]
    u1, s1, v1h = np.linalg.svd(m1s[ref])
    u2, s2, v2h = np.linalg.svd(m2s[ref])
    if np.max(np.abs(s1 - s2)) > bound:
        return None
    gs1 = np.stack([d1.g1, d1.g2])
    gs2 = np.stack([d2.g1, d2.g2])
    x1 = np.concatenate([u1.conj().T @ m1s @ v1h.conj().T, u1.conj().T @ gs1 @ u1])
    x2 = np.concatenate([u2.conj().T @ m2s @ v2h.conj().T, u2.conj().T @ gs2 @ u2])
    # Unknowns D[a_k, b_k] over the blocks in order, each column-major.
    _, starts, sizes = np.unique(cluster[ref], return_index=True, return_counts=True)
    b, a = np.nonzero(cluster[ref][:, None] == cluster[ref])
    k = np.arange(len(a))
    system = np.zeros((len(x1), inn, inn, len(a)), dtype=complex)
    system[:, a, :, k] = x1[:, b, :].transpose(1, 0, 2)  # (D X1)_aj has D_ab X1_bj
    system[:, :, b, k] -= x2[:, :, a]  # (X2 D)_ib has X2_ia D_ab
    shapes = [(c, c) for c in sizes]
    for blocks in _unitary_candidates(system.reshape(-1, len(a)), shapes):
        d = np.zeros((inn, inn), dtype=complex)
        for start, size, block in zip(starts, sizes, blocks):
            d[start:start + size, start:start + size] = block
        phi = v2h.conj().T @ d @ v1h
        phi_star = u2 @ d @ u1.conj().T
        t_res, f_res = _defect_residuals(phi, phi_star, m1s, m2s, d1, d2)
        if max(t_res, f_res) <= bound:
            return phi, phi_star, t_res, f_res
    return None


def _kronecker_coincidence(m1s, m2s, d1, d2):
    """(phi, phi_star, theta residual, fundamental residual) with the least
    verified residual among the candidates of the full Kronecker system in
    vec(phi) (in x in) and vec(phi_star) (out x out); phi is None, and both
    residuals infinite, when no candidate survives.  It has P in out +
    2 out^2 rows and in^2 + out^2 columns, so its SVD costs O(P n^6).
    """
    _, out, inn = m1s.shape
    if inn == 0 and out == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return empty, empty, 0.0, 0.0
    # Row blocks [-(I kron m2_p) | (m1_p^T kron I)] for all samples p; they
    # act on vec(phi) and vec(phi_star), column-major.
    rows = len(m1s) * inn * out
    on_phi = -np.einsum("ij,pab->piajb", np.eye(inn), m2s).reshape(rows, inn * inn)
    on_star = np.einsum("pji,ab->piajb", m1s, np.eye(out)).reshape(rows, out * out)
    blocks = [np.hstack([on_phi, on_star])]
    for g_a, g_b in ((d1.g1, d2.g1), (d1.g2, d2.g2)):
        blocks.append(
            np.hstack(
                [
                    np.zeros((out * out, inn * inn)),
                    np.kron(g_a.T, np.eye(out)) - np.kron(np.eye(out), g_b),
                ]
            )
        )
    best = (None, None, math.inf, math.inf)
    for phi, phi_star in _unitary_candidates(np.vstack(blocks), [(inn, inn), (out, out)]):
        t_res, f_res = _defect_residuals(phi, phi_star, m1s, m2s, d1, d2)
        if max(t_res, f_res) < max(best[2:]):
            best = (phi, phi_star, t_res, f_res)
    return best


def coincide(
    d1: TetrablockDataSet, d2: TetrablockDataSet, tol: Tolerances = DEFAULT_TOL
) -> CoincidenceReport:
    """Decide coincidence of two data sets up to defect-space unitaries.

    Searches for unitaries (phi, phi_star) intertwining all matched Theta
    samples and the fundamental pairs, and an independent unitary omega
    intertwining the residual triples; all candidates come from a
    least-squares nullspace with polar correction and are re-verified.
    The matched samples are stacked once.  When omega verifies, (phi,
    phi_star) is first sought in the singular-vector basis of one sample of
    Theta1 with simple, nonzero singular values, where it is V2 D V1* and
    U2 D U1* with D diagonal unitary (a unitary block for singular values
    too close for their vectors to be accurate): one system in about n
    unknowns, O(P n^4) for P samples.  Non-square or empty stacks, no such
    sample, singular values of Theta1 and Theta2 that differ there, or no
    candidate verified within tol fall back to the Kronecker system in
    vec(phi) and vec(phi_star), O(P n^6), which alone gives every negative
    or undecided verdict.  A negative verdict carries residuals; residuals
    between tol and sqrt(tol) are flagged undecided.  Residual-space
    coordinates are only determined up to a fixed unitary, so omega is
    searched, not induced.
    """
    in1, out1 = d1.defect_dims
    in2, out2 = d2.defect_dims
    report = CoincidenceReport(False)
    if (in1, out1) != (in2, out2) or d1.residual.dim != d2.residual.dim:
        report.note = "dimension mismatch"
        return report
    pairs = _match_samples(d1, d2)
    if d1.theta_samples and len(pairs) < min(3, len(d1.theta_samples)):
        report.note = "sample grids do not overlap"
        return report

    m1s = np.array([m1 for m1, _ in pairs]).reshape(len(pairs), out1, in1)
    m2s = np.array([m2 for _, m2 in pairs]).reshape(len(pairs), out2, in2)
    scale = 1.0 + max(_max_nrm(m1s), _nrm(d1.g1), _nrm(d1.g2), _nrm(d2.g1), _nrm(d2.g2))
    bound = tol.eq_tol * scale

    omega = np.zeros((0, 0), dtype=complex)
    res_res = 0.0
    rdim = d1.residual.dim
    if rdim:
        res_pairs = [
            (d1.residual.r, d2.residual.r),
            (d1.residual.s, d2.residual.s),
            (d1.residual.w, d2.residual.w),
        ]
        eye = np.eye(rdim)
        system = np.vstack([np.kron(x.T, eye) - np.kron(eye, y) for x, y in res_pairs])
        omega, res_res = None, math.inf
        for (cand,) in _unitary_candidates(system, [(rdim, rdim)]):
            res = max(_nrm(cand @ x - y @ cand) for x, y in res_pairs)
            if res < res_res:
                omega, res_res = cand, res

    found = _phase_coincidence(m1s, m2s, d1, d2, bound) if res_res <= bound else None
    phi, phi_star, theta_res, fund_res = found or _kronecker_coincidence(m1s, m2s, d1, d2)
    report.residuals["theta"] = theta_res
    report.residuals["fundamental"] = fund_res
    report.residuals["residual"] = res_res
    if omega is None:
        report.note = "no unitary intertwines the residual triples"
        return report

    worst = max(theta_res, fund_res, res_res)
    report.phi, report.phi_star, report.omega = phi, phi_star, omega
    if worst <= bound:
        report.coincide = True
    elif worst <= math.sqrt(tol.eq_tol) * scale:
        report.undecided = True
        report.note = "residuals between tol and sqrt(tol); verdict unreliable"
    return report


def _boundary_grid(d: TetrablockDataSet, modes: int):
    """Extract the 2*modes equispaced boundary samples, sorted by angle."""
    m = 2 * modes
    boundary = [
        (z, mat) for z, mat in d.theta_samples if abs(abs(z) - 1.0) <= 1e-9
    ]
    if len(boundary) < m:
        raise PreconditionError(
            f"need {m} boundary samples for {modes} Fourier modes, "
            f"found {len(boundary)}"
        )
    boundary.sort(key=lambda p: cmath.phase(p[0]) % (2.0 * math.pi))
    if len(boundary) != m:
        raise PreconditionError(
            f"boundary grid must be exactly 2*fourier_modes = {m} points"
        )
    for j, (z, _) in enumerate(boundary):
        want = cmath.exp(2j * math.pi * j / m)
        if abs(z - want) > 1e-8:
            raise PreconditionError("boundary samples are not an equispaced grid")
    return boundary


def validate_special_data_set(
    d: TetrablockDataSet, fourier_modes: int, tol: Tolerances = DEFAULT_TOL
) -> dict:
    """Check the two defining conditions of a special data set.

    (i) the pair (G1, G2) commutes, balances its self-commutators and has
    a contractive pencil; (ii) the graph of [Theta; D_Theta] over analytic
    polynomials of degree <= fourier_modes is invariant under the three
    lift operators, measured against the graph enlarged by one guard mode
    (a degree-1 pencil raises the mode index by at most one, so leakage is
    fully visible there).

    D_Theta at each boundary point is kept as the rows sqrt(w) v* of the
    eigenpairs of I - Theta*Theta that pass the one rank cut of every
    defect, tol.defect_support, stacked grid-major like the residual
    carrier.  The graph up to the guard degree is one matrix with columns
    z^k [Theta; D_Theta] e_i; its Householder QR gives the enlarged basis,
    whose leading (fourier_modes + 1) d_in columns are the graph basis.
    """
    if fourier_modes < 0:
        raise PreconditionError(f"fourier_modes must be nonnegative, got {fourier_modes}")
    # (i) needs ||G1||, ||G2|| <= 1: G1* and G2 are circle means of G1* + z G2
    # and conj(z) (G1* + z G2).  Beyond it pencil_sup is that lower bound.
    norm_g = max(_nrm(d.g1), _nrm(d.g2))
    passes_i, special_res, pencil_sup = False, {}, norm_g
    if norm_g <= tol.contraction_bound:
        special, special_res = is_special_pair(d.g1, d.g2, tol)
        pencil_ok, pencil_sup = pencil_contractive(d.g1, d.g2, tol)
        passes_i = special and pencil_ok

    boundary = _boundary_grid(d, fourier_modes)
    m = len(boundary)
    din, dout = d.defect_dims
    zs = np.array([z for z, _ in boundary])
    thetas = np.stack([mat for _, mat in boundary])

    w, v = np.linalg.eigh(np.eye(din) - thetas.conj().transpose(0, 2, 1) @ thetas)
    keep = tol.defect_support(w)
    defect_rows = np.sqrt(w[keep])[:, None] * v.conj().transpose(0, 2, 1)[keep]
    rank = len(defect_rows)
    if d.residual.dim != rank:
        raise PreconditionError(
            f"residual carrier dim {d.residual.dim} does not match boundary "
            f"defect rank {rank}"
        )
    worst = 0.0
    if din:
        powers = zs[:, None] ** np.arange(fourier_modes + 2)
        top = powers[:, None, :, None] * thetas[:, :, None, :]
        bottom = powers[np.nonzero(keep)[0], :, None] * defect_rows[:, None, :]
        cols = (fourier_modes + 2) * din
        q, _ = np.linalg.qr(np.vstack([top.reshape(m * dout, cols), bottom.reshape(rank, cols)]))
        basis = q[:, : (fourier_modes + 1) * din]
        p = basis.shape[1]
        # Symbols G1* + z G2, G2* + z G1 and z on the top rows; R, S, W below.
        consts = np.stack([d.g1.conj().T, d.g2.conj().T, np.zeros((dout, dout))])
        slopes = np.stack([d.g2, d.g1, np.eye(dout)])
        symbols = consts[:, None] + zs[:, None, None] * slopes[:, None]
        res = d.residual
        bottoms = np.stack([res.r, res.s, res.w]) if rank else np.zeros((3, 0, 0))
        images = np.concatenate(
            [
                (symbols @ basis[: m * dout].reshape(m, dout, p)).reshape(3, m * dout, p),
                bottoms @ basis[m * dout:],
            ],
            axis=1,
        )
        worst = float(np.max(np.linalg.norm(images - q @ (q.conj().T @ images), axis=1)))

    scale = 1.0 + max(norm_g, 1.0)
    passes_ii = worst <= 100.0 * tol.eq_tol * scale
    return {
        "passes_i": passes_i,
        "passes_ii": passes_ii,
        "passes": passes_i and passes_ii,
        "pencil_sup": pencil_sup,
        "invariance_residual": worst,
        "residuals": special_res,
    }


def omega_tau(
    triple: OperatorTriple,
    triple2: OperatorTriple,
    tau,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Residual-space unitary induced by an intertwiner of two triples.

    Given tau with tau (A, B, T) = (A', B', T') tau, tau maps the unitary
    part of T onto that of T', so omega is the polar factor of C2* tau C1,
    C1 and C2 the residual carriers; it is verified to intertwine the
    residual triples.
    """
    tau = as_matrix(tau, square=True, name="tau")
    scale = triple.scale_norm()
    eye = np.eye(tau.shape[0])
    if _nrm(tau.conj().T @ tau - eye) > 10.0 * tol.eq_tol:
        raise PreconditionError("tau must be unitary")
    for name, m1, m2 in (
        ("a", triple.a, triple2.a),
        ("b", triple.b, triple2.b),
        ("t", triple.t, triple2.t),
    ):
        res = _nrm(tau @ m1 - m2 @ tau)
        if res > 10.0 * tol.eq_tol * scale:
            raise PreconditionError(
                f"tau does not intertwine component {name} (residual {res:.3e})"
            )
    rt1 = residual_triple(triple, tol)
    rt2 = residual_triple(triple2, tol)
    if rt1.dim != rt2.dim:
        raise InconsistentInputError(
            f"residual dimensions differ: {rt1.dim} vs {rt2.dim}"
        )
    omega = _polar_unitary(rt2.carrier.basis.conj().T @ tau @ rt1.carrier.basis)
    bound = 100.0 * tol.eq_tol * scale
    res = {
        "r": _nrm(omega @ rt1.r - rt2.r @ omega),
        "s": _nrm(omega @ rt1.s - rt2.s @ omega),
        "w": _nrm(omega @ rt1.w - rt2.w @ omega),
    }
    if max(res.values()) > bound:
        raise InternalConsistencyError(
            f"omega_tau failed to intertwine the residual triples: {res}"
        )
    return omega


def kernel_model_triple(
    zeros: Sequence[complex], g1: complex, g2: complex
) -> OperatorTriple:
    """Model triple of a scalar inner function with the given zeros.

    The complement of Theta H^2 in H^2 for a finite Blaschke product is
    spanned by the reproducing kernels at the zeros; the compressed shift
    is computed exactly in that basis (Gram matrix 1/(1 - conj(a_j) a_i)),
    and the pencil compressions are ``conj(g1) I + g2 T`` and
    ``conj(g2) I + g1 T`` because compression is linear in a degree-one
    symbol.
    """
    alphas = np.asarray(list(zeros), dtype=complex)
    q = alphas.size
    if q == 0:
        raise PreconditionError("need at least one zero")
    if np.any(np.abs(alphas) >= 1.0):
        raise PreconditionError("zeros must lie in the open unit disk")
    gram = 1.0 / (1.0 - np.conj(alphas)[None, :] * alphas[:, None])
    # T* is diagonal in the kernel basis; move it to orthonormal coordinates.
    sqrt_g = psd_sqrt(gram)
    inv_sqrt = np.linalg.inv(sqrt_g)
    t_star = sqrt_g @ np.diag(np.conj(alphas)) @ inv_sqrt
    t = t_star.conj().T
    a = np.conj(g1) * np.eye(q) + g2 * t
    b = np.conj(g2) * np.eye(q) + g1 * t
    return OperatorTriple(a, b, t)
