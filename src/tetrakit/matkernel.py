"""Dense complex-matrix primitives with explicit tolerance contracts.

Matrices are plain 2-D ``numpy.ndarray`` values of dtype complex128; every
operation validates shape and finiteness at the boundary and is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    NoSolutionError,
    NotCommutingError,
    NotPSDError,
    PreconditionError,
)

__all__ = [
    "Tolerances",
    "SubspaceBasis",
    "as_matrix",
    "operator_norm",
    "spectral_radius",
    "numerical_radius",
    "psd_sqrt",
    "commutator",
    "orthonormal_range",
    "compress",
    "joint_eigenvalues",
    "solve_sandwich",
]

# Seed for the random-combination Schur trick; fixed so joint spectra are
# reproducible across runs.
_SCHUR_SEED = 0x7E7AB10C


@dataclass(frozen=True)
class Tolerances:
    """Numerical contract knobs used across the library.

    eq_tol bounds equality residuals, psd_tol bounds eigenvalue/rank
    decisions; both must be positive and finite.  No search is sized by a
    tolerance: the circle suprema and the certifier's circle grid fix
    their own resolution.
    """

    eq_tol: float = 1e-9
    psd_tol: float = 1e-10

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.eq_tol, self.psd_tol)):
            raise ValueError("eq_tol and psd_tol must be positive and finite")

    @property
    def contraction_bound(self) -> float:
        """The one contraction rule of every stage: X is a contraction when
        ||X|| <= 1 + eq_tol."""
        return 1.0 + self.eq_tol

    def defect_support(self, w: np.ndarray) -> np.ndarray:
        """The one rank cut of every defect: which eigenvalues w of I - X*X,
        ascending along the last axis, span the range of D_X.  They are those
        with w > psd_tol (1 + ||X||^2), where ||X||^2 = 1 - w_min is read off
        the least of them."""
        return w > self.psd_tol * (2.0 - w[..., :1])


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of C^ambient_dim, stored column-wise."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise DimensionError("basis must be ambient_dim x dim")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def check_orthonormal(self, tol: Tolerances = DEFAULT_TOL) -> float:
        """Return the orthonormality residual ||B*B - I||."""
        return _norm_or_zero(self.basis.conj().T @ self.basis - np.eye(self.dim))


def as_matrix(m, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate and coerce input to a finite 2-D complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be two-dimensional, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise DimensionError(f"{name} has non-finite entries")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got {a.shape}")
    return a


def operator_norm(m) -> float:
    """Largest singular value of m.

    Raises DimensionError for an empty matrix; use 0-dim carriers upstream
    instead of passing degenerate blocks here.
    """
    a = as_matrix(m)
    if a.size == 0:
        raise DimensionError("operator_norm of an empty matrix")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _norm_or_zero(m: np.ndarray) -> float:
    """Operator norm that treats empty blocks as zero (internal use)."""
    return 0.0 if m.size == 0 else float(np.linalg.svd(m, compute_uv=False)[0])


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a square matrix (0 for the empty matrix)."""
    a = as_matrix(m, square=True)
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


# Circle suprema: first grid size, ascent starts and step cap, relative
# bracket width, and the limits on cells per level and on levels.
_CIRCLE_GRID = 16
_ASCENT_STARTS = 4
_ASCENT_CAP = 500
_CIRCLE_GAP = 1e-6
_CELL_CAP = 4096
_CIRCLE_LEVELS = 24


def _circle_sup(fixed, mats, bound: float = math.inf) -> tuple[float, float]:
    """Bracket (lower, upper) of the sup over theta in T^k, k in {1, 2}, of
    f(theta) = lambda_max(fixed + sum_j Re(e^{i theta_j} M_j)), Re(X) = (X + X*)/2.

    For 1x1 matrices f = fixed + sum_j Re(e^{i theta_j} m_j) peaks at
    theta_j = -arg m_j, so the sup is fixed + sum_j |m_j|; the upper end is
    the next float above it.  Otherwise cells centred on a grid of N points
    per phase (N = 16 at first) cover the torus.  lower is attained: the
    best grid value, raised by eigenvector ascent (theta_j = -arg x* M_j x,
    x the top eigenvector) from the best 4 first-grid points and from any
    later grid point that beats it; a start is retired once a step gains at
    most 1e-15 max(1, value).  With fixed = 0 the pencil at -p is the
    negated pencil at p, so one eigvalsh of half the first grid gives the
    whole grid.  f is convex in p = e^{i theta}, and a cell's arc lies in
    the triangle of a vertex of the circumscribed N-gon and its edge
    midpoints, so means of vertex values bound f on the cell (with
    fixed = 0 a vertex value is sec(pi/N) times a grid value).  Cells whose
    bound exceeds lower by more than a relative 1e-6, or exceeds ``bound``
    while lower does not, are split on the 2N grid until none is left, a
    level would hold over 4096 cells, or 24 levels are done; only those
    limits leave a wider bracket.
    """
    # A phase with a zero matrix leaves f unchanged; splitting along it
    # would only multiply the cells.
    mats = np.stack([m for m in mats if np.any(m)] or mats[:1])
    k, n = mats.shape[0], mats.shape[-1]
    if n == 0:
        return 0.0, 0.0
    if n == 1:
        # Scalar abs: numpy's vectorised complex abs can be off by over an ulp.
        top = float(np.asarray(fixed).real.item()) + sum(abs(complex(m)) for m in mats.ravel())
        return top, float(np.nextafter(top, math.inf))
    homogeneous = not np.any(fixed)
    flat = mats.reshape(k, n * n)

    def pencils(p):
        """fixed + Re(sum_j p_j M_j) for every row p of a (P, k) array."""
        s = (p @ flat).reshape(-1, n, n)
        return fixed + 0.5 * (s + s.conj().transpose(0, 2, 1))

    def spectra(p):
        """Eigenvalues of each pencil, 512 pencils at a time."""
        chunks = (pencils(p[i:i + 512]) for i in range(0, len(p), 512))
        return np.concatenate([np.linalg.eigvalsh(c) for c in chunks])

    def ascend(p):
        """Best value of the eigenvector ascent from the phase rows of p."""
        w, v = np.linalg.eigh(pencils(p))
        value, x = w[:, -1], v[..., -1]
        retired = -math.inf
        for _ in range(_ASCENT_CAP):
            q = np.einsum("si,kij,sj->sk", x.conj(), mats, x)
            w, v = np.linalg.eigh(pencils(np.exp(-1j * np.angle(q))))
            gain = w[:, -1] - value
            value, x = np.maximum(value, w[:, -1]), v[..., -1]
            done = gain <= 1e-15 * np.maximum(1.0, value)
            retired = max(retired, float(np.max(value[done], initial=-math.inf)))
            value, x = value[~done], x[~done]
            if not len(value):
                break
        return max(retired, float(np.max(value, initial=-math.inf)))

    # Grid points are integer tuples on the finest grid, so a point keeps
    # its key, and its value, from one level to the next.
    fine = _CIRCLE_GRID << _CIRCLE_LEVELS
    radix = fine ** np.arange(k)

    def distinct(idx):
        """Sorted keys of the distinct rows of an integer (..., k) array mod
        fine, the rows themselves, and the inverse."""
        keys, inverse = np.unique((idx.reshape(-1, k) % fine) @ radix, return_inverse=True)
        return keys, keys[:, None] // radix % fine, inverse

    steps = np.indices((3,) * k).reshape(k, -1).T - 1
    spacing = fine // _CIRCLE_GRID
    cells = spacing * np.indices((_CIRCLE_GRID,) * k).reshape(k, -1).T
    lower = upper = -math.inf
    keys = values = np.empty(0)
    for level in range(_CIRCLE_LEVELS):
        old_keys, old_values = keys, values
        keys, points, where = distinct(cells[:, None] + spacing * steps)
        phases = np.exp(2j * np.pi * points / fine)
        if level == 0 and homogeneous:
            # The first level is the whole grid, closed under p -> -p.
            half = np.flatnonzero(points[:, 0] < fine // 2)
            w = spectra(phases[half])
            values = np.empty(len(keys))
            values[half] = w[:, -1]
            values[np.searchsorted(keys, ((points[half] + fine // 2) % fine) @ radix)] = -w[:, 0]
        elif level == 0:
            values = spectra(phases)[:, -1]
        else:
            at = np.minimum(np.searchsorted(old_keys, keys), len(old_keys) - 1)
            values = old_values[at]
            new = old_keys[at] != keys
            values[new] = spectra(phases[new])[:, -1]
        if values.max() > lower:
            best = np.argsort(values)[-(_ASCENT_STARTS if level == 0 else 1):]
            lower = max(lower, ascend(phases[best]))
        sec = 1.0 / math.cos(math.pi * spacing / fine)
        vertex = sec * values if homogeneous else spectra(sec * phases)[:, -1]
        cell_ub = vertex[where].reshape((-1,) + (3,) * k)
        for axis in range(1, k + 1):
            cell_ub = 0.5 * (cell_ub + np.take(cell_ub, [1], axis=axis))
        cell_ub = cell_ub.reshape(len(cells), -1).max(axis=1)
        split = (cell_ub > lower + _CIRCLE_GAP * abs(lower)) | (
            (cell_ub > bound) & (lower <= bound)
        )
        upper = max(upper, float(np.max(cell_ub[~split], initial=-math.inf)))
        spacing //= 2
        children = distinct(cells[split][:, None] + spacing * steps)[1]
        if not 0 < len(children) <= _CELL_CAP:
            break
        cells = children
    upper = max(upper, float(np.max(cell_ub[split], initial=-math.inf)))
    # Rounding may put a tight bound a few ulps under an attained value.
    return lower, max(upper, lower)


# Kept though no stage calls them: the benchmark tracer binds numerical_radius and solve_sandwich.
def numerical_radius(m, tol: Tolerances = DEFAULT_TOL) -> float:
    """Numerical radius sup{|<Mx,x>| : ||x||=1} of a square matrix.

    The lower end of the circle-supremum bracket of the top eigenvalue of
    Re(e^{i theta} M): a theta grid raised by eigenvector ascent and refined
    where the polygon bound leaves room.  The value is attained, so it never
    exceeds the true radius, and it is within a relative 1e-6 of it; tol is
    accepted for signature compatibility and sizes nothing here.
    """
    a = as_matrix(m, square=True)
    return max(_circle_sup(0.0, [a])[0], 0.0)


def psd_sqrt(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Eigenvalues in [-psd_tol*scale, 0) are clipped to zero; anything more
    negative raises NotPSDError.  Non-Hermitian input beyond eq_tol raises
    PreconditionError.
    """
    a = as_matrix(m, square=True)
    if a.shape[0] == 0:
        return a.copy()
    scale = 1.0 + _norm_or_zero(a)
    herm_res = _norm_or_zero(a - a.conj().T)
    if herm_res > tol.eq_tol * scale:
        raise PreconditionError(f"matrix is not Hermitian (residual {herm_res:.3e})")
    h = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(h)
    if w[0] < -tol.psd_tol * scale:
        raise NotPSDError(f"eigenvalue {w[0]:.3e} below -psd_tol*scale")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def commutator(x, y) -> np.ndarray:
    """Commutator XY - YX of two equal-size square matrices."""
    a = as_matrix(x, square=True)
    b = as_matrix(y, square=True)
    if a.shape != b.shape:
        raise DimensionError(f"size mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def orthonormal_range(m, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the column space of m.

    Rank is decided by singular values above psd_tol * sigma_max, so the
    zero matrix yields the empty basis.
    """
    a = as_matrix(m)
    if a.size == 0:
        return SubspaceBasis(a.shape[0], np.zeros((a.shape[0], 0), dtype=complex))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > tol.psd_tol * s[0]))
    return SubspaceBasis(a.shape[0], u[:, :rank])


def compress(m, s: SubspaceBasis) -> np.ndarray:
    """Matrix of the compression P_S M|_S in the basis of S."""
    a = as_matrix(m, square=True)
    if s.ambient_dim != a.shape[0]:
        raise DimensionError(
            f"ambient dim {s.ambient_dim} does not match matrix size {a.shape[0]}"
        )
    return s.basis.conj().T @ a @ s.basis


def joint_eigenvalues(
    family, tol: Tolerances = DEFAULT_TOL
) -> list[tuple[complex, ...]]:
    """Joint spectrum of a pairwise-commuting family of square matrices.

    A random linear combination (fixed seed) is Schur-triangularized and all
    members are conjugated into its Schur basis.  Each member's diagonal
    entry is averaged over the positions where the combination's
    eigenvalues agree (within 10 sqrt(n) times the commutator bound), so a
    derogatory family, whose members that basis need not triangularise,
    still gives its joint spectrum up to O(eq_tol) perturbation.  Output
    tuples are sorted lexicographically by (Re, Im) of their coordinates.

    Raises NotCommutingError if any pairwise commutator exceeds
    eq_tol * (1 + max_norm)^2.
    """
    mats = [as_matrix(f, square=True) for f in family]
    if not mats:
        raise DimensionError("empty family")
    n = mats[0].shape[0]
    for a in mats:
        if a.shape[0] != n:
            raise DimensionError("family members differ in size")
    if n == 0:
        return []
    max_norm = max(_norm_or_zero(a) for a in mats)
    comm_scale = tol.eq_tol * (1.0 + max_norm) ** 2
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            res = _norm_or_zero(commutator(mats[i], mats[j]))
            if res > comm_scale:
                raise NotCommutingError(
                    f"commutator of members {i},{j} has norm {res:.3e}"
                )

    rng = np.random.default_rng(_SCHUR_SEED)
    coeffs = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    combo = sum(c * a for c, a in zip(coeffs, mats))
    import scipy.linalg  # local: scipy loads on the first call, not at start-up
    tri, z = scipy.linalg.schur(combo, output="complex")
    # On a repeated eigenvalue of the combination its Schur basis need not
    # triangularise the members, but their trace over the eigenvalue's
    # positions is still the multiplicity times the joint eigenvalue.
    lam = np.diag(tri)
    same = np.abs(lam[:, None] - lam[None, :]) <= 10.0 * comm_scale * math.sqrt(n)
    diags = [np.diag(z.conj().T @ a @ z) for a in mats]
    tuples = [
        tuple(complex(d[same[i]].mean()) for d in diags) for i in range(n)
    ]
    tuples.sort(key=lambda t: [(z.real, z.imag) for z in t])
    return tuples


def solve_sandwich(
    d_left, d_right, s, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Solve D_left @ X @ D_right = S for X supported on the defect carriers.

    X is returned in orthonormal-range coordinates: rows index the basis of
    closure Ran(D_left*), columns the basis of closure Ran(D_right), both as
    produced by orthonormal_range.  The solution is the unique minimizer on
    those carriers; if the equation is inconsistent beyond
    eq_tol * (1 + ||S||) a NoSolutionError carrying the residual is raised.
    """
    dl = as_matrix(d_left, name="d_left")
    dr = as_matrix(d_right, name="d_right")
    rhs = as_matrix(s, name="s")
    if rhs.shape != (dl.shape[0], dr.shape[1]):
        raise DimensionError(
            f"rhs shape {rhs.shape} incompatible with ({dl.shape[0]}, {dr.shape[1]})"
        )
    q_left = orthonormal_range(dl.conj().T, tol)
    q_right = orthonormal_range(dr, tol)
    lf = dl @ q_left.basis
    rf = q_right.basis.conj().T @ dr
    if q_left.dim == 0 or q_right.dim == 0:
        x = np.zeros((q_left.dim, q_right.dim), dtype=complex)
    else:
        x = np.linalg.pinv(lf) @ rhs @ np.linalg.pinv(rf)
    residual = _norm_or_zero(lf @ x @ rf - rhs)
    if residual > tol.eq_tol * (1.0 + _norm_or_zero(rhs)):
        raise NoSolutionError("sandwich equation is inconsistent", residual)
    return x
