"""Tolerance-aware subspace arithmetic over real coordinate spaces.

Subspaces are stored as orthonormal basis matrices fixed at construction,
so every coordinate representation derived from them (graph coefficients,
projector formulas) is reproducible run to run.  The zero subspace is a
first-class value with a (n, 0) basis, which lets degenerate cases flow
through callers without special branches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .blas import _one_blas_thread
from .errors import DirectSumError, InputError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "Subspace",
    "DirectSumCheck",
    "rank_of",
    "rank_kernel_range",
    "kernel_basis",
    "range_basis",
    "is_direct_sum",
    "orthogonal_complement",
    "sum_and_intersection",
    "common_complement",
    "principal_angles",
    "subspaces_equal",
]

ANGLE_TOL = 1e-8  # max principal angle below which two subspaces are "equal"
MEMBERSHIP_COND_MAX = 1e8  # largest condition number of a stacked basis still a direct sum


def maxabs(a) -> float:
    """Largest absolute entry, 0 for an empty array."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _slack(rel: float, *operands) -> float:
    """``rel`` times the largest entry of ``operands``: no absolute floor, so free of scale."""
    return rel * max(map(maxabs, operands))


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d float array of finite numbers, rejecting anything else."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise InputError(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("matrix holds a non-finite number")
    return m


def _integer(value, name: str) -> int:
    """``value`` as a Python int: an integer, numpy's included, but not a bool.

    Anything else raises InputError naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer count, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy knob.

    rank_rel_tol: singular values below ``rank_rel_tol * sigma_max`` count
        as zero when deciding rank.
    """

    rank_rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rank_rel_tol < 1.0:
            raise InputError("rank_rel_tol must lie strictly between 0 and 1")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^n held as an orthonormal basis matrix.

    ``basis`` has shape (ambient_dim, dim).  dim == 0 encodes the zero
    subspace.  Constructing directly requires orthonormal columns, up to
    1e-2 * ANGLE_TOL in the Frobenius norm of B^T B - I; use
    :meth:`from_columns` for arbitrary spanning sets.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        object.__setattr__(self, "basis", b)
        if self.ambient_dim < 1:
            raise InputError("ambient_dim must be positive")
        if b.shape[0] != self.ambient_dim:
            raise InputError(
                f"basis has {b.shape[0]} rows, ambient dimension is {self.ambient_dim}"
            )
        if b.shape[1] > self.ambient_dim:
            raise InputError("subspace dimension exceeds ambient dimension")
        if b.shape[1] > 0:
            # the largest-angle rule sees a basis's own span at an angle of
            # about this defect, which must stay far below ANGLE_TOL
            if np.linalg.norm(b.T @ b - np.eye(b.shape[1])) > 1e-2 * ANGLE_TOL:
                raise InputError(
                    "basis columns are not orthonormal; use Subspace.from_columns"
                )

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    @_one_blas_thread()
    def from_columns(cls, columns, tol: ToleranceConfig = DEFAULT_TOL) -> "Subspace":
        """Build the span of linearly independent columns.

        Raises InputError when the columns are numerically dependent, i.e.
        the smallest singular value falls below the rank cutoff.
        """
        m = as_matrix(columns)
        n, d = m.shape
        if d == 0:
            return cls(n, np.zeros((n, 0)))
        if rank_from_singular_values(np.linalg.svd(m, compute_uv=False), tol) < d:
            raise InputError("columns are numerically linearly dependent")
        q, _ = np.linalg.qr(m)
        return cls(n, q)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    @classmethod
    def span(cls, *vectors, tol: ToleranceConfig = DEFAULT_TOL) -> "Subspace":
        """Span of the given (independent) vectors."""
        cols = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
        return cls.from_columns(cols, tol)

    def orthogonal_projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


@dataclass(frozen=True)
class DirectSumCheck:
    """Outcome of a direct-sum test plus its numerical evidence."""

    ok: bool
    condition_number: float
    dim_total: int
    ambient_dim: int

    def __bool__(self) -> bool:
        return self.ok


def rank_from_singular_values(s: np.ndarray, tol: ToleranceConfig) -> int | np.ndarray:
    """The rank rule: count of singular values (descending) above rank_rel_tol * s[0].

    ``s`` may be a stack of shape (..., r); the rule then applies along the
    last axis and returns an integer array.  A 1-d input returns an int.
    Nonnegative values never exceed a zero threshold, so an all-zero or
    empty row has rank 0.
    """
    s = np.asarray(s)
    above = s > tol.rank_rel_tol * s[..., :1]
    if s.ndim == 1:  # counting without an axis is much cheaper per call
        return int(np.count_nonzero(above))
    return np.count_nonzero(above, axis=-1)


def _svd(a: np.ndarray, compute_uv: bool = True):
    """``np.linalg.svd`` of each matrix of the stack ``a``, taken at the scale of 1.

    Each matrix is multiplied by 2^-e, where e is the exponent of its
    largest entry (``np.frexp``), and its singular values by 2^e after.
    Both steps are exact, so a common power-of-two scale of the input
    gives the same singular vectors and the same singular values scaled,
    out to the ends of the exponent range, where LAPACK would otherwise
    rescale by a factor that is not a power of two.  Full matrices when
    ``compute_uv``.
    """
    # the largest |entry| of each matrix, with no temporary the size of the stack
    e = np.frexp(np.maximum(a.max(axis=(-2, -1)), -a.min(axis=(-2, -1))))[1]
    out = np.linalg.svd(np.ldexp(a, -e[..., None, None]), compute_uv=compute_uv)
    if not compute_uv:
        return np.ldexp(out, e[..., None])
    u, s, vt = out
    return u, np.ldexp(s, e[..., None]), vt


def rank_of(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: count of singular values above the relative cutoff."""
    m = as_matrix(a)
    if m.size == 0:
        raise InputError("matrix must be nonempty")
    return rank_from_singular_values(_svd(m, compute_uv=False), tol)


def _factor(a, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, int, tuple]:
    """A matrix, its numerical rank and its full SVD (u, s, vt), from ``_svd``.

    The one factorization a builder takes of each input: rank, kernel,
    range and singular frames are all read from it.
    """
    m = as_matrix(a)
    if m.size == 0:
        raise InputError("matrix must be nonempty")
    svd = _svd(m)
    return m, rank_from_singular_values(svd[1], tol), svd


def _kernel_range(svd: tuple, k: int) -> tuple[Subspace, Subspace]:
    """Kernel (of the domain) and range (of the codomain) of a full SVD cut at rank k.

    Both bases are views of the SVD's arrays.
    """
    u, _, vt = svd
    return Subspace(vt.shape[1], vt[k:].T), Subspace(u.shape[0], u[:, :k])


def rank_kernel_range(a, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, Subspace, Subspace]:
    """Numerical rank, kernel and range of a matrix, all from one full SVD.

    The kernel (a subspace of the domain) and the range (of the codomain)
    are cut at the same rank, so ``k + kernel.dim`` always equals the
    column count.
    """
    _, k, svd = _factor(a, tol)
    return (k, *_kernel_range(svd, k))


def kernel_basis(a, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the null space, as a subspace of the domain."""
    return rank_kernel_range(a, tol)[1]


def range_basis(a, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the column space, as a subspace of the codomain."""
    return rank_kernel_range(a, tol)[2]


@_one_blas_thread()
def is_direct_sum(parts) -> DirectSumCheck:
    """Decide whether the given subspaces decompose their ambient space.

    True iff the dimensions add up to the ambient dimension and the matrix
    formed by concatenating all basis columns has a condition number of at
    most MEMBERSHIP_COND_MAX.  The condition number is reported either way.
    """
    parts = list(parts)
    if not parts:
        raise InputError("need at least one subspace")
    n = parts[0].ambient_dim
    for p in parts:
        if p.ambient_dim != n:
            raise InputError(
                f"ambient dimension mismatch: {p.ambient_dim} vs {n}"
            )
    dim_total = sum(p.dim for p in parts)
    cols = [p.basis for p in parts if p.dim > 0]
    if cols:
        stacked = np.hstack(cols)
        s = np.linalg.svd(stacked, compute_uv=False)
        cond = float(s[0] / s[-1]) if s[-1] > 0.0 else np.inf
    else:
        cond = 1.0
    ok = dim_total == n and cond <= MEMBERSHIP_COND_MAX
    return DirectSumCheck(ok, cond, dim_total, n)


def orthogonal_complement(s: Subspace) -> Subspace:
    """The orthogonal complement, the canonical complement supplier."""
    n, d = s.ambient_dim, s.dim
    if d == 0:
        return Subspace.full(n)
    if d == n:
        return Subspace.zero(n)
    q, _ = np.linalg.qr(s.basis, mode="complete")
    return Subspace(n, q[:, d:])


def sum_and_intersection(
    e1: Subspace, e2: Subspace, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[Subspace, Subspace]:
    """Sum and intersection of two subspaces from a single decomposition.

    Both come from one SVD of the concatenated bases, so the dimension
    identity dim(e1) + dim(e2) == dim(sum) + dim(intersection) holds as an
    exact integer statement.
    """
    if e1.ambient_dim != e2.ambient_dim:
        raise InputError("ambient dimension mismatch")
    n = e1.ambient_dim
    d1, d2 = e1.dim, e2.dim
    if d1 + d2 == 0:
        return Subspace.zero(n), Subspace.zero(n)
    m = np.hstack([e1.basis, e2.basis])
    u, s, vt = np.linalg.svd(m, full_matrices=True)
    r = rank_from_singular_values(s, tol)
    total = Subspace(n, u[:, :r])
    # Kernel vectors (x; y) of [B1 B2] satisfy B1 x = -B2 y, which lands in
    # the intersection; mapping them through B1 is injective.
    null_coords = vt[r:, :].T
    q = null_coords.shape[1]
    if q == 0:
        inter = Subspace.zero(n)
    else:
        w = e1.basis @ null_coords[:d1, :]
        qmat, _ = np.linalg.qr(w)
        inter = Subspace(n, qmat)
    return total, inter


def _complement_within(s: Subspace, inner: Subspace) -> Subspace:
    """Orthogonal complement of ``inner`` taken inside ``s`` (inner must lie in s)."""
    if inner.dim == 0:
        return s
    d = s.dim - inner.dim
    if d <= 0:
        return Subspace.zero(s.ambient_dim)
    w = s.basis - inner.basis @ (inner.basis.T @ s.basis)
    u, _, _ = np.linalg.svd(w, full_matrices=False)
    return Subspace(s.ambient_dim, u[:, :d])


def common_complement(
    e1: Subspace, e2: Subspace, tol: ToleranceConfig = DEFAULT_TOL
) -> Subspace:
    """A single subspace complementing two equal-dimensional subspaces.

    Construction: split off the intersection from each input, glue the two
    leftover pieces along a graph (pairing their orthonormal basis vectors
    one-to-one), and pad with the orthogonal complement of e1 + e2.  The
    paired bases are the principal-vector bases of the two pieces, and each
    pair is glued by its sum or its difference depending on the principal
    angle: the difference direction is the transversal one when the pieces
    nearly coincide, the sum when they are far apart.  Either way the glued
    directions are mutually orthogonal, so the result stays well
    conditioned all the way down to the intersection-detection threshold.
    """
    if e1.ambient_dim != e2.ambient_dim:
        raise InputError("ambient dimension mismatch")
    if e1.dim != e2.dim:
        raise InputError(
            f"dimension mismatch: {e1.dim} vs {e2.dim}; a common complement needs equal dimensions"
        )
    total, inter = sum_and_intersection(e1, e2, tol)
    e1_star = _complement_within(e1, inter)
    e2_star = _complement_within(e2, inter)
    if e1_star.dim > 0:
        u, cosines, vt = np.linalg.svd(e1_star.basis.T @ e2_star.basis)
        signs = np.where(cosines > np.cos(np.pi / 4.0), -1.0, 1.0)
        glued = e1_star.basis @ u + (e2_star.basis @ vt.T) * signs[None, :]
    else:
        glued = e1_star.basis
    pad = orthogonal_complement(total)
    cols = np.hstack([glued, pad.basis])
    if cols.shape[1] == 0:
        return Subspace.zero(e1.ambient_dim)
    return Subspace.from_columns(cols, tol)


def _angle_from_sines(outside: np.ndarray) -> np.ndarray:
    """Largest principal angle between a subspace A and the span of an orthonormal basis b.

    ``outside`` is a stack (S, r, e) of the parts of b outside A: either
    ``b - a a^T b`` in ambient coordinates, or ``p^T b`` for an orthonormal
    basis p of A's orthogonal complement.  Its singular values are the
    sines of the principal angles (Bjorck & Golub 1973), so the largest
    angle is the arcsine of the largest one, clamped at 1: accurate for
    angles near zero, and free of scale.  An empty part has no angle, 0.
    Shape (S,).
    """
    if 0 in outside.shape[1:]:
        return np.zeros(len(outside))
    return np.arcsin(np.minimum(1.0, np.linalg.svd(outside, compute_uv=False)[:, 0]))


def _condition_from_sines(inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Condition number of ``[a | b]`` for orthonormal bases a (n, d) and b (n, e).

    ``inside`` (S, d, e) is ``a^T b`` and ``outside`` (S, n - d, e) is
    ``p^T b`` for an orthonormal basis p of the complement of span(a): the
    cosines and the sines of the principal angles between the two spans.
    The Gram matrix of ``[a | b]`` has eigenvalues 1 +- cos(theta_i) and
    1, so its condition number is (1 + c) / s, with c the largest cosine
    and s = sqrt(1 - c^2) the smallest sine, and inf at s = 0.  The
    smaller of the two is read from its own matrix and the other follows
    from it, so either keeps full precision: sines give s whenever s <=
    sqrt(1/2); the cosines are factored only for the samples where s is
    larger.  s is the smallest of the e sines, so it is 0 when ``outside``
    has fewer rows than e (the spans meet); the condition number is 1 when
    e == 0.  Shape (S,).
    """
    count, rows, e = outside.shape
    if e == 0:
        return np.ones(count)
    if rows < e:
        s = np.zeros(count)
    else:
        s = np.minimum(1.0, np.linalg.svd(outside, compute_uv=False)[:, -1])
    c = np.sqrt((1.0 - s) * (1.0 + s))
    wide = np.flatnonzero(s > np.sqrt(0.5))
    if wide.size:  # no cosine at all when a has no columns
        c[wide] = np.linalg.svd(inside[wide], compute_uv=False)[:, 0] if inside.shape[1] else 0.0
        s[wide] = np.sqrt((1.0 - c[wide]) * (1.0 + c[wide]))
    cond = np.full(count, np.inf)
    np.divide(1.0 + c, s, out=cond, where=s > 0.0)
    return cond


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Canonical angles between two subspaces, ascending, in radians.

    ``scipy.linalg.subspace_angles``, sorted: sines for the small angles,
    so they keep full precision instead of the sqrt(eps) floor of plain
    arccos.
    """
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return np.zeros(0)
    return np.sort(scipy.linalg.subspace_angles(a.basis, b.basis))


def subspaces_equal(a: Subspace, b: Subspace) -> bool:
    """Equality up to basis choice: equal dimensions and the largest angle below ANGLE_TOL."""
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    outside = b.basis - a.basis @ (a.basis.T @ b.basis)
    return float(_angle_from_sines(outside[None])[0]) < ANGLE_TOL


def require_direct_sum(parts, what: str) -> DirectSumCheck:
    """Raise DirectSumError with context when the check fails."""
    check = is_direct_sum(parts)
    if not check.ok:
        raise DirectSumError(f"{what} is not a direct sum", check.condition_number)
    return check
