"""Tangent spaces of rank strata and second-order tangency measurement.

At a rank-k point X the tangent space of the stratum is the set of
matrices sending the kernel of X into the range of X.  Its dimension is
(m + n - k) * k for n x m operators, and it splits as
R^n (x) row(X)  +  range(X) (x) ker(X), so an orthonormal basis can take
the standard basis of R^n on the left of the first part.  Every basis
element is then a rank-one product left (x) right, and ``TangentBasis``
keeps only those factors: (m + n) numbers per element where the dense
matrix holds m * n.  A direction inside the tangent space perturbs the
(k+1)-th singular value only to second order, which is what
``tangency_order`` measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blas import _one_blas_thread
from .errors import InputError
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    ToleranceConfig,
    _factor,
    _kernel_range,
    as_matrix,
    subspaces_equal,
)

__all__ = [
    "StratumPoint",
    "TangentBasis",
    "dim_fk",
    "tangent_basis",
    "tangent_violation",
    "tangency_order",
    "EXACT",
]

EXACT = "exact"  # sentinel: the perturbed curve never left the stratum


def dim_fk(m: int, n: int, k: int) -> int:
    """Dimension of the stratum of rank-k operators from R^m to R^n."""
    if m < 1 or n < 1:
        raise InputError("ambient dimensions must be positive")
    if not 0 <= k <= min(m, n):
        raise InputError(f"rank {k} out of range for a {n}x{m} operator")
    return (m + n - k) * k


@dataclass(frozen=True)
class StratumPoint:
    """A rank-k matrix together with its kernel and range subspaces.

    It also keeps an orthonormal frame of its row space, the first k right
    singular vectors of its SVD, for ``tangent_basis``.
    """

    op: np.ndarray
    k: int
    kernel: Subspace
    range: Subspace
    _row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        op, _, svd = _factor(self.op)
        object.__setattr__(self, "op", op)
        n, m = op.shape
        if not 0 <= self.k <= min(m, n):
            raise InputError("declared rank out of range for the shape")
        s = svd[1]
        # the declared rank must be a numerical rank at some cutoff: a
        # strict singular-value drop right after position k
        if self.k > 0 and (s.size < self.k or s[self.k - 1] == 0.0):
            raise InputError("declared rank disagrees with the matrix")
        if self.k < s.size and s[self.k] > 0.0 and not s[self.k] < s[self.k - 1 if self.k else 0]:
            raise InputError("no singular-value gap at the declared rank")
        computed = _kernel_range(svd, self.k)
        for mine, theirs, name in zip((self.kernel, self.range), computed, ("kernel", "range")):
            if mine.dim != theirs.dim:
                raise InputError(f"{name} subspace has the wrong dimension")
            if not subspaces_equal(mine, theirs):
                raise InputError(f"{name} subspace disagrees with the matrix")
        object.__setattr__(self, "_row", svd[2][: self.k].T)

    @classmethod
    @_one_blas_thread()
    def at(cls, op, tol: ToleranceConfig = DEFAULT_TOL) -> "StratumPoint":
        """The stratum point at ``op``: rank, kernel and range read from one SVD.

        The constructor's checks are skipped, because geometry computed
        from the SVD passes them by construction: the rank rule leaves a
        strict singular-value drop after k, and kernel and range are that
        SVD's own.
        """
        op, k, svd = _factor(op, tol)
        point = object.__new__(cls)
        values = (op, k, *_kernel_range(svd, k), svd[2][:k].T)
        for name, value in zip(("op", "k", "kernel", "range", "_row"), values):
            object.__setattr__(point, name, value)
        return point

    @property
    def shape(self) -> tuple[int, int]:
        return self.op.shape


@dataclass(frozen=True)
class TangentBasis:
    """Basis of the tangent space at a stratum point, one rank-one element per row.

    Element i is ``np.outer(left[i], right[i]) + 0.0``: ``left`` is a
    dim x n array and ``right`` a dim x m array for an n x m point.
    """

    at: StratumPoint
    left: np.ndarray
    right: np.ndarray
    dim: int

    def __post_init__(self):
        n, m = self.at.shape
        for name, cols in (("left", n), ("right", m)):
            factors = np.asarray(getattr(self, name), dtype=float)
            if factors.shape != (self.dim, cols):
                raise InputError(f"{name} factors disagree with the dimension and the shape")
            object.__setattr__(self, name, factors)

    @cached_property
    def basis(self) -> tuple[np.ndarray, ...]:
        """The dense elements, built on first use; adding 0.0 leaves no -0.0."""
        return tuple(self.left[:, :, None] * self.right[:, None, :] + 0.0)


def tangent_basis(x: StratumPoint) -> TangentBasis:
    """Orthonormal basis of {V : V kernel(X) inside range(X)}, as rank-one factors.

    The elements are e_i (x) r_j for every standard basis vector e_i of
    R^n and every r_j of an orthonormal frame of the row space, ordered by
    i then j, then u_i (x) k_j for the range frame u and the kernel frame
    k.  The two families span R^n (x) row(X) and range(X) (x) ker(X),
    which are orthogonal and together make the tangent space, and
    rank-one products of orthonormal vectors are orthonormal in the
    Frobenius inner product, so the count is exact.  The row-space frame
    is the one the point's SVD gave, so nothing is factored here.  No
    dense element is built here either; ``TangentBasis.basis`` builds them
    for callers that index them.
    """
    n, m = x.shape
    row, rng, ker = x._row, x.range.basis, x.kernel.basis
    k = row.shape[1]
    left = np.concatenate([np.repeat(np.eye(n), k, axis=0), np.repeat(rng.T, m - k, axis=0)])
    right = np.concatenate([np.tile(row.T, (n, 1)), np.tile(ker.T, (k, 1))])
    return TangentBasis(x, left, right, left.shape[0])


def tangent_violation(x: StratumPoint, v) -> float:
    """How far V sends the kernel of X outside the range of X (max norm)."""
    v = as_matrix(v)
    if v.shape != x.shape:
        raise InputError("direction must match the stratum point's shape")
    if x.kernel.dim == 0:
        return 0.0
    image = v @ x.kernel.basis
    residual = image - x.range.basis @ (x.range.basis.T @ image)
    return float(np.max(np.abs(residual))) if residual.size else 0.0


@_one_blas_thread()
def tangency_order(x: StratumPoint, v, t_grid=None):
    """Fitted decay order of the (k+1)-th singular value along X + tV.

    Returns the least-squares slope of log sigma_{k+1} against log t over
    the grid points where sigma_{k+1} sits above the machine-noise floor,
    or the sentinel ``EXACT`` when the whole curve stays on the stratum to
    machine precision.  Tangent directions come out near 2, transverse
    directions near 1.
    """
    v = as_matrix(v)
    if v.shape != x.shape:
        raise InputError("direction must match the stratum point's shape")
    if t_grid is None:
        t_grid = np.logspace(-1, -4, 13)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 2 or np.any(t_grid <= 0):
        raise InputError("degenerate grid: need at least two positive scales")
    if np.max(t_grid) / np.min(t_grid) < 100.0:
        raise InputError("degenerate grid: scales must span at least two decades")
    k = x.k
    eps = np.finfo(float).eps
    # one stacked SVD: the same singular values as one call per scale
    s = np.linalg.svd(x.op + t_grid[:, None, None] * v, compute_uv=False)
    zeros = np.zeros(t_grid.size)
    sigma_top = s[:, 0] if s.shape[1] else zeros
    sigma_next = s[:, k] if s.shape[1] > k else zeros
    above = sigma_next > 1e3 * eps * sigma_top
    if np.count_nonzero(above) < 2:
        return EXACT
    slope = np.polyfit(np.log(t_grid[above]), np.log(sigma_next[above]), 1)[0]
    return float(slope)
