"""Oblique projections and the graph parametrization of complements.

Given a decomposition E = E1 (+) R, the idempotent with range E1 and
kernel R is determined, and every other complement of R is the graph
{x + a(x) : x in E_star} of a unique linear map a : E_star -> R.  This
module realizes that dictionary as matrices and provides the one-line
projector update it induces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalConsistencyError
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    ToleranceConfig,
    as_matrix,
    maxabs,
    require_direct_sum,
    subspaces_equal,
)

__all__ = [
    "Decomposition",
    "GraphParam",
    "oblique_projection",
    "alpha_from_complements",
    "graph_subspace",
    "projection_update",
    "alpha_operator",
]

IDEMPOTENCY_TOL = 1e-9


@dataclass(frozen=True)
class Decomposition:
    """A subspace, a complement, and the projector they determine.

    The projector has range ``part`` and kernel ``complement``; both facts
    and idempotency are verified at construction.
    """

    part: Subspace
    complement: Subspace
    projector: np.ndarray

    def __post_init__(self):
        p = as_matrix(self.projector)
        object.__setattr__(self, "projector", p)
        n = self.part.ambient_dim
        if self.complement.ambient_dim != n:
            raise InputError("part and complement live in different spaces")
        if p.shape != (n, n):
            raise InputError(f"projector must be {n}x{n}, got {p.shape}")
        scale = 1.0 + maxabs(p)
        if maxabs(p @ p - p) > IDEMPOTENCY_TOL * scale:
            raise InternalConsistencyError("projector is not idempotent")
        if self.part.dim and maxabs(p @ self.part.basis - self.part.basis) > IDEMPOTENCY_TOL * scale:
            raise InternalConsistencyError("projector does not fix its range")
        if self.complement.dim and maxabs(p @ self.complement.basis) > IDEMPOTENCY_TOL * scale:
            raise InternalConsistencyError("projector does not kill its kernel")

    @property
    def complementary(self) -> np.ndarray:
        """The projector onto ``complement`` along ``part``."""
        return np.eye(self.part.ambient_dim) - self.projector


@dataclass(frozen=True)
class GraphParam:
    """The map a : domain -> codomain whose graph is a complement of codomain.

    ``coeff`` expresses a in the orthonormal bases fixed inside the two
    subspaces, with shape (dim codomain, dim domain).
    """

    domain: Subspace
    codomain: Subspace
    coeff: np.ndarray

    def __post_init__(self):
        c = as_matrix(self.coeff)
        object.__setattr__(self, "coeff", c)
        if self.domain.ambient_dim != self.codomain.ambient_dim:
            raise InputError("domain and codomain live in different spaces")
        if c.shape != (self.codomain.dim, self.domain.dim):
            raise InputError(
                f"coeff must be {self.codomain.dim}x{self.domain.dim}, got {c.shape}"
            )
        require_direct_sum([self.domain, self.codomain], "graph domain (+) codomain")

    def is_zero(self) -> bool:
        return not self.coeff.any()


def alpha_operator(g: GraphParam) -> np.ndarray:
    """Ambient matrix acting as a on coordinates of the domain.

    Meant to be composed with a projector onto the domain; on vectors that
    already lie in the domain it reads off coordinates orthonormally and
    applies the coefficient matrix.
    """
    return g.codomain.basis @ g.coeff @ g.domain.basis.T


def oblique_projection(part: Subspace, complement: Subspace) -> Decomposition:
    """Projector with the given range and kernel.

    Raises DirectSumError (with the offending condition number) when the
    two subspaces do not decompose the space.
    """
    require_direct_sum([part, complement], "part (+) complement")
    return _decomposition(part, complement)


def _decomposition(part: Subspace, complement: Subspace) -> Decomposition:
    """``oblique_projection`` for a pair its caller has already checked."""
    n, d = part.ambient_dim, part.dim
    if d == 0:
        return Decomposition(part, complement, np.zeros((n, n)))
    m = np.hstack([part.basis, complement.basis])
    minv = np.linalg.inv(m)
    return Decomposition(part, complement, part.basis @ minv[:d, :])


def alpha_from_complements(e1: Subspace, e_star: Subspace, r: Subspace) -> GraphParam:
    """The unique map whose graph over ``e_star`` into ``r`` equals ``e1``.

    Both e1 and e_star must complement r.  Solves by projecting e_star's
    basis onto e1 along r and reading the r-component.
    """
    for name, sub in (("e1", e1), ("e_star", e_star)):
        require_direct_sum([sub, r], f"{name} (+) r")
    if e1.dim != e_star.dim:
        raise InputError("e1 and e_star must have equal dimensions")
    if e_star.dim == 0:
        return GraphParam(e_star, r, np.zeros((r.dim, 0)))
    proj = oblique_projection(e1, r).projector
    delta = proj @ e_star.basis - e_star.basis
    coeff = r.basis.T @ delta
    residual = delta - r.basis @ coeff
    if maxabs(residual) > 1e-6 * (1.0 + maxabs(delta)):
        raise InternalConsistencyError(
            "graph coefficient residual is too large; the complements are "
            "too ill-conditioned to parametrize"
        )
    return GraphParam(e_star, r, coeff)


def graph_subspace(g: GraphParam, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """The graph {x + a(x)} of the parametrized map, itself a complement."""
    if g.domain.dim == 0:
        return Subspace.zero(g.domain.ambient_dim)
    cols = g.domain.basis + g.codomain.basis @ g.coeff
    return Subspace.from_columns(cols, tol)


def projection_update(
    base: Decomposition, g: GraphParam, tol: ToleranceConfig = DEFAULT_TOL
) -> Decomposition:
    """Move a projector to the graph complement by a rank-limited update.

    The new projector is ``P + a P`` where P projects onto g.domain along
    g.codomain.  The formula is cross-checked against an independently
    computed oblique projection; disagreement beyond tolerance raises
    InternalConsistencyError, since the formula itself is the object under
    test.
    """
    if not subspaces_equal(g.domain, base.part):
        raise InputError("graph domain must equal the base projector's range")
    if not subspaces_equal(g.codomain, base.complement):
        raise InputError("graph codomain must equal the base projector's kernel")
    p_new = base.projector + alpha_operator(g) @ base.projector
    new_part = graph_subspace(g, tol)
    p_check = oblique_projection(new_part, base.complement).projector
    if maxabs(p_new - p_check) > 1e-9 * (1.0 + maxabs(p_check)):
        raise InternalConsistencyError(
            "projector update formula disagrees with direct recomputation"
        )
    return Decomposition(new_part, base.complement, p_new)
