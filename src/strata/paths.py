"""Closed-form operator homotopies between points of a rank stratum.

Every path here is a chain of piecewise closed-form segments; nothing is
integrated numerically.  Each segment is stored once, by its base point
``start`` (written a below) and its motion.  There are two segment kinds:

  affine     t -> a + t*b                       payload {b}
  rotation   t -> R(t) @ a   (side="range")     payload {z, theta, side}
             t -> a @ R(t).T (side="kernel")

where R(t) = I + Z (G(t*theta) - I) Z.T is an orthogonal rotation in
plane form: z has orthonormal columns, one consecutive pair per plane,
and G is block diagonal with one 2x2 rotation by t*theta[j] per plane.
Both kinds give a at t = 0 exactly.  A do-nothing leg is affine with
b = 0.  With theta = pi in every plane, R(1) = -I on the span of z: the
corrected flip is one such leg.

Builders guarantee their declared endpoints; whether the path stays inside
the intended operator set is a separate concern handled by the certifier
(and deliberately violated by ``literal_flip_path``, see
``certify.audit_flip_path``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .blas import _one_blas_thread
from .errors import (
    DisconnectedComponentsError,
    InputError,
    InternalConsistencyError,
    WitnessError,
)
from .projections import (
    GraphParam,
    _decomposition,
    alpha_operator,
    oblique_projection,
)
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    ToleranceConfig,
    _factor,
    _integer,
    _kernel_range,
    _slack,
    as_matrix,
    common_complement,
    is_direct_sum,
    kernel_basis,
    maxabs,
    range_basis,
    require_direct_sum,
    subspaces_equal,
)

__all__ = [
    "PathSegment",
    "OperatorPath",
    "ChainWitness",
    "make_segment",
    "constant_path",
    "eval_path",
    "eval_path_batch",
    "sample_parameters",
    "reverse_path",
    "literal_flip_path",
    "corrected_flip_path",
    "left_project_path",
    "right_project_path",
    "frame_connect",
    "gl_connect",
    "connect_fk",
    "connect_phi",
    "chain_connect",
    "discover_chain",
]

SEGMENT_KINDS = ("affine", "rotation")
PAYLOAD_FIELDS = {"affine": {"b"}, "rotation": {"z", "theta", "side"}}

CHAIN_TOL = 1e-10  # consecutive segments must meet this closely
ENDPOINT_TOL = 1e-12  # declared endpoints must be reproduced this closely
PLANE_TOL = 1e-10  # largest departure of z.T @ z from the identity


@dataclass(frozen=True)
class PathSegment:
    """One closed-form leg of a path: its base point ``start``, its motion, its declared end."""

    kind: str
    payload: dict
    start: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        if self.kind not in SEGMENT_KINDS:
            raise InputError(f"unknown segment kind {self.kind!r}")

    @functools.cached_property
    def _plane_coords(self) -> np.ndarray:
        """Z.T a of a rotation leg (Z.T a.T on the kernel side), taken once per leg."""
        p = self.payload
        return p["z"].T @ (self.start if p["side"] == "range" else self.start.T)


def _rotate(
    a: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
    theta: np.ndarray,
    ts: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """R(t) @ a for each t, as a + Z (G(t*theta) - I) y with y = Z.T a, never forming R.

    All samples go in one step, whose plane coordinates take as much memory
    as the result: callers bound the number of samples, the certifier by
    its chunk.  ``out``, when given, receives the result and may be a
    strided view.
    """
    y1, y2 = y[0::2][None], y[1::2][None]
    angles = ts[:, None] * theta[None, :]
    cos_m1 = (np.cos(angles) - 1.0)[:, :, None]
    sin = np.sin(angles)[:, :, None]
    d = np.empty((ts.size,) + y.shape)
    d[:, 0::2] = cos_m1 * y1 - sin * y2
    d[:, 1::2] = sin * y1 + cos_m1 * y2
    if out is not None and not out.flags.c_contiguous:
        out[...] = z @ d  # a matmul into a strided view rounds differently
    else:
        out = np.matmul(z, d, out=out)
    out += a
    return out


def eval_segment_batch(
    seg: PathSegment, ts: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate one segment at an array of local parameters in [0, 1].

    ``out``, when given, is filled and returned; its values are the same
    as those of the call without it.
    """
    ts = np.asarray(ts, dtype=float)
    p, a = seg.payload, seg.start
    if seg.kind == "affine":
        out = np.multiply(ts[:, None, None], p["b"], out=out)
        out += a
        return out
    if p["side"] == "range":
        return _rotate(a, p["z"], seg._plane_coords, p["theta"], ts, out)
    if out is None:  # a transposed layout: later products with the result round by it
        out = np.empty((ts.size,) + a.T.shape).transpose(0, 2, 1)
    _rotate(a.T, p["z"], seg._plane_coords, p["theta"], ts, out.transpose(0, 2, 1))
    return out


def eval_segment(seg: PathSegment, t: float) -> np.ndarray:
    return eval_segment_batch(seg, np.array([float(t)]))[0]


def _check_planes(z: np.ndarray, theta: np.ndarray) -> None:
    if theta.ndim != 1 or z.ndim != 2 or z.shape[1] != 2 * theta.size:
        raise InputError("a rotation needs one angle per pair of plane columns")
    if maxabs(z.T @ z - np.eye(z.shape[1])) > PLANE_TOL:
        raise InputError("rotation planes must have orthonormal columns")


def _frozen(value, name: str) -> np.ndarray:
    """A read-only C-ordered float copy, so a segment shares no array with its caller.

    The order is that of every array a path file loads to: OpenBLAS rounds
    a product by the layout of its factors, and scipy's Schur form gives
    Fortran-ordered planes.  A non-finite number raises InputError naming
    the field.
    """
    out = np.array(value, dtype=float, order="C")
    if not np.isfinite(out).all():
        raise InputError(f"segment field {name!r} holds a non-finite number")
    out.setflags(write=False)
    return out


def _own_end(seg: PathSegment) -> np.ndarray:
    """The leg's value at t = 1, from its start and motion alone.

    Finite fields may still overflow to a non-finite value.  numpy does not
    warn of it here, so the caller's refusal (``_frozen`` naming ``'end'``,
    or ``_end_accepted``) is the only outcome.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return eval_segment_batch(seg, np.ones(1))[0]


def _end_accepted(leg: PathSegment, reached: np.ndarray, end: np.ndarray) -> bool:
    """Whether ``leg``, whose value at t = 1 is ``reached``, may declare ``end``.

    ``end`` must lie within ``_slack(ENDPOINT_TOL, start, b)`` of it:
    rounding follows the base point and the motion, not the end.  A NaN
    difference is refused too.
    """
    return maxabs(end - reached) <= _slack(ENDPOINT_TOL, leg.start, leg.payload.get("b", 0.0))


@_one_blas_thread()
def make_segment(kind: str, payload: dict, start, end=None) -> PathSegment:
    """Build the leg that leaves ``start`` with this motion.

    The leg gives ``start`` at t = 0 exactly.  An ``end`` given must lie
    within ``_slack(ENDPOINT_TOL, start, b)`` of the leg's value at t = 1
    (``_own_end``): rounding follows the base point and the motion, not the
    end.  An end left out is that value, checked for finiteness but not
    compared with itself.  The segment holds read-only copies of ``start``,
    ``end`` and the payload arrays; a non-finite number in any of them
    raises InputError.
    """
    clean = {}
    for key, value in payload.items():
        if key == "side":
            if value not in ("range", "kernel"):
                raise InputError(f"invalid rotation side {value!r}")
            clean[key] = value
        else:
            clean[key] = _frozen(value, key)
    start = _frozen(start, "start")
    probe = PathSegment(kind, clean, start, start)
    if set(clean) != PAYLOAD_FIELDS[kind]:
        raise InputError(
            f"segment {kind!r} needs fields {sorted(PAYLOAD_FIELDS[kind])}, "
            f"got {sorted(clean)}"
        )
    if kind == "rotation":
        _check_planes(clean["z"], clean["theta"])
    reached = _own_end(probe)
    if end is None:
        return PathSegment(kind, clean, start, _frozen(reached, "end"))
    end = _frozen(end, "end")
    if not _end_accepted(probe, reached, end):
        raise InternalConsistencyError(f"segment {kind!r} does not reproduce its declared end")
    return PathSegment(kind, clean, start, end)


@dataclass(frozen=True)
class OperatorPath:
    """A chained, piecewise closed-form family t in [0, 1] -> matrix."""

    segments: tuple[PathSegment, ...]
    shape: tuple[int, int]

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "shape", tuple(self.shape))
        if not segs:
            raise InputError("a path needs at least one segment")
        for seg in segs:
            if seg.start.shape != self.shape or seg.end.shape != self.shape:
                raise InputError("segment endpoint shape disagrees with path shape")
        for left, right in zip(segs, segs[1:]):
            gap = maxabs(left.end - right.start)
            if gap > _slack(CHAIN_TOL, left.end, right.start):
                raise InputError(
                    f"consecutive segments do not chain (gap {gap:.3e})"
                )

    @property
    def start(self) -> np.ndarray:
        return self.segments[0].start

    @property
    def end(self) -> np.ndarray:
        return self.segments[-1].end


def constant_path(a) -> OperatorPath:
    a = as_matrix(a)
    return OperatorPath((make_segment("affine", {"b": np.zeros_like(a)}, a),), a.shape)


def locate(path: OperatorPath, t: float) -> tuple[int, float]:
    """Map a global parameter onto (segment index, local parameter).

    Segments share the unit interval equally.
    """
    if not 0.0 <= t <= 1.0:
        raise InputError(f"path parameter {t} outside [0, 1]")
    nseg = len(path.segments)
    x = t * nseg
    idx = min(int(math.floor(x)), nseg - 1)
    return idx, x - idx


@_one_blas_thread()
def eval_path(path: OperatorPath, t: float) -> np.ndarray:
    idx, local = locate(path, t)
    return eval_segment(path.segments[idx], local)


def _eval_batch(
    path: OperatorPath, segs: np.ndarray, locals_: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with the values at the segment indices and local parameters given."""
    # each run of samples on one segment is evaluated straight into its slice
    bounds = [0, *(np.flatnonzero(np.diff(segs)) + 1).tolist(), len(segs)]
    for lo, hi in zip(bounds, bounds[1:]):
        eval_segment_batch(path.segments[segs[lo]], locals_[lo:hi], out[lo:hi])
    return out


@_one_blas_thread()
def eval_path_batch(path: OperatorPath, samples, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate at a list of (global_t, segment, local_t) triples, in order.

    ``out``, when given, is filled and returned; its values are the same
    as those of the call without it.
    """
    if out is None:
        out = np.empty((len(samples),) + path.shape)
    if not samples:
        return out
    _, segs, locals_ = zip(*samples)
    return _eval_batch(path, np.array(segs), np.array(locals_, dtype=float), out)


def _sample_grid(path: OperatorPath, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays (t, segment, local) of ``sample_parameters``, in increasing t.

    The grid points take the same IEEE operations as ``locate``.  A forced
    midpoint replaces a grid point of the same t.
    """
    grid = _integer(grid, "grid")
    if grid < 2:
        raise InputError("grid must contain at least 2 points")
    nseg = len(path.segments)
    t = np.arange(grid) / (grid - 1)
    x = t * nseg
    segs = np.minimum(np.floor(x).astype(np.intp), nseg - 1)
    locals_ = x - segs
    affine = [s for s, seg in enumerate(path.segments) if seg.kind == "affine"]
    mids = np.array(affine, dtype=np.intp)
    if mids.size:
        mid_t = (mids + 0.5) / nseg
        keep = ~np.isin(t, mid_t)
        t = np.concatenate([t[keep], mid_t])
        order = np.argsort(t, kind="stable")
        t = t[order]
        segs = np.concatenate([segs[keep], mids])[order]
        locals_ = np.concatenate([locals_[keep], np.full(mids.size, 0.5)])[order]
    return t, segs, locals_


def sample_parameters(path: OperatorPath, grid: int) -> list[tuple[float, int, float]]:
    """Uniform global grid plus the exact midpoint of every affine leg.

    Midpoints are forced in because a defect sitting exactly at the middle
    of an affine leg has measure zero and escapes any uniform grid.  A
    ``grid`` that is not an integer count of at least 2 raises InputError.
    """
    return list(zip(*(column.tolist() for column in _sample_grid(path, grid))))


@_one_blas_thread()
def reverse_path(path: OperatorPath) -> OperatorPath:
    """The same trajectory traversed backwards, re-expressed in closed form.

    Each leg runs a forward leg's motion backwards.  The first starts at the
    forward end, each later one at the end its predecessor evaluates to, and
    only the last declares an end: the forward start, exactly.  So, as on a
    ``frame_connect`` path, every interior join is a leg's own value.
    """
    legs = []
    for i, seg in enumerate(reversed(path.segments)):
        p = seg.payload
        payload = {"b": -p["b"]} if seg.kind == "affine" else {**p, "theta": -p["theta"]}
        end = path.start if i == len(path.segments) - 1 else None
        legs.append(make_segment(seg.kind, payload, legs[-1].end if legs else path.end, end))
    return OperatorPath(tuple(legs), path.shape)


# ---------------------------------------------------------------------------
# projector flip families


@_one_blas_thread()
def literal_flip_path(e_star: Subspace, r: Subspace, alpha: GraphParam) -> OperatorPath:
    """Two affine legs taking a projector to its negative through its graph tilts.

    Leg one tilts the projector onto the graph complement, leg two runs the
    printed affine family back down to the negated projector.  This is the
    classical construction shipped verbatim; it makes no membership promise
    along the way, and ``certify.audit_flip_path`` shows the second leg
    leaves the admissible set at its midpoint whenever the tilt is nonzero.
    """
    if r.dim == 0:
        raise InputError("the complement must have positive dimension")
    n = r.ambient_dim
    if e_star.dim == 0:
        return constant_path(np.zeros((n, n)))
    if not subspaces_equal(alpha.domain, e_star) or not subspaces_equal(alpha.codomain, r):
        raise InputError("graph parameter does not match the given decomposition")
    if alpha.is_zero():
        raise InputError("the tilt must be nonzero when the base subspace is nonzero")
    proj = oblique_projection(e_star, r).projector
    ap = alpha_operator(alpha) @ proj
    leg1 = make_segment("affine", {"b": ap}, proj, proj + ap)
    leg2 = make_segment("affine", {"b": -2.0 * proj - ap}, proj + ap, -proj)
    return OperatorPath((leg1, leg2), (n, n))


@_one_blas_thread()
def corrected_flip_path(
    t_mat, k: int | None = None, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorPath:
    """Connect a rank-k matrix to its negative without ever dropping rank.

    One rotation leg pairs the first k + (k mod 2) singular directions of
    the matrix's own SVD, a spare direction joining the last pair only when
    k is odd, and turns each pair by pi: R(1) = -I on their span, which
    holds the range (side "range", taken when the rows leave room) or the
    row space (side "kernel"), so R(1) T = -T.  R(t) is orthogonal, so the
    singular values, and hence the rank, are constant along the leg, which
    declares the negated matrix as its end, exactly.  A rank ``k`` given
    as None is the matrix's own; one that is not an integer raises
    InputError.  Only an invertible square matrix of odd size has no such
    leg: there det(-T) = -det T, so T and -T lie in different invertible
    components, and DisconnectedComponentsError is raised.
    """
    t_mat, rank, (u_full, _, vt_full) = _factor(t_mat, tol)
    k = rank if k is None else _integer(k, "flip rank")
    if rank != k:
        raise InputError(f"matrix rank is not the declared {k}")
    if k == 0:
        return constant_path(t_mat)
    turned = k + k % 2
    if t_mat.shape[0] >= turned:
        z, side = u_full[:, :turned], "range"
    elif t_mat.shape[1] >= turned:
        z, side = vt_full[:turned].T, "kernel"
    else:
        raise DisconnectedComponentsError(
            "an invertible square matrix of odd size and its negative lie in "
            "different invertible components: their determinants have "
            "opposite signs"
        )
    theta = np.full(turned // 2, math.pi)
    leg = make_segment("rotation", {"z": z, "theta": theta, "side": side}, t_mat, -t_mat)
    return OperatorPath((leg,), t_mat.shape)


# ---------------------------------------------------------------------------
# one-sided projection lines


def _line(a: np.ndarray, b: np.ndarray) -> PathSegment:
    """The straight leg from a to b."""
    return make_segment("affine", {"b": b - a}, a, b)


@_one_blas_thread()
def left_project_path(
    t0, f_star: Subspace, n_sub: Subspace, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorPath:
    """Slide the range of an operator onto a reference complement.

    With the codomain split both by range(t0) and by f_star against the
    same complement n_sub, and P the projector onto f_star along n_sub,
    this is the straight leg P t0 -> t0.  Range(t0) is the graph of a map
    a from f_star into n_sub, so (I - P) t0 = aP t0 and the leg is the
    family (P + s*aP) t0: the kernel stays fixed and the range moves
    through the tilted family of complements of n_sub.
    """
    t0 = as_matrix(t0)
    if n_sub.dim == 0:
        raise InputError("the complement must have positive dimension")
    for name, sub in (("range(t0)", range_basis(t0, tol)), ("f_star", f_star)):
        require_direct_sum([sub, n_sub], f"{name} (+) the reference subspace")
    proj = _decomposition(f_star, n_sub).projector
    return OperatorPath((_line(proj @ t0, t0),), t0.shape)


@_one_blas_thread()
def right_project_path(
    t0, e_star: Subspace, r0: Subspace, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorPath:
    """Slide the kernel of an operator onto a reference subspace.

    With the domain split both by kernel(t0) and by e_star against the same
    complement r0, and P the projector onto r0 along e_star, this is the
    straight leg t0 P -> t0.  Kernel(t0) is the graph of a map a from
    e_star into r0, so t0 (I - P) = -t0 aP' with P' = I - P, and the leg is
    the family t0 (P - s*aP'): the range stays fixed and the kernel moves
    through a tilted family.
    """
    t0 = as_matrix(t0)
    if r0.dim == 0:
        raise InputError("the complement must have positive dimension")
    for name, sub in (("kernel(t0)", kernel_basis(t0, tol)), ("e_star", e_star)):
        require_direct_sum([sub, r0], f"{name} (+) the reference subspace")
    proj = _decomposition(r0, e_star).projector
    return OperatorPath((_line(t0 @ proj, t0),), t0.shape)


# ---------------------------------------------------------------------------
# connection in the singular frames


def _skew_log_rotation(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planes z and angles theta with R(1) = w, R in plane form.

    Read off the real block-Schur form: genuine rotation blocks give a
    plane and its angle, paired -1 eigenvalues give a half-turn in their
    plane, +1 eigenvalues give nothing.  The rotation must have
    determinant +1, otherwise the -1 count comes out odd.
    """
    n = w.shape[0]
    t, z = scipy.linalg.schur(w, output="real")
    columns, angles, minus_ones = [], [], []
    i = 0
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > 1e-10:
            angles.append(math.atan2(t[i + 1, i], 0.5 * (t[i, i] + t[i + 1, i + 1])))
            columns += [i, i + 1]
            i += 2
        else:
            if t[i, i] < 0.0:
                minus_ones.append(i)
            i += 1
    if len(minus_ones) % 2:
        raise InternalConsistencyError(
            "rotation with determinant -1 has no real logarithm"
        )
    columns += minus_ones
    angles += [math.pi] * (len(minus_ones) // 2)
    planes, theta = z[:, columns], np.array(angles)
    rebuilt = _rotate(np.eye(n), planes, planes.T, theta, np.ones(1))[0]
    if maxabs(rebuilt - w) > 1e-8 * (1.0 + n):
        raise InternalConsistencyError("rotation logarithm failed to reproduce input")
    return planes, theta


def _stratum_rank(fx, fy) -> int:
    """The rank shared by two endpoints factored by ``_factor``.

    Raises InputError when the shapes or the ranks differ.
    """
    (x, k_x, (_, s_x, _)), (y, k_y, (_, s_y, _)) = fx, fy
    if x.shape != y.shape:
        raise InputError("endpoints must share a shape")
    if k_x != k_y:
        k = min(k_x, k_y)  # each endpoint's sigma_{k+1} / sigma_1 at the smaller rank k
        ratios = " vs ".join(f"{s[k] / s[0] if s[0] else 0.0:.3g}" for s in (s_x, s_y))
        strata = f"endpoints lie in different strata (sigma_{k + 1}/sigma_1 {ratios})"
        raise InputError(f"rank mismatch: {k_x} vs {k_y}; {strata}")
    return k_x


def _orient_frames(u_x, vt_x, u_y, vt_y, k: int) -> None:
    """Negate columns of y's frames so that U_x U_y^T and V_x V_y^T are rotations.

    Negating a singular pair (u_y0, v_y0) flips both determinant signs;
    negating a spare column (index >= k) flips one.  Neither changes the
    rank-k part of y.  When one sign is wrong and its side has no spare
    column, a paired flip moves the wrong sign to the other side.  Only
    square invertible endpoints with opposite determinant signs have no
    way out: they lie in different components.
    """
    flip_u = np.linalg.det(u_x) * np.linalg.det(u_y) < 0
    flip_v = np.linalg.det(vt_x) * np.linalg.det(vt_y) < 0
    spare_u, spare_v = u_y.shape[0] > k, vt_y.shape[0] > k
    if (flip_u and flip_v) or (flip_u and not spare_u) or (flip_v and not spare_v):
        u_y[:, 0] *= -1.0
        vt_y[0] *= -1.0
        flip_u, flip_v = not flip_u, not flip_v
    if (flip_u and not spare_u) or (flip_v and not spare_v):
        raise DisconnectedComponentsError(
            "endpoints lie in different invertible components: their "
            "determinants have opposite signs and there is no spare "
            "direction to rotate the sign away"
        )
    if flip_u:
        u_y[:, k] *= -1.0
    if flip_v:
        vt_y[k] *= -1.0


@_one_blas_thread()
def frame_connect(x, y, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorPath:
    """Path from y to x, two matrices of equal rank k, in their singular frames.

    With full SVDs x = U_x S_x V_x^T and y = U_y S_y V_y^T the path has up
    to five legs:

      1. affine: drop the singular values of y below the rank cut;
      2. affine: move the top k singular values of y to those of x, each
         along (1 - t) s_y + t s_x, so none of them reaches zero;
      3. rotation (range side) with R(1) = U_x U_y^T;
      4. rotation (kernel side) with R(1) = V_x V_y^T;
      5. affine: restore the singular values of x below the rank cut.

    Legs 1 and 5 are left out when the tail they would move is within the
    endpoint tolerance, and so are legs that would not move at all.  Each
    leg ends at its own value at t = 1 and the next starts there, so the
    rounding of the rotation logarithm never reaches an endpoint check;
    only the last leg declares an end, x itself.  A path file writes none
    of the interior ends.  Rotations keep every singular value, so the
    rank is k at every parameter.  Raises DisconnectedComponentsError for
    square invertible endpoints with opposite determinant signs.
    """
    return _frame_path(_factor(x, tol), _factor(y, tol))


def _frame_path(fx, fy) -> OperatorPath:
    """``frame_connect`` from the factors ``_factor`` gives of its endpoints."""
    k = _stratum_rank(fx, fy)
    (x, _, (u_x, s_x, vt_x)), (y, _, (u_y, s_y, vt_y)) = fx, fy
    if np.array_equal(x, y):
        return constant_path(x)
    # orientation negates frame columns, and the caller may still hold y's factors
    u_y, vt_y = u_y.copy(), vt_y.copy()
    _orient_frames(u_x, vt_x, u_y, vt_y, k)
    legs = []

    def add(kind, end=None, **payload):
        start = legs[-1].end if legs else y
        legs.append(make_segment(kind, payload, start, end))

    drop = (u_y[:, :k] * s_y[:k]) @ vt_y[:k] - y
    if maxabs(drop) > _slack(ENDPOINT_TOL, y):
        add("affine", b=drop)
    step = (u_y[:, :k] * (s_x[:k] - s_y[:k])) @ vt_y[:k]
    if step.any():
        add("affine", b=step)
    for side, w in (("range", u_x @ u_y.T), ("kernel", vt_x.T @ vt_y)):
        z, theta = _skew_log_rotation(w)
        if theta.size:
            add("rotation", z=z, theta=theta, side=side)
    last = legs[-1] if legs else None
    if last and _end_accepted(last, last.end, x):  # built and checked already: x is its end
        legs[-1] = PathSegment(last.kind, last.payload, last.start, _frozen(x, "end"))
    else:
        add("affine", end=x, b=x - (last.end if last else y))
    return OperatorPath(tuple(legs), x.shape)


@_one_blas_thread()
def gl_connect(
    a, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[OperatorPath, int]:
    """Connect an invertible matrix to a canonical point of its component.

    The target is d = diag(sign det a, 1, ..., 1): over the reals that
    point is always reachable, whereas the identity itself is not when the
    determinant is negative.  The path is ``frame_connect(d, a)``: its
    singular-value leg takes each sigma_i(a) linearly to 1 and its
    rotations are isometric, so the smallest singular value never drops
    below min(sigma_min(a), 1).  Returns the path and the determinant sign.
    """
    fa = _factor(a, tol)
    a, rank, _ = fa
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise InputError("gl_connect needs a square matrix")
    if rank != n:
        raise InputError("matrix is numerically singular")
    sign = int(np.linalg.slogdet(a)[0])
    d = np.eye(n)
    d[0, 0] = sign
    return _frame_path(_factor(d, tol), fa), sign


@_one_blas_thread()
def connect_fk(t1, t2, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorPath:
    """Build an explicit path from t2 to t1 inside the rank-k stratum.

    This is the frame path of ``frame_connect``: rescale the singular
    values, then rotate the range frame and the kernel frame.  Rank k is
    maintained at every parameter.
    """
    return frame_connect(t1, t2, tol)


@_one_blas_thread()
def connect_phi(
    t1,
    t2,
    kernel_dim: int | None = None,
    corank: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> OperatorPath:
    """Path between two operators with fixed kernel dimension and corank.

    At fixed shape those two numbers pin the rank, so the construction is
    the rank-stratum frame path; this entry point verifies the membership
    data first and rejects the invertible-by-invertible case, which is
    genuinely not path connected.  A kernel dimension or corank given as
    None is read from t1.
    """
    f1, f2 = _factor(t1, tol), _factor(t2, tol)
    rows, cols = f1[0].shape
    if f2[0].shape != (rows, cols):
        raise InputError("endpoints must share a shape")
    if kernel_dim is None:
        kernel_dim = cols - f1[1]
    if corank is None:
        corank = rows - f1[1]
    if kernel_dim < 0 or corank < 0:
        raise InputError("kernel dimension and corank must be nonnegative")
    if kernel_dim == 0 and corank == 0:
        raise DisconnectedComponentsError(
            "the set of invertible operators is not path connected over "
            "the reals; kernel dimension and corank cannot both be zero"
        )
    for name, (_, k, _) in (("t1", f1), ("t2", f2)):
        if cols - k != kernel_dim:
            raise InputError(
                f"{name} has kernel dimension {cols - k}, expected {kernel_dim}"
            )
        if rows - k != corank:
            raise InputError(f"{name} has corank {rows - k}, expected {corank}")
    return _frame_path(f1, f2)


# ---------------------------------------------------------------------------
# equivalence chains


@dataclass(frozen=True)
class ChainWitness:
    """Finite chains of subspaces certifying two operators equivalent.

    ``kernel_complements[j]`` must complement both its neighbouring kernels
    in the chain kernel(t0), kernels[0], ..., kernels[-1], kernel(t_star);
    ``range_complements`` plays the symmetric role on the codomain side for
    the chain range(t0), ranges[0], ..., ranges[-1], range(t_star).
    """

    kernels: tuple[Subspace, ...]
    kernel_complements: tuple[Subspace, ...]
    ranges: tuple[Subspace, ...]
    range_complements: tuple[Subspace, ...]

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "kernel_complements", tuple(self.kernel_complements))
        object.__setattr__(self, "ranges", tuple(self.ranges))
        object.__setattr__(self, "range_complements", tuple(self.range_complements))
        if len(self.kernel_complements) != len(self.kernels) + 1:
            raise InputError(
                "need exactly one kernel complement per consecutive kernel pair"
            )
        if len(self.range_complements) != len(self.ranges) + 1:
            raise InputError(
                "need exactly one range complement per consecutive range pair"
            )


def _validate_witness(
    witness: ChainWitness, kernel_nodes: list[Subspace], range_nodes: list[Subspace]
) -> None:
    for side, nodes, comps in (
        ("kernel", kernel_nodes, witness.kernel_complements),
        ("range", range_nodes, witness.range_complements),
    ):
        for j, comp in enumerate(comps, start=1):
            for node, which in ((nodes[j - 1], "left"), (nodes[j], "right")):
                check = is_direct_sum([node, comp])
                if not check.ok:
                    raise WitnessError(
                        f"{side} chain slot {j}: complement does not split the "
                        f"{which} {side} (condition {check.condition_number:.3e})"
                    )


@_one_blas_thread()
def chain_connect(
    t0, t_star, witness: ChainWitness, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorPath:
    """Path from t_star to t0 through the stages named by a chain witness.

    Going forward from t0, kernel link j multiplies on the right by the
    projector onto kernel_complements[j-1] along kernels[j-1], and range
    link i multiplies on the left by the projector onto ranges[i-1] along
    range_complements[i-1].  The path joins t_star to the last of
    these chained operators with ``frame_connect``, then walks back to t0
    along straight legs between consecutive chained operators: each such
    leg is a right or left projection leg, so the rank holds along it.
    The last complement on each side is validated like the others but
    builds nothing, since ``frame_connect`` needs no common splitting.
    """
    f0, f_star = _factor(t0, tol), _factor(t_star, tol)
    k = _stratum_rank(f0, f_star)
    (t0, _, svd0), (t_star, _, svd_star) = f0, f_star
    (ker0, rng0), (ker_star, rng_star) = _kernel_range(svd0, k), _kernel_range(svd_star, k)
    kernel_nodes = [ker0, *witness.kernels, ker_star]
    range_nodes = [rng0, *witness.ranges, rng_star]
    _validate_witness(witness, kernel_nodes, range_nodes)
    if np.array_equal(t0, t_star):
        return constant_path(t0)
    chained = [t0]  # each link's pair was split-checked by _validate_witness
    for node, comp in zip(witness.kernels, witness.kernel_complements):
        chained.append(chained[-1] @ _decomposition(comp, node).projector)
    for node, comp in zip(witness.ranges, witness.range_complements):
        chained.append(_decomposition(node, comp).projector @ chained[-1])
    # the frame stage reuses t0's factors unless the links moved it
    moved = not np.array_equal(chained[-1], t0)
    segments = list(_frame_path(_factor(chained[-1], tol) if moved else f0, f_star).segments)
    segments += [_line(chained[i], chained[i - 1]) for i in range(len(chained) - 1, 0, -1)]
    # drop do-nothing legs, such as a frame stage between equal operators
    kept = [s for s in segments if s.kind == "rotation" or s.payload["b"].any()]
    return OperatorPath(tuple(kept), t0.shape)


@_one_blas_thread()
def discover_chain(
    t0, t_star, tol: ToleranceConfig = DEFAULT_TOL
) -> ChainWitness:
    """Shortest witness between same-rank operators: one common complement a side."""
    f0, f_star = _factor(t0, tol), _factor(t_star, tol)
    k = _stratum_rank(f0, f_star)
    (ker0, rng0), (ker_star, rng_star) = _kernel_range(f0[2], k), _kernel_range(f_star[2], k)
    r1 = common_complement(ker0, ker_star, tol)
    s1 = common_complement(rng0, rng_star, tol)
    return ChainWitness((), (r1,), (), (s1,))
