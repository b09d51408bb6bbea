"""Sampled numerical certification of operator paths.

A certificate records, per sampled parameter, the rank decision and the
two singular values bracketing it, plus any requested direct-sum and
kernel-identity evidence, so a tolerance dispute can be re-adjudicated
offline from the file alone.  Midpoints of affine legs are always forced
into the sample set; a defect parked exactly there would otherwise slip
through every uniform grid.  ``audit_flip_path`` runs the same membership
checks on a flip path without the rank part.

Both walk the sample grid one chunk at a time: a chunk is evaluated into
a buffer that the next chunk reuses, factored with one stacked SVD (of
the singular values only, when no membership is checked) and reduced to
named per-sample columns, all read from that one factorization.  Each
membership residual is read from the sines of the principal angles between
a spec subspace and the sample's range or kernel: the singular values of
the spec basis in the coordinates of the sample's complement frame, a
slice of its singular vectors (Bjorck & Golub 1973).  Each direct-sum
check (its condition number, from the smallest sine) and the kernel angle
(the largest principal angle between a sample's kernel and the expected
one, from the largest sine) take one more stacked SVD per sample rank, of
matrices of at most max(k, n - k) rows.  Every grid is walked the same
way: cut into one contiguous stretch per worker (``WORKERS``, the usable
cores), as many as leave each stretch at least 256 samples or 32 KiB of
sample values, and walked at once.  The calling thread walks the first
stretch; a pool of ``WORKERS - 1`` threads, started on first use and kept
for the life of the process, walks the others.  A grid too light for two
stretches is one stretch, walked on the calling thread alone.  Like every
entry point of the library that computes, ``certify_path`` and
``audit_flip_path`` hold numpy's and scipy's OpenBLAS to one thread for
the whole call (``strata.blas``), the pool's threads included, so a
certificate is the same on any number of cores.
The working memory is set by ``CHUNK_BYTES``, shared by the workers, not
by the grid size, and the results are those of one sample at a time
wherever the chunks and stretches split.

The grid is carried as arrays from the sampler to the verdict: its
(t, segment, local) arrays are cut into stretches and chunks, and the
verdict and failures are read from the joined columns.  A certificate or
audit holds its evidence as those columns, one list each under the names
``_columns`` gives them, and is written so; ``PathCertificate.per_sample``
builds records from them on each read.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blas import _BLAS, _one_blas_thread
from .errors import InputError
from .paths import OperatorPath, _eval_batch, _sample_grid
from .subspaces import (
    ANGLE_TOL,
    DEFAULT_TOL,
    MEMBERSHIP_COND_MAX,
    Subspace,
    ToleranceConfig,
    _angle_from_sines,
    _condition_from_sines,
    _integer,
    _slack,
    _svd,
    maxabs,
    rank_from_singular_values,
)

__all__ = [
    "MembershipSpec",
    "SampleRecord",
    "PathCertificate",
    "FlipAudit",
    "certify_path",
    "audit_flip_path",
]

ENDPOINT_PASS_TOL = 1e-9
SIGMA_GAP_MIN = 1e6
CHUNK_BYTES = 1 << 22  # working memory of the chunks in flight, all workers together

# stretches of the grid walked at once: one per usable core, or one when
# numpy's BLAS threads cannot be held (they would compete with the workers)
WORKERS = len(os.sched_getaffinity(0)) if _BLAS is not None else 1


# the lightest stretch handed to a pool thread: 256 samples, or 32 KiB of
# sample values where that is fewer samples (larger than 4x4).  A lighter
# one costs more in handing it over and in evaluating its samples, which
# holds the GIL, than its share of the stacked SVDs saves
_STRETCH_SAMPLES = 256
_STRETCH_BYTES = 1 << 15

_pool_lock = threading.Lock()
_pool_held = None  # (WORKERS, executor)


def _pool() -> ThreadPoolExecutor:
    """The process's pool of ``WORKERS - 1`` threads, started on first use.

    A walk with fewer stretches uses it too; a walk after ``WORKERS`` was
    changed replaces it.  The old pool is not shut down: a walk may still
    be handing it stretches, and its threads end once it is no longer held.
    """
    global _pool_held
    with _pool_lock:
        if _pool_held is None or _pool_held[0] != WORKERS:
            _pool_held = WORKERS, ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="strata-walk")
        return _pool_held[1]


def _forget_pool():
    """In a forked child: drop the parent's pool, whose threads did not fork."""
    global _pool_lock, _pool_held
    _pool_lock, _pool_held = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@dataclass(frozen=True)
class MembershipSpec:
    """Which set-membership facts to check at every sample.

    range_complement: the range must form a direct sum with this subspace.
    kernel_complement: the kernel must form a direct sum with this subspace.
    kernel_equals: the kernel must coincide with this subspace.
    """

    range_complement: Subspace | None = None
    kernel_complement: Subspace | None = None
    kernel_equals: Subspace | None = None

    def any(self) -> bool:
        return bool(_checks(self))


def _check_ambient(spec: MembershipSpec, shape: tuple[int, int]) -> None:
    """Reject a spec whose subspaces do not live where the path's matrices act."""
    rows, cols = shape
    for name, space, side, n in (
        ("range_complement", spec.range_complement, "codomain", rows),
        ("kernel_complement", spec.kernel_complement, "domain", cols),
        ("kernel_equals", spec.kernel_equals, "domain", cols),
    ):
        if space is not None and space.ambient_dim != n:
            raise InputError(
                f"membership {name} lives in R^{space.ambient_dim}, "
                f"but the path's {side} is R^{n}"
            )


def _checks(spec: MembershipSpec) -> dict[str, Subspace]:
    """The subspace of each check ``spec`` asks for, by column name, in certificate order."""
    named = (
        ("range_complement_cond", spec.range_complement),
        ("kernel_complement_cond", spec.kernel_complement),
        ("kernel_angle", spec.kernel_equals),
    )
    return {name: space for name, space in named if space is not None}


def _columns(
    values: np.ndarray,
    tol: ToleranceConfig,
    expected_k: int | None = None,
    spec: MembershipSpec | None = None,
) -> dict[str, np.ndarray]:
    """Named per-sample columns of one chunk, all read from one stacked ``_svd``.

    With ``expected_k``: "rank", "sigma_k", "sigma_k_plus_1" and "ok", the
    rank-and-gap flag (sigma_{k+1} counts as at least eps * sigma_1; an
    all-zero sample fails by its rank).  With ``spec``: each check's
    residual under its name in ``_checks`` and its pass flag under that name
    plus "_ok".  Without checks the SVD takes the singular values only.  With
    them it is a full SVD, whose own singular values give the rank part and
    the rank each sample's kernel and range are cut at.  Each spec basis is
    taken once into the coordinates of every sample's singular frame (U^T C
    for the codomain, V^T R for the domain).  Cut at the sample's rank k,
    those rows are the cosines and the sines of the principal angles between
    the spec subspace and the sample's range or kernel (Bjorck & Golub
    1973).  Samples of equal rank share one stacked SVD per check, of
    matrices of at most max(k, n - k) rows: the smallest sines give the
    direct sums' condition numbers (``_condition_from_sines``, which factors
    the cosines too for the samples whose smallest sine exceeds sqrt(1/2)),
    and the largest sines between the expected kernel and the sample's give
    the kernel angles (``_angle_from_sines``).  A kernel of the wrong
    dimension has angle inf to the expected one.  No matrix of the
    concatenated bases is formed.  The values equal those of the same rules
    applied one sample at a time to the sample's own SVD.
    """
    count, rows, cols = values.shape
    if spec is None:
        s = _svd(values, compute_uv=False)
    else:
        u, s, vt = _svd(values)
    ranks = rank_from_singular_values(s, tol)
    out = {}
    if expected_k is not None:
        zeros = np.zeros(count)
        sigma_k = s[:, expected_k - 1] if expected_k else zeros
        sigma_next = s[:, expected_k] if s.shape[1] > expected_k else zeros
        ok = ranks == expected_k
        if expected_k:
            floor = np.maximum(sigma_next, np.finfo(float).eps * s[:, 0])
            gap = np.divide(sigma_k, floor, out=np.full(count, np.inf), where=floor > 0.0)
            ok &= gap >= SIGMA_GAP_MIN
        out.update(rank=ranks, sigma_k=sigma_k, sigma_k_plus_1=sigma_next, ok=ok)
    if spec is None:
        return out
    checks = _checks(spec)
    # cut at rank k, rows :k of U^T C lie along the range and rows k: across
    # it; rows :k of V^T R lie across the kernel and rows k: along it
    coords = {
        name: (np.swapaxes(u, -1, -2) if name == "range_complement_cond" else vt) @ want.basis
        for name, want in checks.items()
    }
    for name in checks:
        out[name], out[name + "_ok"] = np.empty(count), np.empty(count, dtype=bool)
    for k in np.unique(ranks).tolist():
        group = np.flatnonzero(ranks == k)
        for name, want in checks.items():
            head, tail = coords[name][group, :k], coords[name][group, k:]
            if name == "range_complement_cond":
                value = _condition_from_sines(head, tail)
                passed = (k + want.dim == rows) & (value <= MEMBERSHIP_COND_MAX)
            elif name == "kernel_complement_cond":
                value = _condition_from_sines(tail, head)
                passed = (want.dim == k) & (value <= MEMBERSHIP_COND_MAX)
            elif want.dim == cols - k:
                value = _angle_from_sines(head)
                passed = value < ANGLE_TOL
            else:
                value, passed = np.full(group.size, np.inf), False
            out[name][group], out[name + "_ok"][group] = value, passed
    return out


def _chunk_samples(shape: tuple[int, int], membership: bool) -> int:
    """Samples in flight: CHUNK_BYTES over the working set of one sample.

    That is its m*n values and, when the membership pass runs, what
    ``_columns`` allocates for it: its U (m*m) and V^T (n*n), the spec
    bases' coordinates in them (at most m*m for the range check and n*n for
    each kernel check), as much again for their slices at the sample's rank,
    and 32 numbers of per-sample columns and singular values.  Without the
    pass, m*n more for the copy ``_svd`` scales the values into; with it,
    that copy is gone before the pass allocates the rest.
    """
    rows, cols = shape
    values = rows * cols + (3 * rows * rows + 5 * cols * cols + 32 if membership else rows * cols)
    return max(1, CHUNK_BYTES // (8 * values))


def _chunks(path: OperatorPath, segs: np.ndarray, locals_: np.ndarray, step: int):
    """Evaluate the samples at ``segs`` and ``locals_`` in order, ``step`` at a time.

    Yields each chunk's values.  They live in one buffer that the next chunk
    overwrites, so no stack of the whole grid is ever held.
    """
    buffer = np.empty((min(step, segs.size),) + path.shape)
    for lo in range(0, segs.size, step):
        hi = min(lo + step, segs.size)
        yield _eval_batch(path, segs[lo:hi], locals_[lo:hi], buffer[: hi - lo])


def _walk(path: OperatorPath, segs: np.ndarray, locals_: np.ndarray, membership: bool, reduce):
    """``reduce`` of each chunk's values, in grid order.

    The grid is cut into one contiguous stretch per worker, as many as
    ``WORKERS`` allows with at least ``_STRETCH_SAMPLES`` samples or
    ``_STRETCH_BYTES`` of values each: this thread walks the first, the
    process's pool (``_pool``) the others, each in chunks of its share of
    CHUNK_BYTES.  A grid too light for two stretches never reaches the
    pool.  The caller holds OpenBLAS to one thread, for the pool's threads
    too.  ``reduce`` must copy what it keeps, because the values are
    overwritten by the next chunk.  An exception of any stretch is raised
    here, once every stretch stopped.
    """
    rows, cols = path.shape
    stretches = max(1, segs.size // _STRETCH_SAMPLES, segs.size * 8 * rows * cols // _STRETCH_BYTES)
    workers = min(WORKERS, stretches)
    step = max(1, _chunk_samples(path.shape, membership) // workers)
    bounds = [segs.size * i // workers for i in range(workers + 1)]

    def stretch(lo, hi):
        return [reduce(values) for values in _chunks(path, segs[lo:hi], locals_[lo:hi], step)]

    rest = [_pool().submit(stretch, lo, hi) for lo, hi in zip(bounds[1:], bounds[2:])]
    try:
        first = stretch(bounds[0], bounds[1])
    finally:
        # every stretch stops before the caller's hold gives the BLAS threads back
        wait(rest)
    return first + [out for future in rest for out in future.result()]


def _join(chunks: list[dict]) -> dict[str, np.ndarray]:
    """The columns of consecutive chunks, as columns of the whole grid."""
    return {name: np.concatenate([chunk[name] for chunk in chunks]) for name in chunks[0]}


class SampleRecord(NamedTuple):
    t: float
    segment: int
    local_t: float
    rank: int
    sigma_k: float
    sigma_k_plus_1: float
    membership_residuals: dict | None
    ok: bool


@dataclass(frozen=True)
class PathCertificate:
    """Machine-checkable evidence for one path.

    ``samples`` holds the per-sample evidence as columns, one list each in
    grid order: "t", "segment", "local_t", "rank", "sigma_k",
    "sigma_k_plus_1", the residual of each membership check asked for,
    under its name in ``_checks``, and "ok".
    """

    instance: dict | None
    grid_size: int
    expected_k: int
    samples: dict[str, list]
    endpoint_errors: tuple[float, float]
    verdict: str
    failures: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def per_sample(self) -> tuple[SampleRecord, ...]:
        """One record per sample, built from ``samples`` on each read.

        A record's ``membership_residuals`` is a dict of the residual columns,
        or None when no membership was checked.
        """
        columns = self.samples
        checks = [name for name in columns if name not in SampleRecord._fields]
        residuals = (
            [dict(zip(checks, row)) for row in zip(*(columns[name] for name in checks))]
            if checks
            else [None] * self.grid_size
        )
        fields = (
            residuals if name == "membership_residuals" else columns[name]
            for name in SampleRecord._fields
        )
        return tuple(map(SampleRecord._make, zip(*fields)))


@_one_blas_thread()
def certify_path(
    path: OperatorPath,
    expected_k: int,
    grid: int = 1001,
    tol: ToleranceConfig = DEFAULT_TOL,
    membership: MembershipSpec | None = None,
    instance: dict | None = None,
) -> PathCertificate:
    """Sample a path and certify rank plus optional membership claims.

    A sample passes when the rank decision equals ``expected_k``, the
    sigma_k / sigma_{k+1} gap clears ``SIGMA_GAP_MIN`` (sigma_{k+1} counts
    as at least eps * sigma_1), every requested membership check holds, and
    the ends lie within ENDPOINT_PASS_TOL times the endpoints' largest entry:
    relative rules, so a scaled path gets the same verdict.  The verdict is
    "degenerate" for rank-zero targets, whose passes would be vacuous.
    Failures are listed by the local parameter of the leg they occur on.
    An ``expected_k`` that is not an integer, or is outside [0, min(m, n)],
    raises InputError.
    """
    expected_k = _integer(expected_k, "expected rank")
    if not 0 <= expected_k <= min(path.shape):
        raise InputError(f"expected rank {expected_k} outside [0, {min(path.shape)}]")
    if membership is not None:
        _check_ambient(membership, path.shape)
    spec = membership if membership is not None and membership.any() else None
    t, segs, locals_ = _sample_grid(path, grid)

    def reduce(values):
        return (
            maxabs(values[0] - path.start),
            maxabs(values[-1] - path.end),
            _columns(values, tol, expected_k, spec),
        )

    e0s, e1s, parts = zip(*_walk(path, segs, locals_, spec is not None, reduce))
    e0, e1 = e0s[0], e1s[-1]  # from the first and the last chunk
    columns = _join(parts)
    checks = list(_checks(spec)) if spec is not None else []
    ok = columns["ok"]
    for name in checks:
        ok &= columns[name + "_ok"]
    failures = np.unique(locals_[~ok]).tolist()
    endpoints_ok = e0 <= _slack(ENDPOINT_PASS_TOL, path.start) and e1 <= _slack(
        ENDPOINT_PASS_TOL, path.end
    )
    if expected_k == 0:
        verdict = "degenerate"
    elif endpoints_ok and not failures:
        verdict = "pass"
    else:
        verdict = "fail"
    evidence = {"t": t, "segment": segs, "local_t": locals_}
    for name in ("rank", "sigma_k", "sigma_k_plus_1", *checks, "ok"):
        evidence[name] = columns[name]
    samples = {name: column.tolist() for name, column in evidence.items()}
    return PathCertificate(instance, t.size, expected_k, samples, (e0, e1), verdict, tuple(failures))


@dataclass(frozen=True)
class FlipAudit:
    """Pointwise membership evidence for a flip path.

    ``samples`` holds it as columns, one list each in grid order: "t",
    "segment", "local_t", and the residual and pass flag of each check
    under ``certify_path``'s names: "range_complement_cond",
    "range_complement_cond_ok", "kernel_angle" and "kernel_angle_ok".
    """

    grid_size: int
    degenerate: bool
    samples: dict[str, list]
    failures: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@_one_blas_thread()
def audit_flip_path(
    path: OperatorPath,
    s_spec: tuple[Subspace, Subspace],
    grid: int = 11,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FlipAudit:
    """Check, per sample, that the path stays in its advertised operator set.

    ``s_spec`` is (expected kernel, complement): at each sample the range
    must complement the given subspace and the kernel must equal the
    expected one.  Failures are reported by the local parameter of the leg
    they occur on, so a midpoint defect always reads 0.5.
    """
    expected_kernel, complement = s_spec
    spec = MembershipSpec(range_complement=complement, kernel_equals=expected_kernel)
    _check_ambient(spec, path.shape)
    t, segs, locals_ = _sample_grid(path, grid)

    def reduce(values):
        return maxabs(values) == 0.0, _columns(values, tol, spec=spec)

    zero, parts = zip(*_walk(path, segs, locals_, True, reduce))
    degenerate = all(zero)
    columns = _join(parts)
    if degenerate:  # every check holds on the zero path
        for name in _checks(spec):
            columns[name], columns[name + "_ok"] = np.zeros(t.size), np.ones(t.size, dtype=bool)
    ok = columns["range_complement_cond_ok"] & columns["kernel_angle_ok"]
    failures = np.unique(locals_[~ok]).tolist()
    evidence = {"t": t, "segment": segs, "local_t": locals_, **columns}
    samples = {name: column.tolist() for name, column in evidence.items()}
    return FlipAudit(t.size, degenerate, samples, tuple(failures))
