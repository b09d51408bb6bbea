"""Sampled numerical certification of operator paths.

A certificate records, per sampled parameter, the rank decision and the
two singular values bracketing it, plus any requested direct-sum and
kernel-identity evidence, so a tolerance dispute can be re-adjudicated
offline from the file alone.  Midpoints of affine legs are always forced
into the sample set; a defect parked exactly there would otherwise slip
through every uniform grid.  ``audit_flip_path`` runs the same per-sample
membership check on a flip path without the rank part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .paths import OperatorPath, eval_path_batch, sample_parameters
from .subspaces import (
    ANGLE_TOL,
    DEFAULT_TOL,
    Subspace,
    ToleranceConfig,
    is_direct_sum,
    maxabs,
    principal_angles,
    rank_from_singular_values,
    rank_kernel_range,
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
        return (
            self.range_complement is not None
            or self.kernel_complement is not None
            or self.kernel_equals is not None
        )


def _membership_checks(
    w: np.ndarray, spec: MembershipSpec, tol: ToleranceConfig
) -> dict[str, tuple[float, bool]]:
    """Residual and pass flag of each check ``spec`` asks for, at one sample.

    The sample's kernel and range come from one SVD.  A kernel of the wrong
    dimension has angle inf to the expected one.
    """
    _, ker, rng = rank_kernel_range(w, tol)
    out = {}
    if spec.range_complement is not None:
        check = is_direct_sum([rng, spec.range_complement], tol)
        out["range_complement_cond"] = (float(check.condition_number), check.ok)
    if spec.kernel_complement is not None:
        check = is_direct_sum([ker, spec.kernel_complement], tol)
        out["kernel_complement_cond"] = (float(check.condition_number), check.ok)
    if spec.kernel_equals is not None:
        want = spec.kernel_equals
        if ker.dim != want.dim:
            angle = float("inf")
        elif ker.dim == 0:
            angle = 0.0
        else:
            angle = float(np.max(principal_angles(ker, want)))
        out["kernel_angle"] = (angle, angle < ANGLE_TOL)
    return out


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
    """Machine-checkable evidence for one path."""

    instance: dict | None
    grid_size: int
    expected_k: int
    per_sample: tuple[SampleRecord, ...]
    endpoint_errors: tuple[float, float]
    verdict: str
    failures: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def certify_path(
    path: OperatorPath,
    expected_k: int,
    grid: int = 1001,
    tol: ToleranceConfig = DEFAULT_TOL,
    membership: MembershipSpec | None = None,
    sigma_gap_min: float = SIGMA_GAP_MIN,
    instance: dict | None = None,
) -> PathCertificate:
    """Sample a path and certify rank plus optional membership claims.

    A sample passes when the rank decision equals ``expected_k``, the
    sigma_k / sigma_{k+1} gap clears ``sigma_gap_min`` (the missing
    singular value counts as machine zero), and every requested membership
    check holds.  The verdict is "degenerate" for rank-zero targets, whose
    passes would be vacuous.  Failures are listed by the local parameter
    of the leg they occur on.
    """
    samples = sample_parameters(path, grid)
    values = eval_path_batch(path, samples)
    svals = np.linalg.svd(values, compute_uv=False)
    n, r = svals.shape
    zeros = np.zeros(n)
    ranks = rank_from_singular_values(svals, tol)
    sigma_k = svals[:, expected_k - 1] if 1 <= expected_k <= r else zeros
    sigma_next = svals[:, expected_k] if r > expected_k else zeros
    ok = ranks == expected_k
    if expected_k != 0:
        # the missing singular value counts as machine zero relative to sigma_1
        top = svals[:, 0] if r else zeros
        floor = np.maximum(sigma_next, np.finfo(float).eps * np.maximum(top, 1.0))
        ok &= sigma_k / floor >= sigma_gap_min
    residuals = [None] * n
    if membership is not None and membership.any():
        for i, w in enumerate(values):
            checks = _membership_checks(w, membership, tol)
            residuals[i] = {name: value for name, (value, _) in checks.items()}
            ok[i] &= all(passed for _, passed in checks.values())
    ts, segs, locals_ = zip(*samples)
    columns = (
        ts,
        segs,
        locals_,
        ranks.tolist(),
        sigma_k.tolist(),
        sigma_next.tolist(),
        residuals,
        ok.tolist(),
    )
    records = tuple(map(SampleRecord._make, zip(*columns)))
    failures = {locals_[i] for i in np.flatnonzero(~ok).tolist()}
    e0 = maxabs(values[0] - path.start)
    e1 = maxabs(values[-1] - path.end)
    endpoints_ok = e0 <= ENDPOINT_PASS_TOL * (1.0 + maxabs(path.start)) and e1 <= (
        ENDPOINT_PASS_TOL * (1.0 + maxabs(path.end))
    )
    if expected_k == 0:
        verdict = "degenerate"
    elif endpoints_ok and not failures:
        verdict = "pass"
    else:
        verdict = "fail"
    return PathCertificate(
        instance,
        len(samples),
        expected_k,
        records,
        (e0, e1),
        verdict,
        tuple(sorted(failures)),
    )


@dataclass(frozen=True)
class FlipAudit:
    """Pointwise membership evidence for a flip path."""

    grid_size: int
    degenerate: bool
    records: tuple[dict, ...]
    failures: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


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
    samples = sample_parameters(path, grid)
    values = eval_path_batch(path, samples)
    degenerate = maxabs(values) == 0.0
    records = []
    failures = set()
    for (t, seg, local), w in zip(samples, values):
        if degenerate:
            range_check, kernel_check = (0.0, True), (0.0, True)
        else:
            checks = _membership_checks(w, spec, tol)
            range_check, kernel_check = checks["range_complement_cond"], checks["kernel_angle"]
        records.append(
            {
                "t": t,
                "segment": seg,
                "local_t": local,
                "range_split_ok": bool(range_check[1]),
                "range_condition": range_check[0],
                "kernel_ok": bool(kernel_check[1]),
                "kernel_angle": kernel_check[0],
            }
        )
        if not (range_check[1] and kernel_check[1]):
            failures.add(local)
    return FlipAudit(len(samples), degenerate, tuple(records), tuple(sorted(failures)))
