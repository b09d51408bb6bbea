import dataclasses
import json
import multiprocessing
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st_hyp

from strata import (
    GraphParam,
    MembershipSpec,
    Subspace,
    audit_flip_path,
    certify_path,
    chain_connect,
    connect_fk,
    connect_phi,
    constant_path,
    corrected_flip_path,
    discover_chain,
    eval_path,
    kernel_basis,
    literal_flip_path,
    oblique_projection,
)
import strata.blas as blas_module
import strata.certify as certify_module
from strata.certify import SIGMA_GAP_MIN, FlipAudit, SampleRecord
from strata.errors import InputError
from strata.instances import InstanceSpec, gen_instance, random_subspace
from strata.paths import (
    OperatorPath,
    _line,
    eval_path_batch,
    left_project_path,
    reverse_path,
    right_project_path,
    sample_parameters,
)
from strata.serialization import audit_to_obj, certificate_to_obj, save_json
from strata.subspaces import (
    ANGLE_TOL,
    DEFAULT_TOL,
    ToleranceConfig,
    _angle_from_sines,
    _condition_from_sines,
    _factor,
    is_direct_sum,
    maxabs,
    rank_from_singular_values,
    rank_kernel_range,
)

from conftest import (
    assert_largest_angle_near_scipy,
    count_factorizations,
    random_flip_instance,
    random_split,
    span,
)


def tilt(e_star, r, ambient):
    coeff = r.basis.T @ np.asarray(ambient, dtype=float) @ e_star.basis
    return GraphParam(e_star, r, coeff)


class TestCertify:
    def test_constant_rank_one_passes(self):
        p = constant_path(np.array([[1.0, 0.0], [0.0, 0.0]]))
        cert = certify_path(p, 1, grid=11)
        assert cert.verdict == "pass"
        assert cert.failures == ()
        assert all(r.rank == 1 for r in cert.per_sample)

    def test_literal_flip_fails_at_half(self):
        e_star, r = span([1, 0]), span([0, 1])
        p = literal_flip_path(e_star, r, tilt(e_star, r, [[0, 0], [1, 0]]))
        cert = certify_path(p, 1, grid=11, membership=MembershipSpec(range_complement=r))
        assert cert.verdict == "fail"
        assert 0.5 in cert.failures

    def test_full_pipeline_pass(self):
        payload = gen_instance(InstanceSpec(m=2, n=2, k=1, seed=7, kind="fk-pair"))
        p = connect_fk(payload["T1"], payload["T2"])
        cert = certify_path(p, 1, grid=1001)
        assert cert.verdict == "pass"
        assert max(cert.endpoint_errors) <= 1e-9

    def test_degenerate_zero_rank(self):
        cert = certify_path(constant_path(np.zeros((2, 2))), 0, grid=5)
        assert cert.verdict == "degenerate"

    def test_membership_kernel_checks(self):
        t = np.array([[1.0, 0.0], [0.0, 0.0]])
        p = constant_path(t)
        ker = kernel_basis(t)
        good = certify_path(
            p,
            1,
            grid=5,
            membership=MembershipSpec(
                kernel_equals=ker, kernel_complement=span([1, 0])
            ),
        )
        assert good.verdict == "pass"
        bad = certify_path(
            p, 1, grid=5, membership=MembershipSpec(kernel_equals=span([1, 0]))
        )
        assert bad.verdict == "fail"

    def test_audit_reads_the_certify_membership_check(self):
        e_star, r = span([1, 0, 0]), span([0, 1, 0], [0, 0, 1])
        p = literal_flip_path(e_star, r, tilt(e_star, r, [[0, 0, 0], [1, 0, 0], [0.5, 0, 0]]))
        audit = audit_flip_path(p, (r, r), grid=11)
        cert = certify_path(
            p, 1, grid=11, membership=MembershipSpec(range_complement=r, kernel_equals=r)
        )
        assert 0.5 in audit.failures
        assert len(audit.records) == len(cert.per_sample)
        for rec, sample in zip(audit.records, cert.per_sample):
            assert rec["t"] == sample.t
            assert rec["range_condition"] == sample.membership_residuals["range_complement_cond"]
            assert rec["kernel_angle"] == sample.membership_residuals["kernel_angle"]

    def test_audit_kernel_dimension_mismatch_reads_inf(self):
        # kernel of diag(1, 0, 0) is two-dimensional; the expected one is a line
        p = constant_path(np.diag([1.0, 0.0, 0.0]))
        audit = audit_flip_path(p, (span([0, 0, 1]), span([0, 1, 0], [0, 0, 1])), grid=3)
        assert not audit.passed
        assert all(rec["kernel_angle"] == float("inf") for rec in audit.records)
        assert not any(rec["kernel_ok"] for rec in audit.records)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            certify_path(constant_path(np.eye(2)), 2, grid=1)

    def test_replay_recorded_samples(self):
        payload = gen_instance(InstanceSpec(m=3, n=3, k=2, seed=11, kind="fk-pair"))
        p = connect_fk(payload["T1"], payload["T2"])
        cert = certify_path(p, 2, grid=101)
        assert cert.verdict == "pass"
        rng = np.random.default_rng(0)
        picks = rng.choice(len(cert.per_sample), size=10, replace=False)
        for i in picks:
            rec = cert.per_sample[i]
            w = eval_path(p, rec.t)
            s = np.linalg.svd(w, compute_uv=False)
            assert abs(s[1] - rec.sigma_k) <= 1e-12 * (1 + s[0])
            next_sigma = s[2] if s.size > 2 else 0.0
            assert abs(next_sigma - rec.sigma_k_plus_1) <= 1e-12 * (1 + s[0])

    def test_certificates_deterministic(self):
        payload = gen_instance(InstanceSpec(m=3, n=2, k=1, seed=3, kind="fk-pair"))
        certs = []
        for _ in range(2):
            p = connect_fk(payload["T1"], payload["T2"])
            cert = certify_path(p, 1, grid=101, instance={"seed": 3})
            certs.append(certificate_to_obj(cert))
        import json

        assert json.dumps(certs[0]) == json.dumps(certs[1])

    def test_sigma_gap_enforced(self):
        # a nearly rank-deficient second value must fail the gap policy
        t = np.diag([1.0, 1e-8])
        cert = certify_path(constant_path(t), 1, grid=5)
        assert cert.verdict == "fail"


def _two_leg_path():
    """A 3x3 rank-2 fk path of affine and rotation legs."""
    payload = gen_instance(InstanceSpec(m=3, n=3, k=2, seed=2, kind="fk-pair"))
    return connect_fk(payload["T1"], payload["T2"])


class TestCountArguments:
    """``grid`` and ``expected_k`` are integer counts: a fraction would sample
    off the grid, a float rank would index the singular values."""

    NOT_COUNTS = (2.5, 11.0, np.float64(11.0), True, np.bool_(True), "11", None)

    def test_fractional_grid_rejected(self):
        path = _two_leg_path()
        e_star, r = span([1, 0]), span([0, 1])
        flip = literal_flip_path(e_star, r, tilt(e_star, r, [[0, 0], [1, 0]]))
        calls = (
            lambda grid: certify_path(path, 2, grid=grid),
            lambda grid: sample_parameters(path, grid),
            lambda grid: audit_flip_path(flip, (r, r), grid=grid),
        )
        for call in calls:
            for grid in self.NOT_COUNTS:
                with pytest.raises(InputError, match="grid must be an integer count"):
                    call(grid)

    def test_numpy_integer_grid(self):
        path = _two_leg_path()
        assert sample_parameters(path, np.int64(11)) == sample_parameters(path, 11)
        cert = certify_path(path, 2, grid=np.int32(11))
        assert cert == certify_path(path, 2, grid=11) and type(cert.grid_size) is int

    def test_expected_rank_must_be_an_integer(self):
        path = _two_leg_path()
        for k in self.NOT_COUNTS:
            with pytest.raises(InputError, match="expected rank must be an integer count"):
                certify_path(path, k, grid=11)

    def test_numpy_integer_expected_rank(self, tmp_path):
        path = _two_leg_path()
        cert = certify_path(path, np.int64(2), grid=11)
        assert type(cert.expected_k) is int and cert == certify_path(path, 2, grid=11)
        texts = []
        for name, k in (("numpy.json", np.int64(2)), ("int.json", 2)):
            save_json(certificate_to_obj(certify_path(path, k, grid=11)), tmp_path / name)
            texts.append((tmp_path / name).read_text())
        assert texts[0] == texts[1]


class TestLazyRecords:
    """Certificates and audits hold their evidence as columns; the per-sample
    records and residual dicts are built when first read."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {"records": 0, "dicts": 0}

        class Counting(SampleRecord):
            __slots__ = ()

            def __new__(cls, *fields):
                counts["records"] += 1
                return SampleRecord(*fields)

            @classmethod
            def _make(cls, fields):
                counts["records"] += 1
                return SampleRecord._make(fields)

        rows = certify_module._rows

        def counting_rows(columns):
            out = rows(columns)
            counts["dicts"] += len(out)
            return out

        monkeypatch.setattr(certify_module, "SampleRecord", Counting)
        monkeypatch.setattr(certify_module, "_rows", counting_rows)
        return counts

    @staticmethod
    def _flip():
        e_star, r = span([1, 0, 0]), span([0, 1, 0], [0, 0, 1])
        return literal_flip_path(e_star, r, tilt(e_star, r, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])), r

    def test_certificate(self, built, tmp_path):
        path, r = self._flip()
        spec = MembershipSpec(range_complement=r, kernel_equals=r)
        cert = certify_path(path, 1, grid=1001, membership=spec)
        save_json(certificate_to_obj(cert), tmp_path / "cert.json")
        assert built == {"records": 0, "dicts": 0}
        records = cert.per_sample
        # the legs' midpoints t = 0.25 and 0.75 are grid points
        assert cert.grid_size == len(records) == 1001
        assert built == {"records": 1001, "dicts": 1001}
        assert cert.per_sample is records and built == {"records": 1001, "dicts": 1001}
        assert type(records) is tuple and {type(rec) for rec in records} == {SampleRecord}
        assert {type(rec.membership_residuals) for rec in records} == {dict}

    def test_audit(self, built, tmp_path):
        path, r = self._flip()
        audit = audit_flip_path(path, (r, r), grid=1001)
        save_json(audit_to_obj(audit), tmp_path / "audit.json")
        assert built == {"records": 0, "dicts": 0}
        records = audit.records
        assert type(records) is tuple and len(records) == audit.grid_size == 1001
        assert built == {"records": 0, "dicts": 1001}
        assert audit.records is records and built["dicts"] == 1001

    def test_equality_reads_the_records(self):
        path, r = self._flip()
        spec = MembershipSpec(range_complement=r)
        cert = certify_path(path, 1, grid=101, membership=spec)
        fresh = certify_path(path, 1, grid=101, membership=spec)
        cert.per_sample  # one read, one not: the same certificate
        assert cert == fresh and fresh == cert
        # built from its records, as dataclasses.replace does
        copy = dataclasses.replace(fresh)
        assert copy == cert and copy.per_sample == cert.per_sample
        assert certificate_to_obj(copy) == certificate_to_obj(cert)
        records = list(cert.per_sample)
        records[7] = records[7]._replace(sigma_k=records[7].sigma_k * (1.0 + 1e-15))
        assert dataclasses.replace(cert, per_sample=tuple(records)) != cert
        residuals = dict(records[3].membership_residuals, range_complement_cond=1.0)
        records = list(cert.per_sample)
        records[3] = records[3]._replace(membership_residuals=residuals)
        assert dataclasses.replace(cert, per_sample=tuple(records)) != cert
        audit = audit_flip_path(path, (r, r), grid=101)
        assert audit == audit_flip_path(path, (r, r), grid=101)
        assert dataclasses.replace(audit) == audit
        changed = [dict(rec) for rec in audit.records]
        changed[0]["kernel_ok"] = not changed[0]["kernel_ok"]
        assert dataclasses.replace(audit, records=tuple(changed)) != audit
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.per_sample = ()


def _membership_checks(
    w: np.ndarray, spec: MembershipSpec, tol: ToleranceConfig
) -> dict[str, tuple[float, bool]]:
    """Residual and pass flag of each check ``spec`` asks for, at one sample.

    The sample's own SVD gives its rank k and its singular frames.  Each
    spec basis is taken into the coordinates of the frame of its side and
    cut at k: the sines and cosines of the principal angles between the
    spec subspace and the sample's range or kernel.  A kernel of the wrong
    dimension has angle inf to the expected one; any other angle is the
    largest one, checked against scipy's.
    """
    rows, cols = w.shape
    _, k, (u, _, vt) = _factor(w, tol)
    out = {}
    if spec.range_complement is not None:
        comp = spec.range_complement
        coords = (u.T @ comp.basis)[None]
        cond = float(_condition_from_sines(coords[:, :k], coords[:, k:])[0])
        ok = k + comp.dim == rows and cond <= tol.membership_cond_max
        out["range_complement_cond"] = (cond, ok)
    if spec.kernel_complement is not None:
        comp = spec.kernel_complement
        coords = (vt @ comp.basis)[None]
        cond = float(_condition_from_sines(coords[:, k:], coords[:, :k])[0])
        out["kernel_complement_cond"] = (cond, comp.dim == k and cond <= tol.membership_cond_max)
    if spec.kernel_equals is not None:
        want = spec.kernel_equals
        if cols - k != want.dim:
            angle = float("inf")
        else:
            angle = float(_angle_from_sines((vt @ want.basis)[None, :k])[0])
            if want.dim:
                assert_largest_angle_near_scipy(angle, vt[k:].T, want.basis)
        out["kernel_angle"] = (angle, angle < ANGLE_TOL)
    return out


def _reference_audit(path, s_spec, grid, tol=DEFAULT_TOL):
    """The flip audit, one sample at a time."""
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


def _typed_items(records):
    """Each record's (key, value type) pairs, in order."""
    return [[(key, type(value)) for key, value in rec.items()] for rec in records]


def _assert_audit_matches_reference(path, s_spec, grid):
    audit = audit_flip_path(path, s_spec, grid=grid)
    ref = _reference_audit(path, s_spec, grid)
    assert audit == ref
    assert _typed_items(audit.records) == _typed_items(ref.records)
    return audit


def _reference_records(path, expected_k, grid, membership=None, tol=DEFAULT_TOL):
    """The certifier's per-sample loop, one sample at a time: records and failures.

    With membership checks the rank columns come from each sample's full
    SVD, the one its kernel and range are cut from; without, from its
    singular values alone.
    """
    checked = membership is not None and membership.any()
    samples = sample_parameters(path, grid)
    values = eval_path_batch(path, samples)
    if checked:
        svals = [_factor(w, tol)[2][1] for w in values]
    else:
        svals = np.linalg.svd(values, compute_uv=False)
    eps = np.finfo(float).eps
    records = []
    failures = set()
    for (t, seg, local), w, s in zip(samples, values, svals):
        sigma_top = float(s[0]) if s.size else 0.0
        rank = rank_from_singular_values(s, tol)
        sigma_k = float(s[expected_k - 1]) if 1 <= expected_k <= s.size else 0.0
        sigma_next = float(s[expected_k]) if s.size > expected_k else 0.0
        floor = max(sigma_next, eps * sigma_top)
        # a zero floor is an all-zero sample, decided by its rank alone
        gap_ok = expected_k == 0 or floor == 0.0 or sigma_k / floor >= SIGMA_GAP_MIN
        ok = rank == expected_k and gap_ok
        residuals = None
        if checked:
            checks = _membership_checks(w, membership, tol)
            residuals = {name: value for name, (value, _) in checks.items()}
            ok = ok and all(passed for _, passed in checks.values())
        records.append(
            SampleRecord(t, seg, local, rank, sigma_k, sigma_next, residuals, bool(ok))
        )
        if not ok:
            failures.add(local)
    return tuple(records), tuple(sorted(failures))


def _assert_matches_reference(path, expected_k, grid, membership=None):
    cert = certify_path(path, expected_k, grid=grid, membership=membership)
    records, failures = _reference_records(path, expected_k, grid, membership)
    assert cert.per_sample == records
    # equal values of another type (numpy scalars, 1 for True) would change the JSON
    assert [tuple(map(type, r)) for r in cert.per_sample] == [
        tuple(map(type, r)) for r in records
    ]
    residuals = [r.membership_residuals or {} for r in cert.per_sample]
    assert _typed_items(residuals) == _typed_items(r.membership_residuals or {} for r in records)
    assert cert.failures == failures
    e0, e1 = cert.endpoint_errors
    endpoints_ok = e0 <= 1e-9 * np.max(np.abs(path.start)) and e1 <= 1e-9 * np.max(
        np.abs(path.end)
    )
    if expected_k == 0:
        assert cert.verdict == "degenerate"
    else:
        assert cert.verdict == ("pass" if endpoints_ok and not failures else "fail")
    return cert


class TestRecordReference:
    @given(
        st_hyp.integers(2, 6),
        st_hyp.integers(2, 6),
        st_hyp.integers(0, 2**16),
        st_hyp.sampled_from([2, 11, 101, 1001]),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_fk_pairs_match_reference(self, m, n, seed, grid):
        kmax = min(m, n)
        k = int(np.random.default_rng(seed).integers(1, kmax)) if kmax > 1 else 1
        payload = gen_instance(InstanceSpec(m=m, n=n, k=k, seed=seed, kind="fk-pair"))
        path = connect_fk(payload["T1"], payload["T2"])
        verdicts = {}
        for expected in (k, k - 1, 0, k + 1):
            verdicts[expected] = _assert_matches_reference(path, expected, grid).verdict
        assert verdicts[k] == "pass" and verdicts[0] == "degenerate"
        with pytest.raises(InputError, match="expected rank"):
            certify_path(path, kmax + 1, grid=grid)

    def test_literal_flip_matches_reference(self):
        e_star, r = span([1, 0]), span([0, 1])
        p = literal_flip_path(e_star, r, tilt(e_star, r, [[0, 0], [1, 0]]))
        # the rank holds along the family; only the range check sees the defect
        assert _assert_matches_reference(p, 1, 11).verdict == "pass"
        cert = _assert_matches_reference(p, 1, 11, MembershipSpec(range_complement=r))
        assert cert.verdict == "fail" and 0.5 in cert.failures

    def test_kernel_mismatch_matches_reference(self):
        p = constant_path(np.diag([1.0, 0.0, 0.0]))
        spec = MembershipSpec(kernel_equals=span([0, 0, 1]))
        cert = _assert_matches_reference(p, 1, 5, spec)
        assert cert.verdict == "fail"
        inf = {"kernel_angle": float("inf")}
        assert all(r.membership_residuals == inf for r in cert.per_sample)

    def test_gap_floor_matches_reference(self):
        # the floor eps * sigma_1 is relative: 1e-12 / (eps * 1e-3) = 4.5e6
        # clears the gap.  1.5e-13 and 1.5e-10 pass the rank rule (1.5e-10 >
        # rank_rel_tol) but not the gap (6.8e5), at either scale
        cases = (
            ([1e-3, 1e-12], 2, "pass"),
            ([1e-3, 1.5e-13], 2, "fail"),
            ([1.0, 1.5e-10], 2, "fail"),
            ([1.0, 1e-8], 1, "fail"),
            ([1.0, 1e-8], 2, "pass"),
        )
        for diag, k, verdict in cases:
            assert _assert_matches_reference(constant_path(np.diag(diag)), k, 5).verdict == verdict


def _spec_field(rng, choice, truth, ambient):
    """None, the subspace that makes the check hold, or a random one of any dimension."""
    if choice == 0:
        return None
    if choice == 1:
        return truth
    return random_subspace(rng, ambient, int(rng.integers(0, ambient + 1)))


def _complement(rng, sub):
    """A random subspace forming a direct sum with ``sub``."""
    while True:
        comp = random_subspace(rng, sub.ambient_dim, sub.ambient_dim - sub.dim)
        if is_direct_sum([sub, comp]):
            return comp


def _project_path(rng, side, rows, cols, k, seed):
    """A left or right projection leg of a random rank-k rows x cols matrix."""
    t0 = gen_instance(InstanceSpec(m=cols, n=rows, k=k, seed=seed, kind="fk-pair"))["T1"]
    _, ker, rng_t0 = rank_kernel_range(t0)
    if side == "left":
        n_sub = _complement(rng, rng_t0)
        return left_project_path(t0, _complement(rng, n_sub), n_sub), ker, n_sub, rng_t0
    r0 = _complement(rng, ker)
    return right_project_path(t0, _complement(rng, r0), r0), ker, r0, rng_t0


def _check_field_combination(fields, check):
    """``check`` on project legs and a literal flip, with the spec fields ``fields`` picks."""
    rng = np.random.default_rng(fields)
    for side in ("left", "right"):
        path, ker, comp, rng_t0 = _project_path(rng, side, 5, 4, 2, fields)
        others = (_complement(rng, rng_t0), _complement(rng, ker), ker)
        spec = MembershipSpec(*(sub if fields >> i & 1 else None for i, sub in enumerate(others)))
        check(path, 2, 101, spec)
    e_star, r = random_split(rng, 4, 2)
    flip = literal_flip_path(e_star, r, tilt(e_star, r, rng.uniform(-1.0, 1.0, (4, 4))))
    spec = MembershipSpec(*(r if fields >> i & 1 else None for i in range(3)))
    check(flip, 2, 101, spec)


def _check_degenerate(check_audit, check):
    """The all-zero path: a degenerate audit that passes, a degenerate certificate."""
    zero = constant_path(np.zeros((3, 3)))
    audit = check_audit(zero, (span([1, 0, 0]), span([0, 1, 0])), 11)
    assert audit.degenerate and audit.passed
    spec = MembershipSpec(span([1, 0, 0]), span([0, 1, 0]), Subspace.full(3))
    assert check(zero, 0, 11, spec).verdict == "degenerate"
    # zero from t = 0.5 on, so the last chunks are all zero but the path is not
    a, z = np.diag([1.0, 0.0, 0.0]), np.zeros((3, 3))
    half = OperatorPath((_line(a, z), _line(z, z)), (3, 3))
    plane = span([0, 1, 0], [0, 0, 1])
    assert not check_audit(half, (plane, plane), 11).degenerate


def _tilted(rng, q, d, e, theta):
    """An e-dimensional subspace at smallest principal angle ``theta`` to span(q[:, :d]).

    ``q`` is orthogonal and d + e <= n.  The other angles are random in
    [theta, pi/2], and e - min(d, e) directions are orthogonal to q[:, :d].
    """
    m = min(d, e)
    angles = np.concatenate([[theta], rng.uniform(theta, np.pi / 2, m - 1)])
    cols = np.cos(angles) * q[:, :m] + np.sin(angles) * q[:, d : d + m]
    basis = np.hstack([cols, q[:, d + m : d + e]])
    return Subspace(len(q), basis @ np.linalg.qr(rng.standard_normal((e, e)))[0])


def _near(rng, q, d, phi):
    """A d-dimensional subspace at largest principal angle ``phi`` to span(q[:, :d])."""
    m = min(d, len(q) - d)
    angles = np.concatenate([[phi], rng.uniform(0.0, phi, m - 1)])
    cols = np.cos(angles) * q[:, :m] + np.sin(angles) * q[:, d : d + m]
    basis = np.hstack([cols, q[:, m:d]])
    return Subspace(len(q), basis @ np.linalg.qr(rng.standard_normal((d, d)))[0])


class TestMembershipReference:
    """The stacked membership pass against the one-sample-at-a-time checks."""

    @given(
        st_hyp.sampled_from(["left", "right"]),
        st_hyp.integers(2, 8),
        st_hyp.integers(2, 8),
        st_hyp.integers(0, 2**16),
        st_hyp.tuples(*[st_hyp.integers(0, 2)] * 3),
        st_hyp.one_of(st_hyp.integers(2, 40), st_hyp.sampled_from([101, 1001])),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_project_paths(self, side, rows, cols, seed, choices, grid):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, min(rows, cols) + 1))
        if side == "left":  # the complement of the range needs room
            k = min(k, rows - 1)
        path, ker, comp, rng_t0 = _project_path(rng, side, rows, cols, k, seed)
        # the left leg keeps the kernel and moves the range through complements
        # of comp; the right leg keeps the range and moves the kernel likewise
        if side == "left":
            truths = (comp, _complement(rng, ker), ker)
        else:
            truths = (_complement(rng, rng_t0), comp, ker)
        spec = MembershipSpec(
            *(
                _spec_field(rng, choice, truth, truth.ambient_dim)
                for choice, truth in zip(choices, truths)
            )
        )
        cert = _assert_matches_reference(path, k, grid, spec)
        holds = all(c < 2 for c in choices) and (side == "left" or choices[2] == 0)
        if holds:
            assert cert.verdict == "pass"

    @given(
        st_hyp.integers(2, 8),
        st_hyp.integers(0, 2**16),
        st_hyp.integers(2, 1001),
        st_hyp.integers(0, 7),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_literal_flips(self, n, seed, grid, fields):
        rng = np.random.default_rng(seed)
        e_star, r = random_split(rng, n, int(rng.integers(1, n)))
        path = literal_flip_path(e_star, r, tilt(e_star, r, rng.uniform(-1.0, 1.0, (n, n))))
        audit = _assert_audit_matches_reference(path, (r, r), grid)
        spec = MembershipSpec(*(r if fields >> i & 1 else None for i in range(3)))
        cert = _assert_matches_reference(path, e_star.dim, grid, spec)
        if grid % 2 == 1:  # the grid holds the midpoint of the second leg
            assert 0.5 in audit.failures
            if spec.range_complement is not None:
                assert 0.5 in cert.failures

    @pytest.mark.parametrize("fields", range(8))
    def test_every_field_combination(self, fields):
        _check_field_combination(fields, _assert_matches_reference)

    @given(
        st_hyp.integers(2, 6),
        st_hyp.integers(2, 6),
        st_hyp.integers(0, 2**16),
        st_hyp.sampled_from([3, 11, 101, 1001]),
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_rank_changes_along_the_path(self, rows, cols, seed, grid):
        # straight legs 0 -> X -> Y -> Z between matrices of random ranks,
        # so one chunk holds samples of several ranks
        rng = np.random.default_rng(seed)
        nodes = [np.zeros((rows, cols))]
        for low in (1, 0, 0):
            k = int(rng.integers(low, min(rows, cols) + 1))
            nodes.append(rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols)))
        path = OperatorPath(tuple(_line(a, b) for a, b in zip(nodes, nodes[1:])), (rows, cols))
        k_x, ker, rng_x = rank_kernel_range(nodes[1])
        spec = MembershipSpec(
            range_complement=_complement(rng, rng_x),
            kernel_complement=_complement(rng, ker),
            kernel_equals=ker,
        )
        cert = _assert_matches_reference(path, k_x, grid, spec)
        assert len({r.rank for r in cert.per_sample}) > 1
        _assert_audit_matches_reference(path, (ker, rng_x), grid)

    def test_full_column_rank_and_zero_complements(self):
        tall = gen_instance(InstanceSpec(m=3, n=5, k=3, seed=4, kind="fk-pair"))["T1"]
        rng = np.random.default_rng(4)
        path, ker, _, rng_t0 = _project_path(rng, "left", 5, 3, 3, 4)
        assert ker.dim == 0
        spec = MembershipSpec(
            range_complement=_complement(rng, rng_t0),
            kernel_complement=Subspace.full(3),
            kernel_equals=Subspace.zero(3),
        )
        assert _assert_matches_reference(path, 3, 1001, spec).verdict == "pass"
        assert _assert_matches_reference(constant_path(tall), 3, 101, spec).verdict == "pass"
        # an invertible square path: the range is everything, its complement zero
        square = constant_path(np.diag([2.0, 1.0, 3.0]))
        full = MembershipSpec(Subspace.zero(3), Subspace.full(3), Subspace.zero(3))
        assert _assert_matches_reference(square, 3, 11, full).verdict == "pass"
        wrong = MembershipSpec(span([1, 0, 0]), Subspace.zero(3), span([0, 1, 0]))
        cert = _assert_matches_reference(square, 3, 11, wrong)
        assert cert.verdict == "fail"
        assert cert.per_sample[0].membership_residuals["kernel_angle"] == float("inf")

    def test_degenerate_audit(self):
        _check_degenerate(_assert_audit_matches_reference, _assert_matches_reference)

    @given(
        st_hyp.integers(2, 20),
        st_hyp.integers(0, 2**16),
        st_hyp.floats(0.0, 7.0),
        st_hyp.floats(-12.0, 0.2),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_sine_rules_against_their_definitions(self, n, seed, log_cond, log_angle):
        # an n x n sample of rank k with random range and kernel, direct-sum
        # complements of both at condition number 10**log_cond, and an expected
        # kernel at largest angle 10**log_angle rad to the sample's
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, n))
        q_range, q_kernel = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        w = q_range[:, :k] @ np.diag(rng.uniform(0.5, 2.0, k)) @ q_kernel[:, n - k :].T
        theta = 2.0 * np.arctan(10.0**-log_cond)  # cond = cot(theta / 2)
        spec = MembershipSpec(
            _tilted(rng, q_range, k, int(rng.integers(1, n - k + 1)), theta),
            _tilted(rng, q_kernel, n - k, int(rng.integers(1, k + 1)), theta),
            _near(rng, q_kernel, n - k, 10.0**log_angle),
        )
        checks = _membership_checks(w, spec, DEFAULT_TOL)
        _, ker, rng_w = rank_kernel_range(w)
        eps = np.finfo(float).eps
        for name, own, comp in (
            ("range_complement_cond", rng_w, spec.range_complement),
            ("kernel_complement_cond", ker, spec.kernel_complement),
        ):
            want = is_direct_sum([own, comp]).condition_number
            assert want <= 1.01e7
            assert abs(checks[name][0] - want) <= 64 * eps * want * want, (name, checks[name], want)
        expected = spec.kernel_equals.basis
        outside = expected - ker.basis @ (ker.basis.T @ expected)
        sine = np.linalg.svd(outside, compute_uv=False)[0]
        assert abs(np.sin(checks["kernel_angle"][0]) - sine) <= 16 * eps, (checks, sine)

    def test_svd_calls_are_batched(self, monkeypatch):
        rng = np.random.default_rng(8)
        path, ker, n_sub, _ = _project_path(rng, "left", 8, 8, 4, 8)
        spec = MembershipSpec(range_complement=n_sub, kernel_equals=ker)
        calls = {"svd": 0}
        original = np.linalg.svd

        def counted(*args, **kwargs):
            calls["svd"] += 1
            return original(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy factorization in the membership pass")

        monkeypatch.setattr(np.linalg, "svd", counted)
        for name in ("svd", "svdvals", "orth", "subspace_angles"):
            monkeypatch.setattr(scipy.linalg, name, forbidden)
        cert = certify_path(path, 4, grid=1001, membership=spec)
        assert cert.verdict == "pass"
        # the per-sample loop made 6007 (2003 in numpy, 4004 in scipy)
        assert calls["svd"] <= 100, calls

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_sample_factored_once(self, monkeypatch, workers):
        # a 7x5 leg of rank 3: no direct-sum or angle matrix has the samples'
        # shape. A concatenated basis would be 7x7 or 5x5 and a kernel residual
        # 5x2; the sines and cosines have at most max(k, n - k) = 4 rows
        monkeypatch.setattr(certify_module, "WORKERS", workers)
        monkeypatch.setattr(certify_module, "CHUNK_BYTES", 1 << 15)
        rng = np.random.default_rng(11)
        path, ker, n_sub, _ = _project_path(rng, "left", 7, 5, 3, 11)
        spec = MembershipSpec(n_sub, _complement(rng, ker), ker)
        factored, others = [], set()
        original = np.linalg.svd

        def recorded(a, *args, **kwargs):
            if np.shape(a)[-2:] == path.shape:
                factored.append(np.shape(a)[:-2])
            else:
                others.add(np.shape(a)[-2:])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        cert = certify_path(path, 3, grid=1001, membership=spec)
        assert cert.verdict == "pass" and cert.grid_size == 1001
        # the samples go in stacks, each sample in exactly one
        assert len(factored) > 2 and all(len(shape) == 1 for shape in factored)
        assert sum(shape[0] for shape in factored) == 1001
        assert others and all(rows <= 4 for rows, _ in others), others

    @pytest.mark.parametrize(
        "spec, field",
        [
            (MembershipSpec(kernel_equals=Subspace.zero(4)), "kernel_equals"),
            (MembershipSpec(range_complement=Subspace.full(2)), "range_complement"),
            (MembershipSpec(kernel_complement=Subspace.zero(4)), "kernel_complement"),
        ],
    )
    def test_mismatched_spec_is_rejected(self, spec, field):
        path = constant_path(np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(InputError, match=field):
            certify_path(path, 2, grid=5, membership=spec)
        if spec.kernel_equals is not None:
            with pytest.raises(InputError, match=field):
                audit_flip_path(path, (spec.kernel_equals, span([1, 0, 0], [0, 1, 0])))
        if spec.range_complement is not None:
            with pytest.raises(InputError, match=field):
                audit_flip_path(path, (span([0, 0, 1]), spec.range_complement))


def _whole_grid(fn, *args, **kwargs):
    """``fn`` run with every sample of the grid in one chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify_module, "_chunk_samples", lambda shape, membership: 1 << 30)
        return fn(*args, **kwargs)


def _assert_chunked_matches(path, expected_k, grid, membership=None):
    """Under the patched chunk size: the reference records, and the very
    certificate of a single chunk (records, failures, verdict, endpoint errors)."""
    cert = _assert_matches_reference(path, expected_k, grid, membership)
    assert cert == _whole_grid(certify_path, path, expected_k, grid=grid, membership=membership)
    return cert


def _assert_chunked_audit_matches(path, s_spec, grid):
    audit = _assert_audit_matches_reference(path, s_spec, grid)
    assert audit == _whole_grid(audit_flip_path, path, s_spec, grid=grid)
    return audit


class TestChunkBoundaries:
    """The certifier walks its grid in chunks; where they split must not show."""

    @pytest.fixture(params=[1, 7], autouse=True)
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(certify_module, "_chunk_samples", lambda shape, membership: request.param)

    def test_fk_pairs(self):
        # grid 2 is a chunk of the two endpoints, or one chunk each
        for seed, (m, n, k) in enumerate([(2, 2, 1), (3, 5, 2), (6, 4, 3), (5, 6, 4)]):
            payload = gen_instance(InstanceSpec(m=m, n=n, k=k, seed=seed, kind="fk-pair"))
            path = connect_fk(payload["T1"], payload["T2"])
            for p in (path, reverse_path(path)):
                for grid in (2, 3, 11, 101):
                    assert _assert_chunked_matches(p, k, grid).verdict == "pass"
                    assert _assert_chunked_matches(p, k - 1, grid).verdict in ("fail", "degenerate")

    def test_boundary_on_forced_midpoint(self):
        rng = np.random.default_rng(3)
        e_star, r = random_split(rng, 4, 2)
        path = literal_flip_path(e_star, r, tilt(e_star, r, rng.uniform(-1.0, 1.0, (4, 4))))
        samples = sample_parameters(path, 27)
        uniform = set((np.arange(27) / 26).tolist())
        forced = [i for i, (t, _, local) in enumerate(samples) if local == 0.5 and t not in uniform]
        # with chunks of 7 both forced midpoints open a chunk, and the last
        # chunk holds t = 1 alone
        assert forced == [7, 21] and len(samples) == 29 and samples[-1][0] == 1.0
        audit = _assert_chunked_audit_matches(path, (r, r), 27)
        assert 0.5 in audit.failures
        for fields in range(8):
            spec = MembershipSpec(*(r if fields >> i & 1 else None for i in range(3)))
            cert = _assert_chunked_matches(path, 2, 27, spec)
            if spec.range_complement is not None:
                assert 0.5 in cert.failures

    @pytest.mark.parametrize("fields", range(8))
    def test_every_field_combination(self, fields):
        _check_field_combination(fields, _assert_chunked_matches)

    def test_rank_changes_along_the_path(self):
        rng = np.random.default_rng(5)
        nodes = [np.zeros((4, 3))] + [
            rng.standard_normal((4, k)) @ rng.standard_normal((k, 3)) for k in (2, 1, 3)
        ]
        path = OperatorPath(tuple(_line(a, b) for a, b in zip(nodes, nodes[1:])), (4, 3))
        _, ker, rng_x = rank_kernel_range(nodes[1])
        spec = MembershipSpec(_complement(rng, rng_x), _complement(rng, ker), ker)
        cert = _assert_chunked_matches(path, 2, 23, spec)
        assert len({r.rank for r in cert.per_sample}) > 1
        _assert_chunked_audit_matches(path, (ker, rng_x), 23)

    def test_degenerate(self):
        _check_degenerate(_assert_chunked_audit_matches, _assert_chunked_matches)


class TestWorkingMemory:
    def test_chunk_rule(self):
        # 100x100 values are 80 kB a sample; membership adds 3m^2 + 5n^2 + 32 doubles
        assert certify_module._chunk_samples((100, 100), False) == 52
        assert certify_module._chunk_samples((20, 20), True) == 144
        assert certify_module._chunk_samples((2000, 2000), True) == 1

    @pytest.mark.parametrize("rows, cols", [(20, 20), (8, 30), (30, 8), (4, 4)])
    def test_membership_budget_covers_a_chunk(self, rows, cols):
        # whole-space spec subspaces have the largest coordinates and slices
        # the pass can allocate: one chunk of them, its values included, fits
        # in CHUNK_BYTES, and fills most of it
        rng = np.random.default_rng(rows * cols)
        k = min(rows, cols) // 2
        count = certify_module._chunk_samples((rows, cols), True)
        values = rng.standard_normal((count, rows, k)) @ rng.standard_normal((count, k, cols))
        spec = MembershipSpec(Subspace.full(rows), Subspace.full(cols), Subspace.full(cols))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            certify_module._columns(values, DEFAULT_TOL, k, spec)
            peak = values.nbytes + tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert 0.75 * certify_module.CHUNK_BYTES < peak <= certify_module.CHUNK_BYTES, peak

    def test_peak_is_set_by_the_chunk_not_the_grid(self):
        # the 100x100 rank-50 fk path: a whole-grid stack at 1001 samples is 80 MB
        payload = gen_instance(InstanceSpec(m=100, n=100, k=50, seed=1, kind="fk-pair"))
        path = connect_fk(payload["T1"], payload["T2"])
        peaks = {}
        tracemalloc.start()
        try:
            for grid in (1001, 4001):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                assert certify_path(path, 50, grid=grid).verdict == "pass"
                peaks[grid] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert peaks[1001] < 32.0, peaks
        assert peaks[4001] - peaks[1001] < 8.0, peaks


def _criterion_4_to_7_calls():
    """The certify and audit calls of the criterion 4-7 corpora, as
    tests/test_acceptance.py makes them: (function, path, argument, grid)."""
    calls = []
    rng = np.random.default_rng(4)
    for seed in range(200):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        k = int(rng.integers(1, min(m, n))) if min(m, n) > 1 else 1
        payload = gen_instance(InstanceSpec(m=m, n=n, k=k, seed=seed, kind="fk-pair"))
        calls.append((certify_path, connect_fk(payload["T1"], payload["T2"]), k, 1001))
    shapes = [(3, 2, 2), (2, 3, 2), (3, 3, 2), (4, 3, 2), (3, 4, 2)]
    shapes += [(4, 4, 3), (5, 4, 3), (4, 5, 3), (2, 2, 1), (5, 5, 3)]
    for seed in range(50):
        m, n, k = shapes[seed % len(shapes)]
        payload = gen_instance(InstanceSpec(m=m, n=n, k=k, seed=seed, kind="phi-pair"))
        path = connect_phi(payload["T1"], payload["T2"], m - k, n - k)
        calls.append((certify_path, path, k, 501))
    rng = np.random.default_rng(6)
    for seed in range(50):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        k = int(rng.integers(1, min(m, n))) if min(m, n) > 1 else 1
        payload = gen_instance(InstanceSpec(m=m, n=n, k=k, seed=seed, kind="fk-pair"))
        witness = discover_chain(payload["T1"], payload["T2"])
        calls.append((certify_path, chain_connect(payload["T1"], payload["T2"], witness), k, 501))
    rng = np.random.default_rng(7)
    for _ in range(100):
        e_star, r, alpha = random_flip_instance(rng)
        calls.append((audit_flip_path, literal_flip_path(e_star, r, alpha), (r, r), 11))
        proj = oblique_projection(e_star, r).projector
        calls.append((certify_path, corrected_flip_path(proj, e_star.dim), e_star.dim, 101))
    return calls


def _written(fn, path, arg, grid, **kwargs):
    """The JSON text of the certificate or audit, as the CLI would write it."""
    result = fn(path, arg, grid=grid, **kwargs)
    to_obj = certificate_to_obj if fn is certify_path else audit_to_obj
    return json.dumps(to_obj(result), allow_nan=True)


@pytest.fixture(scope="module")
def corpus_4_to_7():
    """The corpus calls and their output in one chunk on one thread."""
    calls = _criterion_4_to_7_calls()
    return calls, [_whole_grid(_written, *call) for call in calls]


class TestWorkers:
    """Stretches of the grid walked on several threads: the output must not
    depend on the worker count or the chunk size."""

    @pytest.mark.parametrize(
        "workers, chunk_bytes",
        [(1, 1 << 12), (2, 1 << 12), (3, 1 << 12), (1, 1 << 15), (3, 1 << 15)]
        + [(2, certify_module.CHUNK_BYTES)],
    )
    def test_criterion_4_to_7_corpora(self, corpus_4_to_7, monkeypatch, workers, chunk_bytes):
        monkeypatch.setattr(certify_module, "WORKERS", workers)
        monkeypatch.setattr(certify_module, "CHUNK_BYTES", chunk_bytes)
        calls, whole = corpus_4_to_7
        assert [_written(*call) for call in calls] == whole

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_large_paths(self, monkeypatch, workers):
        monkeypatch.setattr(certify_module, "WORKERS", workers)
        # 100x100 rank 50, 20 chunks of 52 at one worker, on fresh paths so
        # that the walk sets up their rotation legs; and a 32x32 project leg
        # with every membership check, certified and audited
        payload = gen_instance(InstanceSpec(m=100, n=100, k=50, seed=1, kind="fk-pair"))
        whole = _whole_grid(certify_path, connect_fk(payload["T1"], payload["T2"]), 50, grid=1001)
        cert = certify_path(connect_fk(payload["T1"], payload["T2"]), 50, grid=1001)
        assert cert.verdict == "pass" and cert == whole
        rng = np.random.default_rng(9)
        path, ker, n_sub, _ = _project_path(rng, "left", 32, 32, 16, 9)
        spec = MembershipSpec(n_sub, _complement(rng, ker), ker)
        assert _written(certify_path, path, 16, 1001, membership=spec) == _whole_grid(
            _written, certify_path, path, 16, 1001, membership=spec
        )
        assert _written(audit_flip_path, path, (ker, n_sub), 301) == _whole_grid(
            _written, audit_flip_path, path, (ker, n_sub), 301
        )

    def test_more_workers_than_cores_switching_often(self, monkeypatch):
        # the stretches share the path and nothing else: with a thread
        # switch every microsecond the output is still that of one thread
        monkeypatch.setattr(certify_module, "WORKERS", 2 * (os.cpu_count() or 1) + 1)
        monkeypatch.setattr(certify_module, "CHUNK_BYTES", 1 << 15)
        rng = np.random.default_rng(10)
        path, ker, n_sub, _ = _project_path(rng, "right", 12, 12, 6, 10)
        spec = MembershipSpec(n_sub, ker, ker)
        whole = _whole_grid(_written, certify_path, path, 6, 1001, membership=spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            walked = [_written(certify_path, path, 6, 1001, membership=spec) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert walked == [whole] * 3

    def test_three_svds_per_chunk(self, monkeypatch):
        monkeypatch.setattr(certify_module, "WORKERS", 1)
        rng = np.random.default_rng(8)
        path, ker, n_sub, _ = _project_path(rng, "left", 20, 20, 10, 8)
        spec = MembershipSpec(range_complement=n_sub, kernel_equals=ker)
        calls = count_factorizations(monkeypatch)
        counted = np.linalg.svd
        of_basis = []

        def recorded(a, *args, **kwargs):
            if np.shape(a)[-2:] == ker.basis.shape:
                stack = np.reshape(a, (-1, *ker.basis.shape))
                of_basis.append(any(np.array_equal(m, ker.basis) for m in stack))
            return counted(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        assert certify_path(path, 10, grid=1001, membership=spec).verdict == "pass"
        # 7 chunks of 144 samples, 3 SVDs each: rank, kernels and ranges
        # from one; the direct sums; the residuals of the kernel angles.
        # The expected kernel's basis is never factored
        assert calls["svd"] == 7 * 3 and not any(of_basis)
        calls.clear()
        of_basis.clear()
        audit_flip_path(path, (ker, n_sub), grid=1001)
        assert calls["svd"] == 7 * 3 and not any(of_basis)


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS (get, set), set to 3 threads for the test."""
    if blas_module._BLAS is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read here")
    get, put = blas_module._BLAS
    before = get()
    put(3)
    yield get
    put(before)


class TestBlasThreads:
    """Every stretch, a lone one too, runs with OpenBLAS at one thread, held
    by the entry point, and the caller's count is restored."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(certify_module, "WORKERS", 2)

    def _spy(self, monkeypatch, get, fail=lambda: False):
        """Record OpenBLAS's thread count in every chunk's factorization; raise
        RuntimeError in the chunks where ``fail()`` holds."""
        seen = []
        columns = certify_module._columns

        def spied(*args, **kwargs):
            seen.append(get())
            if fail():
                raise RuntimeError("chunk failed")
            return columns(*args, **kwargs)

        monkeypatch.setattr(certify_module, "_columns", spied)
        return seen

    def test_held_at_one_and_restored(self, blas_threads, monkeypatch):
        seen = self._spy(monkeypatch, blas_threads)
        rng = np.random.default_rng(8)
        path, ker, n_sub, _ = _project_path(rng, "left", 20, 20, 10, 8)
        certify_path(path, 10, grid=1001, membership=MembershipSpec(n_sub, None, ker))
        assert len(seen) > 1 and set(seen) == {1} and blas_threads() == 3
        audit_flip_path(path, (ker, n_sub), grid=1001)
        assert blas_threads() == 3

    @pytest.mark.parametrize(
        "path, k, grid",
        [
            # 511 samples, one short of two stretches of 256, of 2x2 and of
            # 4x4 (64 KiB of values, two stretches of 32 KiB, at 512); an
            # audit of 11 samples
            (constant_path(np.diag([1.0, 0.0])), 1, 511),
            (constant_path(np.diag([1.0, 2.0, 3.0, 0.0])), 3, 511),
            (None, None, 11),
        ],
    )
    def test_light_grid_never_touches_the_pool(self, blas_threads, monkeypatch, path, k, grid):
        seen = self._spy(monkeypatch, blas_threads)
        monkeypatch.setattr(certify_module, "_pool", lambda: 1 / 0)
        if path is None:
            e_star, r = random_split(np.random.default_rng(1), 4, 2)
            audit_flip_path(literal_flip_path(e_star, r, tilt(e_star, r, np.eye(4))), (r, r), grid=grid)
        else:
            certify_path(path, k, grid=grid)
        # one chunk, walked here at one thread; the caller gets its 3 threads back
        assert seen == [1] and blas_threads() == 3

    def test_overlapping_holds_of_two_threads(self, blas_threads):
        """Thread A holds, then B; A ends first.  OpenBLAS stays at one thread
        until B ends too, then has the counts it had before A began."""
        hold = blas_module._one_blas_thread
        scipy_blas = blas_module._SCIPY_BLAS
        before = scipy_blas[0]() if scipy_blas else None
        barrier = threading.Barrier(2, timeout=30)
        seen = []

        def first():
            with hold():
                barrier.wait()  # A holds
                barrier.wait()  # B holds
            barrier.wait()  # A has ended its hold

        def second():
            barrier.wait()
            with hold():
                barrier.wait()
                barrier.wait()
                seen.append(blas_threads())

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [1]
        assert blas_threads() == 3
        assert (scipy_blas[0]() if scipy_blas else None) == before

    def test_one_chunk_grid_held_at_one_thread(self, blas_threads, monkeypatch):
        # 1001 samples of 4x4 are one chunk, cut into two stretches of one
        # chunk each; the certificate is that of one worker, whose one
        # stretch runs at one thread too
        payload = gen_instance(InstanceSpec(m=4, n=4, k=2, seed=3, kind="fk-pair"))
        path = connect_fk(payload["T1"], payload["T2"])
        assert certify_module._chunk_samples(path.shape, False) > 1001
        seen = self._spy(monkeypatch, blas_threads)
        written = _written(certify_path, path, 2, 1001)
        assert seen == [1, 1] and blas_threads() == 3
        monkeypatch.setattr(certify_module, "WORKERS", 1)
        assert _written(certify_path, path, 2, 1001) == written
        assert seen == [1, 1, 1] and blas_threads() == 3

    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_restored_when_a_chunk_raises(self, blas_threads, monkeypatch, where):
        main = threading.main_thread()
        in_caller = lambda: threading.current_thread() is main
        self._spy(monkeypatch, blas_threads, in_caller if where == "caller" else lambda: not in_caller())
        payload = gen_instance(InstanceSpec(m=20, n=20, k=10, seed=2, kind="fk-pair"))
        with pytest.raises(RuntimeError, match="chunk failed"):
            certify_path(connect_fk(payload["T1"], payload["T2"]), 10, grid=4001)
        assert blas_threads() == 3


def _certify_into(name, path, k):
    """Write the certificate of ``path`` at 1001 samples to the file ``name``."""
    with open(name, "w") as f:
        f.write(_written(certify_path, path, k, 1001))


class TestPool:
    """The stretches go to one pool of WORKERS - 1 threads that outlives the call."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 2 * (os.cpu_count() or 1) + 1])
    def test_follows_workers(self, monkeypatch, workers):
        # 20x20 samples are 3200 bytes: a stretch of 11 is heavy enough, so
        # a grid of 12 per worker has a stretch for each
        payload = gen_instance(InstanceSpec(m=20, n=20, k=10, seed=4, kind="fk-pair"))
        path = connect_fk(payload["T1"], payload["T2"])
        grid = 12 * workers
        whole = _whole_grid(_written, certify_path, path, 10, grid)
        monkeypatch.setattr(certify_module, "WORKERS", workers)
        pools, threads = [], set()
        pool, columns = certify_module._pool, certify_module._columns

        def spied_pool():
            pools.append(pool())
            return pools[-1]

        def spied_columns(*args, **kwargs):
            threads.add(threading.current_thread())
            return columns(*args, **kwargs)

        monkeypatch.setattr(certify_module, "_pool", spied_pool)
        monkeypatch.setattr(certify_module, "_columns", spied_columns)
        assert [_written(certify_path, path, 10, grid) for _ in range(2)] == [whole] * 2
        # both calls walk on one pool of workers - 1 threads, asked for once
        # per stretch it is handed; one worker needs none
        assert len(pools) == 2 * (workers - 1)
        assert {executor._max_workers for executor in pools} <= {workers - 1}
        assert len({id(executor) for executor in pools}) == min(1, workers - 1)
        assert threading.main_thread() in threads and len(threads) <= workers
        assert all(t.name.startswith("strata-walk") for t in threads - {threading.main_thread()})

    def test_kept_when_the_stretch_count_changes(self, monkeypatch):
        # 4x4 grids of 1001 samples have 3 stretches, of 600 two: both walk
        # on the one pool of WORKERS - 1 threads, started once
        payload = gen_instance(InstanceSpec(m=4, n=4, k=2, seed=3, kind="fk-pair"))
        path = connect_fk(payload["T1"], payload["T2"])
        grids = [1001, 600] * 3
        monkeypatch.setattr(certify_module, "WORKERS", 1)
        alone = [_written(certify_path, path, 2, grid) for grid in grids]
        started = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(certify_module, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(certify_module, "_pool_held", None)
        monkeypatch.setattr(certify_module, "WORKERS", 3)
        assert [_written(certify_path, path, 2, grid) for grid in grids] == alone
        assert len(started) == 1 and started[0]._max_workers == 2

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork here")
    def test_forked_child_certifies(self, monkeypatch, tmp_path):
        # the parent's pool has a thread, which the child does not inherit:
        # the child starts a pool of its own instead of waiting on that one
        monkeypatch.setattr(certify_module, "WORKERS", 2)
        payload = gen_instance(InstanceSpec(m=4, n=4, k=2, seed=3, kind="fk-pair"))
        path = connect_fk(payload["T1"], payload["T2"])
        written = _written(certify_path, path, 2, 1001)
        name = tmp_path / "child.json"
        child = multiprocessing.get_context("fork").Process(target=_certify_into, args=(name, path, 2))
        child.start()
        child.join(timeout=30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0
        assert name.read_text() == written


class TestInstances:
    def test_determinism(self):
        a = gen_instance(InstanceSpec(m=2, n=2, k=1, seed=7, kind="fk-pair"))
        b = gen_instance(InstanceSpec(m=2, n=2, k=1, seed=7, kind="fk-pair"))
        assert np.array_equal(a["T1"], b["T1"]) and np.array_equal(a["T2"], b["T2"])
        assert np.linalg.matrix_rank(a["T1"]) == 1

    def test_zero_rank(self):
        payload = gen_instance(InstanceSpec(m=3, n=2, k=0, seed=1, kind="fk-pair"))
        assert not payload["T1"].any() and not payload["T2"].any()

    def test_gl_conditioning(self):
        payload = gen_instance(InstanceSpec(m=3, n=3, k=3, seed=5, kind="gl"))
        s = np.linalg.svd(payload["A"], compute_uv=False)
        assert s[-1] / s[0] >= 1e-3

    def test_gl_needs_square(self):
        with pytest.raises(ValueError):
            gen_instance(InstanceSpec(m=2, n=3, k=2, seed=0, kind="gl"))

    def test_fk_conditioning_floor(self):
        for seed in range(20):
            payload = gen_instance(InstanceSpec(m=4, n=5, k=2, seed=seed, kind="fk-pair"))
            for key in ("T1", "T2"):
                s = np.linalg.svd(payload[key], compute_uv=False)
                assert s[1] / s[0] >= 1e-3

    def test_subspace_pair(self):
        payload = gen_instance(InstanceSpec(m=4, n=4, k=2, seed=9, kind="subspace-pair"))
        assert isinstance(payload["E1"], Subspace)
        assert payload["E1"].dim == 2 and payload["E1"].ambient_dim == 4

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            InstanceSpec(m=2, n=2, k=3, seed=0, kind="fk-pair")
        with pytest.raises(ValueError):
            InstanceSpec(m=2, n=2, k=1, seed=0, kind="nope")
