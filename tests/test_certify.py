import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_hyp

from strata import (
    GraphParam,
    MembershipSpec,
    Subspace,
    audit_flip_path,
    certify_path,
    connect_fk,
    constant_path,
    eval_path,
    kernel_basis,
    literal_flip_path,
)
from strata.certify import SIGMA_GAP_MIN, SampleRecord, _membership_checks
from strata.instances import InstanceSpec, gen_instance
from strata.paths import eval_path_batch, sample_parameters
from strata.serialization import certificate_to_obj
from strata.subspaces import DEFAULT_TOL, rank_from_singular_values

from conftest import span


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


def _reference_records(path, expected_k, grid, membership=None, tol=DEFAULT_TOL):
    """The certifier's per-sample loop, one sample at a time: records and failures."""
    samples = sample_parameters(path, grid)
    values = eval_path_batch(path, samples)
    svals = np.linalg.svd(values, compute_uv=False)
    eps = np.finfo(float).eps
    records = []
    failures = set()
    for (t, seg, local), w, s in zip(samples, values, svals):
        sigma_top = float(s[0]) if s.size else 0.0
        rank = rank_from_singular_values(s, tol)
        sigma_k = float(s[expected_k - 1]) if 1 <= expected_k <= s.size else 0.0
        sigma_next = float(s[expected_k]) if s.size > expected_k else 0.0
        floor = max(sigma_next, eps * max(sigma_top, 1.0))
        gap_ok = expected_k == 0 or (sigma_k / floor >= SIGMA_GAP_MIN)
        ok = rank == expected_k and gap_ok
        residuals = None
        if membership is not None and membership.any():
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
    assert cert.failures == failures
    e0, e1 = cert.endpoint_errors
    endpoints_ok = e0 <= 1e-9 * (1.0 + np.max(np.abs(path.start))) and e1 <= 1e-9 * (
        1.0 + np.max(np.abs(path.end))
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
        for expected in (k, k - 1, 0, k + 1, kmax + 1):
            verdicts[expected] = _assert_matches_reference(path, expected, grid).verdict
        assert verdicts[k] == "pass" and verdicts[0] == "degenerate"
        assert verdicts[kmax + 1] == "fail"

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
        # below unit scale the floor eps * max(sigma_1, 1) is absolute and decides
        cases = (([1e-3, 1e-12], 2, "fail"), ([1.0, 1e-8], 1, "fail"), ([1.0, 1e-8], 2, "pass"))
        for diag, k, verdict in cases:
            assert _assert_matches_reference(constant_path(np.diag(diag)), k, 5).verdict == verdict


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
