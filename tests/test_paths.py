import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st_hyp

from strata import (
    ChainWitness,
    Decomposition,
    GraphParam,
    MembershipSpec,
    Subspace,
    alpha_from_complements,
    alpha_operator,
    audit_flip_path,
    certify_path,
    chain_connect,
    connect_fk,
    connect_phi,
    constant_path,
    corrected_flip_path,
    discover_chain,
    eval_path,
    frame_connect,
    gl_connect,
    is_direct_sum,
    kernel_basis,
    left_project_path,
    literal_flip_path,
    make_segment,
    oblique_projection,
    orthogonal_complement,
    principal_angles,
    range_basis,
    rank_of,
    reverse_path,
    right_project_path,
    subspaces_equal,
)
from strata.errors import (
    DirectSumError,
    DisconnectedComponentsError,
    InputError,
    InternalConsistencyError,
    StrataError,
    WitnessError,
)
from strata.geometry import (
    StratumPoint,
    TangentBasis,
    dim_fk,
    tangency_order,
    tangent_violation,
)
from strata.instances import InstanceSpec, gen_instance, random_subspace
import strata.paths
from strata.paths import (
    OperatorPath,
    _frame_path,
    eval_path_batch,
    eval_segment,
    eval_segment_batch,
    locate,
    sample_parameters,
)
from strata.serialization import matrix_from_obj
from strata.subspaces import _factor, maxabs

from conftest import count_factorizations, random_split, span


def is_constant(path):
    """A single do-nothing leg: affine with a zero slope."""
    kinds = [s.kind for s in path.segments]
    return kinds == ["affine"] and not path.segments[0].payload["b"].any()


def leg_names(path):
    """Each leg as "affine" or the side of its rotation, space separated."""
    return " ".join(s.kind if s.kind == "affine" else s.payload["side"] for s in path.segments)


def grid_eval(path, num=101):
    return [eval_path(path, t) for t in np.linspace(0.0, 1.0, num)]


def ambient_tilt(e_star, r, mapping):
    """GraphParam whose ambient action is the given matrix on e_star."""
    coeff = r.basis.T @ np.asarray(mapping, dtype=float) @ e_star.basis
    return GraphParam(e_star, r, coeff)


def unit_scale(a):
    """``a`` times the power of two that puts its largest entry in [0.5, 1),
    as the library's SVDs of endpoint-scaled matrices take it."""
    a = np.asarray(a, dtype=float)
    return np.ldexp(a, -np.frexp(np.max(np.abs(a)))[1])


def full_svd_inputs(monkeypatch):
    """Copies of the matrices np.linalg.svd factors with frames from now on, at unit scale."""
    inputs = []
    original = np.linalg.svd

    def recorded(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            inputs.append(unit_scale(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return inputs


def pin_pair():
    """The seed-0 6x5 rank-3 fk-pair the factorization counts are pinned on."""
    payload = gen_instance(InstanceSpec(m=5, n=6, k=3, seed=0, kind="fk-pair"))
    return payload["T1"], payload["T2"]


def seeded_fk_pairs():
    """20 seeded fk-pairs over five shapes (m cols, n rows, k)."""
    shapes = [(2, 3, 1), (3, 4, 2), (5, 6, 3), (4, 2, 1), (5, 6, 4)]
    for seed in range(20):
        m, n, k = shapes[seed % len(shapes)]
        payload = gen_instance(InstanceSpec(m=m, n=n, k=k, seed=seed, kind="fk-pair"))
        yield payload["T1"], payload["T2"]


def assert_same_path(p, q):
    """Same leg count and the same values at 21 parameters."""
    assert len(p.segments) == len(q.segments)
    for t in np.linspace(0.0, 1.0, 21):
        assert np.max(np.abs(eval_path(p, t) - eval_path(q, t))) <= 1e-12


class TestSegmentsAndEval:
    def test_constant(self):
        p = constant_path(np.eye(2))
        for t in (0.0, 0.3, 1.0):
            assert eval_path(p, t) == pytest.approx(np.eye(2))

    def test_affine_midpoint(self):
        seg = make_segment("affine", {"b": np.eye(2)}, np.zeros((2, 2)))
        p = OperatorPath((seg,), (2, 2))
        assert eval_path(p, 0.5) == pytest.approx(0.5 * np.eye(2))

    def test_chaining_boundary(self):
        a = make_segment("affine", {"b": np.ones((1, 1))}, np.zeros((1, 1)))
        b = make_segment("affine", {"b": np.ones((1, 1))}, np.ones((1, 1)))
        p = OperatorPath((a, b), (1, 1))
        assert eval_path(p, 0.5) == pytest.approx(np.ones((1, 1)))

    def test_broken_chain_rejected(self):
        a = make_segment("affine", {"b": np.ones((1, 1))}, np.zeros((1, 1)))
        c = make_segment("affine", {"b": np.zeros((1, 1))}, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            OperatorPath((a, c), (1, 1))

    def test_out_of_range(self):
        p = constant_path(np.eye(2))
        with pytest.raises(ValueError):
            eval_path(p, 1.5)

    def test_declared_endpoints_enforced(self):
        with pytest.raises(InternalConsistencyError, match="declared end"):
            make_segment("affine", {"b": np.ones((1, 1))}, np.zeros((1, 1)), np.zeros((1, 1)))

    def test_start_is_the_base_point(self):
        # t = 0 gives the start exactly, whatever the motion
        start = np.array([[0.1, -0.7], [1e-300, 3.0]])
        z = np.eye(2)
        legs = [
            make_segment("affine", {"b": np.full((2, 2), 1e8)}, start),
            make_segment("rotation", {"z": z, "theta": [2.0], "side": "range"}, start),
            make_segment("rotation", {"z": z, "theta": [2.0], "side": "kernel"}, start),
        ]
        for seg in legs:
            assert np.array_equal(eval_segment(seg, 0.0), start)

    def test_segments_share_no_array_with_the_caller(self):
        x = np.eye(2)
        p = constant_path(x)
        x[0, 0] = 5.0
        assert eval_path(p, 0.5)[0, 0] == 1.0 and p.end[0, 0] == 1.0
        t1, t2 = np.diag([2.0, 0.0]), np.diag([0.0, 3.0])
        q = connect_fk(t1, t2)
        t2[1, 1] = 7.0
        assert eval_path(q, 0.0)[1, 1] == 3.0
        z, theta = np.eye(2), np.array([0.5])
        seg = make_segment("rotation", {"z": z, "theta": theta, "side": "range"}, t1)
        for array in (seg.start, seg.end, seg.payload["z"], seg.payload["theta"]):
            assert not array.flags.writeable and not np.shares_memory(array, z)
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_arrays_rejected(self, bad):
        finite, broken = np.eye(2), np.array([[1.0, 0.0], [bad, 1.0]])
        for payload, start, end, field in (
            ({"b": finite}, broken, None, "start"),
            ({"b": broken}, finite, None, "b"),
            ({"b": finite}, finite, broken, "end"),
            ({"z": finite, "theta": [bad], "side": "range"}, finite, None, "theta"),
        ):
            kind = "rotation" if "z" in payload else "affine"
            with pytest.raises(InputError, match=f"segment field '{field}' holds a non-finite"):
                make_segment(kind, payload, start, end)
        with pytest.raises(InputError, match="non-finite"):
            connect_fk(finite, broken)
        with pytest.raises(InputError, match="non-finite"):
            corrected_flip_path(broken)

    def test_forced_midpoints_present(self):
        seg1 = make_segment("affine", {"b": np.ones((1, 1))}, np.zeros((1, 1)))
        seg2 = make_segment("affine", {"b": np.ones((1, 1))}, np.ones((1, 1)))
        p = OperatorPath((seg1, seg2), (1, 1))
        samples = sample_parameters(p, 4)
        locals_by_seg = {(s, lt) for (_, s, lt) in samples}
        assert (0, 0.5) in locals_by_seg and (1, 0.5) in locals_by_seg

    @staticmethod
    def _reference_samples(path, grid):
        """The grid built one point at a time through ``locate``."""
        nseg = len(path.segments)
        samples = {}
        for i in range(grid):
            t = i / (grid - 1)
            samples[t] = locate(path, t)
        for s, seg in enumerate(path.segments):
            if seg.kind == "affine":
                samples[(s + 0.5) / nseg] = (s, 0.5)
        return [(t,) + samples[t] for t in sorted(samples)]

    def test_sampling_matches_locate_reference(self):
        zero = np.zeros((2, 2))
        affine = make_segment("affine", {"b": zero}, zero)
        rotation = make_segment("rotation", {"z": np.eye(2), "theta": [1.0], "side": "range"}, zero)
        for nseg in range(1, 10):
            for every in (1, 3):
                segs = [rotation if i % every == 1 else affine for i in range(nseg)]
                p = OperatorPath(segs, (2, 2))
                for grid in range(2, 61):
                    got = sample_parameters(p, grid)
                    want = self._reference_samples(p, grid)
                    assert got == want
                    assert [tuple(map(type, x)) for x in got] == [
                        tuple(map(type, x)) for x in want
                    ]

    def test_reverse_round_trip(self, rng):
        # a path touching every segment family the connectors emit
        t1 = rng.uniform(-1, 1, (3, 2)) @ rng.uniform(-1, 1, (2, 4))
        t2 = rng.uniform(-1, 1, (3, 2)) @ rng.uniform(-1, 1, (2, 4))
        p = connect_fk(t1, t2)
        r = reverse_path(p)
        for t in np.linspace(0, 1, 37):
            assert eval_path(r, t) == pytest.approx(eval_path(p, 1.0 - t), abs=1e-9)
        q, sign = gl_connect(rng.uniform(-1, 1, (3, 3)) + 3 * np.eye(3))
        rq = reverse_path(q)
        for t in np.linspace(0, 1, 17):
            assert eval_path(rq, t) == pytest.approx(eval_path(q, 1.0 - t), abs=1e-9)
        # each reversed leg starts at the forward leg's declared end
        assert np.array_equal(eval_path(r, 0.0), p.end)
        assert np.array_equal(eval_path(rq, 0.0), q.end)

    def test_reverse_joins_are_own_ends(self, rng):
        """Each reversed leg starts where the one before it evaluates to at 1;
        only the last declares its end, the forward start, exactly."""
        t1 = rng.uniform(-1, 1, (5, 3)) @ rng.uniform(-1, 1, (3, 4))
        t2 = rng.uniform(-1, 1, (5, 3)) @ rng.uniform(-1, 1, (3, 4))
        # the frame path has interior joins; the flip is one leg
        fk, flip = connect_fk(t1, t2), corrected_flip_path(t1)
        assert len(fk.segments) >= 3 and len(flip.segments) == 1
        for p in (fk, flip):
            r = reverse_path(p)
            assert len(r.segments) == len(p.segments)
            assert r.start.tobytes() == p.end.tobytes()
            assert r.end.tobytes() == p.start.tobytes()
            for before, seg in zip(r.segments, r.segments[1:]):
                own = eval_segment_batch(before, np.ones(1))[0]
                assert before.end.tobytes() == own.tobytes() == seg.start.tobytes()


class TestRotationLegs:
    @staticmethod
    def random_leg(seed, side, planes):
        rng = np.random.default_rng(seed)
        rows, cols = (int(x) for x in rng.integers(2, 9, size=2))
        if side == "range":
            rows = max(rows, 2 * planes)
        else:
            cols = max(cols, 2 * planes)
        dim = rows if side == "range" else cols
        z, _ = np.linalg.qr(rng.standard_normal((dim, 2 * planes)))
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, planes)
        a = rng.standard_normal((rows, cols))
        seg = make_segment("rotation", {"z": z, "theta": theta, "side": side}, a)
        return OperatorPath((seg,), a.shape), a, z, theta

    @given(
        st_hyp.integers(0, 2**32 - 1),
        st_hyp.sampled_from(["range", "kernel"]),
        st_hyp.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_rotation_leg(self, seed, side, planes):
        p, a, z, theta = self.random_leg(seed, side, planes)
        # generator sum_j theta_j (z2 z1^T - z1 z2^T), one term per plane
        skew = sum(
            th * (np.outer(z[:, 2 * j + 1], z[:, 2 * j]) - np.outer(z[:, 2 * j], z[:, 2 * j + 1]))
            for j, th in enumerate(theta)
        )
        s0 = np.linalg.svd(a, compute_uv=False)
        twice = reverse_path(reverse_path(p))
        scale = np.max(np.abs(a))
        for t in np.linspace(0.0, 1.0, 11):
            rot = scipy.linalg.expm(t * skew)
            want = rot @ a if side == "range" else a @ rot.T
            got = eval_path(p, t)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
            assert np.max(np.abs(np.linalg.svd(got, compute_uv=False) - s0)) <= 1e-12 * s0[0]
            assert np.max(np.abs(eval_path(twice, t) - got)) <= 1e-12 * scale

    @pytest.mark.parametrize("side", ["range", "kernel"])
    def test_evaluation_does_not_depend_on_batching(self, monkeypatch, side):
        # one sample at a time, in a batch, into an output buffer, and with
        # the rotation working one sample per step: the same values, bit for bit
        p, *_ = self.random_leg(3, side, 2)
        seg = p.segments[0]
        ts = np.linspace(0.0, 1.0, 37)
        batch = eval_segment_batch(seg, ts)
        samples = [(t, 0, t) for t in ts.tolist()]
        buffer = np.empty((40,) + p.shape)
        assert np.array_equal(eval_path_batch(p, samples, buffer[:37]), batch)
        assert all(np.array_equal(eval_segment(seg, t), want) for t, want in zip(ts, batch))
        monkeypatch.setattr(strata.paths, "ROTATE_CHUNK_BYTES", 1)
        assert np.array_equal(eval_segment_batch(seg, ts), batch)

    def test_invalid_planes_rejected(self):
        a = np.eye(3)
        z = np.eye(3)[:, :2]
        with pytest.raises(ValueError):
            make_segment("rotation", {"z": 2 * z, "theta": [1.0], "side": "range"}, a)
        with pytest.raises(ValueError):
            make_segment("rotation", {"z": z, "theta": [1.0, 2.0], "side": "range"}, a)
        with pytest.raises(ValueError):
            make_segment("rotation", {"z": z, "theta": [np.nan], "side": "range"}, a)


class TestLiteralFlip:
    def setup_method(self):
        self.e_star = span([1, 0])
        self.r = span([0, 1])
        self.alpha = ambient_tilt(self.e_star, self.r, [[0, 0], [1, 0]])

    def test_printed_family(self):
        p = literal_flip_path(self.e_star, self.r, self.alpha)
        seg2 = p.segments[1]
        for t in (0.0, 0.25, 0.5, 1.0):
            got = seg2.start + t * seg2.payload["b"]
            want = np.array([[1 - 2 * t, 0.0], [1 - t, 0.0]])
            assert got == pytest.approx(want, abs=1e-12)

    def test_endpoints(self):
        p = literal_flip_path(self.e_star, self.r, self.alpha)
        proj = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert eval_path(p, 0.0) == pytest.approx(proj, abs=1e-12)
        assert eval_path(p, 1.0) == pytest.approx(-proj, abs=1e-12)

    def test_zero_base_is_constant_zero(self):
        p = literal_flip_path(Subspace.zero(2), Subspace.full(2), GraphParam(Subspace.zero(2), Subspace.full(2), np.zeros((2, 0))))
        assert eval_path(p, 0.5) == pytest.approx(np.zeros((2, 2)))

    def test_zero_complement_rejected(self):
        with pytest.raises(ValueError):
            literal_flip_path(Subspace.full(2), Subspace.zero(2), GraphParam(Subspace.full(2), Subspace.zero(2), np.zeros((0, 2))))

    def test_zero_tilt_rejected(self):
        with pytest.raises(ValueError):
            literal_flip_path(self.e_star, self.r, GraphParam(self.e_star, self.r, np.zeros((1, 1))))


class TestAuditFlip:
    def test_midpoint_defect_flagged(self):
        e_star, r = span([1, 0]), span([0, 1])
        alpha = ambient_tilt(e_star, r, [[0, 0], [1, 0]])
        p = literal_flip_path(e_star, r, alpha)
        audit = audit_flip_path(p, (r, r), grid=11)
        assert 0.5 in audit.failures
        # the defective sample is the one on the second leg
        samples = audit.samples
        bad = [
            (segment, local)
            for segment, local, range_ok, kernel_ok in zip(
                samples["segment"], samples["local_t"],
                samples["range_complement_cond_ok"], samples["kernel_angle_ok"],
            )
            if not (range_ok and kernel_ok)
        ]
        assert bad and set(bad) == {(1, 0.5)}

    def test_endpoints_pass(self):
        e_star, r = span([1, 0]), span([0, 1])
        alpha = ambient_tilt(e_star, r, [[0, 0], [1, 0]])
        p = literal_flip_path(e_star, r, alpha)
        audit = audit_flip_path(p, (r, r), grid=11)
        samples = audit.samples
        assert (samples["t"][0], samples["t"][-1]) == (0.0, 1.0)
        for i in (0, -1):
            assert samples["range_complement_cond_ok"][i] and samples["kernel_angle_ok"][i]

    def test_degenerate_zero_path(self):
        p = constant_path(np.zeros((2, 2)))
        audit = audit_flip_path(p, (span([0, 1]), span([0, 1])), grid=5)
        assert audit.degenerate and not audit.failures

    def test_random_instances_always_fail_at_half(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, n))
            e_star, r = random_split(rng, n, d)
            coeff = rng.uniform(-1, 1, (r.dim, e_star.dim))
            while np.max(np.abs(coeff)) < 1e-2:
                coeff = rng.uniform(-1, 1, (r.dim, e_star.dim))
            p = literal_flip_path(e_star, r, GraphParam(e_star, r, coeff))
            audit = audit_flip_path(p, (r, r), grid=9)
            assert 0.5 in audit.failures


class TestCorrectedFlip:
    def test_factorization_count(self, monkeypatch):
        # the rank check and the frames come from one full SVD
        t1, _ = pin_pair()
        calls = count_factorizations(monkeypatch)
        corrected_flip_path(t1, 3)
        assert (calls["svd"], calls["inv"], calls["pinv"]) == (1, 0, 0)

    def test_two_by_two(self):
        t = np.array([[1.0, 0.0], [0.0, 0.0]])
        p = corrected_flip_path(t, 1)
        thetas = np.linspace(0, 1, 21)
        for s in thetas:
            w = eval_path(p, s)
            expected = np.array([[np.cos(np.pi * s), 0.0], [np.sin(np.pi * s), 0.0]])
            assert w == pytest.approx(expected, abs=1e-12)
            svals = np.linalg.svd(w, compute_uv=False)
            assert svals[0] == pytest.approx(1.0, abs=1e-12)
            assert svals[1] == pytest.approx(0.0, abs=1e-12)

    def test_one_leg_of_paired_half_turns(self, rng):
        """One rotation leg turning the first k + (k mod 2) singular
        directions in pairs, on the range side when the rows leave room."""
        for _ in range(40):
            rows, cols = (int(x) for x in rng.integers(1, 8, size=2))
            k = int(rng.integers(1, min(rows, cols) + 1))
            turned = k + k % 2
            if max(rows, cols) < turned:
                continue
            t = rng.uniform(-1, 1, (rows, k)) @ rng.uniform(-1, 1, (k, cols))
            (leg,) = corrected_flip_path(t, k).segments
            _, _, (u, _, vt) = _factor(t)
            side, frame = ("range", u) if rows >= turned else ("kernel", vt.T)
            assert leg.kind == "rotation" and leg.payload["side"] == side
            assert np.array_equal(leg.payload["z"], frame[:, :turned])
            assert np.array_equal(leg.payload["theta"], np.full((k + 1) // 2, np.pi))
            assert leg.start.tobytes() == t.tobytes()
            assert leg.end.tobytes() == (-t).tobytes()

    def test_endpoints_exact(self, rng):
        for _ in range(25):
            n, m = rng.integers(2, 6, size=2)
            k = int(rng.integers(1, min(n, m) + 1))
            if k == n == m and k % 2:
                k -= 1
            if k == 0:
                continue
            t = rng.uniform(-1, 1, (n, k)) @ rng.uniform(-1, 1, (k, m))
            p = corrected_flip_path(t, k)
            assert np.max(np.abs(eval_path(p, 0.0) - t)) <= 1e-12 * (1 + np.max(np.abs(t)))
            assert np.max(np.abs(eval_path(p, 1.0) + t)) <= 1e-12 * (1 + np.max(np.abs(t)))
            for s in np.linspace(0, 1, 41):
                assert rank_of(eval_path(p, s)) == k

    def test_zero_rank_constant(self):
        p = corrected_flip_path(np.zeros((2, 3)), 0)
        assert eval_path(p, 0.7) == pytest.approx(np.zeros((2, 3)))

    def test_even_invertible_flips(self):
        # det(-T) = det T at even size: T and -T share a component, as
        # connect_fk finds too
        t4 = np.random.default_rng(4).uniform(-1, 1, (4, 4))
        for t in (np.eye(2), t4):
            n = t.shape[0]
            p = corrected_flip_path(t)
            assert len(p.segments) == 1 and p.segments[0].payload["theta"].size == n // 2
            assert p.end.tobytes() == (-t).tobytes()
            assert certify_path(p, n, grid=1001).verdict == "pass"
            assert certify_path(connect_fk(-t, t), n, grid=1001).verdict == "pass"

    def test_full_square_rejected(self):
        # det(-T) = -det T at odd size: T and -T lie in different components
        for n in (1, 3, 5):
            with pytest.raises(DisconnectedComponentsError):
                corrected_flip_path(np.eye(n), n)
            with pytest.raises(DisconnectedComponentsError):
                connect_fk(-np.eye(n), np.eye(n))

    def test_side_without_room_rejected(self):
        # rank 1 turns one singular direction and a spare one: a side
        # without a spare direction is passed over, and with neither side
        # left the flip is refused
        for t, side in (
            (np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), "range"),  # 3x2
            (np.array([[1.0, 2.0]]), "kernel"),  # 1x2
        ):
            (leg,) = corrected_flip_path(t, 1).segments
            assert leg.payload["side"] == side and leg.end.tobytes() == (-t).tobytes()
        with pytest.raises(DisconnectedComponentsError):
            corrected_flip_path(np.array([[2.0]]), 1)

    def test_kernel_side(self):
        # 3x4 of rank 3: four directions turn, and only the row side has four
        t = np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 1.0, 3.0]])
        p = corrected_flip_path(t, 3)
        assert [s.payload["side"] for s in p.segments] == ["kernel"]
        assert eval_path(p, 1.0) == pytest.approx(-t, abs=1e-12)
        for s in np.linspace(0, 1, 41):
            assert rank_of(eval_path(p, s)) == 3
        assert certify_path(p, 3, grid=1001).verdict == "pass"

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            corrected_flip_path(np.eye(2), 1)

    def test_rank_must_be_an_integer(self):
        t = np.eye(2)
        for bad in (2.0, True, "2"):
            with pytest.raises(InputError, match="flip rank must be an integer count"):
                corrected_flip_path(t, bad)
        assert corrected_flip_path(t, np.int64(2)).end.tobytes() == (-t).tobytes()


class TestProjectPaths:
    def test_left_hand_instance(self):
        t0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        p = left_project_path(t0, span([1, 0]), span([0, 1]))
        for t in (0.0, 0.3, 1.0):
            assert eval_path(p, t) == pytest.approx(np.array([[1.0, 0.0], [t, 0.0]]), abs=1e-12)

    def test_left_trivial_when_range_matches(self):
        t0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        p = left_project_path(t0, range_basis(t0), span([0, 1]))
        for t in (0.0, 0.5, 1.0):
            assert eval_path(p, t) == pytest.approx(t0, abs=1e-12)

    def test_left_three_dims_keeps_kernel(self, rng):
        t0 = rng.uniform(-1, 1, (3, 1)) @ rng.uniform(-1, 1, (1, 3))
        n_sub = orthogonal_complement(range_basis(t0))
        f_star, _ = random_split(rng, 3, 1)
        while not is_direct_sum([f_star, n_sub]):
            f_star, _ = random_split(rng, 3, 1)
        p = left_project_path(t0, f_star, n_sub)
        ker = kernel_basis(t0)
        for t in np.linspace(0, 1, 21):
            w = eval_path(p, t)
            assert subspaces_equal(kernel_basis(w), ker)
            assert rank_of(w) == 1
        assert eval_path(p, 1.0) == pytest.approx(t0, abs=1e-10)

    def test_left_needs_room(self):
        t0 = np.eye(2)
        with pytest.raises(ValueError):
            left_project_path(t0, Subspace.full(2), Subspace.zero(2))

    def test_right_hand_instance(self):
        # kernel (1,-1): tilting the kernel family onto the second axis
        t0 = np.array([[1.0, 1.0], [0.0, 0.0]])
        p = right_project_path(t0, span([0, 1]), span([1, 0]))
        assert eval_path(p, 0.0) == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.0]]), abs=1e-12)
        assert eval_path(p, 1.0) == pytest.approx(t0, abs=1e-12)
        for t in np.linspace(0, 1, 21):
            w = eval_path(p, t)
            assert rank_of(w) == 1
            assert subspaces_equal(range_basis(w), range_basis(t0))

    def test_right_trivial_when_kernel_matches(self):
        t0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        p = right_project_path(t0, span([0, 1]), span([1, 0]))
        for t in (0.0, 0.5, 1.0):
            assert eval_path(p, t) == pytest.approx(t0, abs=1e-12)

    def test_right_precondition_failure(self):
        t0 = np.array([[1.0, 0.0], [0.0, 0.0]])  # kernel is the second axis
        with pytest.raises(DirectSumError):
            right_project_path(t0, span([1, 0]), span([0, 1]))

    @staticmethod
    def well_split(rng, n, d):
        """Two d-dimensional subspaces and one complement of both, all well conditioned."""
        while True:
            a, b = random_subspace(rng, n, d), random_subspace(rng, n, d)
            c = random_subspace(rng, n, n - d)
            if all(is_direct_sum([x, c]).condition_number < 1e3 for x in (a, b)):
                return a, b, c

    def test_legs_follow_graph_formula(self):
        # the straight legs are the graph families (P + s*aP) t0 and t0 (P' - s*aP)
        def assert_follows(p, want, t0):
            scale = 1e-10 * (1.0 + maxabs(t0))
            for s in np.linspace(0.0, 1.0, 11):
                assert maxabs(eval_path(p, s) - want(s)) <= scale

        for n in range(2, 9):
            rng = np.random.default_rng(300 + n)
            for _ in range(15):
                d = int(rng.integers(1, n))
                other = int(rng.integers(d, 9))
                # left: range(t0) and f_star both complement n_sub
                range0, f_star, n_sub = self.well_split(rng, n, d)
                t0 = range0.basis @ rng.standard_normal((d, other))
                ap = alpha_operator(alpha_from_complements(range_basis(t0), f_star, n_sub))
                proj = oblique_projection(f_star, n_sub).projector
                assert_follows(
                    left_project_path(t0, f_star, n_sub), lambda s: (proj + s * ap @ proj) @ t0, t0
                )
                # right: kernel(t1) and e_star both complement r0
                ker, e_star, r0 = self.well_split(rng, n, n - d)
                t1 = rng.standard_normal((other, d)) @ orthogonal_complement(ker).basis.T
                ap = alpha_operator(alpha_from_complements(kernel_basis(t1), e_star, r0))
                proj = oblique_projection(e_star, r0).projector
                assert_follows(
                    right_project_path(t1, e_star, r0),
                    lambda s: t1 @ (np.eye(n) - proj - s * ap @ proj),
                    t1,
                )

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_factorization_count(self, monkeypatch, side):
        # one SVD for the matrix's range or kernel, two split checks, one inverse
        t0 = gen_instance(InstanceSpec(m=8, n=8, k=4, seed=3, kind="fk-pair"))["T1"]
        rng = np.random.default_rng(3)
        own = range_basis(t0) if side == "left" else kernel_basis(t0)
        ref = random_subspace(rng, 8, 4)
        while not is_direct_sum([own, ref]):
            ref = random_subspace(rng, 8, 4)
        star = random_subspace(rng, 8, 4)
        while not is_direct_sum([star, ref]):
            star = random_subspace(rng, 8, 4)
        build = left_project_path if side == "left" else right_project_path
        calls = count_factorizations(monkeypatch)
        build(t0, star, ref)
        assert (calls["svd"], calls["inv"], calls["pinv"]) == (3, 1, 0)

    def test_right_kernel_tilts_along_path(self, rng):
        t0 = rng.uniform(-1, 1, (2, 3))  # rank 2, kernel dim 1
        ker = kernel_basis(t0)
        r0 = orthogonal_complement(ker)
        e_star, _ = random_split(rng, 3, 1)
        while not is_direct_sum([e_star, r0]):
            e_star, _ = random_split(rng, 3, 1)
        p = right_project_path(t0, e_star, r0)
        assert subspaces_equal(kernel_basis(eval_path(p, 0.0)), e_star)
        assert subspaces_equal(kernel_basis(eval_path(p, 1.0)), ker)
        for t in np.linspace(0, 1, 21):
            assert subspaces_equal(range_basis(eval_path(p, t)), range_basis(t0))


class TestGlConnect:
    def test_identity_constant(self):
        p, sign = gl_connect(np.eye(3))
        assert sign == 1
        assert is_constant(p)

    def test_positive_diagonal(self):
        p, sign = gl_connect(np.diag([2.0, 1.0]))
        assert sign == 1
        assert [s.kind for s in p.segments] == ["affine"]
        assert eval_path(p, 1.0) == pytest.approx(np.eye(2), abs=1e-12)

    def test_negative_already_at_target(self):
        p, sign = gl_connect(np.diag([-1.0, 1.0]))
        assert sign == -1
        assert eval_path(p, 1.0) == pytest.approx(np.diag([-1.0, 1.0]), abs=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            gl_connect(np.diag([1.0, 0.0]))

    def test_invertibility_bound(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-1, 1, (n, n))
            if rank_of(a) < n:
                continue
            p, sign = gl_connect(a)
            smin_a = np.linalg.svd(a, compute_uv=False)[-1]
            bound = 0.5 * min(1.0, smin_a)
            for t in np.linspace(0, 1, 101):
                smin = np.linalg.svd(eval_path(p, t), compute_uv=False)[-1]
                assert smin >= bound
            d = eval_path(p, 1.0)
            assert d == pytest.approx(np.diag([sign] + [1.0] * (n - 1)), abs=1e-9)

    def test_factorization_count(self, monkeypatch):
        # one full SVD of the input (it also decides the rank) and one of the target
        a = gen_instance(InstanceSpec(m=5, n=5, k=5, seed=0, kind="gl"))["A"]
        calls = count_factorizations(monkeypatch)
        gl_connect(a)
        assert 0 < calls["svd"] <= 2
        assert calls["inv"] == 0
        assert calls["pinv"] == 0

    def test_rotation_with_minus_pair(self):
        # symmetric orthogonal with two -1 eigenvalues: the paired half-turn case
        q = np.diag([-1.0, -1.0, 1.0])
        p, sign = gl_connect(q)
        assert sign == 1
        assert eval_path(p, 1.0) == pytest.approx(np.eye(3), abs=1e-9)
        for t in np.linspace(0, 1, 51):
            w = eval_path(p, t)
            assert np.linalg.svd(w, compute_uv=False)[-1] >= 0.5


class TestConnectFk:
    def test_basic_pair(self):
        t1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        t2 = np.array([[0.0, 0.0], [0.0, 1.0]])
        p = connect_fk(t1, t2)
        assert eval_path(p, 0.0) == pytest.approx(t2, abs=1e-9)
        assert eval_path(p, 1.0) == pytest.approx(t1, abs=1e-9)
        for w in grid_eval(p, 201):
            assert rank_of(w) == 1

    def test_same_matrix_constant(self):
        t = np.array([[1.0, 2.0], [0.5, 1.0]])
        p = connect_fk(t, t)
        assert is_constant(p)

    def test_negation_pair(self):
        t1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        p = connect_fk(t1, -t1)
        assert eval_path(p, 0.0) == pytest.approx(-t1, abs=1e-9)
        assert eval_path(p, 1.0) == pytest.approx(t1, abs=1e-9)
        for w in grid_eval(p, 201):
            assert rank_of(w) == 1

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch: 2 vs 1; endpoints lie in different strata"):
            connect_fk(np.eye(2), np.diag([1.0, 0.0]))

    def test_disconnected_square(self):
        with pytest.raises(DisconnectedComponentsError):
            connect_fk(np.eye(2), np.diag([-1.0, 1.0]))
        with pytest.raises(DisconnectedComponentsError):
            connect_fk(np.eye(2), np.diag([-1.0, 1.0]))

    def test_square_same_component(self):
        p = connect_fk(np.eye(2), np.diag([2.0, 3.0]))
        for w in grid_eval(p, 101):
            assert rank_of(w) == 2

    def test_is_the_frame_construction(self):
        for t1, t2 in seeded_fk_pairs():
            p = connect_fk(t1, t2)
            assert_same_path(p, frame_connect(t1, t2))
            # one singular-value leg, the two frame rotations, optional tail legs
            legs = leg_names(p)
            assert re.fullmatch(r"(affine )?affine range kernel( affine)?", legs), legs

    def test_factorization_count(self, monkeypatch):
        # one 6x5 rank-3 pair: one full SVD per endpoint, nothing inverted
        t1, t2 = pin_pair()
        calls = count_factorizations(monkeypatch)
        connect_fk(t1, t2)
        assert 0 < calls["svd"] <= 2
        assert calls["inv"] == 0
        assert calls["pinv"] == 0

    def test_random_rank_constancy(self, rng):
        for seed in range(30):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, min(m, n))) if min(m, n) > 1 else 1
            payload = gen_instance(InstanceSpec(m=m, n=n, k=k, seed=seed, kind="fk-pair"))
            p = connect_fk(payload["T1"], payload["T2"])
            for w in grid_eval(p, 101):
                assert rank_of(w) == k


class TestConnectPhi:
    def test_surjective_branch(self):
        t1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        t2 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        p = connect_phi(t1, t2, 1, 0)
        for w in grid_eval(p, 201):
            assert rank_of(w) == 2
            assert kernel_basis(w).dim == 1

    def test_invertible_case_rejected(self):
        with pytest.raises(DisconnectedComponentsError):
            connect_phi(np.eye(2), 2 * np.eye(2), 0, 0)

    def test_same_operator_constant(self):
        t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        p = connect_phi(t, t, 1, 1)
        assert is_constant(p)

    def test_membership_mismatch_rejected(self):
        t1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            connect_phi(t1, t1, 2, 0)

    def test_factorization_count(self, monkeypatch):
        # the kernel and corank checks read the ranks of the frame SVDs
        t1, t2 = pin_pair()
        calls = count_factorizations(monkeypatch)
        connect_phi(t1, t2, 2, 3)
        assert 0 < calls["svd"] <= 2
        assert calls["inv"] == 0
        assert calls["pinv"] == 0


class TestChains:
    def test_discovered_chain_connects(self, rng):
        t0 = rng.uniform(-1, 1, (2, 1)) @ rng.uniform(-1, 1, (1, 2))
        t_star = rng.uniform(-1, 1, (2, 1)) @ rng.uniform(-1, 1, (1, 2))
        w = discover_chain(t0, t_star)
        assert len(w.kernels) == 0 and len(w.ranges) == 0
        assert len(w.kernel_complements) == 1 and len(w.range_complements) == 1
        p = chain_connect(t0, t_star, w)
        assert eval_path(p, 0.0) == pytest.approx(t_star, abs=1e-9)
        assert eval_path(p, 1.0) == pytest.approx(t0, abs=1e-9)
        for w_ in grid_eval(p, 101):
            assert rank_of(w_) == 1

    def test_trivial_witness_same_operator(self):
        t = np.array([[1.0, 0.0], [0.0, 0.0]])
        w = discover_chain(t, t)
        p = chain_connect(t, t, w)
        assert is_constant(p)

    def test_bad_witness_reports_slot(self):
        t = np.array([[1.0, 0.0], [0.0, 0.0]])
        bad = ChainWitness(
            (), (span([0, 1]),), (), (span([0, 1]),)
        )  # complement equal to the kernel cannot split it
        with pytest.raises(WitnessError) as exc:
            chain_connect(t, t, bad)
        assert "kernel chain slot 1" in str(exc.value)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            discover_chain(np.eye(2), np.diag([1.0, 0.0]))

    def test_discovered_chain_is_the_frame_construction(self):
        # the last complements build nothing: the chain is one frame stage,
        # also when that stage negates a spare kernel column of t_star, whose
        # factors the witness check has read first
        x, y = np.diag([1.0, 1.0, 0.0]), np.diag([-1.0, 1.0, 0.0])
        assert frame_signs(x, y) == (False, True)
        for t1, t2 in [*seeded_fk_pairs(), (x, y)]:
            p = chain_connect(t1, t2, discover_chain(t1, t2))
            assert_same_path(p, frame_connect(t1, t2))

    def test_factorization_count(self, monkeypatch):
        # one 6x5 rank-3 pair: one full SVD per endpoint, reused by the frame
        # stage, and four witness checks
        t1, t2 = pin_pair()
        witness = discover_chain(t1, t2)
        calls = count_factorizations(monkeypatch)
        chain_connect(t1, t2, witness)
        assert 0 < calls["svd"] <= 6
        assert calls["inv"] == 0
        assert calls["pinv"] == 0

    def test_one_link_factorizations(self, monkeypatch):
        # one kernel link moves t0: the frame stage factors the moved
        # operator once and reuses the factors of t_star
        t0 = np.zeros((3, 3))
        t0[0, 0] = 1.0  # kernel {e2, e3}
        t_star = np.zeros((3, 3))
        t_star[1, 0] = 1.0  # kernel {e2, e3}
        witness = ChainWitness(
            (span([1, 0, 0], [0, 0, 1]),),
            (span([1, 1, 0]), span([1, 1, 1])),
            (),
            (span([1, -1, 0], [0, 0, 1]),),
        )
        inputs = full_svd_inputs(monkeypatch)
        p = chain_connect(t0, t_star, witness)
        moved = p.segments[-1].start  # the walk back starts at the moved operator
        assert not np.array_equal(moved, t0)
        for m in (t0, t_star, moved):
            assert sum(np.array_equal(unit_scale(m), x) for x in inputs) == 1
        assert len(inputs) == 3
        assert eval_path(p, 0.0) == pytest.approx(t_star, abs=1e-12)
        assert eval_path(p, 1.0) == pytest.approx(t0, abs=1e-12)

    def test_length_two_kernel_chain(self):
        # handcrafted chain through two intermediate kernels in R^3:
        # {e2,e3} -> {e1,e3} -> {e1,e2} -> {e2,e3}, each consecutive pair
        # split by an explicit transversal line
        t0 = np.zeros((3, 3))
        t0[0, 0] = 1.0  # kernel {e2, e3}, range {e1}
        t_star = np.zeros((3, 3))
        t_star[1, 0] = 1.0  # kernel {e2, e3}, range {e2}
        n1 = span([1, 0, 0], [0, 0, 1])
        n2 = span([1, 0, 0], [0, 1, 0])
        r1 = span([1, 1, 0])
        r2 = span([0, 1, 1])
        r3 = span([1, 0, 1])
        s1 = span([1, -1, 0], [0, 0, 1])
        witness = ChainWitness((n1, n2), (r1, r2, r3), (), (s1,))
        # every slot of the witness is a genuine splitting
        for comp, pair in (
            (r1, (kernel_basis(t0), n1)),
            (r2, (n1, n2)),
            (r3, (n2, kernel_basis(t_star))),
        ):
            for node in pair:
                assert is_direct_sum([node, comp]).ok
        p = chain_connect(t0, t_star, witness)
        assert eval_path(p, 0.0) == pytest.approx(t_star, abs=1e-9)
        assert eval_path(p, 1.0) == pytest.approx(t0, abs=1e-9)
        for w_ in grid_eval(p, 151):
            assert rank_of(w_) == 1


def frame_signs(x, y):
    """Whether U_x U_y^T and V_x V_y^T have determinant -1, for LAPACK's frames."""
    (ux, _, vtx), (uy, _, vty) = np.linalg.svd(x), np.linalg.svd(y)
    det = np.linalg.det
    return bool(det(ux) * det(uy) < 0), bool(det(vtx) * det(vty) < 0)


TALL = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])  # 3x2 rank 2: spare range column only


class TestFrameConnect:
    @pytest.mark.parametrize(
        "x, y, signs",
        [
            # both determinants -1: one paired column flip
            (np.diag([1.0, 2.0, 0.0]), np.diag([2.0, 1.0, 0.0]), (True, True)),
            # range side -1, spare range column
            (TALL, np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]]), (True, False)),
            # kernel side -1 with no spare kernel column: moved to the range side
            (TALL, np.array([[-1.0, 0.0], [0.0, 3.0], [0.0, 0.0]]), (False, True)),
            # kernel side -1, spare kernel column
            (TALL.T, np.array([[-1.0, 0.0, 0.0], [0.0, 3.0, 0.0]]), (False, True)),
            # range side -1 with no spare range column: moved to the kernel side
            (TALL.T, np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]), (True, False)),
        ],
        ids=["both", "range-spare", "range-spare-via-pair", "kernel-spare", "kernel-spare-via-pair"],
    )
    def test_sign_branches(self, x, y, signs):
        assert frame_signs(x, y) == signs  # the pair reaches the intended branch
        k = rank_of(x)
        p = frame_connect(x, y)
        cert = certify_path(p, k, grid=1001)
        assert cert.verdict == "pass"
        assert set(cert.samples["rank"]) == {k}
        assert maxabs(eval_path(p, 0.0) - y) <= 1e-12 * (1 + maxabs(y))
        assert maxabs(eval_path(p, 1.0) - x) <= 1e-12 * (1 + maxabs(x))

    def test_tail_legs(self):
        # singular values below the rank cut are dropped first and restored last
        rng = np.random.default_rng(3)

        def rank_two_with_tail(tail):
            u = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            return (u[:, :3] * [1.0, 0.5, tail]) @ v.T

        x, y = rank_two_with_tail(2e-11), rank_two_with_tail(5e-11)
        p = frame_connect(x, y)
        assert leg_names(p) == "affine affine range kernel affine"
        cert = certify_path(p, 2, grid=1001)
        assert cert.verdict == "pass"
        assert maxabs(eval_path(p, 0.0) - y) <= 1e-12 * (1 + maxabs(y))
        assert maxabs(eval_path(p, 1.0) - x) <= 1e-12 * (1 + maxabs(x))

    def test_shared_factors_untouched(self):
        # orientation negates frame columns of y: it must work on copies
        x, y = np.diag([1.0, 1.0, 0.0]), np.diag([-1.0, 1.0, 0.0])
        fx, fy = _factor(x), _factor(y)
        before = [a.copy() for a in (*fx[2], *fy[2])]
        assert_same_path(_frame_path(fx, fy), frame_connect(x, y))
        for a, b in zip((*fx[2], *fy[2]), before):
            assert np.array_equal(a, b)

    def test_no_spare_column_raises(self):
        x, y = np.diag([1.0, 2.0, 3.0]), np.diag([-1.0, 2.0, 3.0])
        assert frame_signs(x, y) in ((True, False), (False, True))
        with pytest.raises(DisconnectedComponentsError):
            frame_connect(x, y)


class TestConditioning:
    @staticmethod
    def pairs(kappa):
        """20 seeded 6x5 rank-3 pairs with singular values 1 .. 1/kappa."""
        s = np.logspace(0.0, -np.log10(kappa), 3)

        def one(rng):
            u = np.linalg.qr(rng.standard_normal((6, 3)))[0]
            v = np.linalg.qr(rng.standard_normal((5, 3)))[0]
            return (u * s) @ v.T

        for seed in range(20):
            rng = np.random.default_rng(seed)
            yield one(rng), one(rng)

    @staticmethod
    def assert_certified(p, t1, t2):
        cert = certify_path(p, 3, grid=1001)
        assert cert.verdict == "pass"
        assert maxabs(eval_path(p, 0.0) - t2) <= 1e-9
        assert maxabs(eval_path(p, 1.0) - t1) <= 1e-9

    @pytest.mark.parametrize("kappa", [1e5, 1e6, 1e8, 3e9])
    def test_connect_fk_and_phi(self, kappa):
        for t1, t2 in self.pairs(kappa):
            self.assert_certified(connect_fk(t1, t2), t1, t2)
            self.assert_certified(connect_phi(t1, t2, 2, 3), t1, t2)

    @pytest.mark.parametrize("kappa", [1e5, 1e6, 1e8, 3e9])
    def test_chain_connect(self, kappa):
        for t1, t2 in self.pairs(kappa):
            self.assert_certified(chain_connect(t1, t2, discover_chain(t1, t2)), t1, t2)

    # κ = 3e9 is left out: there the flip's rotation passes through samples
    # whose gap σ₃/σ₄ sits at SIGMA_GAP_MIN, the band where the rank rule
    # accepts and the gap test refuses (ROADMAP D).  Which matrices fail
    # there depends on the OpenBLAS kernel: none of the 40 under SkylakeX
    # and Prescott, seed 7's T1 under Haswell.  At κ = 4e9, 36, 33 and 34
    # of the 40 pass under SkylakeX, Haswell and Prescott
    @pytest.mark.parametrize("kappa", [1e5, 1e6, 1e8, 1e9])
    def test_corrected_flip_path(self, kappa):
        for pair in self.pairs(kappa):
            for t in pair:
                self.assert_certified(corrected_flip_path(t), -t, t)


def _generated_pairs():
    """Seeded generated fk pairs: 6x5 rank 3 and 4x4 rank 2."""
    for m, n, k, seed in ((6, 5, 3, 0), (6, 5, 3, 1), (6, 5, 3, 2), (4, 4, 2, 3)):
        payload = gen_instance(InstanceSpec(m=m, n=n, k=k, seed=seed, kind="fk-pair"))
        yield payload["T1"], payload["T2"], k


SCALE_BUILDERS = {
    "fk": connect_fk,
    "chain": lambda t1, t2: chain_connect(t1, t2, discover_chain(t1, t2)),
    "flip": lambda t1, t2: corrected_flip_path(t1),
}


class TestScaleInvariance:
    """No rule has an absolute floor: a common scale of the endpoints
    changes no construction decision and no verdict."""

    @staticmethod
    def decisions(builder, t1, t2, k, c):
        cert = certify_path(SCALE_BUILDERS[builder](c * t1, c * t2), k, grid=1001)
        return cert.verdict, cert.failures, cert.samples["rank"], cert.samples["ok"]

    @pytest.mark.parametrize("builder", sorted(SCALE_BUILDERS))
    @pytest.mark.parametrize("pairs", ["generated", 1e5, 1e8, 3e9])
    def test_powers_of_two(self, builder, pairs):
        # powers of two scale the input exactly, and every SVD of a matrix
        # that carries the scale is taken at the scale of 1, so the decisions
        # must be those at scale 1, out to the ends of the exponent range.
        # At condition number 3e9 some samples sit at the gap test's edge,
        # where the verdict at scale 1 depends on the BLAS kernel: there only
        # the decisions are compared, not asserted to pass
        if pairs == "generated":
            cases = list(_generated_pairs())
        else:
            cases = [(t1, t2, 3) for t1, t2 in TestConditioning.pairs(pairs)]
        for t1, t2, k in cases:
            at_one = self.decisions(builder, t1, t2, k, 1.0)
            assert pairs == 3e9 or at_one[0] == "pass"
            for e in (40, 498, 996):
                for c in (2.0**e, 2.0**-e):
                    assert self.decisions(builder, t1, t2, k, c) == at_one, (e, c)

    @pytest.mark.parametrize("builder", sorted(SCALE_BUILDERS))
    @pytest.mark.parametrize("c", [1e-12, 1e-150, 1e-300])
    def test_small_decimal_scales_pass(self, builder, c):
        for t1, t2, k in _generated_pairs():
            assert self.decisions(builder, t1, t2, k, c)[0] == "pass"

    def test_rank_mismatch_names_the_ratios(self):
        t1, t2 = np.diag([2.0, 1.0, 1.0]), np.diag([1.0, 1.0, 1e-11])
        expected = (
            "rank mismatch: 3 vs 2; endpoints lie in different strata "
            "(sigma_3/sigma_1 0.5 vs 1e-11)"
        )
        for c in (1.0, 2.0**300, 2.0**-300):
            with pytest.raises(InputError) as raised:
                connect_fk(c * t1, c * t2)
            assert str(raised.value) == expected


class TestInputErrors:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: connect_fk(np.eye(2), np.eye(3)),
            lambda: connect_fk(np.eye(2), np.diag([1.0, 0.0])),
            lambda: discover_chain(np.eye(2), np.ones((2, 3))),
            lambda: discover_chain(np.eye(2), np.diag([1.0, 0.0])),
            lambda: connect_phi(TALL.T, TALL.T, 2, 0),
            lambda: connect_phi(TALL.T, TALL.T, 1, 1),
            lambda: gl_connect(np.ones((2, 3))),
            lambda: gl_connect(np.diag([1.0, 0.0])),
            lambda: left_project_path(np.eye(2), Subspace.full(2), Subspace.zero(2)),
            lambda: right_project_path(np.eye(2), Subspace.full(2), Subspace.zero(2)),
            lambda: literal_flip_path(
                Subspace.full(2), Subspace.zero(2),
                GraphParam(Subspace.full(2), Subspace.zero(2), np.zeros((0, 2))),
            ),
            lambda: literal_flip_path(
                span([1, 0]), span([0, 1]), GraphParam(span([1, 1]), span([0, 1]), [[1.0]])
            ),
            lambda: literal_flip_path(
                span([1, 0]), span([0, 1]), GraphParam(span([1, 0]), span([0, 1]), [[0.0]])
            ),
            lambda: corrected_flip_path(np.eye(2), 1),
            lambda: corrected_flip_path(np.eye(2), 2.0),
            lambda: corrected_flip_path(np.eye(2), True),
            lambda: certify_path(constant_path(np.eye(2)), 2, grid=1),
            lambda: certify_path(constant_path(np.eye(2)), -1, grid=5),
            lambda: certify_path(constant_path(np.ones((2, 3))), 3, grid=5),
            lambda: sample_parameters(constant_path(np.eye(2)), 1),
            lambda: locate(constant_path(np.eye(2)), 1.5),
            lambda: Subspace(2, np.ones((2, 1))),
            lambda: Subspace.from_columns([[1.0, 2.0], [2.0, 4.0]]),
            lambda: is_direct_sum([span([1, 0]), span([1, 0, 0])]),
            lambda: principal_angles(span([1, 0]), span([1, 0, 0])),
            lambda: Decomposition(span([1, 0]), span([0, 1]), np.eye(3)),
            lambda: GraphParam(span([1, 0]), span([0, 1]), np.zeros((2, 2))),
            lambda: make_segment("affine", {"a": np.eye(2)}, np.eye(2)),
            lambda: OperatorPath((), (2, 2)),
            lambda: certify_path(
                constant_path(np.eye(3)), 3, grid=5,
                membership=MembershipSpec(kernel_equals=Subspace.zero(4)),
            ),
            lambda: dim_fk(0, 2, 0),
            lambda: dim_fk(2, 2, 3),
            lambda: StratumPoint(np.eye(2), 3, Subspace.zero(2), Subspace.full(2)),
            lambda: StratumPoint(np.diag([1.0, 0.0]), 1, span([1, 0]), span([1, 0])),
            lambda: TangentBasis(StratumPoint.at(np.eye(2)), np.zeros((0, 2)), np.zeros((0, 2)), 1),
            lambda: tangent_violation(StratumPoint.at(np.eye(2)), np.eye(3)),
            lambda: tangency_order(StratumPoint.at(np.eye(2)), np.eye(2), [0.1, 0.05]),
            lambda: InstanceSpec(m=0, n=2, k=0, seed=0, kind="fk-pair"),
            lambda: gen_instance(InstanceSpec(m=2, n=3, k=2, seed=0, kind="gl")),
            lambda: matrix_from_obj({"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]}),
        ],
        ids=[
            "fk-shape", "fk-rank", "chain-shape", "chain-rank",
            "phi-kernel-dim", "phi-corank", "gl-nonsquare", "gl-singular",
            "left-no-room", "right-no-room", "literal-no-room", "literal-mismatch",
            "literal-zero-tilt", "corrected-rank", "corrected-rank-float",
            "corrected-rank-bool", "certify-grid", "certify-rank-negative",
            "certify-rank-above-shape", "sample-grid", "locate-range",
            "subspace-not-orthonormal", "columns-dependent", "direct-sum-ambient",
            "angles-ambient", "decomposition-shape", "graph-coeff-shape",
            "segment-fields", "path-empty", "certify-spec-ambient",
            "dim-shape", "dim-rank", "point-rank", "point-kernel", "tangent-basis-dim",
            "tangent-violation-shape", "tangency-grid", "instance-shape", "gl-instance-shape",
            "matrix-data-length",
        ],
    )
    def test_rejections_are_typed(self, call):
        with pytest.raises(StrataError) as exc:
            call()
        assert isinstance(exc.value, ValueError)
