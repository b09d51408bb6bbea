import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st_hyp

from strata import (
    Subspace,
    ToleranceConfig,
    common_complement,
    is_direct_sum,
    kernel_basis,
    orthogonal_complement,
    principal_angles,
    range_basis,
    rank_kernel_range,
    rank_of,
    subspaces_equal,
    sum_and_intersection,
)
import strata.subspaces
from strata.errors import InputError
from strata.geometry import StratumPoint
from strata.subspaces import (
    ANGLE_TOL,
    _angle_from_sines,
    as_matrix,
    rank_from_singular_values,
)
from strata.instances import random_subspace

from conftest import assert_largest_angle_near_scipy, span


def elimination_rank(rows, tol=1e-9):
    """Plain Gaussian elimination rank, the independent oracle."""
    m = [list(map(float, r)) for r in rows]
    rank = 0
    n_rows, n_cols = len(m), len(m[0])
    col = 0
    for _ in range(n_rows):
        pivot = None
        while col < n_cols:
            pivot = next((r for r in range(rank, n_rows) if abs(m[r][col]) > tol), None)
            if pivot is not None:
                break
            col += 1
        if pivot is None:
            break
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        for r in range(n_rows):
            if r != rank and abs(m[r][col]) > 0:
                f = m[r][col] / lead
                for c in range(col, n_cols):
                    m[r][c] -= f * m[rank][c]
        rank += 1
        col += 1
    return rank


class TestRank:
    def test_one_nonzero_row(self):
        assert rank_of([[1, 0], [0, 0]]) == 1

    def test_zero_map(self):
        assert rank_of(np.zeros((3, 2))) == 0

    def test_proportional_rows(self):
        a = [[1, 2], [2, 4], [3, 6]]
        assert elimination_rank(a) == 1
        assert rank_of(a) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_of(np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_rejected(self, bad):
        a = np.array([[1.0, bad], [0.0, 1.0]])
        for call in (as_matrix, rank_of, rank_kernel_range, StratumPoint.at):
            with pytest.raises(InputError, match="non-finite"):
                call(a)

    @given(st_hyp.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_elimination_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 6, size=2)
        k = int(rng.integers(0, min(m, n) + 1))
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n)) if k else np.zeros((m, n))
        assert rank_of(a) == elimination_rank(a.tolist())

    def test_stacked_rule_matches_each_row(self):
        tol = ToleranceConfig()
        rng = np.random.default_rng(5)
        s = -np.sort(-np.abs(rng.standard_normal((7, 4))), axis=1)
        s[2] = 0.0
        s[4, 2:] = 1e-12 * s[4, 0]
        s[5, 1:] = 0.0
        for stack in (s, s.reshape(7, 1, 4), np.zeros((3, 0))):
            ranks = rank_from_singular_values(stack, tol)
            assert ranks.shape == stack.shape[:-1]
            rows = stack.reshape(ranks.size, stack.shape[-1])
            for got, row in zip(ranks.ravel().tolist(), rows):
                assert got == rank_from_singular_values(row, tol)
                assert type(rank_from_singular_values(row, tol)) is int
                # the rule as written for one row
                expected = 0 if row.size == 0 or row[0] == 0.0 else int(
                    np.count_nonzero(row > tol.rank_rel_tol * row[0])
                )
                assert got == expected
        assert rank_from_singular_values(s, tol)[2] == 0


class TestKernelRange:
    def test_kernel_simple(self):
        k = kernel_basis([[1, 0], [0, 0]])
        assert k.dim == 1
        assert subspaces_equal(k, span([0, 1]))

    def test_kernel_identity(self):
        assert kernel_basis(np.eye(3)).dim == 0

    def test_kernel_hand_solved(self):
        # 2x2 homogeneous system x + 2y = 0 scaled: kernel along (2, -1)
        k = kernel_basis([[1, 2], [2, 4]])
        assert k.dim == 1
        assert subspaces_equal(k, span([2, -1]))

    def test_range_single_column(self):
        r = range_basis([[1, 0], [3, 0]])
        assert r.dim == 1
        assert subspaces_equal(r, span([1, 3]))

    def test_range_zero(self):
        assert range_basis(np.zeros((2, 2))).dim == 0

    def test_range_contains_eliminated_vectors(self):
        r = range_basis([[1, 1], [1, 1], [0, 1]])
        assert r.dim == 2
        p = r.orthogonal_projector()
        for v in ([1, 1, 0], [1, 1, 1]):
            v = np.array(v, dtype=float)
            assert np.linalg.norm(p @ v - v) < 1e-10

    def test_rank_nullity_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m, n = rng.integers(1, 9, size=2)
            k = int(rng.integers(0, min(m, n) + 1))
            a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n)) if k else np.zeros((m, n))
            assert kernel_basis(a).dim + rank_of(a) == n
            assert a @ kernel_basis(a).basis == pytest.approx(np.zeros((m, kernel_basis(a).dim)), abs=1e-9)

    def test_rank_kernel_range_agrees_with_separate_calls(self):
        rng = np.random.default_rng(21)
        cases = [np.zeros((3, 4)), np.zeros((1, 1)), np.eye(3), rng.standard_normal((4, 4))]
        cases.append(rng.standard_normal((5, 3)))
        cases.append(rng.standard_normal((2, 6)))
        for _ in range(30):
            m, n = rng.integers(1, 8, size=2)
            k = int(rng.integers(0, min(m, n) + 1))
            cases.append(
                rng.standard_normal((m, k)) @ rng.standard_normal((k, n)) if k else np.zeros((m, n))
            )
        for a in cases:
            k, ker, rng_sub = rank_kernel_range(a)
            assert k == rank_of(a)
            assert k + ker.dim == a.shape[1]
            assert rng_sub.dim == k and rng_sub.ambient_dim == a.shape[0]
            assert subspaces_equal(ker, kernel_basis(a))
            assert subspaces_equal(rng_sub, range_basis(a))
            assert np.max(np.abs(a @ ker.basis), initial=0.0) <= 1e-9 * (1.0 + np.max(np.abs(a)))
            residual = a - rng_sub.orthogonal_projector() @ a
            assert np.max(np.abs(residual)) <= 1e-9 * (1.0 + np.max(np.abs(a)))


class TestDirectSum:
    def test_axes(self):
        assert is_direct_sum([span([1, 0]), span([0, 1])]).ok

    def test_skew_pair(self):
        # determinant of [[1, 1], [0, 1]] is 1, so this is a decomposition
        assert np.linalg.det(np.array([[1.0, 1.0], [0.0, 1.0]])) == 1.0
        assert is_direct_sum([span([1, 0]), span([1, 1])]).ok

    def test_repeated_line_fails(self):
        check = is_direct_sum([span([1, 0]), span([1, 0])])
        assert not check.ok
        assert check.condition_number == np.inf

    def test_dims_must_fill(self):
        assert not is_direct_sum([span([1, 0, 0]), span([0, 1, 0])]).ok

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            is_direct_sum([span([1, 0]), span([1, 0, 0])])

    def test_condition_cap(self, monkeypatch):
        pair = [span([1, 0]), span([1, 1e-3])]
        assert is_direct_sum(pair).ok
        monkeypatch.setattr(strata.subspaces, "MEMBERSHIP_COND_MAX", 1.5)
        assert not is_direct_sum(pair).ok

    def test_zero_part_ok(self):
        assert is_direct_sum([Subspace.full(2), Subspace.zero(2)]).ok


class TestOrthogonalComplement:
    def test_axis(self):
        assert subspaces_equal(orthogonal_complement(span([1, 0])), span([0, 1]))

    def test_zero_gives_everything(self):
        c = orthogonal_complement(Subspace.zero(3))
        assert c.dim == 3

    def test_diagonal_line(self):
        c = orthogonal_complement(span([1, 1]))
        assert abs(np.dot(c.basis[:, 0], [1, 1])) < 1e-12
        assert subspaces_equal(c, span([1, -1]))

    def test_involutive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(0, n + 1))
            s = random_subspace(rng, n, d)
            back = orthogonal_complement(orthogonal_complement(s))
            assert back.dim == s.dim
            if s.dim:
                assert float(np.max(principal_angles(back, s))) < 1e-8

    def test_splits_with_original(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            s = random_subspace(rng, n, int(rng.integers(0, n + 1)))
            c = orthogonal_complement(s)
            assert is_direct_sum([s, c]).ok
            if s.dim and c.dim:
                assert np.max(np.abs(s.basis.T @ c.basis)) < 1e-10


class TestSumIntersection:
    def test_axes(self):
        total, inter = sum_and_intersection(span([1, 0]), span([0, 1]))
        assert total.dim == 2 and inter.dim == 0

    def test_same_line(self):
        total, inter = sum_and_intersection(span([1, 0]), span([1, 0]))
        assert subspaces_equal(total, span([1, 0]))
        assert subspaces_equal(inter, span([1, 0]))

    def test_planes_meeting_in_line(self):
        e1 = span([1, 0, 0], [0, 1, 0])
        e2 = span([0, 1, 0], [0, 0, 1])
        total, inter = sum_and_intersection(e1, e2)
        assert total.dim == 3
        assert subspaces_equal(inter, span([0, 1, 0]))

    @given(st_hyp.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_dimension_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        e1 = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        e2 = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        total, inter = sum_and_intersection(e1, e2)
        assert e1.dim + e2.dim == total.dim + inter.dim


class TestCommonComplement:
    def test_two_axes(self):
        r = common_complement(span([1, 0]), span([0, 1]))
        assert r.dim == 1
        for e in (span([1, 0]), span([0, 1])):
            m = np.hstack([e.basis, r.basis])
            assert abs(np.linalg.det(m)) > 1e-8
        # the glued direction mixes both axes
        assert abs(r.basis[0, 0]) > 0.1 and abs(r.basis[1, 0]) > 0.1

    def test_equal_lines(self):
        r = common_complement(span([1, 0]), span([1, 0]))
        assert subspaces_equal(r, span([0, 1]))

    def test_planes_in_r4(self):
        e1 = span([1, 0, 0, 0], [0, 1, 0, 0])
        e2 = span([0, 1, 0, 0], [0, 0, 1, 0])
        r = common_complement(e1, e2)
        assert r.dim == 2
        assert is_direct_sum([e1, r]).ok
        assert is_direct_sum([e2, r]).ok

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            common_complement(span([1, 0]), Subspace.full(2))

    def test_zero_inputs(self):
        r = common_complement(Subspace.zero(3), Subspace.zero(3))
        assert r.dim == 3

    def test_random_corpus(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(0, n + 1))
            e1 = random_subspace(rng, n, d)
            e2 = random_subspace(rng, n, d)
            r = common_complement(e1, e2)
            assert is_direct_sum([e1, r]).ok
            assert is_direct_sum([e2, r]).ok

    def test_nearly_coincident_pairs_stay_well_conditioned(self):
        # inputs a whisker apart (or apart-and-negated) used to force the
        # glue almost inside the inputs; the angle-split pairing keeps the
        # output transversal
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(1, n + 1))
            e1 = random_subspace(rng, n, d)
            scale = 10.0 ** rng.uniform(-7, -4)
            flip = -1.0 if trial % 2 else 1.0
            e2 = Subspace.from_columns(flip * e1.basis + scale * rng.standard_normal((n, d)))
            r = common_complement(e1, e2)
            for e in (e1, e2):
                check = is_direct_sum([e, r])
                assert check.ok
                assert check.condition_number < 1e3


class TestSubspaceType:
    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError):
            Subspace.from_columns([[1, 2], [2, 4]])

    def test_direct_ctor_wants_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))
        # ten columns with pairwise inner products 9e-9: the largest-angle
        # rule would read their span at 8.1e-8 rad from itself
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((20, 10)))[0]
        skew = np.full((10, 10), 4.5e-9) + (1.0 - 4.5e-9) * np.eye(10)
        with pytest.raises(InputError, match="not orthonormal"):
            Subspace(20, q @ skew)
        near = Subspace(20, q @ (np.full((10, 10), 1e-13) + (1.0 - 1e-13) * np.eye(10)))
        assert subspaces_equal(near, near) and subspaces_equal(near, Subspace(20, q))

    def test_dim_cannot_exceed_ambient(self):
        with pytest.raises(ValueError):
            Subspace(1, np.eye(2))

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            ToleranceConfig(rank_rel_tol=2.0)

    def test_equality_is_basis_free(self):
        a = span([1, 1, 0], [0, 0, 1])
        b = span([2, 2, 1], [0, 0, -3])
        assert subspaces_equal(a, b)
        assert not subspaces_equal(a, span([1, 0, 0], [0, 0, 1]))


def _angle_cases(rng, n):
    """(a stack of bases, one basis) pairs: random, nearly equal, orthogonal."""
    for d in range(1, n + 1):
        for q in sorted({1, d, n}):
            yield np.stack([random_subspace(rng, n, d).basis for _ in range(4)]), random_subspace(
                rng, n, q
            ).basis
        # nearly equal: every angle below 1e-8
        base = random_subspace(rng, n, d).basis
        near = [np.linalg.qr(base + 1e-11 * rng.standard_normal(base.shape))[0] for _ in range(4)]
        yield np.stack(near), base
        if 2 * d <= n:
            q_full, _ = np.linalg.qr(rng.standard_normal((n, n)))
            yield np.stack([q_full[:, :d]] * 2), q_full[:, d : 2 * d]


class TestPrincipalAngles:
    """principal_angles is scipy.linalg.subspace_angles sorted; the largest
    angle of the kernel checks agrees with scipy's to rounding."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_scipy_exactly(self, n):
        rng = np.random.default_rng(600 + n)
        for stack, b in _angle_cases(rng, n):
            for a in stack:
                assert np.array_equal(
                    principal_angles(Subspace(n, a), Subspace(n, b)),
                    np.sort(scipy.linalg.subspace_angles(a, b)),
                )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_largest_angle_against_scipy(self, n):
        rng = np.random.default_rng(600 + n)
        kinds = set()
        for stack, b in _angle_cases(rng, n):
            if stack.shape[-1] != b.shape[-1]:
                continue  # the largest angle compares subspaces of one dimension
            # the part of b outside each span, in ambient coordinates
            got = _angle_from_sines(b - stack @ (np.swapaxes(stack, -1, -2) @ b))
            assert got.shape == (len(stack),)
            for a, angle in zip(stack, got):
                assert_largest_angle_near_scipy(float(angle), a, b)
                # a stack of one gives the same bits as its place in a longer stack
                assert _angle_from_sines((b - a @ (a.T @ b))[None])[0] == angle
                if angle < ANGLE_TOL:
                    kinds.add("near")
                elif angle > np.pi / 2 - 1e-7:  # arcsin keeps sqrt(eps) near 1
                    kinds.add("orthogonal")
        assert "near" in kinds and ("orthogonal" in kinds or n == 1)

    def test_zero_subspace_has_no_angles(self):
        assert principal_angles(Subspace.zero(3), span([1, 0, 0])).shape == (0,)
