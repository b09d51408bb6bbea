import numpy as np
import pytest

from strata import (
    EXACT,
    StratumPoint,
    dim_fk,
    principal_angles,
    tangency_order,
    tangent_basis,
    tangent_violation,
)
from strata import serialization as ser
from strata.subspaces import Subspace

from conftest import count_factorizations, criterion_9_directions, decoded_numbers


def random_stratum_point(rng, n, m, k):
    """Well-conditioned rank-k point: orthogonal frames, sigmas near 1."""
    if k == 0:
        return StratumPoint.at(np.zeros((n, m)))
    u, _ = np.linalg.qr(rng.standard_normal((n, k)))
    v, _ = np.linalg.qr(rng.standard_normal((m, k)))
    sig = rng.uniform(0.5, 1.5, k)
    return StratumPoint.at(u @ np.diag(sig) @ v.T)


def random_tangent(rng, x):
    tb = tangent_basis(x)
    if tb.dim == 0:
        return np.zeros(x.shape)
    coeffs = rng.standard_normal(tb.dim)
    v = sum(c * b for c, b in zip(coeffs, tb.basis))
    return v / np.linalg.norm(v)


def dense_tangent_basis(x):
    """The basis as dense matrices, built element by element: the reference.

    e_i (x) r_j is r_j written into row i of a zero matrix, and 0.0 is
    added to each u_i (x) k_j outer product.  The row-space frame r is the
    one the point keeps from its SVD.
    """
    n, m = x.shape
    row = x._row
    rng, ker = x.range.basis, x.kernel.basis
    elements = []
    for i in range(n):
        for j in range(row.shape[1]):
            element = np.zeros((n, m))
            element[i] = row[:, j]
            elements.append(element)
    for i in range(rng.shape[1]):
        for j in range(ker.shape[1]):
            elements.append(np.outer(rng[:, i], ker[:, j]) + 0.0)
    return elements


class TestDimFormula:
    def test_values(self):
        assert dim_fk(3, 2, 1) == 4
        assert dim_fk(2, 2, 1) == 3
        assert dim_fk(5, 7, 0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dim_fk(2, 2, 3)
        with pytest.raises(ValueError):
            dim_fk(2, 2, -1)

    def test_counts_match_basis(self):
        rng = np.random.default_rng(5)
        for m in range(1, 7):
            for n in range(1, 7):
                for k in range(0, min(m, n) + 1):
                    x = random_stratum_point(rng, n, m, k)
                    assert tangent_basis(x).dim == dim_fk(m, n, k)


class TestTangentBasis:
    def test_adapted_two_by_two(self):
        x = StratumPoint.at(np.array([[1.0, 0.0], [0.0, 0.0]]))
        tb = tangent_basis(x)
        assert tb.dim == 3
        # in these coordinates the constraint kills exactly the (2, 2) slot
        killed = np.zeros((2, 2))
        killed[1, 1] = 1.0
        for b in tb.basis:
            assert abs(np.sum(b * killed)) < 1e-12

    def test_full_rank_unconstrained(self):
        rng = np.random.default_rng(0)
        x = random_stratum_point(rng, 3, 3, 3)
        assert tangent_basis(x).dim == 9

    def test_zero_point(self):
        x = StratumPoint.at(np.zeros((2, 3)))
        assert tangent_basis(x).dim == 0

    def test_members_satisfy_constraint(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, m = rng.integers(2, 6, size=2)
            k = int(rng.integers(1, min(n, m) + 1))
            x = random_stratum_point(rng, n, m, k)
            for b in tangent_basis(x).basis:
                assert tangent_violation(x, b) <= 1e-9 * (1 + np.max(np.abs(b)))

    def test_least_squares_reproduction(self):
        # anything satisfying the constraint is a combination of the basis
        rng = np.random.default_rng(2)
        for _ in range(10):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            k = int(rng.integers(1, min(n, m)))
            x = random_stratum_point(rng, n, m, k)
            tb = tangent_basis(x)
            v = random_tangent(rng, x)
            stack = np.column_stack([b.ravel() for b in tb.basis])
            coeffs, *_ = np.linalg.lstsq(stack, v.ravel(), rcond=None)
            assert np.max(np.abs(stack @ coeffs - v.ravel())) < 1e-8

    def test_special_sparse_point_pattern(self):
        # at a point aligned with the axes, basis elements are single-entry
        # indicators and the allowed positions count is nk + (m-k)k
        n, m, k = 4, 5, 2
        a = np.zeros((n, m))
        for i in range(k):
            a[i, i] = 1.0
        tb = tangent_basis(StratumPoint.at(a))
        positions = set()
        for b in tb.basis:
            nz = np.argwhere(np.abs(b) > 1e-12)
            assert len(nz) == 1
            positions.add(tuple(nz[0]))
        assert len(positions) == n * k + (m - k) * k
        forbidden = {(i, j) for i in range(k, n) for j in range(k, m)}
        assert positions.isdisjoint(forbidden)

    @pytest.mark.parametrize(
        "n, m, k",
        [(4, 3, 2), (3, 5, 2), (2, 7, 1), (6, 6, 3), (5, 2, 0), (3, 8, 0),
         (5, 3, 3), (2, 6, 2), (4, 4, 4), (40, 30, 15)],
    )
    def test_orthonormal_with_one_row_then_dense_elements(self, n, m, k):
        x = random_stratum_point(np.random.default_rng(n * 100 + m * 10 + k), n, m, k)
        tb = tangent_basis(x)
        stack = np.array([b.ravel() for b in tb.basis]).reshape(tb.dim, n * m)
        assert tb.dim == dim_fk(m, n, k)
        assert np.max(np.abs(stack @ stack.T - np.eye(tb.dim)), initial=0.0) <= 1e-12
        # e_i (x) r_j, ordered by i then j: r_j in row i and nothing else
        one_row, dense = tb.basis[: n * k], tb.basis[n * k :]
        frame = [b[0] for b in one_row[:k]]
        for index, b in enumerate(one_row):
            i, j = divmod(index, k)
            assert np.flatnonzero(np.any(b != 0.0, axis=1)).tolist() == [i]
            assert np.array_equal(b[i], frame[j])
        # then u_i (x) k_j: range (x) kernel elements, each with several rows
        assert len(dense) == k * (m - k)
        for b in dense:
            assert np.count_nonzero(np.any(b != 0.0, axis=1)) > 1
            assert np.max(np.abs(x.range.orthogonal_projector() @ b - b)) <= 1e-12
            assert np.max(np.abs(b @ x.kernel.orthogonal_projector() - b)) <= 1e-12

    def test_no_factorization(self, monkeypatch):
        # the row-space frame is the point's own, from the SVD it was built from
        x = random_stratum_point(np.random.default_rng(6), 7, 5, 3)
        calls = count_factorizations(monkeypatch)
        tangent_basis(x)
        assert calls == {}

    @pytest.mark.parametrize("sparse", [False, True], ids=["random", "sparse"])
    def test_file_holds_no_negative_zero(self, sparse):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n, m = (int(d) for d in rng.integers(2, 6, size=2))
            k = int(rng.integers(1, min(n, m) + 1))
            if sparse:  # signed entries at scattered positions: frames with exact zeros
                a = np.zeros((n, m))
                a[rng.permutation(n)[:k], rng.permutation(m)[:k]] = rng.choice([-1.0, 1.0], k)
                x = StratumPoint.at(a)
            else:
                x = random_stratum_point(rng, n, m, k)
            obj = ser.tangent_basis_to_obj(tangent_basis(x))
            factors = [
                v for b in obj["basis"] for key in ("left", "right") for v in decoded_numbers(b[key])
            ]
            assert len(factors) == obj["dim"] * (n + m)
            assert not [v for v in factors if v == 0.0 and np.signbit(v)]
            for b in obj["basis"]:
                element = ser.matrix_from_obj(b)
                assert not np.signbit(element[element == 0.0]).any()

    @pytest.mark.parametrize("points", ["criterion-9", "40x30"])
    def test_decoded_elements_are_the_dense_construction_bit_for_bit(self, points):
        if points == "40x30":
            xs = [random_stratum_point(np.random.default_rng(15), 40, 30, 15)]
        else:
            xs = list({id(x): x for x, _, _ in criterion_9_directions()}.values())
        for x in xs:
            obj = ser.tangent_basis_to_obj(tangent_basis(x))
            decoded = [ser.matrix_from_obj(b).tobytes() for b in obj["basis"]]
            assert decoded == [b.tobytes() for b in dense_tangent_basis(x)]
            assert [b.tobytes() for b in tangent_basis(x).basis] == decoded

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            k = int(rng.integers(1, min(n, m) + 1))
            x = random_stratum_point(rng, n, m, k)
            qn, _ = np.linalg.qr(rng.standard_normal((n, n)))
            qm, _ = np.linalg.qr(rng.standard_normal((m, m)))
            y = StratumPoint.at(qn @ x.op @ qm.T)
            span_x = Subspace.from_columns(
                np.column_stack([(qn @ b @ qm.T).ravel() for b in tangent_basis(x).basis])
            )
            span_y = Subspace.from_columns(
                np.column_stack([b.ravel() for b in tangent_basis(y).basis])
            )
            assert span_x.dim == span_y.dim
            assert float(np.max(principal_angles(span_x, span_y))) < 1e-7


def per_scale_order(x, v, t_grid=np.logspace(-1, -4, 13)):
    """``tangency_order`` taking one SVD per scale, for comparison."""
    eps = np.finfo(float).eps
    logs_t, logs_s = [], []
    for t in t_grid:
        s = np.linalg.svd(x.op + t * v, compute_uv=False)
        sigma_next = s[x.k] if s.size > x.k else 0.0
        if sigma_next > 1e3 * eps * s[0]:
            logs_t.append(np.log(t))
            logs_s.append(np.log(sigma_next))
    return EXACT if len(logs_t) < 2 else float(np.polyfit(logs_t, logs_s, 1)[0])


class TestTangencyOrder:
    def setup_method(self):
        self.x = StratumPoint.at(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_exact_direction(self):
        assert tangency_order(self.x, [[0.0, 0.0], [1.0, 0.0]]) == EXACT

    def test_second_order_direction(self):
        slope = tangency_order(self.x, [[0.0, 1.0], [1.0, 0.0]])
        assert 1.8 <= slope <= 2.2

    def test_transverse_direction(self):
        slope = tangency_order(self.x, [[0.0, 0.0], [0.0, 1.0]])
        assert 0.9 <= slope <= 1.1

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            tangency_order(self.x, np.eye(2), t_grid=[0.1])
        with pytest.raises(ValueError):
            tangency_order(self.x, np.eye(2), t_grid=[0.1, 0.05])
        with pytest.raises(ValueError):
            tangency_order(self.x, np.eye(2), t_grid=[-0.1, 0.001])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tangency_order(self.x, np.eye(3))

    def test_one_svd(self, monkeypatch):
        calls = count_factorizations(monkeypatch)
        tangency_order(self.x, [[0.0, 1.0], [1.0, 0.0]])
        assert calls == {"svd": 1}

    def test_stacked_svd_gives_the_per_scale_slopes(self):
        slopes = [
            (tangency_order(x, v), per_scale_order(x, v)) for x, v, _ in criterion_9_directions()
        ]
        assert len(slopes) == 200
        assert [stacked for stacked, _ in slopes] == [one for _, one in slopes]
        assert sum(stacked == EXACT for stacked, _ in slopes) < 100

    def test_dichotomy_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            k = int(rng.integers(1, min(n, m)))
            x = random_stratum_point(rng, n, m, k)
            v = random_tangent(rng, x)
            slope = tangency_order(x, v)
            assert slope == EXACT or 1.8 <= slope <= 2.2
            # inject a violation of relative size 0.1: corange times kernel
            u = (np.eye(n) - x.range.orthogonal_projector()) @ rng.standard_normal(n)
            u /= np.linalg.norm(u)
            w = x.kernel.basis[:, 0]
            bad = v + 0.1 * np.linalg.norm(v) * np.outer(u, w)
            slope_bad = tangency_order(x, bad)
            assert 0.9 <= slope_bad <= 1.1


class TestStratumPoint:
    def test_at_computes_geometry(self):
        x = StratumPoint.at([[1.0, 2.0], [2.0, 4.0]])
        assert x.k == 1
        assert x.kernel.dim == 1 and x.range.dim == 1

    def test_at_takes_one_svd(self, monkeypatch):
        rng = np.random.default_rng(0)
        op = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 5))
        calls = count_factorizations(monkeypatch)
        x = StratumPoint.at(op)
        assert calls == {"svd": 1}
        assert (x.k, x.kernel.dim, x.range.dim) == (3, 2, 3)

    @pytest.mark.parametrize(
        "op",
        [np.zeros((3, 2)), np.eye(3), np.diag([2.0, 1e-12, 0.0]), [[1.0, 2.0], [2.0, 4.0]]],
        ids=["zero", "full", "below-tolerance", "rank-one"],
    )
    def test_at_passes_the_constructor_checks(self, op):
        x = StratumPoint.at(op)
        StratumPoint(x.op, x.k, x.kernel, x.range)  # raises if a check fails

    def test_wrong_rank_rejected(self):
        from strata import kernel_basis, range_basis

        op = np.eye(2)
        with pytest.raises(ValueError):
            StratumPoint(op, 1, kernel_basis(op), range_basis(op))
