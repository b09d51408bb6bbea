import base64
import struct
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from strata import GraphParam, StratumPoint, Subspace, is_direct_sum, tangent_basis
from strata.instances import random_subspace
from strata.subspaces import ANGLE_TOL


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_split(rng, n, d):
    """A generic (not orthogonal) decomposition of R^n into dims d, n-d."""
    while True:
        e_star = random_subspace(rng, n, d)
        r = random_subspace(rng, n, n - d)
        if is_direct_sum([e_star, r]):
            return e_star, r


def random_flip_instance(rng):
    """Nonzero-tilt decomposition instance for the flip audit."""
    n = int(rng.integers(2, 7))
    d = int(rng.integers(1, n))
    e_star, r = random_split(rng, n, d)
    coeff = rng.uniform(-1.0, 1.0, (r.dim, e_star.dim))
    while np.max(np.abs(coeff)) < 1e-2:
        coeff = rng.uniform(-1.0, 1.0, (r.dim, e_star.dim))
    return e_star, r, GraphParam(e_star, r, coeff)


def decoded_numbers(values) -> list:
    """The numbers of a matrix field as a file holds them: a JSON list, or
    base64 of little-endian float64 values, decoded here with ``struct``."""
    if isinstance(values, str):
        raw = base64.b64decode(values, validate=True)
        return list(struct.unpack(f"<{len(raw) // 8}d", raw))
    return list(values)


def encoded_numbers(values) -> str:
    """``values`` as the writers encode a matrix field, encoded here with ``struct``."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def decimal_copy(obj):
    """``obj`` with the fields of every matrix object in it as JSON lists of
    floats, as files written before the base64 encoding held them."""
    if isinstance(obj, list):
        return [decimal_copy(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    matrix = "rows" in obj
    return {
        key: decoded_numbers(value)
        if matrix and key in ("data", "left", "right")
        else decimal_copy(value)
        for key, value in obj.items()
    }


def span(*vectors):
    return Subspace.span(*vectors)


def assert_largest_angle_near_scipy(got: float, a: np.ndarray, b: np.ndarray) -> None:
    """``got``, the largest angle between the spans of bases a and b, against
    scipy's: within 1e-12 rad below 1.5 rad, on the same side of ANGLE_TOL
    everywhere."""
    want = float(np.max(scipy.linalg.subspace_angles(a, b)))
    if want < 1.5:
        assert abs(got - want) <= 1e-12, (got, want)
    assert (got < ANGLE_TOL) == (want < ANGLE_TOL), (got, want)


def count_factorizations(monkeypatch):
    """Counter of np.linalg svd, inv, pinv and qr calls made from now on."""
    calls = Counter()

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in ("svd", "inv", "pinv", "qr"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


def criterion_9_directions():
    """(point, direction, "tangent" or "transverse") of acceptance criterion 9.

    100 random tangent directions, each a random combination of the
    tangent basis, and 100 violated ones, each a tangent direction plus a
    0.1-sized step from the kernel to outside the range.
    """
    rng = np.random.default_rng(9)
    tangent_done = transverse_done = 0
    while tangent_done < 100 or transverse_done < 100:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        kmax = min(m, n)
        k = int(rng.integers(1, kmax)) if kmax > 1 else 1
        u, _ = np.linalg.qr(rng.standard_normal((n, k)))
        v, _ = np.linalg.qr(rng.standard_normal((m, k)))
        x = StratumPoint.at(u @ np.diag(rng.uniform(0.5, 1.5, k)) @ v.T)
        basis = tangent_basis(x).basis
        coeffs = rng.standard_normal(len(basis))
        direction = sum(c * b for c, b in zip(coeffs, basis))
        direction /= np.linalg.norm(direction)
        if tangent_done < 100:
            yield x, direction, "tangent"
            tangent_done += 1
        if transverse_done < 100 and k < min(m, n):
            out = (np.eye(n) - x.range.orthogonal_projector()) @ rng.standard_normal(n)
            out /= np.linalg.norm(out)
            bad = direction + 0.1 * np.linalg.norm(direction) * np.outer(
                out, x.kernel.basis[:, 0]
            )
            yield x, bad, "transverse"
            transverse_done += 1
