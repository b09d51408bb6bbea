from collections import Counter

import numpy as np
import pytest

from strata import GraphParam, Subspace, is_direct_sum
from strata.instances import random_subspace


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


def span(*vectors):
    return Subspace.span(*vectors)


def count_factorizations(monkeypatch):
    """Counter of np.linalg svd, inv and pinv calls made from now on."""
    calls = Counter()

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in ("svd", "inv", "pinv"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls
