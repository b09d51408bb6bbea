"""Deterministic, seeded test instances.

All randomness flows through one PCG64 stream per instance, so a given
(seed, kind, shape) always reproduces byte-identical matrices.  Factors
are resampled until the instance is comfortably conditioned, which keeps
downstream certification honest rather than lucky.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import _one_blas_thread
from .errors import InputError
from .subspaces import Subspace, _integer

__all__ = ["InstanceSpec", "gen_instance", "random_subspace"]

KINDS = ("fk-pair", "phi-pair", "subspace-pair", "gl")

CONDITION_FLOOR = 1e-3  # smallest accepted sigma_k / sigma_1


@dataclass(frozen=True)
class InstanceSpec:
    """Shape, rank, seed, and flavour of a generated instance.

    ``m``, ``n``, ``k`` and ``seed`` are integers, numpy's included; a
    float or a bool raises InputError.
    """

    m: int
    n: int
    k: int
    seed: int
    kind: str

    def __post_init__(self):
        for name in ("m", "n", "k", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.m < 1 or self.n < 1:
            raise InputError("shape dimensions must be positive")
        if not 0 <= self.k <= min(self.m, self.n):
            raise InputError(f"rank {self.k} unreachable for shape {self.n}x{self.m}")
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must fit in 64 unsigned bits")
        if self.kind not in KINDS:
            raise InputError(f"unknown instance kind {self.kind!r}")


def _rank_k_matrix(rng: np.random.Generator, rows: int, cols: int, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros((rows, cols))
    while True:
        left = rng.uniform(-1.0, 1.0, (rows, k))
        right = rng.uniform(-1.0, 1.0, (k, cols))
        t = left @ right
        s = np.linalg.svd(t, compute_uv=False)
        if s[k - 1] / s[0] >= CONDITION_FLOOR:
            return t


def _well_conditioned(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Uniform draws on [-1, 1] until sigma_min / sigma_max reaches CONDITION_FLOOR."""
    while True:
        a = rng.uniform(-1.0, 1.0, shape)
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] / s[0] >= CONDITION_FLOOR:
            return a


@_one_blas_thread()
def random_subspace(rng: np.random.Generator, ambient: int, dim: int) -> Subspace:
    """A well-spread random subspace of the given dimension."""
    if dim == 0:
        return Subspace.zero(ambient)
    if dim == ambient:
        return Subspace.full(ambient)
    return Subspace.from_columns(_well_conditioned(rng, (ambient, dim)))


@_one_blas_thread()
def gen_instance(spec: InstanceSpec) -> dict:
    """Materialize an instance payload, deterministic in the seed."""
    rng = np.random.default_rng(spec.seed)
    payload = {
        "kind": spec.kind,
        "m": spec.m,
        "n": spec.n,
        "k": spec.k,
        "seed": spec.seed,
    }
    if spec.kind in ("fk-pair", "phi-pair"):
        payload["T1"] = _rank_k_matrix(rng, spec.n, spec.m, spec.k)
        payload["T2"] = _rank_k_matrix(rng, spec.n, spec.m, spec.k)
    elif spec.kind == "gl":
        if spec.n != spec.m:
            raise InputError("gl instances need a square shape")
        payload["A"] = _well_conditioned(rng, (spec.n, spec.n))
    elif spec.kind == "subspace-pair":
        payload["E1"] = random_subspace(rng, spec.n, spec.k)
        payload["E2"] = random_subspace(rng, spec.n, spec.k)
    return payload
