"""The benchmark's workloads.

An op is one instance carried through its workload's whole chain and
checked against the acceptance suite's pinned tolerances.  Each op times
its stages; the op's time is the sum of its stages, and the checks run
outside them.  Two stage names are shared by every workload: "connect" is
the step that builds the artifact (a path, or for ``tangent`` the tangent
basis) and "certify" the step that verifies it (sampled certification, the
flip audit, or for ``tangent`` the tangency measurements).

Shapes and sizes follow fixed schedules, so every seed runs the same mix
of ops; the seed picks the matrices and subspaces.  An op must give the
same calls on every run, so any randomness it uses at run time comes from
a generator it creates from a stored seed.

All library calls go through module attributes at call time
(``strata.connect_fk``, ``cli.main``), so the tracer's wrappers see them.
The checks, and any input building beyond ``gen_instance``, run inside
``tracing.paused()``, so a traced run does not count them as the
program's work.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

import strata
from strata import cli
from strata import serialization as ser
from tracing import paused

SAMPLES = 1001  # certification grid everywhere
ENDPOINT_TOL = 1e-9  # acceptance criteria 4-6
FLIP_ENDPOINT_TOL = 1e-12  # acceptance criterion 7, relative to 1 + max|P|
TANGENT_SLOPE = (1.8, 2.2)  # acceptance criterion 9
TRANSVERSE_SLOPE = (0.9, 1.1)
PLAIN_CERTIFY_SIZE = 4  # membership: project paths of this size are also certified without their spec
WARMUP_SAMPLES = 101  # membership's warm-up ops: every code path of a pass at a tenth of the cost


class Stages:
    """Wall time of each stage of one op, and the bytes of files it wrote."""

    def __init__(self):
        self.seconds = {}
        self.files = {}

    @contextlib.contextmanager
    def stage(self, name):
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + perf_counter() - start


@dataclass
class OpResult:
    name: str
    start: float  # perf_counter() at the start and end of the op
    end: float
    stages: dict  # stage name -> seconds
    files: dict  # file kind -> bytes written
    problems: list  # empty when every check passed

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())


@dataclass
class Op:
    name: str
    family: str
    shape: tuple[int, int]  # rows, cols
    k: int
    run: Callable[[Stages], list[str]] = field(repr=False)

    def meta(self) -> dict:
        return {"family": self.family, "shape": list(self.shape), "k": self.k}

    def execute(self) -> OpResult:
        st = Stages()
        start = perf_counter()
        try:
            problems = self.run(st)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problems = [f"{type(exc).__name__}: {exc}"]
        return OpResult(self.name, start, perf_counter(), st.seconds, st.files, problems)


def _maxabs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _seeds(seed: int, workload: str, count: int) -> list[int]:
    """Instance seeds derived from the benchmark seed, one stream per workload."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    return [int(s) for s in rng.integers(0, 2**63, size=count)]


def _check_cert(cert) -> list[str]:
    problems = []
    if cert.verdict != "pass":
        problems.append(f"verdict {cert.verdict}, failures at {list(cert.failures)[:5]}")
    if max(cert.endpoint_errors) > ENDPOINT_TOL:
        problems.append(f"certificate endpoint error {max(cert.endpoint_errors):.3e}")
    return problems


@paused()
def _check_endpoints(path, start, end) -> list[str]:
    problems = []
    for t, want in ((0.0, start), (1.0, end)):
        err = _maxabs(strata.eval_path(path, t) - want)
        if err > ENDPOINT_TOL:
            problems.append(f"endpoint error {err:.3e} at t={t}")
    return problems


@paused()
def _complement(rng, sub):
    """A random subspace forming a direct sum with ``sub``."""
    n = sub.ambient_dim
    while True:
        comp = strata.random_subspace(rng, n, n - sub.dim)
        if strata.is_direct_sum([sub, comp]):
            return comp


# ---------------------------------------------------------------------------
# corpus-small: the acceptance corpora of criteria 4-6, in process


def _pair_op(name, family, payload) -> Op:
    t1, t2, k = payload["T1"], payload["T2"], payload["k"]
    rows, cols = t1.shape

    def run(st: Stages) -> list[str]:
        with st.stage("connect"):
            if family == "fk":
                path = strata.connect_fk(t1, t2)
            elif family == "phi":
                path = strata.connect_phi(t1, t2, cols - k, rows - k)
            else:
                path = strata.chain_connect(t1, t2, strata.discover_chain(t1, t2))
        with st.stage("certify"):
            cert = strata.certify_path(path, k, grid=SAMPLES)
        problems = _check_cert(cert) + _check_endpoints(path, t2, t1)
        if family == "phi" and any(rec.rank != k for rec in cert.per_sample):
            problems.append("rank left k, so kernel dimension or corank moved")
        return problems

    return Op(name, family, (rows, cols), k, run)


PHI_SHAPES = (  # criterion 5: (m, n, k)
    (3, 2, 2), (2, 3, 2), (3, 3, 2), (4, 3, 2), (3, 4, 2),
    (4, 4, 3), (5, 4, 3), (4, 5, 3), (2, 2, 1), (5, 5, 3),
)


def corpus_small(seed: int, workdir: str):
    seeds = _seeds(seed, "corpus-small", 300)
    ops = []
    shapes = np.random.default_rng(4)  # criterion 4's shape schedule
    for i in range(200):
        m, n = int(shapes.integers(2, 7)), int(shapes.integers(2, 7))
        k = int(shapes.integers(1, min(m, n))) if min(m, n) > 1 else 1
        spec = strata.InstanceSpec(m=m, n=n, k=k, seed=seeds[i], kind="fk-pair")
        ops.append(_pair_op(f"fk#{i}", "fk", strata.gen_instance(spec)))
    for i in range(50):
        m, n, k = PHI_SHAPES[i % len(PHI_SHAPES)]
        spec = strata.InstanceSpec(m=m, n=n, k=k, seed=seeds[200 + i], kind="phi-pair")
        ops.append(_pair_op(f"phi#{i}", "phi", strata.gen_instance(spec)))
    shapes = np.random.default_rng(6)  # criterion 6's shape schedule
    for i in range(50):
        m, n = int(shapes.integers(2, 6)), int(shapes.integers(2, 6))
        k = int(shapes.integers(1, min(m, n))) if min(m, n) > 1 else 1
        spec = strata.InstanceSpec(m=m, n=n, k=k, seed=seeds[250 + i], kind="fk-pair")
        ops.append(_pair_op(f"chain#{i}", "chain", strata.gen_instance(spec)))
    return ops, [ops[0], ops[200], ops[250]]


# ---------------------------------------------------------------------------
# cli-large: gen -> connect -> certify through strata.cli.main


def _cli_chain_op(workdir, tag, n, k, seed, reverse) -> Op:
    pair, path, cert = (os.path.join(workdir, f"{tag}-{x}.json") for x in ("pair", "path", "cert"))
    gen = ["gen", "--m", str(n), "--n", str(n), "--k", str(k), "--seed", str(seed)]
    gen += ["--kind", "fk-pair", "--out", pair]
    connect = ["connect", "--in", pair, "--mode", "fk", "--out", path]
    connect += ["--reverse"] if reverse else []
    certify = ["certify", "--path", path, "--k", str(k), "--samples", str(SAMPLES), "--out", cert]

    def run(st: Stages) -> list[str]:
        for stage, argv in (("gen", gen), ("connect", connect), ("certify", certify)):
            with st.stage(stage):
                code = cli.main(argv)
            if code != 0:
                return [f"strata {stage} exited {code}"]
        st.files["path"] = os.path.getsize(path)
        st.files["certificate"] = os.path.getsize(cert)
        with open(cert) as f:
            obj = json.load(f)
        problems = []
        if obj["verdict"] != "pass":
            problems.append(f"certificate verdict {obj['verdict']}")
        if max(obj["endpoint_errors"]) > ENDPOINT_TOL:
            problems.append(f"certificate endpoint error {max(obj['endpoint_errors']):.3e}")
        if obj["grid_size"] < SAMPLES:
            problems.append(f"certificate has {obj['grid_size']} samples")
        return problems

    return Op(f"cli-{tag}-{n}", "cli", (n, n), k, run)


def cli_large(seed: int, workdir: str):
    seeds = _seeds(seed, "cli-large", 3)
    # two 100x100 rank-50 pairs, the second connected with --reverse; a
    # 200x200 pair made one pass take 12 s, too few passes for a steady run
    ops = [
        _cli_chain_op(workdir, "fwd", 100, 50, seeds[0], reverse=False),
        _cli_chain_op(workdir, "rev", 100, 50, seeds[1], reverse=True),
    ]
    return ops, [_cli_chain_op(workdir, "warm", 10, 5, seeds[2], reverse=False)]


# ---------------------------------------------------------------------------
# membership: certify with a MembershipSpec, plus the criterion-7 flip audit

MEMBERSHIP_SIZES = (4, 8, 12, 16, 20)


def _subspace_rng(seed):
    """A stream independent of the one gen_instance draws from the same seed."""
    return np.random.default_rng([seed, 1])


def _certify_member(st: Stages, path, k, spec, samples) -> list[str]:
    """Certify with the membership spec, and at PLAIN_CERTIFY_SIZE also without
    it, so the traced run can compare the two on the same path."""
    with st.stage("certify"):
        certs = [strata.certify_path(path, k, grid=samples, membership=spec)]
        if path.start.shape[0] == PLAIN_CERTIFY_SIZE:
            certs.append(strata.certify_path(path, k, grid=samples))
    return [p for cert in certs for p in _check_cert(cert)]


def _left_op(n, seed, samples=SAMPLES) -> Op:
    k = n // 2
    t0 = strata.gen_instance(strata.InstanceSpec(m=n, n=n, k=k, seed=seed, kind="fk-pair"))["T1"]
    with paused():
        rng = _subspace_rng(seed)
        n_sub = _complement(rng, strata.range_basis(t0))
        f_star = _complement(rng, n_sub)
        spec = strata.MembershipSpec(range_complement=n_sub, kernel_equals=strata.kernel_basis(t0))

    def run(st: Stages) -> list[str]:
        with st.stage("connect"):
            path = strata.left_project_path(t0, f_star, n_sub)
        return _certify_member(st, path, k, spec, samples) + _check_endpoints(path, path.start, t0)

    return Op(f"left-{n}", "left", (n, n), k, run)


def _right_op(n, seed, samples=SAMPLES) -> Op:
    k = n // 2
    t0 = strata.gen_instance(strata.InstanceSpec(m=n, n=n, k=k, seed=seed, kind="fk-pair"))["T1"]
    with paused():
        rng = _subspace_rng(seed)
        r0 = _complement(rng, strata.kernel_basis(t0))
        e_star = _complement(rng, r0)
        range_comp = _complement(rng, strata.range_basis(t0))
        spec = strata.MembershipSpec(kernel_complement=r0, range_complement=range_comp)

    def run(st: Stages) -> list[str]:
        with st.stage("connect"):
            path = strata.right_project_path(t0, e_star, r0)
        return _certify_member(st, path, k, spec, samples) + _check_endpoints(path, path.start, t0)

    return Op(f"right-{n}", "right", (n, n), k, run)


def _flip_op(n, seed, samples=SAMPLES) -> Op:
    d = n // 2
    with paused():
        rng = np.random.default_rng(seed)
        e_star = strata.random_subspace(rng, n, d)
        r = _complement(rng, e_star)
        coeff = rng.uniform(-1.0, 1.0, (r.dim, e_star.dim))
        while np.max(np.abs(coeff)) < 1e-2:
            coeff = rng.uniform(-1.0, 1.0, (r.dim, e_star.dim))
        alpha = strata.GraphParam(e_star, r, coeff)

    def run(st: Stages) -> list[str]:
        with st.stage("connect"):
            literal = strata.literal_flip_path(e_star, r, alpha)
            proj = strata.oblique_projection(e_star, r).projector
            corrected = strata.corrected_flip_path(proj, d)
        with st.stage("certify"):
            audit = strata.audit_flip_path(literal, (r, r), grid=samples)
            cert = strata.certify_path(corrected, d, grid=samples)
        problems = _check_cert(cert)
        if 0.5 not in audit.failures:
            problems.append("literal flip audit did not fail at local parameter 0.5")
        with paused():
            err = _maxabs(strata.eval_path(corrected, 1.0) + proj)
        if err > FLIP_ENDPOINT_TOL * (1.0 + _maxabs(proj)):
            problems.append(f"corrected flip misses -P by {err:.3e}")
        return problems

    return Op(f"flip-{n}", "flip", (n, n), d, run)


def membership(seed: int, workdir: str):
    seeds = _seeds(seed, "membership", 3 * len(MEMBERSHIP_SIZES))
    ops = []
    for i, n in enumerate(MEMBERSHIP_SIZES):
        ops += [_left_op(n, seeds[3 * i]), _right_op(n, seeds[3 * i + 1]), _flip_op(n, seeds[3 * i + 2])]
    # at 1001 samples the warm-up took a second, so a run held only three
    # set-ups and their median spread by a third between seeds
    warmup = [_left_op(4, seeds[0], WARMUP_SAMPLES), _right_op(4, seeds[1], WARMUP_SAMPLES)]
    return ops, warmup + [_flip_op(4, seeds[2], WARMUP_SAMPLES)]


# ---------------------------------------------------------------------------
# tangent: `strata tangent` through the CLI, then tangency orders (criterion 9)

TANGENT_SHAPES = ((10, 8, 4), (20, 15, 8), (30, 20, 10), (40, 30, 15))  # rows, cols, rank
DIRECTIONS = 3  # tangent and transverse directions measured per point


def _tangent_op(workdir, rows, cols, k, seed) -> Op:
    point_file = os.path.join(workdir, f"x{rows}x{cols}.json")
    basis_file = os.path.join(workdir, f"basis{rows}x{cols}.json")
    with paused():
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
        v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
        x = u @ np.diag(rng.uniform(0.5, 1.5, k)) @ v.T
        ser.save_json(ser.matrix_to_obj(x), point_file)
    argv = ["tangent", "--in", point_file, "--out", basis_file]

    def run(st: Stages) -> list[str]:
        with st.stage("connect"):
            code = cli.main(argv)
        if code != 0:
            return [f"strata tangent exited {code}"]
        st.files["tangent"] = os.path.getsize(basis_file)
        problems = []
        with st.stage("certify"):
            obj = ser.load_json(basis_file)
            basis = [ser.matrix_from_obj(b) for b in obj["basis"]]
            point = strata.StratumPoint.at(x)
            draw = np.random.default_rng(seed)
            slopes = []
            for _ in range(DIRECTIONS):
                direction = sum(c * b for c, b in zip(draw.standard_normal(len(basis)), basis))
                direction /= np.linalg.norm(direction)
                out = (np.eye(rows) - point.range.orthogonal_projector()) @ draw.standard_normal(rows)
                out /= np.linalg.norm(out)
                bad = direction + 0.1 * np.outer(out, point.kernel.basis[:, 0])
                slopes.append((strata.tangency_order(point, direction), strata.tangency_order(point, bad)))
        with paused():
            want = strata.dim_fk(cols, rows, k)
        if len(basis) != want or obj["dim"] != want:
            problems.append(f"tangent basis has {len(basis)} elements, expected {want}")
        for tangent, transverse in slopes:
            if tangent != strata.EXACT and not TANGENT_SLOPE[0] <= tangent <= TANGENT_SLOPE[1]:
                problems.append(f"tangent slope {tangent}")
            if transverse == strata.EXACT or not TRANSVERSE_SLOPE[0] <= transverse <= TRANSVERSE_SLOPE[1]:
                problems.append(f"transverse slope {transverse}")
        return problems

    return Op(f"tangent-{rows}x{cols}", "tangent", (rows, cols), k, run)


def tangent(seed: int, workdir: str):
    seeds = _seeds(seed, "tangent", len(TANGENT_SHAPES))
    ops = [_tangent_op(workdir, r, c, k, s) for (r, c, k), s in zip(TANGENT_SHAPES, seeds)]
    return ops, ops[:1]


WORKLOADS = {
    "corpus-small": corpus_small,
    "cli-large": cli_large,
    "membership": membership,
    "tangent": tangent,
}
