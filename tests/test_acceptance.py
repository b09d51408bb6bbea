"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Every tolerance is pinned here, not configured elsewhere.
"""

import time

import numpy as np
import pytest

from strata import (
    GraphParam,
    MembershipSpec,
    StratumPoint,
    audit_flip_path,
    certify_path,
    chain_connect,
    common_complement,
    connect_fk,
    connect_phi,
    corrected_flip_path,
    dim_fk,
    discover_chain,
    eval_path,
    gl_connect,
    graph_subspace,
    is_direct_sum,
    kernel_basis,
    literal_flip_path,
    oblique_projection,
    alpha_operator,
    rank_of,
    tangency_order,
    tangent_basis,
)
from strata.errors import DisconnectedComponentsError
from strata.geometry import EXACT
from strata.instances import InstanceSpec, gen_instance, random_subspace
from strata.paths import ChainWitness
from strata.subspaces import Subspace

from conftest import criterion_9_directions, random_flip_instance, random_split, span


def report(num, label, elapsed, budget):
    line = f"[criterion {num}] {label}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_dimension_formula():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    for m in range(1, 7):
        for n in range(1, 7):
            for k in range(0, min(m, n) + 1):
                if k == 0:
                    x = StratumPoint.at(np.zeros((n, m)))
                else:
                    u, _ = np.linalg.qr(rng.standard_normal((n, k)))
                    v, _ = np.linalg.qr(rng.standard_normal((m, k)))
                    x = StratumPoint.at(u @ np.diag(rng.uniform(0.5, 1.5, k)) @ v.T)
                assert tangent_basis(x).dim == (m + n - k) * k
                assert dim_fk(m, n, k) == (m + n - k) * k
    report(1, "stratum dimension (m+n-k)k matches tangent basis size", time.monotonic() - start, 5.0)


def test_criterion_2_projection_update_formula():
    start = time.monotonic()
    for n in range(2, 9):
        rng = np.random.default_rng(100 + n)
        for _ in range(100):
            d = int(rng.integers(1, n))
            e_star, r = random_split(rng, n, d)
            coeff = rng.uniform(-1.0, 1.0, (r.dim, e_star.dim))
            g = GraphParam(e_star, r, coeff)
            base = oblique_projection(e_star, r)
            formula = base.projector + alpha_operator(g) @ base.projector
            independent = oblique_projection(graph_subspace(g), r).projector
            assert np.max(np.abs(independent - formula)) <= 1e-9
    report(2, "projector update formula vs independent oblique projection", time.monotonic() - start, 5.0)


def test_criterion_3_common_complements():
    start = time.monotonic()
    for n in range(2, 9):
        rng = np.random.default_rng(200 + n)
        for _ in range(100):
            d = int(rng.integers(0, n + 1))
            e1 = random_subspace(rng, n, d)
            e2 = random_subspace(rng, n, d)
            r = common_complement(e1, e2)
            assert is_direct_sum([e1, r]).ok
            assert is_direct_sum([e2, r]).ok
    report(3, "common complements split both inputs on every pair", time.monotonic() - start, 5.0)


def test_criterion_4_fk_connectivity():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    for seed in range(200):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        kmax = min(m, n)
        k = int(rng.integers(1, kmax)) if kmax > 1 else 1
        payload = gen_instance(InstanceSpec(m=m, n=n, k=k, seed=seed, kind="fk-pair"))
        path = connect_fk(payload["T1"], payload["T2"])
        cert = certify_path(path, k, grid=1001)
        assert cert.verdict == "pass", f"seed {seed} shape {n}x{m} rank {k}"
        assert max(cert.endpoint_errors) <= 1e-9
        assert np.max(np.abs(eval_path(path, 0.0) - payload["T2"])) <= 1e-9
        assert np.max(np.abs(eval_path(path, 1.0) - payload["T1"])) <= 1e-9
    report(4, "200 rank-stratum paths certify at 1001 samples", time.monotonic() - start, 60.0)


def test_criterion_5_phi_connectivity():
    start = time.monotonic()
    shapes = [
        (3, 2, 2), (2, 3, 2), (3, 3, 2), (4, 3, 2), (3, 4, 2),
        (4, 4, 3), (5, 4, 3), (4, 5, 3), (2, 2, 1), (5, 5, 3),
    ]
    for seed in range(50):
        m, n, k = shapes[seed % len(shapes)]
        kernel_dim, corank = m - k, n - k
        assert kernel_dim + corank > 0
        payload = gen_instance(InstanceSpec(m=m, n=n, k=k, seed=seed, kind="phi-pair"))
        path = connect_phi(payload["T1"], payload["T2"], kernel_dim, corank)
        cert = certify_path(path, k, grid=501)
        assert cert.verdict == "pass", f"seed {seed} shape {n}x{m}"
        # constant rank pins kernel dimension and corank at fixed shape
        assert set(cert.samples["rank"]) == {k}
    report(5, "50 fixed-(kernel, corank) paths certify", time.monotonic() - start, 30.0)


def test_criterion_6_chain_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    for seed in range(50):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        kmax = min(m, n)
        k = int(rng.integers(1, kmax)) if kmax > 1 else 1
        payload = gen_instance(InstanceSpec(m=m, n=n, k=k, seed=seed, kind="fk-pair"))
        witness = discover_chain(payload["T1"], payload["T2"])
        path = chain_connect(payload["T1"], payload["T2"], witness)
        cert = certify_path(path, k, grid=501)
        assert cert.verdict == "pass", f"seed {seed}"
    # handcrafted two-link kernel chain exercising the stagewise recursion
    t0 = np.zeros((3, 3))
    t0[0, 0] = 1.0
    t_star = np.zeros((3, 3))
    t_star[1, 0] = 1.0
    witness = ChainWitness(
        (span([1, 0, 0], [0, 0, 1]), span([1, 0, 0], [0, 1, 0])),
        (span([1, 1, 0]), span([0, 1, 1]), span([1, 0, 1])),
        (),
        (span([1, -1, 0], [0, 0, 1]),),
    )
    path = chain_connect(t0, t_star, witness)
    cert = certify_path(path, 1, grid=501)
    assert cert.verdict == "pass"
    report(6, "50 discovered chains + a length-2 kernel chain certify", time.monotonic() - start, 30.0)


def test_criterion_7_flip_audit_and_correction():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(100):
        e_star, r, alpha = random_flip_instance(rng)
        path = literal_flip_path(e_star, r, alpha)
        audit = audit_flip_path(path, (r, r), grid=11)
        assert 0.5 in audit.failures, "the affine family must leave the set at its midpoint"
        proj = oblique_projection(e_star, r).projector
        corrected = corrected_flip_path(proj, e_star.dim)
        cert = certify_path(corrected, e_star.dim, grid=101)
        assert cert.verdict == "pass"
        assert np.max(np.abs(eval_path(corrected, 1.0) + proj)) <= 1e-12 * (
            1 + np.max(np.abs(proj))
        )
    # the CLI audit exits 1: the claim is documented as failing
    from strata.cli import main

    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "audit.json")
        assert main(["audit-thm12", "--dim", "4", "--seed", "0", "--out", out]) == 1
    report(7, "literal flip family fails at 0.5, corrected flip certifies", time.monotonic() - start, 30.0)


def test_criterion_8_gl_component_handling():
    start = time.monotonic()
    rng = np.random.default_rng(8)
    for seed in range(100):
        n = int(rng.integers(2, 7))
        payload = gen_instance(InstanceSpec(m=n, n=n, k=n, seed=seed, kind="gl"))
        a = payload["A"]
        path, sign = gl_connect(a)
        bound = 0.5 * min(1.0, float(np.linalg.svd(a, compute_uv=False)[-1]))
        for t in np.linspace(0.0, 1.0, 101):
            smin = float(np.linalg.svd(eval_path(path, t), compute_uv=False)[-1])
            assert smin >= bound
        assert sign == int(np.sign(np.linalg.det(a)))
    # opposite-component square endpoints are rejected, repeatably
    messages = []
    for _ in range(2):
        with pytest.raises(DisconnectedComponentsError) as exc:
            connect_fk(np.eye(3), np.diag([-1.0, 1.0, 1.0]))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    report(8, "invertible paths never lose half the input margin", time.monotonic() - start, 30.0)


def test_criterion_9_tangency_dichotomy():
    start = time.monotonic()
    for x, direction, kind in criterion_9_directions():
        slope = tangency_order(x, direction)
        if kind == "tangent":
            assert slope == EXACT or 1.8 <= slope <= 2.2, f"tangent slope {slope}"
        else:
            assert 0.9 <= slope <= 1.1, f"transverse slope {slope}"
    report(9, "tangent slopes near 2 or exact, violated ones near 1", time.monotonic() - start, 20.0)
