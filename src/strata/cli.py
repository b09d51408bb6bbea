"""Command-line surface: generate instances, build paths, certify them.

Exit codes for `certify`: 0 pass, 1 fail, 2 degenerate.  `audit-thm12`
exits 1 when the audited affine flip family leaves its operator set,
which is the documented expected outcome.  Every command exits 4 on an
input it cannot use: a path file with a missing field or an unknown
segment kind, a `certify --k` outside [0, min(m, n)], an instance file
without the matrices T1 and T2 that `connect` reads (a `gl` or
`subspace-pair` file written by `gen`), an instance or membership file,
or the instance echo of a path file, that is not a JSON object, a
membership file with a key other than `range_complement`,
`kernel_complement` and `kernel_equals`, a NaN or an infinity in any
matrix or instance echo, or rank-one factors whose product overflows (the
error names the field), a path shape that is not two counts, a
STRATA_TOL that is not a number, or a file that cannot be read or written.
The STRATA_TOL environment variable overrides the default relative rank
tolerance everywhere.  The library holds numpy's and scipy's OpenBLAS to
one thread at each of its entry points that computes (``strata.blas``), so
the files a command writes do not depend on the number of cores.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import serialization as ser
from .certify import audit_flip_path, certify_path
from .errors import InputError, StrataError
from .geometry import StratumPoint, dim_fk, tangent_basis
from .instances import InstanceSpec, gen_instance, random_subspace
from .paths import (
    connect_fk,
    connect_phi,
    corrected_flip_path,
    literal_flip_path,
    reverse_path,
)
from .projections import GraphParam
from .subspaces import DEFAULT_TOL, ToleranceConfig, is_direct_sum


def _tolerance(rank_rel_tol: float | None = None) -> ToleranceConfig:
    """The rank tolerance given, else STRATA_TOL's, else the default."""
    if rank_rel_tol is None:
        env = os.environ.get("STRATA_TOL")
        try:
            rank_rel_tol = float(env) if env else DEFAULT_TOL.rank_rel_tol
        except ValueError:
            raise InputError(f"STRATA_TOL must be a number, got {env!r}") from None
    return ToleranceConfig(rank_rel_tol=rank_rel_tol)


def _cmd_gen(args) -> int:
    spec = InstanceSpec(m=args.m, n=args.n, k=args.k, seed=args.seed, kind=args.kind)
    payload = gen_instance(spec)
    ser.save_json(ser.instance_to_obj(payload), args.out)
    return 0


def _cmd_connect(args) -> int:
    tol = _tolerance()
    payload = ser.instance_from_obj(ser.load_json(args.infile))
    for key in ("T1", "T2"):
        if not isinstance(payload.get(key), np.ndarray):
            raise StrataError(
                f"instance field {key!r} is missing or not a matrix; "
                "connect needs an fk-pair or phi-pair instance"
            )
    t1, t2 = payload["T1"], payload["T2"]
    echo = ser.instance_echo(payload)
    if args.mode == "phi":  # kernel dimension and corank are read from t1
        path = connect_phi(t1, t2, tol=tol)
    else:  # "fk" and "chain" name the same construction
        path = connect_fk(t1, t2, tol)
    if args.reverse:
        path = reverse_path(path)
    ser.save_json(ser.path_to_obj(path, echo), args.out)
    return 0


def _cmd_certify(args) -> int:
    tol = _tolerance(args.tol)
    path_obj = ser.load_json(args.path)
    path = ser.path_from_obj(path_obj)
    membership = None
    if args.membership:
        membership = ser.membership_from_obj(ser.load_json(args.membership))
    cert = certify_path(
        path,
        args.k,
        grid=args.samples,
        tol=tol,
        membership=membership,
        instance=path_obj.get("instance"),
    )
    ser.save_json(ser.certificate_to_obj(cert), args.out)
    return {"pass": 0, "fail": 1, "degenerate": 2}[cert.verdict]


def _cmd_audit_thm12(args) -> int:
    tol = _tolerance()
    rng = np.random.default_rng(args.seed)
    n = args.dim
    if n < 2:
        raise StrataError("audit needs ambient dimension at least 2")
    d_star = int(rng.integers(1, n))
    e_star = random_subspace(rng, n, d_star)
    while True:
        r = random_subspace(rng, n, n - d_star)
        if is_direct_sum([e_star, r], tol):
            break
    coeff = rng.uniform(-1.0, 1.0, (r.dim, e_star.dim))
    while np.max(np.abs(coeff)) < 0.1:
        coeff = rng.uniform(-1.0, 1.0, (r.dim, e_star.dim))
    alpha = GraphParam(e_star, r, coeff)
    path = literal_flip_path(e_star, r, alpha, tol)
    audit = audit_flip_path(path, (r, r), grid=args.grid, tol=tol)
    ser.save_json(ser.audit_to_obj(audit), args.out)
    return 1 if audit.failures else 0


def _cmd_tangent(args) -> int:
    tol = _tolerance()
    x = ser.matrix_from_obj(ser.load_json(args.infile))
    basis = tangent_basis(StratumPoint.at(x, tol))
    ser.save_json(ser.tangent_basis_to_obj(basis), args.out)
    return 0


def _cmd_dim(args) -> int:
    print(dim_fk(args.m, args.n, args.k))
    return 0


def _cmd_flip(args) -> int:
    tol = _tolerance()
    t = ser.matrix_from_obj(ser.load_json(args.infile))
    path = corrected_flip_path(t, tol=tol)
    ser.save_json(ser.path_to_obj(path), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strata",
        description="build and certify explicit paths inside rank strata of matrix spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--m", type=int, required=True, help="domain dimension (columns)")
    p.add_argument("--n", type=int, required=True, help="codomain dimension (rows)")
    p.add_argument("--k", type=int, required=True, help="rank")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--kind",
        required=True,
        choices=["fk-pair", "phi-pair", "subspace-pair", "gl"],
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("connect", help="build a path between a generated pair")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", required=True, choices=["fk", "phi", "chain"])
    p.add_argument("--out", required=True)
    p.add_argument("--reverse", action="store_true", help="swap path orientation")
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("certify", help="sample a path file and write a certificate")
    p.add_argument("--path", required=True)
    p.add_argument("--k", type=int, required=True, help="expected rank along the path")
    p.add_argument("--samples", type=int, default=1001)
    p.add_argument("--tol", type=float, default=None, help="relative rank tolerance")
    p.add_argument("--membership", default=None, help="JSON file of subspaces to check")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser(
        "audit-thm12",
        help="audit the literal affine flip family (expected exit code 1)",
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_audit_thm12)

    p = sub.add_parser("tangent", help="tangent basis of the rank stratum at a matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tangent)

    p = sub.add_parser("dim", help="print the stratum dimension (m+n-k)k")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("flip", help="rank-preserving path from a matrix to its negative")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_flip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StrataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
