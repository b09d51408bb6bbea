"""Span tracer for the traced benchmark run.

The tracer works from outside the library: it replaces, in every strata
module namespace, each public function (the names in the module's
``__all__``; every non-underscore function of ``cli``, which has no
``__all__``) with a wrapper that records one span, and does the same for
the numpy/scipy factorizations the library calls.  Two further entry
points are wrapped because per-layer metrics name them:
``paths.eval_segment_batch`` (per segment kind evaluation) and
``geometry.StratumPoint.at``.

Calls made inside ``paused()`` are not recorded: the workloads use it for
their own checks and for building inputs beyond the instance generator, so
that per-layer figures hold only work the program does in an op.

Spans are kept in memory as ``[name, layer, start, end, parent, op, attrs]``
and only written out, as JSONL, when the benchmark ends.  Self time of a
span is its duration minus the durations of its direct children, so a
layer's self time excludes the layers it calls, factorizations included.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
from collections import Counter
from time import perf_counter

LAYERS = (
    "cli",
    "instances",
    "serialization",
    "paths",
    "certify",
    "geometry",
    "projections",
    "subspaces",
)
FACTORIZATIONS = {
    "numpy.linalg": ("svd", "inv", "pinv", "qr", "eigh", "slogdet"),
    "scipy.linalg": ("schur", "expm", "subspace_angles"),
}
SEGMENT_KINDS = (
    "constant",
    "affine",
    "left-affine",
    "right-affine",
    "rotation-flip",
    "spd-line",
    "rotation-log",
)
CONNECT = frozenset(
    {"paths.connect_fk", "paths.connect_phi", "paths.chain_connect", "paths.discover_chain"}
)
CONNECT_COUNTED = ("svd", "inv", "pinv", "qr", "eigh", "schur", "expm")

NAME, LAYER, START, END, PARENT, OP, ATTRS = range(7)

_paused = False


@contextlib.contextmanager
def paused():
    """Run the enclosed calls unrecorded, wrapped or not."""
    global _paused
    saved, _paused = _paused, True
    try:
        yield
    finally:
        _paused = saved


def _shape(a):
    return list(getattr(a, "shape", ()))


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _accepted(payload):
    """Conditioned factors an instance draw accepted (one SVD check each)."""
    kind, k = payload["kind"], payload["k"]
    if kind in ("fk-pair", "phi-pair"):
        return 2 if k > 0 else 0
    if kind == "gl":
        return 1
    return sum(1 for key in ("E1", "E2") if 0 < payload[key].dim < payload["n"])


# What a span remembers about its call, beyond name and time.  Each entry
# maps (args, kwargs, result) to a small dict.
DESCRIBE = {
    "paths.eval_segment_batch": lambda a, kw, r: {
        "kind": a[0].kind,
        "samples": int(r.shape[0]),
        "shape": _shape(a[0].start),
    },
    "certify.certify_path": lambda a, kw, r: {
        "shape": _shape(a[0]),
        "membership": bool(kw.get("membership") is not None and kw["membership"].any()),
        "samples": r.grid_size,
    },
    "paths.connect_fk": lambda a, kw, r: {"segments": len(r.segments)},
    "paths.connect_phi": lambda a, kw, r: {"segments": len(r.segments)},
    "paths.chain_connect": lambda a, kw, r: {"segments": len(r.segments)},
    "serialization.save_json": lambda a, kw, r: _file_bytes(a[1]),
    "serialization.load_json": lambda a, kw, r: _file_bytes(a[0]),
    "geometry.tangent_basis": lambda a, kw, r: {"elements": r.dim},
    "instances.gen_instance": lambda a, kw, r: {"accepted": _accepted(r)},
    "instances.random_subspace": lambda a, kw, r: {"accepted": int(0 < a[2] < a[1])},
    "linalg.svd": lambda a, kw, r: (
        {"computed_bytes": int(a[0].nbytes)} if getattr(a[0], "ndim", 2) > 2 else None
    ),
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, layer, fn):
        describe = DESCRIBE.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _paused:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if describe is not None:
                span[ATTRS] = describe(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module("strata")
        modules = [importlib.import_module(f"strata.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            public = dict(_public_functions(module))
            if layer == "paths":
                public["eval_segment_batch"] = module.eval_segment_batch
            for name, fn in public.items():
                wrappers[fn] = self._wrap(f"{layer}.{name}", layer, fn)
        # rebind every reference, so calls inside a module and across
        # modules (``from .paths import ...``) both reach the wrapper
        for owner in (package, *modules):
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(owner, attr, wrappers[value])
        point = importlib.import_module("strata.geometry").StratumPoint
        at = point.__dict__["at"].__func__
        self._patch(point, "at", classmethod(self._wrap("geometry.StratumPoint.at", "geometry", at)))
        for module_name, names in FACTORIZATIONS.items():
            owner = importlib.import_module(module_name)
            for fname in names:
                self._patch(owner, fname, self._wrap(f"linalg.{fname}", "linalg", getattr(owner, fname)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def call_counts(self) -> Counter:
        """Calls per span name: must repeat exactly for identical work."""
        return Counter(span[NAME] for span in self.spans)

    def write_jsonl(self, path, header):
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for i, (name, _, start, end, parent, op, _) in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent,
                    "op": op,
                }
                f.write(json.dumps(rec) + "\n")


def _inside(spans, pred):
    """Per span: whether it or an ancestor satisfies pred (parents come first)."""
    flags = []
    for span in spans:
        p = span[PARENT]
        flags.append(pred(span) or (p >= 0 and flags[p]))
    return flags


def _outermost(spans, pred):
    inside = _inside(spans, pred)
    return [
        i
        for i, span in enumerate(spans)
        if pred(span) and not (span[PARENT] >= 0 and inside[span[PARENT]])
    ]


def _ms(span):
    return (span[END] - span[START]) * 1e3


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, op_meta) -> dict:
    """Per-layer metrics of one traced pass.

    ``op_meta[op]`` holds the shape, rank and family of each op, for the
    rows that single out one input size.
    """
    n = len(spans)
    child_ms = [0.0] * n
    children = [[] for _ in range(n)]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            child_ms[span[PARENT]] += _ms(span)
            children[span[PARENT]].append(i)
    out = {}
    for layer in LAYERS:
        idx = [i for i, s in enumerate(spans) if s[LAYER] == layer]
        out[f"{layer}.calls"] = len(idx)
        out[f"{layer}.self_ms"] = sum(_ms(spans[i]) - child_ms[i] for i in idx)
        out[f"{layer}.factorizations"] = 0

    # factorizations made by the library, attributed to the enclosing layer
    lib_fact = [
        i
        for i, s in enumerate(spans)
        if s[LAYER] == "linalg" and s[PARENT] >= 0 and spans[s[PARENT]][LAYER] != "linalg"
    ]
    for names in FACTORIZATIONS.values():
        for fname in names:
            picked = [i for i in lib_fact if spans[i][NAME] == f"linalg.{fname}"]
            out[f"linalg.{fname}.calls"] = len(picked)
            out[f"linalg.{fname}.ms"] = sum(_ms(spans[i]) for i in picked)
    for i in lib_fact:
        out[f"{spans[spans[i][PARENT]][LAYER]}.factorizations"] += 1
    batched = [i for i in lib_fact if spans[i][NAME] == "linalg.svd" and spans[i][ATTRS]]
    out["linalg.svd_batched.calls"] = len(batched)
    out["linalg.svd_batched.ms"] = sum(_ms(spans[i]) for i in batched)
    out["linalg.svd_batched.computed_bytes"] = sum(
        spans[i][ATTRS]["computed_bytes"] for i in batched
    )

    # certify
    certs = [i for i, s in enumerate(spans) if s[NAME] == "certify.certify_path"]
    out["certify.samples"] = sum(spans[i][ATTRS]["samples"] for i in certs if spans[i][ATTRS])
    out["certify.membership.ms"] = sum(
        _ms(spans[c]) for i in certs for c in children[i] if spans[c][LAYER] == "subspaces"
    )

    # paths: evaluation per segment kind
    evals = [i for i, s in enumerate(spans) if s[NAME] == "paths.eval_segment_batch" and s[ATTRS]]
    out["paths.eval.ms"] = sum(_ms(spans[i]) for i in evals)
    out["paths.eval.samples"] = sum(spans[i][ATTRS]["samples"] for i in evals)
    for kind in SEGMENT_KINDS:
        picked = [i for i in evals if spans[i][ATTRS]["kind"] == kind]
        out[f"paths.eval.{kind}.ms"] = sum(_ms(spans[i]) for i in picked)
        out[f"paths.eval.{kind}.samples"] = sum(spans[i][ATTRS]["samples"] for i in picked)

    # paths: connect assembly and the factorizations it makes per op
    in_connect = _inside(spans, lambda s: s[NAME] in CONNECT)
    connect = _outermost(spans, lambda s: s[NAME] in CONNECT)
    connect_ops = {spans[i][OP] for i in connect}
    out["paths.connect.calls"] = len(connect)
    out["paths.connect.ms"] = sum(_ms(spans[i]) for i in connect)
    out["paths.connect.segments"] = sum(
        spans[i][ATTRS]["segments"] for i in connect if spans[i][ATTRS]
    )
    fact_in_connect = Counter(spans[i][NAME] for i in lib_fact if in_connect[i])
    for fname in CONNECT_COUNTED:
        out[f"paths.connect.{fname}_per_op"] = (
            fact_in_connect[f"linalg.{fname}"] / len(connect_ops) if connect_ops else 0.0
        )
    for fname in ("gl_connect", "reverse_path"):
        picked = _outermost(spans, lambda s, f=fname: s[NAME] == f"paths.{f}")
        out[f"paths.{fname}.ms"] = sum(_ms(spans[i]) for i in picked)
    out["paths.make_segment.calls"] = sum(1 for s in spans if s[NAME] == "paths.make_segment")

    out["projections.oblique_projection.calls"] = sum(
        1 for s in spans if s[NAME] == "projections.oblique_projection"
    )

    # serialization
    for key, pred in (
        ("save", lambda s: s[NAME] == "serialization.save_json"),
        ("load", lambda s: s[NAME] == "serialization.load_json"),
        ("to_obj", lambda s: s[LAYER] == "serialization" and s[NAME].endswith("_to_obj")),
        ("from_obj", lambda s: s[LAYER] == "serialization" and s[NAME].endswith("_from_obj")),
    ):
        out[f"serialization.{key}.ms"] = sum(_ms(spans[i]) for i in _outermost(spans, pred))
    out["serialization.bytes_written"] = sum(
        s[ATTRS]["bytes"] for s in spans if s[NAME] == "serialization.save_json" and s[ATTRS]
    )
    out["serialization.bytes_read"] = sum(
        s[ATTRS]["bytes"] for s in spans if s[NAME] == "serialization.load_json" and s[ATTRS]
    )

    # geometry
    bases = [s for s in spans if s[NAME] == "geometry.tangent_basis"]
    out["geometry.tangent_basis.ms"] = sum(_ms(s) for s in bases)
    out["geometry.tangent_basis.elements"] = sum(s[ATTRS]["elements"] for s in bases if s[ATTRS])
    out["geometry.tangency_order.ms"] = sum(
        _ms(s) for s in spans if s[NAME] == "geometry.tangency_order"
    )
    in_at = _inside(spans, lambda s: s[NAME] == "geometry.StratumPoint.at")
    at_calls = sum(1 for s in spans if s[NAME] == "geometry.StratumPoint.at")
    at_svd = sum(1 for i in lib_fact if in_at[i] and spans[i][NAME] == "linalg.svd")
    out["geometry.stratum_point_at.svd_per_call"] = at_svd / at_calls if at_calls else 0.0

    # instances
    gen = _outermost(spans, lambda s: s[LAYER] == "instances")
    out["instances.gen_instance.ms"] = sum(
        _ms(s) for s in spans if s[NAME] == "instances.gen_instance"
    )
    accepted = sum(spans[i][ATTRS]["accepted"] for i in gen if spans[i][ATTRS])
    draws = sum(
        1 for i in lib_fact if spans[i][NAME] == "linalg.svd" and spans[spans[i][PARENT]][LAYER] == "instances"
    )
    out["instances.accept_ratio"] = accepted / draws if draws else 0.0

    out.update(_roadmap_rows(spans, children, lib_fact, op_meta))
    return out


def _certify_split(spans, children, shape):
    """Mean eval, batched SVD and remaining (loop) time of plain certify calls."""
    rows = []
    for i, s in enumerate(spans):
        if s[NAME] != "certify.certify_path" or not s[ATTRS]:
            continue
        if s[ATTRS]["shape"] != list(shape) or s[ATTRS]["membership"]:
            continue
        ev = sum(_ms(spans[c]) for c in children[i] if spans[c][NAME] == "paths.eval_path_batch")
        svd = sum(_ms(spans[c]) for c in children[i] if spans[c][NAME] == "linalg.svd")
        rows.append((ev, svd, _ms(s) - ev - svd))
    return [_mean([r[j] for r in rows]) for j in range(3)]


def _roadmap_rows(spans, children, lib_fact, op_meta):
    """The ROADMAP item A baseline rows, each at the size the roadmap names."""
    out = {}
    ev, svd, loop = _certify_split(spans, children, (4, 4))
    out["roadmap_a.certify_4x4.eval_ms"] = ev
    out["roadmap_a.certify_4x4.svd_ms"] = svd
    out["roadmap_a.certify_4x4.loop_ms"] = loop
    ev, svd, _ = _certify_split(spans, children, (100, 100))
    out["roadmap_a.certify_100.eval_ms"] = ev
    out["roadmap_a.certify_100.svd_ms"] = svd

    rot = [
        s
        for s in spans
        if s[NAME] == "paths.eval_segment_batch"
        and s[ATTRS]
        and s[ATTRS]["kind"] == "rotation-log"
        and s[ATTRS]["shape"] == [100, 100]
    ]
    samples = sum(s[ATTRS]["samples"] for s in rot)
    out["roadmap_a.rotation_log_100.ms_per_sample"] = (
        sum(_ms(s) for s in rot) / samples if samples else 0.0
    )

    # the same 4x4 project path certified with its membership spec and without
    with_m, without = [], []
    for s in spans:
        meta = op_meta.get(s[OP])
        if (
            s[NAME] == "certify.certify_path"
            and s[ATTRS]
            and s[ATTRS]["shape"] == [4, 4]
            and meta is not None
            and meta["family"] in ("left", "right")
        ):
            (with_m if s[ATTRS]["membership"] else without).append(_ms(s))
    out["roadmap_a.membership_4x4.with_ms"] = _mean(with_m)
    out["roadmap_a.membership_4x4.without_ms"] = _mean(without)
    out["roadmap_a.membership_4x4.slowdown"] = (
        _mean(with_m) / _mean(without) if with_m and without else 0.0
    )

    # connect_fk on the 6x5 rank-3 inputs: factorizations inside each call
    def is_target(s):
        meta = op_meta.get(s[OP])
        return (
            s[NAME] == "paths.connect_fk"
            and meta is not None
            and meta["family"] == "fk"
            and tuple(meta["shape"]) == (6, 5)
            and meta["k"] == 3
        )

    owner = []
    for s in spans:
        p = s[PARENT]
        owner.append(p if p >= 0 and is_target(spans[p]) else (owner[p] if p >= 0 else -1))
    targets = _outermost(spans, is_target)
    per_target = Counter((owner[i], spans[i][NAME]) for i in lib_fact if owner[i] >= 0)
    for fname in ("svd", "inv"):
        out[f"roadmap_a.connect_fk_6x5r3.{fname}_calls"] = _mean(
            [per_target[(t, f"linalg.{fname}")] for t in targets]
        )
    return out
