"""JSON encoding of every artifact the tools read or write.

One matrix object is shared repo-wide, in two forms.  The dense form
{"rows": r, "cols": c, "data": numbers} is what every writer uses except
the tangent basis.  The rank-one form {"rows": r, "cols": c, "left":
numbers, "right": numbers} means np.outer(left, right) + 0.0; tangent
files write each basis element so.  The writers give each number list as
one string: the RFC 4648 base64 text of the values' IEEE-754 binary64
bytes, little-endian and row-major.  Every reader takes that string or a
JSON list of the same numbers, as older files and hand-written ones hold
them, and decodes both to the same bits.  Subspace files add a
"subspace": true flag and use their ambient dimension as the row count.
Field order is fixed everywhere so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import os

import numpy as np

from .blas import _one_blas_thread
from .certify import FlipAudit, MembershipSpec, PathCertificate
from .errors import InputError, StrataError
from .geometry import TangentBasis
from .paths import (
    SEGMENT_KINDS,
    ChainWitness,
    OperatorPath,
    PathSegment,
    _own_end,
    make_segment,
)
from .projections import GraphParam
from .subspaces import Subspace

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "subspace_to_obj",
    "subspace_from_obj",
    "graph_param_to_obj",
    "graph_param_from_obj",
    "path_to_obj",
    "path_from_obj",
    "tangent_basis_to_obj",
    "certificate_to_obj",
    "audit_to_obj",
    "instance_to_obj",
    "instance_from_obj",
    "instance_echo",
    "membership_from_obj",
    "witness_to_obj",
    "witness_from_obj",
    "save_json",
    "load_json",
]


def _encoded(values: np.ndarray) -> str:
    """The base64 text of ``values``' row-major little-endian float64 bytes.

    A NaN or an infinity raises ValueError, as ``json.dump`` does on a
    float it cannot write, because no reader takes one back.
    """
    values = np.asarray(values, dtype="<f8")
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return base64.b64encode(values.tobytes()).decode("ascii")


def matrix_to_obj(a) -> dict:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": _encoded(a)}


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


_NOT_A_MATRIX = "expected a matrix object with rows, cols and data, or rows, cols, left and right"


def _is_matrix_obj(value) -> bool:
    """Whether ``value`` is meant as a matrix object, in either form."""
    return isinstance(value, dict) and "rows" in value and not value.keys().isdisjoint(
        ("data", "left", "right")
    )


def _is_number_type(t: type) -> bool:
    # numpy would take True as 1.0
    return issubclass(t, (int, float, np.integer, np.floating)) and t is not bool


def _number_list(values, name: str) -> np.ndarray:
    """``values``, a JSON list of numbers, as floats; ``name`` heads each error.

    A boolean, string, null or nested list in it raises StrataError.
    """
    if not isinstance(values, list):
        raise StrataError(f"{name} must be a list")
    if not all(map(_is_number_type, set(map(type, values)))):
        raise StrataError(f"{name} must be a flat list of numbers")
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":  # an integer beyond 64 bits
        raise StrataError(f"{name} must be a flat list of numbers")
    return array.astype(float, copy=False)


def _numbers(obj: dict, key: str, size: int) -> np.ndarray:
    """The ``size`` finite numbers under ``key``, as floats.

    They are a base64 string of ``size`` float64 values, little-endian,
    as the writers give them, or a JSON list of numbers, as older and
    hand-written files hold them.  The string must be canonical padded
    base64 of the standard alphabet.  JSON files may hold NaN and
    Infinity, which Python's reader accepts, and the bytes may encode
    them; no matrix here can use them.
    """
    values, name = obj[key], f"matrix {key}"
    if isinstance(values, str):
        try:
            raw = base64.b64decode(values, validate=True)
            # re-encoding refuses what the decoder lets pass, such as stray
            # bits after the last byte, on every Python version alike
            canonical = base64.b64encode(raw).decode("ascii") == values
        except ValueError:  # binascii.Error included
            canonical = False
        if not canonical:
            raise StrataError(f"{name} must be a list of numbers or padded base64 text")
        if len(raw) != 8 * size:
            raise InputError(f"{name} length disagrees with its shape")
        values = np.frombuffer(raw, dtype="<f8").astype(float)
    else:
        values = _number_list(values, name)
        if values.size != size:
            raise InputError(f"{name} length disagrees with its shape")
    if not np.isfinite(values).all():
        raise InputError(f"{name} holds a non-finite number")
    return values


def matrix_from_obj(obj: dict) -> np.ndarray:
    """Decode a dense {rows, cols, data} or rank-one {rows, cols, left, right} object.

    Anything else raises StrataError, and so does an object holding both
    data and factors.  A non-finite number raises InputError, and so do
    finite factors whose product overflows.
    """
    if not _is_matrix_obj(obj):
        raise StrataError(_NOT_A_MATRIX)
    dense = "data" in obj
    if dense and not obj.keys().isdisjoint(("left", "right")):
        raise StrataError("a matrix object holds data or left and right, not both")
    if not ({"cols", "data"} if dense else {"cols", "left", "right"}) <= obj.keys():
        raise StrataError(_NOT_A_MATRIX)
    rows, cols = obj["rows"], obj["cols"]
    if not (_is_count(rows) and _is_count(cols)):
        raise StrataError("matrix rows and cols must be counts")
    if dense:
        return _numbers(obj, "data", rows * cols).reshape(rows, cols)
    left, right = _numbers(obj, "left", rows), _numbers(obj, "right", cols)
    try:
        # finite factors give a non-finite product only by overflowing
        with np.errstate(over="raise"):
            return left[:, None] * right + 0.0  # np.outer's products, with less overhead
    except FloatingPointError:
        raise InputError("matrix left and right multiply to a non-finite number") from None


def subspace_to_obj(s: Subspace) -> dict:
    obj = matrix_to_obj(s.basis)
    obj["subspace"] = True
    return obj


def subspace_from_obj(obj: dict) -> Subspace:
    basis = matrix_from_obj(obj)
    if basis.shape[1] == 0:
        return Subspace.zero(basis.shape[0])
    return Subspace.from_columns(basis)


def graph_param_to_obj(g: GraphParam) -> dict:
    return {
        "domain": subspace_to_obj(g.domain),
        "codomain": subspace_to_obj(g.codomain),
        "coeff": matrix_to_obj(g.coeff),
    }


def graph_param_from_obj(obj: dict) -> GraphParam:
    return GraphParam(
        subspace_from_obj(obj["domain"]),
        subspace_from_obj(obj["codomain"]),
        matrix_from_obj(obj["coeff"]),
    )


_VECTOR_KEYS = {"theta"}
_SCALAR_KEYS = {"side"}


def _segment_to_obj(seg: PathSegment, previous: PathSegment | None) -> dict:
    """The segment's kind and motion, and the ends that ``_segment_from_obj`` cannot derive.

    ``start`` is written on the first segment and wherever it is not bit
    for bit ``previous``'s end; ``end`` wherever it is not bit for bit the
    leg's own value at t = 1.
    """
    obj = {"kind": seg.kind}
    for key in sorted(seg.payload):
        value = seg.payload[key]
        if key in _SCALAR_KEYS:
            obj[key] = value
        elif key in _VECTOR_KEYS:
            obj[key] = np.asarray(value, dtype=float).ravel().tolist()
        else:
            obj[key] = matrix_to_obj(value)
    if previous is None or seg.start.tobytes() != previous.end.tobytes():
        obj["start"] = matrix_to_obj(seg.start)
    if seg.end.tobytes() != _own_end(seg).tobytes():
        obj["end"] = matrix_to_obj(seg.end)
    return obj


def _segment_from_obj(obj: dict, index: int, previous: PathSegment | None) -> PathSegment:
    """Decode one segment; a missing or malformed field raises StrataError naming it.

    A missing ``start`` is ``previous``'s end, and a missing ``end`` the
    leg's own value at t = 1; the first segment must have a start.  A field
    ``a`` from an older layout, which repeated the base point, loads only
    when it equals the start entry for entry, with no tolerance; older
    writers could store 0.0 in ``start`` where ``a`` held -0.0.
    """
    if not isinstance(obj, dict):
        raise StrataError(f"path segment {index} is not an object")
    payload = {}
    for key, value in obj.items():
        if key == "kind":
            continue
        try:
            if key in _SCALAR_KEYS:
                payload[key] = value
            elif key in _VECTOR_KEYS:
                payload[key] = _number_list(value, key)
            else:
                payload[key] = matrix_from_obj(value)
        except StrataError as exc:
            raise type(exc)(f"path segment {index} field {key!r}: {exc}") from None
    if "start" not in payload and previous is not None:
        payload["start"] = previous.end
    try:
        kind, start, end = obj["kind"], payload.pop("start"), payload.pop("end", None)
    except KeyError as exc:
        raise StrataError(f"path segment {index} is missing field {exc.args[0]!r}") from None
    try:
        if kind not in SEGMENT_KINDS:
            raise InputError(f"unknown segment kind {kind!r}")
        if "a" in payload and not np.array_equal(payload.pop("a"), start):
            raise InputError("field 'a' differs from its start")
        return make_segment(kind, payload, start, end)
    except StrataError as exc:
        raise type(exc)(f"path segment {index}: {exc}") from None


@_one_blas_thread()
def path_to_obj(p: OperatorPath, instance: dict | None = None) -> dict:
    """The path's shape, its instance echo if given, and its segments.

    Each segment holds its motion and only the ends that carry information
    (see ``_segment_to_obj``): on a ``frame_connect`` or ``reverse_path``
    path, the first start and the last end.
    """
    obj = {"shape": [int(p.shape[0]), int(p.shape[1])]}
    if instance is not None:
        obj["instance"] = instance
    obj["segments"] = [
        _segment_to_obj(seg, previous)
        for seg, previous in zip(p.segments, (None, *p.segments))
    ]
    return obj


def path_from_obj(obj: dict) -> OperatorPath:
    """Load a path; a missing field raises StrataError naming it and its segment.

    ``shape`` must be a list of two counts, and an ``instance`` echo is
    checked as ``instance_echo``'s, before any segment is decoded.  Files
    that write every start and end load the same way.
    """
    if not isinstance(obj, dict):
        raise StrataError("path is not an object with a shape list")
    if obj.get("instance") is not None:
        _checked_echo(obj["instance"])
    try:
        shape, raw = obj["shape"], obj["segments"]
    except KeyError as exc:
        raise StrataError(f"path is missing field {exc.args[0]!r}") from None
    if not (isinstance(shape, list) and len(shape) == 2 and all(map(_is_count, shape))):
        raise StrataError(f"path shape must be a list of two counts, not {shape!r}")
    if not isinstance(raw, list):
        raise StrataError("path segments must be a list")
    segments = []
    for i, s in enumerate(raw):
        segments.append(_segment_from_obj(s, i, segments[-1] if segments else None))
    return OperatorPath(tuple(segments), tuple(shape))


def _shared_rows(factors: np.ndarray) -> list[str]:
    """The encoded text of each row of ``factors``, one string for rows of the same bytes."""
    texts, out = {}, []
    for row in factors:
        key = row.tobytes()
        if key not in texts:  # encodes each distinct row once
            texts[key] = _encoded(row)
        out.append(texts[key])
    return out


def tangent_basis_to_obj(tb: TangentBasis) -> dict:
    """The point, its rank, the dimension and every basis element in rank-one form.

    The factors are written with 0.0 added, so the file holds no -0.0.
    Elements whose factor rows are bit for bit equal share one string,
    encoded once: at 40x30 rank 15 the 1,650 factor strings are 85
    distinct ones.
    """
    rows, cols = tb.at.shape
    return {
        "at": matrix_to_obj(tb.at.op),
        "k": int(tb.at.k),
        "dim": int(tb.dim),
        "basis": [
            {"rows": rows, "cols": cols, "left": left, "right": right}
            for left, right in zip(_shared_rows(tb.left + 0.0), _shared_rows(tb.right + 0.0))
        ],
    }


def _finite_or_none(x: float) -> float | None:
    """A JSON number, or null for inf and NaN, which strict JSON cannot hold."""
    return x if math.isfinite(x) else None


def _samples_obj(samples: dict[str, list]) -> dict[str, list]:
    """A copy of evidence columns, each inf and NaN in them as null."""
    return {
        name: values if all(map(math.isfinite, values)) else list(map(_finite_or_none, values))
        for name, values in samples.items()
    }


def certificate_to_obj(cert: PathCertificate) -> dict:
    """The certificate's JSON object; its ``samples`` are its columns, one list each."""
    return {
        "instance": cert.instance,
        "grid_size": cert.grid_size,
        "expected_k": cert.expected_k,
        "samples": _samples_obj(cert.samples),
        "endpoint_errors": [_finite_or_none(e) for e in cert.endpoint_errors],
        "verdict": cert.verdict,
        "failures": list(cert.failures),
    }


def audit_to_obj(audit: FlipAudit) -> dict:
    """The audit's JSON object; its ``samples`` are its columns, one list each."""
    return {
        "grid_size": audit.grid_size,
        "degenerate": audit.degenerate,
        "passed": audit.passed,
        "failures": list(audit.failures),
        "samples": _samples_obj(audit.samples),
    }


def instance_to_obj(payload: dict) -> dict:
    obj = {}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            obj[key] = matrix_to_obj(value)
        elif isinstance(value, Subspace):
            obj[key] = subspace_to_obj(value)
        else:
            obj[key] = value
    return obj


def instance_from_obj(obj: dict) -> dict:
    if not isinstance(obj, dict):
        raise StrataError("an instance file must hold a JSON object")
    payload = {}
    for key, value in obj.items():
        payload[key] = value
        if _is_matrix_obj(value):
            decode = subspace_from_obj if value.get("subspace") else matrix_from_obj
            try:
                payload[key] = decode(value)
            except StrataError as exc:
                raise type(exc)(f"instance field {key!r}: {exc}") from None
    return payload


def _has_non_finite(value) -> bool:
    """Whether a JSON value holds a NaN or an infinity, at any depth."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(_has_non_finite, value))
    return isinstance(value, float) and not math.isfinite(value)


def _checked_echo(echo) -> dict:
    """``echo`` itself, once known to be a JSON object of finite numbers.

    A path file and its certificate repeat the echo, and strict JSON holds
    no NaN or infinity, so one raises InputError naming its field.
    """
    if not isinstance(echo, dict):
        raise StrataError("an instance echo must be a JSON object")
    for key, value in echo.items():
        if _has_non_finite(value):
            raise InputError(f"instance field {key!r} holds a non-finite number")
    return echo


def instance_echo(payload: dict) -> dict:
    """The scalar part of an instance payload, for embedding in a path file."""
    return _checked_echo(
        {key: payload[key] for key in ("kind", "m", "n", "k", "seed") if key in payload}
    )


def membership_from_obj(obj: dict):
    """The MembershipSpec of a membership file; a key that names no spec field is refused."""
    if not isinstance(obj, dict):
        raise StrataError("a membership file must hold a JSON object")
    names = [field.name for field in dataclasses.fields(MembershipSpec)]
    unknown = [key for key in obj if key not in names]
    if unknown:
        raise StrataError(f"membership file has unknown fields {unknown}; the fields are {names}")

    def get(key):
        value = obj.get(key)
        if value is None:
            return None
        try:
            return subspace_from_obj(value)
        except StrataError as exc:
            raise StrataError(f"membership field {key!r}: {exc}") from None

    return MembershipSpec(**{name: get(name) for name in names})


def witness_to_obj(w: ChainWitness) -> dict:
    return {
        "kernels": [subspace_to_obj(s) for s in w.kernels],
        "kernel_complements": [subspace_to_obj(s) for s in w.kernel_complements],
        "ranges": [subspace_to_obj(s) for s in w.ranges],
        "range_complements": [subspace_to_obj(s) for s in w.range_complements],
    }


def witness_from_obj(obj: dict) -> ChainWitness:
    return ChainWitness(
        tuple(subspace_from_obj(s) for s in obj["kernels"]),
        tuple(subspace_from_obj(s) for s in obj["kernel_complements"]),
        tuple(subspace_from_obj(s) for s in obj["ranges"]),
        tuple(subspace_from_obj(s) for s in obj["range_complements"]),
    )


def save_json(obj, path) -> None:
    """Write ``obj`` as ``json.dump(obj, f, indent=2, allow_nan=False)`` plus a newline.

    Matrices reach here as base64 strings, so the standard library's
    encoder has few numbers left to format.  The file is written under a
    temporary name beside ``path`` and moved onto it once complete, so a
    write that raises leaves ``path`` as it was.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        # opened with "x" rather than through tempfile.mkstemp, which would make it 0600
        with open(tmp, "x") as f:
            json.dump(obj, f, indent=2, allow_nan=False)
            f.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_json(path):
    with open(path) as f:
        return json.load(f)
