"""JSON encoding of every artifact the tools read or write.

One matrix object is shared repo-wide, in two forms.  The dense form
{"rows": r, "cols": c, "data": [r * c row-major numbers]} is what every
writer uses except the tangent basis.  The rank-one form {"rows": r,
"cols": c, "left": [r numbers], "right": [c numbers]} means
np.outer(left, right) + 0.0; tangent files write each basis element so.
Every reader takes either form.  Subspace files add a "subspace": true
flag and use their ambient dimension as the row count.  Field order is
fixed everywhere so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from json.encoder import encode_basestring_ascii

import numpy as np

from .certify import FlipAudit, PathCertificate, SampleRecord
from .errors import InputError, StrataError
from .geometry import TangentBasis
from .paths import (
    SEGMENT_KINDS,
    ChainWitness,
    OperatorPath,
    PathSegment,
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


def matrix_to_obj(a) -> dict:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": a.ravel().tolist(),
    }


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


_NOT_A_MATRIX = "expected a matrix object with rows, cols and data, or rows, cols, left and right"


def _is_matrix_obj(value) -> bool:
    """Whether ``value`` is meant as a matrix object, in either form."""
    return isinstance(value, dict) and "rows" in value and not value.keys().isdisjoint(
        ("data", "left", "right")
    )


def _numbers(obj: dict, key: str, size: int) -> np.ndarray:
    """The flat list of ``size`` finite numbers under ``key``, as floats.

    JSON files may hold NaN and Infinity, which Python's reader accepts;
    no matrix here can use them.
    """
    values = obj[key]
    if not isinstance(values, list):
        raise StrataError(f"matrix {key} must be a list")
    values = np.asarray(values)
    if values.size and (values.ndim != 1 or values.dtype.kind not in "iuf"):
        raise StrataError(f"matrix {key} must be a flat list of numbers")
    if values.size != size:
        raise InputError(f"matrix {key} length disagrees with its shape")
    values = values.astype(float, copy=False)
    if not np.isfinite(values).all():
        raise InputError(f"matrix {key} holds a non-finite number")
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


def _segment_to_obj(seg: PathSegment, start: dict) -> dict:
    obj = {"kind": seg.kind}
    for key in sorted(seg.payload):
        value = seg.payload[key]
        if key in _SCALAR_KEYS:
            obj[key] = value
        elif key in _VECTOR_KEYS:
            obj[key] = np.asarray(value, dtype=float).ravel().tolist()
        else:
            obj[key] = matrix_to_obj(value)
    obj["start"] = start
    obj["end"] = matrix_to_obj(seg.end)
    return obj


def _segment_from_obj(obj: dict, index: int) -> PathSegment:
    """Decode one segment; a missing or malformed field raises StrataError naming it.

    A field ``a`` from an older layout, which repeated the base point,
    loads only when it equals ``start`` entry for entry, with no tolerance;
    older writers could store 0.0 in ``start`` where ``a`` held -0.0.
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
                payload[key] = np.asarray(value, dtype=float)
            else:
                payload[key] = matrix_from_obj(value)
        except (StrataError, ValueError) as exc:
            error = type(exc) if isinstance(exc, StrataError) else StrataError
            raise error(f"path segment {index} field {key!r}: {exc}") from None
    try:
        kind, start, end = obj["kind"], payload.pop("start"), payload.pop("end")
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


def path_to_obj(p: OperatorPath, instance: dict | None = None) -> dict:
    """The path's shape, its instance echo if given, and its segments.

    A segment whose ``start`` is bit for bit the previous segment's ``end``
    shares that ``data`` list, which ``save_json`` then renders once.  The
    object is read-only: changing one shared list changes both fields.
    """
    obj = {"shape": [int(p.shape[0]), int(p.shape[1])]}
    if instance is not None:
        obj["instance"] = instance
    segments, previous = [], None
    for seg in p.segments:
        if previous is not None and seg.start.tobytes() == previous.end.tobytes():
            start = {**segments[-1]["end"]}  # shares its data list
        else:
            start = matrix_to_obj(seg.start)
        segments.append(_segment_to_obj(seg, start))
        previous = seg
    obj["segments"] = segments
    return obj


def path_from_obj(obj: dict) -> OperatorPath:
    """Load a path; a missing field raises StrataError naming it and its segment.

    ``shape`` must be a list of two counts, and an ``instance`` echo is
    checked as ``instance_echo``'s, before any segment is decoded.
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
    segments = tuple(_segment_from_obj(s, i) for i, s in enumerate(raw))
    return OperatorPath(segments, tuple(shape))


def _shared_rows(factors: np.ndarray) -> list[list]:
    """One list per row of ``factors``, the same list object for rows of the same bytes."""
    lists, out = {}, []
    for row in factors:
        key = row.tobytes()
        if key not in lists:  # converts each distinct row once
            lists[key] = row.tolist()
        out.append(lists[key])
    return out


def tangent_basis_to_obj(tb: TangentBasis) -> dict:
    """The point, its rank, the dimension and every basis element in rank-one form.

    The factors are written with 0.0 added, so the file holds no -0.0.
    Elements whose factor rows are bit for bit equal share one list, which
    ``save_json`` renders once: at 40x30 rank 15 the 1,650 factor lists
    are 85 list objects.  The object is read-only: changing a shared list
    changes every element that holds it.
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


def _sample_to_obj(rec: SampleRecord) -> dict:
    residuals = rec.membership_residuals
    if residuals is not None:
        residuals = {name: _finite_or_none(value) for name, value in residuals.items()}
    return {
        "t": rec.t,
        "segment": rec.segment,
        "local_t": rec.local_t,
        "rank": rec.rank,
        "sigma_k": _finite_or_none(rec.sigma_k),
        "sigma_k_plus_1": _finite_or_none(rec.sigma_k_plus_1),
        "membership_residuals": residuals,
        "ok": rec.ok,
    }


def certificate_to_obj(cert: PathCertificate) -> dict:
    return {
        "instance": cert.instance,
        "grid_size": cert.grid_size,
        "expected_k": cert.expected_k,
        "per_sample": [_sample_to_obj(r) for r in cert.per_sample],
        "endpoint_errors": [_finite_or_none(e) for e in cert.endpoint_errors],
        "verdict": cert.verdict,
        "failures": list(cert.failures),
    }


def audit_to_obj(audit: FlipAudit) -> dict:
    return {
        "grid_size": audit.grid_size,
        "degenerate": audit.degenerate,
        "passed": audit.passed,
        "failures": list(audit.failures),
        "records": [
            {
                **rec,
                "range_condition": _finite_or_none(rec["range_condition"]),
                "kernel_angle": _finite_or_none(rec["kernel_angle"]),
            }
            for rec in audit.records
        ],
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
    from .certify import MembershipSpec

    if not isinstance(obj, dict):
        raise StrataError("a membership file must hold a JSON object")

    def get(key):
        value = obj.get(key)
        if value is None:
            return None
        try:
            return subspace_from_obj(value)
        except StrataError as exc:
            raise StrataError(f"membership field {key!r}: {exc}") from None

    return MembershipSpec(
        range_complement=get("range_complement"),
        kernel_complement=get("kernel_complement"),
        kernel_equals=get("kernel_equals"),
    )


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


_FLOAT_CHUNK = 1 << 14  # floats rendered per string: bounds the memory of a long number list


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _scalar_text(value) -> str | None:
    """JSON text of a non-container value, or None for a list, tuple or dict."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        # a non-string key is written as the string of its JSON text
        return encode_basestring_ascii(_scalar_text(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_floats(write, items, inner: str, outer: str) -> None:
    """Write a nonempty list of exact floats a chunk at a time, each in one C-level pass."""
    sep = "," + inner
    write("[")
    for start in range(0, len(items), _FLOAT_CHUNK):
        chunk = items[start : start + _FLOAT_CHUNK]
        if not all(map(math.isfinite, chunk)):
            for x in chunk:
                _float_text(x)  # raises at the first NaN or infinity
        # join sizes its result once; repr(chunk) would grow it by reallocation,
        # which fragments the heap and raises the peak memory of later work
        write((sep if start else inner) + sep.join(map(repr, chunk)))
    write(outer + "]")


_CONTAINER_TYPES = frozenset((list, tuple, dict))


def _float_lists(obj) -> dict:
    """Map the id of each nonempty list or tuple of exact floats in ``obj`` to a memo.

    The memo of a list that ``obj`` holds more than once is a dict, from
    the indentation the list is written at to its text there; that of a
    list held once is None.  The walk visits each container once, so it
    ends on a circular ``obj`` too.
    """
    floats, seen, stack = {}, set(), [obj]
    while stack:
        value = stack.pop()
        key = id(value)
        if key in seen:
            if key in floats and floats[key] is None:
                floats[key] = {}
            continue
        seen.add(key)
        # by exact type, without a set per dict; a subclass of the container
        # types is written right but not walked
        if isinstance(value, dict):
            items = value.values()
            if _CONTAINER_TYPES.isdisjoint(map(type, items)):
                continue
        else:
            items = value
            types = set(map(type, items))
            if types == {float}:
                floats[key] = None
                continue
            if _CONTAINER_TYPES.isdisjoint(types):
                continue
        stack.extend(v for v in items if type(v) in _CONTAINER_TYPES)
    return floats


def _write_container(write, value, outer: str, open_ids: set, floats: dict) -> None:
    """Write a list, tuple or dict as json.dump(indent=2, allow_nan=False) does.

    ``outer`` is the newline and indentation of the line the container
    opens on, and ``floats`` is ``_float_lists`` of the whole document: a
    list of floats held more than once is rendered once per indentation.
    """
    if not value:
        write("{}" if isinstance(value, dict) else "[]")
        return
    inner = outer + "  "
    if id(value) in floats:
        texts = floats[id(value)]
        if texts is None:
            _write_floats(write, value, inner, outer)
            return
        if outer not in texts:
            parts = []
            _write_floats(parts.append, value, inner, outer)
            texts[outer] = "".join(parts)
        write(texts[outer])
        return
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")
    if isinstance(value, dict):
        items = ((_key_text(k) + ": ", v) for k, v in value.items())
        brackets = "{}"
    else:
        items = (("", v) for v in value)
        brackets = "[]"
    open_ids.add(id(value))
    sep = brackets[0] + inner
    for prefix, item in items:
        text = _scalar_text(item)
        if text is None:
            write(sep + prefix)
            _write_container(write, item, inner, open_ids, floats)
        else:
            write(sep + prefix + text)
        sep = "," + inner
    write(outer + brackets[1])
    open_ids.remove(id(value))


def save_json(obj, path) -> None:
    """Write ``obj`` as ``json.dump(obj, f, indent=2, allow_nan=False)`` plus a newline.

    The bytes are the standard library's; only the speed differs: a list
    of floats is rendered in one pass instead of one token at a time, and
    a list object that ``obj`` holds more than once is rendered once per
    indentation, its text written at every place it occurs.  Objects from
    ``tangent_basis_to_obj`` and ``path_to_obj`` share lists so.  The
    file is written under a temporary name beside ``path`` and moved onto
    it once complete, so a write that raises leaves ``path`` as it was.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        # opened with "x" rather than through tempfile.mkstemp, which would make it 0600
        with open(tmp, "x") as f:
            text = _scalar_text(obj)
            if text is None:
                _write_container(f.write, obj, "\n", set(), _float_lists(obj))
            else:
                f.write(text)
            f.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_json(path):
    with open(path) as f:
        return json.load(f)
