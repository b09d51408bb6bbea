import base64
import dataclasses
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_hyp

from strata import (
    GraphParam,
    MembershipSpec,
    OperatorPath,
    SampleRecord,
    StratumPoint,
    Subspace,
    audit_flip_path,
    certify_path,
    chain_connect,
    connect_fk,
    connect_phi,
    constant_path,
    corrected_flip_path,
    discover_chain,
    eval_path,
    gl_connect,
    literal_flip_path,
    make_segment,
    reverse_path,
    tangent_basis,
)
from strata import serialization as ser
from strata.errors import InputError, StrataError
from strata.paths import eval_segment_batch
from strata.instances import InstanceSpec, gen_instance

from conftest import decimal_copy, decoded_numbers, encoded_numbers, span


class TestMatrixFormat:
    def test_round_trip(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        obj = ser.matrix_to_obj(a)
        # base64 of the six little-endian float64 values, row-major
        assert obj == {"rows": 2, "cols": 3, "data": "AAAAAAAAAAAAAAAAAADwPwAAAAAAAABA"
                                                     "AAAAAAAACEAAAAAAAAAQQAAAAAAAABRA"}
        assert decoded_numbers(obj["data"]) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert np.array_equal(ser.matrix_from_obj(obj), a)
        assert np.array_equal(ser.matrix_from_obj(decimal_copy(obj)), a)

    def test_bad_length(self):
        with pytest.raises(InputError):
            ser.matrix_from_obj({"rows": 2, "cols": 2, "data": [1.0]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": 2, "cols": 2, "left": [1.0], "right": [1.0, 2.0]},
            {"rows": 2, "cols": 2, "left": [1.0, 2.0], "right": [1.0, 2.0, 3.0]},
        ],
        ids=["left", "right"],
    )
    def test_bad_factor_length(self, obj):
        with pytest.raises(InputError):
            ser.matrix_from_obj(obj)

    @pytest.mark.parametrize(
        "left, right",
        [([1.0, -2.0], [0.5, 0.0, -3.0]), ([-0.0, 3], [-1.5]), ([], [1.0, 2.0]), ([1.0], [])],
        ids=["2x3", "ints-and-negative-zero", "no-rows", "no-cols"],
    )
    def test_rank_one_round_trip(self, left, right):
        obj = {"rows": len(left), "cols": len(right), "left": left, "right": right}
        a = ser.matrix_from_obj(obj)
        assert a.dtype == float and a.shape == (len(left), len(right))
        assert a.tobytes() == (np.outer(left, right) + 0.0).tobytes()
        assert not np.signbit(a[a == 0.0]).any()
        assert ser.matrix_from_obj(ser.matrix_to_obj(a)).tobytes() == a.tobytes()

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[1.5, -0.0], [1e-300, 3.0]]),
            np.array([[0.1, 2.0 / 3.0]], dtype=np.float32),
            np.arange(6).reshape(3, 2),
            np.array([-0.0, 0.25, 7.0]),
            np.zeros((4, 0)),
        ],
    )
    def test_data_matches_per_element_floats(self, a):
        """``data`` is the base64 text of the per-element floats' bytes, signed zeros too."""
        old = [float(x) for x in np.asarray(a, dtype=float).ravel(order="C")]
        obj = ser.matrix_to_obj(a)
        assert obj["data"] == encoded_numbers(old)
        assert json.dumps(decoded_numbers(obj["data"])) == json.dumps(old)
        assert ser.matrix_from_obj(obj).tobytes() == np.array(old).tobytes()

    @pytest.mark.parametrize(
        "obj",
        [
            3,
            [1.0],
            {"rows": 1, "cols": 1},
            {"rows": 1, "cols": 1, "data": "1"},
            {"rows": 1, "cols": 1, "data": ["1"]},
            {"rows": 1, "cols": 1, "data": [None]},
            {"rows": 1, "cols": 1, "data": [[1.0]]},
            {"rows": "1", "cols": 1, "data": [1.0]},
            {"rows": -1, "cols": -1, "data": [1.0]},
            {"rows": 1, "cols": 1, "left": [1.0]},
            {"rows": 1, "cols": 1, "right": [1.0]},
            {"rows": 1, "left": [1.0], "right": [1.0]},
            {"rows": 1, "cols": 1, "left": "1", "right": [1.0]},
            {"rows": 1, "cols": 1, "left": [1.0], "right": (1.0,)},
            {"rows": 1, "cols": 1, "left": ["1"], "right": [1.0]},
            {"rows": 1, "cols": 1, "left": [1.0], "right": [None]},
            {"rows": 1, "cols": 1, "left": [[1.0]], "right": [1.0]},
            {"rows": 1, "cols": 1, "left": [True], "right": [1.0]},
            {"rows": 1.0, "cols": 1, "left": [1.0], "right": [1.0]},
            {"rows": 1, "cols": 1, "data": [1.0], "left": [1.0], "right": [1.0]},
            {"rows": 1, "cols": 1, "data": [1.0], "right": [1.0]},
        ],
    )
    def test_non_matrix_rejected(self, obj):
        with pytest.raises(StrataError):
            ser.matrix_from_obj(obj)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["data", "left", "right"])
    def test_non_finite_number_rejected(self, bad, key):
        obj = {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}
        if key != "data":
            obj = {"rows": 2, "cols": 2, "left": [1.0, 2.0], "right": [3.0, 4.0]}
        obj[key][1] = bad
        with pytest.raises(InputError, match=f"matrix {key} holds a non-finite number"):
            ser.matrix_from_obj(obj)

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"rows": 2, "cols": 2, "data": [True, 2.0, 0.0, 1.0]}, "data"),
            ({"rows": 2, "cols": 2, "data": [1.0, 2.0, 0.0, False]}, "data"),
            ({"rows": 2, "cols": 1, "left": [1.0, True], "right": [1.0]}, "left"),
            ({"rows": 1, "cols": 2, "left": [1.0], "right": ["1.0", 2.0]}, "right"),
            ({"rows": 1, "cols": 2, "data": [1.0, [2.0]]}, "data"),
        ],
        ids=["true", "false", "left-bool", "right-string", "nested"],
    )
    def test_booleans_and_strings_are_not_numbers(self, obj, key):
        with pytest.raises(StrataError, match=f"matrix {key} must be a flat list of numbers"):
            ser.matrix_from_obj(obj)

    @staticmethod
    def encoded_obj(key, values) -> dict:
        """A 2x2 matrix object whose field ``key`` is the base64 text ``values``."""
        if key == "data":
            return {"rows": 2, "cols": 2, "data": values}
        return {"rows": 2, "cols": 2, "left": encoded_numbers([1.0, 2.0]),
                "right": encoded_numbers([3.0, 4.0]), key: values}

    @staticmethod
    def stray_bit(text: str) -> str:
        """``text`` with the lowest bit of its last character before the padding
        set: a bit past the last byte, which decoders drop."""
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
        i = len(text.rstrip("=")) - 1
        return text[:i] + alphabet[alphabet.index(text[i]) | 1] + text[i + 1 :]

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: text.replace("A", "-", 1),  # the url-safe alphabet
            lambda text: "*" + text[1:],
            lambda text: " " + text,
            lambda text: text + "\n",
            lambda text: text.rstrip("="),
            lambda text: text + "=",
            lambda text: "AA=A" + text[4:],
            lambda text: TestMatrixFormat.stray_bit(text),
            lambda text: "\u00e9" * len(text),
        ],
        ids=["alphabet", "symbol", "space", "newline", "unpadded", "extra-pad",
             "inner-pad", "stray-bits", "non-ascii"],
    )
    @pytest.mark.parametrize("key", ["data", "left", "right"])
    def test_malformed_base64_rejected(self, key, mangle):
        text = encoded_numbers([1.0, 0.0, 0.0, 1.0] if key == "data" else [3.0, 1.0])
        assert text.endswith("=") and ser.matrix_from_obj(self.encoded_obj(key, text)).size == 4
        with pytest.raises(StrataError, match=f"matrix {key} must be a list of numbers or padded"):
            ser.matrix_from_obj(self.encoded_obj(key, mangle(text)))

    @pytest.mark.parametrize("count", [0, 1, 3, 5])
    @pytest.mark.parametrize("key", ["data", "left", "right"])
    def test_encoded_length_must_match_the_shape(self, key, count):
        """Whole floats too few or too many, or bytes that are no whole float: InputError."""
        for text in (encoded_numbers([0.5] * count),
                     base64.b64encode(bytes(8 * count + 3)).decode("ascii")):
            with pytest.raises(InputError, match=f"matrix {key} length disagrees with its shape"):
                ser.matrix_from_obj(self.encoded_obj(key, text))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["data", "left", "right"])
    def test_encoded_non_finite_number_rejected(self, bad, key):
        values = [1.0, bad, 0.0, 1.0] if key == "data" else [1.0, bad]
        with pytest.raises(InputError, match=f"matrix {key} holds a non-finite number"):
            ser.matrix_from_obj(self.encoded_obj(key, encoded_numbers(values)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_matrix_not_written(self, bad):
        """No writer encodes a number that no reader takes back."""
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            ser.matrix_to_obj(np.array([[1.0, bad]]))

    @pytest.mark.filterwarnings("error")
    def test_rank_one_product_that_overflows_rejected(self):
        """Finite factors whose outer product overflows: InputError, and no numpy warning."""
        obj = {"rows": 2, "cols": 2, "left": [1e200, 1.0], "right": [1e200, 1.0]}
        with pytest.raises(InputError, match="matrix left and right multiply to a non-finite"):
            ser.matrix_from_obj(obj)
        with pytest.raises(InputError, match="instance field 'T1': matrix left and right"):
            ser.instance_from_obj({"kind": "fk-pair", "T1": obj})
        # the largest product that still rounds to a finite number decodes
        near = {"rows": 1, "cols": 2, "left": [1e154], "right": [1e154, -1.0]}
        assert np.isfinite(ser.matrix_from_obj(near)).all()

    def test_non_finite_number_in_a_file_rejected(self):
        """Python's JSON reader takes NaN, Infinity and out-of-range numbers as floats."""
        path = decimal_copy(ser.path_to_obj(connect_fk(np.diag([1.0, 0.0]), np.diag([0.0, 2.0]))))
        for token in ("NaN", "Infinity", "-Infinity", "1e400"):
            text = json.dumps(path).replace("2.0", token, 1)
            with pytest.raises(InputError, match=r"segment \d+ field '\w+': matrix data holds"):
                ser.path_from_obj(json.loads(text))
            matrix = f'{{"rows": 1, "cols": 1, "data": [{token}], "subspace": true}}'
            with pytest.raises(InputError, match="instance field 'T1': matrix data holds"):
                ser.instance_from_obj(json.loads(f'{{"T1": {matrix}}}'))
            with pytest.raises(StrataError, match="field 'kernel_equals': matrix data holds"):
                ser.membership_from_obj(json.loads(f'{{"kernel_equals": {matrix}}}'))

    def test_subspace_flag(self):
        s = span([1, 3])
        obj = ser.subspace_to_obj(s)
        assert obj["subspace"] is True
        assert obj["rows"] == 2
        back = ser.subspace_from_obj(obj)
        assert back.dim == 1

    def test_subspace_orthonormalizes_on_load(self):
        obj = {"rows": 2, "cols": 1, "data": [3.0, 4.0], "subspace": True}
        s = ser.subspace_from_obj(obj)
        assert np.linalg.norm(s.basis[:, 0]) == pytest.approx(1.0)

    def test_zero_subspace(self):
        obj = ser.subspace_to_obj(Subspace.zero(3))
        back = ser.subspace_from_obj(obj)
        assert back.dim == 0 and back.ambient_dim == 3


class TestGraphParam:
    def test_round_trip(self):
        g = GraphParam(span([1, 0]), span([0, 1]), np.array([[2.5]]))
        back = ser.graph_param_from_obj(ser.graph_param_to_obj(g))
        assert np.allclose(back.coeff, g.coeff)


def assert_same_legs(got: OperatorPath, want: OperatorPath) -> None:
    """Equal shapes and legs: kind, payload, start and end, bit for bit."""
    assert got.shape == want.shape and len(got.segments) == len(want.segments)
    for seg, ref in zip(got.segments, want.segments):
        assert seg.kind == ref.kind and seg.payload.keys() == ref.payload.keys()
        for key, value in ref.payload.items():
            if isinstance(value, str):
                assert seg.payload[key] == value
            else:
                assert seg.payload[key].tobytes() == value.tobytes()
        assert seg.start.tobytes() == ref.start.tobytes()
        assert seg.end.tobytes() == ref.end.tobytes()


def _pair(n: int, kind: str = "fk-pair") -> tuple[np.ndarray, np.ndarray]:
    pair = gen_instance(InstanceSpec(m=n, n=n - 1, k=n // 2, seed=3, kind=kind))
    return pair["T1"], pair["T2"]


# every builder whose paths a file may hold, at an (n - 1) x n shape (gl: n x n)
BUILDERS = {
    "fk": lambda n: connect_fk(*_pair(n)),
    "phi": lambda n: connect_phi(*_pair(n, "phi-pair")),
    "chain": lambda n: chain_connect(*_pair(n), discover_chain(*_pair(n))),
    "flip": lambda n: corrected_flip_path(_pair(n)[0]),
    "gl": lambda n: gl_connect(np.random.default_rng(3).standard_normal((n, n)))[0],
    "reversed": lambda n: reverse_path(connect_fk(*_pair(n))),
}


class TestPathFormat:
    def test_round_trip_every_kind(self, rng):
        """A connect_fk path holds both kinds, affine and rotation; all legs round-trip."""
        t1 = rng.uniform(-1, 1, (3, 2)) @ rng.uniform(-1, 1, (2, 4))
        t2 = rng.uniform(-1, 1, (3, 2)) @ rng.uniform(-1, 1, (2, 4))
        p = connect_fk(t1, t2)
        assert {s.kind for s in p.segments} == {"affine", "rotation"}
        obj = ser.path_to_obj(p, instance={"seed": 1})
        back = ser.path_from_obj(obj)
        for t in np.linspace(0, 1, 23):
            assert np.allclose(eval_path(back, t), eval_path(p, t), atol=1e-12)
        assert obj["instance"] == {"seed": 1}

    def test_gl_path_round_trip(self, rng):
        a = rng.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        p, _ = gl_connect(a)
        back = ser.path_from_obj(ser.path_to_obj(p))
        for t in np.linspace(0, 1, 11):
            assert np.allclose(eval_path(back, t), eval_path(p, t), atol=1e-12)

    def test_json_serializable(self, rng, tmp_path):
        t1 = rng.uniform(-1, 1, (2, 1)) @ rng.uniform(-1, 1, (1, 2))
        t2 = rng.uniform(-1, 1, (2, 1)) @ rng.uniform(-1, 1, (1, 2))
        p = connect_fk(t1, t2)
        f = tmp_path / "p.json"
        ser.save_json(ser.path_to_obj(p), f)
        loaded = json.loads(f.read_text())
        assert loaded["shape"] == [2, 2]

    def test_segments_store_no_base_point_copy(self, rng):
        """No field "a"; a start on the first leg only, an end on the last only."""
        t1 = rng.uniform(-1, 1, (3, 2)) @ rng.uniform(-1, 1, (2, 4))
        t2 = rng.uniform(-1, 1, (3, 2)) @ rng.uniform(-1, 1, (2, 4))
        for p in (connect_fk(t1, t2), reverse_path(connect_fk(t1, t2))):
            segments = ser.path_to_obj(p)["segments"]
            last = len(segments) - 1
            assert [list(seg) for seg in segments] == [
                (["kind", "b"] if seg["kind"] == "affine" else ["kind", "side", "theta", "z"])
                + ["start"] * (i == 0)
                + ["end"] * (i == last and "end" in seg)
                for i, seg in enumerate(segments)
            ]
            assert np.array_equal(ser.path_from_obj({"shape": [3, 4], "segments": segments}).end,
                                  p.end)

    @staticmethod
    def every_end_obj(p, base_copy=False) -> dict:
        """``p`` in the older layout: every start and end, and field "a" if asked."""
        obj = ser.path_to_obj(p)
        segments = []
        for seg, written in zip(p.segments, obj["segments"]):
            a = {"a": ser.matrix_to_obj(seg.start)} if base_copy else {}
            motion = {k: v for k, v in written.items() if k not in ("start", "end")}
            segments.append({**a, **motion, "start": ser.matrix_to_obj(seg.start),
                             "end": ser.matrix_to_obj(seg.end)})
        return {**obj, "segments": segments}

    def test_older_layout_with_base_point_copy_loads(self, rng):
        """Files that wrote every start and end and repeated the start as "a" load to the same path."""
        t1 = rng.uniform(-1, 1, (3, 2)) @ rng.uniform(-1, 1, (2, 4))
        t2 = rng.uniform(-1, 1, (3, 2)) @ rng.uniform(-1, 1, (2, 4))
        p = connect_fk(t1, t2)
        obj, old = ser.path_to_obj(p), self.every_end_obj(p, base_copy=True)
        assert all({"a", "start", "end"} <= set(seg) for seg in old["segments"])
        back, want = ser.path_from_obj(old), ser.path_from_obj(obj)
        assert ser.path_to_obj(back) == obj
        for seg, ref in zip(back.segments, want.segments):
            assert np.array_equal(eval_segment_batch(seg, np.linspace(0, 1, 7)),
                                  eval_segment_batch(ref, np.linspace(0, 1, 7)))

    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "reversed"])
    def test_older_layout_gives_the_same_certificate(self, reverse):
        """20x20: a file with every start and end loads to the built path, bit for bit."""
        pair = gen_instance(InstanceSpec(m=20, n=20, k=10, seed=1, kind="fk-pair"))
        p = connect_fk(pair["T1"], pair["T2"])
        p = reverse_path(p) if reverse else p
        back = ser.path_from_obj(json.loads(json.dumps(self.every_end_obj(p))))
        assert_same_legs(back, p)
        assert ser.path_to_obj(back) == ser.path_to_obj(p)
        assert ser.certificate_to_obj(certify_path(back, 10, grid=1001)) == (
            ser.certificate_to_obj(certify_path(p, 10, grid=1001))
        )

    def test_rank_one_field_loads_to_the_same_path(self, rng):
        """A segment field written in rank-one form loads as its dense twin."""
        left, right = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 4)
        t1 = rng.uniform(-1, 1, (3, 1)) @ rng.uniform(-1, 1, (1, 4))
        t2 = np.outer(left, right) + 0.0
        obj = ser.path_to_obj(connect_fk(t1, t2))  # from t2 to t1
        assert obj["segments"][0]["start"] == ser.matrix_to_obj(t2)
        first = {**obj["segments"][0], "start": {"rows": 3, "cols": 4, "left": list(left),
                                                 "right": list(right)}}
        back = ser.path_from_obj({**obj, "segments": [first, *obj["segments"][1:]]})
        assert ser.path_to_obj(back) == obj

    def test_interior_joins_are_left_out(self, rng):
        """Each leg starts at the previous leg's end and, but for the last, ends at
        its own value: no later start and no interior end is written, and the
        loaded legs are the built ones, bit for bit."""
        t1 = rng.uniform(-1, 1, (5, 3)) @ rng.uniform(-1, 1, (3, 4))
        t2 = rng.uniform(-1, 1, (5, 3)) @ rng.uniform(-1, 1, (3, 4))
        for p in (connect_fk(t1, t2), reverse_path(connect_fk(t1, t2))):
            obj = ser.path_to_obj(p)
            segments = obj["segments"]
            assert len(segments) >= 3
            assert ["start" in seg for seg in segments] == [True] + [False] * (len(segments) - 1)
            assert not any("end" in seg for seg in segments[:-1])
            back = ser.path_from_obj(json.loads(json.dumps(obj)))
            assert_same_legs(back, p)
            assert ser.path_to_obj(back) == obj

    def test_start_kept_when_bits_differ(self):
        """A start that equals the previous end only up to the sign of a zero keeps its own field."""
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        first = make_segment("affine", {"b": np.zeros((2, 2))}, a)
        second = make_segment("affine", {"b": np.eye(2)}, np.array([[1.0, -0.0], [0.0, 0.0]]))
        p = OperatorPath((first, second), (2, 2))
        segments = ser.path_to_obj(p)["segments"]
        assert "start" in segments[1]
        assert math.copysign(1.0, decoded_numbers(segments[1]["start"]["data"])[1]) < 0
        assert_same_legs(ser.path_from_obj(ser.path_to_obj(p)), p)

    def test_end_kept_when_bits_differ(self):
        """A declared end that is not bit for bit the leg's own value keeps its field."""
        a, b = np.array([[0.1, 0.0], [0.0, 1.0]]), np.array([[0.2, 0.0], [0.0, 0.0]])
        own = a + b  # 0.1 + 0.2 is 0.30000000000000004
        declared = np.array([[0.3, 0.0], [0.0, 1.0]])
        assert not np.array_equal(own, declared)
        leg = make_segment("affine", {"b": b}, a, declared)
        nxt = make_segment("affine", {"b": -b}, declared)
        p = OperatorPath((leg, nxt), (2, 2))
        segments = ser.path_to_obj(p)["segments"]
        assert decoded_numbers(segments[0]["end"]["data"]) == [0.3, 0.0, 0.0, 1.0]
        assert "start" not in segments[1]
        assert_same_legs(ser.path_from_obj(ser.path_to_obj(p)), p)

    def test_first_segment_needs_a_start(self):
        obj = ser.path_to_obj(constant_path(np.eye(3)))
        del obj["segments"][0]["start"]
        with pytest.raises(StrataError, match="path segment 0 is missing field 'start'"):
            ser.path_from_obj(obj)

    @pytest.mark.parametrize("n", [4, 20])
    @pytest.mark.parametrize("build", sorted(BUILDERS))
    def test_every_builder_round_trips(self, build, n):
        """The file of every builder's path reloads to it, bit for bit, and writes the same file."""
        p = BUILDERS[build](n)
        obj = json.loads(json.dumps(ser.path_to_obj(p)))
        back = ser.path_from_obj(obj)
        assert_same_legs(back, p)
        assert ser.path_to_obj(back) == obj

    @pytest.mark.parametrize("n", [4, 20])
    @pytest.mark.parametrize("build", sorted(BUILDERS))
    def test_decimal_copy_of_every_builder_loads_the_same(self, build, n):
        """A file of every builder's path with its matrices as decimal lists, as
        written before the base64 encoding, loads to the same legs bit for bit."""
        obj = ser.path_to_obj(BUILDERS[build](n))
        old = json.loads(json.dumps(decimal_copy(obj)))
        assert not [seg for seg in old["segments"] for v in seg.values()
                    if isinstance(v, dict) and isinstance(v["data"], str)]
        assert_same_legs(ser.path_from_obj(old), ser.path_from_obj(obj))
        assert ser.path_to_obj(ser.path_from_obj(old)) == obj

    @pytest.mark.parametrize(
        "field, mangle",
        [
            ("theta", lambda theta: [repr(x) for x in theta]),
            ("theta", lambda theta: [True] * len(theta)),
            ("theta", lambda theta: [[x] for x in theta]),
            ("theta", lambda theta: [None] * len(theta)),
            ("theta", lambda theta: repr(theta)),
            ("z", lambda z: {**z, "data": [True] + decoded_numbers(z["data"])[1:]}),
        ],
        ids=["theta-string", "theta-bool", "theta-nested", "theta-null", "theta-text", "z-bool"],
    )
    def test_non_number_in_a_segment_rejected(self, field, mangle):
        """theta is read by the number-list rule of matrix data: no bool, string or nested list."""
        p = connect_fk(np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 0.0, 0.0, 2.0]))
        obj = ser.path_to_obj(p)
        index = next(i for i, seg in enumerate(obj["segments"]) if seg["kind"] == "rotation")
        segment = obj["segments"][index]
        segment[field] = mangle(segment[field])
        with pytest.raises(StrataError, match=f"path segment {index} field '{field}': "):
            ser.path_from_obj(obj)

    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "reversed"])
    @pytest.mark.parametrize("n", [20, 100])
    def test_loaded_path_certifies_as_built(self, n, reverse):
        """Arrays of a built path are C-ordered, as loaded ones are: both certify to the same bytes."""
        pair = gen_instance(InstanceSpec(m=n, n=n, k=n // 2, seed=1, kind="fk-pair"))
        p = connect_fk(pair["T1"], pair["T2"])
        p = reverse_path(p) if reverse else p
        back = ser.path_from_obj(ser.path_to_obj(p))
        for seg in p.segments:
            assert all(v.flags.c_contiguous for v in (seg.start, seg.end, *seg.payload.values())
                       if isinstance(v, np.ndarray))
        assert ser.certificate_to_obj(certify_path(back, n // 2, grid=1001)) == (
            ser.certificate_to_obj(certify_path(p, n // 2, grid=1001))
        )

    @pytest.mark.parametrize(
        "shape", [[3.9, 3.2], ["3", "3"], [3, "x"]], ids=["floats", "strings", "non-number"]
    )
    def test_shape_must_be_two_counts(self, shape):
        obj = ser.path_to_obj(constant_path(np.eye(3)))
        with pytest.raises(StrataError, match="path shape must be a list of two counts"):
            ser.path_from_obj({**obj, "shape": shape})


class TestInstancePayload:
    def test_matrix_payload(self):
        payload = gen_instance(InstanceSpec(m=2, n=3, k=1, seed=4, kind="fk-pair"))
        obj = ser.instance_to_obj(payload)
        back = ser.instance_from_obj(obj)
        assert np.array_equal(back["T1"], payload["T1"])
        assert back["kind"] == "fk-pair"
        old = ser.instance_from_obj(json.loads(json.dumps(decimal_copy(obj))))
        assert [old[key].tobytes() for key in ("T1", "T2")] == [
            back[key].tobytes() for key in ("T1", "T2")
        ]
        assert ser.instance_echo(payload) == {
            "kind": "fk-pair",
            "m": 2,
            "n": 3,
            "k": 1,
            "seed": 4,
        }

    def test_subspace_payload(self):
        payload = gen_instance(InstanceSpec(m=3, n=3, k=2, seed=4, kind="subspace-pair"))
        obj = ser.instance_to_obj(payload)
        back = ser.instance_from_obj(obj)
        assert isinstance(back["E1"], Subspace)
        old = ser.instance_from_obj(json.loads(json.dumps(decimal_copy(obj))))
        for key in ("E1", "E2"):
            assert old[key].basis.tobytes() == back[key].basis.tobytes()


    def test_rank_one_matrix_payload(self):
        """A rank-one matrix object decodes to its matrix and is not passed on as a dict."""
        factors = {"rows": 2, "cols": 3, "left": [1.0, -2.0], "right": [0.5, 0.0, 4.0]}
        back = ser.instance_from_obj({"kind": "fk-pair", "T1": factors})
        assert isinstance(back["T1"], np.ndarray)
        assert np.array_equal(back["T1"], np.outer([1.0, -2.0], [0.5, 0.0, 4.0]))
        with pytest.raises(StrataError):
            ser.instance_from_obj({"T1": {**factors, "data": [0.0] * 6}})


class TestWitness:
    def test_round_trip(self, rng):
        t1 = rng.uniform(-1, 1, (2, 1)) @ rng.uniform(-1, 1, (1, 2))
        t2 = rng.uniform(-1, 1, (2, 1)) @ rng.uniform(-1, 1, (1, 2))
        w = discover_chain(t1, t2)
        obj = ser.witness_to_obj(w)
        back = ser.witness_from_obj(obj)
        assert back.kernel_complements[0].dim == w.kernel_complements[0].dim
        old = ser.witness_from_obj(json.loads(json.dumps(decimal_copy(obj))))
        for field in ("kernels", "kernel_complements", "ranges", "range_complements"):
            assert [s.basis.tobytes() for s in getattr(old, field)] == [
                s.basis.tobytes() for s in getattr(back, field)
            ]


def _point_40x30(seed=0) -> StratumPoint:
    """A 40x30 rank-15 point, as the tangent benchmark draws its largest shape."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((40, 15)))
    v, _ = np.linalg.qr(rng.standard_normal((30, 15)))
    return StratumPoint.at(u @ np.diag(rng.uniform(0.5, 1.5, 15)) @ v.T)


class TestTangentFormat:
    def test_schema(self):
        tb = tangent_basis(StratumPoint.at(np.array([[1.0, 0.0], [0.0, 0.0]])))
        obj = ser.tangent_basis_to_obj(tb)
        assert list(obj.keys()) == ["at", "k", "dim", "basis"]
        assert obj["dim"] == 3 and len(obj["basis"]) == 3
        assert [list(b) for b in obj["basis"]] == [["rows", "cols", "left", "right"]] * 3

    def test_dense_elements_still_load(self):
        """A tangent file of dense elements, as older writers made, decodes to the same basis."""
        tb = tangent_basis(StratumPoint.at(np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0]])))
        dense = [ser.matrix_to_obj(b) for b in tb.basis]
        rank_one = ser.tangent_basis_to_obj(tb)["basis"]
        for old, new in zip(dense, rank_one, strict=True):
            assert ser.matrix_from_obj(old).tobytes() == ser.matrix_from_obj(new).tobytes()

    def test_decimal_copy_loads_the_same(self):
        """A tangent file with decimal factor lists, as written before the base64
        encoding, decodes to the same point and elements bit for bit."""
        obj = ser.tangent_basis_to_obj(tangent_basis(_point_40x30()))
        old = json.loads(json.dumps(decimal_copy(obj)))
        assert isinstance(old["basis"][0]["left"], list)
        assert ser.matrix_from_obj(old["at"]).tobytes() == ser.matrix_from_obj(obj["at"]).tobytes()
        for was, now in zip(old["basis"], obj["basis"], strict=True):
            assert ser.matrix_from_obj(was).tobytes() == ser.matrix_from_obj(now).tobytes()

    def test_equal_factor_rows_share_one_list(self):
        """At 40x30 rank 15 the 1,650 factor strings are 85 string objects: rows + k + cols."""
        tb = tangent_basis(_point_40x30())
        obj = ser.tangent_basis_to_obj(tb)
        lefts = [b["left"] for b in obj["basis"]]
        rights = [b["right"] for b in obj["basis"]]
        assert len(lefts) + len(rights) == 1650
        assert len({id(x) for x in lefts}) == len(set(lefts)) == 40 + 15
        assert len({id(x) for x in rights}) == len(set(rights)) == 15 + 15
        assert [decoded_numbers(x) for x in lefts] == (tb.left + 0.0).tolist()
        assert [decoded_numbers(x) for x in rights] == (tb.right + 0.0).tolist()

    def test_file_object_memory_at_40x30(self):
        """Basis and file object of a 40x30 rank-15 point, without the 7.9 MB dense stack."""
        x = _point_40x30()
        tracemalloc.start()
        try:
            obj = ser.tangent_basis_to_obj(tangent_basis(x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert obj["dim"] == 825
        assert peak < 4e6, peak  # the dense elements alone: 825 * 40 * 30 * 8 = 7.92e6 bytes


class TestMembership:
    def test_partial_spec(self):
        obj = {"range_complement": ser.subspace_to_obj(span([0, 1]))}
        m = ser.membership_from_obj(obj)
        assert m.range_complement is not None
        assert m.kernel_complement is None and m.kernel_equals is None

    @pytest.mark.parametrize("key", ["kernel_equal", "range", "Kernel_equals", ""])
    def test_unknown_key_rejected(self, key):
        # a misspelled field would otherwise drop its check without a word
        sub = ser.subspace_to_obj(span([0, 1]))
        with pytest.raises(StrataError, match=re.escape(repr(key))):
            ser.membership_from_obj({"range_complement": sub, key: sub})
        with pytest.raises(StrataError, match="'kernel_equals'"):  # the fields are listed
            ser.membership_from_obj({key: None})

    def test_every_field_with_null_taken(self):
        obj = dict.fromkeys(("range_complement", "kernel_complement", "kernel_equals"))
        assert ser.membership_from_obj(obj) == MembershipSpec()


def _finite_or_none(x):
    return x if math.isfinite(x) else None


def _certificate_obj_from_records(cert) -> dict:
    """The reference writer: the certificate object built from its records,
    one value at a time, in the writer's column order."""
    records = cert.per_sample
    checks = list(records[0].membership_residuals or {})
    names = ("t", "segment", "local_t", "rank", "sigma_k", "sigma_k_plus_1")
    samples = {name: [getattr(r, name) for r in records] for name in names}
    for name in ("sigma_k", "sigma_k_plus_1"):
        samples[name] = [_finite_or_none(x) for x in samples[name]]
    for name in checks:
        samples[name] = [_finite_or_none(r.membership_residuals[name]) for r in records]
    samples["ok"] = [r.ok for r in records]
    return {
        "instance": cert.instance,
        "grid_size": cert.grid_size,
        "expected_k": cert.expected_k,
        "samples": samples,
        "endpoint_errors": [_finite_or_none(e) for e in cert.endpoint_errors],
        "verdict": cert.verdict,
        "failures": list(cert.failures),
    }


def _audit_obj_from_values(audit) -> dict:
    """The reference writer: the audit object built one value at a time."""
    return {
        "grid_size": audit.grid_size,
        "degenerate": audit.degenerate,
        "passed": audit.passed,
        "failures": list(audit.failures),
        "samples": {
            name: [_finite_or_none(x) if type(x) is float else x for x in column]
            for name, column in audit.samples.items()
        },
    }


def _flip_path():
    e_star, r = span([1, 0, 0]), span([0, 1, 0], [0, 0, 1])
    coeff = r.basis.T @ np.array([[0, 0, 0], [1, 0, 0], [0.5, 0, 0]]) @ e_star.basis
    return literal_flip_path(e_star, r, GraphParam(e_star, r, coeff)), r


class TestEvidenceFormat:
    """Certificates and audits are written as their columns, one list each;
    the objects equal those written one value at a time, in values, types
    and key order."""

    @staticmethod
    def _assert_same_text(obj, reference):
        assert obj == reference
        assert json.dumps(obj, indent=2, allow_nan=False) == json.dumps(
            reference, indent=2, allow_nan=False
        )

    def certificates(self):
        payload = gen_instance(InstanceSpec(m=4, n=3, k=2, seed=5, kind="fk-pair"))
        path = connect_fk(payload["T1"], payload["T2"])
        flip, r = _flip_path()
        # kernel of diag(1, 0, 0) is a plane: its angle to a line is inf
        plane_kernel, line = constant_path(np.diag([1.0, 0.0, 0.0])), span([0, 0, 1])
        return [
            certify_path(path, 2, grid=101, instance={"seed": 5}),
            certify_path(path, 1, grid=101),
            certify_path(path, 0, grid=11),
            certify_path(flip, 1, grid=101, membership=MembershipSpec(r, r, r)),
            certify_path(plane_kernel, 1, grid=11, membership=MembershipSpec(span([1, 0, 0]))),
            certify_path(plane_kernel, 1, grid=11, membership=MembershipSpec(kernel_equals=line)),
        ]

    def test_certificates(self):
        certs = self.certificates()
        # a singular direct sum has condition number inf
        inf = float("inf")
        assert certs[4].per_sample[0].membership_residuals == {"range_complement_cond": inf}
        assert certs[5].per_sample[0].membership_residuals == {"kernel_angle": inf}
        for cert in certs:
            obj = ser.certificate_to_obj(cert)
            self._assert_same_text(obj, _certificate_obj_from_records(cert))
            assert {len(column) for column in obj["samples"].values()} == {cert.grid_size}
        for cert, name in ((certs[4], "range_complement_cond"), (certs[5], "kernel_angle")):
            obj = ser.certificate_to_obj(cert)
            assert obj["samples"][name] == [None] * 11

    def test_audits(self):
        flip, r = _flip_path()
        audits = [
            audit_flip_path(flip, (r, r), grid=101),
            # a kernel of the wrong dimension: angle inf at every sample
            audit_flip_path(constant_path(np.diag([1.0, 0.0, 0.0])), (span([0, 0, 1]), r), grid=3),
            # the zero path: degenerate, every check holds
            audit_flip_path(constant_path(np.zeros((3, 3))), (span([1, 0, 0]), r), grid=11),
        ]
        assert 0.5 in audits[0].failures
        assert audits[1].samples["kernel_angle"] == [float("inf")] * 3
        assert audits[2].degenerate and audits[2].passed
        for audit in audits:
            self._assert_same_text(ser.audit_to_obj(audit), _audit_obj_from_values(audit))
        assert ser.audit_to_obj(audits[1])["samples"]["kernel_angle"] == [None] * 3

    def test_built_from_records(self):
        # a certificate whose columns are rebuilt from its records is written the same way
        flip, r = _flip_path()
        cert = certify_path(flip, 1, grid=101, membership=MembershipSpec(r, r, r))
        records = cert.per_sample
        columns = {
            name: [getattr(rec, name) for rec in records]
            for name in SampleRecord._fields
            if name != "membership_residuals"
        }
        for name in records[0].membership_residuals:
            columns[name] = [rec.membership_residuals[name] for rec in records]
        columns["ok"] = columns.pop("ok")
        copy = dataclasses.replace(cert, samples=columns)
        self._assert_same_text(ser.certificate_to_obj(copy), ser.certificate_to_obj(cert))


def stdlib_text(obj) -> str:
    """The reference encoding: json.dump(obj, f, indent=2, allow_nan=False) plus a newline."""
    buf = io.StringIO()
    json.dump(obj, buf, indent=2, allow_nan=False)
    buf.write("\n")
    return buf.getvalue()


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308, -1e308]
finite_floats = (
    st_hyp.floats(allow_nan=False, allow_infinity=False) | st_hyp.sampled_from(EDGE_FLOATS)
)
json_floats = finite_floats | finite_floats.map(np.float64)
json_chars = st_hyp.sampled_from('a"\\/\n\t\x00\x1f\x7fé€\u2028😀') | st_hyp.characters()
json_text = st_hyp.text(json_chars)
json_keys = json_text | st_hyp.integers() | finite_floats | st_hyp.booleans() | st_hyp.none()
json_scalars = (
    st_hyp.none() | st_hyp.booleans() | st_hyp.integers() | st_hyp.integers(min_value=2**64)
    | json_floats | json_text
)
json_values = st_hyp.recursive(
    json_scalars
    | st_hyp.lists(finite_floats, max_size=30)
    | st_hyp.lists(finite_floats, max_size=5).map(tuple)
    | st_hyp.lists(json_floats | st_hyp.integers(), max_size=10),
    lambda inner: (
        st_hyp.lists(inner, max_size=5)
        | st_hyp.lists(inner, max_size=5).map(tuple)
        | st_hyp.dictionaries(json_keys, inner, max_size=5)
    ),
    max_leaves=40,
)


@st_hyp.composite
def shared_float_docs(draw):
    """A document that holds one float list object at two depths, beside an equal-valued
    twin that differs in the sign of its zeros."""
    values = draw(st_hyp.lists(finite_floats, min_size=1, max_size=12)) + [0.0]
    shared = values if draw(st_hyp.booleans()) else tuple(values)
    twin = [-x if x == 0.0 else x for x in values]
    tree = draw(
        st_hyp.recursive(
            json_scalars | st_hyp.sampled_from([shared, twin]),
            lambda inner: st_hyp.lists(inner, max_size=3)
            | st_hyp.dictionaries(json_text, inner, max_size=3),
            max_leaves=8,
        )
    )
    return {"shared": shared, "tree": tree, "deeper": [twin, {"shared": [shared]}, shared]}


class TestSaveJson:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(obj=json_values)
    def test_bytes_match_the_standard_library(self, obj, tmp_path_factory):
        out = tmp_path_factory.getbasetemp() / "oracle.json"
        ser.save_json(obj, out)
        assert out.read_bytes() == stdlib_text(obj).encode("ascii")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(obj=shared_float_docs())
    def test_shared_lists_match_the_standard_library(self, obj, tmp_path_factory):
        out = tmp_path_factory.getbasetemp() / "shared.json"
        ser.save_json(obj, out)
        assert out.read_bytes() == stdlib_text(obj).encode("ascii")

    @staticmethod
    def encodes(monkeypatch):
        """Record the size of every array the writers encode."""
        seen = []
        encoded = ser._encoded

        def spied(values):
            seen.append(np.size(values))
            return encoded(values)

        monkeypatch.setattr(ser, "_encoded", spied)
        return seen

    def test_tangent_renders_each_factor_list_once(self, monkeypatch, tmp_path):
        """40x30 rank 15: 85 distinct factor strings encoded, not 1,650, plus the point's data."""
        seen = self.encodes(monkeypatch)
        obj = ser.tangent_basis_to_obj(tangent_basis(_point_40x30()))
        assert sorted(seen) == sorted([30] * 30 + [40] * 55 + [1200])
        ser.save_json(obj, tmp_path / "tangent.json")
        assert (tmp_path / "tangent.json").read_text() == stdlib_text(obj)
        loaded = json.loads((tmp_path / "tangent.json").read_text())
        factors = [decoded_numbers(b[key]) for b in loaded["basis"] for key in ("left", "right")]
        assert sum(map(len, factors)) == 57750

    def test_path_renders_each_join_once(self, tmp_path):
        """A 3-leg 100x100 connect_fk path: 5 data strings, the motions, the first
        start and the last end, each decoding to 10,000 floats, and the two theta
        lists; no join is written."""
        pair = gen_instance(InstanceSpec(m=100, n=100, k=50, seed=1, kind="fk-pair"))
        obj = ser.path_to_obj(connect_fk(pair["T1"], pair["T2"]))
        assert [list(seg)[-1] for seg in obj["segments"]] == ["start", "z", "end"]
        ser.save_json(obj, tmp_path / "path.json")
        text = (tmp_path / "path.json").read_text()
        assert text == stdlib_text(obj)
        segments = json.loads(text)["segments"]
        data = [v["data"] for seg in segments for v in seg.values() if isinstance(v, dict)]
        assert len(data) == 5 and all(isinstance(d, str) for d in data)
        assert [len(decoded_numbers(d)) for d in data] == [100 * 100] * 5
        thetas = [seg["theta"] for seg in segments if "theta" in seg]
        assert len(thetas) == 2 and sum(map(len, thetas)) == 100
        assert all(type(x) is float for theta in thetas for x in theta)

    def test_number_list_longer_than_a_chunk(self, tmp_path):
        """A decimal list of more numbers than the writer once took at a time."""
        values = [k / 7.0 for k in range(2 * (1 << 14) + 3)]
        obj = {"data": values, "tail": [[values[:5]], values]}
        ser.save_json(obj, tmp_path / "long.json")
        assert (tmp_path / "long.json").read_text() == stdlib_text(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            float("nan"),
            [1.0, float("inf")],
            {"a": [0.5] * ((1 << 14) + 1) + [-math.inf]},
            [2, float("nan")],
            {"x": np.float64("nan")},
            {float("inf"): 1},
            np.int64(1),
            {"x": [1.0, np.int64(1)]},
            {(1,): 2},
            [{"ok": 1.0}, object()],
        ],
        ids=[
            "nan", "inf-in-float-list", "inf-in-second-chunk", "nan-in-mixed-list",
            "np-nan", "inf-key", "np-int64", "np-int64-in-list", "tuple-key", "object",
        ],
    )
    def test_errors_match_the_standard_library(self, obj, tmp_path):
        with pytest.raises((ValueError, TypeError)) as expected:
            stdlib_text(obj)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            ser.save_json(obj, tmp_path / "out.json")

    def test_circular_reference_rejected(self, tmp_path):
        obj = {"a": []}
        obj["a"].append(obj)
        with pytest.raises(ValueError, match="Circular reference detected"):
            ser.save_json(obj, tmp_path / "out.json")

    @pytest.mark.parametrize(
        "bad",
        [{"x": [1.0] * 1000 + [float("inf")]}, {"x": [1.0] * 1000, "y": np.int64(3)}],
        ids=["inf", "np-int64"],
    )
    def test_failed_write_leaves_no_partial_file(self, bad, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises((ValueError, TypeError)):
            ser.save_json(bad, out)
        assert list(tmp_path.iterdir()) == []
        ser.save_json({"y": 1}, out)
        before = out.read_bytes()
        with pytest.raises((ValueError, TypeError)):
            ser.save_json(bad, out)
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]
