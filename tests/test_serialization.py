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
    OperatorPath,
    StratumPoint,
    Subspace,
    connect_fk,
    constant_path,
    discover_chain,
    eval_path,
    gl_connect,
    make_segment,
    reverse_path,
    tangent_basis,
)
from strata import serialization as ser
from strata.errors import InputError, StrataError
from strata.paths import eval_segment_batch
from strata.instances import InstanceSpec, gen_instance

from conftest import span


class TestMatrixFormat:
    def test_round_trip(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        obj = ser.matrix_to_obj(a)
        assert obj == {"rows": 2, "cols": 3, "data": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}
        assert np.array_equal(ser.matrix_from_obj(obj), a)

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
        old = [float(x) for x in np.asarray(a, dtype=float).ravel(order="C")]
        obj = ser.matrix_to_obj(a)
        assert json.dumps(obj["data"]) == json.dumps(old)
        assert all(type(x) is float for x in obj["data"])

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
        path = ser.path_to_obj(connect_fk(np.diag([1.0, 0.0]), np.diag([0.0, 2.0])))
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
        t1 = rng.uniform(-1, 1, (3, 2)) @ rng.uniform(-1, 1, (2, 4))
        t2 = rng.uniform(-1, 1, (3, 2)) @ rng.uniform(-1, 1, (2, 4))
        obj = ser.path_to_obj(connect_fk(t1, t2))
        assert [list(seg) for seg in obj["segments"]] == [
            ["kind", "b", "start", "end"]
            if seg["kind"] == "affine"
            else ["kind", "side", "theta", "z", "start", "end"]
            for seg in obj["segments"]
        ]

    def test_older_layout_with_base_point_copy_loads(self, rng):
        """Files that repeated the start as field "a" load to the same path."""
        t1 = rng.uniform(-1, 1, (3, 2)) @ rng.uniform(-1, 1, (2, 4))
        t2 = rng.uniform(-1, 1, (3, 2)) @ rng.uniform(-1, 1, (2, 4))
        obj = ser.path_to_obj(connect_fk(t1, t2))
        segments = [{"kind": s["kind"], "a": s["start"], **s} for s in obj["segments"]]
        old = {**obj, "segments": segments}
        assert all("a" in seg for seg in old["segments"])
        back, want = ser.path_from_obj(old), ser.path_from_obj(obj)
        assert ser.path_to_obj(back) == obj
        for seg, ref in zip(back.segments, want.segments):
            assert np.array_equal(eval_segment_batch(seg, np.linspace(0, 1, 7)),
                                  eval_segment_batch(ref, np.linspace(0, 1, 7)))


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

    def test_joins_share_the_data_list(self, rng):
        """Each leg's start is the previous leg's end bit for bit, and shares its data list."""
        t1 = rng.uniform(-1, 1, (5, 3)) @ rng.uniform(-1, 1, (3, 4))
        t2 = rng.uniform(-1, 1, (5, 3)) @ rng.uniform(-1, 1, (3, 4))
        for p in (connect_fk(t1, t2), reverse_path(connect_fk(t1, t2))):
            segments = ser.path_to_obj(p)["segments"]
            assert len(segments) >= 3
            for before, seg in zip(segments, segments[1:]):
                assert seg["start"]["data"] is before["end"]["data"]
                assert seg["start"] is not before["end"]
            assert ser.path_to_obj(ser.path_from_obj(json.loads(json.dumps(
                ser.path_to_obj(p))))) == ser.path_to_obj(p)

    def test_join_shared_only_when_bits_agree(self):
        """A start that equals the previous end only up to the sign of a zero keeps its own list."""
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        first = make_segment("affine", {"b": np.zeros((2, 2))}, a)
        second = make_segment("affine", {"b": np.eye(2)}, np.array([[1.0, -0.0], [0.0, 0.0]]))
        segments = ser.path_to_obj(OperatorPath((first, second), (2, 2)))["segments"]
        assert segments[1]["start"]["data"] is not segments[0]["end"]["data"]
        assert math.copysign(1.0, segments[1]["start"]["data"][1]) < 0

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
        assert ser.instance_echo(payload) == {
            "kind": "fk-pair",
            "m": 2,
            "n": 3,
            "k": 1,
            "seed": 4,
        }

    def test_subspace_payload(self):
        payload = gen_instance(InstanceSpec(m=3, n=3, k=2, seed=4, kind="subspace-pair"))
        back = ser.instance_from_obj(ser.instance_to_obj(payload))
        assert isinstance(back["E1"], Subspace)


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
        back = ser.witness_from_obj(ser.witness_to_obj(w))
        assert back.kernel_complements[0].dim == w.kernel_complements[0].dim


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

    def test_equal_factor_rows_share_one_list(self):
        """At 40x30 rank 15 the 1,650 factor lists are 85 list objects: rows + k + cols."""
        tb = tangent_basis(_point_40x30())
        obj = ser.tangent_basis_to_obj(tb)
        lefts = [b["left"] for b in obj["basis"]]
        rights = [b["right"] for b in obj["basis"]]
        assert len(lefts) + len(rights) == 1650
        assert len({id(x) for x in lefts}) == 40 + 15
        assert len({id(x) for x in rights}) == 15 + 15
        assert lefts == (tb.left + 0.0).tolist() and rights == (tb.right + 0.0).tolist()

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


SMALL_CHUNK = 4  # the writer's chunk while shared_float_docs are written


@st_hyp.composite
def shared_float_docs(draw):
    """A document that holds one float list object at two depths, beside an equal-valued
    twin that differs in the sign of its zeros; the list is often longer than a chunk."""
    values = draw(st_hyp.lists(finite_floats, min_size=1, max_size=3 * SMALL_CHUNK)) + [0.0]
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
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ser, "_FLOAT_CHUNK", SMALL_CHUNK)
            ser.save_json(obj, out)
        assert out.read_bytes() == stdlib_text(obj).encode("ascii")

    @staticmethod
    def renders(monkeypatch):
        """Record the length of every float list the writer renders."""
        seen = []
        write_floats = ser._write_floats

        def spied(write, items, *args):
            seen.append(len(items))
            return write_floats(write, items, *args)

        monkeypatch.setattr(ser, "_write_floats", spied)
        return seen

    def test_tangent_renders_each_factor_list_once(self, monkeypatch, tmp_path):
        """40x30 rank 15: 85 distinct factor lists rendered, not 1,650, plus the point's data."""
        obj = ser.tangent_basis_to_obj(tangent_basis(_point_40x30()))
        seen = self.renders(monkeypatch)
        ser.save_json(obj, tmp_path / "tangent.json")
        assert sum(len(b["left"]) + len(b["right"]) for b in obj["basis"]) == 57750
        assert sorted(seen) == sorted([30] * 30 + [40] * 55 + [1200])
        assert sum(seen) - 1200 == 3100
        assert (tmp_path / "tangent.json").read_text() == stdlib_text(obj)

    def test_path_renders_each_join_once(self, monkeypatch, tmp_path):
        """A 3-leg 100x100 connect_fk path: 7 data lists rendered, not 9."""
        pair = gen_instance(InstanceSpec(m=100, n=100, k=50, seed=1, kind="fk-pair"))
        obj = ser.path_to_obj(connect_fk(pair["T1"], pair["T2"]))
        assert len(obj["segments"]) == 3
        seen = self.renders(monkeypatch)
        ser.save_json(obj, tmp_path / "path.json")
        assert seen.count(100 * 100) == 7
        assert sum(seen) == 7 * 100 * 100 + 100  # and the two theta lists
        assert (tmp_path / "path.json").read_text() == stdlib_text(obj)

    def test_number_list_longer_than_a_chunk(self, tmp_path):
        values = [k / 7.0 for k in range(2 * ser._FLOAT_CHUNK + 3)]
        obj = {"data": values, "tail": [[values[:5]], values]}
        ser.save_json(obj, tmp_path / "long.json")
        assert (tmp_path / "long.json").read_text() == stdlib_text(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            float("nan"),
            [1.0, float("inf")],
            {"a": [0.5] * (ser._FLOAT_CHUNK + 1) + [-math.inf]},
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
