import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from strata import (
    GraphParam,
    StratumPoint,
    Subspace,
    connect_fk,
    discover_chain,
    eval_path,
    gl_connect,
    tangent_basis,
)
from strata import serialization as ser
from strata.errors import StrataError
from strata.instances import InstanceSpec, gen_instance

from conftest import span


class TestMatrixFormat:
    def test_round_trip(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        obj = ser.matrix_to_obj(a)
        assert obj == {"rows": 2, "cols": 3, "data": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}
        assert np.array_equal(ser.matrix_from_obj(obj), a)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            ser.matrix_from_obj({"rows": 2, "cols": 2, "data": [1.0]})

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
        ],
    )
    def test_non_matrix_rejected(self, obj):
        with pytest.raises(StrataError):
            ser.matrix_from_obj(obj)

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


def _old_closed_form(seg: dict, t: float) -> np.ndarray:
    """The evaluation rule of each segment kind path files used to carry."""
    m = {key: ser.matrix_from_obj(v) for key, v in seg.items() if isinstance(v, dict)}
    kind = seg["kind"]
    if kind == "constant":
        return m["a"]
    if kind == "affine":
        return m["a"] + t * m["b"]
    if kind == "left-affine":
        return (m["a"] + t * m["b"]) @ m["c"]
    if kind == "right-affine":
        return m["c"] @ (m["a"] + t * m["b"])
    if kind == "spd-line":
        return m["q"] @ ((1.0 - t) * m["s"] + t * np.eye(m["s"].shape[0]))
    if kind == "rotation-log":
        return scipy.linalg.expm((1.0 - t) * m["skew"]) @ m["tail"]
    assert kind == "rotation-flip"
    base, u, w = m["base"], np.array(seg["u"]), np.array(seg["w"])
    turned = math.cos(math.pi * t) * u + math.sin(math.pi * t) * w
    if seg["side"] == "range":
        row = u @ base
        return base - np.outer(u, row) + np.outer(turned, row)
    col = base @ u
    return base - np.outer(col, u) + np.outer(col, turned)


class TestLegacyKinds:
    """Path files written before the kinds collapsed to affine and rotation."""

    FIXTURE = Path(__file__).parent / "data" / "legacy_kinds.json"
    CURRENT = {
        "constant": "affine",
        "affine": "affine",
        "left-affine": "affine",
        "right-affine": "affine",
        "spd-line": "affine",
        "rotation-flip": "rotation",
        "rotation-log": "rotation",
    }

    def test_every_old_kind_present(self):
        files = ser.load_json(self.FIXTURE)
        kinds = {obj["segments"][0]["kind"] for obj in files.values()}
        assert kinds == set(self.CURRENT)

    def test_loads_as_old_closed_forms(self):
        for label, obj in ser.load_json(self.FIXTURE).items():
            seg = obj["segments"][0]
            path = ser.path_from_obj(obj)
            assert [s.kind for s in path.segments] == [self.CURRENT[seg["kind"]]], label
            for t in np.linspace(0.0, 1.0, 11):
                want = _old_closed_form(seg, t)
                err = np.max(np.abs(eval_path(path, t) - want))
                assert err <= 1e-12 * np.max(np.abs(want)), (label, t, err)


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


class TestWitness:
    def test_round_trip(self, rng):
        t1 = rng.uniform(-1, 1, (2, 1)) @ rng.uniform(-1, 1, (1, 2))
        t2 = rng.uniform(-1, 1, (2, 1)) @ rng.uniform(-1, 1, (1, 2))
        w = discover_chain(t1, t2)
        back = ser.witness_from_obj(ser.witness_to_obj(w))
        assert back.kernel_complements[0].dim == w.kernel_complements[0].dim


class TestTangentFormat:
    def test_schema(self):
        tb = tangent_basis(StratumPoint.at(np.array([[1.0, 0.0], [0.0, 0.0]])))
        obj = ser.tangent_basis_to_obj(tb)
        assert list(obj.keys()) == ["at", "k", "dim", "basis"]
        assert obj["dim"] == 3 and len(obj["basis"]) == 3


class TestMembership:
    def test_partial_spec(self):
        obj = {"range_complement": ser.subspace_to_obj(span([0, 1]))}
        m = ser.membership_from_obj(obj)
        assert m.range_complement is not None
        assert m.kernel_complement is None and m.kernel_equals is None
