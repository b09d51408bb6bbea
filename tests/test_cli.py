import json

import numpy as np
import pytest

from strata import (
    OperatorPath,
    Subspace,
    audit_flip_path,
    certify_path,
    connect_fk,
    constant_path,
    make_segment,
    reverse_path,
)
from strata import blas as blas_module
from strata import cli as cli_module
from strata.cli import main
from strata import serialization as ser

from conftest import count_factorizations, decimal_copy, decoded_numbers, encoded_numbers


def run(args):
    return main([str(a) for a in args])


def strict_json(text):
    """Parse JSON, rejecting the non-standard Infinity and NaN tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestGenConnectCertify:
    def test_pipeline(self, tmp_path):
        pair = tmp_path / "pair.json"
        path = tmp_path / "path.json"
        cert = tmp_path / "cert.json"
        assert run(["gen", "--m", 3, "--n", 3, "--k", 2, "--seed", 7,
                    "--kind", "fk-pair", "--out", pair]) == 0
        assert run(["connect", "--in", pair, "--mode", "fk", "--out", path]) == 0
        assert run(["certify", "--path", path, "--k", 2, "--samples", 301,
                    "--out", cert]) == 0
        loaded = json.loads(cert.read_text())
        assert loaded["verdict"] == "pass"
        assert loaded["instance"]["seed"] == 7

    def test_connect_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS rounds some products of a 100x100 connect by its thread
        # count, in numpy's matrix products and in scipy's Schur form.  The
        # CLI holds no threads itself: every command at size 100 writes the
        # same bytes at 2 threads and at 1 because each library call it makes
        # holds one
        libraries = [blas_module._BLAS, blas_module._SCIPY_BLAS]
        if None in libraries:
            pytest.skip("numpy's or scipy's OpenBLAS thread count cannot be read here")
        before = [get() for get, _ in libraries]
        written = []
        try:
            for threads in (2, 1):
                for _, put in libraries:
                    put(threads)
                out = tmp_path / f"{threads}-threads"
                out.mkdir()
                pair, thin = out / "pair.json", out / "thin-pair.json"
                commands = [
                    ["gen", "--m", 100, "--n", 100, "--k", 50, "--seed", 1,
                     "--kind", "fk-pair", "--out", pair],
                    ["gen", "--m", 20, "--n", 100, "--k", 5, "--seed", 6,
                     "--kind", "fk-pair", "--out", thin],
                    ["connect", "--in", pair, "--mode", "fk", "--out", out / "path.json"],
                    ["certify", "--path", out / "path.json", "--k", 50, "--samples", 101,
                     "--out", out / "cert.json"],
                    ["flip", "--in", out / "t1.json", "--out", out / "flip.json"],
                    ["tangent", "--in", out / "thin.json", "--out", out / "tangent.json"],
                    ["audit-thm12", "--dim", 100, "--seed", 0, "--out", out / "audit.json"],
                ]
                codes = []
                for args in commands:
                    codes.append(run(args))
                    assert [get() for get, _ in libraries] == [threads, threads]
                    if args[0] == "gen":  # flip and tangent read T1 as a matrix file
                        t1 = ser.load_json(args[-1])["T1"]
                        ser.save_json(t1, out / ("t1.json" if args[-1] == pair else "thin.json"))
                assert codes == [0, 0, 0, 0, 0, 0, 1]
                written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        finally:
            for (_, put), count in zip(libraries, before):
                put(count)
        assert len(written[0]) == 9 and written[0] == written[1]

    def test_reverse_flag(self, tmp_path):
        pair = tmp_path / "pair.json"
        run(["gen", "--m", 2, "--n", 2, "--k", 1, "--seed", 1,
             "--kind", "fk-pair", "--out", pair])
        fwd, rev = tmp_path / "f.json", tmp_path / "r.json"
        run(["connect", "--in", pair, "--mode", "fk", "--out", fwd])
        run(["connect", "--in", pair, "--mode", "fk", "--reverse", "--out", rev])
        p_fwd = ser.path_from_obj(ser.load_json(fwd))
        p_rev = ser.path_from_obj(ser.load_json(rev))
        from strata import eval_path

        assert np.allclose(eval_path(p_fwd, 0.0), eval_path(p_rev, 1.0), atol=1e-9)
        # the reversed file starts at T1 itself, which its first leg evaluates to at 0
        t1 = ser.load_json(pair)["T1"]
        assert ser.load_json(rev)["segments"][0]["start"]["data"] == t1["data"]
        assert np.array_equal(eval_path(p_rev, 0.0), ser.matrix_from_obj(t1))

    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "reversed"])
    def test_certificate_of_the_file_is_that_of_the_built_path(self, tmp_path, reverse):
        # 20x20, where a leg stored in another memory order rounds differently
        pair, path, cert = (tmp_path / f"{name}.json" for name in ("pair", "path", "cert"))
        assert run(["gen", "--m", 20, "--n", 20, "--k", 10, "--seed", 1,
                    "--kind", "fk-pair", "--out", pair]) == 0
        flag = ["--reverse"] if reverse else []
        assert run(["connect", "--in", pair, "--mode", "fk", *flag, "--out", path]) == 0
        assert run(["certify", "--path", path, "--k", 10, "--samples", 1001, "--out", cert]) == 0
        payload = ser.instance_from_obj(ser.load_json(pair))
        built = connect_fk(payload["T1"], payload["T2"])
        built = reverse_path(built) if reverse else built
        want = certify_path(built, 10, grid=1001, instance=ser.instance_echo(payload))
        ser.save_json(ser.certificate_to_obj(want), tmp_path / "want.json")
        assert cert.read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "reversed"])
    def test_decimal_path_file_certifies_to_the_same_bytes(self, tmp_path, reverse):
        """100x100 rank 50: the path file with its matrices as decimal lists, as
        written before the base64 encoding, gives the same certificate bytes."""
        pair, path, decimal = (tmp_path / f"{name}.json" for name in ("pair", "path", "decimal"))
        assert run(["gen", "--m", 100, "--n", 100, "--k", 50, "--seed", 1,
                    "--kind", "fk-pair", "--out", pair]) == 0
        flag = ["--reverse"] if reverse else []
        assert run(["connect", "--in", pair, "--mode", "fk", *flag, "--out", path]) == 0
        assert path.stat().st_size < 550_000
        with open(decimal, "w") as f:
            json.dump(decimal_copy(json.loads(path.read_text())), f, indent=2)
        assert decimal.stat().st_size > 1_500_000
        certs = []
        for name in ("path", "decimal"):
            cert = tmp_path / f"{name}-cert.json"
            assert run(["certify", "--path", tmp_path / f"{name}.json", "--k", 50,
                        "--samples", 1001, "--out", cert]) == 0
            certs.append(cert.read_bytes())
        assert certs[0] == certs[1]

    def test_phi_and_chain_modes(self, tmp_path):
        pair = tmp_path / "pair.json"
        run(["gen", "--m", 4, "--n", 3, "--k", 2, "--seed", 5,
             "--kind", "phi-pair", "--out", pair])
        for mode in ("phi", "chain"):
            path = tmp_path / f"{mode}.json"
            cert = tmp_path / f"{mode}-cert.json"
            assert run(["connect", "--in", pair, "--mode", mode, "--out", path]) == 0
            assert run(["certify", "--path", path, "--k", 2, "--samples", 201,
                        "--out", cert]) == 0

    def test_certify_exit_codes(self, tmp_path):
        pair = tmp_path / "pair.json"
        path = tmp_path / "path.json"
        cert = tmp_path / "cert.json"
        run(["gen", "--m", 2, "--n", 2, "--k", 1, "--seed", 2,
             "--kind", "fk-pair", "--out", pair])
        run(["connect", "--in", pair, "--mode", "fk", "--out", path])
        # wrong expected rank: fail -> exit 1
        assert run(["certify", "--path", path, "--k", 2, "--samples", 51,
                    "--out", cert]) == 1
        # zero expected rank: degenerate -> exit 2
        assert run(["certify", "--path", path, "--k", 0, "--samples", 51,
                    "--out", cert]) == 2

    @pytest.mark.parametrize("k", [-1, 3])
    def test_rank_outside_shape_exits_4(self, tmp_path, capsys, k):
        path, cert = tmp_path / "path.json", tmp_path / "cert.json"
        ser.save_json(ser.path_to_obj(constant_path(np.eye(2))), path)
        assert run(["certify", "--path", path, "--k", k, "--samples", 11, "--out", cert]) == 4
        assert "expected rank" in capsys.readouterr().err
        assert not cert.exists()

    def test_deterministic_outputs(self, tmp_path):
        out = []
        for name in ("a", "b"):
            pair = tmp_path / f"pair-{name}.json"
            path = tmp_path / f"path-{name}.json"
            cert = tmp_path / f"cert-{name}.json"
            run(["gen", "--m", 3, "--n", 2, "--k", 1, "--seed", 9,
                 "--kind", "fk-pair", "--out", pair])
            run(["connect", "--in", pair, "--mode", "fk", "--out", path])
            run(["certify", "--path", path, "--k", 1, "--samples", 101,
                 "--out", cert])
            out.append((pair.read_bytes(), path.read_bytes(), cert.read_bytes()))
        assert out[0] == out[1]

    def test_disconnected_reports_error(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        obj = {
            "kind": "fk-pair", "m": 2, "n": 2, "k": 2, "seed": 0,
            "T1": ser.matrix_to_obj(np.eye(2)),
            "T2": ser.matrix_to_obj(np.diag([-1.0, 1.0])),
        }
        ser.save_json(obj, pair)
        code = run(["connect", "--in", pair, "--mode", "fk",
                    "--out", tmp_path / "p.json"])
        assert code == 4
        assert "components" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "t2, mode, message",
        [
            (np.eye(2), "fk", "endpoints must share a shape"),
            (np.eye(2, 3) * [[1.0], [0.0]], "fk", "rank mismatch: 2 vs 1"),
            (np.eye(2, 3) * [[1.0], [0.0]], "phi", "t2 has kernel dimension 2, expected 1"),
        ],
        ids=["shape", "rank", "phi-kernel-dim"],
    )
    def test_rejected_pair_exits_4(self, tmp_path, capsys, t2, mode, message):
        pair = tmp_path / "pair.json"
        obj = {
            "kind": "phi-pair", "m": 3, "n": 2, "k": 2, "seed": 0,
            "T1": ser.matrix_to_obj(np.eye(2, 3)),
            "T2": ser.matrix_to_obj(t2),
        }
        ser.save_json(obj, pair)
        code = run(["connect", "--in", pair, "--mode", mode,
                    "--out", tmp_path / "p.json"])
        assert code == 4
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("kind", ["gl", "subspace-pair"])
    def test_connect_on_other_instance_kinds_exits_4(self, tmp_path, capsys, kind):
        pair = tmp_path / "instance.json"
        assert run(["gen", "--m", 3, "--n", 3, "--k", 2 if kind != "gl" else 3,
                    "--seed", 0, "--kind", kind, "--out", pair]) == 0
        code = run(["connect", "--in", pair, "--mode", "fk", "--out", tmp_path / "p.json"])
        assert code == 4
        assert "'T1'" in capsys.readouterr().err

    def test_missing_input_file_exits_4(self, tmp_path, capsys):
        code = run(["connect", "--in", tmp_path / "absent.json", "--mode", "fk",
                    "--out", tmp_path / "p.json"])
        assert code == 4
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["[1, 2]", "3", '"fk-pair"'])
    def test_connect_on_non_object_exits_4(self, tmp_path, capsys, content):
        pair = tmp_path / "instance.json"
        pair.write_text(content)
        code = run(["connect", "--in", pair, "--mode", "fk", "--out", tmp_path / "p.json"])
        assert code == 4
        assert "JSON object" in capsys.readouterr().err


class TestOtherCommands:
    def test_dim_prints(self, capsys):
        assert run(["dim", "--m", 3, "--n", 2, "--k", 1]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_audit_exits_one(self, tmp_path):
        out = tmp_path / "audit.json"
        assert run(["audit-thm12", "--dim", 4, "--seed", 11, "--out", out]) == 1
        report = json.loads(out.read_text())
        assert 0.5 in report["failures"]
        assert report["passed"] is False

    def test_flip_command(self, tmp_path):
        t = tmp_path / "T.json"
        ser.save_json(ser.matrix_to_obj(np.array([[1.0, 0.0], [0.0, 0.0]])), t)
        out = tmp_path / "flip.json"
        assert run(["flip", "--in", t, "--out", out]) == 0
        cert = tmp_path / "cert.json"
        assert run(["certify", "--path", out, "--k", 1, "--samples", 101,
                    "--out", cert]) == 0

    def test_factorization_counts(self, tmp_path, monkeypatch):
        # the seed-0 6x5 rank-3 pair: each command factors each input matrix once
        pair = tmp_path / "pair.json"
        assert run(["gen", "--m", 5, "--n", 6, "--k", 3, "--seed", 0,
                    "--kind", "fk-pair", "--out", pair]) == 0
        t = tmp_path / "T.json"
        ser.save_json(ser.matrix_to_obj(ser.instance_from_obj(ser.load_json(pair))["T1"]), t)
        calls = count_factorizations(monkeypatch)
        assert run(["connect", "--in", pair, "--mode", "phi", "--out", tmp_path / "phi.json"]) == 0
        assert calls == {"svd": 2}
        calls.clear()
        assert run(["flip", "--in", t, "--out", tmp_path / "flip.json"]) == 0
        assert calls == {"svd": 1}

    def test_tangent_command(self, tmp_path):
        t = tmp_path / "X.json"
        ser.save_json(ser.matrix_to_obj(np.array([[1.0, 0.0], [0.0, 0.0]])), t)
        out = tmp_path / "basis.json"
        assert run(["tangent", "--in", t, "--out", out]) == 0
        basis = json.loads(out.read_text())
        assert basis["dim"] == 3

    def test_membership_file(self, tmp_path):
        # certify the literal flip family against its complement: must fail
        from strata import GraphParam, literal_flip_path
        from strata.subspaces import Subspace

        e_star = Subspace.span([1, 0])
        r = Subspace.span([0, 1])
        coeff = r.basis.T @ np.array([[0.0, 0.0], [1.0, 0.0]]) @ e_star.basis
        p = literal_flip_path(e_star, r, GraphParam(e_star, r, coeff))
        path_file = tmp_path / "path.json"
        ser.save_json(ser.path_to_obj(p), path_file)
        member_file = tmp_path / "member.json"
        ser.save_json({"range_complement": ser.subspace_to_obj(r)}, member_file)
        cert = tmp_path / "cert.json"
        code = run(["certify", "--path", path_file, "--k", 1, "--samples", 11,
                    "--membership", member_file, "--out", cert])
        assert code == 1
        assert 0.5 in json.loads(cert.read_text())["failures"]

    @pytest.mark.parametrize(
        "content, message",
        [
            ("[1, 2]", "JSON object"),
            ('{"kernel_equals": 3}', "'kernel_equals'"),
            ('{"range_complement": {"rows": 2, "cols": 1, "data": [1.0]}}', "'range_complement'"),
        ],
        ids=["non-object", "non-matrix-field", "short-data-field"],
    )
    def test_unusable_membership_file_exits_4(self, tmp_path, capsys, content, message):
        path_file, member_file = tmp_path / "path.json", tmp_path / "member.json"
        ser.save_json(ser.path_to_obj(constant_path(np.diag([1.0, 0.0]))), path_file)
        member_file.write_text(content)
        code = run(["certify", "--path", path_file, "--k", 1, "--samples", 5,
                    "--membership", member_file, "--out", tmp_path / "cert.json"])
        assert code == 4
        assert message in capsys.readouterr().err

    def test_misspelled_membership_key_exits_4(self, tmp_path, capsys):
        # {"kernel_equal": ...} once certified with no membership check: exit 0
        path_file, member_file = tmp_path / "path.json", tmp_path / "member.json"
        cert_file = tmp_path / "cert.json"
        ser.save_json(ser.path_to_obj(constant_path(np.diag([1.0, 0.0]))), path_file)
        wrong = ser.subspace_to_obj(Subspace.span([1, 0]))  # not the kernel, span([0, 1])
        argv = ["certify", "--path", path_file, "--k", 1, "--samples", 5,
                "--membership", member_file, "--out", cert_file]
        ser.save_json({"kernel_equal": wrong}, member_file)
        assert run(argv) == 4
        assert "unknown fields ['kernel_equal']" in capsys.readouterr().err
        assert not cert_file.exists()
        ser.save_json({"kernel_equals": wrong}, member_file)
        assert run(argv) == 1

    @staticmethod
    def affine_path_obj():
        """A one-leg affine path from diag(1, 0) to diag(1, 1), in the current layout."""
        start, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        return ser.path_to_obj(OperatorPath((make_segment("affine", {"b": b}, start),), (2, 2)))

    def certify_obj(self, tmp_path, obj):
        path_file = tmp_path / "path.json"
        ser.save_json(obj, path_file)
        return run(["certify", "--path", path_file, "--k", 1, "--samples", 11,
                    "--out", tmp_path / "cert.json"])

    @pytest.mark.parametrize("field", ["b", "start"])
    def test_malformed_path_file_exits_4(self, tmp_path, capsys, field):
        obj = self.affine_path_obj()
        del obj["segments"][0][field]
        assert self.certify_obj(tmp_path, obj) == 4
        err = capsys.readouterr().err
        assert "segment 0" in err and repr(field) in err

    @pytest.mark.parametrize("value", [3, "data-string"])
    def test_non_matrix_field_exits_4(self, tmp_path, capsys, value):
        obj = self.affine_path_obj()
        if value == 3:
            obj["segments"][0]["b"] = 3
        else:
            obj["segments"][0]["b"]["data"] = "1 2 3"
        assert self.certify_obj(tmp_path, obj) == 4
        err = capsys.readouterr().err
        assert "segment 0" in err and "'b'" in err

    def test_legacy_kind_exits_4(self, tmp_path, capsys):
        # (a + t b) c, a kind older files carried; its a is not its start, and
        # the kind is reported first
        obj = self.affine_path_obj()
        seg = obj["segments"][0]
        half = {key: ser.matrix_to_obj(0.5 * ser.matrix_from_obj(seg[key]))
                for key in ("start", "b")}
        obj["segments"][0] = {"kind": "left-affine", "a": half["start"], "b": half["b"],
                              "c": ser.matrix_to_obj(2.0 * np.eye(2)),
                              "start": seg["start"], "end": ser.matrix_to_obj(np.eye(2))}
        assert self.certify_obj(tmp_path, obj) == 4
        assert "unknown segment kind 'left-affine'" in capsys.readouterr().err

    def test_base_point_other_than_start_exits_4(self, tmp_path, capsys):
        # the older layout repeated the start as "a"; a copy that differs is refused
        obj = self.affine_path_obj()
        seg = obj["segments"][0]
        seg["a"] = {**seg["start"], "data": [1.0, 0.0, 0.0, 1e-300]}
        assert self.certify_obj(tmp_path, obj) == 4
        err = capsys.readouterr().err
        assert "segment 0" in err and "'a'" in err

    def test_infinite_residual_is_strict_json_null(self, tmp_path):
        path_file, member_file = tmp_path / "path.json", tmp_path / "member.json"
        cert_file, audit_file = tmp_path / "cert.json", tmp_path / "audit.json"
        # the kernel of diag(1, 0, 0) is a plane; the expected one is a line
        ser.save_json(ser.path_to_obj(constant_path(np.diag([1.0, 0.0, 0.0]))), path_file)
        ser.save_json({"kernel_equals": ser.subspace_to_obj(Subspace.span([0, 0, 1]))},
                      member_file)
        code = run(["certify", "--path", path_file, "--k", 1, "--samples", 5,
                    "--membership", member_file, "--out", cert_file])
        assert code == 1
        cert = strict_json(cert_file.read_text())
        assert cert["samples"]["kernel_angle"] == [None] * 5
        audit = audit_flip_path(
            constant_path(np.diag([1.0, 0.0, 0.0])),
            (Subspace.span([0, 0, 1]), Subspace.span([0, 1, 0], [0, 0, 1])),
            grid=3,
        )
        ser.save_json(ser.audit_to_obj(audit), audit_file)
        samples = strict_json(audit_file.read_text())["samples"]
        assert samples["kernel_angle"] == [None] * 3
        assert all(isinstance(c, float) for c in samples["range_complement_cond"])
        with pytest.raises(ValueError):
            ser.save_json({"x": float("inf")}, tmp_path / "bad.json")

    @pytest.mark.parametrize("command", ["certify", "tangent"])
    def test_strata_tol_not_a_number_exits_4(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("STRATA_TOL", "abc")
        t, out = tmp_path / "T.json", tmp_path / "out.json"
        if command == "certify":
            ser.save_json(ser.path_to_obj(constant_path(np.diag([1.0, 0.0]))), t)
            argv = ["certify", "--path", t, "--k", 1, "--samples", 5, "--out", out]
        else:
            ser.save_json(ser.matrix_to_obj(np.diag([1.0, 0.0])), t)
            argv = ["tangent", "--in", t, "--out", out]
        assert run(argv) == 4
        assert capsys.readouterr().err == "error: STRATA_TOL must be a number, got 'abc'\n"
        assert not out.exists()

    def test_strata_tol_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRATA_TOL", "1e-2")
        t = tmp_path / "T.json"
        # second singular value 1e-4 sits below the loosened cutoff
        ser.save_json(ser.matrix_to_obj(np.diag([1.0, 1e-4])), t)
        out = tmp_path / "basis.json"
        assert run(["tangent", "--in", t, "--out", out]) == 0
        assert json.loads(out.read_text())["k"] == 1


class TestNonFiniteInput:
    """A NaN or an infinity in a matrix of an input file: exit 4, the field
    named, no output file.  Python's JSON reader takes both tokens."""

    @staticmethod
    def write(path, obj):
        path.write_text(json.dumps(obj, allow_nan=True))
        return path

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
    @pytest.mark.parametrize("field", ["start", "end", "b"])
    def test_certify(self, tmp_path, capsys, bad, field):
        self.certify_with(tmp_path, capsys, bad, field, encode=False)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")],
                             ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("field", ["start", "end", "b"])
    def test_certify_encoded(self, tmp_path, capsys, bad, field):
        self.certify_with(tmp_path, capsys, bad, field, encode=True)

    def certify_with(self, tmp_path, capsys, bad, field, encode):
        """Certify the affine path with ``bad`` in ``field``, as a decimal list or encoded."""
        obj = decimal_copy(TestOtherCommands.affine_path_obj())
        seg = obj["segments"][0]
        # the leg's own end, which the current layout leaves out and older files wrote
        seg.setdefault("end", decimal_copy(ser.matrix_to_obj(np.eye(2))))
        seg[field]["data"][3] = bad
        if encode:
            seg[field]["data"] = encoded_numbers(seg[field]["data"])
        cert = tmp_path / "cert.json"
        path = self.write(tmp_path / "path.json", obj)
        assert run(["certify", "--path", path, "--k", 1, "--samples", 11, "--out", cert]) == 4
        err = capsys.readouterr().err
        assert f"segment 0 field {field!r}: matrix data holds a non-finite number" in err
        assert not cert.exists()

    def test_certify_membership(self, tmp_path, capsys):
        self.certify_membership_with(tmp_path, capsys, [1.0, float("inf")])

    def test_certify_membership_encoded(self, tmp_path, capsys):
        self.certify_membership_with(tmp_path, capsys, encoded_numbers([1.0, float("inf")]))

    def certify_membership_with(self, tmp_path, capsys, data):
        path, cert = tmp_path / "path.json", tmp_path / "cert.json"
        ser.save_json(TestOtherCommands.affine_path_obj(), path)
        line = {"rows": 2, "cols": 1, "data": data, "subspace": True}
        member = self.write(tmp_path / "member.json", {"kernel_equals": line})
        code = run(["certify", "--path", path, "--k", 1, "--samples", 11,
                    "--membership", member, "--out", cert])
        assert code == 4
        assert "'kernel_equals': matrix data holds a non-finite number" in capsys.readouterr().err
        assert not cert.exists()

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_connect(self, tmp_path, capsys, bad):
        self.connect_with(tmp_path, capsys, bad, encode=False)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")],
                             ids=["inf", "-inf", "nan"])
    def test_connect_encoded(self, tmp_path, capsys, bad):
        self.connect_with(tmp_path, capsys, bad, encode=True)

    def connect_with(self, tmp_path, capsys, bad, encode):
        pair = ser.instance_to_obj({"kind": "fk-pair", "T1": np.eye(2), "T2": np.eye(2)})
        values = decoded_numbers(pair["T2"]["data"])
        values[0] = bad
        pair["T2"]["data"] = encoded_numbers(values) if encode else values
        out = tmp_path / "path.json"
        code = run(["connect", "--in", self.write(tmp_path / "pair.json", pair),
                    "--mode", "fk", "--out", out])
        assert code == 4
        assert "instance field 'T2': matrix data holds a non-finite" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def forbid(monkeypatch, name):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{name} ran on an input it should have refused")

        monkeypatch.setattr(cli_module, name, forbidden)

    @pytest.mark.parametrize(
        "instance, message",
        [
            ({"kind": "fk-pair", "seed": float("inf")}, "instance field 'seed' holds a non-finite"),
            ({"kind": "fk-pair", "seed": float("nan")}, "instance field 'seed' holds a non-finite"),
            ([1, 2], "instance echo must be a JSON object"),
        ],
        ids=["inf", "nan", "list"],
    )
    def test_certify_instance_echo(self, tmp_path, capsys, monkeypatch, instance, message):
        self.forbid(monkeypatch, "certify_path")
        obj = {**TestOtherCommands.affine_path_obj(), "instance": instance}
        cert = tmp_path / "cert.json"
        path = self.write(tmp_path / "path.json", obj)
        assert run(["certify", "--path", path, "--k", 1, "--samples", 11, "--out", cert]) == 4
        assert message in capsys.readouterr().err
        assert not cert.exists()

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_connect_instance_echo(self, tmp_path, capsys, monkeypatch, bad):
        self.forbid(monkeypatch, "connect_fk")
        pair = ser.instance_to_obj(
            {"kind": "fk-pair", "seed": bad, "T1": np.eye(2), "T2": np.eye(2)}
        )
        out = tmp_path / "path.json"
        code = run(["connect", "--in", self.write(tmp_path / "pair.json", pair),
                    "--mode", "fk", "--out", out])
        assert code == 4
        assert "instance field 'seed' holds a non-finite number" in capsys.readouterr().err
        assert not out.exists()

    OVERFLOW = {"rows": 2, "cols": 2, "left": [1e200, 1.0], "right": [1e200, 1.0]}

    @pytest.mark.filterwarnings("error")
    def test_tangent_factors_that_overflow(self, tmp_path, capsys):
        """Finite rank-one factors whose product is infinite: exit 4, no numpy warning."""
        out = tmp_path / "basis.json"
        assert run(["tangent", "--in", self.write(tmp_path / "x.json", self.OVERFLOW),
                    "--out", out]) == 4
        err = capsys.readouterr().err
        assert "matrix left and right multiply to a non-finite number" in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_connect_factors_that_overflow(self, tmp_path, capsys):
        pair = {"kind": "fk-pair", "T1": self.OVERFLOW, "T2": ser.matrix_to_obj(np.eye(2))}
        out = tmp_path / "path.json"
        code = run(["connect", "--in", self.write(tmp_path / "pair.json", pair),
                    "--mode", "fk", "--out", out])
        assert code == 4
        err = capsys.readouterr().err
        assert "instance field 'T1': matrix left and right multiply to a non-finite" in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tangent", "flip"])
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_matrix_commands(self, tmp_path, capsys, command, bad):
        x = {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, bad]}
        self.matrix_command_with(tmp_path, capsys, command, x, "data")

    @pytest.mark.parametrize("command", ["tangent", "flip"])
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")],
                             ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["data", "left", "right"])
    def test_matrix_commands_encoded(self, tmp_path, capsys, command, bad, key):
        x = {"rows": 2, "cols": 2, "left": encoded_numbers([1.0, 0.0]),
             "right": encoded_numbers([1.0, 0.0])}
        if key == "data":
            x = {"rows": 2, "cols": 2, "data": encoded_numbers([1.0, 0.0, 0.0, bad])}
        else:
            x[key] = encoded_numbers([1.0, bad])
        self.matrix_command_with(tmp_path, capsys, command, x, key)

    def matrix_command_with(self, tmp_path, capsys, command, x, key):
        matrix = self.write(tmp_path / "x.json", x)
        out = tmp_path / "out.json"
        assert run([command, "--in", matrix, "--out", out]) == 4
        assert f"matrix {key} holds a non-finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, mangle, message",
        [
            ("theta", lambda theta: [repr(x) for x in theta], "must be a flat list of numbers"),
            ("theta", lambda theta: [True] * len(theta), "must be a flat list of numbers"),
            ("theta", lambda theta: [[x] for x in theta], "must be a flat list of numbers"),
            ("b", lambda b: {**b, "data": [True, 0.0, 0.0, 1.0]}, "must be a flat list of numbers"),
            ("b", lambda b: {**b, "data": b["data"][:-1]}, "must be a list of numbers or padded"),
            ("b", lambda b: {**b, "data": encoded_numbers([0.0] * 3)}, "length disagrees"),
        ],
        ids=["theta-strings", "theta-bools", "theta-nested", "data-bool", "data-unpadded",
             "data-short"],
    )
    def test_certify_non_numbers_exit_4(self, tmp_path, capsys, field, mangle, message):
        """Booleans, strings and nested lists are no numbers, and text must be
        padded base64 of the matrix's size: exit 4, segment and field named."""
        rotation = make_segment("rotation", {"z": np.eye(2), "theta": [0.5], "side": "range"},
                                np.diag([1.0, 0.0]))
        affine = make_segment("affine", {"b": np.eye(2)}, rotation.end)
        obj = ser.path_to_obj(OperatorPath((rotation, affine), (2, 2)))
        index = 0 if field == "theta" else 1
        obj["segments"][index][field] = mangle(obj["segments"][index][field])
        cert = tmp_path / "cert.json"
        path = self.write(tmp_path / "path.json", obj)
        assert run(["certify", "--path", path, "--k", 1, "--samples", 11, "--out", cert]) == 4
        err = capsys.readouterr().err
        assert f"path segment {index} field {field!r}: " in err and message in err
        assert not cert.exists()
