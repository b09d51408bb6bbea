"""The library's entry points hold numpy's and scipy's OpenBLAS to one thread.

Their results are the same at any thread count, and the caller's counts
are given back when the call returns or raises, through nested holds and
holds of several threads.  Decisions with wide margins are the same under
every kernel OpenBLAS can be made to run.
"""

import ctypes
import glob
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

import strata.blas as blas_module
from strata import (
    InputError,
    InstanceSpec,
    StratumPoint,
    certify_path,
    connect_fk,
    gen_instance,
    tangency_order,
)
from strata import serialization as ser

LIBRARIES = [blas_module._BLAS, blas_module._SCIPY_BLAS]


@pytest.fixture
def set_threads():
    """Set numpy's and scipy's OpenBLAS thread counts; the counts are restored after the test."""
    if None in LIBRARIES:
        pytest.skip("numpy's or scipy's OpenBLAS thread count cannot be read here")
    before = [get() for get, _ in LIBRARIES]

    def put_all(count):
        for _, put in LIBRARIES:
            put(count)

    yield put_all
    for (_, put), count in zip(LIBRARIES, before):
        put(count)


def counts():
    return [get() for get, _ in LIBRARIES]


def test_library_bytes_do_not_depend_on_blas_threads(set_threads, tmp_path):
    # at 100x100 rank 50, OpenBLAS rounds some products of a connect by its
    # thread count, and the certificate follows the path's values
    payload = gen_instance(InstanceSpec(m=100, n=100, k=50, seed=1, kind="fk-pair"))
    written = []
    for threads in (2, 1):
        set_threads(threads)
        path = connect_fk(payload["T1"], payload["T2"])
        cert = certify_path(path, 50, grid=101)
        for name, obj in (("path", ser.path_to_obj(path)), ("cert", ser.certificate_to_obj(cert))):
            ser.save_json(obj, tmp_path / f"{name}-{threads}.json")
            written.append((tmp_path / f"{name}-{threads}.json").read_bytes())
        assert counts() == [threads, threads]
    assert cert.verdict == "pass"
    assert written[:2] == written[2:]


class TestCountsRestored:
    @pytest.fixture
    def schur_counts(self, monkeypatch):
        """The thread counts seen in every scipy.linalg.schur call (a connect's rotations)."""
        seen = []
        schur = scipy.linalg.schur

        def spied(*args, **kwargs):
            seen.append(counts())
            return schur(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", spied)
        return seen

    def test_after_a_call_returns(self, set_threads, schur_counts):
        set_threads(3)
        payload = gen_instance(InstanceSpec(m=6, n=5, k=3, seed=1, kind="fk-pair"))
        assert counts() == [3, 3]
        path = connect_fk(payload["T1"], payload["T2"])
        assert schur_counts and all(seen == [1, 1] for seen in schur_counts)
        assert counts() == [3, 3]
        certify_path(path, 3, grid=101)
        tangency_order(StratumPoint.at(payload["T1"]), payload["T2"])
        assert counts() == [3, 3]

    def test_after_a_call_raises(self, set_threads):
        set_threads(3)
        t1 = gen_instance(InstanceSpec(m=6, n=5, k=3, seed=1, kind="fk-pair"))["T1"]
        t2 = gen_instance(InstanceSpec(m=6, n=5, k=2, seed=1, kind="fk-pair"))["T2"]
        with pytest.raises(InputError, match="rank mismatch"):
            connect_fk(t1, t2)
        assert counts() == [3, 3]

    def test_nested_holds(self, set_threads, schur_counts):
        set_threads(3)
        payload = gen_instance(InstanceSpec(m=6, n=5, k=3, seed=2, kind="fk-pair"))
        with blas_module._one_blas_thread():
            connect_fk(payload["T1"], payload["T2"])
            # an inner hold that ends, by a return or an exception, keeps the outer one
            assert counts() == [1, 1]
            with pytest.raises(InputError):
                connect_fk(payload["T1"], np.zeros((4, 4)))
            assert counts() == [1, 1]
        assert schur_counts and all(seen == [1, 1] for seen in schur_counts)
        assert counts() == [3, 3]

    def test_overlapping_calls_of_several_threads(self, set_threads):
        # more threads than cores, switching often: a lost update of the
        # process-wide hold count would leave OpenBLAS at one thread
        set_threads(3)
        payload = gen_instance(InstanceSpec(m=20, n=20, k=10, seed=3, kind="fk-pair"))
        path = connect_fk(payload["T1"], payload["T2"])
        workers = len(os.sched_getaffinity(0)) + 1
        barrier = threading.Barrier(workers, timeout=30)
        errors = []

        def certify_many():
            try:
                barrier.wait()
                for _ in range(5):
                    certify_path(path, 10, grid=1001)
            except Exception as exc:  # reported below, on the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=certify_many) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert counts() == [3, 3]


def _core_name():
    """The core type numpy's OpenBLAS runs its kernels for, or None where it cannot be read."""
    if not hasattr(os, "RTLD_NOLOAD"):
        return None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for name in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(name, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode()
    return None


def _decisions():
    """Verdict, failures, rank and ok columns of a corpus decided by wide margins.

    The criterion-4 fk corpus (200 paths of shapes 2-6), and the condition
    number 1e8 pairs of ``TestConditioning`` through ``connect_fk``, the
    discovered chain and ``corrected_flip_path``, all at 1001 samples.
    """
    from test_paths import SCALE_BUILDERS, TestConditioning

    certs = []
    shapes = np.random.default_rng(4)  # criterion 4's shape schedule
    for seed in range(200):
        m, n = int(shapes.integers(2, 7)), int(shapes.integers(2, 7))
        k = int(shapes.integers(1, min(m, n))) if min(m, n) > 1 else 1
        payload = gen_instance(InstanceSpec(m=m, n=n, k=k, seed=seed, kind="fk-pair"))
        certs.append(certify_path(connect_fk(payload["T1"], payload["T2"]), k, grid=1001))
    for builder in sorted(SCALE_BUILDERS):
        for t1, t2 in TestConditioning.pairs(1e8):
            certs.append(certify_path(SCALE_BUILDERS[builder](t1, t2), 3, grid=1001))
    return [[c.verdict, list(c.failures), c.samples["rank"], c.samples["ok"]] for c in certs]


def test_decisions_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernels by CPU, and OPENBLAS_CORETYPE forces one:
    # the host's own, an AVX2 one and a pre-AVX one.  The kernels round
    # differently, so path and certificate bytes may differ between them
    # (sigma_k by up to about 1e-6 relative at condition number 3e9, where
    # decisions at the gap test's edge differ too, so that band is left out).
    # The decisions on this corpus have wide margins and must not differ
    if _core_name() is None:
        pytest.skip("numpy's OpenBLAS core type cannot be read here")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    child = "import json, test_blas; print(json.dumps([test_blas._core_name(), test_blas._decisions()]))"
    runs = []
    for core in (None, "Haswell", "Prescott"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, here, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    names = [name for name, _ in runs]
    assert None not in names and len(runs[0][1]) == 260
    for name, decisions in runs[1:]:
        assert decisions == runs[0][1], (names[0], name)
