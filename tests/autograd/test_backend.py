"""Properties of the array-backend registry and the shipped backends.

The fused-kernel *numerics* are covered by ``test_fused_ops.py`` (which runs
its whole oracle/gradcheck suite under every registered backend); this file
pins the seam itself: selection round-trips, unknown names fail loudly,
scoping restores, the environment hook works in a fresh interpreter, and the
fastmath substitutions stay inside their declared tolerance.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.autograd import (
    available_backends,
    blas_thread_info,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.autograd import backend as backend_module
from repro.autograd.backend import (
    ArrayBackend,
    BlasBackend,
    FastmathBackend,
    NumpyBackend,
    active_backend,
)

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestRegistry:
    def test_ships_three_backends(self):
        assert set(available_backends()) >= {"numpy", "blas", "fastmath"}

    def test_default_active_is_numpy(self):
        # the suite may be running under a use_backend scope; check the
        # registry's resting default via a fresh interpreter instead
        assert "numpy" in available_backends()

    @pytest.mark.parametrize("name", ["numpy", "blas", "fastmath"])
    def test_set_backend_round_trips(self, name):
        previous = set_backend(name)
        try:
            assert get_backend() == name
            assert active_backend().name == name
        finally:
            assert set_backend(previous) == name
        assert get_backend() == previous

    def test_set_backend_is_idempotent(self):
        current = get_backend()
        assert set_backend(current) == current
        assert get_backend() == current

    def test_unknown_name_fails_loudly(self):
        before = get_backend()
        with pytest.raises(ValueError, match="unknown array backend"):
            set_backend("cuda")
        with pytest.raises(ValueError, match="available: .*numpy"):
            set_backend("definitely-not-a-backend")
        assert get_backend() == before  # a failed switch changes nothing

    def test_use_backend_scopes_and_restores(self):
        before = get_backend()
        target = "fastmath" if before != "fastmath" else "numpy"
        with use_backend(target) as active:
            assert active.name == target
            assert get_backend() == target
        assert get_backend() == before

    def test_use_backend_restores_on_exception(self):
        before = get_backend()
        target = "fastmath" if before != "fastmath" else "numpy"
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend(target):
                raise RuntimeError("boom")
        assert get_backend() == before

    def test_register_rejects_abstract_and_duplicates(self):
        with pytest.raises(ValueError, match="concrete"):
            register_backend(ArrayBackend())
        with pytest.raises(ValueError, match="already registered"):
            register_backend(NumpyBackend())

    def test_register_replace_and_custom_backend(self):
        class Doubling(NumpyBackend):
            name = "test-doubling"

        try:
            register_backend(Doubling())
            assert "test-doubling" in available_backends()
            with pytest.raises(ValueError, match="already registered"):
                register_backend(Doubling())
            register_backend(Doubling(), replace=True)
            with use_backend("test-doubling"):
                assert active_backend().name == "test-doubling"
        finally:
            with backend_module._lock:
                backend_module._registry.pop("test-doubling", None)


class TestEnvironmentHook:
    def _probe(self, env_value):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        if env_value is None:
            env.pop("REPRO_BACKEND", None)
        else:
            env["REPRO_BACKEND"] = env_value
        return subprocess.run(
            [sys.executable, "-c",
             "from repro.autograd import get_backend; print(get_backend())"],
            env=env, capture_output=True, text=True)

    def test_unset_defaults_to_numpy(self):
        result = self._probe(None)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "numpy"

    def test_env_selects_backend(self):
        result = self._probe("fastmath")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "fastmath"

    def test_env_unknown_name_aborts_import(self):
        result = self._probe("no-such-backend")
        assert result.returncode != 0
        assert "unknown array backend" in result.stderr


class TestBlasBackend:
    def test_thread_info_schema(self):
        info = blas_thread_info()
        assert set(info) == {"library", "controllable", "threads"}
        if info["controllable"]:
            assert info["threads"] >= 1

    def test_describe_reports_target(self):
        backend = BlasBackend(threads=2)
        info = backend.describe()
        assert info["name"] == "blas"
        assert info["tolerance"] == 0.0
        assert info["target_threads"] == 2

    def test_env_var_sets_target(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLAS_THREADS", "3")
        assert BlasBackend()._target_threads() == 3
        monkeypatch.setenv("REPRO_BLAS_THREADS", "0")
        assert BlasBackend()._target_threads() == 1  # clamped to >= 1

    def test_activate_deactivate_restores_pool(self):
        if not blas_thread_info()["controllable"]:
            pytest.skip("BLAS exposes no thread controls here")
        before = blas_thread_info()["threads"]
        backend = BlasBackend(threads=1)
        backend.activate()
        try:
            assert blas_thread_info()["threads"] == 1
        finally:
            backend.deactivate()
        assert blas_thread_info()["threads"] == before


class TestFastmathNumerics:
    def test_sigmoid_within_declared_tolerance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 4.0, size=20000).astype(np.float32)
        exact = NumpyBackend().sigmoid(x)
        fast = FastmathBackend().sigmoid(x)
        tolerance = FastmathBackend().describe()["tolerance"]
        assert float(np.abs(fast - exact).max()) <= tolerance

    def test_blocked_gelu_bit_identical_to_unblocked(self):
        # same float ops in the same order per element => the cache-blocked
        # path must agree with the reference *exactly*, not approximately
        fast = FastmathBackend()
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 2.0, size=fast._min_blocked + 7).astype(np.float32)
        np.testing.assert_array_equal(fast.gelu_forward(x),
                                      NumpyBackend().gelu_forward(x))
        _, t, sq = NumpyBackend().gelu_recompute(x)
        grad = rng.normal(size=x.shape).astype(np.float32)
        np.testing.assert_array_equal(
            fast.gelu_backward(grad, x, t, sq.copy()),
            NumpyBackend().gelu_backward(grad, x, t, sq.copy()))

    def test_small_and_noncontiguous_fall_back(self):
        fast = FastmathBackend()
        rng = np.random.default_rng(2)
        small = rng.normal(size=64).astype(np.float32)
        np.testing.assert_array_equal(fast.gelu_forward(small),
                                      NumpyBackend().gelu_forward(small))
        strided = rng.normal(
            size=(2 * fast._min_blocked, 2)).astype(np.float32)[:, 0]
        assert not strided.flags.c_contiguous
        np.testing.assert_array_equal(fast.gelu_forward(strided),
                                      NumpyBackend().gelu_forward(strided))
