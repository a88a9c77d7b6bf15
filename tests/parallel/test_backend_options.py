"""Satellite 1: ``workers``/``backend`` validation and resolution."""

from __future__ import annotations

import pytest

from repro.api import SolveOptions
from repro.core.registry import BACKENDS, backend_available
from repro.errors import ConfigurationError
from repro.parallel.backend import (
    KNOWN_BACKENDS,
    WORKERS_ENV,
    resolve_backend,
    resolve_workers,
)


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 6)
        assert resolve_workers(None) == 6

    def test_cpu_count_none_falls_back_to_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert resolve_workers(None) == 1

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "two", True])
    def test_invalid_argument_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_workers(bad)

    @pytest.mark.parametrize("bad", ["0", "-3", "banana", "2.5"])
    def test_invalid_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv(WORKERS_ENV, bad)
        with pytest.raises(ConfigurationError, match=WORKERS_ENV):
            resolve_workers(None)

    def test_garbage_env_ignored_when_workers_explicit(self, monkeypatch):
        # The env default is parsed lazily: a broken shell profile must
        # not take down a solve that pinned its worker count.
        monkeypatch.setenv(WORKERS_ENV, "banana")
        assert resolve_workers(4) == 4


class TestResolveBackend:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend("gpu", None)

    def test_workers_alone_implies_shm(self):
        resolved = resolve_backend(None, 2)
        assert resolved.requested == "shm"
        assert resolved.effective == "shm"
        assert resolved.workers == 2

    def test_workers_one_is_documented_serial_fallback(self):
        resolved = resolve_backend("shm", 1)
        assert resolved.effective == "pure"
        assert "serial fallback" in resolved.reason
        info = resolved.info()
        assert info["backend"] == "shm"
        assert info["backend_effective"] == "pure"
        assert "backend_fallback_reason" in info

    def test_pure_never_builds_an_engine_info(self):
        resolved = resolve_backend("pure", None)
        assert resolved.effective == "pure"
        assert resolved.info()["backend"] == "pure"

    def test_numba_is_an_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="known backends: pure, shm"):
            resolve_backend("numba", None)


class TestSolveOptionsValidation:
    def test_workers_below_one_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="workers"):
            SolveOptions(workers=0)

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SolveOptions(backend="cuda")

    def test_numba_backend_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown backend 'numba'"):
            SolveOptions(backend="numba")

    @pytest.mark.parametrize("bad", [0, -5, 1.5, True])
    def test_exact_scale_must_be_positive_int(self, bad):
        with pytest.raises(ConfigurationError, match="exact_scale"):
            SolveOptions(exact_scale=bad)

    def test_valid_options_construct(self):
        options = SolveOptions(backend="shm", workers=2, exact_scale=10**9)
        assert options.solver_kwargs() == {
            "backend": "shm", "workers": 2, "exact_scale": 10**9,
        }


class TestRegistrySurface:
    def test_backends_match_known(self):
        assert tuple(BACKENDS) == KNOWN_BACKENDS

    def test_pure_and_shm_always_available(self):
        assert backend_available("pure")
        assert backend_available("shm")

    def test_unknown_not_available(self):
        assert not backend_available("tpu")

    def test_numba_is_not_a_backend(self):
        assert not backend_available("numba")
