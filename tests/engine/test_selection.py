"""Engine selection: explicit > $REPRO_ENGINE > auto, with honest
errors for engines this machine cannot run."""

import pytest

import repro.engine as engine_mod
from repro.engine import (
    AUTO,
    COMPILED,
    PYTHON,
    EngineUnavailableError,
    available_engines,
    default_engine,
    resolve_engine,
)


def test_python_always_resolves(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert resolve_engine(PYTHON) == PYTHON
    assert PYTHON in available_engines()


def test_auto_picks_the_fastest_available(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert resolve_engine(AUTO) == available_engines()[0]
    assert resolve_engine(None) == default_engine()


def test_env_var_is_honoured_when_no_explicit_request(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", PYTHON)
    assert resolve_engine(None) == PYTHON


def test_explicit_argument_beats_the_env_var(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", PYTHON)
    first = available_engines()[0]
    assert resolve_engine(first) == first


def test_unknown_engine_is_an_error():
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("fortran")


def test_explicit_unavailable_engine_raises(monkeypatch):
    # Simulate a bare machine: the availability probe is cached in a
    # module global, so pinning it models "no compiler".
    monkeypatch.setattr(engine_mod, "_compiled_available", False)
    with pytest.raises(EngineUnavailableError):
        resolve_engine(COMPILED)
    # ``auto`` degrades silently instead — that is its contract.
    assert resolve_engine(AUTO) == PYTHON
