"""Execution engines for :meth:`repro.sim.simulator.CMPSimulator.run`.

One simulation, two interchangeable backends:

``python``
    The reference scalar loop in ``sim/simulator.py`` — pure Python,
    no dependencies: the oracle every other engine is pinned against,
    and the fallback for a policy the kernel does not model (counted
    in ``repro_kernel_fallbacks_total``).  It runs on no figure path;
    its speed is reported, not gated.
``compiled``
    A C kernel (:mod:`repro.engine.compiled`) that transliterates the
    scalar inner loop — scheduler, L1, the LLC fast path, the bank
    model, UMON/ATD sampling, UCP migration tracking, cooperative
    takeover and the DVFS timing rows — and executes whole
    epoch-to-epoch spans per call on the simulator's own flat state
    buffers.  Built on demand with the system C compiler and loaded
    through ctypes; anything the kernel does not model returns to
    Python at a span boundary.

Both engines produce a bit-identical :class:`~repro.sim.stats.RunResult`
— the golden fixture suite and ``tests/engine`` pin them against the
same serialized artifacts.  Selection:

* an explicit ``engine=`` argument to ``run()`` wins;
* else ``$REPRO_ENGINE`` (``python``/``compiled``/``auto``);
* else ``auto``: ``compiled`` if the kernel builds and loads, else
  ``python``.

A bare install (no C compiler) therefore still works: every selection
path degrades to the pure-Python engine.
"""

from __future__ import annotations

import os

PYTHON = "python"
COMPILED = "compiled"
AUTO = "auto"

#: every engine name, preference order for ``auto`` first
ENGINES = (COMPILED, PYTHON)


class EngineUnavailableError(RuntimeError):
    """An explicitly requested engine cannot run on this machine."""


_compiled_available: bool | None = None


def compiled_available() -> bool:
    """Whether the C kernel builds (or is already built) and loads.

    The first call may invoke the system C compiler; the outcome is
    cached for the process (a failed toolchain never re-probes).
    """
    global _compiled_available
    if _compiled_available is None:
        try:
            from repro.engine.build import load_kernel

            load_kernel()
            _compiled_available = True
        except Exception:
            _compiled_available = False
    return _compiled_available


def available_engines() -> list[str]:
    """Engines runnable on this machine, ``auto``-preference order."""
    names = []
    if compiled_available():
        names.append(COMPILED)
    names.append(PYTHON)
    return names


def default_engine() -> str:
    """The engine ``auto`` resolves to on this machine."""
    return available_engines()[0]


def resolve_engine(name: str | None) -> str:
    """Resolve a requested engine name to a concrete, available one.

    ``None`` defers to ``$REPRO_ENGINE`` and then to ``auto``.  An
    explicit request for an engine this machine cannot run raises
    :class:`EngineUnavailableError` (``auto`` silently degrades
    instead — that is its contract).
    """
    if name is None:
        name = os.environ.get("REPRO_ENGINE", "").strip().lower() or AUTO
    else:
        name = name.strip().lower()
    if name == AUTO:
        return default_engine()
    if name == PYTHON:
        return PYTHON
    if name == COMPILED:
        if not compiled_available():
            raise EngineUnavailableError(
                "engine 'compiled' needs a working C toolchain to build "
                "the kernel; use --engine python (or auto) on this machine"
            )
        return COMPILED
    raise ValueError(
        f"unknown engine {name!r}; expected one of "
        f"{', '.join((AUTO,) + ENGINES)}"
    )
