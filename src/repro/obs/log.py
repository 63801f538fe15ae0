"""Progress output for long-running commands, with one quiet switch.

Every human-facing progress line in the library routes through
:func:`progress` so ``--quiet`` silences the lot in one place (a warm
pool passes the switch on to its workers).  Output goes to stderr so piped
stdout (reports, traces, metrics) stays machine-readable.
"""

from __future__ import annotations

import sys
from typing import TextIO

_quiet = False


def quiet() -> bool:
    return _quiet


def set_quiet(value: bool) -> None:
    global _quiet
    _quiet = bool(value)


def progress(line: str, *, stream: TextIO | None = None) -> None:
    """Emit one progress line unless quiet mode is on."""
    if _quiet:
        return
    out = stream if stream is not None else sys.stderr
    print(line, file=out, flush=True)


_noted: set[str] = set()


def note_fallback(layer: str, line: str) -> None:
    """Record one C-kernel-to-Python fallback in ``layer`` as a
    ``fallback`` event (``repro_kernel_fallbacks_total``); print
    ``line`` once per process."""
    from repro.obs.trace import recorder

    recorder().instant("fallback", cat="fallback", layer=layer)
    if layer not in _noted:
        _noted.add(layer)
        progress(line)
