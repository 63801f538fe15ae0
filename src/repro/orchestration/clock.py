"""The one blessed wall-clock call site.

Wall time never becomes data: it stays out of results and task keys,
and the trace recorder's metadata event (:mod:`repro.obs.trace`) is
its only consumer.  Keeping the read in one function gives the
``wall-clock`` static-analysis rule a single allowlisted module:
``time.time()`` anywhere else in ``src/`` fails ``repro check``.

Monotonic *span* timers (``time.perf_counter``) are a different
animal — they measure durations, never become data, and stay legal
everywhere.
"""

from __future__ import annotations

import time


def wall_now() -> float:
    """Seconds since the epoch — the only wall-clock read in ``src/``."""
    return time.time()
