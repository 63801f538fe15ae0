"""Fixtures for the observability tests.

Metrics and the trace recorder are process-global switches; every
test in this package runs against a clean, *disabled* default and is
responsible for enabling what it needs — the autouse fixture restores
the disabled state afterwards so obs tests can never leak
instrumentation into the rest of the suite.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import disable_metrics, reset_metrics
from repro.obs.trace import NULL_RECORDER, set_recorder


@pytest.fixture(autouse=True)
def clean_obs_state():
    disable_metrics()
    reset_metrics()
    set_recorder(NULL_RECORDER)
    yield
    disable_metrics()
    reset_metrics()
    set_recorder(NULL_RECORDER)
    from repro.obs.log import set_quiet

    set_quiet(False)
