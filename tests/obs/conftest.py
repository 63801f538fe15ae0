"""Fixtures for the observability tests.

The trace recorder and the quiet switch are process-global; every test
in this package runs against the disabled default and is responsible
for enabling what it needs — the autouse fixture restores the
defaults afterwards so obs tests can never leak instrumentation into
the rest of the suite.
"""

from __future__ import annotations

import pytest

from repro.obs.log import set_quiet
from repro.obs.trace import NULL_RECORDER, set_recorder


@pytest.fixture(autouse=True)
def clean_obs_state():
    set_recorder(NULL_RECORDER)
    yield
    set_recorder(NULL_RECORDER)
    set_quiet(False)
