"""The program imports nothing outside the standard library.

Every process pays its imports before its first task, and a sweep
starts several processes, so a third-party import on the start-up
path (numpy used to be one) costs each of them.  A bare interpreter
records ``sys.modules``, then imports ``repro`` and the CLI and
generates a trace; every module that appears must be in
the standard library or under ``repro.``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import repro
import repro.orchestration.cli
from repro.sim.config import scaled_two_core
from repro.workloads import generate_trace, profile_for
config = scaled_two_core()
generate_trace(profile_for("mcf"), config.l2, config.l1.total_lines, 2000)
main = sys.modules["__main__"]  # multiprocessing aliases it as __mp_main__
print(json.dumps(sorted(
    name for name in set(sys.modules) - before if sys.modules[name] is not main
)))
"""


def test_start_up_path_imports_only_stdlib_and_repro():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "repro.orchestration.cli" in loaded
    foreign = [
        name
        for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name != "repro"
        and not name.startswith("repro.")
    ]
    assert not foreign, f"non-stdlib modules on the start-up path: {foreign}"
