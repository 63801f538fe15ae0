"""Byte-for-byte stdout of every simulating ``repro`` subcommand.

One fixed, tiny command sequence runs against a fresh store (cold
sweeps, cached re-runs, report formats, scenario presets and the
differential suite, then ``clean``), and each command's stdout must
equal the committed ``cli_stdout/<case>.out`` file.  Only two things
are masked: the elapsed ``N.Ns,`` of the summary lines and the
temporary store root.  Regenerate the files after an intended output
change with ``PYTHONPATH=src python tests/orchestration/test_cli_stdout.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from repro.experiment import Experiment
from repro.orchestration.cli import main
from repro.orchestration.serialize import scenario_to_dict
from repro.scenarios.model import consolidation_scenario
from repro.sim.config import scaled_two_core

FIXTURES = Path(__file__).with_name("cli_stdout")

REFS = ["--refs-per-core", "8000"]
GRID = ["--cores", "2", "--groups", "G2-8", "--policies", "fair_share,cooperative",
        *REFS]
SCENARIO = ["scenario", "--cores", "2", "--group", "G2-8", "--jobs", "1", *REFS]
SUITE = ["scenario", "--suite", "quick", "--filter", "sparse-2c",
         "--policies", "unmanaged,cooperative", "--governors", "none,coordinated",
         "--refs-per-core", "4000", "--jobs", "2"]

#: (case, argv, also record stderr); run in this order against one store
CASES = [
    ("sweep_dry_run", ["sweep", *GRID, "--jobs", "2", "--dry-run"], False),
    ("sweep_all_metrics", ["sweep", *GRID, "--jobs", "2", "--metric", "all"], False),
    ("sweep_cached", ["sweep", *GRID, "--jobs", "2"], False),
    ("sweep_serial_governed", ["sweep", *GRID, "--jobs", "1", "--pool", "serial",
                               "--governor", "coordinated"], False),
    ("sweep_spec_dry_run", ["sweep", "--spec", "{spec}", "--jobs", "2",
                            "--dry-run"], False),
    ("sweep_spec", ["sweep", "--spec", "{spec}", "--jobs", "2"], False),
    ("alone", ["alone", "lbm", "povray", "lbm", *REFS, "--jobs", "2"], False),
    ("report_table", ["report", *GRID], False),
    ("report_json", ["report", *GRID, "--format", "json"], False),
    ("report_csv", ["report", *GRID, "--format", "csv"], False),
    ("report_missing", ["report", "--cores", "2", "--groups", "G2-1",
                        "--policies", "ucp", *REFS], True),
    ("scenario_consolidation_table", [*SCENARIO, "--policies", "unmanaged,cooperative"],
     False),
    ("scenario_arrival_json", [*SCENARIO, "--preset", "arrival",
                               "--policies", "cooperative", "--format", "json"], False),
    ("scenario_phases_csv", [*SCENARIO, "--preset", "phases", "--policies",
                             "cooperative,cpe", "--format", "csv"], False),
    ("scenario_spec", [*SCENARIO, "--policies", "cooperative",
                       "--spec", "{scenario}"], False),
    ("suite_list", ["scenario", "--suite", "quick", "--list"], False),
    ("suite_table", SUITE, False),
    ("suite_csv", [*SUITE, "--format", "csv"], False),
    ("suite_json", [*SUITE, "--format", "json"], False),
    ("clean", ["clean"], False),
    ("scenario_governed_table", [*SCENARIO, "--policies", "cooperative",
                                 "--governor", "coordinated"], False),
]


def _write_inputs(root: Path) -> dict[str, str]:
    """The ``--spec`` documents the cases read: an Experiment list for
    ``sweep`` and a schedule for ``scenario``."""
    config = scaled_two_core(refs_per_core=8000)
    specs = [
        Experiment.alone_run("mcf", system=config),
        Experiment("G2-8", "ucp", config),
    ]
    spec = root / "experiments.json"
    spec.write_text(json.dumps([experiment.to_dict() for experiment in specs]))
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(scenario_to_dict(consolidation_scenario(
        ["lbm", "soplex"], [1], 2_900_000, name="from-spec",
    ))))
    return {"spec": str(spec), "scenario": str(scenario)}


def _mask(text: str, store: str) -> str:
    text = text.replace(store, "<STORE>")
    return re.sub(r"\d+\.\ds,", "<ELAPSED>s,", text)


def record_outputs(root: Path) -> dict[str, str]:
    """Run every case in order; masked output keyed by case name."""
    inputs = _write_inputs(root)
    store = str(root / "store")
    outputs: dict[str, str] = {}
    with pytest.MonkeyPatch.context() as patch:
        for name in ("REPRO_JOBS", "REPRO_POOL"):
            patch.delenv(name, raising=False)
        for case, argv, with_stderr in CASES:
            argv = [arg.format(**inputs) for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--store", store])
            text = f"exit {code}\n{out.getvalue()}"
            if with_stderr:
                text += f"--- stderr\n{err.getvalue()}"
            outputs[case] = _mask(text, store)
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, str]:
    return record_outputs(tmp_path_factory.mktemp("cli_stdout"))


@pytest.mark.parametrize("case", [case for case, _, _ in CASES])
def test_stdout_matches_the_recorded_fixture(outputs, case):
    expected = (FIXTURES / f"{case}.out").read_text(encoding="utf-8")
    assert outputs[case] == expected


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case, text in record_outputs(Path(scratch)).items():
            (FIXTURES / f"{case}.out").write_text(text, encoding="utf-8")
