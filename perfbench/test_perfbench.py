"""Smoke tests of the benchmark itself, at the tiny size.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ledger  # noqa: E402
import run  # noqa: E402
import specs  # noqa: E402
import verify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        ],
        capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload: str, trace: int) -> None:
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    catalogue = run.PER_LAYER if trace else run.END_TO_END
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == catalogue
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert result["metrics"]["ledger.coverage"]["value"] >= run.COVERAGE_FLOOR


def test_names_and_units_are_well_formed() -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for section, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in declared[section]} == catalogue
    assert [w["name"] for w in declared["workloads"]] == list(specs.WORKLOADS)
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


@pytest.mark.parametrize("size", specs.SIZES)
@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_seed_changes_only_the_system_seed(workload: str, size: str) -> None:
    first = specs.build(workload, 11, size)
    second = specs.build(workload, 12, size)
    assert {spec.system.seed for spec in first} == {11}
    assert {spec.system.seed for spec in second} == {12}
    assert [spec.to_dict() for spec in first] == [
        spec.with_system(dataclasses.replace(spec.system, seed=11)).to_dict()
        for spec in second
    ]


def test_default_seed_is_the_programs_own() -> None:
    from repro.sim.config import SystemConfig

    assert specs.DEFAULT_SEED == SystemConfig.__dataclass_fields__["seed"].default


#: a traced driver pass with the wrappers of ``missing`` — ``(owner
#: name, attribute)`` pairs — put back right after installation
DRIVER_WITHOUT = """
import sys
sys.path.insert(0, {here!r})
import driver, ledger
install = ledger.instrument
def instrument(book, kernel):
    patches = install(book, kernel)
    ledger.uninstall([
        patch for patch in patches
        if (getattr(patch[0], "__name__", ""), patch[1]) in {missing!r}
    ])
    return patches
ledger.instrument = instrument
sys.exit(driver.main(sys.argv[1:]))
"""


def _traced_coverage(directory: Path, workload: str, missing: set) -> float:
    bench = run.Run(argparse.Namespace(seed=5, size="tiny"), workload, directory)
    out = directory / "report.json"
    launch = time.monotonic()
    subprocess.run(
        [
            sys.executable, "-c", DRIVER_WITHOUT.format(here=str(HERE), missing=missing),
            "--specs", str(bench.specs_path), "--store", str(directory / "store"),
            "--out", str(out), "--launch", repr(launch),
            "--pool", "serial", "--mode", "traced",
        ],
        env=bench.env, check=True, timeout=170,
    )
    report = json.loads(out.read_text())
    wall = report["stamps"]["assembled"] - launch
    return ledger.attributed_s(report["ledger"]["self_s"]) / wall


@pytest.mark.parametrize(
    "workload, wrapper",
    (
        ("threshold-grid", ("CMPSimulator", "run")),
        ("scenario-dvfs", ("repro.sim.runner", "generate_trace")),
    ),
)
def test_coverage_falls_when_a_wrapper_is_missing(tmp_path, monkeypatch, workload, wrapper) -> None:
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(run.WORK / "kernel"))
    (tmp_path / "whole").mkdir()
    (tmp_path / "without").mkdir()
    whole = _traced_coverage(tmp_path / "whole", workload, set())
    without = _traced_coverage(tmp_path / "without", workload, {wrapper})
    assert without < run.COVERAGE_FLOOR <= whole


def test_setup_launch_gives_one_scaled_sample(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(run.WORK / "kernel"))
    bench = run.Run(argparse.Namespace(seed=5, size="tiny"), "figs-cold", tmp_path)
    bench.run_setup()
    assert bench.setup_errors == []
    assert len(bench.setups) == 1 and 0 < bench.setups[0] < run.PASS_TIMEOUT_S
    assert not list(tmp_path.glob("setup-*"))


def test_output_check_catches_a_corrupted_artifact(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(run.WORK / "kernel"))
    options = argparse.Namespace(seed=5, size="tiny")
    bench = run.Run(options, "threshold-grid", tmp_path)
    record = bench.run_pass("plain", "warm")
    assert record["ok"], record.get("error")
    store_root = bench.kept_store
    clean = dict(record["check"], sim_refs=record["sim_refs"], epochs=record["epochs"])
    victim = next(task for task in bench.tasks if task.kind == "group")
    assert verify.resimulate(store_root, [victim]) == []

    from repro.orchestration.store import ResultStore

    path = ResultStore(store_root).path_for(victim.task_key())
    envelope = json.loads(path.read_text())
    envelope["payload"]["end_cycle"] += 1
    path.write_text(json.dumps(envelope))

    again = verify.digest_pass(store_root, bench.tasks, record["tables"])
    again.update(sim_refs=record["sim_refs"], epochs=record["epochs"])
    problems = verify.compare_pass(again, clean)
    assert problems == [f"task #{bench.tasks.index(victim)} digest differs"]
    assert len(verify.resimulate(store_root, [victim])) == 1
