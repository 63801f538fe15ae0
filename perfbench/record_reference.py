"""Record the reference digests ``verify.py`` checks every run against.

    python3 perfbench/record_reference.py --seeds 0-20,2012

One plain pass per (workload, seed); its per-task digests, pass digest
and engine-invariant counts are merged into ``perfbench/reference.json``.
Re-record only in a change that is meant to alter simulated results;
a change that claims a speed-up must leave this file alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import specs
import verify


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=_seeds)
    options = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    os.environ["REPRO_KERNEL_CACHE"] = str(run.WORK / "kernel")
    try:
        document = json.loads(verify.REFERENCE_PATH.read_text())
    except FileNotFoundError:
        document = {}
    for workload in specs.WORKLOADS:
        for seed in options.seeds:
            directory = run.WORK / f"record-{os.getpid()}"
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir(parents=True)
            try:
                bench = run.Run(
                    argparse.Namespace(seed=seed, size="full"),
                    workload,
                    directory,
                )
                record = bench.run_pass("plain", "warm")
                if not record["ok"]:
                    raise SystemExit(f"{workload} seed {seed}: {record['error']}")
                check = record["check"]
                document.setdefault(workload, {})[str(seed)] = {
                    "digest": check["digest"],
                    "tasks": verify.short_tasks(check["tasks"]),
                    "sim_refs": record["sim_refs"],
                    "epochs": record["epochs"],
                    "takeover_events": check["takeover_events"],
                }
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            print(f"{workload} seed {seed}: {check['digest'][:16]}", flush=True)
    document = {
        workload: dict(sorted(document[workload].items(), key=lambda item: int(item[0])))
        for workload in sorted(document)
    }
    verify.REFERENCE_PATH.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
