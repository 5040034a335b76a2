"""Self-test of the benchmark on a reduced slice of every workload.

Run from the root of a checkout (about two minutes):

    python3 perfbench/selftest.py

Checks that
- every metric named in ``BENCHMARK.json`` is printed, with its unit, on
  every workload, traced and untraced, and the outputs check correct;
- the traced self times plus ``other.self_s`` reconcile with the traced
  wall time, and no entry point is missing;
- a corrupted golden CCR makes the run report failures;
- a directory holding only the benchmark makes the run fail without a
  result;
- no file of the checkout is created, changed or removed by a run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench_work" / "selftest"
# Directories a run may write to: its scratch and output areas, caches.
UNTRACKED = {".git", ".perfbench_out", ".perfbench_work", "__pycache__"}
RECONCILE_TOLERANCE = 0.03


def snapshot() -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file outside the run's own directories."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in UNTRACKED]
        for name in filenames:
            path = Path(dirpath) / name
            stat = path.stat()
            files[str(path.relative_to(ROOT))] = (stat.st_size, stat.st_mtime_ns)
    return files


def run(workload: str, trace: int, cwd: Path = ROOT):
    """One smoke-slice run of ``perfbench/run.py`` from ``cwd``."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    done = subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=300
    )
    lines = done.stdout.strip().splitlines()
    return done, lines


def last_json(lines: list[str]):
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    before = snapshot()

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done, lines = run(workload, trace)
            result = last_json(lines)
            label = f"{workload} trace={trace}"
            if done.returncode != 0 or result is None:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: outputs failed their checks")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
            text = "\n".join(lines[:-1])
            for name, unit in expected[trace].items():
                if not any(
                    line.split()[:1] == [name] and line.split()[-1] == unit
                    for line in text.splitlines()
                ):
                    problems.append(f"{label}: {name} [{unit}] not printed")
            if trace == 1:
                full = json.loads(
                    (ROOT / ".perfbench_out" / f"{workload}.trace1.json").read_text()
                )
                accounted = sum(full["self_s"].values()) + full["other_self_s"]
                wall = full["traced_wall_s"]
                if abs(accounted - wall) > RECONCILE_TOLERANCE * wall:
                    problems.append(
                        f"{label}: self times {accounted:.4f}s vs wall {wall:.4f}s"
                    )
                if full["missing_entry_points"]:
                    problems.append(
                        f"{label}: missing {full['missing_entry_points']}"
                    )

    # A wrong golden CCR must surface as failures, not abort the run.
    copy = SCRATCH / "corrupted"
    for path in ("src", ".repro_cache", *spec["paths"]):
        shutil.copytree(ROOT / path, copy / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    golden_path = copy / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["ccr"]["c432/M3/dl"] += 1.0
    golden_path.write_text(json.dumps(golden))
    done, lines = run("cold-attack", 0, cwd=copy)
    result = last_json(lines)
    if done.returncode != 0 or result is None:
        problems.append(f"corrupted golden: exit {done.returncode}")
    elif result["correct"] or result["failed"] < 1:
        problems.append("corrupted golden: run still reported correct")

    # Without the program, the run must fail and print no result.
    bare = SCRATCH / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done, lines = run("cold-attack", 0, cwd=bare)
    if done.returncode == 0 or last_json(lines) is not None:
        problems.append("bare directory: run did not fail cleanly")
    shutil.rmtree(SCRATCH)
    if SCRATCH.parent.is_dir() and not any(SCRATCH.parent.iterdir()):
        SCRATCH.parent.rmdir()

    after = snapshot()
    changed = sorted(
        path for path in before.keys() | after.keys()
        if before.get(path) != after.get(path)
    )
    if changed:
        problems.append(f"checkout changed by the runs: {changed[:10]}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
