"""Write a benchmark record: the ROADMAP baseline commands, the Tier-1
suite time, and repeated runs of every workload.

    python3 perfbench/record.py --out perfbench/records/BENCH_1.json

Two sets of runs follow each other.  In each set every workload runs
``RUNS`` times with seeds 1..RUNS (untraced), each run lasting
BENCHMARK.json's ``run_seconds``; then every workload runs once traced.
For every end-to-end metric and set the record gives the values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, and it compares the second set's median with the
first's: the two checks BENCHMARK.json's bounds are judged by.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

# ROADMAP open item 1: command -> wall seconds measured at the seed commit
ROADMAP_TABLE = {
    "simulate --system mass_spring": 0.67,
    "simulate --system rigid_body": 1.48,
    "ph verify-diagram --length 2": 1.55,
    "mp verify-diagram --length 2": 5.48,
    "mp audit-rates --length 3": 0.78,
    "ph audit-power --length 10": 1.07,
    "check-sheaf --system rigid_body --length 0.25": 0.48,
}
ROADMAP_TIER1_S = 49.0
RUNS = 10
SETS = 2
BASELINE_REPS = 5


def _bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=900, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def baseline(reps: int, workdir: Path) -> dict:
    """Time each ROADMAP command ``reps`` times in one process."""
    from run import _import_program

    cli = _import_program()
    table = {}
    for command, roadmap_s in ROADMAP_TABLE.items():
        times = []
        for rep in range(reps):
            out = workdir / f"{len(table)}-{rep}"
            start = perf_counter()
            code = cli.main(command.split() + ["--out", str(out)])
            times.append(perf_counter() - start)
            if code != 0:
                raise SystemExit(f"{command} exited {code}")
            shutil.rmtree(out)
        table[command] = {
            "roadmap_s": roadmap_s,
            "median_s": statistics.median(times),
            "min_s": min(times),
            "max_s": max(times),
            "reps": reps,
        }
        print(f"{command:<48} {statistics.median(times):.3f} s (ROADMAP {roadmap_s} s)", flush=True)
    return table


def tier1() -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=1800,
    )
    seconds = perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    passed = re.search(r"(\d+) passed", summary)
    print(f"tier-1: {summary} ({seconds:.1f} s wall)", flush=True)
    return {"wall_s": seconds, "summary": summary, "passed": int(passed.group(1)) if passed else 0,
            "roadmap_s": ROADMAP_TIER1_S}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    return (second - first) / first if better == "lower" else (first - second) / first


def workload_set(workload: str, spec: dict, seconds: str) -> dict:
    results = []
    for seed in range(1, RUNS + 1):
        results.append(_bench("--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"))
        print(f"{workload} seed {seed}: "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in results[-1]["metrics"].items()), flush=True)
    entry = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": {},
    }
    for metric in spec["end_to_end"]:
        name = metric["name"]
        e = entry["end_to_end"][name] = spread([r["metrics"][name]["value"] for r in results])
        print(f"  {name:<12} median {e['median']:.4f} {metric['unit']}  spread {e['spread']:.4f} "
              f"(bound {metric['bound']})", flush=True)
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    seconds = str(spec["run_seconds"])
    workloads = [w["name"] for w in spec["workloads"]]
    from run import environment, _import_program

    _import_program()
    record = {"environment": environment()}
    record["src_lines"] = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="baseline-", dir=ROOT / ".perfbench_out"))
    try:
        record["roadmap_baseline"] = baseline(BASELINE_REPS, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["tier1"] = tier1()
    record["run_seconds"] = int(seconds)
    record["sets"] = []
    for number in range(1, SETS + 1):
        print(f"set {number}", flush=True)
        record["sets"].append({w: workload_set(w, spec, seconds) for w in workloads})
        for workload in workloads:
            traced = _bench("--workload", workload, "--seed", "1", "--seconds", seconds, "--trace", "1")
            record["sets"][-1][workload]["correct"] &= traced["correct"]
            record["sets"][-1][workload]["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
    record["checks"] = {}
    first, last = record["sets"][0], record["sets"][-1]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            check = {
                "bound": metric["bound"],
                "spreads": [s[workload]["end_to_end"][name]["spread"] for s in record["sets"]],
                "medians_worse_by": worse_by(
                    first[workload]["end_to_end"][name]["median"],
                    last[workload]["end_to_end"][name]["median"],
                    metric["better"],
                ),
            }
            check["spread_ok"] = name == "setup_s" or max(check["spreads"]) <= metric["bound"]
            check["medians_ok"] = check["medians_worse_by"] <= metric["bound"]
            record["checks"][f"{workload}/{name}"] = check
            print(f"{workload:<10} {name:<12} spreads {' '.join(f'{x:.3f}' for x in check['spreads'])}  "
                  f"second median worse by {check['medians_worse_by']:+.3f}  (bound {metric['bound']})"
                  f"{'' if check['spread_ok'] and check['medians_ok'] else '  OUT OF BOUND'}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
