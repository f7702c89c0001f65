"""Record the residuals that default-seed runs are checked against.

    python3 perfbench/golden.py

Runs the first jobs of every workload at the default seed and writes
``perfbench/golden_residuals.json``.  Re-record only when a change is
meant to move residuals, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import sheafsys.cli  # noqa: E402

from perfbench import harness, jobs  # noqa: E402

#: jobs recorded per workload; later jobs of a default-seed run go unchecked
RECORDED_JOBS = {"long_run": 12, "diagram": 16, "sheaf_laws": 48}


def main() -> int:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=out))
    golden = {}
    try:
        for workload in jobs.WORKLOADS:
            for index in range(RECORDED_JOBS[workload]):
                job = jobs.make_job(workload, jobs.DEFAULT_SEED, index)
                result = harness.run_job(job, workdir / f"{workload}{index}", sheafsys.cli.main)
                if not result.ok:
                    raise SystemExit("\n".join(result.failures))
                for name, residuals in result.residuals.items():
                    golden[f"{workload}/{index}/{name}"] = residuals
                print(f"{workload} job {index}: {result.seconds:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = Path(__file__).resolve().parent / "golden_residuals.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {len(golden)} command records to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
