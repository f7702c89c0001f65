"""Benchmark of the sheafsys CLI.

Run from the repository root:

    python3 perfbench/run.py --workload long_run --seed 1 --seconds 25 --trace 0

One client runs the workload's jobs back to back, in this process, through
``sheafsys.cli.main(argv)`` with BLAS/OpenMP threads pinned to 1, and
checks every job's verdicts.  ``--trace 0`` measures the end-to-end
metrics, with times scaled to a reference speed (see ``harness``);
``--trace 1`` runs the same jobs untraced and then traced and reports the
per-layer split (per-job averages) and the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.metadata
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = Path(__file__).resolve().parent / "golden_residuals.json"
SETUP_RUNS = 21


def _import_program():
    """Import the sheafsys sources of this checkout, and nothing else."""
    if not (SRC / "sheafsys" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no sheafsys sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT))
    import sheafsys.cli

    if Path(sheafsys.cli.__file__).resolve().parent != SRC / "sheafsys":
        raise SystemExit(f"perfbench: imported sheafsys from {sheafsys.cli.__file__}, not {SRC}")
    return sheafsys.cli


def environment() -> dict:
    """What makes two runs comparable: machine, interpreter, libraries, code.
    Library versions come from package metadata rather than imports of the
    packages; ``importlib.metadata`` itself adds about 2 MiB of resident
    memory, so call this only after ``peak_rss_mb`` has been read."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def peak_rss_mib() -> float:
    """Peak resident memory of this process (``VmHWM``).  Not ``ru_maxrss``:
    Linux carries the launching process's high-water mark into it across
    fork and exec, so it reads the launcher's memory when that is larger."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_untraced(cli, make_job, seconds: float, workdir: Path, golden: dict):
    from perfbench import harness

    setup_raw, setup = harness.measure_setup(SRC, SETUP_RUNS)
    # the second job repeats the first, into its own directory: rerun determinism
    results, wall = harness.closed_loop(
        lambda i: make_job(max(i - 1, 0)), seconds, workdir, cli.main, golden,
        keep=lambda i: i < 2, min_jobs=2, scale=True,
    )
    differ = harness.compare_trees(results[0].outdir, results[1].outdir)
    results[1].failures += [f"job 0 rerun: {name} differs from the first run" for name in differ]
    good = sum(r.ok for r in results)
    times = [r.scaled_seconds for r in results]
    raw = [r.seconds for r in results]
    rss_mib = peak_rss_mib()
    metrics = {
        "jobs_per_s": _metric(good / sum(times), "1/s"),
        "job_s_p50": _metric(statistics.median(times), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(rss_mib, "MiB"),
    }
    failed = len(results) - good
    lines = [
        f"{len(results)} jobs in {wall:.3f} s, closed loop, 1 client; the second repeats the first "
        f"and {'does NOT match' if differ else 'matches'} it",
        "times are at the reference speed (raw wall time x reference kernel nominal / measured);",
        f"the machine ran at {sum(times) / sum(raw):.3f} x the reference speed over the jobs",
        f"jobs_per_s   {metrics['jobs_per_s']['value']:.4f} 1/s (raw {good / sum(raw):.4f})",
        f"job_s_p50    {metrics['job_s_p50']['value']:.4f} s (median of n={len(times)} jobs; "
        f"min {min(times):.4f}, max {max(times):.4f}; raw median {statistics.median(raw):.4f})",
        f"setup_s      {metrics['setup_s']['value']:.4f} s (median of {len(setup)} fresh interpreters; "
        f"raw median {statistics.median(setup_raw):.4f})",
        f"peak_rss_mb  {rss_mib:.1f} MiB",
        f"error_rate   {failed / len(results):.4f} ratio ({failed} failed / {len(results)} attempted)",
    ]
    return results, metrics, lines


def run_traced(cli, make_job, seconds: float, workdir: Path, golden: dict, spans_path: Path):
    from perfbench import harness, tracing

    # untraced reference for the overhead ratio: as many jobs as fit in half the time
    plain, plain_wall = harness.closed_loop(
        make_job, seconds / 2, workdir / "plain", cli.main, golden, keep=lambda i: True
    )
    tracer = tracing.Tracer()

    def make_traced(i):
        tracer.job = i
        return make_job(i)

    with tracer:
        traced, traced_wall = harness.closed_loop(
            make_traced, float("inf"), workdir / "traced", tracer.span("cli", cli.main), golden,
            keep=lambda i: True, max_jobs=len(plain),
        )
    for a, b in zip(plain, traced):
        for name in harness.compare_trees(a.outdir, b.outdir):
            b.failures.append(f"job {b.job.index}: traced {name} differs from untraced")
    n = len(traced)
    job_time = sum(r.seconds for r in traced)
    metrics = tracer.per_layer(n, sum(r.report_bytes for r in traced), traced_wall / plain_wall)
    spans_path.write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}),
        encoding="ascii",
    )
    _, _, inclusive = tracer.layer_times()
    lines = [
        f"traced {n} jobs ({job_time:.3f} s of commands); untraced reference {plain_wall:.3f} s; "
        f"spans in {spans_path.relative_to(ROOT)}",
        "inclusive share of traced command time:",
    ]
    lines += [
        f"  {name:<45} {100.0 * t / job_time:6.1f} %"
        for name, t in sorted(inclusive.items(), key=lambda kv: -kv[1])
    ]
    lines.append("per-layer metrics (per job):")
    units = dict(tracing.PER_LAYER)
    lines += [f"  {name:<50} {value:.6g} {units[name]}" for name, value in metrics.items()]
    return plain + traced, {k: _metric(v, units[k]) for k, v in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_program()
    from perfbench import jobs

    if args.workload not in jobs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(jobs.WORKLOADS)}")
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        make_job = lambda i: jobs.make_job(args.workload, args.seed, i, jobs.FULL)  # noqa: E731
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
            checked, metrics, lines = run_traced(cli, make_job, args.seconds, workdir, golden, spans_path)
        else:
            checked, metrics, lines = run_untraced(cli, make_job, args.seconds, workdir, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          + " ".join(f"{k}={v}" for k, v in environment().items()))
    failures = [f for r in checked for f in r.failures]
    for line in lines + [f"FAILED {f}" for f in failures[:20]]:
        print(line)
    failed = sum(not r.ok for r in checked)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
