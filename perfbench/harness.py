"""Closed-loop job runner and the correctness gate.

One client runs one job at a time, in-process through
``sheafsys.cli.main(argv)``, and checks every command's exit code, ``pass``
flag and report invariants before it starts the next job.

Times can be scaled to a reference speed.  On a shared VM the speed of a
core can drift by 20-40 % within minutes; a fixed reference kernel, timed
before the first command of a job and after every command, measures that
speed, and each command's wall time is multiplied by ``REFERENCE_S`` / (the
mean of the kernel times around it).  The kernel runs no sheafsys code, so
the factor does not depend on the program, and a change to the program
moves scaled times in the same proportion as raw ones.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from .jobs import DEFAULT_SEED, Job

RESIDUAL_ATOL = 1e-12
#: seconds of one reference_kernel() call at the reference speed: about its
#: median on the 2-vCPU 2.1 GHz Xeon VM the first record was made on
REFERENCE_S = 0.003
REFERENCE_REPS = 5


def reference_kernel() -> float:
    """Fixed work in the program's mix: a Python loop over small numpy arrays."""
    a = np.linspace(0.0, 1.0, 64)
    total = 0.0
    for i in range(1200):
        a = a * 0.999 + 0.001
        total += float(a[i % 64]) * 0.5
    return total


def reference_time() -> float:
    """Median wall seconds of ``REFERENCE_REPS`` reference kernel calls."""
    times = []
    for _ in range(REFERENCE_REPS):
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def timed(steps: list, scale: bool) -> tuple:
    """Call each of ``steps`` in turn.  Returns (their results, wall seconds,
    seconds at the reference speed); reference measurements between the
    steps are not counted in either time.  Without ``scale`` no reference
    runs and the two times are equal."""
    results, raw, scaled = [], 0.0, 0.0
    before = reference_time() if scale else REFERENCE_S
    for step in steps:
        start = perf_counter()
        results.append(step())
        took = perf_counter() - start
        after = reference_time() if scale else REFERENCE_S
        raw += took
        scaled += took * 2.0 * REFERENCE_S / (before + after)
        before = after
    return results, raw, scaled


@dataclass
class JobResult:
    job: Job
    outdir: Path
    seconds: float
    scaled_seconds: float
    residuals: dict = field(default_factory=dict)  # command name -> residuals
    report_bytes: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _call_cli(cli_main: Callable, argv: list) -> tuple:
    """Run one command; returns (exit code, error text or None)."""
    try:
        return cli_main(argv), None
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # a job that raises is a failed job, not a crashed run
        return None, f"{type(exc).__name__}: {exc}"


def run_job(job: Job, outdir: Path, cli_main: Callable, scale: bool = False) -> JobResult:
    """Run every command of ``job`` into its own directory under ``outdir``,
    then check what each one reported.  With ``scale`` the job's time is
    also given at the reference speed."""
    outdir.mkdir(parents=True)
    for name, doc in job.configs.items():
        (outdir / name).write_text(json.dumps(doc, sort_keys=True), encoding="ascii")
    argvs = [
        [str(outdir / a) if a in job.configs else a for a in cmd.argv] + ["--out", str(outdir / cmd.name)]
        for cmd in job.commands
    ]
    runs, seconds, scaled = timed([partial(_call_cli, cli_main, argv) for argv in argvs], scale)
    result = JobResult(job, outdir, seconds, scaled)
    for cmd, (code, error) in zip(job.commands, runs):
        where = f"{job.workload} job {job.index} {cmd.name}"
        if error is not None:
            result.failures.append(f"{where}: raised {error}")
            continue
        if code != cmd.expect_exit:
            result.failures.append(f"{where}: exit code {code}, expected {cmd.expect_exit}")
        path = outdir / cmd.name / "report.json"
        try:
            raw = path.read_bytes()
        except OSError as exc:
            result.failures.append(f"{where}: no report ({exc})")
            continue
        result.report_bytes += len(raw)
        try:
            report = json.loads(raw)
            result.residuals[cmd.name] = dict(report["residuals"])
            passed = report["pass"]
        except (ValueError, KeyError, TypeError) as exc:
            result.failures.append(f"{where}: malformed report ({exc!r})")
            continue
        if passed is not cmd.expect_pass:
            result.failures.append(f"{where}: pass = {passed}, expected {cmd.expect_pass}")
        for invariant in cmd.invariants:
            problem = invariant(report)
            if problem:
                result.failures.append(f"{where}: {problem}")
    return result


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= RESIDUAL_ATOL


def check_golden(result: JobResult, golden: dict) -> None:
    """Compare the residuals of a default-seed job with the recorded ones."""
    job = result.job
    if job.seed != DEFAULT_SEED:
        return
    for name, got in result.residuals.items():
        want = golden.get(f"{job.workload}/{job.index}/{name}")
        if want is None:
            continue
        if set(got) != set(want):
            result.failures.append(
                f"{job.workload} job {job.index} {name}: residual names {sorted(got)} != recorded {sorted(want)}"
            )
            continue
        for key in sorted(want):
            if not _close(got[key], want[key]):
                result.failures.append(
                    f"{job.workload} job {job.index} {name}: {key} = {got[key]!r}, "
                    f"recorded {want[key]!r} (atol {RESIDUAL_ATOL:g})"
                )


def closed_loop(
    make_job: Callable[[int], Job],
    seconds: float,
    workdir: Path,
    cli_main: Callable,
    golden: dict,
    keep: Callable[[int], bool],
    max_jobs: Optional[int] = None,
    min_jobs: int = 1,
    scale: bool = False,
) -> tuple:
    """Run jobs back to back until ``seconds`` have passed (at least
    ``min_jobs``, at most ``max_jobs``).  Returns (results, wall seconds).
    Job outputs are deleted once checked unless ``keep(index)``."""
    results = []
    start = perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        outdir = workdir / f"job{index}"
        result = run_job(make_job(index), outdir, cli_main, scale)
        check_golden(result, golden)
        if not keep(index):
            shutil.rmtree(outdir)
        results.append(result)
        index += 1
        if index < min_jobs:
            continue
        if perf_counter() >= deadline or (max_jobs is not None and index >= max_jobs):
            break
    return results, perf_counter() - start


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def compare_trees(first: Path, second: Path) -> list:
    """Names of files that differ between two output trees, or are missing from one."""
    a, b = tree_bytes(first), tree_bytes(second)
    return sorted(name for name in set(a) | set(b) if a.get(name) != b.get(name))


def measure_setup(src: Path, runs: int) -> tuple:
    """Wall seconds and seconds at the reference speed of ``runs`` fresh
    interpreters that import ``sheafsys.cli`` and resolve the four
    built-ins; one unmeasured launch first fills the bytecode cache.  No
    timeout: with one, ``wait`` polls in steps of up to 50 ms and the times
    come out quantised."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sheafsys.cli as cli; "
        "[cli.resolve_builtin(name) for name in sorted(cli.BUILTIN_SYSTEMS)]"
    )
    argv = [sys.executable, "-c", code, str(src)]
    launch = lambda: subprocess.run(argv, check=True)  # noqa: E731
    launch()
    raw, scaled = [], []
    for _ in range(runs):
        _, seconds, at_reference = timed([launch], scale=True)
        raw.append(seconds)
        scaled.append(at_reference)
    return raw, scaled
