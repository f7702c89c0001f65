"""Workload definitions: the CLI jobs each workload runs and the verdicts
they must give.

Every job is derived from ``(workload, seed, index)`` alone, so one
workload seed fixes the whole job sequence: the CLI ``--seed`` of each
command, the initial states and the coefficients of the explicit config.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOADS = ("long_run", "diagram", "sheaf_laws")
DEFAULT_SEED = 0
GRID_STEP = 1e-3

#: interval lengths of the measured jobs (the sizes the workloads are named for)
FULL = {
    "simulate": 10.0,
    "ph_audit": 10.0,
    "mp_audit": 3.0,
    "blowup": 1.0,
    "diagram": 0.5,
    "sheaf": 0.25,
}
#: the smallest lengths the CLI accepts for the same commands (self-test)
SMALLEST = {
    "simulate": 0.01,
    "ph_audit": 0.01,
    "mp_audit": 0.01,
    "blowup": 1.0,
    "diagram": 0.01,
    "sheaf": 0.01,
}

Invariant = Callable[[dict], Optional[str]]


@dataclass
class Command:
    """One CLI invocation and the verdict it must give."""

    name: str
    argv: tuple
    expect_exit: int = 0
    expect_pass: bool = True
    invariants: tuple = ()


@dataclass
class Job:
    workload: str
    seed: int
    index: int
    configs: dict = field(default_factory=dict)  # file name -> JSON document
    commands: list = field(default_factory=list)


def _zero(key: str) -> Invariant:
    def check(report: dict) -> Optional[str]:
        value = report["residuals"].get(key)
        return None if value == 0 else f"residual {key} = {value}, expected 0"

    return check


def _blowup_near(x0: float) -> Invariant:
    def check(report: dict) -> Optional[str]:
        t_star = report["residuals"].get("blow_up_time")
        if t_star is None or not abs(t_star - 1.0 / x0) <= GRID_STEP:
            return f"blow_up_time {t_star} not within one step of 1/x0 = {1.0 / x0:.6g}"
        return None

    return check


def _uniform(rng: random.Random, lo: float, hi: float, n: int) -> list:
    return [rng.uniform(lo, hi) for _ in range(n)]


def _polynomial_ph(rng: random.Random) -> dict:
    """A Duffing-type port system: H = k q^2/2 + c q^4/4 + p^2/2, damped p."""
    k = rng.uniform(0.5, 2.0)
    c = rng.uniform(0.05, 0.5)
    return {
        "kind": "ph",
        "name": "duffing",
        "n": 2,
        "m": 1,
        "J": [[0.0, 1.0], [-1.0, 0.0]],
        "R": [[0.0, 0.0], [0.0, rng.uniform(0.0, 0.2)]],
        "B": [[0.0], [1.0]],
        "H": {
            "terms": [
                {"coeff": 0.5 * k, "powers": [2, 0]},
                {"coeff": 0.25 * c, "powers": [4, 0]},
                {"coeff": 0.5, "powers": [0, 2]},
            ]
        },
        "x0": _uniform(rng, -1.5, 1.5, 2),
    }


def _length(value: float) -> tuple:
    return ("--length", repr(value))


def make_job(workload: str, seed: int, index: int, lengths: dict = FULL) -> Job:
    rng = random.Random(f"{workload}/{seed}/{index}")
    job = Job(workload, seed, index)
    if workload == "long_run":
        x0_blowup = rng.uniform(1.5, 3.0)
        job.configs = {
            "mass_spring.json": {"system": "mass_spring", "params": {"x0": _uniform(rng, -2.0, 2.0, 2)}},
            "rigid_body.json": {"system": "rigid_body", "params": {"x0": _uniform(rng, -1.5, 1.5, 3)}},
            "duffing.json": _polynomial_ph(rng),
            "blowup.json": {"system": "blowup", "params": {"x0": [x0_blowup]}},
        }
        job.commands = [
            Command("ms_simulate", ("simulate", "--config", "mass_spring.json", *_length(lengths["simulate"]))),
            Command("ms_audit", ("ph", "audit-power", "--config", "mass_spring.json", *_length(lengths["ph_audit"]))),
            Command("rb_simulate", ("simulate", "--config", "rigid_body.json", *_length(lengths["simulate"]))),
            Command("rb_audit", ("mp", "audit-rates", "--config", "rigid_body.json", *_length(lengths["mp_audit"]))),
            Command("duffing_audit", ("ph", "audit-power", "--config", "duffing.json", *_length(lengths["ph_audit"]))),
            Command(
                "blowup_simulate",
                ("simulate", "--config", "blowup.json", *_length(lengths["blowup"])),
                invariants=(_blowup_near(x0_blowup),),
            ),
        ]
    elif workload == "diagram":
        cli_seed = str(rng.randrange(2**31))
        job.commands = [
            Command(
                f"{kind}_verify",
                (kind, "verify-diagram", *_length(lengths["diagram"]), "--seed", cli_seed),
                invariants=(_zero("injectivity_collisions"),),
            )
            for kind in ("ph", "mp")
        ]
    elif workload == "sheaf_laws":
        cli_seed = str(rng.randrange(2**31))
        job.commands = [
            Command(
                f"{system}_sheaf",
                ("check-sheaf", "--system", system, *_length(lengths["sheaf"]), "--seed", cli_seed),
                invariants=(_zero("glue_exact_failures"), _zero("separation_collisions")),
            )
            for system in ("mass_spring", "rigid_body", "blowup", "linear")
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return job
