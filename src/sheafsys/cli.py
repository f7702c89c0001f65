"""Command-line interface.

Commands
--------
list-examples           show the built-in systems
simulate                integrate the closed system, write CSV + report
audit                   run the structure audit suited to the system kind
check-sheaf             probe separation/gluing laws on seeded members
verify-diagram          assemble and verify the port-control triangle
ph simulate|audit-power|verify-diagram
mp simulate|audit-rates|check-noninteraction|verify-diagram

Flags: --system, --config, --length, --step, --tol, --seed, --out.
Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
Reports are deterministic for a fixed seed: no timestamps, sorted keys.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys as _sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .errors import BlowUp, ConfigError, ConstraintViolation, SheafSysError
from .interval_sheaf import Trajectory, write_csv
from .ode_behavior import OdeBehavior, membership_residual
from .port_diagram import closed_behavior
from .port_hamiltonian import (
    build_ph_diagram,
    dissipation_margin,
    closed_energy_drift,
    ph_iso_machine,
    power_balance,
)
from .metriplectic import (
    build_metriplectic_diagram,
    degeneracy_audit,
    noninteraction_residuals,
    port_metriplectic_machine,
    rate_audit,
    side_condition_residuals,
)
from .systems import (
    BUILTIN_SYSTEMS,
    SystemBundle,
    bundle_from_config,
    load_config,
    resolve_builtin,
    seeded_initial_states,
)

MIN_NODES = 10
MAX_NODES = 10_000_000


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command, system, numerics, output location."""

    command: str
    system_ref: str
    length: float
    step: float
    tolerance: float
    seed: int
    output_dir: str
    config_path: Optional[str] = None


def _positive(value: float, name: str) -> float:
    value = float(value)
    if not value > 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def _resolve_bundle(config: RunConfig) -> SystemBundle:
    if config.config_path:
        return bundle_from_config(load_config(config.config_path))
    if not config.system_ref:
        raise ConfigError(
            f"no system given; use --system with one of: "
            f"{', '.join(sorted(BUILTIN_SYSTEMS))} or --config with a file"
        )
    return resolve_builtin(config.system_ref)


def _node_guard(length: float, step: float) -> int:
    steps = int(round(length / step))
    nodes = steps + 1
    if nodes < MIN_NODES or nodes > MAX_NODES:
        raise ConfigError(
            f"run of {nodes} nodes outside [{MIN_NODES}, {MAX_NODES}]; "
            f"adjust --length/--step"
        )
    return nodes


def _closed_behavior_for(bundle: SystemBundle, step: float) -> OdeBehavior:
    if bundle.kind in ("ph", "mp"):
        return closed_behavior(bundle.instance, step, bundle.residual_tolerance)
    return OdeBehavior(
        bundle.instance, step, bundle.residual_tolerance,
        tuple(f"x{i}" for i in range(bundle.instance.dimension)),
    )


def _write_report(config: RunConfig, bundle_name: str, passed: bool, residuals: dict, notes: list) -> None:
    report = {
        "command": config.command,
        "system": bundle_name,
        "pass": bool(passed),
        "residuals": {k: v for k, v in sorted(residuals.items())},
        "notes": list(notes),
        "version": __version__,
        "config": {
            "system": config.system_ref,
            "length": config.length,
            "step": config.step,
            "tolerance": config.tolerance,
            "seed": config.seed,
        },
    }
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, "report.json")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trajectory(config: RunConfig, name: str, e: Trajectory) -> None:
    os.makedirs(config.output_dir, exist_ok=True)
    write_csv(e, os.path.join(config.output_dir, name))


# ---------------------------------------------------------------------------
# drivers


def _drive_simulate(config: RunConfig, bundle: SystemBundle) -> int:
    _node_guard(config.length, config.step)
    behavior = _closed_behavior_for(bundle, config.step)
    notes = []
    try:
        run = behavior.sample(bundle.initial_state, config.length)
        residuals = {"membership": float(behavior.membership(run))}
    except BlowUp as exc:
        run = exc.trajectory
        notes.append(f"blow-up after t = {exc.t_star:.6g}; trajectory truncated")
        residuals = {"blow_up_time": float(exc.t_star)}
    _write_trajectory(config, "trajectory.csv", run)
    _write_report(config, bundle.name, True, residuals, notes)
    return 0


def _driven_ph_run(bundle: SystemBundle, config: RunConfig):
    port = ph_iso_machine(bundle.instance, config.step, bundle.residual_tolerance)
    return port.behavior.sampler(
        bundle.initial_state,
        lambda t: np.full(bundle.instance.m, np.sin(t)),
        config.length,
    )


def _driven_mp_run(bundle: SystemBundle, config: RunConfig):
    port = port_metriplectic_machine(
        bundle.instance, config.step, bundle.residual_tolerance
    )
    return port.behavior.sampler(
        bundle.initial_state,
        lambda t: np.full(bundle.instance.m, 0.2 * np.sin(t)),
        lambda t: np.zeros(bundle.instance.m),
        config.length,
    )


def _drive_audit(config: RunConfig, bundle: SystemBundle) -> int:
    _node_guard(config.length, config.step)
    notes = []
    if bundle.kind == "ph":
        run = _driven_ph_run(bundle, config)
        residuals = {
            "power_balance_defect": float(power_balance(bundle.instance, run)),
            "dissipation_excess": float(dissipation_margin(bundle.instance, run)),
        }
        closed_run = _closed_behavior_for(bundle, config.step).sample(
            bundle.initial_state, config.length
        )
        residuals["closed_energy_drift"] = float(
            closed_energy_drift(bundle.instance, closed_run)
        )
        passed = residuals["power_balance_defect"] <= config.tolerance
    elif bundle.kind == "mp":
        run = _driven_mp_run(bundle, config)
        residuals = {k: float(v) for k, v in rate_audit(bundle.instance, run).items()}
        side = side_condition_residuals(bundle.instance, run)
        worst_side = max(v for v, _ in side.values())
        residuals["side_conditions"] = float(worst_side)
        closed_run = _closed_behavior_for(bundle, config.step).sample(
            bundle.initial_state, config.length
        )
        audit = degeneracy_audit(bundle.instance, closed_run)
        residuals.update({k: float(v) for k, v in audit.items()})
        passed = (
            residuals["energy_rate_defect"] <= config.tolerance
            and residuals["entropy_rate_defect"] <= config.tolerance
            and worst_side <= 1e-8
            and audit["entropy_rate_min"] >= -1e-8
        )
    else:
        behavior = _closed_behavior_for(bundle, config.step)
        try:
            run = behavior.sample(bundle.initial_state, config.length)
        except BlowUp as exc:
            run = exc.trajectory
            notes.append(f"blow-up after t = {exc.t_star:.6g}; audited the truncated run")
        residual = float(membership_residual(behavior.field, run))
        residuals = {"membership": residual}
        passed = residual <= bundle.residual_tolerance
    _write_trajectory(config, "run.csv", run)
    _write_report(config, bundle.name, passed, residuals, notes)
    return 0 if passed else 1


def _drive_check_sheaf(config: RunConfig, bundle: SystemBundle) -> int:
    from .interval_sheaf import check_sheaf_axioms

    behavior = _closed_behavior_for(bundle, config.step)
    sheaf = behavior.as_behavior_sheaf()
    steps = min(int(round(config.length / config.step)), 256)
    if steps < 8:
        raise ConfigError("probe windows need at least 8 grid steps")
    probe_length = steps * config.step
    _node_guard(probe_length, config.step)
    dimension = behavior.field.dimension
    probes = []
    notes = []
    for x0 in seeded_initial_states(config.seed, 10, dimension):
        try:
            probes.append(behavior.sample(x0, probe_length))
        except BlowUp:
            notes.append(f"probe from {np.round(x0, 3).tolist()} blew up; skipped")
    cuts = sorted({(steps // 4) * config.step, (steps // 2) * config.step,
                   (3 * steps // 4) * config.step})
    report = check_sheaf_axioms(sheaf, probes, [c for c in cuts if c > 0])
    residuals = {
        "worst_glue_residual": float(report.worst_glue_residual()),
        "probes": float(len(probes)),
        "separation_collisions": float(
            sum(len(c.separation_collisions) for c in report.checks)
        ),
        "glue_exact_failures": float(sum(not c.glue_exact for c in report.checks)),
    }
    for i, e in enumerate(probes[:3]):
        _write_trajectory(config, f"probe_{i}.csv", e)
    _write_report(config, bundle.name, report.passed, residuals, notes)
    return 0 if report.passed else 1


def _drive_verify_diagram(config: RunConfig, bundle: SystemBundle) -> int:
    _node_guard(config.length, config.step)
    behavior = _closed_behavior_for(bundle, config.step)
    if bundle.kind not in ("ph", "mp"):
        raise ConfigError(
            f"system {bundle.name!r} has no port structure to verify; "
            f"use a ph or mp system"
        )
    dimension = bundle.instance.n
    probes = [
        behavior.sample(x0, config.length)
        for x0 in seeded_initial_states(config.seed, 5, dimension)
    ]
    build = build_ph_diagram if bundle.kind == "ph" else build_metriplectic_diagram
    report = build(
        bundle.instance, probes, config.tolerance, residual_tolerance=bundle.residual_tolerance
    )
    for i, e in enumerate(probes):
        _write_trajectory(config, f"probe_{i}.csv", e)
    doc = report.to_dict()
    residuals = dict(doc["defects"])
    residuals["injectivity_collisions"] = float(
        sum(len(v) for v in doc["collisions"].values())
    )
    _write_report(config, bundle.name, report.passed, residuals, list(doc["notes"]))
    return 0 if report.passed else 1


def _drive_check_noninteraction(config: RunConfig, bundle: SystemBundle) -> int:
    if bundle.kind != "mp":
        raise ConfigError("check-noninteraction needs a two-generator (mp) system")
    points = seeded_initial_states(config.seed, 100, bundle.instance.n)
    worst_js, worst_gh, _, _ = noninteraction_residuals(bundle.instance, points)
    residuals = {"J_gradS": float(worst_js), "G_gradH": float(worst_gh)}
    passed = worst_js <= config.tolerance and worst_gh <= config.tolerance
    _write_report(config, bundle.name, passed, residuals, [])
    return 0 if passed else 1


def _drive_list_examples() -> int:
    lines = ["built-in systems:"]
    for name in sorted(BUILTIN_SYSTEMS):
        bundle = resolve_builtin(name)
        defaults = {
            k: v for k, v in bundle.parameters.items() if not isinstance(v, (list, tuple))
        }
        shown = ", ".join(f"{k}={v:g}" for k, v in sorted(defaults.items()))
        x0 = np.asarray(bundle.initial_state).tolist()
        lines.append(
            f"  {name:<12} [{bundle.kind}] {bundle.description}"
        )
        lines.append(
            f"  {'':<12} defaults: {shown or 'none'}; x0 = {x0}; length = {bundle.default_length:g}"
        )
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", default=None, help="built-in system name")
    parser.add_argument("--config", default=None, help="JSON system configuration")
    parser.add_argument("--length", type=float, default=None, help="interval length")
    parser.add_argument("--step", type=float, default=1e-3, help="grid step")
    parser.add_argument("--tol", type=float, default=None, help="check tolerance")
    parser.add_argument("--seed", type=int, default=0, help="probe seed")
    parser.add_argument("--out", default="sheafsys_out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheafsys",
        description="Behavior sheaves, machines, and port-control diagrams.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list-examples", help="show the built-in systems")
    for name, help_text in (
        ("simulate", "integrate the closed system"),
        ("audit", "run the structure audit for the system kind"),
        ("check-sheaf", "probe separation and gluing on seeded members"),
        ("verify-diagram", "verify the port-control triangle"),
    ):
        _add_common_flags(sub.add_parser(name, help=help_text))
    ph = sub.add_parser("ph", help="port-system commands")
    ph_sub = ph.add_subparsers(dest="subcommand")
    for name in ("simulate", "audit-power", "verify-diagram"):
        _add_common_flags(ph_sub.add_parser(name))
    mp = sub.add_parser("mp", help="two-generator system commands")
    mp_sub = mp.add_subparsers(dest="subcommand")
    for name in ("simulate", "audit-rates", "check-noninteraction", "verify-diagram"):
        _add_common_flags(mp_sub.add_parser(name))
    return parser


_DEFAULT_TOLERANCES = {
    "audit": 1e-5,
    "verify-diagram": 1e-5,
    "check-sheaf": 1e-4,
    "simulate": 1e-4,
    "check-noninteraction": 1e-10,
}


def _config_from_args(args, command: str) -> RunConfig:
    tolerance = args.tol if args.tol is not None else _DEFAULT_TOLERANCES.get(
        command.split()[-1], 1e-5
    )
    return RunConfig(
        command=command,
        system_ref=args.system or "",
        length=args.length if args.length is not None else -1.0,
        step=_positive(args.step, "step"),
        tolerance=_positive(tolerance, "tolerance"),
        seed=int(args.seed),
        output_dir=args.out,
        config_path=args.config,
    )


def run(config: RunConfig) -> int:
    """Execute a resolved invocation; returns the process exit code."""
    bundle = _resolve_bundle(config)
    if config.length <= 0:
        config = dataclasses.replace(config, length=bundle.default_length)
    if config.command.startswith("ph ") and bundle.kind != "ph":
        raise ConfigError(
            f"system {bundle.name!r} is kind {bundle.kind!r}; ph commands need a port system"
        )
    if config.command.startswith("mp ") and bundle.kind != "mp":
        raise ConfigError(
            f"system {bundle.name!r} is kind {bundle.kind!r}; mp commands need a two-generator system"
        )
    base = config.command.split()[-1]
    if base == "simulate":
        return _drive_simulate(config, bundle)
    if base in ("audit", "audit-power", "audit-rates"):
        return _drive_audit(config, bundle)
    if base == "check-sheaf":
        return _drive_check_sheaf(config, bundle)
    if base == "verify-diagram":
        return _drive_verify_diagram(config, bundle)
    if base == "check-noninteraction":
        return _drive_check_noninteraction(config, bundle)
    raise ConfigError(f"unknown command {config.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list-examples":
        return _drive_list_examples()
    command = args.command
    if command in ("ph", "mp"):
        if getattr(args, "subcommand", None) is None:
            print(f"error: {command} needs a subcommand", file=_sys.stderr)
            return 2
        command = f"{command} {args.subcommand}"
        if args.system is None and args.config is None:
            args.system = "mass_spring" if command.startswith("ph") else "rigid_body"
    try:
        return run(_config_from_args(args, command))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return 2
    except ConstraintViolation as exc:
        print(f"check failed: {exc}", file=_sys.stderr)
        return 1
    except SheafSysError as exc:
        print(f"check failed: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
