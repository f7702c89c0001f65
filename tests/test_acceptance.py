"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with ``pytest -v`` to get the per-criterion verdict lines; the printed
summaries carry the measured numbers for the report.
"""

import json
import time

import numpy as np
import pytest

from sheafsys import (
    BlowUp,
    ConstraintViolation,
    OdeBehavior,
    build_diagram,
    closed_behavior,
    closed_energy_drift,
    degeneracy_audit,
    dissipation_margin,
    embed,
    glue,
    identical,
    integrate,
    port_machine,
    power_balance,
    rate_audit,
    restrict,
    seeded_initial_states,
    side_condition_residuals,
    sup_distance,
)
from sheafsys.cli import main
from sheafsys.ode_behavior import assert_conditions
from sheafsys.systems import blowup_field, mass_spring_system, rigid_body_system

H = 1e-3


def verdict(num, ok, text):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def test_criterion_01_sheaf_laws_bit_exact():
    started = time.monotonic()
    h = 2.0 ** -10  # dyadic step: all node times are exact binary floats
    suites = []
    specs = (
        ("blowup", 16, 0.25),
        ("mass_spring", 17, 0.5),
        ("rigid_body", 17, 0.5),
    )
    for which, count, length in specs:
        if which == "blowup":
            behavior = OdeBehavior(blowup_field(), h, 1e-3)
            dim = 1
        elif which == "mass_spring":
            behavior = closed_behavior(mass_spring_system(), h, 1e-3)
            dim = 2
        else:
            behavior = closed_behavior(rigid_body_system(), h, 1e-3)
            dim = 3
        probes = [
            behavior.sampler(x0, length, shift=(i + 1) * 8 * h)
            for i, x0 in enumerate(seeded_initial_states(41 + len(suites), count, dim))
        ]
        suites.append(probes)

    total = sum(len(p) for p in suites)
    assert total == 50
    functorial = glued = True
    for probes in suites:
        for e in probes:
            steps = e.num_nodes - 1
            cut = (steps // 2) * h
            left = restrict(e, cut, 0.0)
            right = restrict(e, e.length - cut, cut)
            glued &= identical(glue(left, right), e)
            twice = restrict(
                restrict(e, e.length - 8 * h, 8 * h), e.length - 16 * h, 8 * h
            )
            functorial &= identical(twice, restrict(e, e.length - 16 * h, 16 * h))

    separation_ok = True
    for probes in suites:
        for i in range(len(probes)):
            for j in range(i + 1, len(probes)):
                a, b = probes[i], probes[j]
                if a.num_nodes != b.num_nodes or sup_distance(a, b) <= 1e-9:
                    continue
                cut = ((a.num_nodes - 1) // 2) * h
                halves_agree = sup_distance(
                    restrict(a, cut, 0.0), restrict(b, cut, 0.0)
                ) <= 1e-9 and sup_distance(
                    restrict(a, a.length - cut, cut),
                    restrict(b, b.length - cut, cut),
                ) <= 1e-9
                if halves_agree:
                    separation_ok = False

    elapsed = time.monotonic() - started
    ok = functorial and glued and separation_ok and elapsed <= 30.0
    assert verdict(
        1, ok,
        f"{total} probes: functoriality and glue bit-exact, "
        f"separation clean, {elapsed:.1f}s",
    )
    assert functorial and glued and separation_ok
    assert elapsed <= 30.0


def test_criterion_02_integrator_oracle():
    field = blowup_field()
    run = integrate(field, [1.0], 0.9, 1e-4)
    exact = 1.0 / (1.0 - run.times)
    rel = float(np.max(np.abs(run.values[:, 0] - exact) / exact))
    blew = False
    t_star = None
    try:
        integrate(field, [1.0], 2.0, 1e-4)
    except BlowUp as exc:
        blew = True
        t_star = exc.t_star
    ok = rel <= 1e-6 and blew and abs(t_star - 1.0) <= 0.01
    assert verdict(
        2, ok, f"rel err {rel:.3e} at t=0.9; blow-up reported at t={t_star}",
    )
    assert rel <= 1e-6
    assert blew and abs(t_star - 1.0) <= 0.01


def test_criterion_03_convergence_order():
    field = blowup_field()

    def rel_error(h):
        run = integrate(field, [1.0], 0.9, h)
        exact = 1.0 / (1.0 - run.times)
        return float(np.max(np.abs(run.values[:, 0] - exact) / exact))

    coarse, fine = rel_error(1e-3), rel_error(5e-4)
    ratio = coarse / fine
    ok = ratio >= 12.0 and coarse <= 1e-6
    assert verdict(
        3, ok, f"error {coarse:.3e} -> {fine:.3e}, improvement x{ratio:.1f}",
    )
    assert ratio >= 12.0
    assert coarse <= 1e-6


def test_criterion_04_oscillator_energy_and_embedding():
    ms = mass_spring_system()
    run = closed_behavior(ms, H).sampler([1.0, 0.0], 10.0)
    drift = closed_energy_drift(ms, run)
    zeta = embed(ms, run).channels(("zeta0",))[:, 0]
    # closed form: zeta(t) = integral of sin = 1 - cos t for this start
    gap = float(np.max(np.abs(zeta - (1.0 - np.cos(run.times)))))
    ok = drift <= 1e-6 and gap <= 1e-6
    assert verdict(4, ok, f"energy drift {drift:.2e}, port integral gap {gap:.2e}")
    assert drift <= 1e-6
    assert gap <= 1e-6


def test_criterion_05_power_balance():
    drive = lambda t: np.array([np.sin(t)])
    ms = mass_spring_system()
    run = port_machine(ms, H).behavior.sampler([1.0, 0.0], drive, 10.0)
    lossless = power_balance(ms, run)
    msd = mass_spring_system(damping=0.1)
    rund = port_machine(msd, H).behavior.sampler([1.0, 0.0], drive, 10.0)
    damped = power_balance(msd, rund)
    margin = dissipation_margin(msd, rund)
    ok = lossless <= 1e-5 and damped <= 1e-5 and margin <= 1e-5
    assert verdict(
        5, ok,
        f"balance defect {lossless:.2e}; damped {damped:.2e}, "
        f"supply excess {margin:.2e}",
    )
    assert lossless <= 1e-5
    assert damped <= 1e-5
    assert margin <= 1e-5


def test_criterion_06_port_hamiltonian_diagram():
    started = time.monotonic()
    ms = mass_spring_system()
    beh = closed_behavior(ms, H)
    probes = [beh.sampler(x0, 2.0) for x0 in seeded_initial_states(11, 5, 2)]
    report = build_diagram(ms, probes, tolerance=1e-5)
    flipped = build_diagram(ms, probes, tolerance=1e-5, integral_sign=-1.0)
    elapsed = time.monotonic() - started
    worst = max(report.defects.values())
    ok = report.passed and not flipped.passed and elapsed <= 60.0
    assert verdict(
        6, ok,
        f"triangle defect {worst:.1e}; sign flip fails "
        f"(beta defect {flipped.defects['triangle beta']:.2f}); {elapsed:.1f}s",
    )
    assert report.passed
    assert not flipped.passed
    assert elapsed <= 60.0


def test_criterion_07_metriplectic_degeneracy():
    rb = rigid_body_system()
    laws = rb.structure_residuals(np.array(seeded_initial_states(7, 100, 3)))
    worst_js, worst_gh = laws["J grad S"][0], laws["G grad H"][0]
    beh = closed_behavior(rb, H, 1e-3)
    drift = 0.0
    rate_min = np.inf
    for run in beh.sampler(np.array(seeded_initial_states(3, 5, 3)), 10.0):
        audit = degeneracy_audit(rb, run)
        drift = max(drift, audit["energy_drift"])
        rate_min = min(rate_min, audit["entropy_rate_min"])
    ok = (
        worst_js <= 1e-10 and worst_gh <= 1e-10
        and drift <= 1e-6 and rate_min >= -1e-8
    )
    assert verdict(
        7, ok,
        f"degeneracy residuals {worst_js:.1e}/{worst_gh:.1e}; "
        f"energy drift {drift:.1e}, entropy rate min {rate_min:.1e}",
    )
    assert worst_js <= 1e-10 and worst_gh <= 1e-10
    assert drift <= 1e-6
    assert rate_min >= -1e-8


def test_criterion_08_side_condition_enforcement():
    rb = rigid_body_system()
    port = port_machine(rb, H, 1e-3)
    drive = lambda t: np.array([0.2 * np.sin(t)])
    compliant = port.behavior.sampler([1.0, 0.5, 0.5], drive, lambda t: np.zeros(1), 3.0)
    residual = port.behavior.membership(compliant)
    assert_conditions(side_condition_residuals(rb, compliant))  # must not raise
    audit = rate_audit(rb, compliant)
    offender = port.behavior.sampler(
        [1.0, 0.5, 0.5], drive, lambda t: np.array([0.3]), 3.0
    )
    rejected = None
    try:
        assert_conditions(side_condition_residuals(rb, offender))
    except ConstraintViolation as exc:
        rejected = exc
    ok = (
        residual <= port.behavior.tolerance
        and audit["energy_rate_defect"] <= 1e-5
        and rejected is not None
        and rejected.condition == "B tau"
    )
    assert verdict(
        8, ok,
        f"compliant residual {residual:.1e}, rate defect "
        f"{audit['energy_rate_defect']:.1e}; offender rejected naming "
        f"{getattr(rejected, 'condition', None)!r}",
    )
    assert residual <= port.behavior.tolerance
    assert audit["energy_rate_defect"] <= 1e-5
    assert rejected is not None and rejected.condition == "B tau"


def test_criterion_09_metriplectic_diagram():
    rb = rigid_body_system()
    beh = closed_behavior(rb, H, 1e-3)
    probes = [beh.sampler(x0, 2.0) for x0 in seeded_initial_states(11, 5, 3)]
    report = build_diagram(rb, probes, 1e-5, residual_tolerance=1e-3)
    flipped = build_diagram(
        rb, probes, 1e-5, residual_tolerance=1e-3, integral_sign=-1.0
    )
    worst = max(report.defects.values())
    ok = report.passed and not flipped.passed
    assert verdict(
        9, ok,
        f"triangle defect {worst:.1e}; quadrature flip fails "
        f"(beta defect {flipped.defects['triangle beta']:.2f})",
    )
    assert report.passed
    assert not flipped.passed


def test_criterion_10_cli_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / f"sheaf-{tag}"
        code = main([
            "check-sheaf", "--system", "mass_spring", "--length", "0.064",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].iterdir())
    same = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in names
    )
    for tag in ("first", "second"):
        out = tmp_path / f"ni-{tag}"
        assert main(["mp", "check-noninteraction", "--seed", "7", "--out", str(out)]) == 0
    same &= (
        (tmp_path / "ni-first" / "report.json").read_bytes()
        == (tmp_path / "ni-second" / "report.json").read_bytes()
    )
    with open(outputs[0] / "report.json") as fh:
        passed = json.load(fh)["pass"]
    ok = same and passed
    assert verdict(
        10, ok, f"{len(names)} files byte-identical across repeat runs",
    )
    assert same and passed
