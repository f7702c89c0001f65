"""Negative controls for the structure laws a port system must meet when built.

Each case breaks one law of a valid port-Hamiltonian or metriplectic system
by a small amount.  Just above the law's tolerance the builder must raise
that law's error, naming it; just below, the system must build.  Matrix
laws move one entry (and its mirror entry where the break must keep J
antisymmetric or G symmetric, so only noninteraction fails) by 1e-9, above
the 1e-10 matrix tolerance, and by 1e-11, below it; gradient laws scale the
closed-form gradient by 1 + 1e-4, above the 1e-5 relative tolerance, and by
1 + 1e-7, below it.  A formula that is NaN at one default point (and
within 1e-3 of it, so that its central differences there are NaN too) must
fail the first law it breaks, naming that point, a -0.5 axis point without
negative zeros.
"""

import re

import numpy as np
import pytest

from sheafsys import MetriplecticSystem, NoninteractionViolation, PHSystem, StructureViolation

PH = {  # oscillator with damping on the momentum; H = |x|^2 / 2
    "J": [[0.0, 1.0], [-1.0, 0.0]],
    "R": [[0.0, 0.0], [0.0, 0.5]],
    "B": [[0.0], [1.0]],
}
MP = {  # H = x0^2 / 2, S = x1^2 / 2: J rotates (x0, x2), G damps (x1, x2)
    "J": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    "G": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "B": [[0.0], [0.0], [0.0]],
    "A": [[0.0], [0.0], [0.0]],
    "Jt": [[0.0]],
    "Gt": [[0.0]],
}
E0, E1 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])


def nan_near(value, point: np.ndarray):
    """``value``, a constant or a formula of one node, as a formula that is
    NaN within 1e-3 of ``point``."""
    def formula(x):
        v = np.asarray(value(x) if callable(value) else value, dtype=float)
        return v * np.nan if np.max(np.abs(x - point)) < 1e-3 else v
    return formula


def build(family: str, target: str, entries: dict, size: float, nan_at=None):
    """The valid system of ``family`` with ``target`` perturbed by ``size``:
    each (row, col) of a matrix moves by sign * size, or a gradient is
    scaled by 1 + size.  With ``nan_at``, ``target`` is NaN near that point."""
    f = {k: np.array(v) for k, v in (PH if family == "ph" else MP).items()}
    scale = {"grad H": 1.0, "grad S": 1.0}
    if target in scale:
        scale[target] += size
    else:
        for entry, sign in entries.items():
            f[target][entry] += sign * size
    if family == "ph":
        f.update({"H": lambda x: 0.5 * float(x @ x), "grad H": lambda x: scale["grad H"] * x})
    else:
        f.update({
            "H": lambda x: 0.5 * x[0] ** 2, "S": lambda x: 0.5 * x[1] ** 2,
            "grad H": lambda x: scale["grad H"] * x[0] * E0,
            "grad S": lambda x: scale["grad S"] * x[1] * E1,
        })
    if nan_at is not None:
        f[target] = nan_near(f[target], np.array(nan_at))
    if family == "ph":
        return PHSystem(2, 1, *(f[k] for k in ("J", "R", "B", "H", "grad H")))
    names = ("J", "G", "B", "A", "Jt", "Gt", "H", "S", "grad H", "grad S")
    return MetriplecticSystem(3, 1, *(f[k] for k in names))


LAWS = [  # family, perturbed matrix or gradient, {(row, col): sign}, error, message
    ("ph", "J", {(0, 1): 1}, StructureViolation, r"J\(x\) not antisymmetric"),
    ("ph", "R", {(0, 1): 1}, StructureViolation, r"R\(x\) not symmetric"),
    ("ph", "R", {(0, 0): -1}, StructureViolation, r"R\(x\) not positive semidefinite"),
    ("ph", "grad H", {}, StructureViolation, "grad H inconsistent"),
    ("mp", "J", {(0, 2): 1}, StructureViolation, r"J\(x\) not antisymmetric"),
    ("mp", "Jt", {(0, 0): 1}, StructureViolation, r"Jt\(x\) not antisymmetric"),
    ("mp", "G", {(1, 2): 1}, StructureViolation, r"G\(x\) not symmetric"),
    ("mp", "G", {(0, 0): -1}, StructureViolation, r"G\(x\) not positive semidefinite"),
    ("mp", "Gt", {(0, 0): -1}, StructureViolation,
     r"\[\[G, A\], \[A\^T, Gt\]\] not positive semidefinite"),
    ("mp", "grad H", {}, StructureViolation, "grad H inconsistent"),
    ("mp", "grad S", {}, StructureViolation, "grad S inconsistent"),
    ("mp", "J", {(0, 1): 1, (1, 0): -1}, NoninteractionViolation, "J grad S"),
    ("mp", "G", {(0, 1): 1, (1, 0): 1}, NoninteractionViolation, "G grad H"),
]


@pytest.mark.parametrize(
    "family, target, entries, error, message", LAWS,
    ids=[f"{law[0]}: {law[4]}".replace("\\", "") for law in LAWS],
)
def test_each_structure_law_rejects_a_break_above_its_tolerance(family, target, entries, error, message):
    fails, builds = (1e-4, 1e-7) if target.startswith("grad") else (1e-9, 1e-11)
    build(family, target, {}, 0.0)
    with pytest.raises(error, match=message):
        build(family, target, entries, fails)
    build(family, target, entries, builds)


NANS = [  # family, formula NaN near one default point, that point, error, message
    ("ph", "R", [0.0, 0.0], StructureViolation, "R(x) not symmetric"),
    ("ph", "J", [1.0, 0.0], StructureViolation, "J(x) not antisymmetric"),
    ("mp", "H", [0.3, 0.3, 0.3], StructureViolation, "grad H inconsistent with finite differences"),
    ("mp", "grad S", [0.0, 1.0, 0.0], NoninteractionViolation, "J grad S = inf"),
    ("mp", "A", [1.0, 0.0, 0.0], StructureViolation, "[[G, A], [A^T, Gt]] not positive semidefinite"),
    ("mp", "Gt", [0.0, 0.0, 1.0], StructureViolation, "[[G, A], [A^T, Gt]] not positive semidefinite"),
    ("mp", "S", [0.0, -0.5, 0.0], StructureViolation, "grad S inconsistent with finite differences"),
]


@pytest.mark.parametrize(
    "family, target, point, error, message", NANS, ids=[f"{nan[0]}: {nan[1]}" for nan in NANS],
)
def test_a_formula_nan_at_one_default_point_fails_there(family, target, point, error, message):
    with pytest.raises(error, match=re.escape(f"{message} at x = {point}")):
        build(family, target, {}, 0.0, nan_at=point)
