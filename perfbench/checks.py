"""Correctness checks on one workload run.

Each check either computes its reference apart from the solver (exact
derivatives of monomials, face normals, the forward-Euler growth of A) or
tests a property the method must have.  None compares against stored output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)
EXACTNESS_TOL = 1e-9    # relative, check (a)
ZERO_FLUX_TOL = 1e-8    # relative, check (b)
FACE_TOL = 1e-12        # a node within FACE_TOL * length of a face lies on it


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def face_normals(positions: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Boundary mask and outward unit normals of nodes on [0, length]^2.

    Corners take the normalized sum of their two face normals.
    """
    tol = FACE_TOL * length
    normals = np.zeros_like(positions)
    normals[positions <= tol] -= 1.0
    normals[positions >= length - tol] += 1.0
    norm = np.sqrt((normals ** 2).sum(axis=1))
    on_face = norm > 0
    normals[on_face] /= norm[on_face, None]
    return on_face, normals


def stencil_exactness(positions: np.ndarray, derivatives) -> CheckResult:
    """(a) Every node's stencil differentiates 1, x, y, x^2, y^2, xy exactly.

    derivatives(field) returns columns x, y, xx, yy, xy.  The error in each
    column is taken relative to the largest exact value of that column.
    """
    x, y = positions[:, 0], positions[:, 1]
    one, zero = np.ones_like(x), np.zeros_like(x)
    cases = {
        "1": (one, [zero, zero, zero, zero, zero]),
        "x": (x, [one, zero, zero, zero, zero]),
        "y": (y, [zero, one, zero, zero, zero]),
        "x^2": (x * x, [2 * x, zero, 2 * one, zero, zero]),
        "y^2": (y * y, [zero, 2 * y, zero, 2 * one, zero]),
        "xy": (x * y, [y, x, zero, zero, one]),
    }
    exact = {name: np.column_stack(cols) for name, (_, cols) in cases.items()}
    scale = np.max([np.abs(e).max(axis=0) for e in exact.values()], axis=0)
    worst, where = 0.0, ""
    for name, (field, _) in cases.items():
        err = np.abs(derivatives(field) - exact[name]) / scale
        node, col = np.unravel_index(np.argmax(err), err.shape)
        if err[node, col] >= worst:
            worst, where = float(err[node, col]), f"{name}, node {node}, column {col}"
    return CheckResult("stencil_exactness", worst <= EXACTNESS_TOL,
                       f"max relative error {worst:.3e} ({where}), tolerance {EXACTNESS_TOL:.0e}")


def zero_flux(positions: np.ndarray, length: float, derivatives, fields) -> CheckResult:
    """(b) The discrete normal derivative of each field vanishes on the boundary.

    Relative to the field's natural gradient scale max|u| / length.
    """
    on_face, normals = face_normals(positions, length)
    worst = 0.0
    for field in fields:
        grad = derivatives(field)[on_face, :2]
        flux = np.abs((grad * normals[on_face]).sum(axis=1))
        worst = max(worst, float(flux.max() * length / np.abs(field).max()))
    return CheckResult("zero_flux", worst <= ZERO_FLUX_TOL,
                       f"max relative normal derivative {worst:.3e}, tolerance {ZERO_FLUX_TOL:.0e}")


def growth_rate(positions: np.ndarray, model) -> np.ndarray:
    """g at every node, from the scenario's [model] section."""
    level = float(model["g_level"])
    if model["g_kind"] == "constant":
        return np.full(positions.shape[0], level)
    center = np.array([float(c) for c in model["g_center"].split(",")])
    sigma = float(model["g_sigma"])
    r2 = ((positions - center) ** 2).sum(axis=1)
    return level * np.exp(-r2 / (2.0 * sigma ** 2))


def technology_growth(positions: np.ndarray, length: float, config, times, A) -> CheckResult:
    """(c) With no technology diffusion, interior A is forward Euler on A' = gA.

    (1 + g dt_1) ... (1 + g dt_n) lies between exp(g t)(1 - g^2 t dt_max / 2)
    and exp(g t).  Each step may add a few roundings, hence a slack of 4 n eps.
    """
    if float(config["model"].get("tech_diffusion", "0")) != 0.0:
        raise ValueError("technology_growth needs tech_diffusion = 0")
    if config["initial"]["A0_kind"] != "constant":
        raise ValueError("technology_growth needs a constant initial A")
    a0 = float(config["initial"]["A0_value"])
    interior = ~face_normals(positions, length)[0]
    g = growth_rate(positions, config["model"])[interior]
    steps = np.diff(times)
    t, dt_max, n = float(times[-1] - times[0]), float(steps.max()), steps.size
    upper = a0 * np.exp(g * t)
    lower = upper * (1.0 - g ** 2 * t * dt_max / 2.0)
    a = A[interior]
    excess = float(np.max(np.maximum(a / upper - 1.0, 1.0 - a / lower)))
    slack = 4 * n * EPS
    return CheckResult("technology_growth", excess <= slack,
                       f"largest excursion outside the Euler band {excess:.3e}, slack {slack:.1e}")


def completion(trajectory, t_final: float) -> CheckResult:
    """(d) The run reaches t_final with no divergence and finite fields."""
    final = trajectory.final
    problems = []
    if trajectory.diverged is not None:
        problems.append(str(trajectory.diverged))
    if final is None or abs(final.time - t_final) > 1e-9 * max(1.0, t_final):
        problems.append(f"ended at t={None if final is None else final.time!r}")
    elif not (np.isfinite(final.k).all() and np.isfinite(final.A).all()):
        problems.append("non-finite fields")
    return CheckResult("completion", not problems,
                       "; ".join(problems) or f"reached t={final.time!r}")


def run_checks(config, cloud, table, trajectory) -> list[CheckResult]:
    """All four checks on one finished run, in the order (a) to (d)."""
    t_final = float(config["scheme"]["t_final"])
    done = completion(trajectory, t_final)
    if trajectory.final is None:
        missing = CheckResult("no_output", False, "the run produced no final state")
        return [missing, missing, missing, done]
    times = np.array([rec.time for rec in trajectory.log])
    final = trajectory.final
    return [
        stencil_exactness(cloud.positions, table.derivatives),
        zero_flux(cloud.positions, cloud.length, table.derivatives, (final.k, final.A)),
        technology_growth(cloud.positions, cloud.length, config, times, final.A),
        done,
    ]
