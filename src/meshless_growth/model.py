"""Capital-technology growth model: state, production function and coefficients.

The capital field obeys a diffusion equation with a technology-directed
taxis flux, production A*f(k), and linear depreciation; technology grows
at a position-dependent relative rate g and may itself diffuse:

    dk/dt = lap(k) - div(chi * k * grad(A)) + A f(k) - delta k
    dA/dt = d * lap(A) + A g(x)

with zero normal derivative of both fields on the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import NodeCloud


@dataclass(frozen=True)
class State:
    """Capital and technology fields at one time level."""

    k: np.ndarray
    A: np.ndarray
    time: float

    def __post_init__(self):
        if self.k.shape != self.A.shape:
            raise ValueError("k and A must have matching shapes")


def gaussian(positions: np.ndarray, center, sigma: float) -> np.ndarray:
    """exp(-r2 / (2 sigma^2)) at each row of positions, r2 its squared
    distance from center, for a sigma that check_width accepts."""
    # A far center or a tiny sigma sends r2 / (2 sigma^2) to inf: 0 there.
    with np.errstate(over="ignore"):
        r2 = ((positions - np.asarray(center, dtype=float)) ** 2).sum(axis=1)
        return np.exp(-r2 / (2.0 * sigma ** 2))


def check_width(sigma: float, lead: str, positive: str = "must be positive") -> None:
    """The width rule of every Gaussian: sigma > 0, and 2 sigma^2, which
    gaussian divides by, neither 0 nor inf.  Each message starts with lead;
    positive follows it for a sigma that is not > 0, NaN included."""
    if not sigma > 0:
        raise ValueError(f"{lead} {positive}")
    # 2 sigma^2 is inf from sigma = 1e154 on, where a float's ** may raise OverflowError
    width = 2.0 * float(sigma) ** 2 if sigma < 1e154 else np.inf
    if width == 0:
        raise ValueError(f"{lead} {sigma!r} is too small: 2 sigma^2 underflows to 0")
    if width == np.inf:
        raise ValueError(f"{lead} {sigma!r} is too large: 2 sigma^2 overflows")


@dataclass(frozen=True)
class GrowthSpec:
    """Relative technology growth rate g as a function of position."""

    kind: str = "constant"  # constant | gaussian
    level: float = 0.0
    center: tuple[float, ...] | None = None  # None: 0.5 on every axis
    sigma: float = 0.2

    def __post_init__(self):
        if self.kind not in ("constant", "gaussian"):
            raise ValueError(f"kind: must be one of ['constant', 'gaussian'], got {self.kind!r}")
        if self.kind == "gaussian":
            check_width(self.sigma, "sigma:", "must be positive for the gaussian kind")


@dataclass(frozen=True)
class ModelParams:
    """Model coefficients.  Production is f(k) = a1 k^p / (1 + a2 k^q)."""

    alpha1: float = 1.0
    alpha2: float = 1.0
    p: float = 2.0
    q: float = 3.0
    delta: float = 0.05          # depreciation rate
    chi: float = 0.0             # taxis sensitivity toward technology
    tech_diffusion: float = 0.0  # d in the technology equation
    g_spec: GrowthSpec = field(default_factory=GrowthSpec)

    def __post_init__(self):
        # Written as `not x >= 0` so that NaN fails too; an error names its field.
        for name in ("alpha1", "alpha2", "delta", "tech_diffusion"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name}: must be nonnegative")
        for name in ("p", "q"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: must be positive")


def production(k, params: ModelParams):
    """f(k) = a1 k^p / (1 + a2 k^q), elementwise; requires k >= 0."""
    k = np.asarray(k, dtype=float)
    # (k < 0).any() in one reduction: fmin skips NaN, and -0.0 is not below 0.
    if np.fmin.reduce(k, axis=None, initial=0.0) < 0:
        raise ValueError("production requires nonnegative capital")
    # Built in the order of a1 k^p / (1 + a2 k^q), so each rounding is the
    # expression's; k^p serves as k^q when q == p.
    kp = k ** params.p
    out = kp * params.alpha1
    den = kp if params.q == params.p else k ** params.q
    den *= params.alpha2
    den += 1.0
    out /= den
    return out if out.ndim else float(out)


def production_derivative(k, params: ModelParams):
    """f'(k) = a1 k^(p-1) [p + a2 (p-q) k^q] / (1 + a2 k^q)^2.

    Singular at k = 0 when p < 1.
    """
    k = np.asarray(k, dtype=float)
    if np.fmin.reduce(k, axis=None, initial=0.0) < 0:
        raise ValueError("production_derivative requires nonnegative capital")
    if params.p < 1 and (k == 0).any():
        raise ValueError("f'(0) is singular for p < 1")
    kq = params.alpha2 * k ** params.q
    out = params.alpha1 * k ** (params.p - 1.0) * (params.p + (params.p - params.q) * kq)
    out = out / (1.0 + kq) ** 2
    return out if out.ndim else float(out)


def tech_rate_field(cloud: NodeCloud, spec: GrowthSpec) -> np.ndarray:
    """g evaluated at every cloud node."""
    if spec.kind == "constant":
        return np.full(cloud.n_nodes, spec.level)
    center = (np.full(cloud.dim, 0.5) if spec.center is None
              else np.asarray(spec.center, dtype=float).ravel())
    if center.size != cloud.dim:
        raise ValueError(f"growth center has {center.size} coordinates for a {cloud.dim}D cloud")
    return spec.level * gaussian(cloud.positions, center, spec.sigma)
