"""The continuum's mass bound as an oracle for the presets' runs.

With zero flux, integrating the capital equation over the domain gives
d/dt ∫k = ∫A f(k) − δ∫k.  Production is bounded by sup f = α1/α2 when
p = q, and with no technology diffusion A = A0·e^{g t} ≤ max A0·e^{g_max t}
on the unit domain.  Grönwall then bounds the mass:

    ∫k(t) ≤ e^{−δt} ∫k0 + sup f · max A0 · (e^{g_max t} − e^{−δt}) / (g_max + δ).

In 1D the mass is the trapezoid rule over the sorted nodes.  In 2D no
quadrature weights are needed: min k ≤ mean k, and mean k0 ≤ max k0.
"""

import numpy as np
import pytest

from meshless_growth import get_preset, run


def trapezoid_mass(cloud, k):
    order = np.argsort(cloud.positions[:, 0])
    x, k = cloud.positions[order, 0], k[order]
    return float(((k[1:] + k[:-1]) / 2 * np.diff(x)).sum())


def mass_bound(params, m0, a0_max, t):
    assert params.p == params.q and params.tech_diffusion == 0.0
    g, delta = params.g_spec.level, params.delta  # the level is g's maximum over the domain
    decay = np.exp(-delta * t)
    sup_f = params.alpha1 / params.alpha2
    return decay * m0 + sup_f * a0_max * (np.exp(g * t) - decay) / (g + delta)


def envelope(name, overrides=None):
    """(time, value, bound) at each snapshot of the preset's run: the
    trapezoid mass in 1D, min k against the bound with M0 = max k0 in 2D."""
    scenario = get_preset(name, overrides)
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    traj = run(cloud, table, scenario.model, scenario.initial_state(cloud), scenario.scheme)
    assert traj.diverged is None
    first = traj.snapshots[0]
    if cloud.dim == 1:
        measure, m0 = (lambda k: trapezoid_mass(cloud, k)), trapezoid_mass(cloud, first.k)
    else:
        measure, m0 = np.min, first.k.max()
    return [(s.time, measure(s.k), mass_bound(scenario.model, m0, first.A.max(), s.time))
            for s in traj.snapshots]


@pytest.mark.parametrize("name", ["growth-1d-delta002", "growth-1d-delta005",
                                  "growth-2d-delta03"])
def test_preset_stays_under_the_mass_bound(name):
    rows = envelope(name)
    assert len(rows) == 5
    for time, value, bound in rows:
        assert value <= bound * (1 + 1e-12), (time, value, bound)


@pytest.mark.parametrize("name, t_final, ratio", [
    ("growth-1d-chi1", 15.0, 2.0),          # mass 88.1 against 42.3
    ("growth-2d-delta03-chi1", 11.5, 4.5),  # min k 38.2 against 7.82
])
def test_taxis_preset_leaves_the_mass_bound(name, t_final, ratio):
    # Pins a defect of the discrete taxis term (ROADMAP item 4): the run
    # leaves a bound that every solution of the continuum obeys.  When the
    # taxis term is mended, this test fails and should assert the bound.
    time, value, bound = envelope(name, {"scheme.t_final": str(t_final),
                                         "scheme.snapshot_times": f"0, {t_final}"})[-1]
    assert time == t_final
    assert value > ratio * bound
