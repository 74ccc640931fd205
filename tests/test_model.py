"""Production function, its derivative, and technology growth rates."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from meshless_growth import (
    GrowthSpec,
    ModelParams,
    generate_regular,
    production,
    production_derivative,
    parse_scenario_text,
    tech_rate_field,
)
from meshless_growth.errors import ScenarioError
from oracles import production_two_powers, tech_rate


def test_production_frozen_values():
    params = ModelParams(alpha1=1.0, alpha2=1.0, p=2.0, q=3.0)
    assert production(0.0, params) == 0.0
    assert production(1.0, params) == 0.5
    assert production(2.0, params) == pytest.approx(4.0 / 9.0)
    p2 = ModelParams(alpha1=2.0, alpha2=0.5, p=1.0, q=2.0)
    assert production(2.0, p2) == pytest.approx(4.0 / 3.0)


def test_production_derivative_frozen_values():
    # p = q = 1, a1 = a2 = 1: f = k/(1+k), f' = 1/(1+k)^2
    params = ModelParams(p=1.0, q=1.0)
    assert production_derivative(1.0, params) == pytest.approx(0.25)
    assert production_derivative(0.0, params) == 1.0
    # saturating p = q = 2 case peaks then decays
    sat = ModelParams(p=2.0, q=2.0)
    assert production_derivative(0.0, sat) == 0.0
    assert production_derivative(1.0, sat) == pytest.approx(0.5)


@settings(max_examples=50, deadline=None)
@given(
    k=st.floats(0.01, 50.0),
    p=st.floats(1.0, 3.0),
    q=st.floats(1.0, 4.0),
    a1=st.floats(0.1, 3.0),
    a2=st.floats(0.1, 3.0),
)
def test_production_derivative_matches_central_difference(k, p, q, a1, a2):
    params = ModelParams(alpha1=a1, alpha2=a2, p=p, q=q)
    eps = 1e-6 * max(k, 1.0)
    fd = (production(k + eps, params) - production(k - eps, params)) / (2 * eps)
    assert production_derivative(k, params) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


NONNEGATIVE = (st.floats(0.0, allow_nan=False)
               | st.sampled_from([0.0, 5e-324, 1e-160, 1e154, np.inf]))


@settings(max_examples=200, deadline=None)
@given(
    k=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=40),
                 elements=NONNEGATIVE),
    p=st.sampled_from([1.0, 2.0, 3.0]) | st.floats(0.1, 4.0),
    q=st.none() | st.sampled_from([1.0, 2.0, 3.0]) | st.floats(0.1, 4.0),
    a1=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0),
    a2=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0),
)
def test_production_equals_two_power_oracle_bit_for_bit(k, p, q, a1, a2):
    # q None draws q == p, where production takes one power
    params = ModelParams(alpha1=a1, alpha2=a2, p=p, q=p if q is None else q)
    with np.errstate(all="ignore"):  # inf / inf, 0 * inf and overflowing powers, as in the oracle
        got, want = production(k, params), production_two_powers(k, params)
    assert type(got) is type(want)
    assert _same_bits(got, want)


@pytest.mark.parametrize("k", [-0.0, np.array(-0.0), np.array([]), np.empty((0, 3)), np.nan,
                               np.array([np.nan, 1.0]), np.array([[0.0, -0.0], [np.nan, 2.0]])])
def test_production_sign_check_accepts_what_two_powers_accepts(k):
    params = ModelParams(p=2.0, q=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _same_bits(production(k, params), production_two_powers(k, params))
        production_derivative(k, params)


@pytest.mark.parametrize("k", [-1e-300, -5e-324, -np.inf, np.array(-2.0), [1.0, -1.0],
                               [np.nan, -1.0], [[0.0, 1.0], [2.0, -3.0]], [-1.0, np.nan]])
def test_production_rejects_any_negative_entry(k):
    for params in (ModelParams(p=2.0, q=2.0), ModelParams(p=2.0, q=3.0)):
        with pytest.raises(ValueError, match="nonnegative capital"):
            production(k, params)
        with pytest.raises(ValueError, match="nonnegative capital"):
            production_derivative(k, params)


def test_production_domain_errors():
    params = ModelParams()
    with pytest.raises(ValueError):
        production(-0.1, params)
    with pytest.raises(ValueError):
        production_derivative(np.array([1.0, -2.0]), params)
    frac = ModelParams(p=0.5, q=1.0)
    with pytest.raises(ValueError, match="singular"):
        production_derivative(0.0, frac)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(alpha1=-1.0)
    with pytest.raises(ValueError):
        ModelParams(p=0.0)
    with pytest.raises(ValueError):
        ModelParams(delta=-0.01)
    with pytest.raises(ValueError):
        ModelParams(tech_diffusion=-1.0)
    with pytest.raises(ValueError):
        GrowthSpec(kind="linear")
    with pytest.raises(ValueError):
        GrowthSpec(kind="gaussian", sigma=0.0)
    # each rule fails NaN and names its field
    for name in ("alpha1", "alpha2", "p", "q", "delta", "tech_diffusion"):
        with pytest.raises(ValueError, match=f"^{name}: "):
            ModelParams(**{name: np.nan})
    with pytest.raises(ValueError, match="^sigma: "):
        GrowthSpec(kind="gaussian", sigma=np.nan)


def test_tech_rate_constant_and_gaussian():
    const = GrowthSpec("constant", 0.07)
    assert tech_rate([0.3], const) == 0.07
    gauss = GrowthSpec("gaussian", 0.1, center=(0.5,), sigma=0.2)
    assert tech_rate([0.5], gauss) == pytest.approx(0.1)
    assert tech_rate([0.7], gauss) == pytest.approx(0.1 * np.exp(-0.5))
    with pytest.raises(ValueError):
        tech_rate([0.5, 0.5], gauss)  # 1D center, 2D position


def test_tech_rate_field_matches_pointwise():
    cloud = generate_regular(6, 1.0, dim=2)
    gauss = GrowthSpec("gaussian", 0.1, center=(0.5, 0.5), sigma=0.2)
    field = tech_rate_field(cloud, gauss)
    pointwise = [tech_rate(p, gauss) for p in cloud.positions]
    assert np.allclose(field, pointwise, rtol=0, atol=0)
    const = tech_rate_field(cloud, GrowthSpec("constant", 0.02))
    assert np.all(const == 0.02)
    with pytest.raises(ValueError):
        tech_rate_field(cloud, GrowthSpec("gaussian", 0.1, center=(0.5,)))


@pytest.mark.parametrize("dim", [1, 2])
def test_default_growth_center_is_the_middle_on_every_axis(dim):
    cloud = generate_regular(6, 1.0, dim=dim)
    default = tech_rate_field(cloud, GrowthSpec(kind="gaussian", level=0.1))
    middle = tech_rate_field(cloud, GrowthSpec("gaussian", 0.1, center=(0.5,) * dim))
    assert np.array_equal(default, middle)
    assert default == pytest.approx([tech_rate(p, GrowthSpec("gaussian", 0.1))
                                     for p in cloud.positions], rel=0, abs=0)


def test_default_growth_center_runs_on_a_2d_cloud():
    from meshless_growth import SchemeConfig, State, build_all_stencils, run

    cloud = generate_regular(6, 1.0, dim=2)
    table = build_all_stencils(cloud, 8, "quadrant")
    params = ModelParams(g_spec=GrowthSpec(kind="gaussian", level=0.1))
    init = State(k=np.ones(cloud.n_nodes), A=np.ones(cloud.n_nodes), time=0.0)
    traj = run(cloud, table, params, init, SchemeConfig(dt=1e-3, t_final=0.01))
    assert traj.diverged is None
    # growth is fastest at the four nodes around the middle of the square
    middle = np.argsort(((cloud.positions - 0.5) ** 2).sum(axis=1))[:4]
    assert np.argmax(traj.final.A) in middle


def test_gaussian_growth_rejects_a_sigma_whose_width_underflows():
    # 2 sigma^2 is 0 for sigma = 1e-200: r2 / 0 would be NaN at the center
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=r"^sigma: 1e-200 is too small: 2 sigma\^2 underflows to 0$"):
            GrowthSpec(kind="gaussian", level=0.1, sigma=1e-200)
        text = ("[cloud]\nkind = regular\ndim = 2\nnodes_per_axis = 11\n\n"
                "[model]\ng_kind = gaussian\ng_level = 0.1\ng_sigma = 1e-200\n\n"
                "[initial]\nk0_kind = constant\nk0_value = 1\n\n"
                "[scheme]\ndt = 0.001\nt_final = 0.01\n")
        with pytest.raises(ScenarioError, match=r"^model\.g_sigma: 1e-200 is too small"):
            parse_scenario_text(text)
        # the smallest sigmas kept: r2 / (2 sigma^2) overflows off the center, where g is 0
        cloud = generate_regular(11, 1.0, dim=2)
        for sigma in (1e-160, 2.0 ** -537):
            g = tech_rate_field(cloud, GrowthSpec(kind="gaussian", level=0.1, sigma=sigma))
            assert g[60] == 0.1 and np.count_nonzero(g) == 1
        assert GrowthSpec(kind="constant", sigma=1e-200).sigma == 1e-200  # not read
