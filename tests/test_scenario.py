"""Scenario parsing: presets, defaults, overrides, and rejection paths."""

import configparser
import math
import re
import warnings

import numpy as np
import pytest

from meshless_growth import (
    PRESET_NAMES,
    CloudSpec,
    FieldSpec,
    GrowthSpec,
    ModelParams,
    SchemeConfig,
    ScenarioError,
    StarSpec,
    generate_regular,
    get_preset,
    parse_scenario,
    parse_scenario_text,
    preset_text,
)
from meshless_growth.scenario import _CLOUD_KINDS, _FIELD_KINDS, _GROWTH_KINDS
from meshless_growth.stencil import STAR_RULE
from oracles import SIGMA_MAX, save_cloud

MINIMAL = """\
[cloud]
kind = regular
dim = 1
nodes_per_axis = 11

[initial]
k0_kind = constant
k0_value = 1.0

[scheme]
dt = 0.001
t_final = 1.0
"""

# name -> (dim, s, delta, chi, dt, t_final, stability_mode)
PRESET_TABLE = {
    "growth-1d-delta005": (1, 2, 0.05, 0.0, 0.001, 20.0, "check"),
    "growth-1d-delta002": (1, 2, 0.02, 0.0, 0.001, 20.0, "check"),
    "growth-1d-chi1": (1, 2, 0.02, 1.0, 0.001, 20.0, "check"),
    "growth-2d-delta005": (2, 8, 0.05, 0.0, 0.001, 150.0, "check"),
    "growth-2d-delta0085": (2, 8, 0.085, 0.0, 0.001, 50.0, "check"),
    "growth-2d-delta03": (2, 8, 0.3, 0.0, 0.001, 30.0, "check"),
    "growth-2d-delta03-chi1": (2, 8, 0.3, 1.0, 0.001, 30.0, "adapt"),
}


def test_every_preset_parses_to_the_documented_table():
    assert set(PRESET_NAMES) == set(PRESET_TABLE)
    for name, (dim, s, delta, chi, dt, t_final, mode) in PRESET_TABLE.items():
        sc = get_preset(name)
        assert sc.name == name
        assert sc.cloud.dim == dim
        assert sc.star.s == s
        assert sc.model.delta == delta
        assert sc.model.chi == chi
        assert sc.scheme.dt == dt
        assert sc.scheme.t_final == t_final
        assert sc.scheme.stability_mode == mode
        assert sc.output_dir == f"out/{name}"


def test_preset_initial_fields_evaluate():
    for name in PRESET_NAMES:
        sc = get_preset(name)
        cloud = sc.cloud.build()
        state = sc.initial_state(cloud)
        assert state.k.shape == (cloud.n_nodes,)
        assert np.all(state.A == 1.0)
        assert np.all(state.k >= 0)


def test_taxis_preset_points_technology_growth_at_one_tenth():
    sc = get_preset("growth-1d-chi1")
    assert sc.model.g_spec.kind == "gaussian"
    assert sc.model.g_spec.center == (0.1,)
    assert sc.model.g_spec.level == 0.1


def test_unknown_preset_lists_available():
    with pytest.raises(ScenarioError, match="growth-1d-delta005"):
        get_preset("bogus")
    with pytest.raises(ScenarioError):
        preset_text("bogus")


def test_preset_text_round_trip():
    for name in PRESET_NAMES:
        sc = parse_scenario_text(preset_text(name), name=name)
        assert sc == get_preset(name)


def test_preset_text_states_every_section_and_the_keys_read_from_it():
    for name in PRESET_NAMES:
        text = preset_text(name)
        assert text.startswith("# ")  # the preset's description
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        cp.read_string(text)
        assert cp.sections() == ["cloud", "model", "initial", "scheme", "output"]
        assert {"A0_kind", "A0_value"} <= set(cp["initial"])
        assert {"g_kind", "g_level"} <= set(cp["model"])
        assert cp["output"]["dir"] == f"out/{name}"


def test_presets_share_the_documented_settings():
    for name in PRESET_NAMES:
        sc = get_preset(name)
        m = sc.model
        assert (m.p, m.q, m.alpha1, m.alpha2) == (2.0, 2.0, 1.0, 1.0)
        assert sc.A0 == FieldSpec(kind="constant", value=1.0)
        assert sc.cloud.kind == "jittered"
        if sc.cloud.dim == 1:
            assert sc.cloud.nodes_per_axis == 13
            assert sc.k0.kind == "piecewise"
            ramp = [v for _, v in sc.k0.points]
            assert ramp == sorted(ramp) and ramp[0] < ramp[-1]
        else:
            assert sc.cloud.nodes_per_axis == 12
            assert sc.k0.kind == "gaussians" and len(sc.k0.bumps) == 2


def test_minimal_scenario_defaults():
    sc = parse_scenario_text(MINIMAL, name="mini")
    assert sc.cloud == CloudSpec(kind="regular", dim=1, nodes_per_axis=11)
    assert sc.star == StarSpec(s=2)
    assert sc.model == ModelParams()
    assert sc.k0 == FieldSpec(kind="constant", value=1.0)
    assert sc.A0 == FieldSpec(kind="constant", value=1.0)
    assert sc.scheme == SchemeConfig(dt=0.001, t_final=1.0)
    assert sc.output_dir == "out/mini"


def test_defaults_that_depend_on_other_keys():
    flat = parse_scenario_text(MINIMAL.replace("dim = 1", "dim = 2"))
    assert flat.model.g_spec == GrowthSpec()  # its center is 0.5 on every axis
    a0 = parse_scenario_text(MINIMAL.replace("k0_value = 1.0", "k0_value = 1.0\nA0_value = 3"))
    assert a0.A0 == FieldSpec(kind="constant", value=3.0)
    no_size = MINIMAL.replace("nodes_per_axis = 11\n", "")
    with pytest.raises(ScenarioError, match="cloud.nodes_per_axis"):
        parse_scenario_text(no_size)
    with pytest.raises(ScenarioError, match=r"^cloud\.path: required key missing$"):
        parse_scenario_text(no_size.replace("kind = regular", "kind = file"))


def test_unknown_key_rejected_with_path():
    bad = MINIMAL.replace("[scheme]", "[scheme]\nwarp = 9")
    with pytest.raises(ScenarioError, match="scheme.warp"):
        parse_scenario_text(bad)
    # the stencil weight is fixed at d^-3 and the star by the dimension, so
    # the old star keys are typos now, in a section that no longer exists
    for line in ("weight = potential", "exponent = 3.0", "shape = 6.0"):
        with pytest.raises(ScenarioError, match=r"^star: unknown section$"):
            parse_scenario_text(f"{MINIMAL}\n[star]\n{line}\n")


def test_star_follows_the_dimension_and_has_no_section():
    assert STAR_RULE == {1: 2, 2: 8}
    for name in PRESET_NAMES:
        sc = get_preset(name)
        assert sc.star == StarSpec(STAR_RULE[sc.cloud.dim])
    for dim, s in STAR_RULE.items():
        text = MINIMAL.replace("dim = 1", f"dim = {dim}")
        assert parse_scenario_text(text).star == StarSpec(s)
        with pytest.raises(ScenarioError, match=r"^star: unknown section$"):
            parse_scenario_text(f"{text}\n[star]\ns = {s}\ncriterion = quadrant\n")


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError, match="plotting"):
        parse_scenario_text(MINIMAL + "\n[plotting]\nstyle = lines\n")


def test_missing_required_section():
    no_initial = MINIMAL.replace("[initial]\nk0_kind = constant\nk0_value = 1.0\n", "")
    with pytest.raises(ScenarioError, match="initial"):
        parse_scenario_text(no_initial)


def test_missing_required_key():
    no_t_final = MINIMAL.replace("t_final = 1.0", "stability_interval = 5")
    with pytest.raises(ScenarioError, match="scheme.t_final"):
        parse_scenario_text(no_t_final)


def test_bad_number_names_the_key():
    bad = MINIMAL.replace("dt = 0.001", "dt = fast")
    with pytest.raises(ScenarioError, match="scheme.dt"):
        parse_scenario_text(bad)
    bad = MINIMAL.replace("nodes_per_axis = 11", "nodes_per_axis = 2.5")
    with pytest.raises(ScenarioError, match="cloud.nodes_per_axis"):
        parse_scenario_text(bad)


def test_dt_is_required():
    no_dt = MINIMAL.replace("dt = 0.001\n", "")
    with pytest.raises(ScenarioError, match=r"^scheme\.dt: required key missing$"):
        parse_scenario_text(no_dt)
    # adapt shrinks a stated step; it no longer picks one
    with pytest.raises(ScenarioError, match=r"^scheme\.dt: required key missing$"):
        parse_scenario_text(no_dt.replace("t_final = 1.0", "t_final = 1.0\nstability_mode = adapt"))


def test_inline_comments_are_stripped():
    commented = MINIMAL.replace("dt = 0.001", "dt = 0.001  # one millisecond")
    assert parse_scenario_text(commented).scheme.dt == 0.001


def test_duplicate_key_rejected():
    dup = MINIMAL.replace("dt = 0.001", "dt = 0.001\ndt = 0.002")
    with pytest.raises(ScenarioError):
        parse_scenario_text(dup)


def test_gaussian_growth_center_dimension_checked():
    bad = MINIMAL.replace(
        "[initial]",
        "[model]\ng_kind = gaussian\ng_level = 0.1\ng_center = 0.5, 0.5\n\n[initial]")
    with pytest.raises(ScenarioError, match="g_center"):
        parse_scenario_text(bad)


def test_with_overrides():
    sc = get_preset("growth-1d-delta005")
    out = get_preset("growth-1d-delta005",
                     {"cloud.seed": 99, "output.dir": "elsewhere", "scheme.dt": 0.0005,
                      "scheme.t_final": None})
    assert out.cloud.seed == 99
    assert out.output_dir == "elsewhere"
    assert out.scheme.dt == 0.0005
    assert out.model == sc.model  # untouched
    assert out.scheme.t_final == sc.scheme.t_final  # None leaves the key as it is
    # an override is checked like the key in the file
    with pytest.raises(ScenarioError, match=r"^cloud\.seed: not read by kind = regular$"):
        parse_scenario_text(MINIMAL, overrides={"cloud.seed": 2})
    with pytest.raises(ScenarioError, match=r"^scheme\.dt: must be positive and finite$"):
        parse_scenario_text(MINIMAL, overrides={"scheme.dt": -1.0})
    assert parse_scenario_text(MINIMAL, overrides={"output.dir": "o"}).output_dir == "o"
    for key in ("dt", "scheme.dt.x", ".dt"):  # not two names joined by one dot
        message = rf"^{re.escape(key)}: an override key is section\.key$"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario_text(MINIMAL, overrides={key: "0.002"})


def test_piecewise_field_evaluation():
    cloud = generate_regular(5, 1.0, dim=1)
    spec = FieldSpec(kind="piecewise",
                     points=((0.0, 5.0), (0.25, 5.0), (0.75, 25.0), (1.0, 25.0)))
    vals = spec.evaluate(cloud)
    assert vals.tolist() == [5.0, 5.0, 15.0, 25.0, 25.0]
    with pytest.raises(ScenarioError, match=r"^points: piecewise initial fields are 1D only$"):
        spec.evaluate(generate_regular(4, 1.0, dim=2))
    with pytest.raises(ValueError, match=r"^points: breakpoints must be sorted$"):
        FieldSpec(kind="piecewise", points=((0.5, 1.0), (0.0, 2.0)))


def test_gaussian_bump_field_evaluation():
    cloud = generate_regular(11, 1.0, dim=2)
    spec = FieldSpec(kind="gaussians", base=0.05,
                     bumps=((1.2, 0.3, 0.3, 0.12), (0.9, 0.7, 0.6, 0.1)))
    vals = spec.evaluate(cloud)
    at = lambda x, y: vals[np.argmin(((cloud.positions - [x, y]) ** 2).sum(axis=1))]
    assert at(0.3, 0.3) == pytest.approx(0.05 + 1.2, abs=0.02)
    assert at(0.7, 0.6) == pytest.approx(0.05 + 0.9, abs=0.02)
    assert vals.min() >= 0.05
    wrong_dim = FieldSpec(kind="gaussians", bumps=((1.0, 0.3, 0.1),))
    with pytest.raises(ScenarioError, match="center"):
        wrong_dim.evaluate(cloud)


def test_gaussian_bumps_reject_a_sigma_whose_width_underflows():
    # 2 sigma^2 is 0 for sigma = 1e-200: r2 / 0 would be NaN at the bump's center
    bumps = MINIMAL.replace("k0_kind = constant\nk0_value = 1.0",
                            "k0_kind = gaussians\nk0_bumps = 1, 0.5, 0.1; 1, 0.5, {}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match=r"^initial\.k0_bumps: sigma 1e-200 is too small: "
                                                r"2 sigma\^2 underflows to 0$"):
            parse_scenario_text(bumps.format("1e-200"))
        with pytest.raises(ValueError, match=r"^bumps: sigma 1e-200 is too small"):
            FieldSpec(kind="gaussians", bumps=((1.0, 0.5, 1e-200),))
        # the smallest sigmas kept: r2 / (2 sigma^2) overflows off the center, where the bump is 0
        cloud = generate_regular(11, 1.0, dim=1)
        for sigma in ("1e-160", repr(2.0 ** -537)):
            k0 = parse_scenario_text(bumps.format(sigma)).k0.evaluate(cloud)
            single = FieldSpec(kind="gaussians", bumps=((1.0, 0.5, 0.1),)).evaluate(cloud)
            assert np.array_equal(k0, single + np.eye(11)[5])


@pytest.mark.parametrize("sigma", [1e200, math.nextafter(SIGMA_MAX, math.inf)],
                         ids=["1e200", "first-inf"])
def test_gaussian_bumps_reject_a_sigma_whose_width_overflows(sigma):
    # 2 sigma^2 is inf: the bump would add its amplitude at every node, and
    # past about 1.34e154 a float's sigma ** 2 raises OverflowError
    bumps = MINIMAL.replace("k0_kind = constant\nk0_value = 1.0",
                            f"k0_kind = gaussians\nk0_bumps = 1, 0.5, 0.1; 1, 0.5, {sigma!r}")
    tail = rf"sigma {re.escape(repr(sigma))} is too large: 2 sigma\^2 overflows$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match=rf"^initial\.k0_bumps: {tail}"):
            parse_scenario_text(bumps)
        with pytest.raises(ValueError, match=f"^bumps: {tail}"):
            FieldSpec(kind="gaussians", bumps=((1.0, 0.5, 0.1), (1.0, 0.5, sigma)))


def test_a_bump_centered_far_away_is_zero_without_a_warning():
    # r2 overflows to inf for a center at -1e300: the bump is 0 there, with
    # no overflow warning to end a run under -W error
    cloud = generate_regular(11, 1.0, dim=2)
    k0 = FieldSpec(kind="gaussians", bumps=((1.0, 0.5, -1e300, 0.2),), base=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(k0.evaluate(cloud), np.full(121, 0.05))


def test_file_field_round_trip(tmp_path):
    cloud = generate_regular(4, 1.0, dim=1)
    path = tmp_path / "field.csv"
    path.write_text("node,value\n0,1.5\n1,2.5\n2,3.5\n3,4.5\n")
    vals = FieldSpec(kind="file", path=str(path)).evaluate(cloud)
    assert vals.tolist() == [1.5, 2.5, 3.5, 4.5]
    path.write_text("node,value\n0,1.5\n1,2.5\n3,4.5\n")
    with pytest.raises(ScenarioError, match="node 2"):
        FieldSpec(kind="file", path=str(path)).evaluate(cloud)
    path.write_text("node,value\n0,1.5\n9,2.5\n")
    with pytest.raises(ScenarioError, match="out of range"):
        FieldSpec(kind="file", path=str(path)).evaluate(cloud)
    path.write_text("idx,val\n0,1.5\n")
    with pytest.raises(ScenarioError, match="header"):
        FieldSpec(kind="file", path=str(path)).evaluate(cloud)


@pytest.mark.parametrize("rows, where", [
    ("0,1\n1,2\n1,3\n2,4\n", "4: node 1 repeats line 3"),
    ("0,1\n1,nan\n2,4\n", "3: value of node 1 must be finite"),
    ("0,1\n1,inf\n2,4\n", "3: value of node 1 must be finite"),
    ("0,1\n1,2\n2,-inf\n", "4: value of node 2 must be finite"),
], ids=["repeated", "nan", "inf", "-inf"])
def test_field_file_rejects_a_repeated_node_or_a_non_finite_value(tmp_path, rows, where):
    path = tmp_path / "k0.csv"
    path.write_text("node,value\n" + rows)
    text = MINIMAL.replace(K0_CONSTANT, f"k0_kind = file\nk0_path = {path}")
    sc = parse_scenario_text(text.replace("nodes_per_axis = 11", "nodes_per_axis = 3"))
    with pytest.raises(ScenarioError, match=f"^initial\\.k0_path: {re.escape(str(path))}:{where}$"):
        sc.initial_state(sc.cloud.build())


@pytest.mark.parametrize("row", ["0,1,99", "0,1,", "0"], ids=["three", "empty-third", "one"])
def test_field_file_row_needs_exactly_two_columns(tmp_path, row):
    # A third column was dropped: "0,1,99" read node 0 as 1.
    path = tmp_path / "k0.csv"
    path.write_text(f"node,value\n{row}\n1,2\n2,3\n")
    with pytest.raises(ScenarioError, match=f"^path: {re.escape(str(path))}:2: expected node,value$"):
        FieldSpec(kind="file", path=str(path)).evaluate(generate_regular(3, 1.0, dim=1))


def test_parse_scenario_from_file(tmp_path):
    path = tmp_path / "myrun.ini"
    path.write_text(MINIMAL)
    sc = parse_scenario(path)
    assert sc.name == "myrun"
    assert sc.output_dir == "out/myrun"
    with pytest.raises(ScenarioError):
        parse_scenario(tmp_path / "absent.ini")


def test_file_cloud_kind_requires_path():
    bad = MINIMAL.replace("kind = regular", "kind = file").replace("nodes_per_axis = 11\n", "")
    with pytest.raises(ScenarioError, match=r"^cloud\.path: required key missing$"):
        parse_scenario_text(bad)
    with pytest.raises(ScenarioError, match=r"^cloud\.path: empty path$"):
        parse_scenario_text(bad.replace("kind = file", "kind = file\npath ="))


def test_empty_output_dir_is_rejected():
    with pytest.raises(ScenarioError, match=r"^output\.dir: empty path$"):
        parse_scenario_text(MINIMAL + "\n[output]\ndir =\n")
    assert parse_scenario_text(MINIMAL + "\n[output]\n", name="mini").output_dir == "out/mini"


def test_file_cloud_dimension_must_match_the_declared_dim(tmp_path):
    path = tmp_path / "nodes.csv"
    save_cloud(generate_regular(5, 1.0, dim=2), path)
    text = (MINIMAL.replace("kind = regular", f"kind = file\npath = {path}")
            .replace("dim = 1\n", "").replace("nodes_per_axis = 11\n", ""))
    with pytest.raises(ScenarioError, match="cloud.dim"):
        parse_scenario_text(text).cloud.build()
    gaussian = text.replace("[initial]", "[model]\ng_kind = gaussian\ng_level = 0.1\n\n[initial]")
    with pytest.raises(ScenarioError, match="cloud.dim"):
        parse_scenario_text(gaussian).cloud.build()
    assert parse_scenario_text(text.replace("[cloud]", "[cloud]\ndim = 2")).cloud.build().dim == 2


K0_CONSTANT = "k0_kind = constant\nk0_value = 1.0"


@pytest.mark.parametrize("old, new, where", [
    ("kind = regular", "kind = mesh",
     r"cloud\.kind: must be one of \['file', 'jittered', 'regular'\], got 'mesh'"),
    ("t_final = 1.0", "t_final = 1.0\nstability_mode = sometimes",
     r"scheme\.stability_mode: must be one of \['adapt', 'check', 'off'\], got 'sometimes'"),
    ("[initial]", "[model]\np = 0\n\n[initial]", r"model\.p: must be positive"),
    ("dim = 1", "dim = 3", r"cloud\.dim: must be 1 or 2, got 3"),
    (K0_CONSTANT, "k0_kind = piecewise\nk0_points = 0:1, 1:x",
     r"initial\.k0_points: bad number in '1:x'"),
    (K0_CONSTANT, "k0_kind = piecewise\nk0_points = 0:1:2, 1:2",
     r"initial\.k0_points: expected x:value pairs, got '0:1:2'"),
    (K0_CONSTANT, "k0_kind = piecewise\nk0_points = 0:1",
     r"initial\.k0_points: need at least two x:value pairs"),
    (K0_CONSTANT, "k0_kind = gaussians\nk0_bumps = 1, x, 0.1",
     r"initial\.k0_bumps: bad number in bump '1, x, 0\.1'"),
    (K0_CONSTANT, "k0_kind = gaussians\nk0_bumps = 1, 0.1",
     r"initial\.k0_bumps: bump needs amplitude,center\.\.\.,sigma, got '1, 0\.1'"),
    (K0_CONSTANT, "k0_kind = gaussians\nk0_bumps =", r"initial\.k0_bumps: no bumps given"),
    (K0_CONSTANT, "k0_kind = file\nk0_path = {path}",
     r"initial\.k0_path: {path}:3: expected node,value"),
    (K0_CONSTANT, "k0_kind = file\nk0_path =", r"initial\.k0_path: empty path"),
    # the rules of ModelParams, GrowthSpec and SchemeConfig, named by their keys
    ("[initial]", "[model]\nq = 0\n\n[initial]", r"model\.q: must be positive"),
    ("[initial]", "[model]\nalpha1 = -1\n\n[initial]", r"model\.alpha1: must be nonnegative"),
    ("[initial]", "[model]\nalpha2 = -1\n\n[initial]", r"model\.alpha2: must be nonnegative"),
    ("[initial]", "[model]\ndelta = -0.1\n\n[initial]", r"model\.delta: must be nonnegative"),
    ("[initial]", "[model]\ntech_diffusion = -1\n\n[initial]",
     r"model\.tech_diffusion: must be nonnegative"),
    ("[initial]", "[model]\ng_kind = linear\n\n[initial]",
     r"model\.g_kind: must be one of \['constant', 'gaussian'\], got 'linear'"),
    ("[initial]", "[model]\ng_kind = gaussian\ng_sigma = 0\n\n[initial]",
     r"model\.g_sigma: must be positive for the gaussian kind"),
    ("dt = 0.001", "dt = 0", r"scheme\.dt: must be positive and finite"),
    ("t_final = 1.0", "t_final = -1", r"scheme\.t_final: must be nonnegative and finite"),
    ("t_final = 1.0", "t_final = 1.0\nstability_interval = 0",
     r"scheme\.stability_interval: must be at least 1"),
    ("t_final = 1.0", "t_final = 1.0\nsnapshot_times = 0.5, 0.2",
     r"scheme\.snapshot_times: must be sorted"),
    ("t_final = 1.0", "t_final = 1.0\nsnapshot_times = 0, 2",
     r"scheme\.snapshot_times: must lie in \[0, t_final\]"),
    # the rules of the cloud generators, named by their keys
    ("kind = regular", "kind = jittered\njitter = 0.6",
     r"cloud\.jitter: must lie in \[0, 0\.49\), got 0\.6"),
    ("nodes_per_axis = 11", "nodes_per_axis = 1", r"cloud\.nodes_per_axis: must be at least 2, got 1"),
    ("dim = 1", "dim = 1\nlength = 0", r"cloud\.length: must be positive, got 0\.0"),
    ("kind = regular", "kind = jittered\nseed = -1", r"cloud\.seed: must be nonnegative, got -1"),
])
def test_bad_input_names_the_key_or_the_line(tmp_path, old, new, where):
    path = tmp_path / "k0.csv"
    path.write_text("node,value\n0,1.5\nx,2.5\n")
    text = MINIMAL.replace(old, new.format(path=path))
    with pytest.raises(ScenarioError, match=f"^{where.format(path=re.escape(str(path)))}$"):
        sc = parse_scenario_text(text)
        sc.initial_state(sc.cloud.build())


@pytest.mark.parametrize("old, new, key", [
    ("dt = 0.001", "dt = {}", "scheme.dt"),
    ("t_final = 1.0", "t_final = {}", "scheme.t_final"),
    ("nodes_per_axis = 11", "nodes_per_axis = 11\nlength = {}", "cloud.length"),
    ("[initial]", "[model]\ndelta = {}\n\n[initial]", "model.delta"),
    ("[initial]", "[model]\nchi = {}\n\n[initial]", "model.chi"),
    ("k0_value = 1.0", "k0_value = {}", "initial.k0_value"),
    ("t_final = 1.0", "t_final = 1.0\nsnapshot_times = 0, {}", "scheme.snapshot_times"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_numbers_are_rejected_naming_the_key(old, new, key, value):
    with pytest.raises(ScenarioError, match=rf"^{re.escape(key)}: must be finite$"):
        parse_scenario_text(MINIMAL.replace(old, new.format(value)))


# A value each kinded key accepts, by field name; a key added to a kind table
# without one here fails the generated cases below.
KIND_KEY_SAMPLES = {"nodes_per_axis": "11", "length": "1.0", "jitter": "0.1", "seed": "2",
                    "path": "data.csv", "value": "1.0", "points": "0:1, 1:2",
                    "bumps": "1, 0.5, 0.1", "base": "0.5", "level": "0.1", "center": "0.5",
                    "sigma": "0.2"}
# (section, key prefix, kind table, default kind, the text of MINIMAL that a
# case replaces, and the lines its replacement starts with); the spec's keys
# come last in each replacement, so a case can append one more.
KINDED_SPECS = [
    ("cloud", "", _CLOUD_KINDS, None, "kind = regular\ndim = 1\nnodes_per_axis = 11", ["dim = 1"]),
    ("model", "g_", _GROWTH_KINDS, "constant", "t_final = 1.0", ["t_final = 1.0", "[model]"]),
    ("initial", "k0_", _FIELD_KINDS, None, K0_CONSTANT, []),
    ("initial", "A0_", _FIELD_KINDS, None, K0_CONSTANT, [K0_CONSTANT]),
]


def _kind_cases():
    """(id, section, prefix, kind, the spec's keys it does not read, old, new)
    for each kind of each kinded spec, new holding the keys the kind reads,
    with its kind key spelled out and, for the default kind, also left out."""
    for section, prefix, kinds, default, old, lead in KINDED_SPECS:
        spec_keys = {name for names in kinds.values() for name in names}
        for kind, names in kinds.items():
            lines = [f"{prefix}{name} = {KIND_KEY_SAMPLES[name]}" for name in names]
            for kind_line in [[f"{prefix}kind = {kind}"]] + ([[]] if kind == default else []):
                yield (f"{prefix}kind={kind if kind_line else '(default)'}", section, prefix, kind,
                       spec_keys - set(names), old, "\n".join([*lead, *kind_line, *lines]))


@pytest.mark.parametrize("text", [
    *(pytest.param(MINIMAL.replace(old, new), id=case) for case, *_, old, new in _kind_cases()),
    # a preset diff that brings back a key its kind does not read fails here
    *(pytest.param(preset_text(name), id=name) for name in PRESET_NAMES),
])
def test_texts_holding_only_keys_their_kinds_read_parse(text):
    parse_scenario_text(text)


def _stray_key_cases():
    """Each kind of each kinded spec plus one key that only another kind reads."""
    for case, section, prefix, kind, unread, old, new in _kind_cases():
        for name in sorted(unread):
            yield pytest.param(old, f"{new}\n{prefix}{name} = {KIND_KEY_SAMPLES[name]}",
                               rf"{section}\.{prefix}{name}: not read by {prefix}kind = {kind}",
                               id=f"{prefix}{name}-{case}")


@pytest.mark.parametrize("old, new, where", [
    # a file cloud reads neither a length nor a jitter, so both were dropped silently
    ("kind = regular\ndim = 1\nnodes_per_axis = 11", "kind = file\nlength = 7.0\njitter = 0.3",
     r"cloud\.jitter: not read by kind = file"),
    ("kind = regular", "kind = regular\nseed = 4", r"cloud\.seed: not read by kind = regular"),
    ("kind = regular", "kind = jittered\npath = nodes.csv",
     r"cloud\.path: not read by kind = jittered"),
    (K0_CONSTANT, "k0_kind = gaussians\nk0_bumps = 1, 0.5, 0.1\nk0_points = 0:1, 1:2",
     r"initial\.k0_points: not read by k0_kind = gaussians"),
    (K0_CONSTANT, K0_CONSTANT + "\nk0_base = 0.5", r"initial\.k0_base: not read by k0_kind = constant"),
    (K0_CONSTANT, K0_CONSTANT + "\nA0_kind = gaussians\nA0_bumps = 1, 0.5, 0.1\nA0_value = 2",
     r"initial\.A0_value: not read by A0_kind = gaussians"),
    *_stray_key_cases(),
])
def test_keys_the_chosen_kind_does_not_read_are_rejected(old, new, where):
    with pytest.raises(ScenarioError, match=f"^{where}$"):
        parse_scenario_text(MINIMAL.replace(old, new))


def test_technology_defaults_to_one_only_for_the_constant_kind():
    bumps = parse_scenario_text(MINIMAL.replace(
        K0_CONSTANT, K0_CONSTANT + "\nA0_kind = gaussians\nA0_bumps = 1, 0.5, 0.1"))
    assert bumps.A0 == FieldSpec(kind="gaussians", bumps=((1.0, 0.5, 0.1),))
    constant = parse_scenario_text(MINIMAL.replace(K0_CONSTANT, K0_CONSTANT + "\nA0_kind = constant"))
    assert constant.A0 == FieldSpec(kind="constant", value=1.0)
