"""Scenario parsing: presets, defaults, overrides, and rejection paths."""

import configparser

import numpy as np
import pytest

from meshless_growth import (
    PRESET_NAMES,
    CloudSpec,
    FieldSpec,
    GrowthSpec,
    InitialSpec,
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
from oracles import save_cloud

MINIMAL = """\
[cloud]
kind = regular
dim = 1
nodes_per_axis = 11

[star]
s = 2

[initial]
k0_kind = constant
k0_value = 1.0

[scheme]
dt = 0.001
t_final = 1.0
"""

# name -> (dim, s, criterion, delta, chi, dt, t_final, stability_mode)
PRESET_TABLE = {
    "growth-1d-delta005": (1, 2, "distance", 0.05, 0.0, 0.001, 20.0, "check"),
    "growth-1d-delta002": (1, 2, "distance", 0.02, 0.0, 0.001, 20.0, "check"),
    "growth-1d-chi1": (1, 2, "distance", 0.02, 1.0, 0.001, 20.0, "check"),
    "growth-2d-delta005": (2, 8, "quadrant", 0.05, 0.0, 0.001, 150.0, "check"),
    "growth-2d-delta0085": (2, 8, "quadrant", 0.085, 0.0, 0.001, 50.0, "check"),
    "growth-2d-delta03": (2, 8, "quadrant", 0.3, 0.0, 0.001, 30.0, "check"),
    "growth-2d-delta03-chi1": (2, 8, "quadrant", 0.3, 1.0, 0.001, 30.0, "adapt"),
}


def test_every_preset_parses_to_the_documented_table():
    assert set(PRESET_NAMES) == set(PRESET_TABLE)
    for name, (dim, s, crit, delta, chi, dt, t_final, mode) in PRESET_TABLE.items():
        sc = get_preset(name)
        assert sc.name == name
        assert sc.cloud.dim == dim
        assert sc.star.s == s
        assert sc.star.criterion == crit
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
        assert cp.sections() == ["cloud", "star", "model", "initial", "scheme", "output"]
        assert {"A0_kind", "A0_value"} <= set(cp["initial"])
        assert {"g_kind", "g_level"} <= set(cp["model"])
        assert cp["output"]["dir"] == f"out/{name}"


def test_presets_share_the_documented_settings():
    for name in PRESET_NAMES:
        sc = get_preset(name)
        m = sc.model
        assert (m.p, m.q, m.alpha1, m.alpha2) == (2.0, 2.0, 1.0, 1.0)
        assert sc.initial.A0 == FieldSpec(kind="constant", value=1.0)
        assert sc.cloud.kind == "jittered"
        if sc.cloud.dim == 1:
            assert sc.cloud.nodes_per_axis == 13
            assert sc.initial.k0.kind == "piecewise"
            ramp = [v for _, v in sc.initial.k0.points]
            assert ramp == sorted(ramp) and ramp[0] < ramp[-1]
        else:
            assert sc.cloud.nodes_per_axis == 12
            assert sc.initial.k0.kind == "gaussians" and len(sc.initial.k0.bumps) == 2


def test_minimal_scenario_defaults():
    sc = parse_scenario_text(MINIMAL, name="mini")
    assert sc.cloud == CloudSpec(kind="regular", dim=1, nodes_per_axis=11)
    assert sc.star == StarSpec(s=2)
    assert sc.model == ModelParams()
    assert sc.initial == InitialSpec(k0=FieldSpec(kind="constant", value=1.0),
                                     A0=FieldSpec(kind="constant", value=1.0))
    assert sc.scheme == SchemeConfig(dt=0.001, t_final=1.0)
    assert sc.output_dir == "out/mini"


def test_defaults_that_depend_on_other_keys():
    flat = parse_scenario_text(MINIMAL.replace("dim = 1", "dim = 2"))
    assert flat.model.g_spec == GrowthSpec()  # its center is 0.5 on every axis
    a0 = parse_scenario_text(MINIMAL.replace("k0_value = 1.0", "k0_value = 1.0\nA0_value = 3"))
    assert a0.initial.A0 == FieldSpec(kind="constant", value=3.0)
    no_size = MINIMAL.replace("nodes_per_axis = 11\n", "")
    with pytest.raises(ScenarioError, match="cloud.nodes_per_axis"):
        parse_scenario_text(no_size)
    assert parse_scenario_text(no_size.replace("kind = regular", "kind = file")).cloud.path is None


def test_unknown_key_rejected_with_path():
    bad = MINIMAL.replace("[scheme]", "[scheme]\nwarp = 9")
    with pytest.raises(ScenarioError, match="scheme.warp"):
        parse_scenario_text(bad)
    # the stencil weight is fixed at d^-3, so its old keys are typos now
    for line in ("weight = potential", "exponent = 3.0", "shape = 6.0"):
        key = line.split()[0]
        with pytest.raises(ScenarioError, match=rf"^star\.{key}: unknown key$"):
            parse_scenario_text(MINIMAL.replace("[star]", f"[star]\n{line}"))


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError, match="plotting"):
        parse_scenario_text(MINIMAL + "\n[plotting]\nstyle = lines\n")


def test_missing_required_section():
    no_star = MINIMAL.replace("[star]\ns = 2\n", "")
    with pytest.raises(ScenarioError, match="star"):
        parse_scenario_text(no_star)


def test_missing_required_key():
    no_s = MINIMAL.replace("s = 2", "criterion = distance")
    with pytest.raises(ScenarioError, match="star.s"):
        parse_scenario_text(no_s)


def test_bad_number_names_the_key():
    bad = MINIMAL.replace("dt = 0.001", "dt = fast")
    with pytest.raises(ScenarioError, match="scheme.dt"):
        parse_scenario_text(bad)
    bad = MINIMAL.replace("nodes_per_axis = 11", "nodes_per_axis = 2.5")
    with pytest.raises(ScenarioError, match="cloud.nodes_per_axis"):
        parse_scenario_text(bad)


def test_dt_required_unless_adapt():
    no_dt = MINIMAL.replace("dt = 0.001\n", "")
    with pytest.raises(ScenarioError, match="scheme.dt"):
        parse_scenario_text(no_dt)
    adaptive = no_dt.replace("t_final = 1.0", "t_final = 1.0\nstability_mode = adapt")
    sc = parse_scenario_text(adaptive)
    assert sc.scheme.dt is None and sc.scheme.stability_mode == "adapt"


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
    out = sc.with_overrides(seed=99, out="elsewhere", dt=0.0005)
    assert out.cloud.seed == 99
    assert out.output_dir == "elsewhere"
    assert out.scheme.dt == 0.0005
    assert out.model == sc.model  # untouched
    assert sc.cloud.seed == 3  # original unchanged


def test_piecewise_field_evaluation():
    cloud = generate_regular(5, 1.0, dim=1)
    spec = FieldSpec(kind="piecewise",
                     points=((0.0, 5.0), (0.25, 5.0), (0.75, 25.0), (1.0, 25.0)))
    vals = spec.evaluate(cloud)
    assert vals.tolist() == [5.0, 5.0, 15.0, 25.0, 25.0]
    with pytest.raises(ScenarioError, match="1D"):
        spec.evaluate(generate_regular(4, 1.0, dim=2))
    unsorted = FieldSpec(kind="piecewise", points=((0.5, 1.0), (0.0, 2.0)))
    with pytest.raises(ScenarioError, match="sorted"):
        unsorted.evaluate(cloud)


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


def test_parse_scenario_from_file(tmp_path):
    path = tmp_path / "myrun.ini"
    path.write_text(MINIMAL)
    sc = parse_scenario(path)
    assert sc.name == "myrun"
    assert sc.output_dir == "out/myrun"
    with pytest.raises(ScenarioError):
        parse_scenario(tmp_path / "absent.ini")


def test_file_cloud_kind_requires_path():
    bad = MINIMAL.replace("kind = regular", "kind = file")
    sc = parse_scenario_text(bad)
    with pytest.raises(ScenarioError, match="cloud.path"):
        sc.cloud.build()


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
