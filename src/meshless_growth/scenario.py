"""Scenario files: flat key=value sections describing a complete run.

A scenario pins down the cloud, the star/stencil configuration, the model
coefficients, the initial fields, the time stepping, and the output
directory.  Unknown keys and sections are rejected outright so typos never
silently fall back to defaults.  A handful of built-in presets reproduce
the reference growth experiments.
"""

from __future__ import annotations

import configparser
import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .cloud import NodeCloud, generate_jittered, generate_regular, load_cloud
from .errors import ScenarioError
from .model import GrowthSpec, ModelParams
from .scheme import SchemeConfig, State
from .stencil import StencilTable, build_all_stencils

_REQUIRED_SECTIONS = ("cloud", "star", "initial", "scheme")


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


def _require(sec, section: str, *keys: str) -> None:
    for key in keys:
        if key not in sec:
            _fail(f"{section}.{key}", "required key missing")


def _choice(*choices: str):
    def convert(raw: str) -> str:
        if raw not in choices:  # configparser strips values
            raise ValueError(f"must be one of {sorted(choices)}, got {raw!r}")
        return raw
    return convert


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(",") if x.strip())


def _convert(sec, section: str, converters: dict, prefix: str = "") -> dict:
    """Dataclass keyword arguments from the converters' keys (prefix + field
    name) present in sec; an absent key takes the dataclass default."""
    args = {}
    for name, convert in converters.items():
        if prefix + name in sec:
            try:
                args[name] = convert(sec[prefix + name])
            except ValueError as exc:
                _fail(f"{section}.{prefix}{name}", str(exc))
    return args


def _build(section: str, cls, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{section}: {exc}") from exc


@dataclass(frozen=True)
class CloudSpec:
    kind: str = "regular"  # regular | jittered | file
    dim: int = 1
    nodes_per_axis: int = 11
    length: float = 1.0
    jitter: float = 0.2
    seed: int = 0
    path: str | None = None

    def build(self) -> NodeCloud:
        if self.kind == "regular":
            return generate_regular(self.nodes_per_axis, self.length, self.dim)
        if self.kind == "jittered":
            return generate_jittered(self.nodes_per_axis, self.length, self.dim,
                                     self.jitter, self.seed)
        if self.kind == "file":
            if not self.path:
                raise ScenarioError("cloud.path: required for kind=file")
            cloud = load_cloud(self.path)
            if cloud.dim != self.dim:
                raise ScenarioError(f"cloud.dim: {self.path} holds a {cloud.dim}D cloud, "
                                    f"not {self.dim}D")
            return cloud
        raise ScenarioError(f"cloud.kind: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class StarSpec:
    s: int
    criterion: str = "distance"

    def build_table(self, cloud: NodeCloud) -> StencilTable:
        return build_all_stencils(cloud, self.s, self.criterion)


@dataclass(frozen=True)
class FieldSpec:
    """One initial field: constant, 1D piecewise-linear, Gaussian bumps, or file."""

    kind: str
    value: float = 0.0
    points: tuple[tuple[float, float], ...] = ()
    bumps: tuple[tuple[float, ...], ...] = ()  # (amplitude, center..., sigma)
    base: float = 0.0
    path: str | None = None

    def evaluate(self, cloud: NodeCloud) -> np.ndarray:
        if self.kind == "constant":
            return np.full(cloud.n_nodes, float(self.value))
        if self.kind == "piecewise":
            if cloud.dim != 1:
                raise ScenarioError("piecewise initial fields are 1D only")
            xs = np.array([p[0] for p in self.points])
            vs = np.array([p[1] for p in self.points])
            if np.any(np.diff(xs) < 0):
                raise ScenarioError("piecewise breakpoints must be sorted")
            return np.interp(cloud.positions[:, 0], xs, vs)
        if self.kind == "gaussians":
            out = np.full(cloud.n_nodes, float(self.base))
            for bump in self.bumps:
                amp, *center, sigma = bump
                if len(center) != cloud.dim:
                    raise ScenarioError(
                        f"bump center has {len(center)} coordinates on a {cloud.dim}D cloud")
                r2 = ((cloud.positions - np.asarray(center)) ** 2).sum(axis=1)
                out = out + amp * np.exp(-r2 / (2.0 * sigma ** 2))
            return out
        if self.kind == "file":
            return _load_field_file(self.path, cloud.n_nodes)
        raise ScenarioError(f"unknown initial field kind {self.kind!r}")


def _load_field_file(path: str | None, n_nodes: int) -> np.ndarray:
    if not path:
        raise ScenarioError("initial field of kind=file needs a path")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["node", "value"]:
        raise ScenarioError(f"{path}: field file header must be node,value")
    out = np.full(n_nodes, np.nan)
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            idx, val = int(row[0]), float(row[1])
        except (ValueError, IndexError):
            raise ScenarioError(f"{path}:{lineno}: expected node,value") from None
        if not 0 <= idx < n_nodes:
            raise ScenarioError(f"{path}:{lineno}: node {idx} out of range")
        out[idx] = val
    if np.any(np.isnan(out)):
        missing = int(np.flatnonzero(np.isnan(out))[0])
        raise ScenarioError(f"{path}: no value for node {missing}")
    return out


@dataclass(frozen=True)
class InitialSpec:
    k0: FieldSpec
    A0: FieldSpec

    def evaluate(self, cloud: NodeCloud) -> tuple[np.ndarray, np.ndarray]:
        return self.k0.evaluate(cloud), self.A0.evaluate(cloud)


@dataclass(frozen=True)
class Scenario:
    name: str
    cloud: CloudSpec
    star: StarSpec
    model: ModelParams
    initial: InitialSpec
    scheme: SchemeConfig
    output_dir: str

    def with_overrides(self, seed: int | None = None, out: str | None = None,
                       dt: float | None = None) -> "Scenario":
        s = self
        if seed is not None:
            s = replace(s, cloud=replace(s.cloud, seed=seed))
        if out is not None:
            s = replace(s, output_dir=out)
        if dt is not None:
            s = replace(s, scheme=replace(s.scheme, dt=dt))
        return s

    def initial_state(self, cloud: NodeCloud) -> State:
        k0, a0 = self.initial.evaluate(cloud)
        return State(k=k0, A=a0, time=0.0)


def _parse_points(raw: str) -> tuple[tuple[float, float], ...]:
    pts = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValueError(f"expected x:value pairs, got {chunk!r}")
        try:
            pts.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValueError(f"bad number in {chunk!r}") from None
    if len(pts) < 2:
        raise ValueError("need at least two x:value pairs")
    return tuple(pts)


def _parse_bumps(raw: str) -> tuple[tuple[float, ...], ...]:
    bumps = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            nums = tuple(float(x) for x in chunk.split(","))
        except ValueError:
            raise ValueError(f"bad number in bump {chunk!r}") from None
        if len(nums) not in (3, 4):  # amp, cx[, cy], sigma
            raise ValueError(f"bump needs amplitude,center...,sigma, got {chunk!r}")
        bumps.append(nums)
    if not bumps:
        raise ValueError("no bumps given")
    return tuple(bumps)


# Converters of each section's keys, by the dataclass field they fill.
_CLOUD_KEYS = {"kind": _choice("regular", "jittered", "file"), "dim": int,
               "nodes_per_axis": int, "length": float, "jitter": float, "seed": int,
               "path": str}
_STAR_KEYS = {"s": int, "criterion": _choice("distance", "quadrant")}
_MODEL_KEYS = dict.fromkeys(("alpha1", "alpha2", "p", "q", "delta", "chi", "tech_diffusion"),
                            float)
_GROWTH_KEYS = {"kind": _choice("constant", "gaussian"), "level": float,  # read as g_<field>
                "center": _parse_float_list, "sigma": float}
# By field kind, read as <field>_<name>; the first key is required.
_FIELD_KEYS = {"constant": {"value": float},
               "piecewise": {"points": _parse_points},
               "gaussians": {"bumps": _parse_bumps, "base": float},
               "file": {"path": str}}
_SCHEME_KEYS = {"dt": float, "t_final": float, "snapshot_times": _parse_float_list,
                "stability_mode": _choice("off", "check", "adapt"), "stability_interval": int}
# Every key a scenario may set, by section: the keys the tables above read.
_SECTION_KEYS = {
    "cloud": set(_CLOUD_KEYS),
    "star": set(_STAR_KEYS),
    "model": {*_MODEL_KEYS, *("g_" + name for name in _GROWTH_KEYS)},
    "initial": {f"{prefix}_{name}" for prefix in ("k0", "A0")
                for name in ("kind", *(n for keys in _FIELD_KEYS.values() for n in keys))},
    "scheme": set(_SCHEME_KEYS),
    "output": {"dir"},
}
# Technology starts at a constant 1 unless the scenario says otherwise.
_A0_DEFAULTS = {"A0_kind": "constant", "A0_value": "1.0"}


def _parse_field(sec, prefix: str) -> FieldSpec:
    prefix += "_"
    _require(sec, "initial", prefix + "kind")
    kind = _convert(sec, "initial", {"kind": _choice(*_FIELD_KEYS)}, prefix)["kind"]
    converters = _FIELD_KEYS[kind]
    _require(sec, "initial", prefix + next(iter(converters)))  # the kind's data
    return FieldSpec(kind=kind, **_convert(sec, "initial", converters, prefix))


def _config_parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None, strict=True)
    cp.optionxform = str  # keys are case-sensitive; typos must not slip through
    return cp


def parse_scenario_text(text: str, name: str = "scenario") -> Scenario:
    """Parse and validate a scenario from its text form."""
    cp = _config_parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"{name}: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            _fail(section, "unknown section")
        stray = set(cp[section]) - _SECTION_KEYS[section]
        if stray:
            _fail(f"{section}.{sorted(stray)[0]}", "unknown key")
    for section in _REQUIRED_SECTIONS:
        if section not in cp:
            _fail(section, "required section missing")

    sec = cp["cloud"]
    _require(sec, "cloud", "kind")
    cloud = CloudSpec(**_convert(sec, "cloud", _CLOUD_KEYS))
    if cloud.kind != "file":
        _require(sec, "cloud", "nodes_per_axis")
    if cloud.dim not in (1, 2):
        _fail("cloud.dim", f"must be 1 or 2, got {cloud.dim}")

    sec = cp["star"]
    _require(sec, "star", "s")
    star = StarSpec(**_convert(sec, "star", _STAR_KEYS))

    sec = cp["model"] if "model" in cp else {}
    growth = _convert(sec, "model", _GROWTH_KEYS, prefix="g_")
    g_spec = _build("model", GrowthSpec, **growth)
    if g_spec.kind == "gaussian" and g_spec.center is not None and len(g_spec.center) != cloud.dim:
        _fail("model.g_center", f"needs {cloud.dim} coordinates")
    model = _build("model", ModelParams, **_convert(sec, "model", _MODEL_KEYS), g_spec=g_spec)

    sec = {**_A0_DEFAULTS, **cp["initial"]}
    initial = InitialSpec(k0=_parse_field(sec, "k0"), A0=_parse_field(sec, "A0"))

    sec = cp["scheme"]
    _require(sec, "scheme", "t_final")
    args = _convert(sec, "scheme", _SCHEME_KEYS)
    if "dt" not in args:
        if args.get("stability_mode") != "adapt":
            _fail("scheme.dt", "required unless stability_mode=adapt")
        args["dt"] = None  # adapt derives the first step from the bound
    scheme = _build("scheme", SchemeConfig, **args)

    out_dir = cp.get("output", "dir", fallback=f"out/{name}")
    return Scenario(name=name, cloud=cloud, star=star, model=model,
                    initial=initial, scheme=scheme, output_dir=out_dir)


def parse_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return parse_scenario_text(text, name=name)


# Reference experiment presets: one base per dimension, and per preset its
# dimension, a description and the keys that differ from the base.
# Production uses the saturating p = q = 2 form, so capital growth balances
# depreciation at a finite level; exponents stay configurable per scenario.
_PRESET_BASES = {
    1: """\
[cloud]
kind = jittered
dim = 1
nodes_per_axis = 13
length = 1.0
jitter = 0.15
seed = 3

[star]
s = 2
criterion = distance

[model]
alpha1 = 1.0
alpha2 = 1.0
p = 2.0
q = 2.0
delta = 0.05
chi = 0.0
g_kind = gaussian
g_level = 0.1
g_center = 0.5
g_sigma = 0.2

[initial]
k0_kind = piecewise
k0_points = 0:5, 0.25:5, 0.75:25, 1:25
A0_kind = constant
A0_value = 1.0

[scheme]
dt = 0.001
# The horizon is simulated time, not a domain length; space stays [0, 1].
t_final = 20.0
snapshot_times = 0, 5, 10, 15, 20
stability_mode = check
stability_interval = 200
""",
    2: """\
[cloud]
kind = jittered
dim = 2
nodes_per_axis = 12
length = 1.0
jitter = 0.1
seed = 11

[star]
s = 8
criterion = quadrant

[model]
alpha1 = 1.0
alpha2 = 1.0
p = 2.0
q = 2.0
delta = 0.05
chi = 0.0
g_kind = gaussian
g_level = 0.1
g_center = 0.5, 0.5
g_sigma = 0.2

[initial]
k0_kind = gaussians
k0_bumps = 1.2, 0.3, 0.3, 0.12; 0.9, 0.7, 0.6, 0.1
k0_base = 0.05
A0_kind = constant
A0_value = 1.0

[scheme]
dt = 0.001
# The horizon is simulated time, not a domain length; space stays the unit square.
t_final = 150.0
snapshot_times = 0, 10, 50, 100, 150
stability_mode = check
stability_interval = 500
""",
}
_FROZEN_TECH = {"g_kind": "constant", "g_level": "0.0"}
_LOW_CAPITAL_2D = {"k0_bumps": "0.22, 0.3, 0.3, 0.12; 0.18, 0.7, 0.6, 0.1", "k0_base": "0.02"}
_HORIZON_30 = {"t_final": "30.0", "snapshot_times": "0, 1, 5, 10, 30"}
_PRESETS = {
    "growth-1d-delta005": (
        1, "1D growth, moderate depreciation, no taxis: capital rises across the interval.",
        {}),
    "growth-1d-delta002": (
        1, "1D growth, low depreciation: capital ends above its start everywhere.",
        {"model": {"delta": "0.02"}}),
    "growth-1d-chi1": (
        1, "1D taxis: capital drifts toward the technology peak near x = 0.1 and ends higher.",
        {"model": {"delta": "0.02", "chi": "1.0", "g_center": "0.1"}}),
    "growth-2d-delta005": (
        2, "2D growth, moderate depreciation, no taxis; long horizon.",
        {}),
    "growth-2d-delta0085": (
        2, "2D poverty trap: with frozen technology the rich bumps hold, then drain away.",
        {"model": {"delta": "0.085", **_FROZEN_TECH},
         "scheme": {"t_final": "50.0", "snapshot_times": "0, 5, 15, 30, 50"}}),
    "growth-2d-delta03": (
        2, "2D, very high depreciation, frozen technology: capital converges to zero.",
        {"model": {"delta": "0.3", **_FROZEN_TECH}, "initial": _LOW_CAPITAL_2D,
         "scheme": _HORIZON_30}),
    "growth-2d-delta03-chi1": (
        2, "2D, very high depreciation with taxis and growing technology: capital decays, "
           "then piles up near the technology peak; the step adapts to taxis spikes.",
        {"model": {"delta": "0.3", "chi": "1.0"},
         "initial": _LOW_CAPITAL_2D,
         "scheme": {**_HORIZON_30, "stability_mode": "adapt", "stability_interval": "20"}}),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_text(name: str) -> str:
    """The full scenario text of a preset: its base with its diff applied."""
    if name not in _PRESETS:
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    dim, description, diff = _PRESETS[name]
    cp = _config_parser()
    cp.read_string(_PRESET_BASES[dim])
    cp.read_dict(diff)
    cp["output"] = {"dir": f"out/{name}"}
    buf = io.StringIO()
    buf.write(f"# {description}\n")
    cp.write(buf)
    return buf.getvalue()


def get_preset(name: str) -> Scenario:
    return parse_scenario_text(preset_text(name), name=name)
