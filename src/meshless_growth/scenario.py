"""Scenario files: flat key=value sections describing a complete run.

A scenario pins down the cloud, whose dimension sets the star, the model
coefficients, the initial fields, the time stepping, and the output
directory.  Unknown sections and keys, and keys the chosen kind does not
read, are rejected outright so typos never silently fall back to defaults.
A handful of built-in presets reproduce the reference growth experiments.
"""

from __future__ import annotations

import configparser
import csv
import io
from dataclasses import dataclass

import numpy as np

from .cloud import NodeCloud, generate_jittered, generate_regular, load_cloud
from .errors import ScenarioError
from .model import GrowthSpec, ModelParams, check_width, gaussian
from .scheme import SchemeConfig, State
from .stencil import STAR_RULE, StencilTable, build_all_stencils

_REQUIRED_SECTIONS = ("cloud", "initial", "scheme")


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


def _reject_stray(keys, known, section: str, why: str) -> None:
    stray = sorted(set(keys) - set(known))
    if stray:
        _fail(f"{section}.{stray[0]}", why)


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


def _path(raw: str) -> str:
    if not raw:
        raise ValueError("empty path")
    return raw


def _finite(raw) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(_finite(x) for x in raw.split(",") if x.strip())


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


def _build(prefix: str, make, *args, **kwargs):
    """make(*args, **kwargs); a rejection names its field, and prefix makes that a key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{prefix}{exc}") from exc


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
            return _build("cloud.", generate_regular, self.nodes_per_axis, self.length, self.dim)
        if self.kind == "jittered":
            return _build("cloud.", generate_jittered, self.nodes_per_axis, self.length,
                          self.dim, self.jitter, self.seed)
        if self.kind == "file":
            try:
                cloud = load_cloud(self.path)
            except (OSError, ValueError) as exc:
                raise ScenarioError(f"cloud.path: {exc}") from exc
            if cloud.dim != self.dim:
                raise ScenarioError(f"cloud.dim: {self.path} holds a {cloud.dim}D cloud, "
                                    f"not {self.dim}D")
            return cloud
        raise ScenarioError(f"cloud.kind: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class StarSpec:
    s: int  # the star size; select_star's rule picks the nodes

    def build_table(self, cloud: NodeCloud) -> StencilTable:
        return build_all_stencils(cloud, self.s)


@dataclass(frozen=True)
class FieldSpec:
    """One initial field: constant, 1D piecewise-linear, Gaussian bumps, or file."""

    kind: str
    value: float = 0.0
    points: tuple[tuple[float, float], ...] = ()
    bumps: tuple[tuple[float, ...], ...] = ()  # (amplitude, center..., sigma)
    base: float = 0.0
    path: str | None = None

    def __post_init__(self):
        for *_, sigma in self.bumps:
            check_width(sigma, "bumps: sigma")
        if any(a[0] > b[0] for a, b in zip(self.points, self.points[1:])):
            raise ValueError("points: breakpoints must be sorted")

    def evaluate(self, cloud: NodeCloud) -> np.ndarray:
        """The field at every node; a rejection names its field, as the
        dataclass rules do."""
        if self.kind == "constant":
            return np.full(cloud.n_nodes, float(self.value))
        if self.kind == "piecewise":
            if cloud.dim != 1:
                raise ScenarioError("points: piecewise initial fields are 1D only")
            xs = np.array([p[0] for p in self.points])
            vs = np.array([p[1] for p in self.points])
            return np.interp(cloud.positions[:, 0], xs, vs)
        if self.kind == "gaussians":
            out = np.full(cloud.n_nodes, float(self.base))
            for amp, *center, sigma in self.bumps:
                if len(center) != cloud.dim:
                    raise ScenarioError(f"bumps: bump center has {len(center)} coordinates "
                                        f"on a {cloud.dim}D cloud")
                with np.errstate(over="ignore"):  # an overflowing sum is rejected below
                    out = out + amp * gaussian(cloud.positions, center, sigma)
            bad = np.flatnonzero(~np.isfinite(out))
            if bad.size:
                raise ScenarioError(f"bumps: the field is not finite at node {bad[0]}: "
                                    f"{out[bad[0]]}")
            return out
        if self.kind == "file":
            return _load_field_file(self.path, cloud.n_nodes)
        raise ScenarioError(f"kind: unknown initial field kind {self.kind!r}")


def _load_field_file(path: str, n_nodes: int) -> np.ndarray:
    """One finite value per node from a node,value CSV, two columns a row;
    a rejected row names path:line, and a repeated node also the line of
    its first row."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"path: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["node", "value"]:
        raise ScenarioError(f"path: {path}: field file header must be node,value")
    out = np.empty(n_nodes)
    line_of = np.zeros(n_nodes, dtype=np.intp)  # 0 until the node's row is read
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            node, value = row  # exactly two columns
            idx, val = int(node), float(value)
        except ValueError:
            raise ScenarioError(f"path: {path}:{lineno}: expected node,value") from None
        if not 0 <= idx < n_nodes:
            raise ScenarioError(f"path: {path}:{lineno}: node {idx} out of range")
        if line_of[idx]:
            raise ScenarioError(f"path: {path}:{lineno}: node {idx} repeats line {line_of[idx]}")
        try:
            out[idx] = _finite(val)
        except ValueError as exc:
            raise ScenarioError(f"path: {path}:{lineno}: value of node {idx} {exc}") from None
        line_of[idx] = lineno
    missing = np.flatnonzero(line_of == 0)
    if missing.size:
        raise ScenarioError(f"path: {path}: no value for node {missing[0]}")
    return out


@dataclass(frozen=True)
class Scenario:
    name: str
    cloud: CloudSpec
    model: ModelParams
    k0: FieldSpec
    A0: FieldSpec
    scheme: SchemeConfig
    output_dir: str

    @property
    def star(self) -> StarSpec:
        """The star of the cloud's dimension, by stencil.STAR_RULE."""
        return StarSpec(STAR_RULE[self.cloud.dim])

    def initial_state(self, cloud: NodeCloud) -> State:
        return State(k=_build("initial.k0_", self.k0.evaluate, cloud),
                     A=_build("initial.A0_", self.A0.evaluate, cloud), time=0.0)


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
            x, value = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"bad number in {chunk!r}") from None
        pts.append((_finite(x), _finite(value)))
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
        bumps.append(tuple(map(_finite, nums)))
    if not bumps:
        raise ValueError("no bumps given")
    return tuple(bumps)


# The keys of each kinded spec, by kind and then by the dataclass field they
# fill; each is read as <prefix><field>, and a kind's first key is its data.
_CLOUD_KINDS = {"regular": {"nodes_per_axis": int, "length": _finite},  # prefix ""
                "jittered": {"nodes_per_axis": int, "length": _finite, "jitter": _finite,
                             "seed": int},
                "file": {"path": _path}}
_FIELD_KINDS = {"constant": {"value": _finite},  # prefixes k0_ and A0_
                "piecewise": {"points": _parse_points},
                "gaussians": {"bumps": _parse_bumps, "base": _finite},
                "file": {"path": _path}}
_GROWTH_KINDS = {"constant": {"level": _finite},  # prefix g_
                 "gaussian": {"level": _finite, "center": _parse_float_list, "sigma": _finite}}
_MODEL_KEYS = dict.fromkeys(("alpha1", "alpha2", "p", "q", "delta", "chi", "tech_diffusion"),
                            _finite)
_SCHEME_KEYS = {"dt": _finite, "t_final": _finite, "snapshot_times": _parse_float_list,
                "stability_mode": str, "stability_interval": int}
_OUTPUT_KEYS = {"dir": _path}


def _kind_keys(prefix: str, kinds: dict) -> set:
    """<prefix>kind and the key of every field that a kind in kinds reads."""
    return {prefix + name for name in ("kind", *(n for keys in kinds.values() for n in keys))}


# Every key a scenario may set, by section: the keys the tables above read.
_SECTION_KEYS = {
    "cloud": {"dim", *_kind_keys("", _CLOUD_KINDS)},
    "model": {*_MODEL_KEYS, *_kind_keys("g_", _GROWTH_KINDS)},
    "initial": _kind_keys("k0_", _FIELD_KINDS) | _kind_keys("A0_", _FIELD_KINDS),
    "scheme": set(_SCHEME_KEYS),
    "output": set(_OUTPUT_KEYS),
}


def _parse_kind(sec, section: str, prefix: str, kinds: dict, default: str | None = None) -> dict:
    """The kind read from <prefix>kind and the keyword arguments of its keys;
    a key that only another kind reads is rejected, and without a default the
    kind and its first key are required."""
    if default is None:
        _require(sec, section, prefix + "kind")
    kind = _convert(sec, section, {"kind": _choice(*kinds)}, prefix).get("kind", default)
    converters = kinds[kind]
    present = _kind_keys(prefix, kinds).intersection(sec)
    _reject_stray(present, _kind_keys(prefix, {kind: converters}), section,
                  f"not read by {prefix}kind = {kind}")
    if default is None:
        _require(sec, section, prefix + next(iter(converters)))
    return {"kind": kind, **_convert(sec, section, converters, prefix)}


def _config_parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None, strict=True)
    cp.optionxform = str  # keys are case-sensitive; typos must not slip through
    return cp


def parse_scenario_text(text: str, name: str = "scenario", overrides=None) -> Scenario:
    """Parse and validate a scenario from its text form.

    overrides maps "section.key" names to values; each value that is not
    None replaces that key's text before validation, so it is checked like
    a key written in the text.
    """
    cp = _config_parser()
    try:
        cp.read_string(text)
        for key, value in (overrides or {}).items():
            if value is not None:
                parts = key.split(".")
                if len(parts) != 2 or not all(parts):
                    _fail(key, "an override key is section.key")
                cp.read_dict({parts[0]: {parts[1]: value}})
    except configparser.Error as exc:
        raise ScenarioError(f"{name}: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            _fail(section, "unknown section")
        _reject_stray(cp[section], _SECTION_KEYS[section], section, "unknown key")
    for section in _REQUIRED_SECTIONS:
        if section not in cp:
            _fail(section, "required section missing")

    sec = cp["cloud"]
    cloud = CloudSpec(**_parse_kind(sec, "cloud", "", _CLOUD_KINDS),
                      **_convert(sec, "cloud", {"dim": int}))
    # Checked here, not only by the build: g_center's arity and STAR_RULE need it first.
    if cloud.dim not in (1, 2):
        _fail("cloud.dim", f"must be 1 or 2, got {cloud.dim}")

    sec = cp["model"] if "model" in cp else {}
    g_spec = _build("model.g_", GrowthSpec,
                    **_parse_kind(sec, "model", "g_", _GROWTH_KINDS, default="constant"))
    if g_spec.center is not None and len(g_spec.center) != cloud.dim:
        _fail("model.g_center", f"needs {cloud.dim} coordinates")
    model = _build("model.", ModelParams, **_convert(sec, "model", _MODEL_KEYS), g_spec=g_spec)

    sec = {"A0_kind": "constant", **cp["initial"]}  # technology starts at a constant 1
    if sec["A0_kind"] == "constant":
        sec.setdefault("A0_value", "1.0")
    k0, a0 = (_build(f"initial.{p}", FieldSpec, **_parse_kind(sec, "initial", p, _FIELD_KINDS))
              for p in ("k0_", "A0_"))

    sec = cp["scheme"]
    _require(sec, "scheme", "dt", "t_final")
    scheme = _build("scheme.", SchemeConfig, **_convert(sec, "scheme", _SCHEME_KEYS))

    sec = {"dir": f"out/{name}", **(cp["output"] if "output" in cp else {})}
    out_dir = _convert(sec, "output", _OUTPUT_KEYS)["dir"]
    return Scenario(name=name, cloud=cloud, model=model, k0=k0, A0=a0,
                    scheme=scheme, output_dir=out_dir)


def parse_scenario(path, overrides=None) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return parse_scenario_text(text, name=name, overrides=overrides)


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

[model]
alpha1 = 1.0
alpha2 = 1.0
p = 2.0
q = 2.0
delta = 0.05
chi = 0.0

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
_GROWING_TECH_2D = {"g_kind": "gaussian", "g_level": "0.1", "g_center": "0.5, 0.5",
                    "g_sigma": "0.2"}
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
        {"model": _GROWING_TECH_2D}),
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
        {"model": {"delta": "0.3", "chi": "1.0", **_GROWING_TECH_2D},
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


def get_preset(name: str, overrides=None) -> Scenario:
    return parse_scenario_text(preset_text(name), name=name, overrides=overrides)
