"""Scenario files: a field table per section and one reader for all of them.

A section is a ``(build, fields)`` pair: ``fields`` maps each key to a
``(check, default)`` row, and ``build`` takes the checked values as keywords.
A check takes the field path and the value (or a literal default) and
returns the value to build with; its errors read ``<field path>: <problem>``.
Bounds are the built value type's, read as ``<section path>: <its message>``.
A ``_REQUIRED`` key has no default; an absent ``_DECLARED`` one is left out,
so the built type's own default applies. Three literals repeat a type's default
as no built field bears their key: ``texture``, ``velocity_px_per_us`` and
``scan_frequency_hz``. A run covers ``run.periods`` scan periods.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import yaml

from .policy import DensePolicy, EventGuidedPolicy, Policy, SparsePolicy
from .projector import DEFAULT_JITTER_ANCHORS, NoiseModel, ProjectorModel, SensorGeometry
from .scene import Background, CheckerTexture, GuideCameraModel, MovingObject, SceneScript


class ConfigError(ValueError):
    """Outside input at fault: a scenario value, CLI flag or input file; the message names the field, flag or file."""


@dataclass(frozen=True)
class Scenario:
    script: SceneScript
    geometry: SensorGeometry
    projector: ProjectorModel
    noise: NoiseModel
    policy: Policy
    periods: int
    guide_camera: GuideCameraModel = GuideCameraModel()
    seed: int = 0
    evaluate_plane: bool = True
    name: str = "scenario"

    def __post_init__(self):
        for key in ("proj_resolution", "cam_resolution"):  # the reflection camera is rectified to the projector
            if getattr(self.geometry, key) != self.projector.resolution:
                raise ConfigError(f"geometry.{key}: differs from the projector's {self.projector.resolution}")
        for key, value, least in (("periods", self.periods, 1), ("seed", self.seed, 0)):
            if value < least:
                raise ConfigError(f"run.{key}: must be at least {least}")
        try:
            finite = math.isfinite(self.periods * self.projector.period_us)
        except OverflowError:  # int too large to convert to float
            finite = False
        if not finite:
            raise ConfigError(f"run.periods: {self.periods} scan periods of {self.projector.period_us} us "
                              "overflow a float")


_REQUIRED, _DECLARED = object(), object()  # no default; the built value type's own default


def _read(spec, path: str, mapping):
    """Check ``mapping`` against the section table ``spec`` and build the section."""
    build, fields = spec
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path or '<root>'}: expected a mapping")
    values = {}
    for key, (check, default) in fields.items():
        key_path = f"{path}.{key}" if path else key
        value = mapping.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{key_path}: missing required key")
        if value is not _DECLARED:
            values[key] = check(key_path, value)
    unknown = sorted(f"{path}.{k}" if path else str(k) for k in mapping if k not in fields)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float that is a finite float: not .nan, .inf, or an integer past the float range."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # int too large to convert to float
        return False


def _scalar(is_kind, expected, convert):
    def check(path, value):
        if not is_kind(value):
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        return convert(value)
    return check


_NUMBER = _scalar(_is_number, "a number", float)
_INTEGER = _scalar(_is_int, "an integer", int)
_BOOLEAN = _scalar(lambda value: isinstance(value, bool), "true/false", bool)


def _choice(*choices):
    def check(path, value):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        if value not in choices:
            raise ConfigError(f"{path}: must be one of {list(choices)}, got {value!r}")
        return value
    return check


def _pair(integer):
    kind, is_kind, convert = ("integer", _is_int, int) if integer else ("numeric", _is_number, float)

    def check(path, value):
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"{path}: expected a pair [a, b], got {value!r}")
        if not all(map(is_kind, value)):
            raise ConfigError(f"{path}: expected {kind} pair, got {value!r}")
        return tuple(map(convert, value))
    return check


def _rect(path, value):
    if not isinstance(value, list) or len(value) != 4:
        raise ConfigError(f"{path}: expected [x0, y0, width, height]")
    x0, y0, w, h = value
    if not (_is_number(x0) and _is_number(y0) and _is_int(w) and _is_int(h)):
        raise ConfigError(f"{path}: expected numbers x0, y0 and integers width, height, got {value!r}")
    return float(x0), float(y0), w, h


def _anchor(path, value):
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))):
        raise ConfigError(f"{path}: expected [rate_mev_s, std_us]")
    return tuple(map(float, value))


def _list_of(item, absent=_REQUIRED):
    """A list whose entries pass ``item``; ``null`` gives ``absent`` where one is set."""
    def check(path, value):
        if value is None and absent is not _REQUIRED:
            return absent
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return tuple(item(f"{path}[{i}]", entry) for i, entry in enumerate(value))
    return check


def _section(spec, absent=_REQUIRED):
    """A nested section; a missing or ``null`` one gives ``absent`` where one is set."""
    def check(path, value):
        if value is not None:
            return _read(spec, path, value)
        if absent is _REQUIRED:
            raise ConfigError(f"{path}: missing required section")
        return absent
    return check


def _policy(path, value):
    """The policy section: ``kind`` picks the dataclass and the other keys it takes."""
    kind = value.get("kind") if isinstance(value, dict) else None
    build, fields = _POLICIES[kind if kind in _POLICY_KINDS else "dense"]
    spec = (lambda kind, **values: build(**values), {"kind": (_choice(*_POLICY_KINDS), _REQUIRED), **fields})
    return _section(spec)(path, value)


_TEXTURE = (lambda kind, **values: CheckerTexture(**values), {
    "kind": (_choice("checker"), _REQUIRED),
    "tile_px": (_INTEGER, _DECLARED),
    "low": (_NUMBER, _DECLARED),
    "high": (_NUMBER, _DECLARED),
})

_BACKGROUND = (lambda texture, **values: Background(checker=texture, **values), {
    "texture": (_section(_TEXTURE, absent=None), None),
    "depth_m": (_NUMBER, _REQUIRED),
    "intensity": (_NUMBER, _DECLARED),
})

_OBJECT = (
    lambda rect_px, velocity_px_per_us, **values: MovingObject(*rect_px, velocity=velocity_px_per_us, **values),
    {
        "rect_px": (_rect, _REQUIRED),
        "velocity_px_per_us": (_pair(integer=False), [0, 0]),
        "depth_m": (_NUMBER, _REQUIRED),
        "intensity": (_NUMBER, _DECLARED),
    },
)

_GEOMETRY = (  # the reflection camera is rectified to the projector and shares its grid
    lambda proj_resolution, **values: SensorGeometry(proj_resolution, proj_resolution, **values),
    {
        "proj_resolution": (_pair(integer=True), _REQUIRED),
        "focal_length_px": (_NUMBER, _REQUIRED),
        "baseline_m": (_NUMBER, _DECLARED),
    },
)

_SCENE = (SceneScript, {
    "resolution": (_pair(integer=True), _REQUIRED),
    "background": (_section(_BACKGROUND), None),
    "objects": (_list_of(partial(_read, _OBJECT)), _DECLARED),
})

_POLICIES = {
    "dense": (DensePolicy, {}),
    "sparse": (SparsePolicy, {"stride": (_INTEGER, _DECLARED)}),
    "event_guided": (EventGuidedPolicy, {
        "median_kernel_px": (_INTEGER, _DECLARED),
        "active_threshold": (_INTEGER, _DECLARED),
        "min_area_px": (_INTEGER, _DECLARED),
        "dilation_px": (_INTEGER, _DECLARED),
        "background_stride": (_INTEGER, _DECLARED),
        "first_period": (_choice("dense", "sparse"), _DECLARED),
    }),
}
_POLICY_KINDS = tuple(_POLICIES)  # compared by ==: a YAML list or mapping is not hashable

_SCENARIO = (dict, {
    "run": (_section((dict, {
        "periods": (_INTEGER, 1),
        "seed": (_INTEGER, _DECLARED),
        "evaluate_plane": (_BOOLEAN, _DECLARED),
    })), None),
    "projector": (_section((dict, {"scan_frequency_hz": (_NUMBER, 60.0)})), None),
    "geometry": (_section(_GEOMETRY), None),
    "guide_camera": (_section((GuideCameraModel, {
        "contrast_threshold": (_NUMBER, _DECLARED),
        "render_rate_hz": (_NUMBER, _DECLARED),
        "noise_rate_hz": (_NUMBER, _DECLARED),
    }), absent=GuideCameraModel()), None),
    "noise": (_section((NoiseModel, {
        "jitter_anchors": (_list_of(_anchor, absent=DEFAULT_JITTER_ANCHORS), _DECLARED),
        "drop_probability": (_NUMBER, _DECLARED),
        "quantization_us": (_NUMBER, _DECLARED),
    }), absent=NoiseModel()), None),
    "policy": (_policy, None),
    "scene": (_section(_SCENE), _REQUIRED),
})


def parse_scenario(mapping: dict, name: str = "scenario") -> Scenario:
    sections = _read(_SCENARIO, "", mapping)
    geometry = sections["geometry"]
    try:
        projector = ProjectorModel(geometry.proj_resolution, sections["projector"]["scan_frequency_hz"])
    except ValueError as exc:
        raise ConfigError(f"projector: {exc}") from None
    return Scenario(sections["scene"], geometry, projector, sections["noise"], sections["policy"],
                    guide_camera=sections["guide_camera"], name=name, **sections["run"])


def load_scenario(path: str | os.PathLike) -> Scenario:
    """Load a scenario file; override its values with ``dataclasses.replace``, which checks them the same way."""
    p = Path(path)
    try:
        mapping = yaml.safe_load(p.read_text(encoding="utf-8"))
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: not UTF-8, or an integer past 4300 digits
        raise ConfigError(f"{p}: invalid YAML ({exc})") from None
    if not isinstance(mapping, dict):
        raise ConfigError(f"{p}: scenario file must contain a mapping")
    return parse_scenario(mapping, name=p.stem)
