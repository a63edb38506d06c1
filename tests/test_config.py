"""The table-driven scenario parser against the hand-written one it replaced.

The old parser (``_Section`` and the ``_parse_*`` functions, with its
``parse_scenario``) is kept below as the oracle, verbatim but for one schema
change: it reads no ``geometry.cam_resolution``, as the reflection camera
takes the projector's grid. Every base config
(``MINIMAL_CONFIG`` and the bundled scenarios) is parsed with one fault at a
time: each key the parser knows removed or set to a value of the wrong type,
range or shape, one unknown key per section, and sections set to non-mappings.
Both parsers must build equal ``Scenario`` objects or raise byte-equal errors,
apart from the message changes made on purpose since (``with_message_changes``).
"""

from __future__ import annotations

import copy
import re
from pathlib import Path
from typing import Sequence

import pytest
import yaml

from evsl import harness
from evsl.harness import ConfigError, Scenario
from evsl.policy import DensePolicy, EventGuidedPolicy, Policy, SparsePolicy
from evsl.projector import NoiseModel, ProjectorModel, SensorGeometry
from evsl.scene import Background, CheckerTexture, GuideCameraModel, MovingObject, SceneScript
from test_harness import MINIMAL_CONFIG

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SCENARIO_NAMES = ("moving_object", "noiseless_plane", "plane_compare", "stationary")


# --------------------------------------------------------------------------
# Oracle: the previous parser, verbatim
# --------------------------------------------------------------------------

_MISSING = object()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Section:
    """Mapping wrapper that tracks consumed keys and error paths."""

    def __init__(self, mapping, path: str = ""):
        if mapping is None:
            mapping = {}
        if not isinstance(mapping, dict):
            raise ConfigError(f"{path or '<root>'}: expected a mapping")
        self._d = dict(mapping)
        self._path = path

    def key(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def child(self, key: str, required: bool = True) -> "_Section | None":
        value = self._d.pop(key, _MISSING)
        if value is _MISSING or value is None:
            if required:
                raise ConfigError(f"{self.key(key)}: missing required section")
            return None
        return _Section(value, self.key(key))

    def take(self, key: str, default=_MISSING):
        value = self._d.pop(key, _MISSING)
        if value is _MISSING:
            if default is _MISSING:
                raise ConfigError(f"{self.key(key)}: missing required key")
            return default
        return value

    def take_number(self, key: str, default=_MISSING, minimum=None, exclusive=False, maximum=None) -> float:
        value = self.take(key, default)
        if not _is_number(value):
            raise ConfigError(f"{self.key(key)}: expected a number, got {value!r}")
        value = float(value)
        if minimum is not None and (value <= minimum if exclusive else value < minimum):
            bound = "greater than" if exclusive else "at least"
            raise ConfigError(f"{self.key(key)}: must be {bound} {minimum}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{self.key(key)}: must be at most {maximum}")
        return value

    def take_int(self, key: str, default=_MISSING, minimum=None) -> int:
        value = self.take(key, default)
        if not _is_int(value):
            raise ConfigError(f"{self.key(key)}: expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.key(key)}: must be at least {minimum}")
        return value

    def take_bool(self, key: str, default=_MISSING) -> bool:
        value = self.take(key, default)
        if not isinstance(value, bool):
            raise ConfigError(f"{self.key(key)}: expected true/false, got {value!r}")
        return value

    def take_str(self, key: str, default=_MISSING, choices: Sequence[str] | None = None) -> str:
        value = self.take(key, default)
        if not isinstance(value, str):
            raise ConfigError(f"{self.key(key)}: expected a string, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigError(f"{self.key(key)}: must be one of {list(choices)}, got {value!r}")
        return value

    def take_pair(self, key: str, default=_MISSING, integer: bool = False) -> tuple:
        value = self.take(key, default)
        if isinstance(value, tuple):
            return value
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"{self.key(key)}: expected a pair [a, b], got {value!r}")
        if integer:
            if not all(_is_int(v) for v in value):
                raise ConfigError(f"{self.key(key)}: expected integer pair, got {value!r}")
            return tuple(value)
        if not all(_is_number(v) for v in value):
            raise ConfigError(f"{self.key(key)}: expected numeric pair, got {value!r}")
        return tuple(float(v) for v in value)

    def take_list(self, key: str, default=_MISSING) -> list | None:
        """A list; ``null`` is accepted only where the default is None."""
        value = self.take(key, default)
        if isinstance(value, list) or value is default:
            return value
        raise ConfigError(f"{self.key(key)}: expected a list, got {value!r}")

    def finish(self) -> None:
        if self._d:
            names = ", ".join(sorted(self.key(k) for k in self._d))
            raise ConfigError(f"unknown key(s): {names}")


def _parse_background(sec: _Section) -> Background:
    checker = None
    texture = sec.child("texture", required=False)
    if texture is not None:
        kind = texture.take_str("kind", choices=["checker"])
        checker = CheckerTexture(
            tile_px=texture.take_int("tile_px", 16, minimum=1),
            low=texture.take_number("low", 0.4, minimum=0, exclusive=True, maximum=1.0),
            high=texture.take_number("high", 0.6, minimum=0, exclusive=True, maximum=1.0),
        )
        texture.finish()
    background = Background(
        depth_m=sec.take_number("depth_m", minimum=0, exclusive=True),
        intensity=sec.take_number("intensity", 0.5, minimum=0, exclusive=True, maximum=1.0),
        checker=checker,
    )
    sec.finish()
    return background


def _parse_object(sec: _Section) -> MovingObject:
    rect = sec.take("rect_px")
    if not isinstance(rect, list) or len(rect) != 4:
        raise ConfigError(f"{sec.key('rect_px')}: expected [x0, y0, width, height]")
    x0, y0, w, h = rect
    if not (_is_number(x0) and _is_number(y0) and _is_int(w) and _is_int(h) and w >= 1 and h >= 1):
        raise ConfigError(
            f"{sec.key('rect_px')}: expected numbers x0, y0 and integers width, height >= 1, got {rect!r}"
        )
    obj = MovingObject(
        x0=float(x0),
        y0=float(y0),
        width=w,
        height=h,
        velocity=sec.take_pair("velocity_px_per_us", (0.0, 0.0)),
        depth_m=sec.take_number("depth_m", minimum=0, exclusive=True),
        intensity=sec.take_number("intensity", 0.9, minimum=0, exclusive=True, maximum=1.0),
    )
    sec.finish()
    return obj


def parse_scene_config(mapping: dict, path: str = "scene") -> SceneScript:
    """Build a SceneScript from the scenario file's scene section."""
    sec = _Section(mapping, path)
    resolution = sec.take_pair("resolution", integer=True)
    background = _parse_background(sec.child("background"))
    objects = []
    for i, entry in enumerate(sec.take_list("objects", [])):
        objects.append(_parse_object(_Section(entry, f"{path}.objects[{i}]")))
    sec.finish()
    try:
        return SceneScript(resolution, background, tuple(objects))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_policy(sec: _Section) -> Policy:
    kind = sec.take_str("kind", choices=["dense", "sparse", "event_guided"])
    try:
        if kind == "dense":
            policy = DensePolicy()
        elif kind == "sparse":
            policy = SparsePolicy(
                stride=sec.take_int("stride", 16, minimum=1),
            )
            sec.take_bool("grid", False)  # SparsePolicy no longer takes it
        else:
            policy = EventGuidedPolicy(
                median_kernel_px=sec.take_int("median_kernel_px", 3, minimum=1),
                active_threshold=sec.take_int("active_threshold", 1, minimum=1),
                min_area_px=sec.take_int("min_area_px", 4, minimum=1),
                dilation_px=sec.take_int("dilation_px", 4, minimum=0),
                background_stride=sec.take_int("background_stride", 16, minimum=1),
                first_period=sec.take_str("first_period", "dense", choices=["dense", "sparse"]),
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{sec.key(kind)}: {exc}") from None
    sec.finish()
    return policy


def parse_scenario(mapping: dict, name: str = "scenario") -> Scenario:
    root = _Section(mapping)

    run = root.child("run")
    periods = run.take_int("periods", 1, minimum=1)
    seed = run.take_int("seed", 0, minimum=0)
    evaluate_plane = run.take_bool("evaluate_plane", True)
    run.finish()

    proj_sec = root.child("projector")
    frequency = proj_sec.take_number("scan_frequency_hz", 60.0, minimum=0, exclusive=True)
    proj_sec.finish()

    geo = root.child("geometry")
    try:
        proj_resolution = geo.take_pair("proj_resolution", integer=True)
        geometry = SensorGeometry(
            cam_resolution=proj_resolution,
            proj_resolution=proj_resolution,
            focal_length_px=geo.take_number("focal_length_px", minimum=0, exclusive=True),
            baseline_m=geo.take_number("baseline_m", 0.04, minimum=0, exclusive=True),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from None
    geo.finish()
    projector = ProjectorModel(geometry.proj_resolution, frequency)

    guide = root.child("guide_camera", required=False)
    if guide is None:
        camera = GuideCameraModel()
    else:
        camera = GuideCameraModel(
            contrast_threshold=guide.take_number("contrast_threshold", 0.3, minimum=0, exclusive=True),
            render_rate_hz=guide.take_number("render_rate_hz", 1000.0, minimum=0, exclusive=True),
            noise_rate_hz=guide.take_number("noise_rate_hz", 0.0, minimum=0),
        )
        guide.finish()

    noise_sec = root.child("noise", required=False)
    if noise_sec is None:
        noise = NoiseModel()
    else:
        anchors = noise_sec.take_list("jitter_anchors", None)
        if anchors is None:
            anchor_tuple = NoiseModel().jitter_anchors
        else:
            anchor_tuple = []
            for i, pair in enumerate(anchors):
                if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))):
                    raise ConfigError(f"{noise_sec.key('jitter_anchors')}[{i}]: expected [rate_mev_s, std_us]")
                anchor_tuple.append((float(pair[0]), float(pair[1])))
            anchor_tuple = tuple(anchor_tuple)
        try:
            noise = NoiseModel(
                jitter_anchors=anchor_tuple,
                drop_probability=noise_sec.take_number("drop_probability", 0.0, minimum=0),
                quantization_us=noise_sec.take_number("quantization_us", 1.0, minimum=0),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"noise: {exc}") from None
        noise_sec.finish()

    policy = _parse_policy(root.child("policy"))

    script = parse_scene_config(root.take("scene"))

    root.finish()
    return Scenario(
        script=script,
        geometry=geometry,
        projector=projector,
        noise=noise,
        policy=policy,
        periods=periods,
        guide_camera=camera,
        seed=seed,
        evaluate_plane=evaluate_plane,
        name=name,
    )


oracle_parse_scenario = parse_scenario
del parse_scenario


# --------------------------------------------------------------------------
# Faults
# --------------------------------------------------------------------------

REMOVED = object()

# Every key the parser reads, by the path of its section (an int is a list index).
KNOWN_KEYS = {
    (): ("run", "projector", "geometry", "guide_camera", "noise", "policy", "scene"),
    ("run",): ("periods", "seed", "evaluate_plane"),
    ("projector",): ("scan_frequency_hz",),
    ("geometry",): ("proj_resolution", "focal_length_px", "baseline_m"),
    ("guide_camera",): ("contrast_threshold", "render_rate_hz", "noise_rate_hz"),
    ("noise",): ("jitter_anchors", "drop_probability", "quantization_us"),
    ("policy",): ("kind", "stride", "grid", "median_kernel_px", "active_threshold", "min_area_px",
                  "dilation_px", "background_stride", "first_period"),
    ("scene",): ("resolution", "background", "objects"),
    ("scene", "background"): ("depth_m", "intensity", "texture"),
    ("scene", "background", "texture"): ("kind", "tile_px", "low", "high"),
    ("scene", "objects"): (0,),
    ("scene", "objects", 0): ("rect_px", "velocity_px_per_us", "depth_m", "intensity"),
}

FAULTS = (
    REMOVED, None, "text", True, -1, 0, 0.5, 2, [1, 2, 3], [0.5, 1.5],
    # values of the right type that may break a range, a shape or a constructor
    {}, 4, 1e9, [2, 2], [0, 8], [1, 1, 2, 2], [[2.0, 1.0], [1.0, 2.0]], [[1.0, 2.0]],
    "dense", "sparse", "event_guided", "checker",
)


def with_fault(base: dict, section: tuple, key, value) -> dict:
    """A copy of ``base`` with ``section[key]`` removed or set, creating the section if absent."""
    mapping = copy.deepcopy(base)
    target = mapping
    for i, step in enumerate(section):
        present = step in target if isinstance(target, dict) else step < len(target)
        if not (present and isinstance(target[step], (dict, list))):
            fresh = [{}] if i + 1 < len(section) and isinstance(section[i + 1], int) else {}
            if isinstance(target, list) and not present:
                target.append(fresh)
            else:
                target[step] = fresh
        target = target[step]
    if isinstance(target, dict):
        if value is REMOVED:
            target.pop(key, None)
        else:
            target[key] = value
    elif key < len(target):
        if value is REMOVED:
            del target[key]
        else:
            target[key] = value
    elif value is not REMOVED:
        target.append(value)
    return mapping


def fault_cases(base: dict):
    for section, keys in KNOWN_KEYS.items():
        for key in keys:
            for value in FAULTS:
                yield with_fault(base, section, key, value)
        if isinstance(keys[0], str):
            yield with_fault(base, section, "unexpected_key", 1)


def outcome(parse, mapping):
    try:
        return parse(copy.deepcopy(mapping), name="case")
    except Exception as exc:  # the type and the message are both compared
        return type(exc), str(exc)


# The value type that states each bound the oracle checked outside the run
# section, by section path: built with the faulted field and valid others.
BOUND_OWNERS = {
    "scene.background": lambda **field: Background(**{"depth_m": 1.0, **field}),
    "scene.background.texture": CheckerTexture,
    "scene.objects[0]": lambda **field: MovingObject(0, 0, 1, 1, **field),
    "projector": lambda scan_frequency_hz: ProjectorModel((8, 8), scan_frequency_hz),
    "geometry": lambda **field: SensorGeometry((8, 8), (8, 8), **{"focal_length_px": 1.0, **field}),
    "guide_camera": GuideCameraModel,
    "noise": NoiseModel,
    "policy": lambda **field: (SparsePolicy if "stride" in field else EventGuidedPolicy)(**field),
}


def value_at(mapping, path: str):
    for step in re.findall(r"[^.\[\]]+", path):
        mapping = mapping[int(step)] if isinstance(mapping, list) else mapping[step]
    return mapping


def with_message_changes(mapping, outcome):
    """The oracle's outcome with the deliberate message changes applied.

    - A policy-constructor error is prefixed ``policy:``, not ``policy.<kind>:``.
    - A ``null`` scene is a missing section, as every other ``null`` section
      is; the oracle read it as an empty mapping.
    - A ``null`` entry of ``scene.objects`` is not a mapping, as a string
      entry is not; the oracle read it as an empty mapping too.
    - ``policy.grid`` is gone: a sparse policy that sets it fails on the
      unknown key where the oracle built the scenario or checked the value.
    - A bound fault reads ``<section path>: <the message the section's value
      type raises for that value>``; the parser checks no bound itself.
    """
    policy = mapping.get("policy")
    if isinstance(policy, dict) and policy.get("kind") == "sparse" and "grid" in policy:
        if isinstance(outcome, Scenario) or outcome[1].startswith("policy.grid: "):
            return ConfigError, "unknown key(s): policy.grid"
    if isinstance(outcome, Scenario):
        return outcome
    kind, message = outcome
    message = re.sub(r"^policy\.(dense|sparse|event_guided): ", "policy: ", message)
    bound = re.fullmatch(r"(.+)\.(\w+): must be (at least|greater than|at most) \S+", message)
    if bound and bound[1] in BOUND_OWNERS:
        try:
            BOUND_OWNERS[bound[1]](**{bound[2]: value_at(mapping, f"{bound[1]}.{bound[2]}")})
        except ValueError as exc:
            message = f"{bound[1]}: {exc}"
    if mapping.get("scene", REMOVED) is None and message == "scene.resolution: missing required key":
        message = "scene: missing required section"
    if message == "scene.objects[0].rect_px: missing required key" and mapping["scene"]["objects"][0] is None:
        message = "scene.objects[0]: expected a mapping"
    return kind, message


def bases():
    yield "minimal", MINIMAL_CONFIG
    textured = copy.deepcopy(MINIMAL_CONFIG)
    textured["scene"]["background"]["texture"] = {"kind": "checker", "tile_px": 2}
    textured["guide_camera"] = {"noise_rate_hz": 1.0}
    textured["policy"] = {"kind": "event_guided", "first_period": "sparse"}
    yield "textured", textured
    sparse = copy.deepcopy(MINIMAL_CONFIG)
    sparse["policy"] = {"kind": "sparse", "stride": 4}
    yield "sparse", sparse
    for name in SCENARIO_NAMES:
        yield name, yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text())


@pytest.mark.parametrize("name, base", list(bases()), ids=[name for name, _ in bases()])
def test_table_parser_matches_oracle(name, base):
    built = failed = 0
    for mapping in fault_cases(base):
        expected = with_message_changes(mapping, outcome(oracle_parse_scenario, mapping))
        got = outcome(harness.parse_scenario, mapping)
        if isinstance(expected, Scenario):
            built += 1
        else:
            failed += 1
        assert got == expected, mapping
    assert built > 20 and failed > 200


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_bundled_scenarios_load_as_before(name):
    path = SCENARIOS / f"{name}.yaml"
    expected = oracle_parse_scenario(yaml.safe_load(path.read_text()), name=name)
    assert harness.load_scenario(path) == expected
