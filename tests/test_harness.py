import copy
import os
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import evsl
from evsl import harness
from evsl.cli import main as cli_main
from evsl.events import DepthMap, EventStream
from evsl.formats import format_cell
from evsl.projector import SENSOR_PRESETS
from evsl.harness import (
    DUMP_KINDS,
    PERIOD_CSV_HEADER,
    ConfigError,
    PeriodReport,
    Scenario,
    compare_sampling,
    load_scenario,
    parse_scenario,
    run_scenario,
    sweep_dwell_time,
    sweep_event_rate,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SRC = str(Path(evsl.__file__).resolve().parents[1])


def tiny_scenario(policy=None, periods=3, noise=None, seed=5, objects=None):
    if objects is None:
        objects = (evsl.MovingObject(10, 10, 12, 8, (0.0006, 0.0), 1.9995, 0.95),)
    script = evsl.SceneScript((64, 48), evsl.Background(2.0, 0.5), objects)
    geom = evsl.SensorGeometry((64, 48), (64, 48), 600.0, 0.04)
    proj = evsl.ProjectorModel((64, 48), 60.0)
    return Scenario(
        script=script,
        geometry=geom,
        projector=proj,
        noise=noise or evsl.NoiseModel.noiseless(),
        policy=policy or evsl.EventGuidedPolicy(first_period="sparse"),
        periods=periods,
        seed=seed,
    )


def scenario_yaml(tmp_path, **overrides):
    """The tiny scenario as a YAML file. Each keyword names a section: a mapping
    updates that section's keys, and None drops the section, so it takes its defaults."""
    mapping = yaml.safe_load(textwrap.dedent("""\
        scene:
          resolution: [64, 48]
          background:
            depth_m: 2.0
            intensity: 0.5
          objects:
            - rect_px: [10, 10, 12, 8]
              velocity_px_per_us: [0.0006, 0.0]
              depth_m: 1.9995
              intensity: 0.95
        geometry:
          proj_resolution: [64, 48]
          focal_length_px: 600.0
          baseline_m: 0.04
        projector:
          scan_frequency_hz: 60.0
        noise:
          jitter_anchors: []
          quantization_us: 0.0
        policy:
          kind: event_guided
          first_period: sparse
        run:
          periods: 3
          seed: 5
    """))
    for section, values in overrides.items():
        if values is None:
            del mapping[section]
        else:
            mapping[section].update(values)
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    return path


MINIMAL_CONFIG = {
    "scene": {
        "resolution": [8, 8],
        "background": {"depth_m": 2.0},
        "objects": [{"rect_px": [1, 1, 2, 2], "depth_m": 1.0}],
    },
    "geometry": {"proj_resolution": [8, 8], "focal_length_px": 10.0},
    "projector": {"scan_frequency_hz": 60.0},
    "noise": {},
    "policy": {"kind": "dense"},
    "run": {"periods": 1},
}


def config_with(path, value):
    """MINIMAL_CONFIG with the entry at ``path`` (a key/index tuple) set to ``value``."""
    mapping = copy.deepcopy(MINIMAL_CONFIG)
    *head, last = path
    target = mapping
    for key in head:
        target = target[key]
    target[last] = value
    return mapping


RECT_MESSAGE = "scene.objects[0].rect_px: expected numbers x0, y0 and integers width, height, got "
HUGE = 10**400  # a YAML integer past the float range


class TestScenarioConfig:
    def test_yaml_round_trip(self, tmp_path):
        sc = load_scenario(scenario_yaml(tmp_path))
        assert sc.periods == 3
        assert isinstance(sc.policy, evsl.EventGuidedPolicy)
        assert sc.noise.jitter_anchors == ()

    def test_unknown_key_reports_path(self):
        with pytest.raises(ConfigError, match=r"policy\.striide"):
            parse_scenario({
                "scene": {"resolution": [8, 8], "background": {"depth_m": 2.0}},
                "geometry": {"proj_resolution": [8, 8], "focal_length_px": 10.0},
                "projector": {"scan_frequency_hz": 60.0},
                "policy": {"kind": "sparse", "striide": 4},
                "run": {"periods": 1},
            })

    def test_bad_value_reports_path(self):
        with pytest.raises(ConfigError, match=r"^geometry: focal_length_px must be positive$"):
            parse_scenario({
                "scene": {"resolution": [8, 8], "background": {"depth_m": 2.0}},
                "geometry": {"proj_resolution": [8, 8], "focal_length_px": -1.0},
                "projector": {"scan_frequency_hz": 60.0},
                "policy": {"kind": "dense"},
                "run": {"periods": 1},
            })

    def test_missing_section_reported(self):
        with pytest.raises(ConfigError, match="geometry"):
            parse_scenario({
                "scene": {"resolution": [8, 8], "background": {"depth_m": 2.0}},
                "projector": {"scan_frequency_hz": 60.0},
                "policy": {"kind": "dense"},
                "run": {"periods": 1},
            })

    def test_more_periods_need_no_other_change(self):
        # a scene has no length of its own: a run covers however many scan periods it is given
        sc = replace(load_scenario(SCENARIOS / "moving_object.yaml"), periods=8)
        assert len(run_scenario(sc)) == 8

    @pytest.mark.parametrize("section, key, value", [
        ("noise", "latency_us", 0.0), ("scene", "duration_us", 50000.0), ("run", "out_dir", "out"),
        ("geometry", "cam_resolution", [64, 48]),
    ])
    def test_removed_key_is_unknown(self, tmp_path, section, key, value):
        scenario = scenario_yaml(tmp_path, **{section: {key: value}})
        with pytest.raises(ConfigError, match=rf"^unknown key\(s\): {section}\.{key}$"):
            load_scenario(scenario)

    def test_removed_key_exits_2(self, tmp_path, capsys):
        scenario = scenario_yaml(tmp_path, noise={"latency_us": 0.0})
        assert cli_main(["simulate", str(scenario), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: unknown key(s): noise.latency_us\n"

    @pytest.mark.parametrize("path, value, message", [
        (("scene", "objects"), None, "scene.objects: expected a list, got None"),
        (("scene", "objects", 0, "rect_px"), ["a", 1, 2, 3], RECT_MESSAGE + "['a', 1, 2, 3]"),
        (("scene", "objects", 0, "rect_px"), [None, 1, 2, 3], RECT_MESSAGE + "[None, 1, 2, 3]"),
        (("scene", "objects", 0, "rect_px"), [1, 1, 0, 3], "scene.objects[0]: object width/height must be >= 1"),
        (("scene", "objects", 0, "rect_px"), [1, 1, 2.7, 3], RECT_MESSAGE + "[1, 1, 2.7, 3]"),
        (("scene", "objects", 0, "rect_px"), [1, 1, 2], "scene.objects[0].rect_px: expected [x0, y0, width, height]"),
        (("geometry", "proj_resolution"), [0, 8], "geometry: invalid proj_resolution (0, 8)"),
        (("geometry", "proj_resolution"), [64.9, 48], "geometry.proj_resolution: expected integer pair, got [64.9, 48]"),
        (("geometry", "proj_resolution"), [True, 48], "geometry.proj_resolution: expected integer pair, got [True, 48]"),
        (("scene", "resolution"), [0, 8], "scene: invalid resolution (0, 8)"),
        (("noise", "jitter_anchors"), [["a", 1]], "noise.jitter_anchors[0]: expected [rate_mev_s, std_us]"),
        (("policy",), {"kind": "sparse", "stride": 0}, "policy: stride must be >= 1"),
        (("policy",), {"kind": "sparse", "grid": True}, "unknown key(s): policy.grid"),
        (("policy",), {"kind": "event_guided", "dilation_px": -1}, "policy: dilation_px must be >= 0"),
        (("policy",), {"kind": "event_guided", "median_kernel_px": 2},
         "policy: median_kernel_px must be odd and >= 1"),
        (("scene", "objects", 0), None, "scene.objects[0]: expected a mapping"),
        (("geometry", "proj_resolution"), [65536, 32768],
         "geometry: proj_resolution (65536, 32768) has 2147483648 pixels; at most 2**31 - 1 are supported"),
        (("scene", "resolution"), [2**31, 1],
         "scene: resolution (2147483648, 1) has 2147483648 pixels; at most 2**31 - 1 are supported"),
    ])
    def test_malformed_value_names_field(self, path, value, message):
        with pytest.raises(ConfigError) as info:
            parse_scenario(config_with(path, value))
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("path, message", [
        (("projector", "scan_frequency_hz"), "projector.scan_frequency_hz: expected a number, got {!r}"),
        (("geometry", "focal_length_px"), "geometry.focal_length_px: expected a number, got {!r}"),
        (("guide_camera",), "guide_camera.contrast_threshold: expected a number, got {!r}"),
        (("noise", "drop_probability"), "noise.drop_probability: expected a number, got {!r}"),
        (("scene", "background", "depth_m"), "scene.background.depth_m: expected a number, got {!r}"),
        (("scene", "background", "texture"), "scene.background.texture.low: expected a number, got {!r}"),
        (("scene", "objects", 0, "depth_m"), "scene.objects[0].depth_m: expected a number, got {!r}"),
        (("scene", "objects", 0, "velocity_px_per_us"),
         "scene.objects[0].velocity_px_per_us: expected numeric pair, got [{!r}, 0.0]"),
        (("scene", "objects", 0, "rect_px"), RECT_MESSAGE + "[{!r}, 1, 2, 3]"),
        (("noise", "jitter_anchors"), "noise.jitter_anchors[0]: expected [rate_mev_s, std_us]"),
    ])
    def test_non_finite_number_names_field(self, path, message, value):
        entry = {
            "guide_camera": {"contrast_threshold": value},
            "texture": {"kind": "checker", "low": value},
            "velocity_px_per_us": [value, 0.0],
            "rect_px": [value, 1, 2, 3],
            "jitter_anchors": [[value, 1.0]],
        }.get(path[-1], value)
        with pytest.raises(ConfigError) as info:
            parse_scenario(config_with(path, entry))
        assert str(info.value) == message.format(value)

    def test_non_finite_number_exits_2(self, tmp_path, capsys):
        path = scenario_yaml(tmp_path)
        path.write_text(path.read_text() + "guide_camera:\n  render_rate_hz: .inf\n")
        assert cli_main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: guide_camera.render_rate_hz: expected a number, got inf\n"

    @pytest.mark.parametrize("path, value, message", [
        (("geometry", "focal_length_px"), HUGE, f"geometry.focal_length_px: expected a number, got {HUGE}"),
        (("scene", "objects", 0, "velocity_px_per_us"), [HUGE, 0.0],
         f"scene.objects[0].velocity_px_per_us: expected numeric pair, got [{HUGE}, 0.0]"),
        (("noise", "jitter_anchors"), [[HUGE, 1.0]], "noise.jitter_anchors[0]: expected [rate_mev_s, std_us]"),
        (("run", "periods"), HUGE, f"run.periods: {HUGE} scan periods of {1e6 / 60.0} us overflow a float"),
        (("run", "periods"), 10**305, f"run.periods: {10**305} scan periods of {1e6 / 60.0} us overflow a float"),
    ], ids=["focal_length_px", "velocity_px_per_us", "jitter_anchors", "periods", "periods-float-product"])
    def test_integer_past_float_range_names_field(self, tmp_path, capsys, path, value, message):
        # float(10**400) raises OverflowError; 10**305 converts, but 10**305 scan periods of 16,667 us do not fit
        with pytest.raises(ConfigError) as info:
            parse_scenario(config_with(path, value))
        assert str(info.value) == message
        scenario = tmp_path / "huge.yaml"
        scenario.write_text(yaml.safe_dump(config_with(path, value)))
        assert cli_main(["simulate", str(scenario), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integer_past_conversion_limit_names_file(self, tmp_path, capsys):
        # Python converts no decimal string of more than 4300 digits to an int, and PyYAML raises its ValueError
        scenario = scenario_yaml(tmp_path)
        scenario.write_text(scenario.read_text().replace("focal_length_px: 600.0", "focal_length_px: " + "1" * 5001))
        with pytest.raises(ConfigError) as info:
            load_scenario(scenario)
        assert str(info.value).startswith(f"{scenario}: ")
        assert cli_main(["simulate", str(scenario), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {scenario}: ")

    def test_projector_resolution_held_once(self):
        sc = tiny_scenario()
        message = r"^geometry\.proj_resolution: differs from the projector's \(32, 24\)$"
        with pytest.raises(ConfigError, match=message):
            replace(sc, projector=evsl.ProjectorModel((32, 24), 60.0))
        with pytest.raises(ConfigError, match="geometry.proj_resolution"):
            replace(sc, geometry=replace(sc.geometry, proj_resolution=(32, 24)))
        # the reflection camera is rectified to the projector: an unlike grid would decode only a crop
        message = r"^geometry\.cam_resolution: differs from the projector's \(64, 48\)$"
        for grid in ((32, 24), (128, 96)):
            with pytest.raises(ConfigError, match=message):
                replace(sc, geometry=replace(sc.geometry, cam_resolution=grid))

    def test_scenario_owns_run_bounds(self):
        sc = tiny_scenario()
        with pytest.raises(ConfigError, match=r"^run\.seed: must be at least 0$"):
            replace(sc, seed=-1)
        with pytest.raises(ConfigError, match=r"^run\.periods: must be at least 1$"):
            replace(sc, periods=0)

    def test_omitted_keys_follow_the_value_types_defaults(self, monkeypatch):
        # a default is declared once, on the value type: change the declaration and the parser follows it
        for cls, name, value in ((evsl.EventGuidedPolicy, "median_kernel_px", 5),
                                 (evsl.GuideCameraModel, "contrast_threshold", 0.25)):
            defaults = dict(zip([f.name for f in fields(cls)], cls.__init__.__defaults__))  # every field has one
            monkeypatch.setattr(cls.__init__, "__defaults__", tuple({**defaults, name: value}.values()))
        sc = parse_scenario({**MINIMAL_CONFIG, "policy": {"kind": "event_guided"}, "guide_camera": {}})
        assert sc.policy.median_kernel_px == 5
        assert sc.guide_camera.contrast_threshold == 0.25

    def test_readme_scenario_block_states_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = yaml.safe_load(readme.split("## Scenario files", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0])
        # illustrative, not defaults: the optional texture and the sparse-only stride
        texture = block["scene"]["background"].pop("texture")
        stride = block["policy"].pop("stride")
        required = {
            "scene": {"resolution": block["scene"]["resolution"],
                      "background": {"depth_m": block["scene"]["background"]["depth_m"]}},
            "geometry": {key: block["geometry"][key]
                         for key in ("proj_resolution", "focal_length_px")},
            "projector": {},
            "policy": {"kind": block["policy"]["kind"]},
            "run": {},
        }
        assert parse_scenario(block) == parse_scenario(required)
        assert texture.pop("kind") == "checker"
        assert evsl.CheckerTexture(**texture) == evsl.CheckerTexture()
        assert stride == evsl.SparsePolicy().stride

    def test_shipped_scenarios_load(self):
        for name in ("plane_compare", "moving_object", "stationary", "noiseless_plane"):
            sc = load_scenario(SCENARIOS / f"{name}.yaml")
            assert sc.periods >= 1


class TestRunScenario:
    def test_dense_noiseless_plane(self):
        sc = tiny_scenario(policy=evsl.DensePolicy(), objects=())
        reports = run_scenario(sc)
        for r in reports:
            assert r.mask_fraction == 1.0
            assert r.power_proxy == 1.0
            assert r.plane_rms_m == pytest.approx(0.0, abs=1e-9)
            assert r.guide_event_rate == 0.0

    def test_event_guided_mask_between_floor_and_cap(self):
        reports = run_scenario(tiny_scenario())
        floor = evsl.build_mask(evsl.SparsePolicy(16), (64, 48)).fraction
        for r in reports[1:]:
            assert floor <= r.mask_fraction < 0.5
        assert reports[1].mask_fraction > floor  # the moving object grew the mask

    def test_power_proxy_is_mask_fraction(self):
        for r in run_scenario(tiny_scenario()):
            assert r.power_proxy == r.mask_fraction

    def test_period_failure_recorded_and_run_continues(self):
        # a single-row camera makes every reconstructed cloud collinear, so
        # the plane fit fails; the run must keep going and log the failure
        script = evsl.SceneScript((64, 1), evsl.Background(2.0, 0.5))
        geom = evsl.SensorGeometry((64, 1), (64, 1), 600.0, 0.04)
        proj = evsl.ProjectorModel((64, 1), 60.0)
        sc = Scenario(script, geom, proj, evsl.NoiseModel.noiseless(), evsl.DensePolicy(),
                      periods=2, evaluate_plane=True)
        reports = run_scenario(sc)
        assert len(reports) == 2
        assert all(r.error is not None and "Degenerate" in r.error for r in reports)

    def test_period_csv_header_follows_report_fields(self):
        # periods.csv holds astuple(report) under this header: one column per field, in field order
        names = [f.name for f in fields(PeriodReport)]
        assert len(PERIOD_CSV_HEADER) == len(names)
        for column, name in zip(PERIOD_CSV_HEADER, names):
            assert column in (name, f"{name}_ev_s")

    def test_degenerate_period_keeps_metrics_and_dumps(self, tmp_path):
        script = evsl.SceneScript((64, 1), evsl.Background(2.0, 0.5))
        geom = evsl.SensorGeometry((64, 1), (64, 1), 600.0, 0.04)
        proj = evsl.ProjectorModel((64, 1), 60.0)
        sc = Scenario(script, geom, proj, evsl.NoiseModel.noiseless(), evsl.DensePolicy(), periods=1)
        (r,) = run_scenario(sc, dump=("events", "masks", "depth", "ply"), out_dir=tmp_path)
        assert r.error == "DegenerateInputError: plane fit needs >= 3 non-collinear points"
        assert r.plane_rms_m is None
        assert r.mask_fraction == r.power_proxy == 1.0
        assert r.valid_depth_pixels > 3
        assert r.reflection_event_rate == r.valid_depth_pixels / (proj.period_us * 1e-6)
        for name in ("guide_p000.txt", "reflect_p000.txt", "mask_p000.pbm", "depth_p000.pgm", "cloud_p000.ply"):
            assert (tmp_path / name).exists()
        assert (tmp_path / "periods.csv").read_text().splitlines()[1].endswith(
            ",DegenerateInputError: plane fit needs >= 3 non-collinear points"
        )

    def test_programming_error_is_raised(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken stage")

        monkeypatch.setattr(harness, "reconstruct_depth", broken)
        with pytest.raises(TypeError, match="broken stage"):
            run_scenario(tiny_scenario())

    @pytest.mark.parametrize("stage, key, delta, message", [
        ("simulate_reflection_events", "fired", 1, "reflection tally"),
        ("simulate_reflection_events", "dropped", -1, "reflection tally"),
        ("simulate_reflection_events", "emitted", 1, "reflection tally"),
        ("reconstruct_depth", "no_event", 1, "decode tally"),
        ("reconstruct_depth", "nonpositive_disparity", -1, "decode tally"),
        ("reconstruct_depth", "valid", 1, "decode tally"),
    ])
    def test_tally_off_by_one_is_raised(self, monkeypatch, stage, key, delta, message):
        real = getattr(harness, stage)

        def off_by_one(*args, **kwargs):
            result, tally = real(*args, **kwargs)
            return result, {**tally, key: tally[key] + delta}

        monkeypatch.setattr(harness, stage, off_by_one)
        with pytest.raises(RuntimeError, match=message):
            run_scenario(tiny_scenario(noise=evsl.NoiseModel()))
        with pytest.raises(RuntimeError, match=message):
            compare_sampling(tiny_scenario(periods=1), parallel=True)

    def test_emitted_tally_must_count_the_stream(self, monkeypatch):
        # fired and the parts balance, but the stream lost an event the tally still counts as emitted
        real = harness.simulate_reflection_events

        def one_event_short(*args, **kwargs):
            stream, tally = real(*args, **kwargs)
            return EventStream(stream.resolution, stream.t[1:], stream.x[1:], stream.y[1:], stream.p[1:]), tally

        monkeypatch.setattr(harness, "simulate_reflection_events", one_event_short)
        with pytest.raises(RuntimeError, match="reflection tally"):
            run_scenario(tiny_scenario())

    def test_valid_tally_must_count_the_map(self, monkeypatch):
        # the four classes add up to every pixel, but one fewer pixel is valid than the tally says
        real = harness.reconstruct_depth

        def one_valid_short(*args, **kwargs):
            depth_map, tally = real(*args, **kwargs)
            valid = depth_map.valid.copy()
            valid.flat[np.flatnonzero(valid)[0]] = False
            return DepthMap(depth_map.resolution, depth_map.depth, valid), tally

        monkeypatch.setattr(harness, "reconstruct_depth", one_valid_short)
        with pytest.raises(RuntimeError, match="decode tally"):
            run_scenario(tiny_scenario())

    def test_period_count_and_indices(self):
        reports = run_scenario(tiny_scenario(periods=4))
        assert [r.period for r in reports] == [0, 1, 2, 3]

    def test_parallel_equals_single_thread(self):
        sc = tiny_scenario(noise=evsl.NoiseModel())
        assert run_scenario(sc, parallel=False) == run_scenario(sc, parallel=True)

    def test_artifacts_written(self, tmp_path):
        sc = tiny_scenario(periods=2)
        run_scenario(sc, dump=("events", "masks", "depth", "ply"), out_dir=tmp_path)
        assert (tmp_path / "periods.csv").exists()
        for tag in ("p000", "p001"):
            assert (tmp_path / f"guide_{tag}.txt").exists()
            assert (tmp_path / f"reflect_{tag}.txt").exists()
            assert (tmp_path / f"mask_{tag}.pbm").exists()
            assert (tmp_path / f"depth_{tag}.pgm").exists()
            assert (tmp_path / f"depth_{tag}.pgm.meta").exists()
            assert (tmp_path / f"cloud_{tag}.ply").exists()

    def test_unknown_dump_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="dump"):
            run_scenario(tiny_scenario(), dump=("pictures",), out_dir=tmp_path)

    def test_determinism_byte_identical(self, tmp_path):
        sc = tiny_scenario(noise=evsl.NoiseModel(), periods=2)
        run_scenario(sc, dump=("depth",), out_dir=tmp_path / "a")
        run_scenario(sc, dump=("depth",), out_dir=tmp_path / "b")
        for name in ("periods.csv", "depth_p000.pgm", "depth_p001.pgm"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_report_recomputable_from_artifacts(self, tmp_path):
        # auditability: the CSV numbers can be rebuilt from the dumped files
        sc = tiny_scenario(periods=2)
        reports = run_scenario(sc, dump=("events", "masks", "depth"), out_dir=tmp_path)
        from dump_readers import read_depth_pgm, read_pbm
        from evsl.formats import read_event_stream

        r = reports[1]
        period_s = sc.projector.period_us * 1e-6
        guide = read_event_stream(tmp_path / "guide_p001.txt", (64, 48))
        reflect = read_event_stream(tmp_path / "reflect_p001.txt", (64, 48))
        mask = read_pbm(tmp_path / "mask_p001.pbm")
        assert len(guide) / period_s == pytest.approx(r.guide_event_rate)
        assert len(reflect) / period_s == pytest.approx(r.reflection_event_rate)
        assert mask.fraction == pytest.approx(r.mask_fraction)
        depth = read_depth_pgm(tmp_path / "depth_p001.pgm")
        assert depth.valid_count == r.valid_depth_pixels


# jitter wide enough to move decoded rows and columns, so some pixels fail the row or disparity check
FAILING_NOISE = evsl.NoiseModel(jitter_anchors=((1.0, 400.0),), drop_probability=0.1)


@st.composite
def small_scenarios(draw):
    """Tiny scenarios with 1-4 objects, any policy kind, noise on or off."""
    objects = tuple(
        evsl.MovingObject(
            draw(st.integers(-8, 60)), draw(st.integers(-8, 44)), draw(st.integers(1, 20)), draw(st.integers(1, 16)),
            (draw(st.sampled_from([-0.0009, 0.0, 0.0006])), draw(st.sampled_from([-0.0003, 0.0, 0.0003]))),
            draw(st.sampled_from([1.5, 1.9995])), draw(st.sampled_from([0.2, 0.95])),
        )
        for _ in range(draw(st.integers(1, 4)))
    )
    policy = draw(st.one_of(
        st.just(evsl.DensePolicy()),
        st.builds(evsl.SparsePolicy, st.integers(1, 8)),
        st.builds(
            evsl.EventGuidedPolicy,
            median_kernel_px=st.sampled_from([1, 3]),
            active_threshold=st.integers(1, 2),
            min_area_px=st.integers(1, 6),
            dilation_px=st.integers(0, 4),
            background_stride=st.integers(1, 16),
            first_period=st.sampled_from(["dense", "sparse"]),
        ),
    ))
    noise = draw(st.sampled_from([None, evsl.NoiseModel(), FAILING_NOISE]))
    return tiny_scenario(policy, draw(st.integers(1, 3)), noise, draw(st.integers(0, 3)), objects)


def check_parallel_equals_serial_and_counts(sc, mp):
    """Run ``sc`` serially and in parallel with every dump kind: equal reports and bytes, conserved tallies."""
    tallies = []

    def recording(stage):
        def wrapper(*args, **kwargs):
            result = stage(*args, **kwargs)
            tallies.append((args[0], result[1]))
            return result
        return wrapper

    for name in ("simulate_reflection_events", "reconstruct_depth"):
        mp.setattr(harness, name, recording(getattr(harness, name)))
    with tempfile.TemporaryDirectory() as tmp:
        serial, parallel = Path(tmp, "serial"), Path(tmp, "parallel")
        reports = run_scenario(sc, dump=DUMP_KINDS, out_dir=serial)
        assert run_scenario(sc, parallel=True, dump=DUMP_KINDS, out_dir=parallel) == reports
        names = sorted(path.name for path in serial.iterdir())
        assert names == sorted(path.name for path in parallel.iterdir())
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name

    assert len(tallies) == 2 * 2 * sc.periods
    for first_arg, tally in tallies:
        if "fired" in tally:
            lost = tally["dropped"] + tally["out_of_frame"] + tally["invalid_depth"]
            assert tally["fired"] == tally["emitted"] + lost
        else:
            w, h = first_arg.resolution
            failed = tally["no_event"] + tally["row_mismatch"] + tally["nonpositive_disparity"]
            assert failed + tally["valid"] == w * h
    return reports


class TestPeriodProperties:
    @settings(max_examples=40)
    @given(small_scenarios())
    def test_parallel_equals_serial_and_counts_are_conserved(self, sc):
        with pytest.MonkeyPatch.context() as mp:
            check_parallel_equals_serial_and_counts(sc, mp)

    def test_wide_jitter_fails_row_and_disparity_checks(self, monkeypatch):
        # FAILING_NOISE keeps both decode failure classes in the property above
        tallies = []
        decode = harness.reconstruct_depth

        def recording(*args, **kwargs):
            result = decode(*args, **kwargs)
            tallies.append(result[1])
            return result

        monkeypatch.setattr(harness, "reconstruct_depth", recording)
        run_scenario(tiny_scenario(noise=FAILING_NOISE))
        assert [(t["row_mismatch"] > 0, t["nonpositive_disparity"] > 0) for t in tallies] == [(True, True)] * 3


class TestSceneResolutionDiffers:
    """A 32x24 scene behind a 64x48 projector and camera: depth is resampled, ROIs scaled by 2."""

    def scenario(self):
        sc = tiny_scenario(noise=evsl.NoiseModel(), objects=(
            evsl.MovingObject(5, 5, 6, 4, (0.0003, 0.0), 1.9995, 0.95),
            evsl.MovingObject(20, 14, 4, 6, (0.0, -0.00015), 1.5, 0.2),
        ))
        return replace(sc, script=replace(sc.script, resolution=(32, 24)))

    def test_parallel_equals_serial_and_counts_are_conserved(self, monkeypatch):
        resamples = []
        resample = harness._resample_depth

        def recording(depth_map, resolution):
            resamples.append((depth_map.resolution, resolution))
            return resample(depth_map, resolution)

        monkeypatch.setattr(harness, "_resample_depth", recording)
        reports = check_parallel_equals_serial_and_counts(self.scenario(), monkeypatch)
        assert resamples and set(resamples) == {((32, 24), (64, 48))}
        assert all(r.valid_depth_pixels > 0 for r in reports)

    def test_every_scaled_roi_is_lit(self, monkeypatch):
        guided = []
        build = harness.build_mask

        def recording(policy, resolution, rois=None, scale=(1.0, 1.0)):
            mask = build(policy, resolution, rois, scale)
            if rois is not None:
                guided.append((resolution, rois, scale, mask))
            return mask

        monkeypatch.setattr(harness, "build_mask", recording)
        run_scenario(self.scenario())
        assert len(guided) == 2  # periods 1 and 2 follow guidance
        for resolution, rois, scale, mask in guided:
            assert resolution == (64, 48) and scale == (2.0, 2.0) and rois.boxes
            for x0, y0, x1, y1 in rois.boxes:  # scene pixel (x, y) covers projector pixels 2x..2x+1
                assert mask.on[2 * y0:2 * y1 + 2, 2 * x0:2 * x1 + 2].all()


def oracle_compare_sampling(scenario):
    """``compare_sampling`` as it was before the per-period pipeline: one
    ``run_scenario`` per policy, then the aggregation (CSV output left out)."""
    if isinstance(scenario.policy, evsl.EventGuidedPolicy):
        guided = scenario.policy
    else:
        guided = evsl.EventGuidedPolicy()
    policies = [
        ("dense", evsl.DensePolicy()),
        ("sparse", evsl.SparsePolicy(stride=guided.background_stride)),
        ("event_guided", guided),
    ]

    rows = []
    for name, policy in policies:
        variant = replace(scenario, policy=policy)
        reports = run_scenario(variant)
        steady = reports[1:] if len(reports) > 1 else reports
        mask_fraction = harness._mean(r.mask_fraction for r in steady)
        rows.append({
            "policy": name,
            "mean_mask_fraction": mask_fraction,
            "mean_reflection_rate_ev_s": harness._mean(r.reflection_event_rate for r in steady),
            "mean_plane_rms_m": harness._mean(r.plane_rms_m for r in steady),
            "mean_valid_depth_pixels": harness._mean(r.valid_depth_pixels for r in steady),
            "power_reduction_vs_dense_pct": 100.0 * (1.0 - mask_fraction),
        })
    return rows


COMPARE_CASES = {
    "first_period_dense": lambda: tiny_scenario(evsl.EventGuidedPolicy(first_period="dense"), noise=evsl.NoiseModel()),
    "first_period_sparse": lambda: tiny_scenario(noise=evsl.NoiseModel()),
    "own_policy_dense": lambda: tiny_scenario(evsl.DensePolicy(), noise=evsl.NoiseModel(drop_probability=0.1)),
    "one_period": lambda: tiny_scenario(periods=1),
    "plane_compare_3_periods": lambda: replace(load_scenario(SCENARIOS / "plane_compare.yaml"), periods=3),
}


class TestCompareSampling:
    @pytest.mark.parametrize("case", COMPARE_CASES)
    def test_rows_match_per_policy_oracle(self, case):
        sc = COMPARE_CASES[case]()
        expected = oracle_compare_sampling(sc)
        assert compare_sampling(sc) == expected
        assert compare_sampling(sc, parallel=True) == expected

    def test_zero_noise_rates_ordered_rms_zero(self):
        rows = compare_sampling(tiny_scenario())
        by = {r["policy"]: r for r in rows}
        assert by["dense"]["mean_plane_rms_m"] == pytest.approx(0.0, abs=1e-9)
        assert by["sparse"]["mean_plane_rms_m"] == pytest.approx(0.0, abs=1e-9)
        assert by["event_guided"]["mean_plane_rms_m"] == pytest.approx(0.0, abs=1e-9)
        assert (
            by["dense"]["mean_reflection_rate_ev_s"]
            > by["event_guided"]["mean_reflection_rate_ev_s"]
            > by["sparse"]["mean_reflection_rate_ev_s"]
        )

    def test_background_stride_one_collapses_to_dense(self):
        sc = tiny_scenario(policy=evsl.EventGuidedPolicy(background_stride=1, first_period="dense"))
        rows = compare_sampling(sc)
        by = {r["policy"]: r for r in rows}
        for key in ("mean_mask_fraction", "mean_reflection_rate_ev_s", "mean_plane_rms_m"):
            assert by["sparse"][key] == by["dense"][key]

    def test_parallel_uses_pool_and_equals_serial(self, monkeypatch):
        pools = []

        class CountingPool(harness.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", CountingPool)
        sc = tiny_scenario(noise=evsl.NoiseModel())
        assert compare_sampling(sc, parallel=True) == compare_sampling(sc)
        assert len(pools) == 1


class TestSweeps:
    def test_dwell_flags(self):
        rows = sweep_dwell_time(frequencies_hz=[60])
        by = {r["preset"]: r for r in rows}
        assert by["DVS128"]["below_1us"] is False
        assert by["Gen4_CD"]["below_1us"] is True
        assert by["Gen4_CD"]["delta_t_s"] == pytest.approx(1.0 / (60 * 1280 * 720), rel=1e-12)

    def test_all_presets_below_1us_at_290(self):
        rows = sweep_dwell_time(frequencies_hz=[290])
        assert all(r["below_1us"] for r in rows)

    def test_event_rate_values(self):
        rows = sweep_event_rate(frequencies_hz=[50, 290])
        gen4 = [r for r in rows if r["preset"] == "Gen4_CD"]
        assert gen4[0]["event_rate_ev_s"] == pytest.approx(46.08e6)
        assert gen4[1]["event_rate_ev_s"] == pytest.approx(267.264e6)

    @pytest.mark.parametrize("sweep", [sweep_dwell_time, sweep_event_rate])
    def test_iterator_gives_rows_for_every_preset(self, sweep):
        rows = sweep(frequencies_hz=iter([60, 70]))
        assert len(rows) == 2 * len(SENSOR_PRESETS)
        assert rows == sweep(frequencies_hz=[60, 70])

    def test_dvs128_growth_small(self):
        rows = [r for r in sweep_event_rate(frequencies_hz=range(50, 291, 10)) if r["preset"] == "DVS128"]
        rates = [r["event_rate_ev_s"] for r in rows]
        assert max(rates) / min(rates) == pytest.approx(290 / 50, rel=1e-12)
        assert max(rates) < 5e6


class TestCli:
    def test_simulate_and_exit_code(self, tmp_path, capsys):
        path = scenario_yaml(tmp_path)
        code = cli_main(["simulate", str(path), "--out-dir", str(tmp_path / "out"), "--dump", "depth"])
        assert code == 0
        out = capsys.readouterr().out
        assert "illumination reduction vs dense" in out
        assert (tmp_path / "out" / "periods.csv").exists()

    def test_simulate_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scene: {resolution: [8, 8]}\n")
        assert cli_main(["simulate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_stdout(self, capsys):
        assert cli_main(["sweep-delta-t", "--f-min", "60", "--f-max", "60"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "preset,f_hz,delta_t_s,below_1us"
        assert len(out) == 8

    def test_sweep_to_file(self, tmp_path):
        target = tmp_path / "rates.csv"
        assert cli_main(["sweep-event-rate", "--out", str(target)]) == 0
        assert target.read_text().startswith("preset,f_hz,event_rate_ev_s")

    def test_compare_sampling_cli(self, tmp_path, capsys):
        path = scenario_yaml(tmp_path)
        assert cli_main(["compare-sampling", str(path), "--periods", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("policy,")
        assert "event_guided" in out

    def test_compare_sampling_csv_written(self, tmp_path):
        assert cli_main(["compare-sampling", str(scenario_yaml(tmp_path)), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "compare_sampling.csv").read_text().splitlines()
        assert lines[0].startswith("policy,")
        assert len(lines) == 4

    @pytest.mark.parametrize("command", ["sweep-delta-t", "sweep-event-rate"])
    def test_sweep_file_equals_stdout(self, tmp_path, capsys, command):
        assert cli_main([command]) == 0
        table = capsys.readouterr().out
        target = tmp_path / "sweep.csv"
        assert cli_main([command, "--out", str(target)]) == 0
        assert capsys.readouterr().out == f"wrote {target}\n"
        assert target.read_bytes() == table.encode()

    def test_compare_sampling_file_equals_stdout(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli_main(["compare-sampling", str(scenario_yaml(tmp_path)), "--periods", "2",
                         "--out-dir", str(out_dir)]) == 0
        *table, wrote = capsys.readouterr().out.splitlines(keepends=True)
        assert wrote == f"wrote {out_dir / 'compare_sampling.csv'}\n"
        assert (out_dir / "compare_sampling.csv").read_bytes() == "".join(table).encode()

    @pytest.mark.parametrize("command", ["sweep-delta-t", "sweep-event-rate", "compare-sampling"])
    def test_table_columns_are_the_row_keys(self, tmp_path, capsys, command):
        # the header is the first row's keys in order, and every value of every row reaches stdout and the file
        if command == "compare-sampling":
            path = scenario_yaml(tmp_path)
            rows = compare_sampling(replace(load_scenario(path), periods=2))
            args, target = [str(path), "--periods", "2"], tmp_path / "out" / "compare_sampling.csv"
            to_file = [*args, "--out-dir", str(target.parent)]
        else:
            rows = {"sweep-delta-t": sweep_dwell_time, "sweep-event-rate": sweep_event_rate}[command]([60.0, 70.0])
            args, target = ["--f-min", "60", "--f-max", "70"], tmp_path / "sweep.csv"
            to_file = [*args, "--out", str(target)]
        assert all(list(row) == list(rows[0]) for row in rows)
        table = "".join(",".join(map(format_cell, line)) + "\n" for line in [rows[0], *(r.values() for r in rows)])
        assert cli_main([command, *args]) == 0
        assert capsys.readouterr().out == table
        assert cli_main([command, *to_file]) == 0
        assert target.read_text() == table

    def test_simulate_summary_is_the_compare_sampling_reduction(self, tmp_path, capsys):
        # period 0 runs the dense fallback, so a mean over every period would read far below the steady state
        path = scenario_yaml(tmp_path, policy={"first_period": "dense"})
        rows = {r["policy"]: r for r in compare_sampling(load_scenario(path))}
        assert cli_main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        summary = capsys.readouterr().out.splitlines()[1]
        pct = rows["event_guided"]["power_reduction_vs_dense_pct"]
        assert summary.endswith(f" over periods 1+ -> {pct:.1f}% illumination reduction vs dense")

    @pytest.mark.parametrize("command", ["sweep-delta-t", "sweep-event-rate"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--f-min", "nan", "must be finite, got nan"),
        ("--f-min", "-inf", "must be finite, got -inf"),
        ("--f-max", "inf", "must be finite, got inf"),
        ("--f-step", "nan", "must be finite, got nan"),
        ("--f-step", "1e-300", "1e-300 no longer changes the frequency at 290.0 Hz"),
        ("--f-step", "1", "1.0 no longer changes the frequency at 2e+300 Hz"),
    ])
    def test_frequency_flag_that_yields_no_finite_range_exits_2(self, capsys, command, flag, value, message):
        # a non-finite bound or a step too small to move the frequency would print nothing, or never end
        extra = ["--f-min=1e300", "--f-max=2e300"] if value == "1" else []
        assert cli_main([command, *extra, f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["sweep-delta-t", "sweep-event-rate"])
    def test_frequency_range_past_a_million_exits_2(self, capsys, command):
        # 240 million frequencies from 50 to 290 Hz: counted and refused before any is built
        assert cli_main([command, "--f-step", "1e-6"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --f-step: 1e-06 makes more than 1000000 frequencies from 50.0 to 290.0 Hz\n"
        assert captured.out == ""

    def test_sweep_grid_ends_at_f_max(self, capsys):
        # 1 + 10,000 * 1.1 is 11001: a running sum of the step drifts below it and would stop at 10999.9
        assert cli_main(["sweep-delta-t", "--f-min", "1", "--f-max", "11001", "--f-step", "1.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("Gen4_CD,11001,")
        assert sum(line.startswith("Gen4_CD,") for line in lines) == 10_001

    def test_closed_stdout_exits_1_quietly(self):
        # about 6 MB of rows, far more than a pipe buffer holds, so writes go on after the reader has gone
        env = {**os.environ, "PYTHONPATH": SRC}
        with subprocess.Popen([sys.executable, "-m", "evsl.cli", "sweep-delta-t", "--f-step", "0.01"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"preset,f_hz,delta_t_s,below_1us\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
        assert proc.returncode == 1
        assert stderr == b""

    def test_active_pixels_cli(self, tmp_path, capsys):
        from evsl.formats import write_event_stream

        stream = evsl.EventStream((16, 16), [1.0, 2.0], [3, 3], [4, 4], [1, 1])
        path = tmp_path / "ev.txt"
        write_event_stream(stream, path)
        assert cli_main(["active-pixels", str(path), "--resolution", "16", "16"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == f"active_pixel_fraction {1 / 256:.6g}"

    def test_seed_override_changes_output(self, tmp_path):
        path = scenario_yaml(tmp_path, noise=None)  # default timing noise (jitter and clock): the seed reaches the output
        runs = {}
        for name, extra in (("file", []), ("a", ["--seed", "1"]), ("b", ["--seed", "1"])):
            assert cli_main(["simulate", str(path), "--out-dir", str(tmp_path / name), *extra]) == 0
            runs[name] = (tmp_path / name / "periods.csv").read_bytes()
        assert runs["a"] == runs["b"]
        assert runs["a"] != runs["file"]

    def test_periods_override_sets_period_count(self, tmp_path, capsys):
        # a run covers run.periods scan periods, so --periods sets how many run
        path = scenario_yaml(tmp_path)
        assert cli_main(["simulate", str(path), "--out-dir", str(tmp_path / "out"), "--periods", "8"]) == 0
        assert "ran 8 scan period(s)" in capsys.readouterr().out
        assert len((tmp_path / "out" / "periods.csv").read_text().splitlines()) == 1 + 8

    @pytest.mark.parametrize("command", ["simulate", "compare-sampling"])
    def test_overrides_checked_like_the_file(self, tmp_path, capsys, command):
        path = scenario_yaml(tmp_path)
        assert cli_main([command, str(path), "--out-dir", str(tmp_path / "out"), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: run.seed: must be at least 0\n"
        assert cli_main([command, str(path), "--periods", "0"]) == 2
        assert capsys.readouterr().err == "error: run.periods: must be at least 1\n"

    @pytest.mark.parametrize("run, flag, message", [
        ({"periods": 0}, ["--periods", "3"], "run.periods: must be at least 1"),
        ({"seed": -1}, ["--seed", "1"], "run.seed: must be at least 0"),
    ], ids=["periods", "seed"])
    def test_override_does_not_rescue_an_invalid_file(self, tmp_path, capsys, run, flag, message):
        # the file is checked as written; the flag then replaces the loaded value and is checked the same way
        path = scenario_yaml(tmp_path, run=run)
        assert cli_main(["simulate", str(path), "--out-dir", str(tmp_path / "out"), *flag]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_program_error_is_raised_not_reported_as_input(self, tmp_path, monkeypatch):
        # exit 2 is for input at fault; a ValueError inside a stage is a fault of the program and keeps its traceback
        def broken(*args, **kwargs):
            raise ValueError("broken stage")

        monkeypatch.setattr(harness, "reconstruct_depth", broken)
        with pytest.raises(ValueError, match="broken stage"):
            cli_main(["simulate", str(scenario_yaml(tmp_path)), "--out-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("command", ["sweep-delta-t", "sweep-event-rate"])
    @pytest.mark.parametrize("value", ["0", "-10"])
    def test_non_positive_f_min_names_the_flag(self, capsys, command, value):
        # a raster scanned at 0 Hz has no dwell time or event rate: the sweep refuses the flag itself
        assert cli_main([command, "--f-min", value, "--f-max", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --f-min: must be positive, got {float(value)}\n"
        assert captured.out == ""

    def test_active_pixels_threshold_below_one_names_the_flag(self, tmp_path, capsys):
        path = tmp_path / "ev.txt"
        path.write_text("t_us,x,y,p\n1.0,3,4,1\n")
        assert cli_main(["active-pixels", str(path), "--threshold", "0"]) == 2
        assert capsys.readouterr().err == "error: --threshold: must be at least 1, got 0\n"
