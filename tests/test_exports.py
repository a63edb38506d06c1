import types

import evsl

# The public names of the package. ``__all__`` is derived from the import block of
# ``evsl/__init__.py``, so a helper imported there would silently join it; this pins the set.
EXPORTS = [
    "Background", "CheckerTexture", "ConfigError", "DEFAULT_JITTER_ANCHORS", "DegenerateInputError",
    "DensePolicy", "DepthMap", "Event", "EventFrame", "EventGuidedPolicy", "EventStream", "GuideCameraModel",
    "IlluminationMask", "MovingObject", "NoiseModel", "PeriodReport", "PlaneFit", "PointCloud", "Policy",
    "ProjectorModel", "RoiSet", "SENSOR_PRESETS", "ScanPlan", "Scenario", "SceneScript", "SensorGeometry",
    "SensorPreset", "SparsePolicy", "TimeSurface", "VoxelGrid", "active_pixel_fraction", "build_mask",
    "build_scan_plan", "compare_sampling", "decode_log_depth", "decode_projector_indices", "depth_to_points",
    "detect_roi", "encode_log_depth", "fit_plane", "generate_guide_events", "load_scenario", "make_event_frame",
    "make_time_surface", "make_voxel_grid", "median_filter_frame", "parse_scenario", "pixel_dwell_time",
    "raster_event_rate", "reconstruct_depth", "render_scene", "run_scenario", "simulate_reflection_events",
    "sweep_dwell_time", "sweep_event_rate", "timestamp_jitter_std",
]


def test_export_set_is_pinned():
    assert sorted(evsl.__all__) == sorted(EXPORTS)


def test_no_export_is_a_module():
    # the submodules are package attributes once imported, but never exports
    assert not [name for name in evsl.__all__ if isinstance(getattr(evsl, name), types.ModuleType)]
    assert {"events", "harness", "config", "formats"} <= set(vars(evsl))
