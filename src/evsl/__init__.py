"""Event-guided structured-light depth sensing: simulator and analysis tools."""

import types as _types

from .events import (
    DepthMap,
    Event,
    EventFrame,
    EventStream,
    TimeSurface,
    VoxelGrid,
    decode_log_depth,
    encode_log_depth,
    make_event_frame,
    make_time_surface,
    make_voxel_grid,
)
from .scene import (
    Background,
    CheckerTexture,
    GuideCameraModel,
    MovingObject,
    SceneScript,
    generate_guide_events,
    render_scene,
)
from .policy import (
    DensePolicy,
    EventGuidedPolicy,
    IlluminationMask,
    Policy,
    RoiSet,
    SparsePolicy,
    active_pixel_fraction,
    build_mask,
    detect_roi,
    median_filter_frame,
)
from .projector import (
    DEFAULT_JITTER_ANCHORS,
    NoiseModel,
    ProjectorModel,
    ScanPlan,
    SensorGeometry,
    SensorPreset,
    SENSOR_PRESETS,
    build_scan_plan,
    pixel_dwell_time,
    raster_event_rate,
    simulate_reflection_events,
    timestamp_jitter_std,
)
from .depth import (
    DegenerateInputError,
    PlaneFit,
    PointCloud,
    decode_projector_indices,
    depth_to_points,
    fit_plane,
    reconstruct_depth,
)
from .harness import (
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

__version__ = "0.1.0"

# every public name imported above; the submodules are package attributes, not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
