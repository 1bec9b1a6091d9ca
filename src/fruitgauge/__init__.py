"""Multi-view RGBD fruit size measurement toolkit."""

from .errors import FruitGaugeError
from .geometry import (
    CameraIntrinsics,
    DepthImage,
    Pixel,
    Point3,
    RigCamera,
    RigidTransform,
    align_depth_to_color,
    apply,
    compose,
    invert,
    project,
    solve_camera_chain,
)
from .maskops import (
    BinaryMask,
    decode_rle,
    encode_rle,
    extract_edges,
    extreme_points,
    median_edge_depth,
)
from .sizing import FruitMeasurement, fill_ratio, fit_circle, measure_fruit
from .fusion import FruitTable, deduplicate, estimate_metric_radius, localize
from .evaluation import (
    EvalReport,
    GroundTruthRecord,
    TruthTable,
    accuracy,
    evaluate_run,
    relative_error,
    rmse,
)
from .fileio import RecordTable
from .simulate import (
    CaptureBundle,
    FruitSpec,
    QuadOccluder,
    SceneSpec,
    lab_scene,
    paper_rig,
    render_scene,
)
from .pipeline import (
    cmd_calibrate,
    cmd_evaluate,
    cmd_fuse,
    cmd_measure,
    cmd_simulate,
    write_bundle,
)

__version__ = "0.1.0"
