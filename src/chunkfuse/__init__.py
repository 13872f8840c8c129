"""Cross-chunk reasoning for chunked 4D reconstructions: static-aware
overlap registration, motion-aware tracklet association, and
trajectory-guided dynamic fusion, verified against a built-in synthetic
dynamic-scene oracle."""

from .association import MatchSet, assign, build_tracklets, gate_candidates, pair_cost
from .chunking import OverlapView, plan_chunks, slice_overlap
from .errors import (
    ChunkFuseError,
    DegenerateConfiguration,
    InvalidConfig,
    InvalidSpec,
    KeyMismatch,
    MalformedContainer,
    NoOverlap,
    NotEnoughPoints,
    WindowTooShort,
)
from .fusion import (
    FusedScene,
    Trajectory,
    camera_scale,
    choose_transform,
    fuse_sequence,
    pose_only_transform,
    reconstruct_boundary,
    refine_transform,
)
from .metrics import align_trajectories, ate, dense_epe, junction_prf, rpe
from .model import (
    Chunk,
    FramePrediction,
    PipelineConfig,
    Pose,
    SimilarityTransform,
    TrackletSet,
)
from .registration import (
    OverlapAbstraction,
    register_pair,
    select_anchors,
    solve_weighted_rigid,
    solve_weighted_similarity,
)
from .synthetic import (
    BackgroundSpec,
    CameraSpec,
    GaugeSpec,
    GroundTruth,
    ObjectSpec,
    SceneSpec,
    TrajectorySpec,
    emit_chunks,
    generate,
)

__version__ = "0.1.0"
