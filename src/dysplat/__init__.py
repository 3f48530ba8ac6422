"""Dynamic-scene Gaussian splatting with static, rigid and transient primitives."""

from .dataset import SceneDataset, load_dataset, save_dataset
from .estimators import MotionMaskEstimator, SceneReconstructor
from .evaluation import evaluate
from .geometry import CameraExtrinsics, CameraFrame, CameraIntrinsics, SE3Transform
from .losses import LossWeights
from .primitives import (
    GaussianSet,
    MotionBases,
    RigidGaussians,
    StaticGaussians,
    TransientGaussians,
    load_checkpoint,
    save_checkpoint,
)
from .rasterizer import (
    PreparedSet,
    RenderOutputs,
    prepare_splats,
    rasterize_forward,
    rasterize_reference,
)
from .synth import SlabSpec, SyntheticSceneSpec, generate_synthetic
from .trainer import TrainConfig, duration_histogram, train

__all__ = [
    "CameraExtrinsics", "CameraFrame", "CameraIntrinsics", "SE3Transform",
    "GaussianSet", "MotionBases", "StaticGaussians", "RigidGaussians",
    "TransientGaussians", "RenderOutputs", "SceneDataset", "SlabSpec",
    "SyntheticSceneSpec", "TrainConfig", "LossWeights",
    "SceneReconstructor", "MotionMaskEstimator",
    "PreparedSet", "prepare_splats", "rasterize_forward", "rasterize_reference",
    "generate_synthetic", "load_dataset", "save_dataset",
    "load_checkpoint", "save_checkpoint", "train", "duration_histogram",
    "evaluate",
]

__version__ = "0.1.0"
