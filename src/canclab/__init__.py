"""canclab: a desk-scale laboratory for binary mask classification under
extreme label noise.

The pipeline is: synthesize scenes -> tile into masks and label them ->
inject label noise through a transition matrix -> train (vanilla,
co-teaching, or co-teaching with active label swapping) -> evaluate with
confusion metrics and per-scene smoothed IoU. Everything is seeded and
bitwise reproducible.
"""

from .version import __version__
from .errors import CancLabError, ConfigError, DataError, NumericError
from .data import (
    MaskDataset,
    Scene,
    SceneGenParams,
    build_mask_dataset,
    generate_scene,
    label_mask,
    read_dataset,
    split_dataset,
    tile_scene,
    write_dataset,
)
from .noise import (
    NoiseTransition,
    antisymmetric_matrix,
    apply_noise,
    inject,
    make_transition,
    symmetric_matrix,
)
from .nn import (
    Batch,
    Conv,
    Dense,
    LeakyRelu,
    Network,
    NetworkSpec,
    init_network,
    loss_and_gradients,
    parse_layers,
    per_sample_loss,
    predict,
    sgd_step,
)
from .metrics import ConfusionCounts, PRF1, confusion, prf1, scene_sp_iou, sp_iou
from .training import (
    EpochRecord,
    TrainConfig,
    TrainResult,
    canc_iteration,
    dataset_metrics,
    flip_labels,
    predict_dataset,
    remember_rate,
    select_clean,
    select_swap,
    train,
)
from .config import DataConfig, ExperimentConfig, NoiseConfig, OutputConfig, load_config
from .harness import RunReport, compare_runs, gen_data, load_report, run_experiment, sweep

__all__ = [
    "__version__",
    "CancLabError",
    "ConfigError",
    "DataError",
    "NumericError",
    "Scene",
    "SceneGenParams",
    "MaskDataset",
    "generate_scene",
    "tile_scene",
    "label_mask",
    "build_mask_dataset",
    "split_dataset",
    "write_dataset",
    "read_dataset",
    "NoiseTransition",
    "symmetric_matrix",
    "antisymmetric_matrix",
    "make_transition",
    "apply_noise",
    "inject",
    "Conv",
    "Dense",
    "LeakyRelu",
    "NetworkSpec",
    "Network",
    "Batch",
    "parse_layers",
    "init_network",
    "per_sample_loss",
    "predict",
    "sgd_step",
    "loss_and_gradients",
    "ConfusionCounts",
    "PRF1",
    "confusion",
    "prf1",
    "sp_iou",
    "scene_sp_iou",
    "TrainConfig",
    "EpochRecord",
    "TrainResult",
    "remember_rate",
    "select_clean",
    "select_swap",
    "flip_labels",
    "canc_iteration",
    "train",
    "predict_dataset",
    "dataset_metrics",
    "DataConfig",
    "NoiseConfig",
    "OutputConfig",
    "ExperimentConfig",
    "load_config",
    "RunReport",
    "run_experiment",
    "sweep",
    "compare_runs",
    "load_report",
    "gen_data",
]
