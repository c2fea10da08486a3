"""canclab: a desk-scale laboratory for binary mask classification under
extreme label noise.

The pipeline is: synthesize scenes -> tile into masks and label them ->
inject label noise through a transition matrix -> train (vanilla,
co-teaching, or co-teaching with active label swapping) -> evaluate with
confusion metrics and per-scene smoothed IoU. Everything is seeded and
bitwise reproducible.
"""

from types import ModuleType as _ModuleType

from .version import __version__
from .errors import CancLabError, ConfigError, DataError, NumericError
from .data import (
    MaskDataset,
    Scene,
    build_mask_dataset,
    generate_scene,
    read_dataset,
    split_dataset,
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
    Conv,
    Dense,
    LeakyRelu,
    Network,
    NetworkSpec,
    forward,
    init_network,
    loss_and_gradients,
    parse_layers,
    per_sample_loss,
    predict,
    sgd_step,
    swap_logits,
)
from .metrics import ConfusionCounts, PRF1, confusion, prf1, scene_sp_iou, sp_iou
from .training import (
    EpochRecord,
    TrainConfig,
    TrainResult,
    canc_iteration,
    dataset_metrics,
    flip_labels,
    remember_rate,
    select_clean,
    select_swap,
    train,
)
from .config import DataConfig, ExperimentConfig, NoiseConfig, OutputConfig, load_config
from .harness import RunReport, compare_runs, gen_data, load_report, run_experiment, sweep

# every public name imported above (not the submodules), plus the version
__all__ = ["__version__"] + [
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
]
