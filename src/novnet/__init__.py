"""novnet: multiple-class novelty detection at desk scale.

Trains small classification networks with a membership loss and a
dual-branch reference-dataset procedure, detects novel-class inputs by
thresholding the maximum final-layer activation, and evaluates detection
with ROC/AUC.
"""

from .data_io import (
    ClusterSpec,
    Dataset,
    SplitSpec,
    SyntheticSpec,
    load_csv,
    load_idx,
    split_known_novel,
    split_train_test,
    synth_gaussian,
)
from .dual_trainer import (
    Checkpoint,
    DualBranchModel,
    TrainingConfig,
    build_dual_model,
    load_checkpoint,
    save_checkpoint,
    train_lockstep,
)
from .errors import NovnetError
from .filter_analysis import FilterReport, build_filter_report
from .losses import cumulative_loss, sigmoid
from .nn_core import (
    Conv2d,
    Dense,
    GlobalAveragePool,
    NetworkSpec,
    Relu,
    backward,
    finite_difference_grad,
    forward,
    init_params,
)
from .novelty_eval import (
    SCORE_DTYPE,
    NoveltyThreshold,
    RocResult,
    auc_pairwise_oracle,
    calibrate_threshold,
    closed_set_accuracy,
    roc_auc,
    score_dataset,
)

__version__ = "0.1.0"
