"""Local one-versus-all SVM learning over fused feature representations,
with a bag-of-visual-words encoder and dense-sparse-dense training tools.
"""

from .core import (
    DatasetManifest,
    FeatureMatrix,
    FeatureRows,
    LabelMap,
    attach_labels,
    balanced_downsample,
    load_features,
    parse_manifest,
    read_labels,
    read_splits,
    save_features,
    write_labels,
)
from .features import fuse, l2_normalize_rows
from .svm import (
    OvaModel,
    SvmConfig,
    decisions,
    load_ova,
    predict_ova_batch,
    save_ova,
    train_binary,
    train_ova,
)
from .neighbors import CosineIndex, top_k, top_k_batch
from .local import (
    LocalLearnerConfig,
    knn_classify_batch,
    local_predict_batch,
)
from .bovw import (
    DESK_VOCAB_SIZES,
    FULL_VOCAB_SIZES,
    DenseSiftConfig,
    DescriptorSet,
    PyramidConfig,
    Vocabulary,
    build_vocab,
    build_vocab_from_descriptors,
    dense_sift,
    encode,
    kmeans,
    load_vocab,
    read_pgm,
    save_vocab,
    write_pgm,
)
from .dsd import (
    DsdPhase,
    DsdSchedule,
    MlpModel,
    SensitivityTable,
    TrainerConfig,
    dsd_train,
    flip_augment,
    init_mlp,
    load_mlp,
    parse_schedule,
    prune_mask,
    save_mlp,
    select_rates,
    sensitivity_scan,
    sgd_step,
)
from .report import EvalReport, evaluate, render_csv, render_text
from .pipeline import ingest_and_fuse, run_pipeline

__version__ = "0.1.0"
