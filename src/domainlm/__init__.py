"""domainlm: a desk-scale masked language model pipeline.

Byte-level BPE tokenization, transformer-encoder pretraining (fresh or
continued on in-domain text), classifier fine-tuning with best-checkpoint
selection, metric evaluation, training-set-size scaling studies, and
class-based TF-IDF topic analysis of document embeddings. All numerics run on
numpy with gradients checked against finite differences.
"""

from .corpus import (
    DEFAULT_LABEL_SCHEME,
    DatasetSplits,
    Document,
    LabelScheme,
    SplitSpec,
    load_corpus,
    map_binary_label,
    nested_subsets,
    save_corpus,
    split_corpus,
)
from .tokenizer import MergeTable, SpecialTokens, Tokenizer, Vocabulary, train_bpe
from .model import (
    Checkpoint,
    ModelBundle,
    ModelConfig,
    backward,
    init_parameters,
    load_checkpoint,
    predict_top_k,
    save_checkpoint,
)
from .data import MaskingPolicy, apply_dynamic_masking, pack_segments
from .evaluation import (
    ConfusionMatrix,
    MetricsReport,
    classification_metrics,
    evaluate_checkpoint,
    evaluate_mlm,
    mlm_cross_entropy,
)
from .training import (
    AdamW,
    CheckpointMeta,
    ScalingStudyResult,
    TrainingConfig,
    finetune_classifier,
    hyperparameter_grid,
    pretrain_mlm,
    scaling_study,
)
from .analysis import (
    OUTLIER,
    ClusterAssignment,
    EmbeddingMatrix,
    TopicSummary,
    cbtfidf_topics,
    cluster_embeddings,
    export_cls_embeddings,
    project_2d,
    topic_report,
)

__version__ = "0.1.0"
