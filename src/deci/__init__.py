"""Counterfactually debiased multi-label text classification.

A label-attention encoder feeds a mixture-of-experts head through three
pathways: the gated score of the full input (z_k), the same head applied to
the demographic tokens alone (z_d), and the ungated expert average (z_e).
All three are trained against the gold labels; at inference the demographic
and uniform-expert contributions are subtracted so that predictions reflect
the note text rather than who the patient is.
"""

from .corpus import (
    Document,
    LabelSpace,
    SyntheticConfig,
    Vocabulary,
    build_model_input,
    demographic_tokens,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    synthetic_label_space,
    tokenize,
)
from .errors import (
    ConfigError,
    DimensionError,
    EvaluationError,
    FormatError,
    NumericalError,
    ParseError,
    ValidationError,
)
from .evaluation import (
    Disparity,
    EvalReport,
    InferenceMode,
    evaluate,
    f1_scores,
    final_scores_from_z,
    precision_at_k,
    roc_auc,
    run_ablation,
)
from .model import (
    ModelConfig,
    ModelParams,
    forward_batch,
    init_params,
    pathway_scores_batch,
)
from .numerics import sigmoid
from .training import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    total_loss,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
