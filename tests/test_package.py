"""The package's public surface, pinned name by name."""

import deci

PUBLIC = [
    "Checkpoint", "ConfigError", "DimensionError", "Disparity", "Document", "EvalReport",
    "EvaluationError", "FormatError", "InferenceMode", "LabelSpace", "ModelConfig", "ModelParams",
    "NumericalError", "ParseError", "SyntheticConfig", "TrainConfig", "ValidationError",
    "Vocabulary", "batch_loss", "corpus", "errors", "evaluation", "f1_scores",
    "final_scores_from_z", "forward_batch", "generate_synthetic", "init_params",
    "load_checkpoint", "load_jsonl", "model", "numerics", "pathway_scores_batch",
    "precision_at_k", "roc_auc", "run_ablation", "save_checkpoint", "save_jsonl", "sigmoid",
    "synthetic_label_space", "train", "training",
]


def test_public_names_are_exactly_the_pinned_list():
    # a name added to or dropped from the package must be added to or dropped from PUBLIC
    assert sorted(deci.__all__) == PUBLIC
