"""Inference modes, ranking and classification metrics, and the FPR disparity.

Every inference mode is a pure function of the three pathway scores, so one
trained model supports the whole ablation table:

  deci            sigmoid(sigmoid(z_k+z_d+z_e) - sigmoid(z_d+z_e))
  naive           sigmoid(z_k+z_d+z_e)
  knowledge-only  sigmoid(z_k)
  wo-zd           sigmoid(sigmoid(z_k+z_d+z_e) - sigmoid(z_e))
  wo-ze           sigmoid(sigmoid(z_k+z_d+z_e) - sigmoid(z_d))

The two ablations keep the full additive score and drop one term from the
subtrahend only, so each reduces to deci exactly when its dropped pathway
score is zero, and each re-admits exactly one bias source at the 0.5
decision threshold.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import model as M
from .corpus import LabelSpace, SyntheticConfig, Vocabulary, confound_predicate
from .errors import ConfigError, DimensionError, EvaluationError
from .numerics import sigmoid


class InferenceMode(Enum):
    DECI = "deci"
    NAIVE = "naive"
    KNOWLEDGE_ONLY = "knowledge-only"
    WO_ZD = "wo-zd"
    WO_ZE = "wo-ze"


_BELOW_HALF = np.nextafter(0.5, 0.0)


def _on_side_of(scores: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Keep each score on the side of 0.5 that the sign of its margin sets.

    Every mode's score is sigmoid of a quantity with the sign of a known
    margin, so it is >= 0.5 exactly when the margin is >= 0. In float64 a
    small negative margin can still round the score up to 0.5: sigmoid of
    anything in (-1e-16, 0) is 0.5, and sigmoid(a) - sigmoid(b) cancels to 0
    when both are saturated. Such scores become the largest float below 0.5.
    """
    return np.where(margin < 0, np.minimum(scores, _BELOW_HALF), np.maximum(scores, 0.5))


def final_scores_from_z(z_k, z_d, z_e, mode: InferenceMode) -> np.ndarray:
    """Per-label prediction scores in [0, 1] under the given mode."""
    z_k = np.asarray(z_k, dtype=np.float64)
    z_d = np.asarray(z_d, dtype=np.float64)
    z_e = np.asarray(z_e, dtype=np.float64)
    if not z_k.shape == z_d.shape == z_e.shape:
        raise DimensionError("pathway score arrays must share one shape")
    if mode is InferenceMode.DECI:
        return _on_side_of(sigmoid(sigmoid(z_k + z_d + z_e) - sigmoid(z_d + z_e)), z_k)
    if mode is InferenceMode.NAIVE:
        z = z_k + z_d + z_e
        return _on_side_of(sigmoid(z), z)
    if mode is InferenceMode.KNOWLEDGE_ONLY:
        return _on_side_of(sigmoid(z_k), z_k)
    if mode is InferenceMode.WO_ZD:
        return _on_side_of(sigmoid(sigmoid(z_k + z_d + z_e) - sigmoid(z_e)), z_k + z_d)
    if mode is InferenceMode.WO_ZE:
        return _on_side_of(sigmoid(sigmoid(z_k + z_d + z_e) - sigmoid(z_d)), z_k + z_e)
    raise ValueError(f"unknown inference mode {mode!r}")


def roc_auc(scores, labels) -> float | None:
    """Probability a positive outranks a negative, ties counted half.

    Computed from the positives' average ranks (the Mann-Whitney statistic),
    ties sharing their average rank. Returns None when either class is
    absent, leaving the caller to skip or fail.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if scores.shape != labels.shape:
        raise DimensionError(f"scores/labels length mismatch: {scores.shape} vs {labels.shape}")
    pos = labels == 1.0
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ordered, pos_scores = np.sort(scores), scores[pos]
    # twice each 1-based average rank is an integer, so the sum is exact
    twice_ranks = (np.searchsorted(ordered, pos_scores, "left")
                   + np.searchsorted(ordered, pos_scores, "right") + 1)
    return float((int(twice_ranks.sum()) - n_pos * (n_pos + 1)) / (2 * n_pos * n_neg))


def _f1(tp, fp, fn) -> np.ndarray:
    """2TP / (2TP + FP + FN) elementwise, and 0 where the denominator is 0."""
    denom = 2.0 * tp + fp + fn
    return np.divide(2.0 * tp, denom, out=np.zeros_like(denom), where=denom != 0.0)


def f1_scores(pred, gold):
    """(macro, micro, per-label F1) for binary matrices of shape (docs, labels).

    Micro pools TP/FP/FN across all cells. Macro averages per-label F1 over
    every label, counting a label with no gold positives and no predictions
    as 0 rather than skipping it.
    """
    pred = np.asarray(pred, dtype=bool)
    gold = np.asarray(gold, dtype=bool)
    if pred.shape != gold.shape or pred.ndim != 2:
        raise DimensionError(f"pred/gold must be matching 2-D matrices, got {pred.shape} and {gold.shape}")
    tp = (pred & gold).sum(axis=0).astype(np.float64)
    fp = (pred & ~gold).sum(axis=0).astype(np.float64)
    fn = (~pred & gold).sum(axis=0).astype(np.float64)
    per_label = _f1(tp, fp, fn)
    macro = float(per_label.mean()) if per_label.size else 0.0
    micro = float(_f1(tp.sum(), fp.sum(), fn.sum()))
    return macro, micro, per_label


def precision_at_k(scores, gold, k: int) -> float:
    """Mean over documents of the gold fraction among the k top-scored labels.

    Ties are broken toward the lower label index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    gold = np.asarray(gold, dtype=bool)
    if scores.shape != gold.shape or scores.ndim != 2:
        raise DimensionError(f"scores/gold must be matching 2-D matrices, got {scores.shape} and {gold.shape}")
    if not 1 <= k <= scores.shape[1]:
        raise ConfigError(f"k must be in [1, {scores.shape[1]}], got {k}")
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return float(np.take_along_axis(gold, top, axis=1).sum()) / (scores.shape[0] * k)


@dataclass
class Disparity:
    """False-positive rates on one label for documents satisfying the
    confound attribute (group A) versus the rest (group B)."""

    label: str
    group_a_fpr: float | None
    group_b_fpr: float | None
    gap: float | None


def _fpr(pred: np.ndarray, gold: np.ndarray) -> float | None:
    negatives = ~gold
    n_neg = int(negatives.sum())
    if n_neg == 0:
        return None
    return float((pred & negatives).sum() / n_neg)


def _disparity(pred_col, gold_col, in_group_a, label) -> Disparity:
    fpr_a = _fpr(pred_col[in_group_a], gold_col[in_group_a])
    fpr_b = _fpr(pred_col[~in_group_a], gold_col[~in_group_a])
    gap = None if fpr_a is None or fpr_b is None else abs(fpr_a - fpr_b)
    return Disparity(label=label, group_a_fpr=fpr_a, group_b_fpr=fpr_b, gap=gap)


@dataclass
class EvalReport:
    mode: str
    n_docs: int
    macro_auc: float
    micro_auc: float
    macro_f1: float
    micro_f1: float
    p_at_k: dict[int, float]
    per_label_f1: list[float]
    auc_skipped_labels: list[str]
    disparity: Disparity | None


def _report(scores, gold, label_space, mode, ks, confounded_label, in_group_a) -> EvalReport:
    pred = scores >= 0.5
    per_label_auc = []
    skipped = []
    for li, label in enumerate(label_space):
        auc = roc_auc(scores[:, li], gold[:, li])
        if auc is None:
            skipped.append(label)
        else:
            per_label_auc.append(auc)
    if not per_label_auc:
        raise EvaluationError("every label is degenerate: AUC undefined for all of them")
    micro_auc = roc_auc(scores.ravel(), gold.ravel())
    macro_f1, micro_f1, per_label_f1 = f1_scores(pred, gold)
    disparity = None
    if confounded_label is not None:
        li = label_space.index(confounded_label)
        disparity = _disparity(pred[:, li], gold[:, li].astype(bool), in_group_a, confounded_label)
    return EvalReport(
        mode=mode.value,
        n_docs=int(scores.shape[0]),
        macro_auc=float(np.mean(per_label_auc)),
        micro_auc=micro_auc,
        macro_f1=macro_f1,
        micro_f1=micro_f1,
        p_at_k={k: precision_at_k(scores, gold, k) for k in sorted(set(ks))},
        per_label_f1=[float(v) for v in per_label_f1],
        auc_skipped_labels=skipped,
        disparity=disparity,
    )


def run_ablation(docs, params: M.ModelParams, vocab: Vocabulary, label_space: LabelSpace,
                 ks: tuple[int, ...] = (5,), max_len: int = M.ModelConfig.max_len,
                 confounded_label: str | None = None,
                 confound_attribute: str = SyntheticConfig.confound_attribute,
                 modes: tuple[InferenceMode, ...] = tuple(InferenceMode)) -> dict[str, EvalReport]:
    """One report per mode in modes, keyed by mode value, from a single forward pass.

    Labels with a single class in the gold data are skipped by macro AUC and
    listed in the report; micro AUC pools every (document, label) cell. With
    a confounded_label, each report also carries the FPR disparity between
    documents satisfying confound_attribute and the rest. Results do not
    depend on document order.
    """
    if not docs:
        raise EvaluationError("cannot evaluate an empty document collection")
    for k in ks:  # before any scoring, so a bad k or label costs nothing
        if not 1 <= k <= len(label_space):
            raise ConfigError(f"k must be in [1, {len(label_space)}], got {k}")
    if confounded_label is not None:
        label_space.index(confounded_label)
    z_k, z_d, z_e = M.pathway_scores_batch(params, *M.batch_inputs(docs, vocab, max_len))
    gold = label_space.multi_hot_rows(docs)
    in_group_a = None
    if confounded_label is not None:
        predicate = confound_predicate(confound_attribute)
        in_group_a = np.array([predicate(d.age, d.gender) for d in docs], dtype=bool)
    return {mode.value: _report(final_scores_from_z(z_k, z_d, z_e, mode), gold, label_space,
                                mode, ks, confounded_label, in_group_a)
            for mode in modes}
