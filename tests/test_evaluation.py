"""Inference modes and metrics.

roc_auc is checked against a brute-force pairwise oracle; P@k against hand
counts and a per-document oracle; F1 against hand counts; the mode algebra
against its exact reduction identities.
"""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deci import evaluation
from deci.corpus import Document, SyntheticConfig, Vocabulary, generate_synthetic, synthetic_label_space
from deci.errors import ConfigError, DimensionError, EvaluationError, ValidationError
from deci.evaluation import (
    InferenceMode,
    f1_scores,
    final_scores_from_z,
    precision_at_k,
    roc_auc,
    run_ablation,
)
from deci.model import ModelConfig, init_params
from param_arrays import named_arrays, with_arrays

# mpmath: sigmoid(2) and sigmoid(sigmoid(2) - sigmoid(0))
SIGMOID_2 = 0.88079707797788244406
DECI_ANCHOR = 0.59406533405666028568


def test_mode_anchor_values():
    zk, zd, ze = np.array([2.0]), np.array([0.0]), np.array([0.0])
    assert final_scores_from_z(zk, zd, ze, InferenceMode.DECI)[0] == pytest.approx(DECI_ANCHOR, abs=1e-15)
    assert final_scores_from_z(zk, zd, ze, InferenceMode.NAIVE)[0] == pytest.approx(SIGMOID_2, abs=1e-15)
    assert final_scores_from_z(zk, zd, ze, InferenceMode.KNOWLEDGE_ONLY)[0] == pytest.approx(SIGMOID_2, abs=1e-15)


def test_mode_strings():
    assert {m.value for m in InferenceMode} == {"deci", "naive", "knowledge-only", "wo-zd", "wo-ze"}


@given(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_wo_zd_reduces_to_deci_when_zd_zero(zk, ze):
    zk_a, zd_a, ze_a = np.array([zk]), np.array([0.0]), np.array([ze])
    deci = final_scores_from_z(zk_a, zd_a, ze_a, InferenceMode.DECI)
    wo_zd = final_scores_from_z(zk_a, zd_a, ze_a, InferenceMode.WO_ZD)
    np.testing.assert_array_equal(deci, wo_zd)


@given(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_wo_ze_reduces_to_deci_when_ze_zero(zk, zd):
    zk_a, zd_a, ze_a = np.array([zk]), np.array([zd]), np.array([0.0])
    deci = final_scores_from_z(zk_a, zd_a, ze_a, InferenceMode.DECI)
    wo_ze = final_scores_from_z(zk_a, zd_a, ze_a, InferenceMode.WO_ZE)
    np.testing.assert_array_equal(deci, wo_ze)


@given(
    st.floats(min_value=-15.0, max_value=15.0),
    st.floats(min_value=-15.0, max_value=15.0),
    st.floats(min_value=-15.0, max_value=15.0),
)
def test_deci_and_knowledge_only_agree_at_threshold(zk, zd, ze):
    # the debiased score crosses 0.5 exactly where z_k crosses 0
    arrays = (np.array([zk]), np.array([zd]), np.array([ze]))
    deci = final_scores_from_z(*arrays, InferenceMode.DECI)[0]
    ko = final_scores_from_z(*arrays, InferenceMode.KNOWLEDGE_ONLY)[0]
    assert (deci >= 0.5) == (ko >= 0.5)
    for mode in InferenceMode:
        s = final_scores_from_z(*arrays, mode)[0]
        assert 0.0 <= s <= 1.0


def test_roc_auc_hand_example():
    assert roc_auc([0.8, 0.6, 0.4], [1, 0, 1]) == 0.5
    assert roc_auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0
    assert roc_auc([0.1, 0.2, 0.9], [1, 1, 0]) == 0.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5  # all ties count half


def test_roc_auc_degenerate_is_none():
    assert roc_auc([0.1, 0.9], [1, 1]) is None
    assert roc_auc([0.1, 0.9], [0, 0]) is None


def test_roc_auc_shape_mismatch():
    with pytest.raises(DimensionError):
        roc_auc([0.1, 0.2], [1])


def brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def average_rank_auc(scores, labels):
    """roc_auc from the average ranks of every score, the positives' ranks
    summed as floats: an exact oracle, as each rank is a half-integer."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    ordered = np.sort(scores)
    ranks = (np.searchsorted(ordered, scores, "left") + np.searchsorted(ordered, scores, "right") + 1) / 2.0
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def seeded_draws():
    """1,000 seeded (scores, labels) draws of 2-200 cells, half of them with ties."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        scores = rng.random(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force ties
        yield scores, rng.integers(0, 2, size=n)


def test_roc_auc_against_pairwise_oracle():
    checked = 0
    for scores, labels in seeded_draws():
        want = brute_force_auc(scores, labels)
        got = roc_auc(scores, labels)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)
            checked += 1
    assert checked > 900  # the degenerate draws are rare


def test_roc_auc_equals_the_average_rank_oracle_exactly():
    checked = 0
    for scores, labels in seeded_draws():
        if 0 < labels.sum() < labels.size:
            assert roc_auc(scores, labels) == average_rank_auc(scores, labels)
            checked += 1
    assert checked > 900
    # a micro-AUC-sized draw: 1,600 notes by 20 labels, with ties, 10% positive
    rng = np.random.default_rng(3)
    scores = np.round(rng.random(32_000), 3)
    labels = (rng.random(32_000) < 0.1).astype(int)
    assert roc_auc(scores, labels) == average_rank_auc(scores, labels)


def test_roc_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=50)
    labels = rng.integers(0, 2, size=50)
    base = roc_auc(scores, labels)
    assert roc_auc(3.0 * scores + 7.0, labels) == base
    assert roc_auc(1.0 / (1.0 + np.exp(-scores)), labels) == base


def test_roc_auc_near_half_on_random_scores():
    rng = np.random.default_rng(2)
    scores = rng.random(20000)
    labels = rng.integers(0, 2, size=20000)
    assert 0.45 <= roc_auc(scores, labels) <= 0.55


def test_f1_hand_count():
    pred = np.array([[1, 1], [1, 0]], dtype=bool)
    gold = np.array([[1, 0], [1, 0]], dtype=bool)
    macro, micro, per_label = f1_scores(pred, gold)
    # TP=2, FP=1, FN=0 pooled -> micro = 4/5
    assert micro == pytest.approx(0.8)
    np.testing.assert_allclose(per_label, [1.0, 0.0])
    assert macro == pytest.approx(0.5)


def test_f1_perfect_prediction():
    gold = np.array([[1, 0, 1], [0, 1, 1]], dtype=bool)
    macro, micro, per_label = f1_scores(gold, gold)
    assert macro == micro == 1.0
    np.testing.assert_allclose(per_label, 1.0)


def test_f1_empty_label_counts_as_zero():
    # no gold positives and no predictions: defined as 0, not skipped
    pred = np.array([[1, 0]], dtype=bool)
    gold = np.array([[1, 0]], dtype=bool)
    macro, _, per_label = f1_scores(pred, gold)
    assert per_label[1] == 0.0
    assert macro == pytest.approx(0.5)


def test_f1_shape_checks():
    with pytest.raises(DimensionError):
        f1_scores(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        f1_scores(np.zeros(3), np.zeros(3))


def test_precision_at_k_hand_example():
    scores = np.array([[0.9, 0.1, 0.5]])
    gold = np.array([[1, 0, 1]], dtype=bool)
    assert precision_at_k(scores, gold, 1) == 1.0
    assert precision_at_k(scores, gold, 2) == 1.0
    assert precision_at_k(scores, gold, 3) == pytest.approx(2.0 / 3.0)


def test_precision_at_k_averages_documents():
    scores = np.array([[0.9, 0.1], [0.1, 0.9]])
    gold = np.array([[1, 0], [1, 0]], dtype=bool)
    # doc 0 hits, doc 1 misses
    assert precision_at_k(scores, gold, 1) == 0.5


def test_precision_at_k_tie_breaks_to_lower_index():
    scores = np.array([[0.5, 0.5, 0.5]])
    assert precision_at_k(scores, np.array([[1, 0, 0]], dtype=bool), 1) == 1.0
    assert precision_at_k(scores, np.array([[0, 1, 0]], dtype=bool), 1) == 0.0
    assert precision_at_k(scores, np.array([[0, 1, 0]], dtype=bool), 2) == 0.5


def test_precision_at_k_against_per_document_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n_docs, n_labels = int(rng.integers(1, 30)), int(rng.integers(1, 12))
        scores = rng.random((n_docs, n_labels))
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force ties
        gold = rng.random((n_docs, n_labels)) < 0.3
        for k in range(1, n_labels + 1):
            hits = sum(int(gold[d, np.argsort(-scores[d], kind="stable")[:k]].sum()) for d in range(n_docs))
            assert precision_at_k(scores, gold, k) == hits / (n_docs * k)


def test_precision_at_k_validates_k():
    scores = np.zeros((1, 3))
    gold = np.zeros((1, 3), dtype=bool)
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            precision_at_k(scores, gold, bad)
    with pytest.raises(DimensionError):
        precision_at_k(np.zeros((1, 3)), np.zeros((1, 2), dtype=bool), 1)


@pytest.fixture(scope="module")
def eval_world():
    cfg = SyntheticConfig(n_labels=6, vocab_size=80, n_train=60, n_dev=0, n_test=80,
                          doc_len=8, seed=4)
    train_docs, _, test_docs = generate_synthetic(cfg)
    vocab = Vocabulary.from_documents(train_docs)
    labels = synthetic_label_space(cfg)
    rng = np.random.default_rng(6)
    params = init_params(vocab.size, len(labels), embed_dim=8, hidden_dim=8, n_experts=2, seed=5)
    params = with_arrays(params, {k: v + rng.normal(0, 0.2, v.shape) for k, v in named_arrays(params).items()})
    return test_docs, params, vocab, labels


def test_evaluate_report_contents(eval_world):
    docs, params, vocab, labels = eval_world
    report = run_ablation(docs, params, vocab, labels, ks=(5, 1, 5), max_len=10,
                          confounded_label="C000", modes=(InferenceMode.DECI,))["deci"]
    assert report.mode == "deci"
    assert report.n_docs == len(docs)
    assert list(report.p_at_k) == [1, 5]  # in sorted order, each k once
    assert len(report.per_label_f1) == len(labels)
    assert 0.0 <= report.micro_auc <= 1.0
    d = json.loads(json.dumps(asdict(report)))
    assert d["disparity"]["label"] == "C000"
    assert list(d["p_at_k"]) == ["1", "5"]


def test_evaluate_is_document_order_invariant(eval_world):
    docs, params, vocab, labels = eval_world
    a = run_ablation(docs, params, vocab, labels, max_len=10, confounded_label="C000")["deci"]
    b = run_ablation(list(reversed(docs)), params, vocab, labels, max_len=10, confounded_label="C000")["deci"]
    assert a.micro_f1 == b.micro_f1
    assert a.macro_f1 == b.macro_f1
    assert a.micro_auc == b.micro_auc
    assert a.macro_auc == b.macro_auc
    assert a.p_at_k == b.p_at_k
    assert a.disparity.gap == b.disparity.gap


def test_evaluate_rejects_empty(eval_world):
    _, params, vocab, labels = eval_world
    with pytest.raises(EvaluationError):
        run_ablation([], params, vocab, labels, max_len=10)


def test_evaluate_all_degenerate_raises(eval_world):
    _, params, vocab, labels = eval_world
    # every document carries exactly the same gold set: every label is one-class
    docs = [Document(id=f"d{i}", text="k000w0", age=30, gender="M", codes=("C000",))
            for i in range(4)]
    with pytest.raises(EvaluationError, match="degenerate"):
        run_ablation(docs, params, vocab, labels, max_len=10)


def test_run_ablation_covers_all_modes(eval_world):
    docs, params, vocab, labels = eval_world
    table = run_ablation(docs, params, vocab, labels, max_len=10, confounded_label="C000")
    assert set(table) == {"deci", "naive", "knowledge-only", "wo-zd", "wo-ze"}
    for mode, report in table.items():
        assert report.mode == mode
        assert report.disparity is not None
    # deci and knowledge-only threshold identically, so their F1s agree
    assert table["deci"].micro_f1 == table["knowledge-only"].micro_f1
    assert table["deci"].per_label_f1 == table["knowledge-only"].per_label_f1
    # single forward pass: ablation equals standalone evaluation per mode
    solo = run_ablation(docs, params, vocab, labels, max_len=10,
                        confounded_label="C000", modes=(InferenceMode.NAIVE,))["naive"]
    assert solo == table["naive"]


def test_max_len_defaults_to_the_model_config_window(eval_world):
    docs, params, vocab, labels = eval_world
    # 24 words a note, so a window of 16 truncates every one of them
    long_docs = [replace(d, text=" ".join([d.text] * 3)) for d in docs]
    assert min(len(d.text.split()) for d in long_docs) > ModelConfig.max_len
    window = ModelConfig.max_len
    table = run_ablation(long_docs, params, vocab, labels, confounded_label="C000")
    want = run_ablation(long_docs, params, vocab, labels, max_len=window, confounded_label="C000")
    assert table == want
    wider = run_ablation(long_docs, params, vocab, labels, max_len=32, confounded_label="C000")
    assert wider["deci"] != table["deci"]


@pytest.mark.parametrize("ks", [(0,), (1, 7)])
def test_run_ablation_rejects_out_of_range_k_before_scoring(eval_world, monkeypatch, ks):
    docs, params, vocab, labels = eval_world

    def no_scoring(*args, **kwargs):
        raise AssertionError("documents were scored before k was checked")

    monkeypatch.setattr(evaluation.M, "pathway_scores_batch", no_scoring)
    with pytest.raises(ConfigError, match=r"k must be in \[1, 6\]"):
        run_ablation(docs, params, vocab, labels, ks=ks, max_len=10)


def test_run_ablation_rejects_an_unknown_confounded_label_before_scoring(eval_world, monkeypatch):
    docs, params, vocab, labels = eval_world

    def no_scoring(*args, **kwargs):
        raise AssertionError("documents were scored before the confounded label was checked")

    monkeypatch.setattr(evaluation.M, "pathway_scores_batch", no_scoring)
    with pytest.raises(ValidationError, match="unknown code 'C999'"):
        run_ablation(docs, params, vocab, labels, max_len=10, confounded_label="C999")


def test_run_ablation_modes_subset(eval_world):
    docs, params, vocab, labels = eval_world
    full = run_ablation(docs, params, vocab, labels, ks=(1, 3), max_len=10, confounded_label="C000")
    modes = (InferenceMode.WO_ZE, InferenceMode.DECI)
    subset = run_ablation(docs, params, vocab, labels, ks=(1, 3), max_len=10,
                          confounded_label="C000", modes=modes)
    assert list(subset) == ["wo-ze", "deci"]
    for mode, report in subset.items():
        assert report == full[mode]


BIAS_AUDIT_MODES = (InferenceMode.DECI, InferenceMode.NAIVE)


def test_bias_audit_reports_both_modes(eval_world):
    docs, params, vocab, labels = eval_world
    audit = run_ablation(docs, params, vocab, labels, max_len=10, confounded_label="C000",
                         modes=BIAS_AUDIT_MODES)
    assert set(audit) == {"deci", "naive"}
    for disp in (audit["deci"].disparity, audit["naive"].disparity):
        assert disp.label == "C000"
        if disp.gap is not None:
            assert disp.gap == pytest.approx(abs(disp.group_a_fpr - disp.group_b_fpr))


def test_bias_audit_handles_group_without_negatives(eval_world):
    _, params, vocab, labels = eval_world
    # every document in group A (age >= 65) carries the label: FPR undefined
    docs = [
        Document(id="a", text="k000w0", age=70, gender="F", codes=("C000",)),
        Document(id="b", text="k001w0", age=71, gender="M", codes=("C000", "C001")),
        Document(id="c", text="k001w0", age=30, gender="M", codes=("C001",)),
        Document(id="d", text="k002w0", age=20, gender="F", codes=("C002",)),
    ]
    audit = run_ablation(docs, params, vocab, labels, max_len=10, confounded_label="C000",
                         modes=BIAS_AUDIT_MODES)
    deci = audit["deci"].disparity
    assert deci.group_a_fpr is None
    assert deci.gap is None
    assert deci.group_b_fpr is not None
