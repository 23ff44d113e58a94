"""Model pathways: encoder, label attention, expert mixture, and the
counterfactual combination of pathway scores.

Hand-computable cases pin each op; agreement tests tie the batched fast path
to the per-document reference implementation.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deci.corpus import Document, InputMode, Vocabulary, build_model_input
from deci.errors import DimensionError
from deci.model import (
    PathwayScores,
    batch_inputs,
    encode,
    expert_scores,
    forward,
    forward_batch,
    gate_weights,
    init_params,
    label_attention,
    pathway_scores_batch,
    pathway_zd,
    pathway_ze,
    pathway_zk,
)

# mpmath: sigmoid(2) - sigmoid(0)
SIGMOID_2_MINUS_HALF = 0.38079707797788244406


@pytest.fixture
def vocab():
    return Vocabulary([f"w{i}" for i in range(12)])


@pytest.fixture
def params(vocab):
    return init_params(vocab.size, n_labels=5, embed_dim=7, hidden_dim=6, n_experts=3, seed=1)


def randomized(params, seed):
    """Copy of params with every zero-initialized array perturbed, so tests
    do not silently pass because a bias happened to be zero."""
    rng = np.random.default_rng(seed)
    arrays = {k: v + rng.normal(0, 0.3, size=v.shape) for k, v in params.named_arrays().items()}
    return params.with_arrays(arrays)


def test_init_shapes_and_zeros(params, vocab):
    assert params.embedding.shape == (vocab.size, 7)
    assert params.enc_proj.shape == (7, 6)
    assert params.label_queries.shape == (5, 6)
    assert params.expert_w.shape == (3, 5, 6)
    assert params.gate_w.shape == (6, 3)
    assert np.all(np.abs(params.embedding) <= 0.1)
    bound = np.sqrt(6.0 / (7 + 6))
    assert np.all(np.abs(params.enc_proj) <= bound)
    for name in ("enc_bias", "expert_b", "gate_w", "gate_bias"):
        assert not params.named_arrays()[name].any(), name


def test_init_deterministic(vocab):
    a = init_params(vocab.size, 5, seed=3)
    b = init_params(vocab.size, 5, seed=3)
    for k, arr in a.named_arrays().items():
        np.testing.assert_array_equal(arr, b.named_arrays()[k])
    c = init_params(vocab.size, 5, seed=4)
    assert (a.embedding != c.embedding).any()


def test_init_rejects_bad_dims(vocab):
    with pytest.raises(DimensionError):
        init_params(0, 5)
    with pytest.raises(DimensionError):
        init_params(vocab.size, 5, n_experts=0)


def test_params_copy_is_independent(params):
    clone = params.copy()
    clone.embedding[0, 0] += 1.0
    assert params.embedding[0, 0] != clone.embedding[0, 0]


def test_encode_all_pad_is_zero(params):
    out = encode(params, np.zeros(4, dtype=np.int64))
    np.testing.assert_array_equal(out, np.zeros((4, 6)))


def test_encode_single_token_formula(params, vocab):
    p = randomized(params, 0)  # nonzero enc_bias so masking is actually load-bearing
    tid = vocab.id("w3")
    out = encode(p, np.array([tid, 0]))
    expected = np.tanh(p.embedding[tid] @ p.enc_proj + p.enc_bias)
    np.testing.assert_allclose(out[0], expected, atol=1e-15)
    np.testing.assert_array_equal(out[1], np.zeros(6))


def test_encode_rejects_out_of_range_ids(params):
    with pytest.raises(IndexError):
        encode(params, np.array([0, params.vocab_size]))
    with pytest.raises(IndexError):
        encode(params, np.array([-1]))


def test_attention_single_token_copies_encoding(params, vocab):
    p = randomized(params, 1)
    ids = np.array([vocab.id("w5"), 0, 0])
    enc = encode(p, ids)
    label_repr, attn, degenerate = label_attention(p, enc, ids != 0)
    assert not degenerate
    # every label attends only to the one visible position
    np.testing.assert_allclose(attn[:, 0], 1.0, atol=1e-15)
    np.testing.assert_array_equal(attn[:, 1:], 0.0)
    for row in label_repr:
        np.testing.assert_allclose(row, enc[0], atol=1e-15)


def test_attention_identical_tokens_split_evenly(params, vocab):
    p = randomized(params, 2)
    tid = vocab.id("w2")
    ids = np.array([tid, tid, 0])
    enc = encode(p, ids)
    _, attn, _ = label_attention(p, enc, ids != 0)
    np.testing.assert_allclose(attn[:, :2], 0.5, atol=1e-12)
    np.testing.assert_array_equal(attn[:, 2], 0.0)


def test_attention_rows_sum_to_one(params, vocab):
    p = randomized(params, 3)
    ids = np.array([vocab.id("w0"), vocab.id("w7"), vocab.id("w9"), 0])
    enc = encode(p, ids)
    _, attn, _ = label_attention(p, enc, ids != 0)
    np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_array_equal(attn[:, 3], 0.0)


def test_attention_all_pad_degenerate(params):
    enc = encode(params, np.zeros(3, dtype=np.int64))
    label_repr, attn, degenerate = label_attention(params, enc, np.zeros(3, dtype=bool))
    assert degenerate
    np.testing.assert_array_equal(label_repr, 0.0)
    np.testing.assert_array_equal(attn, 0.0)


def test_expert_scores_zero_repr_gives_biases(params):
    p = randomized(params, 4)
    out = expert_scores(p, np.zeros((5, 6)))
    np.testing.assert_array_equal(out, p.expert_b)


def test_expert_scores_linear_in_repr(params):
    rng = np.random.default_rng(5)
    H = rng.normal(size=(5, 6))
    base = expert_scores(params, H)  # expert_b is zero at init
    np.testing.assert_allclose(expert_scores(params, 2.0 * H), 2.0 * base, atol=1e-12)


def test_gate_uniform_at_zero_weights(params):
    rng = np.random.default_rng(6)
    gate = gate_weights(params, rng.normal(size=(5, 6)))
    np.testing.assert_array_equal(gate, np.full((5, 3), 1.0 / 3.0))


def test_gate_rows_are_distributions(params):
    p = randomized(params, 7)
    gate = gate_weights(p, np.random.default_rng(8).normal(size=(5, 6)))
    assert np.all(gate > 0.0)
    np.testing.assert_allclose(gate.sum(axis=1), 1.0, atol=1e-12)


def test_gate_single_expert_is_trivial(vocab):
    p = randomized(init_params(vocab.size, 5, embed_dim=7, hidden_dim=6, n_experts=1, seed=0), 9)
    gate = gate_weights(p, np.random.default_rng(10).normal(size=(5, 6)))
    np.testing.assert_array_equal(gate, np.ones((5, 1)))


def test_zk_equals_ze_under_uniform_gate(params):
    # gate weights are zero at init, so the gated mixture IS the uniform one
    H = np.random.default_rng(13).normal(size=(5, 6))
    np.testing.assert_array_equal(pathway_zk(params, H), pathway_ze(params, H))


def test_zk_equals_ze_with_single_expert(vocab):
    p = randomized(init_params(vocab.size, 4, embed_dim=7, hidden_dim=6, n_experts=1, seed=2), 14)
    H = np.random.default_rng(15).normal(size=(4, 6))
    np.testing.assert_array_equal(pathway_zk(p, H), pathway_ze(p, H))


def test_ze_invariant_to_expert_order_with_two_experts(vocab):
    p = randomized(init_params(vocab.size, 4, embed_dim=7, hidden_dim=6, n_experts=2, seed=3), 16)
    H = np.random.default_rng(17).normal(size=(4, 6))
    swapped = p.with_arrays(
        {
            **p.named_arrays(),
            "expert_w": p.expert_w[::-1].copy(),
            "expert_b": p.expert_b[::-1].copy(),
        }
    )
    # the two-term mean is commutative in floating point
    np.testing.assert_array_equal(pathway_ze(p, H), pathway_ze(swapped, H))


def test_final_score_anchor_value():
    scores = PathwayScores.from_pathways([2.0], [0.0], [0.0])
    assert scores.z_f[0] == pytest.approx(SIGMOID_2_MINUS_HALF, abs=1e-15)


def test_final_score_zero_knowledge_is_zero():
    scores = PathwayScores.from_pathways([0.0, 0.0], [1.3, -0.2], [0.4, 2.0])
    np.testing.assert_array_equal(scores.z_f, 0.0)


def test_final_score_shape_mismatch():
    with pytest.raises(DimensionError):
        PathwayScores.from_pathways([1.0, 2.0], [0.0], [0.0])


@given(
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=-30.0, max_value=30.0),
)
def test_final_score_sign_and_range(zk, zd, ze):
    z_f = float(PathwayScores.from_pathways([zk], [zd], [ze]).z_f[0])
    assert -1.0 < z_f < 1.0
    if zk > 0:
        assert z_f >= 0.0
    elif zk < 0:
        assert z_f <= 0.0


def test_zd_depends_only_on_bucket_and_gender(params, vocab):
    p = randomized(params, 18)
    a = Document(id="a", text="w0 w3", age=70, gender="F")
    b = Document(id="b", text="w9 w9 w1", age=91, gender="F")  # same bucket, other text
    np.testing.assert_array_equal(
        pathway_zd(p, a, vocab, 8), pathway_zd(p, b, vocab, 8)
    )
    c = Document(id="c", text="w0 w3", age=30, gender="F")
    assert (pathway_zd(p, a, vocab, 8) != pathway_zd(p, c, vocab, 8)).any()


def test_zd_has_at_most_eight_values(params, vocab):
    p = randomized(params, 19)
    seen = set()
    for age in (5, 20, 50, 70):
        for gender in ("M", "F"):
            doc = Document(id="d", text="w1", age=age, gender=gender)
            seen.add(tuple(pathway_zd(p, doc, vocab, 8)))
    assert len(seen) == 8  # 4 age buckets x 2 genders, all distinct here
    doc = Document(id="d", text="w1 w2 w3", age=66, gender="M")
    assert tuple(pathway_zd(p, doc, vocab, 8)) in seen


def test_forward_combines_pathways(params, vocab):
    p = randomized(params, 20)
    doc = Document(id="d", text="w1 w4 w4", age=50, gender="M")
    scores = forward(p, doc, vocab, max_len=8)
    full = build_model_input(doc, vocab, 8, InputMode.FULL)
    full_repr, _, degenerate = label_attention(p, encode(p, full), full != 0)
    demo = build_model_input(doc, vocab, 8, InputMode.DEMOGRAPHIC_ONLY)
    demo_repr, _, _ = label_attention(p, encode(p, demo), demo != 0)
    np.testing.assert_array_equal(scores.z_k, pathway_zk(p, full_repr))
    np.testing.assert_array_equal(scores.z_d, pathway_zk(p, demo_repr))
    np.testing.assert_array_equal(scores.z_e, pathway_ze(p, full_repr))
    assert not degenerate
    # z_e comes from the full view, not the demographic view
    assert (scores.z_e != pathway_ze(p, demo_repr)).any()


def test_forward_batch_matches_per_document(params, vocab):
    p = randomized(params, 21)
    docs = [
        Document(id="a", text="w0 w1 w2 w3 w4 w5 w6 w7 w8 w9", age=70, gender="F"),
        Document(id="b", text="w11", age=17, gender="M"),
        Document(id="c", text="", age=40, gender="F"),
        Document(id="d", text="w5 w5 w5", age=64, gender="M"),
    ]
    zk, zd, ze = pathway_scores_batch(p, docs, vocab, max_len=6, batch_size=3)
    assert zk.shape == (4, 5)
    for i, doc in enumerate(docs):
        single = forward(p, doc, vocab, max_len=6)
        np.testing.assert_allclose(zk[i], single.z_k, atol=1e-12)
        np.testing.assert_allclose(zd[i], single.z_d, atol=1e-12)
        np.testing.assert_allclose(ze[i], single.z_e, atol=1e-12)


def test_forward_batch_attention_rows(params, vocab):
    p = randomized(params, 22)
    docs = [
        Document(id="a", text="w0 w1", age=70, gender="F"),
        Document(id="b", text="w2", age=20, gender="M"),
    ]
    ids, _ = batch_inputs(docs, vocab, max_len=5)
    assert ids.shape == (2, 4)  # trailing all-PAD columns are dropped
    branch = forward_batch(p, ids)
    np.testing.assert_allclose(branch.attention.sum(axis=2), 1.0, atol=1e-9)
    # the short document's PAD position carries no attention
    assert not branch.attention[1, :, 3].any()


def test_forward_batch_rejects_bad_ids(params):
    with pytest.raises(IndexError):
        forward_batch(params, np.array([[0, params.vocab_size]]))


def test_batch_inputs_layout(params, vocab):
    docs = [Document(id="a", text="w0 w1 w2", age=70, gender="F")]
    full, demo = batch_inputs(docs, vocab, max_len=4)
    assert full.shape == (1, 4)
    assert demo.shape == (1, 2)  # the demographic view never needs more columns
    assert full[0, 0] == demo[0, 0] == vocab.id("[AGE_65_PLUS]")
    assert full[0, 1] == demo[0, 1] == vocab.id("[GENDER_F]")
    assert full[0, 2] == vocab.id("w0")


def test_degenerate_document_all_pathways_finite(params, vocab):
    # empty text: the full view still has demographics, so nothing is NaN
    doc = Document(id="d", text="", age=30, gender="M")
    scores = forward(randomized(params, 23), doc, vocab, max_len=4)
    for z in (scores.z_k, scores.z_d, scores.z_e, scores.z_f):
        assert np.all(np.isfinite(z))
