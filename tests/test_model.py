"""Model pathways: encoder, label attention, expert mixture, and the
counterfactual combination of pathway scores.

Hand-computable cases pin each op through the fields of forward_batch's
BatchBranch; an independent per-document reference in this file checks the
batched pass, PAD mask included. The einsum formulation of forward_batch and
backward_batch, kept here as a second reference, checks every field and every
gradient of the matmul formulation.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deci.corpus import PAD_ID, RESERVED_TOKENS, Document, Vocabulary, build_model_input
from deci.errors import ConfigError, DimensionError
from deci.evaluation import InferenceMode, final_scores_from_z
from deci.model import (
    BatchBranch, ModelConfig, backward_batch, batch_inputs, forward_batch, init_params,
    pathway_scores_batch, zero_grads,
)
from deci.numerics import sigmoid


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


def branch(params, *rows):
    """forward_batch over the given id rows."""
    return forward_batch(params, np.array(rows, dtype=np.int64))


def random_rows(vocab_size, seed, shape=(3, 5)):
    """Id rows with PAD tails of random length; every row keeps its first id."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(1, vocab_size, size=shape)
    lengths = rng.integers(1, shape[1] + 1, size=shape[0])
    return np.where(np.arange(shape[1]) < lengths[:, None], ids, PAD_ID)


def reference_pathways(p, row):
    """(gated, uniform) mixtures of one id row, by plain loops over its
    non-PAD tokens: PAD positions are dropped rather than masked."""
    enc = np.tanh(p.embedding[row[row != PAD_ID]] @ p.enc_proj + p.enc_bias)
    logits = p.label_queries @ enc.T
    att = np.exp(logits - logits.max(axis=1, keepdims=True))
    label_repr = (att / att.sum(axis=1, keepdims=True)) @ enc
    scores = np.array([[w[l] @ label_repr[l] for l in range(p.n_labels)] for w in p.expert_w]) + p.expert_b
    gate = np.exp(label_repr @ p.gate_w + p.gate_bias)
    gate /= gate.sum(axis=1, keepdims=True)
    return (gate * scores.T).sum(axis=1), scores.mean(axis=0)


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
    out = branch(params, [0, 0, 0, 0], [0, 0, 0, 0]).encoded
    np.testing.assert_array_equal(out, np.zeros((2, 4, 6)))


def test_encode_single_token_formula(params, vocab):
    p = randomized(params, 0)  # nonzero enc_bias so masking is actually load-bearing
    tid = vocab.id("w3")
    out = branch(p, [tid, 0]).encoded[0]
    expected = np.tanh(p.embedding[tid] @ p.enc_proj + p.enc_bias)
    np.testing.assert_allclose(out[0], expected, atol=1e-15)
    np.testing.assert_array_equal(out[1], np.zeros(6))


def test_encode_rejects_out_of_range_ids(params):
    with pytest.raises(IndexError):
        branch(params, [0, params.vocab_size])
    with pytest.raises(IndexError):
        branch(params, [-1])


def test_attention_single_token_copies_encoding(params, vocab):
    p = randomized(params, 1)
    br = branch(p, [vocab.id("w5"), 0, 0])
    attn, label_repr = br.attention[0], br.label_repr[0]
    # every label attends only to the one visible position
    np.testing.assert_allclose(attn[:, 0], 1.0, atol=1e-15)
    np.testing.assert_array_equal(attn[:, 1:], 0.0)
    for row in label_repr:
        np.testing.assert_allclose(row, br.encoded[0, 0], atol=1e-15)


def test_attention_identical_tokens_split_evenly(params, vocab):
    p = randomized(params, 2)
    tid = vocab.id("w2")
    attn = branch(p, [tid, tid, 0]).attention[0]
    np.testing.assert_allclose(attn[:, :2], 0.5, atol=1e-12)
    np.testing.assert_array_equal(attn[:, 2], 0.0)


def test_attention_rows_sum_to_one(params, vocab):
    p = randomized(params, 3)
    attn = branch(p, [vocab.id("w0"), vocab.id("w7"), vocab.id("w9"), 0]).attention[0]
    np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_array_equal(attn[:, 3], 0.0)


def test_attention_all_pad_degenerate(params):
    br = branch(params, [0, 0, 0])
    np.testing.assert_array_equal(br.label_repr, 0.0)
    np.testing.assert_array_equal(br.attention, 0.0)


def test_expert_scores_zero_repr_gives_biases(params):
    p = randomized(params, 4)
    br = branch(p, [0, 0])  # an all-PAD row has a zero label representation
    np.testing.assert_array_equal(br.expert_scores[0], p.expert_b)


def test_expert_scores_linear_in_repr(params, vocab):
    # entry (i, l) is expert_w[i, l] . label_repr[l] + expert_b[i, l]
    p = randomized(params, 5)
    br = forward_batch(p, random_rows(vocab.size, 5))
    expected = (p.expert_w[None] * br.label_repr[:, None]).sum(axis=-1) + p.expert_b
    np.testing.assert_allclose(br.expert_scores, expected, atol=1e-12)


def test_gate_uniform_at_zero_weights(params, vocab):
    gate = forward_batch(params, random_rows(vocab.size, 6)).gate
    np.testing.assert_array_equal(gate, np.full((3, 5, 3), 1.0 / 3.0))


def test_gate_rows_are_distributions(params, vocab):
    p = randomized(params, 7)
    gate = forward_batch(p, random_rows(vocab.size, 8)).gate
    assert np.all(gate > 0.0)
    np.testing.assert_allclose(gate.sum(axis=2), 1.0, atol=1e-12)


def test_gate_single_expert_is_trivial(vocab):
    p = randomized(init_params(vocab.size, 5, embed_dim=7, hidden_dim=6, n_experts=1, seed=0), 9)
    gate = forward_batch(p, random_rows(vocab.size, 10)).gate
    np.testing.assert_array_equal(gate, np.ones((3, 5, 1)))


def test_zk_equals_ze_under_uniform_gate(params, vocab):
    # gate weights are zero at init, so the gated mixture IS the uniform one
    br = forward_batch(params, random_rows(vocab.size, 13))
    np.testing.assert_array_equal(br.gated, br.uniform)


def test_zk_equals_ze_with_single_expert(vocab):
    p = randomized(init_params(vocab.size, 4, embed_dim=7, hidden_dim=6, n_experts=1, seed=2), 14)
    br = forward_batch(p, random_rows(vocab.size, 15))
    np.testing.assert_array_equal(br.gated, br.uniform)


def test_ze_invariant_to_expert_order_with_two_experts(vocab):
    p = randomized(init_params(vocab.size, 4, embed_dim=7, hidden_dim=6, n_experts=2, seed=3), 16)
    ids = random_rows(vocab.size, 17)
    swapped = p.with_arrays(
        {
            **p.named_arrays(),
            "expert_w": p.expert_w[::-1].copy(),
            "expert_b": p.expert_b[::-1].copy(),
        }
    )
    # the two-term mean is commutative in floating point
    np.testing.assert_array_equal(forward_batch(p, ids).uniform, forward_batch(swapped, ids).uniform)


def test_final_score_zero_knowledge_is_zero():
    # z_k = 0 makes the subtraction exactly zero, so the deci score is sigmoid(0)
    scores = final_scores_from_z([0.0, 0.0], [1.3, -0.2], [0.4, 2.0], InferenceMode.DECI)
    np.testing.assert_array_equal(scores, 0.5)


def test_final_score_shape_mismatch():
    with pytest.raises(DimensionError):
        final_scores_from_z([1.0, 2.0], [0.0], [0.0], InferenceMode.DECI)


@given(
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=-30.0, max_value=30.0),
)
def test_final_score_sign_and_range(zk, zd, ze):
    # the subtraction lies in (-1, 1) and has the sign of z_k
    score = float(final_scores_from_z([zk], [zd], [ze], InferenceMode.DECI)[0])
    assert sigmoid(-1.0) < score < sigmoid(1.0)
    if zk > 0:
        assert score >= 0.5
    elif zk < 0:
        assert score < 0.5


def zd_of(p, vocab, *docs):
    return pathway_scores_batch(p, list(docs), vocab, max_len=8)[1]


def test_zd_depends_only_on_bucket_and_gender(params, vocab):
    p = randomized(params, 18)
    a = Document(id="a", text="w0 w3", age=70, gender="F")
    b = Document(id="b", text="w9 w9 w1", age=91, gender="F")  # same bucket, other text
    c = Document(id="c", text="w0 w3", age=30, gender="F")
    zd = zd_of(p, vocab, a, b, c)
    np.testing.assert_array_equal(zd[0], zd[1])
    assert (zd[0] != zd[2]).any()


def test_zd_has_at_most_eight_values(params, vocab):
    p = randomized(params, 19)
    docs = [Document(id="d", text="w1", age=age, gender=gender)
            for age in (5, 20, 50, 70) for gender in ("M", "F")]
    seen = {tuple(row) for row in zd_of(p, vocab, *docs)}
    assert len(seen) == 8  # 4 age buckets x 2 genders, all distinct here
    doc = Document(id="d", text="w1 w2 w3", age=66, gender="M")
    assert tuple(zd_of(p, vocab, doc)[0]) in seen


def test_forward_combines_pathways(params, vocab):
    p = randomized(params, 20)
    docs = [Document(id="d", text="w1 w4 w4", age=50, gender="M")]
    zk, zd, ze = pathway_scores_batch(p, docs, vocab, max_len=8)
    full_ids, demo_ids = batch_inputs(docs, vocab, 8)
    full, demo = forward_batch(p, full_ids), forward_batch(p, demo_ids)
    np.testing.assert_array_equal(zk, full.gated)
    np.testing.assert_array_equal(zd, demo.gated)
    np.testing.assert_array_equal(ze, full.uniform)
    # z_e comes from the full view, not the demographic view
    assert (ze != demo.uniform).any()


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
        row = build_model_input(doc, vocab, 6)
        gated, uniform = reference_pathways(p, row)
        np.testing.assert_allclose(zk[i], gated, atol=1e-12)
        np.testing.assert_allclose(zd[i], reference_pathways(p, row[:2])[0], atol=1e-12)
        np.testing.assert_allclose(ze[i], uniform, atol=1e-12)


def test_forward_batch_attention_rows(params, vocab):
    p = randomized(params, 22)
    docs = [
        Document(id="a", text="w0 w1", age=70, gender="F"),
        Document(id="b", text="w2", age=20, gender="M"),
    ]
    ids, _ = batch_inputs(docs, vocab, max_len=5)
    assert ids.shape == (2, 4)  # trailing all-PAD columns are dropped
    br = forward_batch(p, ids)
    np.testing.assert_allclose(br.attention.sum(axis=2), 1.0, atol=1e-9)
    # the short document's PAD position carries no attention
    assert not br.attention[1, :, 3].any()


def test_batch_inputs_layout(params, vocab):
    docs = [Document(id="a", text="w0 w1 w2", age=70, gender="F")]
    full, demo = batch_inputs(docs, vocab, max_len=4)
    assert full.shape == (1, 4)
    assert demo.shape == (1, 2)  # the demographic view never needs more columns
    assert full[0, 0] == demo[0, 0] == vocab.id("[AGE_65_PLUS]")
    assert full[0, 1] == demo[0, 1] == vocab.id("[GENDER_F]")
    assert full[0, 2] == vocab.id("w0")


def test_degenerate_document_all_pathways_finite(params, vocab):
    p = randomized(params, 23)
    # an all-PAD row has nothing to attend to, yet both mixtures stay finite
    br = branch(p, [0, 0, 0])
    assert np.all(np.isfinite(br.gated)) and np.all(np.isfinite(br.uniform))
    # empty text: the full view still has demographics, so nothing is NaN
    doc = Document(id="d", text="", age=30, gender="M")
    z = pathway_scores_batch(p, [doc], vocab, max_len=4)
    for arr in (*z, final_scores_from_z(*z, InferenceMode.DECI)):
        assert np.all(np.isfinite(arr))


# -- einsum reference ----------------------------------------------------------
# forward_batch and backward_batch as written with np.einsum and np.add.at,
# before their contractions became matmuls. Summation order differs between
# the two, so they agree to a tolerance fixed from float64 rounding:
# |new - ref| <= 1e-12 * max(1, max|ref|) for each array.


def _einsum_softmax_last(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def einsum_forward_batch(params, ids):
    ids = np.asarray(ids, dtype=np.int64)
    B, N = ids.shape
    L, F = params.n_labels, params.n_experts
    mask = ids != PAD_ID
    embedded = params.embedding[ids] * mask[..., None]
    encoded = np.tanh(embedded @ params.enc_proj + params.enc_bias) * mask[..., None]

    logits = np.einsum("ld,bnd->bln", params.label_queries, encoded)
    logits = np.where(mask[:, None, :], logits, -np.inf)
    rowmax = logits.max(axis=2, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)  # all-PAD documents
    att = np.exp(logits - rowmax)
    denom = att.sum(axis=2, keepdims=True)
    att = att / np.where(denom == 0.0, 1.0, denom)
    label_repr = np.einsum("bln,bnd->bld", att, encoded)

    scores = np.einsum("fld,bld->bfl", params.expert_w, label_repr) + params.expert_b[None]
    gate = _einsum_softmax_last(np.einsum("bld,df->blf", label_repr, params.gate_w) + params.gate_bias)
    gated = np.einsum("blf,bfl->bl", gate, scores)
    uniform = np.einsum("blf,bfl->bl", np.full((B, L, F), 1.0 / F), scores)
    return BatchBranch(
        token_ids=ids, embedded=embedded, encoded=encoded, attention=att,
        label_repr=label_repr, expert_scores=scores, gate=gate, gated=gated, uniform=uniform,
    )


def einsum_backward_batch(params, br, d_gated, d_uniform, grads):
    F = params.n_experts
    S, G, H = br.expert_scores, br.gate, br.label_repr

    dS = np.einsum("bl,blf->bfl", d_gated, G) + d_uniform[:, None, :] / F
    grads["expert_w"] += np.einsum("bfl,bld->fld", dS, H)
    grads["expert_b"] += dS.sum(axis=0)
    dH = np.einsum("bfl,fld->bld", dS, params.expert_w)

    dG = np.einsum("bl,bfl->blf", d_gated, S)
    dglog = G * (dG - (G * dG).sum(axis=-1, keepdims=True))
    grads["gate_w"] += np.einsum("bld,blf->df", H, dglog)
    grads["gate_bias"] += dglog.sum(axis=(0, 1))
    dH += np.einsum("blf,df->bld", dglog, params.gate_w)

    A, E = br.attention, br.encoded
    dA = np.einsum("bld,bnd->bln", dH, E)
    dE = np.einsum("bln,bld->bnd", A, dH)
    dalog = A * (dA - (A * dA).sum(axis=-1, keepdims=True))
    grads["label_queries"] += np.einsum("bln,bnd->ld", dalog, E)
    dE += np.einsum("bln,ld->bnd", dalog, params.label_queries)
    dE *= (br.token_ids != PAD_ID)[..., None]

    dU = dE * (1.0 - E * E)  # tanh'; PAD rows already zero in dE
    grads["enc_proj"] += np.einsum("bnd,bnh->dh", br.embedded, dU)
    grads["enc_bias"] += dU.sum(axis=(0, 1))
    dX = np.einsum("bnh,dh->bnd", dU, params.enc_proj)
    np.add.at(grads["embedding"], br.token_ids.ravel(), dX.reshape(-1, params.embed_dim))


def assert_close_to_reference(new, ref, what):
    new, ref = np.asarray(new, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    assert new.shape == ref.shape, what
    bound = 1e-12 * max(1.0, float(np.abs(ref).max(initial=0.0)))
    worst = float(np.abs(new - ref).max(initial=0.0))
    assert worst <= bound, f"{what}: |new - ref| = {worst:.3g} > {bound:.3g}"


def compare_with_einsum(p, ids, d_gated, d_uniform, start_grads):
    """Run both formulations from the same inputs and compare every array."""
    new, ref = forward_batch(p, ids), einsum_forward_batch(p, ids)
    for name in BatchBranch.__dataclass_fields__:
        assert_close_to_reference(getattr(new, name), getattr(ref, name), name)
    new_grads = {k: g.copy() for k, g in start_grads.items()}
    ref_grads = {k: g.copy() for k, g in start_grads.items()}
    backward_batch(p, new, d_gated, d_uniform, new_grads)
    einsum_backward_batch(p, ref, d_gated, d_uniform, ref_grads)
    for name in ref_grads:
        assert_close_to_reference(new_grads[name], ref_grads[name], f"grad {name}")
    return new_grads


def random_case(rng, i):
    """(params, ids) of one seeded case; the kind of id rows cycles with i."""
    F, L = int(rng.integers(1, 5)), int(rng.integers(1, 8))
    d_e, d_h = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    vocab_size = len(RESERVED_TOKENS) + 6
    p = randomized(init_params(vocab_size, L, embed_dim=d_e, hidden_dim=d_h, n_experts=F, seed=i), i)
    B = int(rng.integers(1, 6))
    kind = i % 4
    if kind == 3:
        # the demographic-only view: two reserved, non-PAD tokens per row
        ids = rng.integers(2, len(RESERVED_TOKENS), size=(B, 2))
    else:
        ids = random_rows(vocab_size, i, shape=(B, int(rng.integers(1, 7))))
        if kind == 1:
            ids[rng.integers(0, B)] = PAD_ID  # one all-PAD row
        elif kind == 2:
            ids[:] = PAD_ID  # nothing but PAD
    return p, ids


def test_matmul_formulation_matches_einsum_reference():
    rng = np.random.default_rng(2024)
    for i in range(240):
        p, ids = random_case(rng, i)
        B, L = ids.shape[0], p.n_labels
        d_gated, d_uniform = rng.normal(size=(B, L)), rng.normal(size=(B, L))
        start = zero_grads(p)
        if i % 2:  # the demographic branch adds onto the full branch's gradients
            start = {k: rng.normal(size=g.shape) for k, g in start.items()}
        compare_with_einsum(p, ids, d_gated, d_uniform, start)


@pytest.mark.parametrize("onto_nonzero", [False, True])
def test_embedding_gradient_matches_add_at(params, vocab, onto_nonzero):
    p = randomized(params, 24)
    rng = np.random.default_rng(25)
    w3, w5, w7 = vocab.id("w3"), vocab.id("w5"), vocab.id("w7")
    batches = [
        np.full((4, 5), w3),                               # one id fills every position
        np.array([[w3, w5, w7], [w7, w3, w5], [w5, w5, w3]]),  # ids repeat across rows
        np.array([[w5, w7, PAD_ID, PAD_ID], [w7, PAD_ID, PAD_ID, PAD_ID]]),  # PAD tails
        np.array([[PAD_ID, PAD_ID], [PAD_ID, PAD_ID]]),    # only PAD
    ]
    for ids in batches:
        B = ids.shape[0]
        start = zero_grads(p)
        if onto_nonzero:
            start = {k: rng.normal(size=g.shape) for k, g in start.items()}
        grads = compare_with_einsum(p, ids, rng.normal(size=(B, 5)), rng.normal(size=(B, 5)), start)
        unseen = np.setdiff1d(np.arange(p.vocab_size), ids)
        # rows of ids absent from the batch are left exactly as they were
        np.testing.assert_array_equal(grads["embedding"][unseen], start["embedding"][unseen])


def test_model_config_validate():
    ModelConfig().validate()
    ModelConfig(max_len=2).validate()  # room for the two demographic tokens
    for bad in (
        ModelConfig(max_len=1),
        ModelConfig(embed_dim=0),
        ModelConfig(hidden_dim=0),
        ModelConfig(n_experts=0),
        ModelConfig(embed_dim=float("nan")),
        ModelConfig(max_len=float("nan")),
    ):
        with pytest.raises(ConfigError):
            bad.validate()
