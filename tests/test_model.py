"""Model pathways: encoder, label attention, expert mixture, and the
counterfactual combination of pathway scores.

Hand-computable cases pin each op through the fields of forward_batch's
BatchBranch; an independent per-document reference in this file checks the
batched pass, PAD mask included. The einsum formulation of forward_batch and
backward_batch, kept here as a second reference that works per position,
checks every field and every gradient of the matmul formulation, which works
per distinct token.
"""

import dataclasses
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deci import model
from deci.corpus import (
    AGE_TOKENS, CELL_IDS, GENDER_TOKENS, GENDERS, PAD_ID, RESERVED_TOKENS, UNK_ID, Document,
    Vocabulary,
)
from deci.errors import ConfigError, DimensionError
from deci.evaluation import InferenceMode, final_scores_from_z
from deci.model import (
    BatchBranch, ModelConfig, ModelParams, backward_batch, batch_inputs, forward_batch,
    init_params, pathway_scores_batch,
)
from deci.numerics import sigmoid
from param_arrays import named_arrays, with_arrays


@pytest.fixture
def vocab():
    return Vocabulary([f"w{i}" for i in range(12)])


@pytest.fixture
def params(vocab):
    return init_params(vocab.size, n_labels=5, embed_dim=7, hidden_dim=6, n_experts=3, seed=1)


def token_id(vocab, token):
    """token's id in vocab, or UNK's id when the token is unknown."""
    tokens = vocab.to_list()
    return tokens.index(token) if token in tokens else UNK_ID


def randomized(params, seed):
    """Copy of params with every zero-initialized array perturbed, so tests
    do not silently pass because a bias happened to be zero."""
    rng = np.random.default_rng(seed)
    arrays = {k: v + rng.normal(0, 0.3, size=v.shape) for k, v in named_arrays(params).items()}
    return with_arrays(params, arrays)


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
        assert not named_arrays(params)[name].any(), name


def test_init_deterministic(vocab):
    a = init_params(vocab.size, 5, seed=3)
    b = init_params(vocab.size, 5, seed=3)
    for k, arr in named_arrays(a).items():
        np.testing.assert_array_equal(arr, named_arrays(b)[k])
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
    tid = token_id(vocab, "w3")
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
    br = branch(p, [token_id(vocab, "w5"), 0, 0])
    attn, label_repr = br.attention[0], br.label_repr[0]
    # every label attends only to the one visible position
    np.testing.assert_allclose(attn[:, 0], 1.0, atol=1e-15)
    np.testing.assert_array_equal(attn[:, 1:], 0.0)
    for row in label_repr:
        np.testing.assert_allclose(row, br.encoded[0, 0], atol=1e-15)


def test_attention_identical_tokens_split_evenly(params, vocab):
    p = randomized(params, 2)
    tid = token_id(vocab, "w2")
    attn = branch(p, [tid, tid, 0]).attention[0]
    np.testing.assert_allclose(attn[:, :2], 0.5, atol=1e-12)
    np.testing.assert_array_equal(attn[:, 2], 0.0)


def test_attention_rows_sum_to_one(params, vocab):
    p = randomized(params, 3)
    attn = branch(p, [token_id(vocab, "w0"), token_id(vocab, "w7"), token_id(vocab, "w9"), 0]).attention[0]
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


def test_gate_is_bitwise_the_plain_softmax(params, vocab):
    # the attention's guards for all-PAD rows never fire on finite gate logits
    p = randomized(params, 11)
    br = forward_batch(p, random_rows(vocab.size, 12, shape=(6, 7)))
    logits = br.label_repr @ p.gate_w + p.gate_bias
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    assert np.array_equal(br.gate, e / e.sum(axis=-1, keepdims=True))


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
    swapped = with_arrays(p, {
        **named_arrays(p),
        "expert_w": p.expert_w[::-1].copy(),
        "expert_b": p.expert_b[::-1].copy(),
    })
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
    return pathway_scores_batch(p, *batch_inputs(list(docs), vocab, 8))[1]


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
    full_ids, cells = batch_inputs(docs, vocab, 8)
    zk, zd, ze = pathway_scores_batch(p, full_ids, cells)
    # cut to the note's width of 2 + 3 ids, as pathway_scores_batch cuts each chunk
    full, demo = forward_batch(p, full_ids[:, :5]), forward_batch(p, CELL_IDS)
    np.testing.assert_array_equal(zk, full.gated)
    np.testing.assert_array_equal(zd, demo.gated[cells])
    np.testing.assert_array_equal(ze, full.uniform)
    # z_e comes from the full view, not the demographic view
    assert (ze != demo.uniform[cells]).any()


def test_forward_batch_matches_per_document(params, vocab):
    p = randomized(params, 21)
    docs = [
        Document(id="a", text="w0 w1 w2 w3 w4 w5 w6 w7 w8 w9", age=70, gender="F"),
        Document(id="b", text="w11", age=17, gender="M"),
        Document(id="c", text="", age=40, gender="F"),
        Document(id="d", text="w5 w5 w5", age=64, gender="M"),
    ]
    zk, zd, ze = pathway_scores_batch(p, *batch_inputs(docs, vocab, 6), batch_size=3)
    assert zk.shape == (4, 5)
    for i, doc in enumerate(docs):
        row = parent_model_input(doc, vocab, 6)
        gated, uniform = reference_pathways(p, row)
        np.testing.assert_allclose(zk[i], gated, atol=1e-12)
        np.testing.assert_allclose(zd[i], reference_pathways(p, row[:2])[0], atol=1e-12)
        np.testing.assert_allclose(ze[i], uniform, atol=1e-12)


def notes_of_lengths(n_words, seed=0):
    """One note per entry with that many in-vocabulary words, demographics varied."""
    rng = np.random.default_rng(seed)
    return [Document(id=f"d{i}", text=" ".join(f"w{j}" for j in rng.integers(0, 12, size=n)),
                     age=int(rng.integers(0, 100)), gender=("M", "F")[i % 2])
            for i, n in enumerate(n_words)]


def test_scoring_chunks_are_as_wide_as_their_longest_note(params, vocab, monkeypatch):
    # rows of 3, 9, 3, 9 and 5 non-PAD ids: the two demographic ids plus the words
    docs = notes_of_lengths([1, 7, 1, 7, 3])
    widths = []

    def spy(p, ids, **kw):
        if ids.shape[1] > 2:  # the demographic view is always two columns
            widths.append(ids.shape[1])
        return forward_batch(p, ids, **kw)

    monkeypatch.setattr(model, "forward_batch", spy)
    pathway_scores_batch(params, *batch_inputs(docs, vocab, 12), batch_size=2)
    assert widths == [9, 5, 3]  # input order would forward widths [9, 9, 5]


def test_scoring_forwards_the_demographic_view_once_per_cell(params, vocab, monkeypatch):
    docs = notes_of_lengths([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], seed=4)
    seen = []

    def spy(p, ids, **kw):
        if ids.max() < len(RESERVED_TOKENS):  # the demographic view
            seen.append(np.array(ids))
        return forward_batch(p, ids, **kw)

    monkeypatch.setattr(model, "forward_batch", spy)
    pathway_scores_batch(params, *batch_inputs(docs, vocab, 8), batch_size=3)
    assert len(seen) == 1  # one demographic forward per call
    np.testing.assert_array_equal(seen[0], CELL_IDS)  # each of the eight cells exactly once


def test_zd_of_a_note_is_the_same_alone_and_among_other_cells(params, vocab):
    p = randomized(params, 26)
    note = Document(id="n", text="w2 w8", age=30, gender="M")
    others = [Document(id=str(age), text="w1 w5 w7", age=age, gender=gender)
              for age, gender in ((5, "M"), (50, "F"), (70, "M"), (30, "F"), (90, "F"), (12, "F"))]
    cells = batch_inputs([note] + others, vocab, 8)[1]
    assert cells[0] not in cells[1:]  # every batch-mate is in another cell
    alone = pathway_scores_batch(p, *batch_inputs([note], vocab, 8))[1][0]
    among = pathway_scores_batch(p, *batch_inputs(others[:3] + [note] + others[3:], vocab, 8))[1][3]
    assert alone.tobytes() == among.tobytes()


@pytest.mark.parametrize("batch_size", [1, 2, 3, 256])
def test_longest_first_scores_return_in_input_order(params, vocab, batch_size):
    p = randomized(params, 24)
    # ties, an empty note, and notes truncated by the window
    docs = notes_of_lengths([4, 0, 9, 4, 2, 7, 4, 12, 1, 0, 6], seed=1)
    zk, zd, ze = pathway_scores_batch(p, *batch_inputs(docs, vocab, 9), batch_size=batch_size)
    for i, doc in enumerate(docs):
        row = parent_model_input(doc, vocab, 9)
        gated, uniform = reference_pathways(p, row)
        np.testing.assert_allclose(zk[i], gated, atol=1e-12)
        np.testing.assert_allclose(zd[i], reference_pathways(p, row[:2])[0], atol=1e-12)
        np.testing.assert_allclose(ze[i], uniform, atol=1e-12)
    perm = np.random.default_rng(2).permutation(len(docs))
    shuffled = batch_inputs([docs[i] for i in perm], vocab, 9)
    for got, want in zip(pathway_scores_batch(p, *shuffled, batch_size), (zk, zd, ze)):
        np.testing.assert_allclose(got, want[perm], rtol=0, atol=1e-12)


def test_full_window_notes_score_in_consecutive_input_chunks(params, vocab):
    # every note fills the window: the stable order is the identity, so each
    # row is bitwise what forward_batch gives on consecutive input-order chunks
    p = randomized(params, 25)
    docs = notes_of_lengths([9, 6, 14, 6, 8, 11, 7], seed=3)
    zk, zd, ze = pathway_scores_batch(p, *batch_inputs(docs, vocab, 8), batch_size=3)
    for lo in range(0, len(docs), 3):
        full_ids, cells = batch_inputs(docs[lo: lo + 3], vocab, 8)
        full = forward_batch(p, full_ids)
        np.testing.assert_array_equal(zk[lo: lo + 3], full.gated)
        np.testing.assert_array_equal(zd[lo: lo + 3], forward_batch(p, CELL_IDS).gated[cells])
        np.testing.assert_array_equal(ze[lo: lo + 3], full.uniform)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_scoring_rejects_a_batch_size_below_one(params, vocab, batch_size):
    docs = notes_of_lengths([3] * 16)
    with pytest.raises(ConfigError, match="batch_size"):
        pathway_scores_batch(params, *batch_inputs(docs, vocab, 8), batch_size=batch_size)


def test_forward_batch_attention_rows(params, vocab):
    p = randomized(params, 22)
    docs = [
        Document(id="a", text="w0 w1", age=70, gender="F"),
        Document(id="b", text="w2", age=20, gender="M"),
    ]
    ids, _ = batch_inputs(docs, vocab, max_len=5)
    assert ids.shape == (2, 5)  # every row fills the window, PAD-extended
    br = forward_batch(p, ids)
    np.testing.assert_allclose(br.attention.sum(axis=2), 1.0, atol=1e-9)
    # the short document's PAD position carries no attention
    assert not br.attention[1, :, 3].any()


def test_forward_batch_masks_pad_once_per_distinct_token():
    """PAD is zeroed in the per-token tables, so no mask product copies the
    per-position encoder rows: the forward's peak allocation stays below
    twice the bytes of the (B, N, d_h) encoded array."""
    p = randomized(init_params(300, 20, seed=0), 31)
    ids = random_rows(300, 31, shape=(64, 96))
    ids[0] = np.arange(1, 97)  # the batch is as wide as its longest row
    ids[3] = PAD_ID  # one all-PAD row
    tracemalloc.start()
    try:
        br = forward_batch(p, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * br.encoded.nbytes
    pad = ids == PAD_ID
    assert pad[:, -1].any() and not np.signbit(br.encoded[pad]).any()
    assert not br.encoded[pad].any()  # exactly +0.0
    assert not br.attention.transpose(0, 2, 1)[pad].any()
    assert np.all(np.isfinite(br.gated[3])) and not br.attention[3].any()


def traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_batch_never_gathers_every_position_at_once():
    """The attention product gathers encoder rows a block of documents at a
    time, so the forward peaks below half the bytes of the (B, N, d_h)
    array, and its label representations are still bitwise the one product
    over that array. 8 labels keep the (B, L, N) attention and (B, L, d_h)
    label representations, which the branch returns, well under that half.
    The backward gathers that array once and reuses it for the position
    gradients, and forms the attention-logit gradient in its own buffer, so
    it peaks below 1.4 times its bytes."""
    p = randomized(init_params(300, 8, seed=0), 32)
    ids = random_rows(300, 32, shape=(64, 96))
    ids[0] = np.arange(1, 97)
    ids[5] = PAD_ID
    assert 64 % (model._GATHER_FLOATS // (96 * p.hidden_dim)) != 0  # a ragged last block
    per_position = ids.size * p.hidden_dim * 8
    assert traced_peak(forward_batch, p, ids) < 0.5 * per_position
    br = forward_batch(p, ids)
    assert np.array_equal(br.label_repr, np.matmul(br.attention, br.encoded))
    d = np.random.default_rng(32).normal(size=br.gated.shape)
    assert traced_peak(backward_batch, p, br, d, d, ModelParams(p.dims)) < 1.4 * per_position
    tokens, where = np.unique(ids, return_inverse=True)
    np.testing.assert_array_equal(br.tokens, tokens)
    np.testing.assert_array_equal(br.where, where.reshape(ids.shape))


def test_scoring_holds_one_chunk_at_a_time():
    """pathway_scores_batch lets go of each chunk's branch before it forwards
    the next, so scoring three chunks peaks below 1.5 times scoring one (two
    chunks' branches alive at once would take it to ~1.9), and every row is
    still bitwise what forward_batch gives on its chunk."""
    p = randomized(init_params(300, 20, seed=0), 33)
    rng = np.random.default_rng(33)
    B = 64
    cells = rng.integers(0, len(CELL_IDS), size=3 * B)
    ids = rng.integers(len(RESERVED_TOKENS), 300, size=(3 * B, 96))  # no PAD: chunks in input order
    ids[:, :2] = CELL_IDS[cells]
    one = traced_peak(pathway_scores_batch, p, ids[:B], cells[:B], B)
    assert traced_peak(pathway_scores_batch, p, ids, cells, B) < 1.5 * one
    zk, zd, ze = pathway_scores_batch(p, ids, cells, B)
    assert np.array_equal(zd, forward_batch(p, CELL_IDS).gated[cells])
    for lo in range(0, 3 * B, B):
        full = forward_batch(p, ids[lo: lo + B])
        assert np.array_equal(zk[lo: lo + B], full.gated)
        assert np.array_equal(ze[lo: lo + B], full.uniform)


def test_forward_batch_in_a_workspace_is_bitwise_the_same():
    """Every field of a branch forwarded in a workspace equals the one
    forwarded without, and a second, narrower call in the same workspace
    writes its attention into the first call's memory."""
    p = randomized(init_params(300, 8, seed=0), 35)
    ids = random_rows(300, 35, shape=(24, 40))  # PAD tails, in two row blocks
    ids[0] = np.arange(1, 41)
    ids[9] = PAD_ID  # one all-PAD row
    assert len(model._row_blocks(24, 40, p.hidden_dim)) > 1
    work = {}
    for rows, width in ((slice(None), 40), (slice(3, 20), 31)):
        got = forward_batch(p, ids[rows, :width], work=work)
        want = forward_batch(p, ids[rows, :width])
        for name in [f.name for f in dataclasses.fields(BatchBranch)] + ["encoded"]:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        if width == 40:
            first = got.attention
    assert got.attention.size < first.size and np.shares_memory(got.attention, first)


def test_scoring_forwards_every_chunk_in_one_workspace(params, vocab, monkeypatch):
    # rows of 12, 10, 8, 6 and 4 non-PAD ids: five chunks of falling width
    docs = notes_of_lengths([10, 2, 8, 4, 6, 10, 2, 8, 4, 6], seed=5)
    attention = []

    def spy(p, ids, **kw):
        br = forward_batch(p, ids, **kw)
        if ids is not CELL_IDS:  # skip the demographic view
            attention.append(br.attention)
        return br

    monkeypatch.setattr(model, "forward_batch", spy)
    pathway_scores_batch(params, *batch_inputs(docs, vocab, 14), batch_size=2)
    assert [a.shape[2] for a in attention] == [12, 10, 8, 6, 4]
    assert all(np.shares_memory(a, attention[0]) for a in attention[1:])


def test_forward_batch_rejects_out_of_range_ids_in_a_workspace(params):
    for bad in ([[3, params.vocab_size]], [[-1, 3]]):
        with pytest.raises(IndexError):
            forward_batch(params, np.array(bad), work={})


def out_of_place_backward_batch(params, br, d_gated, d_uniform, grads):
    """backward_batch with the attention-logit gradient written as
    A * (dA - (A * dA).sum(-1)) and tanh' as 1 - enc_tok**2, each a new
    array. backward_batch forms both in place with the same operations in
    the same order, so its gradients must be bitwise these."""
    L, F, d_h = params.n_labels, params.n_experts, params.hidden_dim
    S, G, H = br.expert_scores.transpose(0, 2, 1), br.gate, br.label_repr
    dS = d_gated[..., None] * G + (d_uniform / F)[..., None]
    dS_by_label = dS.transpose(1, 0, 2)
    grads.expert_w += (dS_by_label.transpose(0, 2, 1) @ H.transpose(1, 0, 2)).transpose(1, 0, 2)
    grads.expert_b += dS.sum(axis=0).T
    dH = np.empty_like(H)
    np.matmul(dS_by_label, params.expert_w.transpose(1, 0, 2), out=dH.transpose(1, 0, 2))
    dG = d_gated[..., None] * S
    dglog = G * (dG - (G * dG).sum(axis=-1, keepdims=True))
    grads.gate_w += H.reshape(-1, d_h).T @ dglog.reshape(-1, F)
    grads.gate_bias += dglog.sum(axis=(0, 1))
    dH += dglog @ params.gate_w.T
    A, E = br.attention, br.encoded
    dA = np.matmul(dH, E.transpose(0, 2, 1), out=np.empty_like(A))
    dalog = A * (dA - (A * dA).sum(axis=-1, keepdims=True))
    grads.label_queries += dalog.transpose(1, 0, 2).reshape(L, -1) @ E.reshape(-1, d_h)
    dU = np.matmul(A.transpose(0, 2, 1), dH, out=E)
    tanh_grad = 1.0 - br.enc_tok * br.enc_tok
    for rows in model._row_blocks(*dU.shape):
        dU[rows] += dalog[rows].transpose(0, 2, 1) @ params.label_queries
        dU[rows] *= tanh_grad[br.where[rows]]
    dU_tok = np.zeros((br.tokens.size, d_h))
    np.add.at(dU_tok, br.where.ravel(), dU.reshape(-1, d_h))
    grads.enc_proj += br.embedded.T @ dU_tok
    grads.enc_bias += dU_tok.sum(axis=0)
    grads.embedding[br.tokens] += dU_tok @ params.enc_proj.T


def test_in_place_attention_backward_is_bitwise_the_formula():
    p = randomized(init_params(300, 8, seed=0), 34)
    ids = random_rows(300, 34, shape=(20, 64))  # PAD tails, in two row blocks
    ids[0] = np.arange(1, 65)
    ids[7] = PAD_ID  # one all-PAD row
    assert len(model._row_blocks(20, 64, p.hidden_dim)) > 1
    br = forward_batch(p, ids)
    rng = np.random.default_rng(34)
    d_gated, d_uniform = rng.normal(size=br.gated.shape), rng.normal(size=br.gated.shape)
    got, want = ModelParams(p.dims), ModelParams(p.dims)
    backward_batch(p, br, d_gated, d_uniform, got)
    out_of_place_backward_batch(p, br, d_gated, d_uniform, want)
    assert got.flat.any() and np.array_equal(got.flat, want.flat)


def loop_sum_rows(index, rows, n):
    """out[index[i]] += rows[i], one row at a time, into zeros."""
    out = np.zeros((n, rows.shape[1]))
    for i, row in zip(index, rows):
        out[i] += row
    return out


@pytest.mark.parametrize("n_rows, width", [(0, 5), (7, 1), (50, 100), (3000, 100)])
def test_sum_rows_is_bitwise_a_loop_of_row_additions(n_rows, width):
    """The per-token gradient sum adds each output cell's rows in input order
    from +0.0, so it is bitwise the loop and np.add.at, signed zeros included.
    Outputs 34-39 are never indexed; output 33 sums rows of -0.0 only, which
    give +0.0. 3,000 rows of 100 columns take several column blocks."""
    rng = np.random.default_rng(n_rows)
    index = rng.integers(0, 33, size=n_rows)  # ids repeat
    rows = rng.normal(size=(n_rows, width))
    rows[::3], index[::3] = -0.0, 33
    blocks = -(-width // max(1, model._GATHER_FLOATS // max(1, n_rows)))
    assert (n_rows, blocks) != (3000, 1)
    got = model._sum_rows(index, rows, 40)
    at = np.zeros((40, width))
    np.add.at(at, index, rows)
    assert got.shape == (40, width) and got.dtype == np.float64
    assert got.tobytes() == loop_sum_rows(index, rows, 40).tobytes() == at.tobytes()


def test_scoring_allocates_each_workspace_buffer_once(monkeypatch):
    """No chunk regrows a buffer of the workspace: the per-token buffers are
    sized for the chunk of most distinct tokens, and no more, and the gather
    for the widest block. Here the first chunk is the widest, but a later one
    has more distinct tokens and a later one a larger gather block."""
    p = randomized(init_params(300, 8, seed=0), 36)
    monkeypatch.setattr(model, "_GATHER_FLOATS", 10_000)  # gather blocks of 8,000, 9,000, 8,000 floats
    rng = np.random.default_rng(36)
    cells = rng.integers(0, len(CELL_IDS), size=12)
    ids = np.full((12, 40), PAD_ID)
    ids[:4] = rng.integers(10, 20, size=(4, 40))  # 10 distinct ids over 40 columns
    ids[4:8, :30] = np.arange(20, 140).reshape(4, 30)  # 120 distinct
    ids[8:, :20] = np.arange(140, 220).reshape(4, 20)  # 80 distinct
    ids[:, :2] = CELL_IDS[cells]
    buffers, real = {}, model._scratch

    def spy(work, name, shape):
        view = real(work, name, shape)
        if work is not None:
            buffers.setdefault(name, []).append(work[name])  # held, so no id is reused
        return view

    monkeypatch.setattr(model, "_scratch", spy)
    zk, _, ze = pathway_scores_batch(p, ids, cells, batch_size=4)
    assert sorted(buffers) == sorted(["embedded", "enc_tok", "logit_tok", "attention", "gather",
                                      "label_repr", "scores", "gate", "mix"])
    for name, seen in buffers.items():
        assert len(seen) >= 3 and len({id(b) for b in seen}) == 1, name
    most = max(np.unique(ids[lo: lo + 4, :width]).size for lo, width in zip((0, 4, 8), (40, 30, 20)))
    assert buffers["embedded"][0].size == most * p.embed_dim
    for lo in range(0, 12, 4):
        full = forward_batch(p, ids[lo: lo + 4, :(40, 30, 20)[lo // 4]])
        assert np.array_equal(zk[lo: lo + 4], full.gated) and np.array_equal(ze[lo: lo + 4], full.uniform)


def demographic_tokens(age, gender, vocab):
    """The age-bucket and gender token ids of one document, looked up in vocab."""
    bucket = AGE_TOKENS[(age >= 18) + (age >= 45) + (age >= 65)]
    return [token_id(vocab, bucket), token_id(vocab, GENDER_TOKENS[GENDERS.index(gender)])]


def parent_model_input(doc, vocab, max_len):
    """A batch_inputs row as first written, one document at a time: the
    demographic ids, then the id of each run of [a-z0-9] in the lowercased text,
    cut and PAD-extended to the window."""
    note = [token_id(vocab, w) for w in re.findall(r"[a-z0-9]+", doc.text.lower())]
    ids = (demographic_tokens(doc.age, doc.gender, vocab) + note)[:max_len]
    return np.asarray(ids + [PAD_ID] * (max_len - len(ids)), dtype=np.int64)


def parent_batch_inputs(docs, vocab, max_len):
    """(full rows, demographic-only rows) of a batch."""
    full = np.stack([parent_model_input(d, vocab, max_len) for d in docs])
    return full, full[:, :2].copy()


def test_batch_inputs_match_the_per_document_rows(vocab):
    rng = np.random.default_rng(8)
    pool = [f"w{i}" for i in range(12)] + ["W3", "zz", "Q7", "9"]
    docs = []
    for i, age in enumerate([0, 17, 18, 44, 45, 64, 65, 129] * 3):
        n_words = rng.choice([0, 1, 5, 40])  # empty text, and text longer than any window
        text = " ".join(rng.choice(pool, size=n_words)) + ("." if i % 3 else "")
        docs.append(Document(id=str(i), text=text, age=age, gender="MF"[i // 8 % 2]))
    for max_len in (2, 3, 7, 16, 64):
        for batch in (docs, docs[:1], docs[3:4], docs[::5]):
            want_full, want_demo = parent_batch_inputs(batch, vocab, max_len)
            full, cells = batch_inputs(batch, vocab, max_len)
            assert full.dtype == cells.dtype == np.int64
            np.testing.assert_array_equal(full, want_full)
            np.testing.assert_array_equal(CELL_IDS[cells], want_demo)
        for doc in docs:
            row = batch_inputs([doc], vocab, max_len)[0][0]
            assert row.dtype == np.int64
            np.testing.assert_array_equal(row, parent_model_input(doc, vocab, max_len))
    for max_len in (1, 0, -1):
        with pytest.raises(ConfigError):
            batch_inputs(docs, vocab, max_len)
        with pytest.raises(ConfigError):
            batch_inputs(docs[:1], vocab, max_len)


def test_batch_inputs_layout(params, vocab):
    docs = [Document(id="a", text="w0 w1 w2", age=70, gender="F")]
    full, cells = batch_inputs(docs, vocab, max_len=4)
    assert full.shape == (1, 4)
    assert cells.tolist() == [3 * 2 + 1]  # the top age bucket, then F
    assert full[0, 0] == CELL_IDS[cells[0], 0] == token_id(vocab, "[AGE_65_PLUS]")
    assert full[0, 1] == CELL_IDS[cells[0], 1] == token_id(vocab, "[GENDER_F]")
    assert full[0, 2] == token_id(vocab, "w0")


def test_degenerate_document_all_pathways_finite(params, vocab):
    p = randomized(params, 23)
    # an all-PAD row has nothing to attend to, yet both mixtures stay finite
    br = branch(p, [0, 0, 0])
    assert np.all(np.isfinite(br.gated)) and np.all(np.isfinite(br.uniform))
    # empty text: the full view still has demographics, so nothing is NaN
    doc = Document(id="d", text="", age=30, gender="M")
    z = pathway_scores_batch(p, *batch_inputs([doc], vocab, 4))
    for arr in (*z, final_scores_from_z(*z, InferenceMode.DECI)):
        assert np.all(np.isfinite(arr))


# -- einsum reference ----------------------------------------------------------
# forward_batch and backward_batch as written with np.einsum and np.add.at,
# before their contractions became matmuls and before the encoder ran once per
# distinct token: this reference embeds, encodes and scatters per position.
# Summation order differs between the two, so they agree to a tolerance fixed
# from float64 rounding: |new - ref| <= 1e-12 * max(1, max|ref|) for each array.


def _einsum_softmax_last(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def einsum_forward_batch(params, ids):
    """A record of the branch intermediates, embedded holding one row per position."""
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
    return SimpleNamespace(
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
    """Run both formulations from the same inputs and compare every array.

    start_grads is one array per name; backward_batch adds onto a ModelParams
    built from it, the einsum reference onto copies of the arrays."""
    new, ref = forward_batch(p, ids), einsum_forward_batch(p, ids)
    # one encoder row per distinct token, spread back over the positions
    assert np.unique(new.tokens).size == new.tokens.size
    np.testing.assert_array_equal(new.tokens[new.where], new.token_ids)
    per_position = {"embedded": new.embedded[new.where] * (new.token_ids != PAD_ID)[..., None],
                    "encoded": new.enc_tok[new.where]}
    assert set(vars(ref)) <= set(BatchBranch.__dataclass_fields__) | set(per_position)
    for name in vars(ref):
        assert_close_to_reference(per_position.get(name, getattr(new, name)), getattr(ref, name), name)
    new_grads = with_arrays(p, start_grads)
    ref_grads = {k: g.copy() for k, g in start_grads.items()}
    backward_batch(p, new, d_gated, d_uniform, new_grads)
    einsum_backward_batch(p, ref, d_gated, d_uniform, ref_grads)
    for name, arr in named_arrays(new_grads).items():
        assert_close_to_reference(arr, ref_grads[name], f"grad {name}")
    return named_arrays(new_grads)


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
        start = named_arrays(ModelParams(p.dims))
        if i % 2:  # the demographic branch adds onto the full branch's gradients
            start = {k: rng.normal(size=g.shape) for k, g in start.items()}
        compare_with_einsum(p, ids, d_gated, d_uniform, start)


@pytest.mark.parametrize("onto_nonzero", [False, True])
def test_embedding_gradient_matches_add_at(params, vocab, onto_nonzero):
    p = randomized(params, 24)
    rng = np.random.default_rng(25)
    w3, w5, w7 = token_id(vocab, "w3"), token_id(vocab, "w5"), token_id(vocab, "w7")
    batches = [
        np.full((4, 5), w3),                               # one id fills every position
        np.array([[w3, w5, w7], [w7, w3, w5], [w5, w5, w3]]),  # ids repeat across rows
        np.array([[w5, w7, PAD_ID, PAD_ID], [w7, PAD_ID, PAD_ID, PAD_ID]]),  # PAD tails
        np.array([[PAD_ID, PAD_ID], [PAD_ID, PAD_ID]]),    # only PAD
    ]
    for ids in batches:
        B = ids.shape[0]
        start = named_arrays(ModelParams(p.dims))
        if onto_nonzero:
            start = {k: rng.normal(size=g.shape) for k, g in start.items()}
        grads = compare_with_einsum(p, ids, rng.normal(size=(B, 5)), rng.normal(size=(B, 5)), start)
        unseen = np.setdiff1d(np.arange(p.vocab_size), ids)
        # rows of ids absent from the batch are left exactly as they were
        np.testing.assert_array_equal(grads["embedding"][unseen], start["embedding"][unseen])


@pytest.mark.parametrize("onto_nonzero", [False, True])
def test_backward_batch_adds_in_place_into_flat(params, vocab, onto_nonzero):
    p = randomized(params, 26)
    rng = np.random.default_rng(27)
    ids = random_rows(vocab.size, 28, shape=(4, 6))
    d_gated, d_uniform = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    alone = ModelParams(p.dims)
    backward_batch(p, forward_batch(p, ids), d_gated, d_uniform, alone)
    assert alone.flat.any()
    start = rng.normal(size=p.flat.size) if onto_nonzero else np.zeros(p.flat.size)
    grads = ModelParams(p.dims, start.copy())
    buffer = grads.flat
    backward_batch(p, forward_batch(p, ids), d_gated, d_uniform, grads)
    # the same buffer, with every view still a window of it, holds start + gradient
    assert grads.flat is buffer
    for name, arr in named_arrays(grads).items():
        assert np.shares_memory(arr, buffer), name
    np.testing.assert_allclose(buffer, start + alone.flat, rtol=0, atol=1e-12)
    if not onto_nonzero:
        np.testing.assert_array_equal(buffer, alone.flat)


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
