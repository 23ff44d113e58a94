"""Joint objective, hand-derived gradients, the Adam loop, and checkpoints.

The gradient tests are the load-bearing ones: every analytic gradient is
compared against central finite differences through the public loss, for
corner weightings of the two auxiliary heads.
"""

import json
import math
import os
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from deci import model
from deci.corpus import (
    CELL_IDS,
    PAD_ID,
    RESERVED_TOKENS,
    Document,
    LabelSpace,
    SyntheticConfig,
    Vocabulary,
    generate_synthetic,
    synthetic_label_space,
)
from deci.errors import ConfigError, DimensionError, FormatError, NumericalError
from deci.model import (
    ModelConfig, ModelParams, backward_batch, batch_inputs, forward_batch, init_params,
    param_shapes, pathway_scores_batch,
)
from deci.numerics import sigmoid
from deci.training import (
    AdamState,
    _bce_and_grad,
    CHECKPOINT_MAGIC,
    TrainConfig,
    adam_step,
    batch_loss,
    clip_gradients,
    load_checkpoint,
    save_checkpoint,
    selected_epoch,
    train,
)
from gradcheck import finite_difference_check
from param_arrays import named_arrays, with_arrays

LN2 = 0.69314718055994530942  # mpmath: ln 2
THREE_LN2 = 2.0794415416798359283  # mpmath: 3 * ln 2


@pytest.fixture(scope="module")
def tiny_world():
    cfg = SyntheticConfig(n_labels=5, vocab_size=60, n_train=24, n_dev=12, n_test=0,
                          doc_len=6, seed=2)
    train_docs, dev_docs, _ = generate_synthetic(cfg)
    vocab = Vocabulary.from_documents(train_docs)
    labels = synthetic_label_space(cfg)
    return train_docs, dev_docs, vocab, labels


def loss_inputs(docs, vocab, labels, max_len=8):
    """(ids, cells, gold) of documents: a batch for batch_loss, or train's dev split."""
    return (*batch_inputs(docs, vocab, max_len), labels.multi_hot_rows(docs))


def total_loss(docs, params, cfg, vocab, labels, max_len):
    """The objective's total, from batch_loss."""
    return batch_loss(params, cfg, *loss_inputs(docs, vocab, labels, max_len))[0]


def tiny_params(vocab, labels, seed=0, **kw):
    kw.setdefault("embed_dim", 8)
    kw.setdefault("hidden_dim", 8)
    kw.setdefault("n_experts", 2)
    return init_params(vocab.size, len(labels), seed=seed, **kw)


def test_config_validation():
    TrainConfig().validate()
    TrainConfig(learning_rate=0.0).validate()  # explicit no-op training is legal
    for bad in (
        TrainConfig(alpha=-0.1),
        TrainConfig(beta=-1.0),
        TrainConfig(learning_rate=-1e-3),
        TrainConfig(epochs=0),
        TrainConfig(batch_size=0),
        TrainConfig(adam_beta1=1.0),
        TrainConfig(adam_eps=0.0),
        TrainConfig(grad_clip_norm=0.0),
    ):
        with pytest.raises(ConfigError):
            bad.validate()


def test_bce_gradient_survives_confidently_wrong_cells():
    # z = -20 with y = 1 is confidently wrong: the loss is ~20 and the
    # gradient sigmoid(z) - y stays ~-1 instead of being clamped to 0
    z = np.array([-20.0, 0.0])
    loss, grad = _bce_and_grad(z, np.array([1.0, 0.0]))
    assert loss == pytest.approx((20.0 + math.log1p(math.exp(-20.0)) + LN2) / 2.0, abs=1e-15)
    np.testing.assert_allclose(grad, (sigmoid(z) - [1.0, 0.0]) / 2.0, rtol=0, atol=1e-17)
    assert grad[0] == pytest.approx(-0.5, abs=1e-8)


def test_loss_at_zero_params_is_three_ln2(tiny_world):
    docs, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels)
    zeroed = with_arrays(params, {k: np.zeros_like(v) for k, v in named_arrays(params).items()})
    cfg = TrainConfig(alpha=1.0, beta=1.0)
    got = total_loss(docs[:4], zeroed, cfg, vocab, labels, max_len=8)
    assert got == pytest.approx(THREE_LN2, abs=1e-12)


def test_loss_alpha_beta_zero_is_knowledge_only(tiny_world):
    docs, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels, seed=4)
    batch = docs[:6]
    cfg = TrainConfig(alpha=0.0, beta=0.0)
    got = total_loss(batch, params, cfg, vocab, labels, max_len=8)
    # recompute the knowledge term from the knowledge pathway's scores
    zk = pathway_scores_batch(params, *batch_inputs(batch, vocab, 8))[0]
    y = labels.multi_hot_rows(batch)
    p = sigmoid(zk)
    expected = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
    assert got == pytest.approx(expected, abs=1e-12)


def test_loss_rejects_empty_batch(tiny_world):
    _, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels)
    with pytest.raises(ValueError):
        total_loss([], params, TrainConfig(), vocab, labels, max_len=8)


def assert_gradients_match_finite_differences(batch, vocab, labels, cfg):
    base = tiny_params(vocab, labels, seed=7)
    # jitter the zero-initialized arrays so no gradient path is trivially zero
    rng = np.random.default_rng(11)
    base = with_arrays(base, {k: v + rng.normal(0, 0.2, v.shape) for k, v in named_arrays(base).items()})

    def loss_fn(p):
        return total_loss(batch, p, cfg, vocab, labels, max_len=8)

    def grad_fn(p):
        return batch_loss(p, cfg, *loss_inputs(batch, vocab, labels))[2].flat

    report = finite_difference_check(loss_fn, grad_fn, base, step=1e-5, tol=1e-3)
    assert report.passed, (report.worst_parameter, report.max_relative_error)


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.0, 0.7), (1.3, 0.0)])
def test_gradients_match_finite_differences(tiny_world, alpha, beta):
    docs, _, vocab, labels = tiny_world
    assert_gradients_match_finite_differences(docs[:3], vocab, labels, TrainConfig(alpha=alpha, beta=beta))


def test_gradients_match_finite_differences_with_a_shared_cell_and_a_repeated_word(tiny_world):
    # the encoder sums a token's positions, and the demographic branch its
    # cell's notes, before backpropagating: both sums must see every term
    docs, _, vocab, labels = tiny_world
    word = docs[0].text.split()[0]
    batch = [replace(docs[0], text=f"{word} {docs[0].text}"),
             replace(docs[1], age=docs[0].age, gender=docs[0].gender), docs[2]]
    full_ids, cells = batch_inputs(batch, vocab, 8)
    assert cells[0] == cells[1]
    assert np.unique(full_ids[0]).size < full_ids.shape[1]
    assert_gradients_match_finite_differences(batch, vocab, labels, TrainConfig(alpha=0.5, beta=0.5))


def test_batch_loss_runs_the_demographic_branch_once_per_cell(tiny_world, monkeypatch):
    docs, _, vocab, labels = tiny_world
    batch = docs[:16]
    forwarded, backpropagated = [], []

    def forward_spy(p, ids, **kw):
        if ids.max() < len(RESERVED_TOKENS):
            forwarded.append(np.array(ids))
        return forward_batch(p, ids, **kw)

    def backward_spy(p, br, d_gated, d_uniform, grads):
        if br.token_ids.max() < len(RESERVED_TOKENS):
            backpropagated.append(br.token_ids)
        return backward_batch(p, br, d_gated, d_uniform, grads)

    monkeypatch.setattr(model, "forward_batch", forward_spy)
    monkeypatch.setattr(model, "backward_batch", backward_spy)
    batch_loss(tiny_params(vocab, labels), TrainConfig(), *loss_inputs(batch, vocab, labels))
    assert len(forwarded) == len(backpropagated) == 1
    np.testing.assert_array_equal(forwarded[0], CELL_IDS)  # each of the eight cells exactly once
    np.testing.assert_array_equal(backpropagated[0], CELL_IDS)


def test_alpha_gates_the_demographic_gradient(tiny_world):
    docs, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels, seed=12)
    inputs = loss_inputs(docs[:5], vocab, labels)
    with_demo = batch_loss(params, TrainConfig(alpha=0.5, beta=0.0), *inputs)[2]
    without = batch_loss(params, TrainConfig(alpha=0.0, beta=0.0), *inputs)[2]
    assert (with_demo.flat != without.flat).any()


def one_entry_grads(*values):
    """Gradients of dims (2, 1, 1, 1, 1), zero except the first len(values)
    entries of flat: the two embedding rows, then enc_proj."""
    flat = np.zeros(sum(math.prod(s) for s in param_shapes(2, 1, 1, 1, 1).values()))
    flat[:len(values)] = values
    return ModelParams((2, 1, 1, 1, 1), flat)


def test_clip_gradients():
    grads = one_entry_grads(3.0, 0.0, 4.0)
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.sqrt((grads.flat * grads.flat).sum()) == pytest.approx(1.0)
    np.testing.assert_allclose(grads.flat[:3], [0.6, 0.0, 0.8])
    # under the cap, arrays are untouched
    grads = one_entry_grads(0.3)
    before = grads.flat.copy()
    assert clip_gradients(grads, 1.0) == pytest.approx(0.3)
    np.testing.assert_array_equal(grads.flat, before)
    # inf disables clipping
    grads = one_entry_grads(100.0)
    clip_gradients(grads, math.inf)
    assert grads.embedding[0, 0] == 100.0


def test_clip_gradients_scales_every_view_by_one_factor(tiny_world):
    docs, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels, seed=3)
    rng = np.random.default_rng(4)
    grads = with_arrays(params, {k: rng.normal(size=v.shape) for k, v in named_arrays(params).items()})
    before = {k: v.copy() for k, v in named_arrays(grads).items()}
    norm = clip_gradients(grads, 0.5)
    assert norm == pytest.approx(np.sqrt(sum((v * v).sum() for v in before.values())))
    assert len(before) == 8
    for name, arr in named_arrays(grads).items():
        np.testing.assert_array_equal(arr, before[name] * (0.5 / norm), err_msg=name)
    assert np.sqrt((grads.flat * grads.flat).sum()) == pytest.approx(0.5)


def test_max_len_defaults_to_the_model_config_window(tiny_world):
    docs, dev, vocab, labels = tiny_world
    # 24 words a note, so a window of 16 truncates every one of them
    long_docs = [replace(d, text=" ".join([d.text] * 4)) for d in docs[:6]]
    assert min(len(d.text.split()) for d in long_docs) > ModelConfig.max_len
    params = tiny_params(vocab, labels, seed=5)
    cfg = TrainConfig(epochs=1, batch_size=4)
    window = ModelConfig.max_len
    dev_split = loss_inputs(dev[:4], vocab, labels, window)
    best, log = train(long_docs, dev_split, params, vocab, labels, cfg)
    want_best, want_log = train(long_docs, dev_split, params, vocab, labels, cfg, max_len=window)
    np.testing.assert_array_equal(best.flat, want_best.flat)
    assert log == want_log


def test_train_tokenizes_each_split_once(tiny_world, monkeypatch):
    docs, dev, vocab, labels = tiny_world
    real, tokenized = model.batch_inputs, []

    def spy(split, *args):
        tokenized.append(len(split))
        return real(split, *args)

    monkeypatch.setattr(model, "batch_inputs", spy)
    cfg = TrainConfig(epochs=2, batch_size=8)
    dev_split = loss_inputs(dev, vocab, labels)
    train(docs, dev_split, tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    assert tokenized == [len(docs)]  # not once per batch; the dev split comes as arrays
    tokenized.clear()
    train(docs, None, tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    assert tokenized == [len(docs)]


def test_train_cuts_each_batch_to_its_longest_note(tiny_world, monkeypatch):
    docs, _, vocab, labels = tiny_world
    # notes of 0 to 9 words in a window of 2 + 6 ids: some batches fill it, some do not
    rng = np.random.default_rng(3)
    mixed = [replace(d, text=" ".join(rng.choice(d.text.split() * 2, size=rng.integers(0, 10))))
             for d in docs]
    full_rows = batch_inputs(mixed, vocab, 8)[0]
    forwarded = []

    def forward_spy(p, ids, **kw):
        if ids is not CELL_IDS:  # skip the demographic view
            forwarded.append(np.array(ids))
        return forward_batch(p, ids, **kw)

    monkeypatch.setattr(model, "forward_batch", forward_spy)
    cfg = TrainConfig(epochs=2, batch_size=3)
    train(mixed, None, tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    assert len(forwarded) == 2 * 8  # 24 notes in batches of 3, two epochs, no dev split
    widths = [ids.shape[1] for ids in forwarded]
    assert widths == [int((ids != PAD_ID).sum(axis=1).max()) for ids in forwarded]
    assert min(widths) < 8 == max(widths)
    for epoch in (forwarded[:8], forwarded[8:]):  # every note once an epoch, uncut
        rows = np.concatenate([np.pad(ids, ((0, 0), (0, 8 - ids.shape[1]))) for ids in epoch])
        assert sorted(rows.tolist()) == sorted(full_rows.tolist())


def test_adam_first_step_is_signed_lr(tiny_world):
    # at t=1 the bias-corrected update is lr * g / (|g| + eps) ~ lr * sign(g)
    _, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels, seed=1)
    grads = with_arrays(params, {k: np.ones_like(v) for k, v in named_arrays(params).items()})
    before = {k: v.copy() for k, v in named_arrays(params).items()}
    cfg = TrainConfig(learning_rate=1e-3)
    state = AdamState.for_params(params)
    adam_step(params, grads, state, cfg)
    assert state.t == 1
    for k, arr in named_arrays(params).items():
        np.testing.assert_allclose(before[k] - arr, 1e-3, rtol=1e-6)


def reference_adam_step(params, grads: dict, state, cfg) -> None:
    """The per-array Adam update that the flat, in-place adam_step replaced,
    kept verbatim as its oracle."""
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    correct1 = 1.0 - b1 ** state.t
    correct2 = 1.0 - b2 ** state.t
    for name, arr in named_arrays(params).items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = state.m[name] / correct1
        v_hat = state.v[name] / correct2
        arr -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


@pytest.mark.parametrize("lr, beta1, beta2", [(1e-3, 0.9, 0.999), (0.05, 0.5, 0.9)])
def test_flat_adam_matches_the_per_array_reference_bitwise(tiny_world, lr, beta1, beta2):
    _, _, vocab, labels = tiny_world
    cfg = TrainConfig(learning_rate=lr, adam_beta1=beta1, adam_beta2=beta2)
    params = tiny_params(vocab, labels, seed=4)
    ref = params.copy()
    state = AdamState.for_params(params)
    ref_state = SimpleNamespace(
        t=0,
        m={k: np.zeros_like(a) for k, a in named_arrays(ref).items()},
        v={k: np.zeros_like(a) for k, a in named_arrays(ref).items()},
    )
    rng = np.random.default_rng(11)
    for _ in range(60):
        # gradients over many scales, with exact zeros as in unseen embedding rows
        g = rng.normal(size=params.flat.size) * 10.0 ** rng.integers(-8, 4, size=params.flat.size)
        g[rng.random(g.size) < 0.3] = 0.0
        grads = ModelParams(params.dims, g)
        adam_step(params, grads, state, cfg)
        reference_adam_step(ref, {k: a.copy() for k, a in named_arrays(grads).items()}, ref_state, cfg)
        assert params.flat.tobytes() == ref.flat.tobytes()
        for flat, per_array in ((state.m, ref_state.m), (state.v, ref_state.v)):
            assert flat.tobytes() == np.concatenate([a.ravel() for a in per_array.values()]).tobytes()
    assert state.t == ref_state.t == 60


def test_params_are_views_of_one_flat_vector(tiny_world, tmp_path):
    _, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels, seed=5)
    shapes = param_shapes(*params.dims)
    arrays = named_arrays(params)
    assert list(arrays) == list(shapes)
    start = 0
    for name, shape in shapes.items():
        assert arrays[name].shape == shape and np.shares_memory(arrays[name], params.flat), name
        size = math.prod(shape)
        np.testing.assert_array_equal(arrays[name].ravel(), params.flat[start: start + size])
        start += size
    assert start == params.flat.size
    # writing flat writes the named views
    params.flat[:] = np.arange(params.flat.size)
    assert params.embedding[0, 1] == 1.0
    assert params.gate_bias[-1] == params.flat.size - 1
    # the checkpoint holds flat as float32, between the 28-byte header and the metadata
    path = tmp_path / "m.deci"
    save_checkpoint(path, params, vocab, labels, max_len=8)
    blob = path.read_bytes()
    want = params.flat.astype("<f4").tobytes()
    assert metadata_offset(blob) == 28 + len(want)
    assert blob[28: 28 + len(want)] == want
    # ModelParams takes exactly the one flat vector its dims lay out
    for bad in (params.flat[:-1], np.zeros(params.flat.size + 1), params.flat.reshape(1, -1)):
        with pytest.raises(DimensionError):
            ModelParams(params.dims, bad)


def test_train_zero_lr_is_a_no_op(tiny_world):
    docs, dev, vocab, labels = tiny_world
    dev_split = loss_inputs(dev, vocab, labels)
    params = tiny_params(vocab, labels, seed=3)
    cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=0)
    out, log = train(docs, dev_split, params, vocab, labels, cfg, max_len=8)
    for k, arr in named_arrays(out).items():
        np.testing.assert_array_equal(arr, named_arrays(params)[k])
    losses = [rec["train_loss"] for rec in log]
    assert losses[0] == pytest.approx(losses[-1], abs=1e-12)


def test_train_deterministic(tiny_world):
    docs, dev, vocab, labels = tiny_world
    dev_split = loss_inputs(dev, vocab, labels)
    # small batches so the shuffle seed genuinely reorders batch membership
    cfg = TrainConfig(epochs=2, seed=5, batch_size=8)
    a, log_a = train(docs, dev_split, tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    b, log_b = train(docs, dev_split, tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    for k, arr in named_arrays(a).items():
        np.testing.assert_array_equal(arr, named_arrays(b)[k])
    assert log_a == log_b
    c, _ = train(docs, dev_split, tiny_params(vocab, labels), vocab, labels,
                 TrainConfig(epochs=2, seed=6, batch_size=8), max_len=8)
    assert (a.embedding != c.embedding).any()


def test_train_log_shape_and_loss_decreases(tiny_world):
    docs, dev, vocab, labels = tiny_world
    dev_split = loss_inputs(dev, vocab, labels)
    cfg = TrainConfig(epochs=4, seed=0)
    _, log = train(docs, dev_split, tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    assert [rec["epoch"] for rec in log] == [1, 2, 3, 4]
    for rec in log:
        assert set(rec) == {"epoch", "train_loss", "loss_k", "loss_d", "loss_e", "dev_metrics"}
        assert set(rec["dev_metrics"]) == {"micro_f1", "macro_f1", "micro_auc"}
    assert log[-1]["train_loss"] < log[0]["train_loss"]


def test_train_keeps_best_dev_params(tiny_world):
    from deci.evaluation import InferenceMode, f1_scores, final_scores_from_z

    docs, dev, vocab, labels = tiny_world
    dev_split = loss_inputs(dev, vocab, labels)
    cfg = TrainConfig(epochs=4, seed=1)
    best, log = train(docs, dev_split, tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    zk, zd, ze = pathway_scores_batch(best, *batch_inputs(dev, vocab, 8))
    scores = final_scores_from_z(zk, zd, ze, InferenceMode.DECI)
    gold = labels.multi_hot_rows(dev)
    _, micro, _ = f1_scores(scores >= 0.5, gold)
    assert micro == pytest.approx(max(r["dev_metrics"]["micro_f1"] for r in log), abs=1e-12)
    assert log[selected_epoch(log) - 1]["dev_metrics"]["micro_f1"] == max(
        r["dev_metrics"]["micro_f1"] for r in log)
    # ties go to the earliest epoch
    tied = [{"epoch": e, "dev_metrics": {"micro_f1": f}} for e, f in ((1, 0.2), (2, 0.5), (3, 0.5))]
    assert selected_epoch(tied) == 2


def test_train_without_dev_returns_final_params(tiny_world):
    docs, _, vocab, labels = tiny_world
    cfg = TrainConfig(epochs=2, seed=0)
    out, log = train(docs, None, params := tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    assert all(rec["dev_metrics"] is None for rec in log)
    assert selected_epoch(log) == 2
    assert (out.embedding != params.embedding).any()


def test_train_rejects_empty_and_aborts_on_nan(tiny_world):
    docs, dev, vocab, labels = tiny_world
    dev_split = loss_inputs(dev, vocab, labels)
    params = tiny_params(vocab, labels)
    with pytest.raises(ValueError):
        train([], dev_split, params, vocab, labels, TrainConfig(), max_len=8)
    poisoned = params.copy()
    poisoned.embedding[:] = np.nan
    with pytest.raises(NumericalError, match="epoch 1"):
        train(docs, dev_split, poisoned, vocab, labels, TrainConfig(), max_len=8)


def single_precision(params):
    return with_arrays(params, {k: v.astype("<f4").astype(np.float64) for k, v in named_arrays(params).items()})


def test_checkpoint_round_trip_bit_exact_after_cast(tiny_world, tmp_path):
    docs, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels, seed=8)
    path = tmp_path / "model.deci"
    save_checkpoint(path, params, vocab, labels, max_len=8, config={"alpha": 0.5})
    ckpt = load_checkpoint(path)
    cast = single_precision(params)
    for k, arr in named_arrays(ckpt.params).items():
        np.testing.assert_array_equal(arr, named_arrays(cast)[k])
    assert ckpt.vocab.to_list() == vocab.to_list()
    assert ckpt.label_space == labels
    assert ckpt.max_len == 8
    assert ckpt.config == {"alpha": 0.5}
    # forward through loaded params matches forward through cast params exactly
    want = pathway_scores_batch(cast, *batch_inputs(docs[:3], vocab, 8))
    got = pathway_scores_batch(ckpt.params, *batch_inputs(docs[:3], vocab, 8))
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_checkpoint_second_round_trip_is_byte_identical(tiny_world, tmp_path):
    docs, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels, seed=8)
    p1 = tmp_path / "a.deci"
    p2 = tmp_path / "b.deci"
    save_checkpoint(p1, params, vocab, labels, max_len=8)
    ckpt = load_checkpoint(p1)
    save_checkpoint(p2, ckpt.params, ckpt.vocab, ckpt.label_space, ckpt.max_len)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_failed_save_leaves_no_temp_file(tiny_world, tmp_path):
    _, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels)
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        save_checkpoint(target, params, vocab, labels, max_len=8)
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert target.is_dir()


def test_checkpoint_is_fsynced_before_the_rename(tiny_world, tmp_path, monkeypatch):
    _, _, vocab, labels = tiny_world
    target = tmp_path / "model.deci"
    real_fsync = os.fsync
    synced = []

    def fsync(fd):
        (tmp,) = tmp_path.glob("model.deci.tmp.*")
        synced.append((os.path.samestat(os.fstat(fd), tmp.stat()), target.exists(), tmp.stat().st_size))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    save_checkpoint(target, tiny_params(vocab, labels), vocab, labels, max_len=8)
    assert synced == [(True, False, target.stat().st_size)]


def test_checkpoint_magic_and_version_rejected(tiny_world, tmp_path):
    _, _, vocab, labels = tiny_world
    path = tmp_path / "m.deci"
    save_checkpoint(path, tiny_params(vocab, labels), vocab, labels, max_len=8)
    blob = bytearray(path.read_bytes())
    assert blob[:4] == CHECKPOINT_MAGIC

    bad = tmp_path / "bad.deci"
    bad.write_bytes(b"NOPE" + bytes(blob[4:]))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(bad)

    blob2 = bytearray(blob)
    blob2[4:8] = (99).to_bytes(4, "little")
    bad.write_bytes(bytes(blob2))
    with pytest.raises(FormatError, match="99"):
        load_checkpoint(bad)


def test_checkpoint_truncation_and_trailing_bytes(tiny_world, tmp_path):
    _, _, vocab, labels = tiny_world
    path = tmp_path / "m.deci"
    save_checkpoint(path, tiny_params(vocab, labels), vocab, labels, max_len=8)
    blob = path.read_bytes()
    bad = tmp_path / "bad.deci"
    for cut in (0, 3, 8, 20, len(blob) // 2, len(blob) - 1):
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(bad)
    bad.write_bytes(blob + b"x")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(bad)
    # dims whose array sizes overflow int64: the embedding alone is ~1.8e19 floats
    bad.write_bytes(blob[:8] + struct.pack("<5I", 2**32 - 1, 2**32 - 1, 1, 1, 1) + blob[28:])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(bad)
    # a non-finite parameter is a format error, not a model that scores NaN
    for value in (math.nan, math.inf):
        bad.write_bytes(blob[:28] + struct.pack("<f", value) + blob[32:])
        with pytest.raises(FormatError, match="non-finite"):
            load_checkpoint(bad)


def metadata_offset(checkpoint: bytes) -> int:
    """Offset of the metadata blob's u32 length prefix: after the 28-byte
    header and the float32 arrays, whose sizes follow from the header dims."""
    vocab, d_e, d_h, n_labels, n_experts = struct.unpack_from("<5I", checkpoint, 8)
    n_floats = (vocab * d_e + d_e * d_h + d_h + n_labels * d_h + n_experts * n_labels * d_h
                + n_experts * n_labels + d_h * n_experts + n_experts)
    start = 28 + 4 * n_floats
    assert struct.unpack_from("<I", checkpoint, start)[0] == len(checkpoint) - start - 4
    return start


def with_metadata(checkpoint: bytes, blob: bytes) -> bytes:
    """The checkpoint with its metadata blob replaced by blob."""
    start = metadata_offset(checkpoint)
    return checkpoint[:start] + struct.pack("<I", len(blob)) + blob


@pytest.fixture
def saved_checkpoint(tiny_world, tmp_path):
    _, _, vocab, labels = tiny_world
    path = tmp_path / "m.deci"
    save_checkpoint(path, tiny_params(vocab, labels), vocab, labels, max_len=8)
    return path


def test_checkpoint_rejects_garbage_metadata(saved_checkpoint, tmp_path):
    bad = tmp_path / "bad.deci"
    bad.write_bytes(with_metadata(saved_checkpoint.read_bytes(), b"not json" * 2))
    with pytest.raises(FormatError, match="unreadable metadata"):
        load_checkpoint(bad)


@pytest.mark.parametrize("change,match", [
    pytest.param(lambda meta: 5, "not a JSON object", id="number"),
    pytest.param(lambda meta: json.dumps(meta), "not a JSON object", id="encoded-twice"),
    pytest.param(lambda meta: {**meta, "labels": 3}, "'labels' must be a list of strings",
                 id="labels-number"),
    pytest.param(lambda meta: {**meta, "vocabulary": [*meta["vocabulary"][:-1], 7]},
                 "'vocabulary' must be a list of strings", id="vocabulary-number-token"),
    pytest.param(lambda meta: {**meta, "max_len": "abc"}, "'max_len' must be an integer",
                 id="max_len-string"),
    pytest.param(lambda meta: {**meta, "max_len": 1}, "'max_len' must be an integer",
                 id="max_len-1"),
    pytest.param(lambda meta: {**meta, "max_len": True}, "'max_len' must be an integer",
                 id="max_len-bool"),
    # a pooled-gate checkpoint: this model has only the per-label gate
    pytest.param(lambda meta: {**meta, "gate_per_label": False},
                 "'gate_per_label' must be true", id="pooled-gate"),
])
def test_checkpoint_rejects_malformed_metadata(saved_checkpoint, tmp_path, change, match):
    data = saved_checkpoint.read_bytes()
    meta = json.loads(data[metadata_offset(data) + 4:])
    bad = tmp_path / "bad.deci"
    bad.write_bytes(with_metadata(data, json.dumps(change(meta)).encode("utf-8")))
    with pytest.raises(FormatError, match=match):
        load_checkpoint(bad)
