"""Joint objective, hand-derived gradients, the Adam loop, and checkpoints.

The gradient tests are the load-bearing ones: every analytic gradient is
compared against central finite differences through the public loss, for
corner weightings of the two auxiliary heads.
"""

import json
import math
import os
import struct

import numpy as np
import pytest

from deci.corpus import (
    Document,
    LabelSpace,
    SyntheticConfig,
    Vocabulary,
    generate_synthetic,
    synthetic_label_space,
)
from deci.errors import ConfigError, FormatError, NumericalError
from deci.model import init_params, pathway_scores_batch
from deci.numerics import sigmoid
from deci.training import (
    AdamState,
    _bce_and_grad,
    CHECKPOINT_MAGIC,
    TrainConfig,
    adam_step,
    clip_gradients,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    selected_epoch,
    total_loss,
    train,
)
from gradcheck import finite_difference_check

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
    zeroed = params.with_arrays({k: np.zeros_like(v) for k, v in params.named_arrays().items()})
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
    zk = pathway_scores_batch(params, batch, vocab, 8)[0]
    y = np.stack([labels.multi_hot(d.codes) for d in batch])
    p = sigmoid(zk)
    expected = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
    assert got == pytest.approx(expected, abs=1e-12)


def test_loss_rejects_empty_batch(tiny_world):
    _, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels)
    with pytest.raises(ValueError):
        total_loss([], params, TrainConfig(), vocab, labels, max_len=8)


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.0, 0.7), (1.3, 0.0)])
def test_gradients_match_finite_differences(tiny_world, alpha, beta):
    docs, _, vocab, labels = tiny_world
    base = tiny_params(vocab, labels, seed=7)
    # jitter the zero-initialized arrays so no gradient path is trivially zero
    rng = np.random.default_rng(11)
    base = base.with_arrays(
        {k: v + rng.normal(0, 0.2, v.shape) for k, v in base.named_arrays().items()}
    )
    batch = docs[:3]
    cfg = TrainConfig(alpha=alpha, beta=beta)

    def loss_fn(arrays):
        p = base.with_arrays({k: np.asarray(v) for k, v in arrays.items()})
        return total_loss(batch, p, cfg, vocab, labels, max_len=8)

    def grad_fn(arrays):
        p = base.with_arrays({k: np.asarray(v) for k, v in arrays.items()})
        _, grads = loss_and_grads(batch, p, cfg, vocab, labels, max_len=8)
        return grads

    report = finite_difference_check(loss_fn, grad_fn, base.named_arrays(), step=1e-5, tol=1e-3)
    assert report.passed, (report.worst_parameter, report.max_relative_error)


def test_alpha_gates_the_demographic_gradient(tiny_world):
    docs, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels, seed=12)
    batch = docs[:5]
    _, with_demo = loss_and_grads(batch, params, TrainConfig(alpha=0.5, beta=0.0),
                                  vocab, labels, max_len=8)
    _, without = loss_and_grads(batch, params, TrainConfig(alpha=0.0, beta=0.0),
                                vocab, labels, max_len=8)
    assert any((with_demo[k] != without[k]).any() for k in with_demo)


def test_clip_gradients():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum((g * g).sum() for g in grads.values()))
    assert total == pytest.approx(1.0)
    # under the cap, arrays are untouched
    grads = {"a": np.array([0.3])}
    before = grads["a"].copy()
    assert clip_gradients(grads, 1.0) == pytest.approx(0.3)
    np.testing.assert_array_equal(grads["a"], before)
    # inf disables clipping
    grads = {"a": np.array([100.0])}
    clip_gradients(grads, math.inf)
    assert grads["a"][0] == 100.0


def test_adam_first_step_is_signed_lr(tiny_world):
    # at t=1 the bias-corrected update is lr * g / (|g| + eps) ~ lr * sign(g)
    _, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels, seed=1)
    grads = {k: np.ones_like(v) for k, v in params.named_arrays().items()}
    before = {k: v.copy() for k, v in params.named_arrays().items()}
    cfg = TrainConfig(learning_rate=1e-3)
    state = AdamState.for_params(params)
    adam_step(params, grads, state, cfg)
    assert state.t == 1
    for k, arr in params.named_arrays().items():
        np.testing.assert_allclose(before[k] - arr, 1e-3, rtol=1e-6)


def test_train_zero_lr_is_a_no_op(tiny_world):
    docs, dev, vocab, labels = tiny_world
    params = tiny_params(vocab, labels, seed=3)
    cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=0)
    out, log = train(docs, dev, params, vocab, labels, cfg, max_len=8)
    for k, arr in out.named_arrays().items():
        np.testing.assert_array_equal(arr, params.named_arrays()[k])
    losses = [rec["train_loss"] for rec in log]
    assert losses[0] == pytest.approx(losses[-1], abs=1e-12)


def test_train_deterministic(tiny_world):
    docs, dev, vocab, labels = tiny_world
    # small batches so the shuffle seed genuinely reorders batch membership
    cfg = TrainConfig(epochs=2, seed=5, batch_size=8)
    a, log_a = train(docs, dev, tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    b, log_b = train(docs, dev, tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    for k, arr in a.named_arrays().items():
        np.testing.assert_array_equal(arr, b.named_arrays()[k])
    assert log_a == log_b
    c, _ = train(docs, dev, tiny_params(vocab, labels), vocab, labels,
                 TrainConfig(epochs=2, seed=6, batch_size=8), max_len=8)
    assert (a.embedding != c.embedding).any()


def test_train_log_shape_and_loss_decreases(tiny_world):
    docs, dev, vocab, labels = tiny_world
    cfg = TrainConfig(epochs=4, seed=0)
    _, log = train(docs, dev, tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    assert [rec["epoch"] for rec in log] == [1, 2, 3, 4]
    for rec in log:
        assert set(rec) == {"epoch", "train_loss", "loss_k", "loss_d", "loss_e", "dev_metrics"}
        assert set(rec["dev_metrics"]) == {"micro_f1", "macro_f1", "micro_auc"}
    assert log[-1]["train_loss"] < log[0]["train_loss"]


def test_train_keeps_best_dev_params(tiny_world):
    from deci.evaluation import InferenceMode, f1_scores, final_scores_from_z

    docs, dev, vocab, labels = tiny_world
    cfg = TrainConfig(epochs=4, seed=1)
    best, log = train(docs, dev, tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    zk, zd, ze = pathway_scores_batch(best, dev, vocab, 8)
    scores = final_scores_from_z(zk, zd, ze, InferenceMode.DECI)
    gold = np.stack([labels.multi_hot(d.codes) for d in dev])
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
    out, log = train(docs, [], params := tiny_params(vocab, labels), vocab, labels, cfg, max_len=8)
    assert all(rec["dev_metrics"] is None for rec in log)
    assert selected_epoch(log) == 2
    assert (out.embedding != params.embedding).any()


def test_train_rejects_empty_and_aborts_on_nan(tiny_world):
    docs, dev, vocab, labels = tiny_world
    params = tiny_params(vocab, labels)
    with pytest.raises(ValueError):
        train([], dev, params, vocab, labels, TrainConfig(), max_len=8)
    poisoned = params.copy()
    poisoned.embedding[:] = np.nan
    with pytest.raises(NumericalError, match="epoch 1"):
        train(docs, dev, poisoned, vocab, labels, TrainConfig(), max_len=8)


def single_precision(params):
    return params.with_arrays(
        {k: v.astype("<f4").astype(np.float64) for k, v in params.named_arrays().items()}
    )


def test_checkpoint_round_trip_bit_exact_after_cast(tiny_world, tmp_path):
    docs, _, vocab, labels = tiny_world
    params = tiny_params(vocab, labels, seed=8)
    path = tmp_path / "model.deci"
    save_checkpoint(path, params, vocab, labels, max_len=8, config={"alpha": 0.5})
    ckpt = load_checkpoint(path)
    cast = single_precision(params)
    for k, arr in ckpt.params.named_arrays().items():
        np.testing.assert_array_equal(arr, cast.named_arrays()[k])
    assert ckpt.vocab == vocab
    assert ckpt.label_space == labels
    assert ckpt.max_len == 8
    assert ckpt.config == {"alpha": 0.5}
    # forward through loaded params matches forward through cast params exactly
    want = pathway_scores_batch(cast, docs[:3], vocab, 8)
    got = pathway_scores_batch(ckpt.params, docs[:3], vocab, 8)
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
