"""Joint training of the three pathway heads, plus checkpoint serialization.

The objective is BCE(sigmoid(z_k), y) + alpha * BCE(sigmoid(z_d), y)
+ beta * BCE(sigmoid(z_e), y), averaged over the batch. All three heads see
the same gold labels; the demographic and uniform-expert heads exist so that,
at inference, their contribution can be subtracted out. Gradients are
hand-derived for this fixed architecture and checked against central
differences in the test suite.
"""

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from .corpus import LabelSpace, Vocabulary
from .errors import ConfigError, FormatError, NumericalError, ValidationError
from .evaluation import InferenceMode, f1_scores, final_scores_from_z, roc_auc
from .numerics import sigmoid

CHECKPOINT_MAGIC = b"DECI"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    alpha: float = 0.5
    beta: float = 0.5
    learning_rate: float = 1e-3
    epochs: int = 6
    batch_size: int = 32
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip_norm: float = 5.0  # inf disables clipping

    def validate(self) -> None:
        # Each check is written so that NaN fails it.
        if not (self.alpha >= 0 and self.beta >= 0):
            raise ConfigError(f"alpha and beta must be non-negative, got {self.alpha}, {self.beta}")
        # 0 is allowed as a degenerate value so a no-op epoch is expressible.
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate must be non-negative, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if not 0 <= self.adam_beta1 < 1 or not 0 <= self.adam_beta2 < 1:
            raise ConfigError("adam betas must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        if not self.grad_clip_norm > 0:
            raise ConfigError(f"grad_clip_norm must be positive, got {self.grad_clip_norm}")


def _bce_and_grad(z: np.ndarray, y: np.ndarray):
    """Mean BCE over all cells of sigmoid(z) against y, and d(loss)/dz.

    The loss is taken in logits form, softplus(z) - y*z, so it needs no
    clamp and confidently wrong cells keep their gradient sigmoid(z) - y.
    """
    # softplus(z) = max(z, 0) + log1p(exp(-|z|)) never overflows, and unlike
    # np.logaddexp it passes NaN through without a warning.
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    loss = float(np.mean(softplus - y * z))
    return loss, (sigmoid(z) - y) / z.size


def _targets(docs, label_space: LabelSpace) -> np.ndarray:
    return np.stack([label_space.multi_hot(d.codes) for d in docs])


def _batch_loss(docs, params, cfg, vocab, label_space, max_len, want_grads):
    if not docs:
        raise ValueError("empty document batch")
    full_ids, demo_ids = M.batch_inputs(docs, vocab, max_len)
    full = M.forward_batch(params, full_ids)
    demo = M.forward_batch(params, demo_ids)
    y = _targets(docs, label_space)
    loss_k, gk = _bce_and_grad(full.gated, y)
    loss_d, gd = _bce_and_grad(demo.gated, y)
    loss_e, ge = _bce_and_grad(full.uniform, y)
    total = loss_k + cfg.alpha * loss_d + cfg.beta * loss_e
    parts = {"loss_k": loss_k, "loss_d": loss_d, "loss_e": loss_e}
    if not want_grads:
        return total, parts, None
    grads = M.zero_grads(params)
    M.backward_batch(params, full, gk, cfg.beta * ge, grads)
    if cfg.alpha != 0.0:
        M.backward_batch(params, demo, cfg.alpha * gd, np.zeros_like(gd), grads)
    return total, parts, grads


def total_loss(docs, params: M.ModelParams, cfg: TrainConfig, vocab: Vocabulary,
               label_space: LabelSpace, max_len: int = M.DEFAULT_MAX_LEN) -> float:
    """Mean over the batch of the three-term objective."""
    loss, _, _ = _batch_loss(docs, params, cfg, vocab, label_space, max_len, want_grads=False)
    return loss


def loss_and_grads(docs, params: M.ModelParams, cfg: TrainConfig, vocab: Vocabulary,
                   label_space: LabelSpace, max_len: int = M.DEFAULT_MAX_LEN):
    """(total loss, {array name: gradient}) for one batch."""
    loss, _, grads = _batch_loss(docs, params, cfg, vocab, label_space, max_len, want_grads=True)
    return loss, grads


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale grads in place to a global L2 norm of max_norm; returns the raw norm."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: M.ModelParams) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in params.named_arrays().items()},
            v={k: np.zeros_like(a) for k, a in params.named_arrays().items()},
        )


def adam_step(params: M.ModelParams, grads: dict, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place on the parameter arrays."""
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    correct1 = 1.0 - b1 ** state.t
    correct2 = 1.0 - b2 ** state.t
    for name, arr in params.named_arrays().items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = state.m[name] / correct1
        v_hat = state.v[name] / correct2
        arr -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def dev_metrics(dev_docs, params, vocab, label_space, max_len) -> dict:
    """Micro/macro F1 and micro AUC of the debiased scores on a labeled split."""
    zk, zd, ze = M.pathway_scores_batch(params, dev_docs, vocab, max_len)
    scores = final_scores_from_z(zk, zd, ze, InferenceMode.DECI)
    gold = _targets(dev_docs, label_space)
    macro_f1, micro_f1, _ = f1_scores(scores >= 0.5, gold)
    micro_auc = roc_auc(scores.ravel(), gold.ravel())
    return {"micro_f1": micro_f1, "macro_f1": macro_f1, "micro_auc": micro_auc}


def train(train_docs, dev_docs, params: M.ModelParams, vocab: Vocabulary,
          label_space: LabelSpace, cfg: TrainConfig, max_len: int = M.DEFAULT_MAX_LEN):
    """Mini-batch Adam over the joint objective.

    Returns (best_params, epoch_log). best_params are the parameters after
    epoch selected_epoch(epoch_log): the first with the highest dev micro-F1
    of thresholded debiased predictions, or the last with no dev documents.
    The epoch log has one record per epoch: {"epoch", "train_loss",
    "loss_k", "loss_d", "loss_e", "dev_metrics"}. Fixed cfg.seed fixes the
    shuffle order, so runs are bit-for-bit reproducible.
    """
    cfg.validate()
    if not train_docs:
        raise ValidationError("empty training set")
    params = params.copy()
    state = AdamState.for_params(params)
    rng = np.random.default_rng(cfg.seed)
    log = []
    n = len(train_docs)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        sums = {"loss": 0.0, "loss_k": 0.0, "loss_d": 0.0, "loss_e": 0.0}
        for start in range(0, n, cfg.batch_size):
            idx = order[start: start + cfg.batch_size]
            batch = [train_docs[i] for i in idx]
            loss, parts, grads = _batch_loss(batch, params, cfg, vocab, label_space, max_len, want_grads=True)
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite loss in epoch {epoch}, batch {start // cfg.batch_size}")
            clip_gradients(grads, cfg.grad_clip_norm)
            adam_step(params, grads, state, cfg)
            sums["loss"] += loss * len(batch)
            for k in parts:
                sums[k] += parts[k] * len(batch)
        record = {
            "epoch": epoch,
            "train_loss": sums["loss"] / n,
            "loss_k": sums["loss_k"] / n,
            "loss_d": sums["loss_d"] / n,
            "loss_e": sums["loss_e"] / n,
            "dev_metrics": None,
        }
        if dev_docs:
            record["dev_metrics"] = dev_metrics(dev_docs, params, vocab, label_space, max_len)
        log.append(record)
        if selected_epoch(log) == epoch:
            best_params = params.copy()
    return best_params, log


def selected_epoch(log) -> int:
    """The epoch whose parameters train() returns with this log: the first
    with the highest dev micro-F1, or the last when there was no dev split."""
    if log[-1]["dev_metrics"] is None:
        return log[-1]["epoch"]
    return max(log, key=lambda r: r["dev_metrics"]["micro_f1"])["epoch"]


# ---------------------------------------------------------------------------
# Checkpoint format: b"DECI", u32 version, five u32 dims (vocab, d_e, d_h,
# n_labels, n_experts), the parameter arrays row-major little-endian float32
# in named_arrays() order, then a u32-length-prefixed UTF-8 JSON blob with the
# vocabulary, label space, max_len, a config echo, and "gate_per_label": true.
# That last field is constant: the gate is always per label, and a checkpoint
# that says otherwise is refused.
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    params: M.ModelParams
    vocab: Vocabulary
    label_space: LabelSpace
    max_len: int
    config: dict


def _array_shapes(vocab_size, d_e, d_h, n_labels, n_experts):
    return {
        "embedding": (vocab_size, d_e),
        "enc_proj": (d_e, d_h),
        "enc_bias": (d_h,),
        "label_queries": (n_labels, d_h),
        "expert_w": (n_experts, n_labels, d_h),
        "expert_b": (n_experts, n_labels),
        "gate_w": (d_h, n_experts),
        "gate_bias": (n_experts,),
    }


def save_checkpoint(path, params: M.ModelParams, vocab: Vocabulary, label_space: LabelSpace,
                    max_len: int, config: dict | None = None) -> None:
    """Serialize to path atomically (write and fsync a temp file, then rename)."""
    meta = {
        "vocabulary": vocab.to_list(),
        "labels": list(label_space.labels),
        "max_len": int(max_len),
        "gate_per_label": True,
        "config": config or {},
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    dims = (params.vocab_size, params.embed_dim, params.hidden_dim, params.n_labels, params.n_experts)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<5I", *dims))
            for arr in params.named_arrays().values():
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Parse and validate a checkpoint; any truncation or mismatch raises
    FormatError before anything is returned, so there is no partial state."""
    with open(path, "rb") as fh:
        data = fh.read()
    view = memoryview(data)
    pos = 0

    def take(n: int, what: str):
        nonlocal pos
        if pos + n > len(data):
            raise FormatError(f"truncated checkpoint: expected {n} bytes for {what} at offset {pos}")
        chunk = view[pos: pos + n]
        pos += n
        return chunk

    magic = bytes(take(4, "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    dims = struct.unpack("<5I", take(20, "dimensions"))
    if min(dims) < 1:
        raise FormatError(f"non-positive dimension in header: {dims}")
    arrays = {}
    for name, shape in _array_shapes(*dims).items():
        count = math.prod(shape)  # Python ints: a forged header cannot wrap it
        raw = take(4 * count, f"array {name}")
        arrays[name] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
    (blob_len,) = struct.unpack("<I", take(4, "metadata length"))
    blob = bytes(take(blob_len, "metadata"))
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes after metadata")
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable metadata blob: {exc}") from None
    _check_metadata(meta)
    vocab = Vocabulary.from_list(meta["vocabulary"])
    label_space = LabelSpace(meta["labels"])
    if vocab.size != dims[0] or len(label_space) != dims[3]:
        raise FormatError("metadata vocabulary/label sizes disagree with header dimensions")
    return Checkpoint(params=M.ModelParams(**arrays), vocab=vocab, label_space=label_space,
                      max_len=meta["max_len"], config=meta.get("config", {}))


def _check_metadata(meta) -> None:
    if not isinstance(meta, dict):
        raise FormatError("metadata blob is not a JSON object")
    for key in ("vocabulary", "labels", "max_len", "gate_per_label"):
        if key not in meta:
            raise FormatError(f"metadata missing key {key!r}")
    for key in ("vocabulary", "labels"):
        if not isinstance(meta[key], list) or not all(isinstance(t, str) for t in meta[key]):
            raise FormatError(f"metadata {key!r} must be a list of strings")
    max_len = meta["max_len"]
    if not isinstance(max_len, int) or isinstance(max_len, bool) or max_len < 2:
        raise FormatError(f"metadata 'max_len' must be an integer of at least 2, got {max_len!r}")
    if meta["gate_per_label"] is not True:
        raise FormatError("metadata 'gate_per_label' must be true: pooled gating is not supported")
