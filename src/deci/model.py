"""Label-attention encoder with a gated expert head, run on two input views.

A document is encoded twice through the same parameters. The full view
(two demographic tokens prepended to the note) yields the knowledge score
z_k, the gated expert mixture, and the uniform-expert score z_e. The
demographic-only view, the first two ids of the full row, yields z_d, its
gated mixture. evaluation.final_scores_from_z combines the three pathways
into the debiased score.

All math is float64. forward_batch and backward_batch are the one model
implementation: training, evaluation and prediction all run through them.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import PAD_ID, Vocabulary, build_model_input
from .errors import ConfigError, DimensionError

# Generic input window for real notes. The bundled synthetic experiment runs
# at a much smaller window (ModelConfig.max_len = 16) so that part of the
# keyword evidence is truncated away; see corpus.SyntheticConfig.
DEFAULT_MAX_LEN = 256


@dataclass
class ModelConfig:
    """Architecture and input window of the bundled experiment."""

    embed_dim: int = 100
    hidden_dim: int = 100
    n_experts: int = 4
    max_len: int = 16

    def validate(self) -> None:
        # Each check is written so that NaN fails it.
        for name in ("embed_dim", "hidden_dim", "n_experts"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        # a full row starts with the two demographic tokens
        if not self.max_len >= 2:
            raise ConfigError(f"max_len must be at least 2, got {self.max_len}")


@dataclass
class ModelParams:
    """All trainable arrays."""

    embedding: np.ndarray      # (vocab, d_e)
    enc_proj: np.ndarray       # (d_e, d_h)
    enc_bias: np.ndarray       # (d_h,)
    label_queries: np.ndarray  # (n_labels, d_h)
    expert_w: np.ndarray       # (n_experts, n_labels, d_h)
    expert_b: np.ndarray       # (n_experts, n_labels)
    gate_w: np.ndarray         # (d_h, n_experts)
    gate_bias: np.ndarray      # (n_experts,)

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.embedding.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.enc_proj.shape[1]

    @property
    def n_labels(self) -> int:
        return self.label_queries.shape[0]

    @property
    def n_experts(self) -> int:
        return self.expert_w.shape[0]

    # Array order here is also the checkpoint serialization order.
    def named_arrays(self) -> dict[str, np.ndarray]:
        return {
            "embedding": self.embedding,
            "enc_proj": self.enc_proj,
            "enc_bias": self.enc_bias,
            "label_queries": self.label_queries,
            "expert_w": self.expert_w,
            "expert_b": self.expert_b,
            "gate_w": self.gate_w,
            "gate_bias": self.gate_bias,
        }

    def with_arrays(self, arrays: dict) -> "ModelParams":
        return ModelParams(**{k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()})

    def copy(self) -> "ModelParams":
        return self.with_arrays({k: v.copy() for k, v in self.named_arrays().items()})


def init_params(
    vocab_size: int,
    n_labels: int,
    embed_dim: int = ModelConfig.embed_dim,
    hidden_dim: int = ModelConfig.hidden_dim,
    n_experts: int = ModelConfig.n_experts,
    seed: int = 0,
) -> ModelParams:
    """Fresh parameters: uniform(-0.1, 0.1) embeddings, scaled-uniform
    projections, zero biases and zero gate weights.

    Zero gate weights make the gate uniform at step 0, so z_k and z_e start
    identical; training then differentiates the gated mixture from the
    uniform one.
    """
    if min(vocab_size, n_labels, embed_dim, hidden_dim, n_experts) < 1:
        raise DimensionError("all model dimensions must be positive")
    rng = np.random.default_rng(seed)
    proj_bound = np.sqrt(6.0 / (embed_dim + hidden_dim))
    row_bound = np.sqrt(6.0 / (hidden_dim + 1))  # per-label linear functionals
    return ModelParams(
        embedding=rng.uniform(-0.1, 0.1, size=(vocab_size, embed_dim)),
        enc_proj=rng.uniform(-proj_bound, proj_bound, size=(embed_dim, hidden_dim)),
        enc_bias=np.zeros(hidden_dim),
        label_queries=rng.uniform(-row_bound, row_bound, size=(n_labels, hidden_dim)),
        expert_w=rng.uniform(-row_bound, row_bound, size=(n_experts, n_labels, hidden_dim)),
        expert_b=np.zeros((n_experts, n_labels)),
        gate_w=np.zeros((hidden_dim, n_experts)),
        gate_bias=np.zeros(n_experts),
    )


def _validate_ids(params: ModelParams, ids: np.ndarray) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= params.vocab_size):
        bad = ids[(ids < 0) | (ids >= params.vocab_size)][0]
        raise IndexError(f"token id {int(bad)} outside vocabulary of size {params.vocab_size}")


@dataclass
class BatchBranch:
    """Intermediates of one branch over a batch, enough to backpropagate."""

    token_ids: np.ndarray    # (B, N)
    embedded: np.ndarray     # (B, N, d_e)
    encoded: np.ndarray      # (B, N, d_h)
    attention: np.ndarray    # (B, L, N)
    label_repr: np.ndarray   # (B, L, d_h)
    expert_scores: np.ndarray  # (B, F, L)
    gate: np.ndarray         # (B, L, F)
    gated: np.ndarray        # (B, L)
    uniform: np.ndarray      # (B, L)


def _softmax_last(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def forward_batch(params: ModelParams, ids: np.ndarray) -> BatchBranch:
    """Encode a batch of token-id rows (B, N) through one branch."""
    ids = np.asarray(ids, dtype=np.int64)
    _validate_ids(params, ids)
    B = ids.shape[0]
    L, F = params.n_labels, params.n_experts
    mask = ids != PAD_ID
    embedded = params.embedding[ids] * mask[..., None]
    encoded = np.tanh(embedded @ params.enc_proj + params.enc_bias) * mask[..., None]

    logits = params.label_queries @ encoded.transpose(0, 2, 1)
    logits = np.where(mask[:, None, :], logits, -np.inf)
    rowmax = logits.max(axis=2, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)  # all-PAD documents
    att = np.exp(logits - rowmax)
    denom = att.sum(axis=2, keepdims=True)
    att = att / np.where(denom == 0.0, 1.0, denom)
    label_repr = att @ encoded

    # One (B, d_h) @ (d_h, F) product per label, written into a C-contiguous
    # (B, L, F) array, so that gated and uniform below reduce the same layout
    # and a uniform gate gives them bitwise equal.
    scores = np.empty((B, L, F))
    np.matmul(label_repr.transpose(1, 0, 2), params.expert_w.transpose(1, 2, 0),
              out=scores.transpose(1, 0, 2))
    scores += params.expert_b.T
    gate = _softmax_last(label_repr @ params.gate_w + params.gate_bias)
    gated = (gate * scores).sum(axis=-1)
    uniform = (scores * (1.0 / F)).sum(axis=-1)
    return BatchBranch(
        token_ids=ids, embedded=embedded, encoded=encoded, attention=att,
        label_repr=label_repr, expert_scores=scores.transpose(0, 2, 1), gate=gate,
        gated=gated, uniform=uniform,
    )


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.named_arrays().items()}


def backward_batch(
    params: ModelParams,
    br: BatchBranch,
    d_gated: np.ndarray,
    d_uniform: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Accumulate parameter gradients for one branch into grads.

    d_gated and d_uniform are (B, L) gradients of the loss with respect to
    this branch's gated and uniform mixtures. Every contraction is a matmul:
    2-D over the (B*L) or (B*N) rows, or batched over B or over the labels.
    """
    L, F = params.n_labels, params.n_experts
    d_e, d_h = params.embed_dim, params.hidden_dim
    S, G, H = br.expert_scores.transpose(0, 2, 1), br.gate, br.label_repr  # (B, L, F), (B, L, d_h)

    dS = d_gated[..., None] * G + (d_uniform / F)[..., None]
    dS_by_label = dS.transpose(1, 0, 2)  # (L, B, F)
    grads["expert_w"] += (dS_by_label.transpose(0, 2, 1) @ H.transpose(1, 0, 2)).transpose(1, 0, 2)
    grads["expert_b"] += dS.sum(axis=0).T
    dH = np.empty_like(H)  # C-contiguous, for the batched products below
    np.matmul(dS_by_label, params.expert_w.transpose(1, 0, 2), out=dH.transpose(1, 0, 2))

    dG = d_gated[..., None] * S
    dglog = G * (dG - (G * dG).sum(axis=-1, keepdims=True))
    grads["gate_w"] += H.reshape(-1, d_h).T @ dglog.reshape(-1, F)
    grads["gate_bias"] += dglog.sum(axis=(0, 1))
    dH += dglog @ params.gate_w.T

    A, E = br.attention, br.encoded
    dA = dH @ E.transpose(0, 2, 1)
    dE = A.transpose(0, 2, 1) @ dH
    dalog = A * (dA - (A * dA).sum(axis=-1, keepdims=True))
    grads["label_queries"] += dalog.transpose(1, 0, 2).reshape(L, -1) @ E.reshape(-1, d_h)
    dE += dalog.transpose(0, 2, 1) @ params.label_queries

    dU = dE * (1.0 - E * E)  # tanh'; PAD rows of dE are ±0, as attention is 0 there
    grads["enc_proj"] += br.embedded.reshape(-1, d_e).T @ dU.reshape(-1, d_h)
    grads["enc_bias"] += dU.sum(axis=(0, 1))
    dX = dU.reshape(-1, d_h) @ params.enc_proj.T
    _add_rows(grads["embedding"], br.token_ids.ravel(), dX)


def _add_rows(target: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """target[ids[i]] += rows[i] for every i, touching only the rows of ids.

    A stable sort groups equal ids with their rows in input order, and
    np.add.reduceat sums each group before the one add into target.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
    target[sorted_ids[starts]] += np.add.reduceat(rows[order], starts, axis=0)


def batch_inputs(docs, vocab: Vocabulary, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack full and demographic-only id rows; trailing all-PAD columns dropped.

    A full row starts with the two demographic ids, which are the whole
    demographic-only view, so that view is the first two columns.
    """
    full = np.stack([build_model_input(d, vocab, max_len) for d in docs])
    keep = int((full != PAD_ID).sum(axis=1).max())
    return full[:, :keep], full[:, :2].copy()


def pathway_scores_batch(params, docs, vocab: Vocabulary, max_len: int, batch_size: int = 256):
    """(z_k, z_d, z_e) arrays of shape (n_docs, n_labels) for a document list."""
    zk, zd, ze = [], [], []
    for lo in range(0, len(docs), batch_size):
        chunk = docs[lo: lo + batch_size]
        full_ids, demo_ids = batch_inputs(chunk, vocab, max_len)
        full = forward_batch(params, full_ids)
        demo = forward_batch(params, demo_ids)
        zk.append(full.gated)
        zd.append(demo.gated)
        ze.append(full.uniform)
    if not zk:
        empty = np.zeros((0, params.n_labels))
        return empty, empty.copy(), empty.copy()
    return np.concatenate(zk), np.concatenate(zd), np.concatenate(ze)
