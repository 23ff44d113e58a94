"""Label-attention encoder with a gated expert head, run on two input views.

One forward pass encodes a document twice: the full view (demographic tokens
prepended to the note) yields the knowledge score z_k and the uniform-expert
score z_e; the demographic-only view yields z_d through the same parameters.
The debiased score z_f = sigmoid(z_k + z_d + z_e) - sigmoid(z_d + z_e)
keeps only what the note text adds on top of the demographic shortcut.

All math is float64. The batched pass used for training and the single
document functions below compute identical values; tests pin them together.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import Document, InputMode, PAD_ID, Vocabulary, build_model_input
from .errors import DimensionError
from .numerics import sigmoid

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
    gate_per_label: bool = True


@dataclass
class ModelParams:
    """All trainable arrays. gate_per_label selects per-label vs pooled gating."""

    embedding: np.ndarray      # (vocab, d_e)
    enc_proj: np.ndarray       # (d_e, d_h)
    enc_bias: np.ndarray       # (d_h,)
    label_queries: np.ndarray  # (n_labels, d_h)
    expert_w: np.ndarray       # (n_experts, n_labels, d_h)
    expert_b: np.ndarray       # (n_experts, n_labels)
    gate_w: np.ndarray         # (d_h, n_experts)
    gate_bias: np.ndarray      # (n_experts,)
    gate_per_label: bool = True

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
        return ModelParams(
            **{k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()},
            gate_per_label=self.gate_per_label,
        )

    def copy(self) -> "ModelParams":
        return self.with_arrays({k: v.copy() for k, v in self.named_arrays().items()})


def init_params(
    vocab_size: int,
    n_labels: int,
    embed_dim: int = ModelConfig.embed_dim,
    hidden_dim: int = ModelConfig.hidden_dim,
    n_experts: int = ModelConfig.n_experts,
    seed: int = 0,
    gate_per_label: bool = ModelConfig.gate_per_label,
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
        gate_per_label=gate_per_label,
    )


@dataclass
class PathwayScores:
    """Raw per-label scores of the three pathways plus the debiased z_f."""

    z_k: np.ndarray
    z_d: np.ndarray
    z_e: np.ndarray
    z_f: np.ndarray

    @classmethod
    def from_pathways(cls, z_k, z_d, z_e) -> "PathwayScores":
        z_k = np.asarray(z_k, dtype=np.float64)
        z_d = np.asarray(z_d, dtype=np.float64)
        z_e = np.asarray(z_e, dtype=np.float64)
        if not (z_k.shape == z_d.shape == z_e.shape):
            raise DimensionError("pathway score vectors must share one shape")
        z_f = sigmoid(z_k + z_d + z_e) - sigmoid(z_d + z_e)
        return cls(z_k=z_k, z_d=z_d, z_e=z_e, z_f=z_f)


@dataclass
class BranchTrace:
    """Intermediates of one encoding branch, enough to backpropagate."""

    token_ids: np.ndarray   # (N,)
    mask: np.ndarray        # (N,) True at non-PAD
    embedded: np.ndarray    # (N, d_e), PAD rows zero
    encoded: np.ndarray     # (N, d_h), PAD rows zero
    attention: np.ndarray   # (n_labels, N), rows sum to 1 over non-PAD
    label_repr: np.ndarray  # (n_labels, d_h)
    expert_scores: np.ndarray  # (n_experts, n_labels)
    gate: np.ndarray        # (n_labels, n_experts), rows are distributions
    gated: np.ndarray       # (n_labels,) gate-weighted expert mixture
    uniform: np.ndarray     # (n_labels,) equal-weight expert mixture
    degenerate: bool        # True when every position was PAD


@dataclass
class ForwardTrace:
    full: BranchTrace
    demo: BranchTrace


def _validate_ids(params: ModelParams, ids: np.ndarray) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= params.vocab_size):
        bad = ids[(ids < 0) | (ids >= params.vocab_size)][0]
        raise IndexError(f"token id {int(bad)} outside vocabulary of size {params.vocab_size}")


def encode(params: ModelParams, token_ids) -> np.ndarray:
    """Token ids (N,) -> encoded rows (N, d_h): tanh(embed @ enc_proj + bias).

    PAD rows come out exactly zero and are excluded from attention later.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    _validate_ids(params, ids)
    mask = (ids != PAD_ID)[:, None]
    embedded = params.embedding[ids] * mask
    return np.tanh(embedded @ params.enc_proj + params.enc_bias) * mask


def label_attention(params: ModelParams, encoded: np.ndarray, mask: np.ndarray):
    """Per-label softmax attention over non-PAD positions.

    Returns (label_repr (n_labels, d_h), attention (n_labels, N), degenerate).
    An all-PAD input yields zero representations and degenerate=True.
    """
    logits = params.label_queries @ encoded.T  # (L, N)
    if not mask.any():
        L, N = logits.shape
        return np.zeros((L, encoded.shape[1])), np.zeros((L, N)), True
    logits = np.where(mask[None, :], logits, -np.inf)
    attn = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn /= attn.sum(axis=1, keepdims=True)
    return attn @ encoded, attn, False


def expert_scores(params: ModelParams, label_repr: np.ndarray) -> np.ndarray:
    """Entry (i, l) = expert_w[i, l] . label_repr[l] + expert_b[i, l]."""
    return np.einsum("fld,ld->fl", params.expert_w, label_repr) + params.expert_b


def gate_weights(params: ModelParams, label_repr: np.ndarray) -> np.ndarray:
    """Softmax gate over experts, one distribution per label.

    With gate_per_label=False the gate is computed once from the label-mean
    representation and shared across labels.
    """
    if params.gate_per_label:
        logits = label_repr @ params.gate_w + params.gate_bias  # (L, F)
    else:
        pooled = label_repr.mean(axis=0) @ params.gate_w + params.gate_bias  # (F,)
        logits = np.broadcast_to(pooled, (label_repr.shape[0], pooled.shape[0]))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _mixture(gate: np.ndarray, scores: np.ndarray) -> np.ndarray:
    # z_k and z_e share this contraction so that a uniform gate reproduces
    # the uniform mixture bit for bit.
    return np.einsum("lf,fl->l", gate, scores)


def _uniform_gate(n_labels: int, n_experts: int) -> np.ndarray:
    return np.full((n_labels, n_experts), 1.0 / n_experts)


def pathway_zk(params: ModelParams, label_repr: np.ndarray) -> np.ndarray:
    """Gated mixture of expert scores for the given representation."""
    return _mixture(gate_weights(params, label_repr), expert_scores(params, label_repr))


def pathway_ze(params: ModelParams, label_repr: np.ndarray) -> np.ndarray:
    """Equal-weight mixture of expert scores for the given representation."""
    scores = expert_scores(params, label_repr)
    return _mixture(_uniform_gate(params.n_labels, params.n_experts), scores)


def _run_branch(params: ModelParams, ids: np.ndarray) -> BranchTrace:
    ids = np.asarray(ids, dtype=np.int64)
    _validate_ids(params, ids)
    mask = ids != PAD_ID
    embedded = params.embedding[ids] * mask[:, None]
    encoded = np.tanh(embedded @ params.enc_proj + params.enc_bias) * mask[:, None]
    label_repr, attn, degenerate = label_attention(params, encoded, mask)
    scores = expert_scores(params, label_repr)
    gate = gate_weights(params, label_repr)
    return BranchTrace(
        token_ids=ids,
        mask=mask,
        embedded=embedded,
        encoded=encoded,
        attention=attn,
        label_repr=label_repr,
        expert_scores=scores,
        gate=gate,
        gated=_mixture(gate, scores),
        uniform=_mixture(_uniform_gate(params.n_labels, params.n_experts), scores),
        degenerate=degenerate,
    )


def pathway_zd(params: ModelParams, doc: Document, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Demographic pathway score: the same head run on the demographic-only view.

    Depends on the document only through its age bucket and gender, so there
    are exactly eight distinct outputs per parameter set.
    """
    ids = build_model_input(doc, vocab, max_len, InputMode.DEMOGRAPHIC_ONLY)
    return _run_branch(params, ids).gated


def forward(params: ModelParams, doc: Document, vocab: Vocabulary, max_len: int):
    """Run both views of one document -> (PathwayScores, ForwardTrace)."""
    full = _run_branch(params, build_model_input(doc, vocab, max_len, InputMode.FULL))
    demo = _run_branch(params, build_model_input(doc, vocab, max_len, InputMode.DEMOGRAPHIC_ONLY))
    scores = PathwayScores.from_pathways(z_k=full.gated, z_d=demo.gated, z_e=full.uniform)
    return scores, ForwardTrace(full=full, demo=demo)


# ---------------------------------------------------------------------------
# Batched forward/backward. Training and evaluation go through these; the
# per-document functions above are the readable reference they are tested
# against.
# ---------------------------------------------------------------------------


@dataclass
class BatchBranch:
    """Batch analogue of BranchTrace with a leading batch axis."""

    token_ids: np.ndarray    # (B, N)
    mask: np.ndarray         # (B, N)
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
    if params.gate_per_label:
        gate = _softmax_last(np.einsum("bld,df->blf", label_repr, params.gate_w) + params.gate_bias)
    else:
        pooled = label_repr.mean(axis=1) @ params.gate_w + params.gate_bias  # (B, F)
        gate = np.broadcast_to(_softmax_last(pooled)[:, None, :], (B, L, F)).copy()
    gated = np.einsum("blf,bfl->bl", gate, scores)
    uniform = np.einsum("blf,bfl->bl", np.full((B, L, F), 1.0 / F), scores)
    return BatchBranch(
        token_ids=ids, mask=mask, embedded=embedded, encoded=encoded, attention=att,
        label_repr=label_repr, expert_scores=scores, gate=gate, gated=gated, uniform=uniform,
    )


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.named_arrays().items()}


def backward_batch(
    params: ModelParams,
    br: BatchBranch,
    d_gated: np.ndarray,
    d_uniform: np.ndarray,
    grads: dict[str, np.ndarray],
    heads_only: bool = False,
) -> None:
    """Accumulate parameter gradients for one branch into grads.

    d_gated and d_uniform are (B, L) gradients of the loss with respect to
    this branch's gated and uniform mixtures. With heads_only=True the
    expert and gate gradients are kept but nothing flows back into the
    attention, projection, or embedding arrays.
    """
    F = params.n_experts
    S, G, H = br.expert_scores, br.gate, br.label_repr

    dS = np.einsum("bl,blf->bfl", d_gated, G) + d_uniform[:, None, :] / F
    grads["expert_w"] += np.einsum("bfl,bld->fld", dS, H)
    grads["expert_b"] += dS.sum(axis=0)
    dH = np.einsum("bfl,fld->bld", dS, params.expert_w)

    if params.gate_per_label:
        dG = np.einsum("bl,bfl->blf", d_gated, S)
        dglog = G * (dG - (G * dG).sum(axis=-1, keepdims=True))
        grads["gate_w"] += np.einsum("bld,blf->df", H, dglog)
        grads["gate_bias"] += dglog.sum(axis=(0, 1))
        dH += np.einsum("blf,df->bld", dglog, params.gate_w)
    else:
        gate_doc = G[:, 0, :]  # identical rows by construction
        dG_doc = np.einsum("bl,bfl->bf", d_gated, S)
        dglog = gate_doc * (dG_doc - (gate_doc * dG_doc).sum(axis=-1, keepdims=True))
        grads["gate_w"] += np.einsum("bd,bf->df", H.mean(axis=1), dglog)
        grads["gate_bias"] += dglog.sum(axis=0)
        dH += np.einsum("bf,df->bd", dglog, params.gate_w)[:, None, :] / H.shape[1]

    if heads_only:
        return

    A, E = br.attention, br.encoded
    dA = np.einsum("bld,bnd->bln", dH, E)
    dE = np.einsum("bln,bld->bnd", A, dH)
    dalog = A * (dA - (A * dA).sum(axis=-1, keepdims=True))
    grads["label_queries"] += np.einsum("bln,bnd->ld", dalog, E)
    dE += np.einsum("bln,ld->bnd", dalog, params.label_queries)
    dE *= br.mask[..., None]

    dU = dE * (1.0 - E * E)  # tanh'; PAD rows already zero in dE
    grads["enc_proj"] += np.einsum("bnd,bnh->dh", br.embedded, dU)
    grads["enc_bias"] += dU.sum(axis=(0, 1))
    dX = np.einsum("bnh,dh->bnd", dU, params.enc_proj)
    np.add.at(grads["embedding"], br.token_ids.ravel(), dX.reshape(-1, params.embed_dim))


def batch_inputs(docs, vocab: Vocabulary, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack FULL and DEMOGRAPHIC_ONLY id rows; trailing all-PAD columns dropped."""
    full = np.stack([build_model_input(d, vocab, max_len, InputMode.FULL) for d in docs])
    demo = np.stack([build_model_input(d, vocab, max_len, InputMode.DEMOGRAPHIC_ONLY) for d in docs])
    keep = max(1, int((full != PAD_ID).sum(axis=1).max()))
    return full[:, :keep], demo[:, :2]


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
