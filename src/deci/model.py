"""Label-attention encoder with a gated expert head, run on two input views.

A document is encoded twice through the same parameters. The full view
(two demographic tokens prepended to the note) yields the knowledge score
z_k, the gated expert mixture, and the uniform-expert score z_e. The
demographic-only view, the first two ids of the full row, yields z_d, its
gated mixture. evaluation.final_scores_from_z combines the three pathways
into the debiased score.

Work is done once per distinct input. The encoder and the label logits see
one token at a time, so each distinct id of a batch is encoded and scored
against the label queries once. Only the attention weights are per position:
the attention product gathers encoder rows a few documents at a time.
z_d depends on a document only through its (age bucket, gender) cell, so the
demographic view is run on the eight rows of corpus.CELL_IDS and gathered.

All math is float64. forward_batch and backward_batch are the one model
implementation: training, evaluation and prediction all run through them.
"""

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .corpus import AGE_BOUNDS, CELL_IDS, GENDERS, PAD_ID, UNK_ID, Vocabulary, words
from .errors import ConfigError, DimensionError

_GATHER_FLOATS = 1 << 16  # per attention-product block; a default training batch is one

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


def param_shapes(vocab_size, d_e, d_h, n_labels, n_experts) -> dict[str, tuple]:
    """Name and shape of every trainable array, in their order in
    ModelParams.flat, which is also the checkpoint order."""
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


class ModelParams:
    """All trainable arrays, as attributes that are views into one float64
    vector, flat. dims is (vocab, d_e, d_h, n_labels, n_experts), and
    param_shapes(*dims) names and lays out the views. flat=None is all zeros."""

    def __init__(self, dims, flat: np.ndarray | None = None):
        self.dims = tuple(int(d) for d in dims)
        shapes = param_shapes(*self.dims)
        sizes = [math.prod(shape) for shape in shapes.values()]
        n = sum(sizes)
        # contiguous, so that every reshape below is a view
        self.flat = np.zeros(n) if flat is None else np.ascontiguousarray(flat, np.float64)
        if self.flat.shape != (n,):
            raise DimensionError(f"flat has shape {self.flat.shape}, dims {self.dims} need ({n},)")
        start = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            setattr(self, name, self.flat[start: start + size].reshape(shape))
            start += size

    vocab_size = property(lambda self: self.dims[0])
    embed_dim = property(lambda self: self.dims[1])
    hidden_dim = property(lambda self: self.dims[2])
    n_labels = property(lambda self: self.dims[3])
    n_experts = property(lambda self: self.dims[4])

    def copy(self) -> "ModelParams":
        return ModelParams(self.dims, self.flat.copy())


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
    params = ModelParams((vocab_size, embed_dim, hidden_dim, n_labels, n_experts))
    params.embedding[:] = rng.uniform(-0.1, 0.1, size=params.embedding.shape)
    params.enc_proj[:] = rng.uniform(-proj_bound, proj_bound, size=params.enc_proj.shape)
    params.label_queries[:] = rng.uniform(-row_bound, row_bound, size=params.label_queries.shape)
    params.expert_w[:] = rng.uniform(-row_bound, row_bound, size=params.expert_w.shape)
    return params


def _validate_ids(params: ModelParams, ids: np.ndarray) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= params.vocab_size):
        bad = ids[(ids < 0) | (ids >= params.vocab_size)][0]
        raise IndexError(f"token id {int(bad)} outside vocabulary of size {params.vocab_size}")


@dataclass
class BatchBranch:
    """Intermediates of one branch over a batch, enough to backpropagate."""

    token_ids: np.ndarray    # (B, N)
    tokens: np.ndarray       # (U,) the distinct ids of token_ids, sorted
    where: np.ndarray        # (B, N) row of tokens at each position
    embedded: np.ndarray     # (U, d_e) embedding rows of tokens
    enc_tok: np.ndarray      # (U, d_h) encoder rows of tokens, +0.0 for PAD
    attention: np.ndarray    # (B, L, N) softmax of the gathered label logits, 0 at PAD
    label_repr: np.ndarray   # (B, L, d_h)
    expert_scores: np.ndarray  # (B, F, L)
    gate: np.ndarray         # (B, L, F)
    gated: np.ndarray        # (B, L)
    uniform: np.ndarray      # (B, L)
    encoded = property(lambda self: self.enc_tok[self.where])  # (B, N, d_h), built when read


def _row_blocks(B: int, N: int, d_h: int) -> list[slice]:
    """Row slices of a (B, N, d_h) array: one row or more, _GATHER_FLOATS at most."""
    step = max(1, _GATHER_FLOATS // (N * d_h))
    return [slice(lo, lo + step) for lo in range(0, B, step)]


def _softmax_last(x: np.ndarray) -> np.ndarray:
    """Softmax of x over its last axis, in place; returns x. A row of -inf
    only, an all-PAD document's attention logits, becomes all zeros."""
    rowmax = x.max(axis=-1, keepdims=True)
    rowmax[~np.isfinite(rowmax)] = 0.0
    x -= rowmax
    np.exp(x, out=x)
    denom = x.sum(axis=-1, keepdims=True)
    denom[denom == 0.0] = 1.0
    x /= denom
    return x


def _scratch(work: dict | None, name: str, shape: tuple) -> np.ndarray | None:
    """A float64 view of the given shape into work[name], a flat buffer that
    is regrown only when too small; None without a workspace, so that an
    out=None numpy call allocates as it would with no out at all."""
    if work is None:
        return None
    size = math.prod(shape)
    if name not in work or work[name].size < size:
        work.pop(name, None)  # freed before its successor is allocated, if no view is alive
        work[name] = np.empty(size)
    return work[name][:size].reshape(shape)


def _sum_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """np.add.at(np.zeros((n, width)), index, rows), bitwise: np.bincount sums each cell
    in input order from +0.0. The flat cell index covers a block of columns, one or
    more and _GATHER_FLOATS cells at most, and is reused by blocks of its width."""
    out, cell = np.empty((n, rows.shape[1])), np.empty((0, 0), np.int64)
    for cols in _row_blocks(rows.shape[1], max(1, index.size), 1):
        block = rows[:, cols]
        w = block.shape[1]
        if cell.shape[1] != w:
            cell = index[:, None] * w + np.arange(w)
        out[:, cols] = np.bincount(cell.ravel(), block.ravel(), n * w).reshape(n, w)
    return out


def forward_batch(params: ModelParams, ids: np.ndarray, *, work: dict | None = None) -> BatchBranch:
    """Encode a batch of token-id rows (B, N) through one branch.

    With a workspace dict, every large array of the forward is a view of a
    buffer held in work, so the branch is valid until the next call with the
    same dict. The operations and their order are the same either way, so
    every value is bitwise the same."""
    ids = np.asarray(ids, dtype=np.int64)
    _validate_ids(params, ids)
    B, N = ids.shape
    L, F, d_h = params.n_labels, params.n_experts, params.hidden_dim
    # np.unique(ids, return_inverse=True) without a sort
    present = np.zeros(params.vocab_size, dtype=bool)
    present[ids] = True
    tokens = np.flatnonzero(present)
    where = (np.cumsum(present) - 1)[ids]
    U = tokens.size
    # Every index is in range (ids are validated), so "clip" changes none; under
    # the default "raise", np.take copies into a temporary before it writes out.
    embedded = np.take(params.embedding, tokens, axis=0,
                       out=_scratch(work, "embedded", (U, params.embed_dim)), mode="clip")
    out = _scratch(work, "enc_tok", (U, d_h))  # in place with work, a new array per step without
    enc_tok = np.matmul(embedded, params.enc_proj, out=out)
    enc_tok = np.add(enc_tok, params.enc_bias, out=out)
    enc_tok = np.tanh(enc_tok, out=out)
    logit_tok = np.matmul(params.label_queries, enc_tok.T, out=_scratch(work, "logit_tok", (L, U)))
    if U and tokens[0] == PAD_ID:  # PAD is the smallest id
        enc_tok[0] = 0.0
        logit_tok[:, 0] = -np.inf

    att = np.take(logit_tok, where, axis=1, out=_scratch(work, "attention", (L, B, N)), mode="clip")
    att = _softmax_last(att.transpose(1, 0, 2))  # (B, L, N)
    label_repr = np.empty((B, L, d_h)) if work is None else _scratch(work, "label_repr", (B, L, d_h))
    for rows in _row_blocks(B, N, d_h):  # N >= 1 past the softmax
        block = where[rows]  # a gathered block is a temporary, freed before the next
        np.matmul(att[rows], np.take(enc_tok, block, axis=0, mode="clip",
                                     out=_scratch(work, "gather", (*block.shape, d_h))),
                  out=label_repr[rows])

    # One (B, d_h) @ (d_h, F) product per label, written into a C-contiguous
    # (B, L, F) array, so that gated and uniform below reduce the same layout
    # and a uniform gate gives them bitwise equal.
    scores = np.empty((B, L, F)) if work is None else _scratch(work, "scores", (B, L, F))
    np.matmul(label_repr.transpose(1, 0, 2), params.expert_w.transpose(1, 2, 0),
              out=scores.transpose(1, 0, 2))
    scores += params.expert_b.T
    out = _scratch(work, "gate", (B, L, F))
    gate = np.matmul(label_repr, params.gate_w, out=out)
    gate = _softmax_last(np.add(gate, params.gate_bias, out=out))
    mix = _scratch(work, "mix", (B, L, F))
    gated = np.multiply(gate, scores, out=mix).sum(axis=-1)
    uniform = np.multiply(scores, 1.0 / F, out=mix).sum(axis=-1)
    return BatchBranch(
        token_ids=ids, tokens=tokens, where=where, embedded=embedded, enc_tok=enc_tok,
        attention=att, label_repr=label_repr, expert_scores=scores.transpose(0, 2, 1),
        gate=gate, gated=gated, uniform=uniform,
    )


def backward_batch(
    params: ModelParams,
    br: BatchBranch,
    d_gated: np.ndarray,
    d_uniform: np.ndarray,
    grads: ModelParams,
) -> None:
    """Add one branch's parameter gradients into the views of grads, in place.

    d_gated and d_uniform are (B, L) gradients of the loss with respect to
    this branch's gated and uniform mixtures. Every contraction is a matmul:
    2-D over the (B*L) or (U) rows, or batched over B or over the labels.
    The encoder gradient is first summed per distinct token, in position order
    as np.add.at sums, so its products run over U rows, not B*N positions.
    """
    L, F = params.n_labels, params.n_experts
    d_h = params.hidden_dim
    S, G, H = br.expert_scores.transpose(0, 2, 1), br.gate, br.label_repr  # (B, L, F), (B, L, d_h)

    dS = d_gated[..., None] * G + (d_uniform / F)[..., None]
    dS_by_label = dS.transpose(1, 0, 2)  # (L, B, F)
    grads.expert_w += (dS_by_label.transpose(0, 2, 1) @ H.transpose(1, 0, 2)).transpose(1, 0, 2)
    grads.expert_b += dS.sum(axis=0).T
    dH = np.empty_like(H)  # C-contiguous, for the batched products below
    np.matmul(dS_by_label, params.expert_w.transpose(1, 0, 2), out=dH.transpose(1, 0, 2))

    dG = d_gated[..., None] * S
    dglog = G * (dG - (G * dG).sum(axis=-1, keepdims=True))
    grads.gate_w += H.reshape(-1, d_h).T @ dglog.reshape(-1, F)
    grads.gate_bias += dglog.sum(axis=(0, 1))
    dH += dglog @ params.gate_w.T

    A, E = br.attention, br.encoded  # gathered here; its buffer then holds dE and dU
    # dA in A's (L, B, N) layout, then in its own buffer dalog = A * (dA - (A * dA).sum(-1))
    dalog = np.matmul(dH, E.transpose(0, 2, 1), out=np.empty_like(A))
    dalog -= (A * dalog).sum(axis=-1, keepdims=True)
    dalog *= A
    grads.label_queries += dalog.transpose(1, 0, 2).reshape(L, -1) @ E.reshape(-1, d_h)
    dU = np.matmul(A.transpose(0, 2, 1), dH, out=E)
    tanh_grad = br.enc_tok * br.enc_tok
    np.subtract(1.0, tanh_grad, out=tanh_grad)  # per token; PAD rows of dE are ±0
    for rows in _row_blocks(*dU.shape):
        dU[rows] += dalog[rows].transpose(0, 2, 1) @ params.label_queries
        dU[rows] *= tanh_grad[br.where[rows]]
    del dalog, dH, tanh_grad  # freed before the per-token sum builds its cell index
    dU_tok = _sum_rows(br.where.ravel(), dU.reshape(-1, d_h), br.tokens.size)
    grads.enc_proj += br.embedded.T @ dU_tok
    grads.enc_bias += dU_tok.sum(axis=0)
    grads.embedding[br.tokens] += dU_tok @ params.enc_proj.T  # exact: tokens are distinct


def batch_inputs(docs, vocab: Vocabulary, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, cells), each split's one tokenization: (n_docs, max_len) int64 id
    rows, each document's two demographic ids then its note's ids, truncated
    or PAD-extended to the window; and each document's CELL_IDS row, bucket *
    2 + gender, so that its demographic-only view is CELL_IDS[cells]."""
    if max_len < 2:
        raise ConfigError(f"max_len must be at least 2, got {max_len}")
    get = vocab._token_to_id.get  # each note is cut to the window before its lookup
    notes = [list(map(get, words(d.text)[: max_len - 2], repeat(UNK_ID))) for d in docs]
    lengths = np.fromiter(map(len, notes), np.int64, len(notes))
    ids = np.full((len(docs), max_len), PAD_ID, dtype=np.int64)
    cells = 2 * np.searchsorted(AGE_BOUNDS, np.array([d.age for d in docs], np.int64), "right")
    cells += np.array([GENDERS.index(d.gender) for d in docs], np.int64)
    ids[:, :2] = CELL_IDS[cells]
    ids[:, 2:][np.arange(max_len - 2) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(notes), np.int64, int(lengths.sum()))
    return ids, cells


def pathway_scores_batch(params, ids, cells, batch_size: int = 256):
    """(z_k, z_d, z_e) arrays of shape (n_docs, n_labels) for the (ids, cells)
    of batch_inputs.

    Full rows are forwarded longest first, batch_size at a time, so each
    chunk's full view is only as wide as its first row. The stable order keeps
    input order among equal lengths, so where every row fills the window the
    chunks are consecutive input rows. Every chunk is forwarded in one
    workspace (forward_batch's work), so one chunk's intermediates are held at a
    time and their pages are not faulted in again. Its per-token buffers and its
    gather are sized first for the chunk that needs most, and the first chunk
    sizes the rest, so no buffer is regrown. The demographic view is forwarded
    once, on CELL_IDS, so z_d is independent of the batch. Scores keep input order.
    """
    if not batch_size >= 1:
        raise ConfigError(f"batch_size must be at least 1, got {batch_size}")
    zk, ze = np.empty((2, len(ids), params.n_labels))
    # PAD only trails a row, so its non-PAD count is its width
    lengths = (ids != PAD_ID).sum(axis=1)
    order = np.argsort(-lengths, kind="stable")
    chunks = [order[lo: lo + batch_size] for lo in range(0, len(ids), batch_size)]
    _validate_ids(params, ids)  # before its ids are counted
    U = max((np.count_nonzero(np.bincount(ids[rows, :lengths[rows[0]]].ravel())) for rows in chunks), default=0)
    row = int(lengths.max(initial=0)) * params.hidden_dim  # floats per row of the widest chunk
    work = {"embedded": np.empty(U * params.embed_dim), "enc_tok": np.empty(U * params.hidden_dim),
            "logit_tok": np.empty(U * params.n_labels),
            "gather": np.empty(min(max(_GATHER_FLOATS, row), min(batch_size, len(ids)) * row))}
    for rows in chunks:
        full = forward_batch(params, ids[rows, :lengths[rows[0]]], work=work)
        zk[rows], ze[rows] = full.gated, full.uniform
    return zk, forward_batch(params, CELL_IDS).gated[cells], ze
