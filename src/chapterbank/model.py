"""Decoder-only transformer with routed memory cross-attention.

Block order (pre-norm residual blocks): self-attention, then on memory
layers a cross-attention read over selected chapters of a shared latent
token bank, then the SwiGLU MLP. Routing is sequence-level: each
sequence's mean-pooled hidden state picks its top-k routed chapters;
shared chapters are always on. Pooling covers every position, so later
tokens can change the chapters earlier positions read.

The memory path runs once per layer for the whole batch: one
RouterDecision holds (B, ...) arrays, one gather reads the (B, S*t, d)
selected tokens (S = shared + k chapters of t tokens), and each
sequence's queries attend only to its own selection.

Selected memory tokens are RMS-normalized first and then scaled by their
chapter weight (shared weight 1, routed weights = routed_scaling times
the probability renormalized over the selection), so router probabilities
stay differentiable through the readout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .config import ModelConfig
from .errors import ConfigError, SequenceLengthError
from .tensor import PRECISION_DTYPES, Parameter, RngState, Tensor


@dataclass
class MemoryBank:
    """The learned latent-token matrix plus its chapter partition.

    One instance per model, shared by every memory layer. Chapter c owns
    rows [c*chapter_size, (c+1)*chapter_size); chapters below
    shared_chapters bypass the router.
    """

    tokens: Parameter
    chapters: int
    chapter_size: int
    shared_chapters: int


@dataclass
class RouterDecision:
    """One memory layer's routing outcome for a batch of B sequences.

    Row b of every field belongs to sequence b; S = shared_chapters + k.
    """

    logits: Tensor  # (B, C)
    probs: np.ndarray  # (B, C) softmax over all chapters, each row sums to 1; not taped
    selected: np.ndarray  # (B, k) int, routed chapter indices, router order
    selected_with_shared: np.ndarray  # (B, S) int, shared chapters first, then selected
    chapter_weights: Tensor  # (B, S), per selected_with_shared entry

    def __len__(self) -> int:
        return self.selected_with_shared.shape[0]


@dataclass
class LayerRouteStats:
    """One memory layer's chapter use over a set of batches (``collect_route_stats``)."""

    layer: int
    frequency: np.ndarray  # per chapter, routed selections / sequences
    entropy: float  # nats, over the normalized selection histogram
    mean_routed_mass: float  # mean over sequences of selected prob mass
    never_selected_frac: float  # routed chapters never selected


@dataclass
class ForwardTrace:
    """Losses and routing stats from one forward pass."""

    lm_loss: float
    lb_loss: float
    z_loss: float
    total_loss: float
    decisions: list[RouterDecision]  # one per memory layer, batched over sequences
    loss: Tensor  # the taped total


class Model:
    """Built model: config, named parameters, and the shared bank."""

    def __init__(self, cfg: ModelConfig, params: dict[str, Parameter]):
        self.config = cfg
        self.params = params
        self.bank = None
        if cfg.has_memory:
            self.bank = MemoryBank(params["bank.tokens"], cfg.chapters, cfg.chapter_size, cfg.shared_chapters)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def __getitem__(self, name: str) -> Parameter:
        return self.params[name]

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def forward(self, tokens: np.ndarray, targets: np.ndarray) -> ForwardTrace:
        return model_forward(self, tokens, targets)

    def forward_logits(self, tokens: np.ndarray) -> np.ndarray:
        """(B, L, vocab) logits without loss or tape (greedy decoding)."""
        h, _ = _run_stack(self, tokens)
        return _head_logits(self, h)


def param_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str, str]]:
    """(name, shape, group, init kind) for every parameter, in creation order."""
    d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab
    kv_dim = cfg.n_kv_heads * cfg.head_dim
    specs: list[tuple[str, tuple[int, ...], str, str]] = [("embedding.weight", (v, d), "base", "normal")]
    for i in range(cfg.n_layers):
        pre = f"layers.{i}"
        specs += [
            (f"{pre}.attn_norm.gain", (d,), "base", "ones"),
            (f"{pre}.attn.wq", (d, d), "base", "normal"),
            (f"{pre}.attn.wk", (d, kv_dim), "base", "normal"),
            (f"{pre}.attn.wv", (d, kv_dim), "base", "normal"),
            (f"{pre}.attn.wo", (d, d), "base", "normal"),
            (f"{pre}.mlp_norm.gain", (d,), "base", "ones"),
            (f"{pre}.mlp.w_up", (d, f), "base", "normal"),
            (f"{pre}.mlp.w_gate", (d, f), "base", "normal"),
            (f"{pre}.mlp.w_down", (f, d), "base", "normal"),
        ]
        if i in cfg.memory_layer_indices:
            mem_kv_dim = cfg.mem_kv_heads * (d // cfg.mem_heads)
            specs += [
                (f"{pre}.mem_norm.gain", (d,), "memory_layers", "ones"),
                (f"{pre}.mem.token_norm.gain", (d,), "memory_layers", "ones"),
                (f"{pre}.mem.wq", (d, d), "memory_layers", "normal"),
                (f"{pre}.mem.wk", (d, mem_kv_dim), "memory_layers", "normal"),
                (f"{pre}.mem.wv", (d, mem_kv_dim), "memory_layers", "normal"),
                (f"{pre}.mem.wo", (d, d), "memory_layers", "normal"),
                (f"{pre}.router.weight", (d, cfg.chapters), "memory_layers", "normal"),
                (f"{pre}.router.bias", (cfg.chapters,), "memory_layers", "zeros"),
            ]
            if cfg.adapter_enabled:
                specs.append((f"{pre}.mem.adapter", (d, d), "memory_layers", "zeros"))
    specs.append(("final_norm.gain", (d,), "base", "ones"))
    if not cfg.tied_embeddings:
        specs.append(("lm_head.weight", (d, v), "base", "normal"))
    if cfg.has_memory:
        specs.append(("bank.tokens", (cfg.bank_tokens, d), "memory_bank", "bank"))
    return specs


def build_model(cfg: ModelConfig, rng: RngState, precision: str = "single") -> Model:
    """Initialize all parameters: weights N(0, 0.02), gains 1, biases 0,
    bank N(0, bank_init_std); each drawn from a per-name substream so the
    result depends only on (seed, name)."""
    dtype = PRECISION_DTYPES[precision]
    params: dict[str, Parameter] = {}
    for name, shape, group, kind in param_specs(cfg):
        if kind == "ones":
            data = np.ones(shape)
        elif kind == "zeros":
            data = np.zeros(shape)
        else:
            std = cfg.bank_init_std if kind == "bank" else 0.02
            data = rng.substream("init", name).standard_normal(shape) * std
        params[name] = Parameter(np.asarray(data, dtype=dtype), name, group)
    return Model(cfg, params)


def param_count(cfg: ModelConfig) -> dict[str, int]:
    """Exact per-group parameter counts {base, memory_layers, memory_bank,
    total}, counted from the config's shapes (nothing allocated)."""
    counts = {"base": 0, "memory_layers": 0, "memory_bank": 0}
    for _, shape, group, _ in param_specs(cfg):
        counts[group] += int(np.prod(shape))
    counts["total"] = sum(counts.values())
    return counts


# ---------------------------------------------------------------------------
# blocks


def _attention(h: Tensor, kv: Tensor | None, model: Model, layer: int, name: str, n_heads: int, n_kv_heads: int,
               causal: bool) -> Tensor:
    """h + grouped-query attention of queries from RMSNorm(h) over keys and
    values from kv (from RMSNorm(h) when kv is None), through the
    ``layers.{layer}.{name}_norm.gain`` and ``{name}.wq/wk/wv/wo`` weights,
    as one ``ops.attention`` op. ``causal`` adds RoPE on Q/K and the strict
    causal mask (self-attention)."""
    pre = f"layers.{layer}"
    w = [model[f"{pre}.{name}.{w}"] for w in ("wq", "wk", "wv", "wo")]
    return ops.attention(h, model[f"{pre}.{name}_norm.gain"], kv, *w, n_heads, n_kv_heads, causal,
                         model.config.rope_theta)


def self_attention_block(h: Tensor, model: Model, layer: int) -> Tensor:
    """h + GQA(RMSNorm(h)) with RoPE on Q/K and strict causal masking."""
    cfg = model.config
    if h.shape[1] > cfg.max_seq_len:
        raise SequenceLengthError(f"sequence length {h.shape[1]} exceeds max_seq_len {cfg.max_seq_len}")
    return _attention(h, None, model, layer, "attn", cfg.n_heads, cfg.n_kv_heads, causal=True)


def _mlp_block(h: Tensor, model: Model, layer: int) -> Tensor:
    """h + SwiGLU(RMSNorm(h)), as one ``ops.swiglu`` op."""
    pre = f"layers.{layer}"
    return ops.swiglu(h, model[f"{pre}.mlp_norm.gain"], model[f"{pre}.mlp.w_up"], model[f"{pre}.mlp.w_gate"],
                      model[f"{pre}.mlp.w_down"])


# ---------------------------------------------------------------------------
# routing


def route(h: Tensor, weight: Parameter, bias: Parameter, cfg: ModelConfig) -> RouterDecision:
    """Route every sequence of the (B, L, d) batch: mean-pool positions,
    score all chapters, pick top-k of the routed ones.

    Chapter weights: shared chapters get 1; routed chapter c gets
    routed_scaling * p_c / sum of selected p, so routed weights always
    sum to routed_scaling.
    """
    shared, b = cfg.shared_chapters, h.shape[0]
    logits = ops.router_logits(h, weight, bias)  # (B,C)
    probs = ops.softmax(logits.data)
    selected = shared + ops.topk(probs[:, shared:], cfg.top_k)  # (B,k)
    return RouterDecision(
        logits=logits,
        probs=probs,
        selected=selected,
        selected_with_shared=np.concatenate([np.tile(np.arange(shared), (b, 1)), selected], axis=1),
        chapter_weights=ops.chapter_weights(logits, selected, shared, cfg.routed_scaling),
    )


def prepare_memory_tokens(model: Model, layer: int, decision: RouterDecision) -> Tensor:
    """Gather the selected chapters of every sequence in one (B, S*t, d)
    read and produce normalized, weighted tokens for the K/V projections
    (norm first, then weight, so chapter weights survive and stay
    differentiable), as one ``ops.memory_tokens`` op."""
    pre, t = f"layers.{layer}", model.bank.chapter_size
    rows = decision.selected_with_shared[:, :, None] * t + np.arange(t)  # (B, S, t)
    adapter = model[f"{pre}.mem.adapter"] if model.config.adapter_enabled else None
    return ops.memory_tokens(model["bank.tokens"], rows, decision.chapter_weights,
                             model[f"{pre}.mem.token_norm.gain"], adapter)


def mem_read(h: Tensor, m_tokens: Tensor, model: Model, layer: int) -> Tensor:
    """The memory read h + CrossAttn(RMSNorm(h), m_tokens): (B, L, d) hidden
    states query their own sequence's (B, N, d) memory tokens, as one
    ``ops.attention`` op that adds the residual.

    ``m_tokens`` are the prepared (normalized, weighted) selected tokens.
    No causal mask and no positional encoding on memory. The op checks the
    tokens: unbatched, batched unlike ``h`` or empty, they raise ShapeError.
    """
    cfg = model.config
    return _attention(h, m_tokens, model, layer, "mem", cfg.mem_heads, cfg.mem_kv_heads, causal=False)


def memory_layer_forward(h: Tensor, model: Model, layer: int) -> tuple[Tensor, RouterDecision]:
    """Route, gather+weight chapters, then the memory read (cross-attention
    plus residual), for the whole batch at once. Returns (h', decision)."""
    pre = f"layers.{layer}"
    decision = route(h, model[f"{pre}.router.weight"], model[f"{pre}.router.bias"], model.config)
    return mem_read(h, prepare_memory_tokens(model, layer, decision), model, layer), decision


def aux_losses(decisions: list[RouterDecision], cfg: ModelConfig) -> tuple[Tensor, float, float]:
    """The router penalty lb_coeff * lb + z_coeff * z of the per-layer
    decisions, as one taped ``ops.router_penalty`` op over all layers, with
    the plain lb and z.

    Load balance: C_r * sum_c f_c * P_c over routed chapters, averaged
    over layers, where f_c is the fraction of selection slots assigned to
    chapter c and P_c the mean probability renormalized over routed
    chapters. Uniform routing gives exactly 1; full collapse (k=1) gives
    C_r. z-loss: mean over sequences and layers of squared
    log-partition of the router logits. The op checks the decisions.
    """
    return ops.router_penalty([d.logits for d in decisions], [d.selected for d in decisions],
                              cfg.shared_chapters, cfg.lb_coeff, cfg.z_coeff)


# ---------------------------------------------------------------------------
# full forward


def _run_stack(model: Model, tokens: np.ndarray) -> tuple[Tensor, list[RouterDecision]]:
    """Embed the (B, L) ``tokens`` and run every layer: the final hidden
    states and the memory layers' decisions. The embedding gather checks
    the token ids, layer 0's self-attention the sequence length."""
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise ConfigError(f"token batch must be 2-D (B, L), got shape {tokens.shape}")
    h = ops.gather_rows(model["embedding.weight"], tokens)
    decisions: list[RouterDecision] = []
    for i in range(cfg.n_layers):
        h = self_attention_block(h, model, i)
        if i in cfg.memory_layer_indices:
            h, decision = memory_layer_forward(h, model, i)
            decisions.append(decision)
        h = _mlp_block(h, model, i)
    return h, decisions


def _head_logits(model: Model, h: Tensor) -> np.ndarray:
    """Final norm, then the LM head on plain arrays (decoding, no tape):
    the embedding used transposed when tied, else ``lm_head.weight``."""
    tied = model.config.tied_embeddings
    w = model["embedding.weight"].data.T if tied else model["lm_head.weight"].data  # (d, V)
    x = ops.rms_norm(h.data, model["final_norm.gain"].data)[0]
    return (x.reshape(-1, w.shape[0]) @ w).reshape(x.shape[:-1] + (w.shape[1],))


def model_forward(model: Model, tokens: np.ndarray, targets: np.ndarray) -> ForwardTrace:
    """Embed, run the stack, then one ``ops.lm_head_loss`` (the final norm
    and the chunked LM-head cross-entropy of positions 0..L-2, read through a
    view of the stack's output, against the next tokens, which checks the
    targets' shape), added to the router penalty.

    total = lm + lb_coeff * lb + z_coeff * z.
    """
    cfg = model.config
    h, decisions = _run_stack(model, tokens)
    penalty, lb, z = aux_losses(decisions, cfg) if decisions else (None, 0.0, 0.0)
    tied = cfg.tied_embeddings
    loss = ops.lm_head_loss(h, model["final_norm.gain"], model["embedding.weight" if tied else "lm_head.weight"],
                            targets, tied)
    lm = loss.item()
    if penalty is not None:
        loss = ops.add(loss, penalty)
    return ForwardTrace(lm, lb, z, lm + cfg.lb_coeff * lb + cfg.z_coeff * z, decisions, loss)


# ---------------------------------------------------------------------------
# routing statistics


def collect_route_stats(model: Model, batches: list[np.ndarray], layers: list[int] | None = None) -> list[LayerRouteStats]:
    """Chapter use of the memory layers (all, or ``layers`` in that order)
    over untaped forwards of ``batches``."""
    cfg = model.config
    if not cfg.has_memory:
        raise ConfigError("route stats need a model with memory layers")
    if not batches:
        raise ConfigError("route stats need at least one batch")
    wanted = list(cfg.memory_layer_indices) if layers is None else list(layers)
    if len(set(wanted)) != len(wanted):
        raise ConfigError(f"layers {wanted} name a layer more than once")
    bad = [l for l in wanted if l not in cfg.memory_layer_indices]
    if bad:
        raise ConfigError(f"layers {bad} are not memory layers {list(cfg.memory_layer_indices)}")
    counts = {l: np.zeros(cfg.chapters, dtype=np.int64) for l in wanted}
    mass = {l: 0.0 for l in wanted}
    n_seqs = 0
    for batch in batches:
        _, decisions = _run_stack(model, batch)
        n_seqs += batch.shape[0]
        for layer, decision in zip(cfg.memory_layer_indices, decisions):
            if layer in counts:
                counts[layer] += np.bincount(decision.selected.ravel(), minlength=cfg.chapters)
                mass[layer] += float(np.take_along_axis(decision.probs, decision.selected, axis=1).sum())
    out = []
    for layer in wanted:
        c = counts[layer]
        p = c[c > 0] / c.sum()
        never = int(np.sum(c[cfg.shared_chapters :] == 0))
        entropy = float(-(p * np.log(p)).sum())
        out.append(LayerRouteStats(layer, c / n_seqs, entropy, mass[layer] / n_seqs, never / cfg.routed_chapters))
    return out


def route_stats_csv(stats: list[LayerRouteStats]) -> str:
    lines = ["layer,chapter,frequency,entropy,mean_routed_mass,never_selected_frac"]
    for s in stats:
        for chapter, f in enumerate(s.frequency):
            lines.append(f"{s.layer},{chapter},{float(f)!r},{s.entropy!r},{s.mean_routed_mass!r},{s.never_selected_frac!r}")
    return "\n".join(lines) + "\n"


def route_stats_text(stats: list[LayerRouteStats]) -> str:
    lines = []
    for s in stats:
        top = np.argsort(-s.frequency)[:5]
        tops = ", ".join(f"{c}:{s.frequency[c]:.2f}" for c in top)
        lines.append(
            f"layer {s.layer}: entropy {s.entropy:.3f} nats; routed mass {s.mean_routed_mass:.3f};"
            f" never-selected {s.never_selected_frac:.2%}; top chapters {tops}"
        )
    return "\n".join(lines)
