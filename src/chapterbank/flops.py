"""Exact integer FLOPs accounting for one forward pass.

Counting rules: a linear layer over N rows costs 2*N*d_in*d_out;
attention pair matmuls cost 4*B*Lq*Lk*d; softmax plus mask and scale
cost heads*Lq*Lk*(5+2); RMSNorm over N rows costs N*(4d+4); mean pooling
costs d*(L-1) adds plus d divides. The backward pass is approximated as
2x the forward, so forward+backward is 3x. Everything is Python int
arithmetic; no floats anywhere in this module.

The router auxiliary-loss cost has no documented decomposition, only a
per-layer total at B=1; ``router_aux_flops`` below is our own documented
estimate, and ``aux_override`` pins the line to an externally known value
(all exact regression fixtures use the override).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .config import ModelConfig
from .errors import ConfigError

SOFTMAX_COST = 5  # per element: max, subtract, exp, sum-share, divide
MASK_SCALE_COST = 2  # mask add + temperature scale per score element
ACT_COST = 5  # silu + gate multiply per hidden element
CE_COST = 5  # per-vocab-entry cost of log-softmax loss


class Breakdown:
    """A FLOPs component whose integer fields are its parts; ``total``
    and ``as_dict`` are derived from the fields."""

    @property
    def total(self) -> int:
        parts = (getattr(self, f.name) for f in fields(self))
        return sum(p.total if isinstance(p, Breakdown) else p for p in parts)

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d = {k: v.as_dict() if isinstance(v, Breakdown) else v for k, v in d.items()}
        d["total"] = self.total
        return d


@dataclass(frozen=True)
class AttentionFlops(Breakdown):
    q: int
    k: int
    v: int
    o: int
    matmuls: int
    softmax: int


@dataclass(frozen=True)
class MlpFlops(Breakdown):
    up: int
    gate: int
    down: int
    activation: int


@dataclass(frozen=True)
class StandardLayerFlops(Breakdown):
    self_attention: AttentionFlops
    rope: int
    norms: int
    mlp: MlpFlops
    residuals: int


@dataclass(frozen=True)
class RouterFlops(Breakdown):
    pool: int
    linear: int
    softmax: int
    topk: int


@dataclass(frozen=True)
class MemPreprocessFlops(Breakdown):
    weighting: int
    rmsnorm: int
    adapter: int  # x @ adapter plus the add, 0 when the adapter is off


@dataclass(frozen=True)
class MemoryExtraFlops(Breakdown):
    router: RouterFlops
    router_aux: int
    mem_preprocess: MemPreprocessFlops
    mem_attention: AttentionFlops
    extra_norm: int
    extra_residual: int


@dataclass(frozen=True)
class HeadFlops(Breakdown):
    norm: int
    lm_head: int
    ce: int


@dataclass(frozen=True)
class FlopsReport:
    """Hierarchical integer breakdown; every total is the exact sum of
    its children."""

    batch: int
    seq_len: int
    n_standard_layers: int
    n_memory_layers: int
    standard_layer: StandardLayerFlops
    memory_extra: MemoryExtraFlops | None
    head: HeadFlops

    @property
    def memory_layer_total(self) -> int:
        if self.memory_extra is None:
            return 0
        return self.standard_layer.total + self.memory_extra.total

    @property
    def forward(self) -> int:
        total = (self.n_standard_layers + self.n_memory_layers) * self.standard_layer.total
        if self.memory_extra is not None:
            total += self.n_memory_layers * self.memory_extra.total
        return total + self.head.total

    @property
    def backward(self) -> int:
        return 2 * self.forward

    @property
    def fwd_bwd(self) -> int:
        return 3 * self.forward

    def as_dict(self) -> dict:
        d = {
            "batch": self.batch,
            "seq_len": self.seq_len,
            "n_standard_layers": self.n_standard_layers,
            "n_memory_layers": self.n_memory_layers,
            "standard_layer": self.standard_layer.as_dict(),
            "head": self.head.as_dict(),
        }
        if self.memory_extra is not None:
            d["memory_layer_extra"] = self.memory_extra.as_dict()
            d["memory_layer_total"] = self.memory_layer_total
        d["totals"] = {"forward": self.forward, "backward": self.backward, "fwd_bwd": self.fwd_bwd}
        return d

    def flat_items(self) -> list[tuple[str, int]]:
        """Dotted (component, value) rows, depth-first in stable order."""
        rows: list[tuple[str, int]] = []

        def walk(prefix, node):
            if isinstance(node, dict):
                for key, val in node.items():
                    walk(f"{prefix}.{key}" if prefix else key, val)
            else:
                rows.append((prefix, int(node)))

        walk("", self.as_dict())
        return rows

    def to_text(self) -> str:
        width = max(len(k) for k, _ in self.flat_items())
        return "\n".join(f"{k:<{width}}  {v:>22,}" for k, v in self.flat_items())

    def to_csv(self) -> str:
        lines = ["component,value"]
        lines += [f"{k},{v}" for k, v in self.flat_items()]
        return "\n".join(lines) + "\n"


def _check(b: int, l: int, aux_override: int | None = None) -> None:
    if b < 1 or l < 1:
        raise ConfigError(f"batch={b} and seq_len={l} must be >= 1")
    if aux_override is not None and aux_override < 0:
        raise ConfigError(f"aux_override must be >= 0, got {aux_override}")


def _attention_flops(d: int, batch: int, lq: int, lk: int, heads: int, kv_heads: int) -> AttentionFlops:
    """Grouped-query attention of lq queries over lk keys per sequence."""
    d_kv = kv_heads * (d // heads)
    return AttentionFlops(
        q=2 * batch * lq * d * d,
        k=2 * batch * lk * d * d_kv,
        v=2 * batch * lk * d * d_kv,
        o=2 * batch * lq * d * d,
        matmuls=4 * batch * lq * lk * d,
        softmax=batch * heads * lq * lk * (SOFTMAX_COST + MASK_SCALE_COST),
    )


def flops_standard_layer(cfg: ModelConfig, batch: int = 1, seq_len: int = 1024) -> StandardLayerFlops:
    """Self-attention + RoPE + two norms + SwiGLU MLP + two residuals."""
    _check(batch, seq_len)
    d, dff = cfg.d_model, cfg.d_ff
    d_kv = cfg.n_kv_heads * cfg.head_dim
    n = batch * seq_len
    mlp = MlpFlops(
        up=2 * n * d * dff,
        gate=2 * n * d * dff,
        down=2 * n * dff * d,
        activation=n * dff * ACT_COST,
    )
    return StandardLayerFlops(
        self_attention=_attention_flops(d, batch, seq_len, seq_len, cfg.n_heads, cfg.n_kv_heads),
        rope=batch * 3 * seq_len * (d + d_kv),
        norms=2 * n * (4 * d + 4),
        mlp=mlp,
        residuals=2 * n * d,
    )


def router_aux_flops(cfg: ModelConfig, batch: int = 1) -> int:
    """Estimated auxiliary-loss cost per memory layer (our formula).

    Covers load-balance renormalization, the z-loss log-partition, an
    entropy term, and the final batch-level reductions. The batch-level
    part (selection histogram and loss reductions) is shared across
    sequences, so this line deliberately does not scale linearly in B.
    The reference per-layer total it stands in for is an opaque constant;
    use aux_override in flops_model for exact regression against it.
    """
    c, c_r, k = cfg.chapters, cfg.routed_chapters, cfg.top_k
    per_sequence = (
        2 * c_r  # renormalize probs over routed chapters (sum + divide)
        + 5 * c + 2  # z-loss: logsumexp over all chapters, square, accumulate
        + 3 * c + 1  # entropy: p*log(p) products and accumulation
    )
    per_batch = (
        batch * k + c_r  # selection histogram and its normalization
        + c_r * (batch + 1)  # mean renormalized probability per chapter
        + 2 * c_r + 1  # load-balance dot product and scaling
        + 2  # final loss averaging
    )
    return batch * per_sequence + per_batch


def flops_memory_layer_extra(
    cfg: ModelConfig, batch: int = 1, seq_len: int = 1024, aux_override: int | None = None
) -> MemoryExtraFlops:
    """Extra cost a memory layer adds on top of a standard layer."""
    _check(batch, seq_len, aux_override)
    if not cfg.has_memory:
        raise ConfigError("config has no memory layers")
    d, c = cfg.d_model, cfg.chapters
    n_sel = cfg.selected_tokens
    router = RouterFlops(
        pool=batch * (d * (seq_len - 1) + d),
        linear=2 * batch * d * c,
        softmax=batch * c * SOFTMAX_COST,
        topk=batch * c * math.ceil(math.log2(cfg.top_k)) if cfg.top_k > 1 else 0,
    )
    preprocess = MemPreprocessFlops(
        weighting=batch * n_sel * d,
        rmsnorm=batch * n_sel * (4 * d + 4),
        adapter=batch * n_sel * (2 * d * d + d) if cfg.adapter_enabled else 0,
    )
    return MemoryExtraFlops(
        router=router,
        router_aux=aux_override if aux_override is not None else router_aux_flops(cfg, batch),
        mem_preprocess=preprocess,
        mem_attention=_attention_flops(d, batch, seq_len, n_sel, cfg.mem_heads, cfg.mem_kv_heads),
        extra_norm=batch * seq_len * (4 * d + 4),
        extra_residual=batch * seq_len * d,
    )


def flops_head_and_loss(cfg: ModelConfig, batch: int = 1, seq_len: int = 1024) -> HeadFlops:
    """Final RMSNorm, LM head projection, next-token cross-entropy."""
    _check(batch, seq_len)
    d, v = cfg.d_model, cfg.vocab
    return HeadFlops(
        norm=batch * seq_len * (4 * d + 4),
        lm_head=2 * batch * seq_len * d * v,
        ce=batch * (seq_len - 1) * v * CE_COST,
    )


def flops_model(
    cfg: ModelConfig, batch: int = 1, seq_len: int = 1024, aux_override: int | None = None
) -> FlopsReport:
    """Full-model report: n_standard * layer + n_memory * (layer + extra)
    + head."""
    _check(batch, seq_len, aux_override)
    n_mem = len(cfg.memory_layer_indices)
    return FlopsReport(
        batch=batch,
        seq_len=seq_len,
        n_standard_layers=cfg.n_layers - n_mem,
        n_memory_layers=n_mem,
        standard_layer=flops_standard_layer(cfg, batch, seq_len),
        memory_extra=flops_memory_layer_extra(cfg, batch, seq_len, aux_override) if n_mem else None,
        head=flops_head_and_loss(cfg, batch, seq_len),
    )


@dataclass(frozen=True)
class IsoDepthResult:
    """Smallest dense depth whose forward FLOPs reach the target."""

    layers: int
    flops: int
    lower_layers: int
    lower_flops: int
    target: int

    @property
    def gap_above(self) -> float:
        return (self.flops - self.target) / self.target if self.target else 0.0

    @property
    def gap_below(self) -> float:
        return (self.target - self.lower_flops) / self.target if self.target else 0.0


def iso_depth_search(target_flops: int, cfg: ModelConfig, batch: int = 1, seq_len: int = 1024) -> IsoDepthResult:
    """Smallest depth n with n*standard_layer + head >= target, plus the
    bracketing depth below."""
    _check(batch, seq_len)
    head = flops_head_and_loss(cfg, batch, seq_len).total
    layer = flops_standard_layer(cfg, batch, seq_len).total
    if target_flops < head:
        raise ConfigError(f"target {target_flops} below the head-only cost {head}; unreachable")
    n = max(0, -(-(target_flops - head) // layer))  # ceil division
    lower = max(0, n - 1)
    return IsoDepthResult(
        layers=n,
        flops=n * layer + head,
        lower_layers=lower,
        lower_flops=lower * layer + head,
        target=target_flops,
    )
