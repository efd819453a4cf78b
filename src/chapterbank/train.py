"""Deterministic training loop: grad accumulation, clipping, per-group
scheduled AdamW, periodic eval, in-memory checkpoints.

Batch order is a pure function of (seed, step, micro-step), so identical
configs give bit-identical trajectories and a resumed run replays the
exact batches the uninterrupted run would have seen. Metrics rows are
kept as dataclasses and serialized by ``metrics_csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import ops
from .checkpoint import Checkpoint, check_config_match, checkpoint_from, model_from_checkpoint
from .config import Config, ModelConfig
from .errors import ConfigError, NumericError, TrainingAborted
from .model import ForwardTrace, Model
from .optim import AdamW, AdamWConfig, clip_grad_norm, global_grad_norm
from .schedule import Schedule, cosine, lr_at_step
from .tensor import RngState, Tape

BANK_MODES = ("frozen", "low_lr", "equal_lr", "custom")
EVAL_BATCHES = 4
EVAL_FRACTION = 0.1
SYNTHETIC_PERIOD, SYNTHETIC_LENGTH, SYNTHETIC_SEED = 97, 8192, 0  # the synthetic corpus's defaults


@dataclass(frozen=True)
class TrainConfig(Config):
    steps: int = 200
    batch_size: int = 8
    grad_accum: int = 1
    seq_len: int = 64
    lr_base: float = 1e-3
    lr_memory_layers: float | None = None  # None: same as base
    lr_memory_bank: float | None = None  # used by bank_mode=custom
    bank_mode: str = "equal_lr"
    schedule: Schedule = field(default_factory=lambda: cosine(10))
    weight_decay: float = AdamWConfig.weight_decay
    betas: tuple[float, float] = AdamWConfig.betas
    clip_norm: float = 1.0
    seed: int = 0
    eval_every: int = 10

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1 or self.grad_accum < 1:
            raise ConfigError("batch_size and grad_accum must be >= 1")
        if self.seq_len < 2:
            raise ConfigError(f"seq_len must be >= 2 for next-token loss, got {self.seq_len}")
        if self.bank_mode not in BANK_MODES:
            raise ConfigError(f"bank_mode must be one of {BANK_MODES}, got {self.bank_mode!r}")
        if self.bank_mode == "custom" and self.lr_memory_bank is None:
            raise ConfigError("bank_mode=custom requires lr_memory_bank")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if not self.clip_norm > 0:  # NaN too; inf means no clipping
            raise ConfigError(f"clip_norm must be > 0, got {self.clip_norm}")
        for name in ("lr_base", "lr_memory_layers", "lr_memory_bank"):
            lr = getattr(self, name)
            if lr is not None and not (math.isfinite(lr) and lr >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {lr}")
        AdamWConfig(betas=self.betas, weight_decay=self.weight_decay)  # checks the update settings
        if self.steps > 0 and self.schedule.kind == "wsd" and self.schedule.decay_start >= self.steps:
            raise ConfigError(
                f"wsd decay_start {self.schedule.decay_start} must be < steps {self.steps}"
            )
        if 0 < self.steps <= self.schedule.warmup and self.schedule.total_steps is None:
            raise ConfigError(f"steps {self.steps} must exceed schedule.warmup {self.schedule.warmup}")

    def group_lrs(self) -> dict[str, float]:
        bank = {
            "frozen": 0.0,
            "low_lr": self.lr_base / 10.0,
            "equal_lr": self.lr_base,
            "custom": self.lr_memory_bank,
        }[self.bank_mode]
        return {
            "base": self.lr_base,
            "memory_layers": self.lr_memory_layers if self.lr_memory_layers is not None else self.lr_base,
            "memory_bank": bank,
        }

    @property
    def frozen_groups(self) -> frozenset[str]:
        return frozenset({"memory_bank"}) if self.bank_mode == "frozen" else frozenset()


@dataclass
class Corpus:
    tokens: np.ndarray  # 1-D int64 token stream
    vocab: int

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        if self.tokens.ndim != 1:
            raise ConfigError(f"corpus tokens must be 1-D, got shape {self.tokens.shape}")
        if self.tokens.size and (self.tokens.min() < 0 or self.tokens.max() >= self.vocab):
            raise ConfigError(f"corpus token ids must lie in [0, {self.vocab})")

    def __len__(self) -> int:
        return int(self.tokens.size)

    def split(self) -> tuple[np.ndarray, np.ndarray]:
        cut = len(self) - max(1, int(len(self) * EVAL_FRACTION))
        return self.tokens[:cut], self.tokens[cut:]


def make_synthetic_corpus(vocab: int, length: int = SYNTHETIC_LENGTH, seed: int = SYNTHETIC_SEED,
                          period: int = SYNTHETIC_PERIOD) -> Corpus:
    """Tiled random pattern: next-token is (mostly) a deterministic
    function of the current token, so small models learn it fast."""
    if period < 2 or period > length:
        raise ConfigError(f"period {period} must be in [2, length {length}]")
    gen = RngState(seed).substream("synthetic-corpus")
    pattern = gen.integers(0, vocab, size=period, dtype=np.int64)
    reps = -(-length // period)
    return Corpus(np.tile(pattern, reps)[:length], vocab)


@dataclass(frozen=True)
class MetricsRow:
    step: int
    split: str  # "train" | "eval"
    lm_loss: float
    lb_loss: float
    z_loss: float
    total_loss: float
    lr_base: float
    lr_mem: float
    lr_bank: float
    grad_norm: float

    def to_csv_line(self) -> str:
        vals = (getattr(self, f.name) for f in fields(self))
        return ",".join(v if isinstance(v, str) else repr(v) for v in vals)


METRICS_HEADER = ",".join(f.name for f in fields(MetricsRow))


def metrics_csv(rows: list[MetricsRow]) -> str:
    return "\n".join([METRICS_HEADER] + [r.to_csv_line() for r in rows]) + "\n"


@dataclass
class TrainResult:
    metrics: list[MetricsRow]
    checkpoint: Checkpoint
    model: Model
    optimizer: AdamW
    eval_batches: list[np.ndarray]  # the batches every eval row was measured on

    def eval_rows(self) -> list[MetricsRow]:
        return [r for r in self.metrics if r.split == "eval"]


def sample_batch(region: np.ndarray, gen: np.random.Generator, batch_size: int, seq_len: int) -> np.ndarray:
    """(batch_size, seq_len) windows of ``region`` at uniform random starts."""
    starts = gen.integers(0, region.size - seq_len + 1, size=batch_size)
    return np.stack([region[s : s + seq_len] for s in starts])


def _eval_batches(region: np.ndarray, rng: RngState, cfg: TrainConfig) -> list[np.ndarray]:
    gen = rng.substream("eval-batches")
    n = min(cfg.batch_size, 4)
    return [sample_batch(region, gen, n, cfg.seq_len) for _ in range(EVAL_BATCHES)]


def _mean_losses(traces: list[ForwardTrace]) -> tuple[float, float, float, float]:
    """The mean (lm, lb, z, total) losses of ``traces``, summed in order."""
    lm = lb = z = total = 0.0
    for trace in traces:
        lm += trace.lm_loss
        lb += trace.lb_loss
        z += trace.z_loss
        total += trace.total_loss
    n = len(traces)
    return lm / n, lb / n, z / n, total / n


def _eval_losses(model: Model, batches: list[np.ndarray]) -> tuple[float, float, float, float]:
    return _mean_losses([model.forward(batch, batch) for batch in batches])


def _optimizer(model: Model, cfg: TrainConfig) -> AdamW:
    """A fresh AdamW over ``model`` as ``cfg`` sets it; built through the
    module global, so replacing ``AdamW`` here replaces every run's."""
    return AdamW(model.params, AdamWConfig(betas=cfg.betas, weight_decay=cfg.weight_decay),
                 frozen_groups=cfg.frozen_groups)


def train(
    model: Model,
    corpus: Corpus,
    cfg: TrainConfig,
    *,
    start_step: int = 0,
    optimizer: AdamW | None = None,
) -> TrainResult:
    if not 0 <= start_step <= cfg.steps:
        raise ConfigError(f"start_step {start_step} outside [0, steps={cfg.steps}]")
    if len(corpus) < cfg.batch_size * cfg.seq_len:
        raise ConfigError(
            f"corpus length {len(corpus)} below batch_size*seq_len = {cfg.batch_size * cfg.seq_len}"
        )
    if corpus.vocab > model.config.vocab:
        raise ConfigError(f"corpus vocab {corpus.vocab} exceeds model vocab {model.config.vocab}")
    if cfg.seq_len > model.config.max_seq_len:
        raise ConfigError(f"seq_len {cfg.seq_len} exceeds model max_seq_len {model.config.max_seq_len}")

    if optimizer is None:
        optimizer = _optimizer(model, cfg)
    have = (sorted(optimizer.frozen_groups), optimizer.cfg.betas, optimizer.cfg.weight_decay)
    want = (sorted(cfg.frozen_groups), cfg.betas, cfg.weight_decay)
    if have != want:
        raise ConfigError(f"optimizer (frozen groups, betas, weight_decay) {have} differs from the config's {want}")
    rng = RngState(cfg.seed)
    train_region, eval_region = corpus.split()
    if train_region.size < cfg.seq_len or eval_region.size < cfg.seq_len:
        raise ConfigError("corpus too short to carve train and eval regions of seq_len")
    eval_batches = _eval_batches(eval_region, rng, cfg)
    sched = None
    if cfg.steps > start_step:
        sched = cfg.schedule if cfg.schedule.total_steps is not None else cfg.schedule.with_total_steps(cfg.steps)
    base_lrs = cfg.group_lrs()

    rows: list[MetricsRow] = []
    last_ckpt = checkpoint_from(model, step=start_step, seed=cfg.seed, optimizer=optimizer)

    for step in range(start_step, cfg.steps):
        lrs = {g: lr_at_step(sched, step, base) for g, base in base_lrs.items()}
        model.zero_grads()  # drops what a caller's backward left; each step consumes its own
        traces = []
        try:
            for micro in range(cfg.grad_accum):
                batch = sample_batch(
                    train_region, rng.substream("batch", step, micro), cfg.batch_size, cfg.seq_len
                )
                with Tape() as tape:
                    trace = model.forward(batch, batch)
                    tape.backward(ops.scale(trace.loss, 1.0 / cfg.grad_accum))
                traces.append(trace)
            grad_norm = global_grad_norm(optimizer)
            clip_grad_norm(optimizer, cfg.clip_norm, grad_norm)
            optimizer.step(lrs, t=step + 1)
            done = step + 1
            logged = (lrs["base"], lrs["memory_layers"], lrs["memory_bank"], grad_norm)
            rows.append(MetricsRow(done, "train", *_mean_losses(traces), *logged))
            if done % cfg.eval_every == 0 or done == cfg.steps:
                rows.append(MetricsRow(done, "eval", *_eval_losses(model, eval_batches), *logged))
                # one snapshot live at a time: the eval row was this point's last
                # possible NumericError, and a copy raises none
                last_ckpt = None
                last_ckpt = checkpoint_from(model, step=done, seed=cfg.seed, optimizer=optimizer)
        except NumericError as e:
            raise TrainingAborted(str(e), last_ckpt, step) from e

    # the last step always snapshots, and start_step == steps snapshots the final state
    return TrainResult(rows, last_ckpt, model, optimizer, eval_batches)


def resume_train(ckpt: Checkpoint, corpus: Corpus, cfg: TrainConfig) -> TrainResult:
    """Continue the same run from a mid-run checkpoint: restores weights
    and optimizer moments, replays the original batch stream from the
    saved step."""
    if cfg.seed != ckpt.seed:
        raise ConfigError(f"resume seed {cfg.seed} differs from checkpoint seed {ckpt.seed}")
    if ckpt.step > cfg.steps:
        raise ConfigError(f"checkpoint step {ckpt.step} beyond configured steps {cfg.steps}")
    model = model_from_checkpoint(ckpt)
    optimizer = _optimizer(model, cfg)
    optimizer.load_moments(ckpt.moments)
    return train(model, corpus, cfg, start_step=ckpt.step, optimizer=optimizer)


def continue_train(
    ckpt: Checkpoint,
    corpus: Corpus,
    cfg: TrainConfig,
    expected_config: ModelConfig | None = None,
) -> TrainResult:
    """Second-phase training: fresh optimizer state and scheduler, with
    the context window re-opened to cfg.seq_len when it grew."""
    if expected_config is not None:
        check_config_match(expected_config, ckpt.config, ignore={"max_seq_len"})
    model = model_from_checkpoint(ckpt, max_seq_len=cfg.seq_len)
    return train(model, corpus, cfg)
