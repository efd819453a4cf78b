"""Learning-rate schedules: warmup-stable-decay and warmup-cosine.

Both warm up linearly from 0 to the base rate over `warmup` steps
(lr(warmup) == base exactly). WSD then holds the base rate until
`decay_start` and decays linearly to `min_ratio * base` at `total_steps`.
Cosine decays from base to 0 at `total_steps`. Steps past the end clamp
to the final value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import Config
from .errors import ConfigError


@dataclass(frozen=True)
class Schedule(Config):
    kind: str  # "wsd" | "cosine"
    warmup: int
    decay_start: int | None = None  # wsd only
    min_ratio: float = 0.1  # wsd only
    total_steps: int | None = None

    def __post_init__(self):
        if self.kind not in ("wsd", "cosine"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}; expected 'wsd' or 'cosine'")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        if self.kind == "wsd":
            if self.decay_start is None:
                raise ConfigError("wsd schedule requires decay_start")
            if not 0.0 <= self.min_ratio <= 1.0:
                raise ConfigError(f"min_ratio must be in [0, 1], got {self.min_ratio}")
            if self.decay_start < self.warmup:
                raise ConfigError(f"decay_start {self.decay_start} must be >= warmup {self.warmup}")
        if self.total_steps is not None:
            if self.total_steps <= self.warmup:
                raise ConfigError(f"total_steps {self.total_steps} must exceed warmup {self.warmup}")
            if self.kind == "wsd" and self.decay_start >= self.total_steps:
                raise ConfigError(f"decay_start {self.decay_start} must be < total_steps {self.total_steps}")

    def with_total_steps(self, n: int) -> "Schedule":
        return replace(self, total_steps=n)


def wsd(warmup: int, decay_start: int, min_ratio: float = 0.1, total_steps: int | None = None) -> Schedule:
    return Schedule("wsd", warmup, decay_start, min_ratio, total_steps)


def cosine(warmup: int, total_steps: int | None = None) -> Schedule:
    return Schedule("cosine", warmup, total_steps=total_steps)


def lr_at_step(schedule: Schedule, step: int, base_lr: float) -> float:
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    if schedule.total_steps is None:
        raise ConfigError("schedule needs total_steps before lr evaluation")
    total = schedule.total_steps
    if step < schedule.warmup:
        return base_lr * step / schedule.warmup
    if schedule.kind == "wsd":
        if step <= schedule.decay_start:
            return base_lr
        if step >= total:
            return base_lr * schedule.min_ratio
        frac = (step - schedule.decay_start) / (total - schedule.decay_start)
        return base_lr * (1.0 - (1.0 - schedule.min_ratio) * frac)
    if step >= total:
        return 0.0
    frac = (step - schedule.warmup) / (total - schedule.warmup)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))
