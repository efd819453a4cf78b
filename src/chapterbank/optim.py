"""AdamW with parameter groups, frozen groups, and global-norm clipping.

Decoupled weight decay hits matrix-shaped weights only (ndim >= 2);
norm gains and biases are exempt. Frozen groups get no moment buffers
at all, so the optimizer-state footprint shrinks by exactly 2 elements
per frozen parameter element (the m and v buffers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import PARAM_GROUPS, Parameter


@dataclass(frozen=True)
class AdamWConfig:
    betas: tuple[float, float] = (0.9, 0.95)
    eps: float = 1e-8
    weight_decay: float = 0.1


class AdamW:
    """Holds per-parameter first/second moment buffers keyed by name.

    ``step`` takes the per-group learning rates already evaluated for the
    current schedule position and a 1-based step count for bias
    correction. Each step appends one {group: lr} entry to ``audit``, the
    rates its updates applied, so tests can verify group/LR bookkeeping.

    The update runs in place: per dtype, two scratch buffers the size of
    the largest trainable parameter live for one ``step`` and hold every
    temporary of the update in turn.
    """

    def __init__(
        self,
        params: Mapping[str, Parameter],
        cfg: AdamWConfig = AdamWConfig(),
        frozen_groups: Iterable[str] = (),
    ):
        self.params = dict(params)
        self.cfg = cfg
        self.frozen_groups = frozenset(frozen_groups)
        unknown = self.frozen_groups - set(PARAM_GROUPS)
        if unknown:
            raise ConfigError(f"unknown frozen groups: {sorted(unknown)}")
        self.state: dict[str, dict[str, np.ndarray]] = {}
        for name, p in self.params.items():
            if p.group in self.frozen_groups:
                continue
            zeros = np.zeros(p.shape, dtype=p.value.data.dtype)
            self.state[name] = {"m": zeros.copy(), "v": zeros.copy()}
        self.decay_names = frozenset(
            name for name, p in self.params.items() if p.value.ndim >= 2
        )
        self.audit: list[dict[str, float]] = []

    def state_element_count(self) -> int:
        return sum(buf["m"].size + buf["v"].size for buf in self.state.values())

    def trainable(self) -> list[tuple[str, Parameter]]:
        return [(n, p) for n, p in self.params.items() if p.group not in self.frozen_groups]

    def load_moments(self, moments: Mapping[str, tuple[np.ndarray, np.ndarray]]) -> None:
        for name, (m, v) in moments.items():
            if name not in self.state:
                raise ConfigError(f"moments for unknown or frozen parameter {name!r}")
            if m.shape != self.state[name]["m"].shape:
                raise ConfigError(f"moment shape {m.shape} does not match parameter {name!r}")
            self.state[name]["m"] = m.copy()
            self.state[name]["v"] = v.copy()

    def step(self, group_lrs: Mapping[str, float], t: int) -> None:
        if t < 1:
            raise ConfigError(f"bias correction needs step >= 1, got {t}")
        b1, b2 = self.cfg.betas
        wd = self.cfg.weight_decay
        trainable = self.trainable()
        for name, p in trainable:
            if not np.all(np.isfinite(p.value.grad)):
                raise NumericError(f"non-finite gradient in {name}; step aborted")
        inv1 = 1.0 / (1.0 - b1**t)
        inv2 = 1.0 / (1.0 - b2**t)
        lrs = {p.group: float(group_lrs[p.group]) for _, p in trainable}
        largest: dict[np.dtype, int] = {}
        for _, p in trainable:
            largest[p.value.data.dtype] = max(largest.get(p.value.data.dtype, 0), p.size)
        scratch = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in largest.items()}
        for name, p in trainable:
            w, g, m, v = p.value.data, p.value.grad, self.state[name]["m"], self.state[name]["v"]
            s1, s2 = (buf[: p.size].reshape(p.shape) for buf in scratch[w.dtype])
            # the same ops in the same order as m = b1*m + (1-b1)*g,
            # v = b2*v + (1-b2)*g^2, update = (m*inv1) / (sqrt(v*inv2) + eps)
            # [+ wd*w], w -= lr*update, so results are bit-identical
            m *= b1
            np.multiply(g, 1.0 - b1, out=s1)
            m += s1
            v *= b2
            np.square(g, out=s1)
            s1 *= 1.0 - b2
            v += s1
            np.multiply(m, inv1, out=s1)
            np.multiply(v, inv2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.cfg.eps
            s1 /= s2
            if wd != 0.0 and name in self.decay_names:
                np.multiply(w, wd, out=s2)
                s1 += s2
            s1 *= lrs[p.group]
            w -= s1
        self.audit.append(lrs)


def global_grad_norm(params: Mapping[str, Parameter], frozen_groups: Iterable[str] = ()) -> float:
    frozen = frozenset(frozen_groups)
    total = 0.0
    for p in params.values():
        if p.group in frozen:
            continue
        # float64 on purpose: a float32 sum of squares over millions of elements loses digits
        g = p.value.grad.astype(np.float64, copy=False)
        total += float(np.dot(g.ravel(), g.ravel()))
    return math.sqrt(total)


def clip_grad_norm(
    params: Mapping[str, Parameter], max_norm: float, frozen_groups: Iterable[str] = (), norm: float | None = None
) -> float:
    """Scale all trainable grads by max_norm/norm when norm exceeds
    max_norm; returns the applied scale factor. ``norm`` is the
    ``global_grad_norm`` of these grads when the caller already has it."""
    if norm is None:
        norm = global_grad_norm(params, frozen_groups)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    frozen = frozenset(frozen_groups)
    for p in params.values():
        if p.group in frozen:
            continue
        p.value.grad *= scale
    return scale
