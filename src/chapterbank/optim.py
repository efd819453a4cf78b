"""AdamW with parameter groups, frozen groups, and global-norm clipping.

Decoupled weight decay hits matrix-shaped weights only (ndim >= 2);
norm gains and biases are exempt. The optimizer alone decides what is
trainable: frozen groups get no moment buffers and no gradient at all,
so the optimizer-state footprint shrinks by exactly 2 elements per
frozen parameter element (the m and v buffers) and backward skips them.

The optimizer adopts its trainable parameters into flat segments, one
per (dtype, group, decay) class, in the style of ZeRO's flat parameter
groups (Rajbhandari et al. 2020, arXiv 1910.02054): each segment holds
one contiguous data, m and v buffer, and every parameter's ``data`` and
moments are views into them. Gradients are not adopted: a parameter holds
its own from the backward that reaches it, dense or row-sparse (the rows a
gather picked), and this module reads it only through ``Tensor``'s
methods. The clip and the finiteness check touch only the stored elements
(``stored_grad``); the gradient norm and the update read each gradient
through its parameter, ``BLOCK`` elements of a segment at a time, exactly as
the dense arrays would read: a view when one dense gradient holds the whole
block, else each piece read in turn into scratch (``read_grad``), where a
missing gradient or row counts as zeros. A block with no stored element
(``holds_grad``) is all zeros: the norm skips it and the update reads a zero
view. The step checks every gradient before its first write and consumes
every gradient it applies. Only this module knows the layout; everything
else keeps writing through the views in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .config import Config
from .errors import ConfigError, NumericError
from .tensor import PARAM_GROUPS, Parameter

BLOCK = 1 << 16  # elements per pass of the update: 256-512 KB per buffer, cache-sized


@dataclass(frozen=True)
class AdamWConfig(Config):
    """Update settings, checked when built: each beta in [0, 1), ``eps``
    finite and > 0, ``weight_decay`` finite and >= 0."""

    betas: tuple[float, float] = (0.9, 0.95)
    eps: float = 1e-8
    weight_decay: float = 0.1

    def __post_init__(self):
        if not all(0.0 <= b < 1.0 for b in self.betas):
            raise ConfigError(f"betas must each lie in [0, 1), got {self.betas}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass(frozen=True)
class Segment:
    """The flat data and moment buffers of one (dtype, group, decay) class;
    ``names`` lists its parameters in the order they sit in the buffers, and
    ``blocks`` lists, per ``BLOCK`` elements of the buffers, the
    (parameter, start, stop) ranges of flat parameter elements it covers."""

    group: str
    decay: bool
    names: tuple[str, ...]
    data: np.ndarray
    m: np.ndarray
    v: np.ndarray
    blocks: tuple[tuple[tuple[Parameter, int, int], ...], ...]


def _block_ranges(params: list[Parameter]) -> tuple[tuple[tuple[Parameter, int, int], ...], ...]:
    """``Segment.blocks`` for parameters laid out back to back."""
    blocks, pieces, filled = [], [], 0
    for p in params:
        start = 0
        while start < p.size:
            stop = min(p.size, start + BLOCK - filled)
            pieces.append((p, start, stop))
            filled += stop - start
            start = stop
            if filled == BLOCK:
                blocks.append(tuple(pieces))
                pieces, filled = [], 0
    if pieces:
        blocks.append(tuple(pieces))
    return tuple(blocks)


def _block_grad(pieces: tuple[tuple[Parameter, int, int], ...], out: np.ndarray, view: bool) -> np.ndarray | None:
    """One segment block's flat gradient, element for element as the dense
    arrays would read: ``None`` when no piece holds a stored element, so the
    block is all zeros; with ``view``, a view of the dense grad when one
    parameter holds the whole block; else the pieces read in turn into
    ``out``."""
    if not any(p.holds_grad(a, b) for p, a, b in pieces):
        return None
    if view and len(pieces) == 1 and isinstance(pieces[0][0].grad, np.ndarray):
        p, a, b = pieces[0]
        return p.grad.reshape(-1)[a:b]
    at = 0
    for p, a, b in pieces:
        p.read_grad(a, b, out[at : at + b - a])
        at += b - a
    return out[:at]


class AdamW:
    """Holds per-parameter first/second moment buffers keyed by name.

    ``step`` takes the per-group learning rates already evaluated for the
    current schedule position and a 1-based step count for bias
    correction.

    Building the optimizer sets ``requires_grad`` on every parameter it is
    given. It copies each trainable parameter's data into its segment and
    rebinds it to a view, so a ``Parameter`` belongs to the last optimizer
    built over it; a grad stays with its parameter. Frozen parameters are
    not adopted: their grad is dropped and ops skip them in backward. The
    update runs in place over each segment in blocks of ``BLOCK``
    elements, once ``check_finite`` has found every grad finite; per
    dtype, two scratch buffers of one block (or the largest segment, when
    smaller) live for one ``step`` and hold every temporary of the update
    in turn, the block's assembled gradient included. The step ends by
    dropping every trainable grad: a gradient is applied once.
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
        self.decay_names = frozenset(
            name for name, p in self.params.items() if p.ndim >= 2
        )
        classes: dict[tuple[np.dtype, str, bool], list[str]] = {}
        # filled in parameter order; _adopt adds the moments
        self.state: dict[str, dict[str, np.ndarray]] = {}
        for name, p in self.params.items():
            p.requires_grad = p.group not in self.frozen_groups
            if not p.requires_grad:
                p.grad = None
                continue
            classes.setdefault((p.data.dtype, p.group, name in self.decay_names), []).append(name)
            self.state[name] = {}
        self.segments = [self._adopt(names, *key) for key, names in classes.items()]

    def _adopt(self, names: list[str], dtype: np.dtype, group: str, decay: bool) -> Segment:
        """Copy the named parameters into fresh flat buffers and rebind
        their data and moments to views of them."""
        params = [self.params[name] for name in names]
        n = sum(p.size for p in params)
        seg = Segment(group, decay, tuple(names), np.empty(n, dtype), np.zeros(n, dtype), np.zeros(n, dtype),
                      _block_ranges(params))
        start = 0
        for name, p in zip(names, params):
            stop = start + p.size
            data, m, v = (flat[start:stop].reshape(p.shape) for flat in (seg.data, seg.m, seg.v))
            data[...] = p.data
            p.data = data
            self.state[name] = {"m": m, "v": v}
            start = stop
        return seg

    def state_element_count(self) -> int:
        return sum(buf["m"].size + buf["v"].size for buf in self.state.values())

    def trainable(self) -> list[tuple[str, Parameter]]:
        return [(name, self.params[name]) for name in self.state]

    def load_moments(self, moments: Mapping[str, tuple[np.ndarray, np.ndarray]]) -> None:
        """Copy moments into the segments in place; every name, shape and
        dtype is checked before anything is written."""
        for name, pair in moments.items():
            if name not in self.state:
                raise ConfigError(f"moments for a parameter this optimizer does not train: {name!r}")
            for kind, arr in zip("mv", pair):
                own = self.state[name][kind]
                if arr.shape != own.shape:
                    raise ConfigError(f"moment {kind} shape {arr.shape} does not match parameter {name!r}")
                if arr.dtype != own.dtype:
                    raise ConfigError(f"moment {kind} dtype {arr.dtype} does not match parameter {name!r} ({own.dtype})")
        for name, (m, v) in moments.items():
            self.state[name]["m"][...] = m
            self.state[name]["v"][...] = v

    def check_finite(self) -> None:
        """Raise NumericError naming the first trainable parameter, in
        parameter order, whose grad is not finite."""
        for name, p in self.trainable():
            g = p.stored_grad()
            if g is not None and not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient in {name}; step aborted")

    def step(self, group_lrs: Mapping[str, float], t: int) -> None:
        if t < 1:
            raise ConfigError(f"bias correction needs step >= 1, got {t}")
        b1, b2 = self.cfg.betas
        c1, c2, eps, wd = 1.0 - b1, 1.0 - b2, self.cfg.eps, self.cfg.weight_decay
        inv1 = 1.0 / (1.0 - b1**t)
        inv2 = 1.0 / (1.0 - b2**t)
        lrs = {seg.group: float(group_lrs[seg.group]) for seg in self.segments}
        self.check_finite()  # before the first write, so a bad gradient changes nothing
        width: dict[np.dtype, int] = {}
        for seg in self.segments:
            width[seg.data.dtype] = max(width.get(seg.data.dtype, 0), min(BLOCK, seg.data.size))
        scratch = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in width.items()}
        for seg in self.segments:
            lr, decay = lrs[seg.group], wd != 0.0 and seg.decay
            t1, t2 = scratch[seg.data.dtype]
            for a, pieces in zip(range(0, seg.data.size, BLOCK), seg.blocks):
                w, m, v = (buf[a : a + BLOCK] for buf in (seg.data, seg.m, seg.v))
                s1, s2 = t1[: w.size], t2[: w.size]
                # a zero view, a view of the one dense grad that holds the block, or its pieces
                # read into s2, which is first written after g's last read
                g = _block_grad(pieces, s2, view=True)
                if g is None:
                    g = np.broadcast_to(np.zeros((), w.dtype), w.shape)
                # the same ops in the same order as m = b1*m + (1-b1)*g,
                # v = b2*v + (1-b2)*g^2, update = (m*inv1) / (sqrt(v*inv2) + eps)
                # [+ wd*w], w -= lr*update, so results are bit-identical
                m *= b1
                np.multiply(g, c1, out=s1)
                m += s1
                v *= b2
                np.square(g, out=s1)
                s1 *= c2
                v += s1
                np.multiply(m, inv1, out=s1)
                np.multiply(v, inv2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += eps
                s1 /= s2
                if decay:
                    np.multiply(w, wd, out=s2)
                    s1 += s2
                s1 *= lr
                w -= s1
        for _, p in self.trainable():
            p.grad = None


def global_grad_norm(optimizer: AdamW) -> float:
    """L2 norm of the optimizer's trainable grads, summed in float64 over
    its segments in ``BLOCK``-sized pieces through one scratch buffer,
    skipping every block that holds no stored element (its sum is 0.0);
    raises NumericError naming the first trainable parameter whose grad is
    not finite, or, when every grad is finite, saying that the sum
    overflows float64."""
    scratch = np.empty(max((min(BLOCK, seg.data.size) for seg in optimizer.segments), default=0), np.float64)
    total = 0.0
    for seg in optimizer.segments:
        for pieces in seg.blocks:
            # float64 on purpose: a float32 sum of squares over millions of elements loses digits
            g = _block_grad(pieces, scratch, view=False)
            if g is not None:
                total += float(np.dot(g, g))
    if not math.isfinite(total):
        optimizer.check_finite()
        raise NumericError("gradient sum of squares overflows float64; step aborted")
    return math.sqrt(total)


def clip_grad_norm(optimizer: AdamW, max_norm: float, norm: float) -> float:
    """Scale the optimizer's grads by max_norm/norm when norm, their
    ``global_grad_norm``, exceeds max_norm, one in-place multiply per
    parameter that holds a grad, over its stored elements only
    (``Tensor.stored_grad``); returns the applied scale factor."""
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    for _, p in optimizer.trainable():
        g = p.stored_grad()
        if g is not None:
            np.multiply(g, scale, out=g)
    return scale
