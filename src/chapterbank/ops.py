"""Differentiable array ops recorded on the active tape.

Each op computes its forward with numpy and, when a tape is active and an
input requires grad, records a handwritten backward closure. Backward
formulas are the standard ones (stated inline); the finite-difference
oracle in gradcheck.py verifies every one of them.

All ops raise NumericError if they produce NaN/Inf, ShapeError on operand
mismatch (naming both shapes), and ConfigError on bad structural
arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor import Parameter, Tensor, _check_finite, active_tape

# Additive pre-softmax mask value for disallowed positions. Finite (keeps
# the no-NaN/Inf invariant) but large enough that exp(x - max) underflows
# to exactly 0.0 in both single and double precision.
MASK_VALUE = -1e30


def _as_tensor(x) -> Tensor:
    if isinstance(x, Parameter):
        return x.value
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _record(out: Tensor, inputs: list[Tensor], backward_fn) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)
    _check_finite(out.data, "add")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _record(out, [a, b], backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)
    _check_finite(out.data, "mul")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return _record(out, [a, b], backward)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data / b.data)
    _check_finite(out.data, "div")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _record(out, [a, b], backward)


def scale(x, s: float) -> Tensor:
    x = _as_tensor(x)
    s = float(s)
    out = Tensor(x.data * s)
    _check_finite(out.data, "scale")

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * s)

    return _record(out, [x], backward)


def matmul(a, b) -> Tensor:
    """Matrix product; supports batched ``a`` (and ``b``) in leading dims.

    Backward: dA = dC @ B^T, dB = A^T @ dC, summed over broadcast batch
    dims.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-D+ operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)
    _check_finite(out.data, "matmul")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _record(out, [a, b], backward)


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.shape))

    return _record(out, [x], backward)


def swapaxes(x, a: int, b: int) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.ascontiguousarray(x.data.swapaxes(a, b)))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.ascontiguousarray(g.swapaxes(a, b)))

    return _record(out, [x], backward)


def index_slice(x, key) -> Tensor:
    """Basic (slice/int) indexing. Backward scatters into a zero tensor."""
    x = _as_tensor(x)
    out = Tensor(np.ascontiguousarray(x.data[key]))

    def backward(g):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            dx[key] += g
            x.accumulate_grad(dx)

    return _record(out, [x], backward)


def concat(xs, axis: int = 0) -> Tensor:
    xs = [_as_tensor(t) for t in xs]
    if not xs:
        raise ShapeError("concat of zero tensors")
    out = Tensor(np.concatenate([t.data for t in xs], axis=axis))
    sizes = [t.shape[axis] for t in xs]

    def backward(g):
        offset = 0
        for t, n in zip(xs, sizes):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + n)
                t.accumulate_grad(np.ascontiguousarray(g[tuple(sl)]))
            offset += n

    return _record(out, xs, backward)


def gather_rows(x, ids: np.ndarray) -> Tensor:
    """Select rows of a 2-D table by integer index (embedding/chapter gather).

    ``ids`` may have any shape; output shape is ids.shape + (row_dim,).
    Backward scatter-adds straight into ``x.grad`` (allocated on first
    use), so rows never gathered keep their grad bit-unchanged.
    """
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D table, got {x.shape}")
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= x.shape[0]):
        raise IndexError(f"row index out of range [0, {x.shape[0]}) in gather_rows")
    out = Tensor(x.data[ids])

    def backward(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            # cast first, as accumulate_grad does: mixed-dtype add.at is ~7x slower
            np.add.at(x.grad, ids, g.astype(x.grad.dtype, copy=False))

    return _record(out, [x], backward)


def repeat_interleave_axis(x, repeats: int, axis: int) -> Tensor:
    """Repeat each slice along ``axis`` (grouped-query KV head expansion)."""
    x = _as_tensor(x)
    out = Tensor(np.repeat(x.data, repeats, axis=axis))
    n = x.shape[axis]

    def backward(g):
        if x.requires_grad:
            shp = list(g.shape)
            ax = axis % g.ndim
            shp[ax : ax + 1] = [n, repeats]
            x.accumulate_grad(g.reshape(shp).sum(axis=ax + 1))

    return _record(out, [x], backward)


def mean_axis(x, axis: int, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims))
    n = x.shape[axis]

    def backward(g):
        if x.requires_grad:
            gg = g if keepdims else np.expand_dims(g, axis)
            x.accumulate_grad(np.broadcast_to(gg, x.shape) / n)

    return _record(out, [x], backward)


def sum_axis(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if x.requires_grad:
            if axis is None:
                x.accumulate_grad(np.broadcast_to(g, x.shape).astype(x.data.dtype))
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                x.accumulate_grad(np.broadcast_to(gg, x.shape).astype(x.data.dtype))

    return _record(out, [x], backward)


def mean_all(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.asarray(x.data.mean()))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(g, x.shape) / x.size)

    return _record(out, [x], backward)


# ---------------------------------------------------------------------------
# nonlinearities and norms


def softmax_lastdim(x, additive_mask: np.ndarray | None = None) -> Tensor:
    """Max-subtracted softmax over the last dimension.

    ``additive_mask`` (constant, broadcastable) is added to the logits
    first; use MASK_VALUE for disallowed positions. The mask must already
    have the logits' dtype: a float64 mask would promote float32 logits,
    and everything computed after them, to float64. Each output slice is
    nonnegative and sums to 1. Backward: dx = p * (g - sum(g * p)).
    """
    x = _as_tensor(x)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ShapeError(f"softmax over empty last dimension, shape {x.shape}")
    z = x.data if additive_mask is None else x.data + additive_mask
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)
    _check_finite(out.data, "softmax_lastdim")

    def backward(g):
        if x.requires_grad:
            inner = (g * p).sum(axis=-1, keepdims=True)
            x.accumulate_grad(p * (g - inner))

    return _record(out, [x], backward)


def logsumexp_lastdim(x) -> Tensor:
    """log(sum(exp(x))) over the last dim, max-subtracted. Backward: softmax * g."""
    x = _as_tensor(x)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ShapeError(f"logsumexp over empty last dimension, shape {x.shape}")
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=-1, keepdims=True)
    out = Tensor((m + np.log(s)).squeeze(-1))
    _check_finite(out.data, "logsumexp_lastdim")

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.expand_dims(g, -1) * (e / s))

    return _record(out, [x], backward)


def rmsnorm(x, gain, eps: float = 1e-6) -> Tensor:
    """y = gain * x / sqrt(mean(x^2) + eps) over the last dimension."""
    x, gain = _as_tensor(x), _as_tensor(gain)
    d = x.shape[-1]
    if gain.shape != (d,):
        raise ShapeError(f"rmsnorm gain shape {gain.shape} does not match feature dim ({d},)")
    inv = 1.0 / np.sqrt((x.data * x.data).mean(axis=-1, keepdims=True) + eps)
    out = Tensor(gain.data * x.data * inv)
    _check_finite(out.data, "rmsnorm")

    def backward(g):
        gg = g * gain.data
        if x.requires_grad:
            inner = (gg * x.data).sum(axis=-1, keepdims=True)
            x.accumulate_grad(gg * inv - x.data * (inv**3) * inner / d)
        if gain.requires_grad:
            dgain = (g * x.data * inv).reshape(-1, d).sum(axis=0)
            gain.accumulate_grad(dgain.astype(gain.data.dtype))

    return _record(out, [x, gain], backward)


def silu(x) -> Tensor:
    """z * sigmoid(z). Backward: sigmoid(z) * (1 + z * (1 - sigmoid(z)))."""
    x = _as_tensor(x)
    sig = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(x.data * sig)
    _check_finite(out.data, "silu")

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * sig * (1.0 + x.data * (1.0 - sig)))

    return _record(out, [x], backward)


def swiglu(x, w_up, w_gate, w_down) -> Tensor:
    """down(silu(x @ w_gate) * (x @ w_up)), composed from taped primitives."""
    return matmul(mul(silu(matmul(x, w_gate)), matmul(x, w_up)), w_down)


# ---------------------------------------------------------------------------
# rotary position embedding


def _rope_cos_sin(length: int, d_h: int, theta: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    half = d_h // 2
    # angles in float64 on purpose (pos * freq loses position digits in float32); cast to dtype below
    inv_freq = float(theta) ** (-2.0 * np.arange(half, dtype=np.float64) / d_h)
    angles = np.arange(length, dtype=np.float64)[:, None] * inv_freq[None, :]
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


def _rope_rotate(x: Tensor, theta: float) -> Tensor:
    d_h = x.shape[-1]
    if d_h % 2 != 0:
        raise ConfigError(f"rotary embedding needs an even head dimension, got {d_h}")
    length = x.shape[-2]
    cos, sin = _rope_cos_sin(length, d_h, theta, x.data.dtype)
    xe, xo = x.data[..., 0::2], x.data[..., 1::2]
    y = np.empty_like(x.data)
    y[..., 0::2] = xe * cos - xo * sin
    y[..., 1::2] = xe * sin + xo * cos
    out = Tensor(y)
    _check_finite(out.data, "rope")

    def backward(g):
        if x.requires_grad:
            ge, go = g[..., 0::2], g[..., 1::2]
            dx = np.empty_like(g)
            dx[..., 0::2] = ge * cos + go * sin
            dx[..., 1::2] = -ge * sin + go * cos
            x.accumulate_grad(dx)

    return _record(out, [x], backward)


def rope_apply(q, k, theta: float) -> tuple[Tensor, Tensor]:
    """Rotate (even, odd) feature pairs by pos * theta^(-2i/d_h).

    Position index runs along the second-to-last axis; pair i of the last
    axis is the 2-D plane (2i, 2i+1). Pure rotation, so per-pair L2 norms
    are preserved and position 0 is the identity.
    """
    return _rope_rotate(_as_tensor(q), theta), _rope_rotate(_as_tensor(k), theta)


# ---------------------------------------------------------------------------
# loss and selection


def cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-softmax of the target entries of (N, V) logits.

    Backward: (softmax(logits) - onehot(targets)) / N.
    """
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (N, V) logits, got {logits.shape}")
    n, v = logits.shape
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    if t.shape[0] != n:
        raise ShapeError(f"cross_entropy got {t.shape[0]} targets for {n} rows")
    if t.size and (t.min() < 0 or t.max() >= v):
        raise IndexError(f"target index out of range [0, {v})")
    m = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - m)
    s = e.sum(axis=-1, keepdims=True)
    lse = (m + np.log(s)).squeeze(-1)
    loss = Tensor(np.asarray((lse - logits.data[np.arange(n), t]).mean()))
    _check_finite(loss.data, "cross_entropy")

    def backward(g):
        if logits.requires_grad:
            p = e / s
            p[np.arange(n), t] -= 1.0
            logits.accumulate_grad(g * p / n)

    return _record(loss, [logits], backward)


def topk(p, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, descending
    value, ties to the lower index; shape p.shape[:-1] + (k,).
    Deterministic; not differentiable (selection only)."""
    arr = np.asarray(p.data if isinstance(p, Tensor) else p)
    if arr.ndim < 1:
        raise ShapeError(f"topk expects at least a 1-D tensor, got shape {arr.shape}")
    c = arr.shape[-1]
    if not 1 <= k <= c:
        raise ConfigError(f"topk k={k} out of range for {c} entries")
    # stable argsort of -p keeps ascending original index among ties
    return np.argsort(-arr, axis=-1, kind="stable")[..., :k]
