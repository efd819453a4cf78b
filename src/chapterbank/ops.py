"""Differentiable array ops recorded on the active tape.

Each op computes its forward with numpy and, when a tape is active and an
input requires grad, records a handwritten backward closure. Backward
formulas are the standard ones (stated inline); the finite-difference
oracle in gradcheck.py verifies every one of them. A backward adds into its
inputs' grads through ``Tensor.accumulate_grad`` or ``Tensor.add_rows``.

All ops raise NumericError if they produce NaN/Inf, ShapeError on operand
mismatch (naming both shapes), ConfigError on bad structural arguments,
and TypeError for an operand that is not a Tensor (a raw scalar or array
would carry its own dtype into the result).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor import Tensor, active_tape

# Additive pre-softmax mask value for disallowed positions. Finite (keeps
# the no-NaN/Inf invariant) but large enough that exp(x - max) underflows
# to exactly 0.0 in both single and double precision.
MASK_VALUE = -1e30

# The epsilon of every RMSNorm (``rms_norm``).
RMSNORM_EPS = 1e-6

# Rows per chunk of lm_head_loss: a (CE_CHUNK_ROWS, V) logits block is the
# largest head temporary.
CE_CHUNK_ROWS = 256

# Bytes of attention probabilities P per tile of ``attention``'s core: a tile
# is as many whole sequences as fit (at least one). Every op keeps each query
# row's max and sum and recomputes P in backward, tile by tile.
ATTN_TILE_BYTES = 1 << 20


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    raise TypeError(f"ops take a Tensor operand, got {type(x).__name__}")


def _check_finite(arr: np.ndarray, where: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {where}")


def _record(out: Tensor, inputs: list[Tensor], backward_fn) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    """a + b of two operands of one shape; no op broadcasts."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add needs two operands of one shape, got {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data)
    _check_finite(out.data, "add")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g.copy() if a.requires_grad else g)  # a copy only when a holds this very array

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


# ---------------------------------------------------------------------------
# row gathers


def _take_rows(x: Tensor, ids, where: str) -> tuple[np.ndarray, np.ndarray]:
    """(ids, the rows of the 2-D table ``x`` they pick), ids range-checked."""
    if x.ndim != 2:
        raise ShapeError(f"{where} expects a 2-D table, got {x.shape}")
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= x.shape[0]):
        raise IndexError(f"row index out of range [0, {x.shape[0]}) in {where}")
    return ids, x.data[ids]


def gather_rows(x, ids: np.ndarray) -> Tensor:
    """Select rows of a 2-D table by integer index (embedding gather).

    ``ids`` may have any shape; output shape is ids.shape + (row_dim,).
    Backward scatter-adds into ``x.grad`` (``Tensor.add_rows``): the picked
    rows alone, row-sparse unless ``x`` already holds a dense grad.
    """
    x = _as_tensor(x)
    ids, rows = _take_rows(x, ids, "gather_rows")
    out = Tensor(rows)

    def backward(g):
        if x.requires_grad:
            x.add_rows(ids, g)

    return _record(out, [x], backward)


# ---------------------------------------------------------------------------
# nonlinearities and norms


def softmax(x: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis of a plain array, untaped
    (router selection and the router ops). Each slice sums to 1."""
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ShapeError(f"softmax over empty last dimension, shape {x.shape}")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def rms_norm(x: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gain * x * inv, inv) of a plain array, inv = 1 / sqrt(mean(x^2) + eps),
    eps = RMSNORM_EPS, over the last dimension, untaped: the forward of every
    RMSNorm (both blocks, the memory tokens, the LM head and decoding). Its
    backward is ``_rmsnorm_grads``."""
    inv = np.add.reduce(x * x, axis=-1, keepdims=True)
    np.true_divide(inv, np.intp(x.shape[-1]), out=inv, casting="unsafe")  # the mean, as ndarray.mean divides
    inv += RMSNORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    return _normed(x, gain, inv), inv


def _normed(x: np.ndarray, gain: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """gain * x * inv, by the same ops in the same order every time, so a
    block's backward rebuilds the bits of its forward's normed input."""
    y = gain * x
    y *= inv
    return y


def _rmsnorm_grads(g: np.ndarray, x: np.ndarray, inv: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dx, dgain) of y = gain * x * inv, inv = 1 / sqrt(mean(x^2) + eps) over
    the last dimension. With xhat = x * inv: dgain = sum over rows of g * xhat
    and dx = (gg - xhat * mean(gg * xhat)) * inv, gg = g * gain; two full-size
    buffers, and mean(gg * xhat) is one GEMV of g * xhat by gain."""
    d = x.shape[-1]
    xhat = x * inv
    t = g * xhat
    dgain = t.reshape(-1, d).sum(axis=0)
    xhat *= (t.reshape(-1, d) @ gain).reshape(inv.shape) / d
    np.multiply(g, gain, out=t)
    t -= xhat
    t *= inv
    return t, dgain


def _residual_and_norm_backward(h: Tensor, gain: Tensor, inv: np.ndarray, g: np.ndarray, dx: np.ndarray) -> None:
    """The tail of a pre-norm block's backward: the upstream ``g`` goes to
    ``h`` as is (the residual path; the caller reads g no more), then the
    norm backward of ``dx``, the normed input's grad, goes to the gain and
    to h."""
    if h.requires_grad:
        h.accumulate_grad(g)
    dh, dgain = _rmsnorm_grads(dx.reshape(h.shape), h.data, inv, gain.data)
    if gain.requires_grad:
        gain.accumulate_grad(dgain)
    if h.requires_grad:
        h.accumulate_grad(dh)


def swiglu(h, gain, w_up, w_gate, w_down) -> Tensor:
    """The pre-norm MLP block h + down(silu(x @ w_gate) * (x @ w_up)),
    x = rms_norm(h) with ``gain`` and silu(z) = z * sigmoid(z), over the
    flattened rows of ``h``: one op, like the fused SwiGLU of Liger Kernel
    (Hsu et al. 2024, arXiv 2410.10989).

    Backward keeps only h's inverse RMS. It rebuilds x, then gate = x @ w_gate,
    up = x @ w_up, s = sigmoid(gate) and the hidden a = silu(gate) * up by
    the forward's ops, so every bit matches: with da = dO w_down^T,
    d_up = da * silu(gate) and d_gate = da * up * s * (1 + gate * (1 - s)),
    then dx = d_up w_up^T + d_gate w_gate^T.
    """
    h, gain, w_up, w_gate, w_down = (_as_tensor(t) for t in (h, gain, w_up, w_gate, w_down))
    d = h.shape[-1] if h.ndim >= 2 else -1
    if (gain.shape != (d,) or w_down.ndim != 2 or w_up.shape != (d, w_down.shape[0]) or w_gate.shape != w_up.shape
            or w_down.shape[1] != d):
        raise ShapeError(f"swiglu needs h (..., d), a (d,) gain, w_up and w_gate (d, f) and w_down (f, d), "
                         f"got {h.shape}, {gain.shape}, {w_up.shape}, {w_gate.shape} and {w_down.shape}")

    def hidden(x2):  # gate, up, s, silu(gate) and a, by the same ops every time; s = 1 / (1 + exp(-gate)) in one buffer
        gate, up = x2 @ w_gate.data, x2 @ w_up.data
        sig = np.negative(gate)
        np.exp(sig, out=sig)
        sig += 1.0
        np.divide(1.0, sig, out=sig)
        act = gate * sig
        return gate, up, sig, act, act * up

    x2, inv = rms_norm(h.data, gain.data)
    o = hidden(x2.reshape(-1, d))[4] @ w_down.data
    o += h.data.reshape(-1, d)
    out = Tensor(o.reshape(h.shape))
    _check_finite(out.data, "swiglu")

    def backward(g):
        x = _normed(h.data, gain.data, inv).reshape(-1, d)  # rebuilt, not held
        gate, up, sig, act, a = hidden(x)
        g2 = g.reshape(-1, d)
        if w_down.requires_grad:
            w_down.accumulate_grad(a.T @ g2)
        da = np.matmul(g2, w_down.data.T, out=a)  # a's buffer, read for the last time above
        del a
        d_up = np.multiply(da, act, out=act)
        da *= up
        d_gate = np.subtract(1.0, sig, out=up)  # up's buffer, read for the last time above
        d_gate *= gate
        del gate
        d_gate += 1.0
        d_gate *= sig
        del sig
        d_gate *= da
        del da
        for w, dw in ((w_up, d_up), (w_gate, d_gate)):
            if w.requires_grad:
                w.accumulate_grad(x.T @ dw)
        del x
        if h.requires_grad or gain.requires_grad:
            dx = d_up @ w_up.data.T
            dx += d_gate @ w_gate.data.T
            _residual_and_norm_backward(h, gain, inv, g, dx)

    return _record(out, [h, gain, w_up, w_gate, w_down], backward)


# ---------------------------------------------------------------------------
# attention


def rope(x: np.ndarray, theta: float, inverse: bool = False) -> np.ndarray:
    """Rotate (even, odd) feature pairs by pos * theta^(-2i/d_h).

    Position index runs along the second-to-last axis; pair i of the last
    axis is the 2-D plane (2i, 2i+1). Pure rotation, so per-pair L2 norms
    are preserved and position 0 is the identity. ``inverse`` rotates by
    minus the angle (the same rotation with -sin), which is also the
    backward of the forward rotation.
    """
    length, d_h = x.shape[-2:]
    if d_h % 2 != 0:
        raise ConfigError(f"rotary embedding needs an even head dimension, got {d_h}")
    cos, sin = _rope_tables(length, d_h, float(theta), x.dtype, inverse)
    xe, xo = x[..., 0::2], x[..., 1::2]
    y = np.empty_like(x)
    y[..., 0::2] = xe * cos - xo * sin
    y[..., 1::2] = xe * sin + xo * cos
    return y


@functools.lru_cache(maxsize=32)
def _rope_tables(length: int, d_h: int, theta: float, dtype: np.dtype, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (length, d_h // 2) cos and sin tables of ``rope``, built
    once per shape, base, dtype and direction (each attention block rotates
    Q and K forward and back on every step)."""
    # angles in float64 on purpose (pos * freq loses position digits in float32); cast to dtype below
    inv_freq = theta ** (-2.0 * np.arange(d_h // 2, dtype=np.float64) / d_h)
    angles = np.arange(length, dtype=np.float64)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(angles).astype(dtype), np.sin(-angles if inverse else angles).astype(dtype)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


@functools.lru_cache(maxsize=32)
def _causal_mask(length: int, dtype: np.dtype) -> np.ndarray:
    """The read-only (length, length) additive mask of causal attention:
    MASK_VALUE above the diagonal, 0 elsewhere; built once per length and
    dtype (every causal call of every step and decode reads one)."""
    mask = np.triu(np.full((length, length), MASK_VALUE, dtype=dtype), 1)
    mask.flags.writeable = False
    return mask


def _scores(q: np.ndarray, k: np.ndarray, scale_: float, mask: np.ndarray | None) -> np.ndarray:
    """The scaled, masked scores q k^T (..., g*Lq, Lk) of rotated queries
    against keys; ``mask`` is the (Lq, Lq) causal mask or None."""
    s = (q @ k.swapaxes(-1, -2)) * scale_
    if mask is not None:
        s.reshape(*s.shape[:2], -1, *mask.shape)[...] += mask
    return s


def _softmax_rows(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn scores into P in place, row by row; returns each row's max and
    its sum of exp(s - max), from which exp(s - max) / sum rebuilds P."""
    row_max = s.max(axis=-1, keepdims=True)
    s -= row_max
    np.exp(s, out=s)
    row_sum = s.sum(axis=-1, keepdims=True)
    s /= row_sum
    return row_max, row_sum


def _core_grads(p: np.ndarray, do: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                scale_: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dQ, dK, dV) of P V, P = softmax(scale * q k^T), from P and the heads'
    grad dO: dS = P * (dP - sum(dP * P)) with dP = dO V^T, dQ = dS K * scale,
    dK = dS^T Q * scale and dV = P^T dO."""
    ds = do @ v.swapaxes(-1, -2)  # dP
    ds -= (ds * p).sum(axis=-1, keepdims=True)
    ds *= p
    return (ds @ k) * scale_, (ds.swapaxes(-1, -2) @ q) * scale_, p.swapaxes(-1, -2) @ do


def attention(h, gain, kv, wq, wk, wv, wo, n_heads: int, n_kv_heads: int, causal: bool, rope_theta: float) -> Tensor:
    """One pre-norm grouped-query attention block, h + attn(x, kv) with
    x = rms_norm(h) by ``gain``: queries x @ wq attend over keys kv @ wk and
    values kv @ wv, and the heads are projected out by ``wo``. ``kv=None``
    is self-attention (kv is x); a memory read passes its memory tokens.

    ``h`` is (B, Lq, d) and ``kv`` (B, Lk, d_kv); ``wq`` is (d, n_heads*d_h),
    ``wk`` and ``wv`` are (d_kv, n_kv_heads*d_h) and ``wo`` is
    (n_heads*d_h, d). Each projection is one 2-D GEMM over flattened rows.
    Query head i reads KV head i // g (g = n_heads // n_kv_heads): the g
    heads sharing a KV head are stacked as rows of one (g*Lq, d_h) @ (d_h, Lk)
    product, so K/V are never expanded. ``causal`` rotates Q and K by
    ``rope`` and masks every key after the query position (Lq == Lk).

    The core (scores, scale, mask, softmax and P V) runs in tiles of whole
    sequences, as many as fit ATTN_TILE_BYTES of P and at least one, so
    each product and each row reduction is the one an untiled call makes,
    bit for bit. Backward keeps the heads H, the rotated Q, h's inverse RMS
    and each query row's max and sum, from which it recomputes each tile's
    P; an op that fits one tile is the loop's one-tile case. It rebuilds x
    from h, and K and V by the forward's ops from x (self-attention, K
    rotated again) or from the held kv: dwo = H^T dO and dH = dO wo^T; per
    tile, dV = P^T dH, dS = P * (dP - sum(dP * P)) with dP = dH V^T,
    dQ = dS K and dK = dS^T Q, then scaled and un-rotated; dwq = x^T dQ,
    dwk = kv^T dK, dwv = kv^T dV. The input grads are dkv = dV wv^T +
    dK wk^T and dx = dQ wq^T, summed in that order into one array for
    self-attention; dx goes through the norm backward to the gain and to
    h, after h's residual term dO.
    """
    h, gain, wq, wk, wv, wo = (_as_tensor(t) for t in (h, gain, wq, wk, wv, wo))
    kv = None if kv is None else _as_tensor(kv)
    if n_heads < 1 or n_kv_heads < 1 or n_heads % n_kv_heads:
        raise ConfigError(f"attention needs n_heads ({n_heads}) to be a multiple of n_kv_heads ({n_kv_heads})")
    b, lq, d = h.shape if h.ndim == 3 else (0, 0, -1)
    src = h if kv is None else kv
    lk, d_kv = src.shape[1:] if src.ndim == 3 else (0, -1)
    dim = wq.shape[1] if wq.ndim == 2 else 0
    d_h, g = dim // n_heads, n_heads // n_kv_heads
    kv_w = (d_kv, n_kv_heads * d_h)
    if (not d_h or gain.shape != (d,) or wq.shape != (d, d_h * n_heads) or wk.shape != kv_w or wv.shape != kv_w
            or wo.shape != (dim, d) or not lk or src.shape[0] != b or (causal and lk != lq)):
        raise ShapeError(f"{n_heads}/{n_kv_heads}-head attention, causal={causal}: h {h.shape}, gain {gain.shape}, "
                         f"kv {None if kv is None else kv.shape}, wq {wq.shape}, wk {wk.shape}, wv {wv.shape}, wo {wo.shape}")
    q_rows = lambda a: a.reshape(b, lq, n_kv_heads, g, d_h).transpose(0, 2, 3, 1, 4)  # (B,hkv,g,Lq,dh)
    q_cols = lambda a: a.reshape(b, n_kv_heads, g, lq, d_h).transpose(0, 3, 1, 2, 4).reshape(-1, dim)
    kv_rows = lambda a: a.reshape(b, lk, n_kv_heads, d_h).transpose(0, 2, 1, 3)  # (B,hkv,Lk,dh)
    kv_cols = lambda a: a.transpose(0, 2, 1, 3).reshape(-1, kv_w[1])

    def kv_heads(rows):  # K (rotated when causal) and V of the keys' (B*Lk, d_kv) rows, by the same ops every time
        kh = kv_rows(rows @ wk.data)
        return rope(kh, rope_theta) if causal else kh, kv_rows(rows @ wv.data)

    def normed_x():  # x rebuilt from h, not held
        return _normed(h.data, gain.data, inv).reshape(-1, d)

    x2, inv = rms_norm(h.data, gain.data)
    x2 = x2.reshape(-1, d)
    kh, vh = kv_heads(x2 if kv is None else kv.data.reshape(-1, d_kv))
    qh = q_rows(x2 @ wq.data)
    if causal:
        qh = rope(qh, rope_theta)
    qh = qh.reshape(b, n_kv_heads, g * lq, d_h)
    scale_ = d_h**-0.5  # a Python float: an np.float64 would promote float32 scores
    mask = _causal_mask(lq, qh.dtype) if causal else None
    per_tile = max(1, ATTN_TILE_BYTES // (n_heads * lq * lk * qh.itemsize))  # whole sequences per tile
    tiles = [slice(t, t + per_tile) for t in range(0, b, per_tile)]
    row_max, row_sum = np.empty((2, b, n_kv_heads, g * lq, 1), qh.dtype)
    pv = np.empty(qh.shape, qh.dtype)
    for t in tiles:
        s = _scores(qh[t], kh[t], scale_, mask)
        row_max[t], row_sum[t] = _softmax_rows(s)
        np.matmul(s, vh[t], out=pv[t])
        del s
    heads = q_cols(pv)  # (B*Lq, n_heads*dh)
    del pv
    o = heads @ wo.data
    o += h.data.reshape(-1, d)
    out = Tensor(o.reshape(h.shape))
    _check_finite(out.data, "attention")

    def backward(grad):
        g2 = grad.reshape(-1, d)
        if wo.requires_grad:
            wo.accumulate_grad(heads.T @ g2)
        do = q_rows(g2 @ wo.data.T).reshape(qh.shape)
        rows = normed_x() if kv is None else kv.data.reshape(-1, d_kv)
        kh, vh = kv_heads(rows)
        dq, dk, dv = (np.empty(a.shape, a.dtype) for a in (qh, kh, vh))
        for t in tiles:  # each tile's P again, exp(S - row max) / row sum: the forward's bits
            s = _scores(qh[t], kh[t], scale_, mask)
            s -= row_max[t]
            np.exp(s, out=s)
            s /= row_sum[t]
            dq[t], dk[t], dv[t] = _core_grads(s, do[t], qh[t], kh[t], vh[t], scale_)
            del s
        del do, kh, vh
        dq = dq.reshape(b, n_kv_heads, g, lq, d_h)
        dq = q_cols(rope(dq, rope_theta, inverse=True) if causal else dq)
        dk = kv_cols(rope(dk, rope_theta, inverse=True) if causal else dk)
        dv = kv_cols(dv)
        x = rows if kv is None else (normed_x() if wq.requires_grad else None)
        for w, a, dw in ((wq, x, dq), (wk, rows, dk), (wv, rows, dv)):
            if w.requires_grad:
                w.accumulate_grad(a.T @ dw)
        if kv is not None and kv.requires_grad:
            dkv = dv @ wv.data.T
            dkv += dk @ wk.data.T
            kv.accumulate_grad(dkv.reshape(kv.shape))
        if h.requires_grad or gain.requires_grad:
            if kv is None:
                dx = dv @ wv.data.T
                dx += dk @ wk.data.T
                dx += dq @ wq.data.T
            else:
                dx = dq @ wq.data.T
            _residual_and_norm_backward(h, gain, inv, grad, dx)

    return _record(out, [h, gain, wq, wk, wv, wo] + ([] if kv is None else [kv]), backward)


# ---------------------------------------------------------------------------
# routing, memory tokens, losses and selection


def lm_head_loss(h, gain, w, targets, transposed: bool = False) -> Tensor:
    """Mean next-token cross-entropy of the LM head, one op like the fused
    linear cross-entropy of Liger Kernel (Hsu et al. 2024, arXiv 2410.10989):
    positions 0..L-2 of the (..., L, d) states ``h``, read through a view and
    RMS-normalized with ``gain``, score the logits x @ w against
    ``targets[..., 1:]`` (targets are h.shape[:-1]).

    ``w`` is (d, V), or (V, d) used as x @ w^T with no copy when
    ``transposed`` (a tied embedding). Rows run in chunks of CE_CHUNK_ROWS,
    so the (N, V) logits are never all live; under a tape each chunk's
    dlogits = softmax - onehot is folded into dx and dW during the forward.
    Backward scales both by g / N and hands dW to ``w``, then the norm
    backward (``_rmsnorm_grads``, as in the blocks, over the same view of h)
    of dx to the gain and to h, whose last position gets zero; each buffer is
    dropped once handed over.
    """
    h, gain, w = _as_tensor(h), _as_tensor(gain), _as_tensor(w)
    wt = w.data.T if transposed else w.data  # (d, V) view
    t = np.asarray(targets, dtype=np.int64)
    if (h.ndim < 2 or h.shape[-2] < 2 or not t.size or t.shape != h.shape[:-1] or gain.shape != h.shape[-1:]
            or w.ndim != 2 or wt.shape[0] != h.shape[-1]):
        raise ShapeError(f"lm_head_loss needs (..., L>=2, d) states, a (d,) gain, a {'(V, d)' if transposed else '(d, V)'} "
                         f"weight and targets of shape (..., L), got {h.shape}, {gain.shape}, {w.shape} and {t.shape}")
    d, v = h.shape[-1], wt.shape[1]
    t = t[..., 1:].reshape(-1)
    n = t.size
    if t.min() < 0 or t.max() >= v:
        raise IndexError(f"target index out of range [0, {v})")
    x0 = h.data[..., :-1, :]  # a view: h is held anyway
    x2, inv = rms_norm(x0, gain.data)
    x2 = x2.reshape(n, d)
    taped = active_tape() is not None
    dx = np.empty_like(x2) if taped and (h.requires_grad or gain.requires_grad) else None
    dw = np.zeros_like(w.data) if taped and w.requires_grad else None
    total = 0.0
    for start in range(0, n, CE_CHUNK_ROWS):
        xs, ts = x2[start : start + CE_CHUNK_ROWS], t[start : start + CE_CHUNK_ROWS]
        rows = np.arange(ts.shape[0])
        z = xs @ wt  # (rows, V) logits of this chunk, turned into dlogits in place
        m = z.max(axis=1, keepdims=True)
        target_logit = z[rows, ts] - m[:, 0]
        z -= m
        np.exp(z, out=z)
        s = z.sum(axis=1, keepdims=True)
        # summed in float64 on purpose: one float32 total over every row loses digits
        total += float((np.log(s[:, 0]) - target_logit).sum(dtype=np.float64))
        if dx is None and dw is None:
            continue
        z /= s
        z[rows, ts] -= 1.0
        if dx is not None:
            dx[start : start + CE_CHUNK_ROWS] = z @ wt.T
        if dw is not None:
            dw += z.T @ xs if transposed else xs.T @ z
    loss = Tensor(np.asarray(total / n, dtype=x2.dtype))
    _check_finite(loss.data, "lm_head_loss")

    def backward(g):
        nonlocal dx, dw
        s = float(g) / n  # a Python float: an np.float64 would promote float32 grads
        if dw is not None:
            dw *= s
            w.accumulate_grad(dw)
            dw = None
        if dx is None:
            return
        dx *= s
        dx0, dgain = _rmsnorm_grads(dx.reshape(x0.shape), x0, inv, gain.data)
        dx = None
        if gain.requires_grad:
            gain.accumulate_grad(dgain)
        if h.requires_grad:
            dh = np.empty_like(h.data)
            dh[..., -1, :] = 0.0
            dh[..., :-1, :] = dx0
            h.accumulate_grad(dh)

    return _record(loss, [h, gain, w], backward)


def router_logits(h, weight, bias) -> Tensor:
    """(B, C) router logits of a (B, L, d) batch: the mean over positions,
    times the (d, C) ``weight``, plus the (C,) ``bias``. Backward:
    dbias = sum of g over sequences, dweight = pooled^T g, and every
    position gets dh = g weight^T / L."""
    h, weight, bias = _as_tensor(h), _as_tensor(weight), _as_tensor(bias)
    if h.ndim != 3 or weight.ndim != 2 or weight.shape[0] != h.shape[2] or bias.shape != weight.shape[1:]:
        raise ShapeError(f"router_logits needs (B, L, d) states, a (d, C) weight and a (C,) bias, "
                         f"got {h.shape}, {weight.shape} and {bias.shape}")
    pooled = h.data.mean(axis=1)
    out = Tensor(pooled @ weight.data + bias.data)
    _check_finite(out.data, "router_logits")

    def backward(g):
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=0))
        if weight.requires_grad:
            weight.accumulate_grad(pooled.T @ g)
        if h.requires_grad:
            h.accumulate_grad(np.broadcast_to((g @ weight.data.T)[:, None, :], h.shape) / h.shape[1])

    return _record(out, [h, weight, bias], backward)


def memory_tokens(bank, rows, weights, gain, adapter=None) -> Tensor:
    """The (B, S*t, d) memory tokens of S selected chapters of t rows each:
    the (B, S, t) ``rows`` of the 2-D ``bank``, plus x @ ``adapter`` when one
    is given, RMS-normalized with ``gain``, then scaled by the (B, S) chapter
    ``weights`` (norm first, so the weights survive it).

    Backward keeps the row ids, the inverse RMS and, with an adapter, the
    adapted rows x; it reads the picked rows x0 from the bank again, so the
    bank must not change between a forward and its backward (a training
    step updates it after the backward). dweights sums g * rms_norm(x) over
    each chapter's tokens, the norm backward takes g * weight, then
    dadapter = x0^T dx, dx += dx adapter^T, and dx is scatter-added into
    ``bank.grad`` (``Tensor.add_rows``, as in ``gather_rows``), which so
    holds the picked rows alone.
    """
    bank, weights, gain = _as_tensor(bank), _as_tensor(weights), _as_tensor(gain)
    adapter = None if adapter is None else _as_tensor(adapter)
    rows, x0 = _take_rows(bank, rows, "memory_tokens")
    d = bank.shape[1]
    if rows.ndim != 3 or weights.shape != rows.shape[:2] or gain.shape != (d,) or adapter is not None and adapter.shape != (d, d):
        raise ShapeError(f"memory_tokens needs (B, S, t) rows, (B, S) weights, a (d,) gain and a (d, d) adapter, got "
                         f"{rows.shape}, {weights.shape}, {gain.shape} and {None if adapter is None else adapter.shape}")
    adapted = None if adapter is None else x0 + (x0.reshape(-1, d) @ adapter.data).reshape(x0.shape)
    y, inv = rms_norm(x0 if adapted is None else adapted, gain.data)
    w = weights.data[:, :, None, None]
    y *= w
    out = Tensor(y.reshape(rows.shape[0], -1, d))
    _check_finite(out.data, "memory_tokens")

    def backward(g):
        x = bank.data[rows] if adapted is None else adapted
        g = g.reshape(x.shape)
        if weights.requires_grad:
            weights.accumulate_grad((g * _normed(x, gain.data, inv)).sum(axis=2).sum(axis=2))
        dx, dgain = _rmsnorm_grads(g * w, x, inv, gain.data)
        if gain.requires_grad:
            gain.accumulate_grad(dgain)
        if adapter is not None and adapter.requires_grad:
            adapter.accumulate_grad(bank.data[rows].reshape(-1, d).T @ dx.reshape(-1, d))
        if bank.requires_grad:  # a frozen bank skips the adapter's dx term and the scatter
            if adapter is not None:
                dx += (dx.reshape(-1, d) @ adapter.data.T).reshape(dx.shape)
            bank.add_rows(rows, dx)

    return _record(out, [bank, weights, gain] + ([] if adapter is None else [adapter]), backward)


def chapter_weights(logits, selected, shared: int, scaling: float) -> Tensor:
    """(B, shared + k) chapter weights: 1 per shared chapter, then scaling *
    softmax(logits[b, selected[b]]), so unselected logits get exactly zero
    gradient. Backward on the routed columns: dlogits[b, selected[b]] =
    scaling * w * (g - sum(g * w)), with w the selected softmax."""
    logits, sel = _as_tensor(logits), np.asarray(selected)
    if logits.ndim != 2 or sel.ndim != 2 or not sel.size or sel.shape[0] != logits.shape[0]:
        raise ShapeError(f"chapter_weights needs (B, C) logits and (B, k) ids, got {logits.shape} and {sel.shape}")
    if sel.min() < shared or sel.max() >= logits.shape[1]:
        raise IndexError(f"selected chapter out of the routed range [{shared}, {logits.shape[1]})")
    if (np.diff(np.sort(sel, axis=1), axis=1) == 0).any():  # the backward's += adds each chapter once per row
        raise ConfigError("chapter_weights needs distinct selected chapters in each row")
    rows, scaling = np.arange(sel.shape[0])[:, None], float(scaling)  # a Python float keeps float32 weights
    w = softmax(logits.data[rows, sel])
    out = Tensor(np.concatenate([np.ones((sel.shape[0], shared), dtype=w.dtype), w * scaling], axis=1))
    _check_finite(out.data, "chapter_weights")

    def backward(g):
        if logits.requires_grad:
            gw, dl = g[:, shared:], np.zeros_like(logits.data)
            dl[rows, sel] += w * (gw - (gw * w).sum(axis=1, keepdims=True)) * scaling
            logits.accumulate_grad(dl)

    return _record(out, [logits], backward)


def router_penalty(logits, selected, shared: int, lb_coeff: float, z_coeff: float) -> tuple[Tensor, float, float]:
    """(lb_coeff * lb + z_coeff * z, taped, then lb and z as floats) over
    the per-layer (B, C) router ``logits`` and (B, k) ``selected`` chapters.

    lb, the Switch load balance (Fedus et al. 2021), is the layer mean of
    C_r * sum_c f_c * mean_b q[b, c]: q = softmax(logits[:, shared:]), f_c the
    share of the B*k slots on chapter c; uniform routing gives 1, all slots
    on one chapter C_r. f is constant, so with u = C_r * f / (layers * B):
    dlogits[:, shared:] = q * (u - sum(u * q)). z, the ST-MoE router z-loss
    (Zoph et al. 2022), is the mean of lse^2 over layers and sequences, lse
    the logsumexp of all C logits: dlogits = 2 * lse / (layers * B) *
    softmax(logits). Backward adds each layer's z part, then its lb part,
    each scaled by g times its coefficient.
    """
    ts = [_as_tensor(t) for t in logits]
    if not ts or ts[0].ndim != 2 or any(t.shape != ts[0].shape for t in ts):
        raise ShapeError(f"router_penalty needs one or more (B, C) logits of one shape, got {[t.shape for t in ts]}")
    z = np.stack([t.data for t in ts])  # (layers, B, C)
    (n, b, c), c_r = z.shape, z.shape[2] - shared
    try:
        sel = np.asarray(selected)  # (layers, B, k)
    except ValueError:  # layers of different shapes
        sel = None
    if sel is None or sel.ndim != 3 or sel.shape[:2] != (n, b) or not sel.size:
        raise ShapeError(f"router_penalty needs ({n}, {b}, k) selections, k >= 1, for {n} layers of {z.shape[1:]} "
                         f"logits, got {[np.shape(s) for s in selected] if sel is None else sel.shape}")
    if sel.min() < shared or sel.max() >= c:
        raise IndexError(f"router_penalty selections must lie in the routed range [{shared}, {c})")
    f = (np.stack([np.bincount(s.ravel() - shared, minlength=c_r) for s in sel]) / sel[0].size).astype(z.dtype)
    q = softmax(z[:, :, shared:])
    u, d_lb = (f * (c_r / n / b))[:, None, :], np.zeros_like(z)
    d_lb[:, :, shared:] = q * (u - (u * q).sum(axis=-1, keepdims=True))
    lb = (q.mean(axis=1) * f).sum() * (c_r / n)
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))  # (layers, B, 1)
    zl, d_z = (lse * lse).mean(), np.exp(z - lse) * ((2.0 / lse.size) * lse)
    lb_coeff, z_coeff = float(lb_coeff), float(z_coeff)  # Python floats keep float32 values
    out = Tensor(np.asarray(lb * lb_coeff + zl * z_coeff))
    _check_finite(out.data, "router_penalty")

    def backward(g):
        s_lb, s_z = float(g * lb_coeff), float(g * z_coeff)
        for t, dl, dz in zip(ts, d_lb, d_z):
            if t.requires_grad:
                t.accumulate_grad(dz * s_z)
                t.accumulate_grad(dl * s_lb)

    return _record(out, ts, backward), float(lb), float(zl)


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
