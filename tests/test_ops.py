"""Kernel-level checks against naive, independently written oracles."""

import math
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chapterbank import ops
from chapterbank.errors import ConfigError, ShapeError
from chapterbank.tensor import RowGrad, Tape, Tensor
from conftest import weighted_sum


def rand_tensor(shape, seed=0, scale=1.0, requires_grad=False):
    gen = np.random.default_rng(seed)
    return Tensor(gen.standard_normal(shape) * scale, requires_grad=requires_grad)


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for l in range(k):
                s += a[i, l] * b[l, j]
            out[i, j] = s
    return out


def one_key(a, b, c):
    """ops.attention over a single key, whose softmax weight is exactly 1,
    with a zero residual: every query of sequence i reads (a[i] @ b) @ c,
    the value path alone."""
    n = c.shape[1]
    h, wq, wk = Tensor(np.zeros((a.shape[0], 1, n))), Tensor(np.ones((n, b.shape[1]))), Tensor(np.ones(b.shape))
    return ops.attention(h, Tensor(np.ones(n)), Tensor(a[:, None, :]), wq, wk, Tensor(b), Tensor(c), 1, 1, False, 1e4).data[:, 0]


def norm_backward(g, x, gain, eps=1e-6):
    """(dx, dgain) of y = gain * x * inv, inv = 1 / sqrt(mean(x^2) + eps), in
    closed form: dx = gg * inv - x * inv^3 * sum(gg * x) / d with gg = g * gain,
    and dgain = the sum over rows of g * x * inv."""
    d = x.shape[-1]
    inv = 1.0 / np.sqrt((x * x).mean(-1, keepdims=True) + eps)
    gg = g * gain
    return gg * inv - x * inv**3 * (gg * x).sum(-1, keepdims=True) / d, (g * x * inv).reshape(-1, d).sum(0)


def identity_block(h, gain):
    """h + rms_norm(h) of (N, 1, d) one-position sequences: self-attention
    with identity weights, whose one key's softmax weight is exactly 1 and
    whose query and key get exactly zero grad."""
    eye = Tensor(np.eye(h.shape[-1], dtype=h.data.dtype))
    return ops.attention(h, gain, None, eye, eye, eye, eye, 1, 1, False, 1e4)


class TestMatmul:
    """No taped matmul is left: the GEMMs run inside the fused ops, over
    flattened rows (attention's four projections and the LM head)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_against_triple_loop(self, seed):
        gen = np.random.default_rng(seed)
        a, b, c = gen.standard_normal((4, 6)), gen.standard_normal((6, 3)), gen.standard_normal((3, 5))
        np.testing.assert_allclose(one_key(a, b, c), naive_matmul(naive_matmul(a, b), c), rtol=1e-12, atol=1e-12)

    def test_batched_matches_per_slice(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((2, 3, 4))
        w = [Tensor(gen.standard_normal(shape)) for shape in [(4, 4), (4, 2), (4, 2), (4, 4)]]
        block = lambda h: ops.attention(Tensor(h), Tensor(np.ones(4)), None, *w, 2, 1, True, 1e4)
        got = block(x).data
        assert got.shape == (2, 3, 4)
        for i in range(2):
            np.testing.assert_allclose(got[i], block(x[i : i + 1]).data[0], rtol=1e-12, atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        x, w = rand_tensor((1, 3, 8)), rand_tensor((8, 8))
        with pytest.raises(ShapeError) as e:
            ops.attention(x, rand_tensor(8), x, rand_tensor((3, 8)), w, w, w, 2, 2, False, 1e4)
        assert "(1, 3, 8)" in str(e.value) and "(3, 8)" in str(e.value)

    def test_four_d_a_matches_per_slice(self):
        # the head flattens a (..., L, d) input to rows: a (2, 3, 4, 5) batch
        # is the mean of its six (4, 5) sequences
        gen = np.random.default_rng(5)
        a, b, t = gen.standard_normal((2, 3, 4, 5)), gen.standard_normal((5, 6)), gen.integers(0, 6, (2, 3, 4))
        gain = Tensor(gen.standard_normal(5))
        got = ops.lm_head_loss(Tensor(a), gain, Tensor(b), t).item()
        slices = [ops.lm_head_loss(Tensor(a[i, j]), gain, Tensor(b), t[i, j]).item() for i in range(2) for j in range(3)]
        np.testing.assert_allclose(got, np.mean(slices), rtol=1e-12)

    def test_batched_b_rejected(self):
        x, w = rand_tensor((2, 3, 4)), rand_tensor((4, 4))
        with pytest.raises(ShapeError) as e:
            ops.attention(x, rand_tensor(4), x, w, w, w, rand_tensor((4, 4, 5)), 2, 2, False, 1e4)
        assert "(4, 4, 5)" in str(e.value)


class TestSoftmax:
    def test_scalar_oracle(self):
        x = np.array([[0.3, -1.2, 2.0, 0.0]])
        got = ops.softmax(x)
        m = max(x[0])
        exps = [math.exp(v - m) for v in x[0]]
        want = [e / sum(exps) for e in exps]
        np.testing.assert_allclose(got[0], want, rtol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one(self, seed):
        x = rand_tensor((3, 7), seed, scale=4.0).data
        got = ops.softmax(x)
        np.testing.assert_allclose(got.sum(-1), np.ones(3), rtol=1e-12)

    def test_masked_entries_exactly_zero(self):
        x = rand_tensor((2, 5), 0).data
        x[:, 3:] += ops.MASK_VALUE
        got = ops.softmax(x)
        assert (got[:, 3:] == 0.0).all()
        np.testing.assert_allclose(got.sum(-1), np.ones(2), rtol=1e-12)

    def test_empty_last_dim_rejected(self):
        with pytest.raises(ShapeError):
            ops.softmax(np.zeros((3, 0)))

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, vals, c):
        x = np.array(vals)
        np.testing.assert_allclose(ops.softmax(x), ops.softmax(x + c), rtol=1e-9, atol=1e-12)


def taped_grads(f, *tensors):
    """Upstream-weighted gradients of f(*tensors) for tensors that require grad."""
    with Tape() as tape:
        out = f(*tensors)
        loss = weighted_sum(out, np.random.default_rng(7).standard_normal(out.shape))
    tape.backward(loss)
    return [t.grad for t in tensors]


class TestChapterWeights:
    def test_matches_full_softmax_renormalized_over_selection(self):
        logits = rand_tensor((4, 9), 1, scale=3.0)
        sel = np.array([[3, 8, 2], [2, 3, 4], [8, 7, 6], [5, 2, 3]])
        got = ops.chapter_weights(logits, sel, 2, 1.7).data
        p = ops.softmax(logits.data)
        p_sel = np.take_along_axis(p, sel, axis=1)
        np.testing.assert_array_equal(got[:, :2], 1.0)
        np.testing.assert_allclose(got[:, 2:], 1.7 * p_sel / p_sel.sum(axis=1, keepdims=True), rtol=1e-14)
        np.testing.assert_allclose(got[:, 2:].sum(axis=1), np.full(4, 1.7), rtol=1e-14)

    @pytest.mark.parametrize("shared, k", [(0, 1), (0, 3), (2, 1), (2, 4)])
    def test_unselected_logits_get_exactly_zero_grad(self, shared, k):
        logits = rand_tensor((5, 10), 2, requires_grad=True)
        sel = shared + ops.topk(rand_tensor((5, 10 - shared), 3).data, k)
        (grad,) = taped_grads(lambda t: ops.chapter_weights(t, sel, shared, 2.0), logits)
        picked = np.zeros_like(grad, dtype=bool)
        np.put_along_axis(picked, sel, True, axis=1)
        assert (grad[~picked] == 0.0).all()
        if k > 1:
            assert (grad[picked] != 0.0).all()
        else:  # one selected chapter always weighs `scaling`, whatever its logit
            assert (grad == 0.0).all()

    def test_single_stays_single(self):
        logits = Tensor(rand_tensor((3, 6), 4).data, precision="single", requires_grad=True)
        sel = np.array([[1, 2], [4, 5], [3, 1]])
        assert ops.chapter_weights(logits, sel, 1, 1.5).data.dtype == np.float32
        (grad,) = taped_grads(lambda t: ops.chapter_weights(t, sel, 1, 1.5), logits)
        assert grad.dtype == np.float32

    def test_bad_selection_rejected(self):
        logits = rand_tensor((2, 6), 5)
        with pytest.raises(ShapeError):
            ops.chapter_weights(logits, np.array([1, 2]), 1, 1.0)
        with pytest.raises(ShapeError):
            ops.chapter_weights(logits, np.zeros((2, 0), dtype=np.int64), 1, 1.0)
        with pytest.raises(IndexError):
            ops.chapter_weights(logits, np.array([[0, 2], [1, 2]]), 1, 1.0)  # a shared chapter
        with pytest.raises(IndexError):
            ops.chapter_weights(logits, np.array([[1, 6], [1, 2]]), 1, 1.0)
        with pytest.raises(ConfigError):
            ops.chapter_weights(logits, np.array([[1, 3], [2, 2]]), 1, 1.0)  # a chapter twice in one row

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_equals_the_add_at_scatter(self, dtype):
        # shared chapter 0 takes no logit gradient; the routed ones are scattered by row
        logits = Tensor(rand_tensor((4, 7), 6, scale=2.0).data.astype(dtype), requires_grad=True)
        sel = np.array([[3, 1, 6], [2, 5, 1], [6, 4, 3], [1, 2, 3]])
        g = rand_tensor((4, 4), 7).data.astype(dtype)
        with Tape() as tape:
            out = ops.chapter_weights(logits, sel, 1, 1.3)
            tape.backward(weighted_sum(out, g))
        rows = np.arange(4)[:, None]
        w, gw, want = ops.softmax(logits.data[rows, sel]), g[:, 1:], np.zeros_like(logits.data)
        np.add.at(want, (rows, sel), w * (gw - (gw * w).sum(axis=1, keepdims=True)) * 1.3)
        assert logits.grad.tobytes() == want.tobytes()


class TestRouterLogits:
    def test_matches_mean_pool_then_linear(self):
        gen = np.random.default_rng(30)
        h, w, b = gen.standard_normal((3, 5, 4)), gen.standard_normal((4, 6)), gen.standard_normal(6)
        got = ops.router_logits(Tensor(h), Tensor(w), Tensor(b)).data
        for i in range(3):
            pooled = sum(h[i, j] for j in range(5)) / 5
            np.testing.assert_allclose(got[i], naive_matmul(pooled[None], w)[0] + b, rtol=1e-12)

    def test_single_stays_single_with_one_tape_record(self):
        h, w, b = (Tensor(rand_tensor(shape, i).data, precision="single", requires_grad=True)
                   for i, shape in enumerate([(2, 3, 4), (4, 5), (5,)]))
        with Tape() as tape:
            out = ops.router_logits(h, w, b)
            assert len(tape) == 1 and out.data.dtype == np.float32
            tape.backward(weighted_sum(out))
        assert all(t.grad.dtype == np.float32 for t in (h, w, b))
        np.testing.assert_allclose(h.grad, np.broadcast_to(w.data.sum(axis=1) / 3, (2, 3, 4)), rtol=1e-6)

    def test_shape_errors(self):
        h, w = rand_tensor((2, 3, 4)), rand_tensor((4, 5))
        with pytest.raises(ShapeError):
            ops.router_logits(rand_tensor((3, 4)), w, rand_tensor((5,)))
        with pytest.raises(ShapeError):
            ops.router_logits(h, rand_tensor((5, 5)), rand_tensor((5,)))
        with pytest.raises(ShapeError) as e:
            ops.router_logits(h, w, rand_tensor((1, 5)))
        assert "(1, 5)" in str(e.value)


def naive_memory_tokens(bank, rows, weights, gain, adapter=None, eps=1e-6):
    """Token by token: the picked row, plus row @ adapter, RMS-normalized
    and scaled by its chapter's weight, at position s * t + j."""
    b, s, t = rows.shape
    out = np.zeros((b, s * t, bank.shape[1]))
    for i in range(b):
        for c in range(s):
            for j in range(t):
                x = bank[rows[i, c, j]]
                if adapter is not None:
                    x = x + naive_matmul(x[None], adapter)[0]
                out[i, c * t + j] = weights[i, c] * gain * x / math.sqrt(sum(v * v for v in x) / x.size + eps)
    return out


def held_rows_memory_tokens(bank, rows, weights, gain, adapter=None, eps=1e-6):
    """ops.memory_tokens as a backward that holds the picked rows x0 computes
    it: the reference its bank re-read must match bit for bit."""
    rows, x0 = ops._take_rows(bank, rows, "memory_tokens")
    d = bank.shape[1]
    x = x0 if adapter is None else x0 + (x0.reshape(-1, d) @ adapter.data).reshape(x0.shape)
    inv = 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps)
    w = weights.data[:, :, None, None]
    out = Tensor((gain.data * x * inv * w).reshape(rows.shape[0], -1, d))

    def backward(g):
        g = g.reshape(x.shape)
        weights.accumulate_grad((g * (gain.data * x * inv)).sum(axis=2).sum(axis=2))
        dx, dgain = ops._rmsnorm_grads(g * w, x, inv, gain.data)
        gain.accumulate_grad(dgain)
        if adapter is not None:
            adapter.accumulate_grad(x0.reshape(-1, d).T @ dx.reshape(-1, d))
        if bank.requires_grad:
            if adapter is not None:
                dx += (dx.reshape(-1, d) @ adapter.data.T).reshape(dx.shape)
            bank.add_rows(rows, dx)

    return ops._record(out, [bank, weights, gain] + ([] if adapter is None else [adapter]), backward)


class TestMemoryTokens:
    ROWS = np.array([[0, 3, 1], [0, 3, 4]])[:, :, None] * 2 + np.arange(2)  # 6 chapters of 2 rows; 2 and 5 unread

    @pytest.mark.parametrize("adapter", [False, True])
    def test_matches_token_by_token_oracle(self, adapter):
        gen = np.random.default_rng(31)
        bank, weights, gain, a = gen.standard_normal((12, 4)), gen.standard_normal((2, 3)), gen.standard_normal(4), gen.standard_normal((4, 4))
        a = a if adapter else None
        got = ops.memory_tokens(Tensor(bank), self.ROWS, Tensor(weights), Tensor(gain), None if a is None else Tensor(a)).data
        np.testing.assert_allclose(got, naive_memory_tokens(bank, self.ROWS, weights, gain, a), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("adapter", [False, True])
    def test_rows_never_picked_keep_bit_identical_grads(self, adapter):
        gen = np.random.default_rng(32)
        bank = Tensor(gen.standard_normal((12, 4)), requires_grad=True)
        before = gen.standard_normal((12, 4))
        bank.grad = before.copy()
        weights, gain = rand_tensor((2, 3), 33, requires_grad=True), rand_tensor((4,), 34, requires_grad=True)
        a = rand_tensor((4, 4), 35, requires_grad=True) if adapter else None
        with Tape() as tape:
            out = ops.memory_tokens(bank, self.ROWS, weights, gain, a)
            assert len(tape) == 1
            tape.backward(weighted_sum(out, rand_tensor(out.shape, 36).data))
        unread = [4, 5, 10, 11]
        np.testing.assert_array_equal(bank.grad[unread], before[unread])
        picked = np.setdiff1d(np.arange(12), unread)
        assert (bank.grad[picked] != before[picked]).all()

    @pytest.mark.parametrize("adapter", [False, True])
    @pytest.mark.parametrize("frozen_bank", [False, True])
    def test_grads_equal_the_held_rows_version(self, adapter, frozen_bank):
        # backward reads the picked rows from the bank again instead of
        # holding them, bit for bit as a backward that held them
        gen = np.random.default_rng(37)
        init = [gen.standard_normal(shape) for shape in ((12, 4), (2, 3), (4,), (4, 4))]
        up = gen.standard_normal((2, 6, 4))

        def grads(op):
            bank, weights, gain, a = (Tensor(x.copy(), requires_grad=True) for x in init)
            bank.requires_grad = not frozen_bank
            a = a if adapter else None
            with Tape() as tape:
                out = op(bank, self.ROWS, weights, gain, a)
                tape.backward(weighted_sum(out, up))
            return out.data, [None if t.grad is None else t.dense_grad() for t in (bank, weights, gain, a) if t is not None]

        got, want = grads(ops.memory_tokens), grads(held_rows_memory_tokens)
        assert got[0].tobytes() == want[0].tobytes()
        assert [None if g is None else g.tobytes() for g in got[1]] == [None if g is None else g.tobytes() for g in want[1]]
        assert (got[1][0] is None) == frozen_bank

    @pytest.mark.parametrize("adapter", [False, True])
    def test_taped_call_holds_no_picked_rows(self, adapter):
        # the output and the inverse RMS (the row ids are the caller's array),
        # and the adapted rows with an adapter; holding the picked rows again
        # takes it past the bound
        bank = rand_tensor((4096, 64), 38, requires_grad=True)
        weights, gain = rand_tensor((4, 6), 39, requires_grad=True), rand_tensor((64,), 40, requires_grad=True)
        a = rand_tensor((64, 64), 41, scale=0.1, requires_grad=True) if adapter else None
        rows = np.random.default_rng(42).integers(0, 4096, size=(4, 6, 32))
        n = rows.size
        kept = 8 * (n * 64 * (2 if adapter else 1) + n)
        held = held_bytes(lambda: ops.memory_tokens(bank, rows, weights, gain, a))
        assert kept <= held < kept + 4 * n * 64, (held, kept)

    def test_single_stays_single(self):
        bank, weights, gain, a = (Tensor(rand_tensor(shape, i).data, precision="single", requires_grad=True)
                                  for i, shape in enumerate([(12, 4), (2, 3), (4,), (4, 4)]))
        with Tape() as tape:
            out = ops.memory_tokens(bank, self.ROWS, weights, gain, a)
            tape.backward(weighted_sum(out))
        assert out.data.dtype == np.float32 and out.shape == (2, 6, 4)
        assert all(t.stored_grad().dtype == np.float32 for t in (bank, weights, gain, a))

    def test_bad_inputs_rejected(self):
        bank, weights, gain = rand_tensor((12, 4)), rand_tensor((2, 3)), rand_tensor((4,))
        with pytest.raises(IndexError):
            ops.memory_tokens(bank, self.ROWS + 3, weights, gain)  # row 12
        with pytest.raises(ShapeError):
            ops.memory_tokens(bank, self.ROWS, rand_tensor((2, 2)), gain)
        with pytest.raises(ShapeError):
            ops.memory_tokens(bank, self.ROWS[:, :, 0], weights, gain)
        with pytest.raises(ShapeError):
            ops.memory_tokens(bank, self.ROWS, weights, gain, rand_tensor((4, 5)))
        with pytest.raises(ShapeError):
            ops.memory_tokens(rand_tensor((12, 4, 1)), self.ROWS, weights, gain)


def naive_load_balance(logits, selected, shared):
    total = 0.0
    for z, sel in zip(logits, selected):
        b, c = z.shape
        c_r = c - shared
        for ch in range(c_r):
            f = sum(1 for row in sel for s in row if s - shared == ch) / sel.size
            q = [math.exp(z[i, shared + ch]) / sum(math.exp(v) for v in z[i, shared:]) for i in range(b)]
            total += c_r * f * sum(q) / b
    return total / len(logits)


class TestRouterLosses:
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("shared", [0, 2])
    def test_load_balance_matches_scalar_loop(self, n_layers, shared):
        gen = np.random.default_rng(n_layers + 10 * shared)
        logits = [gen.standard_normal((4, 7)) for _ in range(n_layers)]
        selected = [shared + ops.topk(gen.standard_normal((4, 7 - shared)), 2) for _ in range(n_layers)]
        penalty, got, z = ops.router_penalty([Tensor(z) for z in logits], selected, shared, 1.0, 0.0)
        assert abs(got - naive_load_balance(logits, selected, shared)) < 1e-14
        assert penalty.item() == got + 0.0 * z

    def test_uniform_gives_one_and_collapse_gives_routed_count(self):
        sel = np.array([[1, 2], [3, 4], [5, 6], [7, 8]])  # every routed chapter once
        assert ops.router_penalty([Tensor(np.zeros((4, 9)))], [sel], 1, 1.0, 0.0)[1] == pytest.approx(1.0, abs=1e-15)
        z = np.zeros((3, 9))
        z[:, 4] = 60.0
        lb = ops.router_penalty([Tensor(z)], [np.full((3, 1), 4)], 1, 1.0, 0.0)[1]
        assert lb == pytest.approx(8.0, abs=1e-12)

    def test_shared_logits_get_exactly_zero_lb_grad(self):
        logits = rand_tensor((4, 9), 6, requires_grad=True)
        sel = 2 + ops.topk(rand_tensor((4, 7), 7).data, 3)
        with Tape() as tape:
            lb = ops.router_penalty([logits], [sel], 2, 1.0, 0.0)[0]  # the z part is weighted 0
        tape.backward(lb)
        assert (logits.grad[:, :2] == 0.0).all() and (logits.grad[:, 2:] != 0.0).all()

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_z_loss_matches_scalar_loop(self, n_layers):
        gen = np.random.default_rng(20 + n_layers)
        logits = [gen.standard_normal((3, 5)) * 4 for _ in range(n_layers)]
        want = np.mean([math.log(sum(math.exp(v) for v in row)) ** 2 for z in logits for row in z])
        sel = [np.array([[0], [3], [4]])] * n_layers
        penalty, lb, got = ops.router_penalty([Tensor(z) for z in logits], sel, 0, 0.0, 1.0)
        assert abs(got - want) < 1e-13 and penalty.item() == 0.0 * lb + got
        got = ops.router_penalty([Tensor(np.zeros((2, 17)))], [np.array([[1], [2]])], 0, 0.0, 1.0)[2]
        assert got == pytest.approx(math.log(17) ** 2, abs=1e-13)

    def test_single_stays_single(self):
        logits = [Tensor(rand_tensor((3, 6), s).data, precision="single", requires_grad=True) for s in (8, 9)]
        sel = [np.array([[1, 2], [4, 5], [3, 1]])] * 2
        with Tape() as tape:
            loss, lb, z = ops.router_penalty(logits, sel, 1, 0.01, 0.001)
        tape.backward(loss)
        assert loss.data.dtype == np.float32
        assert loss.item() == np.float32(np.float32(lb) * np.float32(0.01)) + np.float32(np.float32(z) * np.float32(0.001))
        assert all(t.grad.dtype == np.float32 for t in logits)

    def test_bad_inputs_rejected(self):
        z, sel = [Tensor(np.zeros((2, 6)))], [np.array([[1], [2]])]
        with pytest.raises(ShapeError):
            ops.router_penalty([], [], 1, 1.0, 1.0)
        with pytest.raises(ShapeError):
            ops.router_penalty([z[0], Tensor(np.zeros((3, 6)))], sel * 2, 1, 1.0, 1.0)
        with pytest.raises(IndexError):
            ops.router_penalty(z, [np.array([[0], [2]])], 1, 1.0, 1.0)
        with pytest.raises(IndexError):
            ops.router_penalty(z, sel, 6, 1.0, 1.0)

    @pytest.mark.parametrize("layers, sel", [
        (1, [np.array([1, 2])]),  # ndim 2
        (1, np.ones((1, 2, 1, 1), dtype=np.int64)),  # ndim 4
        (1, [np.array([[1], [2]])] * 2),  # one layer's logits, two layers' selections
        (1, [np.array([[1], [2], [3]])]),  # B=3 selections for B=2 logits
        (1, np.zeros((1, 2, 0), dtype=np.int64)),  # k = 0
        (1, np.zeros((0, 2, 1), dtype=np.int64)),  # no layer
        (2, [np.array([[1], [2]]), np.array([[1, 2], [3, 4]])]),  # two layers of different k
    ], ids=["ndim2", "ndim4", "layers", "batch", "empty-k", "empty-layers", "ragged"])
    def test_a_selection_of_the_wrong_shape_is_a_shape_error(self, layers, sel):
        with pytest.raises(ShapeError, match=rf"router_penalty needs \({layers}, 2, k\) selections"):
            ops.router_penalty([Tensor(np.zeros((2, 6)))] * layers, sel, 1, 1.0, 1.0)


class TestRmsnorm:
    """The norm both blocks open with, read as the output of
    ``identity_block`` minus its residual h."""

    def test_scalar_oracle(self):
        x = np.array([[1.0, -2.0, 3.0]])
        gain = np.array([0.5, 1.0, 2.0])
        eps = 1e-6
        ms = sum(v * v for v in x[0]) / 3
        want = [v / math.sqrt(ms + eps) * g for v, g in zip(x[0], gain)]
        got = identity_block(Tensor(x[:, None]), Tensor(gain)).data[:, 0] - x
        np.testing.assert_allclose(got[0], want, rtol=1e-14)
        np.testing.assert_allclose(ops.rms_norm(x, gain)[0][0], want, rtol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_unit_rms_with_unit_gain(self, seed):
        x = rand_tensor((4, 1, 6), seed, scale=3.0)
        got = identity_block(x, Tensor(np.ones(6))).data - x.data
        rms = np.sqrt((got**2).mean(-1))
        np.testing.assert_allclose(rms, np.ones((4, 1)), rtol=1e-5)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance_far_from_eps(self, s):
        # exact invariance is broken only by eps, negligible at rms >> 1
        x = rand_tensor((2, 1, 5), 1, scale=100.0)
        gain = Tensor(np.ones(5))
        a = identity_block(x, gain).data - x.data
        b = identity_block(Tensor(x.data * s), gain).data - x.data * s
        np.testing.assert_allclose(a, b, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("precision, rtol", [("double", 1e-12), ("single", 2e-5)])
    def test_backward_matches_closed_form(self, precision, rtol):
        # h's grad is the upstream g (the residual) plus the norm backward of
        # g, which the identity weights pass through exactly; the op
        # evaluates the closed form in another order
        gen = np.random.default_rng(3)
        x = Tensor(gen.standard_normal((10, 1, 8)) * 2.0, precision, requires_grad=True)
        gain = Tensor(gen.standard_normal(8), precision, requires_grad=True)
        g = gen.standard_normal((10, 1, 8))
        with Tape() as tape:
            tape.backward(weighted_sum(identity_block(x, gain), g))
        xd, gd, wd = x.data.astype(np.float64), gain.data.astype(np.float64), g.astype(x.data.dtype).astype(np.float64)
        want_dx, want_dgain = norm_backward(wd, xd, gd)
        np.testing.assert_allclose(x.grad - wd, want_dx, rtol=rtol, atol=rtol * np.abs(want_dx).max())
        np.testing.assert_allclose(gain.grad, want_dgain, rtol=rtol, atol=rtol * np.abs(want_dgain).max())


class TestSwiglu:
    def test_scalar_oracle(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((2, 3))
        wu, wg, wd = gen.standard_normal((3, 4)), gen.standard_normal((3, 4)), gen.standard_normal((4, 3))
        gain = gen.standard_normal(3)
        got = ops.swiglu(Tensor(x), Tensor(gain), Tensor(wu), Tensor(wg), Tensor(wd)).data - x
        up, gate = normed(x, gain) @ wu, normed(x, gain) @ wg
        silu = gate / (1.0 + np.exp(-gate))
        want = (up * silu) @ wd
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("precision, rtol", [("double", 1e-13), ("single", 1e-6)])
    def test_silu_backward_matches_closed_form(self, precision, rtol):
        # silu'(z) = s * (1 + z * (1 - s)), s = sigmoid(z), inside the swiglu
        # backward; h's grad is the residual's upstream plus the norm backward
        gen = np.random.default_rng(4)
        x = Tensor(gen.standard_normal((3, 5)) * 2.0, precision, requires_grad=True)
        wu, wg, wd = (Tensor(gen.standard_normal(shape), precision, requires_grad=True) for shape in ((5, 7), (5, 7), (7, 5)))
        g = gen.standard_normal((3, 5))
        gain = Tensor(gen.standard_normal(5), precision, requires_grad=True)
        with Tape() as tape:
            tape.backward(weighted_sum(ops.swiglu(x, gain, wu, wg, wd), g))
        hd, nd, ud, gd, dd = (t.data.astype(np.float64) for t in (x, gain, wu, wg, wd))
        xd = normed(hd, nd)
        upstream = g.astype(x.data.dtype).astype(np.float64)
        z, up = xd @ gd, xd @ ud
        sig = 1.0 / (1.0 + np.exp(-z))
        dh = upstream @ dd.T
        d_up, d_gate = dh * z * sig, dh * up * sig * (1.0 + z * (1.0 - sig))
        dx, dgain = norm_backward(d_gate @ gd.T + d_up @ ud.T, hd, nd)
        want = [(x, upstream + dx), (gain, dgain), (wu, xd.T @ d_up), (wg, xd.T @ d_gate), (wd, (z * sig * up).T @ upstream)]
        for t, w in want:
            np.testing.assert_allclose(t.grad, w, rtol=rtol, atol=rtol * np.abs(w).max())

    def test_silu_fixture(self):
        # rows of one RMS and a gain that undoes its inverse: gate = z and
        # up = 1, so the output is h + silu(z) in its first column
        h = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
        inv = 1.0 / np.sqrt(2.0 / 3.0 + 1e-6)
        gain = Tensor(np.array([100.0 / inv, 1.0, 1.0 / inv]))
        w_up, w_gate = Tensor(np.array([[0.0], [0.0], [1.0]])), Tensor(np.array([[1.0], [0.0], [0.0]]))
        got = ops.swiglu(Tensor(h), gain, w_up, w_gate, Tensor(np.array([[1.0, 0.0, 0.0]]))).data - h
        np.testing.assert_allclose(got[:, 0], [0.0, 100.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_one_tape_record_in_model_dtype(self, precision):
        x, gain, wu, wg, wd = (Tensor(rand_tensor(shape, i).data, precision, requires_grad=True)
                               for i, shape in enumerate([(2, 3, 4), (4,), (4, 6), (4, 6), (6, 4)]))
        with Tape() as tape:
            out = ops.swiglu(x, gain, wu, wg, wd)
            assert len(tape) == 1 and out.shape == (2, 3, 4) and out.data.dtype == x.data.dtype
            tape.backward(weighted_sum(out))
        assert all(t.grad.dtype == x.data.dtype for t in (x, gain, wu, wg, wd))

    def test_shape_errors(self):
        x, gain, w = rand_tensor((2, 4)), rand_tensor(4), rand_tensor((4, 6))
        with pytest.raises(ShapeError) as e:
            ops.swiglu(x, gain, w, rand_tensor((4, 5)), rand_tensor((6, 4)))
        assert "(4, 6)" in str(e.value) and "(4, 5)" in str(e.value)
        with pytest.raises(ShapeError):
            ops.swiglu(x, gain, w, w, rand_tensor((5, 4)))
        with pytest.raises(ShapeError):
            ops.swiglu(rand_tensor((4,)), gain, w, w, rand_tensor((6, 4)))
        with pytest.raises(ShapeError) as e:  # the residual needs an output as wide as h
            ops.swiglu(x, gain, w, w, rand_tensor((6, 5)))
        assert "(6, 5)" in str(e.value)
        with pytest.raises(ShapeError) as e:
            ops.swiglu(x, rand_tensor(3), w, w, rand_tensor((6, 4)))
        assert "(3,)" in str(e.value)


class TestRope:
    def test_explicit_trig_oracle(self):
        theta = 100.0
        d_h, length = 4, 3
        gen = np.random.default_rng(2)
        q = gen.standard_normal((1, length, d_h))
        qr = ops.rope(q, theta)
        want = np.empty_like(q)
        for pos in range(length):
            for i in range(d_h // 2):
                ang = pos * theta ** (-2.0 * i / d_h)
                c, s = math.cos(ang), math.sin(ang)
                xe, xo = q[0, pos, 2 * i], q[0, pos, 2 * i + 1]
                want[0, pos, 2 * i] = xe * c - xo * s
                want[0, pos, 2 * i + 1] = xe * s + xo * c
        np.testing.assert_allclose(qr, want, rtol=1e-12)
        np.testing.assert_allclose(ops.rope(qr, theta, inverse=True), q, rtol=1e-12, atol=1e-15)

    def test_position_zero_is_identity(self):
        q = rand_tensor((2, 1, 8), 0).data
        np.testing.assert_allclose(ops.rope(q, 1e4), q, rtol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_pair_norms_preserved(self, seed):
        q = rand_tensor((2, 5, 6), seed).data
        qr = ops.rope(q, 1e4)
        before = q[..., 0::2] ** 2 + q[..., 1::2] ** 2
        after = qr[..., 0::2] ** 2 + qr[..., 1::2] ** 2
        np.testing.assert_allclose(before, after, rtol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_cached_tables_keep_the_bits_and_are_read_only(self, dtype, inverse):
        x = rand_tensor((2, 3, 7, 8), 4).data.astype(dtype)
        inv_freq = 1e4 ** (-2.0 * np.arange(4, dtype=np.float64) / 8)
        angles = np.arange(7, dtype=np.float64)[:, None] * inv_freq[None, :]
        cos, sin = np.cos(angles).astype(dtype), np.sin(-angles if inverse else angles).astype(dtype)
        want = np.empty_like(x)
        want[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
        want[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
        for _ in range(2):  # the second call reads the cached tables
            assert ops.rope(x, 1e4, inverse=inverse).tobytes() == want.tobytes()
        tables = ops._rope_tables(7, 8, 1e4, np.dtype(dtype), inverse)
        assert all(t.dtype == dtype and not t.flags.writeable for t in tables)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            ops.rope(np.zeros((1, 2, 3)), 1e4)
        x, w = rand_tensor((1, 2, 6)), Tensor(np.eye(6))  # two heads of d_h = 3
        with pytest.raises(ConfigError):
            ops.attention(x, Tensor(np.ones(6)), None, w, w, w, w, 2, 2, True, 1e4)


def naive_attention(q, k, v, n_heads, n_kv_heads, causal, theta):
    """Per-sequence, per-head loops over plain numpy; RoPE by ops.rope,
    which TestRope checks against explicit trig."""
    b, lq, dim = q.shape
    dh, groups = dim // n_heads, n_heads // n_kv_heads
    out = np.zeros_like(q)
    for s in range(b):
        for hh in range(n_heads):
            kv = hh // groups
            qh, kh = q[s, :, hh * dh : (hh + 1) * dh], k[s, :, kv * dh : (kv + 1) * dh]
            if causal:
                qh, kh = ops.rope(qh, theta), ops.rope(kh, theta)
            for t in range(lq):
                keys = t + 1 if causal else k.shape[1]
                scores = qh[t] @ kh[:keys].T / math.sqrt(dh)
                w = np.exp(scores - scores.max())
                out[s, t, hh * dh : (hh + 1) * dh] = (w / w.sum()) @ v[s, :keys, kv * dh : (kv + 1) * dh]
    return out


def naive_block(x, kv, wq, wk, wv, wo, n_heads, n_kv_heads, causal, theta):
    """The attention block unfused: the four projections in numpy around
    naive_attention."""
    return naive_attention(x @ wq, kv @ wk, kv @ wv, n_heads, n_kv_heads, causal, theta) @ wo


def core_inputs(q, k, v):
    """(h, gain, kv, wq, wk, wv, wo) whose projections select exactly: h = q
    under a unit gain and kv = [k, v], so ops.attention adds q to its core
    run on normed(q), k and v as given."""
    eye, zero = np.eye(k.shape[-1]), np.zeros((k.shape[-1],) * 2)
    kv = np.concatenate([k, v], axis=-1)
    w = [np.eye(q.shape[-1]), np.vstack([eye, zero]), np.vstack([zero, eye]), np.eye(q.shape[-1])]
    return [Tensor(q), Tensor(np.ones(q.shape[-1])), Tensor(kv)] + [Tensor(a) for a in w]


class TestAttention:
    @pytest.mark.parametrize("groups", (1, 2, 4))
    @pytest.mark.parametrize("causal", (False, True))
    def test_matches_naive_per_head_loops(self, groups, causal):
        gen = np.random.default_rng(groups)
        lq, lk = (6, 6) if causal else (3, 7)
        q = gen.standard_normal((2, lq, 4 * 4))
        k, v = gen.standard_normal((2, 2, lk, 4 // groups * 4))
        got = ops.attention(*core_inputs(q, k, v), 4, 4 // groups, causal, 100.0).data - q
        np.testing.assert_allclose(got, naive_attention(normed(q), k, v, 4, 4 // groups, causal, 100.0), atol=1e-12)
        # the whole block, self-attention when causal, over another width
        x = gen.standard_normal((2, lq, 12))
        kv = x if causal else gen.standard_normal((2, lk, 10))
        w = [gen.standard_normal(shape) * 0.3 for shape in [(12, 16), (kv.shape[2], 16 // groups), (kv.shape[2], 16 // groups), (16, 12)]]
        gain = gen.standard_normal(12)
        got = ops.attention(Tensor(x), Tensor(gain), None if causal else Tensor(kv), *map(Tensor, w), 4, 4 // groups,
                            causal, 100.0).data - x
        xn = normed(x, gain)
        np.testing.assert_allclose(got, naive_block(xn, xn if causal else kv, *w, 4, 4 // groups, causal, 100.0), atol=1e-12)

    @pytest.mark.parametrize("groups", (1, 2))
    def test_later_keys_and_values_leave_earlier_outputs_bit_identical(self, groups):
        gen = np.random.default_rng(groups)
        q = gen.standard_normal((2, 8, 16))
        k, v = gen.standard_normal((2, 2, 8, 4 // groups * 4))
        base = ops.attention(*core_inputs(q, k, v), 4, 4 // groups, True, 1e4).data
        k[:, 5:] += gen.standard_normal(k[:, 5:].shape)
        v[:, 5:] += gen.standard_normal(v[:, 5:].shape)
        moved = ops.attention(*core_inputs(q, k, v), 4, 4 // groups, True, 1e4).data
        np.testing.assert_array_equal(moved[:, :5], base[:, :5])
        assert np.abs(moved[:, 5:] - base[:, 5:]).min() > 0.0
        # self-attention: later rows of x move later queries, keys and values
        x = gen.standard_normal((2, 8, 12))
        w = [Tensor(gen.standard_normal(shape)) for shape in [(12, 16), (12, 16 // groups), (12, 16 // groups), (16, 12)]]
        gain = Tensor(np.linspace(0.5, 1.5, 12))
        base = ops.attention(Tensor(x), gain, None, *w, 4, 4 // groups, True, 1e4).data
        x[:, 5:] += gen.standard_normal(x[:, 5:].shape)
        moved = ops.attention(Tensor(x), gain, None, *w, 4, 4 // groups, True, 1e4).data
        np.testing.assert_array_equal(moved[:, :5], base[:, :5])
        assert np.abs(moved[:, 5:] - base[:, 5:]).min() > 0.0

    @pytest.mark.parametrize("causal", (False, True))
    def test_single_stays_float32_with_one_tape_record(self, causal):
        shapes = [(2, 4, 8), (8,), (2, 4, 6), (8, 8), (6, 4), (6, 4), (8, 8)]
        x, gain, kv, *w = (Tensor(rand_tensor(shape, i).data, precision="single", requires_grad=True)
                           for i, shape in enumerate(shapes))
        with Tape() as tape:
            out = ops.attention(x, gain, kv, *w, 2, 1, causal, 1e4)
            assert len(tape) == 1
            loss = weighted_sum(out, rand_tensor(out.shape, 3).data)
            tape.backward(loss)
        assert out.data.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for t in [x, gain, kv] + w)

    @pytest.mark.parametrize("precision", ("double", "single"))
    @pytest.mark.parametrize("causal", (False, True))
    def test_tiles_are_bit_equal_to_one_tile(self, causal, precision, monkeypatch):
        # 4 query heads over 2 KV heads; 7 sequences in tiles of 3, 3 and 1
        b, lq, lk = 7, 6, 6 if causal else 9
        shapes = [(b, lq, 12), (12,), (b, lk, 10), (12, 16), (12 if causal else 10, 8), (12 if causal else 10, 8),
                  (16, 12)]

        def run():
            h, gain, kv, *w = (Tensor(rand_tensor(shape, i, scale=0.5).data, precision=precision, requires_grad=True)
                               for i, shape in enumerate(shapes))
            with Tape() as tape:
                out = ops.attention(h, gain, None if causal else kv, *w, 4, 2, causal, 1e4)
                tape.backward(weighted_sum(out, rand_tensor(out.shape, 9).data))
            return [out.data] + [t.grad for t in [h, gain] + ([] if causal else [kv]) + w]

        tiles, scores = [], ops._scores
        monkeypatch.setattr(ops, "_scores", lambda q, *rest: tiles.append(len(q)) or scores(q, *rest))
        one = run()
        assert tiles == [b, b]  # the forward's one tile, then the backward recomputes its P
        per_seq = 4 * lq * lk * one[0].itemsize
        monkeypatch.setattr(ops, "ATTN_TILE_BYTES", 3 * per_seq + per_seq // 2)
        tiles.clear()
        tiled = run()
        assert tiles == [3, 3, 1] * 2  # the forward's tiles, then the backward recomputes each P
        for want, got in zip(one, tiled, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_causal_mask_is_cached_read_only(self, dtype):
        mask = ops._causal_mask(7, np.dtype(dtype))
        assert mask is ops._causal_mask(7, np.dtype(dtype)) and not mask.flags.writeable
        assert mask.tobytes() == np.triu(np.full((7, 7), ops.MASK_VALUE, dtype=dtype), 1).tobytes()

    def test_shape_and_head_errors(self):
        x, gain, kv = rand_tensor((1, 3, 8)), rand_tensor(8), rand_tensor((1, 5, 4))
        wq, wkv, wo = rand_tensor((8, 8)), rand_tensor((4, 4)), rand_tensor((8, 8))
        with pytest.raises(ShapeError):
            ops.attention(x, gain, kv, wq, wkv, wkv, wo, 2, 1, True, 1e4)  # causal needs Lq == Lk
        with pytest.raises(ShapeError):
            ops.attention(x, gain, rand_tensor((2, 5, 4)), wq, wkv, wkv, wo, 2, 1, False, 1e4)  # batch sizes differ
        with pytest.raises(ShapeError):
            ops.attention(x, gain, rand_tensor((1, 0, 4)), wq, wkv, wkv, wo, 2, 1, False, 1e4)
        with pytest.raises(ConfigError):
            ops.attention(x, gain, kv, wq, wkv, wkv, wo, 2, 3, False, 1e4)
        with pytest.raises(ShapeError):  # self-attention projects h itself, 8 wide
            ops.attention(x, gain, None, wq, wkv, wkv, wo, 2, 1, True, 1e4)
        with pytest.raises(ShapeError) as e:
            ops.attention(x, rand_tensor(4), kv, wq, wkv, wkv, wo, 2, 1, False, 1e4)
        assert "(4,)" in str(e.value)
        ok = [wq, wkv, wkv, wo]
        for i, bad in enumerate([(6, 8), (4, 5), (5, 4), (7, 8), (8, 6)]):  # wq, wk, wv, wo and wo's width in turn
            w = list(ok)
            w[min(i, 3)] = rand_tensor(bad)
            with pytest.raises(ShapeError) as e:
                ops.attention(x, gain, kv, *w, 2, 1, False, 1e4)
            assert str(bad) in str(e.value)
        ops.attention(x, gain, kv, *ok, 2, 1, False, 1e4)


def held_bytes(f):
    """Bytes still allocated after a taped call of ``f``: what its record
    keeps for the backward, plus the output. A first untaped call fills the
    rope and mask caches."""
    f()
    tracemalloc.start()
    try:
        with Tape():
            before = tracemalloc.get_traced_memory()[0]
            f()
            return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestBlocksHoldNoNormedInput:
    """A taped block keeps h's inverse RMS instead of the normed input x, no
    projection its backward can rebuild (SwiGLU's gate and up, attention's
    K and V), and its output is h + block(x) with no second array before
    the residual add. Each bound is the arrays the op's docstring lists,
    plus half a (rows, d) array of slack: holding x, gate, up, K, V or the
    pre-residual output again fails it."""

    B, L, D, F = 4, 64, 96, 192  # 4 query heads over 2 KV heads of d_h = 24

    def weights(self, *shapes):
        return [rand_tensor(shape, i, scale=0.3, requires_grad=True) for i, shape in enumerate(shapes)]

    def test_swiglu(self):
        h, gain, wu, wg, wd = self.weights((self.B, self.L, self.D), (self.D,), (self.D, self.F), (self.D, self.F),
                                           (self.F, self.D))
        n = self.B * self.L
        kept = 8 * (n * self.D + n)  # output, inverse RMS
        held = held_bytes(lambda: ops.swiglu(h, gain, wu, wg, wd))
        assert kept <= held < kept + 4 * n * self.D, (held, kept)

    @pytest.mark.parametrize("causal, tiled", [(False, False), (True, False), (False, True), (True, True)],
                             ids=["False", "True", "False-tiles", "True-tiles"])
    def test_attention(self, causal, tiled, monkeypatch):
        # P is 128 KiB a sequence when causal, 160 KiB across 80 keys: one
        # tile of 4 sequences, or tiles of 3 and 1, and of 2 and 2. Either way
        # each query row keeps its max and sum instead of P, so holding P
        # again fails; a memory read attends over 80 keys, so its K alone
        # outweighs the slack.
        if tiled:
            monkeypatch.setattr(ops, "ATTN_TILE_BYTES", 3 << 17)
        lk = self.L if causal else 80
        h, gain, kv, wq, wk, wv, wo = self.weights((self.B, self.L, self.D), (self.D,), (self.B, lk, self.D),
                                                   (self.D, 96), (self.D, 48), (self.D, 48), (96, self.D))
        n = self.B * self.L
        held = held_bytes(lambda: ops.attention(h, gain, None if causal else kv, wq, wk, wv, wo, 4, 2, causal, 1e4))
        # rotated Q and merged heads, output, inverse RMS and the two row statistics
        kept = 8 * (2 * n * 96 + n * self.D + n + 2 * 4 * n)
        assert kept <= held < kept + 4 * n * self.D, (held, kept)


class TestFrozenOperands:
    """Each operand of a block with requires_grad off in turn (every weight,
    then kv, then h) gets no grad, and every other operand's grad is
    bit-equal to the all-trainable call's: the backward rebuilds x, gate and
    up, or K and V, whichever grads it is asked for."""

    def check(self, op, shapes, precision):
        def grads(frozen):
            ts = [Tensor(rand_tensor(shape, i, scale=0.5).data, precision=precision, requires_grad=i != frozen)
                  for i, shape in enumerate(shapes)]
            with Tape() as tape:
                out = op(*ts)
                tape.backward(weighted_sum(out, rand_tensor(out.shape, 9).data))
            return [t.grad for t in ts]

        want = grads(None)
        for frozen in range(len(shapes)):
            got = grads(frozen)
            assert got[frozen] is None
            for i, (w, g) in enumerate(zip(want, got)):
                if i != frozen:
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (frozen, i)

    @pytest.mark.parametrize("precision", ("double", "single"))
    def test_swiglu(self, precision):
        # weights w_down, w_gate, w_up, the gain, then h
        shapes = [(20, 12), (12, 20), (12, 20), (12,), (3, 5, 12)]
        self.check(lambda wd, wg, wu, gain, h: ops.swiglu(h, gain, wu, wg, wd), shapes, precision)

    @pytest.mark.parametrize("precision", ("double", "single"))
    @pytest.mark.parametrize("tiled", (False, True))
    @pytest.mark.parametrize("causal", (False, True))
    def test_attention(self, causal, tiled, precision, monkeypatch):
        # 4 query heads over 2 KV heads; 5 sequences in one tile or in tiles of 2, 2 and 1
        b, lq, lk, d_kv = 5, 6, 6 if causal else 9, 12 if causal else 10
        shapes = [(12, 16), (d_kv, 8), (d_kv, 8), (16, 12), (12,)] + ([] if causal else [(b, lk, d_kv)]) + [(b, lq, 12)]
        if causal:
            def op(wq, wk, wv, wo, gain, h):
                return ops.attention(h, gain, None, wq, wk, wv, wo, 4, 2, True, 1e4)
        else:
            def op(wq, wk, wv, wo, gain, kv, h):
                return ops.attention(h, gain, kv, wq, wk, wv, wo, 4, 2, False, 1e4)
        per_seq = 4 * lq * lk * (8 if precision == "double" else 4)
        if tiled:
            monkeypatch.setattr(ops, "ATTN_TILE_BYTES", 2 * per_seq)
        tiles, scores = [], ops._scores
        monkeypatch.setattr(ops, "_scores", lambda q, *rest: tiles.append(len(q)) or scores(q, *rest))
        self.check(op, shapes, precision)
        assert set(tiles) == ({2, 1} if tiled else {b})


def ce_oracle(logits, targets):
    """mean(logsumexp - target logit) of (N, V) logits, row by row in math."""
    total = 0.0
    for row, t in zip(logits, targets):
        total += math.log(sum(math.exp(v) for v in row)) - row[t]
    return total / len(targets)


def normed(x, gain=1.0, eps=1e-6):
    """gain * x / sqrt(mean(x^2) + eps) over the last axis, in float64 numpy."""
    return gain * x / np.sqrt((x * x).mean(-1, keepdims=True) + eps)


def as_rows(x, targets):
    """(N, 2, d) states and (N, 2) targets whose head loss is the loss of the
    N rows of x against ``targets``: each row is position 0 of a sequence."""
    h = np.stack([x, np.full_like(x, 7.0)], axis=1)
    return h, np.stack([np.zeros_like(targets), targets], axis=1)


class TestCrossEntropy:
    def test_logsumexp_oracle(self):
        # an identity head, in either layout, makes the logits the normed x
        gen = np.random.default_rng(4)
        x = gen.standard_normal((3, 5))
        h, targets = as_rows(x, np.array([1, 4, 0]))
        for transposed in (False, True):
            got = ops.lm_head_loss(Tensor(h), Tensor(np.ones(5)), Tensor(np.eye(5)), targets, transposed).item()
            np.testing.assert_allclose(got, ce_oracle(normed(x), targets[:, 1]), rtol=1e-12)

    def test_uniform_logits_give_log_vocab(self):
        h, targets = as_rows(np.zeros((4, 3)), np.array([0, 3, 7, 10]))
        got = ops.lm_head_loss(Tensor(h), rand_tensor(3), rand_tensor((3, 11)), targets).item()
        np.testing.assert_allclose(got, math.log(11), rtol=1e-14)

    def test_out_of_range_target(self):
        h, gain = rand_tensor((1, 3, 4)), rand_tensor(4)
        with pytest.raises(IndexError):
            ops.lm_head_loss(h, gain, rand_tensor((4, 3)), np.array([[0, 1, 3]]))
        with pytest.raises(IndexError):
            ops.lm_head_loss(h, gain, rand_tensor((3, 4)), np.array([[0, -1, 0]]), transposed=True)

    def test_shape_errors(self):
        h, gain, w, t = rand_tensor((1, 2, 4)), rand_tensor(4), rand_tensor((4, 3)), np.array([[0, 1]])
        ops.lm_head_loss(h, gain, w, t)
        bad = [
            (rand_tensor((1, 3, 4)), gain, w, t, False),  # targets are not (..., L)
            (h, gain, w, t, True),  # (4, 3) is not (V, 4)
            (h, gain, rand_tensor((2, 4, 3)), t, False),
            (h, rand_tensor(3), w, t, False),
            (rand_tensor((1, 1, 4)), gain, w, np.array([[0]]), False),  # no next token
            (rand_tensor((0, 2, 4)), gain, w, np.zeros((0, 2), dtype=np.int64), False),
            (rand_tensor(4), gain, w, np.array([0]), False),
        ]
        for args in bad:
            with pytest.raises(ShapeError) as e:
                ops.lm_head_loss(*args)
            assert str(args[0].shape) in str(e.value) and str(args[2].shape) in str(e.value)

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("extra", [-251, 0, 1, 344])  # below, at, past and between chunk multiples
    def test_matches_full_logits(self, transposed, extra):
        gen = np.random.default_rng(extra + 300)
        n, d, v = ops.CE_CHUNK_ROWS + extra, 6, 37
        h, w = gen.standard_normal((1, n + 1, d)), gen.standard_normal((v, d) if transposed else (d, v))
        gain, targets = gen.standard_normal(d), gen.integers(0, v, (1, n + 1))
        logits = normed(h[0, :-1], gain) @ (w.T if transposed else w)
        top = logits.max(axis=1)
        want = np.mean(top + np.log(np.exp(logits - top[:, None]).sum(axis=1)) - logits[np.arange(n), targets[0, 1:]])
        got = ops.lm_head_loss(Tensor(h), Tensor(gain), Tensor(w), targets, transposed).item()
        np.testing.assert_allclose(got, want, rtol=1e-12)
        single = ops.lm_head_loss(Tensor(h, "single"), Tensor(gain, "single"), Tensor(w, "single"), targets, transposed)
        assert single.data.dtype == np.float32
        np.testing.assert_allclose(single.item(), want, rtol=1e-5)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_fused_grads_match_full_logits(self, transposed):
        gen = np.random.default_rng(12)
        n, d, v = 2 * ops.CE_CHUNK_ROWS + 7, 5, 11
        h = Tensor(gen.standard_normal((1, n + 1, d)), requires_grad=True)
        gain = Tensor(gen.standard_normal(d), requires_grad=True)
        w = Tensor(gen.standard_normal((v, d) if transposed else (d, v)), requires_grad=True)
        targets = gen.integers(0, v, (1, n + 1))
        with Tape() as tape:
            loss = ops.scale(ops.lm_head_loss(h, gain, w, targets, transposed), 0.25)
        tape.backward(loss)
        wd, x = (w.data.T if transposed else w.data), h.data[0, :-1]
        xn = normed(x, gain.data)
        p = np.exp(xn @ wd)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), targets[0, 1:]] -= 1.0
        p *= 0.25 / n
        dw = xn.T @ p
        np.testing.assert_allclose(w.grad, dw.T if transposed else dw, rtol=1e-12, atol=1e-15)
        # the norm backward: dgain = sum of dy * x * inv, dx = gg * inv - x * inv^3 * sum(gg * x) / d
        dy, inv = p @ wd.T, 1.0 / np.sqrt((x * x).mean(-1, keepdims=True) + 1e-6)
        np.testing.assert_allclose(gain.grad, (dy * x * inv).sum(0), rtol=1e-12, atol=1e-15)
        gg = dy * gain.data
        dx = gg * inv - x * inv**3 * (gg * x).sum(-1, keepdims=True) / d
        np.testing.assert_allclose(h.grad[0, :-1], dx, rtol=1e-10, atol=1e-15)
        assert (h.grad[0, -1] == 0.0).all()

    def test_untaped_call_leaves_grads_and_allocates_none(self):
        gen = np.random.default_rng(13)
        n, d, v = 4000, 64, 16
        h = Tensor(gen.standard_normal((n, 2, d)), requires_grad=True)
        gain = Tensor(np.ones(d), requires_grad=True)
        w = Tensor(gen.standard_normal((d, v)), requires_grad=True)
        w.grad = np.full((d, v), 0.5)
        targets = gen.integers(0, v, (n, 2))
        rows = n * d * 8  # bytes of the scored positions

        def peak_bytes(context):
            tracemalloc.start()
            try:
                with context:
                    ops.lm_head_loss(h, gain, w, targets)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        untaped = peak_bytes(nullcontext())
        assert h.grad is None and gain.grad is None and np.all(w.grad == 0.5)
        # the copied rows and their norm, but no (N, d) dx buffer and no (N, V) logits
        assert untaped < 2.25 * rows
        assert peak_bytes(Tape()) > untaped + 0.9 * rows  # a taped call keeps dx for its backward

    def test_logsumexp_matches_math(self):
        # one row at a time under an identity head, the loss is
        # logsumexp(y) - y[t] of the normed row y: the max-subtracted
        # logsumexp of the op
        x, gain = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]]), np.full(3, 4.0)
        got = []
        for row in x:
            h, t = as_rows(row[None], np.array([0]))
            got.append(ops.lm_head_loss(Tensor(h), Tensor(gain), Tensor(np.eye(3)), t).item() + normed(row, gain)[0])
        want = [math.log(sum(math.exp(v) for v in normed(row, gain))) for row in x]
        np.testing.assert_allclose(got, want, rtol=1e-14)


class TestTopk:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_full_sort_oracle(self, seed):
        gen = np.random.default_rng(seed)
        p = gen.standard_normal(9)
        for k in (1, 3, 9):
            want = sorted(range(9), key=lambda i: (-p[i], i))[:k]
            assert ops.topk(Tensor(p), k).tolist() == want

    def test_exhaustive_binary_patterns(self):
        # every tie pattern for C <= 12, every k: stable full-sort oracle,
        # for each pattern alone and for all patterns as rows of one 2-D input
        for c in range(1, 13):
            patterns = (np.arange(2**c)[:, None] >> np.arange(c)) & 1
            patterns = patterns.astype(float)
            for k in range(1, c + 1):
                rows = ops.topk(Tensor(patterns), k)
                assert rows.shape == (2**c, k)
                for p, row in zip(patterns, rows):
                    order = sorted(range(c), key=lambda i: (-p[i], i))
                    assert ops.topk(Tensor(p), k).tolist() == order[:k]
                    assert row.tolist() == order[:k]

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            ops.topk(Tensor(np.ones(3)), 4)
        with pytest.raises(ConfigError):
            ops.topk(Tensor(np.ones(3)), 0)


class TestTapeBasics:
    def test_backward_accumulates_through_shared_input(self):
        x = rand_tensor((2, 2), 20, requires_grad=True)
        gain = np.array([0.7, 1.3])
        with Tape() as tape:
            y = ops.swiglu(x, Tensor(gain), x, x, Tensor(np.eye(2)))  # x + silu(xn @ x) * (xn @ x), xn = normed(x)
            loss = weighted_sum(y)
            tape.backward(loss)
        xn = normed(x.data, gain)
        z = xn @ x.data
        s = 1.0 / (1.0 + np.exp(-z))
        dz = z * s + z * s * (1.0 + z * (1.0 - s))  # d_up + d_gate, with up = gate = z
        want = np.ones((2, 2)) + xn.T @ dz + norm_backward(dz @ x.data.T, x.data, gain)[0]
        np.testing.assert_allclose(x.grad, want, rtol=1e-13)

    def test_raw_operands_rejected(self):
        x = Tensor(np.ones(3), precision="single")
        with pytest.raises(TypeError):
            ops.add(x, 1.0)
        with pytest.raises(TypeError):
            ops.swiglu(Tensor(np.ones((1, 3))), np.ones(3), x, x, x)
        with pytest.raises(TypeError):
            ops.attention(Tensor(np.ones((1, 1, 3))), x, np.ones((1, 1, 3)), x, x, x, x, 1, 1, False, 1e4)

    def test_no_tape_no_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ops.add(x, x)
        assert y.data is not None and x.grad is None

    def test_gather_rows_bounds(self):
        with pytest.raises(IndexError):
            ops.gather_rows(rand_tensor((4, 2)), np.array([[0, 4]]))

    def test_gather_rows_backward_scatters_into_existing_grad(self):
        gen = np.random.default_rng(0)
        x = Tensor(gen.standard_normal((5, 3)), requires_grad=True)
        before = gen.standard_normal((5, 3))
        x.grad = before.copy()
        ids = np.array([[2, 0], [2, 2]])  # row 2 three times, rows 1, 3, 4 never
        w = gen.standard_normal((2, 2, 3))
        with Tape() as tape:
            loss = weighted_sum(ops.gather_rows(x, ids), w)
            tape.backward(loss)
        want = before.copy()
        want[0] += w[0, 1]
        want[2] += w[0, 0] + w[1, 0] + w[1, 1]
        np.testing.assert_allclose(x.grad, want, rtol=1e-14)
        np.testing.assert_array_equal(x.grad[[1, 3, 4]], before[[1, 3, 4]])

    def test_gather_rows_backward_allocates_missing_grad(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape() as tape:
            tape.backward(weighted_sum(ops.gather_rows(x, np.array([1, 1]))))
        np.testing.assert_array_equal(x.dense_grad(), [[0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gather_rows_from_an_op_output_hands_its_producer_a_dense_grad(self, dtype):
        # the gather leaves a RowGrad on the taped sum; the sum's backward must see the full array
        gen = np.random.default_rng(3)
        a, b = (Tensor(gen.standard_normal((6, 4)).astype(dtype), requires_grad=True) for _ in range(2))
        ids = np.array([[4, 1], [4, 4]])
        w = gen.standard_normal((2, 2, 4))
        with Tape() as tape:
            tape.backward(weighted_sum(ops.gather_rows(ops.add(a, b), ids), w))
        want = np.zeros((6, 4), dtype=dtype)
        np.add.at(want, ids, w.astype(dtype))
        for t in (a, b):
            assert isinstance(t.grad, np.ndarray) and t.grad.tobytes() == want.tobytes()


class TestScatterRows:
    """``Tensor.add_rows`` adds by duplicate rank and must equal the unbuffered
    ``np.add.at`` bit for bit, zeros' signs included."""

    IDS = {
        "all_equal": lambda gen, shape: np.full(shape, 3),
        "duplicates": lambda gen, shape: gen.integers(0, 5, size=shape),
        "distinct": lambda gen, shape: gen.permutation(9)[: math.prod(shape)].reshape(shape),
        "empty": lambda gen, shape: np.zeros((0,) + shape[1:], dtype=np.int64),
    }

    @pytest.mark.parametrize("kind", sorted(IDS))
    @pytest.mark.parametrize("shape", [(2, 4), (2, 2, 2)])
    @pytest.mark.parametrize("dtype, g_dtype", [(np.float64, np.float64), (np.float32, np.float32),
                                                (np.float32, np.float64), (np.float64, np.float32)])
    @pytest.mark.parametrize("prefilled", [False, True])
    def test_equals_add_at(self, kind, shape, dtype, g_dtype, prefilled):
        gen = np.random.default_rng(len(kind) + len(shape))
        ids = self.IDS[kind](gen, shape)
        g = (gen.standard_normal(ids.shape + (3,)) * 10.0 ** gen.integers(-6, 6, size=ids.shape + (3,))).astype(g_dtype)
        g.reshape(-1)[::5] = -0.0
        x = Tensor(np.zeros((9, 3), dtype=dtype), requires_grad=True)
        if prefilled:
            x.grad = gen.standard_normal((9, 3)).astype(dtype)
            x.grad[0] = -0.0
        want = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
        np.add.at(want, ids, g.astype(dtype))
        x.add_rows(ids, g)
        assert x.stored_grad().dtype == dtype and x.dense_grad().tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_table_without_a_grad_gets_its_picked_rows_alone(self, dtype):
        # ids repeat within each call and across the two; rows 0, 10 and most others never
        gen = np.random.default_rng(3)
        x = Tensor(np.zeros((40, 3), dtype=dtype), requires_grad=True)
        want = np.zeros_like(x.data)
        calls = [np.array([[7, 3, 7], [21, 3, 7]]), np.array([[3, 30, 30, 2], [39, 21, 2, 2]])]
        for ids in calls:
            g = (gen.standard_normal(ids.shape + (3,)) * 10.0 ** gen.integers(-6, 6, size=ids.shape + (3,))).astype(dtype)
            g.reshape(-1)[::4] = -0.0
            np.add.at(want, ids, g)
            x.add_rows(ids, g)
            assert isinstance(x.grad, RowGrad) and x.grad.rows.dtype == dtype
        np.testing.assert_array_equal(x.grad.ids, [2, 3, 7, 21, 30, 39])
        assert x.grad.rows.shape == (6, 3)
        assert x.dense_grad().tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_dense_grad_absorbs_rows_in_place_and_a_row_grad_absorbs_a_dense_one(self, dtype):
        gen = np.random.default_rng(4)
        ids, g = np.array([5, 1, 5, 5]), gen.standard_normal((4, 3)).astype(dtype)
        held = gen.standard_normal((8, 3)).astype(dtype)
        x = Tensor(np.zeros((8, 3), dtype=dtype), requires_grad=True)
        x.grad = held.copy()
        dense = x.grad
        want = held.copy()
        np.add.at(want, ids, g)
        x.add_rows(ids, g)
        assert x.grad is dense and x.grad.tobytes() == want.tobytes()

        # a full-shape gradient after the rows: the sum a dense gradient would hold
        y = Tensor(np.zeros((8, 3), dtype=dtype), requires_grad=True)
        y.add_rows(ids, g)
        want = np.zeros_like(y.data)
        np.add.at(want, ids, g)
        want += held
        y.accumulate_grad(held.copy())
        assert isinstance(y.grad, np.ndarray) and y.grad.tobytes() == want.tobytes()


class TestGradReads:
    """``Tensor.read_grad`` and ``holds_grad`` over any flat range of a
    row-sparse table: the read equals the densified table's slice byte for
    byte, into a buffer of the table's dtype or the norm's float64, and the
    table holds an element there exactly when a stored row meets the range.
    Row widths 1 and 64 divide ``optim.BLOCK``; 50 and 96 do not, so a range
    may start and stop inside a row."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_range_reads_as_the_dense_table(self, dtype, data):
        d = data.draw(st.sampled_from([1, 64, 50, 96]), label="d")
        n = data.draw(st.integers(1, 24), label="rows")
        ids = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)), label="ids")), dtype=np.int64)
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rows = (gen.standard_normal((ids.size, d)) * 10.0 ** gen.integers(-6, 6, (ids.size, d))).astype(dtype)
        rows.reshape(-1)[::7] = -0.0
        start = data.draw(st.integers(0, n * d - 1), label="start")
        stop = data.draw(st.integers(start + 1, n * d), label="stop")
        out_dtype = data.draw(st.sampled_from([dtype, np.float64]), label="out dtype")
        x = Tensor(np.zeros((n, d), dtype=dtype), requires_grad=True)
        x.grad = RowGrad(ids, rows)
        dense = np.zeros((n, d), dtype=dtype)
        dense[ids] = rows
        assert x.dense_grad().tobytes() == dense.tobytes()
        out = np.full(stop - start, np.nan, dtype=out_dtype)
        x.read_grad(start, stop, out)
        assert out.tobytes() == x.dense_grad().reshape(-1)[start:stop].astype(out_dtype).tobytes()
        assert x.holds_grad(start, stop) == any(i * d < stop and start < (i + 1) * d for i in ids)


class TestConsumingBackward:
    """Backward pops the tape and frees each intermediate gradient once used;
    the fresh gradient arrays the ops hand over are stored uncopied."""

    def test_tape_emptied_intermediates_cleared_leaves_kept(self):
        x = rand_tensor((3, 4), 0, requires_grad=True)
        w = rand_tensor((3, 4), 1, requires_grad=True)
        dh = rand_tensor((3, 4), 21).data
        with Tape() as tape:
            h = ops.add(x, w)
            loss = weighted_sum(h, dh)
            assert len(tape) == 2
            tape.backward(loss)
        assert len(tape) == 0
        assert h.grad is None and loss.grad is None
        assert x.grad is not None and w.grad is not None
        np.testing.assert_array_equal(x.grad, dh)
        np.testing.assert_array_equal(w.grad, dh)

    def test_records_not_reached_by_the_loss_are_dropped(self):
        x = rand_tensor((2, 3), 2, requires_grad=True)
        with Tape() as tape:
            unused = ops.scale(x, 3.0)
            loss = weighted_sum(ops.scale(x, 2.0))
            tape.backward(loss)
        assert len(tape) == 0 and unused.grad is None
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))

    def test_add_of_a_tensor_with_itself(self):
        x0 = rand_tensor((2, 3), 3, requires_grad=True)
        w = rand_tensor((2, 3), 4)
        with Tape() as tape:
            x = ops.scale(x0, 1.5)  # an intermediate, so its grad starts as None
            tape.backward(weighted_sum(ops.add(x, x), w.data))
        np.testing.assert_allclose(x0.grad, 2.0 * 1.5 * w.data, rtol=1e-14)

    def test_add_hands_each_input_its_own_grad(self):
        # x also feeds a product recorded before the add, so x gains gradient
        # after the add's backward has run; y must not see that gradient
        x0, y0 = rand_tensor((2, 3), 11, requires_grad=True), rand_tensor((2, 3), 12, requires_grad=True)
        w, w2 = rand_tensor((2, 3), 13), rand_tensor((2, 3), 14)
        with Tape() as tape:
            x, y = ops.scale(x0, 1.0), ops.scale(y0, 1.0)
            v = weighted_sum(x, w2.data)
            s = ops.add(x, y)
            tape.backward(ops.add(weighted_sum(s, w.data), v))
        np.testing.assert_allclose(x0.grad, w.data + w2.data, rtol=1e-14)
        np.testing.assert_array_equal(y0.grad, w.data)

    def test_one_tensor_feeding_two_matmuls(self):
        # self-attention (kv=None) feeds the normed x to the queries and to the
        # keys/values: every weight's grad is bit-identical to a cross block's
        # whose kv holds x's bits, and x's grad, dV wv^T + dK wk^T + dQ wq^T,
        # reaches h through one norm backward (linear in it)
        gen = np.random.default_rng(5)
        w = [rand_tensor(shape, 6 + i, requires_grad=True) for i, shape in enumerate([(4, 4), (4, 2), (4, 2), (4, 4)])]
        gain = Tensor(np.linspace(0.5, 1.5, 4))
        dy = gen.standard_normal((2, 3, 4))

        def grads(same):
            h = rand_tensor((2, 3, 4), 5, requires_grad=True)
            kv = None if same else Tensor(ops.rms_norm(h.data, gain.data)[0], requires_grad=True)
            for t in w:
                t.grad = None
            with Tape() as tape:
                tape.backward(weighted_sum(ops.attention(h, gain, kv, *w, 2, 1, True, 1e4), dy))
            return h, kv, [t.grad for t in w]

        h_self, _, got = grads(True)
        h_cross, kv, want = grads(False)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        kv_term = norm_backward(kv.grad, h_self.data, gain.data)[0]
        np.testing.assert_allclose(h_self.grad, h_cross.grad + kv_term, rtol=1e-12, atol=1e-14)

    def test_reshape_chain(self):
        # no taped reshape or slice is left: the head slices and flattens its
        # input inside one op, and its intermediate input's grad is consumed
        x0 = rand_tensor((2, 4, 6), 9, requires_grad=True)
        gain, w, targets = rand_tensor(6, 10), rand_tensor((6, 5), 11), np.arange(8).reshape(2, 4) % 5
        with Tape() as tape:
            x = ops.scale(x0, 2.0)
            tape.backward(ops.lm_head_loss(x, gain, w, targets))
            assert len(tape) == 0 and x.grad is None
        direct = Tensor(2.0 * x0.data, requires_grad=True)
        with Tape() as tape:
            tape.backward(ops.lm_head_loss(direct, gain, w, targets))
        np.testing.assert_array_equal(x0.grad, 2.0 * direct.grad)
        assert (x0.grad[:, -1] == 0.0).all() and (x0.grad[:, :-1] != 0.0).all()

    def test_add_of_a_leaf_with_itself_is_twice_the_upstream_grad(self):
        x = rand_tensor((2, 3), 15, requires_grad=True)
        w = rand_tensor((2, 3), 16)
        with Tape() as tape:
            tape.backward(weighted_sum(ops.add(x, x), w.data))
        np.testing.assert_array_equal(x.grad, 2.0 * w.data)

    @pytest.mark.parametrize("shape_b", [(2, 3), (1, 3), (3,)])
    def test_add_of_two_leaves_gives_each_its_own_array(self, shape_b):
        a, b = rand_tensor((2, 3), 17, requires_grad=True), rand_tensor(shape_b, 18, requires_grad=True)
        w = rand_tensor((2, 3), 19)
        if shape_b != (2, 3):  # no op broadcasts
            with pytest.raises(ShapeError) as e:
                ops.add(a, b)
            assert "(2, 3)" in str(e.value) and str(shape_b) in str(e.value)
            return
        with Tape() as tape:
            tape.backward(weighted_sum(ops.add(a, b), w.data))
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(a.grad, w.data)
        np.testing.assert_array_equal(b.grad, w.data)

    def test_reshape_backward_makes_no_gradient_sized_copy(self):
        # the head's backward allocates the norm backward's two row buffers
        # and then h's gradient, dropping its dx buffer and the copied rows on
        # the way: nothing else of gradient size (one more such array would
        # take the peak past 3x)
        n, v = 1 << 16, 3
        x = Tensor(np.zeros((n // 256, 16, 16)), requires_grad=True)
        w = rand_tensor((16, v), 22)
        targets = np.zeros(x.shape[:-1], dtype=np.int64)
        with Tape() as tape:
            loss = ops.lm_head_loss(x, Tensor(np.ones(16)), w, targets)
        tracemalloc.start()
        try:
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * x.data.nbytes, f"backward peak {peak} B for an {x.data.nbytes} B gradient"
        assert x.grad.shape == x.shape and x.grad.base is None
        rows = n // 16 * 15 // 16
        # every scored row: zero states norm to zero, so a uniform softmax, target 0;
        # the norm backward then scales by 1 / sqrt(eps)
        want = (np.full(v, 1.0 / v) - np.eye(v)[0]) @ w.data.T / rows / np.sqrt(1e-6)
        np.testing.assert_allclose(x.grad[:, :-1], np.broadcast_to(want, (n // 256, 15, 16)), rtol=1e-12, atol=1e-18)
        assert (x.grad[:, -1] == 0.0).all()

    def test_owned_grad_is_stored_uncopied(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        g = np.ones(3)
        x.accumulate_grad(g)
        assert x.grad is g
        z = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        z.accumulate_grad(g)  # another dtype is cast, which copies
        assert z.grad.dtype == np.float32 and z.grad is not g
