"""Finite-difference validation of every handwritten backward pass.

Each op gets a small double-precision composite whose scalar output is
checked against central differences over >= 20 seeds. The checker itself
is validated by feeding it a deliberately broken backward.
"""

import numpy as np
import pytest

from chapterbank import ops
from conftest import weighted_sum
from chapterbank.errors import NumericError
from chapterbank.gradcheck import grad_check
from chapterbank.ops import _record
from chapterbank.tensor import Parameter, Tensor

SEEDS = range(20)
TOL = 1e-6


def make_param(shape, seed, name="p", group="base"):
    gen = np.random.default_rng(seed)
    return Parameter(gen.standard_normal(shape), name, group)


def check(f, params, tol=TOL):
    err = grad_check(f, params, h=1e-5)
    assert err < tol, f"max relative grad error {err}"


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_add_chain(seed):
    # no taped matmul is left: the GEMM chain is attention's value path. Over
    # one key each softmax row is exactly 1, so the block whose residual is c
    # is c + (a @ b) @ wo for every query
    a = make_param((3, 1, 4), seed)
    b = make_param((4, 2), seed + 100)
    c = make_param((3, 1, 2), seed + 200)
    wo = make_param((2, 2), seed + 300)
    gain, wq, wk = Tensor(np.ones(2)), Tensor(np.ones((2, 2))), Tensor(np.ones((4, 2)))
    check(lambda: weighted_sum(ops.attention(c, gain, a, wq, wk, b, wo, 1, 1, False, 1e4), 1 / 6), [a, b, c, wo])


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_flattened_rows(seed):
    # the head's GEMM runs over the flattened rows of the first L - 1
    # positions of a (..., L, d) input and hands dh back in its shape
    a = make_param((2, 3, 3, 4), seed)
    gain = make_param((4,), seed + 200)
    b = make_param((4, 3), seed + 100)
    targets = np.random.default_rng(seed + 50).integers(0, 3, size=(2, 3, 3))
    check(lambda: ops.scale(ops.lm_head_loss(a, gain, b, targets), 0.37), [a, gain, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_mul_div_scale(seed):
    # no taped division or mul is left: the router's renormalization is
    # inside ops.chapter_weights and the elementwise products inside
    # ops.swiglu, here with one weight as both the up and the gate weight
    a = make_param((2, 5), seed)
    b = make_param((5, 5), seed + 1)
    gain = Tensor(np.ones(5))
    check(lambda: weighted_sum(ops.scale(ops.swiglu(a, gain, b, b, Tensor(np.eye(5))), 1.7), 1 / 10), [a, b])


def every_chapter(rows, c, seed):
    """(rows, c) selection of every chapter, each row in its own order."""
    gen = np.random.default_rng(seed)
    return np.stack([gen.permutation(c) for _ in range(rows)])


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax(seed):
    # the taped softmax is chapter_weights' softmax over the selection; with
    # every chapter selected it is the full softmax, permuted
    a = make_param((3, 6), seed)
    w = np.random.default_rng(seed + 50).standard_normal((3, 6))
    sel = every_chapter(3, 6, seed + 70)
    check(lambda: weighted_sum(ops.chapter_weights(a, sel, 0, 1.0), w / w.size), [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_with_mask(seed):
    a = make_param((8, 5), seed)
    mask = np.zeros((8, 5))  # add takes one shape: no broadcasting
    mask[..., 3:] = ops.MASK_VALUE
    w = np.random.default_rng(seed + 50).standard_normal((8, 5))
    sel = every_chapter(8, 5, seed + 70)
    check(lambda: weighted_sum(ops.chapter_weights(ops.add(a, Tensor(mask)), sel, 0, 1.0), w / w.size), [a])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shared, k", [(0, 1), (0, 3), (2, 1), (2, 3), (2, 5)])
def test_chapter_weights(seed, shared, k):
    logits = make_param((4, 7), seed)
    gen = np.random.default_rng(seed + 60)
    sel = np.stack([shared + gen.permutation(7 - shared)[:k] for _ in range(4)])
    w = gen.standard_normal((4, shared + k))
    check(lambda: weighted_sum(ops.chapter_weights(logits, sel, shared, 1.7), w / w.size), [logits])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("shared, k", [(0, 1), (0, 3), (2, 1), (2, 3)])
def test_router_losses(seed, n_layers, shared, k):
    gen = np.random.default_rng(seed + 60)
    logits = [make_param((4, 7), seed + 10 * i, name=f"layers.{i}.logits") for i in range(n_layers)]
    sel = [np.stack([shared + gen.permutation(7 - shared)[:k] for _ in range(4)]) for _ in range(n_layers)]
    # each term alone and both, at coefficients != 1
    check(lambda: ops.router_penalty(logits, sel, shared, 0.37, 0.0)[0], logits)
    check(lambda: ops.router_penalty(logits, sel, shared, 0.0, 2.5)[0], logits)
    check(lambda: ops.router_penalty(logits, sel, shared, 0.37, 2.5)[0], logits)


@pytest.mark.parametrize("seed", SEEDS)
def test_rmsnorm(seed):
    # the norm both blocks share: one-position self-attention with identity
    # weights is x + rms_norm(x), its one key's softmax weight exactly 1
    x = make_param((4, 1, 6), seed)
    g = make_param((6,), seed + 1)
    eye = Tensor(np.eye(6))
    w = np.random.default_rng(seed + 50).standard_normal((4, 1, 6))
    check(lambda: weighted_sum(ops.attention(x, g, None, eye, eye, eye, eye, 1, 1, False, 1e4), w / w.size), [x, g])


@pytest.mark.parametrize("seed", SEEDS)
def test_swiglu(seed):
    # the whole block, through h, the gain and the three weights
    x = make_param((3, 4), seed)
    gain = make_param((4,), seed + 4)
    wu = make_param((4, 5), seed + 1)
    wg = make_param((4, 5), seed + 2)
    wd = make_param((5, 4), seed + 3)
    check(lambda: weighted_sum(ops.swiglu(x, gain, wu, wg, wd), 1 / 12), [x, gain, wu, wg, wd])


@pytest.mark.parametrize("seed", SEEDS)
def test_router_logits(seed):
    h = make_param((3, 5, 4), seed)
    w = make_param((4, 6), seed + 1)
    b = make_param((6,), seed + 2)
    wt = np.random.default_rng(seed + 50).standard_normal((3, 6))
    check(lambda: weighted_sum(ops.router_logits(h, w, b), wt / wt.size), [h, w, b])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("adapter", [False, True])
def test_memory_tokens(seed, adapter):
    # 6 chapters of 2 rows: both sequences read shared chapter 0 and routed
    # chapter 3, so those rows are picked twice; chapters 2 and 5 never are
    bank = make_param((12, 4), seed, "bank.tokens", "memory_bank")
    weights = make_param((2, 3), seed + 1)
    gain = make_param((4,), seed + 2)
    a = make_param((4, 4), seed + 3) if adapter else None
    rows = np.array([[0, 3, 1], [0, 3, 4]])[:, :, None] * 2 + np.arange(2)
    wt = np.random.default_rng(seed + 50).standard_normal((2, 6, 4))
    params = [bank, weights, gain] + ([a] if adapter else [])
    check(lambda: weighted_sum(ops.memory_tokens(bank, rows, weights, gain, a), wt / wt.size), params)


@pytest.mark.parametrize("seed", SEEDS)
def test_rope(seed):
    # ops.attention un-rotates dQ and dK with rope(..., inverse=True)
    q = make_param((2, 3, 4), seed)
    w = np.random.default_rng(seed + 50).standard_normal((2, 3, 4))

    def rotated(x):
        backward = lambda g: x.accumulate_grad(ops.rope(g, 100.0, inverse=True))
        return _record(Tensor(ops.rope(x.data, 100.0)), [x], backward)

    check(lambda: weighted_sum(rotated(q), w / w.size), [q])


@pytest.mark.parametrize("causal", (False, True))
@pytest.mark.parametrize("groups", (1, 2))
@pytest.mark.parametrize("seed", SEEDS)
def test_attention(seed, groups, causal):
    check(*attention_case(seed, groups, causal, 2))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("causal", (False, True))
def test_attention_in_tiles(seed, causal, monkeypatch):
    # P is 512 B a sequence when causal and 480 B across 5 keys: 5 sequences
    # run in tiles of 2, 2 and 1, and backward recomputes each tile's P
    monkeypatch.setattr(ops, "ATTN_TILE_BYTES", 1024)
    check(*attention_case(seed, 2, causal, 5))


def attention_case(seed, groups, causal, batch):
    """(f, params) of an attention block of 4 query heads of d_h = 4 over
    4 // groups KV heads, through every input: causal self-attention passes
    no kv, cross-attention reads a kv of another length and width."""
    lq, lk, d_kv = (4, 4, 8) if causal else (3, 5, 6)
    x = make_param((batch, lq, 8), seed)
    gain = make_param((8,), seed + 6)
    kv = None if causal else make_param((batch, lk, d_kv), seed + 1)
    wq = make_param((8, 16), seed + 2)
    wk, wv = make_param((d_kv, 16 // groups), seed + 3), make_param((d_kv, 16 // groups), seed + 4)
    wo = make_param((16, 8), seed + 5)
    w = np.random.default_rng(seed + 50).standard_normal((batch, lq, 8))
    params = [x, gain, wq, wk, wv, wo] + ([] if causal else [kv])
    f = lambda: weighted_sum(ops.attention(x, gain, kv, wq, wk, wv, wo, 4, 4 // groups, causal, 100.0), w / w.size)
    return f, params


@pytest.mark.parametrize("seed", SEEDS)
def test_cross_entropy(seed):
    # an identity head makes the logits the normed states themselves
    h = make_param((5, 2, 7), seed)
    targets = np.random.default_rng(seed + 9).integers(0, 7, size=(5, 2))
    check(lambda: ops.lm_head_loss(h, Tensor(np.ones(7)), Tensor(np.eye(7)), targets), [h])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("n", [3, 10])  # below a 4-row chunk, and not a multiple of it
def test_linear_cross_entropy(seed, transposed, n, monkeypatch):
    monkeypatch.setattr(ops, "CE_CHUNK_ROWS", 4)
    h = make_param((1, n + 1, 3), seed)  # n loss rows
    gain = make_param((3,), seed + 2)
    w = make_param((5, 3) if transposed else (3, 5), seed + 1)
    targets = np.random.default_rng(seed + 9).integers(0, 5, size=(1, n + 1))
    # an upstream scale != 1, as grad_accum applies
    check(lambda: ops.scale(ops.lm_head_loss(h, gain, w, targets, transposed), 0.37), [h, gain, w])


@pytest.mark.parametrize("transposed", [False, True])
def test_linear_cross_entropy_at_chunk_size(transposed):
    n = ops.CE_CHUNK_ROWS + 3
    h = make_param((1, n + 1, 3), 0)  # n loss rows
    gain = make_param((3,), 3)
    w = make_param((4, 3) if transposed else (3, 4), 1)
    targets = np.random.default_rng(2).integers(0, 4, size=(1, n + 1))
    f = lambda: ops.scale(ops.lm_head_loss(h, gain, w, targets, transposed), 2.5)
    assert grad_check(f, [h, gain, w], h=1e-5, max_entries_per_param=60) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_logsumexp(seed):
    # logsumexp lives in the router z-loss (its square) and in the
    # cross-entropy (an identity head makes the logits the normed x, here one
    # sequence of four positions)
    x = make_param((4, 5), seed)
    targets = np.random.default_rng(seed + 9).integers(0, 5, size=4)
    sel = np.arange(4)[:, None]  # any selection: the load balance is weighted 0
    check(lambda: ops.router_penalty([x], [sel], 0, 0.0, 1.0)[0], [x])
    check(lambda: ops.lm_head_loss(x, Tensor(np.ones(5)), Tensor(np.eye(5)), targets), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_reshape_swap_slice_concat_gather(seed):
    a = make_param((4, 6), seed)
    ids = np.random.default_rng(seed).integers(0, 4, size=(2, 3))
    w = Tensor(np.random.default_rng(seed + 50).standard_normal((6, 6)) * 0.5)

    def f():
        # no taped reshape, swap or slice is left: the ids take the shape, are
        # reversed and are sliced, so the gathers overlap in row 1
        g = ids.reshape(3, 2)[::-1]
        left, right = ops.gather_rows(a, g[0:2]), ops.gather_rows(a, g[1:3])
        mlp = ops.swiglu(right, Tensor(np.linspace(0.5, 1.5, 6)), w, w, Tensor(np.eye(6)))
        both = ops.add(left, mlp)  # (2,2,6), as there is no concat
        return weighted_sum(both, 1 / 24)

    check(f, [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_repeat_and_reductions(seed):
    # the repeat of each chapter weight over its tokens is inside
    # ops.memory_tokens, the mean over positions inside ops.router_logits;
    # an MLP block after them makes the loss nonlinear in the weights a
    a = make_param((3, 2), seed)
    gen = np.random.default_rng(seed + 50)
    bank, rows = Tensor(gen.standard_normal((8, 4))), gen.integers(0, 8, size=(3, 2, 3))
    w, wu, wg = (Tensor(gen.standard_normal((4, 4))) for _ in range(3))

    def f():
        m = ops.memory_tokens(bank, rows, a, Tensor(np.ones(4)))  # (3, 6, 4)
        logits = ops.router_logits(m, w, Tensor(np.zeros(4)))  # (3, 4)
        return weighted_sum(ops.swiglu(logits, Tensor(np.ones(4)), wu, wg, Tensor(np.eye(4))), 1 / 12)

    check(f, [a])


def test_grad_check_catches_broken_backward():
    a = make_param((3, 3), 0)

    def bad_square(x):
        out = Tensor(x.data**2)

        def backward(g):
            x.accumulate_grad(g)  # wrong: missing 2x factor

        return _record(out, [x], backward)

    err = grad_check(lambda: weighted_sum(bad_square(a), 1 / 9), [a])
    assert err > 1e-2


def test_grad_check_counts_a_parameter_the_objective_skips_as_zero_grad():
    # no backward reaches b, so it holds no gradient; its numeric one is 0 too
    a, b = make_param((2, 3), 0, name="a"), make_param((3,), 1, name="b")
    assert grad_check(lambda: weighted_sum(ops.scale(a, 1.5), 1 / 6), [a, b]) < TOL
    assert b.grad is None


def test_grad_check_reports_nonfinite_with_param_path():
    a = make_param((2, 2), 0, name="weights.w1")

    def f():
        return weighted_sum(ops.scale(a, np.inf))

    with pytest.raises(NumericError):
        f()


def test_grad_check_requires_double():
    a = Parameter(np.zeros((2, 2), dtype=np.float32), "p", "base")
    with pytest.raises(Exception):
        grad_check(lambda: weighted_sum(a), [a])
