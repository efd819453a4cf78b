"""Finite-difference validation of every handwritten backward pass.

Each op gets a small double-precision composite whose scalar output is
checked against central differences over >= 20 seeds. The checker itself
is validated by feeding it a deliberately broken backward.
"""

import numpy as np
import pytest

from chapterbank import ops
from chapterbank.errors import NumericError
from chapterbank.gradcheck import grad_check
from chapterbank.ops import _record
from chapterbank.tensor import Parameter, Tensor

SEEDS = range(20)
TOL = 1e-6


def make_param(shape, seed, name="p", group="base"):
    gen = np.random.default_rng(seed)
    return Parameter(Tensor(gen.standard_normal(shape), requires_grad=True), name, group)


def check(f, params, tol=TOL):
    err = grad_check(f, params, h=1e-5)
    assert err < tol, f"max relative grad error {err}"


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_add_chain(seed):
    a = make_param((3, 4), seed)
    b = make_param((4, 2), seed + 100)
    c = make_param((3, 2), seed + 200)
    check(lambda: ops.mean_all(ops.add(ops.matmul(a, b), c)), [a, b, c])


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_flattened_rows(seed):
    a = make_param((2, 3, 2, 4), seed)
    b = make_param((4, 3), seed + 100)
    w = np.random.default_rng(seed + 50).standard_normal((2, 3, 2, 3))
    check(lambda: ops.mean_all(ops.mul(ops.matmul(a, b), Tensor(w))), [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_mul_div_scale(seed):
    # no taped division is left: the router's renormalization over the
    # selection is inside ops.chapter_weights (test_chapter_weights)
    a = make_param((2, 5), seed)
    b = make_param((2, 5), seed + 1)

    def f():
        safe = ops.add(ops.mul(b, b), Tensor(np.ones((2, 5))))
        return ops.mean_all(ops.scale(ops.mul(ops.mul(a, a), safe), 1.7))

    check(f, [a, b])


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
    check(lambda: ops.mean_all(ops.mul(ops.chapter_weights(a, sel, 0, 1.0), Tensor(w))), [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_with_mask(seed):
    a = make_param((2, 4, 5), seed)
    mask = np.zeros((1, 4, 5))
    mask[..., 3:] = ops.MASK_VALUE
    w = np.random.default_rng(seed + 50).standard_normal((8, 5))
    sel = every_chapter(8, 5, seed + 70)

    def f():
        masked = ops.reshape(ops.add(a, Tensor(mask)), (8, 5))
        return ops.mean_all(ops.mul(ops.chapter_weights(masked, sel, 0, 1.0), Tensor(w)))

    check(f, [a])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shared, k", [(0, 1), (0, 3), (2, 1), (2, 3), (2, 5)])
def test_chapter_weights(seed, shared, k):
    logits = make_param((4, 7), seed)
    gen = np.random.default_rng(seed + 60)
    sel = np.stack([shared + gen.permutation(7 - shared)[:k] for _ in range(4)])
    w = gen.standard_normal((4, shared + k))
    check(lambda: ops.mean_all(ops.mul(ops.chapter_weights(logits, sel, shared, 1.7), Tensor(w))), [logits])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("shared, k", [(0, 1), (0, 3), (2, 1), (2, 3)])
def test_router_losses(seed, n_layers, shared, k):
    gen = np.random.default_rng(seed + 60)
    logits = [make_param((4, 7), seed + 10 * i, name=f"layers.{i}.logits") for i in range(n_layers)]
    sel = [np.stack([shared + gen.permutation(7 - shared)[:k] for _ in range(4)]) for _ in range(n_layers)]
    # a scale != 1 on each, as the lb and z coefficients apply
    check(lambda: ops.scale(ops.load_balance_loss(logits, sel, shared), 0.37), logits)
    check(lambda: ops.scale(ops.z_loss(logits), 2.5), logits)


@pytest.mark.parametrize("seed", SEEDS)
def test_rmsnorm(seed):
    x = make_param((4, 6), seed)
    g = make_param((6,), seed + 1)
    w = np.random.default_rng(seed + 50).standard_normal((4, 6))
    check(lambda: ops.mean_all(ops.mul(ops.rmsnorm(x, g), Tensor(w))), [x, g])


@pytest.mark.parametrize("seed", SEEDS)
def test_swiglu(seed):
    x = make_param((3, 4), seed)
    wu = make_param((4, 5), seed + 1)
    wg = make_param((4, 5), seed + 2)
    wd = make_param((5, 4), seed + 3)
    check(lambda: ops.mean_all(ops.swiglu(x, wu, wg, wd)), [x, wu, wg, wd])


@pytest.mark.parametrize("seed", SEEDS)
def test_rope(seed):
    # ops.attention un-rotates dQ and dK with rope(..., inverse=True)
    q = make_param((2, 3, 4), seed)
    w = np.random.default_rng(seed + 50).standard_normal((2, 3, 4))

    def rotated(x):
        backward = lambda g: x.value.accumulate_grad(ops.rope(g, 100.0, inverse=True))
        return _record(Tensor(ops.rope(x.value.data, 100.0)), [x.value], backward)

    check(lambda: ops.mean_all(ops.mul(rotated(q), Tensor(w))), [q])


@pytest.mark.parametrize("causal", (False, True))
@pytest.mark.parametrize("groups", (1, 2))
@pytest.mark.parametrize("seed", SEEDS)
def test_attention(seed, groups, causal):
    # 4 query heads of d_h = 4 over 4 // groups KV heads; cross-attention has Lq != Lk
    lq, lk = (4, 4) if causal else (3, 5)
    q = make_param((2, lq, 16), seed)
    k = make_param((2, lk, 16 // groups), seed + 1)
    v = make_param((2, lk, 16 // groups), seed + 2)
    w = np.random.default_rng(seed + 50).standard_normal((2, lq, 16))
    check(lambda: ops.mean_all(ops.mul(ops.attention(q, k, v, 4, 4 // groups, causal, 100.0), Tensor(w))), [q, k, v])


@pytest.mark.parametrize("seed", SEEDS)
def test_cross_entropy(seed):
    # an identity head makes the logits the parameter itself
    logits = make_param((5, 7), seed)
    targets = np.random.default_rng(seed + 9).integers(0, 7, size=5)
    check(lambda: ops.linear_cross_entropy(logits, Tensor(np.eye(7)), targets), [logits])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("n", [3, 10])  # below a 4-row chunk, and not a multiple of it
def test_linear_cross_entropy(seed, transposed, n, monkeypatch):
    monkeypatch.setattr(ops, "CE_CHUNK_ROWS", 4)
    x = make_param((n, 3), seed)
    w = make_param((5, 3) if transposed else (3, 5), seed + 1)
    targets = np.random.default_rng(seed + 9).integers(0, 5, size=n)
    # an upstream scale != 1, as grad_accum applies
    check(lambda: ops.scale(ops.linear_cross_entropy(x, w, targets, transposed), 0.37), [x, w])


@pytest.mark.parametrize("transposed", [False, True])
def test_linear_cross_entropy_at_chunk_size(transposed):
    n = ops.CE_CHUNK_ROWS + 3
    x = make_param((n, 3), 0)
    w = make_param((4, 3) if transposed else (3, 4), 1)
    targets = np.random.default_rng(2).integers(0, 4, size=n)
    f = lambda: ops.scale(ops.linear_cross_entropy(x, w, targets, transposed), 2.5)
    assert grad_check(f, [x, w], h=1e-5, max_entries_per_param=60) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_logsumexp(seed):
    x = make_param((4, 5), seed)
    check(lambda: ops.mean_all(ops.logsumexp_lastdim(x)), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_reshape_swap_slice_concat_gather(seed):
    a = make_param((4, 6), seed)
    ids = np.random.default_rng(seed).integers(0, 4, size=(2, 3))

    def f():
        g = ops.gather_rows(a, ids)  # (2,3,6)
        g = ops.swapaxes(g, 0, 1)  # (3,2,6)
        left = ops.index_slice(g, (slice(0, 2),))
        right = ops.index_slice(g, (slice(1, 3),))  # joined by add, as there is no concat
        both = ops.add(left, ops.mul(right, right))  # (2,2,6)
        return ops.mean_all(ops.reshape(both, (24,)))

    check(f, [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_repeat_and_reductions(seed):
    a = make_param((3, 2), seed)

    def f():
        # repeat each entry 3 times along axis 1 by a broadcast mul, as the chapter weights are
        r = ops.reshape(ops.mul(ops.reshape(a, (3, 2, 1)), Tensor(np.ones((1, 1, 3)))), (3, 6))
        s = ops.sum_axis(ops.mul(r, r), axis=1)  # (3,)
        return ops.add(ops.mean_axis(s, axis=0), ops.scale(ops.sum_axis(a), 0.3))

    check(f, [a])


def test_grad_check_catches_broken_backward():
    a = make_param((3, 3), 0)

    def bad_square(x):
        out = Tensor(x.value.data**2)

        def backward(g):
            x.value.accumulate_grad(g)  # wrong: missing 2x factor

        return _record(out, [x.value], backward)

    err = grad_check(lambda: ops.mean_all(bad_square(a)), [a])
    assert err > 1e-2


def test_grad_check_reports_nonfinite_with_param_path():
    a = make_param((2, 2), 0, name="weights.w1")

    def f():
        return ops.mean_all(ops.mul(a, Tensor(np.full((2, 2), np.inf))))

    with pytest.raises(NumericError):
        f()


def test_grad_check_requires_double():
    a = Parameter(Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True), "p", "base")
    with pytest.raises(Exception):
        grad_check(lambda: ops.mean_all(a), [a])
