"""Model-level checks: parameter-count fixtures, naive attention and
dense-bank oracles, router invariants, aux-loss closed forms, the batched
memory path against a per-sequence reference, a causality probe, and the
fused LM-head loss against the unfused op composition.

Oracles here are written in plain numpy loops, independent of the
library's op layer; only the unfused head reference is built from ops
(and a plain-numpy cross-entropy), so that its gradients come from the tape.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chapterbank import ops
from chapterbank.config import ModelConfig, preset
from chapterbank.errors import ConfigError, SequenceLengthError, ShapeError
from chapterbank.gradcheck import grad_check
from chapterbank.model import (
    Model,
    RouterDecision,
    _mlp_block,
    _run_stack,
    aux_losses,
    build_model,
    collect_route_stats,
    memory_layer_forward,
    model_forward,
    param_count,
    route,
    self_attention_block,
    mem_read,
    prepare_memory_tokens,
)
from chapterbank.ops import RMSNORM_EPS, _record
from chapterbank.tensor import PRECISION_DTYPES, RngState, RowGrad, Tape, Tensor

EPS = 1e-6


# ---------------------------------------------------------------------------
# independent numpy oracles


def rmsnorm_np(x, gain):
    ms = (x * x).mean(-1, keepdims=True)
    return x / np.sqrt(ms + EPS) * gain


def rope_np(x, theta):
    # x: (L, dh), rotate feature pairs (2i, 2i+1) by pos * theta^(-2i/dh)
    length, dh = x.shape
    out = x.copy()
    for pos in range(length):
        for i in range(dh // 2):
            ang = pos * theta ** (-2.0 * i / dh)
            c, s = math.cos(ang), math.sin(ang)
            xe, xo = x[pos, 2 * i], x[pos, 2 * i + 1]
            out[pos, 2 * i] = xe * c - xo * s
            out[pos, 2 * i + 1] = xe * s + xo * c
    return out


def softmax_np(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def naive_self_attention(h, model: Model, layer: int):
    cfg = model.config
    p = lambda n: model[f"layers.{layer}.{n}"].data
    b_sz, length, d = h.shape
    dh = cfg.head_dim
    groups = cfg.n_heads // cfg.n_kv_heads
    out = np.empty_like(h)
    for b in range(b_sz):
        x = rmsnorm_np(h[b], p("attn_norm.gain"))
        q, k, v = x @ p("attn.wq"), x @ p("attn.wk"), x @ p("attn.wv")
        heads = []
        for hh in range(cfg.n_heads):
            kv = hh // groups
            qh = rope_np(q[:, hh * dh : (hh + 1) * dh], cfg.rope_theta)
            kh = rope_np(k[:, kv * dh : (kv + 1) * dh], cfg.rope_theta)
            vh = v[:, kv * dh : (kv + 1) * dh]
            o = np.zeros((length, dh))
            for t in range(length):
                w = softmax_np(qh[t] @ kh[: t + 1].T / math.sqrt(dh))
                o[t] = w @ vh[: t + 1]
            heads.append(o)
        out[b] = h[b] + np.concatenate(heads, axis=-1) @ p("attn.wo")
    return out


def naive_logits(h_seq, model: Model, layer: int):
    w = model[f"layers.{layer}.router.weight"].data
    b = model[f"layers.{layer}.router.bias"].data
    return h_seq.mean(axis=0) @ w + b


def naive_route(h_seq, model: Model, layer: int):
    cfg = model.config
    probs = softmax_np(naive_logits(h_seq, model, layer))
    routed = probs[cfg.shared_chapters :]
    order = sorted(range(len(routed)), key=lambda i: (-routed[i], i))
    selected = [cfg.shared_chapters + i for i in order[: cfg.top_k]]
    p_sel = probs[selected]
    weights = np.concatenate(
        [np.ones(cfg.shared_chapters), cfg.routed_scaling * p_sel / p_sel.sum()]
    )
    return probs, selected, weights


def naive_memory_layer(h_seq, model: Model, layer: int, chapters=None, weights=None):
    """Dense weighted cross-attention over the given chapters (default:
    route first). Returns h_seq + readout."""
    cfg = model.config
    p = lambda n: model[f"layers.{layer}.{n}"].data
    if chapters is None:
        _, selected, weights = naive_route(h_seq, model, layer)
        chapters = list(range(cfg.shared_chapters)) + selected
    t_sz = cfg.chapter_size
    bank = model["bank.tokens"].data
    rows = np.concatenate([np.arange(c * t_sz, (c + 1) * t_sz) for c in chapters])
    sel = rmsnorm_np(bank[rows], p("mem.token_norm.gain"))
    sel = sel * np.repeat(weights, t_sz)[:, None]
    x = rmsnorm_np(h_seq, p("mem_norm.gain"))
    q, k, v = x @ p("mem.wq"), sel @ p("mem.wk"), sel @ p("mem.wv")
    dh = cfg.d_model // cfg.mem_heads
    groups = cfg.mem_heads // cfg.mem_kv_heads
    heads = []
    for hh in range(cfg.mem_heads):
        kv = hh // groups
        qh = q[:, hh * dh : (hh + 1) * dh]
        kh = k[:, kv * dh : (kv + 1) * dh]
        vh = v[:, kv * dh : (kv + 1) * dh]
        scores = qh @ kh.T / math.sqrt(dh)
        w = np.exp(scores - scores.max(-1, keepdims=True))
        w /= w.sum(-1, keepdims=True)
        heads.append(w @ vh)
    return h_seq + np.concatenate(heads, axis=-1) @ p("mem.wo")


def per_sequence_memory_layer(h, model: Model, layer: int):
    """Reference for the batched memory path: route and read one sequence
    at a time. Returns (h', probs, selected, weights), each stacked over B."""
    outs, probs, selected, weights = [], [], [], []
    for h_seq in h:
        p, sel, w = naive_route(h_seq, model, layer)
        outs.append(naive_memory_layer(h_seq, model, layer))
        probs.append(p)
        selected.append(sel)
        weights.append(w)
    return np.stack(outs), np.stack(probs), np.array(selected), np.stack(weights)


def per_sequence_aux_losses(hs, model: Model, layers):
    """Reference lb and z: one routing per sequence per layer, then the
    closed forms of aux_losses written as loops."""
    cfg = model.config
    shared, c_r = cfg.shared_chapters, cfg.routed_chapters
    lb_terms, z_terms = [], []
    for h, layer in zip(hs, layers):
        f = np.zeros(c_r)
        mean_q = np.zeros(c_r)
        for h_seq in h:
            logits = naive_logits(h_seq, model, layer)
            probs, selected, _ = naive_route(h_seq, model, layer)
            mean_q += probs[shared:] / probs[shared:].sum() / len(h)
            for ch in selected:
                f[ch - shared] += 1.0 / (len(h) * cfg.top_k)
            lse = logits.max() + math.log(np.exp(logits - logits.max()).sum())
            z_terms.append(lse * lse)
        lb_terms.append(c_r * float((f * mean_q).sum()))
    return float(np.mean(lb_terms)), float(np.mean(z_terms))


def count_params_oracle(cfg: ModelConfig):
    d, dff, v = cfg.d_model, cfg.d_ff, cfg.vocab
    d_kv = cfg.n_kv_heads * cfg.head_dim
    base = v * d  # embedding
    base += cfg.n_layers * (2 * d + 2 * d * d + 2 * d * d_kv + 3 * d * dff)
    base += d  # final norm
    if not cfg.tied_embeddings:
        base += d * v
    mem = 0
    for _ in cfg.memory_layer_indices:
        d_mem_kv = cfg.mem_kv_heads * (d // cfg.mem_heads)
        mem += 2 * d  # mem_norm + token_norm gains
        mem += 2 * d * d + 2 * d * d_mem_kv  # wq, wo, wk, wv
        mem += d * cfg.chapters + cfg.chapters  # router weight + bias
        if cfg.adapter_enabled:
            mem += d * d
    bank = cfg.bank_tokens * d if cfg.memory_layer_indices else 0
    return {"base": base, "memory_layers": mem, "memory_bank": bank,
            "total": base + mem + bank}


def micro_double(seed=0, **overrides):
    cfg = preset("micro")
    if overrides:
        cfg = replace(cfg, **overrides)
    return build_model(cfg, RngState(seed), precision="double")


# ---------------------------------------------------------------------------
# parameter counting


class TestParamCounts:
    def test_reference_fixtures_exact(self):
        counts = param_count(preset("moc-paper"))
        assert counts["base"] == 147_874_560
        assert counts["memory_layers"] == 22_045_700
        assert counts["memory_bank"] == 201_375_744
        assert counts["total"] == 371_296_004
        assert param_count(preset("vanilla-iso"))["total"] == 202_937_088

    @pytest.mark.parametrize("name", ["moc-paper", "vanilla-backbone", "vanilla-iso", "micro"])
    def test_matches_independent_oracle(self, name):
        assert param_count(preset(name)) == count_params_oracle(preset(name))

    def test_built_model_matches_config_count(self):
        model = micro_double()
        built = {g: 0 for g in ("base", "memory_layers", "memory_bank")}
        for p in model.parameters():
            built[p.group] += p.size
        built["total"] = sum(built.values())
        assert built == param_count(preset("micro"))

    def test_micro_bank_shape(self):
        model = micro_double()
        assert model["bank.tokens"].shape == (17 * 8, 64)

    def test_adapter_adds_one_matrix_per_memory_layer(self):
        with_a = param_count(replace(preset("micro"), adapter_enabled=True))
        without = param_count(preset("micro"))
        n_mem = len(preset("micro").memory_layer_indices)
        assert with_a["memory_layers"] - without["memory_layers"] == n_mem * 64 * 64


class TestConfigValidation:
    def test_bank_tokens_must_equal_chapters_times_size(self):
        with pytest.raises(ConfigError):
            replace(preset("micro"), bank_tokens=100)

    def test_memory_indices_in_range(self):
        with pytest.raises(ConfigError):
            replace(preset("micro"), memory_layer_indices=(9,))

    def test_topk_plus_shared_bounded(self):
        with pytest.raises(ConfigError):
            replace(preset("micro"), top_k=17)

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            replace(preset("micro"), n_heads=3)

    @pytest.mark.parametrize("name, value", [
        ("rope_theta", 0.0), ("rope_theta", -1.0), ("rope_theta", math.inf), ("rope_theta", math.nan),
        ("routed_scaling", math.nan), ("routed_scaling", -1.0),
        ("lb_coeff", math.nan), ("lb_coeff", -0.01),
        ("z_coeff", math.inf), ("z_coeff", -0.001),
        ("bank_init_std", math.nan), ("bank_init_std", -0.02),
    ])
    def test_numbers_must_be_finite_and_in_range(self, name, value):
        with pytest.raises(ConfigError, match=rf"^invalid model config: {name} must be finite"):
            replace(preset("micro"), **{name: value})

    def test_zero_coefficients_and_scale_pass(self):
        replace(preset("micro"), routed_scaling=0.0, lb_coeff=0.0, z_coeff=0.0, bank_init_std=0.0)


# ---------------------------------------------------------------------------
# attention blocks


class TestSelfAttention:
    @pytest.mark.parametrize("seed", range(3))
    def test_naive_per_head_oracle(self, seed):
        model = micro_double(seed)
        h = np.random.default_rng(seed).standard_normal((2, 5, 64))
        got = self_attention_block(Tensor(h), model, 0).data
        np.testing.assert_allclose(got, naive_self_attention(h, model, 0), atol=1e-10)

    def test_length_one_attends_to_itself(self):
        model = micro_double()
        h = np.random.default_rng(0).standard_normal((1, 1, 64))
        got = self_attention_block(Tensor(h), model, 0).data
        np.testing.assert_allclose(got, naive_self_attention(h, model, 0), atol=1e-12)

    def test_zero_value_projection_is_identity(self):
        model = micro_double()
        model["layers.0.attn.wv"].data[...] = 0.0
        h = np.random.default_rng(1).standard_normal((2, 6, 64))
        got = self_attention_block(Tensor(h), model, 0).data
        np.testing.assert_array_equal(got, h)

    def test_causality(self):
        model = micro_double()
        gen = np.random.default_rng(2)
        h = gen.standard_normal((1, 8, 64))
        base = self_attention_block(Tensor(h), model, 0).data
        h2 = h.copy()
        h2[0, 5:] += gen.standard_normal((3, 64))
        pert = self_attention_block(Tensor(h2), model, 0).data
        np.testing.assert_array_equal(base[0, :5], pert[0, :5])
        assert np.abs(pert[0, 5:] - base[0, 5:]).max() > 1e-8

    def test_each_block_records_one_tape_entry(self):
        # each pre-norm block (self-attention, memory read, MLP) is one op
        # with its norm, projections and residual add
        model = micro_double()
        gen = np.random.default_rng(3)
        h, m = Tensor(gen.standard_normal((2, 6, 64))), Tensor(gen.standard_normal((2, 8, 64)))
        for block in (lambda: self_attention_block(h, model, 0), lambda: mem_read(h, m, model, 1),
                      lambda: _mlp_block(h, model, 0)):
            with Tape() as tape:
                out = block()
            assert len(tape) == 1 and out.shape == h.shape

    def test_sequence_length_cap(self):
        model = micro_double()
        with pytest.raises(SequenceLengthError):
            self_attention_block(Tensor(np.zeros((1, 65, 64))), model, 0)


class TestMemRead:
    @pytest.mark.parametrize("seed", range(3))
    def test_naive_cross_attention_oracle(self, seed):
        # N_sel = 24 tokens = 3 chapters of 8: dense oracle on a fixed set
        model = micro_double(seed)
        gen = np.random.default_rng(seed + 10)
        h = gen.standard_normal((1, 6, 64))
        chapters = [0, 4, 9]
        weights = np.array([1.0, 1.7, 0.8])
        decision = _forced_decision(model, chapters, weights)
        m = prepare_memory_tokens(model, 1, decision)
        assert m.shape == (1, 24, 64)
        got = mem_read(Tensor(h), m, model, 1).data[0]
        want = naive_memory_layer(h[0], model, 1, chapters=chapters, weights=weights)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_single_token_selection_broadcasts_value(self):
        model = micro_double()
        gen = np.random.default_rng(3)
        h = gen.standard_normal((1, 5, 64))
        m = Tensor(gen.standard_normal((1, 1, 64)))
        out = mem_read(Tensor(h), m, model, 1).data[0] - h[0]
        want = (m.data[0] @ model["layers.1.mem.wv"].data) @ model["layers.1.mem.wo"].data
        np.testing.assert_allclose(out, np.broadcast_to(want, out.shape), atol=1e-12)

    def test_zero_values_passthrough(self):
        model = micro_double()
        model["layers.1.mem.wv"].data[...] = 0.0
        h = np.random.default_rng(4).standard_normal((2, 6, 64))
        h2, _ = memory_layer_forward(Tensor(h), model, 1)
        np.testing.assert_array_equal(h2.data, h)

    def test_zero_bank_passthrough(self):
        model = micro_double()
        model["bank.tokens"].data[...] = 0.0
        h = np.random.default_rng(5).standard_normal((2, 6, 64))
        h2, _ = memory_layer_forward(Tensor(h), model, 1)
        np.testing.assert_allclose(h2.data, h, atol=1e-12)

    def test_empty_selection_rejected(self):
        model = micro_double()
        with pytest.raises(ShapeError):
            mem_read(Tensor(np.zeros((1, 2, 64))), Tensor(np.zeros((1, 0, 64))), model, 1)

    def test_tokens_must_be_batched_like_queries(self):
        model = micro_double()
        with pytest.raises(ShapeError):
            mem_read(Tensor(np.zeros((2, 2, 64))), Tensor(np.ones((8, 64))), model, 1)
        with pytest.raises(ShapeError):
            mem_read(Tensor(np.zeros((2, 2, 64))), Tensor(np.ones((1, 8, 64))), model, 1)


def _forced_decision(model, chapters, weights):
    """A batch-of-one decision that reads exactly ``chapters``."""
    cfg = model.config
    return RouterDecision(
        logits=Tensor(np.zeros((1, cfg.chapters))),
        probs=np.full((1, cfg.chapters), 1.0 / cfg.chapters),
        selected=np.array([[c for c in chapters if c >= cfg.shared_chapters]]),
        selected_with_shared=np.array([chapters]),
        chapter_weights=Tensor(np.asarray([weights], dtype=np.float64)),
    )


# ---------------------------------------------------------------------------
# routing


class TestRouting:
    def test_constant_rows_pool_to_that_vector(self):
        model = micro_double()
        vec = np.random.default_rng(0).standard_normal(64)
        h = np.tile(vec, (1, 7, 1))
        w, b = model["layers.1.router.weight"], model["layers.1.router.bias"]
        d = route(Tensor(h), w, b, model.config)
        np.testing.assert_allclose(d.logits.data[0], vec @ w.data + b.data, atol=1e-12)

    def test_zero_router_uniform_and_tiebreak_prefix(self):
        model = micro_double()
        model["layers.1.router.weight"].data[...] = 0.0
        model["layers.1.router.bias"].data[...] = 0.0
        h = np.random.default_rng(1).standard_normal((2, 6, 64))
        d = route(Tensor(h), model["layers.1.router.weight"], model["layers.1.router.bias"], model.config)
        np.testing.assert_allclose(d.probs, np.full((2, 17), 1 / 17), atol=1e-12)
        assert d.selected.tolist() == [[1, 2, 3, 4]] * 2  # first k routed chapters

    @pytest.mark.parametrize("seed", range(100))
    def test_routed_weights_sum_to_scaling(self, seed):
        model = micro_double(seed % 5)
        cfg = model.config
        h = np.random.default_rng(seed).standard_normal((2, 6, 64))
        d = route(Tensor(h), model["layers.1.router.weight"], model["layers.1.router.bias"], cfg)
        assert len(d) == 2 and d.selected.shape == (2, cfg.top_k)
        for b in range(2):
            routed_sum = d.chapter_weights.data[b, cfg.shared_chapters :].sum()
            assert abs(routed_sum - cfg.routed_scaling) < 1e-6
            assert abs(d.probs[b].sum() - 1.0) < 1e-6
            assert all(c >= cfg.shared_chapters for c in d.selected[b])

    def test_logit_shift_invariance(self):
        model = micro_double()
        cfg = model.config
        h = np.random.default_rng(2).standard_normal((1, 5, 64))
        w, b = model["layers.1.router.weight"], model["layers.1.router.bias"]
        before = route(Tensor(h), w, b, cfg)
        b.data += 123.456
        after = route(Tensor(h), w, b, cfg)
        np.testing.assert_allclose(after.probs, before.probs, atol=1e-12)
        np.testing.assert_array_equal(after.selected, before.selected)

    def test_matches_naive_routing_oracle(self):
        model = micro_double(3)
        cfg = model.config
        h = np.random.default_rng(7).standard_normal((6, 64))
        d = route(Tensor(h[None]), model["layers.1.router.weight"], model["layers.1.router.bias"], cfg)
        probs, selected, weights = naive_route(h, model, 1)
        np.testing.assert_allclose(d.probs[0], probs, atol=1e-12)
        assert d.selected[0].tolist() == selected
        np.testing.assert_allclose(d.chapter_weights.data[0], weights, atol=1e-12)


# ---------------------------------------------------------------------------
# routed/dense equivalence, the central sparsity oracle


class TestRoutedDenseEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_full_selection_equals_dense_bank(self, seed):
        # k = C - shared: selection covers the whole bank
        model = micro_double(seed, top_k=16)
        h = np.random.default_rng(seed + 1000).standard_normal((2, 6, 64))
        got, decisions = memory_layer_forward(Tensor(h), model, 1)
        for b in range(2):
            want = naive_memory_layer(h[b], model, 1)
            np.testing.assert_allclose(got.data[b], want, atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_restricted_selection_equals_restricted_dense(self, seed):
        model = micro_double(seed)  # k=4 < C_r=16
        h = np.random.default_rng(seed + 2000).standard_normal((2, 6, 64))
        got, decisions = memory_layer_forward(Tensor(h), model, 1)
        for b in range(2):
            want = naive_memory_layer(h[b], model, 1)  # oracle routes too
            np.testing.assert_allclose(got.data[b], want, atol=1e-10)

    def test_selection_permutation_invariance(self):
        model = micro_double(1)
        gen = np.random.default_rng(11)
        h = Tensor(gen.standard_normal((1, 5, 64)))
        chapters = [0, 3, 8, 12]
        weights = np.array([1.0, 0.9, 1.4, 0.2])
        perm = [0, 12, 3, 8]
        wperm = np.array([1.0, 0.2, 0.9, 1.4])
        a = mem_read(h, prepare_memory_tokens(model, 1, _forced_decision(model, chapters, weights)), model, 1)
        b = mem_read(h, prepare_memory_tokens(model, 1, _forced_decision(model, perm, wperm)), model, 1)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_batch_swap_independence(self):
        model = micro_double(2)
        gen = np.random.default_rng(12)
        h = gen.standard_normal((2, 6, 64))
        out, _ = memory_layer_forward(Tensor(h), model, 1)
        swapped, _ = memory_layer_forward(Tensor(h[::-1].copy()), model, 1)
        np.testing.assert_allclose(out.data, swapped.data[::-1], atol=1e-12)


class TestBatchedMatchesPerSequence:
    """The batched memory path against the per-sequence reference on a
    batch whose sequences route to different chapters."""

    def _random_router_model(self, seed):
        model = micro_double(seed)
        gen = np.random.default_rng(seed + 3000)
        for i in model.config.memory_layer_indices:
            model[f"layers.{i}.router.weight"].data[...] = gen.standard_normal((64, 17))
            model[f"layers.{i}.router.bias"].data[...] = gen.standard_normal(17)
        return model

    @pytest.mark.parametrize("seed", range(3))
    def test_memory_layer_and_router_fields(self, seed):
        model = self._random_router_model(seed)
        cfg = model.config
        h = np.random.default_rng(seed + 4000).standard_normal((5, 6, 64))
        got, d = memory_layer_forward(Tensor(h), model, 1)
        want, probs, selected, weights = per_sequence_memory_layer(h, model, 1)
        assert len({tuple(row) for row in selected}) > 1  # sequences read different chapters
        assert np.ptp(probs[:, cfg.shared_chapters :], axis=1).min() > 1e-3  # router is not uniform
        np.testing.assert_allclose(got.data, want, atol=1e-12)
        logits = np.stack([naive_logits(h_seq, model, 1) for h_seq in h])
        np.testing.assert_allclose(d.logits.data, logits, atol=1e-12)
        np.testing.assert_allclose(d.probs, probs, atol=1e-12)
        np.testing.assert_array_equal(d.selected, selected)
        shared = np.tile(np.arange(cfg.shared_chapters), (5, 1))
        np.testing.assert_array_equal(d.selected_with_shared, np.concatenate([shared, selected], axis=1))
        np.testing.assert_allclose(d.chapter_weights.data, weights, atol=1e-12)
        assert len(d) == 5

    @pytest.mark.parametrize("seed", range(3))
    def test_aux_losses(self, seed):
        model = self._random_router_model(seed)
        cfg = model.config
        gen = np.random.default_rng(seed + 5000)
        layers = cfg.memory_layer_indices
        hs = [gen.standard_normal((4, 7, 64)) for _ in layers]
        decisions = [
            route(Tensor(h), model[f"layers.{i}.router.weight"], model[f"layers.{i}.router.bias"], cfg)
            for h, i in zip(hs, layers)
        ]
        penalty, lb, z = aux_losses(decisions, cfg)
        want_lb, want_z = per_sequence_aux_losses(hs, model, layers)
        assert abs(lb - want_lb) < 1e-12
        assert abs(z - want_z) < 1e-12
        assert penalty.item() == cfg.lb_coeff * lb + cfg.z_coeff * z
        assert abs(want_lb - 1.0) > 1e-3  # far from the uniform-routing value


# ---------------------------------------------------------------------------
# aux losses


class TestAuxLosses:
    def _zero_router_model(self, **overrides):
        model = micro_double(**overrides)
        for i in model.config.memory_layer_indices:
            model[f"layers.{i}.router.weight"].data[...] = 0.0
            model[f"layers.{i}.router.bias"].data[...] = 0.0
        return model

    def test_uniform_routing_gives_unit_lb(self):
        model = self._zero_router_model()
        tokens = np.random.default_rng(0).integers(0, 256, (3, 8))
        trace = model_forward(model, tokens, tokens)
        assert abs(trace.lb_loss - 1.0) < 1e-9

    def test_zero_logits_give_log_c_squared_z(self):
        model = self._zero_router_model()
        tokens = np.random.default_rng(1).integers(0, 256, (2, 8))
        trace = model_forward(model, tokens, tokens)
        assert abs(trace.z_loss - math.log(17) ** 2) < 1e-9

    def test_collapsed_router_gives_cr_lb(self):
        model = micro_double(top_k=1)
        for i in model.config.memory_layer_indices:
            model[f"layers.{i}.router.weight"].data[...] = 0.0
            model[f"layers.{i}.router.bias"].data[...] = 0.0
            model[f"layers.{i}.router.bias"].data[5] = 60.0
        tokens = np.random.default_rng(2).integers(0, 256, (2, 8))
        trace = model_forward(model, tokens, tokens)
        assert abs(trace.lb_loss - 16.0) < 1e-9

    def test_total_loss_composition(self):
        model = micro_double(4)
        cfg = model.config
        tokens = np.random.default_rng(3).integers(0, 256, (2, 8))
        trace = model_forward(model, tokens, tokens)
        want = trace.lm_loss + cfg.lb_coeff * trace.lb_loss + cfg.z_coeff * trace.z_loss
        assert abs(trace.total_loss - want) < 1e-12


# ---------------------------------------------------------------------------
# full forward


class TestModelForward:
    def test_untrained_lm_loss_near_log_vocab(self):
        model = micro_double(0)
        tokens = np.random.default_rng(0).integers(0, 256, (4, 32))
        trace = model_forward(model, tokens, tokens)
        assert abs(trace.lm_loss - math.log(256)) / math.log(256) < 0.05

    def test_memoryless_config_runs_dense(self):
        model = build_model(replace(preset("micro"), memory_layer_indices=()), RngState(0), "double")
        tokens = np.random.default_rng(1).integers(0, 256, (2, 8))
        trace = model_forward(model, tokens, tokens)
        assert trace.lb_loss == 0.0 and trace.z_loss == 0.0
        assert trace.decisions == []
        assert trace.total_loss == trace.lm_loss

    def test_token_out_of_range(self):
        model = micro_double()
        with pytest.raises(IndexError):
            model_forward(model, np.array([[0, 300]]), np.array([[0, 1]]))

    def test_sequence_length_error(self):
        model = micro_double()
        with pytest.raises(SequenceLengthError):
            model_forward(model, np.zeros((1, 65), dtype=np.int64), np.zeros((1, 65), dtype=np.int64))

    def test_all_params_receive_grads_except_unselected_chapters(self):
        model = micro_double(5)
        cfg = model.config
        tokens = np.random.default_rng(4).integers(0, 256, (1, 10))
        with Tape() as tape:
            trace = model_forward(model, tokens, tokens)
            tape.backward(trace.loss)
        selected = set()
        for d in trace.decisions:
            selected.update(d.selected_with_shared.ravel().tolist())
        assert len(selected) < cfg.chapters  # some chapters unselected at B=1
        t_sz = cfg.chapter_size
        bank_grad = model["bank.tokens"].dense_grad()
        for c in range(cfg.chapters):
            block = bank_grad[c * t_sz : (c + 1) * t_sz]
            if c in selected:
                assert np.any(block != 0.0), f"selected chapter {c} got no gradient"
            else:
                assert np.all(block == 0.0), f"unselected chapter {c} got gradient"
        for name, p in model.params.items():
            if name == "bank.tokens":
                continue
            assert np.any(p.dense_grad() != 0.0), f"{name} received no gradient"

    @pytest.mark.parametrize("tied", [True, False])
    def test_the_bank_stores_exactly_the_rows_its_decisions_picked(self, tied):
        model = micro_double(5, tied_embeddings=tied)
        tokens = np.random.default_rng(5).integers(0, 256, (2, 10))
        with Tape() as tape:
            trace = model_forward(model, tokens, tokens)
            tape.backward(trace.loss)
        t = model.config.chapter_size
        picked = np.unique(np.concatenate([(d.selected_with_shared[:, :, None] * t + np.arange(t)).ravel()
                                           for d in trace.decisions]))
        bank = model["bank.tokens"]
        assert isinstance(bank.grad, RowGrad) and picked.size < bank.shape[0]
        np.testing.assert_array_equal(bank.grad.ids, picked)
        assert bank.grad.rows.shape == (picked.size, bank.shape[1])
        emb = model["embedding.weight"].grad  # the tied head's dW is dense; untied, the gather is row-sparse
        assert isinstance(emb, np.ndarray) if tied else np.array_equal(emb.ids, np.unique(tokens))

    def test_causality_probe(self):
        # Changing only the last token must leave earlier logits of a dense
        # model bit-identical. Mean-pooled routing reads every position,
        # so in a memory model it can move them.
        tokens = np.random.default_rng(8).integers(0, 256, (2, 12))
        changed = tokens.copy()
        changed[:, -1] = (changed[:, -1] + 1) % 256
        dense = build_model(replace(preset("micro"), memory_layer_indices=()), RngState(0))
        np.testing.assert_array_equal(dense.forward_logits(tokens)[:, :-1], dense.forward_logits(changed)[:, :-1])
        mem = build_model(preset("micro"), RngState(0))
        leak = np.abs(mem.forward_logits(tokens)[:, :-1] - mem.forward_logits(changed)[:, :-1]).max()
        print(f"micro memory model: last-token change moves earlier-position logits by up to {leak:.3g}")
        assert leak > 0.0

    @pytest.mark.parametrize("tied", [True, False])
    def test_forward_logits_use_the_loss_head(self, tied):
        model = micro_double(9, tied_embeddings=tied)
        tokens = np.random.default_rng(9).integers(0, 256, (3, 12))
        logits = model.forward_logits(tokens)[:, :-1].reshape(-1, 256)
        picked = logits[np.arange(logits.shape[0]), tokens[:, 1:].reshape(-1)]
        top = logits.max(axis=1)
        ce = np.mean(top + np.log(np.exp(logits - top[:, None]).sum(axis=1)) - picked)
        assert abs(ce - model_forward(model, tokens, tokens).lm_loss) < 1e-12
        if not tied:
            model["lm_head.weight"].data[...] = 0.0
            assert not model.forward_logits(tokens).any()

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_one_taped_step_stays_in_model_dtype(self, precision):
        class DtypeTape(Tape):
            def __init__(self):
                super().__init__()
                self.outputs = []

            def record(self, out, backward_fn):
                self.outputs.append(out)
                super().record(out, backward_fn)

        model = build_model(preset("micro"), RngState(10), precision)
        dtype = np.dtype(PRECISION_DTYPES[precision])
        tokens = np.random.default_rng(10).integers(0, 256, (2, 16))
        with DtypeTape() as tape:
            trace = model_forward(model, tokens, tokens)
            tape.backward(trace.loss)
        assert trace.decisions and tape.outputs
        wrong = sorted({str(out.data.dtype) for out in tape.outputs} - {str(dtype)})
        assert not wrong, f"{precision} tape recorded outputs of dtype {wrong}"
        assert all(out.grad is None or out.grad.dtype == dtype for out in tape.outputs)
        assert trace.loss.data.dtype == dtype
        for name, p in model.params.items():
            assert p.stored_grad().dtype == dtype, f"{name} grad is {p.stored_grad().dtype}"
        assert model.forward_logits(tokens).dtype == dtype

    def test_forward_without_targets_skips_the_head(self, monkeypatch):
        # route stats read only the decisions: a NaN head would raise
        # NumericError if its logits were computed, and the penalty is not built
        model = micro_double(11, tied_embeddings=False)
        model["lm_head.weight"].data[...] = np.nan

        def no_penalty(*args):
            raise AssertionError("route stats built the router penalty")

        monkeypatch.setattr("chapterbank.model.aux_losses", no_penalty)
        stats = collect_route_stats(model, [np.random.default_rng(11).integers(0, 256, (2, 8))])
        assert [s.layer for s in stats] == [1, 3]
        assert all(s.frequency.sum() == model.config.top_k for s in stats)

    def test_micro_train_step_tape_length(self):
        # Pins the tape of one micro train step (forward + loss): 1 embedding
        # gather, 4 layers of 2, 2 memory layers of 4 and 3 in the head and
        # losses, 20 records. Each block, self-attention, memory read or MLP,
        # is one op with its pre-norm and residual add (ops.attention,
        # ops.swiglu). Each of the two memory layers' routers is two
        # (router_logits, chapter_weights) and its tokens one (memory_tokens),
        # with or without the adapter. The head is one record, lm_head_loss
        # (slice, final norm and cross-entropy); the router penalty is one
        # (router_penalty over both layers' logits), and one add joins the two.
        # The dense model has no penalty and no add: 10. A change that splits
        # the head, the penalty, the router, the memory tokens or a block into
        # more ops fails here.
        tokens = np.random.default_rng(12).integers(0, 256, (2, 16))
        for overrides, want in (({"adapter_enabled": False}, 20), ({"adapter_enabled": True}, 20),
                                ({"memory_layer_indices": ()}, 10)):
            model = build_model(replace(preset("micro"), **overrides), RngState(12))
            with Tape() as tape:
                model_forward(model, tokens, tokens)
            assert len(tape) == want, overrides

    def test_micro_train_step_backward_peak_near_forward_memory(self):
        # Backward consumes the tape, so activation grads and saved arrays are
        # freed as it unwinds. The forward holds 1.43 MB and the backward
        # peaks at 2.00 MB; a backward that kept every record peaked at 2.86.
        model = build_model(preset("micro"), RngState(12))
        tokens = np.random.default_rng(12).integers(0, 256, (4, 32))
        model.zero_grads()
        tracemalloc.start()
        try:
            with Tape() as tape:
                trace = model_forward(model, tokens, tokens)
                tracemalloc.reset_peak()
                tape.backward(trace.loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_250_000, f"backward peak {peak} B"
        assert len(tape) == 0

    def test_train_mem_forward_holds_at_most_35_mib_and_backward_peaks_at_56(self):
        # the benchmark's train-mem model at (8, 128): its self-attention runs
        # in 2 tiles and its memory read in 8. No op holds P, and no block
        # holds gate, up, K or V. The forward holds 33.0 MiB and the backward
        # peaks at 52.7; holding those projections again takes them to 70.0
        # and 79.7.
        cfg = replace(preset("micro"), d_model=256, n_heads=4, n_kv_heads=2, d_ff=768, vocab=4096, chapters=257,
                      chapter_size=32, bank_tokens=257 * 32, shared_chapters=1, top_k=8, mem_heads=4,
                      max_seq_len=128)
        model = build_model(cfg, RngState(1))
        tokens = np.random.default_rng(1).integers(0, cfg.vocab, (8, 128))
        tracemalloc.start()
        try:
            with Tape() as tape:
                trace = model_forward(model, tokens, tokens)
                held = tracemalloc.get_traced_memory()[0]
                tape.backward(trace.loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= 35 * 2**20, f"a taped forward holds {held / 2**20:.1f} MiB"
        assert peak <= 56 * 2**20, f"a taped forward and backward peak at {peak / 2**20:.1f} MiB"

    def test_full_model_grad_check_sampled(self):
        model = micro_double(7)
        tokens = np.random.default_rng(6).integers(0, 256, (2, 8))

        def f():
            return model_forward(model, tokens, tokens).loss

        err = grad_check(f, model.parameters(), h=1e-5, max_entries_per_param=4)
        assert err < 1e-5


# ---------------------------------------------------------------------------
# fused head against the unfused composition


def _logits(x: Tensor, w: Tensor, transposed: bool) -> Tensor:
    """Taped (..., V) logits x @ w, or x @ w^T when ``transposed``, as one
    2-D GEMM over the flattened rows of x."""
    wt = w.data.T if transposed else w.data
    x2 = x.data.reshape(-1, wt.shape[0])

    def backward(g):
        g2 = g.reshape(-1, wt.shape[1])
        x.accumulate_grad((g2 @ wt.T).reshape(x.shape))
        dw = x2.T @ g2
        w.accumulate_grad(dw.T if transposed else dw)

    return _record(Tensor((x2 @ wt).reshape(x.shape[:-1] + (wt.shape[1],))), [x, w], backward)


def _next_token_cross_entropy(logits: Tensor, tokens: np.ndarray) -> Tensor:
    """Taped mean of logsumexp(row) - row[next token] over positions 0..L-2
    of (B, L, V) logits in plain numpy, max-subtracted; backward
    (softmax - onehot) * g / N there and zero at position L-1."""
    z, t = logits.data[:, :-1].reshape(-1, logits.shape[-1]), tokens[:, 1:].reshape(-1)
    rows = np.arange(z.shape[0])
    top = z.max(axis=1, keepdims=True)
    e = np.exp(z - top)
    s = e.sum(axis=1, keepdims=True)
    loss = Tensor(np.mean(top[:, 0] + np.log(s[:, 0]) - z[rows, t]))

    def backward(g):
        p = e / s
        p[rows, t] -= 1.0
        dz = np.zeros_like(logits.data)
        dz[:, :-1] = (p * (float(g) / len(rows))).reshape(dz[:, :-1].shape)
        logits.accumulate_grad(dz)

    return _record(loss, [logits], backward)


def _final_norm(h: Tensor, gain: Tensor) -> Tensor:
    """Taped gain * h / sqrt(mean(h^2) + eps) over the last axis in plain
    numpy; backward in closed form, dgain = sum of g * h * inv and
    dh = gg * inv - h * inv^3 * sum(gg * h) / d with gg = g * gain."""
    d = h.shape[-1]
    inv = 1.0 / np.sqrt((h.data * h.data).mean(-1, keepdims=True) + RMSNORM_EPS)

    def backward(g):
        gain.accumulate_grad((g * h.data * inv).reshape(-1, d).sum(0))
        gg = g * gain.data
        h.accumulate_grad(gg * inv - h.data * inv**3 * (gg * h.data).sum(-1, keepdims=True) / d)

    return _record(Tensor(gain.data * h.data * inv), [h, gain], backward)


def unfused_total_loss(model: Model, tokens: np.ndarray) -> Tensor:
    """The final norm of all L positions, full (B, L, V) logits from one
    taped GEMM, then a plain-numpy logsumexp cross-entropy over the first
    L - 1 positions, plus the router penalty."""
    cfg = model.config
    h, decisions = _run_stack(model, tokens)
    x = _final_norm(h, model["final_norm.gain"])
    w = model["embedding.weight" if cfg.tied_embeddings else "lm_head.weight"]
    loss = _next_token_cross_entropy(_logits(x, w, cfg.tied_embeddings), tokens)
    if decisions:
        loss = ops.add(loss, aux_losses(decisions, cfg)[0])
    return loss


MID = dict(d_model=96, n_heads=4, n_kv_heads=2, d_ff=192, vocab=700, max_seq_len=128)


class TestFusedHeadEquivalence:
    @pytest.mark.parametrize(
        "overrides, shape",
        [({}, (3, 13)), ({"tied_embeddings": False}, (3, 13)), (MID, (3, 100)), ({**MID, "tied_embeddings": False}, (3, 100))],
        ids=["micro-tied", "micro-untied", "mid-tied", "mid-untied"],
    )
    def test_loss_and_grads_match_unfused(self, overrides, shape):
        # the mid shapes give 297 loss rows: more than one chunk, the last one short
        model = micro_double(14, **overrides)
        tokens = np.random.default_rng(14).integers(0, model.config.vocab, shape)
        with Tape() as tape:
            trace = model_forward(model, tokens, tokens)
            tape.backward(trace.loss)
        fused = {name: p.dense_grad().copy() for name, p in model.params.items()}
        model.zero_grads()
        with Tape() as tape:
            ref = unfused_total_loss(model, tokens)
            tape.backward(ref)
        assert abs(trace.total_loss - ref.item()) <= 1e-10 * abs(ref.item())
        for name, p in model.params.items():
            scale = max(np.abs(p.dense_grad()).max(), 1e-300)
            assert np.abs(fused[name] - p.dense_grad()).max() <= 1e-10 * scale, name
