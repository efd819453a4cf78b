"""Top-level acceptance gates for the package.

Each test covers one release criterion end-to-end and prints a single
``[PASS]``/``[FAIL]`` line (visible with ``pytest -rA`` or ``-s``).
Oracles here are independent recomputations, not calls back into the
code under test.
"""

import functools
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import test_model as oracles  # sibling test module: numpy reference implementations
from chapterbank.checkpoint import load_checkpoint, save_checkpoint
from chapterbank.config import preset
from chapterbank.flops import (
    flops_head_and_loss,
    flops_memory_layer_extra,
    flops_model,
    flops_standard_layer,
)
from chapterbank.gradcheck import grad_check
from chapterbank.model import (
    build_model,
    memory_layer_forward,
    model_forward,
    param_count,
    route,
)
from chapterbank.ops import topk
from chapterbank.retention import VARIANTS, RetentionConfig, run_multi_seed, run_retention_protocol
from chapterbank.schedule import cosine, lr_at_step, wsd
from chapterbank.tensor import RngState, Tensor
from chapterbank.train import TrainConfig, make_synthetic_corpus, metrics_csv, train, continue_train, resume_train

AUX = 331_859


def criterion(label):
    """Print one PASS/FAIL line per acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")

        return wrapper

    return deco


def micro_cfg(steps, *, seq_len=16, **over):
    base = dict(steps=steps, batch_size=4, seq_len=seq_len, lr_base=1e-3, schedule=cosine(2), eval_every=50)
    base.update(over)
    return TrainConfig(**base)


class TestAcceptance:
    @criterion("flops exactness: all reference integers reproduced, < 1 s")
    def test_01_flops_exactness(self):
        cfg = preset("moc-paper")
        t0 = time.perf_counter()

        std = flops_standard_layer(cfg, 1, 1024)
        assert std.total == 17_424_982_016
        assert std.self_attention.total == 6_530_531_328
        assert std.rope == 3_145_728
        assert std.norms == 6_299_648
        assert std.mlp.total == 10_883_432_448
        assert std.residuals == 1_572_864

        mem = flops_memory_layer_extra(cfg, 1, 1024, aux_override=AUX)
        assert mem.total == 25_702_029_150
        assert mem.router.total == 7_124_491
        assert mem.mem_preprocess.total == 15_991_040
        assert mem.mem_attention.total == 25_674_645_504
        assert mem.extra_norm == 3_149_824
        assert mem.extra_residual == 786_432

        assert flops_head_and_loss(cfg, 1, 1024).total == 77_563_973_632

        assert flops_model(preset("vanilla-backbone"), 1, 1024).forward == 356_363_685_888
        iso = flops_model(preset("vanilla-iso"), 1, 1024)
        assert iso.forward == 495_763_542_016
        assert iso.fwd_bwd == 3 * iso.forward == 1_487_290_626_048
        moc = flops_model(cfg, 1, 1024, aux_override=AUX)
        assert moc.forward == 459_171_802_488
        assert moc.fwd_bwd == 3 * moc.forward

        assert time.perf_counter() - t0 < 1.0

    @criterion("parameter-count fixtures exact and equal to the counting oracle")
    def test_02_param_counts(self):
        moc = param_count(preset("moc-paper"))
        assert moc["base"] == 147_874_560
        assert moc["memory_layers"] == 22_045_700
        assert moc["memory_bank"] == 201_375_744
        assert moc["total"] == 371_296_004
        assert param_count(preset("vanilla-iso"))["total"] == 202_937_088
        for name in ("moc-paper", "vanilla-iso"):
            assert param_count(preset(name)) == oracles.count_params_oracle(preset(name))
        # rounded values as documented
        assert round(moc["total"] / 1e6, 2) == 371.30 or round(moc["total"] / 1e6, 2) == 371.3
        assert round(param_count(preset("vanilla-iso"))["total"] / 1e6, 2) == 202.94

    @criterion("gradient correctness: full-model finite differences < 1e-5, 3 seeds")
    def test_03_gradient_correctness(self):
        for seed in (0, 1, 2):
            model = build_model(preset("micro"), RngState(seed), precision="double")
            tokens = np.random.default_rng(100 + seed).integers(0, 256, (2, 8))

            def f():
                return model_forward(model, tokens, tokens).loss

            err = grad_check(f, model.parameters(), h=1e-5, max_entries_per_param=3, seed=seed)
            assert err < 1e-5, f"seed {seed}: max relative error {err}"

    @criterion("routed output equals dense weighted-bank cross-attention within 1e-10")
    def test_04_routed_dense_oracle(self):
        for seed in range(10):
            # k = C - shared: the selection covers every routed chapter
            full = build_model(replace(preset("micro"), top_k=16), RngState(seed), precision="double")
            h = np.random.default_rng(5000 + seed).standard_normal((2, 6, 64))
            got, _ = memory_layer_forward(Tensor(h), full, 1)
            for b in range(2):
                np.testing.assert_allclose(
                    got.data[b], oracles.naive_memory_layer(h[b], full, 1), atol=1e-10
                )
            # k < C - shared: dense attention restricted to the selected chapters
            part = build_model(preset("micro"), RngState(seed), precision="double")
            got, _ = memory_layer_forward(Tensor(h), part, 1)
            for b in range(2):
                np.testing.assert_allclose(
                    got.data[b], oracles.naive_memory_layer(h[b], part, 1), atol=1e-10
                )

    @criterion("top-k matches the full-sort oracle; router shift invariance; weight sum")
    def test_05_topk_and_router_invariants(self):
        def sort_oracle(v, k):
            order = sorted(range(len(v)), key=lambda i: (-v[i], i))
            return order[:k]

        # exhaustive over every tie pattern from a 3-value alphabet for small C,
        # one pattern at a time and all patterns stacked as rows of one 2-D input
        for c in range(1, 6):
            patterns = np.array(list(itertools.product((0.125, 0.5, 0.875), repeat=c)))
            for k in range(1, c + 1):
                rows = topk(patterns, k)
                for arr, row in zip(patterns, rows):
                    assert topk(arr, k).tolist() == sort_oracle(arr, k)
                    assert row.tolist() == sort_oracle(arr, k)
        # every (C, k) pair up to C = 12 on random and tie-quantized vectors
        gen = np.random.default_rng(9)
        for c in range(1, 13):
            for k in range(1, c + 1):
                for _ in range(40):
                    arr = gen.standard_normal(c)
                    assert topk(arr, k).tolist() == sort_oracle(arr, k)
                    q = np.round(gen.standard_normal(c))  # heavy ties
                    assert topk(q, k).tolist() == sort_oracle(q, k)

        model = build_model(preset("micro"), RngState(0), precision="double")
        w, b = model["layers.1.router.weight"], model["layers.1.router.bias"]
        gen = np.random.default_rng(10)
        for _ in range(20):
            h = Tensor(gen.standard_normal((1, 5, 64)))
            d0 = route(h, w, b, model.config)
            b.data += 123.456
            d1 = route(h, w, b, model.config)
            b.data -= 123.456
            np.testing.assert_array_equal(d1.selected, d0.selected)
            np.testing.assert_allclose(d1.probs, d0.probs, atol=1e-12)
            np.testing.assert_allclose(d1.chapter_weights.data, d0.chapter_weights.data, atol=1e-12)

        shared = model.config.shared_chapters
        for seed in range(100):
            model_s = build_model(preset("micro"), RngState(seed))
            h = Tensor(np.random.default_rng(seed).standard_normal((1, 7, 64)))
            d = route(h, model_s["layers.1.router.weight"], model_s["layers.1.router.bias"], model_s.config)
            routed_sum = float(d.chapter_weights.data[0, shared:].sum())
            assert abs(routed_sum - model_s.config.routed_scaling) < 1e-6

    @criterion("aux-loss closed forms: uniform lb = 1, zero-logit z = (ln C)^2")
    def test_06_aux_loss_closed_forms(self):
        model = build_model(preset("micro"), RngState(0), precision="double")
        for layer in model.config.memory_layer_indices:
            model[f"layers.{layer}.router.weight"].data[...] = 0.0
            model[f"layers.{layer}.router.bias"].data[...] = 0.0
        tokens = np.random.default_rng(4).integers(0, 256, (3, 12))
        trace = model_forward(model, tokens, tokens)
        assert abs(trace.lb_loss - 1.0) < 1e-9
        assert abs(trace.z_loss - math.log(model.config.chapters) ** 2) < 1e-9

    @criterion("schedule fixtures: WSD anchors and piecewise-linear path within 1e-12")
    def test_07_schedule_fixtures(self):
        base = 3e-4
        sched = wsd(250, 8160, 0.1, total_steps=9600)
        assert abs(lr_at_step(sched, 250, base) - base) < 1e-12
        assert abs(lr_at_step(sched, 9600, base) - 0.1 * base) < 1e-12
        for s in (0, 1, 125, 249):  # linear warmup
            assert abs(lr_at_step(sched, s, base) - base * s / 250) < 1e-12
        for s in (251, 4000, 8160):  # stable plateau
            assert abs(lr_at_step(sched, s, base) - base) < 1e-12
        for s in (8161, 8880, 9599):  # linear decay to the floor
            want = base * (1.0 - 0.9 * (s - 8160) / (9600 - 8160))
            assert abs(lr_at_step(sched, s, base) - want) < 1e-12
        assert abs(lr_at_step(sched, 8880, base) - 0.55 * base) < 1e-12
        cos = cosine(250, total_steps=9600)
        assert abs(lr_at_step(cos, 250, base) - base) < 1e-12
        mid = base * 0.5 * (1.0 + math.cos(math.pi * 0.5))
        assert abs(lr_at_step(cos, (250 + 9600) // 2, base) - mid) < 1e-12

    @criterion("training smoke: loss drop >= 20%, bit-identical rerun, bit-identical resume")
    def test_08_training_smoke_and_determinism(self, tmp_path):
        corpus = make_synthetic_corpus(256, 8192, seed=1)
        cfg = TrainConfig(
            steps=200, batch_size=4, seq_len=32, lr_base=1e-3,
            schedule=cosine(10), eval_every=10, seed=7,
        )
        res_a = train(build_model(preset("micro"), RngState(7)), corpus, cfg)
        evals = res_a.eval_rows()
        at_10 = next(r.lm_loss for r in evals if r.step == 10)
        final = evals[-1]
        assert final.step == 200
        assert final.lm_loss <= 0.8 * at_10, f"eval loss {at_10} -> {final.lm_loss}"

        res_b = train(build_model(preset("micro"), RngState(7)), corpus, cfg)
        assert metrics_csv(res_a.metrics) == metrics_csv(res_b.metrics)
        for name, t in res_a.checkpoint.tensors.items():
            assert t.tobytes() == res_b.checkpoint.tensors[name].tobytes()

        # interrupt at step 100, round-trip through the file format, resume
        pinned = replace(cfg, schedule=cfg.schedule.with_total_steps(200))
        half = train(build_model(preset("micro"), RngState(7)), corpus, replace(pinned, steps=100))
        path = tmp_path / "mid.ckpt"
        save_checkpoint(half.checkpoint, path)
        res_c = resume_train(load_checkpoint(path), corpus, pinned)
        for name, t in res_a.checkpoint.tensors.items():
            assert t.tobytes() == res_c.checkpoint.tensors[name].tobytes()
        for name, (m, v) in res_a.checkpoint.moments.items():
            m2, v2 = res_c.checkpoint.moments[name]
            assert m.tobytes() == m2.tobytes() and v.tobytes() == v2.tobytes()

    @criterion("freeze-bank: bank bytes unchanged, optimizer state smaller by 2*N_m*d")
    def test_09_freeze_bank_contract(self):
        corpus_a = make_synthetic_corpus(256, 4096, seed=2)
        corpus_b = make_synthetic_corpus(256, 4096, seed=3)
        first = train(build_model(preset("micro"), RngState(5)), corpus_a, micro_cfg(6))
        ckpt = first.checkpoint

        frozen = continue_train(ckpt, corpus_b, micro_cfg(8, bank_mode="frozen"))
        equal = continue_train(ckpt, corpus_b, micro_cfg(8, bank_mode="equal_lr"))

        bank0 = ckpt.tensors["bank.tokens"]
        assert frozen.model["bank.tokens"].data.tobytes() == bank0.tobytes()
        assert equal.model["bank.tokens"].data.tobytes() != bank0.tobytes()

        cfg = preset("micro")
        n_m_times_d = cfg.bank_tokens * cfg.d_model
        diff = equal.optimizer.state_element_count() - frozen.optimizer.state_element_count()
        assert diff == 2 * n_m_times_d == 17_408

    @criterion("retention harness: 3 seeds end-to-end, schema complete, deltas consistent")
    def test_10_retention_harness(self):
        cfg = RetentionConfig(phase_a=micro_cfg(8), phase_b=micro_cfg(4, seq_len=32))
        reports, mean = run_multi_seed(cfg, seeds=[0, 1, 2])
        assert len(reports) == 3
        for report in reports + [mean]:
            rows = report.rows()
            assert len(rows) == 12
            assert {r[0] for r in rows} == set(VARIANTS)
            assert {r[1] for r in rows} == {"fact_recall", "task_accuracy", "fact_eval_loss", "failed"}
            for variant, metric, a, b, delta in rows:
                if metric == "failed":
                    assert (a, b, delta) in {(0.0, 0.0, 0.0), (0.0, 1.0, 1.0)}
                    assert b == 0.0  # nothing aborted
                else:
                    assert abs(delta - (b - a)) < 1e-12

        # a no-op second phase must leave every metric exactly in place
        still = run_retention_protocol(
            RetentionConfig(phase_a=micro_cfg(8), phase_b=micro_cfg(0, seq_len=32), seed=5)
        )
        for name in VARIANTS:
            r = still.variants[name]
            assert (r.recall_delta, r.task_delta, r.loss_delta) == (0.0, 0.0, 0.0)

        # directionality is reported, not gated, at this scale
        for name in VARIANTS:
            v = mean.variants[name]
            print(f"  mean recall delta {name}: {v.recall_delta:+.3f} (loss delta {v.loss_delta:+.4f})")
