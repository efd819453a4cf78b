"""Training loop: determinism, resume, bank freezing, LR bookkeeping,
abort paths, and the metrics/corpus plumbing."""

import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import chapterbank
from chapterbank import ops
from chapterbank.checkpoint import checkpoint_from, load_checkpoint, save_checkpoint
from chapterbank.config import preset
from chapterbank.errors import CheckpointMismatch, ConfigError, TrainingAborted
from chapterbank.flops import flops_model
from chapterbank.model import build_model
from chapterbank.optim import AdamW, AdamWConfig
from chapterbank.schedule import cosine, lr_at_step, wsd
from chapterbank.tensor import RngState, Tape, Tensor
from chapterbank.train import (
    BANK_MODES,
    METRICS_HEADER,
    Corpus,
    TrainConfig,
    _eval_losses,
    continue_train,
    make_synthetic_corpus,
    metrics_csv,
    resume_train,
    sample_batch,
    train,
)

CORPUS = make_synthetic_corpus(vocab=256, length=8192, seed=1)


def micro_model(seed=0):
    return build_model(preset("micro"), RngState(seed), precision="double")


def quick_cfg(**over):
    base = dict(steps=20, batch_size=4, seq_len=32, lr_base=1e-3, schedule=cosine(2), eval_every=10, seed=3)
    base.update(over)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_round_trip(self):
        cfg = quick_cfg(bank_mode="low_lr", schedule=wsd(2, 10), betas=(0.8, 0.9))
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"steps": 5, "momentum": 0.9})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(steps=-1),
            dict(batch_size=0),
            dict(grad_accum=0),
            dict(seq_len=1),
            dict(bank_mode="off"),
            dict(bank_mode="custom"),  # needs lr_memory_bank
            dict(eval_every=0),
            dict(clip_norm=0.0),
            dict(steps=10, schedule=wsd(2, 10)),  # decay_start >= steps
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            quick_cfg(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("lr_base", math.nan), ("lr_base", -1e-3), ("lr_base", math.inf),
        ("lr_memory_layers", math.nan), ("lr_memory_layers", -1e-3),
        ("lr_memory_bank", math.inf), ("lr_memory_bank", -1e-3),
        ("betas", (1.0, 0.95)), ("betas", (0.9, 1.0)), ("betas", (-0.1, 0.95)), ("betas", (0.9, math.nan)),
        ("weight_decay", -1e9), ("weight_decay", math.nan), ("weight_decay", math.inf),
        ("clip_norm", math.nan), ("clip_norm", -1.0),
    ])
    def test_update_numbers_are_checked_and_name_their_field(self, name, value):
        with pytest.raises(ConfigError, match=rf"^{name} must"):
            quick_cfg(**{name: value})

    def test_update_numbers_at_their_edges_pass(self):
        quick_cfg(lr_base=0.0, lr_memory_layers=0.0, bank_mode="custom", lr_memory_bank=0.0,
                  betas=(0.0, 0.0), weight_decay=0.0)
        quick_cfg(clip_norm=math.inf)  # no clipping

    def test_steps_must_exceed_the_warmup_without_a_horizon(self):
        with pytest.raises(ConfigError, match=r"steps 5 must exceed schedule\.warmup 10"):
            TrainConfig(steps=5)
        TrainConfig(steps=0)  # nothing to schedule
        TrainConfig(steps=11)
        TrainConfig(steps=5, schedule=cosine(10, total_steps=20))  # a run cut short of its horizon

    def test_group_lrs_per_bank_mode(self):
        assert quick_cfg(bank_mode="frozen").group_lrs()["memory_bank"] == 0.0
        assert quick_cfg(bank_mode="low_lr").group_lrs()["memory_bank"] == 1e-4
        assert quick_cfg(bank_mode="equal_lr").group_lrs()["memory_bank"] == 1e-3
        assert quick_cfg(bank_mode="custom", lr_memory_bank=7e-5).group_lrs()["memory_bank"] == 7e-5
        assert set(BANK_MODES) == {"frozen", "low_lr", "equal_lr", "custom"}

    def test_memory_layer_lr_defaults_to_base(self):
        assert quick_cfg().group_lrs()["memory_layers"] == 1e-3
        assert quick_cfg(lr_memory_layers=5e-4).group_lrs()["memory_layers"] == 5e-4

    def test_frozen_groups_property(self):
        assert quick_cfg(bank_mode="frozen").frozen_groups == {"memory_bank"}
        assert quick_cfg().frozen_groups == frozenset()


class TestCorpus:
    def test_must_be_one_dimensional(self):
        with pytest.raises(ConfigError):
            Corpus(np.zeros((2, 2), dtype=np.int64), 256)

    def test_token_range_checked(self):
        with pytest.raises(ConfigError):
            Corpus(np.array([0, 300]), 256)

    def test_split_reserves_trailing_tenth(self):
        train_region, eval_region = Corpus(np.arange(100), 256).split()
        assert train_region.size == 90 and eval_region.size == 10
        assert eval_region[0] == 90  # held-out split is the tail

    def test_split_keeps_at_least_one_eval_token(self):
        _, eval_region = Corpus(np.arange(5), 256).split()
        assert eval_region.size == 1

    def test_synthetic_corpus_deterministic_and_periodic(self):
        a = make_synthetic_corpus(256, length=500, seed=9, period=97)
        b = make_synthetic_corpus(256, length=500, seed=9, period=97)
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.tokens[:97], a.tokens[97:194])
        assert len(a) == 500

    def test_synthetic_corpus_period_validation(self):
        with pytest.raises(ConfigError):
            make_synthetic_corpus(256, length=10, seed=0, period=11)


class TestDeterminism:
    def test_same_seed_bit_identical_metrics_and_weights(self):
        cfg = quick_cfg(steps=15)
        r1 = train(micro_model(0), CORPUS, cfg)
        r2 = train(micro_model(0), CORPUS, cfg)
        assert metrics_csv(r1.metrics) == metrics_csv(r2.metrics)
        for name, arr in r1.checkpoint.tensors.items():
            assert arr.tobytes() == r2.checkpoint.tensors[name].tobytes()

    def test_different_seed_diverges(self):
        r1 = train(micro_model(0), CORPUS, quick_cfg(steps=8, seed=3))
        r2 = train(micro_model(0), CORPUS, quick_cfg(steps=8, seed=4))
        assert metrics_csv(r1.metrics) != metrics_csv(r2.metrics)

    def test_loss_decreases(self):
        result = train(micro_model(0), CORPUS, quick_cfg(steps=40, eval_every=5))
        evals = result.eval_rows()
        assert evals[-1].total_loss < evals[0].total_loss

    def test_metrics_header_and_eval_cadence(self):
        result = train(micro_model(0), CORPUS, quick_cfg(steps=25, eval_every=10))
        csv = metrics_csv(result.metrics)
        assert csv.splitlines()[0] == METRICS_HEADER
        assert METRICS_HEADER == "step,split,lm_loss,lb_loss,z_loss,total_loss,lr_base,lr_mem,lr_bank,grad_norm"
        assert [r.step for r in result.eval_rows()] == [10, 20, 25]
        assert len([r for r in result.metrics if r.split == "train"]) == 25
        assert result.checkpoint.step == 25

    def test_one_norm_per_step_and_no_duplicate_final_snapshot(self, monkeypatch):
        train_module = importlib.import_module("chapterbank.train")  # the package's `train` is the function
        calls = {"norm": 0, "snapshot": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(train_module, "global_grad_norm", counted("norm", train_module.global_grad_norm))
        monkeypatch.setattr(train_module, "checkpoint_from", counted("snapshot", train_module.checkpoint_from))
        result = train(micro_model(0), CORPUS, quick_cfg(steps=25, eval_every=10))
        assert calls == {"norm": 25, "snapshot": 4}  # start, then steps 10, 20 and 25
        assert result.checkpoint.step == 25
        for name, p in result.model.params.items():
            assert result.checkpoint.tensors[name].tobytes() == p.data.tobytes()
        for name, buf in result.optimizer.state.items():
            assert result.checkpoint.moments[name][0].tobytes() == buf["m"].tobytes()

    def test_zero_step_run(self):
        result = train(micro_model(0), CORPUS, quick_cfg(steps=0))
        assert result.metrics == []
        assert result.checkpoint.step == 0

    def test_eval_batches_reproduce_the_last_eval_row(self):
        result = train(micro_model(0), CORPUS, quick_cfg(steps=5, eval_every=3))
        last = result.eval_rows()[-1]
        assert len(result.eval_batches) == 4
        assert _eval_losses(result.model, result.eval_batches) == (last.lm_loss, last.lb_loss, last.z_loss, last.total_loss)


class TestGradAccum:
    def test_one_step_averages_two_micro_batches(self):
        # by hand: each micro-batch's forward and backward at scale 1/2
        cfg = quick_cfg(steps=1, grad_accum=2, schedule=cosine(0))
        row = train(micro_model(4), CORPUS, cfg).metrics[0]
        model, rng = micro_model(4), RngState(cfg.seed)
        lm = 0.0
        for micro in range(2):
            batch = sample_batch(CORPUS.split()[0], rng.substream("batch", 0, micro), cfg.batch_size, cfg.seq_len)
            with Tape() as tape:
                trace = model.forward(batch, batch)
                tape.backward(ops.scale(trace.loss, 0.5))
            lm += trace.lm_loss
        norm = math.sqrt(sum(float((p.dense_grad()**2).sum()) for p in model.parameters()))
        assert (row.step, row.split) == (1, "train")
        assert row.lm_loss == lm / 2
        assert row.grad_norm == pytest.approx(norm, rel=1e-12)
        single = train(micro_model(4), CORPUS, replace(cfg, grad_accum=1)).metrics[0]
        assert abs(single.grad_norm - row.grad_norm) > 1e-6 * row.grad_norm  # the second batch counts


class TestResume:
    def test_resume_is_bit_identical_to_uninterrupted_run(self):
        cfg = quick_cfg(steps=24, eval_every=6)
        full = train(micro_model(1), CORPUS, cfg)

        # an interrupted run keeps the full run's schedule horizon
        half_cfg = replace(cfg, steps=12, schedule=cfg.schedule.with_total_steps(24))
        half = train(micro_model(1), CORPUS, half_cfg)
        rest = resume_train(half.checkpoint, CORPUS, cfg)

        for name, arr in full.checkpoint.tensors.items():
            assert arr.tobytes() == rest.checkpoint.tensors[name].tobytes(), name
        for name, (m, v) in full.checkpoint.moments.items():
            m2, v2 = rest.checkpoint.moments[name]
            assert m.tobytes() == m2.tobytes() and v.tobytes() == v2.tobytes()
        tail = [r.to_csv_line() for r in full.metrics if r.step > 12]
        assert [r.to_csv_line() for r in rest.metrics] == tail

    @pytest.mark.parametrize("v_shape", [(5,), (1,)])
    def test_resume_rejects_a_v_moment_of_another_shape(self, v_shape):
        # (1,) would broadcast silently into the segment if it were not checked
        half = train(micro_model(1), CORPUS, quick_cfg(steps=4))
        m, _ = half.checkpoint.moments["final_norm.gain"]
        half.checkpoint.moments["final_norm.gain"] = (m, np.zeros(v_shape))
        with pytest.raises(ConfigError, match="moment v shape"):
            resume_train(half.checkpoint, CORPUS, quick_cfg(steps=8))

    def test_resume_from_a_step_0_snapshot_is_bit_identical(self, tmp_path):
        # as train() snapshots a fresh optimizer: its moments are read-only zero views
        cfg = quick_cfg(steps=12, eval_every=6)
        full = train(micro_model(1), CORPUS, cfg)
        model = micro_model(1)
        start = checkpoint_from(model, step=0, seed=cfg.seed, optimizer=AdamW(model.params))
        assert not any(m.flags.writeable or v.flags.writeable for m, v in start.moments.values())
        save_checkpoint(start, tmp_path / "start.ckpt")
        for ckpt in (start, load_checkpoint(tmp_path / "start.ckpt")):
            rest = resume_train(ckpt, CORPUS, cfg)
            assert metrics_csv(rest.metrics) == metrics_csv(full.metrics)
            for name, arr in full.checkpoint.tensors.items():
                assert arr.tobytes() == rest.checkpoint.tensors[name].tobytes(), name

    def test_resume_rejects_moments_of_another_precision(self, tmp_path):
        # float64 moments saved next to float32 weights would be rounded on load
        half = train(build_model(preset("micro"), RngState(1)), CORPUS, quick_cfg(steps=4))
        moments = {name: (m.astype(np.float64), v.astype(np.float64)) for name, (m, v) in half.checkpoint.moments.items()}
        save_checkpoint(replace(half.checkpoint, moments=moments), tmp_path / "mixed.ckpt")
        first = min(moments)  # the file lists moments by name
        with pytest.raises(ConfigError, match=rf"moment m dtype float64 does not match parameter '{first}' \(float32\)"):
            resume_train(load_checkpoint(tmp_path / "mixed.ckpt"), CORPUS, quick_cfg(steps=8))

    def test_resume_requires_same_seed(self):
        half = train(micro_model(1), CORPUS, quick_cfg(steps=4))
        with pytest.raises(ConfigError):
            resume_train(half.checkpoint, CORPUS, quick_cfg(steps=8, seed=99))

    def test_resume_rejects_checkpoint_beyond_steps(self):
        done = train(micro_model(1), CORPUS, quick_cfg(steps=6))
        with pytest.raises(ConfigError):
            resume_train(done.checkpoint, CORPUS, quick_cfg(steps=4))


class TestBankFreezing:
    def test_frozen_bank_is_bit_identical_and_stateless(self):
        model = micro_model(2)
        before = model["bank.tokens"].data.tobytes()
        result = train(model, CORPUS, quick_cfg(steps=10, bank_mode="frozen"))
        assert model["bank.tokens"].data.tobytes() == before
        assert "bank.tokens" not in result.optimizer.state

    def test_optimizer_state_shrinks_by_two_elements_per_bank_element(self):
        cfg_model = preset("micro")
        frozen = train(micro_model(2), CORPUS, quick_cfg(steps=3, bank_mode="frozen"))
        equal = train(micro_model(2), CORPUS, quick_cfg(steps=3, bank_mode="equal_lr"))
        diff = equal.optimizer.state_element_count() - frozen.optimizer.state_element_count()
        assert diff == 2 * cfg_model.bank_tokens * cfg_model.d_model

    def test_unfrozen_bank_moves(self):
        model = micro_model(2)
        before = model["bank.tokens"].data.copy()
        train(model, CORPUS, quick_cfg(steps=10, bank_mode="equal_lr"))
        assert np.abs(model["bank.tokens"].data - before).max() > 0


    def test_frozen_bank_holds_no_grad_and_is_never_scattered_into(self, monkeypatch):
        model = micro_model(2)
        bank, emb = model["bank.tokens"], model["embedding.weight"]
        before = bank.data.tobytes()
        scattered = []
        scatter = Tensor.add_rows

        def recorded(x, ids, g):
            scattered.append(x)
            scatter(x, ids, g)

        monkeypatch.setattr(Tensor, "add_rows", recorded)
        frozen = AdamW(model.params, frozen_groups={"memory_bank"})
        assert not bank.requires_grad and bank.grad is None
        train(model, CORPUS, quick_cfg(steps=3, bank_mode="frozen"), optimizer=frozen)
        assert scattered and all(x is emb for x in scattered)
        assert bank.grad is None and bank.data.tobytes() == before

        # a later unfrozen optimizer over the same parameters adopts the bank again
        scattered.clear()
        unfrozen = AdamW(model.params)
        assert bank.requires_grad and "bank.tokens" in unfrozen.state
        assert bank.grad is None and np.shares_memory(bank.data, next(s.data for s in unfrozen.segments if "bank.tokens" in s.names))
        train(model, CORPUS, quick_cfg(steps=3), optimizer=unfrozen)
        assert any(x is bank for x in scattered)
        assert bank.data.tobytes() != before

    @staticmethod
    def mismatch(have: tuple, want: tuple) -> str:
        return f"optimizer (frozen groups, betas, weight_decay) {have} differs from the config's {want}"

    @pytest.mark.parametrize("opt_frozen,bank_mode", [((), "frozen"), ({"memory_bank"}, "equal_lr")])
    def test_a_passed_optimizer_must_freeze_what_the_config_freezes(self, opt_frozen, bank_mode):
        model = micro_model(2)
        optimizer = AdamW(model.params, frozen_groups=opt_frozen)
        cfg = quick_cfg(steps=3, bank_mode=bank_mode)
        with pytest.raises(ConfigError) as e:
            train(model, CORPUS, cfg, optimizer=optimizer)
        settings = (cfg.betas, cfg.weight_decay)
        assert str(e.value) == self.mismatch((sorted(opt_frozen), *settings), (sorted(cfg.frozen_groups), *settings))

    @pytest.mark.parametrize("name, value", [("weight_decay", 0.0), ("betas", (0.8, 0.95))])
    def test_a_passed_optimizer_must_match_the_update_settings(self, name, value):
        model = micro_model(2)
        opt_cfg = AdamWConfig(**{name: value})
        optimizer = AdamW(model.params, opt_cfg)
        cfg = quick_cfg(steps=3)
        with pytest.raises(ConfigError) as e:
            train(model, CORPUS, cfg, optimizer=optimizer)
        have, want = ([], opt_cfg.betas, opt_cfg.weight_decay), ([], cfg.betas, cfg.weight_decay)
        assert have != want and str(e.value) == self.mismatch(have, want)


class TestGroupLrAudit:
    def test_every_update_uses_scheduled_group_lr(self, applied_lrs):
        cfg = quick_cfg(steps=7, bank_mode="low_lr", lr_memory_layers=4e-4, schedule=cosine(3))
        result = train(micro_model(3), CORPUS, cfg)
        sched = cfg.schedule.with_total_steps(cfg.steps)
        base_lrs = cfg.group_lrs()
        audit = applied_lrs
        groups = {p.group for _, p in result.optimizer.trainable()}
        assert groups == {"base", "memory_layers", "memory_bank"}
        assert len(audit) == cfg.steps
        for step, lrs in enumerate(audit):
            assert set(lrs) == groups, step
            for group, lr in lrs.items():
                assert lr == lr_at_step(sched, step, base_lrs[group]), (group, step)

    def test_metrics_rows_echo_group_lrs(self):
        cfg = quick_cfg(steps=4, bank_mode="frozen", schedule=cosine(2))
        result = train(micro_model(3), CORPUS, cfg)
        sched = cfg.schedule.with_total_steps(4)
        for row in result.metrics:
            if row.split == "train":
                assert row.lr_base == lr_at_step(sched, row.step - 1, cfg.lr_base)
                assert row.lr_bank == 0.0


class TestAbortAndValidation:
    def test_nan_loss_aborts_with_last_checkpoint(self):
        model = micro_model(4)
        model["embedding.weight"].data[0, 0] = np.nan
        with pytest.raises(TrainingAborted) as err, np.errstate(invalid="ignore"):
            train(model, CORPUS, quick_cfg(steps=5))
        assert err.value.step == 0
        assert err.value.last_checkpoint is not None
        assert err.value.last_checkpoint.step == 0

    def test_abort_checkpoint_tracks_last_eval(self):
        # poison the weights *after* a known number of clean steps by
        # training in two stages through the same model object
        model = micro_model(4)
        cfg = quick_cfg(steps=10, eval_every=5)
        train(model, CORPUS, replace(cfg, steps=5))
        model["embedding.weight"].data[0, 0] = np.inf
        with pytest.raises(TrainingAborted) as err, np.errstate(invalid="ignore"):
            train(model, CORPUS, cfg, start_step=5)
        assert err.value.step == 5
        assert err.value.last_checkpoint.step == 5

    def test_numeric_failure_at_an_eval_point_aborts_with_last_checkpoint(self):
        # the second step trains, then its eval row overflows; the eval point
        # used to raise a bare NumericError, with no checkpoint
        cfg = TrainConfig(steps=4, batch_size=4, seq_len=16, lr_base=1e30, schedule=cosine(2), eval_every=1)
        with pytest.raises(TrainingAborted) as err, np.errstate(all="ignore"):
            train(build_model(preset("micro"), RngState(0)), make_synthetic_corpus(256), cfg)
        assert err.value.step == 1 and err.value.last_checkpoint.step == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_names_its_parameter(self, bad):
        # a NaN norm used to reach the clip, which spread it to every grad
        model = micro_model(4)
        zero_grads = model.zero_grads

        def poisoned():  # a grad handed over before the backward adds into it
            zero_grads()
            bias = model["layers.3.router.bias"]
            bias.grad = np.zeros_like(bias.data)
            bias.grad[0] = bad

        model.zero_grads = poisoned
        with pytest.raises(TrainingAborted) as err:
            train(model, CORPUS, quick_cfg(steps=1, schedule=cosine(0)))
        assert err.value.step == 0 and err.value.last_checkpoint.step == 0
        assert str(err.value) == "non-finite gradient in layers.3.router.bias; step aborted"

    @pytest.mark.parametrize("start_step", [-1, 5])
    def test_start_step_outside_the_run_is_rejected(self, start_step):
        with pytest.raises(ConfigError, match=rf"^start_step {start_step} outside \[0, steps=4\]$"):
            train(micro_model(0), CORPUS, quick_cfg(steps=4), start_step=start_step)

    def test_only_a_start_snapshot_of_zero_moments_shares_them(self):
        # a fresh run's start snapshot holds views of its zero moments; an eval point's, or a resume's start, copies
        cfg = quick_cfg(steps=4, eval_every=2)
        fresh = train(micro_model(1), CORPUS, cfg, start_step=4)
        assert not any(m.flags.writeable or v.flags.writeable or m.any() or v.any()
                       for m, v in fresh.checkpoint.moments.values())
        full = train(micro_model(1), CORPUS, cfg)
        resumed = resume_train(full.checkpoint, CORPUS, cfg)
        assert resumed.checkpoint.step == 4 and resumed.metrics == []
        for result in (full, resumed):
            for name, (m, v) in result.checkpoint.moments.items():
                assert m.flags.writeable and v.flags.writeable, name
                assert not np.shares_memory(m, result.optimizer.state[name]["m"]), name

    def test_one_snapshot_is_live_at_a_time(self, monkeypatch):
        # each eval point drops the last snapshot before it copies the next
        train_module = importlib.import_module("chapterbank.train")
        real, taken, live = train_module.checkpoint_from, [], []

        def counting(*args, **kwargs):
            live.append(sum(ref() is not None for ref in taken))
            ckpt = real(*args, **kwargs)
            taken.append(weakref.ref(ckpt))
            return ckpt

        monkeypatch.setattr(train_module, "checkpoint_from", counting)
        result = train(micro_model(1), CORPUS, quick_cfg(steps=12, eval_every=4))
        assert live == [0, 0, 0, 0]
        assert [ref() for ref in taken] == [None, None, None, result.checkpoint]

    def test_start_step_at_steps_returns_the_start_state(self):
        model = micro_model(0)
        result = train(model, CORPUS, quick_cfg(steps=4), start_step=4)
        assert result.metrics == [] and result.checkpoint.step == 4
        for name, p in model.params.items():
            assert result.checkpoint.tensors[name].tobytes() == p.data.tobytes()

    def test_corpus_too_short(self):
        with pytest.raises(ConfigError, match="corpus length"):
            train(micro_model(0), Corpus(np.zeros(64, dtype=np.int64), 256), quick_cfg())

    def test_seq_len_beyond_model_max(self):
        with pytest.raises(ConfigError, match="max_seq_len"):
            train(micro_model(0), CORPUS, quick_cfg(seq_len=65))

    def test_corpus_vocab_beyond_model(self):
        with pytest.raises(ConfigError, match="vocab"):
            train(micro_model(0), make_synthetic_corpus(512, 4096, 0), quick_cfg())


class TestContinueTrain:
    def test_longer_context_second_phase(self):
        first = train(micro_model(5), CORPUS, quick_cfg(steps=6))
        cfg2 = quick_cfg(steps=6, seq_len=128, batch_size=2, seed=11)
        second = continue_train(first.checkpoint, CORPUS, cfg2)
        assert second.model.config.max_seq_len == 128
        assert second.checkpoint.step == 6
        # fresh optimizer: moments restart from zero, not the phase-1 state
        assert second.optimizer.state["embedding.weight"]["m"].shape == (256, 64)

    def test_doubling_seq_len_scales_attention_superlinearly_memory_linearly(self):
        cfg = preset("micro")
        short = flops_model(cfg, 1, 64)
        long = flops_model(cfg, 1, 128)
        assert long.standard_layer.self_attention.matmuls == 4 * short.standard_layer.self_attention.matmuls
        assert long.memory_extra.mem_attention.matmuls == 2 * short.memory_extra.mem_attention.matmuls
        ratio = long.memory_extra.total / short.memory_extra.total
        assert ratio < 2.2  # memory-layer extra stays ~linear in L

    def test_expected_config_mismatch_is_structured(self):
        first = train(micro_model(5), CORPUS, quick_cfg(steps=4))
        wrong = replace(preset("micro"), chapters=16, bank_tokens=128)
        with pytest.raises(CheckpointMismatch) as err:
            continue_train(first.checkpoint, CORPUS, quick_cfg(steps=4), expected_config=wrong)
        assert set(err.value.diff) == {"chapters", "bank_tokens"}

    def test_matching_expected_config_passes(self):
        first = train(micro_model(5), CORPUS, quick_cfg(steps=4))
        result = continue_train(first.checkpoint, CORPUS, quick_cfg(steps=4), expected_config=preset("micro"))
        assert result.checkpoint.step == 4

    @pytest.mark.parametrize("bank_mode", ["equal_lr", "frozen"])
    def test_the_checkpoint_moments_are_never_read(self, bank_mode):
        # the retention protocol and `chapterbank continue` drop them before continuing
        first = train(micro_model(5), CORPUS, quick_cfg(steps=4))
        assert first.checkpoint.moments and all(m.any() for m, _ in first.checkpoint.moments.values())
        cfg = quick_cfg(steps=6, seq_len=48, seed=11, bank_mode=bank_mode)
        full = continue_train(first.checkpoint, CORPUS, cfg)
        bare = continue_train(replace(first.checkpoint, moments={}), CORPUS, cfg)
        assert metrics_csv(bare.metrics) == metrics_csv(full.metrics)
        for name, arr in full.checkpoint.tensors.items():
            assert bare.checkpoint.tensors[name].tobytes() == arr.tobytes(), name


class TestGradLifetime:
    @pytest.mark.parametrize("bank_mode", ["equal_lr", "frozen"])
    def test_no_grad_is_held_before_a_backward_or_after_the_run(self, monkeypatch, bank_mode):
        model = micro_model(3)
        held = []
        backward = Tape.backward

        def checked(tape, loss):
            held.append([name for name, p in model.params.items() if p.grad is not None])
            backward(tape, loss)

        monkeypatch.setattr(Tape, "backward", checked)
        cfg = quick_cfg(steps=6, eval_every=2, bank_mode=bank_mode)
        train(model, CORPUS, cfg)
        assert held == [[]] * cfg.steps
        assert all(p.grad is None for p in model.params.values())


class TestNoDeadOps:
    def test_one_micro_train_step_calls_every_public_op(self, monkeypatch):
        public = [name for name, fn in vars(ops).items()
                  if inspect.isfunction(fn) and fn.__module__ == ops.__name__ and not name.startswith("_")]
        calls = dict.fromkeys(public, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in public:
            monkeypatch.setattr(ops, name, counted(name, getattr(ops, name)))
        model = build_model(replace(preset("micro"), adapter_enabled=True), RngState(0), precision="double")
        train(model, CORPUS, quick_cfg(steps=1, schedule=cosine(0)))
        assert len(public) > 10
        assert [name for name, n in calls.items() if n == 0] == []


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# 20 micro steps at (8, 32) in a fresh process; prints the minor page
# faults of each step, counted between the ends of consecutive AdamW steps.
STEP_FAULTS = textwrap.dedent("""
    import json, resource
    from chapterbank.config import preset
    from chapterbank.model import build_model
    from chapterbank.optim import AdamW
    from chapterbank.tensor import RngState
    from chapterbank.train import TrainConfig, make_synthetic_corpus, train

    marks, step = [], AdamW.step

    def counted(self, group_lrs, t):
        step(self, group_lrs, t)
        marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    AdamW.step = counted
    model = build_model(preset("micro"), RngState(0))
    train(model, make_synthetic_corpus(vocab=256, length=8192, seed=1),
          TrainConfig(steps=20, batch_size=8, seq_len=32, eval_every=100))
    print(json.dumps([b - a for a, b in zip(marks, marks[1:])]))
""")


@pytest.mark.skipif(not _glibc(), reason="the allocator policy is set on glibc only")
def test_steady_state_steps_fault_no_step_memory_back_in():
    """Freed step memory stays in the process (``tensor._keep_freed_memory``),
    so a steady-state step reuses it instead of faulting it back in.

    The bound is on the sum over steps 6 to 20, not on one step: while the
    heap settles, a new 64 KB placement can touch 16 or 17 fresh pages in
    one step, and where that happens moves with the code size and the
    environment. Across working directories, environment sizes and
    PYTEST_CURRENT_TEST set or not, the sum read 3 to 40 with the policy
    and 4210 to 22727 without it."""
    env = {**os.environ, "PYTHONPATH": str(Path(chapterbank.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", STEP_FAULTS], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.splitlines()[-1])  # faults[i] is step i + 2
    assert len(faults) == 19 and sum(faults[4:]) <= 15 * 16, faults
