"""Forgetting harness: corpus generators, recall measurement, report
schema, and the zero-update identity of the two-phase protocol."""

import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from chapterbank import retention
from chapterbank.config import ModelConfig, preset
from chapterbank.errors import ConfigError, TrainingAborted
from chapterbank.model import build_model
from chapterbank.retention import (
    FACT_MARKERS,
    INSTR_MARKERS,
    VARIANTS,
    FactSpec,
    InstructionSpec,
    RetentionConfig,
    RetentionReport,
    VariantResult,
    _check_disjoint,
    eval_fact_recall,
    gen_fact_corpus,
    gen_instruction_corpus,
    greedy_decode,
    run_multi_seed,
    run_retention_protocol,
    variant_model_configs,
)
from chapterbank.schedule import cosine
from chapterbank.tensor import RngState
from chapterbank.train import TrainConfig, train

VOCAB = 256


def parse_facts(tokens: np.ndarray) -> list[tuple[tuple, tuple]]:
    """Recover (key, value) pairs from a rendered fact stream: an oracle
    written independently of the renderer."""
    open_, sep, close = FACT_MARKERS
    out = []
    i = 0
    toks = np.asarray(tokens)
    while i < toks.size:
        assert toks[i] == open_, f"expected fact-open marker at position {i}, got {toks[i]}"
        j = i + 1
        while toks[j] != sep:
            j += 1
        k = j + 1
        while toks[k] != close:
            k += 1
        out.append((tuple(int(t) for t in toks[i + 1 : j]), tuple(int(t) for t in toks[j + 1 : k])))
        i = k + 1
    return out


# every (variant, metric) row that RetentionReport.rows() writes, all values 0
ROWS = "".join(f"{v},{m},0.0,0.0,0.0\n" for v in VARIANTS
               for m in ("fact_recall", "task_accuracy", "fact_eval_loss", "failed"))


def tiny_train_cfg(steps, seq_len=16, **over):
    base = dict(steps=steps, batch_size=4, seq_len=seq_len, lr_base=1e-3, schedule=cosine(2), eval_every=50)
    base.update(over)
    return TrainConfig(**base)


class TestFactCorpus:
    def test_token_ranges_and_markers(self):
        spec = FactSpec()
        corpus, _ = gen_fact_corpus(spec, VOCAB)
        toks = set(np.unique(corpus.tokens).tolist())
        allowed = set(FACT_MARKERS)
        allowed |= set(range(spec.key_base, spec.key_base + spec.key_alphabet))
        allowed |= set(range(spec.value_base, spec.value_base + spec.value_alphabet))
        assert toks <= allowed
        assert set(FACT_MARKERS) <= toks

    def test_length_and_rendering_shape(self):
        spec = FactSpec(n_facts=5, repeats=7)
        corpus, probes = gen_fact_corpus(spec, VOCAB)
        per_fact = spec.key_len + spec.value_len + 3
        assert len(corpus) == 5 * 7 * per_fact
        assert len(probes) == 5
        assert all(p.prompt.size == spec.key_len + 2 for p in probes)
        assert all(p.expected.size == spec.value_len for p in probes)

    def test_parse_facts_inverts_rendering(self):
        spec = FactSpec(n_facts=9, repeats=11)
        corpus, probes = gen_fact_corpus(spec, VOCAB)
        pairs = parse_facts(corpus.tokens)
        assert len(pairs) == 9 * 11
        distinct = set(pairs)
        assert len(distinct) == 9  # unique keys, one value each
        from_probes = {
            (tuple(int(t) for t in p.prompt[1:-1]), tuple(int(t) for t in p.expected)) for p in probes
        }
        assert distinct == from_probes
        counts = {pair: pairs.count(pair) for pair in distinct}
        assert set(counts.values()) == {11}

    def test_deterministic_by_seed(self):
        a, _ = gen_fact_corpus(FactSpec(seed=3), VOCAB)
        b, _ = gen_fact_corpus(FactSpec(seed=3), VOCAB)
        c, _ = gen_fact_corpus(FactSpec(seed=4), VOCAB)
        np.testing.assert_array_equal(a.tokens, b.tokens)
        assert not np.array_equal(a.tokens, c.tokens)

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(n_facts=200, key_alphabet=2, key_len=2), "unique keys"),
            (dict(key_base=90, key_alphabet=10), "overlaps"),
            (dict(value_base=250, value_alphabet=12), "vocab"),
            (dict(key_len=0), ">= 1"),
            (dict(value_alphabet=1), ">= 2"),
            (dict(key_base=0, value_base=2), "key_base 0 must exceed the marker ids"),
            (dict(key_base=6), "key_base 6 must exceed the marker ids"),
        ],
    )
    def test_spec_validation(self, kwargs, msg):
        with pytest.raises(ConfigError, match=msg):
            gen_fact_corpus(FactSpec(**kwargs), VOCAB)

    def test_key_symbols_may_start_just_past_the_markers(self):
        corpus, _ = gen_fact_corpus(FactSpec(key_base=max(INSTR_MARKERS) + 1), VOCAB)
        assert set(corpus.tokens.tolist()).isdisjoint(INSTR_MARKERS)

    def test_spec_round_trip(self):
        spec = FactSpec(n_facts=7, seed=5)
        assert FactSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ConfigError):
            FactSpec.from_dict({"n_facts": 3, "alphabet": 9})


class TestInstructionCorpus:
    def test_reverse_transform(self):
        spec = InstructionSpec(transform="reverse")
        src = np.array([181, 185, 180, 199])
        np.testing.assert_array_equal(spec.apply(src), [199, 180, 185, 181])

    def test_shift_transform_wraps(self):
        spec = InstructionSpec(transform="shift", alphabet=20, symbol_base=180)
        src = np.array([180, 199])
        np.testing.assert_array_equal(spec.apply(src), [181, 180])

    def test_token_ranges_disjoint_from_facts(self):
        fact_corpus, _ = gen_fact_corpus(FactSpec(), VOCAB)
        instr_corpus, probes = gen_instruction_corpus(InstructionSpec(), VOCAB)
        _check_disjoint(fact_corpus, instr_corpus)
        toks = set(np.unique(instr_corpus.tokens).tolist())
        assert set(INSTR_MARKERS) <= toks
        assert all(t in set(INSTR_MARKERS) or 180 <= t < 200 for t in toks)
        assert len(probes) <= 64

    def test_overlap_detected(self):
        fact_corpus, _ = gen_fact_corpus(FactSpec(), VOCAB)
        clash, _ = gen_instruction_corpus(InstructionSpec(symbol_base=96), VOCAB)
        with pytest.raises(ConfigError, match="share tokens"):
            _check_disjoint(fact_corpus, clash)

    def test_validation(self):
        with pytest.raises(ConfigError, match="transform"):
            InstructionSpec(transform="rotate")
        with pytest.raises(ConfigError, match="vocab"):
            gen_instruction_corpus(InstructionSpec(symbol_base=250), VOCAB)
        with pytest.raises(ConfigError, match="symbol_base 4 must exceed the marker ids"):
            InstructionSpec(symbol_base=min(INSTR_MARKERS))

    def test_round_trip(self):
        spec = InstructionSpec(n_examples=3, transform="shift")
        assert InstructionSpec.from_dict(spec.to_dict()) == spec


class TestRecallMeasurement:
    def test_untrained_model_recalls_nothing(self):
        _, probes = gen_fact_corpus(FactSpec(), VOCAB)
        model = build_model(preset("micro"), RngState(0))
        assert eval_fact_recall(model, probes) <= 0.2

    def test_single_fact_is_learnable_to_perfect_recall(self):
        spec = FactSpec(n_facts=1, repeats=300)
        corpus, probes = gen_fact_corpus(spec, VOCAB)
        model = build_model(preset("micro"), RngState(1))
        train(model, corpus, tiny_train_cfg(steps=60))
        assert eval_fact_recall(model, probes) == 1.0

    def test_probe_order_invariance(self):
        _, probes = gen_fact_corpus(FactSpec(), VOCAB)
        model = build_model(preset("micro"), RngState(2))
        forward = eval_fact_recall(model, probes)
        assert eval_fact_recall(model, probes[::-1]) == forward

    def test_ragged_probes_rejected(self):
        _, probes = gen_fact_corpus(FactSpec(), VOCAB)
        bad = probes[:3] + [replace_probe_prompt(probes[3])]
        model = build_model(preset("micro"), RngState(0))
        with pytest.raises(ConfigError, match="lengths"):
            eval_fact_recall(model, bad)

    def test_empty_probes_rejected(self):
        with pytest.raises(ConfigError):
            eval_fact_recall(build_model(preset("micro"), RngState(0)), [])

    def test_greedy_decode_shape_and_determinism(self):
        model = build_model(preset("micro"), RngState(3))
        prompts = np.array([[1, 10, 11, 2], [1, 12, 13, 2]])
        out1 = greedy_decode(model, prompts, 3)
        out2 = greedy_decode(model, prompts, 3)
        assert out1.shape == (2, 3)
        np.testing.assert_array_equal(out1, out2)


def replace_probe_prompt(probe):
    from chapterbank.retention import Probe

    return Probe(np.concatenate([probe.prompt, [2]]), probe.expected)


class TestVariants:
    def test_three_variants_from_memory_base(self):
        cfgs = variant_model_configs(preset("micro"))
        assert set(cfgs) == set(VARIANTS)
        assert not cfgs["vanilla-like"].has_memory
        assert cfgs["moc"] == preset("micro")
        assert cfgs["moc-frozen-bank"] == preset("micro")
        assert all(ModelConfig.from_dict(c.to_dict()) == c for c in cfgs.values())  # serializable as built

    def test_memoryless_base_rejected(self):
        with pytest.raises(ConfigError):
            variant_model_configs(preset("vanilla-backbone"))


class TestReportSchema:
    def _finished_report(self):
        report = RetentionReport(seed=0)
        for i, name in enumerate(VARIANTS):
            report.variants[name] = VariantResult(
                name,
                fact_recall_a=1.0,
                fact_recall_b=0.25 * i,
                task_acc_a=0.0,
                task_acc_b=1.0,
                fact_loss_a=0.5,
                fact_loss_b=2.0 + i,
            )
        return report

    def test_rows_cover_all_variant_metric_pairs(self):
        rows = self._finished_report().rows()
        assert len(rows) == len(VARIANTS) * 4
        assert {(v, m) for v, m, *_ in rows} == {
            (v, m) for v in VARIANTS for m in ("fact_recall", "task_accuracy", "fact_eval_loss", "failed")
        }

    def test_deltas_recompute(self):
        for v, metric, a, b, delta in self._finished_report().rows():
            assert delta == b - a or metric == "failed"

    def test_csv_round_trip(self):
        report = self._finished_report()
        back = RetentionReport.from_csv(report.to_csv(), seed=0)
        for name in VARIANTS:
            orig, parsed = report.variants[name], back.variants[name]
            assert parsed.fact_recall_a == orig.fact_recall_a
            assert parsed.fact_recall_b == orig.fact_recall_b
            assert parsed.fact_loss_b == orig.fact_loss_b
            assert parsed.failed is False

    def test_failed_variant_encoding(self):
        report = RetentionReport(seed=0)
        for name in VARIANTS:
            report.variants[name] = VariantResult(name, failed=(name == "moc"))
        rows = {(v, m): (a, b, d) for v, m, a, b, d in report.rows()}
        assert rows[("moc", "failed")] == (0.0, 1.0, 1.0)
        assert rows[("vanilla-like", "failed")] == (0.0, 0.0, 0.0)
        assert "FAILED" in report.summary()
        back = RetentionReport.from_csv(report.to_csv())
        assert back.variants["moc"].failed is True
        assert math.isnan(back.variants["moc"].fact_recall_a)

    def test_bad_header_rejected(self):
        with pytest.raises(ConfigError, match="header"):
            RetentionReport.from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("body, message", [
        (None, "bad retention CSV header: ''"),
        ("moc,fact_recall,0.5", "bad retention CSV line 'moc,fact_recall,0.5'"),
        ("moc,fact_recall,0.5,x,0", "bad retention CSV line 'moc,fact_recall,0.5,x,0'"),
        ("moc,fact_recall,0.5,0.5,0,0", "bad retention CSV line 'moc,fact_recall,0.5,0.5,0,0'"),
        ("moc,fact_recall,0.5,0.5,banana", "bad retention CSV line 'moc,fact_recall,0.5,0.5,banana'"),
        ("", "retention CSV lacks the row (vanilla-like, fact_recall)"),
        (ROWS.replace("moc,task_accuracy,0.0,0.0,0.0\n", ""), "retention CSV lacks the row (moc, task_accuracy)"),
        (ROWS + "moc,fact_recall,0.0,0.0,0.0\n", "retention CSV repeats the row (moc, fact_recall)"),
        ("vanilla,fact_recall,0.0,0.0,0.0\n" + ROWS, "unknown retention variant 'vanilla'"),
    ], ids=["empty", "three fields", "not a number", "six fields", "delta not a number",
            "header only", "missing row", "repeated row", "unknown variant"])
    def test_malformed_csv_names_the_line(self, body, message):
        text = "" if body is None else "variant,metric,phaseA,phaseB,delta\n" + body + "\n"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            RetentionReport.from_csv(text)

    def test_config_round_trip(self):
        cfg = RetentionConfig(
            fact=FactSpec(n_facts=4),
            instruction=InstructionSpec(repeats=5),
            phase_a=tiny_train_cfg(10),
            phase_b=tiny_train_cfg(5, seq_len=32),
            seed=7,
        )
        assert RetentionConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ConfigError):
            RetentionConfig.from_dict({"seed": 1, "phases": {}})


class TestProtocol:
    def test_zero_step_phase_b_changes_nothing(self):
        cfg = RetentionConfig(
            phase_a=tiny_train_cfg(40, seq_len=16),
            phase_b=tiny_train_cfg(0, seq_len=32),
            seed=5,
        )
        report = run_retention_protocol(cfg)
        for name in VARIANTS:
            r = report.variants[name]
            assert not r.failed
            assert r.recall_delta == 0.0
            assert r.task_delta == 0.0
            assert r.loss_delta == 0.0
        assert report.variants["vanilla-like"].bank_unchanged_in_b is None
        assert report.variants["moc"].bank_unchanged_in_b is True
        assert report.variants["moc-frozen-bank"].bank_unchanged_in_b is True

    def test_multi_seed_mean(self):
        cfg = RetentionConfig(
            phase_a=tiny_train_cfg(6, seq_len=16),
            phase_b=tiny_train_cfg(4, seq_len=32),
        )
        reports, mean = run_multi_seed(cfg, seeds=[1, 2])
        assert [r.seed for r in reports] == [1, 2]
        assert mean.seed == -1
        for name in VARIANTS:
            vals = [r.variants[name].fact_loss_b for r in reports]
            assert abs(mean.variants[name].fact_loss_b - float(np.mean(vals))) < 1e-12

    SMALL = RetentionConfig(phase_a=tiny_train_cfg(6, seq_len=16), phase_b=tiny_train_cfg(4, seq_len=32), seed=3)

    def test_equal_configs_share_one_phase_a_run(self, monkeypatch):
        calls = {"train": 0, "continue_train": 0}
        for name in calls:
            def counted(*args, _real=getattr(retention, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(retention, name, counted)
        report = run_retention_protocol(self.SMALL)
        assert calls == {"train": 2, "continue_train": 3}
        assert not any(r.failed for r in report.variants.values())

    def test_shared_phase_a_equals_a_separate_moc_run(self):
        cfg = self.SMALL
        frozen = run_retention_protocol(cfg).variants["moc-frozen-bank"]
        micro = preset("micro")
        fact_corpus, fact_probes = gen_fact_corpus(cfg.fact, micro.vocab)
        _, instr_probes = gen_instruction_corpus(cfg.instruction, micro.vocab)
        model = build_model(micro, RngState(cfg.seed))
        res = train(model, fact_corpus, replace(cfg.phase_a, seed=cfg.seed))
        assert frozen.fact_recall_a == eval_fact_recall(model, fact_probes)
        assert frozen.task_acc_a == eval_fact_recall(model, instr_probes)
        # the last eval row is measured on the final model over the same eval batches
        assert frozen.fact_loss_a == res.eval_rows()[-1].lm_loss

    @pytest.mark.parametrize("steps_a, evals", [(6, 3), (0, 5)])
    def test_phase_a_fact_loss_is_its_last_eval_row(self, monkeypatch, steps_a, evals):
        # train() evaluates at its last step, so the protocol evaluates phase
        # A itself only when phase A runs no step; phase B's three variants
        # are always evaluated
        calls, real = [], retention._eval_losses
        monkeypatch.setattr(retention, "_eval_losses", lambda *args: calls.append(args) or real(*args))
        report = run_retention_protocol(replace(self.SMALL, phase_a=tiny_train_cfg(steps_a, seq_len=16)))
        assert len(calls) == evals
        assert not any(r.failed for r in report.variants.values())

    def test_phase_a_abort_fails_its_whole_group(self, monkeypatch):
        trained = []

        def abort_memory_models(model, corpus, cfg, **kwargs):
            trained.append(model.config.has_memory)
            if model.config.has_memory:
                raise TrainingAborted("injected abort", None, 0)
            return train(model, corpus, cfg, **kwargs)

        monkeypatch.setattr(retention, "train", abort_memory_models)
        report = run_retention_protocol(self.SMALL)
        assert trained == [False, True]
        for name in ("moc", "moc-frozen-bank"):
            r = report.variants[name]
            assert r.failed and math.isnan(r.fact_recall_a) and math.isnan(r.fact_loss_b)
        vanilla = report.variants["vanilla-like"]
        assert not vanilla.failed and math.isfinite(vanilla.fact_loss_b)

    @pytest.mark.parametrize("abort_dense", [False, True])
    def test_phase_b_holds_phase_a_weights_alone(self, monkeypatch, abort_dense):
        # every model and optimizer a phase builds, by weak reference
        built = {"train": [], "continue_train": []}
        seen = []
        real_train, real_continue = retention.train, retention.continue_train

        def alive(phase):
            return [ref() for ref in built[phase] if ref() is not None]

        def tracked_train(model, corpus, cfg, **kwargs):
            assert not alive("train") and not alive("continue_train"), "an earlier group outlives its run"
            result = real_train(model, corpus, cfg, **kwargs)
            built["train"] += [weakref.ref(model), weakref.ref(result.optimizer)]
            if abort_dense and not model.config.has_memory:  # an abort that carries a checkpoint with moments
                raise TrainingAborted("injected abort", result.checkpoint, cfg.steps)
            return result

        def tracked_continue(ckpt, corpus, cfg, *args):
            seen.append(cfg.bank_mode)
            assert not alive("train"), "a phase-A model or optimizer outlives phase A"
            assert ckpt.moments == {}, "phase B receives phase A's moments"
            assert not alive("continue_train"), "an earlier phase-B model or optimizer is alive"
            result = real_continue(ckpt, corpus, cfg, *args)
            built["continue_train"] += [weakref.ref(result.model), weakref.ref(result.optimizer)]
            return result

        monkeypatch.setattr(retention, "train", tracked_train)
        monkeypatch.setattr(retention, "continue_train", tracked_continue)
        report = run_retention_protocol(self.SMALL)
        assert len(built["train"]) == 4
        assert seen == (["equal_lr", "frozen"] if abort_dense else ["equal_lr", "equal_lr", "frozen"])
        assert report.variants["vanilla-like"].failed == abort_dense
        assert not report.variants["moc"].failed and not report.variants["moc-frozen-bank"].failed

    @pytest.mark.parametrize("eval_every", [1, 10])
    def test_phase_a_divergence_fails_every_variant(self, eval_every):
        # with eval_every 1 the divergence first shows at an eval point,
        # which once raised out of the protocol
        diverging = tiny_train_cfg(4, lr_base=1e30, eval_every=eval_every)
        with np.errstate(all="ignore"):
            report = run_retention_protocol(replace(self.SMALL, phase_a=diverging))
        assert all(r.failed for r in report.variants.values())

    def test_phase_b_abort_fails_only_its_variant(self, monkeypatch):
        real = retention.continue_train

        def abort_frozen_bank(ckpt, corpus, cfg, *args):
            if cfg.bank_mode == "frozen":
                raise TrainingAborted("injected abort", ckpt, 0)
            return real(ckpt, corpus, cfg, *args)

        monkeypatch.setattr(retention, "continue_train", abort_frozen_bank)
        report = run_retention_protocol(self.SMALL)
        moc, frozen = report.variants["moc"], report.variants["moc-frozen-bank"]
        assert not moc.failed and frozen.failed
        assert (frozen.fact_recall_a, frozen.task_acc_a, frozen.fact_loss_a) == (
            moc.fact_recall_a, moc.task_acc_a, moc.fact_loss_a)
        assert math.isnan(frozen.fact_loss_b) and math.isfinite(moc.fact_loss_b)

    def test_multi_seed_requires_seeds(self):
        with pytest.raises(ConfigError):
            run_multi_seed(RetentionConfig(), [])
