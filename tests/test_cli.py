"""End-to-end CLI checks through main(argv): artifact layout, exit
codes, parity with direct library calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chapterbank
from chapterbank.checkpoint import checkpoint_from, load_checkpoint, model_from_checkpoint, save_checkpoint
from chapterbank.cli import main
from chapterbank.config import preset
from chapterbank.errors import CheckpointMismatch, ConfigError
from chapterbank.flops import flops_model
from chapterbank.model import build_model, collect_route_stats, route_stats_csv, route_stats_text
from chapterbank.tensor import RngState
from chapterbank.train import METRICS_HEADER, SYNTHETIC_PERIOD, make_synthetic_corpus, sample_batch


def write_train_config(path, steps=8, extra_train=None, data_length=2048):
    train = {
        "steps": steps,
        "batch_size": 2,
        "seq_len": 16,
        "schedule": {"kind": "cosine", "warmup": 2},
        "eval_every": 4,
    }
    train.update(extra_train or {})
    doc = {"preset": "micro", "train": train, "data": {"length": data_length}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestFlopsCommand:
    def test_matches_library_output(self, capsys):
        assert main(["flops", "--preset", "moc-paper", "--aux-override", "331859"]) == 0
        out = capsys.readouterr().out
        want = flops_model(preset("moc-paper"), 1, 1024, aux_override=331859).to_text()
        assert out == want + "\n"
        assert "459,171,802,488" in out

    def test_csv_artifact(self, tmp_path, capsys):
        csv_path = tmp_path / "flops.csv"
        assert main(["flops", "--preset", "micro", "--batch", "2", "--seqlen", "32", "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        assert csv_path.read_text() == flops_model(preset("micro"), 2, 32).to_csv()

    def test_requires_config_or_preset(self, capsys):
        assert main(["flops"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_aux_override_is_exit_2(self, capsys):
        assert main(["flops", "--preset", "micro", "--aux-override", "-7"]) == 2
        captured = capsys.readouterr()
        assert "error: aux_override must be >= 0, got -7" in captured.err and captured.out == ""

    def test_negative_aux_override_on_a_dense_model_is_exit_2(self, capsys):
        # a dense model has no memory-layer line to pin; the bad value is still bad input
        assert main(["flops", "--preset", "vanilla-backbone", "--aux-override", "-7"]) == 2
        captured = capsys.readouterr()
        assert "error: aux_override must be >= 0, got -7" in captured.err and captured.out == ""

    def test_bad_preset_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["flops", "--preset", "mega"])


class TestTrainCommand:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        cfg = write_train_config(tmp_path / "run.json")
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["train", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        capsys.readouterr()

        metrics = (out1 / "metrics.csv").read_text()
        assert metrics.splitlines()[0] == METRICS_HEADER
        assert metrics == (out2 / "metrics.csv").read_text()
        assert (out1 / "final.ckpt").read_bytes() == (out2 / "final.ckpt").read_bytes()

        resolved = json.loads((out1 / "config.resolved").read_text())
        assert resolved["model"] == preset("micro").to_dict()
        assert resolved["train"]["steps"] == 8

        ckpt = load_checkpoint(out1 / "final.ckpt")
        assert ckpt.step == 8
        assert ckpt.config == preset("micro")

    def test_cli_overrides_win(self, tmp_path, capsys):
        cfg = write_train_config(tmp_path / "run.json", steps=8)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--steps", "4", "--seed", "9"]) == 0
        capsys.readouterr()
        resolved = json.loads((out / "config.resolved").read_text())
        assert resolved["train"]["steps"] == 4
        assert resolved["train"]["seed"] == 9
        assert load_checkpoint(out / "final.ckpt").step == 4

    def test_unknown_config_section_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "micro", "opt": {}}))
        assert main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert "sections" in capsys.readouterr().err

    def test_preset_given_twice_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "micro", "model": {"preset": "micro"}}))
        assert main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert "names a preset twice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nested_config_error_names_its_key_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "micro", "retention": {"phase_a": {"schedule": {"warmup": 1}}}}))
        assert main(["retention", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert "error: retention.phase_a.schedule: schedule is missing required keys: ['kind']" in capsys.readouterr().err

    def test_schedule_error_names_its_key_path(self, tmp_path, capsys):
        # the schedule checks its kind on construction; the path still leads the message
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"preset": "micro", "train": {"schedule": {"kind": "bogus", "warmup": 1}}}))
        assert main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert "error: train.schedule: unknown schedule kind 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_steps_within_the_default_warmup_name_the_fields(self, tmp_path, capsys):
        assert main(["train", "--preset", "micro", "--steps", "5", "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "steps 5 must exceed schedule.warmup 10" in err and "total_steps" not in err

    @pytest.mark.parametrize("data", [{"length": 50}, {"length": 50, "period": 1}])
    def test_a_period_the_corpus_rejects_is_exit_2_before_the_run_directory(self, data, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "micro", "data": data}), encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"error: data: data period {data.get('period', 97)} must be in [2, length 50]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, capsys):
        assert main(["train", "--config", "/nonexistent.json", "--out-dir", "/tmp/x"]) == 2
        assert "not found" in capsys.readouterr().err


MALFORMED_RUN_CONFIGS = [
    {"preset": "micro", "train": 5},
    {"preset": "micro", "train": {"schedule": {"warmup": 1}}},
    {"preset": "micro", "model": [1]},
    {"preset": "micro", "train": {"betas": 5}},
    {"preset": "micro", "train": {"steps": "5"}},
    {"preset": "micro", "model": {"d_model": "64"}},
    {"preset": "micro", "model": {"top_k": 2.0}},
    {"preset": ["micro"]},
    {"preset": "micro", "train": {"betas": [1.0, 0.95]}},  # AdamW's bias correction divided by zero
    {"preset": "micro", "train": {"betas": [0.9, 1.0]}},
]


@pytest.mark.parametrize("doc", MALFORMED_RUN_CONFIGS, ids=json.dumps)
def test_malformed_run_config_is_exit_2(doc, tmp_path):
    """A malformed document is a config error in the real process: exit
    2 with an ``error:`` line, no traceback, and no run directory."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(chapterbank.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "chapterbank.cli", "train", "--config", str(cfg), "--out-dir", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "config.resolved").exists()


@pytest.mark.parametrize("doc, flags, field", [
    ({"train": {"betas": [1.0, 0.95]}}, [], "train: betas"),
    ({}, ["--lr", "nan"], "lr_base"),
    ({"train": {"clip_norm": float("nan")}}, [], "train: clip_norm"),
    ({"train": {"weight_decay": -1e9}}, [], "train: weight_decay"),
    ({"model": {"rope_theta": 0.0}}, [], "model: invalid model config: rope_theta"),
    ({"model": {"lb_coeff": float("nan")}}, [], "model: invalid model config: lb_coeff"),
    ({"model": {"n_heads": 0}}, [], "model: invalid model config: n_heads"),
    ({"model": {"n_kv_heads": 0}}, [], "model: invalid model config: n_kv_heads"),
    ({"model": {"mem_heads": 0}}, [], "model: invalid model config: mem_heads"),
    ({"model": {"mem_kv_heads": 0}}, [], "model: invalid model config: mem_kv_heads"),
    ({"model": {"n_heads": -4, "n_kv_heads": -2}}, [], "model: invalid model config: n_heads"),
    ({"model": {"d_ff": -1}}, [], "model: invalid model config: d_ff"),
    ({"retention": {"fact": {"repeats": 0}}}, [], "retention.fact: repeats"),
])
def test_bad_optimizer_or_model_numbers_exit_2_naming_the_field(doc, flags, field, tmp_path, capsys):
    """These used to train into a numeric abort (exit 1) or a traceback."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "micro", **doc}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--steps", "12", *flags, "--out-dir", str(out)]) == 2
    assert f"error: {field} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "continue --checkpoint DIR --out-dir OUT",
    "route-stats --checkpoint DIR",
    "train --config DIR --out-dir OUT",
    "route-stats --checkpoint CKPT --batches 1 --seqlen 8 --csv DIR",
    "train --preset micro --steps 12 --out-dir FILE",
    "continue --checkpoint CKPT --steps 12 --out-dir FILE",
], ids=["continue-checkpoint-dir", "route-stats-checkpoint-dir", "train-config-dir", "route-stats-csv-dir",
        "train-out-dir-file", "continue-out-dir-file"])
def test_a_bad_path_exits_2_before_any_step(argv, tmp_path, monkeypatch, capsys):
    """A directory where a file is wanted, or a file where the run
    directory goes, is an ``error:`` line and exit 2; no step runs."""
    paths = {"CKPT": tmp_path / "m.ckpt", "DIR": tmp_path / "dir", "FILE": tmp_path / "file", "OUT": tmp_path / "out"}
    save_checkpoint(checkpoint_from(build_model(preset("micro"), RngState(0))), paths["CKPT"])
    paths["DIR"].mkdir()
    paths["FILE"].write_text("")
    runs = []
    monkeypatch.setattr("chapterbank.cli.train", lambda *args, **kwargs: runs.append(args))
    monkeypatch.setattr("chapterbank.cli.continue_train", lambda *args, **kwargs: runs.append(args))
    assert main([str(paths.get(word, word)) for word in argv.split()]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert runs == []


class TestNumericAbort:
    def assert_aborted(self, out, step, capsys):
        err = capsys.readouterr().err
        assert f"training aborted at step {step}: " in err
        assert f"step {step}: step" not in err
        assert (out / "last.ckpt").exists()
        assert (out / "config.resolved").exists()
        assert not (out / "final.ckpt").exists()

    def test_train_divergence_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["train", "--preset", "micro", "--steps", "12", "--batch-size", "2", "--seq-len", "16"]
        with np.errstate(all="ignore"):
            assert main(argv + ["--lr", "1e30", "--out-dir", str(out)]) == 1
        self.assert_aborted(out, 2, capsys)

    def test_divergence_at_an_eval_point_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "micro", "train": {
            "steps": 4, "batch_size": 4, "seq_len": 16, "lr_base": 1e30,
            "schedule": {"kind": "cosine", "warmup": 2}, "eval_every": 1}}), encoding="utf-8")
        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 1
        self.assert_aborted(out, 1, capsys)
        assert load_checkpoint(out / "last.ckpt").step == 1

    def test_continue_from_nan_checkpoint_exits_1(self, tmp_path, capsys):
        model = build_model(preset("micro"), RngState(0))
        model["embedding.weight"].data[7] = np.nan
        ckpt_path = tmp_path / "nan.ckpt"
        save_checkpoint(checkpoint_from(model, step=0, seed=0), ckpt_path)
        out = tmp_path / "cont"
        argv = ["continue", "--checkpoint", str(ckpt_path), "--steps", "12", "--batch-size", "2", "--seq-len", "16"]
        with np.errstate(all="ignore"):
            assert main(argv + ["--out-dir", str(out)]) == 1
        self.assert_aborted(out, 0, capsys)


class TestContinueCommand:
    @pytest.fixture()
    def first_run(self, tmp_path, capsys):
        cfg = write_train_config(tmp_path / "run.json")
        out = tmp_path / "phase1"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        return out / "final.ckpt"

    def test_continue_with_longer_context(self, first_run, tmp_path, capsys):
        out = tmp_path / "phase2"
        rc = main(
            [
                "continue",
                "--checkpoint",
                str(first_run),
                "--out-dir",
                str(out),
                "--steps",
                "12",
                "--batch-size",
                "2",
                "--seq-len",
                "128",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        ckpt = load_checkpoint(out / "final.ckpt")
        assert ckpt.step == 12
        assert ckpt.config.max_seq_len == 128

    def test_frozen_bank_continue_preserves_bank_bytes(self, first_run, tmp_path, capsys):
        out = tmp_path / "phase2f"
        rc = main(
            [
                "continue",
                "--checkpoint",
                str(first_run),
                "--out-dir",
                str(out),
                "--steps",
                "12",
                "--batch-size",
                "2",
                "--bank-mode",
                "frozen",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        before = load_checkpoint(first_run).tensors["bank.tokens"]
        after = load_checkpoint(out / "final.ckpt").tensors["bank.tokens"]
        assert before.tobytes() == after.tobytes()

    def test_equal_lr_continue_moves_bank(self, first_run, tmp_path, capsys):
        out = tmp_path / "phase2m"
        assert (
            main(
                ["continue", "--checkpoint", str(first_run), "--out-dir", str(out), "--steps", "12", "--batch-size", "2"]
            )
            == 0
        )
        capsys.readouterr()
        before = load_checkpoint(first_run).tensors["bank.tokens"]
        after = load_checkpoint(out / "final.ckpt").tensors["bank.tokens"]
        assert before.tobytes() != after.tobytes()

    def test_missing_checkpoint_is_exit_2(self, tmp_path, capsys):
        assert main(["continue", "--checkpoint", str(tmp_path / "no.ckpt"), "--out-dir", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_config_mismatch_is_exit_2(self, first_run, tmp_path, capsys):
        mismatched = tmp_path / "other.json"
        doc = {"model": {"preset": "micro", "top_k": 2}, "train": {"steps": 12, "batch_size": 2}}
        mismatched.write_text(json.dumps(doc))
        rc = main(["continue", "--checkpoint", str(first_run), "--config", str(mismatched), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "top_k" in capsys.readouterr().err


class TestRetentionCommand:
    def _config(self, tmp_path, phase_a_steps=24, phase_b_steps=0):
        doc = {
            "preset": "micro",
            "retention": {
                "phase_a": {"steps": phase_a_steps, "batch_size": 4, "seq_len": 16, "eval_every": 50},
                "phase_b": {"steps": phase_b_steps, "batch_size": 4, "seq_len": 32, "eval_every": 50},
                "seed": 3,
            },
        }
        path = tmp_path / "ret.json"
        path.write_text(json.dumps(doc))
        return path

    def test_single_seed_artifacts(self, tmp_path, capsys):
        out = tmp_path / "ret"
        rc = main(["retention", "--config", str(self._config(tmp_path)), "--out-dir", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "retention protocol, seed 3" in stdout
        csv = (out / "retention.csv").read_text()
        assert csv.splitlines()[0] == "variant,metric,phaseA,phaseB,delta"
        # zero-step phase B: every delta is exactly zero
        for line in csv.splitlines()[1:]:
            variant, metric, a, b, delta = line.split(",")
            if metric != "failed":
                assert float(delta) == 0.0
        assert (out / "summary.txt").exists()
        assert json.loads((out / "config.resolved").read_text())["retention"]["seed"] == 3

    def test_multi_seed_artifacts(self, tmp_path, capsys):
        out = tmp_path / "ret2"
        cfg = self._config(tmp_path, phase_a_steps=12, phase_b_steps=0)
        rc = main(["retention", "--config", str(cfg), "--out-dir", str(out), "--seeds", "2"])
        assert rc == 0
        capsys.readouterr()
        assert (out / "retention.seed3.csv").exists()
        assert (out / "retention.seed4.csv").exists()
        mean_csv = (out / "retention.mean.csv").read_text()
        assert mean_csv.splitlines()[0] == "variant,metric,phaseA,phaseB,delta"
        summary = (out / "summary.txt").read_text()
        assert "mean over seeds:" in summary

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_non_positive_seeds_exit_2(self, tmp_path, capsys, seeds):
        out = tmp_path / "ret0"
        assert main(["retention", "--config", str(self._config(tmp_path)), "--out-dir", str(out), "--seeds", seeds]) == 2
        assert "error: --seeds must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestRouteStats:
    @pytest.fixture()
    def trained_ckpt(self, tmp_path, capsys):
        cfg = write_train_config(tmp_path / "run.json")
        out = tmp_path / "t"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        return out / "final.ckpt"

    def test_frequencies_sum_to_top_k_per_layer(self):
        model = build_model(preset("micro"), RngState(0))
        corpus = make_synthetic_corpus(256, 2048, 0)
        gen = np.random.default_rng(0)
        batches = [
            np.stack([corpus.tokens[s : s + 16] for s in gen.integers(0, 2000, size=4)]) for _ in range(3)
        ]
        stats = collect_route_stats(model, batches)
        assert [s.layer for s in stats] == [1, 3]
        for s in stats:
            assert abs(s.frequency.sum() - preset("micro").top_k) < 1e-9
            assert s.frequency[: preset("micro").shared_chapters].sum() == 0.0  # routed only
            assert 0.0 <= s.never_selected_frac <= 1.0
            assert 0.0 < s.mean_routed_mass < 1.0
            assert s.entropy >= 0.0

    def test_cli_writes_csv(self, trained_ckpt, tmp_path, capsys):
        csv_path = tmp_path / "routes.csv"
        rc = main(["route-stats", "--checkpoint", str(trained_ckpt), "--seqlen", "16", "--batches", "2", "--csv", str(csv_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "layer 1:" in out and "layer 3:" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "layer,chapter,frequency,entropy,mean_routed_mass,never_selected_frac"
        assert len(lines) == 1 + 2 * 17  # two memory layers, 17 chapters each
        total = sum(float(ln.split(",")[2]) for ln in lines[1:] if ln.split(",")[0] == "1")
        assert abs(total - 4.0) < 1e-9

    def test_layer_filter_and_validation(self, trained_ckpt, capsys):
        assert main(["route-stats", "--checkpoint", str(trained_ckpt), "--layers", "3", "--batches", "1", "--seqlen", "16"]) == 0
        out = capsys.readouterr().out
        assert "layer 3:" in out and "layer 1:" not in out
        assert main(["route-stats", "--checkpoint", str(trained_ckpt), "--layers", "0"]) == 2
        assert "not memory layers" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 7])
    def test_cli_matches_library_on_batches_from_sample_batch(self, trained_ckpt, tmp_path, capsys, seed):
        # the command draws its batches through the trainer's sampler
        csv_path = tmp_path / "routes.csv"
        argv = ["route-stats", "--checkpoint", str(trained_ckpt), "--batches", "3", "--seqlen", "16",
                "--seed", str(seed), "--csv", str(csv_path)]
        assert main(argv) == 0
        model = model_from_checkpoint(load_checkpoint(trained_ckpt))
        corpus = make_synthetic_corpus(model.config.vocab, max(3 * 16 * 8 + 64, SYNTHETIC_PERIOD), seed)
        gen = RngState(seed).substream("route-stats")
        stats = collect_route_stats(model, [sample_batch(corpus.tokens, gen, 8, 16) for _ in range(3)])
        assert capsys.readouterr().out == route_stats_text(stats) + "\n"
        assert csv_path.read_text() == route_stats_csv(stats)

    @pytest.fixture()
    def untrained_ckpt(self, tmp_path):
        path = tmp_path / "untrained.ckpt"
        save_checkpoint(checkpoint_from(build_model(preset("micro"), RngState(0))), path)
        return path

    def test_a_repeated_layer_exits_2(self, untrained_ckpt, capsys):
        model = model_from_checkpoint(load_checkpoint(untrained_ckpt))
        with pytest.raises(ConfigError, match=r"^layers \[1, 1\] name a layer more than once$"):
            collect_route_stats(model, [np.zeros((1, 4), dtype=np.int64)], [1, 1])
        assert main(["route-stats", "--checkpoint", str(untrained_ckpt), "--layers", "1,1"]) == 2
        captured = capsys.readouterr()
        assert "error: layers [1, 1] name a layer more than once" in captured.err and captured.out == ""

    def test_no_batches_is_a_config_error(self, untrained_ckpt):
        model = model_from_checkpoint(load_checkpoint(untrained_ckpt))
        with pytest.raises(ConfigError, match=r"^route stats need at least one batch$"):
            collect_route_stats(model, [])

    def test_non_integer_layers_exit_2(self, untrained_ckpt, capsys):
        assert main(["route-stats", "--checkpoint", str(untrained_ckpt), "--layers", "1,x"]) == 2
        err = capsys.readouterr().err
        assert "error: --layers must be comma-separated integers" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--batches", "--seqlen"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_batches_or_seqlen_exit_2(self, untrained_ckpt, capsys, flag, value):
        assert main(["route-stats", "--checkpoint", str(untrained_ckpt), flag, value]) == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("batches, seqlen", [(1, 1), (1, 4), (2, 3), (1, 64)])
    def test_short_batches_get_a_long_enough_corpus(self, untrained_ckpt, capsys, batches, seqlen):
        argv = ["route-stats", "--checkpoint", str(untrained_ckpt), "--batches", str(batches), "--seqlen", str(seqlen)]
        assert main(argv) == 0
        assert "layer 1:" in capsys.readouterr().out


def _rewrite_header(path, edit):
    """Re-encode the checkpoint header after ``edit(header)``; payloads stay as they are."""
    data = path.read_bytes()
    base = 16 + int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:base])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:8] + len(blob).to_bytes(8, "little") + blob + data[base:])


def _drop_v_moment(header):
    header["tensors"] = [e for e in header["tensors"] if e["name"] != "optim.v.final_norm.gain"]


def _drop_m_moment(header):
    header["tensors"] = [e for e in header["tensors"] if e["name"] != "optim.m.final_norm.gain"]


def _repeat_a_tensor(header):
    header["tensors"].append(dict(header["tensors"][0]))  # same payload, so its CRC holds


def _misstate_nbytes(header):
    header["tensors"][0]["nbytes"] -= 4


def _wrap_element_count(header):
    header["tensors"][0].update(shape=[2**32, 2**32], nbytes=0)  # 2**64 elements: 0 in int64


def _edit(keys, *value):
    """A header edit that deletes header[k0][k1]..., or sets it to ``value`` when one is given."""

    def edit(header):
        *path, last = keys
        obj = header
        for k in path:
            obj = obj[k]
        if value:
            obj[last] = value[0]
        else:
            del obj[last]

    return edit


ENTRY = ("tensors", 0)
# id -> (header edit, part of the ConfigError message); each loaded as KeyError or TypeError before
HEADER_SCHEMA_BREAKS = {
    **{f"no {k}": (_edit((k,)), f"missing '{k}'") for k in ("tensors", "model_config", "step", "rng")},
    "no rng.seed": (_edit(("rng", "seed")), "missing 'seed'"),
    **{f"entry without {k}": (_edit((*ENTRY, k)), f"missing '{k}'") for k in ("name", "precision", "offset", "nbytes", "shape", "crc32")},
    "tensors object": (_edit(("tensors",), {}), "'tensors' must be list, got dict"),
    "model_config list": (_edit(("model_config",), []), "'model_config' must be dict, got list"),
    "step string": (_edit(("step",), "3"), "'step' must be int, got str"),
    "seed float": (_edit(("rng", "seed"), 1.5), "'seed' must be int, got float"),
    "offset bool": (_edit((*ENTRY, "offset"), True), "'offset' must be int, got bool"),
    "nbytes null": (_edit((*ENTRY, "nbytes"), None), "'nbytes' must be int, got NoneType"),
    "shape int": (_edit((*ENTRY, "shape"), 64), "'shape' must be list, got int"),
    "crc32 string": (_edit((*ENTRY, "crc32"), "0"), "'crc32' must be int, got str"),
    "name int": (_edit((*ENTRY, "name"), 7), "'name' must be str, got int"),
    "precision int": (_edit((*ENTRY, "precision"), 32), "'precision' must be str, got int"),
    "entry string": (_edit(ENTRY, "embedding.weight"), "tensor entry 0 is not a JSON object"),
    "unknown precision": (_edit((*ENTRY, "precision"), "half"), "unknown precision 'half'"),
    "negative dim": (_edit((*ENTRY, "shape"), [-64]), "bad shape"),
}


CORRUPTIONS = {
    "cut_to_12_bytes": lambda data, base: data[:12],
    "cut_to_5000_bytes": lambda data, base: data[:5000],
    "cut_1000_bytes_after_header": lambda data, base: data[: base + 1000],
    "garbled_header": lambda data, base: data[:20] + b"\xff" + data[21:],
    "one_payload_byte_flipped": lambda data, base: data[: base + 100] + bytes([data[base + 100] ^ 0x01]) + data[base + 101 :],
}


class TestCorruptCheckpoint:
    @pytest.fixture()
    def ckpt_path(self, tmp_path):
        model = build_model(preset("micro"), RngState(0))
        ckpt = checkpoint_from(model)
        ckpt.moments = {name: (p.data * 0.5, p.data**2) for name, p in model.params.items()}
        path = tmp_path / "good.ckpt"
        save_checkpoint(ckpt, path)
        return path

    @staticmethod
    def argvs(path, tmp_path):
        # 11 steps: more than the default schedule's warmup of 10, so only the
        # checkpoint can make these fail (test_good_checkpoint_passes_both_legs)
        return [
            ["continue", "--checkpoint", str(path), "--out-dir", str(tmp_path / "o"), "--steps", "11"],
            ["route-stats", "--checkpoint", str(path), "--batches", "1", "--seqlen", "8"],
        ]

    def assert_exit_2(self, path, tmp_path, capsys):
        for argv in self.argvs(path, tmp_path):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err

    def test_good_checkpoint_passes_both_legs(self, ckpt_path, tmp_path, capsys):
        for argv in self.argvs(ckpt_path, tmp_path):
            assert main(argv) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("mode", sorted(CORRUPTIONS))
    def test_damaged_bytes_exit_2(self, mode, ckpt_path, tmp_path, capsys):
        data = ckpt_path.read_bytes()
        base = 16 + int.from_bytes(data[8:16], "little")
        assert 5000 < base < len(data) - 1000
        ckpt_path.write_bytes(CORRUPTIONS[mode](data, base))
        self.assert_exit_2(ckpt_path, tmp_path, capsys)

    @pytest.mark.parametrize("edit", [_drop_v_moment, _misstate_nbytes, _wrap_element_count])
    def test_inconsistent_tensor_table_exits_2(self, edit, ckpt_path, tmp_path, capsys):
        _rewrite_header(ckpt_path, edit)
        self.assert_exit_2(ckpt_path, tmp_path, capsys)

    @pytest.mark.parametrize("case", sorted(HEADER_SCHEMA_BREAKS))
    def test_header_schema_break_exits_2(self, case, ckpt_path, tmp_path, capsys):
        edit, message = HEADER_SCHEMA_BREAKS[case]
        _rewrite_header(ckpt_path, edit)
        self.assert_exit_2(ckpt_path, tmp_path, capsys)
        with pytest.raises(ConfigError) as e:
            load_checkpoint(ckpt_path)
        assert message in str(e.value)

    @pytest.mark.parametrize("case", ["empty tensor table", "lone v moment", "repeated tensor", "mixed precision"])
    def test_restore_hole_exits_2(self, case, ckpt_path, tmp_path, capsys):
        if case in ("lone v moment", "repeated tensor"):
            _rewrite_header(ckpt_path, _drop_m_moment if case == "lone v moment" else _repeat_a_tensor)
            message = {"lone v moment": "optim.v.final_norm.gain has no optim.m.final_norm.gain",
                       "repeated tensor": "appears twice"}[case]
        else:
            ckpt = load_checkpoint(ckpt_path)
            if case == "empty tensor table":
                ckpt.tensors, ckpt.moments, message = {}, {}, "tensor_table"
            else:
                ckpt.tensors["final_norm.gain"] = ckpt.tensors["final_norm.gain"].astype(np.float64)
                message = "mix precisions ['double', 'single']"
            save_checkpoint(ckpt, ckpt_path)
        self.assert_exit_2(ckpt_path, tmp_path, capsys)
        with pytest.raises((ConfigError, CheckpointMismatch)) as e:
            model_from_checkpoint(load_checkpoint(ckpt_path))
        assert message in str(e.value)

    def test_only_format_version_exits_2(self, ckpt_path, tmp_path, capsys):
        blob = b'{"format_version": 1}'
        ckpt_path.write_bytes(b"MOCCKPT1" + len(blob).to_bytes(8, "little") + blob)
        self.assert_exit_2(ckpt_path, tmp_path, capsys)

    def test_rewritten_header_still_loads(self, ckpt_path):
        before = load_checkpoint(ckpt_path)
        _rewrite_header(ckpt_path, lambda header: None)
        after = load_checkpoint(ckpt_path)
        assert sorted(after.moments) == sorted(before.moments)
        for name, arr in before.tensors.items():
            np.testing.assert_array_equal(after.tensors[name], arr)


class TestUsage:
    def test_no_command_is_system_exit(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_is_system_exit(self):
        with pytest.raises(SystemExit):
            main(["prune"])
