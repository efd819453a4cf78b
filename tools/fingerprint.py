"""Bit-identity fingerprint of the model's losses, gradients and a short run.

Prints one SHA-256 line per case. Two trees that compute the same bits
print the same lines, so a refactor that claims bit-identity is checked by
running this script in both trees and diffing the output:

    python tools/fingerprint.py > after.txt
    (cd /path/to/other/tree && python tools/fingerprint.py) > before.txt
    diff before.txt after.txt

The script imports ``chapterbank`` from the ``src/`` of the tree it sits
in. Cases: single and double precision; tied, untied, adapter (set to
non-zero) and dense models; the ``micro`` preset at (3, 13) and a mid
config at (3, 100), whose 297 loss rows span two cross-entropy chunks.
Each case runs one taped forward and a backward at upstream scale 0.5 and
hashes the four loss values, the taped loss, every parameter gradient and
``forward_logits``. Then come the artifacts of
``chapterbank train --preset micro --steps 12`` (three lines), the stdout
and ``--csv`` of ``chapterbank route-stats`` on its ``final.ckpt``, the
``metrics.csv`` of the same run at ``grad_accum: 2`` through ``--config``,
the checkpoint of a ``resume_train`` that completes a 12-step run
interrupted at step 6, the ``retention.csv`` of
``chapterbank retention --config`` with phases of 20 and 16 steps, the
two per-seed CSVs and ``retention.mean.csv`` of the same command at
``--seeds 2``, and the ``config.resolved`` and ``last.ckpt`` of two
``chapterbank train --config`` runs at ``lr_base`` 1e30 that exit 1: one
diverges at its step-2 eval point and saves the step-1 checkpoint, the
other diverges at step 2, before its first eval point, and saves the
step-0 checkpoint, whose optimizer moments are all zero. Then comes a
model case in single precision at the benchmark's train-mem shape
(``bench/workloads.mid_config()`` at B=8, L=128), where the core of every
self-attention and memory read runs in several tiles
(``ops.ATTN_TILE_BYTES``). The next line hashes the ``metrics.csv`` and
the saved final checkpoint of a 2-step ``train()`` of that model at that
shape. Its embedding, bank and MLP weights are larger than an optimizer
block (``optim.BLOCK``), so whole blocks of the update lie inside one
parameter; every ``micro`` parameter is smaller than a block, so in the
``micro`` runs above a block spans several parameters or is the whole of
the bank's segment. The next line hashes ``metrics.csv`` and
``final.ckpt`` of ``chapterbank continue`` from the 12-step run's
``final.ckpt``, 12 steps at ``--seq-len 96``, past the preset's
``max_seq_len`` of 64. The next line hashes the same 2-step ``train()``
of the train-mem model with ``bank_mode: frozen``: its memory reads run
in several tiles over a bank that takes no gradient. The last line hashes
a 2-step ``train()`` of ``micro`` widened to 1,025 chapters of 8 rows at
B=2, L=32: its bank of 8,200 x 64 elements fills nine optimizer blocks,
and the rows its steps pick leave whole blocks without a gradient row.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")  # one BLAS thread: the same summation order on every run
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from chapterbank import ops  # noqa: E402
from chapterbank.checkpoint import checkpoint_from, model_from_checkpoint, save_checkpoint  # noqa: E402
from chapterbank.cli import main as cli_main  # noqa: E402
from chapterbank.config import ModelConfig, preset  # noqa: E402
from chapterbank.model import build_model, model_forward  # noqa: E402
from chapterbank.schedule import cosine  # noqa: E402
from chapterbank.tensor import RngState, Tape  # noqa: E402
from chapterbank.train import TrainConfig, make_synthetic_corpus, metrics_csv, resume_train, train  # noqa: E402
from workloads import BATCH, CORPUS_TOKENS, SEQ_LEN, mid_config  # noqa: E402

MID = dict(d_model=96, n_heads=4, n_kv_heads=2, d_ff=192, vocab=700, max_seq_len=128)
SHAPES = {"micro": ({}, (3, 13)), "mid": (MID, (3, 100))}
VARIANTS = {
    "tied": {},
    "untied": {"tied_embeddings": False},
    "adapter": {"adapter_enabled": True},
    "dense": {"memory_layer_indices": ()},
}


def case_digest(precision: str, cfg: ModelConfig, shape: tuple[int, int]) -> str:
    model = build_model(cfg, RngState(14), precision)
    gen = np.random.default_rng(14)
    if cfg.adapter_enabled:  # adapters start at zero, which would hide their path
        # set through a checkpoint, so this also runs on trees where a Parameter wraps a Tensor
        ckpt = checkpoint_from(model)
        for i in cfg.memory_layer_indices:
            adapter = ckpt.tensors[f"layers.{i}.mem.adapter"]
            adapter[...] = gen.standard_normal(adapter.shape) * 0.02
        model = model_from_checkpoint(ckpt)
    tokens = gen.integers(0, cfg.vocab, shape)
    model.zero_grads()
    with Tape() as tape:
        trace = model_forward(model, tokens, tokens)
        tape.backward(ops.scale(trace.loss, 0.5))
    h = hashlib.sha256()
    h.update(np.array([trace.lm_loss, trace.lb_loss, trace.z_loss, trace.total_loss]).tobytes())
    h.update(trace.loss.data.tobytes())
    for name, p in model.params.items():
        h.update(name.encode())
        h.update(p.dense_grad().tobytes())
    h.update(model.forward_logits(tokens).tobytes())
    return h.hexdigest()


def cli_stdout(argv: list[str], want: int = 0) -> str:
    """Run ``chapterbank argv``, which must exit ``want``; returns what it
    printed. numpy's overflow warnings are silenced."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), np.errstate(all="ignore"):
        code = cli_main(argv)
    if code != want:
        raise SystemExit(f"chapterbank {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def run_cli(argv: list[str], out: str, config: dict | None = None, want: int = 0) -> Path:
    """Run ``chapterbank`` with ``--out-dir out`` (and ``--config`` when given),
    which must exit ``want``; returns the output directory."""
    if config is not None:
        path = Path(out) / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ["--config", str(path)]
    cli_stdout(argv + ["--out-dir", out], want)
    return Path(out)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_digests() -> list[tuple[str, str]]:
    with tempfile.TemporaryDirectory() as out:
        run_cli(["train", "--preset", "micro", "--steps", "12"], out)
        lines = [(digest(Path(out) / name), f"train-micro-12/{name}")
                 for name in ("metrics.csv", "final.ckpt", "config.resolved")]
        csv = Path(out) / "routes.csv"
        stdout = cli_stdout(["route-stats", "--checkpoint", str(Path(out) / "final.ckpt"), "--csv", str(csv)])
        h = hashlib.sha256(stdout.encode())
        h.update(csv.read_bytes())
        return lines + [(h.hexdigest(), "train-micro-12/route-stats")]


def grad_accum_digest() -> str:
    with tempfile.TemporaryDirectory() as out:
        run_cli(["train"], out, {"preset": "micro", "train": {"steps": 12, "grad_accum": 2}})
        return digest(Path(out) / "metrics.csv")


def resume_digest() -> str:
    cfg = TrainConfig(steps=12, batch_size=4, seq_len=32, schedule=cosine(2), eval_every=4, seed=5)
    corpus = make_synthetic_corpus(vocab=256, length=4096, seed=5)
    model = build_model(preset("micro"), RngState(5))
    half = train(model, corpus, replace(cfg, steps=6, schedule=cfg.schedule.with_total_steps(12)))
    rest = resume_train(half.checkpoint, corpus, cfg)
    with tempfile.TemporaryDirectory() as out:
        save_checkpoint(rest.checkpoint, Path(out) / "final.ckpt")
        return digest(Path(out) / "final.ckpt")


def retention_digest(argv: list[str], names: tuple[str, ...]) -> str:
    """Hash the bytes of the files ``names``, in order, written by
    ``chapterbank retention argv`` with phases of 20 and 16 steps at seed 1."""
    def phase(steps: int, seq_len: int) -> dict:
        return {"steps": steps, "batch_size": 8, "seq_len": seq_len,
                "schedule": cosine(2).to_dict(), "eval_every": steps // 2}

    config = {"preset": "micro", "retention": {"phase_a": phase(20, 16), "phase_b": phase(16, 32), "seed": 1}}
    with tempfile.TemporaryDirectory() as out:
        run_cli(["retention", *argv], out, config)
        h = hashlib.sha256()
        for name in names:
            h.update((Path(out) / name).read_bytes())
        return h.hexdigest()


def train_digest(cfg: ModelConfig, corpus, tcfg: TrainConfig) -> str:
    """Hash ``metrics.csv`` and the saved final checkpoint of ``train()`` of
    a model built from ``cfg`` at ``tcfg``'s seed."""
    result = train(build_model(cfg, RngState(tcfg.seed)), corpus, tcfg)
    with tempfile.TemporaryDirectory() as out:
        save_checkpoint(result.checkpoint, Path(out) / "final.ckpt")
        h = hashlib.sha256(metrics_csv(result.metrics).encode())
        h.update((Path(out) / "final.ckpt").read_bytes())
        return h.hexdigest()


def mid_train_digest(bank_mode: str = "equal_lr") -> str:
    """``train_digest`` of a 2-step ``train()`` of ``mid_config()`` at the
    benchmark's B and L, seed 1, with the bank trained as ``bank_mode``
    says."""
    cfg = mid_config()
    corpus = make_synthetic_corpus(vocab=cfg.vocab, length=CORPUS_TOKENS, seed=1)
    tcfg = TrainConfig(steps=2, batch_size=BATCH, seq_len=SEQ_LEN, lr_base=3e-3, bank_mode=bank_mode,
                       schedule=cosine(1), eval_every=2, seed=1)
    return train_digest(cfg, corpus, tcfg)


def wide_bank_digest() -> str:
    """``train_digest`` of a 2-step ``train()`` of ``micro`` with 1,025
    chapters of 8 rows at B=2, L=32, seed 2."""
    cfg = replace(preset("micro"), chapters=1025, bank_tokens=1025 * 8)
    corpus = make_synthetic_corpus(vocab=cfg.vocab, length=4096, seed=2)
    tcfg = TrainConfig(steps=2, batch_size=2, seq_len=32, schedule=cosine(1), eval_every=2, seed=2)
    return train_digest(cfg, corpus, tcfg)


def continue_digest() -> str:
    """Hash ``metrics.csv`` and ``final.ckpt`` of a 12-step
    ``chapterbank continue`` at ``--seq-len 96`` from the ``final.ckpt`` of
    ``chapterbank train --preset micro --steps 12``."""
    with tempfile.TemporaryDirectory() as out:
        base, phase_b = Path(out) / "base", Path(out) / "continue"
        run_cli(["train", "--preset", "micro", "--steps", "12"], str(base))
        run_cli(["continue", "--checkpoint", str(base / "final.ckpt"), "--steps", "12", "--seq-len", "96"],
                str(phase_b))
        h = hashlib.sha256((phase_b / "metrics.csv").read_bytes())
        h.update((phase_b / "final.ckpt").read_bytes())
        return h.hexdigest()


def abort_digest(steps: int, seq_len: int, eval_every: int) -> str:
    """Hash ``config.resolved`` and ``last.ckpt`` of a ``chapterbank train``
    run at ``lr_base`` 1e30 and B=4, which must exit 1."""
    config = {"preset": "micro", "train": {"steps": steps, "batch_size": 4, "seq_len": seq_len, "lr_base": 1e30,
                                           "schedule": cosine(2).to_dict(), "eval_every": eval_every}}
    with tempfile.TemporaryDirectory() as out:
        run_cli(["train"], out, config, want=1)
        h = hashlib.sha256((Path(out) / "config.resolved").read_bytes())
        h.update((Path(out) / "last.ckpt").read_bytes())
        return h.hexdigest()


def main() -> None:
    for precision in ("single", "double"):
        for variant in VARIANTS:
            for shape_name in SHAPES:
                overrides, shape = SHAPES[shape_name]
                cfg = replace(preset("micro"), **overrides, **VARIANTS[variant])
                print(case_digest(precision, cfg, shape), f"{precision}/{variant}/{shape_name}")
    for line, name in train_digests():
        print(line, name)
    print(grad_accum_digest(), "train-micro-12-accum-2/metrics.csv")
    print(resume_digest(), "resume-micro-6-of-12/final.ckpt")
    print(retention_digest([], ("retention.csv",)), "retention-micro-20-16/retention.csv")
    print(retention_digest(["--seeds", "2"], ("retention.seed1.csv", "retention.seed2.csv", "retention.mean.csv")),
          "retention-micro-20-16-seeds-2/retention.seed1+seed2+mean.csv")
    print(abort_digest(4, 16, 1), "train-micro-lr-1e30-eval-every-1/config.resolved+last.ckpt")
    print(abort_digest(12, 32, 10), "train-micro-lr-1e30-eval-every-10/config.resolved+last.ckpt")
    print(case_digest("single", mid_config(), (BATCH, SEQ_LEN)), "single/tied/train-mem")
    print(mid_train_digest(), "train-mem-2/metrics.csv+final.ckpt")
    print(continue_digest(), "continue-micro-12-then-12-at-96/metrics.csv+final.ckpt")
    print(mid_train_digest("frozen"), "train-mem-2-frozen-bank/metrics.csv+final.ckpt")
    print(wide_bank_digest(), "train-micro-1025-chapters-2/metrics.csv+final.ckpt")


if __name__ == "__main__":
    main()
