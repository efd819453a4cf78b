"""Command-line driver: flops, train, continue, retention, route-stats.

Thin wrapper over the library; every artifact a command writes is byte
reproducible from the corresponding library calls. Each run directory
receives the fully expanded effective config as `config.resolved`.
Exit codes: 0 success, 1 numeric abort during training, 2 usage, config
or path errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint
from .config import PRESET_NAMES, ModelConfig
from .errors import CheckpointMismatch, ConfigError, NumericError, TrainingAborted
from .flops import flops_model
from .model import build_model, collect_route_stats, route_stats_csv, route_stats_text
from .retention import run_multi_seed, run_retention_protocol
from .runconfig import RunConfig, load_runconfig, parse_runconfig
from .tensor import RngState
from .train import (
    BANK_MODES,
    SYNTHETIC_PERIOD,
    Corpus,
    TrainResult,
    continue_train,
    make_synthetic_corpus,
    metrics_csv,
    sample_batch,
    train,
)


def _load_run_config(args) -> RunConfig:
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        rc = load_runconfig(path)
    elif getattr(args, "preset", None):
        rc = parse_runconfig({"preset": args.preset})
    else:
        raise ConfigError("need --config PATH or --preset NAME")
    return _apply_overrides(rc, args)


def _apply_overrides(rc: RunConfig, args) -> RunConfig:
    flags = {"steps": "steps", "seed": "seed", "batch_size": "batch_size", "seq_len": "seq_len",
             "bank_mode": "bank_mode", "lr": "lr_base"}
    overrides = {name: getattr(args, flag) for flag, name in flags.items() if getattr(args, flag, None) is not None}
    return replace(rc, train=replace(rc.train, **overrides))


def _corpus_from(rc: RunConfig) -> Corpus:
    return make_synthetic_corpus(rc.model.vocab, rc.data.length, rc.data.seed, rc.data.period)


def _write_resolved(out_dir: Path, rc: RunConfig) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved").write_text(rc.to_json(), encoding="utf-8")


def _train_into(out_dir: Path, rc: RunConfig, run) -> TrainResult | None:
    """Create the run directory, run ``run()`` and fill the directory:
    ``config.resolved``, then ``metrics.csv`` and ``final.ckpt``, or
    ``last.ckpt`` and None after a numeric abort."""
    out_dir.mkdir(parents=True, exist_ok=True)  # a bad path fails before the first step
    try:
        result = run()
    except TrainingAborted as e:
        _write_resolved(out_dir, rc)
        if e.last_checkpoint is not None:
            save_checkpoint(e.last_checkpoint, out_dir / "last.ckpt")
        print(f"training aborted at step {e.step}: {e}", file=sys.stderr)
        return None
    _write_resolved(out_dir, rc)
    (out_dir / "metrics.csv").write_text(metrics_csv(result.metrics), encoding="utf-8")
    save_checkpoint(result.checkpoint, out_dir / "final.ckpt")
    return result


def cmd_flops(args) -> int:
    report = flops_model(_load_run_config(args).model, args.batch, args.seqlen, args.aux_override)
    print(report.to_text())
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
    return 0


def cmd_train(args) -> int:
    rc = _load_run_config(args)
    out_dir = Path(args.out_dir)
    model = build_model(rc.model, RngState(rc.train.seed))
    result = _train_into(out_dir, rc, lambda: train(model, _corpus_from(rc), rc.train))
    if result is None:
        return 1
    final_eval = result.eval_rows()[-1] if result.eval_rows() else None
    if final_eval is not None:
        print(f"trained {rc.train.steps} steps; final eval loss {final_eval.total_loss:.6f}")
    else:
        print(f"trained {rc.train.steps} steps")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_continue(args) -> int:
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    ckpt = replace(load_checkpoint(ckpt_path), moments={})  # continue_train starts a fresh optimizer
    if args.config or args.preset:
        rc = _load_run_config(args)
        expected: ModelConfig | None = rc.model
    else:
        rc = _apply_overrides(RunConfig(model=ckpt.config), args)
        expected = None
    out_dir = Path(args.out_dir)
    result = _train_into(
        out_dir, rc, lambda: continue_train(ckpt, _corpus_from(rc), rc.train, expected_config=expected)
    )
    if result is None:
        return 1
    print(f"continued {rc.train.steps} steps from step-{ckpt.step} checkpoint")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_retention(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    rc = _load_run_config(args) if (args.config or args.preset) else RunConfig(
        model=parse_runconfig({"preset": "micro"}).model
    )
    out_dir = Path(args.out_dir)
    _write_resolved(out_dir, rc)
    ret = rc.retention
    if args.seeds > 1:
        seeds = [ret.seed + i for i in range(args.seeds)]
        reports, mean = run_multi_seed(ret, seeds, model_cfg=rc.model)
        for seed, rep in zip(seeds, reports):
            (out_dir / f"retention.seed{seed}.csv").write_text(rep.to_csv(), encoding="utf-8")
        (out_dir / "retention.mean.csv").write_text(mean.to_csv(), encoding="utf-8")
        summary = "".join(r.summary() for r in reports) + "mean over seeds:\n" + mean.summary()
        report_for_stdout = mean
    else:
        report = run_retention_protocol(ret, model_cfg=rc.model)
        (out_dir / "retention.csv").write_text(report.to_csv(), encoding="utf-8")
        summary = report.summary()
        report_for_stdout = report
    (out_dir / "summary.txt").write_text(summary, encoding="utf-8")
    print(report_for_stdout.summary())
    print(f"artifacts in {out_dir}")
    return 0


def cmd_route_stats(args) -> int:
    if args.batches < 1 or args.seqlen < 1:
        raise ConfigError(f"--batches and --seqlen must be at least 1, got {args.batches} and {args.seqlen}")
    try:
        layers = [int(x) for x in args.layers.split(",")] if args.layers else None
    except ValueError:
        raise ConfigError(f"--layers must be comma-separated integers, got {args.layers!r}") from None
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    model = model_from_checkpoint(load_checkpoint(ckpt_path))
    # at least one period of the pattern, however short the batches
    length = max(args.batches * args.seqlen * 8 + 64, SYNTHETIC_PERIOD)
    corpus = make_synthetic_corpus(model.config.vocab, length, args.seed)
    gen = RngState(args.seed).substream("route-stats")
    batches = [sample_batch(corpus.tokens, gen, 8, args.seqlen) for _ in range(args.batches)]
    stats = collect_route_stats(model, batches, layers)
    print(route_stats_text(stats))
    if args.csv:
        Path(args.csv).write_text(route_stats_csv(stats), encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chapterbank",
        description="Memory-augmented transformer lab: train, continue, FLOPs, routing, retention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="path to a JSON run config")
        p.add_argument("--preset", choices=sorted(PRESET_NAMES), help="named model preset")

    p = sub.add_parser("flops", help="print the integer FLOPs breakdown")
    add_config_args(p)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--seqlen", type=int, default=1024)
    p.add_argument("--aux-override", type=int, default=None, dest="aux_override")
    p.add_argument("--csv", help="also write the breakdown as CSV")
    p.set_defaults(fn=cmd_flops)

    def add_train_overrides(p):
        p.add_argument("--steps", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--seq-len", type=int, dest="seq_len")
        p.add_argument("--bank-mode", choices=BANK_MODES, dest="bank_mode")
        p.add_argument("--lr", type=float)

    p = sub.add_parser("train", help="train from scratch on the synthetic corpus")
    add_config_args(p)
    add_train_overrides(p)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("continue", help="second-phase training from a checkpoint")
    add_config_args(p)
    add_train_overrides(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(fn=cmd_continue)

    p = sub.add_parser("retention", help="two-phase forgetting protocol")
    add_config_args(p)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--seeds", type=int, default=1, help="number of protocol seeds")
    p.set_defaults(fn=cmd_retention)

    p = sub.add_parser("route-stats", help="chapter utilization from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seqlen", type=int, default=32)
    p.add_argument("--batches", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", help="comma-separated memory layer indices")
    p.add_argument("--csv", help="write utilization CSV")
    p.set_defaults(fn=cmd_route_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointMismatch, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TrainingAborted, NumericError) as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
