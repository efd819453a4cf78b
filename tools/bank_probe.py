"""Time the bank-proportional parts of one training step on a wide bank.

Prints one row of a markdown table for the benchmark's mid config
(``bench/workloads.mid_config()``, chapters of 32 rows at d=256) at B=8,
L=128 with ``--chapters`` chapters; at 257 chapters it is train-mem's model:

    python tools/bank_probe.py --chapters 4097 [--header]

Each step drops the gradients, runs one taped forward, its backward, the
gradient norm, the clip, the AdamW step and a full snapshot (weights and
both moments; the last one is dropped before the next is taken, as in
``train()``). The clip runs at half the step's norm, so its multiply runs on
every step. Each phase's cell reads its wall time, then its thread CPU time
(``time.thread_time()``), each the minimum over ``STEPS`` steps: with one
BLAS thread the CPU time leaves out the time the process waits for a core.
"grad rows" counts the bank rows whose gradient the step stores (every row
when the bank holds a dense gradient) and, in brackets, the rows the step's
routing picked. Peak RSS is ``ru_maxrss`` at the end. Run each reading in a
fresh process, with one BLAS thread (set here unless the environment says
otherwise).
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from chapterbank.checkpoint import checkpoint_from  # noqa: E402
from chapterbank.model import build_model, model_forward  # noqa: E402
from chapterbank.optim import AdamW, clip_grad_norm, global_grad_norm  # noqa: E402
from chapterbank.tensor import PARAM_GROUPS, RngState, Tape  # noqa: E402
from chapterbank.train import make_synthetic_corpus, sample_batch  # noqa: E402
from workloads import BATCH, CORPUS_TOKENS, SEQ_LEN, mid_config  # noqa: E402

STEPS = 6
PHASES = ("forward", "backward", "norm", "clip", "AdamW step", "snapshot")
COLUMNS = ("chapters", "bank", "grad rows [picked]", *(f"{name} wall / CPU" for name in PHASES), "peak RSS")


def clock() -> tuple[float, float]:
    return time.perf_counter(), time.thread_time()


def cell(ms: tuple[float, float]) -> str:
    digits = 1 if ms[0] < 10 else 0
    return f"{ms[0]:.{digits}f} / {ms[1]:.{digits}f} ms"


def probe(chapters: int) -> list[str]:
    base = mid_config()
    cfg = replace(base, chapters=chapters, bank_tokens=chapters * base.chapter_size)
    model = build_model(cfg, RngState(1))
    optimizer = AdamW(model.params)
    region = make_synthetic_corpus(vocab=cfg.vocab, length=CORPUS_TOKENS, seed=1).split()[0]
    rng, lrs = RngState(1), {group: 1e-3 for group in PARAM_GROUPS}
    bank = model["bank.tokens"]
    times: dict[str, list[tuple[float, float]]] = {name: [] for name in PHASES}
    rows = picked = 0
    snapshot = None
    for t in range(1, STEPS + 1):
        tokens = sample_batch(region, rng.substream("batch", t), BATCH, SEQ_LEN)
        marks = [clock()]
        model.zero_grads()
        with Tape() as tape:
            trace = model_forward(model, tokens, tokens)
            marks.append(clock())
            tape.backward(trace.loss)
        marks.append(clock())
        norm = global_grad_norm(optimizer)
        marks.append(clock())
        clip_grad_norm(optimizer, norm / 2, norm)
        marks.append(clock())
        rows = max(rows, bank.stored_grad().shape[0])
        chosen = np.unique(np.concatenate([d.selected_with_shared.ravel() for d in trace.decisions]))
        picked = max(picked, chosen.size * cfg.chapter_size)
        optimizer.step(lrs, t)
        marks.append(clock())
        snapshot = None
        snapshot = checkpoint_from(model, t, 1, optimizer)
        marks.append(clock())
        for name, a, b in zip(times, marks, marks[1:]):
            times[name].append((b[0] - a[0], b[1] - a[1]))
    del snapshot
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return [f"{chapters:,}", f"{bank.data.nbytes / 2**20:.1f} MiB", f"{rows:,} of {bank.shape[0]:,} [{picked:,}]",
            *(cell(tuple(1e3 * min(clocks) for clocks in zip(*values))) for values in times.values()),
            f"{peak:.0f} MB"]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chapters", type=int, required=True, help="chapters in the bank, the shared one included")
    parser.add_argument("--header", action="store_true", help="print the table's header rows first")
    args = parser.parse_args(argv)
    if args.header:
        print("| " + " | ".join(COLUMNS) + " |")
        print("|" + "---|" * len(COLUMNS))
    print("| " + " | ".join(probe(args.chapters)) + " |")


if __name__ == "__main__":
    main()
