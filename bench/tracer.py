"""Spans around the calls into each layer, recorded from outside `src/`.

The model module resolves its blocks through module globals, so replacing
those globals takes effect on the next forward pass. A span's self time
is its duration minus the spans nested in it. Backward time is charged to
the forward scope that was open when each tape record was made, by timing
the backward closure that ``Tape.record`` receives.

Each `model.*` scope is joined by name to ``FlopsReport.flat_items()``
lines, so every call adds the FLOPs its shapes imply and the trace can
report achieved GFLOP/s. The backward pass counts as twice the forward,
as in ``flops.py``.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from chapterbank.flops import flops_model
from chapterbank.optim import AdamW
from chapterbank.tensor import Tape, active_tape

# Entry points wrapped per scope: (scope, module, attribute).
SPANS = (
    ("model.head", "chapterbank.model", "model_forward"),
    ("model.attn", "chapterbank.model", "self_attention_block"),
    ("model.mlp", "chapterbank.model", "_mlp_block"),
    ("model.mem", "chapterbank.model", "memory_layer_forward"),
    ("model.mem.route", "chapterbank.model", "route"),
    ("model.mem.gather", "chapterbank.model", "prepare_memory_tokens"),
    ("model.mem.attn", "chapterbank.model", "mem_read"),
    ("model.mem.aux", "chapterbank.model", "aux_losses"),
    ("optim.clip", "chapterbank.train", "global_grad_norm"),
    ("optim.clip", "chapterbank.train", "clip_grad_norm"),
    ("train.eval", "chapterbank.train", "_eval_losses"),
    ("train.eval", "chapterbank.retention", "_eval_losses"),
    ("checkpoint.snapshot", "chapterbank.train", "checkpoint_from"),
    ("checkpoint.restore", "chapterbank.train", "model_from_checkpoint"),
    ("retention.decode", "chapterbank.retention", "greedy_decode"),
)

# FlopsReport.flat_items() lines each model scope covers, with a divisor:
# a standard layer has two RMSNorms and two residual adds, one per block.
SCOPE_FLOPS = {
    "model.attn": (
        ("standard_layer.self_attention.total", 1),
        ("standard_layer.rope", 1),
        ("standard_layer.norms", 2),
        ("standard_layer.residuals", 2),
    ),
    "model.mlp": (
        ("standard_layer.mlp.total", 1),
        ("standard_layer.norms", 2),
        ("standard_layer.residuals", 2),
    ),
    "model.mem": (("memory_layer_extra.extra_residual", 1),),
    "model.mem.route": (("memory_layer_extra.router.total", 1),),
    "model.mem.gather": (("memory_layer_extra.mem_preprocess.total", 1),),
    "model.mem.attn": (
        ("memory_layer_extra.mem_attention.total", 1),
        ("memory_layer_extra.extra_norm", 1),
    ),
    "model.mem.aux": (("memory_layer_extra.router_aux", 1),),
    "model.head": (("head.norm", 1), ("head.lm_head", 1), ("head.ce", 1)),
}


def _call_shape(scope: str, args) -> tuple:
    """(config, batch, seq_len, repeats) of one call, read from its arguments."""
    if scope == "model.head":
        model, tokens = args[0], np.shape(args[1])
        return model.config, tokens[0], tokens[1], 1
    if scope == "model.mem.route":
        h, cfg = args[0], args[3]
        return cfg, h.shape[0], h.shape[1], 1
    if scope == "model.mem.gather":
        return args[0].config, 1, 1, 1
    if scope == "model.mem.attn":
        h, model = args[0], args[2]
        return model.config, h.shape[0], h.shape[1], 1
    if scope == "model.mem.aux":
        decisions, cfg = args[0], args[1]
        return cfg, len(decisions[0]), 1, len(decisions)
    h, model = args[0], args[1]
    return model.config, h.shape[0], h.shape[1], 1


class Tracer:
    """Per-scope self time, backward time, calls, FLOPs and counters."""

    def __init__(self):
        self.fwd_s: dict[str, float] = defaultdict(float)
        self.bwd_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.flops: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing_lines: set[str] = set()
        self._stack: list[list] = []
        self._lines: dict[tuple, tuple] = {}

    def _scope_flops(self, scope: str, args) -> int:
        cfg, batch, seq_len, repeats = _call_shape(scope, args)
        # The cached entry holds cfg, so its id cannot be reused by another config.
        key = (id(cfg), batch, seq_len)
        if key not in self._lines:
            self._lines[key] = (cfg, dict(flops_model(cfg, batch, seq_len).flat_items()))
        lines = self._lines[key][1]
        total = 0
        for name, divisor in SCOPE_FLOPS[scope]:
            if name not in lines:
                self.missing_lines.add(name)
                continue
            total += lines[name] // divisor
        return total * repeats

    def _note(self, scope: str, args, result) -> None:
        if scope in SCOPE_FLOPS:
            fwd = self._scope_flops(scope, args)
            self.flops[scope] += 3 * fwd if active_tape() is not None else fwd
        if scope == "model.mem.gather" and active_tape() is not None:
            # gather_rows backward zero-fills a bank-sized gradient per call.
            model, decision = args[0], args[2]
            bank = model["bank.tokens"].value.data
            self.counts["gather_bytes_zeroed"] += bank.nbytes
            self.counts["gather_rows_zeroed"] += bank.shape[0]
            self.counts["gather_rows_selected"] += len(decision.selected_with_shared) * model.bank.chapter_size
        elif scope == "checkpoint.snapshot":
            arrays = list(result.tensors.values()) + [a for mv in result.moments.values() for a in mv]
            self.counts["snapshot_bytes"] += sum(a.nbytes for a in arrays)
        elif scope == "retention.decode":
            prompts, n_tokens = args[1], args[2]
            self.counts["decode_tokens"] += len(prompts) * n_tokens

    def wrap(self, scope: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [scope, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.fwd_s[scope] += dur - frame[1]
                self.total_s[scope] += dur
                self.calls[scope] += 1
            self._note(scope, args, result)
            return result

        return traced

    def _wrap_record(self, record):
        stack, bwd_s, counts = self._stack, self.bwd_s, self.counts

        def traced_record(tape, out, backward_fn):
            scope = stack[-1][0] if stack else "other"
            counts["tape_records"] += 1
            if out.data.dtype == np.float64:
                counts["tape_records_f64"] += 1

            def timed(g):
                start = time.perf_counter()
                backward_fn(g)
                bwd_s[scope] += time.perf_counter() - start

            record(tape, out, timed)

        return traced_record

    @contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        patches = [(importlib.import_module(mod), attr, scope) for scope, mod, attr in SPANS]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        saved += [(Tape, "record", Tape.record), (Tape, "backward", Tape.backward)]
        saved += [(AdamW, "step", AdamW.step)]
        try:
            for owner, attr, scope in patches:
                setattr(owner, attr, self.wrap(scope, getattr(owner, attr)))
            Tape.record = self._wrap_record(Tape.record)
            Tape.backward = self.wrap("tensor.backward", Tape.backward)
            AdamW.step = self.wrap("optim.step", AdamW.step)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def metrics(self, steps: int) -> dict:
        """name -> (value, unit, samples). Times and counts are per
        optimizer step unless named per call; the model scopes include the
        forward passes of eval and decoding."""
        fwd, bwd, total, calls, counts = self.fwd_s, self.bwd_s, self.total_s, self.calls, self.counts
        per_step = f"{steps} traced steps"
        m = {}
        for s in SCOPE_FLOPS:
            busy = fwd[s] + bwd[s]
            m[f"{s}.fwd_ms"] = (1e3 * fwd[s] / steps, "ms", per_step)
            m[f"{s}.bwd_ms"] = (1e3 * bwd[s] / steps, "ms", per_step)
            m[f"{s}.calls"] = (calls[s] / steps, "count", per_step)
            m[f"{s}.gflops_per_s"] = (self.flops[s] / busy / 1e9 if busy else 0.0, "GFLOP/s", f"{calls[s]} calls")
        zeroed = counts["gather_rows_zeroed"]
        m["model.mem.gather.bwd_bytes_zeroed"] = (counts["gather_bytes_zeroed"] / steps, "bytes", per_step)
        m["model.mem.gather.useful_row_frac"] = (
            counts["gather_rows_selected"] / zeroed if zeroed else 0.0, "fraction", f"{zeroed} rows zero-filled")
        records = counts["tape_records"]
        m["ops.float64_share"] = (counts["tape_records_f64"] / records, "fraction", f"{records} tape records")
        m["tensor.tape_records"] = (records / steps, "count", per_step)
        for name, scope in (("tensor.backward_ms", "tensor.backward"), ("optim.step_ms", "optim.step"),
                            ("optim.clip_ms", "optim.clip")):
            m[name] = (1e3 * total[scope] / steps, "ms", per_step)
        for name, scope, amount, unit in (
            ("train.eval_ms", "train.eval", 1e3 * total["train.eval"], "ms"),
            ("checkpoint.snapshot_ms", "checkpoint.snapshot", 1e3 * total["checkpoint.snapshot"], "ms"),
            ("checkpoint.snapshot_bytes", "checkpoint.snapshot", counts["snapshot_bytes"], "bytes"),
            ("checkpoint.restore_ms", "checkpoint.restore", 1e3 * total["checkpoint.restore"], "ms"),
            ("retention.decode_ms", "retention.decode", 1e3 * total["retention.decode"], "ms"),
        ):
            n = calls[scope]
            m[name] = (amount / n if n else 0.0, unit, f"{n} calls")
        decode_s, decoded = total["retention.decode"], counts["decode_tokens"]
        m["retention.decode_tokens_per_s"] = (decoded / decode_s if decode_s else 0.0, "tokens/s", f"{decoded} tokens")
        return m

    def flops_join(self) -> tuple[list[str], list[str], list[str]]:
        """(mapped scopes, unmapped scopes, problems) of the traced calls.

        A problem is a `model.*` scope without FLOPs lines or a named line
        that ``FlopsReport.flat_items()`` lacks.
        """
        scopes = sorted(self.calls)
        mapped = [s for s in scopes if s in SCOPE_FLOPS]
        unmapped = [s for s in scopes if s not in SCOPE_FLOPS]
        problems = [f"{s}: no FLOPs line" for s in unmapped if s.startswith("model.")]
        problems += [f"missing flat_items line {name}" for name in sorted(self.missing_lines)]
        return mapped, unmapped, problems
