"""Training-throughput benchmark for chapterbank.

    python3 bench/run.py --workload train-mem --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all

One workload runs per process, single-threaded BLAS, from the `src/` tree
of this checkout. After set-up (import, model build, corpus generation,
one warm-up forward/backward, repeated and timed) the run repeats whole
training episodes until the episode boundary nearest ``--seconds``.

``--trace 0`` prints the end-to-end metrics:

* tokens_per_s: B*L*steps over all episodes, summed over phases and
  variants, per second of episode wall time (eval, snapshots, restores
  and decoding included);
* step_ms_p50: median interval between consecutive optimizer steps, the
  first from building the optimizer (p90 too, given 100 samples);
* setup_s: import time plus the median of the repeated set-ups;
* peak_rss_mb: ru_maxrss of this process;
* error_rate (printed only, as it is 0 when all is well): failed over
  attempted operations, where an aborted step fails with every step after
  it, a retention variant can fail, and so can every output check.

``--trace 1`` alternates untraced and traced episodes and prints the
per-layer split, the FLOPs join and the tracing overhead. The last line
of stdout is one JSON object: correct, attempted, failed and metrics.
``--workload all`` runs each workload in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train-mem", "train-dense", "retention-micro")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_chapterbank():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import chapterbank
    except ImportError as e:
        raise SystemExit(f"bench: cannot import chapterbank from {src}: {e}")
    if not Path(chapterbank.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: chapterbank resolved to {chapterbank.__file__}, outside {src}")


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_line_count(),
    }


@dataclass
class Run:
    episode: object
    traced: bool
    seconds: float
    step_intervals: list[float]  # optimizer construction or previous step to step end


def run_episodes(wl, state, seconds: float, tracer) -> list[Run]:
    """Whole episodes until the boundary nearest the deadline. With a
    tracer, odd episodes are traced and at least one of each kind runs."""
    runs: list[Run] = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(runs) % 2 == 1
        log: list[list[float]] = []
        start = time.perf_counter()
        with tracer.installed() if traced else nullcontext():
            ep = wl.episode(state, log)
        end = time.perf_counter()
        intervals = [b - a for stamps in log for a, b in zip(stamps, stamps[1:])]
        runs.append(Run(ep, traced, end - start, intervals))
        elapsed = end - t0
        if ep.failed_ops or (elapsed + runs[-1].seconds / 2 >= seconds and (tracer is None or len(runs) >= 2)):
            return runs


def tally(runs: list[Run]) -> tuple[int, int, list[str]]:
    """(attempted, failed, failed check names) over all episodes: ops and
    output checks, including byte-identical outputs across episodes."""
    attempted = failed = 0
    failures = []
    reference = runs[0].episode.output
    for i, run in enumerate(runs):
        ep = run.episode
        checks = list(ep.checks)
        if i > 0:
            kind = "traced" if run.traced else "untraced"
            checks.append((f"episode {i} ({kind}) output identical to episode 0", ep.output == reference))
        attempted += ep.ops + len(checks)
        failed += ep.failed_ops + sum(not ok for _, ok in checks)
        failures += [name for name, ok in checks if not ok]
    return attempted, failed, failures


def rate(runs: list[Run]) -> float:
    """Tokens trained per second of episode wall time."""
    return sum(r.episode.tokens for r in runs) / sum(r.seconds for r in runs)


def end_to_end(runs: list[Run], setup_s: float, setup_n: int) -> tuple[dict, dict]:
    """(metrics, notes): name -> (value, unit, samples); notes are printed
    but not part of the result."""
    steps = [x for r in runs for x in r.step_intervals]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "tokens_per_s": (rate(runs), "tokens/s", f"{len(runs)} episodes"),
        "step_ms_p50": (1e3 * statistics.median(steps), "ms", f"{len(steps)} steps"),
        "setup_s": (setup_s, "s", f"{setup_n} set-ups"),
        "peak_rss_mb": (rss_mb, "MB", "1 process"),
    }
    notes = {}
    if len(steps) >= 100:  # at least ten samples above the 90th percentile
        notes["step_ms_p90"] = (1e3 * statistics.quantiles(steps, n=10)[-1], "ms", f"{len(steps)} steps")
    return metrics, notes


def per_layer(tracer, runs: list[Run], wl, state) -> dict:
    """The tracer's per-layer metrics plus the episode-level ones: FLOP
    rate, traced rate and tracing overhead against the untraced episodes."""
    traced = [r for r in runs if r.traced]
    plain = [r for r in runs if not r.traced]
    m = tracer.metrics(sum(r.episode.steps for r in traced))
    label = f"{len(plain)} untraced, {len(traced)} traced episodes"
    flops = wl.flops_per_episode(state) * len(plain)
    m["flops.model_gflops_per_s"] = (flops / sum(r.seconds for r in plain) / 1e9, "GFLOP/s", label)
    m["trace.tokens_per_s"] = (rate(traced), "tokens/s", label)
    m["trace.overhead_pct"] = (100 * (1 - rate(traced) / rate(plain)), "%", label)
    m["src.lines"] = (src_line_count(), "count", "src/**/*.py")
    return m


def run_one(args) -> int:
    import_chapterbank()
    import tracer as tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    import_s = time.perf_counter() - T_START
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    tracer = tracing.Tracer() if args.trace else None
    runs = run_episodes(wl, state, args.seconds, tracer)
    attempted, failed, failures = tally(runs)

    print(json.dumps({"env": environment(args)}))
    for name in failures:
        print(f"FAILED check: {name}")
    if args.trace:
        mapped, unmapped, problems = tracer.flops_join()
        attempted += 1
        failed += bool(problems)
        print(f"flops join: mapped {mapped}; unmapped {unmapped}")
        for problem in problems:
            print(f"FAILED flops join: {problem}")
        metrics = per_layer(tracer, runs, wl, state)
        notes = {}
    else:
        metrics, notes = end_to_end(runs, setup_s, len(setup_times))
    notes["error_rate"] = (failed / attempted, "fraction", f"{failed}/{attempted} operations")
    for name, (value, unit, samples) in {**metrics, **notes}.items():
        print(f"{args.workload:<16} {name:<36} {value:>14.6g} {unit:<9} {samples}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            return proc.returncode or 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
