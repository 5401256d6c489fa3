"""Benchmark of the locallearn package.

Run from the root of a checkout:

    python3 bench/run.py --workload fused-interleaved --seed 1 --seconds 10 --trace 0

It generates the workload's inputs from ``--seed`` (``gen.py``, in a child
process), sets the workload up, runs passes of its end-to-end operation for
``--seconds`` seconds (at least one pass), checks the outputs, and prints
every metric with its unit.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  Every workload has each of
them; the names in brackets are what they mean on the fused workloads and
on ``bovw-textures``, and are printed as well:

* ``setup_s``: set-up a fresh process pays before its first result
  (import, warm-up; for textures also training-image SIFT and
  ``build_vocab``), excluding input generation.
* ``run_s`` [``pipeline_s`` | ``pass_s``]: wall time of one pass (a
  manifest ``run_pipeline``, or encoding every test image plus
  leave-one-out OvA SVMs on the encodings and a D/S/D ``dsd_train``).
* ``throughput_per_s`` [``local_queries_per_s`` | ``encode_images_per_s``]:
  local-SVM test queries over the program's own ``BatchTiming.total_s``, or
  test images through ``read_pgm``, ``dense_sift`` and ``encode``, per second.
* ``accuracy`` [``local_accuracy`` | ``bovw_accuracy``] and
  ``baseline_accuracy`` [``global_accuracy`` | ``dsd_val_accuracy``].
* ``peak_rss_mb``: peak RSS of this process (``getrusage``).
* ``ok_ops_frac``: operations that did not raise, over operations attempted
  (printed also as ``failed_ops_frac``).

Timings are medians over the repeats of identical work a run makes: over
several fresh set-up processes, and over the passes on the same inputs.
Every repeat is kept in the run record.  On a shared host the speed of the
vCPU can drop by 1.5x or more for minutes at a time, and every timing of a
run then moves with it.

``--trace 1`` runs one pass untraced, then the same pass traced, and
reports the per-layer metrics of ``layers.py``, including the tracing
overhead against the untraced pass.  Spans go to ``bench/_out``.

BLAS runs one thread and the program one worker, so the two together stay
within the two cores the benchmark is sized for.  The record of each run
(versions, thread counts, seed, source size, every metric with its base)
is written to ``bench/_out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
WORK = BENCH / "_work"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("fused-interleaved", "fused-separable", "bovw-textures")
SETUP_PROBES = {"fused-interleaved": 6, "fused-separable": 6, "bovw-textures": 4}
CHILD_TIMEOUT_S = 150

# The end-to-end metrics every workload reports, with their units.
UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "throughput_per_s": "1/s",
    "accuracy": "fraction",
    "baseline_accuracy": "fraction",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "fraction",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="locallearn benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "locallearn").rglob("*.py")))


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def run_record(args, meta) -> dict:
    import numpy as np
    from workloads import WORKERS

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "blas_threads": BLAS_THREADS,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "workers": WORKERS, "src_lines": src_line_count(), "generator": meta,
    }


def probe_setup(workload: str, work: Path, seed: int) -> float:
    """Seconds one fresh process spends on the workload's set-up."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(work), str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, wl, ops, work: Path):
    probes = []

    def probe_setups(n: int) -> None:
        for _ in range(n):
            ok, seconds = ops.run("setup probe", probe_setup, args.workload, work, args.seed)
            if ok:
                probes.append(seconds)

    # Half the set-up probes run before the passes and half after them, so
    # that a slow spell of the host does not cover them all.
    n_probes = SETUP_PROBES[args.workload]
    probe_setups(n_probes // 2)
    outcomes = []
    ok, _ = ops.run("setup", wl.setup)
    if ok:
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or not outcomes:
            outcome = wl.run(ops)
            if outcome is not None:
                outcomes.append(outcome)
            elif time.perf_counter() - start >= args.seconds:
                break
    probe_setups(n_probes - n_probes // 2)
    if not outcomes:
        return {}, {}, ["no pass completed"], {}
    first = outcomes[0]
    metrics = {
        "setup_s": statistics.median(probes) if probes else 0.0,
        "run_s": statistics.median(o.wall_s for o in outcomes),
        "throughput_per_s": first.items / statistics.median(o.items_s for o in outcomes),
        "accuracy": first.accuracy,
        "baseline_accuracy": first.baseline_accuracy,
        "peak_rss_mb": peak_rss_mb(),
        "ok_ops_frac": (ops.attempted - ops.failed) / ops.attempted,
    }
    bases = {
        "setup_s": {"probes_s": probes},
        "run_s": {"passes_s": [o.wall_s for o in outcomes]},
        "throughput_per_s": {"items_per_pass": first.items,
                             "items_s": [o.items_s for o in outcomes]},
        "accuracy": {"test_samples": first.extra["test_samples"]},
        "ok_ops_frac": {"attempted": ops.attempted},
    }
    named = {wl.NAMES.get(name, name): (value, UNITS[name]) for name, value in metrics.items()}
    named["failed_ops_frac"] = (ops.failed / ops.attempted, "fraction")
    named.update(wl.named(outcomes))
    problems = wl.check(outcomes, OUT / f"digest-{args.workload}-s{args.seed}.txt")
    return metrics, bases, problems, named


def measure_traced(args, wl, ops):
    from layers import LayerProbe, layer_metrics
    from tracing import Tracer
    from workloads import TEXTURE_SHAPE

    ok, _ = ops.run("setup", wl.setup)
    if not ok:
        return {}, {}, ["set-up failed"]
    t0 = time.perf_counter()
    wl.prepare()
    plain = wl.run(ops)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.run_id = f"{args.workload}:{args.seed}"
    probe = LayerProbe(tracer)
    probe.attach()
    try:
        t0 = time.perf_counter()
        with tracer.span("bench.prepare"):
            wl.prepare()
        with tracer.span("bench.run"):
            traced = wl.run(ops, tracer)
        traced_s = time.perf_counter() - t0
    finally:
        probe.detach()
    tracer.dump(OUT / f"spans-{args.workload}-s{args.seed}.json")
    metrics, bases = layer_metrics(probe, untraced_s, traced_s,
                                   image_size=(TEXTURE_SHAPE[1], TEXTURE_SHAPE[0]))
    bases.update(spans=len(tracer.spans), missing=tracer.missing)
    if plain is None or traced is None:
        return metrics, bases, ["a pass failed"]
    problems = wl.check([plain, traced], OUT / f"digest-{args.workload}-s{args.seed}.txt")
    problems += wl.check_trace(metrics, bases)
    return metrics, bases, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "locallearn" / "__init__.py").is_file():
        sys.stderr.write(f"error: no locallearn sources under {SRC}\n")
        return 2
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import locallearn

    if SRC not in Path(locallearn.__file__).resolve().parents:
        sys.stderr.write(f"error: imported locallearn from {locallearn.__file__}, not {SRC}\n")
        return 2
    from layers import PER_LAYER
    from workloads import WORKLOADS, Ops

    OUT.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        subprocess.run([sys.executable, str(BENCH / "gen.py"), args.workload,
                        str(args.seed), str(work)],
                       cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        meta = json.loads((work / "meta.json").read_text())
        wl = WORKLOADS[args.workload](args.workload, work, args.seed)
        ops = Ops()
        if args.trace:
            metrics, bases, problems = measure_traced(args, wl, ops)
            units = {name: unit for name, unit, _ in PER_LAYER}
            named = {name: (metrics.get(name, 0.0), unit) for name, unit in units.items()}
        else:
            metrics, bases, problems, named = measure(args, wl, ops, work)
            units = UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not problems and ops.failed == 0
    record = run_record(args, meta)
    record.update(metrics=metrics, named=named, bases=bases, problems=problems,
                  attempted=ops.attempted, failed=ops.failed, correct=correct)
    (OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in named.items():
        print(f"{args.workload:<18} {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
