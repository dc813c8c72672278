"""pixelret benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {recorrect,build_model} \\
        --seed N --seconds S --trace {0,1}

Runs the workload's operations in a closed loop with one client until S
seconds have passed (at least one operation), checks every output, and
prints as its last line one JSON object: correct, attempted, failed, and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1),
as listed in BENCHMARK.json.  The full record (host, digests, latencies,
spans, tracing overhead) goes to perfbench/results/.  See README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import benchenv  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3  # in-process set-ups, and imports (this one plus fresh processes)
WARMUP_OPS = 1  # run and checked before the measured window, not timed
REF_EVERY_S = 0.5  # time the host reference between ops at most this often
# Tail percentile: the highest of these with at least 10 samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) per TAIL_LADDER; the maximum (p100) when the
    run has too few samples for any rung.
    """
    import numpy as np  # only after benchenv.prepare() has pinned BLAS

    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(latencies, p))
    return 100.0, max(latencies)


def peak_rss_mb() -> float:
    """Peak RSS of this process in MiB.  Forked workers are not added: the
    kernel starts a fork child's peak at the parent's RSS, pages they share.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_probes(argv: list[str], n: int) -> list[float]:
    """Import time of n fresh runs of this script, one after another."""
    times = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, __file__, *argv, "--import-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("recorrect", "build_model"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--results", type=Path, default=HERE / "results")
    ap.add_argument("--import-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    benchenv.prepare()
    from pixelret.errors import PixelretError

    import workloads
    from hostref import HostReference
    from tracer import Tracer

    import_s = time.perf_counter() - T_START
    if args.import_only:
        print(import_s)
        return 0
    import_runs = [import_s] + import_probes(
        sys.argv[1:] if argv is None else argv, SETUP_REPEATS - 1
    )
    tracer = Tracer(bool(args.trace))
    wl = workloads.WORKLOADS[args.workload](workloads.SCALES[args.scale], args.seed, tracer)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        tracer.spans.clear()
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    latencies: list[float] = []
    work: list[int] = []
    failures: list[str] = []
    failed_ops: list[int] = []
    ref = HostReference()
    ref.measure()  # pays for FFT plans and allocations; superseded next
    ref.measure()
    op_spans: list[tuple[float, float]] = []  # perf_counter around each op

    def run_op(i: int) -> None:
        if time.perf_counter() - ref.ends[-1] >= REF_EVERY_S:
            ref.measure()
        tracer.op = i
        t_op = time.perf_counter()
        try:
            seconds, px = wl.op(i)
            errs = wl.check(i)
        except PixelretError as e:
            seconds, px, errs = time.perf_counter() - t_op, 0, [f"op {i}: {e!r}"]
        op_spans.append((t_op, t_op + seconds))
        latencies.append(seconds)
        work.append(px)
        if errs:
            failed_ops.append(i)
            failures.extend(errs)

    for i in range(WARMUP_OPS):
        run_op(i)
    start = time.perf_counter()
    while len(latencies) == WARMUP_OPS or time.perf_counter() - start < args.seconds:
        run_op(len(latencies))
    tracer.op = None
    measured_s = time.perf_counter() - start
    ref.measure()  # the run after the last op
    result = wl.finish()
    failed = len(failed_ops)
    warmup_s, latencies, work = latencies[:WARMUP_OPS], latencies[WARMUP_OPS:], work[WARMUP_OPS:]
    op_refs = [ref.around(a, b) for a, b in op_spans[WARMUP_OPS:]]

    p, tail_s = tail(latencies)
    e2e = {
        "setup_s": statistics.median(import_runs) + statistics.median(setup_times),
        "op_p50_ref": statistics.median(s / r for s, r in zip(latencies, op_refs)),
        "print_iou": result["print_iou"],
        "peak_rss_mb": peak_rss_mb(),
    }
    # Wall-clock figures: printed and recorded, not gated (see README).
    wall = {
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "tail_ms": 1000.0 * tail_s,
        "px_per_s": statistics.median(px / s for px, s in zip(work, latencies)),
        "ref_p50_ms": 1000.0 * statistics.median(op_refs),
    }
    layer = {}
    if args.trace:
        layer = {m["name"]: 0.0 for m in spec["per_layer"]}
        layer.update(wl.layer_metrics())

    args.results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}"
    overhead = None
    untraced = args.results / f"{stem}-trace0.json"
    if args.trace and untraced.is_file():
        base = json.loads(untraced.read_text())
        traced = {**e2e, **wall}
        untraced_figures = {**base["end_to_end"], **base.get("wall", {})}
        overhead = {k: v - untraced_figures[k] for k, v in traced.items() if k in untraced_figures}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "host": benchenv.host_record(),
        "correct": failed == 0,
        "attempted": WARMUP_OPS + len(latencies),
        "failed": failed,
        "failures": failures,
        "warmup_ms": [1000.0 * s for s in warmup_s],
        "measured_s": measured_s,
        "import_runs_s": import_runs,
        "setup_runs_s": setup_times,
        "tail_percentile": p,
        "wall": wall,
        "ref_runs_ms": [1000.0 * s for s in ref.times],
        "op_refs_ms": [1000.0 * s for s in op_refs],
        "latency_samples": len(latencies),
        "latencies_ms": [1000.0 * s for s in latencies],
        "end_to_end": e2e,
        "per_layer": layer,
        "tracing_overhead": overhead,
        "digests": result["digests"],
        "details": result["details"],
        "spans": tracer.spans,
    }
    (args.results / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = layer if args.trace else e2e
    host = record["host"]
    print(
        f"host: {host['nproc']} CPUs, Python {host['python']}, numpy {host['numpy']}, "
        f"scipy {host['scipy']}, {host['blas']} at {host['blas_threads_in_use']} "
        f"thread(s) (pinned {host['blas_threads_pinned']}), commit {host['commit']}"
    )
    print(f"{args.workload} seed {args.seed}: {WARMUP_OPS} warm-up and {len(latencies)} timed "
          f"ops in {measured_s:.1f} s, {failed} failed")
    print(f"wall clock: median {wall['op_p50_ms']:.6g} ms, tail (p{p:g} of {len(latencies)} "
          f"samples) {wall['tail_ms']:.6g} ms, {wall['px_per_s']:.6g} px/s; "
          f"host reference median {wall['ref_p50_ms']:.6g} ms")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    for k, v in sorted(result["digests"].items()):
        print(f"digest {k}: {v}")
    if overhead is not None:
        print("tracing overhead (traced - untraced): "
              + ", ".join(f"{k} {v:+.6g}" for k, v in overhead.items()))
    for k, v in shown.items():
        print(f"{k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": WARMUP_OPS + len(latencies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
