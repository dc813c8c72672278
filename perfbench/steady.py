"""Steadiness check for the benchmark.

Runs run.py once per (set, workload, seed) with tracing off and, for each
set and workload, reports every end-to-end metric's median and its
interquartile range as a share of the median (statistics.quantiles, n=4).
It fails when
  - a run fails, or reports failed operations,
  - a spread (setup_s excepted) reaches its bound from BENCHMARK.json,
  - a later set's median is worse than the first set's by more than the
    bound, or
  - two runs of one workload and seed give different output digests.
Spreads of a third of the bound or more are flagged, not failed.

    python3 perfbench/steady.py --seeds 1-10 --sets 2 [--workloads recorrect ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, results: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        "--results", str(results),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((results / f"{workload}-full-seed{seed}-trace0.json").read_text())
    return {"out": out, "digests": record["digests"], "wall": wall,
            "tail": f"p{record['tail_percentile']:g}/n={record['latency_samples']}"}


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else 0.0


def worse_by(first: float, later: float, better: str) -> float:
    """Share by which `later` is worse than `first` (negative when better)."""
    d = (later - first) if better == "lower" else (first - later)
    return d / abs(first) if first else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--results", type=Path, default=HERE / "results")
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    metrics = spec["end_to_end"]
    problems: list[str] = []
    summary: dict = {}
    digests: dict = {}
    for s in range(args.sets):
        for wl in args.workloads:
            runs = []
            for seed in seeds:
                r = run_once(wl, seed, spec["run_seconds"], args.results)
                runs.append(r)
                o = r["out"]
                print(f"set {s} {wl} seed {seed}: {r['wall']:.1f}s wall, tail {r['tail']}, "
                      + ", ".join(f"{k}={v['value']:.5g}" for k, v in o["metrics"].items()),
                      flush=True)
                if not o["correct"] or o["failed"]:
                    problems.append(f"set {s} {wl} seed {seed}: {o['failed']} failed ops")
                prev = digests.setdefault((wl, seed), r["digests"])
                if prev != r["digests"]:
                    problems.append(f"{wl} seed {seed}: digests differ between runs")
            for m in metrics:
                name = m["name"]
                med, sp = spread([r["out"]["metrics"][name]["value"] for r in runs])
                row = summary.setdefault(wl, {}).setdefault(name, [])
                row.append({"median": med, "spread": sp})
                flag = ""
                if name != "setup_s" and sp >= m["bound"]:
                    flag = "  FAIL: spread >= bound"
                    problems.append(f"set {s} {wl} {name}: spread {sp:.3f} >= bound {m['bound']}")
                elif name != "setup_s" and sp >= m["bound"] / 3:
                    flag = "  (spread >= bound/3)"
                if s > 0:
                    w = worse_by(row[0]["median"], med, m["better"])
                    if w > m["bound"]:
                        flag += f"  FAIL: {w:.3f} worse than set 0"
                        problems.append(f"set {s} {wl} {name}: median {w:.3f} worse than set 0")
                print(f"  {wl:12s} {name:12s} median {med:.6g} {m['unit']:6s} "
                      f"spread {sp:.4f} (bound {m['bound']}){flag}", flush=True)
    args.results.mkdir(parents=True, exist_ok=True)
    (args.results / "steady.json").write_text(
        json.dumps({"seeds": seeds, "summary": summary, "problems": problems}, indent=1) + "\n"
    )
    for p in problems:
        print("PROBLEM:", p)
    print("steady" if not problems else "NOT steady")
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
