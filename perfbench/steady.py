"""Steadiness report: repeat each workload and compare spreads to bounds.

Usage, from the root of a checkout::

    python3 perfbench/steady.py                       # 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --workloads serve_mixed_100k
    python3 perfbench/steady.py --sets 2 --traced     # drift between two sets

Each run is a fresh ``perfbench/run.py`` process with its own seed
(``--seed-base + i``).  For every end-to-end metric the report prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, which is the inter-quartile distance as a share of the
median, against the metric's bound from ``BENCHMARK.json``.  A spread
below a third of the bound is ``steady``; above the bound is ``NOISY``.
``setup_s`` has no spread limit, only the drift one.  With ``--sets 2``
the whole set repeats on the same seeds and the report adds how far the
second median moved from the first.  ``--traced`` adds one traced run
per workload and reports the tracing overhead (traced minus untraced
wall-clock p50 of a step or request, from the run records) and the
share of the traced step or request the top-level layers leave
unaccounted.  The raw results go to
``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)

from perfbench.stats import median, steadiness_rows, within_bound, worse_by  # noqa: E402
from perfbench.workloads import benchmark  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180 + 4 * seconds)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["record"] = next(
        (json.loads(line[len("record "):]) for line in lines if line.startswith("record ")),
        {},
    )
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    declared = benchmark()
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    specs = declared["end_to_end"]
    report = {}
    ok = True
    for workload in args.workloads:
        sets = []
        for _ in range(args.sets):
            runs = []
            for i in range(args.runs):
                result = run_once(workload, args.seed_base + i, args.seconds, 0)
                runs.append(result)
                failed = result["failed"]
                print(f"{workload} seed {result['seed']}: wall {result['wall_s']:.1f}s "
                      f"attempted {result['attempted']} failed {failed}", flush=True)
                ok &= failed == 0 and result["correct"]
            sets.append(runs)
        print(f"\n== {workload}: {args.runs} runs x {args.sets} set(s), "
              f"{args.seconds}s each ==")
        print(f"{'metric':<18}{'unit':<6}{'q1':>12}{'median':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  verdict")
        entry = {"sets": [[values(r) for r in runs] for runs in sets],
                 "records": [[r["record"] for r in runs] for runs in sets]}
        for s_index, runs in enumerate(sets):
            rows = steadiness_rows([values(r) for r in runs], specs)
            for row in rows:
                if row["name"] == "setup_s":
                    verdict = "(no spread limit)"
                else:
                    verdict = "steady" if row["steady"] else ("ok" if row["ok"] else "NOISY")
                    ok &= row["ok"]
                print(f"{row['name']:<18}{row['unit']:<6}{row['q1']:>12.4f}"
                      f"{row['median']:>12.4f}{row['q3']:>12.4f}"
                      f"{row['spread']:>9.4f}{row['bound']:>7.2f}  {verdict}"
                      + (f"  [set {s_index + 1}]" if args.sets > 1 else ""))
        if args.sets > 1:
            for spec in specs:
                meds = [median([values(r)[spec["name"]] for r in runs]) for runs in sets]
                drift = worse_by(meds[0], meds[-1], spec["better"])
                held = within_bound(meds[0], meds[-1], spec["better"], spec["bound"])
                verdict = "ok" if held else "DRIFT"
                ok &= held
                print(f"drift {spec['name']:<18} {meds[0]:.4f} -> {meds[-1]:.4f} "
                      f"worse by {drift:+.4f} (bound {spec['bound']})  {verdict}")
        if args.traced:
            traced = run_once(workload, args.seed_base, args.seconds, 1)
            layers = values(traced)
            untraced = median([r["record"]["wall_percentiles_ms"]["p50"] for r in sets[0]])
            overhead = layers["trace.p50_ms"] - untraced
            unaccounted = layers["trace.unaccounted_ms"]
            print(f"tracing overhead: traced p50 {layers['trace.p50_ms']:.3f} ms - "
                  f"untraced p50 {untraced:.3f} ms = {overhead:+.3f} ms; "
                  f"unaccounted by top-level layers {unaccounted:.3f} ms")
            entry["traced"] = layers
            entry["overhead_ms"] = overhead
        report[workload] = entry
        print(flush=True)

    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print("all spreads within bounds and all runs correct" if ok
          else "some metric is outside its bound or some run failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
