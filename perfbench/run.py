"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_slime_dynamic --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
program's layers in spans and reports the per-layer metrics instead
(the spans are written to ``.perfbench/trace-<workload>-<seed>.jsonl``).
Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATE_DIR = ROOT / ".perfbench"
DIGESTS = STATE_DIR / "digests.json"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Import ``perfbench`` from the checkout root and the program from
    # its ``src``, in place of the script's own directory.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    from perfbench import host

    host.pin_blas_threads()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    from perfbench import hostref, workloads
    from perfbench.stats import failed_share, samples_beyond
    from perfbench.tracing import Tracer

    declared = workloads.benchmark()
    names = [w["name"] for w in declared["workloads"]]
    module = workloads.module(args.workload) if args.workload in names else None
    if module is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    stamp = host.host_stamp()
    if stamp["client_threads"] > (stamp["nproc"] or 1):
        print(f"warning: {stamp['client_threads']} client threads exceed "
              f"nproc={stamp['nproc']}", file=sys.stderr)
    digests = _load_digests()
    tracer = Tracer(enabled=bool(args.trace))
    # the traced run reports layers only, so it needs no reference
    reference = None if args.trace else hostref.Reference(args.workload, args.seed)
    try:
        result = module.run_workload(args.workload, args.seed, args.seconds, tracer,
                                     digests, reference)
    finally:
        if reference is not None:
            reference.close()
    _save_digests(digests)
    if tracer.enabled:
        tracer.dump(STATE_DIR / f"trace-{args.workload}-{args.seed}.jsonl")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = result["record"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("host " + json.dumps(stamp, sort_keys=True))
    print("record " + json.dumps(record, sort_keys=True, default=str))
    print(f"tail_ms is p{record['tail_pct']:g} of {record['samples']} samples "
          f"({samples_beyond(record['samples'], record['tail_pct']):g} beyond it)")
    if args.trace:
        layers = result["layers"]
        absent = [m["name"] for m in declared["per_layer"] if m["name"] not in layers]
        if absent:
            print("layers that do not run on this workload (reported as 0): "
                  + ", ".join(absent))
        metrics = {
            m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared["per_layer"]
        }
    else:
        values = dict(result["metrics"], peak_rss_mb=peak_rss_mb)
        metrics = {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared["end_to_end"]
        }
    for name, metric in metrics.items():
        print(f"{args.workload}/{name} = {metric['value']:.6g} {metric['unit']}")
    failed = int(result["failed"])
    print(f"failed {failed} of {result['attempted']} operations "
          f"({failed_share(result['attempted'], failed):.2%})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _save_digests(digests: dict) -> None:
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(tmp, DIGESTS)


if __name__ == "__main__":
    sys.exit(main())
