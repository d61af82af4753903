"""Benchmark of ielab: training and tagging throughput on three workloads.

Run from the repository root:

    python3 bench/run.py --workload short-sum --seed 1 --seconds 20 --trace 0

With `--trace 0` the run prints the end-to-end metrics of an untraced run;
with `--trace 1` it prints the per-layer metrics of a traced run and writes
its spans under bench/out/. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
when every correctness check passed, 1 when one failed, and 2 when ielab
cannot be imported from this checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("short-sum", "long-concat", "image-pages")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import ielab
    except ImportError as exc:
        print(f"cannot import ielab from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(ielab.__file__).resolve().is_relative_to(src):
        print(f"ielab was imported from {ielab.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from bench import harness
    from bench.workloads import WORKLOADS, Gate

    w = WORKLOADS[args.workload]
    gate = Gate()
    metrics, diagnostics = {}, {}
    try:
        if args.trace:
            out_dir = ROOT / "bench" / "out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{w.name}-seed{args.seed}.json"
            metrics, diagnostics = harness.trace(w, args.seed, gate, spans)
        else:
            metrics, diagnostics = harness.measure(w, args.seed, args.seconds,
                                                   gate)
    except Exception:  # reported as a failed operation, never a pass
        traceback.print_exc()
        gate.check("run completed", False, "raised; see the traceback on stderr")

    samples = diagnostics.get("samples", {})
    for name, (value, unit) in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{w.name:12s} {name:42s} {value:14.6g} {unit}{n}")
    diagnostics.update(workload=w.name, seed=args.seed, trace=args.trace,
                       failed_share=gate.failed / max(gate.attempted, 1),
                       failures=gate.failures,
                       machine=harness.machine_record())
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": gate.failed == 0, "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
