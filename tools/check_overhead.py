#!/usr/bin/env python3
"""Profiler overhead gate (./ci.sh bench).

Reads the `profiler_overhead` records of one kernels_bench RunReport and
fails when the enabled profiler slows the end-to-end fine-tune step down by
more than the threshold (default 2%; DESIGN.md §11 states the contract).

kernels_bench times interleaved pairs of fine-tune steps in one process,
one step with the profiler off and one with it on
(obs::set_profiler_enabled), and records the median of the per-pair on/off
ratios. Pairing in one process cancels the drift that made two separate
profiler-off and profiler-on runs disagree by tens of percent on the same
code. The fine-tune step is the composite workload: every zone in the hot
path (tensor kernels, parallel_for, autograd, optimizer) fires there, so its
slowdown bounds what a real training step pays for observability.

Usage: check_overhead.py REPORT.json [threshold_pct]
"""

import json
import sys


def overhead_records(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "actcomp.run_report.v1":
        raise SystemExit(f"{path}: not an actcomp.run_report.v1 document")
    recs = [r for r in doc.get("records", []) if r.get("op") == "profiler_overhead"]
    if not recs:
        raise SystemExit(f"{path}: no profiler_overhead records")
    return recs


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__)
    threshold_pct = float(argv[2]) if len(argv) > 2 else 2.0

    failed = False
    for rec in sorted(overhead_records(argv[1]), key=lambda r: r["threads"]):
        overhead_pct = (rec["ratio"] - 1.0) * 100.0
        status = "ok" if overhead_pct < threshold_pct else "FAIL"
        print(f"finetune_step shape={rec['shape']} threads={rec['threads']}: "
              f"off {rec['ns_op'] / 1e6:.1f} ms, on {rec['ns_on'] / 1e6:.1f} ms "
              f"(medians), median on/off ratio over {rec['pairs']} pairs "
              f"{overhead_pct:+.2f}% [{status}]")
        if overhead_pct >= threshold_pct:
            failed = True
    if failed:
        print(f"profiler overhead exceeds {threshold_pct}% threshold",
              file=sys.stderr)
        return 1
    print(f"profiler overhead within {threshold_pct}% threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
