#!/usr/bin/env python3
"""Kernel throughput gate (./ci.sh bench).

Compares a fresh `kernels_bench --quick` RunReport against the committed
baseline (bench/baselines/BENCH_kernels.json) and fails when any shared
(op, shape, threads) record regresses by more than the threshold. The
threshold is the third argument; ./ci.sh bench sets it (50% — wide enough
to absorb shared-runner noise, tight enough to catch the dispatch landing
in the wrong SIMD tier or a kernel falling off its fast path).

Rate metric per record: gflops when present, else gb_s, else 1e9/ns_op
(finetune_step reports no bandwidth). matmul2d_seed is skipped — it is the
preserved seed-repo loop kept only as a speedup reference, and its own
speed drifts with the box. Baseline-only keys (the full sweep emits more
shapes than --quick) are reported as skipped, never failed; at least one
shared record is required.

The current run must also carry the codec records of the serialize path:
`topk(...)` and `randk(...)` encode/decode, and at least one `lossless(...)`
record (the per-tier encode/decode GB/s of standard_lossless_codecs(), see
WIRE_FORMATS.md §6); the `gemm_small_<tier>` records, the in-place GEMMs
of decode and the attention products; the `gemm_edge_<tier>` records, the
packed GEMM whose ragged right edge runs on the edge block; and the strided
operands, `gemm_at_<tier>` and `gemm_bt_<tier>` (a Linear backward's
transposed A and B) and `gemm_kcache_<tier>` (decode's score product over
the KV cache's Kᵀ rows); and the row scans, `row_max_<tier>` (softmax's
row max) and `row_minmax_<tier>` (the quantizer's row range), portable
loops that only vectorize as long as the compiler keeps doing so — their
silent disappearance from kernels_bench would otherwise leave those
kernels ungated.

Usage: check_kernel_perf.py BASELINE.json CURRENT.json THRESHOLD_PCT
"""

import json
import sys

# Op families the current run must measure (op-name prefixes).
REQUIRED_OPS = ("topk(", "randk(", "lossless(", "gemm_small_", "gemm_edge_",
                "gemm_at_", "gemm_bt_", "gemm_kcache_", "row_max_",
                "row_minmax_")


def kernel_records(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "actcomp.run_report.v1":
        raise SystemExit(f"{path}: not an actcomp.run_report.v1 document")
    out = {}
    for rec in doc.get("records", []):
        op = rec.get("op")
        if op is None or op == "matmul2d_seed":
            continue
        out[(op, rec["shape"], rec["threads"])] = rec
    if not out:
        raise SystemExit(f"{path}: no kernel records")
    return out


def rate(rec):
    if rec.get("gflops", -1.0) > 0.0:
        return rec["gflops"], "GFLOP/s"
    if rec.get("gb_s", 0.0) > 0.0:
        return rec["gb_s"], "GB/s"
    return 1e9 / rec["ns_op"], "op/s"


def main(argv):
    if len(argv) != 4:
        raise SystemExit(__doc__)
    base = kernel_records(argv[1])
    cur = kernel_records(argv[2])
    threshold_pct = float(argv[3])

    compared = 0
    failed = skipped = 0
    for key in sorted(base):
        if key not in cur:
            skipped += 1
            continue
        b, unit = rate(base[key])
        c, _ = rate(cur[key])
        delta_pct = (c / b - 1.0) * 100.0
        status = "ok" if delta_pct > -threshold_pct else "FAIL"
        op, shape, threads = key
        print(f"{op} {shape} t={threads}: baseline {b:.2f} {unit}, "
              f"current {c:.2f} {unit} ({delta_pct:+.1f}%) [{status}]")
        compared += 1
        if delta_pct <= -threshold_pct:
            failed += 1
    if skipped:
        print(f"({skipped} baseline-only records skipped — full-sweep shapes "
              f"not measured by --quick)")
    if compared == 0:
        raise SystemExit("no records shared between baseline and current run")
    for prefix in REQUIRED_OPS:
        if not any(op.startswith(prefix) for op, _, _ in cur):
            raise SystemExit(f"current run has no {prefix}... records — "
                             f"kernels_bench stopped measuring them")
    if failed:
        print(f"{failed} kernel record(s) regressed more than "
              f"{threshold_pct}% vs committed baseline", file=sys.stderr)
        return 1
    print(f"kernel throughput within {threshold_pct}% of baseline "
          f"({compared} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
