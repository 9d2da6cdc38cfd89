#!/usr/bin/env python3
"""Bench-regression gate for the CI `bench-gate` job.

Compares a fresh benchmark run against its committed baseline and fails
the job when any gated metric regressed by more than the tolerance.

  bench_gate.py <baseline.json> <current.json> [--tolerance 0.20]

Every artifact (`results/BENCH_throughput.json`, `BENCH_kernels.json`,
`BENCH_obs.json`, `BENCH_streaming.json`) holds a top-level `"metrics"`
object mapping name -> {"value": float, "direction": "higher"|"lower"};
a file without one is refused. Every metric present in BOTH files is
gated in its stated direction; metrics only one side has are reported
but not gated (so adding a new kernel doesn't fail the gate until its
baseline is committed). For the throughput artifact that is
`peak_sessions_per_sec`; for the kernels artifact it covers the
production MFCC front end against its oracle (`extract_fast_speedup`),
the fast-path LLR ratios (`llr_prepared_exact_speedup`,
`llr_pruned_speedup`) and the batched-vs-sequential scoring ratio
(`llr_batched_speedup`). The quantized-vs-exact ratio is deliberately
informational only (under `"info"` as `llr_quantized_speedup`):
quantization trades wall clock for a 4x smaller model, so a
higher-is-better gate on it would punish the intended tradeoff.

The comparison math is shared with `security_gate.py` via `gate_core`.

Exit codes: 0 pass (including the soft-pass when the baseline file is
missing — a fresh branch should not be blocked on a number it cannot
have yet), 1 regression or unreadable current run.
"""

import sys

import gate_core


def main(argv):
    args = []
    tolerance = 0.20
    it = iter(argv[1:])
    for a in it:
        if a == "--tolerance":
            tolerance = float(next(it, "0.20"))
        elif a.startswith("--tolerance="):
            tolerance = float(a.split("=", 1)[1])
        elif not a.startswith("--"):
            args.append(a)
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    baseline_path, current_path = args

    try:
        current = gate_core.gated_metrics(gate_core.load(current_path))
    except (OSError, ValueError, KeyError) as e:
        print(f"bench-gate: cannot read current run {current_path}: {e}")
        return 1

    try:
        baseline = gate_core.gated_metrics(gate_core.load(baseline_path))
    except OSError:
        # Soft pass: no baseline committed yet. The fresh JSON is uploaded
        # as an artifact so it can be committed as the new baseline.
        gate_core.soft_pass_summary("bench-gate", baseline_path, current)
        return 0
    except (ValueError, KeyError) as e:
        print(f"bench-gate: baseline {baseline_path} is not usable: {e}")
        return 1

    failed = gate_core.compare_metrics(baseline, current, tolerance, "bench-gate")
    if failed:
        print(
            f"bench-gate: regressed beyond tolerance: {', '.join(failed)}. "
            "If the slowdown is intentional, regenerate the baseline with "
            "the matching magshield-bench binary (exp_throughput / "
            "exp_kernels, `--quick`) and commit the refreshed results/ "
            "JSON."
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
