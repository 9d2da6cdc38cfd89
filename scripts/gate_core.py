"""Shared comparison core for the CI regression gates.

`bench_gate.py` (performance) and `security_gate.py` (robustness) are
thin CLIs over this module: JSON loading, metric extraction, tolerance
math and the pass/fail report all live here so the two gates cannot
drift apart on semantics.

Tolerance modes:

* relative (`absolute=False`): the limit is `base * (1 ± tolerance)` —
  right for throughput-style metrics whose scale is arbitrary;
* absolute (`absolute=True`): the limit is `base ± tolerance` in the
  metric's own unit — right for percentages like EER, where a relative
  tolerance degenerates at base 0.
"""

import json


def load(path):
    """Parses the JSON document at `path` (raises OSError/ValueError)."""
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def gated_metrics(doc):
    """Extracts {name: (value, direction)} from a gate artifact.

    Every gate file holds a top-level `"metrics"` object mapping
    name -> {"value": float, "direction": "higher"|"lower"}. Raises
    ValueError when it is missing or empty.
    """
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("no gateable metrics (expected a 'metrics' object)")
    out = {}
    for name, spec in metrics.items():
        direction = spec.get("direction", "higher")
        if direction not in ("higher", "lower"):
            raise ValueError(f"metric {name}: bad direction {direction!r}")
        out[name] = (float(spec["value"]), direction)
    return out


def metric_limit(base, direction, tolerance, absolute=False):
    """The worst acceptable current value for a baseline of `base`."""
    delta = tolerance if absolute else abs(base) * tolerance
    if direction == "higher":
        return base - delta
    return base + delta


def within(cur, limit, direction):
    """True when `cur` is on the acceptable side of `limit`."""
    if direction == "higher":
        return cur >= limit
    return cur <= limit


def compare_metrics(baseline, current, tolerance, gate_name, absolute=False):
    """Gates every metric present in BOTH dicts; reports the rest.

    `baseline`/`current` map name -> (value, direction). Metrics only
    one side has are reported but not gated, so adding a new metric
    doesn't fail the gate until its baseline is committed. Returns the
    list of failed metric names; prints one line per metric.
    """
    failed = []
    tol_label = f"{tolerance:g}pp" if absolute else f"{tolerance:.0%}"
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline or name not in current:
            side = "baseline" if name not in current else "current"
            print(f"{gate_name}: {name}: only in {side} — not gated")
            continue
        base, direction = baseline[name]
        cur = current[name][0]
        limit = metric_limit(base, direction, tolerance, absolute=absolute)
        ok = within(cur, limit, direction)
        bound = "floor" if direction == "higher" else "ceiling"
        print(
            f"{gate_name}: {name}: baseline {base:.2f}, current {cur:.2f}, "
            f"{bound} {limit:.2f} ({tol_label} tolerance) -> "
            f"{'PASS' if ok else 'FAIL'}"
        )
        if not ok:
            failed.append(name)
    return failed


def soft_pass_summary(gate_name, baseline_path, current):
    """Prints the missing-baseline soft-pass line for `current` metrics."""
    summary = ", ".join(f"{k} {v:.2f}" for k, (v, _) in sorted(current.items()))
    print(
        f"{gate_name}: no baseline at {baseline_path} — soft pass "
        f"(current: {summary}; commit the uploaded artifact to "
        f"enable the gate)"
    )
