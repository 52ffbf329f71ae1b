#!/usr/bin/env python3
"""Warn-only bench regression check.

Diffs the per-row medians of a fresh bench JSON (BENCH_scs.json,
BENCH_query.json, BENCH_serve.json) against a committed baseline and prints
a GitHub-flavored markdown summary. Rows are matched on --keys; a row
regresses when

    current > baseline * (1 + tolerance)

or, with --higher-is-better (throughput metrics such as achieved_qps),

    current < baseline * (1 - tolerance)

The tolerance band is deliberately wide: the committed baselines were
recorded on a developer box, CI runners differ in both absolute speed and
noise, and this step exists to make *large* SCS/query regressions visible
in the job summary — not to gate merges. The exit code is 0.

With --exact, --metric takes a comma-separated list of deterministic
columns (work counters, not timings). Every baseline row must be present
in the current file with exactly the same values; any difference, missing
row or unreadable file exits 1, so the step gates.

Usage:
  check_bench_regression.py --current BENCH_scs.json \
      --baseline bench/baselines/BENCH_scs.baseline.json \
      --keys dataset,weights,kernel --metric median_us \
      --tolerance 0.5 --label "SCS kernels"
  check_bench_regression.py --current BENCH_scs.json \
      --baseline bench/baselines/BENCH_scs.baseline.json \
      --keys dataset,weights,alpha,beta,kernel \
      --metric validations,incremental_probes,edges_processed \
      --exact --label "SCS work counters"
"""

import argparse
import json
import sys


def load_rows(path, keys, metrics):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        return None, f"cannot read {path}: {e}"
    rows = {}
    for row in data.get("results", []):
        if any(k not in row for k in keys + metrics):
            continue
        rows[tuple(str(row[k]) for k in keys)] = tuple(row[m] for m in metrics)
    return rows, None


def check_exact(args, keys, metrics, current, baseline):
    """Gating equality check of deterministic columns; returns the exit code."""
    diffs = [
        (key, base, current.get(key))
        for key, base in sorted(baseline.items())
        if current.get(key) != base
    ]
    columns = ", ".join(metrics)
    if baseline and not diffs:
        print(
            f"### {args.label}: all {len(baseline)} rows equal the committed "
            f"baseline ({columns})\n"
        )
        return 0
    print(
        f"### ❌ {args.label}: {len(diffs)}/{len(baseline)} rows differ from "
        f"the committed baseline ({columns}; exact, gating)\n"
    )
    print("| " + " | ".join(keys) + " | baseline | current |")
    print("|" + "---|" * (len(keys) + 2))
    for key, base, cur in diffs:
        shown = "missing" if cur is None else " / ".join(map(str, cur))
        base_shown = " / ".join(map(str, base))
        print(f"| {' | '.join(key)} | {base_shown} | {shown} |")
    print()
    return 1


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--current", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--keys", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--tolerance", type=float, default=0.5)
    p.add_argument("--label", default="bench")
    p.add_argument(
        "--exact",
        action="store_true",
        help="require every baseline row's --metric columns (comma list) to "
        "match exactly; exit 1 otherwise",
    )
    p.add_argument(
        "--higher-is-better",
        action="store_true",
        help="flag rows where current < baseline * (1 - tolerance) "
        "(for throughput metrics)",
    )
    args = p.parse_args()
    keys = args.keys.split(",")
    metrics = args.metric.split(",") if args.exact else [args.metric]

    current, err = load_rows(args.current, keys, metrics)
    if not err:
        baseline, err = load_rows(args.baseline, keys, metrics)
    if err:
        print(f"### {args.label}: check skipped\n\n{err}\n")
        return 1 if args.exact else 0
    if args.exact:
        return check_exact(args, keys, metrics, current, baseline)

    regressions = []
    compared = 0
    for key, (base_value,) in sorted(baseline.items()):
        if key not in current or base_value <= 0:
            continue
        compared += 1
        ratio = current[key][0] / base_value
        if args.higher_is_better:
            regressed = ratio < 1.0 - args.tolerance
        else:
            regressed = ratio > 1.0 + args.tolerance
        if regressed:
            regressions.append((key, base_value, current[key][0], ratio))

    band = f"-{args.tolerance:.0%}" if args.higher_is_better else f"+{args.tolerance:.0%}"
    direction = "under" if args.higher_is_better else "over"
    if not regressions:
        print(
            f"### {args.label}: {compared} rows at most {band} {direction} the "
            f"committed baseline ({args.metric}; improvements not flagged)\n"
        )
        return 0
    print(
        f"### ⚠️ {args.label}: {len(regressions)}/{compared} rows more than "
        f"{band} {direction} baseline ({args.metric}; warn-only, not gating)\n"
    )
    print("| " + " | ".join(keys) + " | baseline | current | ratio |")
    print("|" + "---|" * (len(keys) + 3))
    for key, base_value, cur_value, ratio in regressions:
        cells = " | ".join(key)
        print(f"| {cells} | {base_value:.1f} | {cur_value:.1f} | {ratio:.2f}x |")
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
