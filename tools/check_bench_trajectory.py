#!/usr/bin/env python3
"""Bench-regression gate over fm-bench-trajectory-v1 documents.

Compares the ns/step timing points of one or more freshly produced trajectory
files (bench-smoke output) against a committed trajectory history and fails on
regressions beyond a tolerance. Noise-tolerant by construction: each
(series, point) key is compared against the *best* (minimum) value that key
ever recorded in the committed history, so a single slow historical run can
never mask a regression, and run-to-run jitter has to beat the all-time best
by the full tolerance before the gate trips.

Keys present only on one side are reported but never fail the gate (benches
grow new series over time, and scaled-down CI runs may skip points). A
--filter that leaves no shared key is an error, though: a gate aimed at one
series must not switch itself off when that series is renamed or removed.

Usage:
  tools/check_bench_trajectory.py --history GLOB [options] CURRENT.json ...

Options:
  --history GLOB     history files (required; pass multiple times for several
                     globs). There is no default: the committed BENCH_N.json
                     points were recorded at different bench scales, so the
                     caller names the ones that compare with this run. Files
                     of another schema (the benchmark/run.py ledger points
                     share the BENCH_N.json names) are skipped with a note on
                     stderr; every CURRENT file must be a trajectory.
  --tolerance PCT    max allowed regression in percent (default: 25)
  --filter SUBSTR    only check keys whose "series/point" contains SUBSTR
                     (e.g. "fig1c/flashmob-interleave" for the overhead gate);
                     exit 2 when no shared key matches
  --table FILE       also write the delta table to FILE (CI artifact)

Exit status: 0 clean, 1 regression past tolerance, 2 usage/schema error (no
--history, a CURRENT file that is not a trajectory, or no trajectory among the
history files) or a --filter that matches no shared point.
"""

import argparse
import glob
import json
import os
import sys


SCHEMA = "fm-bench-trajectory-v1"


def load_points(path):
    """Returns {(series, point): value} for the ns/step points of one file,
    or None when the file is not an fm-bench-trajectory-v1 document."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return None
    points = {}
    for p in doc.get("points", []):
        if p.get("unit") != "ns/step":
            continue  # depths, ratios etc. are not timing points
        points[(p["series"], p["point"])] = float(p["value"])
    return points


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("current", nargs="+", help="fresh trajectory JSON")
    parser.add_argument("--history", action="append", required=True)
    parser.add_argument("--tolerance", type=float, default=25.0)
    parser.add_argument("--filter", default="")
    parser.add_argument("--table", default="")
    args = parser.parse_args()

    history_files = sorted(set(sum((glob.glob(g) for g in args.history), [])))
    if not history_files:
        print(f"error: no history files match {args.history}", file=sys.stderr)
        return 2

    try:
        best = {}  # key -> (value, file)
        trajectories = []
        for path in history_files:
            points = load_points(path)
            if points is None:
                print(f"note: skipping history {path}: not an {SCHEMA} "
                      "document", file=sys.stderr)
                continue
            trajectories.append(path)
            for key, value in points.items():
                if key not in best or value < best[key][0]:
                    best[key] = (value, os.path.basename(path))
        current = {}  # key -> (value, file)
        for path in args.current:
            points = load_points(path)
            if points is None:
                raise ValueError(f"{path}: not an {SCHEMA} document")
            for key, value in points.items():
                current[key] = (value, os.path.basename(path))
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not trajectories:
        print(f"error: no {SCHEMA} document among the history files "
              f"{history_files}", file=sys.stderr)
        return 2

    def wanted(key):
        return args.filter in f"{key[0]}/{key[1]}"

    shared = sorted(k for k in current if k in best and wanted(k))
    only_current = sorted(k for k in current if k not in best and wanted(k))
    only_history = sorted(k for k in best if k not in current and wanted(k))

    lines = []
    lines.append(f"bench trajectory gate: tolerance {args.tolerance:g}%, "
                 f"{len(trajectories)} history files, "
                 f"{len(shared)} shared ns/step points")
    lines.append(f"{'series/point':<44} {'best':>10} {'current':>10} "
                 f"{'delta':>8}  status")
    regressions = []
    for key in shared:
        best_value, best_file = best[key]
        cur_value, _ = current[key]
        delta = ((cur_value - best_value) / best_value * 100
                 if best_value > 0 else 0.0)
        status = "ok"
        if delta > args.tolerance:
            status = "REGRESSION"
            regressions.append(key)
        elif delta < 0:
            status = "improved"
        lines.append(f"{key[0] + '/' + key[1]:<44} {best_value:>10.4g} "
                     f"{cur_value:>10.4g} {delta:>+7.1f}%  {status}"
                     f" (best: {best_file})")
    for key in only_current:
        lines.append(f"{key[0] + '/' + key[1]:<44} {'-':>10} "
                     f"{current[key][0]:>10.4g} {'':>8}  new (no history)")
    for key in only_history:
        lines.append(f"{key[0] + '/' + key[1]:<44} {best[key][0]:>10.4g} "
                     f"{'-':>10} {'':>8}  not in this run")
    if not shared:
        lines.append("warning: no overlapping ns/step points — nothing gated")
    lines.append(f"result: {len(regressions)} regression(s) past "
                 f"{args.tolerance:g}%")

    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.table:
        with open(args.table, "w") as f:
            f.write(table)
    if args.filter and not shared:
        print(f"error: --filter {args.filter!r} matches no point present in "
              "both the run and the history", file=sys.stderr)
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
