#!/usr/bin/env python3
"""Compares benchmark result sets written by `run.py --json`.

  python3 benchmark/compare.py BASE.json NEW.json   last set of each file
  python3 benchmark/compare.py FILE.json            first set vs last set

For each workload and end-to-end metric it prints both medians and quartiles,
the change and a verdict against the metric's bound in BENCHMARK.json:
  improved    every new value beats every base value
  unresolved  otherwise, when a quartile spread is wider than the bound
  regressed   otherwise, when worse by more than the bound
  same        none of the above
A gain claim needs the paired runs of the choosing-metrics method; this is
the screen before it.
error_rate may not rise at all. Per-layer deltas from the traced runs follow.
Exits 1 when a metric regressed or a workload's visit hash changed.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_sets(path):
    return json.loads(Path(path).read_text())["sets"]


def spread(m):
    return (m["p75"] - m["p25"]) / m["median"]


def verdict(base, new, better, bound):
    """Verdict and signed change (positive = worse) of one metric."""
    sign = 1 if better == "lower" else -1
    worse = sign * (new["median"] - base["median"]) / base["median"]
    if all(sign * (n - b) < 0 for n in new["values"] for b in base["values"]):
        return "improved", worse
    if max(spread(base), spread(new)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    return "same", worse


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    if len(argv) == 2:
        sets = load_sets(argv[1])
        if len(sets) < 2:
            sys.exit("%s holds one set; give two files" % argv[1])
        base, new = sets[0], sets[-1]
    else:
        base, new = load_sets(argv[1])[-1], load_sets(argv[2])[-1]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    bad = False
    print("%-16s %-18s %12s %12s %8s %8s %8s  %s"
          % ("workload", "metric", "base", "new", "change", "spread", "bound",
             "verdict"))
    for w, b in base["workloads"].items():
        n = new["workloads"].get(w)
        if n is None:
            print("%-16s missing from the new set" % w)
            bad = True
            continue
        for name, m in bounds.items():
            if name not in b["end_to_end"] or name not in n["end_to_end"]:
                continue
            bm, nm = b["end_to_end"][name], n["end_to_end"][name]
            v, worse = verdict(bm, nm, m["better"], m["bound"])
            bad |= v == "regressed"
            print("%-16s %-18s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%%  %s"
                  % (w, name, bm["median"], nm["median"], worse * 100,
                     max(spread(bm), spread(nm)) * 100, m["bound"] * 100, v))
            print("%-16s %-18s %12s %12s" % (
                "", "  p25..p75", "%.4g..%.4g" % (bm["p25"], bm["p75"]),
                "%.4g..%.4g" % (nm["p25"], nm["p75"])))
        rose = n["error_rate"] > b["error_rate"]
        bad |= rose
        print("%-16s %-18s %12.6g %12.6g %8s %8s %8s  %s"
              % (w, "error_rate", b["error_rate"], n["error_rate"], "", "", "0",
                 "regressed" if rose else "same"))
        same_hash = b["visit_hash"] == n["visit_hash"]
        bad |= not same_hash
        print("%-16s %-18s %12s %12s %8s %8s %8s  %s"
              % (w, "visit_hash", b["visit_hash"], n["visit_hash"], "", "", "",
                 "same" if same_hash else "CHANGED"))

    print()
    print("%-16s %-28s %12s %12s %8s" % ("workload", "per-layer metric", "base",
                                         "new", "change"))
    for w, b in base["workloads"].items():
        n = new["workloads"].get(w, {"per_layer": {}})
        for name, bm in b["per_layer"].items():
            if name not in n["per_layer"]:
                continue
            bv, nv = bm["median"], n["per_layer"][name]["median"]
            change = "%+7.1f%%" % ((nv - bv) / bv * 100) if bv else ""
            print("%-16s %-28s %12.6g %12.6g %8s" % (w, name, bv, nv, change))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
