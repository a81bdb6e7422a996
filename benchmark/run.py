#!/usr/bin/env python3
"""FlashMob end-to-end benchmark.

Builds the tree's `fm` library with the tree's own CMake, compiles the
benchmark program (benchmark/fmbench.cc) against it, generates each workload's
graph from the seed, and runs fmbench in fresh processes.

  python3 benchmark/run.py --seed=N [--reps=7] [--json=FILE]
      Every workload: one discarded warm-up each, then the reps round-robin
      (A B C D A B C D ...), then one traced run each. Prints one line per
      metric: `workload metric median unit p25 p75 n`. --json appends this
      set, with its provenance, to FILE's "sets" list.
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      One workload for S seconds. The last stdout line is one JSON object:
      the end-to-end metrics (--trace 0), or the per-layer metrics from
      traced runs alternating with untraced ones (--trace 1).
  python3 benchmark/run.py --self-test
      Feeds corrupted records through the output checker.

Exits 1 if any output check fails or the tree cannot be built.
"""

import argparse
import fcntl
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-benchmark"
FMBENCH = BUILD / "fmbench"
WORKLOAD_DIR = BUILD / "workloads"
OUT_DIR = BUILD / "out"

RUN_TIMEOUT_S = 150
MIN_REPS = 3

# Metric name -> unit, for the end-to-end and per-layer metrics the
# benchmark reports.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

BUCKET_TOLERANCE = 0.02  # visit share vs edge share per degree bucket
STOP_TOLERANCE = 0.005   # relative, for walks with a stop probability


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build -------------------------------------------------------------------


def run_logged(cmd, cwd, log_file):
    with open(log_file, "a") as f:
        f.write("$ " + shlex.join(str(c) for c in cmd) + "\n")
        f.flush()
        proc = subprocess.run(cmd, cwd=cwd, stdout=f, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        tail = Path(log_file).read_text().splitlines()[-20:]
        sys.exit("build failed: %s\n%s" % (shlex.join(str(c) for c in cmd),
                                           "\n".join(tail)))


def engine_compile_command():
    """The compile command CMake recorded for src/core/engine.cc, as argv."""
    entries = json.loads((BUILD / "compile_commands.json").read_text())
    for e in entries:
        if Path(e["file"]).resolve() == ROOT / "src/core/engine.cc":
            argv = e["arguments"] if "arguments" in e else shlex.split(e["command"])
            return argv, e["directory"]
    sys.exit("build failed: no compile command for src/core/engine.cc")


def compile_flags(argv):
    """Compiler and flags of a recorded compile command, minus -o/-c and the source."""
    flags, skip = [], False
    for a in argv[1:]:
        if skip:
            skip = False
        elif a in ("-o", "-c"):
            skip = True
        elif not a.endswith(".cc"):
            flags.append(a)
    return argv[0], flags


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("error: %s holds no FlashMob source tree to build" % ROOT)
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            run_logged(["cmake", "-S", ROOT, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], ROOT, build_log)
        run_logged(["cmake", "--build", BUILD, "--target", "fm", "-j",
                    str(nproc())], ROOT, build_log)
        lib = BUILD / "src" / "libfm.a"
        src = ROOT / "benchmark" / "fmbench.cc"
        if (FMBENCH.is_file() and FMBENCH.stat().st_mtime > lib.stat().st_mtime
                and FMBENCH.stat().st_mtime > src.stat().st_mtime):
            return
        argv, directory = engine_compile_command()
        cxx, flags = compile_flags(argv)
        obj = BUILD / "fmbench.o"
        run_logged([cxx, *flags, "-o", obj, "-c", src], directory, build_log)
        run_logged([cxx, *flags, obj, lib, "-pthread", "-o", FMBENCH],
                   directory, build_log)


# ---- running fmbench ----------------------------------------------------------


def nproc():
    return len(os.sched_getaffinity(0))


def fmbench_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("FM_")}
    env["FM_THREADS"] = str(threads)
    return env


def fmbench(args, threads):
    return subprocess.run([str(FMBENCH), *args], env=fmbench_env(threads),
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def workload_graph(workload, seed):
    """Path of the workload's generated CSR, whether this call generated it,
    and the seconds generating it took."""
    WORKLOAD_DIR.mkdir(parents=True, exist_ok=True)
    path = WORKLOAD_DIR / ("%s-%d.csr" % (workload, seed))
    timing = path.with_suffix(".generate_s")
    if path.is_file() and timing.is_file():
        return path, False, float(timing.read_text())
    # Keep one graph per workload: the big ones are 85-165 MB each.
    for old in WORKLOAD_DIR.glob(workload + "-*"):
        old.unlink()
    start = time.monotonic()
    # One generator thread: its RNG streams are per worker.
    proc = fmbench(["--generate", "--workload=" + workload, "--seed=%d" % seed,
                    "--csr=%s" % path], threads=1)
    if proc.returncode != 0:
        sys.exit("error: generating %s failed: %s" % (workload, proc.stderr.strip()))
    generate_s = time.monotonic() - start
    timing.write_text("%.3f\n" % generate_s)
    return path, True, generate_s


def trace_path(workload, seed):
    return BUILD / ("trace-%s-%d.json" % (workload, seed))


def run_once(workload, seed, csr, traced):
    """One fmbench process. Returns its record; a failed run has an "error"."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    args = ["--workload=" + workload, "--seed=%d" % seed, "--csr=%s" % csr,
            "--out=%s" % (OUT_DIR / workload)]
    if traced:
        args.append("--trace=%s" % trace_path(workload, seed))
    try:
        proc = fmbench(args, threads=nproc())
    except subprocess.TimeoutExpired:
        return {"error": "timed out after %d s" % RUN_TIMEOUT_S}
    if proc.returncode != 0:
        return {"error": "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])}
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": "unparsable output: %r" % proc.stdout[-200:]}
    if traced:
        rec["trace"] = json.loads(trace_path(workload, seed).read_text())
    return rec


# ---- output checks -----------------------------------------------------------


def expected_pairs(walkers, steps, window):
    """Skip-gram pairs of `walkers` paths of steps+1 positions each."""
    length = steps + 1
    return walkers * 2 * (window * length - window * (window + 1) // 2)


def check_record(rec):
    """Failures found in one fmbench record; an empty list means correct."""
    if "error" in rec:
        return [rec["error"]]
    fails = []
    walkers, steps, total = rec["walkers"], rec["steps"], rec["total_steps"]
    p = rec["stop_probability"]
    if p == 0:
        if total != walkers * steps:
            fails.append("walker-steps %d != walkers*steps %d" % (total, walkers * steps))
        if rec["visit_sum"] != walkers + total:
            fails.append("visit sum %d != walkers + walker-steps %d"
                         % (rec["visit_sum"], walkers + total))
    else:
        survive = (1 - p) ** steps
        expected = walkers * (1 - survive) / p
        if abs(total / expected - 1) > STOP_TOLERANCE:
            fails.append("walker-steps %d not within %.1f%% of %.0f"
                         % (total, STOP_TOLERANCE * 100, expected))
        # A walker's stopping step samples a move but records no position.
        stopped = walkers + total - rec["visit_sum"]
        expected_stopped = walkers * (1 - survive)
        if abs(stopped / expected_stopped - 1) > STOP_TOLERANCE:
            fails.append("visit sum %d implies %d stopped walkers, expected %.0f"
                         % (rec["visit_sum"], stopped, expected_stopped))
    for b, (e, v) in enumerate(zip(rec["edge_share"], rec["visit_share"])):
        if abs(e - v) > BUCKET_TOLERANCE:
            fails.append("degree bucket %d: visit share %.4f vs edge share %.4f"
                         % (b, v, e))
    if rec["paths_valid"] is None:
        if rec["output_bytes"] != 8 * rec["vertices"]:
            fails.append("visit file is %d bytes, expected %d"
                         % (rec["output_bytes"], 8 * rec["vertices"]))
    else:
        if not rec["paths_valid"]:
            fails.append("a path steps along a non-edge")
        pairs = expected_pairs(walkers, steps, rec["window"])
        if rec["pairs"] != pairs:
            fails.append("pair count %d != %d" % (rec["pairs"], pairs))
        if rec["output_bytes"] != 8 * rec["pairs"]:
            fails.append("pair file is %d bytes for %d pairs"
                         % (rec["output_bytes"], rec["pairs"]))
    return fails


def check_runs(records):
    """Per-record failure lists, including visit hashes that differ from the
    first correct record's."""
    failures = [check_record(r) for r in records]
    reference = next((r["visit_hash"] for r, f in zip(records, failures) if not f),
                     None)
    for r, f in zip(records, failures):
        if not f and r["visit_hash"] != reference:
            f.append("visit hash %s != %s" % (r["visit_hash"], reference))
    return failures


def self_test():
    good = {
        "workload": "self-test", "vertices": 100, "walkers": 10, "steps": 4,
        "stop_probability": 0.0, "window": 2, "total_steps": 40, "visit_sum": 50,
        "visit_hash": "00000000000000aa", "edge_share": [0.4, 0.2, 0.2, 0.2],
        "visit_share": [0.405, 0.195, 0.2, 0.2], "pairs": 140,
        "output_bytes": 1120, "paths_valid": True,
    }
    cases = {
        "correct record": (good, False),
        "corrupted visit vector": (dict(good, visit_sum=49), True),
        "visit share off its edge share": (
            dict(good, visit_share=[0.43, 0.17, 0.2, 0.2]), True),
        "short pair count": (dict(good, pairs=139, output_bytes=1112), True),
        "pair file size": (dict(good, output_bytes=1119), True),
        "invalid path": (dict(good, paths_valid=False), True),
        "short walk": (dict(good, total_steps=39, visit_sum=49), True),
        "visit file size": (dict(good, paths_valid=None, output_bytes=799), True),
        "crashed run": ({"error": "exit 1"}, True),
    }
    stop = dict(good, stop_probability=0.15, steps=40, walkers=1000000,
                paths_valid=None, output_bytes=800)
    stop["total_steps"] = round(1000000 * (1 - 0.85 ** 40) / 0.15)
    stop["visit_sum"] = round(1000000 + stop["total_steps"] - 1000000 * (1 - 0.85 ** 40))
    cases["stop walk"] = (stop, False)
    cases["stop walk, lost visits"] = (dict(stop, visit_sum=stop["visit_sum"] - 20000),
                                       True)
    cases["stop walk, too few steps"] = (dict(stop, total_steps=stop["total_steps"] - 200000,
                                              visit_sum=stop["visit_sum"] - 200000), True)
    # The corpus-yt pair count as the design states it.
    ok = expected_pairs(570000, 40, 5) == 570000 * 2 * (5 * 41 - 15)
    for name, (rec, should_fail) in cases.items():
        caught = bool(check_record(rec))
        print("%-32s %s" % (name, "caught" if caught else "passes"))
        ok &= caught == should_fail
    hashes = check_runs([good, good, dict(good, visit_hash="00000000000000ab")])
    caught = [bool(f) for f in hashes] == [False, False, True]
    print("%-32s %s" % ("mismatched hash", "caught" if caught else "missed"))
    ok &= caught
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


# ---- metrics -----------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def layer_metrics(rec):
    """Per-layer metrics of one traced record, from its spans and step records."""
    spans = {s["name"]: s for s in rec["trace"]["spans"]}
    steps = rec["trace"]["steps"]

    def dur(name):
        return spans[name]["end"] - spans[name]["start"]

    run = spans["run"]
    top = [s for s in spans.values() if s["parent"] == run["id"]]
    engine = spans["engine.run"]
    walk_s = engine["walk_s"]
    scatter = sum(s["scatter_s"] for s in steps)
    sample = sum(s["sample_s"] for s in steps)
    gather = sum(s["gather_s"] for s in steps)
    live = sum(s["live"] for s in steps)
    scanned = sum(s["scanned"] for s in steps)
    per_vp = [sum(col) for col in zip(*(s["vp_walkers"] for s in steps))]
    step_ms = [(s["scatter_s"] + s["sample_s"] + s["gather_s"]) * 1e3 for s in steps]
    _, step_p50, step_p75 = quartiles(step_ms)
    total_steps = engine["total_steps"]
    out_mb = spans["output.write"]["bytes"] / 1e6
    return {
        "graph.load_s": dur("graph.load"),
        "graph.load_mb_per_s": spans["graph.load"]["bytes"] / 1e6 / dur("graph.load"),
        "graph.sort_s": dur("graph.sort"),
        "plan.build_s": dur("plan.build"),
        "plan.vps": spans["plan.build"]["vps"],
        "plan.ps_vps": spans["plan.build"]["ps_vps"],
        "plan.ps_step_share": engine["ps_steps"] / total_steps,
        # Run's time outside the timed walk: alias tables, presample
        # buffers, shuffle plan, visit-count merge.
        "engine.run_setup_s": dur("engine.run") - walk_s,
        "engine.other_s": engine["other_s"],
        "engine.episodes": engine["episodes"],
        "engine.step_ms_p50": step_p50,
        "engine.step_ms_p75": step_p75,
        "sample.s": sample,
        "sample.ns_per_step": sample * 1e9 / total_steps,
        "sample.walk_share": sample / walk_s,
        "sample.max_vp_walker_share": max(per_vp) / live,
        "shuffle.scatter_s": scatter,
        "shuffle.gather_s": gather,
        "shuffle.ns_per_slot": (scatter + gather) * 1e9 / scanned,
        "shuffle.live_slot_ratio": live / scanned,
        "shuffle.walk_share": (scatter + gather) / walk_s,
        "output.write_s": dur("output.write"),
        "output.mb": out_mb,
        "output.mb_per_s": out_mb / dur("output.write"),
        "trace.span_coverage": sum(s["end"] - s["start"] for s in top) / dur("run"),
    }


def summarize(values_by_metric):
    """metric -> (p25, median, p75, n)."""
    return {m: (*quartiles(v), len(v)) for m, v in values_by_metric.items() if v}


def collect(records, metrics):
    return {m: [r[m] for r in records] for m in metrics}


def layer_summary(traced, untraced_e2e_median):
    layers = [layer_metrics(r) for r in traced]
    values = collect(layers, [m for m in PER_LAYER if m != "trace.overhead_pct"])
    values["trace.overhead_pct"] = [
        (r["e2e_s"] - untraced_e2e_median) / untraced_e2e_median * 100 for r in traced]
    return summarize(values)


# ---- one workload for a fixed time (the BENCHMARK.json command) --------------


def timed_workload(workload, seed, seconds, trace):
    build()
    csr, generated, _ = workload_graph(workload, seed)
    # Warm-up (checked, not timed) loads the page cache; a graph generated
    # just now is already there.
    warm = [] if generated else [run_once(workload, seed, csr, traced=False)]
    timed, traced = [], []
    start = time.monotonic()
    last = 0.0
    while len(timed) + len(traced) < MIN_REPS or (
            time.monotonic() - start + last <= seconds):
        t0 = time.monotonic()
        use_trace = trace and len(traced) < len(timed)
        (traced if use_trace else timed).append(
            run_once(workload, seed, csr, traced=use_trace))
        last = time.monotonic() - t0
    records = warm + timed + traced
    failures = check_runs(records)
    for f in failures:
        for msg in f:
            log("check failed: %s: %s" % (workload, msg))
    failed = sum(1 for f in failures if f)
    timed_ok = [r for r, f in zip(timed, failures[len(warm):]) if not f]
    traced_ok = [r for r, f in zip(traced, failures[len(warm) + len(timed):])
                 if not f]
    metrics = {}
    if trace and timed_ok and traced_ok:
        e2e = statistics.median(r["e2e_s"] for r in timed_ok)
        summary = layer_summary(traced_ok, e2e)
        metrics = {m: {"value": summary[m][1], "unit": PER_LAYER[m]}
                   for m in PER_LAYER}
    elif not trace and timed_ok:
        summary = summarize(collect(timed_ok, END_TO_END))
        metrics = {m: {"value": summary[m][1], "unit": END_TO_END[m]}
                   for m in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# ---- every workload, round-robin ---------------------------------------------


def git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()
    except OSError:
        return ""


def provenance(seed, reps, info, generate_s):
    argv, _ = engine_compile_command()
    cxx, flags = compile_flags(argv)
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(git("status", "--porcelain")),
        "nproc": nproc(),
        "threads": info["threads"],
        "detected_cache": info["detected_cache"],
        "planning_cache": info["planning_cache"],
        "compiler": version,
        "flags": [f for f in flags if not f.startswith("-I")],
        "kernel": platform.release(),
        "seed": seed,
        "reps": reps,
        "output_dir": str(OUT_DIR.relative_to(ROOT)),
        "generate_s": generate_s,
        "loadavg_before": list(os.getloadavg()),
    }


def confirmations(workload, traced_e2e, layer):
    """Whether the traced run loads the layer its workload was chosen for."""
    claims = [("spans cover >= 95% of e2e_s", layer["trace.span_coverage"] >= 0.95)]
    if workload == "node2vec-fs":
        claims.append(("sample.walk_share >= 0.8", layer["sample.walk_share"] >= 0.8))
    if workload == "corpus-yt":
        claims.append(("output.write_s >= 50% of e2e_s",
                       layer["output.write_s"] >= 0.5 * traced_e2e))
    if workload == "deepwalk-yh":
        claims.append(("graph.sort_s >= 10% of e2e_s",
                       layer["graph.sort_s"] >= 0.1 * traced_e2e))
    if workload == "ppr-weighted-fs":
        claims.append(("shuffle.live_slot_ratio < 0.3",
                       layer["shuffle.live_slot_ratio"] < 0.3))
    else:
        claims.append(("shuffle.live_slot_ratio = 1.0",
                       layer["shuffle.live_slot_ratio"] == 1.0))
    return [{"workload": workload, "claim": c, "holds": h} for c, h in claims]


def print_row(workload, metric, summary, unit):
    p25, med, p75, n = summary
    print("%-16s %-28s %12.6g %-6s %12.6g %12.6g %3d"
          % (workload, metric, med, unit, p25, p75, n))


def all_workloads(seed, reps, json_path):
    build()
    proc = fmbench(["--info"], threads=nproc())
    info = json.loads(proc.stdout)
    workloads = info["workloads"]
    graphs, generate_s = {}, {}
    for w in workloads:
        graphs[w], _, generate_s[w] = workload_graph(w, seed)
    prov = provenance(seed, reps, info, generate_s)
    records = {w: [] for w in workloads}
    for w in workloads:
        run_once(w, seed, graphs[w], traced=False)  # warm-up, discarded
    for _ in range(reps):
        for w in workloads:
            records[w].append(run_once(w, seed, graphs[w], traced=False))
    traced = {w: run_once(w, seed, graphs[w], traced=True) for w in workloads}
    prov["loadavg_after"] = list(os.getloadavg())

    result = {"provenance": prov, "workloads": {}, "confirmations": []}
    any_failed = False
    print("%-16s %-28s %12s %-6s %12s %12s %3s"
          % ("workload", "metric", "median", "unit", "p25", "p75", "n"))
    for w in workloads:
        runs = records[w] + [traced[w]]
        failures = check_runs(runs)
        for f in failures:
            for msg in f:
                log("check failed: %s: %s" % (w, msg))
        failed = sum(1 for f in failures if f)
        any_failed |= failed > 0
        ok = [r for r, f in zip(records[w], failures) if not f]
        e2e = summarize(collect(ok, END_TO_END)) if ok else {}
        layers = {}
        if ok and not failures[-1]:
            layers = layer_summary([traced[w]], e2e["e2e_s"][1])
        for m, s in e2e.items():
            print_row(w, m, s, END_TO_END[m])
        print_row(w, "error_rate", (failed / len(runs),) * 3 + (len(runs),), "ratio")
        for m, s in layers.items():
            print_row(w, m, s, PER_LAYER[m])
        if layers:
            result["confirmations"] += confirmations(w, traced[w]["e2e_s"],
                                                     {m: s[1] for m, s in layers.items()})
        result["workloads"][w] = {
            "error_rate": failed / len(runs),
            "visit_hash": ok[0]["visit_hash"] if ok else None,
            "end_to_end": {m: dict(zip(("p25", "median", "p75", "n"), s),
                                   unit=END_TO_END[m], values=[r[m] for r in ok])
                           for m, s in e2e.items()},
            "per_layer": {m: dict(zip(("p25", "median", "p75", "n"), s),
                                  unit=PER_LAYER[m])
                          for m, s in layers.items()},
        }
    print()
    for c in result["confirmations"]:
        print("confirm %-16s %-44s %s" % (c["workload"], c["claim"],
                                          "yes" if c["holds"] else "NO"))
    if json_path:
        path = Path(json_path)
        doc = json.loads(path.read_text()) if path.is_file() else {"sets": []}
        doc["sets"].append(result)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if any_failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--json")
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.seed is None:
        parser.error("--seed is required")
    if args.workload is not None:
        if args.seconds is None:
            parser.error("--workload needs --seconds")
        return timed_workload(args.workload, args.seed, args.seconds, args.trace)
    if args.reps < 2:
        parser.error("--reps must be at least 2")
    return all_workloads(args.seed, args.reps, args.json)


if __name__ == "__main__":
    sys.exit(main())
