#!/usr/bin/env python3
"""Checks around the njc benchmark, run from the repository root.

  python3 njcbench/tools.py spread --workload trap_storm --seeds 1-10 \
          [--save A.json] [--against B.json]
      Runs the benchmark once per seed and prints, for each end-to-end
      metric (setup_s included), the median, the quartiles and the
      interquartile spread as a share of the median, next to the bound in
      BENCHMARK.json; exits 1 if a spread exceeds its bound. --save writes
      every seed's metrics and deterministic counts to a file; --against
      compares this set with a saved one on the same seeds: each median
      may get worse by at most its bound, and every seed's counts must be
      identical.

  python3 njcbench/tools.py check [--workload W] [--seed S]
      The deterministic-count tripwire and the planted-reference self-test.
      For each workload: two untraced runs and one traced run with the same
      seed must print identical first-pass counts (the fields schema.json
      declares deterministic; the traced run counts them with tracing on),
      and every per-layer metric of the traced run that is also a count must
      equal it. A run with a planted wrong reference must report failed ops
      and exit non-zero.

Both run the command in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

ROOT_BENCHMARK = "BENCHMARK.json"
SCHEMA = "njcbench/schema.json"


def load(path):
    with open(path) as f:
        return json.load(f)


def run(cmd, workload, seed, seconds, trace, extra=()):
    argv = list(cmd) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    counts = None
    for line in lines:
        if line.startswith("counts: "):
            counts = json.loads(line[len("counts: "):])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, counts, p.stderr


def seeds_arg(s):
    if "-" in s:
        lo, hi = s.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in s.split(",")]


def spread(args, bench, cmd):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    runs = {}
    for seed in args.seeds:
        code, result, counts, err = run(cmd, args.workload, seed, args.seconds, 0)
        if code != 0 or result is None:
            print(f"seed {seed}: exit {code}\n{err}", file=sys.stderr)
            return 1
        metrics = {n: result["metrics"][n]["value"] for n in bounds}
        runs[str(seed)] = {"metrics": metrics, "counts": counts}
        print(f"seed {seed}: " + " ".join(f"{n}={v:.5g}" for n, v in metrics.items()),
              flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f, indent=1)
    medians = {}
    worst = 0.0
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, bound in bounds.items():
        vs = [r["metrics"][name] for r in runs.values()]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        medians[name] = med
        share = (q3 - q1) / med if med else float("inf")
        flag = "" if share < bound / 3 else ("  > bound/3" if share <= bound else "  > BOUND")
        worst = max(worst, share / bound)
        print(f"{name:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {share:>8.4f} {bound:>6}{flag}")
    print(f"worst spread / bound: {worst:.3f}")
    failed = worst > 1.0
    if args.against:
        old = load(args.against)
        if old["workload"] != args.workload or set(old["runs"]) != set(runs):
            print("FAIL --against holds another workload or other seeds", file=sys.stderr)
            return 1
        print(f"{'metric':<16} {'old median':>12} {'new median':>12} {'worse by':>9} {'bound':>6}")
        for name, bound in bounds.items():
            was = statistics.median(r["metrics"][name] for r in old["runs"].values())
            now = medians[name]
            worse = (now - was) / was if lower_better[name] else (was - now) / was
            flag = "  > BOUND" if worse > bound else ""
            failed |= worse > bound
            print(f"{name:<16} {was:>12.5g} {now:>12.5g} {worse:>9.4f} {bound:>6}{flag}")
        differ = [s for s in runs if runs[s]["counts"] != old["runs"][s]["counts"]]
        if differ:
            print(f"FAIL counts differ from the saved set on seeds {differ}", file=sys.stderr)
            failed = True
        else:
            print(f"counts identical to the saved set on all {len(runs)} seeds")
    return 1 if failed else 0


def check(args, bench, cmd):
    fields = load(SCHEMA)
    deterministic = set(fields["deterministic"])
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    failures = []
    for w in workloads:
        runs = [run(cmd, w, args.seed, 1, t) for t in (0, 0, 1)]
        for code, result, counts, err in runs:
            if code != 0 or result is None or counts is None:
                failures.append(f"{w}: run failed (exit {code}): {err.strip()[-300:]}")
        if failures:
            continue
        counts = [c for _, _, c, _ in runs]
        undeclared = set(counts[0]) - deterministic
        if undeclared:
            failures.append(f"{w}: counts not declared deterministic: {sorted(undeclared)}")
        if not (counts[0] == counts[1] == counts[2]):
            failures.append(f"{w}: counts differ between runs: {counts}")
        traced = runs[2][1]["metrics"]
        for name, value in counts[0].items():
            if name in traced and traced[name]["value"] != value:
                failures.append(
                    f"{w}: per-layer {name} = {traced[name]['value']}, counts say {value}")
        code, result, _, _ = run(cmd, w, args.seed, 1, 0, ["--plant-wrong-reference"])
        if code == 0 or result is None or result["failed"] == 0 or result["correct"]:
            failures.append(f"{w}: planted wrong reference went unnoticed (exit {code})")
        else:
            print(f"{w}: counts identical across 3 runs; planted reference caught "
                  f"({result['failed']} of {result['attempted']} ops failed, exit {code})")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="what", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    sp.add_argument("--seconds", type=int)
    sp.add_argument("--save", help="write this set's metrics and counts here")
    sp.add_argument("--against", help="compare with a set saved by --save")
    ck = sub.add_parser("check")
    ck.add_argument("--workload")
    ck.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    bench = load(ROOT_BENCHMARK)
    cmd = bench["command"]
    if args.what == "spread":
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        return spread(args, bench, cmd)
    return check(args, bench, cmd)


if __name__ == "__main__":
    sys.exit(main())
