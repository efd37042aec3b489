"""Steadiness check: two interleaved sets of runs per workload, compared.

    python3 perfbench/steady.py --workloads coxeter-rank3,planar-batch --seeds 10

Run from the root of a checkout.  For every workload it makes two sets of
runs, A and B, on seeds 1..N with BENCHMARK.json's ``run_seconds``, in the
order A1 B1 A2 B2 ...  so that a drift of the machine's speed falls on
both sets alike.  Runs alternate between PYTHONHASHSEED 1 and 2, and the
two runs of a seed use different ones, so the CLI output digests of the
two runs of each seed must be equal.

For each end-to-end metric it prints, per set, the median of the runs and
the distance between their first and third quartiles as a share of the
median, and the difference between the two medians as a share of A's.
The check fails when a spread or a difference exceeds the metric's bound,
when the share of failed operations differs between runs, when a run is
not correct, or when digests differ.  It also prints, per set, the median
of the runs' CPU probe times: when the two sets' medians differ while
their probe times differ alike, the machine changed speed, not the code.
The median process wall time of a run gives the length of a full pass.
With ``--trace`` it also makes one traced run per workload (seed 1) and
prints the per-layer metrics and the tracing overhead against the
untraced run_s.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
HASH_SEEDS = ("1", "2")


def run(workload, seed, seconds, trace, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        env=env, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("run failed: %s seed %s\n%s" % (workload, seed, proc.stderr))
    record = json.loads(lines[-2])
    record["wall_s"] = time.perf_counter() - start
    return record, json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def check_workload(workload, seeds, seconds, bounds):
    """Run the two sets; print their figures; return whether they pass."""
    ok = True
    sets = {"A": {}, "B": {}}
    shares, digests = set(), {}
    for seed in range(1, seeds + 1):
        for k, label in enumerate("AB"):
            hash_seed = HASH_SEEDS[(seed + k) % 2]
            record, result = run(workload, seed, seconds, 0, hash_seed)
            if not result["correct"]:
                ok = False
                print("%s seed %d set %s: not correct: %s"
                      % (workload, seed, label, record["problems"]))
            shares.add(result["failed"] / result["attempted"])
            values = sets[label]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, metric in record["ungated"].items():
                values.setdefault("ungated " + name, []).append(metric["value"])
            for name, value in record["wall"].items():
                values.setdefault("wall " + name, []).append(value)
            values.setdefault("cpu probe", []).append(record["cpu_probe_median_s"])
            values.setdefault("process wall time", []).append(record["wall_s"])
            if "cli_digests" in record:
                digests.setdefault(seed, []).append(record["cli_digests"])
    if digests:
        same = all(a == b for a, b in digests.values())
        ok &= same
        print("%s: CLI output digests under PYTHONHASHSEED 1 and 2 %s for seeds 1-%d"
              % (workload, "agree" if same else "DIFFER", seeds))
    ok &= len(shares) == 1
    print("%s: failed share of attempted %s" % (workload, sorted(shares)))
    print("  %-36s %10s %7s %10s %7s %7s %6s"
          % ("metric", "median A", "spread", "median B", "spread", "diff", "bound"))
    for name in sets["A"]:
        a_vals, b_vals = sets["A"][name], sets["B"][name]
        if len(a_vals) != seeds or len(b_vals) != seeds:
            continue   # a job-level figure that not every run reports
        (a_med, a_spread), (b_med, b_spread) = spread(a_vals), spread(b_vals)
        diff = (b_med - a_med) / a_med
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if max(a_spread, b_spread, abs(diff)) > bound:
                ok = False
                flag = "  <-- above the bound"
            elif max(a_spread, b_spread) > bound / 3:
                flag = "  <-- spread above a third of the bound"
        print("  %-36s %10.4g %7.3f %10.4g %7.3f %+7.3f %6s%s"
              % (name, a_med, a_spread, b_med, b_spread, diff,
                 "-" if bound is None else bound, flag))
    return ok, statistics.median(sets["A"]["run_s"] + sets["B"]["run_s"])


def print_traced(workload, seconds, untraced_run_s):
    record, traced = run(workload, 1, seconds, 1, HASH_SEEDS[0])
    traced_run = traced["metrics"]["trace.run_s"]["value"]
    print("  traced run_s %.3f vs untraced median %.3f: overhead %.1f%%"
          % (traced_run, untraced_run_s, 100 * (traced_run / untraced_run_s - 1)))
    for name, metric in sorted(traced["metrics"].items()):
        if metric["value"]:
            print("    %-52s %12.6g %s" % (name, metric["value"], metric["unit"]))
    print("    spans kept: %d" % record["spans"]["count"])
    return traced["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        passed, run_s = check_workload(workload, args.seeds, bench["run_seconds"], bounds)
        ok &= passed
        if args.trace:
            ok &= print_traced(workload, bench["run_seconds"], run_s)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
