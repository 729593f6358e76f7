"""A/A check of the benchmark: two interleaved sets of runs of one checkout.

    python3 bench/aacheck.py [--runs 10] [--seed 1000] [workload ...]

Run it from the repository root. For each workload (default: all of
BENCHMARK.json's) it makes 2 x --runs runs of BENCHMARK.json's
run_seconds, alternating between set A and set B, each run with its own
seed. It prints every run as a tab-separated line, then, for each
end-to-end metric, each set's median and its interquartile range as a share of the median (statistics.quantiles, n=4),
and how much worse B's median is than A's, against the metric's bound in
BENCHMARK.json. A spread above the bound (setup_s excepted) or a B median
worse than A's by more than the bound is marked FAIL, a spread above a
third of the bound WIDE. The exit status is 1 when a run failed or a check
is marked FAIL.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    t0 = time.time()
    p = subprocess.run(["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"], capture_output=True, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    if p.returncode != 0 or not res["correct"]:
        sys.stderr.write(p.stderr[-2000:])
        return None, wall
    return {m: v["value"] for m, v in res["metrics"].items()}, wall


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seed", type=int, default=1000, help="seed of the first run")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    ok = True
    print("# run\tworkload\tset\tseed\twall_s\t" + "\t".join(m["name"] for m in metrics), flush=True)
    for w in workloads:
        sets = {"A": {}, "B": {}}
        for k in range(2 * args.runs):
            name, seed = "AB"[k % 2], args.seed + k
            vals, wall = run_once(w, seed, bench["run_seconds"])
            if vals is None:
                ok = False
                print("run\t%s\t%s\t%d\t%.1f\tFAILED" % (w, name, seed, wall), flush=True)
                continue
            for m in metrics:
                sets[name].setdefault(m["name"], []).append(vals[m["name"]])
            print("run\t%s\t%s\t%d\t%.1f\t" % (w, name, seed, wall) +
                  "\t".join("%.6g" % vals[m["name"]] for m in metrics), flush=True)
        for m in metrics:
            a, b = sets["A"].get(m["name"], []), sets["B"].get(m["name"], [])
            if len(a) < 2 or len(b) < 2:
                ok = False
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb, bound = spread(a), spread(b), m["bound"]
            verdict = "ok"
            if worse > bound or (m["name"] != "setup_s" and max(sa, sb) > bound):
                verdict, ok = "FAIL", False
            elif m["name"] != "setup_s" and max(sa, sb) > bound / 3:
                verdict = "WIDE"
            print("aa\t%s\t%s\tA %.6g (%.1f%%)\tB %.6g (%.1f%%)\tB worse by %+.1f%%\tbound %.0f%%\t%s" %
                  (w, m["name"], ma, 100 * sa, mb, 100 * sb, 100 * worse, 100 * bound, verdict), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
