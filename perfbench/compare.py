"""Run the untraced benchmark as two independent sets of runs of the same code
and say whether the sets agree within the benchmark's own bounds.

    python3 perfbench/compare.py [--workload W ...] [--out FILE]

Run from the root of a checkout.  Each set runs BENCHMARK.json's command
RUNS times per workload, each run with its own seed.  Per workload and
end-to-end metric it prints each set's median, quartiles and spread, the
distance between the quartiles as a share of the median.  The sets agree
when every spread is within the metric's bound and the second set's median
is not worse than the first set's by more than the bound.
Spreads above a third of the bound are flagged as unsteady.  Exit status is
0 when the sets agree and every run was correct.
"""

import argparse
import json
import statistics
import subprocess
import sys

import harness

RUNS = 10


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    out = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True,
                         text=True, check=True, timeout=200).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", help="also write the summary here as JSON")
    args = ap.parse_args(argv)

    bench = harness.load_benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    values = {}   # (set, workload, metric) -> list of run medians
    all_correct = True
    env = None
    for s in range(2):
        for r in range(RUNS):
            for w in workloads:
                seed = 1000 * s + r
                info, result = run_once(bench, w, seed)
                env = env or info["env"]
                all_correct &= result["correct"] is True
                for m in metrics:
                    values.setdefault((s, w, m["name"]), []).append(
                        result["metrics"][m["name"]]["value"])
                print("set %d run %d %s seed %d: %s" % (
                    s, r, w, seed, json.dumps(
                        {k: round(v["value"], 4)
                         for k, v in result["metrics"].items()})),
                    file=sys.stderr, flush=True)

    agree = all_correct
    rows = []
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [stats(values[(s, w, name)]) for s in range(2)]
            drift = worse_by(per_set[0]["median"], per_set[1]["median"],
                             m["better"])
            ok = (all(st["spread"] <= bound for st in per_set)
                  and drift <= bound)
            steady = all(st["spread"] < bound / 3 for st in per_set)
            agree &= ok
            rows.append({"workload": w, "metric": name, "bound": bound,
                         "sets": per_set, "worse_by": drift, "ok": ok,
                         "steady": steady})
            print("%-9s %-12s %s | worse by %+6.2f%% (bound %g%%) %s%s" % (
                w, name, " | ".join(
                    "med %.4f [%.4f, %.4f] spread %5.2f%%" % (
                        st["median"], st["q1"], st["q3"], 100 * st["spread"])
                    for st in per_set),
                100 * drift, 100 * bound, "ok" if ok else "DISAGREE",
                "" if steady else " (unsteady)"))
    print("all runs correct: %s; sets agree: %s" % (all_correct, agree))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": env, "runs": RUNS,
                       "agree": agree, "all_correct": all_correct,
                       "rows": rows}, fh, indent=1)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
