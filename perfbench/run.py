"""Out-of-process benchmark of the modrep2 command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A workload is a fixed list of CLI jobs
(harness.WORKLOADS); a pass runs each job once, in a fresh child process,
one job at a time, in an order drawn from --seed, and checks every job's
stdout and exit code against goldens.json.

--trace 0 runs about --seconds / pass-time passes, rounded, at least one,
with set-up probes (children that import modrep2.cli and exit) before the
jobs, and reports the end-to-end metrics of one pass.  Times are normalised
to a nominal machine speed: each child's time is divided by how much slower
than nominal the machine ran while it did (speed.py), since this shared
machine's speed swings by up to a factor of two.
  wall_s       job wall times (spawn to exit), normalised, each the job's
               median over the passes, summed
  cpu_s        user + system CPU of the children, from os.wait4, normalised
               by the CPU-time slowdown, each the job's median over the
               passes, summed
  peak_rss_mb  largest per-job median ru_maxrss
  setup_s      jobs per pass times the median normalised time from spawn
               until modrep2.cli is imported and main is about to be called,
               over every job and probe of the run (at least SETUP_SAMPLES)

--trace 1 runs one traced pass (span wrappers, see spans.py) and one
counting pass, and reports the per-layer metrics of BENCHMARK.json (see
layers.py).  End-to-end numbers never come from a traced run.

Metric names and units are read from BENCHMARK.json.  The last line of
stdout is one JSON object: correct, attempted (children run: jobs and
probes), failed (children that failed their check) and metrics.  The line
before it records the environment and every pass.  Exits 2 without a result
when the checkout has no modrep2 sources or goldens.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

import harness
import layers
import spans

# A run must end within 180 s; no pass starts that would be expected to end
# after this many seconds from the start of the run.
RUN_BUDGET_S = 170.0

# Fewest spawn-to-ready samples behind setup_s; probes top a run up to it.
SETUP_SAMPLES = 40


def run_child(args, mode, workdir, goldens, deadline):
    timeout = max(deadline - time.monotonic(), 1.0)
    res = harness.run_job(args, mode, workdir, timeout)
    harness.check(res, goldens.get(harness.job_key(args)))
    if res.failure:
        print("FAIL [%s] %s: %s\n%s" % (
            mode, harness.job_key(args), res.failure,
            res.stderr[-2000:].decode(errors="replace")), file=sys.stderr)
    return res


def run_pass(jobs, mode, workdir, goldens, deadline, probes=None,
             probes_per_job=1):
    """Run every job once; with a list for probes, probes_per_job set-up
    probes run before each job and are appended to it."""
    results = []
    for args in jobs:
        if probes is not None:
            probes.extend(run_child([], "setup", workdir, goldens, deadline)
                          for _ in range(probes_per_job))
        results.append(run_child(args, mode, workdir, goldens, deadline))
    return results


def pass_totals(results):
    """What one pass took, as measured, and the machine's mean slowdown over
    it, recorded with the result."""
    return {
        "wall_s": sum(r.wall_s for r in results),
        "cpu_s": sum(r.cpu_s for r in results),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "slowdown": statistics.fmean(r.slowdown[0] for r in results),
    }


def wall(res):
    return res.wall_s / res.slowdown[0]


def cpu(res):
    return res.cpu_s / res.slowdown[1]


def setup(res):
    return res.setup_s / res.slowdown[0]


def end_to_end(passes, probes):
    """The end-to-end metrics of one pass, from per-job medians over the
    passes and the median set-up time of every child, all normalised."""
    jobs = [r for p in passes for r in p]
    by_job = {}
    for res in jobs:
        by_job.setdefault(harness.job_key(res.args), []).append(res)

    def per_job(value):
        return [statistics.median(value(r) for r in rs)
                for rs in by_job.values()]

    setups = [setup(r) for r in jobs + probes if r.setup_s is not None]
    return {
        "wall_s": sum(per_job(wall)),
        "cpu_s": sum(per_job(cpu)),
        "peak_rss_mb": max(per_job(lambda r: r.rss_mb)),
        "setup_s": len(by_job) * statistics.median(setups or [0.0]),
    }


def _sum_summaries(results, key):
    total = {}
    for r in results:
        for name, v in r.report.get("summary", {}).get(key, {}).items():
            total[name] = total.get(name, 0) + v
    return total


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((harness.SRC / "modrep2").glob("*.py")))


def per_layer(names, traced, counted):
    """Metric name -> value for each of names, from a traced and a counting
    pass."""
    self_s = _sum_summaries(traced, "self_s")
    calls = _sum_summaries(traced, "calls")
    extra = _sum_summaries(traced, "extra")
    counts = _sum_summaries(counted, "counts")
    runs = traced + counted
    derived = {
        "src.lines": src_lines(),
        "trace.wall_s": pass_totals(traced)["wall_s"],
        # Every span pays the wrapper and its reduction in summary(); their
        # cost per span is measured here, in the same interpreter.
        "trace.overhead_s": sum(calls.values()) * spans.span_cost_s(),
        "error_rate": sum(1 for r in runs if r.failure) / len(runs),
        "classfun.dedupe.kept_ratio": (
            extra.get("classfun.dedupe.kept", 0)
            / max(extra.get("classfun.dedupe.offered", 0), 1)),
    }
    out = {}
    for name in names:
        if name in derived:
            value = derived[name]
        elif name in layers.COUNTED:
            value = counts.get(layers.COUNTED[name], 0)
        elif name in extra:
            value = extra[name]
        elif name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0)
        elif name[:-len(".self_s")] in spans.LAYERS:
            prefix = name[:-len("self_s")]
            value = sum(v for span, v in self_s.items()
                        if span.startswith(prefix))
        else:
            value = self_s.get(name[:-len(".self_s")], 0.0)
        out[name] = value
    return out


def environment():
    """Versions and machine facts recorded with every result."""
    probe = ("import json, platform, sys, numpy, modrep2.cli; "
             "print(json.dumps({'python': platform.python_version(), "
             "'numpy': numpy.__version__}))")
    # Also compiles the package's bytecode before anything is timed.
    out = subprocess.run([sys.executable, "-c", probe], cwd=harness.ROOT,
                         env=harness.child_env(), capture_output=True,
                         check=True, timeout=120).stdout
    env = json.loads(out)
    commit = None
    if (harness.ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    env.update(git_commit=commit, nproc=os.cpu_count(),
               child_env=harness.CHILD_ENV)
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (harness.SRC / "modrep2" / "cli.py").is_file():
        print("no modrep2 sources under %s" % harness.SRC, file=sys.stderr)
        return 2
    if not harness.GOLDENS.is_file():
        print("no goldens at %s" % harness.GOLDENS, file=sys.stderr)
        return 2
    goldens = harness.load_goldens()[args.workload]
    jobs = harness.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    deadline = time.monotonic() + RUN_BUDGET_S

    def shuffled():
        order = list(jobs)
        rng.shuffle(order)
        return order

    bench = harness.load_benchmark()
    probes = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=harness.ROOT) as workdir:
        env = environment()
        start = time.monotonic()
        if args.trace:
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            passes = [run_pass(shuffled(), mode, workdir, goldens, deadline)
                      for mode in ("trace", "count")]
            values = per_layer(units, *passes)
        else:
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            # Set-up probes are spread over the run, since the machine's
            # speed drifts: before each job of the first pass enough for half
            # of SETUP_SAMPLES, one before each later job, the rest at the
            # end.  Another pass starts only if, taking as long as the last
            # one, at least half of it would fall within --seconds (so a run
            # makes about --seconds / pass-time passes, rounded); the first
            # always runs.
            first_probes = max(SETUP_SAMPLES // (2 * len(jobs)), 1)
            passes = []
            while True:
                t = time.monotonic()
                passes.append(run_pass(shuffled(), "plain", workdir, goldens,
                                       deadline, probes,
                                       1 if passes else first_probes))
                now = time.monotonic()
                last = now - t
                if (now + last / 2 > start + args.seconds
                        or now + last > deadline):
                    break
            while (len(probes) + sum(map(len, passes)) < SETUP_SAMPLES
                   and time.monotonic() < deadline):
                probes.append(run_child([], "setup", workdir, goldens,
                                        deadline))
            values = end_to_end(passes, probes)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}

    results = [r for p in passes for r in p] + probes
    failed = sum(1 for r in results if r.failure)
    print(json.dumps({"env": env, "seed": args.seed, "probes": len(probes),
                      "passes": [pass_totals(p) for p in passes]}))
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
