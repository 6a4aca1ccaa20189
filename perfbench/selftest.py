"""The benchmark's own test.

    python3 perfbench/selftest.py

Run from the root of a checkout (takes a few minutes).  It checks that
  - after the trace wrappers are installed, every module-level alias of a
    wrapped function (build.induce, verify.assemble, cli.character_degrees,
    ...) is the wrapper;
  - a traced run of each workload is correct and every per-layer metric of
    layers.NONEMPTY is non-zero on the workloads it is mapped to;
  - a plain child records speed samples from its timer, and its slowdown
    is positive;
  - on construct, the Dixon oracle takes under 1% of the traced wall time;
  - in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
"""

import inspect
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
import layers
import spans


def check_alias_coverage():
    sys.path.insert(0, str(harness.SRC))
    import modrep2.cli  # noqa: F401  (imports every layer)
    spans.install_trace(spans.Recorder())
    missed = []
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("modrep2."):
            continue
        for attr, value in vars(module).items():
            unwrapped_function = (
                inspect.isfunction(value) and not attr.startswith("_")
                and value.__module__.startswith("modrep2.")
                and not hasattr(value, "__wrapped__"))
            if unwrapped_function or hasattr(value, "cache_info"):
                missed.append("%s.%s" % (modname, attr))
    assert not missed, "unwrapped aliases: %s" % missed
    from modrep2 import build, classfun, cli, dixon, verify
    assert build.induce is classfun.induce
    assert verify.assemble is build.assemble
    assert cli.character_degrees is dixon.character_degrees
    assert cli.COMMANDS["dixon"] is cli.cmd_dixon


def check_speed_samples():
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=harness.ROOT) as workdir:
        res = harness.run_job(harness.WORKLOADS["construct"][1], "plain",
                              workdir, 120)
    harness.check(res, harness.load_goldens()["construct"].get(
        harness.job_key(res.args)))
    assert res.failure is None, res.failure
    assert res.report.get("speed"), "the child took no speed samples"
    assert all(f > 0 for f in res.slowdown), res.slowdown
    print("plain child: %d speed samples, slowdown %.3f wall, %.3f CPU"
          % (len(res.report["speed"]), *res.slowdown))


def check_traced_runs():
    for workload in harness.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
            cwd=harness.ROOT, capture_output=True, text=True, check=True,
            timeout=200).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        values = {k: v["value"] for k, v in result["metrics"].items()}
        empty = [name for name, where in layers.NONEMPTY.items()
                 if workload in where and not values[name] > 0]
        assert not empty, "%s: empty metrics %s" % (workload, empty)
        if workload == "construct":
            share = (values["dixon.character_degrees.self_s"]
                     / values["trace.wall_s"])
            assert share < 0.01, "dixon share on construct is %.4f" % share
            print("construct: dixon share of traced wall %.5f" % share)
        print("%s: %d per-layer metrics, mapped ones non-empty"
              % (workload, len(values)))


def check_fails_without_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=harness.ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(harness.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "construct",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main():
    check_alias_coverage()
    check_fails_without_sources()
    check_speed_samples()
    check_traced_runs()
    print("selftest passed")


if __name__ == "__main__":
    main()
