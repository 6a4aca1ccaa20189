"""Workloads, the fixed child environment, and one CLI job run in a fresh
child process with its output checked against the recorded golden.

Every job is a fresh process because aut_group, make_ring, assemble and
character_degrees memoize in-process: a repeat in the same process would only
time cache hits.  Jobs run one at a time from a single parent process.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens.json"
BENCHMARK = ROOT / "BENCHMARK.json"


def _job(command, q, lam, backend="padic"):
    if backend == "padic":
        args = [command, "--p", str(q)]
    else:
        args = [command, "--backend", backend, "--q", str(q)]
    return args + ["--lambda", "%d,%d" % lam]


# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "construct": [
        _job("construct", 3, (3, 2)),
        _job("construct", 2, (4, 4)),
        _job("construct", 4, (2, 2), "tpoly"),
        _job("construct", 2, (5, 3)),
    ],
    "oracle": [
        _job("dixon", 3, (3, 2)),
        _job("dixon", 2, (4, 4)),
    ],
    "battery": [
        _job("verify-all", 2, (2, 1)),
        _job("verify-all", 2, (2, 2)),
        _job("verify-all", 2, (3, 2)),
        _job("verify-all", 2, (3, 3)),
        _job("verify-all", 2, (4, 2)),
        _job("verify-all", 2, (4, 3)),
        _job("verify-all", 3, (2, 2)),
        _job("verify-all", 2, (3, 2), "tpoly"),
        _job("verify-all", 4, (2, 1), "tpoly"),
        _job("ring-compare", 3, (2, 2)),
        _job("ring-compare", 2, (4, 3)),
    ],
}

# Commands whose JSON report carries an overall "ok" that must be true.
OK_COMMANDS = ("verify-all", "ring-compare")

# Fixed parts of every child's environment.  BLAS is held to one thread so
# that cpu_s counts the program's work, not idle BLAS workers spinning on a
# small shared machine.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def job_key(args):
    return " ".join(args)


def child_env():
    """The parent's environment without MODREP2_* settings or a bytecode
    write ban, with PYTHONPATH at this checkout's src/ and CHILD_ENV."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MODREP2_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    env.update(CHILD_ENV)
    return env


def now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class JobResult:
    """What one child did; failure is None when it passed its check."""

    args: list
    code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    report: dict
    stderr: bytes
    slowdown: float
    failure: str | None = None


def run_job(args, mode, workdir, timeout_s):
    """Run one CLI job in a fresh child; kill it after timeout_s seconds."""
    report_path = Path(workdir) / "report.json"
    report_path.unlink(missing_ok=True)
    stderr_path = Path(workdir) / "stderr.txt"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(report_path)]
    before = speed.probe()
    with open(stderr_path, "wb") as err:
        start = now_ns()
        with subprocess.Popen(cmd + args, cwd=ROOT, env=child_env(),
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=err) as proc:
            killer = threading.Timer(timeout_s, proc.kill)
            killer.start()
            try:
                stdout = proc.stdout.read()
                # wait4, not Popen.wait, so the child's own rusage comes back;
                # the returncode tells Popen the child is already reaped.
                _, status, usage = os.wait4(proc.pid, 0)
                end = now_ns()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
    after = speed.probe()
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    setup_s = ((report["ready_ns"] - start) / 1e9
               if "ready_ns" in report else None)
    return JobResult(args, proc.returncode, stdout, (end - start) / 1e9,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     setup_s, report, stderr_path.read_bytes(),
                     speed.slowdown(before + report.get("speed", []) + after))


def load_goldens():
    return json.loads(GOLDENS.read_text())


def load_benchmark():
    return json.loads(BENCHMARK.read_text())


def digest(data):
    return hashlib.sha256(data).hexdigest()


def check(res, golden):
    """Set res.failure when the job exited differently from its golden,
    printed other bytes, reported ok: false, or never reached main.  A
    set-up probe (no CLI arguments) must exit 0 after reaching main."""
    if not res.args:
        if res.code != 0 or res.setup_s is None:
            res.failure = "set-up probe exit %d" % res.code
    elif golden is None:
        res.failure = "no golden recorded"
    elif res.code != golden["exit"]:
        res.failure = "exit %d, golden %d" % (res.code, golden["exit"])
    elif digest(res.stdout) != golden["sha256"]:
        res.failure = "stdout differs from golden"
    elif res.args[0] in OK_COMMANDS and json.loads(res.stdout).get("ok") is not True:
        res.failure = "report is not ok"
    elif res.setup_s is None:
        res.failure = "no side report"
    return res
