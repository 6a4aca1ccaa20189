"""Run one modrep2 CLI job in this process, as ``python -m modrep2.cli`` would,
and write a side report for run.py.

    python3 perfbench/child.py MODE REPORT_PATH CLI_ARGS...

MODE is "plain" (no wrappers), "trace" (span wrappers), "count" (hot-path
call counters) or "setup" (import only: exit 0 where main would be called).
The report is JSON: "ready_ns", the CLOCK_MONOTONIC time at which
modrep2.cli is imported and main is about to be called; for "plain" and
"setup" the speed samples taken from before the import to the end (see
speed.py); and for "trace"/"count" the recorder's summary.  stdout carries
only the CLI's report.
"""

import json
import sys
import time

import speed


def main():
    mode, report_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    timed = mode in ("plain", "setup")
    sampler = speed.Sampler().start() if timed else None
    import modrep2.cli
    report = {"ready_ns": time.clock_gettime_ns(time.CLOCK_MONOTONIC)}
    rec = None
    if not timed:
        import spans
        rec = spans.install(mode)
    try:
        if mode == "setup":
            return 0
        return modrep2.cli.main(argv)
    finally:
        sys.stdout.flush()
        if sampler is not None:
            report["speed"] = sampler.stop()
        if rec is not None:
            report["summary"] = rec.summary()
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
