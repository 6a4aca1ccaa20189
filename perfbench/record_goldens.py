"""Record each job's exit code and a digest of its stdout into goldens.json.

    python3 perfbench/record_goldens.py [WORKLOAD ...]

Run from the root of a checkout at the commit whose outputs are the
reference.  Every job runs twice in fresh processes and must print the same
bytes and exit 0 both times; verify-all and ring-compare must report ok.
"""

import json
import sys
import tempfile

import harness


def record(args, workdir):
    first, second = (harness.run_job(args, "plain", workdir, 600)
                     for _ in range(2))
    key = harness.job_key(args)
    if first.code != 0 or (first.code, first.stdout) != (second.code,
                                                           second.stdout):
        raise SystemExit("%s: exit %d/%d or unstable output"
                         % (key, first.code, second.code))
    golden = {"exit": first.code, "sha256": harness.digest(first.stdout),
              "bytes": len(first.stdout)}
    if harness.check(first, golden).failure:
        raise SystemExit("%s: %s" % (key, first.failure))
    return golden


def main(names):
    goldens = harness.load_goldens() if harness.GOLDENS.is_file() else {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=harness.ROOT) as workdir:
        for name in names or sorted(harness.WORKLOADS):
            goldens[name] = {harness.job_key(a): record(a, workdir)
                             for a in harness.WORKLOADS[name]}
            print("recorded %s" % name, file=sys.stderr)
    harness.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                               + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
