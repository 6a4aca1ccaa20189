"""Command line driver: class data, orbit censuses, zeta polynomials, full
construction reports, the independent degree oracle, and verification runs."""

import argparse
import atexit
import csv
import gc
import io
import json
import sys
from collections import Counter

from .build import assemble
from .classfun import depth_one_dual
from .dixon import character_degrees
from .groups import aut_group, order_formula
from .rings import BACKENDS, residue_size
from .verify import ring_compare, verify_all, zeta_json


def _lam(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected L1,L2")
    l1, l2 = int(parts[0]), int(parts[1])
    if not (l1 >= l2 >= 0 and l1 >= 1):
        raise argparse.ArgumentTypeError("need L1 >= L2 >= 0 and L1 >= 1")
    return (l1, l2)


def _add_common(p):
    p.add_argument("--backend", choices=["padic", "tpoly"], default="padic",
                   help="base ring flavor (default padic)")
    p.add_argument("--p", "--q", dest="q", type=int, required=True,
                   help="residue field size (prime for padic)")
    p.add_argument("--lambda", dest="lam", type=_lam, required=True,
                   help="module type as L1,L2")
    p.add_argument("--format", choices=["json", "csv", "pretty"],
                   default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--cap", type=int, default=500000,
                   help="refuse jobs whose group order exceeds this")


def _rep_str(rep):
    if isinstance(rep, tuple):
        return " ".join(str(x) for x in rep)
    return str(rep)


def cmd_order(args):
    return {"order": order_formula(args.q, args.lam)}


def cmd_classes(args):
    G = aut_group(args.backend, args.q, args.lam)
    rows = [{"rep": _rep_str(rep), "size": int(sz)}
            for rep, sz in zip(G.class_reps, G.class_sizes)]
    return {"count": G.class_count, "classes": rows}


def cmd_orbits(args):
    G = aut_group(args.backend, args.q, args.lam)
    D = depth_one_dual(G)
    reps, sizes, _ = D.orbits()
    rows = [{"rep": _rep_str(t), "size": int(n), "label": D.classify(t)[0]}
            for t, n in zip(reps, sizes)]
    return {"count": len(rows), "orbits": rows}


def cmd_zeta(args):
    a = assemble(args.backend, args.q, args.lam)
    return {"zeta": zeta_json(a.zeta)}


def cmd_construct(args):
    a = assemble(args.backend, args.q, args.lam)
    fams = [{"label": f.label, "count": f.count, "degree": f.degree}
            for f in a.families]
    return {"families": fams,
            "zeta": zeta_json(a.zeta),
            "checks": a.checks, "complete": a.complete}


def cmd_dixon(args):
    G = aut_group(args.backend, args.q, args.lam)
    return {"degrees": zeta_json(Counter(character_degrees(G)))}


def cmd_verify_all(args):
    return verify_all(args.backend, args.q, args.lam).as_dict()


def cmd_ring_compare(args):
    return ring_compare(args.q, args.lam).as_dict()


COMMANDS = {
    "order": cmd_order,
    "classes": cmd_classes,
    "orbits": cmd_orbits,
    "zeta": cmd_zeta,
    "construct": cmd_construct,
    "dixon": cmd_dixon,
    "verify-all": cmd_verify_all,
    "ring-compare": cmd_ring_compare,
}


def _to_csv(command, payload):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if command == "order":
        w.writerow(["order"])
        w.writerow([payload["order"]])
    elif command == "classes":
        w.writerow(["rep", "size"])
        for r in payload["classes"]:
            w.writerow([r["rep"], r["size"]])
    elif command == "orbits":
        w.writerow(["rep", "size", "label"])
        for r in payload["orbits"]:
            w.writerow([r["rep"], r["size"], r["label"]])
    elif command in ("zeta", "dixon"):
        data = payload.get("zeta", payload.get("degrees"))
        w.writerow(["dimension", "count"])
        for d in sorted(data, key=int):
            w.writerow([d, data[d]])
    elif command == "construct":
        w.writerow(["label", "count", "degree"])
        for r in payload["families"]:
            w.writerow([r["label"], r["count"],
                        "" if r["degree"] is None else r["degree"]])
    else:
        w.writerow(["name", "expected", "computed", "pass"])
        for r in payload["rows"]:
            w.writerow([r["name"], json.dumps(r["expected"], sort_keys=True),
                        json.dumps(r["computed"], sort_keys=True), r["pass"]])
    return buf.getvalue()


def _to_pretty(command, payload):
    lines = []
    if command == "order":
        lines.append("order = %d" % payload["order"])
    elif command == "classes":
        lines.append("%d conjugacy classes" % payload["count"])
        for r in payload["classes"]:
            lines.append("  [%s]  size %d" % (r["rep"], r["size"]))
    elif command == "orbits":
        lines.append("%d dual orbits" % payload["count"])
        for r in payload["orbits"]:
            lines.append("  [%s]  size %-6d %s" % (r["rep"], r["size"],
                                                   r["label"]))
    elif command in ("zeta", "dixon"):
        data = payload.get("zeta", payload.get("degrees"))
        terms = ["%s D^%s" % (data[d], d) for d in sorted(data, key=int)]
        lines.append("R = " + " + ".join(terms))
        lines.append("irreducibles: %d" % sum(data.values()))
    elif command == "construct":
        for r in payload["families"]:
            deg = "mixed" if r["degree"] is None else r["degree"]
            lines.append("%-20s count %-6d degree %s" % (r["label"],
                                                         r["count"], deg))
        lines.append("zeta: " + json.dumps(payload["zeta"], sort_keys=True))
        lines.append("checks: " + json.dumps(payload["checks"],
                                             sort_keys=True))
    else:
        for r in payload["rows"]:
            status = "PASS" if r["pass"] else "FAIL"
            lines.append("%s %-28s (%s)" % (status, r["name"], r["anchor"]))
            if not r["pass"]:
                lines.append("     expected %s" %
                             json.dumps(r["expected"], sort_keys=True))
                lines.append("     computed %s" %
                             json.dumps(r["computed"], sort_keys=True))
        lines.append("overall: %s" % ("pass" if payload["ok"] else "FAIL"))
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="modrep2",
        description="character theory of rank-two module automorphism groups")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub = subs.add_parser(name)
        _add_common(sub)
    args = parser.parse_args(argv)
    # the exit collections then skip the import heap (numpy and the package,
    # about 21k objects); nothing is frozen while the process runs
    atexit.unregister(gc.freeze)  # once per process, however often main runs
    atexit.register(gc.freeze)

    envelope = {"schema": "1", "command": args.command,
                "backend": args.backend, "q": args.q,
                "lambda": list(args.lam)}
    try:
        backends = [args.backend]
        if args.command == "ring-compare":  # reads both, so chooses none
            if args.backend != "padic":
                raise ValueError("ring-compare compares both backends and "
                                 "takes no --backend %s" % args.backend)
            backends = BACKENDS
        for backend in backends:  # before the cap reads the order
            residue_size(backend, args.q)
        order = order_formula(args.q, args.lam)
        if order > args.cap:
            print("group order %d exceeds --cap %d" % (order, args.cap),
                  file=sys.stderr)
            return 2
        payload = COMMANDS[args.command](args)
    except ValueError as e:
        print("invalid job: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:  # an internal fault: the JSON envelope, exit 1
        import traceback  # imported on this path only, not by every job
        at = traceback.extract_tb(e.__traceback__)[-1]
        envelope["ok"] = False
        envelope["error"] = ("internal check failed: %s" % e
                             if isinstance(e, AssertionError) else
                             "internal error: %s: %s (in %s, line %d)"
                             % (type(e).__name__, e, at.name, at.lineno))
        return _emit(json.dumps(envelope, sort_keys=True) + "\n", args.out, 1)
    envelope.update(payload)

    if args.format == "json":
        text = json.dumps(envelope, sort_keys=True) + "\n"
    elif args.format == "csv":
        text = _to_csv(args.command, envelope)
    else:
        text = _to_pretty(args.command, envelope)
    failed = args.command in ("verify-all", "ring-compare") and not envelope["ok"]
    return _emit(text, args.out, 1 if failed else 0)


def _emit(text, out, code):
    """Write the report and return code, or 2 if it cannot be written."""
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as e:
        print("cannot write the report: %s" % e, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
