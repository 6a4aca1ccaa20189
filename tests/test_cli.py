import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modrep2 import build, cli, verify
from modrep2.cli import main
from modrep2.rings import is_prime

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_zeta_json(capsys):
    rc, out = run(capsys, "zeta", "--p", "2", "--lambda", "3,2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["zeta"] == {"1": 8, "2": 14, "4": 4}
    assert doc["lambda"] == [3, 2] and doc["q"] == 2


def test_classes_count(capsys):
    rc, out = run(capsys, "classes", "--p", "2", "--lambda", "2,2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 14
    assert sum(r["size"] for r in doc["classes"]) == 96


def test_order(capsys):
    rc, out = run(capsys, "order", "--p", "3", "--lambda", "2,2")
    assert rc == 0
    assert json.loads(out)["order"] == 3888


def test_orbits_census(capsys):
    rc, out = run(capsys, "orbits", "--p", "2", "--lambda", "2,2")
    assert rc == 0
    doc = json.loads(out)
    labels = {}
    for r in doc["orbits"]:
        labels.setdefault(r["label"], []).append(r["size"])
    assert sorted(labels["scalar"]) == [1, 1]
    assert sorted(labels["split"]) == [6]
    assert sorted(labels["jordan"]) == [3, 3]
    assert sorted(labels["irreducible"]) == [2]
    assert sum(r["size"] for r in doc["orbits"]) == 16


def test_dixon(capsys):
    rc, out = run(capsys, "dixon", "--p", "2", "--lambda", "2,1")
    assert rc == 0
    assert json.loads(out)["degrees"] == {"1": 4, "2": 1}


def test_construct(capsys):
    rc, out = run(capsys, "construct", "--p", "2", "--lambda", "3,2")
    assert rc == 0
    doc = json.loads(out)
    fams = {r["label"]: (r["count"], r["degree"]) for r in doc["families"]}
    assert fams["cuspidal_nonrect"] == (4, 2)
    assert fams["pullback_twist"][0] == 10
    assert doc["zeta"] == {"1": 8, "2": 14, "4": 4}
    assert doc["complete"] and all(doc["checks"].values())


def test_verify_all_passes(capsys):
    rc, out = run(capsys, "verify-all", "--p", "2", "--lambda", "2,1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] and all(r["pass"] for r in doc["rows"])


def test_ring_compare(capsys):
    rc, out = run(capsys, "ring-compare", "--p", "2", "--lambda", "2,1")
    assert rc == 0
    assert json.loads(out)["ok"]


def _no_build(*args, **kwargs):
    raise AssertionError("a refused job built a group")


@pytest.mark.parametrize("q,lam", [("2", "2,1"), ("4", "2,2"), ("4", "5,5")])
def test_ring_compare_refuses_a_backend(capsys, monkeypatch, q, lam):
    # ring-compare reads both backends, so --backend tpoly chose nothing:
    # the envelope said "tpoly" for a padic-against-tpoly report, and on
    # q=4 the job was refused only after the tpoly group was built.  Now
    # it exits 2 before anything is built or the cap is read
    monkeypatch.setattr(verify, "assemble", _no_build)
    monkeypatch.setattr(verify, "job_prime", _no_build)
    rc = main(["ring-compare", "--backend", "tpoly", "--q", q, "--lambda",
               lam])
    cap = capsys.readouterr()
    assert rc == 2 and cap.out == ""
    assert cap.err == ("invalid job: ring-compare compares both backends "
                       "and takes no --backend tpoly\n")


def test_ring_compare_checks_both_backends_before_the_cap(capsys,
                                                          monkeypatch):
    # the residue size is checked against padic, then tpoly, before --cap:
    # q=4 is refused as no prime on 5,5, whose order is above the cap, and
    # an admitted q reaches the cap only after both checks
    seen = []

    def residue_size(backend, q):
        seen.append((backend, q))
        return real(backend, q)

    real = cli.residue_size
    monkeypatch.setattr(cli, "residue_size", residue_size)
    monkeypatch.setattr(verify, "assemble", _no_build)
    for argv, err in [
            (("--q", "4"), "invalid job: padic backend requires prime "
             "residue size, got 4\n"),
            (("--backend", "padic", "--q", "4"), "invalid job: padic backend "
             "requires prime residue size, got 4\n"),
            (("--q", "3"), "group order 2066242608 exceeds --cap 500000\n")]:
        seen.clear()
        rc = main(["ring-compare", *argv, "--lambda", "5,5"])
        cap = capsys.readouterr()
        assert rc == 2 and cap.out == "" and cap.err == err, argv
        q = int(argv[-1])
        assert seen == [("padic", q), ("tpoly", q)][:1 if q == 4 else 2]


def test_ring_compare_envelope_names_padic(capsys):
    # the default envelope is unchanged: backend "padic", as before
    for argv in ([], ["--backend", "padic"]):
        rc, out = run(capsys, "ring-compare", "--p", "2", "--lambda", "1,1",
                      *argv)
        doc = json.loads(out)
        assert rc == 0 and doc["ok"] and doc["backend"] == "padic"


def test_deterministic_output(capsys):
    _, first = run(capsys, "construct", "--p", "2", "--lambda", "2,2")
    _, second = run(capsys, "construct", "--p", "2", "--lambda", "2,2")
    assert first == second


def test_csv_zeta(capsys):
    rc, out = run(capsys, "zeta", "--p", "2", "--lambda", "3,2",
                  "--format", "csv")
    assert rc == 0
    assert out.splitlines() == ["dimension,count", "1,8", "2,14", "4,4"]


def test_csv_construct_blank_mixed_degree(capsys):
    rc, out = run(capsys, "construct", "--p", "2", "--lambda", "3,2",
                  "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "label,count,degree"
    assert "pullback_twist,10," in lines


def test_pretty_verify(capsys):
    rc, out = run(capsys, "verify-all", "--p", "2", "--lambda", "2,1",
                  "--format", "pretty")
    assert rc == 0
    assert "PASS" in out and out.strip().endswith("overall: pass")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out = run(capsys, "zeta", "--p", "2", "--lambda", "2,1",
                  "--out", str(target))
    assert rc == 0 and out == ""
    assert json.loads(target.read_text())["zeta"] == {"1": 4, "2": 1}


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["order", "--p", "2", "--lambda", "2,1"]
    rc, out = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "modrep2", *argv], env=env,
                          capture_output=True, text=True)
    assert rc == 0
    assert (proc.returncode, proc.stdout) == (0, out), proc.stderr


def test_unwritable_out_is_an_unusable_job(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    rc = main(["order", "--p", "2", "--lambda", "2,1", "--out", str(target)])
    cap = capsys.readouterr()
    assert rc == 2 and cap.out == ""
    assert cap.err.count("\n") == 1 and "cannot write the report" in cap.err
    assert not target.exists()


def test_internal_error_is_a_json_envelope(monkeypatch, capsys):
    def broken(args):
        raise KeyError("missing")

    monkeypatch.setitem(cli.COMMANDS, "order", broken)
    rc = main(["order", "--p", "2", "--lambda", "2,1"])
    out, err = capsys.readouterr()
    assert rc == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["command"] == "order"
    assert doc["error"].startswith("internal error: KeyError: 'missing' "
                                   "(in broken, line ")
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", ["construct", "verify-all"])
def test_prime_past_the_float64_bound_is_an_invalid_job(command, monkeypatch,
                                                         capsys):
    # a job prime with (k+1) r^2 >= 2^53 is refused at admission, before any
    # value is built: exit 2, one line on stderr naming the failing term
    r = math.isqrt(2 ** 53 // 6) + 1  # q=2 (2,1): k = 5, exponent 4
    while not (is_prime(r) and r % 4 == 1):
        r += 1
    assert 6 * r * r >= 2 ** 53
    monkeypatch.setattr(build, "job_prime", lambda backends, q, lam: r)
    monkeypatch.setattr(verify, "job_prime", lambda backends, q, lam: r)
    rc = main([command, "--p", "2", "--lambda", "2,1"])
    cap = capsys.readouterr()
    assert rc == 2 and cap.out == ""
    assert cap.err.startswith("invalid job: the prime r = %d fails (k+1) r^2 "
                              "< 2^53 for k = 5" % r)


def test_cap_exceeded(capsys):
    rc = main(["zeta", "--p", "3", "--lambda", "4,4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "exceeds" in err


def test_cap_override(capsys):
    rc, out = run(capsys, "order", "--p", "3", "--lambda", "4,4",
                  "--cap", "100000000")
    assert rc == 0
    assert json.loads(out)["order"] == 25509168


def test_bad_residue_size(capsys):
    rc = main(["zeta", "--p", "6", "--lambda", "2,1"])
    assert rc == 2


@pytest.mark.parametrize("q,error", [
    ("1", "residue size must be >= 2"),
    ("6", "residue size 6 is not a prime power"),
    ("4", "padic backend requires prime residue size, got 4")])
def test_order_refuses_a_bad_residue_size(capsys, q, error):
    # order builds no ring, yet refuses what classes and zeta refuse, with
    # the same message: it printed order 0, 5400 and 576 and exited 0; the
    # residue size is read before --cap, so on 5,5, whose formal order is
    # above the cap at q=4 and 6, the refusal is the same
    for command in ("order", "classes", "zeta"):
        for lam in ("2,1", "5,5"):
            rc = main([command, "--p", q, "--lambda", lam])
            cap = capsys.readouterr()
            assert rc == 2 and cap.out == "", (command, lam)
            assert cap.err == "invalid job: %s\n" % error, (command, lam)


def test_orbits_needs_depth(capsys):
    rc = main(["orbits", "--p", "2", "--lambda", "2,1"])
    assert rc == 2


@pytest.mark.parametrize("backend", ["padic", "tpoly"])
@pytest.mark.parametrize("lam", ["1,0", "2,0"])
def test_orbits_refuses_rank_one(capsys, backend, lam):
    # a rank-one type has no depth-one congruence dual either: an invalid
    # job, exit 2, with no report
    rc = main(["orbits", "--backend", backend, "--p", "2", "--lambda", lam])
    cap = capsys.readouterr()
    assert rc == 2 and cap.out == ""
    assert cap.err == ("invalid job: depth (1,0) gives no proper coordinate "
                       "window\n")


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["bogus", "--p", "2", "--lambda", "2,1"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["zeta", "--p", "2"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["zeta", "--p", "2", "--lambda", "2"])
    assert e.value.code == 2


# sha256 of the JSON stdout of the commands that print orbit representatives,
# where each representative must stay the first of its orbit in enumeration
# order, and of reports that depend on fingerprints and the class order.
PINNED_OUTPUT = [
    (("classes", "--p", "2", "--lambda", "2,2"),
     "4904d9a1ff734db8cc3ec0feb8bb0c45d15f14f5bc67c09b47bdcbe12140c70e"),
    (("classes", "--p", "3", "--lambda", "2,1"),
     "d37eeb77170df6051bfa9392af665cf1d4c1911f51b729472e3ca3c76d7f9a8d"),
    (("classes", "--backend", "tpoly", "--q", "4", "--lambda", "1,1"),
     "59ca8b773afa3d0383fe2fdea4518aee4867c9882286b5db2181c1545c8ed024"),
    (("orbits", "--p", "2", "--lambda", "2,2"),
     "5bb91c9739ae5fbf6eeeb58c37731910a103b3758eda0cd5cbc0de613d5b58c3"),
    (("orbits", "--p", "3", "--lambda", "3,2"),
     "2284ed18427caf99480a13bb47ab8f59f8eb0a58c1126aa470566a0bd81500e9"),
    (("construct", "--p", "2", "--lambda", "3,2"),
     "754ff4f419b50276195954f81bacd4e411ef6e8f1a5249ff21324f4d81b67564"),
    (("construct", "--p", "3", "--lambda", "2,2"),
     "aba3aaa2c9015e2a7ac5f2c18dcf50faf63563aa381da01053e97deb64684db2"),
    (("verify-all", "--p", "2", "--lambda", "3,3"),
     "410afeb10de37bf6a4cfcf4e2b58a2f47c71011fe2293d2e18a5a2247bf5e75f"),
    (("dixon", "--p", "2", "--lambda", "4,4"),
     "69a51c33eeb5bde9b93545bd3623b2dc62b6b5c9f1dec9e0e6ede955a75ea132"),
    (("dixon", "--p", "3", "--lambda", "3,2"),
     "eac6a8f8f09570900a541d6a91a6221327223a4ba161d091a44c6963337cd5eb"),
    (("dixon", "--backend", "tpoly", "--q", "4", "--lambda", "2,2"),
     "140d5528991857504c476477574281637d361b40ed9d27f2d41cf1a445d96654"),
    (("construct", "--backend", "tpoly", "--q", "4", "--lambda", "2,2"),
     "679179d30d4e9106ff7a3e866b21bf3d53d7c1ba619c33a3a2c8f8fe4e294322"),
    (("construct", "--p", "2", "--lambda", "5,3"),
     "53eba4fd0568b5d360f8526fda419d82f69cc71dbf45f7cba413fc3ad4d4ed13"),
    (("verify-all", "--p", "2", "--lambda", "4,3"),
     "b327e7a8c756d1276844c2bb13670d1187615c6bc36f9c014f8a3d4dd5eb335a"),
    (("verify-all", "--backend", "tpoly", "--q", "2", "--lambda", "3,2"),
     "d273a53fd2767e145c59e95b7ae1bfaa4633379fc2b92872dadf420111a744d7"),
    # rank one: the unit group's codes as representatives
    (("classes", "--p", "3", "--lambda", "2,0"),
     "3cba0b8a9aa475ee5def0d4dd63694a7097b1c9550acf564c4f5badc51270cbf"),
    (("classes", "--backend", "tpoly", "--q", "4", "--lambda", "2,0"),
     "58eada539c259c168fd9d65c0937e7289288559593670528f416e80ff7d136e3"),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUT)
def test_pinned_representatives(capsys, argv, digest):
    rc, out = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tpoly_backend(capsys):
    rc, out = run(capsys, "zeta", "--q", "4", "--lambda", "2,1",
                  "--backend", "tpoly")
    assert rc == 0
    assert json.loads(out)["zeta"] == {"1": 9, "3": 15, "4": 27}


def test_heap_is_frozen_at_exit():
    # main registers gc.freeze with atexit, so the interpreter's exit
    # collections skip the import heap; a hook registered before main runs
    # after the freeze (atexit runs last in, first out)
    code = ("import atexit, gc, os\n"
            "atexit.register(lambda: print('at exit',\n"
            "                              gc.get_freeze_count() > 0))\n"
            "from modrep2 import cli\n"
            "for _ in range(2):\n"
            "    assert cli.main(['order', '--p', '2', '--lambda', '2,1',\n"
            "                     '--out', os.devnull]) == 0\n"
            "print('after main', gc.get_freeze_count())\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "after main 0\nat exit True\n"


def test_nothing_is_frozen_while_a_process_runs(capsys):
    rc, _ = run(capsys, "construct", "--p", "2", "--lambda", "2,1")
    assert rc == 0 and gc.get_freeze_count() == 0


def test_no_root_tuples_on_dixon_construct_verify_all():
    # the root groups of every job keep their elements as code columns:
    # no tuple list and no tuple -> index dict is built
    code = ("import gc, os\n"
            "from modrep2 import cli\n"
            "from modrep2.groups import AutGroup\n"
            "for cmd in ('dixon', 'construct', 'verify-all'):\n"
            "    for job in (['--p', '2', '--lambda', '3,2'],\n"
            "                ['--backend', 'tpoly', '--q', '4', '--lambda', '2,1']):\n"
            "        assert cli.main([cmd] + job + ['--out', os.devnull]) == 0\n"
            "roots = [g for g in gc.get_objects() if isinstance(g, AutGroup)]\n"
            "print(len(roots), sorted(g.name for g in roots\n"
            "                         if {'elements', 'index'} & set(vars(g))))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    count, built = proc.stdout.split(" ", 1)
    assert int(count) >= 6 and built.strip() == "[]", proc.stdout
