import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modrep2 import build, verify
from modrep2.build import inducing_pairs
from modrep2.groups import aut_group
from modrep2.verify import (VerifyReport, expected_dual_orbit_table,
                            ring_compare, verify_all)


SRC = Path(__file__).resolve().parent.parent / "src"


def test_report_row_shape_and_json():
    r = verify_all("padic", 2, (2, 1))
    d = r.as_dict()
    assert d["ok"] is True
    names = [row["name"] for row in d["rows"]]
    assert names[:4] == ["group_order", "class_count", "zeta_closed_form",
                         "zeta_degree_oracle"]
    for row in d["rows"]:
        assert set(row) == {"name", "anchor", "expected", "computed", "pass"}
    json.dumps(d, sort_keys=True)


def test_report_fail_flag():
    r = VerifyReport()
    r.add("good", "a", 1, 1)
    r.add("bad", "a", 1, 2)
    assert r.rows[0]["pass"] and not r.rows[1]["pass"]
    assert not r.ok


def test_expected_orbit_table_totals():
    # dual of the depth-one kernel has q^4 elements either way
    for q in (2, 3):
        for lam in ((3, 2), (2, 2)):
            t = expected_dual_orbit_table(q, lam)
            assert sum(n * s for n, s in t.values()) == q ** 4


def test_verify_level_one_and_base():
    assert verify_all("padic", 3, (2, 1)).ok
    assert verify_all("padic", 2, (1, 1)).ok


def test_ring_compare_rows():
    r = ring_compare(3, (2, 1))
    assert r.ok
    assert [row["name"] for row in r.rows] == ["zeta_equal",
                                               "class_count_equal"]


def test_depth_one_value_matrix_built_once():
    # the spectrum checks and the orbit census share one depth-one dual, so
    # its |K| x |K| matrix of value exponents is built once per group (in a
    # fresh process: the groups and their duals are cached)
    code = ("from modrep2 import orbits\n"
            "from modrep2.verify import verify_all\n"
            "built, codes = [], orbits.CongruenceDual.codes\n"
            "def counted(self, thetas):\n"
            "    if len(thetas) == len(self.duals):\n"
            "        built.append(self.G.name)\n"
            "    return codes(self, thetas)\n"
            "orbits.CongruenceDual.codes = counted\n"
            "print(verify_all('padic', 3, (2, 2)).ok, built)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "True ['Aut(padic,q=3,(2, 2))']\n"


def test_parabolic_check_refuses_a_small_absolute_error(monkeypatch):
    # one lower induction on an inducing pair off by 1 mod r at one class
    # is refused: values are compared exactly
    G = aut_group("padic", 2, (2, 2))
    r = verify.job_prime(["padic"], 2, (2, 2))
    assert verify._check_parabolic_both_sides(G, r)
    row = np.flatnonzero(inducing_pairs(G.R1, G.R2))[0]
    ind = verify.ind

    def lower_off(G, f, side, m=0):
        f = ind(G, f, side, m)
        if side == "lower":
            c = G.class_count - 1
            f.vals[row, c] = (f.vals[row, c] + 1) % r
        return f

    monkeypatch.setattr(verify, "ind", lower_off)
    assert not verify._check_parabolic_both_sides(G, r)


@pytest.mark.parametrize("lam", [(2, 2), (3, 2)])
def test_oracle_and_assembly_share_the_job_prime(lam, monkeypatch):
    # one prime per job: the oracle, the floor's oracle on (2,2), and every
    # set assemble builds for the job (the floors, and on (3,2) the stable
    # chain's (4,3) tower) work mod it.  The sets are read from the memos
    # of the groups up to level 4, emptied of earlier jobs' sets first
    groups = [aut_group("padic", 2, (l1, l2)) for l1 in range(1, 5)
              for l2 in range(l1 + 1)]
    for G in groups:
        monkeypatch.setattr(G, "_memo", {
            k: v for k, v in vars(G).get("_memo", {}).items()
            if k[0] != "assembled"}, raising=False)
    seen = []
    for mod in (verify, build):
        monkeypatch.setattr(mod, "character_degrees",
                            lambda G, r=None, f=mod.character_degrees:
                            seen.append(r) or f(G, r))
    assert verify_all("padic", 2, lam).ok
    r = verify.job_prime(["padic"], 2, (4, 3) if lam == (3, 2) else lam)
    assert seen == [r] * (2 if lam == (2, 2) else 1)
    built = [k[1] for G in groups for k in G._memo if k[0] == "assembled"]
    assert set(built) == {r} and len(built) >= 3
