"""Acceptance gate: one test and one printed pass/fail line per criterion."""

from collections import Counter

from modrep2.build import assemble, zeta_closed_form
from modrep2.classfun import is_cuspidal
from modrep2.dixon import character_degrees
from modrep2.groups import aut_group, class_count_formula
from modrep2.orbits import CongruenceDual, orbits_on_kernel
from modrep2.verify import (expected_dual_orbit_table, ring_compare,
                            verify_all)

_REPORTS = {}


def report(q, lam):
    if (q, lam) not in _REPORTS:
        _REPORTS[(q, lam)] = verify_all("padic", q, lam)
    return _REPORTS[(q, lam)]


def _line(num, name, ok):
    print("CRITERION %d %-36s %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok


ZETA = {
    (2, (2, 1)): {1: 4, 2: 1},
    (2, (3, 1)): {1: 8, 2: 2},
    (3, (2, 1)): {1: 4, 2: 8, 3: 8},
    (2, (3, 2)): {1: 8, 2: 14, 4: 4},
    (2, (2, 2)): {1: 4, 2: 5, 3: 4, 6: 1},
    (3, (2, 2)): {1: 6, 2: 9, 3: 6, 4: 3, 6: 24, 8: 18, 12: 12},
}


def test_criterion_1_zeta_three_way():
    ok = True
    for (q, lam), expect in ZETA.items():
        built = assemble("padic", q, lam)
        closed = dict(zeta_closed_form(q, lam))
        oracle = dict(Counter(character_degrees(built.G)))
        ok = ok and dict(built.zeta) == closed == oracle == expect
    _line(1, "zeta three-way agreement", ok)


def test_criterion_2_class_counts():
    ok = True
    for q in (2, 3):
        for lam in ((1, 1), (2, 1), (3, 1), (2, 2), (3, 2)):
            G = aut_group("padic", q, lam)
            ok = ok and G.class_count == class_count_formula(q, lam)
    ok = ok and aut_group("padic", 2, (2, 2)).class_count == 14
    ok = ok and aut_group("padic", 2, (3, 2)).class_count == 26
    _line(2, "conjugacy class closed forms", ok)


def test_criterion_3_orbit_tables():
    ok = True
    for q in (2, 3):
        for lam in ((3, 2), (2, 2)):
            G = aut_group("padic", q, lam)
            D = CongruenceDual(G, 1, 0)
            ok = ok and D.orbit_table() == expected_dual_orbit_table(q, lam)
            want = q * q + q + (1 if lam[0] > lam[1] else 0)
            ok = ok and len(orbits_on_kernel(G)) == want
    _line(3, "dual orbit censuses", ok)


def test_criterion_4_cuspidal_construction():
    ok = True
    for q, lam in ((2, (3, 2)), (2, (4, 2)), (3, (3, 2))):
        l1, l2 = lam
        G = aut_group("padic", q, lam)
        fam = assemble("padic", q, lam).family("cuspidal_nonrect")
        ok = ok and fam.count == q ** (l1 + l2 - 3) * (q - 1) ** 2
        ok = ok and fam.degree == q ** (l2 - 1) * (q - 1)
        ok = ok and bool((fam.members.mult() == 1).all())
        ok = ok and len(set(fam.members.fingerprint())) == fam.count
        ok = ok and bool(is_cuspidal(G, fam.members).all())
    _line(4, "cuspidal count, degree, battery", ok)


def test_criterion_5_functor_identities():
    ok = True
    for lam in ((3, 2), (2, 2)):
        rows = {r["name"]: r["pass"] for r in report(2, lam).rows}
        for name in ("geo_adjointness", "inf_adjointness",
                     "parabolic_two_sided", "mixed_composition",
                     "cuspidal_induction"):
            ok = ok and rows[name]
    rows32 = {r["name"]: r["pass"] for r in report(2, (3, 2)).rows}
    ok = ok and rows32["stable_chain"]
    _line(5, "functor adjunction and composition", ok)


def test_criterion_6_exhaustion():
    a = assemble("padic", 2, (3, 2))
    ok = len(a.members) == 26
    ok = ok and a.checks.get("orthonormal", False)
    ok = ok and sum(round(d) ** 2 for d in a.members.degrees.tolist()) == 128
    rows = {r["name"]: r for r in report(2, (3, 2)).rows}
    ok = ok and rows["primitive_trichotomy"]["pass"]
    sub = {r["name"]: r for r in report(2, (2, 2)).rows}["rect_subtraction"]
    ok = ok and sub["pass"] and sub["computed"] == {"2": 3}
    _line(6, "exhaustion and rect subtraction", ok)


def test_criterion_7_ring_independence():
    ok = True
    for q in (2, 3):
        for lam in ((2, 1), (3, 1), (2, 2), (3, 2)):
            ok = ok and ring_compare(q, lam).ok
    for lam in ((2, 1), (2, 2)):
        z = dict(assemble("tpoly", 4, lam).zeta)
        ok = ok and z == dict(zeta_closed_form(4, lam))
    _line(7, "ring independence", ok)
