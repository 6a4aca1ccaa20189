"""Construction and assembly tests: family counts, zeta polynomials, the
cuspidal battery, and the induction-restriction compatibility identities."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from complex_ref import TOL, roots_of_unity
from modrep2.build import (IrrFamily, _check_orthonormal, assemble,
                           build_rank1, cuspidal_rect_count, green_gl2,
                           job_prime, zeta_closed_form)
from modrep2.classfun import (ind, induce, inflate, is_cuspidal,
                              is_primitive, k_spectrum, linear_characters,
                              member_sums, res, spectrum_kinds, stack,
                              torus_character, twist, ClassFunction, dedupe)
from modrep2.dixon import character_degrees, dixon_prime
from modrep2.groups import Subgroup, aut_group, order_formula
from modrep2.orbits import CongruenceDual
from modrep2.rings import (BACKENDS, character_group, fr_roots,
                           twisting_characters, unit_group)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_green_base():
    assert green_gl2(2) == {1: 2, 2: 1}
    assert green_gl2(3) == {1: 2, 2: 3, 3: 2, 4: 1}
    assert green_gl2(4) == {1: 3, 3: 6, 4: 3, 5: 3}


def test_zeta_closed_form_values():
    assert zeta_closed_form(2, (2, 1)) == {1: 4, 2: 1}
    assert zeta_closed_form(2, (3, 1)) == {1: 8, 2: 2}
    assert zeta_closed_form(3, (2, 1)) == {1: 4, 2: 8, 3: 8}
    assert zeta_closed_form(4, (2, 1)) == {1: 9, 3: 15, 4: 27}
    assert zeta_closed_form(2, (3, 2)) == {1: 8, 2: 14, 4: 4}
    assert zeta_closed_form(3, (3, 2)) == {1: 12, 2: 24, 3: 24, 6: 72, 9: 72}
    assert zeta_closed_form(2, (4, 2)) == {1: 16, 2: 28, 4: 8}
    assert zeta_closed_form(2, (4, 3)) == {1: 16, 2: 28, 4: 56, 8: 16}
    assert zeta_closed_form(2, (2, 2)) == {1: 4, 2: 5, 3: 4, 6: 1}
    assert zeta_closed_form(3, (2, 2)) == {1: 6, 2: 9, 3: 6, 4: 3, 6: 24,
                                           8: 18, 12: 12}
    assert zeta_closed_form(4, (2, 2)) == {1: 12, 3: 24, 4: 12, 5: 12,
                                           12: 90, 15: 48, 20: 54}
    assert zeta_closed_form(2, (3, 0)) == {1: 4}


def test_cuspidal_rect_count_values():
    assert cuspidal_rect_count(2, 2) == (3, 2)
    assert cuspidal_rect_count(2, 3) == (24, 6)
    assert cuspidal_rect_count(3, 2) == (12, 4)


def test_rank1():
    for q, level in ((2, 2), (3, 1)):
        r = job_prime(["padic"], q, (level, 0))
        out = build_rank1("padic", q, level, r)
        assert len(out) == 2 and out.r == r
    a = assemble("padic", 3, (2, 0))
    assert a.zeta == {1: 6} and a.complete
    assert a.members[0].group is a.G
    # the trivial group: its job prime is 3 (above 2 sqrt|G| = 2), and it
    # also assembles at r = 2 (1 its primitive root)
    for backend in ("padic", "tpoly"):
        assert assemble(backend, 2, (1, 0)).members.r == 3
        a = assemble(backend, 2, (1, 0), 2)
        assert a.zeta == {1: 1} and a.members.r == 2


def assembled_types(lam):
    """The types assemble(lam) assembles, lam among them: the reference
    that job_prime, which reads the top type alone, is checked against."""
    l1, l2 = lam
    subs = [(l1 - 1, l2 - 1)] + [(l1, m) for m in range(1, l2)]
    return {tuple(lam)}.union(*map(assembled_types, subs * (l2 >= 2)))


def _small_types():
    """(backend, q, lam) for every type with |G| <= 30 000 and a ring of
    at most 1024 codes, q in 2..5 on both backends (padic: q prime)."""
    return [(b, q, (l1, l2)) for b in BACKENDS for q in (2, 3, 4, 5)
            if b == "tpoly" or q != 4
            for l1 in range(1, 11) if q ** l1 <= 1024
            for l2 in range(l1 + 1) if order_formula(q, (l1, l2)) <= 30000]


def test_top_group_bounds_its_tower():
    # job_prime reads the top group alone: on every small type, the lcm of
    # the exponents of the types assemble visits is the top's exponent, and
    # their largest degree the top's; the job prime is admitted by each
    types = _small_types()
    assert len(types) > 100
    for backend, q, lam in types:
        tower = assembled_types(lam)
        exps = [aut_group(backend, q, t).powers[0] for t in tower]
        top = aut_group(backend, q, lam).powers[0]
        assert math.lcm(*exps) == top, (backend, q, lam)
        D = max(zeta_closed_form(q, lam))
        assert max(max(zeta_closed_form(q, t)) for t in tower) == D
        r = job_prime([backend], q, lam)
        assert all((r - 1) % e == 0 for e in exps) and r > D * D


FAMILY_TABLES = {
    ("padic", 2, (2, 1)): {"one_dim": (1, 1), "orbitB+": (1, 1),
                           "orbitB-": (1, 1), "orbitC": (1, 1),
                           "heis_q": (1, 2)},
    ("padic", 3, (2, 1)): {"one_dim": (4, 1), "orbitB+": (2, 2),
                           "orbitB-": (2, 2), "orbitC": (4, 2),
                           "heis_q": (8, 3)},
    ("padic", 2, (3, 1)): {"one_dim": (2, 1), "orbitB+": (2, 1),
                           "orbitB-": (2, 1), "orbitC": (2, 1),
                           "heis_q": (2, 2)},
    ("padic", 2, (3, 2)): {"pullback_twist": (10, None),
                           "cuspidal_nonrect": (4, 2), "inf_embed": (2, 2),
                           "inf_quot": (2, 2), "geo_split": (4, 2),
                           "geo_irred": (4, 4)},
    ("padic", 3, (3, 2)): {"pullback_twist": (60, None),
                           "cuspidal_nonrect": (36, 6), "inf_embed": (12, 6),
                           "inf_quot": (12, 6), "geo_split": (12, 6),
                           "geo_irred": (72, 9)},
    ("padic", 2, (4, 2)): {"pullback_twist": (20, None),
                           "cuspidal_nonrect": (8, 2), "inf_embed": (4, 2),
                           "inf_quot": (4, 2), "geo_split": (8, 2),
                           "geo_irred": (8, 4)},
    ("padic", 2, (2, 2)): {"pullback_twist": (6, None), "inf_embed": (2, 3),
                           "geo_split": (2, 3), "geo_irred": (1, 6),
                           "cuspidal_rect_count": (3, 2)},
    ("padic", 3, (2, 2)): {"pullback_twist": (24, None), "inf_embed": (12, 8),
                           "geo_split": (6, 8), "geo_irred": (12, 12),
                           "cuspidal_rect_count": (24, 6)},
}


@pytest.mark.parametrize("backend,q,lam", sorted(FAMILY_TABLES))
def test_assemble_families(backend, q, lam):
    a = assemble(backend, q, lam)
    got = {f.label: (f.count, f.degree) for f in a.families}
    assert got == FAMILY_TABLES[(backend, q, lam)]
    assert a.zeta == zeta_closed_form(q, lam)
    assert all(a.checks.values())


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 2, (2, 1)), ("padic", 2, (3, 1)), ("padic", 3, (2, 1)),
    ("padic", 2, (3, 2)), ("padic", 2, (2, 2)), ("padic", 3, (2, 2)),
])
def test_zeta_three_way(backend, q, lam):
    a = assemble(backend, q, lam)
    closed = zeta_closed_form(q, lam)
    oracle = dict(Counter(character_degrees(a.G)))
    assert a.zeta == closed == oracle


@pytest.mark.parametrize("backend,q,lam,count,degree", [
    ("padic", 2, (3, 2), 4, 2),
    ("padic", 2, (4, 2), 8, 2),
    ("padic", 3, (3, 2), 36, 6),
])
def test_cuspidal_battery(backend, q, lam, count, degree):
    a = assemble(backend, q, lam)
    fam = a.family("cuspidal_nonrect")
    assert fam.count == count and fam.degree == degree
    G = a.G
    # the unipotent radicals' members in the depth-one congruence kernel
    K = G.subgroup("congruence", i=1, sigma=0).idx
    Vp, Vm = (Subgroup(G, np.intersect1d(G.subgroup(tag).idx, K), tag)
              for tag in ("unipotent_upper", "unipotent_lower"))
    V1 = G.subgroup("floor_torus_a")
    assert is_cuspidal(G, fam.members).all()
    kinds, present = spectrum_kinds(G, fam.members)
    assert (present == [k == "off_diag" for k in kinds]).all()
    assert (member_sums(Vp, fam.members) == 0).all()
    assert (member_sums(Vm, fam.members) == 0).all()
    assert (member_sums(V1, fam.members) != 0).all()
    # the cuspidality filter recovers exactly this family
    cusp = set(a.members[is_cuspidal(G, a.members)].fingerprint())
    assert cusp == set(fam.members.fingerprint())


def test_cuspidal_filter_on_depth_one():
    for q in (2, 3):
        a = assemble("padic", q, (2, 1))
        got = set(a.members[is_cuspidal(a.G, a.members)].fingerprint())
        assert got == set(a.family("orbitC").members.fingerprint())


def test_rect_explicit_members_not_cuspidal():
    a = assemble("padic", 2, (2, 2))
    assert not is_cuspidal(a.G, a.members).any()


def _restriction_battery(G, chi, twists):
    """Invariant-vanishing of every twist under every kernel subgroup."""
    subs = [G.subgroup("unipotent_upper"), G.subgroup("unipotent_lower")]
    for m in range(1, G.l2):
        subs.append(G.subgroup("ker_embed", m=m))
        subs.append(G.subgroup("ker_quot", m=m))
    r = chi.r
    for t in twists:
        tc = ClassFunction(G, chi.vals * t.vals % r, r)
        for U in subs:
            if tc.vals[0, U.root_cls].sum() % r:
                return False
    return True


def test_cuspidal_vs_all_one_dim_twists():
    # twisting by every one-dimensional character instead of just the q
    # determinant twists must cut out the same set
    for backend, q, lam in [("padic", 2, (3, 2)), ("padic", 3, (2, 1))]:
        a = assemble(backend, q, lam)
        ones = [f for f in a.members if f.degrees[0] == 1]
        cusp = is_cuspidal(a.G, a.members)
        for f, want in zip(a.members, cusp):
            strong = f.mult()[0] == 1 and _restriction_battery(a.G, f, ones)
            if a.G.l2 >= 2:
                strong = strong and is_primitive(a.G, f)[0]
            assert strong == want


def _unit_chars(ring):
    """Per unit character of ring: its row (E, L[t:t + 1]), as
    torus_character takes it, and its value at a unit, as a function."""
    E, L = character_group(unit_group(ring))
    col, z = {u: j for j, u in enumerate(ring.units)}, roots_of_unity(E)
    return [((E, L[t:t + 1]), lambda u, row=L[t]: z[row[col[u]]])
            for t in range(len(L))]


def _deep_layer(ring):
    return [ring.add[1][ring.pi_mul(s, ring.level - 1)]
            for s in range(1, ring.q)]


def test_geo_upper_equals_lower():
    # both parabolic inductions of an inducing pair agree and are irreducible
    for lam in [(3, 2), (2, 2)]:
        G = aut_group("padic", 2, lam)
        r = dixon_prime(G.powers[0], 64)
        layer = _deep_layer(G.R1)
        for r1, t1 in _unit_chars(G.R1):
            for r2, t2 in _unit_chars(G.R2):
                pair = torus_character(G, r1, r2, r)
                up, lo = ind(G, pair, "upper"), ind(G, pair, "lower")
                if lam[0] > lam[1]:
                    inducing = any(abs(t1(u) - 1) > TOL for u in layer)
                else:
                    inducing = any(abs(t1(u) - t2(u)) > TOL for u in layer)
                if inducing:
                    assert np.array_equal(up.vals, lo.vals)
                    assert up.mult()[0] == 1
                else:
                    assert up.mult()[0] > 1


def test_restriction_splits_induction_on_cuspidal():
    # restriction is a one-sided inverse of induction on cuspidal input
    G = aut_group("padic", 2, (3, 2))
    sigma = assemble("padic", 2, (3, 1)).family("orbitC").members
    for side in ("embed", "quot"):
        up = ind(G, sigma, side, 1)
        back = res(G, up, side, 1)
        assert np.array_equal(back.vals, sigma.vals)


def _product_set_subgroup(G, name="DH"):
    S = G.subgroup("scalars")
    H = G.subgroup("heisenberg")
    members = np.unique(G.right_mul(S.idx[:, None], H.idx[None, :]))
    return Subgroup(G, members, name)


def test_induction_composes_through_intermediate_subgroup():
    # inducing an inflation in one step agrees with inflating the induction
    G = aut_group("padic", 2, (3, 2))
    Gf = aut_group("padic", 2, (3, 1))
    P1 = G.subgroup("parabolic_embed", m=1)
    Q, img = G.hom("embed", P1.idx, 1)
    assert Q is Gf
    r = dixon_prime(G.powers[0], 256)
    for B in [Gf.subgroup("parabolic_upper"), _product_set_subgroup(Gf)]:
        pre = P1.idx[np.isin(img, B.idx)]
        P2 = Subgroup(G, pre, "preimage")
        # the pullback from B to its preimage P2, read at P2's members and
        # put on P2's abelianization, on whose cosets it is constant
        _, at = G.hom("embed", P2.idx, 1)
        Q, E, L = linear_characters(B)
        X = fr_roots(E, r)[L]
        V = X[:, Q.coset_of[B.positions(at)]]
        Q2 = P2.abelianization()
        X2 = np.zeros((len(X), Q2.order), dtype=np.int64)
        X2[:, Q2.coset_of] = V
        assert np.array_equal(X2[:, Q2.coset_of], V)
        lhs = induce(P2, ClassFunction(Q2, X2, r))
        # induced to B, then inflated to P1 and induced up: ind
        rhs = ind(G, induce(B, ClassFunction(Q, X, r)), "embed", 1)
        assert len(lhs) == len(L)
        assert np.array_equal(lhs.vals, rhs.vals)


def test_stable_functors_compose_along_tower():
    # one-step and two-step stable induction/restriction agree along
    # (4,1) -> (4,2) -> (4,3)
    G43 = aut_group("padic", 2, (4, 3))
    G42 = aut_group("padic", 2, (4, 2))
    sigma = assemble("padic", 2, (4, 1)).family("orbitC").members
    for side in ("embed", "quot"):
        direct = ind(G43, sigma, side, 1)
        stepped = ind(G43, ind(G42, sigma, side, 1), side, 2)
        assert np.array_equal(direct.vals, stepped.vals)
        rho = direct
        back = res(G42, res(G43, rho, side, 2), side, 1)
        assert np.array_equal(back.vals, res(G43, rho, side, 1).vals)


def test_parabolic_induction_commutes_with_stable_induction():
    # inducing a pair pulled back from the floor equals stably inducing the
    # floor parabolic induction, through either map
    for lam in [(3, 2), (2, 2)]:
        G = aut_group("padic", 2, lam)
        Gm = aut_group("padic", 2, (lam[0], 1))
        q, r = G.q, dixon_prime(G.powers[0], 64)
        for r1, t1 in _unit_chars(G.R1):
            if not any(abs(t1(u) - 1) > TOL for u in _deep_layer(G.R1)):
                continue
            for r2, t2 in _unit_chars(Gm.R2):
                lift = [r for r, c in _unit_chars(G.R2)
                        if all(abs(c(u) - t2(u % q)) < 1e-9
                               for u in G.R2.units)]
                assert len(lift) == 1
                lhs = ind(G, torus_character(G, r1, lift[0], r), "upper")
                mid = ind(Gm, torus_character(Gm, r1, r2, r), "upper")
                for side in ("embed", "quot"):
                    rhs = ind(G, mid, side, 1)
                    assert np.array_equal(lhs.vals, rhs.vals)


def test_pullback_twist_spectrum_parameter():
    # twisting the inflated trivial character moves the depth-one spectrum to
    # the matching central parameter
    G = aut_group("padic", 2, (3, 2))
    sub = assemble("padic", 2, (2, 1))
    triv = [f for f in sub.members if (f.vals[0] == 1).all()]
    assert len(triv) == 1
    E, tws = twisting_characters(G.R2)
    f = twist(inflate(G, triv[0], "floor"), (E, tws[1:2]))
    D = CongruenceDual(G, 1, 0)
    [mults] = k_spectrum(G, f)
    support = [D.classify(t) for t, n in zip(D.duals, mults) if n > 0]
    assert support == [("central", 1)]


SPECTRUM_TABLES = {
    ("padic", 2, (3, 2)): {"pullback_twist": {"central"},
                           "cuspidal_nonrect": {"off_diag"},
                           "inf_embed": {"nilp_lower"},
                           "inf_quot": {"nilp_upper"},
                           "geo_split": {"nilp_lower", "nilp_upper"},
                           "geo_irred": {"generic"}},
    ("padic", 2, (2, 2)): {"inf_embed": {"jordan"},
                           "geo_split": {"jordan"},
                           "geo_irred": {"split"}},
}


@pytest.mark.parametrize("backend,q,lam", sorted(SPECTRUM_TABLES))
def test_family_spectrum_kinds(backend, q, lam):
    a = assemble(backend, q, lam)
    table = SPECTRUM_TABLES[(backend, q, lam)]
    for fam in a.families:
        if fam.members is None or fam.label not in table:
            continue
        kinds, present = spectrum_kinds(a.G, fam.members)
        assert {k for k, on in zip(kinds, present.any(axis=0)) if on} == \
            table[fam.label]


def test_primitive_members_are_the_non_pullbacks():
    a = assemble("padic", 2, (3, 2))
    pulled = set(a.family("pullback_twist").members.fingerprint())
    prim = is_primitive(a.G, a.members)
    assert prim.tolist() == [fp not in pulled
                             for fp in a.members.fingerprint()]


@pytest.mark.parametrize("q,lam", [
    (2, (2, 1)), (2, (3, 1)), (2, (2, 2)), (2, (3, 2)),
    (3, (2, 1)), (3, (3, 1)), (3, (2, 2)), (3, (3, 2)),
])
def test_ring_independence(q, lam):
    assert assemble("padic", q, lam).zeta == assemble("tpoly", q, lam).zeta


def test_prime_power_matches_closed_form():
    for lam in [(2, 1), (2, 2)]:
        assert assemble("tpoly", 4, lam).zeta == zeta_closed_form(4, lam)


def test_one_dim_count_is_abelianization_order():
    for backend, q, lam in [("padic", 2, (3, 2)), ("padic", 2, (2, 2)),
                            ("padic", 3, (2, 1))]:
        a = assemble(backend, q, lam)
        assert a.zeta[1] == a.G.abelianization().order


def test_assemble_builds_no_subgroup_classes():
    # every transfer reads the root's classes at the members: no subgroup
    # (parabolic, normalizer, B, DH or derived subgroup, cached or not)
    # sweeps its own classes or keeps linear characters as class functions
    code = ("import gc\n"
            "from modrep2.build import assemble\n"
            "from modrep2.groups import Subgroup\n"
            "swept = []\n"
            "classes = Subgroup._compute_classes\n"
            "Subgroup._compute_classes = lambda H: (swept.append(H.name),\n"
            "                                       classes(H))[1]\n"
            "assemble('padic', 2, (4, 3))\n"
            "subs = [H for H in gc.get_objects() if isinstance(H, Subgroup)]\n"
            "print(len(subs), swept,\n"
            "      [H.name for H in subs\n"
            "       if 'classes' in vars(H).get('_memo', {})\n"
            "       or '_linear_chars' in vars(H)])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    n, rest = proc.stdout.split(" ", 1)
    assert int(n) > 20 and rest == "[] []\n", proc.stdout


def test_dixon_against_green_checked_under_optimize():
    # a wrong green_gl2 must stop assemble for (1,1) even under python -O,
    # with both multisets in the message
    code = ("import modrep2.build as b\n"
            "b.green_gl2 = lambda q: {1: q + 1}\n"
            "try:\n"
            "    b.assemble('padic', 2, (1, 1))\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "[(1, 3)]" in proc.stdout and "[(1, 2), (2, 1)]" in proc.stdout


def test_wrong_closed_form_fails_verify_all_under_optimize():
    # the construction checks are not bare asserts: under python -O a wrong
    # closed form still stops assemble, and verify-all exits 1 with the JSON
    # error envelope naming both degree counts
    code = ("import sys\n"
            "import modrep2.build as b\n"
            "from modrep2.cli import main\n"
            "b.zeta_closed_form = lambda q, lam: {1: 1}\n"
            "sys.exit(main(['verify-all', '--p', '2', '--lambda', '2,1']))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False and doc["command"] == "verify-all"
    assert doc["error"] == ("internal check failed: degree counts against the "
                            "closed form: expected [(1, 1)], computed "
                            "[(1, 4), (2, 1)]")
    assert "Traceback" not in proc.stdout + proc.stderr


def test_repeated_member_refused_under_optimize():
    # a member repeated across two families (inf_embed and geo_split share
    # a degree on l1 > l2, so the counts still match the closed form) puts
    # a 1 off the Gram diagonal twice, and python -O keeps the check
    code = ("import modrep2.build as b\n"
            "orig = b.build_geometric\n"
            "def repeat(G, r):\n"
            "    geo_irred, geo_split = orig(G, r)\n"
            "    geo_split.members.vals[0] = "
            "b.build_infinitesimal(G, r)[0].members.vals[0]\n"
            "    return geo_irred, geo_split\n"
            "b.build_geometric = repeat\n"
            "try:\n"
            "    b.assemble('padic', 2, (3, 2))\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == ("Gram matrix entries off the identity: expected 0, "
                           "computed 2\n")


def test_family_checks_raise_under_optimize():
    # IrrFamily's stacked checks survive python -O and name the expected and
    # computed values: a norm-2 member (the sum of two irreducibles), a
    # member given twice, and a half character (degree 1/2 mod r, above
    # every degree read mod r)
    code = ("from modrep2.build import IrrFamily, assemble\n"
            "from modrep2.classfun import ClassFunction, stack\n"
            "a, b = assemble('padic', 2, (2, 1)).members[:2]\n"
            "r = a.r\n"
            "two = ClassFunction(a.group, (a.vals + b.vals) % r, r)\n"
            "half = ClassFunction(a.group, a.vals * (r + 1) // 2 % r, r)\n"
            "print(r)\n"
            "for members in ([a, two, b], [b, a, b], [half, b]):\n"
            "    try:\n"
            "        IrrFamily('fam', stack(members))\n"
            "    except AssertionError as e:\n"
            "        print(e)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    r, rest = proc.stdout.split("\n", 1)
    r = int(r)
    assert rest == ("fam: norms other than 1: expected [], computed "
                    "[2]\nfam: distinct fingerprints: expected 3, "
                    "computed 2\ndegrees, integers mod %d within their "
                    "bounds: expected [%d], computed [%d]\n"
                    % (r, math.isqrt(r - 1), (r + 1) // 2))


def test_family_count_and_degree_refused_under_optimize():
    # the family contract survives python -O and names the label, the
    # paper's value and the computed one: heis_q of padic q=3 (2,1) (8
    # members of degree 3) given a wrong count, and a count-only family
    # given a wrong degree
    out = _run_optimized(
        "from modrep2.build import IrrFamily, assemble\n"
        "heis = assemble('padic', 3, (2, 1)).family('heis_q').members\n"
        "for label, kw in (('heis_q', dict(members=heis, count=9)),\n"
        "                  ('rect', dict(zeta={6: 24}, degree=4))):\n"
        "    try:\n"
        "        IrrFamily(label, **kw)\n"
        "    except AssertionError as e:\n"
        "        print(e)\n"
        "    else:\n"
        "        print('accepted')\n")
    assert out == ("heis_q: count: expected 9, computed 8\n"
                   "rect: degree: expected 4, computed 6\n")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("lam", [(2, 0), (1, 1), (3, 1), (3, 2), (2, 2)])
def test_complete_when_every_family_lists_its_members(backend, lam):
    # rank-one, (1,1), depth-one, non-square and square: only (1,1) (no
    # families) and the square types (count-only families) are incomplete
    l1, l2 = lam
    a = assemble(backend, 2, lam)
    assert a.complete == (lam != (1, 1) and (l2 < 2 or l1 > l2))


def _tuple_fingerprint(f):
    """A member's key as a tuple of Python ints: the bytes of its row."""
    return tuple(f.vals[0].tobytes())


@pytest.mark.parametrize("backend,q,lam", [("padic", 2, (3, 2)),
                                           ("tpoly", 4, (2, 1))])
def test_family_order_matches_tuple_fingerprint_sort(backend, q, lam):
    a = assemble(backend, q, lam)
    # with the complex conjugates (the values at the inverse classes), which
    # are members again: dedupe folds them back
    fs = dedupe(stack([a.members, ClassFunction(
        a.G, a.members.vals[:, a.G.powers[1]], a.members.r)]))
    rng = np.random.default_rng(3)
    shuffled = fs[rng.permutation(len(fs))]
    fam = IrrFamily("mixed", shuffled)
    want = sorted(shuffled, key=_tuple_fingerprint)
    assert np.array_equal(fam.members.vals, stack(want).vals)
    assert fam.count == len(fs) == len(a.members)


class _Stub:
    pass


# The characters of the cyclic group Z/600 mod r = 601: chi_i(c) = z^(ic)
# for z of order 600, each element its own class, the inverse of c at -c.
K, R = 600, 601


def _gram_asm(vals):
    asm, G = _Stub(), _Stub()
    G.class_sizes, G.order, G.class_count = np.ones(K, dtype=np.int64), K, K
    G.powers, G.name = (K, -np.arange(K) % K), "Z/600"
    asm.G, asm.checks = G, {}
    # three uneven family stacks, so row blocks cross their boundaries
    asm.stacks = lambda: [ClassFunction(G, vals[:100], R),
                          ClassFunction(G, vals[100:450], R),
                          ClassFunction(G, vals[450:], R)]
    return asm


def test_orthonormal_check_in_blocks_counts_every_entry():
    # three row blocks; the count must be the whole-matrix count of entries
    # off the identity mod r
    F = fr_roots(K, R)[np.outer(np.arange(K), np.arange(K)) % K]
    asm = _gram_asm(F)
    _check_orthonormal(asm)
    assert asm.checks == {"orthonormal": True}
    F[[3, 300, 599], [5, 7, 11]] += 1
    F[100] = F[100] * 2 % R  # a diagonal entry off: counted
    gram = F * pow(K, -1, R) % R @ F[:, -np.arange(K) % K].T % R
    want = int(np.count_nonzero(gram != np.eye(K)))
    assert want > 3 and gram[100, 100] == 4
    with pytest.raises(AssertionError, match=r"off the identity: expected "
                       r"0, computed %d$" % want):
        _check_orthonormal(_gram_asm(F))


def _run_optimized(code):
    """stdout of code run under python -O, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_altered_member_caught_by_the_gram_check_under_optimize():
    # one member of an assembled set off by 1 mod r at one class: its inner
    # products with the members on which that class is nonzero move off the
    # identity, twice each off the diagonal
    out = _run_optimized(
        "from modrep2.build import assemble, _check_orthonormal\n"
        "a = assemble('padic', 2, (3, 2))\n"
        "f = a.family('geo_irred').members\n"
        "f.vals[0, 1] = (f.vals[0, 1] + 1) % f.r\n"
        "try:\n"
        "    _check_orthonormal(a)\n"
        "except AssertionError as e:\n"
        "    print(e)\n")
    assert out == "Gram matrix entries off the identity: expected 0, " \
                  "computed 27\n"


def test_prime_missing_a_root_of_unity_refused_under_optimize():
    # 11 lies above D^2 = 9 on padic q=3 (2,1), but not 1 mod its exponent
    # 6: refused at admission, before any root table; F_11 has no sixth root
    # of unity, which fr_roots refuses on its own
    out = _run_optimized(
        "from modrep2.build import assemble\n"
        "from modrep2.rings import fr_roots\n"
        "try:\n"
        "    assemble('padic', 3, (2, 1), 11)\n"
        "except ValueError as e:\n"
        "    print(e)\n"
        "print(fr_roots.cache_info().currsize)\n"
        "try:\n"
        "    fr_roots(6, 11)\n"
        "except AssertionError as e:\n"
        "    print(e)\n")
    assert out == ("the prime r = 11 fails r = 1 mod the exponent 6 (of: r "
                   "prime; r = 1 mod the exponent 6; r > 9; (k+1) r^2 < 2^53 "
                   "for k = 20, exact float64 products)\n0\n"
                   "roots of unity of order E = 6 in F_11: r - 1 mod E: "
                   "expected 0, computed 4\n")


def test_prime_at_or_below_the_squared_degree_refused_under_optimize():
    # 13 is a prime = 1 mod the exponent 4, but not above D^2 = 16 on padic
    # q=2 (3,2), whose largest degree is 4: refused before any root table
    # (so any value) is built
    out = _run_optimized(
        "from modrep2.build import assemble\n"
        "from modrep2.rings import fr_roots\n"
        "try:\n"
        "    assemble('padic', 2, (3, 2), 13)\n"
        "except ValueError as e:\n"
        "    print(e)\n"
        "print(fr_roots.cache_info().currsize)\n")
    assert out == ("the prime r = 13 fails r > 16 (of: r prime; r = 1 mod the "
                   "exponent 4; r > 16; (k+1) r^2 < 2^53 for k = 26, exact "
                   "float64 products)\n0\n")
