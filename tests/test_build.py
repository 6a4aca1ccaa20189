"""Construction and assembly tests: family counts, zeta polynomials, the
cuspidal battery, and the induction-restriction compatibility identities."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from modrep2.build import (assemble, build_rank1, cuspidal_rect_count,
                           green_gl2, zeta_closed_form)
from modrep2.classfun import (geo_ind, ind, induce, inflate, is_cuspidal,
                              is_primitive, k_spectrum, linear_characters,
                              res, spectrum_kinds, twist, ClassFunction)
from modrep2.dixon import character_degrees
from modrep2.groups import aut_group
from modrep2.orbits import CongruenceDual
from modrep2.rings import (character_group, make_ring, twisting_characters,
                           unit_group)

TOL = 1e-6

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
    out = build_rank1("padic", 2, 2)
    assert len(out) == 2
    out = build_rank1("padic", 3, 1)
    assert len(out) == 2
    a = assemble("padic", 3, (2, 0))
    assert a.zeta == {1: 6} and a.complete


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
    Vp = G.subgroup("unipotent_upper_floor")
    Vm = G.subgroup("unipotent_lower_floor")
    V1 = G.subgroup("floor_torus_a")
    for f in fam.members:
        assert is_cuspidal(G, f)
        assert spectrum_kinds(G, f) == {"off_diag"}
        assert abs(sum(f(u) for u in Vp.elements)) < TOL
        assert abs(sum(f(u) for u in Vm.elements)) < TOL
        assert abs(sum(f(u) for u in V1.elements)) > TOL
    # the cuspidality filter recovers exactly this family
    cusp = {f.fingerprint() for f in a.members if is_cuspidal(G, f)}
    assert cusp == {f.fingerprint() for f in fam.members}


def test_cuspidal_filter_on_depth_one():
    for q in (2, 3):
        a = assemble("padic", q, (2, 1))
        got = {f.fingerprint() for f in a.members if is_cuspidal(a.G, f)}
        assert got == {f.fingerprint() for f in a.family("orbitC").members}


def test_rect_explicit_members_not_cuspidal():
    a = assemble("padic", 2, (2, 2))
    assert not any(is_cuspidal(a.G, f) for f in a.members)


def _restriction_battery(G, chi, twists):
    """Invariant-vanishing of every twist under every kernel subgroup."""
    subs = [G.subgroup("unipotent_upper"), G.subgroup("unipotent_lower")]
    for m in range(1, G.l2):
        subs.append(G.subgroup("ker_embed", m=m))
        subs.append(G.subgroup("ker_quot", m=m))
    for t in twists:
        tc = ClassFunction(G, chi.vals * t.vals)
        for U in subs:
            if abs(sum(tc(u) for u in U.elements)) > TOL * U.order:
                return False
    return True


def test_cuspidal_vs_all_one_dim_twists():
    # twisting by every one-dimensional character instead of just the q
    # determinant twists must cut out the same set
    for backend, q, lam in [("padic", 2, (3, 2)), ("padic", 3, (2, 1))]:
        a = assemble(backend, q, lam)
        ones = [f for f in a.members if int(round(f.degree)) == 1]
        for f in a.members:
            strong = f.mult(f) == 1 and _restriction_battery(a.G, f, ones)
            if a.G.l2 >= 2:
                strong = strong and is_primitive(a.G, f)
            assert strong == is_cuspidal(a.G, f)


def _unit_chars(ring):
    return character_group(unit_group(ring))


def _deep_layer(ring):
    return [ring.add[1][ring.pi_mul(s, ring.level - 1)]
            for s in range(1, ring.q)]


def test_geo_upper_equals_lower():
    # both parabolic inductions of an inducing pair agree and are irreducible
    for lam in [(3, 2), (2, 2)]:
        G = aut_group("padic", 2, lam)
        layer = _deep_layer(G.R1)
        for t1 in _unit_chars(G.R1):
            for t2 in _unit_chars(G.R2):
                up = geo_ind(G, t1, t2, "upper")
                lo = geo_ind(G, t1, t2, "lower")
                if lam[0] > lam[1]:
                    inducing = any(abs(t1(u) - 1) > TOL for u in layer)
                else:
                    inducing = any(abs(t1(u) - t2(u)) > TOL for u in layer)
                if inducing:
                    assert np.allclose(up.vals, lo.vals, atol=TOL)
                    assert up.mult(up) == 1
                else:
                    assert up.mult(up) > 1


def test_restriction_splits_induction_on_cuspidal():
    # restriction is a one-sided inverse of induction on cuspidal input
    G = aut_group("padic", 2, (3, 2))
    floor = assemble("padic", 2, (3, 1))
    for sigma in floor.family("orbitC").members:
        for side in ("embed", "quot"):
            up = ind(G, sigma, side, 1)
            back = res(G, up, side, 1)
            assert np.allclose(back.vals, sigma.vals, atol=TOL)


def _product_set_subgroup(G, name="DH"):
    S = G.subgroup("scalars")
    H = G.subgroup("heisenberg")
    members = sorted({G.mul(s, h) for s in S.elements for h in H.elements})
    return G.subgroup("custom", members=members, name=name)


def test_induction_composes_through_intermediate_subgroup():
    # inducing an inflation in one step agrees with inflating the induction
    G = aut_group("padic", 2, (3, 2))
    Gf = aut_group("padic", 2, (3, 1))
    P1 = G.subgroup("parabolic_embed", m=1)
    Q, img = G.hom("embed", P1.idx, 1)
    assert Q is Gf
    for B in [Gf.subgroup("parabolic_upper"), _product_set_subgroup(Gf)]:
        pre = P1.idx[np.isin(img, B.idx)]
        P2 = G.subgroup("custom", name="preimage",
                        members=[G.elements[j] for j in pre.tolist()])
        # the pullback from B to its preimage P2, read at P2's classes
        _, at = G.hom("embed", P2.rep_idx, 1)
        for chi in linear_characters(B):
            pulled = ClassFunction(P2, chi.vals[B.cls_of[B.positions(at)]])
            lhs = induce(P2, pulled)
            rhs = induce(P1, inflate(P1, induce(B, chi), "embed", 1))
            assert np.allclose(lhs.vals, rhs.vals, atol=TOL)


def test_stable_functors_compose_along_tower():
    # one-step and two-step stable induction/restriction agree along
    # (4,1) -> (4,2) -> (4,3)
    G43 = aut_group("padic", 2, (4, 3))
    G42 = aut_group("padic", 2, (4, 2))
    floor = assemble("padic", 2, (4, 1))
    for sigma in floor.family("orbitC").members:
        for side in ("embed", "quot"):
            direct = ind(G43, sigma, side, 1)
            stepped = ind(G43, ind(G42, sigma, side, 1), side, 2)
            assert np.allclose(direct.vals, stepped.vals, atol=TOL)
            rho = direct
            back = res(G42, res(G43, rho, side, 2), side, 1)
            assert np.allclose(back.vals, res(G43, rho, side, 1).vals,
                               atol=TOL)


def test_parabolic_induction_commutes_with_stable_induction():
    # inducing a pair pulled back from the floor equals stably inducing the
    # floor parabolic induction, through either map
    for lam in [(3, 2), (2, 2)]:
        G = aut_group("padic", 2, lam)
        Gm = aut_group("padic", 2, (lam[0], 1))
        q = G.q
        for t1 in _unit_chars(G.R1):
            if not any(abs(t1(u) - 1) > TOL for u in _deep_layer(G.R1)):
                continue
            for t2 in _unit_chars(Gm.R2):
                lift = [c for c in _unit_chars(G.R2)
                        if all(abs(c(u) - t2(u % q)) < 1e-9
                               for u in unit_group(G.R2).elements)]
                assert len(lift) == 1
                lhs = geo_ind(G, t1, lift[0])
                mid = geo_ind(Gm, t1, t2)
                for side in ("embed", "quot"):
                    rhs = ind(G, mid, side, 1)
                    assert np.allclose(lhs.vals, rhs.vals, atol=TOL)


def test_pullback_twist_spectrum_parameter():
    # twisting the inflated trivial character moves the depth-one spectrum to
    # the matching central parameter
    G = aut_group("padic", 2, (3, 2))
    sub = assemble("padic", 2, (2, 1))
    triv = [f for f in sub.members
            if all(abs(v - 1) < TOL for v in f.vals)]
    assert len(triv) == 1
    tws = twisting_characters(G.R2)
    f = twist(inflate(G, triv[0], "floor"), tws[1])
    D = CongruenceDual(G, 1, 0)
    mults = k_spectrum(G, f)
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
        kinds = {k for f in fam.members for k in spectrum_kinds(a.G, f)}
        assert kinds == table[fam.label]


def test_primitive_members_are_the_non_pullbacks():
    a = assemble("padic", 2, (3, 2))
    pulled = {f.fingerprint() for f in a.family("pullback_twist").members}
    for f in a.members:
        assert is_primitive(a.G, f) == (f.fingerprint() not in pulled)


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
