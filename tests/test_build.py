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

from modrep2.build import (IrrFamily, _check_orthonormal, assemble,
                           build_rank1, cuspidal_rect_count, green_gl2,
                           zeta_closed_form)
from modrep2.classfun import (geo_ind, ind, induce, inflate, is_cuspidal,
                              is_primitive, k_spectrum, linear_characters,
                              res, spectrum_kinds, stack, twist,
                              ClassFunction, dedupe)
from modrep2.dixon import character_degrees
from modrep2.groups import Subgroup, aut_group
from modrep2.orbits import CongruenceDual
from modrep2.rings import (character_group, make_ring, roots_of_unity,
                           twisting_characters, unit_group)

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
    assert a.members[0].group is a.G


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
    assert is_cuspidal(G, fam.members).all()
    kinds, present = spectrum_kinds(G, fam.members)
    assert (present == [k == "off_diag" for k in kinds]).all()
    for f in fam.members.vals:
        assert abs(f[Vp.root_cls].sum()) < TOL
        assert abs(f[Vm.root_cls].sum()) < TOL
        assert abs(f[V1.root_cls].sum()) > TOL
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
    for t in twists:
        tc = ClassFunction(G, chi.vals * t.vals)
        for U in subs:
            if abs(tc.vals[0, U.root_cls].sum()) > TOL * U.order:
                return False
    return True


def test_cuspidal_vs_all_one_dim_twists():
    # twisting by every one-dimensional character instead of just the q
    # determinant twists must cut out the same set
    for backend, q, lam in [("padic", 2, (3, 2)), ("padic", 3, (2, 1))]:
        a = assemble(backend, q, lam)
        ones = [f for f in a.members if round(f.degrees[0]) == 1]
        cusp = is_cuspidal(a.G, a.members)
        for f, want in zip(a.members, cusp):
            strong = f.mult()[0] == 1 and _restriction_battery(a.G, f, ones)
            if a.G.l2 >= 2:
                strong = strong and is_primitive(a.G, f)[0]
            assert strong == want


def _unit_chars(ring):
    """Per unit character of ring: its row (E, L[t:t + 1]), as geo_ind
    takes it, and its value at a unit, as a function."""
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
        layer = _deep_layer(G.R1)
        for r1, t1 in _unit_chars(G.R1):
            for r2, t2 in _unit_chars(G.R2):
                up = geo_ind(G, r1, r2, "upper")
                lo = geo_ind(G, r1, r2, "lower")
                if lam[0] > lam[1]:
                    inducing = any(abs(t1(u) - 1) > TOL for u in layer)
                else:
                    inducing = any(abs(t1(u) - t2(u)) > TOL for u in layer)
                if inducing:
                    assert np.allclose(up.vals, lo.vals, atol=TOL)
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
        assert np.allclose(back.vals, sigma.vals, atol=TOL)


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
    for B in [Gf.subgroup("parabolic_upper"), _product_set_subgroup(Gf)]:
        pre = P1.idx[np.isin(img, B.idx)]
        P2 = Subgroup(G, pre, "preimage")
        # the pullback from B to its preimage P2, read at P2's members
        _, at = G.hom("embed", P2.idx, 1)
        E, L, cos = linear_characters(B)
        roots = roots_of_unity(E)
        lhs = induce(P2, roots[L[:, cos[B.positions(at)]]])
        up = inflate(P1, induce(B, roots[L[:, cos]]), "embed", 1)
        rhs = induce(P1, up.vals[:, P1.cls_of])
        assert len(lhs) == len(L)
        assert np.allclose(lhs.vals, rhs.vals, atol=TOL)


def test_stable_functors_compose_along_tower():
    # one-step and two-step stable induction/restriction agree along
    # (4,1) -> (4,2) -> (4,3)
    G43 = aut_group("padic", 2, (4, 3))
    G42 = aut_group("padic", 2, (4, 2))
    sigma = assemble("padic", 2, (4, 1)).family("orbitC").members
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
        for r1, t1 in _unit_chars(G.R1):
            if not any(abs(t1(u) - 1) > TOL for u in _deep_layer(G.R1)):
                continue
            for r2, t2 in _unit_chars(Gm.R2):
                lift = [r for r, c in _unit_chars(G.R2)
                        if all(abs(c(u) - t2(u % q)) < 1e-9
                               for u in G.R2.units)]
                assert len(lift) == 1
                lhs = geo_ind(G, r1, lift[0])
                mid = geo_ind(Gm, r1, r2)
                for side in ("embed", "quot"):
                    rhs = ind(G, mid, side, 1)
                    assert np.allclose(lhs.vals, rhs.vals, atol=TOL)


def test_pullback_twist_spectrum_parameter():
    # twisting the inflated trivial character moves the depth-one spectrum to
    # the matching central parameter
    G = aut_group("padic", 2, (3, 2))
    sub = assemble("padic", 2, (2, 1))
    triv = [f for f in sub.members
            if all(abs(v - 1) < TOL for v in f.vals[0])]
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
            "      [H.name for H in subs if '_class_data' in vars(H)\n"
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
            "def repeat(G):\n"
            "    geo_irred, geo_split = orig(G)\n"
            "    geo_split.members.vals[0] = "
            "b.build_infinitesimal(G)[0].members.vals[0]\n"
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
    # member given twice, and a half character (norm 1/4)
    code = ("from modrep2.build import IrrFamily, assemble\n"
            "from modrep2.classfun import ClassFunction, stack\n"
            "a, b = assemble('padic', 2, (2, 1)).members[:2]\n"
            "two = ClassFunction(a.group, a.vals + b.vals)\n"
            "half = ClassFunction(a.group, a.vals / 2)\n"
            "for members in ([a, two, b], [b, a, b], [half, b]):\n"
            "    try:\n"
            "        IrrFamily('fam', stack(members))\n"
            "    except AssertionError as e:\n"
            "        print(e)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ("fam: norms other than 1: expected [], computed "
                           "[2]\nfam: distinct fingerprints: expected 3, "
                           "computed 2\nfam: norms, integers within 1e-06: "
                           "expected integers, computed [0.25]\n")


def _tuple_fingerprint(f):
    """The key IrrFamily sorted its members by before the bytes key: the
    rounded values as (re, im) pairs of Python floats."""
    r = np.round(f.vals[0], 6)
    return tuple(zip(r.real.tolist(), r.imag.tolist()))


@pytest.mark.parametrize("backend,q,lam", [("padic", 2, (3, 2)),
                                           ("tpoly", 4, (2, 1))])
def test_family_order_matches_tuple_fingerprint_sort(backend, q, lam):
    a = assemble(backend, q, lam)
    # negatives bring -0.0 entries and ties broken deep in the vector
    fs = dedupe(stack([a.members, ClassFunction(a.G, -a.members.vals),
                       ClassFunction(a.G, a.members.vals.conj())]))
    rng = np.random.default_rng(3)
    shuffled = fs[rng.permutation(len(fs))]
    fam = IrrFamily("mixed", shuffled)
    want = sorted(shuffled, key=_tuple_fingerprint)
    assert np.array_equal(fam.members.vals, stack(want).vals)
    assert fam.count == len(fs) > len(a.members)


class _Stub:
    pass


def _gram_asm(vals):
    asm, G = _Stub(), _Stub()
    k = vals.shape[1]
    G.class_sizes, G.order, G.class_count = np.ones(k), k, k
    asm.G, asm.checks = G, {}
    # three uneven family stacks, so row blocks cross their boundaries
    asm.stacks = lambda: [ClassFunction(G, vals[:100]),
                          ClassFunction(G, vals[100:450]),
                          ClassFunction(G, vals[450:])]
    return asm


def test_orthonormal_check_in_blocks_counts_every_entry():
    # k = 600: three row blocks; the count must be the whole-matrix count
    # of entries off the identity by more than TOL, with no relative slack
    k = 600
    F = np.exp(2j * np.pi * np.outer(np.arange(k), np.arange(k)) / k)
    asm = _gram_asm(F)
    _check_orthonormal(asm)
    assert asm.checks == {"orthonormal": True}
    F[[3, 300, 599], [5, 7, 11]] *= 1.01
    F[100] *= 1 + 3e-6  # a diagonal entry off by 6e-6: counted
    gram = (F * (np.ones(k) / k)) @ F.conj().T  # the whole-matrix check
    want = int((~(np.abs(gram - np.eye(k)) <= TOL)).sum())
    assert want > 3 and abs(gram[100, 100] - 1) > 5e-6
    with pytest.raises(AssertionError, match=r"off the identity: expected "
                       r"0, computed %d$" % want):
        _check_orthonormal(_gram_asm(F))
