"""Induction, restriction, transfer maps and depth-one spectra."""

import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complex_ref as cr
from modrep2 import build
from modrep2.build import assemble, eta_extensions
from modrep2.classfun import (ClassFunction, _read, all_pairs, count_maps,
                              dedupe, depth_one_dual, induce, ind, inflate,
                              invariants_pushforward, is_cuspidal, k_spectrum,
                              linear_characters, member_sums, res, row_order,
                              spectrum_kinds, is_primitive, stack,
                              torus_character, twist)
from modrep2.dixon import dixon_prime
from modrep2.groups import aut_group
from modrep2.orbits import (CongruenceDual, cuspidal_parameters, eta_dual,
                            inner_types)
from modrep2.rings import (character_group, fr_roots, twisting_characters,
                           unit_group, unit_characters)

SRC = Path(__file__).resolve().parent.parent / "src"


def prime(G, D=None):
    """A prime for class functions of G whose degrees are at most D
    (default sqrt|G|, above every irreducible degree): the least r = 1 mod
    the exponent with r > D^2."""
    return dixon_prime(G.powers[0], (D or math.isqrt(G.order) + 1) ** 2)


def indicator(G, c, r):
    v = np.zeros(G.class_count, dtype=np.int64)
    v[c] = 1
    return ClassFunction(G, v, r)


def trivial(G, r):
    return ClassFunction(G, np.ones(G.class_count), r)


def random(K, n, r, rng):
    """n random class functions of K mod r."""
    return ClassFunction(K, rng.integers(0, r, (n, K.class_count)), r)


def values_at(f, elems):
    """The values of the stack f at the 4-tuples elems, one column each."""
    G = f.group
    return f.vals[:, G.cls_of[G.positions(G.root.locate(elems))]]


def locate_in(Q, elems):
    """Positions in the root group Q of elements given as tuples: through
    Q.locate on an AutGroup, and as (a, d) pairs of unit codes on a
    torus."""
    if hasattr(Q, "locate"):
        return Q.locate(elems)
    U1, U2 = (U.codes.tolist() for U in Q.factors)
    return np.array([U1.index(a) * len(U2) + U2.index(d) for a, d in elems])


def inverse_sizes(G, r):
    return np.array([pow(int(s), -1, r) for s in G.class_sizes])


# Class-level references: the transfers through a subgroup's own classes
# (the fusion of its classes into the root's) that the member-level kernel
# of classfun replaced.

def fusion(H):
    """Root class index of each class of the subgroup H."""
    fus = np.empty(H.class_count, dtype=np.int64)
    fus[H.cls_of] = H.root_cls
    return fus


def restrict(H, f):
    """Class functions on H's root group read at H's classes."""
    assert f.group is H.root
    return ClassFunction(H, f.vals[:, fusion(H)], f.r)


def induce_by_fusion(H, f):
    """Induction of class functions f on H mod r, row by row: the
    class-size-weighted values summed into root classes through the
    fusion."""
    G, r = H.root, f.r
    out = []
    for v in f.vals:
        w = H.class_sizes * v % r
        out.append(np.bincount(fusion(H), w, G.class_count).astype(np.int64)
                   % r)
    return ClassFunction(G, np.array(out) * (G.order // H.order) % r
                         * inverse_sizes(G, r) % r, r)


def on_members(f):
    """Class functions on a subgroup read at its members."""
    return f.vals[:, f.group.cls_of]


def on_cosets(P, vals, r):
    """The rows vals (n, |P|) of values at P's members, constant on the
    cosets of P's abelianization Q, as a stack on Q, for induce."""
    Q = P.abelianization()
    X = np.zeros((len(vals), Q.order), dtype=np.int64)
    X[:, Q.coset_of] = vals
    assert np.array_equal(X[:, Q.coset_of], vals)
    return ClassFunction(Q, X, r)


def class_linear_characters(G, r):
    """The exponent rows of linear_characters(G) as one stack of class
    functions mod r, read at the cosets of G's class representatives."""
    Q, E, L = linear_characters(G)
    return ClassFunction(G, fr_roots(E, r)[L[:, Q.coset_of[G.positions(
        G.rep_idx)]]], r)


def kinds_of(G, chi):
    """Per row, the set of orbit labels in its depth-one spectrum."""
    kinds, present = spectrum_kinds(G, chi)
    return [{k for k, on in zip(kinds, row) if on} for row in present]


# Per-member references: the transfers one class function at a time, in
# Python integers mod r.

def ref_induce(P, v, r):
    G = P.root
    out = [0] * G.class_count
    for p, c in enumerate(P.root_cls.tolist()):
        out[c] += int(v[p])
    return np.array([x * (G.order // P.order) * pow(int(s), -1, r) % r
                     for x, s in zip(out, G.class_sizes.tolist())])


def ref_inflate(G, v, kind, m):
    Q, img = G.root.hom(kind, G.rep_idx, m)
    return v[Q.cls_of[img]]


def ref_pushforward(P, kind, v, m, r):
    Q, img, _ = P.pullback(kind, m)
    sums = [0] * Q.order
    for q, c in zip(img.tolist(), P.root_cls.tolist()):
        sums[q] += int(v[c])
    inv = pow(P.order // Q.order, -1, r)
    return np.array([sums[x] * inv % r for x in Q.rep_idx.tolist()])


SIDES = {"upper": ("parabolic_upper", "diag"),
         "lower": ("parabolic_lower", "diag"),
         "embed": ("parabolic_embed", "embed"),
         "quot": ("parabolic_quot", "quot")}


def ref_ind(G, v, side, m, r):
    tag, kind = SIDES[side]
    P = G.subgroup(tag, m=m)
    return ref_induce(P, v[P.pullback(kind, m)[2]], r)


def ref_twist(G, v, E, row, r):
    """v times the unit character zeta_E^row of R2 (its columns following
    the units) composed with det, one class at a time."""
    R2, codes = G.hom("det", G.rep_idx)
    value = dict(zip(R2.units, fr_roots(E, r)[row].tolist()))
    return np.array([int(x) * value[c] % r
                     for x, c in zip(v, codes.tolist())])


def ref_k_spectrum(G, v, r):
    """Per depth-one dual theta, sum_k v(k) theta(k)^-1 / |K| over the
    members k of the kernel K, read as an integer in [0, deg]."""
    D = depth_one_dual(G)
    M, X = D.exponents
    zeta = fr_roots(M, r).tolist()
    at_k = [int(v[c]) for c in G.cls_of[D.K.idx].tolist()]
    inv = pow(D.K.order, -1, r)
    out = [sum(x * zeta[-e % M] for x, e in zip(at_k, row)) * inv % r
           for row in X.tolist()]
    assert max(out) <= int(v[G.identity_class])
    return np.array(out)


def ref_is_primitive(G, v, r):
    labels = depth_one_dual(G).labels
    kinds = {labels[j][0] for j in np.flatnonzero(ref_k_spectrum(G, v, r))}
    return not kinds & {"central", "scalar"}


def ref_is_cuspidal(G, v, r):
    """Norm 1 (the values at the inverse classes through G.inverse),
    primitive at depth >= 2, and every twist sums to 0 over the members of
    each unipotent and congruence kernel, one class at a time."""
    inv_cls = G.cls_of[G.inverse(G.rep_idx)].tolist()
    norm = sum(int(s) * int(v[c]) * int(v[i]) for c, (s, i) in enumerate(
        zip(G.class_sizes.tolist(), inv_cls)))
    if norm * pow(G.order, -1, r) % r != 1:
        return False
    if G.l2 >= 2 and not ref_is_primitive(G, v, r):
        return False
    subs = [G.subgroup("unipotent_upper"), G.subgroup("unipotent_lower")]
    subs += [G.subgroup(tag, m=m) for _, m in inner_types(G.lam)
             for tag in ("ker_embed", "ker_quot")]
    E, twists = (twisting_characters(G.R2) if G.R2.level >= 2
                 else unit_characters(G.R2))
    for row in twists:
        tc = ref_twist(G, v, E, row, r).tolist()
        for U in subs:
            if sum(tc[c] for c in G.cls_of[U.idx].tolist()) % r:
                return False
    return True


def test_linear_character_counts():
    for backend, q, lam, n in [("padic", 2, (1, 1), 2), ("padic", 3, (1, 1), 2),
                               ("padic", 2, (2, 1), 4), ("padic", 3, (2, 2), 6)]:
        G = aut_group(backend, q, lam)
        chars = class_linear_characters(G, prime(G))
        assert len(chars) == n
        assert chars.degrees.tolist() == [1] * n
        assert chars.mult().tolist() == [1] * n
        gram = chars.mult(chars).tolist()
        assert gram == [[int(i == j) for j in range(n)] for i in range(n)]


def test_linear_characters_multiplicative():
    G = aut_group("padic", 2, (2, 1))
    r = prime(G)
    chars = class_linear_characters(G, r)
    els = G.elements_at(G.idx)
    for x in els:
        for y in G.gens:
            assert np.array_equal(values_at(chars, [G.mul(x, y)]),
                                  values_at(chars, [x])
                                  * values_at(chars, [y]) % r)


def test_frobenius_reciprocity():
    G = aut_group("padic", 2, (3, 2))
    r = prime(G)
    B = G.subgroup("parabolic_upper")
    Q = B.abelianization()
    f = ClassFunction(Q, np.eye(Q.order), r)  # every coset indicator
    fi = induce(B, f)
    # the same functions on B's classes
    fB = ClassFunction(B, f.vals[:, Q.coset_of[B.positions(B.rep_idx)]], r)
    g = ClassFunction(G, np.eye(G.class_count), r)
    assert np.array_equal(fi.inner(g), fB.inner(restrict(B, g)))
    assert np.array_equal(fi.vals, induce_by_fusion(B, fB).vals)


def test_induced_trivial_degree_and_permutation_character():
    for q, expect in [(2, 3), (3, 4)]:
        G = aut_group("padic", q, (1, 1))
        r = prime(G)
        B = G.subgroup("parabolic_upper")
        pi = induce(B, trivial(B.abelianization(), r))
        assert pi.degrees[0] == G.order // B.order == expect
        assert pi.mult().tolist() == [2]
        assert pi.mult(trivial(G, r)).tolist() == [[1]]


def test_inflation_preserves_inner_products():
    G = aut_group("padic", 2, (3, 2))
    Gf = aut_group("padic", 2, (2, 1))
    r = prime(G)
    chars = class_linear_characters(Gf, r)
    pulled = inflate(G, chars, "floor")
    assert (pulled.degrees == 1).all()
    assert np.array_equal(chars.inner(chars), pulled.inner(pulled))
    assert len(dedupe(pulled)) == len(chars)


def test_pushforward_of_trivial_is_trivial():
    G = aut_group("padic", 2, (2, 2))
    r = prime(G)
    P = G.subgroup("parabolic_upper")
    out = invariants_pushforward(P, "diag", trivial(G, r))
    assert out.group is G.torus
    assert (out.vals == 1).all()


@pytest.mark.parametrize("lam", [(3, 2), (2, 2)])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_geo_adjointness(lam, side):
    G = aut_group("padic", 2, lam)
    r = prime(G)
    P = G.subgroup("parabolic_" + side)
    T = G.torus
    g = ClassFunction(G, np.eye(G.class_count), r)
    for t in range(T.class_count):
        h = indicator(T, t, r)
        ih = ind(G, h, side)
        up = induce(P, on_cosets(P, on_members(inflate(P, h, "diag")), r))
        assert np.array_equal(ih.vals, up.vals)
        assert np.array_equal(ih.inner(g), h.inner(res(G, g, side)))


@pytest.mark.parametrize("lam", [(3, 2), (2, 2)])
@pytest.mark.parametrize("side", ["embed", "quot"])
def test_inf_adjointness(lam, side):
    G = aut_group("padic", 2, lam)
    Gm = aut_group("padic", 2, (lam[0], 1))
    r = prime(G)
    g = ClassFunction(G, np.eye(G.class_count), r)
    for j in range(Gm.class_count):
        f = indicator(Gm, j, r)
        fi = ind(G, f, side, 1)
        assert np.array_equal(fi.inner(g), f.inner(res(G, g, side, 1)))


def test_congruence_kernel_orders():
    for lam in [(3, 2), (2, 2)]:
        G = aut_group("padic", 2, lam)
        for side in ["embed", "quot"]:
            K = G.subgroup("ker_" + side, m=1)
            assert K.order == 2 ** (2 * (lam[1] - 1))


def test_induce_refuses_a_stack_off_the_abelianization():
    # a stack on a group without cosets of P, and cosets of unequal sizes
    G = aut_group("padic", 2, (2, 2))
    r = prime(G)
    P = G.subgroup("parabolic_upper")
    with pytest.raises(AssertionError, match="abelianization of"):
        induce(P, trivial(G.torus, r))
    Q = P.abelianization()
    assert induce(P, trivial(Q, r)).degrees.tolist() == [G.order // P.order]
    Q.coset_of = Q.coset_of.copy()
    Q.coset_of[Q.coset_of == 0] = 1
    with pytest.raises(AssertionError, match="fiber sizes"):
        induce(P, trivial(Q, r))


def test_no_abelianization_outlives_the_build(monkeypatch):
    # each abelianization holds its |Q|^2 Cayley table, so none is kept in a
    # memo: all that are made while a type's families are built are freed
    made = []

    def tracked(H):
        Q, E, L = linear_characters(H)
        made.append(weakref.ref(Q))
        return Q, E, L

    monkeypatch.setattr(build, "linear_characters", tracked)
    G = aut_group("padic", 2, (3, 2))  # builds the cuspidal_nonrect family
    build._assemble(G, build.job_prime(["padic"], 2, (3, 2)))
    gc.collect()
    assert made and all(ref() is None for ref in made)


@pytest.mark.parametrize("builder,lam", [("build_l1", (3, 1)),
                                         ("build_cuspidal_nonrect", (4, 3))])
def test_each_abelianization_goes_before_the_next(monkeypatch, builder, lam):
    # build_l1 drops B's abelianization before DH's, and
    # build_cuspidal_nonrect each normalizer's before the next (two
    # normalizers on (4, 3)): no two |Q|^2 Cayley tables are alive at once
    made = []

    def tracked(H):
        gc.collect()
        assert all(ref() is None for ref in made), H.name
        Q, E, L = linear_characters(H)
        made.append(weakref.ref(Q))
        return Q, E, L

    monkeypatch.setattr(build, "linear_characters", tracked)
    G = aut_group("padic", 2, lam)
    getattr(build, builder)(G, build.job_prime(["padic"], 2, lam))
    assert len(made) == 2


def test_induce_matches_class_loop():
    # against the accumulation over the members in member order, and the
    # per-class accumulation through the fusion of a subgroup's own classes,
    # all exact mod r
    G = aut_group("padic", 2, (4, 2))
    r = prime(G, G.order)
    for H in (G.subgroup("parabolic_upper"), G.subgroup("ker_embed", m=1),
              G.subgroup("cuspidal_normalizer", u_hat=0, w_hat=1)):
        Q, E, L = linear_characters(H)
        X = fr_roots(E, r)[L]
        stacked = induce(H, ClassFunction(Q, X, r)).vals  # every row at once
        for row, chi, got in zip(X, class_linear_characters(H, r), stacked):
            vals = row[Q.coset_of]
            assert np.array_equal(vals, on_members(chi)[0])
            assert np.array_equal(induce(H, ClassFunction(Q, row, r)).vals[0],
                                  got)
            assert np.array_equal(got, ref_induce(H, vals, r))
            assert np.array_equal(got, induce_by_fusion(H, chi).vals[0])


@pytest.mark.parametrize("backend,q,lam", [("padic", 2, (4, 2)),
                                           ("padic", 3, (2, 2)),
                                           ("tpoly", 2, (3, 2))])
def test_member_transfers_match_fusion_reference(backend, q, lam):
    # ind and res through the members against the class-level transfers
    # through the parabolic's own classes (inflate at its classes, then
    # induce_by_fusion; restrict, then average over the fibers), on random
    # class functions mod r
    G = aut_group(backend, q, lam)
    r = prime(G)
    rng = np.random.default_rng(3)
    g = random(G, 1, r, rng)
    for side, tag, kind in [("upper", "parabolic_upper", "diag"),
                            ("lower", "parabolic_lower", "diag"),
                            ("embed", "parabolic_embed", "embed"),
                            ("quot", "parabolic_quot", "quot")]:
        P = G.subgroup(tag, m=1)
        Q, img = G.hom(kind, P.idx, 1)
        f = random(Q, 1, r, rng)
        want = induce_by_fusion(P, inflate(P, f, kind, 1))
        assert np.array_equal(ind(G, f, side, 1).vals, want.vals)
        sums = np.zeros(Q.order, dtype=np.int64)
        np.add.at(sums, img, on_members(restrict(P, g))[0])
        want = sums[Q.rep_idx] * pow(P.order // Q.order, -1, r) % r
        assert np.array_equal(res(G, g, side, 1).vals[0], want)


def test_pushforward_refuses_a_kernel_outside_the_subgroup():
    # the fiber check refuses a map that is not onto with equal fibers: the
    # diagonal of the unipotent radical (one fiber) and of the scalars (not
    # onto the torus)
    G = aut_group("padic", 2, (2, 2))
    r = prime(G)
    for tag in ("unipotent_upper", "scalars"):
        P = G.subgroup(tag)
        with pytest.raises(AssertionError, match="fiber sizes"):
            invariants_pushforward(P, "diag", trivial(G, r))
    upper = trivial(G.subgroup("parabolic_upper"), r)
    with pytest.raises(AssertionError, match="on the root group of P"):
        invariants_pushforward(G.subgroup("parabolic_lower"), "diag", upper)


def test_pushforward_matches_fiber_loop():
    # the count map against a loop over P's members, each mapped by the
    # tuple map it replaced, on class functions of the root group mod r
    G = aut_group("padic", 3, (2, 2))
    r = prime(G)
    f = random(G, 1, r, np.random.default_rng(11))
    for tag, kind, m, ref in [
            ("parabolic_lower", "diag", 0, lambda g: (g[0], g[3])),
            ("parabolic_embed", "embed", 1,
             lambda g: (g[0], g[1] % 3, g[2] // 3, g[3] % 3)),
            ("parabolic_quot", "quot", 1,
             lambda g: (g[0], g[1] // 3, g[2] % 3, g[3] % 3))]:
        P = G.subgroup(tag, m=m)
        out = invariants_pushforward(P, kind, f, m)
        Q = out.group
        want = [0] * Q.order
        for x in G.elements_at(P.idx):
            want[locate_in(Q, [ref(x)])[0]] += int(values_at(f, [x])[0, 0])
        inv = pow(P.order // Q.order, -1, r)
        assert out.vals[0].tolist() == [want[j] * inv % r
                                        for j in Q.rep_idx.tolist()]


def test_geo_ind_degree():
    G = aut_group("padic", 2, (3, 2))
    E1, L1 = character_group(unit_group(G.R1))
    E2, L2 = character_group(unit_group(G.R2))
    chi = ind(G, torus_character(G, (E1, L1[:1]), (E2, L2[:1]), prime(G)),
              "upper")
    assert chi.degrees[0] == G.order // G.subgroup("parabolic_upper").order
    assert chi.degrees[0] == 4


@pytest.mark.parametrize("backend,q,lam", [("padic", 2, (3, 2)),
                                           ("padic", 3, (2, 2)),
                                           ("tpoly", 4, (2, 1))])
def test_torus_character_matches_element_loop(backend, q, lam):
    # against the per-element product it replaced, exact mod r
    G = aut_group(backend, q, lam)
    r = prime(G)
    T = G.torus
    (E1, L1), (E2, L2) = c1, c2 = unit_characters(G.R1), unit_characters(G.R2)
    t1 = {u: fr_roots(E1, r)[col] for u, col in zip(G.R1.units, L1.T)}
    t2 = {u: fr_roots(E2, r)[col] for u, col in zip(G.R2.units, L2.T)}
    for i in range(0, len(L1), 3):
        stacked = torus_character(G, (E1, L1[[i] * len(L2)]), c2, r).vals
        U1, U2 = T.factors  # (a, d) at position a * |U2| + d
        for j, got in enumerate(stacked):
            want = [int(t1[a][i]) * int(t2[d][j]) % r
                    for a in U1.codes.tolist() for d in U2.codes.tolist()]
            assert got.tolist() == want
    # rows over units other than the torus factor's give no torus function
    # (q=2 (3, 2): 4 units of R1, 2 of R2)
    if len(L1) != len(L2):
        with pytest.raises(AssertionError, match="one column per class"):
            torus_character(G, c1, c1, r)


def test_twist():
    G = aut_group("padic", 2, (3, 2))
    r = prime(G)
    E, tw = twisting_characters(G.R2)
    one = trivial(G, r)
    t0, t1 = twist(one, (E, tw[:2]))
    assert np.array_equal(t0.vals, one.vals)
    assert not np.array_equal(t1.vals, one.vals)
    assert t1.degrees[0] == 1 and t1.mult().tolist() == [1]
    for x in G.elements_at(np.arange(50)):
        for y in G.gens:
            assert np.array_equal(values_at(t1, [G.mul(x, y)]),
                                  values_at(t1, [x]) * values_at(t1, [y]) % r)
    a = indicator(G, 3, r)
    b = indicator(G, 5, r)
    ta, tb = twist(a, (E, tw[1:2])), twist(b, (E, tw[1:2]))
    assert np.array_equal(ta.inner(tb), a.inner(b))
    # rows in (row, character) order
    both = twist(stack([a, b]), (E, tw))
    assert len(both) == 2 * len(tw)
    assert np.array_equal(both.vals[1], ta.vals[0])
    assert np.array_equal(both.vals[len(tw) + 1], tb.vals[0])


def test_k_spectrum_trivial_and_sums():
    G = aut_group("padic", 2, (3, 2))
    r = prime(G, 8)
    m = k_spectrum(G, trivial(G, r))[0]
    assert m[0] == 1 and m.sum() == 1
    assert kinds_of(G, trivial(G, r)) == [{"central"}]
    B = G.subgroup("parabolic_upper")
    pi = induce(B, trivial(B.abelianization(), r))
    mp = k_spectrum(G, pi)
    assert mp.sum() == pi.degrees[0]
    sign = class_linear_characters(aut_group("padic", 2, (2, 1)), r)[1]
    pulled = inflate(G, sign, "floor")
    assert kinds_of(G, pulled) == [{"central"}]
    assert is_primitive(G, pulled).tolist() == [False]


def test_k_spectrum_of_deep_parabolic_induction():
    G = aut_group("padic", 2, (3, 2))
    r = prime(G)
    E1, u1 = twisting_characters(G.R1)
    E2, u2 = twisting_characters(G.R2)
    chi = ind(G, torus_character(G, (E1, u1[1:2]), (E2, u2[:1]), r), "upper")
    assert chi.mult().tolist() == [1]
    assert k_spectrum(G, chi).sum() == chi.degrees[0]
    assert kinds_of(G, chi) == [{"generic"}]
    assert is_primitive(G, chi).tolist() == [True]


def test_is_cuspidal_small():
    G = aut_group("padic", 2, (1, 1))
    r = prime(G)
    chars = class_linear_characters(G, r)
    assert is_cuspidal(G, chars).tolist() == [False, True]  # triv, sign
    B = G.subgroup("parabolic_upper")
    pi = induce(B, trivial(B.abelianization(), r))
    assert is_cuspidal(G, pi).tolist() == [False]


def test_fingerprint_is_the_row_bytes():
    G = aut_group("padic", 3, (2, 1))
    r = prime(G)
    rng = np.random.default_rng(5)
    rows = rng.integers(0, r, (4, G.class_count))
    rows[1] = rows[3]
    for v in rows:
        [fp] = ClassFunction(G, v, r).fingerprint()
        assert type(fp) is bytes and fp == v.astype(np.int64).tobytes()
    # a stack gives the rows' fingerprints in order; equal rows, equal keys
    many = ClassFunction(G, np.tile(rows, (2000, 1)), r)
    fps = many.fingerprint()
    assert fps == [v.tobytes() for v in many.vals]
    assert fps[1] == fps[3] and len(set(fps)) == 3
    # a strided view is keyed as its rows
    assert many[::-2].fingerprint() == fps[::-2]


def test_dedupe_signed_zero_is_one_key():
    # values given as floats become residues: -0.0 and 0.0 are both 0
    G = aut_group("padic", 2, (2, 1))
    r = prime(G)
    v = np.ones(G.class_count)
    neg = v.copy()
    v[1], neg[1] = 0.0, -0.0
    a, b = ClassFunction(G, v, r), ClassFunction(G, neg, r)
    assert a.fingerprint() == b.fingerprint()
    kept = dedupe(stack([a, b]))
    assert len(kept) == 1 and np.array_equal(kept.vals, a.vals)


def test_inflate_and_twist_match_representative_loop():
    # against the per-representative tuple loops they replaced
    G = aut_group("padic", 3, (3, 2))
    H = aut_group("tpoly", 4, (2, 1))
    L = aut_group("tpoly", 2, (3, 2))
    cases = [
        (G, "floor", 0, lambda g: (g[0] % 9, g[1] % 3, g[2] % 3, g[3] % 3)),
        (H, "diag_red", 0, lambda g: (g[0] % 4, g[3])),
        (G.subgroup("parabolic_embed", m=1), "embed", 1,
         lambda g: (g[0], g[1] % 3, g[2] // 3, g[3] % 3)),
        (L.subgroup("parabolic_quot", m=1), "quot", 1,
         lambda g: (g[0], g[1] // 2, g[2] % 2, g[3] % 2)),
        (aut_group("padic", 3, (2, 2)).subgroup("parabolic_lower"), "diag", 0,
         lambda g: (g[0], g[3])),
    ]
    rng = np.random.default_rng(7)
    for S, kind, m, ref in cases:
        Q = S.root.hom(kind, [], m)[0]
        r = prime(S.root)
        f = random(Q, 3, r, rng)
        reps = S.root.elements_at(S.rep_idx)
        want = f.vals[:, Q.cls_of[locate_in(Q, [ref(g) for g in reps])]]
        assert np.array_equal(inflate(S, f, kind, m).vals, want)
    for K in (G, H, L):
        r = prime(K)
        chi = random(K, 2, r, rng)
        E, L = unit_characters(K.R2)
        det = K.hom("det", K.locate(K.class_reps))[1].tolist()
        for row in L:
            value = dict(zip(K.R2.units, fr_roots(E, r)[row]))
            dv = np.array([value[d] for d in det])
            assert np.array_equal(twist(chi, (E, row[None])).vals,
                                  chi.vals * dv % r)


def test_inflate_refuses_a_function_off_the_target():
    G = aut_group("padic", 2, (3, 2))
    f = trivial(aut_group("padic", 2, (2, 2)), prime(G))
    with pytest.raises(AssertionError, match="target of floor"):
        inflate(G, f, "floor")


def test_mult_refuses_a_non_integer_under_optimize():
    # a residue above the bound of its site stands for no inner product of
    # rows of those degrees: the indicator of the identity class of
    # GL2(F_2) mod 7 has degree 1 and norm 1/6 = 6 mod 7, above 1 * 1
    code = ("import numpy as np\n"
            "from modrep2.classfun import ClassFunction\n"
            "from modrep2.groups import aut_group\n"
            "G = aut_group('padic', 2, (1, 1))\n"
            "v = np.zeros(G.class_count, dtype=np.int64)\n"
            "v[G.identity_class] = 1\n"
            "f = ClassFunction(G, v, 7)\n"
            "try:\n"
            "    f.mult(f)\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == ("mult: inner products, integers mod 7 within "
                           "their bounds: expected [1], computed [6]\n")


def test_nan_and_inf_are_refused_under_optimize():
    # NaN and inf are no residues (cast to int64, they read negative): mult,
    # degrees and k_spectrum refuse them under python -O, at the degree
    # read, naming the bound and the value
    code = ("import warnings\n"
            "import numpy as np\n"
            "from modrep2.classfun import ClassFunction, k_spectrum\n"
            "from modrep2.groups import aut_group\n"
            "warnings.simplefilter('ignore')\n"
            "G = aut_group('padic', 2, (2, 2))\n"
            "for bad in (np.nan, np.inf):\n"
            "    v = np.ones(G.class_count)\n"
            "    v[G.identity_class] = bad\n"
            "    f = ClassFunction(G, v, 37)\n"
            "    for read in (f.mult, lambda: f.degrees,\n"
            "                 lambda: k_spectrum(G, f)):\n"
            "        try:\n"
            "            print('returned', read())\n"
            "        except AssertionError as e:\n"
            "            print(e)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6 and not any("returned" in x for x in lines)
    assert all(x.startswith("degrees, integers mod 37 within their bounds: "
                            "expected [6], computed [-") for x in lines)


def test_read_names_the_first_ten_off():
    # the bounds broadcast against the values; in bounds, v itself comes back
    v = np.arange(20)[None]
    assert _read(v, 19, "mult: test", 23) is v
    cases = [(v - 5, 2, "expected [2, 2, 2, 2, 2, 2, 2, 2, 2, 2], computed "
              "[-5, -4, -3, -2, -1, 3, 4, 5, 6, 7]"),
             (np.array([[0, 5, -1], [2, 3, 9]]), np.array([[3], [4]]),
              "expected [3, 3, 4], computed [5, -1, 9]")]
    for vals, hi, lists in cases:
        with pytest.raises(AssertionError) as e:
            _read(vals, hi, "mult: test", 17)
        assert str(e.value) == ("mult: test, integers mod 17 within their "
                                "bounds: " + lists)


def _all_sides(lam):
    return ([("upper", 0), ("lower", 0)]
            + [(side, m) for _, m in inner_types(lam)
               for side in ("embed", "quot")])


@pytest.mark.parametrize("backend,q,lam", [("padic", 2, (3, 2)),
                                           ("padic", 2, (2, 2)),
                                           ("padic", 3, (2, 2)),
                                           ("tpoly", 2, (3, 2))])
def test_count_maps_frobenius_identity(backend, q, lam):
    # the two count maps of every side, as exact integers: #{p : Q-class
    # c_Q, G-class c_G} = |C_Q| #{p over the representative of c_Q :
    # G-class c_G}, and the first is the members' own pair count
    G = aut_group(backend, q, lam)
    for side, m in _all_sides(lam):
        tag, kind = SIDES[side]
        P = G.subgroup(tag, m=m)
        Q, up, down = count_maps(P, kind, m)
        kQ, kG = Q.class_count, G.class_count
        N_up = np.zeros((kQ, kG), dtype=np.int64)
        N_up[up.src, up.dst] = up.count
        N_down = np.zeros((kQ, kG), dtype=np.int64)
        N_down[down.dst, down.src] = down.count
        direct = np.zeros((kQ, kG), dtype=np.int64)
        np.add.at(direct, (P.pullback(kind, m)[2], P.root_cls), 1)
        assert np.array_equal(N_up, direct)
        assert N_up.sum() == P.order
        assert N_down.sum() == Q.class_count * (P.order // Q.order)
        assert np.array_equal(N_up, Q.class_sizes[:, None] * N_down)


SMALL_TYPES = [("padic", 2, (2, 1)), ("padic", 2, (2, 2)),
               ("padic", 2, (3, 2)), ("padic", 3, (2, 2)),
               ("tpoly", 2, (3, 2)), ("tpoly", 4, (2, 1))]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SMALL_TYPES), st.data())
def test_stacked_transfers_match_member_loop(case, data):
    # each stacked transfer against the per-member reference loop in Python
    # integers, row by row, exact mod r
    backend, q, lam = case
    G = aut_group(backend, q, lam)
    r = prime(G)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    n = data.draw(st.integers(1, 5))
    g = random(G, n, r, rng)
    side, m = data.draw(st.sampled_from(_all_sides(lam)))
    tag, kind = SIDES[side]
    Q = G.subgroup(tag, m=m).pullback(kind, m)[0]
    f = random(Q, n, r, rng)
    for v, w in zip(f.vals, ind(G, f, side, m).vals):
        assert np.array_equal(w, ref_ind(G, v, side, m, r))
    P = G.subgroup(tag, m=m)
    for v, w in zip(g.vals, res(G, g, side, m).vals):
        assert np.array_equal(w, ref_pushforward(P, kind, v, m, r))
    Qab = P.abelianization()
    fab = random(Qab, n, r, rng)
    for v, w in zip(fab.vals, induce(P, fab).vals):
        assert np.array_equal(w, ref_induce(P, v[Qab.coset_of], r))
    if lam[1] >= 2:
        h = random(aut_group(backend, q, (lam[0] - 1, lam[1] - 1)), n, r, rng)
        for v, w in zip(h.vals, inflate(G, h, "floor").vals):
            assert np.array_equal(w, ref_inflate(G, v, "floor", 0))
    E, tws = unit_characters(G.R2)
    tws = tws[data.draw(st.lists(st.integers(0, len(tws) - 1), min_size=1,
                                 max_size=3))]
    got = twist(g, (E, tws)).vals.reshape(n, len(tws), -1)
    for v, rows in zip(g.vals, got):
        for t, w in zip(tws, rows):
            assert np.array_equal(w, ref_twist(G, v, E, t, r))
    U = G.subgroup(data.draw(st.sampled_from(["unipotent_upper", "scalars"])))
    assert member_sums(U, g).tolist() == [
        sum(int(v[c]) for c in U.root_cls.tolist()) % r for v in g.vals]
    dup = stack([g, g[::-1], g[:1]])
    assert dup.fingerprint() == [v.tobytes() for v in dup.vals]
    kept = dedupe(dup)  # the first occurrences, in row_order's order
    assert np.array_equal(kept.vals, g[row_order(g)[0]].vals)
    # the spectrum and the cuspidality battery on characters
    chars = assemble(backend, q, lam).members
    rows = chars[data.draw(st.lists(st.integers(0, len(chars) - 1),
                                    min_size=1, max_size=6))]
    assert [bool(c) for c in is_cuspidal(G, rows)] == [
        ref_is_cuspidal(G, v, rows.r) for v in rows.vals]
    if lam[1] >= 2:
        for v, w in zip(rows.vals, k_spectrum(G, rows)):
            assert np.array_equal(w, ref_k_spectrum(G, v, rows.r))
        assert is_primitive(G, rows).tolist() == [
            ref_is_primitive(G, v, rows.r) for v in rows.vals]


class _Classes:
    def __init__(self, k):
        self.class_count = k


def test_row_order_matches_lexsort():
    # the void-key sort against np.lexsort on the key bytes, first most
    # significant, over several row blocks, with repeated rows
    rng = np.random.default_rng(17)
    k, n = 4, 40000
    V = rng.choice(np.array([0, 1, 2, 255, 256, 6, 7 << 40]), size=(n, k))
    V[:, 3] += rng.integers(0, 9, n) * (rng.random(n) < 0.5)
    assert n * k > 2 * (1 << 16)
    order, repeat = row_order(ClassFunction(_Classes(k), V, 7))
    B = V.astype(np.int64).view(np.uint8).reshape(n, -1)
    want = np.lexsort(B.T[::-1])
    assert np.array_equal(order, want)
    S = V[want]
    assert np.array_equal(repeat[1:], (S[1:] == S[:-1]).all(axis=1))
    assert not repeat[0] and repeat.any()


# The complex reference (complex_ref, the number system classfun used
# before residues) against classfun on every integer the two read, on
# stacks built from the same exponent rows through the same transfers, so
# that their rows correspond one to one.

COMPLEX_TYPES = [("padic", 2, (2, 1)), ("padic", 2, (2, 2)),
                 ("padic", 2, (3, 2)), ("padic", 2, (3, 3)),
                 ("padic", 2, (4, 2)), ("padic", 3, (1, 1)),
                 ("padic", 3, (2, 1)), ("padic", 5, (2, 1)),
                 ("tpoly", 2, (3, 2)), ("tpoly", 4, (2, 1))]


def _exact_induce(H, X, Q, r):
    """induce of the rows X, values on H's abelianization Q."""
    return induce(H, ClassFunction(Q, X, r))


def _complex_induce(H, X, Q, r):
    """complex_ref's induce of the rows X read at H's members."""
    return cr.induce(H, X[:, Q.coset_of], r)


def _exact_geo_ind(G, t1, t2, r, side):
    return ind(G, torus_character(G, t1, t2, r), side)


# each path's root table, induce, geo_ind and stack constructor
EXACT = (fr_roots, _exact_induce, _exact_geo_ind, ClassFunction)
COMPLEX = (lambda E, r: cr.roots_of_unity(E), _complex_induce, cr.geo_ind,
           cr.ClassFunction)


def _stacks(path, G, how, r):
    """The stack of characters that how names, through the path EXACT or
    COMPLEX: linear characters of a subgroup induced, all parabolic
    inductions of torus pairs on one side, or the cuspidal inductions of
    build_cuspidal_nonrect."""
    roots, induce_, geo_ind_, make = path
    kind, arg = how
    if kind == "induce":
        H = G.subgroup(arg)
        Q, E, L = linear_characters(H)
        return induce_(H, roots(E, r)[L], Q, r)
    if kind == "geo":
        t1, t2 = all_pairs(unit_characters(G.R1), unit_characters(G.R2))
        return geo_ind_(G, t1, t2, r, arg)
    D = CongruenceDual(G, *G.half_levels())
    parts = []
    for u_hat, w_hat in cuspidal_parameters(G):
        N = G.subgroup("cuspidal_normalizer", u_hat=u_hat, w_hat=w_hat)
        Q, E, exts = eta_extensions(N, D, eta_dual(u_hat, w_hat))
        parts.append(induce_(N, roots(E, r)[exts], Q, r).vals)
    return make(G, np.concatenate(parts), r)


def _classes_of(fps):
    """Per row, the first row with the same key: the partition dedupe
    merges by."""
    first = {}
    return [first.setdefault(fp, j) for j, fp in enumerate(fps)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(COMPLEX_TYPES), st.data())
def test_complex_reference_agrees_on_every_integer_read(case, data):
    backend, q, lam = case
    G = aut_group(backend, q, lam)
    ways = [("induce", "parabolic_upper"), ("induce", "scalars"),
            ("geo", "upper"), ("geo", "lower")]
    if lam[0] > lam[1] >= 2:
        ways.append(("cuspidal", None))
    how = data.draw(st.sampled_from(ways))
    tag = {"induce": how[1], "geo": "parabolic_upper",
           "cuspidal": "cuspidal_normalizer"}[how[0]]
    # the largest degree: the index of the smallest subgroup induced from
    if how[0] == "cuspidal":
        u, w = cuspidal_parameters(G)[0]
        H = G.subgroup(tag, u_hat=u, w_hat=w)
    else:
        H = G.subgroup(tag)
    r = prime(G, max(G.order // H.order, math.isqrt(G.order) + 1))
    a, b = _stacks(EXACT, G, how, r), _stacks(COMPLEX, G, how, r)
    assert len(a) == len(b)
    rows = data.draw(st.lists(st.integers(0, len(a) - 1), min_size=1,
                              max_size=8))
    a, b = a[rows], b[rows]
    assert np.array_equal(a.degrees, b.degrees)
    assert np.array_equal(a.mult(a), b.mult(b))
    # which rows dedupe merges, and which it keeps
    assert _classes_of(a.fingerprint()) == _classes_of(b.fingerprint())
    assert len(dedupe(a)) == len(cr.dedupe(b))
    assert is_cuspidal(G, a).tolist() == cr.is_cuspidal(G, b).tolist()
    for U in (G.subgroup("unipotent_upper"), G.subgroup("scalars")):
        sums = cr.integers(cr.member_sums(U, b), "member sums")
        assert np.array_equal(member_sums(U, a), sums % r)
    if lam[1] >= 2:
        assert np.array_equal(k_spectrum(G, a), cr.k_spectrum(G, b))
        assert np.array_equal(is_primitive(G, a), cr.is_primitive(G, b))
    # a twist keeps the correspondence
    E, tws = unit_characters(G.R2)
    t = data.draw(st.integers(0, len(tws) - 1))
    ta, tb = twist(a, (E, tws[t:t + 1])), cr.twist(b, (E, tws[t:t + 1]))
    assert np.array_equal(ta.mult(a), tb.mult(b))
