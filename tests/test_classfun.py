"""Induction, restriction, transfer maps and depth-one spectra."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modrep2.build import assemble
from modrep2.classfun import (ClassFunction, count_maps, dedupe,
                              depth_one_dual, geo_ind, induce, ind, inflate,
                              invariants_pushforward, is_cuspidal, k_spectrum,
                              linear_characters, res, row_order,
                              spectrum_kinds, is_primitive, stack,
                              torus_character, twist)
from modrep2.groups import aut_group
from modrep2.orbits import inner_types
from modrep2.rings import (TOL, character_group, roots_of_unity,
                           twisting_characters, unit_group, unit_characters)

SRC = Path(__file__).resolve().parent.parent / "src"


def indicator(G, c):
    v = np.zeros(G.class_count)
    v[c] = 1.0
    return ClassFunction(G, v)


def trivial(G):
    return ClassFunction(G, np.ones(G.class_count))


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
    return ClassFunction(H, f.vals[:, fusion(H)])


def induce_by_fusion(H, f):
    """Induction of class functions f on H, row by row: the class-size-
    weighted values summed into root classes through the fusion."""
    G = H.root
    out = []
    for v in f.vals:
        w = H.class_sizes * v
        out.append(np.bincount(fusion(H), w.real, G.class_count)
                   + 1j * np.bincount(fusion(H), w.imag, G.class_count))
    return ClassFunction(G, np.array(out) * (G.order // H.order)
                         / G.class_sizes)


def on_members(f):
    """Class functions on a subgroup read at its members, for induce."""
    return f.vals[:, f.group.cls_of]


def class_linear_characters(G):
    """The exponent rows of linear_characters(G) as one stack of class
    functions, read at the cosets of G's class representatives."""
    E, L, cos = linear_characters(G)
    return ClassFunction(G, roots_of_unity(E)[L[:, cos[G.positions(
        G.rep_idx)]]])


def kinds_of(G, chi):
    """Per row, the set of orbit labels in its depth-one spectrum."""
    kinds, present = spectrum_kinds(G, chi)
    return [{k for k, on in zip(kinds, row) if on} for row in present]


# Per-member references: the transfers one class function at a time, as
# classfun computed them before it moved whole stacks.

def ref_induce(P, v):
    G = P.root
    k = G.class_count
    out = (np.bincount(P.root_cls, v.real, k)
           + 1j * np.bincount(P.root_cls, v.imag, k))
    out *= (G.order // P.order) / G.class_sizes
    return out


def ref_inflate(G, v, kind, m):
    Q, img = G.root.hom(kind, G.rep_idx, m)
    return v[Q.cls_of[img]]


def ref_pushforward(P, kind, v, m):
    Q, img, _ = P.pullback(kind, m)
    w = v[P.root_cls]
    sums = (np.bincount(img, w.real, Q.order)
            + 1j * np.bincount(img, w.imag, Q.order))
    return sums[Q.rep_idx] / (P.order // Q.order)


SIDES = {"upper": ("parabolic_upper", "diag"),
         "lower": ("parabolic_lower", "diag"),
         "embed": ("parabolic_embed", "embed"),
         "quot": ("parabolic_quot", "quot")}


def ref_ind(G, v, side, m):
    tag, kind = SIDES[side]
    P = G.subgroup(tag, m=m)
    return ref_induce(P, v[P.pullback(kind, m)[2]])


def ref_twist(G, v, E, row):
    """v times the unit character zeta_E^row of R2 (its columns following
    the units) composed with det, one class at a time."""
    R2, codes = G.hom("det", G.rep_idx)
    value = dict(zip(R2.units, roots_of_unity(E)[row]))
    return v * np.array([value[c] for c in codes.tolist()])


def key_bytes(rounded):
    """A row's fingerprint from its rounded values: each double as a
    big-endian unsigned integer, every bit of the negatives flipped and the
    sign bit of the others set."""
    bits = np.asarray(rounded, dtype=np.complex128).view(np.uint64)
    sign = np.uint64(1 << 63)
    return np.where(bits & sign, ~bits, bits | sign).astype(">u8").tobytes()


def ref_fingerprint(v):
    return key_bytes(np.round(v, 6) + 0.0)


def ref_k_spectrum(G, v):
    D = depth_one_dual(G)
    m = np.conj(D.value_matrix @ np.conj(v[G.cls_of[D.K.idx]])) / D.K.order
    assert np.abs(m - np.round(m.real)).max() < TOL
    return np.round(m.real).astype(np.int64)


def ref_is_primitive(G, v):
    labels = depth_one_dual(G).labels
    kinds = {labels[j][0] for j in np.flatnonzero(ref_k_spectrum(G, v) > 0)}
    return not kinds & {"central", "scalar"}


def ref_is_cuspidal(G, v):
    w = G.class_sizes / G.order
    if abs(np.sum(v * v.conj() * w) - 1) > TOL:
        return False
    if G.l2 >= 2 and not ref_is_primitive(G, v):
        return False
    subs = [G.subgroup("unipotent_upper"), G.subgroup("unipotent_lower")]
    subs += [G.subgroup(tag, m=m) for _, m in inner_types(G.lam)
             for tag in ("ker_embed", "ker_quot")]
    E, twists = (twisting_characters(G.R2) if G.R2.level >= 2
                 else unit_characters(G.R2))
    for row in twists:
        tc = ref_twist(G, v, E, row)
        for U in subs:
            if abs(tc[G.cls_of[U.idx]].sum()) > TOL * U.order:
                return False
    return True


def test_linear_character_counts():
    for backend, q, lam, n in [("padic", 2, (1, 1), 2), ("padic", 3, (1, 1), 2),
                               ("padic", 2, (2, 1), 4), ("padic", 3, (2, 2), 6)]:
        G = aut_group(backend, q, lam)
        chars = class_linear_characters(G)
        assert len(chars) == n
        assert chars.degrees.tolist() == [1] * n
        assert chars.mult().tolist() == [1] * n
        gram = chars.mult(chars).tolist()
        assert gram == [[int(i == j) for j in range(n)] for i in range(n)]


def test_linear_characters_multiplicative():
    G = aut_group("padic", 2, (2, 1))
    chars = class_linear_characters(G)
    els = G.elements_at(G.idx)
    for x in els:
        for y in G.gens:
            off = (values_at(chars, [G.mul(x, y)])
                   - values_at(chars, [x]) * values_at(chars, [y]))
            assert np.abs(off).max() < 1e-9


def test_frobenius_reciprocity():
    G = aut_group("padic", 2, (3, 2))
    B = G.subgroup("borel")
    f = ClassFunction(B, np.eye(B.class_count))  # every class indicator
    fi = induce(B, on_members(f))
    g = ClassFunction(G, np.eye(G.class_count))
    assert np.abs(fi.inner(g) - f.inner(restrict(B, g))).max() < 1e-9


def test_induced_trivial_degree_and_permutation_character():
    for q, expect in [(2, 3), (3, 4)]:
        G = aut_group("padic", q, (1, 1))
        B = G.subgroup("borel")
        pi = induce(B, np.ones(B.order))
        assert pi.degrees[0] == G.order // B.order == expect
        assert pi.mult().tolist() == [2]
        assert pi.mult(trivial(G)).tolist() == [[1]]


def test_inflation_preserves_inner_products():
    G = aut_group("padic", 2, (3, 2))
    Gf = aut_group("padic", 2, (2, 1))
    chars = class_linear_characters(Gf)
    pulled = inflate(G, chars, "floor")
    assert (pulled.degrees == 1).all()
    assert np.abs(chars.inner(chars) - pulled.inner(pulled)).max() < 1e-9
    assert len(dedupe(pulled)) == len(chars)


def test_pushforward_of_trivial_is_trivial():
    G = aut_group("padic", 2, (2, 2))
    P = G.subgroup("parabolic_upper")
    out = invariants_pushforward(P, "diag", trivial(G))
    assert out.group is G.torus
    assert np.allclose(out.vals, 1.0)


@pytest.mark.parametrize("lam", [(3, 2), (2, 2)])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_geo_adjointness(lam, side):
    G = aut_group("padic", 2, lam)
    P = G.subgroup("parabolic_" + side)
    T = G.torus
    for t in range(T.class_count):
        h = indicator(T, t)
        ih = ind(G, h, side)
        up = induce(P, on_members(inflate(P, h, "diag")))
        assert np.array_equal(ih.vals, up.vals)
        for c in range(G.class_count):
            g = indicator(G, c)
            assert abs(ih.inner(g) - h.inner(res(G, g, side))) < 1e-9


@pytest.mark.parametrize("lam", [(3, 2), (2, 2)])
@pytest.mark.parametrize("side", ["embed", "quot"])
def test_inf_adjointness(lam, side):
    G = aut_group("padic", 2, lam)
    Gm = aut_group("padic", 2, (lam[0], 1))
    for j in range(Gm.class_count):
        f = indicator(Gm, j)
        fi = ind(G, f, side, 1)
        for c in range(G.class_count):
            g = indicator(G, c)
            assert abs(fi.inner(g) - f.inner(res(G, g, side, 1))) < 1e-9


def test_congruence_kernel_orders():
    for lam in [(3, 2), (2, 2)]:
        G = aut_group("padic", 2, lam)
        for side in ["embed", "quot"]:
            K = G.subgroup("ker_" + side, m=1)
            assert K.order == 2 ** (2 * (lam[1] - 1))


def test_induce_matches_class_loop():
    # bit for bit against the accumulation over the members in member order;
    # against the per-class accumulation through the fusion of a subgroup's
    # own classes, whose sums run in another order, up to float64 rounding
    G = aut_group("padic", 2, (4, 2))
    for H in (G.subgroup("parabolic_upper"), G.subgroup("ker_embed", m=1),
              G.subgroup("cuspidal_normalizer", u_hat=0, w_hat=1)):
        E, L, cos = linear_characters(H)
        roots = roots_of_unity(E)
        stacked = induce(H, roots[L[:, cos]]).vals  # every row at once
        for row, chi, got in zip(L, class_linear_characters(H), stacked):
            vals = roots[row[cos]]
            assert np.array_equal(vals, on_members(chi)[0])
            assert np.array_equal(induce(H, vals).vals[0], got)
            want = np.zeros(G.class_count, dtype=np.complex128)
            for p, c in enumerate(H.root_cls):
                want[c] += vals[p]
            want *= (G.order // H.order) / G.class_sizes
            assert np.array_equal(got, want)
            want = np.zeros(G.class_count, dtype=np.complex128)
            for j, c in enumerate(fusion(H)):
                want[c] += H.class_sizes[j] * chi.vals[0, j]
            want *= (G.order // H.order) / G.class_sizes
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            assert np.allclose(got, induce_by_fusion(H, chi).vals, rtol=0,
                               atol=1e-12)


@pytest.mark.parametrize("backend,q,lam", [("padic", 2, (4, 2)),
                                           ("padic", 3, (2, 2)),
                                           ("tpoly", 2, (3, 2))])
def test_member_transfers_match_fusion_reference(backend, q, lam):
    # ind and res through the members against the class-level transfers
    # through the parabolic's own classes (inflate at its classes, then
    # induce_by_fusion; restrict, then average over the fibers), on random
    # complex class functions; equal up to float64 rounding of sums in
    # another order
    G = aut_group(backend, q, lam)
    rng = np.random.default_rng(3)
    k = G.class_count
    g = ClassFunction(G, rng.normal(size=k) + 1j * rng.normal(size=k))
    for side, tag, kind in [("upper", "parabolic_upper", "diag"),
                            ("lower", "parabolic_lower", "diag"),
                            ("embed", "parabolic_embed", "embed"),
                            ("quot", "parabolic_quot", "quot")]:
        P = G.subgroup(tag, m=1)
        Q, img = G.hom(kind, P.idx, 1)
        k = Q.class_count
        f = ClassFunction(Q, rng.normal(size=k) + 1j * rng.normal(size=k))
        want = induce_by_fusion(P, inflate(P, f, kind, 1))
        assert np.allclose(ind(G, f, side, 1).vals, want.vals, rtol=0,
                           atol=1e-9)
        sums = np.zeros(Q.order, dtype=np.complex128)
        np.add.at(sums, img, on_members(restrict(P, g))[0])
        want = sums[Q.rep_idx] / (P.order // Q.order)
        assert np.allclose(res(G, g, side, 1).vals, want, rtol=0, atol=1e-9)


def test_pushforward_refuses_a_kernel_outside_the_subgroup():
    # the fiber check refuses a map that is not onto with equal fibers: the
    # diagonal of the unipotent radical (one fiber) and of the scalars (not
    # onto the torus)
    G = aut_group("padic", 2, (2, 2))
    for tag in ("unipotent_upper", "scalars"):
        P = G.subgroup(tag)
        with pytest.raises(AssertionError, match="fiber sizes"):
            invariants_pushforward(P, "diag", trivial(G))
    upper = trivial(G.subgroup("parabolic_upper"))
    with pytest.raises(AssertionError, match="on the root group of P"):
        invariants_pushforward(G.subgroup("parabolic_lower"), "diag", upper)


def test_pushforward_matches_fiber_loop():
    # the two bincounts against a loop over P's members, each mapped by the
    # tuple map it replaced, on complex class functions of the root group
    G = aut_group("padic", 3, (2, 2))
    rng = np.random.default_rng(11)
    k = G.class_count
    f = ClassFunction(G, rng.normal(size=k) + 1j * rng.normal(size=k))
    for tag, kind, m, ref in [
            ("parabolic_lower", "diag", 0, lambda g: (g[0], g[3])),
            ("parabolic_embed", "embed", 1,
             lambda g: (g[0], g[1] % 3, g[2] // 3, g[3] % 3)),
            ("parabolic_quot", "quot", 1,
             lambda g: (g[0], g[1] // 3, g[2] % 3, g[3] % 3))]:
        P = G.subgroup(tag, m=m)
        out = invariants_pushforward(P, kind, f, m)
        Q = out.group
        want = np.zeros(Q.order, dtype=np.complex128)
        for x in G.elements_at(P.idx):
            want[locate_in(Q, [ref(x)])[0]] += values_at(f, [x])[0, 0]
        want = want[Q.rep_idx] / (P.order // Q.order)
        assert np.allclose(out.vals, want, rtol=0, atol=1e-12)


def test_geo_ind_degree():
    G = aut_group("padic", 2, (3, 2))
    E1, L1 = character_group(unit_group(G.R1))
    E2, L2 = character_group(unit_group(G.R2))
    chi = geo_ind(G, (E1, L1[:1]), (E2, L2[:1]))
    assert chi.degrees[0] == G.order // G.subgroup("parabolic_upper").order
    assert chi.degrees[0] == 4


@pytest.mark.parametrize("backend,q,lam", [("padic", 2, (3, 2)),
                                           ("padic", 3, (2, 2)),
                                           ("tpoly", 4, (2, 1))])
def test_torus_character_matches_element_loop(backend, q, lam):
    # against the per-element product it replaced, to the last bits (numpy's
    # vector complex product may round differently from the scalar one)
    G = aut_group(backend, q, lam)
    T = G.torus
    (E1, L1), (E2, L2) = c1, c2 = unit_characters(G.R1), unit_characters(G.R2)
    t1 = {u: roots_of_unity(E1)[col] for u, col in zip(G.R1.units, L1.T)}
    t2 = {u: roots_of_unity(E2)[col] for u, col in zip(G.R2.units, L2.T)}
    for i in range(0, len(L1), 3):
        stacked = torus_character(G, (E1, L1[[i] * len(L2)]), c2).vals
        U1, U2 = T.factors  # (a, d) at position a * |U2| + d
        for j, got in enumerate(stacked):
            want = [t1[a][i] * t2[d][j] for a in U1.codes.tolist()
                    for d in U2.codes.tolist()]
            assert np.abs(got - want).max() < 1e-15
    # rows over units other than the torus factor's give no torus function
    # (q=2 (3, 2): 4 units of R1, 2 of R2)
    if len(L1) != len(L2):
        with pytest.raises(AssertionError, match="one column per class"):
            torus_character(G, c1, c1)


def test_twist():
    G = aut_group("padic", 2, (3, 2))
    E, tw = twisting_characters(G.R2)
    one = trivial(G)
    t0, t1 = twist(one, (E, tw[:2]))
    assert np.allclose(t0.vals, one.vals)
    assert not np.allclose(t1.vals, one.vals)
    assert t1.degrees[0] == 1 and t1.mult().tolist() == [1]
    for x in G.elements_at(np.arange(50)):
        for y in G.gens:
            assert abs(values_at(t1, [G.mul(x, y)])
                       - values_at(t1, [x]) * values_at(t1, [y]))[0, 0] < 1e-9
    a = indicator(G, 3)
    b = indicator(G, 5)
    ta, tb = twist(a, (E, tw[1:2])), twist(b, (E, tw[1:2]))
    assert abs(ta.inner(tb) - a.inner(b))[0, 0] < 1e-12
    # rows in (row, character) order
    both = twist(stack([a, b]), (E, tw))
    assert len(both) == 2 * len(tw)
    assert np.array_equal(both.vals[1], ta.vals[0])
    assert np.array_equal(both.vals[len(tw) + 1], tb.vals[0])


def test_k_spectrum_trivial_and_sums():
    G = aut_group("padic", 2, (3, 2))
    m = k_spectrum(G, trivial(G))[0]
    assert m[0] == 1 and m.sum() == 1
    assert kinds_of(G, trivial(G)) == [{"central"}]
    B = G.subgroup("borel")
    pi = induce(B, np.ones(B.order))
    mp = k_spectrum(G, pi)
    assert mp.sum() == pi.degrees[0]
    sign = class_linear_characters(aut_group("padic", 2, (2, 1)))[1]
    pulled = inflate(G, sign, "floor")
    assert kinds_of(G, pulled) == [{"central"}]
    assert is_primitive(G, pulled).tolist() == [False]


def test_k_spectrum_of_deep_parabolic_induction():
    G = aut_group("padic", 2, (3, 2))
    E1, u1 = twisting_characters(G.R1)
    E2, u2 = twisting_characters(G.R2)
    chi = geo_ind(G, (E1, u1[1:2]), (E2, u2[:1]))
    assert chi.mult().tolist() == [1]
    assert k_spectrum(G, chi).sum() == chi.degrees[0]
    assert kinds_of(G, chi) == [{"generic"}]
    assert is_primitive(G, chi).tolist() == [True]


def test_is_cuspidal_small():
    G = aut_group("padic", 2, (1, 1))
    chars = class_linear_characters(G)
    assert is_cuspidal(G, chars).tolist() == [False, True]  # triv, sign
    B = G.subgroup("borel")
    assert is_cuspidal(G, induce(B, np.ones(B.order))).tolist() == [False]


def _round_each(vals):
    """Per-entry reference: numpy's scalar round on each real and imaginary
    part, with -0.0 read as 0.0 (equal as floats, so one key before)."""
    return np.array([complex(round(z.real, 6) + 0.0, round(z.imag, 6) + 0.0)
                     for z in vals])


def test_fingerprint_matches_per_entry_round():
    G = aut_group("padic", 3, (2, 1))
    k = G.class_count
    rng = np.random.default_rng(5)
    roots = np.exp(2j * np.pi * np.arange(k) / 12) * rng.integers(-9, 10, k)
    ties = (rng.integers(-10 ** 6, 10 ** 6, k) + 0.5) * 1e-6
    tiny = np.full(k, -1e-12) + 1j * np.where(np.arange(k) % 2, 1e-12, -1e-12)
    rows = [roots, ties + 1j * ties[::-1], tiny, rng.normal(size=k)]
    for vals in rows:
        [fp] = ClassFunction(G, vals).fingerprint()
        assert type(fp) is bytes
        assert fp == key_bytes(_round_each(ClassFunction(G, vals).vals[0]))
    # a stack over several row blocks gives the rows' fingerprints in order
    many = np.array(rows * 2000)
    assert len(many) * k > 2 * (1 << 16)
    assert ClassFunction(G, many).fingerprint() == [
        key_bytes(_round_each(v)) for v in rows] * 2000


def test_dedupe_signed_zero_is_one_key():
    G = aut_group("padic", 2, (2, 1))
    v = np.ones(G.class_count, dtype=np.complex128)
    neg = v.copy()
    neg[1] = complex(-1e-12, -0.0)
    v[1] = 0.0
    a, b = ClassFunction(G, v), ClassFunction(G, neg)
    # rounding alone leaves a negative zero in b, bit-different from a
    assert np.signbit(np.round(b.vals, 6)[0, 1].real)
    assert a.fingerprint() == b.fingerprint()
    kept = dedupe(stack([a, b]))
    assert len(kept) == 1 and np.array_equal(kept.vals, a.vals)


def test_inflate_and_twist_match_representative_loop():
    # bit for bit against the per-representative tuple loops they replaced
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
        f = ClassFunction(Q, rng.normal(size=(3, Q.class_count))
                          + 1j * rng.normal(size=(3, Q.class_count)))
        reps = S.root.elements_at(S.rep_idx)
        want = f.vals[:, Q.cls_of[locate_in(Q, [ref(g) for g in reps])]]
        assert np.array_equal(inflate(S, f, kind, m).vals, want)
    for K in (G, H, L):
        chi = ClassFunction(K, rng.normal(size=(2, K.class_count)))
        E, L = unit_characters(K.R2)
        det = K.hom("det", K.locate(K.class_reps))[1].tolist()
        for row in L:
            value = dict(zip(K.R2.units, roots_of_unity(E)[row]))
            dv = np.array([value[d] for d in det])
            assert np.array_equal(twist(chi, (E, row[None])).vals,
                                  chi.vals * dv)


def test_inflate_refuses_a_function_off_the_target():
    G = aut_group("padic", 2, (3, 2))
    f = trivial(aut_group("padic", 2, (2, 2)))
    with pytest.raises(AssertionError, match="target of floor"):
        inflate(G, f, "floor")


def test_mult_refuses_a_non_integer_under_optimize():
    code = ("import numpy as np\n"
            "from modrep2.classfun import ClassFunction\n"
            "from modrep2.groups import aut_group\n"
            "G = aut_group('padic', 2, (1, 1))\n"
            "f = ClassFunction(G, np.full(G.class_count, 0.5))\n"
            "try:\n"
            "    f.mult(f)\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == ("mult: inner products, integers within 1e-06: "
                           "expected integers, computed [(0.25+0j)]\n")


def test_nan_and_inf_are_refused_under_optimize():
    # NaN and inf are no integers: mult, degrees and k_spectrum refuse them
    # under python -O, naming the expected and the computed entries
    code = ("import numpy as np\n"
            "from modrep2.classfun import ClassFunction, k_spectrum\n"
            "from modrep2.groups import aut_group\n"
            "G = aut_group('padic', 2, (2, 2))\n"
            "for bad in (np.nan, np.inf):\n"
            "    v = np.ones(G.class_count)\n"
            "    v[G.identity_class] = bad\n"
            "    f = ClassFunction(G, v)\n"
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
    for line, what in zip(lines, ["mult: inner products", "degrees",
                                  "k_spectrum: multiplicities"] * 2):
        assert line.startswith(what + ", integers within 1e-06: expected "
                               "integers, computed [")
    assert all("nan" in x for x in lines[:3])
    assert lines[2].count("(nan+nanj)") == 10  # the first ten of 16
    assert all("inf" in x or "nan" in x for x in lines[3:])


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
    # each stacked transfer against the per-member reference loop, row by
    # row: gathers and member-order bincounts bit for bit, the count maps
    # up to float64 rounding of sums in another order
    backend, q, lam = case
    G = aut_group(backend, q, lam)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    n = data.draw(st.integers(1, 5))

    def random(K):
        return ClassFunction(K, rng.normal(size=(n, K.class_count))
                             + 1j * rng.normal(size=(n, K.class_count)))

    g = random(G)
    side, m = data.draw(st.sampled_from(_all_sides(lam)))
    tag, kind = SIDES[side]
    Q = G.subgroup(tag, m=m).pullback(kind, m)[0]
    f = random(Q)
    got = ind(G, f, side, m).vals
    for v, w in zip(f.vals, got):
        assert np.allclose(w, ref_ind(G, v, side, m), rtol=0, atol=1e-9)
    got = res(G, g, side, m).vals
    P = G.subgroup(tag, m=m)
    for v, w in zip(g.vals, got):
        assert np.allclose(w, ref_pushforward(P, kind, v, m), rtol=0,
                           atol=1e-9)
    vals = rng.normal(size=(n, P.order)) + 1j * rng.normal(size=(n, P.order))
    for v, w in zip(vals, induce(P, vals).vals):
        assert np.array_equal(w, ref_induce(P, v))
    if lam[1] >= 2:
        Gf = aut_group(backend, q, (lam[0] - 1, lam[1] - 1))
        h = random(Gf)
        for v, w in zip(h.vals, inflate(G, h, "floor").vals):
            assert np.array_equal(w, ref_inflate(G, v, "floor", 0))
    E, tws = unit_characters(G.R2)
    tws = tws[data.draw(st.lists(st.integers(0, len(tws) - 1), min_size=1,
                                 max_size=3))]
    got = twist(g, (E, tws)).vals.reshape(n, len(tws), -1)
    for v, rows in zip(g.vals, got):
        for t, w in zip(tws, rows):
            assert np.array_equal(w, ref_twist(G, v, E, t))
    dup = stack([g, g[::-1], g[:1]])
    assert dup.fingerprint() == [ref_fingerprint(v) for v in dup.vals]
    kept = dedupe(dup)  # the first occurrences, in row_order's order
    assert np.array_equal(kept.vals, g[row_order(g)[0]].vals)
    assert kept.repeat.tolist() == [False] * n
    # the spectrum and the cuspidality battery on characters
    chars = assemble(backend, q, lam).members
    rows = chars[data.draw(st.lists(st.integers(0, len(chars) - 1),
                                    min_size=1, max_size=6))]
    assert [bool(c) for c in is_cuspidal(G, rows)] == [
        ref_is_cuspidal(G, v) for v in rows.vals]
    if lam[1] >= 2:
        spec = k_spectrum(G, rows)
        for v, w in zip(rows.vals, spec):
            assert np.array_equal(w, ref_k_spectrum(G, v))
        assert is_primitive(G, rows).tolist() == [
            ref_is_primitive(G, v) for v in rows.vals]


class _Classes:
    def __init__(self, k):
        self.class_count = k


def test_row_order_matches_lexsort():
    # the void-key sort against np.lexsort on the rounded (re, im) columns,
    # first most significant, over several row blocks: ties broken deep in
    # the rows, entries that round to -0.0, negatives and repeated rows
    rng = np.random.default_rng(17)
    k, n = 4, 20000
    choice = np.array([-2.5, -1e-12, 0.0, 1e-12, 1e-7, 0.5, 3.25])
    V = (rng.choice(choice, size=(n, k))
         + 1j * rng.choice(choice, size=(n, k)))
    V[:, 3] += rng.normal(size=n) * (rng.random(n) < 0.5)
    assert n * 2 * k > 2 * (1 << 16)
    order, repeat = row_order(ClassFunction(_Classes(k), V))
    R = np.round(V, 6) + 0.0
    want = np.lexsort(R.view(np.float64).T[::-1])
    assert np.array_equal(order, want)
    S = R[want]
    assert np.array_equal(repeat[1:], (S[1:] == S[:-1]).all(axis=1))
    assert not repeat[0] and repeat.any()
