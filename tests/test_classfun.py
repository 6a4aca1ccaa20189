"""Induction, restriction, transfer maps and depth-one spectra."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modrep2.classfun import (ClassFunction, dedupe, geo_ind, induce, ind,
                              inflate, invariants_pushforward, is_cuspidal,
                              k_spectrum, linear_characters,
                              res, spectrum_kinds, is_primitive,
                              torus_character, twist)
from modrep2.groups import aut_group
from modrep2.rings import (TableGroup, character_group, twisting_characters,
                           unit_group, unit_characters)

SRC = Path(__file__).resolve().parent.parent / "src"


def indicator(G, c):
    v = np.zeros(G.class_count)
    v[c] = 1.0
    return ClassFunction(G, v)


def trivial(G):
    return ClassFunction(G, np.ones(G.class_count))


# Class-level references: the transfers through a subgroup's own classes
# (the fusion of its classes into the root's) that the member-level kernel
# of classfun replaced.

def fusion(H):
    """Root class index of each class of the subgroup H."""
    fus = np.empty(H.class_count, dtype=np.int64)
    fus[H.cls_of] = H.root_cls
    return fus


def restrict(H, f):
    """A class function on H's root group read at H's classes."""
    assert f.group is H.root
    return ClassFunction(H, f.vals[fusion(H)])


def induce_by_fusion(H, f):
    """Induction of a class function f on H: its class-size-weighted
    values summed into root classes through the fusion."""
    G = H.root
    w = H.class_sizes * f.vals
    out = (np.bincount(fusion(H), w.real, G.class_count)
           + 1j * np.bincount(fusion(H), w.imag, G.class_count))
    return ClassFunction(G, out * (G.order // H.order) / G.class_sizes)


def on_members(f):
    """A class function on a subgroup read at its members, for induce."""
    return f.vals[f.group.cls_of]


def class_linear_characters(G):
    """The exponent rows of linear_characters(G) as class functions,
    read at the cosets of G's class representatives."""
    roots, L, cos = linear_characters(G)
    return [ClassFunction(G, v)
            for v in roots[L[:, cos[G.positions(G.rep_idx)]]]]


def test_linear_character_counts():
    for backend, q, lam, n in [("padic", 2, (1, 1), 2), ("padic", 3, (1, 1), 2),
                               ("padic", 2, (2, 1), 4), ("padic", 3, (2, 2), 6)]:
        G = aut_group(backend, q, lam)
        chars = class_linear_characters(G)
        assert len(chars) == n
        for chi in chars:
            assert chi.degree == 1
            assert chi.mult(chi) == 1
        gram = [[a.mult(b) for b in chars] for a in chars]
        assert gram == [[int(i == j) for j in range(n)] for i in range(n)]


def test_linear_characters_multiplicative():
    G = aut_group("padic", 2, (2, 1))
    for chi in class_linear_characters(G):
        for x in G.elements:
            for y in G.gens:
                assert abs(chi(G.mul(x, y)) - chi(x) * chi(y)) < 1e-9


def test_frobenius_reciprocity():
    G = aut_group("padic", 2, (3, 2))
    B = G.subgroup("borel")
    for j in range(B.class_count):
        f = indicator(B, j)
        fi = induce(B, on_members(f))
        for c in range(G.class_count):
            g = indicator(G, c)
            assert abs(fi.inner(g) - f.inner(restrict(B, g))) < 1e-9


def test_induced_trivial_degree_and_permutation_character():
    for q, expect in [(2, 3), (3, 4)]:
        G = aut_group("padic", q, (1, 1))
        B = G.subgroup("borel")
        pi = induce(B, np.ones(B.order))
        assert pi.degree == G.order // B.order == expect
        assert pi.mult(pi) == 2
        assert pi.mult(trivial(G)) == 1


def test_inflation_preserves_inner_products():
    G = aut_group("padic", 2, (3, 2))
    Gf = aut_group("padic", 2, (2, 1))
    chars = class_linear_characters(Gf)
    pulled = [inflate(G, f, "floor") for f in chars]
    for a, fa in zip(chars, pulled):
        assert fa.degree == 1
        for b, fb in zip(chars, pulled):
            assert abs(a.inner(b) - fa.inner(fb)) < 1e-9
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
        roots, L, cos = linear_characters(H)
        for row, chi in zip(L, class_linear_characters(H)):
            vals = roots[row[cos]]
            assert np.array_equal(vals, on_members(chi))
            got = induce(H, vals).vals
            want = np.zeros(G.class_count, dtype=np.complex128)
            for p, c in enumerate(H.root_cls):
                want[c] += vals[p]
            want *= (G.order // H.order) / G.class_sizes
            assert np.array_equal(got, want)
            want = np.zeros(G.class_count, dtype=np.complex128)
            for j, c in enumerate(fusion(H)):
                want[c] += H.class_sizes[j] * chi.vals[j]
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
        np.add.at(sums, img, on_members(restrict(P, g)))
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
        for x in P.elements:
            want[Q.index[ref(x)]] += f(x)
        want = want[[Q.index[r] for r in Q.class_reps]] / (P.order // Q.order)
        assert np.allclose(out.vals, want, rtol=0, atol=1e-12)


def test_geo_ind_degree():
    G = aut_group("padic", 2, (3, 2))
    t1 = character_group(unit_group(G.R1))[0]
    t2 = character_group(unit_group(G.R2))[0]
    chi = geo_ind(G, t1, t2)
    assert chi.degree == G.order // G.subgroup("parabolic_upper").order == 4


@pytest.mark.parametrize("backend,q,lam", [("padic", 2, (3, 2)),
                                           ("padic", 3, (2, 2)),
                                           ("tpoly", 4, (2, 1))])
def test_torus_character_matches_element_loop(backend, q, lam):
    # against the per-element product it replaced, to the last bits (numpy's
    # vector complex product may round differently from the scalar one)
    G = aut_group(backend, q, lam)
    T = G.torus
    for t1 in unit_characters(G.R1)[::3]:
        for t2 in unit_characters(G.R2):
            want = [t1(a) * t2(d) for a, d in T.elements]
            got = torus_character(G, t1, t2).vals
            assert np.abs(got - want).max() < 1e-15
    # a character whose group lists the units in another order is refused
    U = unit_group(G.R2)
    U = TableGroup(U.elements[::-1], U.order - 1 - U.table[::-1, ::-1], 1,
                   name="reversed")
    with pytest.raises(AssertionError, match="listed as the torus factors"):
        torus_character(G, unit_characters(G.R1)[0], character_group(U)[1])


def test_twist():
    G = aut_group("padic", 2, (3, 2))
    tw = twisting_characters(G.R2)
    one = trivial(G)
    t0 = twist(one, tw[0])
    t1 = twist(one, tw[1])
    assert np.allclose(t0.vals, one.vals)
    assert not np.allclose(t1.vals, one.vals)
    assert t1.degree == 1 and t1.mult(t1) == 1
    for x in G.elements[:50]:
        for y in G.gens:
            assert abs(t1(G.mul(x, y)) - t1(x) * t1(y)) < 1e-9
    a = indicator(G, 3)
    b = indicator(G, 5)
    assert abs(twist(a, tw[1]).inner(twist(b, tw[1])) - a.inner(b)) < 1e-12


def test_k_spectrum_trivial_and_sums():
    G = aut_group("padic", 2, (3, 2))
    m = k_spectrum(G, trivial(G))
    assert m[0] == 1 and m.sum() == 1
    assert spectrum_kinds(G, trivial(G)) == {"central"}
    B = G.subgroup("borel")
    pi = induce(B, np.ones(B.order))
    mp = k_spectrum(G, pi)
    assert mp.sum() == pi.degree
    sign = class_linear_characters(aut_group("padic", 2, (2, 1)))[1]
    pulled = inflate(G, sign, "floor")
    assert spectrum_kinds(G, pulled) == {"central"}
    assert not is_primitive(G, pulled)


def test_k_spectrum_of_deep_parabolic_induction():
    G = aut_group("padic", 2, (3, 2))
    u1 = twisting_characters(G.R1)[1]
    u2 = twisting_characters(G.R2)[0]
    chi = geo_ind(G, u1, u2)
    assert chi.mult(chi) == 1
    assert k_spectrum(G, chi).sum() == chi.degree
    assert spectrum_kinds(G, chi) == {"generic"}
    assert is_primitive(G, chi)


def test_is_cuspidal_small():
    G = aut_group("padic", 2, (1, 1))
    triv, sign = class_linear_characters(G)
    assert not is_cuspidal(G, triv)
    assert is_cuspidal(G, sign)
    B = G.subgroup("borel")
    assert not is_cuspidal(G, induce(B, np.ones(B.order)))


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
    for vals in (roots, ties + 1j * ties[::-1], tiny, rng.normal(size=k)):
        fp = ClassFunction(G, vals).fingerprint()
        assert type(fp) is bytes
        assert fp == _round_each(ClassFunction(G, vals).vals).tobytes()


def test_dedupe_signed_zero_is_one_key():
    G = aut_group("padic", 2, (2, 1))
    v = np.ones(G.class_count, dtype=np.complex128)
    neg = v.copy()
    neg[1] = complex(-1e-12, -0.0)
    v[1] = 0.0
    a, b = ClassFunction(G, v), ClassFunction(G, neg)
    # rounding alone leaves a negative zero in b, bit-different from a
    assert np.signbit(np.round(b.vals, 6)[1].real)
    assert a.fingerprint() == b.fingerprint()
    assert dedupe([a, b]) == [a]


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
        f = ClassFunction(Q, rng.normal(size=Q.class_count)
                          + 1j * rng.normal(size=Q.class_count))
        want = np.array([f.vals[Q.cls_index(ref(rep))] for rep in S.class_reps])
        assert np.array_equal(inflate(S, f, kind, m).vals, want)
    for K in (G, H, L):
        chi = ClassFunction(K, rng.normal(size=K.class_count))
        for uchar in unit_characters(K.R2):
            dv = np.array([uchar(K.det(rep)) for rep in K.class_reps])
            assert np.array_equal(twist(chi, uchar).vals, chi.vals * dv)


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
    assert ("mult: inner product: expected a non-negative integer, "
            "computed (0.25+0j)") in proc.stdout
