import os
import random
import subprocess
import sys
from collections import Counter
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modrep2.groups import (AutGroup, Subgroup, aut_group,
                            class_count_formula, order_formula)
from modrep2.orbits import cuspidal_parameters
from modrep2.rings import (direct_product, greedy_generators, hook,
                           make_ring, orbit_partition, unit_group)

SRC = Path(__file__).resolve().parent.parent / "src"


def tuples(H):
    """The 4-tuples of the members of H (a root group or a subgroup), in
    position order."""
    return H.root.elements_at(H.idx)


def act_perms(points, moves, act):
    """Each move as the list of positions of act(x, move) over the points x,
    -1 for an image off the points."""
    index = {x: j for j, x in enumerate(points)}
    return [[index.get(act(x, t), -1) for x in points] for t in moves]

ORDER_CASES = [
    ("padic", 2, (1, 1), 6), ("padic", 3, (1, 1), 48), ("tpoly", 4, (1, 1), 180),
    ("padic", 2, (2, 1), 8), ("padic", 3, (2, 1), 108), ("padic", 2, (3, 1), 16),
    ("padic", 2, (2, 2), 96), ("padic", 3, (2, 2), 3888),
    ("padic", 2, (3, 2), 128), ("padic", 3, (3, 2), 8748),
    ("padic", 2, (4, 2), 256), ("padic", 2, (3, 0), 4),
]


@pytest.mark.parametrize("backend,q,lam,n", ORDER_CASES)
def test_orders(backend, q, lam, n):
    G = aut_group(backend, q, lam)
    assert G.order == n == order_formula(q, lam)


def tuple_ops(G):
    """The tuple closures (mul, inv, det) that AutGroup carried before the
    index kernels, kept as the reference for them."""
    R1, R2 = G.R1, G.R2
    s2 = G.s2
    dd = G.l1 - G.l2
    d1c, d2c = R1.pi_pow(dd), R2.pi_pow(dd)
    A1, M1, I1, N1 = R1.add, R1.mul, R1.inv, R1.neg
    A2, M2, I2, N2 = R2.add, R2.mul, R2.inv, R2.neg

    def mul(g, h):
        a, b, c, d = g
        A, B, C, D = h
        return (A1[M1[a][A]][M1[d1c][M2[b][C]]],
                A2[M2[a % s2][B]][M2[b][D]],
                A2[M2[c][A % s2]][M2[d][C]],
                A2[M2[d][D]][M2[d2c][M2[c][B]]])

    def det(g):
        a, b, c, d = g
        return A2[M2[a % s2][d]][N2[M2[d2c][M2[b][c]]]]

    if G.rect:
        def inv(g):
            a, b, c, d = g
            di = I1[det(g)]
            return (M1[di][d], N1[M1[di][b]], N1[M1[di][c]], M1[di][a])
    else:
        def inv(g):
            a, b, c, d = g
            ai, dinv = I1[a], I2[d]
            ai2 = ai % s2
            t = M2[M2[ai2][dinv]][M2[b][c]]
            ei = I1[A1[1][N1[M1[d1c][t]]]]
            ei2 = ei % s2
            u = M2[ei2][ai2]
            return (M1[ei][ai], N2[M2[u][M2[dinv][b]]],
                    N2[M2[u][M2[dinv][c]]], M2[ei2][dinv])

    return mul, inv, det


def reference_elements(G):
    """The tuple comprehensions that enumerated AutGroup's elements before
    the code columns: every 4-tuple with a unit determinant on square
    types, a product of ranges otherwise."""
    R1, R2, s1, s2, det = G.R1, G.R2, G.s1, G.s2, tuple_ops(G)[2]
    if G.rect:
        return [g for g in product(range(s1), repeat=4)
                if R1.val[det(g)] == 0]
    return [(a, b, c, d) for a in R1.units for b in range(s2)
            for c in range(s2) for d in R2.units]


# square types enumerate s1^4 tuples in the reference: s1 <= 16
ENUM_TYPES = [(backend, q, (l1, l2))
              for backend, qs in (("padic", (2, 3, 5, 7)), ("tpoly", (2, 4, 8)))
              for q in qs for l1 in range(1, 6) for l2 in range(1, l1 + 1)
              if (q ** l1 <= 16 if l1 == l2 else order_formula(q, (l1, l2))
                  <= 40000)]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ENUM_TYPES))
def test_elements_match_tuple_enumeration(case):
    G = AutGroup(*case)
    ref = reference_elements(G)
    assert tuples(G) == ref and G.order == len(ref)
    a, b, c, d = G._arrays[1]
    assert all(x.dtype == np.int32 for x in (a, b, c, d))
    # tuple -> index through the code table, refusing non-elements
    assert G.locate(ref).tolist() == list(range(G.order))
    s1, s2 = G.s1, G.s2
    bad = [(0, 0, 0, 0), (s1, 0, 0, 1), (1, s2, 0, 1), (1, 0, 0, -1)]
    assert G.locate(bad).tolist() == [-1] * 4
    assert not {"index", "elements"} & set(vars(G))


def test_group_axioms_exhaustive_small():
    for backend, q, lam in [("padic", 2, (1, 1)), ("padic", 2, (2, 1))]:
        G = aut_group(backend, q, lam)
        els = tuples(G)
        for g, gi in zip(els, G.elements_at(G.inverse(G.idx))):
            assert G.mul(g, G.identity) == g == G.mul(G.identity, g)
            assert G.mul(g, gi) == G.identity
        for g in els:
            for h in els:
                assert G.locate([G.mul(g, h)])[0] >= 0
                for k in els:
                    assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 2, (3, 2)), ("padic", 2, (2, 2)), ("tpoly", 2, (3, 2)),
    ("padic", 3, (2, 2)), ("tpoly", 4, (1, 1)),
])
def test_group_axioms_sampled(backend, q, lam):
    G = aut_group(backend, q, lam)
    rng = random.Random(1)
    els = tuples(G)
    # every inverse, from one power sweep, against the tuple reference
    idx = np.arange(G.order)
    inv = G.power_sweep(idx)[1]
    e = G.identity_pos
    assert (G.right_mul(idx, inv) == e).all() and (G.right_mul(inv, idx) == e).all()
    assert G.elements_at(inv) == [tuple_ops(G)[1](g) for g in els]
    for _ in range(2000):
        g, h, k = (els[rng.randrange(len(els))] for _ in range(3))
        assert G.locate([G.mul(g, h)])[0] >= 0
        assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))


def test_determinant_multiplicative():
    # det(gh) = det(g) det(h) on 3000 random index pairs, and every
    # determinant is a unit
    for backend, q, lam in [("padic", 2, (3, 2)), ("padic", 3, (2, 2)),
                            ("padic", 2, (2, 1))]:
        G = aut_group(backend, q, lam)
        R2 = G.R2
        det = G.hom("det", np.arange(G.order))[1]
        g, h = np.random.default_rng(2).integers(G.order, size=(2, 3000))
        assert (det[G.right_mul(g, h)] == R2.mul[det[g], det[h]]).all()
        assert (R2.val[det] == 0).all()


CLASS_CASES = [
    ("padic", 2, (1, 1), 3), ("padic", 3, (1, 1), 8), ("tpoly", 4, (1, 1), 15),
    ("padic", 2, (2, 1), 5), ("padic", 3, (2, 1), 20), ("padic", 2, (3, 1), 10),
    ("padic", 2, (2, 2), 14), ("padic", 3, (2, 2), 78),
    ("padic", 2, (3, 2), 26), ("padic", 3, (3, 2), 204),
    ("padic", 2, (4, 2), 52), ("padic", 2, (4, 3), 116),
    ("tpoly", 2, (2, 2), 14), ("padic", 2, (3, 0), 4),
]


@pytest.mark.parametrize("backend,q,lam,k", CLASS_CASES)
def test_class_counts(backend, q, lam, k):
    G = aut_group(backend, q, lam)
    assert G.class_count == k == class_count_formula(q, lam)
    assert int(G.class_sizes.sum()) == G.order
    assert all(G.order % int(s) == 0 for s in G.class_sizes)
    assert G.rep_idx[G.identity_class] == G.identity_pos
    assert len(G.class_reps) == k
    assert int(G.class_sizes[G.identity_class]) == 1


def test_class_count_large_square_tpoly():
    G = aut_group("tpoly", 4, (2, 2))
    assert G.order == order_formula(4, (2, 2)) == 46080
    assert G.class_count == class_count_formula(4, (2, 2)) == 252


def test_classes_are_conjugation_stable():
    G = aut_group("padic", 2, (3, 2))
    mul, inv, _ = tuple_ops(G)
    g, t = np.random.default_rng(3).integers(G.order, size=(2, 2000))
    conj = [mul(mul(inv(y), x), y)
            for x, y in zip(G.elements_at(g), G.elements_at(t))]
    assert np.array_equal(G.cls_of[G.locate(conj)], G.cls_of[g])


@pytest.mark.parametrize("backend,q,lam", [("padic", 2, (3, 2)),
                                           ("tpoly", 4, (1, 1))])
def test_right_mul_matches_tuple_mul(backend, q, lam):
    G = aut_group(backend, q, lam)
    mul = tuple_ops(G)[0]
    idx = np.arange(G.order)
    for t, h in zip(G.gens, G.gen_idx.tolist()):
        want = G.locate([mul(g, t) for g in tuples(G)]).tolist()
        assert G.right_mul(idx, h).tolist() == want
        assert G.right_mul(idx[:, None], [h]).ravel().tolist() == want


KERNEL_TYPES = [("padic", 2, (4, 2)), ("padic", 2, (3, 1)), ("padic", 3, (2, 2)),
                ("padic", 5, (2, 1)), ("tpoly", 4, (2, 2)), ("tpoly", 2, (3, 3))]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(KERNEL_TYPES), st.data())
def test_right_mul_outer_products_match_tuple_mul(case, data):
    # padic q=2 (4,2) and (3,1) have the offset pi^2 between the levels,
    # q=5 (2,1) the offset pi; the square types have none
    G = aut_group(*case)
    draw = st.lists(st.integers(0, G.order - 1), min_size=1, max_size=12)
    x, y = np.array(data.draw(draw)), np.array(data.draw(draw))
    els, mul = tuples(G), tuple_ops(G)[0]
    want = [G.locate([mul(els[i], els[j]) for j in y.tolist()]).tolist()
            for i in x.tolist()]
    assert G.right_mul(x[:, None], y[None, :]).tolist() == want


def test_right_mul_tables_stay_small_on_skewed_types():
    # s1 = 512, s2 = 2: a table over (a, b) x (A, C) would have 2^20 entries
    G = aut_group("padic", 2, (9, 1))
    tables = G._mul_tables
    assert sum(t.size for t in tables) <= G.s1 * G.s2 + 2 * G.s2 ** 4
    assert all((t if t.base is None else t.base).size == t.size
               for t in tables)
    x = np.arange(G.order)
    y = x[::-1]
    els, mul = tuples(G), tuple_ops(G)[0]
    assert G.right_mul(x, y).tolist() == G.locate([
        mul(els[i], els[j]) for i, j in zip(x.tolist(), y.tolist())]).tolist()


@pytest.mark.parametrize("lam", [(12, 1), (12, 2)])
def test_kernels_on_the_largest_ring_match_tuple_ops(lam):
    # padic q=2 at level 12: ring codes reach 4095 and element codes 32767,
    # resp. 262143 on (12, 2), where an int16 code would wrap; right_mul
    # and inverse against the tuple formulas on sampled elements
    G = aut_group("padic", 2, lam)
    mul, inv, _ = tuple_ops(G)
    x, y = np.random.default_rng(5).integers(0, G.order, (2, 3000))
    gx, gy = G.elements_at(x), G.elements_at(y)
    assert G.right_mul(x, y).tolist() == G.locate(
        [mul(g, h) for g, h in zip(gx, gy)]).tolist()
    assert G.inverse(x).tolist() == G.locate([inv(g) for g in gx]).tolist()


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 2, (3, 3)), ("padic", 3, (3, 2)), ("padic", 3, (3, 1)),
    ("tpoly", 4, (1, 1)), ("tpoly", 2, (3, 2))])
def test_translations_match_kernel(backend, q, lam):
    # a product by one element over every element takes the translation
    # tables on either side; array-by-array products take the kernel.  For
    # every generator and 20 drawn elements, on square and non-square
    # types of both backends
    G = aut_group(backend, q, lam)
    n = G.order
    x = np.arange(n)
    hs = G.gen_idx.tolist()
    hs += np.random.default_rng(11).integers(0, n, 20).tolist()
    for h in hs:
        full = np.full(n, h)
        right, left = G.right_mul(x, full), G.right_mul(full, x)
        assert np.array_equal(G._translate(x, h, left=False), right)
        assert np.array_equal(G._translate(x, h, left=True), left)
        assert np.array_equal(G.right_mul(x, h), right)
        assert np.array_equal(G.right_mul(h, x), left)
        assert np.array_equal(G.right_mul(x[::-1, None], np.int64(h)),
                              right[::-1, None])
    # the tables stacked over all of them, in int32, row m that of hs[m]
    for left in (False, True):
        T1, T2, _, _ = G._translation_tables(np.array(hs), left)
        assert T1.dtype == T2.dtype == np.int32
        for m, h in enumerate(hs):
            t1, t2, _, _ = G._translation_tables(h, left)
            assert np.array_equal(T1[m], t1) and np.array_equal(T2[m], t2)


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 2, (2, 2)), ("padic", 3, (2, 1)), ("padic", 2, (4, 2)),
    ("tpoly", 4, (1, 1)), ("tpoly", 2, (3, 2)), ("tpoly", 4, (2, 1))])
def test_translations_match_tuple_ops(backend, q, lam):
    # y * h and h * y over every y, through _translate and through the
    # translation tables of one h and of six stacked, against the tuple
    # product: the tables come from the kernel, so this is their reference,
    # on square and non-square types of both backends
    G = AutGroup(backend, q, lam)
    els, mul = tuples(G), tuple_ops(G)[0]
    x, code = np.arange(G.order), G._arrays[2]
    hs = np.random.default_rng(3).integers(0, G.order, 6)
    for left in (False, True):
        T1, T2, u1, u2 = G._translation_tables(hs, left)
        for m, h in enumerate(hs.tolist()):
            want = G.locate([mul(els[h], y) if left else mul(y, els[h])
                             for y in els])
            assert np.array_equal(G._translate(x, h, left), want)
            assert np.array_equal(G._translate(None, h, left), want)
            t1, t2, v1, v2 = G._translation_tables(h, left)
            assert np.array_equal(code[t1[v1] + t2[v2]], want)
            assert np.array_equal(code[T1[m, u1] + T2[m, u2]], want)


def test_aut_group_on_the_largest_ring_is_small():
    # only the level-l1 product table is widened to intp for the kernels;
    # with all four widened the peak was 440 MB.  VmHWM of a fresh process,
    # as in test_largest_padic_ring_is_small
    code = ("from modrep2.groups import aut_group\n"
            "G = aut_group('padic', 2, (12, 1))\n"
            "hwm = [line for line in open('/proc/self/status')\n"
            "       if line.startswith('VmHWM:')]\n"
            "print(G.order, hwm[0].split()[1])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    order, peak_kb = proc.stdout.split()
    assert int(order) == 8192
    assert int(peak_kb) < 350 * 1024, peak_kb


def test_right_mul_refuses_non_elements():
    G = AutGroup("padic", 2, (2, 1))
    t = G.gen_idx[0]
    prod = G.right_mul(0, t)
    table = G._arrays[2]
    table[table == prod] = -1
    with pytest.raises(ValueError, match="not group elements"):
        G.right_mul(0, t)


# Every kind of root group's index kernel: AutGroup, unit groups of both
# backends, the direct products (both tori and a product of unit groups of
# two backends) and a quotient
ROOT_KERNELS = {
    "aut-padic-2-(2,1)": lambda: aut_group("padic", 2, (2, 1)),
    "aut-padic-3-(1,1)": lambda: aut_group("padic", 3, (1, 1)),
    "aut-tpoly-2-(2,2)": lambda: aut_group("tpoly", 2, (2, 2)),
    "aut-padic-3-(3,2)": lambda: aut_group("padic", 3, (3, 2)),
    "units-padic-3-3": lambda: unit_group(make_ring("padic", 3, 3)),
    "units-padic-2-5": lambda: unit_group(make_ring("padic", 2, 5)),
    "units-tpoly-4-2": lambda: unit_group(make_ring("tpoly", 4, 2)),
    "units-tpoly-2-4": lambda: unit_group(make_ring("tpoly", 2, 4)),
    "torus-padic-3-(2,2)": lambda: aut_group("padic", 3, (2, 2)).torus,
    "torus-tpoly-2-(3,2)": lambda: aut_group("tpoly", 2, (3, 2)).torus,
    "diag_red-padic-2-(4,1)": lambda: aut_group("padic", 2, (4, 1)).hom(
        "diag_red", [])[0],
    "units-padic-2-3-x-tpoly-4-1": lambda: direct_product(
        unit_group(make_ring("padic", 2, 3)),
        unit_group(make_ring("tpoly", 4, 1))),
    "abelianization-padic-2-(3,2)": lambda: aut_group(
        "padic", 2, (3, 2)).abelianization(),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(ROOT_KERNELS)), st.integers(0, 2 ** 32 - 1))
def test_root_kernel_laws(case, seed):
    G = ROOT_KERNELS[case]()
    mul, e = G.right_mul, G.identity_pos
    x, y, z = np.random.default_rng(seed).integers(G.order, size=(3, 200))
    assert np.array_equal(mul(mul(x, y), z), mul(x, mul(y, z)))
    assert np.array_equal(mul(x, e), x) and np.array_equal(mul(e, x), x)
    order, inv = G.power_sweep(x)
    assert (mul(x, inv) == e).all() and (mul(inv, x) == e).all()
    if isinstance(G, AutGroup):
        assert np.array_equal(G.inverse(x), inv)
    assert (G.order % order == 0).all()
    if hasattr(G, "factors"):  # (a, b) at position a * |B| + b
        A, B = G.factors
        n = B.order
        assert e == A.identity_pos * n + B.identity_pos
        xy = mul(x, y)
        assert np.array_equal(xy // n, A.right_mul(x // n, y // n))
        assert np.array_equal(xy % n, B.right_mul(x % n, y % n))


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 2, (3, 2)), ("padic", 3, (2, 2)), ("padic", 5, (1, 1)),
    ("padic", 2, (4, 1)), ("tpoly", 4, (2, 1)), ("tpoly", 2, (2, 2)),
    ("tpoly", 4, (1, 1))])
def test_inverse_kernel_over_all_elements(backend, q, lam):
    # the closed-form inverses against the identity on both sides, and
    # against the power sweep they replace
    G = aut_group(backend, q, lam)
    g, e = np.arange(G.order), G.identity_pos
    inv = G.inverse(g)
    assert (G.right_mul(g, inv) == e).all()
    assert (G.right_mul(inv, g) == e).all()
    assert np.array_equal(inv, G.power_sweep(g)[1])


def meet(G, *tags):
    """The members common to the subgroups of G with the given (tag, kw)
    pairs, as a Subgroup."""
    return Subgroup(G, reduce(np.intersect1d, [
        G.subgroup(tag, **kw).idx for tag, kw in tags]), "meet")


UP, LO = ("parabolic_upper", {}), ("parabolic_lower", {})
FLOOR = ("congruence", {"i": 1, "sigma": 0})

# Subgroups with no tag of their own, as meets of tagged ones: the Borel
# subgroup is the upper parabolic, the floor kernel the depth-one
# congruence kernel, the diagonal torus the meet of the two parabolics.
UNTAGGED = {
    "borel": lambda G: meet(G, UP),
    "floor_kernel": lambda G: meet(G, FLOOR),
    "torus": lambda G: meet(G, UP, LO),
    "floor_torus_d": lambda G: meet(G, UP, LO,
                                    ("ker_embed", {"m": G.l2 - 1})),
    "unipotent_upper_floor": lambda G: meet(G, ("unipotent_upper", {}),
                                            FLOOR),
    "unipotent_lower_floor": lambda G: meet(G, ("unipotent_lower", {}),
                                            FLOOR),
}


def subgroup(G, tag, **kw):
    """G.subgroup(tag, **kw), or the meet that stands for an untagged
    subgroup."""
    return UNTAGGED[tag](G) if tag in UNTAGGED else G.subgroup(tag, **kw)


SUBGROUP_ORDERS = [
    ("floor_kernel", {}, 16),
    ("congruence", {"i": 1, "sigma": 0}, 16),
    ("congruence", {"i": 1, "sigma": 1}, 4),
    ("congruence", {"i": 2, "sigma": 1}, 64),
    ("parabolic_upper", {}, 32),
    ("parabolic_lower", {}, 32),
    ("parabolic_embed", {"m": 1}, 64),
    ("parabolic_quot", {"m": 1}, 64),
    ("parabolic_embed", {"m": 2}, 128),
    ("unipotent_upper", {}, 4),
    ("unipotent_lower", {}, 4),
    ("unipotent_upper_floor", {}, 2),
    ("unipotent_lower_floor", {}, 2),
    ("floor_torus_a", {}, 2),
    ("floor_torus_d", {}, 2),
    ("scalars", {}, 4),
    ("torus", {}, 8),
    ("cuspidal_abelian", {"u_hat": 0, "w_hat": 1}, 16),
    ("cuspidal_normalizer", {"u_hat": 0, "w_hat": 1}, 64),
]


@pytest.mark.parametrize("tag,kw,n", SUBGROUP_ORDERS)
def test_subgroup_orders_32(tag, kw, n):
    G = aut_group("padic", 2, (3, 2))
    H = subgroup(G, tag, **kw)
    assert H.order == n
    assert G.order % H.order == 0


def test_subgroup_validation():
    G = aut_group("padic", 2, (3, 2))
    with pytest.raises(ValueError):
        G.subgroup("heisenberg")
    with pytest.raises(ValueError):
        G.subgroup("congruence", i=3, sigma=0)
    with pytest.raises(ValueError):
        G.subgroup("no_such_tag")
    with pytest.raises(ValueError, match="unknown subgroup tag 'custom'"):
        G.subgroup("custom", members=[G.identity])
    with pytest.raises(ValueError, match="not closed"):
        Subgroup(G, np.sort(G.locate([G.identity, (1, 1, 0, 1)])))
    H = Subgroup(G, np.flatnonzero(G._arrays[1][2] == 0), "c0")
    assert H.order == 32


# Member lists above 600 elements get the same exact closure check.
def test_large_member_list_not_closed_refused():
    G = aut_group("padic", 3, (3, 2))
    upper = G.subgroup("parabolic_upper").idx
    outside = np.flatnonzero(G._arrays[1][2] != 0)[0]
    with pytest.raises(ValueError, match="not closed"):
        Subgroup(G, np.sort(np.r_[upper, outside]))


def test_large_member_list_closed_accepted():
    G = aut_group("padic", 3, (3, 2))
    H = Subgroup(G, np.flatnonzero(G._arrays[1][2] == 0))
    assert H.order == 972 == G.subgroup("parabolic_upper").order


def test_heisenberg_and_floor_center():
    G = aut_group("padic", 2, (3, 1))
    H = G.subgroup("heisenberg")
    assert H.order == 8
    Z = G.subgroup("floor_torus_a")
    assert Z.order == 2
    assert np.isin(Z.idx, H.idx).all()
    # Z is central in H
    for z in Z.idx.tolist():
        assert np.array_equal(G.right_mul(z, H.idx), G.right_mul(H.idx, z))
    assert not H.is_abelian


def test_is_abelian_read_on_first_use():
    # building a subgroup leaves is_abelian unread; the first read
    # commutes the generators once and keeps the answer
    G = AutGroup("padic", 2, (3, 1))
    H, Z = G.subgroup("heisenberg"), G.subgroup("floor_torus_a")
    for K, abelian in ((H, False), (Z, True)):
        assert "is_abelian" not in vars(K)
        assert K.is_abelian is abelian
        assert vars(K)["is_abelian"] is abelian


def test_cuspidal_subgroups_inside_normalizer():
    for backend, q, lam in [("padic", 2, (3, 2)), ("padic", 3, (3, 2)),
                            ("padic", 2, (4, 2))]:
        G = aut_group(backend, q, lam)
        l, eps = G.half_levels()
        A = G.subgroup("cuspidal_abelian", u_hat=0, w_hat=1)
        N = G.subgroup("cuspidal_normalizer", u_hat=0, w_hat=1)
        assert np.isin(A.idx, N.idx).all()
        assert A.is_abelian
        assert A.order == q ** (G.l1 - 1) * (q - 1) * q ** G.l2
        assert N.order == q ** (G.l1 + 2 * G.l2 - 1) * (q - 1)
        K = G.subgroup("congruence", i=l, sigma=eps)
        assert np.isin(K.idx, N.idx).all()


def test_subgroup_fusion_and_classes():
    G = aut_group("padic", 2, (3, 2))
    H = G.subgroup("parabolic_upper")
    assert int(H.class_sizes.sum()) == H.order
    assert np.array_equal(H.root_cls, G.cls_of[G.locate(tuples(H))])
    # a class of H lies in one root class
    for j, rep in enumerate(H.rep_idx.tolist()):
        assert set(H.root_cls[H.cls_of == j].tolist()) == {G.cls_of[rep]}


# Tuple references for the index maps of AutGroup.hom: the element-at-a-time
# maps they replaced.

def floor_ref(G, g):
    if G.l2 < 2:
        raise ValueError("floor reduction stops at column levels %r" % (G.lam,))
    q = G.q
    a, b, c, d = g
    return (a % q ** (G.l1 - 1), b % q ** (G.l2 - 1),
            c % q ** (G.l2 - 1), d % q ** (G.l2 - 1))


def embed_ref(G, g, m):
    q = G.q
    a, b, c, d = g
    assert G.R2.val[c] >= G.l2 - m
    return (a, b % q ** m, c // q ** (G.l2 - m), d % q ** m)


def quot_ref(G, g, m):
    q = G.q
    a, b, c, d = g
    assert G.R2.val[b] >= G.l2 - m
    return (a, b // q ** (G.l2 - m), c % q ** m, d % q ** m)


def diag_ref(G, g):
    a, b, c, d = g
    assert b == 0 or c == 0
    return (a, d)


def diag_red_ref(G, g):
    return (g[0] % G.q ** (G.l1 - 1), g[3])


def locate_in(Q, elems):
    """Positions in Q of elements given as tuples: through Q.locate on an
    AutGroup, and as (a, d) pairs of unit codes on a torus."""
    if hasattr(Q, "locate"):
        return Q.locate(elems).tolist()
    U1, U2 = (U.codes.tolist() for U in Q.factors)
    return [U1.index(a) * len(U2) + U2.index(d) for a, d in elems]


def check_index_map(G, P, kind, ref, m=0):
    """hom on P's members equals the tuple reference on every member, and
    h[x t] = h[x] h[t] through right_mul on both sides for every x in P and
    every generator t of P (so h is a homomorphism on P); returns (Q, img)."""
    Q, img = G.hom(kind, P.idx, m)
    assert img.tolist() == locate_in(Q, [ref(g) for g in tuples(P)])
    for t in P.gen_idx.tolist():
        j = int(np.searchsorted(P.idx, t))
        _, lhs = G.hom(kind, G.right_mul(P.idx, t), m)
        assert np.array_equal(lhs, Q.right_mul(img, img[j]))
    return Q, img


MAP_CASES = [("padic", 2, (3, 2)), ("padic", 3, (2, 2)), ("tpoly", 2, (3, 2))]


def test_floor_map_hom():
    for backend, q, lam in MAP_CASES:
        G = aut_group(backend, q, lam)
        F = aut_group(backend, q, (lam[0] - 1, lam[1] - 1))
        Q, img = check_index_map(G, G, "floor", lambda g: floor_ref(G, g))
        assert Q is F and G.hom("floor", [0])[0] is F
        ker = G.idx[img == F.identity_pos]
        assert len(ker) == G.order // F.order
        assert np.array_equal(ker, meet(G, FLOOR).idx)
        assert len(set(img.tolist())) == F.order
    assert len(meet(G, FLOOR).idx) == 16  # tpoly q=2 (3,2)
    with pytest.raises(ValueError):
        aut_group("padic", 2, (3, 1)).hom("floor", [0])


@pytest.mark.parametrize("side", ["embed", "quot"])
def test_embed_quot_maps(side):
    m = 1
    for backend, q, lam in MAP_CASES:
        G = aut_group(backend, q, lam)
        T = aut_group(backend, q, (lam[0], m))
        P = G.subgroup("parabolic_" + side, m=m)
        ref = embed_ref if side == "embed" else quot_ref
        Q, img = check_index_map(G, P, side, lambda g: ref(G, g, m), m)
        assert Q is T
        assert set(img.tolist()) == set(range(T.order))
        ker = P.idx[img == T.identity_pos]
        assert len(ker) == P.order // T.order
        assert np.array_equal(ker, G.subgroup("ker_" + side, m=m).idx)
    assert len(ker) == 4  # tpoly q=2 (3,2)


def test_diag_map_on_parabolic():
    for backend, q, lam in [("padic", 2, (3, 2)), ("padic", 3, (2, 2)),
                            ("tpoly", 4, (2, 1))]:
        G = aut_group(backend, q, lam)
        D = G.torus
        e = [G.identity_pos]
        assert D is G.torus and G.hom("diag", e)[0] is D
        assert G.hom("diag", e, 0)[0] is D
        U1, U2 = D.factors
        assert U1.codes.tolist() == list(G.R1.units)
        assert U2.codes.tolist() == list(G.R2.units)
        assert G.hom("diag", e)[1].tolist() == [D.identity_pos] == [0]
        for side in ("upper", "lower"):
            P = G.subgroup("parabolic_" + side)
            _, img = check_index_map(G, P, "diag", lambda g: diag_ref(G, g))
            assert set(img.tolist()) == set(range(D.order))


@pytest.mark.parametrize("backend,q,l1", [("padic", 2, 3), ("tpoly", 4, 2)])
def test_diag_red_and_det_maps(backend, q, l1):
    G = aut_group(backend, q, (l1, 1))
    A, img = check_index_map(G, G, "diag_red", lambda g: diag_red_ref(G, g))
    assert A is G.hom("diag_red", [])[0]
    assert A.order == A.factors[0].order * len(G.R2.units)
    assert set(img.tolist()) == set(range(A.order))
    R2, codes = G.hom("det", G.idx)
    assert R2 is G.R2
    assert codes.tolist() == [tuple_ops(G)[2](g) for g in tuples(G)]
    with pytest.raises(AssertionError, match="diag_red: level l2"):
        aut_group(backend, q, (l1, l1)).hom("diag_red", [0])


def test_maps_refuse_elements_off_their_domain():
    G = aut_group("padic", 2, (3, 2))
    with pytest.raises(AssertionError, match="both nonzero"):
        G.hom("diag", G.locate([(1, 1, 1, 1)]))
    with pytest.raises(AssertionError, match="valuation of b"):
        G.hom("quot", G.locate([(1, 1, 0, 1)]), 1)
    with pytest.raises(ValueError, match="unknown map"):
        G.hom("diagonal", [0])


def derived(H, Q):
    """Root indices of [H, H]: the members of the identity's coset of H's
    abelianization Q."""
    return H.ridx(np.flatnonzero(Q.coset_of == Q.identity_pos))


def test_commutator_and_abelianization():
    G = aut_group("padic", 2, (1, 1))  # GL2(F2), symmetric group on 3 letters
    A = G.abelianization()
    assert A.order == 2 and A.is_abelian
    D = derived(G, A)
    assert len(D) == 3
    assert G.elements_at(D) == normal_closure_reference(G)
    G = aut_group("padic", 2, (2, 1))
    A = G.abelianization()
    assert A.order == 4
    G = aut_group("padic", 3, (1, 1))
    assert G.abelianization().order == 2
    G = aut_group("padic", 3, (2, 2))
    assert G.abelianization().order == 6


def test_derived_subgroup_names_its_parent_once():
    # no subgroup is built for [H, H]: the quotient names its group once
    G = aut_group("padic", 2, (4, 2))
    assert G.abelianization().name == "Aut(padic,q=2,(4, 2))/derived"
    N = G.subgroup("cuspidal_normalizer", u_hat=0, w_hat=1)
    Q = N.abelianization()
    assert Q.name == "Aut(padic,q=2,(4, 2)).cuspidal_normalizer/derived"
    assert G.elements_at(derived(N, Q)) == normal_closure_reference(N)


def test_quotient_group_projection():
    # the projection onto the abelianization is a homomorphism on every
    # pair, and its kernel is the commutator subgroup
    G = aut_group("padic", 2, (2, 1))
    Q = G.abelianization()
    assert Q.order == 4 and Q.name == G.name + "/derived"
    x, y = np.divmod(np.arange(G.order ** 2), G.order)
    cos = Q.coset_of
    assert np.array_equal(cos[G.right_mul(x, y)], Q.right_mul(cos[x], cos[y]))
    assert G.elements_at(derived(G, Q)) == normal_closure_reference(G)


def _quotients():
    """Groups and their abelianizations, on root groups and subgroups."""
    G = aut_group("padic", 2, (2, 1))
    yield G, G.abelianization()
    G = aut_group("padic", 2, (3, 2))
    yield G, G.abelianization()
    P = G.subgroup("parabolic_upper")
    yield P, P.abelianization()
    B = aut_group("tpoly", 4, (2, 1)).subgroup("parabolic_upper")
    yield B, B.abelianization()
    A = subgroup(aut_group("padic", 3, (2, 2)), "torus")
    yield A, A.abelianization()  # by the trivial subgroup


def _coset_reps(P, Q):
    """Root indices of the first member of each coset of Q, in coset order."""
    first = np.unique(Q.coset_of, return_index=True)[1]
    return P.ridx(first)


def test_quotient_right_mul_matches_tuple_product():
    for P, Q in _quotients():
        n, R = Q.order, P.root
        reps = R.elements_at(_coset_reps(P, Q))
        want = [Q.coset_of[P.positions(R.locate([R.mul(x, y) for y in reps]))]
                .tolist() for x in reps]
        got = Q.right_mul(np.arange(n)[:, None], np.arange(n)[None, :])
        assert got.tolist() == want
        assert Q.is_abelian and all(want[i][j] == want[j][i]
                                    for i in range(n) for j in range(n))


def test_quotient_table_matches_root_products():
    # the breadth-first table against the representatives' products in the
    # root group, every pair
    for P, Q in _quotients():
        r = _coset_reps(P, Q)
        want = Q.coset_of[P.positions(P.root.right_mul(r[:, None],
                                                       r[None, :]))]
        assert Q.table.shape == (Q.order, Q.order)
        assert np.array_equal(Q.table, want)


def test_product_group():
    U = unit_group(make_ring("padic", 2, 2))
    P = direct_product(U, U)
    # (a, b) at position 2a + b: units 1, 3 of Z/4 at 0, 1, so x y = x ^ y
    assert P.factors == (U, U) and U.codes.tolist() == [1, 3]
    assert P.table.tolist() == [[i ^ j for j in range(4)] for i in range(4)]
    assert P.identity_pos == 0 and P.codes is None
    assert P.is_abelian and P.order == P.class_count == 4


def test_rank_one_group():
    G = aut_group("padic", 2, (3, 0))
    assert G.order == 4 and G.is_abelian
    assert G.class_count == 4
    assert aut_group("padic", 2, (3, 0)) is G


def closure(seen, frontier, moves, act):
    """Grow the set seen, in place, until it is closed under x -> act(x, t)
    for every t in moves; frontier lists the members not yet swept.  For a
    finite group acting through generators this is the orbit, with no need
    for the inverse moves."""
    frontier = list(frontier)
    while frontier:
        x = frontier.pop()
        for t in moves:
            y = act(x, t)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def closure_orbits(points, moves, act):
    """Tuple reference for orbit_partition: one closure per new orbit."""
    index = {x: j for j, x in enumerate(points)}
    orbit_of = [-1] * len(points)
    reps, sizes = [], []
    for j, x in enumerate(points):
        if orbit_of[j] < 0:
            orbit = closure({x}, [x], moves, act)
            for y in orbit:
                orbit_of[index[y]] = len(reps)
            reps.append(x)
            sizes.append(len(orbit))
    return reps, sizes, orbit_of


SWEEP_CASES = {
    "padic-2-(3,2)": lambda: aut_group("padic", 2, (3, 2)),
    "padic-3-(2,1)": lambda: aut_group("padic", 3, (2, 1)),
    "tpoly-4-(1,1)": lambda: aut_group("tpoly", 4, (1, 1)),
    "parabolic_upper": lambda: aut_group("padic", 2, (3, 2)).subgroup(
        "parabolic_upper"),
}


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_array_orbits_match_closure_reference(case):
    G = SWEEP_CASES[case]()
    mul, inv, _ = tuple_ops(G.root)

    def conj(x, t):
        return mul(mul(inv(t), x), t)
    els, gens = tuples(G), G.root.elements_at(G.gen_idx)
    reps, sizes, orbit_of = G.conj_orbits()
    reps = [els[j] for j in reps]
    assert (reps, sizes, orbit_of.tolist()) == \
        closure_orbits(els, gens, conj)
    got = orbit_partition(els, act_perms(els, gens, conj))
    assert (got[0], got[1], got[2].tolist()) == (reps, sizes, orbit_of.tolist())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), max_size=4))))
def test_hooking_engine_matches_closure_reference(case):
    # moves taken in one call, in reverse, and one at a time with the labels
    # read after each (as greedy_generators does) give one partition, the
    # closure reference's; the labels are the least positions of the orbits
    n, perms = case
    points = list(range(n))
    ref = closure_orbits(points, range(len(perms)), lambda x, t: perms[t][x])
    got = orbit_partition(points, perms)
    assert (got[0], got[1], got[2].tolist()) == ref
    assert orbit_partition(points, perms[::-1])[2].tolist() == ref[2]
    lab = np.arange(n, dtype=np.int32)
    for j, P in enumerate(perms):
        lab = hook(lab, P)
        reps, _, orbit_of = orbit_partition(points, perms[:j + 1])
        assert np.array_equal(lab, np.array(reps)[orbit_of])


def test_move_not_a_permutation_refused():
    with pytest.raises(ValueError, match="move 1 is not a permutation of the "
                       "3 points: 2 of them are not hit once"):
        orbit_partition([0, 1, 2], [[1, 2, 0], [0, 0, 1]])


def test_corrupted_unit_table_refused_fast():
    # a unit table rolled by one row (right multiplication still permutes,
    # but the identity's row moved) and one with one row rolled (a column is
    # no permutation): greedy_generators refuses each within a second, where
    # it used to loop without end
    code = ("import time\n"
            "import numpy as np\n"
            "from modrep2.rings import make_ring, unit_group\n"
            "for roll in ('table', 'row'):\n"
            "    U = unit_group(make_ring('padic', 3, 3))\n"
            "    if roll == 'table':\n"
            "        U.table = np.roll(U.table, 1, axis=0)\n"
            "    else:\n"
            "        U.table[1] = np.roll(U.table[1], 1)\n"
            "    t = time.perf_counter()\n"
            "    try:\n"
            "        U.gen_idx\n"
            "    except ValueError as e:\n"
            "        print('%.3f' % (time.perf_counter() - t), e)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout + proc.stderr
    assert "the identity times member 1 is member" in lines[0]
    assert "is not a permutation of the 18 points" in lines[1]
    assert all(float(line.split()[0]) < 1 for line in lines), lines


def test_points_not_closed_refused():
    G = aut_group("padic", 2, (3, 2))
    upper = G.subgroup("parabolic_upper").idx
    with pytest.raises(ValueError, match="not closed under the moves"):
        G.conj_orbits(upper)
    points = [0, 1, 2]
    with pytest.raises(ValueError, match="not closed under the moves"):
        orbit_partition(points, act_perms(points, [1], lambda x, t: (x + t) % 4))


def test_truncated_generators_refused_under_optimize():
    code = ("from modrep2.groups import AutGroup\n"
            "G = AutGroup('padic', 2, (3, 2))\n"
            "G.gens = G.gens[:2]\n"
            "try:\n"
            "    G.class_count\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "expected 128, computed" in proc.stdout


def test_generators_without_lower_unipotent_refused_under_optimize():
    # on non-square types there is no swap to conjugate (1, 1, 0, 1) into
    # (1, 0, 1, 1): the rest span only the upper parabolic
    code = ("from modrep2.groups import AutGroup\n"
            "for backend, q, lam in [('padic', 2, (3, 2)), ('padic', 3, (2, 1)),\n"
            "                        ('tpoly', 4, (2, 1))]:\n"
            "    G = AutGroup(backend, q, lam)\n"
            "    assert (1, 0, 1, 1) in G.gens\n"
            "    G.gens = [t for t in G.gens if t != (1, 0, 1, 1)]\n"
            "    try:\n"
            "        G.class_count\n"
            "    except AssertionError as e:\n"
            "        print(e)\n"
            "    else:\n"
            "        raise SystemExit(4)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    # the upper parabolic: every c = 0, one in q^l2 elements
    for line, (q, lam) in zip(lines, [(2, (3, 2)), (3, (2, 1)), (4, (2, 1))]):
        n = order_formula(q, lam)
        assert line.endswith("elements spanned by the generators: expected "
                             "%d, computed %d" % (n, n // q ** lam[1])), line


def test_generators_are_two_unipotents_and_units():
    # u+, u-, diag(u, 1) for the generators u of units(R1), and on
    # non-square types diag(1, v) for those v of units(R2); no swap
    for backend, q, lam in [("padic", 2, (3, 2)), ("padic", 3, (2, 2)),
                            ("tpoly", 4, (2, 2)), ("tpoly", 2, (3, 1)),
                            ("padic", 2, (1, 1)), ("padic", 5, (1, 1)),
                            ("padic", 2, (3, 3)), ("tpoly", 9, (1, 1))]:
        G = aut_group(backend, q, lam)
        U1, U2 = unit_group(G.R1), unit_group(G.R2)
        want = [(1, 1, 0, 1), (1, 0, 1, 1)] + [
            (u, 0, 0, 1) for u in U1.codes[U1.gen_idx].tolist()]
        if not G.rect:
            want += [(1, 0, 0, v) for v in U2.codes[U2.gen_idx].tolist()]
        assert G.gens == want and (0, 1, 1, 0) not in G.gens
        # the class pass refuses generators that do not span the group
        assert G.class_count == class_count_formula(q, lam)


def _types_up_to(bound, backend):
    """Every type (l1, l2), l2 >= 1, of order at most bound whose rings fit
    the table arithmetic, over the residue sizes the backend takes."""
    qs = [2, 3, 5, 7, 11, 13] + ([4, 8, 9] if backend == "tpoly" else [])
    return [(q, (l1, l2)) for q in sorted(qs) for l1 in range(1, 13)
            for l2 in range(1, l1 + 1)
            if order_formula(q, (l1, l2)) <= bound and q ** l1 <= 4096]


@pytest.mark.parametrize("backend", ["padic", "tpoly"])
def test_streamed_classes_match_full_conjugation_sweep(backend):
    # the streamed class pass against orbit_partition under conjugation by
    # every generator, each conjugation built by two right_mul calls, on
    # every type of order <= 30,000: square types, and q=2 with l2 = 1,
    # where units(R2) is trivial
    types = _types_up_to(30000, backend)
    assert len(types) > 40 and (2, (1, 1)) in types and (3, (2, 2)) in types
    for q, lam in types:
        G = AutGroup(backend, q, lam)
        x, g = np.arange(G.order), G.gen_idx
        perms = [G.right_mul(G.inverse(t), G.right_mul(x, t))
                 for t in g.tolist()]
        _, sizes, orbit_of = orbit_partition(x, perms)
        assert np.array_equal(G.cls_of, orbit_of), (q, lam)
        assert G.class_sizes.tolist() == sizes, (q, lam)
        assert G.class_count == class_count_formula(q, lam), (q, lam)


def test_class_pass_span_check_refused_under_optimize():
    # on padic q=3 (2,2), generators cut to the two unipotents span
    # SL2(Z/9), the 648 elements of determinant 1
    code = (
        "from modrep2.groups import AutGroup\n"
        "G = AutGroup('padic', 3, (2, 2))\n"
        "G.gens = G.gens[:2]\n"
        "try:\n"
        "    G.class_count\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
        "else:\n"
        "    print('accepted')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ("Aut(padic,q=3,(2, 2)): elements spanned by the "
                           "generators: expected 3888, computed 648\n")


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 2, (3, 2)), ("padic", 3, (2, 1)), ("tpoly", 4, (1, 1)),
    ("padic", 2, (3, 3)), ("tpoly", 2, (3, 3))])
def test_table_product_matches_kernel(backend, q, lam):
    # every element as a scalar on either side (its translation tables),
    # one scalar by another, and the broadcast products, against the
    # coordinate kernel on every pair, all as intp
    G = AutGroup(backend, q, lam)
    n = G.order
    x = np.arange(n)
    want = G._kernel_mul(x[:, None], x[None, :])
    assert want.dtype == np.intp
    got = G.right_mul(x[:, None], x[None, :])
    assert got.dtype == np.intp and np.array_equal(got, want)
    for h in range(n):
        right, left = G.right_mul(x, h), G.right_mul(h, x)
        assert right.dtype == left.dtype == np.intp
        assert np.array_equal(right, want[:, h])
        assert np.array_equal(left, want[h])
        one = G.right_mul(h, np.int64(n - 1 - h))
        assert one.dtype == np.intp and one == want[h, n - 1 - h]
    for h in (0, n // 2, n - 1):
        col = G.right_mul(x[::-1, None], np.int64(h))
        assert col.dtype == np.intp
        assert np.array_equal(col, want[::-1, h, None])
    got = G.right_mul(x[::-1, None], [[0, 1, 2]])
    assert got.dtype == np.intp and np.array_equal(got, want[::-1, :3])


def test_translation_tables_kept_per_element_and_side(monkeypatch):
    # repeated products by one element build its tables once per side, and
    # its left and right tables are kept apart: the left product is not
    # read from the right tables
    G = AutGroup("padic", 2, (3, 2))
    built = Counter()
    tables = AutGroup._translation_tables

    def count(self, g, left):
        built[int(g), left] += 1
        return tables(self, g, left)

    monkeypatch.setattr(AutGroup, "_translation_tables", count)
    x = np.arange(G.order)
    for h in (5, 77):
        right, left = G._kernel_mul(x, h), G._kernel_mul(h, x)
        assert not np.array_equal(right, left)
        for _ in range(3):
            assert np.array_equal(G.right_mul(x, h), right)
            assert np.array_equal(G.right_mul(x[::-1], np.int64(h)),
                                  right[::-1])
            assert np.array_equal(G.right_mul(h, x), left)
    assert built == Counter({(5, False): 1, (5, True): 1, (77, False): 1,
                             (77, True): 1})


def test_element_at_refuses_codes_off_the_group():
    # the codes of (0, 0, 0, 1) and (1, 0, 0, 0), whose determinants are no
    # units, next to the identity's
    G = AutGroup("padic", 2, (3, 2))
    s2 = G.s2
    codes = np.array([((0 * s2 + 0) * s2 + 0) * s2 + 1,
                      ((1 * s2 + 0) * s2 + 0) * s2 + 0])
    with pytest.raises(ValueError, match="2 results are not group elements"):
        G._element_at(codes)
    e = G._element_at(np.array([((1 * s2 + 0) * s2 + 0) * s2 + 1]))
    assert e.dtype == np.intp and e.tolist() == [G.identity_pos]


def reference_members(G, tag, **kw):
    """Tuple reference for the subgroup tags: the per-element predicate scan
    and the cuspidal loops that the masks replaced."""
    l1, l2, s2 = G.l1, G.l2, G.s2
    R1, R2 = G.R1, G.R2
    v1, v2 = R1.val, R2.val

    def up1(x, j):
        return v1[R1.add[x][R1.neg[1]]] >= j

    def up2(x, j):
        return v2[R2.add[x][R2.neg[1]]] >= j

    i, sigma, m = kw.get("i"), kw.get("sigma"), kw.get("m")
    u, w = kw.get("u_hat"), kw.get("w_hat")
    l, eps = G.half_levels()
    if tag in ("ker_embed", "ker_quot"):
        ref = embed_ref if tag == "ker_embed" else quot_ref
        one = aut_group(G.backend, G.q, (l1, m)).identity
        P = G.subgroup("parabolic_" + tag[4:], m=m)
        return [g for g in tuples(P) if ref(G, g, m) == one]
    if tag == "cuspidal_abelian":
        out = []
        for a in R1.units:
            for c in range(s2):
                out.append((a, R2.mul[c][w], c, R2.add[a % s2][R2.neg[R2.mul[c][u]]]))
        return out
    preds = {
        "floor_kernel": lambda g: (up1(g[0], l1 - 1) and v2[g[1]] >= l2 - 1
                                   and v2[g[2]] >= l2 - 1 and up2(g[3], l2 - 1)),
        "congruence": lambda g: (up1(g[0], l1 - i) and v2[g[1]] >= l2 - i
                                 and v2[g[2]] >= l2 - i + sigma
                                 and up2(g[3], l2 - i + sigma)),
        "parabolic_upper": lambda g: g[2] == 0,
        "borel": lambda g: g[2] == 0,
        "parabolic_lower": lambda g: g[1] == 0,
        "parabolic_embed": lambda g: v2[g[2]] >= l2 - m,
        "parabolic_quot": lambda g: v2[g[1]] >= l2 - m,
        "unipotent_upper": lambda g: g[0] == 1 and g[2] == 0 and g[3] == 1,
        "unipotent_lower": lambda g: g[0] == 1 and g[1] == 0 and g[3] == 1,
        "unipotent_upper_floor": lambda g: (g[0] == 1 and g[2] == 0
                                            and g[3] == 1 and v2[g[1]] >= l2 - 1),
        "unipotent_lower_floor": lambda g: (g[0] == 1 and g[1] == 0
                                            and g[3] == 1 and v2[g[2]] >= l2 - 1),
        "floor_torus_a": lambda g: (up1(g[0], l1 - 1) and g[1] == 0
                                    and g[2] == 0 and g[3] == 1),
        "floor_torus_d": lambda g: (g[0] == 1 and g[1] == 0 and g[2] == 0
                                    and up2(g[3], l2 - 1)),
        "scalars": lambda g: g[1] == 0 and g[2] == 0 and g[3] == g[0] % s2,
        "torus": lambda g: g[1] == 0 and g[2] == 0,
        "heisenberg": lambda g: up1(g[0], l1 - 1) and g[3] == 1,
        "cuspidal_normalizer": lambda g: (
            R2.val[R2.add[g[1]][R2.neg[R2.mul[g[2]][w]]]] >= l - eps
            and R2.val[R2.add[g[3]][R2.neg[
                R2.add[g[0] % s2][R2.neg[R2.mul[g[2]][u]]]]]] >= l),
    }
    return [g for g in tuples(G) if preds[tag](g)]


def _tag_cases(lam):
    l1, l2 = lam
    cases = [(t, {}) for t in (
        "parabolic_upper", "borel", "parabolic_lower", "unipotent_upper",
        "unipotent_lower", "unipotent_upper_floor", "unipotent_lower_floor",
        "floor_torus_a", "floor_torus_d", "scalars", "torus")]
    cases += [("congruence", {"i": i, "sigma": s})
              for i in range(l2 + 1) for s in (0, 1) if s <= i]
    cases += [(t, {"m": m}) for t in ("parabolic_embed", "parabolic_quot",
                                      "ker_embed", "ker_quot")
              for m in range(1, l2 + 1)]
    cases.append(("floor_kernel", {}) if l2 >= 2 else ("heisenberg", {}))
    return cases


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 2, (3, 2)), ("padic", 3, (2, 2)), ("tpoly", 4, (2, 1))])
def test_subgroup_masks_match_tuple_predicates(backend, q, lam):
    G = aut_group(backend, q, lam)
    for tag, kw in _tag_cases(lam):
        H = subgroup(G, tag, **kw)
        assert tuples(H) == reference_members(G, tag, **kw), (tag, kw)
        assert H.idx.dtype == np.intp
        assert np.all(np.diff(H.idx) > 0)


def test_cuspidal_masks_match_tuple_construction():
    G = aut_group("padic", 2, (5, 3))
    for u, w in cuspidal_parameters(G):
        for tag in ("cuspidal_abelian", "cuspidal_normalizer"):
            H = G.subgroup(tag, u_hat=u, w_hat=w)
            assert tuples(H) == sorted(reference_members(G, tag, u_hat=u,
                                                         w_hat=w)), (tag, u, w)


def greedy_reference(elements, identity, mul):
    """Element-at-a-time reference for greedy_generators: scan the elements
    in order and keep those outside the running span, grown by closure."""
    gens, span = [], {identity}
    for e in elements:
        if e not in span:
            gens.append(e)
            closure(span, span, gens, mul)
    assert len(span) == len(elements)
    return gens


def test_greedy_generators_match_closure_reference():
    G = aut_group("padic", 2, (3, 2))
    subs = [subgroup(G, tag, **kw) for tag, kw in _tag_cases((3, 2))]
    subs += [aut_group("tpoly", 4, (2, 1)).subgroup("heisenberg"),
             aut_group("padic", 3, (2, 2)).subgroup("parabolic_upper")]
    Q = G.abelianization()
    D = Subgroup(G, derived(G, Q), "derived")
    assert tuples(D) == normal_closure_reference(G)
    subs.append(D)
    for H in subs:
        R = H.root
        assert R.elements_at(H.gen_idx) == greedy_reference(
            tuples(H), R.identity, tuple_ops(R)[0]), H.name
    for backend, q, level in [("padic", 2, 5), ("padic", 3, 3), ("padic", 5, 2),
                              ("tpoly", 4, 2), ("tpoly", 2, 4)]:
        r = make_ring(backend, q, level)
        U = unit_group(r)
        assert U.codes[greedy_generators(U)].tolist() == greedy_reference(
            list(r.units), 1, lambda x, y: int(r.mul[x, y])), \
            (backend, q, level)
    assert greedy_generators(Q).tolist() == greedy_reference(
        range(Q.order), Q.identity_pos, lambda x, y: int(Q.right_mul(x, y)))


def normal_closure_reference(G):
    """Tuple reference for [G, G]: close the commutators of the generators
    under multiplication, then under conjugation, until stable."""
    R = G.root
    (mul, inv, _), gens, one = tuple_ops(R), R.elements_at(G.gen_idx), R.identity
    seeds = {mul(inv(g), mul(inv(h), mul(g, h))) for g in gens for h in gens}
    seeds.discard(one)
    sgens = sorted(seeds)
    while True:
        S = closure({one}, [one], sgens, mul)
        new = {mul(mul(inv(t), s), t) for t in gens for s in S} - S
        if not new:
            return [e for e in tuples(G) if e in S]
        sgens.extend(sorted(new))


@pytest.mark.parametrize("case", ["padic-2-(2,1)", "padic-2-(3,2)",
                                  "padic-3-(2,2)", "tpoly-4-(1,1)",
                                  "parabolic_upper", "cuspidal_normalizer"])
def test_commutator_subgroup_matches_normal_closure(case):
    if case == "parabolic_upper":
        G = aut_group("padic", 3, (2, 2)).subgroup("parabolic_upper")
    elif case == "cuspidal_normalizer":
        G = aut_group("padic", 2, (4, 2)).subgroup("cuspidal_normalizer",
                                                   u_hat=0, w_hat=1)
    else:
        backend, q, lam = case.split("-")
        G = aut_group(backend, int(q), tuple(int(x) for x in lam[1:-1].split(",")))
    Q = G.abelianization()
    D = derived(G, Q)
    assert G.root.elements_at(D) == normal_closure_reference(G)
    # the other cosets are as large: the orbits are the cosets of [G, G]
    assert np.bincount(Q.coset_of).tolist() == [len(D)] * Q.order


def test_abelianization_checks_raise_under_optimize():
    # parabolic_upper on padic q=2 (3,2): cosets 1 and 2 merged in the
    # labels of the one sweep are no congruence, and with its last greedy
    # generator dropped (outside the span of the others) H's generators
    # reach only some of the cosets
    code = ("from modrep2.groups import Subgroup, aut_group\n"
            "H = aut_group('padic', 2, (3, 2)).subgroup('parabolic_upper')\n"
            "sweep = Subgroup.sweep\n"
            "def merged(self, moves, idx=None):\n"
            "    reps, sizes, orbit_of = sweep(self, moves, idx)\n"
            "    orbit_of = orbit_of.copy()\n"
            "    orbit_of[orbit_of == 2] = 1\n"
            "    orbit_of[orbit_of > 2] -= 1\n"
            "    return reps[:2] + reps[3:], sizes, orbit_of\n"
            "D = Subgroup(H.parent, H.idx, 'dropped')\n"
            "D.gen_idx = D.gen_idx[:-1]\n"
            "for G, patch in ((H, merged), (D, sweep)):\n"
            "    Subgroup.sweep = patch\n"
            "    try:\n"
            "        G.abelianization()\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n"
            "    else:\n"
            "        raise SystemExit(4)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    congruence, reached = proc.stdout.splitlines()
    head = "Aut(padic,q=2,(3, 2)).parabolic_upper/derived: members x whose "
    assert congruence.startswith(head + "coset of x * generator ")
    assert " is not move[coset of x]: expected 0, computed " in congruence
    assert int(congruence.split()[-1]) > 0
    assert reached.startswith("Aut(padic,q=2,(3, 2)).dropped/derived: "
                              "cosets reached by the generators: expected ")
    cosets, met = (int(w.strip(",")) for w in reached.split()[-3::2])
    assert 0 < met < cosets


def test_custom_members_refused():
    # member lists given by hand, as sorted root indices
    G = aut_group("padic", 2, (3, 2))
    with pytest.raises(ValueError, match="not closed"):
        Subgroup(G, np.sort(G.locate([G.identity, (1, 1, 0, 1)])))
    with pytest.raises(ValueError, match="misses the identity"):
        Subgroup(G, G.locate([(3, 0, 0, 1)]))
    H = Subgroup(G, np.sort(G.locate([(1, 0, 0, 3), (1, 0, 0, 1)])), "d")
    assert tuples(H) == [(1, 0, 0, 1), (1, 0, 0, 3)]
    assert H.name == G.name + ".d"


def test_positions_refuse_non_members():
    G = aut_group("padic", 2, (3, 2))
    U = G.subgroup("unipotent_upper")
    assert U.positions(U.idx).tolist() == list(range(U.order))
    outside = G.locate([(1, 0, 1, 1)])[0]
    with pytest.raises(ValueError, match="not members"):
        U.positions(np.array([U.idx[0], outside]))
    with pytest.raises(ValueError, match="not members"):
        U.positions(G.order - 1)
    # on the root group positions are the root indices themselves
    assert G.positions(U.idx) is U.idx
    for bad in (-1, G.order, np.array([0, G.order])):
        with pytest.raises(ValueError, match="not members"):
            G.positions(bad)


def test_stabiliser_maps_checked_under_optimize():
    code = ("from modrep2.groups import aut_group\n"
            "G = aut_group('padic', 2, (3, 2))\n"
            "try:\n"
            "    G.hom('embed', G.locate([(1, 0, 1, 1)]), 1)\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "hom embed: valuation of c: expected 1, computed 0" in proc.stdout
