import random

import numpy as np
import pytest

from modrep2.groups import aut_group
from modrep2.orbits import (CongruenceDual, all_submodules, cuspidal_parameters,
                            eta_dual, grassmannian_orbits, grassmannian_transitive,
                            inner_types, module_type, orbits_on_kernel,
                            symmetric_type)


def test_depth_validation():
    with pytest.raises(ValueError):
        CongruenceDual(aut_group("padic", 2, (1, 1)), 1, 0)
    with pytest.raises(ValueError):
        CongruenceDual(aut_group("padic", 2, (3, 2)), 2, 0)
    with pytest.raises(ValueError):
        CongruenceDual(aut_group("padic", 2, (3, 2)), 1, 1)
    CongruenceDual(aut_group("padic", 2, (3, 2)), 1, 0)
    CongruenceDual(aut_group("padic", 2, (4, 3)), 2, 1)


@pytest.mark.parametrize("backend,q,lam,depth", [
    ("padic", 2, (3, 2), (1, 0)), ("padic", 3, (2, 2), (1, 0)),
    ("padic", 2, (4, 3), (2, 1)), ("tpoly", 2, (3, 2), (1, 0)),
])
def test_coords_additive_bijective(backend, q, lam, depth):
    G = aut_group(backend, q, lam)
    D = CongruenceDual(G, *depth)
    K = D.K
    for k1 in K.elements:
        u1, v1, w1, z1 = D.coords[k1]
        for k2 in K.elements:
            u2, v2, w2, z2 = D.coords[k2]
            got = D.coords[K.mul(k1, k2)]
            want = (D.Ri.add[u1][u2], D.Ri.add[v1][v2],
                    D.Rs.add[w1][w2], D.Rs.add[z1][z2])
            assert got == want
    assert K.is_abelian


def test_duals_are_characters_and_separate():
    G = aut_group("padic", 2, (3, 2))
    D = CongruenceDual(G, 1, 0)
    K = D.K
    rows = set()
    for theta in D.duals:
        vals = {k: D.pair(theta, k) for k in K.elements}
        for k1 in K.elements:
            for k2 in K.elements:
                assert abs(vals[K.mul(k1, k2)] - vals[k1] * vals[k2]) < 1e-9
        rows.add(tuple(round(vals[k].real, 6) + 1j * round(vals[k].imag, 6)
                       for k in K.elements))
    assert len(rows) == K.order
    vm = D.value_matrix()
    assert vm.shape == (K.order, K.order)


@pytest.mark.parametrize("backend,q,lam,depth", [
    ("padic", 2, (3, 2), (1, 0)), ("padic", 3, (2, 2), (1, 0)),
    ("tpoly", 4, (2, 2), (1, 0)), ("padic", 2, (4, 3), (2, 1)),
    ("padic", 2, (5, 3), (2, 1)),
])
def test_value_gather_matches_pairing(backend, q, lam, depth):
    # bit for bit against the per-pair loop, rows in duals order
    D = CongruenceDual(aut_group(backend, q, lam), *depth)
    want = np.array([[D.pair(t, k) for k in D.K.elements] for t in D.duals])
    assert np.array_equal(D.value_matrix(), want)
    assert np.array_equal(D.values(D.duals[3:5]), want[3:5])


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 2, (3, 2)), ("padic", 3, (3, 2)), ("padic", 2, (2, 2)),
    ("padic", 3, (2, 2)), ("tpoly", 2, (2, 2)),
])
def test_dual_action_matches_conjugation(backend, q, lam):
    G = aut_group(backend, q, lam)
    D = CongruenceDual(G, 1, 0)
    rng = random.Random(4)
    els = G.elements
    for _ in range(30):
        g = els[rng.randrange(len(els))]
        gi = G.inv(g)
        for theta in D.duals[:: max(1, len(D.duals) // 16)]:
            t2 = D.act(g, theta)
            for k in D.K.elements:
                assert abs(D.pair(t2, k)
                           - D.pair(theta, G.mul(G.mul(gi, k), g))) < 1e-9
    # action property: (gh).theta = g.(h.theta)
    for _ in range(200):
        g, h = els[rng.randrange(len(els))], els[rng.randrange(len(els))]
        theta = D.duals[rng.randrange(len(D.duals))]
        assert D.act(G.mul(g, h), theta) == D.act(g, D.act(h, theta))
    for theta in D.duals:
        assert D.act(G.identity, theta) == theta


ORBIT_TABLES = [
    ("padic", 2, (3, 2), {"central": (2, 1), "nilp_lower": (1, 2),
                          "nilp_upper": (1, 2), "off_diag": (1, 2),
                          "generic": (2, 4)}),
    ("padic", 3, (3, 2), {"central": (3, 1), "nilp_lower": (1, 6),
                          "nilp_upper": (1, 6), "off_diag": (2, 6),
                          "generic": (6, 9)}),
    ("tpoly", 2, (3, 2), {"central": (2, 1), "nilp_lower": (1, 2),
                          "nilp_upper": (1, 2), "off_diag": (1, 2),
                          "generic": (2, 4)}),
    ("padic", 2, (4, 2), {"central": (2, 1), "nilp_lower": (1, 2),
                          "nilp_upper": (1, 2), "off_diag": (1, 2),
                          "generic": (2, 4)}),
    ("padic", 2, (2, 2), {"scalar": (2, 1), "split": (1, 6),
                          "jordan": (2, 3), "irreducible": (1, 2)}),
    ("padic", 3, (2, 2), {"scalar": (3, 1), "split": (3, 12),
                          "jordan": (3, 8), "irreducible": (3, 6)}),
    ("tpoly", 2, (2, 2), {"scalar": (2, 1), "split": (1, 6),
                          "jordan": (2, 3), "irreducible": (1, 2)}),
]


@pytest.mark.parametrize("backend,q,lam,table", ORBIT_TABLES)
def test_orbit_tables(backend, q, lam, table):
    G = aut_group(backend, q, lam)
    D = CongruenceDual(G, 1, 0)
    got = D.orbit_table()
    assert got == table
    n_orbits = sum(c for c, _ in got.values())
    assert n_orbits == (q * q + q if G.rect else q * q + q + 1)
    assert sum(c * s for c, s in got.values()) == q ** 4


def test_invariants_constant_on_orbits():
    for backend, q, lam in [("padic", 2, (3, 2)), ("padic", 3, (3, 2)),
                            ("padic", 2, (4, 3))]:
        G = aut_group(backend, q, lam)
        D = CongruenceDual(G, *G.half_levels())
        reps, sizes, orbit_of = D.orbits()
        inv_of_orbit = {}
        for j, theta in enumerate(D.duals):
            o = int(orbit_of[j])
            v = D.invariants(theta)
            assert inv_of_orbit.setdefault(o, v) == v


def test_eta_invariants_and_stability():
    for backend, q, lam in [("padic", 2, (3, 2)), ("padic", 3, (3, 2))]:
        G = aut_group(backend, q, lam)
        l, eps = G.half_levels()
        D = CongruenceDual(G, l, eps)
        for u_hat, w_hat in cuspidal_parameters(G):
            theta = eta_dual(u_hat, w_hat)
            assert D.invariants(theta) == (u_hat, D.Rs.neg[w_hat])
            N = G.subgroup("cuspidal_normalizer", u_hat=u_hat, w_hat=w_hat)
            for n in N.elements:
                assert D.act(n, theta) == theta
            # orbit of eta has exactly one point per coset of the stabilizer
            orbit = {theta}
            stack = [theta]
            dirs = [t for g in G.gens for t in (g, G.inv(g))]
            while stack:
                t = stack.pop()
                for g in dirs:
                    t2 = D.act(g, t)
                    if t2 not in orbit:
                        orbit.add(t2)
                        stack.append(t2)
            assert len(orbit) == G.order // N.order


def test_cuspidal_parameter_counts():
    assert cuspidal_parameters(aut_group("padic", 2, (3, 2))) == [(0, 1)]
    assert len(cuspidal_parameters(aut_group("padic", 3, (3, 2)))) == 2
    assert len(cuspidal_parameters(aut_group("padic", 2, (4, 2)))) == 1
    G = aut_group("padic", 2, (4, 3))  # half level (2,1)
    assert len(cuspidal_parameters(G)) == 2  # u in {0,2} at level 2, w unit at level 1


KERNEL_ORBITS = [
    ("padic", 2, (3, 2), 7), ("padic", 3, (3, 2), 13),
    ("padic", 2, (2, 2), 6), ("padic", 3, (2, 2), 12),
    ("tpoly", 2, (2, 2), 6),
]


@pytest.mark.parametrize("backend,q,lam,n", KERNEL_ORBITS)
def test_orbits_on_kernel(backend, q, lam, n):
    G = aut_group(backend, q, lam)
    orbs = orbits_on_kernel(G)
    assert len(orbs) == n == (q * q + q if G.rect else q * q + q + 1)
    assert sum(s for _, s in orbs) == q ** 4


def test_submodule_census():
    G = aut_group("padic", 2, (3, 2))
    subs = all_submodules(G)
    from collections import Counter
    census = Counter(module_type(G, S) for S in subs)
    assert census[(0, 0)] == 1 and census[(3, 2)] == 1
    assert census[(1, 0)] == 3 and census[(1, 1)] == 1
    assert sum(len(S) == 2 ** 5 for S in subs) == 1


def test_grassmannian_examples():
    assert grassmannian_transitive(aut_group("padic", 2, (2, 2)), (2, 1))
    assert not grassmannian_transitive(aut_group("padic", 2, (2, 1)), (1, 1))
    assert grassmannian_transitive(aut_group("padic", 2, (2, 1)), (2, 0))
    with pytest.raises(ValueError):
        grassmannian_orbits(aut_group("padic", 2, (2, 1)), (2, 2))


def test_symmetric_type_matches_transitivity():
    for backend, q, lams in [("padic", 2, [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]),
                             ("padic", 3, [(1, 1), (2, 1), (2, 2)]),
                             ("tpoly", 2, [(2, 1), (2, 2)])]:
        for lam in lams:
            G = aut_group(backend, q, lam)
            types = sorted({module_type(G, S) for S in all_submodules(G)})
            for mu in types:
                if mu == (0, 0):
                    continue
                assert grassmannian_transitive(G, mu) == symmetric_type(lam, mu), \
                    (backend, q, lam, mu)


def test_inner_types():
    assert inner_types((3, 2)) == [(3, 1)]
    assert inner_types((2, 2)) == [(2, 1)]
    assert inner_types((4, 3)) == [(4, 1), (4, 2)]
    assert inner_types((2, 1)) == []
