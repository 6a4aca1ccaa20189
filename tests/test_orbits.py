import random

import numpy as np
import pytest

from modrep2.groups import aut_group
from modrep2.orbits import (CongruenceDual, cuspidal_parameters, eta_dual,
                            inner_types, orbits_on_kernel)
from modrep2.rings import _check, orbit_partition


def act_perms(points, moves, act):
    """Each move as the list of positions of act(x, move) over the points x,
    -1 for an image off the points."""
    index = {x: j for j, x in enumerate(points)}
    return [[index.get(act(x, t), -1) for x in points] for t in moves]


# Tuple references for CongruenceDual: the per-element pairing that the
# exponent gather replaced and the tuple formula for the dual action that
# orbits() replaced.

def pair(D, theta, k):
    """Exponent of the value of the dual character theta at the kernel
    member at position k: theta(k) = zeta_M^pair, (M, e) = Ri.psi_exp."""
    u, v, w, z = D.coords[k]
    uh, vh, wh, zh = theta
    Ri, Rs = D.Ri, D.Rs
    x = Ri.add[Ri.mul[uh][u]][Ri.mul[vh][v]]
    y = Rs.add[Rs.mul[wh][w]][Rs.mul[zh][z]]
    return int(Ri.psi_exp[1][Ri.add[x][Ri.pi_mul(y, D.sigma)]])


def act(D, g, theta):
    """Dual of the conjugation action: (g.theta)(k) = theta(g^-1 k g)."""
    G = D.G
    if G.rect:
        # pairing is psi(tr(theta^T m)), so conjugating the coordinate matrix
        # by gbar turns into similarity of theta by the transpose of gbar
        _check(D.sigma == 0, "act: sigma on a square type", 0,
               D.sigma)
        Ri = D.Ri
        qi = Ri.size
        Mi, Ai, Ii, Ni = Ri.mul, Ri.add, Ri.inv, Ri.neg
        a, b, c, d = (x % qi for x in g)
        u, v, w, z = theta
        di = Ii[Ai[Mi[a][d]][Ni[Mi[b][c]]]]
        p11 = Mi[di][Ai[Mi[d][u]][Ni[Mi[c][w]]]]
        p12 = Mi[di][Ai[Mi[d][v]][Ni[Mi[c][z]]]]
        p21 = Mi[di][Ai[Mi[a][w]][Ni[Mi[b][u]]]]
        p22 = Mi[di][Ai[Mi[a][z]][Ni[Mi[b][v]]]]
        return (Ai[Mi[p11][a]][Mi[p12][b]], Ai[Mi[p11][c]][Mi[p12][d]],
                Ai[Mi[p21][a]][Mi[p22][b]], Ai[Mi[p21][c]][Mi[p22][d]])
    R = G.R1
    M, A, I, Ng = R.mul, R.add, R.inv, R.neg
    dl = R.pi_pow(G.l1 - G.l2)
    a, b, c, d = g
    ai, di = I[a], I[d]
    u, v, w, z = theta
    ba, cd = M[b][ai], M[c][di]
    ca, bd = M[c][ai], M[b][di]
    da, ad = M[d][ai], M[a][di]
    ei = I[A[1][Ng[M[dl][M[M[ai][di]][M[b][c]]]]]]
    up = M[ei][A[A[u][M[dl][M[ba][v]]]]
               [Ng[A[M[dl][M[cd][w]]][M[M[dl][dl]][M[M[ba][cd]][z]]]]]]
    vp = M[ei][A[A[M[da][v]][M[ca][u]]]
               [Ng[A[M[dl][M[ca][z]]][M[dl][M[M[ca][cd]][w]]]]]]
    wp = M[ei][A[A[M[ad][w]][M[dl][M[bd][z]]]]
               [Ng[A[M[bd][u]][M[dl][M[M[bd][ba]][v]]]]]]
    zp = M[ei][A[A[z][M[cd][w]]][Ng[A[M[ba][v]][M[M[ba][cd]][u]]]]]
    return (up % D.Ri.size, vp % D.Ri.size,
            wp % D.Rs.size, zp % D.Rs.size)


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
    prod = K.positions(G.right_mul(K.idx[:, None], K.idx[None, :]))
    for j1 in range(K.order):
        u1, v1, w1, z1 = D.coords[j1]
        for j2 in range(K.order):
            u2, v2, w2, z2 = D.coords[j2]
            got = tuple(D.coords[prod[j1, j2]].tolist())
            want = (D.Ri.add[u1][u2], D.Ri.add[v1][v2],
                    D.Rs.add[w1][w2], D.Rs.add[z1][z2])
            assert got == want
    assert K.is_abelian


def test_duals_are_characters_and_separate():
    G = aut_group("padic", 2, (3, 2))
    D = CongruenceDual(G, 1, 0)
    K = D.K
    prod = K.positions(G.right_mul(K.idx[:, None], K.idx[None, :]))
    M = D.exponents[0]
    rows = set()
    for theta in D.duals:
        vals = [pair(D, theta, j) for j in range(K.order)]
        for k1 in range(K.order):
            for k2 in range(K.order):
                assert vals[prod[k1, k2]] == (vals[k1] + vals[k2]) % M
        rows.add(tuple(vals))
    assert len(rows) == K.order
    assert D.exponents[1].shape == (K.order, K.order)


@pytest.mark.parametrize("backend,q,lam,depth", [
    ("padic", 2, (3, 2), (1, 0)), ("padic", 3, (2, 2), (1, 0)),
    ("tpoly", 4, (2, 2), (1, 0)), ("padic", 2, (4, 3), (2, 1)),
    ("padic", 2, (5, 3), (2, 1)),
])
def test_value_gather_matches_pairing(backend, q, lam, depth):
    # bit for bit against the per-pair loop, rows in duals order
    D = CongruenceDual(aut_group(backend, q, lam), *depth)
    want = np.array([[pair(D, t, k) for k in range(D.K.order)]
                     for t in D.duals])
    assert np.array_equal(D.exponents[1], want)
    assert D.exponents[0] == D.Ri.psi_exp[0]


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 2, (3, 2)), ("padic", 3, (3, 2)), ("padic", 2, (2, 2)),
    ("padic", 3, (2, 2)), ("tpoly", 2, (2, 2)),
])
def test_dual_action_matches_conjugation(backend, q, lam):
    G = aut_group(backend, q, lam)
    D = CongruenceDual(G, 1, 0)
    K = D.K
    rng = random.Random(4)
    els = G.elements_at(G.idx)
    for _ in range(30):
        j = rng.randrange(len(els))
        g, gi = els[j], G.power_sweep([j])[1]
        # positions of g^-1 k g for the members k of K
        gkg = K.positions(G.right_mul(gi, G.right_mul(K.idx, j))).tolist()
        for theta in D.duals[:: max(1, len(D.duals) // 16)]:
            t2 = act(D, g, theta)
            for k in range(K.order):
                assert pair(D, t2, k) == pair(D, theta, gkg[k])
    # action property: (gh).theta = g.(h.theta)
    for _ in range(200):
        g, h = els[rng.randrange(len(els))], els[rng.randrange(len(els))]
        theta = D.duals[rng.randrange(len(D.duals))]
        assert act(D, G.mul(g, h), theta) == act(D, g, act(D, h, theta))
    for theta in D.duals:
        assert act(D, G.identity, theta) == theta


@pytest.mark.parametrize("backend,q,lam,depth", [
    ("padic", 2, (3, 2), (1, 0)), ("padic", 3, (3, 2), (1, 0)),
    ("padic", 3, (2, 2), (1, 0)), ("tpoly", 4, (2, 2), (1, 0)),
    ("tpoly", 2, (3, 2), (1, 0)), ("padic", 2, (4, 3), (2, 1)),
    ("padic", 3, (4, 2), (2, 1)),
])
def test_dual_orbits_match_tuple_action(backend, q, lam, depth):
    # the exponent-row permutations against the tuple formula's orbits
    G = aut_group(backend, q, lam)
    D = CongruenceDual(G, *depth)
    reps, sizes, orbit_of = orbit_partition(D.duals, act_perms(
        D.duals, G.gens, lambda t, g: act(D, g, t)))
    got = D.orbits()
    assert (got[0], got[1], got[2].tolist()) == (reps, sizes,
                                                 orbit_of.tolist())


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


def test_eta_invariants_and_stability():
    for backend, q, lam in [("padic", 2, (3, 2)), ("padic", 3, (3, 2))]:
        G = aut_group(backend, q, lam)
        l, eps = G.half_levels()
        D = CongruenceDual(G, l, eps)
        for u_hat, w_hat in cuspidal_parameters(G):
            theta = eta_dual(u_hat, w_hat)
            N = G.subgroup("cuspidal_normalizer", u_hat=u_hat, w_hat=w_hat)
            for n in G.elements_at(N.idx):
                assert act(D, n, theta) == theta
            # orbit of eta has exactly one point per coset of the stabilizer
            orbit = {theta}
            stack = [theta]
            dirs = G.gens + G.elements_at(G.inverse(G.gen_idx))
            while stack:
                t = stack.pop()
                for g in dirs:
                    t2 = act(D, g, t)
                    if t2 not in orbit:
                        orbit.add(t2)
                        stack.append(t2)
            assert len(orbit) == G.order // N.order
            _, sizes, orbit_of = D.orbits()
            assert sizes[orbit_of[D.duals.index(theta)]] == len(orbit)


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


def test_inner_types():
    assert inner_types((3, 2)) == [(3, 1)]
    assert inner_types((2, 2)) == [(2, 1)]
    assert inner_types((4, 3)) == [(4, 1), (4, 2)]
    assert inner_types((2, 1)) == []
