"""Dual characters of congruence kernels, the conjugation action on them,
and orbit classification."""

from functools import cached_property
from itertools import product

import numpy as np

from modrep2.rings import _check, _once, make_ring, orbit_partition


class CongruenceDual:
    """Additive coordinates and dual characters of a congruence subgroup at
    depth (i, sigma): coordinates (u, v, w, z) with u, v at level i and w, z at
    level i - sigma, additive under the group law."""

    def __init__(self, G, i, sigma):
        l1, l2 = G.lam
        if not (0 <= sigma <= 1 and sigma < i <= l2 and i <= l1 - 1
                and i - sigma <= l2 - 1):
            raise ValueError("depth (%d,%d) gives no proper coordinate window"
                             % (i, sigma))
        self.G, self.i, self.sigma = G, i, sigma
        self.K = G.subgroup("congruence", i=i, sigma=sigma)
        self.Ri = make_ring(G.backend, G.q, i)
        self.Rs = make_ring(G.backend, G.q, i - sigma)
        qi, qs = self.Ri.size, self.Rs.size
        # a - 1, b, c, d - 1 of the members (positions of K), divided by
        # pi^j for their depths j (q^j divides a code of valuation >= j),
        # which leaves them below the coordinate sizes qi, qi, qs, qs
        (A1, _, A2, _), cols, _, _, _ = G._arrays
        a, b, c, d = (x[self.K.idx] for x in cols)
        x = np.stack([A1[a, G.R1.neg[1]], b, c, A2[d, G.R2.neg[1]]])
        pj = G.q ** np.array([G.l1 - i, G.l2 - i, G.l2 - i + sigma,
                              G.l2 - i + sigma])[:, None]
        off = np.count_nonzero(x % pj)
        _check(not off, "congruence kernel: entries of a-1, b, c, d-1 below "
               "their depths", 0, off)
        self.coords = (x // pj).T
        distinct = len(set(map(tuple, self.coords.tolist())))
        _check(distinct == self.K.order == qi * qi * qs * qs,
               "distinct coordinates and order of the congruence kernel",
               qi * qi * qs * qs, (distinct, self.K.order))
        self.duals = list(product(range(qi), range(qi), range(qs), range(qs)))

    def codes(self, thetas):
        """The level-i codes uh u + vh v + pi^sigma (wh w + zh z) of the
        dual characters thetas (rows) at K's members (columns), each value
        psi of its code (Ri.psi_exp gives it as an exponent), as one table
        gather on the coordinate arrays."""
        Ri, Rs = self.Ri, self.Rs
        T = np.array(thetas).T[:, :, None]
        C = self.coords.T[:, None, :]
        x = Ri.add[Ri.mul[T[0], C[0]], Ri.mul[T[1], C[1]]]
        y = Rs.add[Rs.mul[T[2], C[2]], Rs.mul[T[3], C[3]]]
        return Ri.add[x, Ri.pi_mul(y, self.sigma)]

    @cached_property
    def exponents(self):
        """(M, X): the duals at K's members as exponents, theta_j(k) =
        zeta_M^X[j, k] for (M, e) = Ri.psi_exp, X = e[codes], computed once."""
        M, e = self.Ri.psi_exp
        return M, e[self.codes(self.duals)]

    def orbits(self):
        """Orbit decomposition of the dual under the group action (g.theta)(k)
        = theta(g^-1 k g): (reps, sizes, orbit_of), with orbit_of aligned with
        self.duals.  Conjugating K's members by a generator permutes the
        columns of the exponent rows; each permuted row is the exponent row
        of the moved dual, found by its bytes."""
        def build():
            G, K, X = self.G, self.K, self.exponents[1]
            row = {r.tobytes(): j for j, r in enumerate(X)}
            _check(len(row) == len(X), "distinct exponent rows of the duals",
                   len(X), len(row))
            g = G.gen_idx
            perms = [[row.get(r.tobytes(), -1) for r in X[:, K.positions(
                G.right_mul(gi, G.right_mul(K.idx, t)))]]
                for gi, t in zip(G.inverse(g), g)]
            return orbit_partition(self.duals, perms)
        return _once(self, "orbits", build)

    def classify(self, theta):
        """Orbit label at depth (1, 0): a (kind, parameter) pair."""
        _check((self.i, self.sigma) == (1, 0), "classify: depth", (1, 0),
               (self.i, self.sigma))
        r = self.Ri
        q = self.G.q
        u, v, w, z = theta
        if self.G.rect:
            tr = r.add[u][z]
            det = r.add[r.mul[u][z]][r.neg[r.mul[v][w]]]
            roots = [x for x in range(q)
                     if r.add[r.mul[x][x]][r.add[r.neg[r.mul[tr][x]]][det]] == 0]
            if len(roots) == 2:
                return ("split", tuple(sorted(roots)))
            if len(roots) == 1:
                s = roots[0]
                if v == 0 and w == 0 and u == s and z == s:
                    return ("scalar", s)
                return ("jordan", s)
            return ("irreducible", (int(tr), int(det)))
        if u != 0:
            s = r.add[z][r.neg[r.mul[r.mul[v][w]][r.inv[u]]]]
            return ("generic", (u, int(s)))
        if v == 0 and w == 0:
            return ("central", z)
        if v == 0:
            return ("nilp_lower", None)
        if w == 0:
            return ("nilp_upper", None)
        return ("off_diag", int(r.mul[v][w]))

    @cached_property
    def labels(self):
        """classify of each dual, aligned with self.duals, computed once."""
        return [self.classify(t) for t in self.duals]

    def orbit_table(self):
        """Labelled orbit census: {label: (orbit count, orbit size)} at depth (1,0),
        with labels collapsed to their kind."""
        reps, sizes, orbit_of = self.orbits()
        labels = [self.classify(t) for t in reps]
        _check(len(set(labels)) == len(labels), "distinct orbit labels",
               len(labels), len(set(labels)))
        # orbits are numbered in the order of their representatives
        bad = [t for t, o, lab in zip(self.duals, orbit_of.tolist(),
                                      self.labels) if lab != labels[o]]
        _check(not bad, "duals labelled as their orbit's representative",
               [], bad)
        table = {}
        for (kind, _), size in zip(labels, sizes):
            cnt, sz = table.get(kind, (0, size))
            _check(sz == size, "orbit size of kind %s" % kind, sz, size)
            table[kind] = (cnt + 1, size)
        return table


def eta_dual(u_hat, w_hat):
    """The distinguished dual character with top slot u_hat, unit lower slot."""
    return (u_hat, 1, w_hat, 0)


def cuspidal_parameters(G):
    """All (u_hat, w_hat) with u_hat non-unit at the half level and w_hat a unit
    one step below."""
    l, eps = G.half_levels()
    Rl = make_ring(G.backend, G.q, l)
    Rs = make_ring(G.backend, G.q, l - eps)
    us = np.flatnonzero(Rl.val >= 1).tolist()
    return [(u, w) for u in us for w in Rs.units]


def orbits_on_kernel(G):
    """Conjugation orbits of the whole group on the depth-(1,0) congruence
    subgroup's elements: list of (representative's root index, size)."""
    K = G.subgroup("congruence", i=1, sigma=0)
    reps, sizes, _ = G.conj_orbits(K.idx)
    return list(zip(K.idx[reps].tolist(), sizes))


def inner_types(lam):
    """The intermediate types (l1, m) strictly between the rank-one boundary
    and lam itself."""
    l1, l2 = lam
    return [(l1, m) for m in range(1, l2)]
