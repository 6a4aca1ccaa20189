"""Automorphism groups of rank-two modules over truncated local rings.

A module type is a pair lam = (l1, l2) with l1 >= l2 >= 0 of column levels.
The full automorphism group of o_{l1} x o_{l2} is realized on 4-tuples
(a, b, c, d) of ring codes: a is a level-l1 unit, d a level-l2 unit, c is a
level-l2 entry, and b is the level-l2 coefficient of the off-diagonal map
o_{l2} -> o_{l1}, x2 -> pi^(l1-l2) * b * x2 on canonical lifts; in the square
case l1 == l2 the tuple is an honest invertible 2x2 matrix.  One
multiplication formula covers both shapes.
"""

from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from modrep2.rings import (FiniteGroup, _check, greedy_generators, make_ring,
                           noncommuting_pair, unit_group)


def generators_of(G):
    g = getattr(G, "gens", None)
    return g if g is not None else greedy_generators(G)


def additive_generators(ring):
    """Generators of (o_level, +) as an abelian p-group: one per digit slot."""
    p = ring.field.p if ring.field else ring.q
    return [ring.pi_mul(p ** i, j) for j in range(ring.level) for i in range(ring.f)]


class GroupBase(FiniteGroup):
    """Shared machinery: conjugacy classes by orbit sweep, commutators,
    abelianization.  Subclasses fill elements, index, mul, inv, identity, gens."""

    name = ""
    is_abelian = False

    def assert_generating(self):
        """Exact span check: right multiplication by the generators sweeps
        the identity's orbit over every element."""
        if getattr(self, "_gen_checked", False):
            return
        _, sizes, _ = self.sweep(self.elements, [(None, t) for t in self.gens])
        _check(sizes[0] == self.order, "%s: elements spanned by the generators"
               % self.name, self.order, sizes[0])
        self._gen_checked = True

    def conj_orbits(self, points):
        """Orbits of conjugation on points, a union of classes, through the
        generators; each move carries its inverse, computed once."""
        return self.sweep(points, [(self.inv(t), t) for t in self.gens])

    def _compute_classes(self):
        if self.is_abelian:
            return super()._compute_classes()
        self.assert_generating()
        reps, sizes, cls_of = self.conj_orbits(self.elements)
        return (reps, np.array(sizes, dtype=np.int64), cls_of)

    def gens_commute(self):
        """Whether the generators commute pairwise: one root right_mul."""
        return noncommuting_pair(self.root, self.gens) is None

    def commutator_subgroup(self):
        """Normal closure of the commutators [g, h] of the generators (one
        of each pair; [h, g] is its inverse), formed by three batched root
        right_mul calls: the identity's orbit under right multiplication by
        them and conjugation by the generators."""
        self.assert_generating()
        R, inv, gens = self.root, self.inv, self.gens
        g = np.array([R.index[t] for t in gens], dtype=np.intp)
        gi = np.array([R.index[inv(t)] for t in gens], dtype=np.intp)
        i, j = np.triu_indices(len(gens), 1)
        seeds = R.right_mul(gi[i], R.right_mul(gi[j], R.right_mul(g[i], g[j])))
        seeds = dict.fromkeys(seeds.tolist())
        seeds.pop(R.index[self.identity], None)
        moves = ([(None, R.elements[s]) for s in seeds]
                 + [(inv(t), t) for t in gens])
        _, _, orbit_of = self.sweep(self.elements, moves)
        span = orbit_of == orbit_of[self.index[self.identity]]
        return Subgroup(self, self.idx[span], name=self.name + ".derived")

    def abelianization(self):
        return QuotientGroup(self, self.commutator_subgroup())


class AutGroup(GroupBase):
    """Automorphism group of the rank-two module o_{l1} x o_{l2}, l1 >= l2 >= 1."""

    def __init__(self, backend, q, lam):
        l1, l2 = lam
        if not (l1 >= l2 >= 1):
            raise ValueError("module type must satisfy l1 >= l2 >= 1, got %r" % (lam,))
        self.backend, self.q, self.lam = backend, q, (l1, l2)
        self.l1, self.l2 = l1, l2
        self.rect = l1 == l2
        self.R1 = make_ring(backend, q, l1)
        self.R2 = make_ring(backend, q, l2)
        R1, R2 = self.R1, self.R2
        s1, s2 = R1.size, R2.size
        self.s1, self.s2 = s1, s2
        dd = l1 - l2
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

        if self.rect:
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

        self.mul, self.inv, self.det = mul, inv, det
        self.identity = (1, 0, 0, 1)
        self.name = "Aut(%s,q=%d,%s)" % (backend, q, (l1, l2))
        self._subgroup_cache, self._tori = {}, {}

        if self.rect:
            self.elements = [g for g in product(range(s1), repeat=4)
                             if R1.val[det(g)] == 0]
            expect = q ** (4 * l1 - 3) * (q - 1) * (q * q - 1)
        else:
            self.elements = [(a, b, c, d) for a in R1.units for b in range(s2)
                             for c in range(s2) for d in R2.units]
            expect = q ** (l1 + 3 * l2 - 2) * (q - 1) ** 2
        _check(len(self.elements) == expect, "%s elements" % self.name,
               expect, len(self.elements))
        self.index = {g: i for i, g in enumerate(self.elements)}

        gens = []
        for t in additive_generators(R2):
            gens.append((1, t, 0, 1))
            gens.append((1, 0, t, 1))
        for u in greedy_generators(unit_group(R1)):
            gens.append((u, 0, 0, 1))
        for u in greedy_generators(unit_group(R2)):
            gens.append((1, 0, 0, u))
        if self.rect:
            gens.append((0, 1, 1, 0))
        self.gens = gens

    @cached_property
    def _arrays(self):
        """Array form of the group, built on first use: the ring add/mul
        tables, the (n, 4) element array as four int32 columns, and the dense
        int32 table from the mixed-radix code ((a*s2 + b)*s2 + c)*s2 + d to
        element index, -1 off the group."""
        s2 = self.s2
        tables = tuple(np.array(t, dtype=np.intp) for t in
                       (self.R1.add, self.R1.mul, self.R2.add, self.R2.mul))
        E = np.array(self.elements, dtype=np.intp)
        code = ((E[:, 0] * s2 + E[:, 1]) * s2 + E[:, 2]) * s2 + E[:, 3]
        table = np.full(self.s1 * s2 ** 3, -1, dtype=np.int32)
        table[code] = np.arange(len(E), dtype=np.int32)
        dd = self.l1 - self.l2
        return (tables, tuple(E.T.astype(np.int32)), table,
                self.R1.pi_pow(dd), self.R2.pi_pow(dd))

    @cached_property
    def _mul_tables(self):
        """The product kernel's tables, built once from the ring tables, for
        level-l2 pairs x, y, X, Y, a level-l1 u and a level-l2 z:
        dot[((x*s2 + y)*s2 + X)*s2 + Y] = x*X + y*Y and low[same] = y*Y +
        pi^(l1-l2)*x*X at level l2, and lift[u*s2 + z] = u + pi^(l1-l2)*z at
        level l1: s1*s2 + 2*s2^4 entries in all."""
        (A1, M1, A2, M2), _, _, d1c, d2c = self._arrays
        xX, yY = M2[:, None, :, None], M2[None, :, None, :]
        A2 = A2.astype(np.int16)
        return (A2[xX, yY].ravel(), A2[M2[d2c, xX], yY].ravel(),
                A1[:, M1[d1c, :self.s2]].astype(np.int32).ravel())

    def right_mul(self, idx, h):
        """Element indices of elements[idx] * elements[h]; idx and h are
        index arrays that broadcast together.  For g = (a, b, c, d) and
        h = (A, B, C, D) the product is (lift[a*A, b*C], dot[(a, b), (B, D)],
        dot[(c, d), (A, C)], low[(c, d), (B, D)]) with the tables of
        _mul_tables, so each coordinate is one gather; the row and column
        operands are formed on the broadcast inputs before they meet."""
        (_, M1, _, M2), (ea, eb, ec, ed), _, _, _ = self._arrays
        dot, low, lift = self._mul_tables
        s2 = self.s2
        a, b, c, d = ea[idx], eb[idx], ec[idx], ed[idx]
        A, B, C, D = ea[h], eb[h], ec[h], ed[h]
        cd, BD = (c * s2 + d) * (s2 * s2), B * s2 + D
        code = lift[M1[a, A] * s2 + M2[b, C]]
        code = code * s2 + dot[(a % s2 * s2 + b) * (s2 * s2) + BD]
        code = code * s2 + dot[cd + (A % s2 * s2 + C)]
        code = code * s2 + low[cd + BD]
        return self._element_at(code)

    def _element_at(self, code):
        """Element indices of codes; raises on -1 rather than wrap around."""
        out = self._arrays[2][code]
        if (out < 0).any():
            raise ValueError("%s: %d results are not group elements"
                             % (self.name, int((out < 0).sum())))
        return out

    def module_act(self, g, m):
        """Action on module elements (x1, x2) with x1 at level l1, x2 at level l2."""
        a, b, c, d = g
        x1, x2 = m
        R1, R2 = self.R1, self.R2
        y1 = R1.add[R1.mul[a][x1]][R1.mul[self.R1.pi_pow(self.l1 - self.l2)][R1.mul[b][x2]]]
        y2 = R2.add[R2.mul[c][x1 % self.s2]][R2.mul[d][x2]]
        return (y1, y2)

    def hom(self, kind, idx, m=0):
        """(Q, images): element indices in Q of the root indices idx under
        the map kind, column-wise; Q is one object per (kind, m).  floor:
        onto type (l1-1, l2-1).  embed, quot: from the depth-m stabilisers
        (val(c), resp. val(b), >= l2-m) onto type (l1, m).  diag: (a, d) of
        the parabolics onto torus.  diag_red: (a mod pi^(l1-1), d) of type
        (l1, 1).  det: onto the codes of Q = R2.  Off the domain: _check."""
        (_, _, A2, M2), cols, _, _, d2c = self._arrays
        a, b, c, d = (x[idx] for x in cols)
        q, l1, l2 = self.q, self.l1, self.l2
        if kind == "det":
            N2 = np.array(self.R2.neg)
            return self.R2, A2[M2[a % self.s2, d], N2[M2[d2c, M2[b, c]]]]
        if kind in ("diag", "diag_red"):
            off = int(((b != 0) & (c != 0)).sum()) if kind == "diag" else 0
            _check(not off, "hom diag: elements with b and c both nonzero",
                   0, off)
            _check(kind == "diag" or l2 == 1, "hom diag_red: level l2", 1, l2)
            lv = l1 if kind == "diag" else l1 - 1
            if lv not in self._tori:
                self._tori[lv] = ProductGroup(unit_group(make_ring(
                    self.backend, q, lv)), unit_group(self.R2))
            T = self._tori[lv]
            U1, U2 = T.G1.elements, T.G2.elements  # sorted unit codes
            return T, (np.searchsorted(U1, a % q ** lv) * len(U2)
                       + np.searchsorted(U2, d))
        if kind == "floor":
            if l2 < 2:
                raise ValueError("floor reduction stops at column levels %r"
                                 % (self.lam,))
            Q, s1, s2 = (aut_group(self.backend, q, (l1 - 1, l2 - 1)),
                         q ** (l1 - 1), q ** (l2 - 1))
            a, b, c, d = a % s1, b % s2, c % s2, d % s2
        elif kind in ("embed", "quot"):
            emb = kind == "embed"
            v = np.array(self.R2.val)[c if emb else b]
            _check((v >= l2 - m).all(), "hom %s: valuation of %s"
                   % (kind, "c" if emb else "b"), l2 - m, v.min(initial=l2))
            Q, s, t = aut_group(self.backend, q, (l1, m)), q ** m, q ** (l2 - m)
            b, c, d = (b % s, c // t, d % s) if emb else (b // t, c % s, d % s)
        else:
            raise ValueError("unknown map %r" % (kind,))
        return Q, Q._element_at(((a * Q.s2 + b) * Q.s2 + c) * Q.s2 + d)

    @property
    def torus(self):
        """units(R1) x units(R2), the target of the diag map."""
        return self.hom("diag", [])[0]

    def subgroup(self, tag, **kw):
        """A tag's subgroup, cached: a mask of lower bounds on val(a - 1),
        val(b), val(c), val(d - 1) (a bound at the full level means equality
        with 1 or 0), plus one condition for scalars and the cuspidal pair.
        "custom" tuples are converted; a repeat or a non-element is refused."""
        if tag == "custom":
            pos = [self.index.get(g, -1) for g in kw["members"]]
            if -1 in pos:
                raise ValueError("custom member %r is not an element of %s"
                                 % (kw["members"][pos.index(-1)], self.name))
            mask = np.zeros(self.order, dtype=bool)
            mask[pos] = True
            if int(mask.sum()) != len(pos):
                raise ValueError("custom members of %s repeat %d elements"
                                 % (self.name, len(pos) - int(mask.sum())))
            return Subgroup(self, np.flatnonzero(mask), kw.get("name", "custom"))
        i, sigma, m = kw.get("i", 0), kw.get("sigma", 0), kw.get("m", 0)
        u, w = kw.get("u_hat"), kw.get("w_hat")
        key = (tag, i, sigma, m, u, w)
        if key in self._subgroup_cache:
            return self._subgroup_cache[key]
        l1, l2, s2 = self.l1, self.l2, self.s2
        l, eps = self.half_levels()
        if tag == "floor_kernel" and l2 < 2:
            raise ValueError("floor kernel needs column levels >= 2")
        if tag == "congruence" and not (0 <= sigma <= 1 and sigma <= i <= l2):
            raise ValueError("congruence depth (%d,%d) out of range" % (i, sigma))
        if tag == "heisenberg" and l2 != 1:
            raise ValueError("heisenberg subgroup lives over column levels (l,1)")
        depths = {
            "floor_kernel": (l1 - 1, l2 - 1, l2 - 1, l2 - 1),
            "congruence": (l1 - i, l2 - i, l2 - i + sigma, l2 - i + sigma),
            "parabolic_upper": (0, 0, l2, 0), "borel": (0, 0, l2, 0),
            "parabolic_lower": (0, l2, 0, 0),
            "parabolic_embed": (0, 0, l2 - m, 0),
            "parabolic_quot": (0, l2 - m, 0, 0),
            "ker_embed": (l1, m, l2, m), "ker_quot": (l1, l2, m, m),
            "unipotent_upper": (l1, 0, l2, l2),
            "unipotent_lower": (l1, l2, 0, l2),
            "unipotent_upper_floor": (l1, l2 - 1, l2, l2),
            "unipotent_lower_floor": (l1, l2, l2 - 1, l2),
            "floor_torus_a": (l1 - 1, l2, l2, l2),
            "floor_torus_d": (l1, l2, l2, l2 - 1),
            "scalars": (0, l2, l2, 0), "torus": (0, l2, l2, 0),
            "heisenberg": (l1 - 1, 0, 0, l2),
            "cuspidal_abelian": (0, 0, 0, 0), "cuspidal_normalizer": (0, 0, 0, 0),
        }
        if tag not in depths:
            raise ValueError("unknown subgroup tag %r" % (tag,))
        (A1, _, A2, M2), (a, b, c, d), _, _, _ = self._arrays
        V1, V2, N2 = (np.array(t) for t in (self.R1.val, self.R2.val, self.R2.neg))
        cols = (lambda: V1[A1[a, self.R1.neg[1]]], lambda: V2[b],
                lambda: V2[c], lambda: V2[A2[d, N2[1]]])
        mask = np.ones(self.order, dtype=bool)
        for col, j in zip(cols, depths[tag]):
            if j > 0:
                mask &= col() >= j
        if tag == "scalars":
            mask &= d == a % s2
        elif tag.startswith("cuspidal"):  # val(b - c w), val(d - a + c u)
            v = make_ring(self.backend, self.q, l).val[u]
            _check(v >= min(1, l), "%s: valuation of u_hat" % tag, min(1, l), v)
            ab = tag == "cuspidal_abelian"
            mask &= V2[A2[b, N2[M2[c, w]]]] >= (l2 if ab else l - eps)
            mask &= V2[A2[d, N2[A2[a % s2, N2[M2[c, u]]]]]] >= (l2 if ab else l)
        idx = np.flatnonzero(mask)
        if tag == "cuspidal_abelian":  # every unit a and every c give a unit d
            _check(len(idx) == len(self.R1.units) * s2,
                   "cuspidal_abelian: members", len(self.R1.units) * s2, len(idx))
        self._subgroup_cache[key] = Subgroup(self, idx, name=tag)
        return self._subgroup_cache[key]

    def half_levels(self):
        """(l, eps) with l2 = 2l - eps: the depth at which cuspidal data lives."""
        eps = self.l2 % 2
        return ((self.l2 + eps) // 2, eps)


class Subgroup(GroupBase):
    """Subgroup given by idx, the sorted root indices of its members (the
    root's lexicographic order); elements and index are derived on use."""

    def __init__(self, parent, idx, name=""):
        self.parent, self.idx = parent, idx
        self.mul, self.inv = parent.mul, parent.inv
        self.identity = parent.identity
        self.name = (parent.name + "." + name) if name else parent.name + ".sub"
        self.gens = greedy_generators(self)  # refuses a member list that is no group
        self._gen_checked = True
        self.is_abelian = self.gens_commute()
        self._fusion = None

    @property
    def root(self):
        return self.parent.root

    @property
    def order(self):
        return len(self.idx)

    @cached_property
    def elements(self):
        els = self.root.elements
        return [els[j] for j in self.idx.tolist()]

    @cached_property
    def index(self):
        return {e: j for j, e in enumerate(self.elements)}

    @property
    def parent_index(self):
        _check(self.parent.order % self.order == 0, "%s: parent order modulo "
               "order" % self.name, 0, self.parent.order % self.order)
        return self.parent.order // self.order

    def fusion(self):
        """Parent class index of each subgroup class, computed once: parent
        labels at the members' positions (a class lies in one parent class)."""
        if self._fusion is None:
            P = self.parent
            self._fusion = np.empty(self.class_count, dtype=np.int64)
            self._fusion[self.cls_of] = P.cls_of[P.positions(self.idx)]
        return self._fusion


class QuotientGroup(GroupBase):
    """Quotient by a normal subgroup; elements are first-seen coset
    representatives, and coset_of gives the coset of each parent position."""

    def __init__(self, parent, N):
        self.parent, self.N = parent, N
        pmul, pinv, pindex = parent.mul, parent.inv, parent.index
        parent.conj_orbits(N.elements)  # ValueError unless N is normal
        reps, _, self.coset_of = parent.sweep(parent.elements,
                                              [(None, g) for g in N.gens])
        self._rep_ridx = parent.idx[[pindex[x] for x in reps]]
        cos = self.coset_of.tolist()
        self.elements = reps
        self.index = {e: i for i, e in enumerate(reps)}
        self.mul = lambda x, y: reps[cos[pindex[pmul(x, y)]]]
        self.inv = lambda x: reps[cos[pindex[pinv(x)]]]
        self.identity = reps[cos[pindex[parent.identity]]]
        self.gens = [x for x in dict.fromkeys(reps[cos[pindex[g]]]
                                              for g in parent.gens)
                     if x != self.identity]
        self.is_abelian = self.gens_commute()
        self.name = parent.name + "/" + N.name.rsplit(".", 1)[-1]

    def right_mul(self, idx, h):
        """Coset indices of the products of coset representatives, through
        the parent's root right_mul."""
        P, r = self.parent, self._rep_ridx
        return self.coset_of[P.positions(P.root.right_mul(r[idx], r[h]))]


class ProductGroup(GroupBase):
    """Direct product; elements are pairs."""

    def __init__(self, G1, G2):
        self.G1, self.G2 = G1, G2
        self.elements = [(x, y) for x in G1.elements for y in G2.elements]
        self.index = {e: i for i, e in enumerate(self.elements)}
        m1, m2 = G1.mul, G2.mul
        i1, i2 = G1.inv, G2.inv
        self.mul = lambda x, y: (m1(x[0], y[0]), m2(x[1], y[1]))
        self.inv = lambda x: (i1(x[0]), i2(x[1]))
        self.identity = (G1.identity, G2.identity)
        self.gens = ([(g, G2.identity) for g in generators_of(G1)]
                     + [(G1.identity, h) for h in generators_of(G2)])
        self.is_abelian = (getattr(G1, "is_abelian", False)
                           and getattr(G2, "is_abelian", False))
        self.name = "(%s)x(%s)" % (getattr(G1, "name", "?"), getattr(G2, "name", "?"))


def class_count_formula(q, lam):
    """Closed-form number of conjugacy classes of the type-lam automorphism group."""
    l1, l2 = lam
    if l2 == 0:
        return q ** (l1 - 1) * (q - 1)
    if l1 == l2:
        return q ** (2 * l1) - q ** (l1 - 1)
    return q ** (l1 + l2 - 2) * (q * q - q + 2) - q ** (l1 - 2) * (q + 1)


def order_formula(q, lam):
    l1, l2 = lam
    if l2 == 0:
        return q ** (l1 - 1) * (q - 1)
    if l1 == l2:
        return q ** (4 * l1 - 3) * (q - 1) * (q * q - 1)
    return q ** (l1 + 3 * l2 - 2) * (q - 1) ** 2


@lru_cache(maxsize=None)
def aut_group(backend, q, lam):
    """Automorphism group of the module of type lam; rank-one types (l, 0) give
    the abelian unit group on raw ring codes."""
    l1, l2 = lam
    if l2 == 0:
        R = make_ring(backend, q, l1)
        G = unit_group(R)
        G.name = "Aut(%s,q=%d,%s)" % (backend, q, (l1, 0))
        G.backend, G.q, G.lam = backend, q, (l1, 0)
        G.rect = False
        G.det = lambda x: x
        G.gens = greedy_generators(G)
        return G
    return AutGroup(backend, q, lam)
