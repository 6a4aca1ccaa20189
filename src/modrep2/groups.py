"""Automorphism groups of rank-two modules over truncated local rings.

A module type is a pair lam = (l1, l2) with l1 >= l2 >= 0 of column levels.
The full automorphism group of o_{l1} x o_{l2} is realized on 4-tuples
(a, b, c, d) of ring codes: a is a level-l1 unit, d a level-l2 unit, c is a
level-l2 entry, and b is the level-l2 coefficient of the off-diagonal map
o_{l2} -> o_{l1}, x2 -> pi^(l1-l2) * b * x2 on canonical lifts; in the square
case l1 == l2 the tuple is an honest invertible 2x2 matrix.  The elements are
kept as four columns of codes and handled by index, one product kernel for
both shapes; 4-tuples appear only at the print boundary (locate,
elements_at, class_reps) and as the generators and identity kept as data.

The product is derived once, in the coordinate kernel AutGroup._codes, and
taken on one of two paths (AutGroup.right_mul): a product by one element,
on either side, reads that element's two translation tables, the kernel
evaluated on line elements and kept per (element, side); an array-by-array
product runs the kernel itself.  Every path ends in _element_at, which
refuses a code off the group.  The root group's conjugacy classes come
with its span check from one streamed pass over the generators: the
orbits of conjugation by every generator (AutGroup._class_partition).
"""

from functools import cached_property, lru_cache

import numpy as np

from modrep2.rings import (FiniteGroup, TableGroup, _check, _once,
                           code_positions, direct_product, greedy_generators,
                           hook, label_orbits, make_ring, unit_group)


class GroupBase(FiniteGroup):
    """Shared machinery on generators (gen_idx): conjugacy classes by
    orbit sweep, commutators, abelianization."""

    def conj_orbits(self, idx=None):
        """Orbits of conjugation on the root elements idx (by default this
        group's elements), a union of classes, through the generators; each
        move carries its inverse, from the root's inverse kernel."""
        g = self.gen_idx
        return self.sweep(list(zip(self.root.inverse(g), g)), idx)

    def _compute_classes(self):
        if self.is_abelian:
            return super()._compute_classes()
        sizes, cls_of = self._class_partition()
        return np.array(sizes, dtype=np.int64), cls_of

    def _class_partition(self):
        """(class sizes, class index of each position): conjugation orbits
        under every generator, which span the group exactly: a Subgroup's
        by greedy_generators (AutGroup's class pass certifies its own)."""
        return self.conj_orbits()[1:]

    @cached_property
    def is_abelian(self):
        """Whether the generators commute pairwise: one root right_mul, on
        first use (class computation and tests read it)."""
        g = self.gen_idx
        prods = self.root.right_mul(g[:, None], g[None, :])
        return bool((prods == prods.T).all())

    def commutator_subgroup(self):
        """Normal closure of the commutators [g, h] of the generators (one
        of each pair; [h, g] is its inverse), formed by three batched root
        right_mul calls: the identity's orbit under right multiplication by
        them and conjugation by the generators."""
        R, g = self.root, self.gen_idx
        gi = R.inverse(g)
        i, j = np.triu_indices(len(g), 1)
        seeds = R.right_mul(gi[i], R.right_mul(gi[j], R.right_mul(g[i], g[j])))
        seeds = dict.fromkeys(seeds.tolist())
        seeds.pop(R.identity_pos, None)
        moves = [(None, s) for s in seeds] + list(zip(gi, g))
        _, _, orbit_of = self.sweep(moves)
        span = np.flatnonzero(orbit_of == orbit_of[self.identity_pos])
        return Subgroup(self, self.ridx(span), name="derived")

    def abelianization(self):
        """G / [G, G] as a TableGroup on coset indices, with coset_of the
        coset of each position.  The commutator subgroup N must be normal
        (its conjugation sweep), cosets are numbered by their first-seen
        representatives (one sweep of right multiplication by N's
        generators), and the Cayley table is filled breadth first from the
        identity: with move[x] = x * g for a generator g (one root product
        of the representatives), column y * g is move applied to column y.
        Every coset must be reached."""
        N = self.commutator_subgroup()
        self.conj_orbits(N.idx)  # ValueError unless N is normal
        reps, _, coset_of = self.sweep([(None, g) for g in N.gen_idx])
        r = self.ridx(np.array(reps, dtype=np.intp))
        e, name = int(coset_of[self.identity_pos]), self.name + "/derived"
        gens = dict.fromkeys(coset_of[self.positions(self.gen_idx)].tolist())
        moves = [coset_of[self.positions(self.root.right_mul(r, r[g]))]
                 for g in gens if g != e]
        T = np.full((len(r), len(r)), -1, dtype=np.int32)  # T[y]: column y
        T[e] = np.arange(len(r))
        front = np.array([e])
        while front.size:
            new = [front[:0]]  # no moves: the trivial group
            for move in moves:
                y = move[front]
                fresh = T[y, 0] < 0
                T[y[fresh]] = move[T[front[fresh]]]
                new.append(y[fresh])
            front = np.concatenate(new)
        missing = int((T[:, 0] < 0).sum())
        _check(not missing, "%s: cosets reached by the generators" % name,
               len(r), len(r) - missing)
        Q = TableGroup(T.T, e, name)
        Q.coset_of = coset_of
        return Q


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
        self.identity = (1, 0, 0, 1)
        self.name = "Aut(%s,q=%d,%s)" % (backend, q, (l1, l2))

        # (a, b, c, d) is an element when its determinant a*d - pi^(l1-l2)*b*c
        # is a unit, which is decided mod pi: a mask over the mixed-radix
        # codes ((a*s2 + b)*s2 + c)*s2 + d gathered from the residue field's
        # table, so the elements come out in code (lexicographic) order
        F = make_ring(backend, q, 1)
        M, A, N = F.mul, F.add, F.neg
        r = np.arange(q)
        unit = A[M[r[:, None, None, None], r],
                 N[M[F.pi_pow(dd), M[r[:, None, None], r[:, None]]]]] != 0
        i1, i2 = np.arange(s1) % q, np.arange(s2) % q
        mask = unit[i1[:, None, None, None], i2[:, None, None], i2[:, None],
                    i2].ravel()
        code = np.flatnonzero(mask)
        n = order_formula(q, self.lam)
        _check(len(code) == n, "%s elements" % self.name, n, len(code))
        table = np.full(mask.size, -1, dtype=np.int32)
        table[code] = np.arange(len(code), dtype=np.int32)
        # the columns by int32 divmods of the codes: np.unravel_index would
        # hold four intp columns at once (155 MB on q=7 (2,2))
        rest, cols = code.astype(np.int32), []
        del code
        for _ in range(3):
            rest, x = np.divmod(rest, np.int32(s2))
            cols.insert(0, x)
        cols = tuple([rest] + cols)
        # M1 is widened to intp: inverse forms codes M1[d, D] * s2, which
        # would wrap in int16, and _codes indexes lift by a broadcast view of
        # M1's gather, which numpy would convert at full size; the other
        # tables are only indexed or added
        tables = (R1.add, R1.mul.astype(np.intp), R2.add, R2.mul)
        # the ring tables, the element columns, the code table (-1 off the
        # group) and the two powers of pi that the product kernel reads
        self._arrays = (tables, cols, table, R1.pi_pow(dd), R2.pi_pow(dd))
        self.identity_pos = int(self.locate([self.identity])[0])

        # two unipotents u+, u- (conjugation by the diagonal units scales b
        # and c by units, whose sums fill R2) and diag(u, 1) for generators
        # u of units(R1): on a square type, GL2 of a local ring, conjugating
        # u+, u- by diag(u, 1) gives e12(u) and e21(u^-1), and every element
        # reduces to diag(det, 1) by those; non-square types add diag(1, v)
        # for generators v of units(R2), since a mod pi^(l1-l2) and det
        # need both diagonals
        up, low = (1, 1, 0, 1), (1, 0, 1, 1)
        U1, U2 = unit_group(R1), unit_group(R2)
        self.gens = [up, low] + [(u, 0, 0, 1)
                                 for u in U1.codes[U1.gen_idx].tolist()]
        if not self.rect:
            self.gens += [(1, 0, 0, v) for v in U2.codes[U2.gen_idx].tolist()]

    @property
    def order(self):
        return len(self._arrays[1][0])

    @property
    def gen_idx(self):
        return self.locate(self.gens)

    def _class_partition(self):
        """Span check and conjugacy classes in one streamed pass over the
        generators g: the right translation x -> x * g is hooked into the
        span labels while the span falls short of the group, then
        left-translated by g^-1 and that conjugation hooked into the class
        labels.  On a full span, the orbits of conjugation by the generators
        are the classes.  At most two translations are alive: 2s
        translations for s generators."""
        name, n, gi = self.name, self.order, self.gen_idx
        inv = self.inverse(gi)
        e = self.identity_pos
        span = np.arange(n, dtype=np.int32)
        cls = span.copy()
        for j in range(len(gi)):
            P = self._translate(None, gi[j], left=False)
            if not (span == span[e]).all():
                span = hook(span, P, "%s: right multiplication by generator "
                            "%d" % (name, j))
            P = self.right_mul(inv[j], P)
            cls = hook(cls, P, "%s: conjugation by generator %d" % (name, j))
            del P
        size = int(np.count_nonzero(span == span[e]))
        _check(size == n, "%s: elements spanned by the generators" % name, n,
               size)
        return label_orbits(cls)[1:]

    def commutator_subgroup(self):
        self._classes()  # the class pass certifies the generators' span
        return super().commutator_subgroup()

    def elements_at(self, pos):
        """4-tuples of the elements at pos, from the columns."""
        return list(zip(*(c[pos].tolist() for c in self._arrays[1])))

    @property
    def class_reps(self):
        """The 4-tuples of the class representatives."""
        return self.elements_at(self.rep_idx)

    def mul(self, x, y):
        """The product of two 4-tuples, for tests; it stays because
        perfbench/spans.py's count mode wraps self.mul on every AutGroup."""
        i, j = self.positions(self.locate([x, y]))
        return self.elements_at([self.right_mul(i, j)])[0]

    def locate(self, elems):
        """Element indices of 4-tuples through the code table, -1 for a
        tuple that is no element; no tuple -> index dict is kept."""
        E = np.array(elems, dtype=np.int64).reshape(-1, 4).T
        dims = (self.s1, self.s2, self.s2, self.s2)
        ok = ((E >= 0) & (E < np.array(dims)[:, None])).all(axis=0)
        code = np.ravel_multi_index(E, dims, mode="clip")
        return np.where(ok, self._arrays[2][code], -1).astype(np.intp)

    @cached_property
    def _mul_tables(self):
        """The product kernel's tables, built once from the ring tables, for
        level-l2 pairs (x, y), (X, Y), a level-l1 u and a level-l2 z:
        dot[x*s2 + y, X*s2 + Y] = x*X + y*Y and low[same] = y*Y +
        pi^(l1-l2)*x*X at level l2, and lift[u, z] = u + pi^(l1-l2)*z at
        level l1: s1*s2 + 2*s2^4 entries in all."""
        A1, M1, A2, M2 = self.R1.add, self.R1.mul, self.R2.add, self.R2.mul
        _, _, _, d1c, d2c = self._arrays
        xX, yY = M2[:, None, :, None], M2[None, :, None, :]
        s = self.s2 * self.s2
        return (A2[xX, yY].reshape(s, s), A2[M2[d2c, xX], yY].reshape(s, s),
                A1[:, M1[d1c, :self.s2]].astype(np.int32))

    @cached_property
    def _lines(self):
        """Each element's codes a*s2 + b, c*s2 + d (its rows) and a*s2 + c,
        b*s2 + d (its columns), which the translations read, in the
        narrowest unsigned dtype that holds them."""
        a, b, c, d = self._arrays[1]
        s2, dt = self.s2, np.min_scalar_type(self.s1 * self.s2 - 1)
        return tuple(x.astype(dt) for x in (a * s2 + b, c * s2 + d,
                                            a * s2 + c, b * s2 + d))

    def right_mul(self, idx, h):
        """Element indices of elements[idx] * elements[h]; idx and h are
        index arrays that broadcast together.  A product by one element, on
        either side, takes _translate; an array-by-array product the
        coordinate kernel _kernel_mul."""
        if np.ndim(h) == 0:
            return self._translate(idx, h, left=False)
        if np.ndim(idx) == 0:
            return self._translate(h, idx, left=True)
        return self._kernel_mul(idx, h)

    def _codes(self, a, b, c, d, A, B, C, D):
        """The product codes of (a, b, c, d) * (A, B, C, D), coordinate
        arrays that broadcast together, int32: ((lift[a*A, b*C]*s2 +
        dot[(a, b), (B, D)])*s2 + dot[(c, d), (A, C)])*s2 + low[(c, d),
        (B, D)] with the 2-D tables of _mul_tables.  The row and column
        operands are formed on the inputs before they meet.  The lift
        gather is read at the full broadcast shape (its row index, from the
        intp M1, a broadcast view) and the other gathers are added to it in
        place, so no full-size index array or sum temporary is formed."""
        (_, M1, _, M2), _, _, _, _ = self._arrays
        dot, low, lift = self._mul_tables
        s2 = self.s2
        shape = np.broadcast(a, b, c, d, A, B, C, D).shape
        cd, BD = c * s2 + d, B * s2 + D
        code = lift[np.broadcast_to(M1[a, A], shape), M2[b, C]]
        code *= s2
        code += dot[a % s2 * s2 + b, BD]
        code *= s2
        code += dot[cd, A % s2 * s2 + C]
        code *= s2
        code += low[cd, BD]
        return code

    def _kernel_mul(self, idx, h):
        """The coordinate kernel of right_mul: _codes on the columns of
        the elements idx and h."""
        cols = self._arrays[1]
        return self._element_at(self._codes(*(x[idx] for x in cols),
                                            *(x[h] for x in cols)))

    def _translation_tables(self, g, left):
        """(t1, t2, u1, u2): the product code of y * g (left False) or
        g * y (left True) is t1[u1[y]] + t2[u2[y]], for one element g or
        stacked over an array of them (t1[..., u1[y]] + t2[..., u2[y]]).
        They are _codes on line elements: y * g = (a, b, 0, 0) * g +
        (0, 0, c, d) * g in codes, and g * y = g * (A, 0, C, 0) + g * (0, B,
        0, D), since a zero line adds nothing to any gather (lift[0, 0] and
        dot and low of a zero pair are 0).  So the tables are the kernel on
        the grids of y's row (a, b), then (c, d), resp. column (A, C), then
        (B, D), against g's columns, shaped (..., 1, 1) when stacked: s1*s2
        and s2^2 int32 entries per g, read at y's line codes u1, u2
        (_lines)."""
        s1, s2 = self.s1, self.s2
        g = [x[g][..., None, None] if np.ndim(g) else x[g]
             for x in self._arrays[1]]
        # a line's first coordinate at level l1 (i) or l2 (k), its second (j)
        i, k, j = np.arange(s1)[:, None], np.arange(s2)[:, None], np.arange(s2)
        if left:
            t1 = self._codes(*g, i, 0, j, 0)
            t2 = self._codes(*g, 0, k, 0, j)
            u1, u2 = self._lines[2:]
        else:
            t1 = self._codes(i, j, 0, 0, *g)
            t2 = self._codes(0, 0, k, j, *g)
            u1, u2 = self._lines[:2]
        return (t1.reshape(t1.shape[:-2] + (-1,)),
                t2.reshape(t2.shape[:-2] + (-1,)), u1, u2)

    def _translate(self, y, g, left):
        """Element indices of y * g (left False) or g * y (left True) for
        one element g, from its _translation_tables, built on first use and
        kept per (g, side); y None for every element, read at the line
        codes themselves."""
        t1, t2, u1, u2 = _once(self, ("translation", int(g), left),
                               lambda: self._translation_tables(g, left))
        if y is not None:
            u1, u2 = u1.take(y), u2.take(y)
        return self._element_at(t1.take(u1) + t2.take(u2))

    def inverse(self, ridx):
        """Element indices of the inverses, in closed form: with Delta =
        (a*d - pi^(l1-l2)*b*c)^-1 at level l1 (b, c, d lift as their codes),
        (a, b, c, d)^-1 = (d*Delta, -b*Delta, -c*Delta, a*Delta), the last
        three reduced to level l2: the adjugate over the lift of d, whose
        product with g is the identity at both levels."""
        (_, M1, _, _), cols, _, _, _ = self._arrays
        N1 = self.R1.neg
        a, b, c, d = (x[ridx] for x in cols)
        D = self.R1.inv[self._det(a, b, c, d)]
        s2 = self.s2
        code = (M1[d, D] * s2 + N1[M1[b, D]] % s2) * s2 + N1[M1[c, D]] % s2
        return self._element_at(code * s2 + M1[a, D] % s2)

    def _det(self, a, b, c, d):
        """The determinant a*d - pi^(l1-l2)*b*c at level l1 of coordinate
        arrays, b, c and d lifted as their codes: inverse reads it, and
        hom("det") reads it mod s2, which is its level-l2 value."""
        (A1, M1, _, _), _, _, d1c, _ = self._arrays
        return A1[M1[a, d], self.R1.neg[M1[d1c, M1[b, c]]]]

    def _element_at(self, code):
        """Element indices of codes, as intp; raises on -1 rather than wrap
        around."""
        out = self._arrays[2].take(code)
        if (out < 0).any():
            raise ValueError("%s: %d results are not group elements"
                             % (self.name, int((out < 0).sum())))
        return out.astype(np.intp)

    def hom(self, kind, idx, m=0):
        """(Q, images): element indices in Q of the root indices idx under
        the map kind, column-wise; Q is one object per (kind, m).  floor:
        onto type (l1-1, l2-1).  embed, quot: from the depth-m stabilisers
        (val(c), resp. val(b), >= l2-m) onto type (l1, m).  diag: (a, d) of
        the parabolics onto torus.  diag_red: (a mod pi^(l1-1), d) of type
        (l1, 1).  det: onto the codes of Q = R2.  Off the domain: _check."""
        a, b, c, d = (x[idx] for x in self._arrays[1])
        q, l1, l2 = self.q, self.l1, self.l2
        if kind == "det":
            return self.R2, self._det(a, b, c, d) % self.s2
        if kind in ("diag", "diag_red"):
            off = int(((b != 0) & (c != 0)).sum()) if kind == "diag" else 0
            _check(not off, "hom diag: elements with b and c both nonzero",
                   0, off)
            _check(kind == "diag" or l2 == 1, "hom diag_red: level l2", 1, l2)
            lv = l1 if kind == "diag" else l1 - 1
            T = _once(self, ("torus", lv), lambda: direct_product(unit_group(
                make_ring(self.backend, q, lv)), unit_group(self.R2)))
            U1, U2 = T.factors
            return T, (code_positions(U1, a % q ** lv, "hom " + kind)
                       * U2.order + code_positions(U2, d, "hom " + kind))
        if kind == "floor":
            if l2 < 2:
                raise ValueError("floor reduction stops at column levels %r"
                                 % (self.lam,))
            Q, s1, s2 = (aut_group(self.backend, q, (l1 - 1, l2 - 1)),
                         q ** (l1 - 1), q ** (l2 - 1))
            a, b, c, d = a % s1, b % s2, c % s2, d % s2
        elif kind in ("embed", "quot"):
            emb = kind == "embed"
            v = self.R2.val[c if emb else b]
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
        with 1 or 0), plus one condition for scalars and the cuspidal pair."""
        i, sigma, m = kw.get("i", 0), kw.get("sigma", 0), kw.get("m", 0)
        u, w = kw.get("u_hat"), kw.get("w_hat")
        return _once(self, ("subgroup", tag, i, sigma, m, u, w),
                     lambda: self._subgroup(tag, i, sigma, m, u, w))

    def _subgroup(self, tag, i, sigma, m, u, w):
        l1, l2, s2 = self.l1, self.l2, self.s2
        l, eps = self.half_levels()
        if tag == "congruence" and not (0 <= sigma <= 1 and sigma <= i <= l2):
            raise ValueError("congruence depth (%d,%d) out of range" % (i, sigma))
        if tag == "heisenberg" and l2 != 1:
            raise ValueError("heisenberg subgroup lives over column levels (l,1)")
        depths = {
            "congruence": (l1 - i, l2 - i, l2 - i + sigma, l2 - i + sigma),
            "parabolic_upper": (0, 0, l2, 0),
            "parabolic_lower": (0, l2, 0, 0),
            "parabolic_embed": (0, 0, l2 - m, 0),
            "parabolic_quot": (0, l2 - m, 0, 0),
            "ker_embed": (l1, m, l2, m), "ker_quot": (l1, l2, m, m),
            "unipotent_upper": (l1, 0, l2, l2),
            "unipotent_lower": (l1, l2, 0, l2),
            "floor_torus_a": (l1 - 1, l2, l2, l2),
            "scalars": (0, l2, l2, 0),
            "heisenberg": (l1 - 1, 0, 0, l2),
            "cuspidal_abelian": (0, 0, 0, 0), "cuspidal_normalizer": (0, 0, 0, 0),
        }
        if tag not in depths:
            raise ValueError("unknown subgroup tag %r" % (tag,))
        (A1, _, A2, M2), (a, b, c, d), _, _, _ = self._arrays
        V1, V2, N2 = self.R1.val, self.R2.val, self.R2.neg
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
        return Subgroup(self, idx, name=tag)

    def half_levels(self):
        """(l, eps) with l2 = 2l - eps: the depth at which cuspidal data lives."""
        eps = self.l2 % 2
        return ((self.l2 + eps) // 2, eps)


class Subgroup(GroupBase):
    """Subgroup given by idx, the sorted root indices of its members (the
    root's lexicographic order)."""

    def __init__(self, parent, idx, name=""):
        self.parent, self.idx = parent, idx
        self.name = (parent.name + "." + name) if name else parent.name + ".sub"
        self.gen_idx = greedy_generators(self)  # refuses a list that is no group
        self.identity_pos = int(self.positions(self.root.identity_pos))

    @property
    def root(self):
        return self.parent.root

    @property
    def order(self):
        return len(self.idx)

    @cached_property
    def root_cls(self):
        """The root group's class index of each member, by position."""
        return self.root.cls_of[self.idx]

    def pullback(self, kind, m=0):
        """(Q, img, Q.cls_of[img]): the members' images under the root's
        map kind onto Q (AutGroup.hom) and their classes there, cached per
        (kind, m)."""
        def build():
            Q, img = self.root.hom(kind, self.idx, m)
            return Q, img, Q.cls_of[img]
        return _once(self, ("pullback", kind, m), build)


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
        G = unit_group(make_ring(backend, q, l1))
        G.name = "Aut(%s,q=%d,%s)" % (backend, q, (l1, 0))
        G.backend, G.q, G.lam = backend, q, (l1, 0)
        G.rect = False
        return G
    return AutGroup(backend, q, lam)
