"""Arithmetic in truncated discrete valuation rings with finite residue field.

Two backends realize rings of size q^level with residue field F_q:

  padic  -- Z/p^level, uniformizer p, q = p prime
  tpoly  -- F_q[t]/(t^level), uniformizer t, q = p^f any prime power

Elements are integer codes in [0, q^level).  padic codes are the canonical
residues; tpoly codes are base-q digit strings of F_q element codes with the
constant coefficient in the lowest digit.  Under this encoding both backends
share the same shift arithmetic: reduction to level m is x % q**m, the
canonical lift between levels of one tower is the identity on codes, and
multiplication by the uniformizer is x * q, truncated.

A character of a finite abelian group has one form, its exponent row:
(E, L) with chi_t(a) = zeta_E^L[t, a] (character_group, unit_characters,
twisting_characters), psi too (LocalRing.psi_exp).  Two roots of unity are
compared exactly, by exponents (same_root); class functions read zeta_E in
F_r (fr_roots), with products and inverses mod r by _mm and _inverses.

The groups' protocol and orbit engine live here too.  Groups are handled
by element index alone (FiniteGroup); no group keeps a list of elements.
orbit_partition and hook label orbits from permutations of positions taken
one at a time (a sweep makes, hooks and drops each before the next), and
pointer jumping gathers through ndarray.take, which skips the index
conversion that fancy indexing with int32 labels makes.
"""

import math
from functools import cached_property, lru_cache

import numpy as np

BACKENDS = ("padic", "tpoly")


def _check(ok, what, expected, computed):
    """Invariant check that survives python -O."""
    if not ok:
        raise AssertionError("%s: expected %s, computed %s"
                             % (what, expected, computed))


def _once(obj, key, build):
    """build(), kept on obj under key on first use: data derived from obj
    alone (keyed by the prime where it holds values)."""
    memo = vars(obj).setdefault("_memo", {})
    if key not in memo:
        memo[key] = build()
    return memo[key]


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q):
    """Split q = p^f with p prime, or raise."""
    if q < 2:
        raise ValueError("residue size must be >= 2")
    p = 2
    while q % p:
        p += 1
    f = 0
    m = q
    while m % p == 0:
        m //= p
        f += 1
    if m != 1:
        raise ValueError("residue size %d is not a prime power" % q)
    return p, f


def residue_size(backend, q):
    """(p, f) with q = p^f, the residue size of a backend's rings, or
    ValueError: the backend must be known, q a prime power, prime for
    padic."""
    if backend not in BACKENDS:
        raise ValueError("unknown backend %r" % (backend,))
    p, f = prime_power(q)
    if backend == "padic" and f != 1:
        raise ValueError("padic backend requires prime residue size, got %d" % q)
    return p, f


def _digits(x, base, n):
    return [x // base ** i % base for i in range(n)]


def _poly_sums(cadd, cmul, n):
    """(add, sm) of C[t]/(M) on codes of n base-b digits, the constant
    coefficient lowest, for the coefficient ring C with b x b tables cadd,
    cmul and any M monic of degree n: sums and the scalar rows sm[a] = a * y
    act digit by digit, so each table takes one more digit per step by
    broadcasting."""
    b = len(cadd)
    add, sm = cadd, cmul
    for _ in range(n - 1):
        add = (add[:, None, :, None] * b + cadd[None, :, None, :]).reshape(
            len(add) * b, -1)
        sm = (sm[:, :, None] * b + cmul[:, None, :]).reshape(b, -1)
    return add, sm


def _times_t(add, sm, top):
    """t * c for each code c of C[t]/(M), from the tables of _poly_sums on
    n digits, t^n = top mod M (a code; 0 for M = t^n)."""
    b, s = sm.shape
    c = np.arange(s)
    return add[c % (s // b) * b, sm[c // (s // b), top]]


def _next_digit(add, sm, shift, rows):
    """The product rows of the x0 + t x' for each row of an x' and each
    digit x0, in code order: x y = x0 y + t (x' y), gathered from the flat
    add table about 2^18 entries at a time (faster than add[i, j] with two
    broadcast index arrays)."""
    b, s = sm.shape
    flat, at = add.ravel(), sm.astype(np.intp) * s
    out = np.empty((len(rows), b, s), dtype=np.int16)
    step = max(1, (1 << 18) // (b * s))
    for i in range(0, len(rows), step):
        out[i:i + step] = flat[at + shift[rows[i:i + step, None]]]
    return out.reshape(-1, s)


def _poly_mul(add, sm, top, d):
    """The product rows of the x with at most d digits in C[t]/(M) (the
    arguments of _times_t): the rows of the x with k digits come from those
    of the x' with k - 1 digits, one gather per digit."""
    b, s = sm.shape
    shift = _times_t(add, sm, top)
    mul = np.empty((b ** d, s), dtype=np.int16)
    mul[:b] = sm
    for k in range(1, d):
        lo, hi = b ** (k - 1), b ** k
        mul[hi:hi * b] = _next_digit(add, sm, shift, mul[lo:hi])
    return mul


def _reducible(add, sm, top, f):
    """Whether M of degree f (the arguments of _times_t) has a monic factor
    A of degree 1 to f/2, read as a zero off the column of 0 in the product
    rows of those A (A * B = 0 for B = M / A).  The rows of the A of each
    degree come from those of one degree less, from the row of 1."""
    shift, rows = _times_t(add, sm, top), np.arange(sm.shape[1])[None]
    for _ in range(f // 2):
        rows = _next_digit(add, sm, shift, rows)
        if not rows[:, 1:].all():
            return True
    return False


def _solve(table, e):
    """y with table[x, y[x]] = e for each x, and y[x] = 0 where there is no
    such entry (the inverse of a non-unit)."""
    return (table == e).argmax(axis=1).astype(np.int16)


class FiniteField:
    """F_q as int16 tables on codes: the base-p digits of a code are its
    coefficients, the constant one lowest, modulo the first monic M of
    degree f in code order with no monic factor of degree 1 to f/2
    (_reducible): F_p[t]/(M) is a field exactly when M is irreducible."""

    def __init__(self, q):
        p, f = prime_power(q)
        self.p, self.f, self.q = p, f, q
        # F_p's tables 256 rows at a time in int32 (p^2 < 2^24): no p x p
        # temporary, and for f = 1 the product table is mul itself, uncopied
        x, add, mul = np.arange(p, dtype=np.int32), *np.empty(
            (2, p, p), dtype=np.int16)
        for lo in range(0, p, 256):
            y = x[lo:lo + 256, None]
            add[lo:lo + 256], mul[lo:lo + 256] = (y + x) % p, y * x % p
        self.add, sm = _poly_sums(add, mul, f)
        for c in range(q):
            m = _digits(c, p, f)  # M = t^f + m, t^f = -m
            top = sum(-a % p * p ** i for i, a in enumerate(m))
            if not _reducible(self.add, sm, top, f):
                break
        self.mul = _poly_mul(self.add, sm, top, f) if f > 1 else sm
        self.modulus = m + [1] if f > 1 else None
        self.neg, self.inv = _solve(self.add, 0), _solve(self.mul, 1)
        # Tr(x) = x + x^p + ... + x^(p^(f-1)), landing in the prime field
        t = y = np.arange(q)
        for _ in range(f - 1):
            z = y
            for _ in range(p - 1):
                z = self.mul[z, y]
            t, y = self.add[t, z], z
        bad = np.flatnonzero(t >= p)
        _check(not bad.size, "F_%d: traces in the prime field" % q,
               "below %d" % p, dict(zip(bad.tolist(), t[bad].tolist())))
        self.trace = t.astype(np.int16)


MAX_RING_SIZE = 4096


class LocalRing:
    """One level of a backend tower: add, mul, neg, inv (0 at non-units)
    and val as int16 tables on codes, which are below MAX_RING_SIZE."""

    def __init__(self, backend, q, level):
        p, f = residue_size(backend, q)
        if level < 1:
            raise ValueError("level must be >= 1")
        self.backend, self.q, self.level = backend, q, level
        self.p, self.f = p, f
        self.size = s = q ** level
        if s > MAX_RING_SIZE:
            raise ValueError("ring size %d exceeds the table-arithmetic bound %d"
                             % (s, MAX_RING_SIZE))
        c = np.arange(s, dtype=np.int16)
        if backend == "padic":
            self.field = None
            # codes are below 2^12: sums stay in int16, and products are
            # taken in int32 for 512 rows at a time
            self.add = np.add.outer(c, c) % s
            self.mul = np.empty((s, s), dtype=np.int16)
            for i in range(0, s, 512):
                self.mul[i:i + 512] = np.multiply.outer(
                    c[i:i + 512].astype(np.int32), c) % s
        else:
            self.field = FiniteField(q)
            self.add, sm = _poly_sums(self.field.add, self.field.mul, level)
            self.mul = _poly_mul(self.add, sm, 0, level)
        self.neg, self.inv = _solve(self.add, 0), _solve(self.mul, 1)
        self.val = sum(c % q ** j == 0 for j in range(1, level + 1)).astype(
            np.int16)
        self.units = tuple(np.flatnonzero(self.val == 0).tolist())
        _check(len(self.units) == q ** (level - 1) * (q - 1),
               "units of the level-%d ring" % level,
               q ** (level - 1) * (q - 1), len(self.units))

    def pi_pow(self, j):
        return self.q ** j % self.size if j < self.level else 0

    def pi_mul(self, x, j):
        """x * pi^j on codes, 0 <= j <= level (scalars or int16 arrays): the
        low digits move up by j, with no product above the ring size."""
        return x % (self.size // self.q ** j) * self.q ** j

    @cached_property
    def one_plus(self):
        """The principal congruence units 1 + pi^(level-1) s, s = 0, ..., q-1
        in s order (1 first); level >= 2."""
        if self.level < 2:
            raise ValueError("principal congruence units need level >= 2")
        layer = self.add[1, self.pi_mul(np.arange(self.q), self.level - 1)]
        units = np.array(self.units)
        found = units[self.val[self.add[units, self.neg[1]]] >= self.level - 1]
        _check(sorted(layer.tolist()) == found.tolist(),
               "principal congruence units at level %d" % self.level,
               found.tolist(), sorted(layer.tolist()))
        return tuple(layer.tolist())

    @cached_property
    def psi_exp(self):
        """(M, e): a fixed primitive additive character at this level is
        psi(x) = zeta_M^e[x] on codes x: x / q^level for padic, the trace
        of the sum of the digits for tpoly; e is int16, as the codes."""
        if self.backend == "padic":
            return self.size, np.arange(self.size, dtype=np.int16)
        c, q = np.arange(self.size), self.q
        t = sum(self.field.trace[c // q ** j % q] for j in range(self.level))
        return self.p, t % self.p


@lru_cache(maxsize=None)
def make_ring(backend, q, level):
    return LocalRing(backend, q, level)


def greedy_generators(G):
    """Root indices of a small generating list: the first element outside
    the span of those kept so far, the identity's orbit under right
    multiplication by them, whose labels take in one move per kept
    generator (hook).  ValueError if the identity is missing, from hook if
    the members are not closed, or if the identity times a member is
    another element (the span would never grow)."""
    R, idx = G.root, G.idx
    pos = np.full(R.order, -1, dtype=np.int32)
    pos[idx] = np.arange(len(idx), dtype=np.int32)
    e = pos[R.identity_pos]
    if e < 0:
        raise ValueError("%s misses the identity" % G.name)
    found, lab = [], np.arange(len(idx), dtype=np.int32)
    while not (span := lab == lab[e]).all():
        found.append(int(np.argmin(span)))
        P = pos[R.right_mul(idx, idx[found[-1]])]
        lab = hook(lab, P, "%s: right multiplication by member %d"
                   % (G.name, found[-1]))
        if P[e] != found[-1]:
            raise ValueError("%s: the identity times member %d is member %d"
                             % (G.name, found[-1], P[e]))
    return idx[np.array(found, dtype=np.intp)]


def hook(lab, P, name="move"):
    """Orbit labels lab (each the least position of its orbit) merged
    along the move P, a permutation of the positions, by hooking after
    Shiloach and Vishkin: each round hooks the larger label across an edge
    x -> P[x] onto the least one met (np.minimum.at), at least one per
    round, and pointer jumping flattens the labels.  lab may be
    overwritten.  ValueError, naming the move, if an image is off the
    points (-1) or repeated."""
    P = np.asarray(P, dtype=np.intp)
    n = len(lab)
    if (P < 0).any():
        raise ValueError("%s sends %d of the %d points off them: they are "
                         "not closed under the moves"
                         % (name, int((P < 0).sum()), n))
    # n images, all below n, that hit every point hit each once: a bool
    # mask, not an int64 bincount (38.7 MB on 4.8 M points), decides it
    hit = np.zeros(n, dtype=bool)
    if len(P) == n and (not n or P.max() < n):
        hit[P] = True
    if len(P) != n or not hit.all():
        hits = np.bincount(P, minlength=n)
        raise ValueError("%s is not a permutation of the %d points: %d of "
                         "them are not hit once" % (name, n,
                                                    int((hits != 1).sum())))
    while True:
        a, b = lab, lab[P]
        cut = a != b
        if not cut.any():
            return lab
        a, b = a[cut], b[cut]
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        # take: fancy indexing would first convert the int32 labels
        while not ((nxt := lab.take(lab)) == lab).all():
            lab = nxt


def label_orbits(lab):
    """(first, sizes, orbit_of) of hooked labels lab (each the least
    position of its orbit): the first position of each orbit, the orbit
    sizes, and each position's orbit, numbered in the order of the firsts."""
    is_first = lab == np.arange(len(lab))
    orbit_of = (np.cumsum(is_first) - 1)[lab]
    first = np.flatnonzero(is_first).tolist()
    return first, np.bincount(orbit_of).tolist(), orbit_of


def orbit_partition(points, perms):
    """Orbits of points under permutations of their positions (integer
    arrays, or an iterator of them, which is read one at a time): (reps,
    sizes, orbit_of), each representative the first of its orbit in points
    and orbits numbered in that order.  Labels start as the positions and
    take in one move at a time (hook, which refuses a move off the points
    or no permutation); a merge never parts two points, so one pass over
    the moves suffices."""
    lab = np.arange(len(points), dtype=np.int32)
    for j, P in enumerate(perms):
        lab = hook(lab, P, "move %d" % j)
    first, sizes, orbit_of = label_orbits(lab)
    return [points[j] for j in first], sizes, orbit_of


class FiniteGroup:
    """Orbit sweeps and the class-function protocol on element positions,
    through the root group's right_mul.  Classes are computed once, on
    first use."""

    @property
    def root(self):
        """The group whose right_mul serves this group's sweeps."""
        return self

    @cached_property
    def idx(self):
        """Sorted root indices of the elements."""
        return np.arange(self.order)

    @cached_property
    def gen_idx(self):
        """Root indices of generators, by greedy_generators."""
        return greedy_generators(self)

    def ridx(self, pos):
        """Root indices of the elements at the positions pos."""
        return pos if self.root is self else self.idx[pos]

    def positions(self, ridx):
        """Positions of the root indices ridx; ValueError for non-members.
        On a root group idx is arange(order), so positions are ridx."""
        if self.root is self:
            r = np.asarray(ridx)
            if ((r < 0) | (r >= self.order)).any():
                raise ValueError("%s: root elements are not members"
                                 % self.name)
            return ridx
        pos = np.minimum(np.searchsorted(self.idx, ridx), len(self.idx) - 1)
        if (self.idx[pos] != ridx).any():
            raise ValueError("%s: root elements are not members" % self.name)
        return pos

    @cached_property
    def powers(self):
        """(exponent, inv_cls): the exponent and the class of the inverses
        of each class, from one power sweep of the class representatives."""
        order, inv = self.root.power_sweep(self.rep_idx)
        return math.lcm(*order.tolist()), self.cls_of[self.positions(inv)]

    def power_sweep(self, ridx):
        """(orders, inverses) of the elements ridx of this root group, from
        one power sweep through right_mul: x^m for m = 1, 2, ... until every
        entry is the identity; the inverse of x is x^(order - 1)."""
        x = ridx = np.asarray(ridx, dtype=np.intp)
        e, n = self.identity_pos, len(ridx)
        order, inv = np.zeros(n, dtype=np.int64), np.empty(n, dtype=np.intp)
        prev, m = np.full(n, e), 1
        while True:
            new = (x == e) & (order == 0)
            order[new], inv[new] = m, prev[new]
            if order.all():
                return order, inv
            prev, x, m = x, self.right_mul(x, ridx), m + 1

    def sweep(self, moves, idx=None):
        """orbit_partition of the positions of the root elements idx (sorted
        root indices, by default this group's elements) under x -> l * x * r
        for each move (l, r) of root indices, l None for the identity:
        permutations from the root group's right_mul and a root-to-point
        lookup, both for this sweep only.  The permutations are made and
        hooked one at a time."""
        R = self.root
        if idx is None:
            idx = self.idx if R is not self else np.arange(R.order)
        pos = None
        if len(idx) < R.order:
            pos = np.full(R.order, -1, dtype=np.int32)
            pos[idx] = np.arange(len(idx), dtype=np.int32)

        def perms():  # one at a time: each is dropped once it is hooked
            for l, r in moves:
                y = R.right_mul(idx, r)
                if l is not None:
                    y = R.right_mul(l, y)
                yield y if pos is None else pos[y]
        return orbit_partition(range(len(idx)), perms())

    @property
    def cls_of(self):
        """Class index of each element, by position."""
        return self._classes()[1]

    @cached_property
    def rep_idx(self):
        """Root indices (on a root group also positions) of the class
        representatives, the first member of each class in class order."""
        cls = self.cls_of
        return self.ridx(np.flatnonzero(np.diff(np.maximum.accumulate(cls),
                                                prepend=-1)))

    def _compute_classes(self):
        """Every element its own class."""
        n = self.order
        return np.ones(n, dtype=np.int64), np.arange(n, dtype=np.int64)

    def _classes(self):
        """(class sizes, class index of each position)."""
        return _once(self, "classes", self._compute_classes)

    @property
    def class_sizes(self):
        return self._classes()[0]

    @property
    def class_count(self):
        return len(self._classes()[0])

    @property
    def identity_class(self):
        return int(self.cls_of[self.identity_pos])


class TableGroup(FiniteGroup):
    """Finite abelian group on positions 0, ..., n - 1, multiplied through
    its Cayley table (table[i, j] the position of i * j, -1 off the group);
    every element is its own class.  codes, if given, are the elements'
    increasing codes (unit_group's ring codes), which code_positions reads
    back and classes prints."""

    is_abelian = True

    def __init__(self, table, identity_pos, name="", codes=None):
        self.table, self.identity_pos, self.name = table, identity_pos, name
        if codes is not None:
            up = int(np.count_nonzero(np.diff(codes) > 0)) + 1
            _check(len(codes) == len(table) == up, "%s: increasing codes, "
                   "one per element" % name, len(table), up)
        self.codes = codes

    @property
    def order(self):
        return len(self.table)

    @property
    def class_reps(self):
        """The codes of the elements, one per class."""
        return self.codes[self.rep_idx].tolist()

    def right_mul(self, idx, h):
        """Positions of the products idx * h, for index arrays idx and h
        that broadcast together: one table gather.  Raises ValueError if a
        product is not an element."""
        out = self.table[idx, h]
        if (out < 0).any():
            raise ValueError("%s: %d products are not group elements"
                             % (self.name, int((out < 0).sum())))
        return out


def unit_group(ring):
    """The units of ring in code order, 1 first, with their codes; their
    table is the ring's products of units, mapped to positions by one
    searchsorted."""
    U = np.array(ring.units)
    return TableGroup(np.searchsorted(U, ring.mul[np.ix_(U, U)]), 0,
                      "units(%s,%d,%d)" % (ring.backend, ring.q, ring.level),
                      codes=U)


def code_positions(U, x, what):
    """Positions in the TableGroup U of the codes x, by searchsorted; a
    _check names the codes that are not U's."""
    pos = np.minimum(np.searchsorted(U.codes, x), U.order - 1)
    off = x[U.codes[pos] != x]
    _check(not off.size, "%s: codes of %s" % (what, U.name), [],
           sorted(set(off.tolist())))
    return pos


def direct_product(A, B):
    """A x B on the pairs (a, b) at position a * |B| + b, as a TableGroup
    whose table is the Kronecker sum of the factors' tables; factors holds
    (A, B)."""
    n = B.order
    P = TableGroup((A.table[:, None, :, None] * n
                    + B.table[None, :, None, :]).reshape(A.order * n, -1),
                   A.identity_pos * n + B.identity_pos,
                   "(%s)x(%s)" % (A.name, B.name))
    P.factors = (A, B)
    return P


def _powers(mul, x, m, e):
    """Indices of x^0, ..., x^(m-1), by doubling: two mul calls a step."""
    p = np.array([e])
    while len(p) < m:
        p = np.concatenate([p, mul(p, mul(p[-1], x))])
    return p[:m]


def _decompose(A):
    """(gens, orders, E, L) for character_group: A = <g_1> x ... x
    <g_s> by index sweeps.  x of largest order m modulo H = <g_1, ...,
    g_{j-1}> has x^m = prod g_i^c_i with m | c_i (the order of x modulo
    g_1, ..., g_{i-1} divides m_i, the largest order there), so g_j = x
    prod g_i^(-c_i/m) has order m_j = m and <g_j> meets H trivially.  With
    c(a) the exponents of a, L[t, a] = sum_j t_j c_j(a) E/m_j mod E for
    0 <= t_j < m_j.  ValueError if g_j and an earlier generator do not
    commute: the group is not abelian (and H need not be a group)."""
    mul, n, e = A.right_mul, A.order, A.identity_pos
    ar = np.arange(n)
    inH, coord, gens, pows = ar == e, np.zeros((n, 0), np.int64), [], []
    while not inH.all():
        oh, y, k = np.zeros(n, np.int64), ar, 1
        while not oh.all():  # the order of each element modulo H
            oh[(oh == 0) & inH[y]] = k
            y, k = mul(y, ar), k + 1
        x = int(np.argmax(oh))
        m = int(oh[x])
        for p, c in zip(pows, coord[_powers(mul, x, m + 1, e)[-1]].tolist()):
            x = int(mul(x, p[(-c // m) % len(p)]))
        bad = np.flatnonzero(mul(gens, x) != mul(x, gens))
        if bad.size:
            raise ValueError("%s is not abelian: elements %d and %d do not "
                             "commute" % (A.name, gens[bad[0]], x))
        hs = np.flatnonzero(inH)
        gens.append(x)
        pows.append(_powers(mul, x, m, e))
        new = mul(hs[:, None], pows[-1][None, :])
        coord = np.hstack([coord, np.zeros((n, 1), np.int64)])
        coord[new, :-1] = coord[hs, None, :-1]
        coord[new, -1] = np.arange(m)
        inH[new] = True
    orders = [len(p) for p in pows]
    E = math.lcm(*orders)
    t = np.indices(orders).reshape(len(orders), n).T
    return gens, orders, E, t * (E // np.array(orders, np.int64)) @ coord.T % E


def character_group(A):
    """(E, L) of the abelian group A, multiplied by its right_mul: the lcm
    E of the cyclic orders and the exponent rows, chi_t(a) = zeta_E^L[t,
    a] at the element positions a, the trivial row first, L read-only
    (callers share cached rows).  ValueError, naming two elements, if the
    group is not abelian, and from right_mul if a product is not an
    element.  Exact certificate in O(n^2 s) for the s generators, which
    commute (_decompose): their right multiplications sweep one orbit, so
    they generate the group; L[t, e] = 0 and L[t, a g_j] = L[t, a] + L[t,
    g_j] mod E, so each row is a homomorphism onto Z/E; and the n rows are
    distinct, so they are all n characters."""
    gens, _, E, L = _decompose(A)
    n, e, name = A.order, A.identity_pos, A.name
    perms = [A.right_mul(np.arange(n), g) for g in gens]
    sizes = orbit_partition(range(n), perms)[1]
    _check(sizes == [n], "%s: orbits of the generators' right "
           "multiplications" % name, [n], sizes)
    # by element, in a dtype that holds the differences, down to -2E
    T = np.ascontiguousarray(L.T, dtype=np.min_scalar_type(-2 * E))
    off = np.count_nonzero(T[e])
    for g, P in zip(gens, perms):
        D = T[P]
        D -= T
        D -= T[g]
        D %= E
        off += np.count_nonzero(D)
    _check(not off, "entries of L[t, a g] off L[t, a] + L[t, g] mod E, and "
           "of L[t, 1] off 0, on %s" % name, 0, off)
    distinct = len({row.tobytes() for row in L})
    _check(distinct == len(L) == n, "distinct characters of %s" % name, n,
           distinct)
    L.setflags(write=False)
    return E, L


def _inverses(x, r):
    """Elementwise inverses mod r, 0 for 0."""
    return np.array([pow(v, -1, r) if v else 0 for v in x.tolist()],
                    dtype=np.int64)


def _mm(A, B, r=None):
    """A @ B (mod r if given, as int64), of matrices or stacks, by float64
    BLAS at every size: exact while every dot product stays below 2^53
    (callers bound r)."""
    P = np.asarray(A, dtype=np.float64) @ np.asarray(B, dtype=np.float64)
    return P if r is None else P.astype(np.int64) % r


@lru_cache(maxsize=None)
def fr_roots(E, r):
    """zeta_E^j in F_r for j < E, read-only, zeta_E = g^((r-1)/E) for the
    least primitive root g mod the prime r: one reduction of Z[zeta_N] for
    all E | r - 1, so zeta_E^a = zeta_M^b in F_r exactly when same_root
    says so.  _check refuses an E not dividing r - 1.  g is the least g
    with g^((r-1)/p) != 1 for every prime p | r - 1."""
    _check((r - 1) % E == 0, "roots of unity of order E = %d in F_%d: r - 1 "
           "mod E" % (E, r), 0, (r - 1) % E)
    m = r - 1
    ps = [p for p in range(2, math.isqrt(r) + 1) if m % p == 0 and is_prime(p)]
    for p in ps:
        while m % p == 0:
            m //= p
    ps += [m] * (m > 1)  # at most one prime factor above sqrt(r)
    g = next(g for g in range(1, r)
             if all(pow(g, (r - 1) // p, r) != 1 for p in ps))
    z = pow(g, (r - 1) // E, r)
    out = np.array([pow(z, j, r) for j in range(E)], dtype=np.int64)
    out.setflags(write=False)
    return out


def same_root(E, a, M, b):
    """Whether zeta_E^a = zeta_M^b, exactly and elementwise (a, b integer
    arrays that broadcast together): a M = b E mod E M."""
    return (np.asarray(a, np.int64) * M - np.asarray(b, np.int64) * E) % (
        E * M) == 0


@lru_cache(maxsize=None)
def unit_characters(ring):
    """character_group(unit_group(ring)), columns as ring.units, once."""
    return character_group(unit_group(ring))


def at_one_plus(ring, L):
    """The columns of unit-character rows L at the principal congruence
    units ring.one_plus, in their order."""
    return L[:, np.searchsorted(ring.units, ring.one_plus)]


@lru_cache(maxsize=None)
def twisting_characters(ring):
    """(E, L): the q unit characters whose row zh restricts to s ->
    psi(zh s) on the principal units 1 + pi^(level-1) s (row 0 trivial),
    matched by exponents, computed once per ring."""
    E, L = unit_characters(ring)
    at = at_one_plus(ring, L)  # ValueError below level 2
    r1 = make_ring(ring.backend, ring.q, 1)
    M, e = r1.psi_exp
    want = e[r1.mul]  # psi(zh s) = zeta_M^want[zh, s]
    ext = same_root(E, at[None], M, want[:, None]).all(axis=2)
    n = len(ring.units) // ring.q  # the extensions of each pattern
    for zh, count in enumerate(ext.sum(axis=1).tolist()):
        _check(count == n, "unit characters extending the level-1 pattern %d"
               % zh, n, count)
    rows = L[ext.argmax(axis=1)]
    rows.setflags(write=False)
    return E, rows
