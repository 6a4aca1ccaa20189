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
"""

import math
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

TOL = 1e-6    # near-integer tolerance for character sums
MTOL = 1e-9   # equality tolerance for unit-circle values

BACKENDS = ("padic", "tpoly")


def _check(ok, what, expected, computed):
    """Invariant check that survives python -O."""
    if not ok:
        raise AssertionError("%s: expected %s, computed %s"
                             % (what, expected, computed))


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


def _digits(x, base, n):
    out = []
    for _ in range(n):
        out.append(x % base)
        x //= base
    return out


def _poly_divmod(a, b, p):
    """Little-endian polynomial division over F_p; b monic."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    quo = [0] * max(da - db + 1, 1)
    for i in range(da - db, -1, -1):
        c = a[i + db] % p
        if c:
            quo[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return quo, a[:db] if db else [0]


def _poly_irreducible(m, p):
    """Brute irreducibility over F_p: no monic divisor of degree 1..deg/2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            cand = _digits(code, p, d) + [1]
            _, rem = _poly_divmod(m, cand, p)
            if not any(rem):
                return False
    return True


class FiniteField:
    """F_q table arithmetic; modulus is the first monic irreducible in code order."""

    def __init__(self, q):
        p, f = prime_power(q)
        self.p, self.f, self.q = p, f, q
        if f == 1:
            self.modulus = None
            self.add = [[(x + y) % p for y in range(p)] for x in range(p)]
            self.mul = [[(x * y) % p for y in range(p)] for x in range(p)]
        else:
            for code in range(q):
                m = _digits(code, p, f) + [1]
                if _poly_irreducible(m, p):
                    self.modulus = m
                    break
            add = []
            mul = []
            for x in range(q):
                dx = _digits(x, p, f)
                add.append([self._encode([(a + b) % p for a, b in zip(dx, _digits(y, p, f))])
                            for y in range(q)])
                row = []
                for y in range(q):
                    dy = _digits(y, p, f)
                    prod = [0] * (2 * f - 1)
                    for i, a in enumerate(dx):
                        if a:
                            for j, b in enumerate(dy):
                                prod[i + j] = (prod[i + j] + a * b) % p
                    _, rem = _poly_divmod(prod, self.modulus, p)
                    row.append(self._encode(rem + [0] * (f - len(rem))))
                mul.append(row)
            self.add = add
            self.mul = mul
        self.neg = [self.add[x].index(0) for x in range(q)]
        self.inv = [None] * q
        for x in range(1, q):
            self.inv[x] = self.mul[x].index(1)
        # Tr(x) = x + x^p + ... + x^(p^(f-1)), landing in the prime field
        self.trace = []
        for x in range(q):
            t, y = 0, x
            for _ in range(f):
                t = self.add[t][y]
                y = self._pow(y, p)
            _check(t < p, "F_%d: trace of %d in the prime field" % (q, x),
                   "below %d" % p, t)
            self.trace.append(t)

    def _encode(self, coeffs):
        return sum(c * self.p ** i for i, c in enumerate(coeffs))

    def _pow(self, x, k):
        out = 1
        for _ in range(k):
            out = self.mul[out][x]
        return out


MAX_RING_SIZE = 4096


class LocalRing:
    """One level of a backend tower; every operation is a table lookup on codes."""

    def __init__(self, backend, q, level):
        if backend not in BACKENDS:
            raise ValueError("unknown backend %r" % (backend,))
        if level < 1:
            raise ValueError("level must be >= 1")
        p, f = prime_power(q)
        if backend == "padic" and f != 1:
            raise ValueError("padic backend requires prime residue size, got %d" % q)
        self.backend, self.q, self.level = backend, q, level
        self.p, self.f = p, f
        self.size = q ** level
        if self.size > MAX_RING_SIZE:
            raise ValueError("ring size %d exceeds the table-arithmetic bound %d"
                             % (self.size, MAX_RING_SIZE))
        s = self.size
        if backend == "padic":
            self.field = None
            self.add = [[(x + y) % s for y in range(s)] for x in range(s)]
            self.mul = [[(x * y) % s for y in range(s)] for x in range(s)]
            self.neg = [(-x) % s for x in range(s)]
            self.inv = [pow(x, -1, s) if x % p else None for x in range(s)]
        else:
            fq = FiniteField(q)
            self.field = fq
            digs = [_digits(x, q, level) for x in range(s)]
            add = []
            mul = []
            for x in range(s):
                dx = digs[x]
                add.append([self._encode([fq.add[a][b] for a, b in zip(dx, digs[y])])
                            for y in range(s)])
                row = []
                for y in range(s):
                    dy = digs[y]
                    out = [0] * level
                    for i in range(level):
                        if dx[i]:
                            fm = fq.mul[dx[i]]
                            for j in range(level - i):
                                out[i + j] = fq.add[out[i + j]][fm[dy[j]]]
                    row.append(self._encode(out))
                mul.append(row)
            self.add = add
            self.mul = mul
            self.neg = [self.add[x].index(0) for x in range(s)]
            self.inv = [None] * s
            for x in range(s):
                if x % q:
                    self.inv[x] = self.mul[x].index(1)
        self.val = [self._valuation(x) for x in range(s)]
        self.units = tuple(x for x in range(s) if self.val[x] == 0)
        _check(len(self.units) == q ** (level - 1) * (q - 1),
               "units of the level-%d ring" % level,
               q ** (level - 1) * (q - 1), len(self.units))
        self.one, self.zero = 1, 0
        self._psi = None

    def _encode(self, coeffs):
        return sum(c * self.q ** i for i, c in enumerate(coeffs))

    def _valuation(self, x):
        if x == 0:
            return self.level
        v = 0
        while x % self.q == 0:
            x //= self.q
            v += 1
        return v

    def sub(self, x, y):
        return self.add[x][self.neg[y]]

    def unit(self, x):
        return self.val[x] == 0

    def reduce_to(self, x, m):
        """Reduction map onto the level-m ring of the same tower."""
        if not 1 <= m <= self.level:
            raise ValueError("target level %d out of range" % m)
        return x % self.q ** m

    def lift_to(self, x, m):
        """Canonical section into the level-m ring (m >= self.level): identity on codes."""
        if m < self.level:
            raise ValueError("lift target below current level")
        return x

    def pi_pow(self, j):
        return self.q ** j % self.size if j < self.level else 0

    def pi_mul(self, x, j):
        return x * self.q ** j % self.size

    def pi_div(self, x, j):
        """Exact division by the j-th uniformizer power (requires valuation >= j)."""
        _check(self.val[x] >= j, "pi_div: valuation of the dividend, at least",
               j, self.val[x])
        return x // self.q ** j

    def psi(self, x):
        """Fixed primitive additive character at this level."""
        if self._psi is None:
            if self.backend == "padic":
                self._psi = tuple(complex(math.cos(2 * math.pi * y / self.size),
                                          math.sin(2 * math.pi * y / self.size))
                                  for y in range(self.size))
            else:
                fq = self.field
                vals = []
                for y in range(self.size):
                    t = 0
                    for d in _digits(y, self.q, self.level):
                        t = (t + fq.trace[d]) % self.p
                    vals.append(complex(math.cos(2 * math.pi * t / self.p),
                                        math.sin(2 * math.pi * t / self.p)))
                self._psi = tuple(vals)
        return self._psi[x]


@lru_cache(maxsize=None)
def make_ring(backend, q, level):
    return LocalRing(backend, q, level)


def greedy_generators(G):
    """Small generating list: the first element outside the span of those
    kept so far, the identity's orbit under one right_mul permutation per
    kept generator.  ValueError if the identity is missing, or, from
    orbit_partition, if a product leaves a member list that is no group."""
    R, idx = G.root, G.idx
    pos = np.full(R.order, -1, dtype=np.int32)
    pos[idx] = np.arange(len(idx), dtype=np.int32)
    e = pos[R.index[G.identity]]
    if e < 0:
        raise ValueError("%s misses the identity" % G.name)
    found, perms = [], []
    span = np.arange(len(idx)) == e
    while not span.all():
        found.append(int(np.argmin(span)))
        perms.append(pos[R.right_mul(idx, idx[found[-1]])])
        orbit_of = orbit_partition(range(len(idx)), perms)[2]
        span = orbit_of == orbit_of[e]
    return [R.elements[i] for i in idx[found].tolist()]


def act_perms(points, moves, act):
    """Each move as the list of positions of act(x, move) over the points x,
    -1 for an image off the points; one act call per point and move."""
    index = {x: j for j, x in enumerate(points)}
    return [[index.get(act(x, t), -1) for x in points] for t in moves]


def orbit_partition(points, perms):
    """Orbits of points under permutations of their positions (integer
    arrays): (reps, sizes, orbit_of), each representative the first of its
    orbit in points and orbits numbered in that order.  Labels, the least
    position seen so far in each orbit, are pulled from and pushed to the
    images and shortened by pointer jumping until nothing changes.  Raises
    ValueError if an image is off the points (-1)."""
    n = len(points)
    perms = [np.asarray(P, dtype=np.int32) for P in perms]
    off = sum(int((P < 0).sum()) for P in perms)
    if off:
        raise ValueError("points are not closed under the moves: %d images "
                         "are off the %d points" % (off, n))
    lab = np.arange(n, dtype=np.int32)
    while True:
        old = lab.copy()
        for P in perms:
            np.minimum(lab, lab[P], out=lab)
            lab[P] = np.minimum(lab[P], lab)
        while not np.array_equal(lab[lab], lab):
            lab = lab[lab]
        if np.array_equal(lab, old):
            break
    is_first = lab == np.arange(n)
    orbit_of = (np.cumsum(is_first) - 1)[lab]
    first = np.flatnonzero(is_first).tolist()
    return [points[j] for j in first], np.bincount(orbit_of).tolist(), orbit_of


class FiniteGroup:
    """Order, powers, element orders, orbit sweeps and the class-function
    protocol, through the elements, index, mul, inv and identity that every
    group class provides; classes are computed once, on first use."""

    @property
    def order(self):
        return len(self.elements)

    @property
    def root(self):
        """The group whose right_mul serves this group's sweeps."""
        return self

    @cached_property
    def idx(self):
        """Sorted root indices of the elements."""
        return np.arange(self.order)

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

    def right_mul(self, idx, h):
        """Element indices of elements[idx] * elements[h], for index arrays
        idx and h that broadcast together; element by element through mul.
        Raises ValueError if a product is not an element."""
        idx, h = np.broadcast_arrays(idx, h)
        els, index, mul = self.elements, self.index, self.mul
        out = np.array([index.get(mul(els[x], els[y]), -1) for x, y in
                        zip(idx.ravel().tolist(), h.ravel().tolist())],
                       dtype=np.intp).reshape(idx.shape)
        if (out < 0).any():
            raise ValueError("%s: %d products are not group elements"
                             % (self.name, int((out < 0).sum())))
        return out

    def sweep(self, points, moves):
        """orbit_partition of points under x -> l * x * r for each move
        (l, r), l None for the identity: permutations from the root group's
        right_mul and a root-to-point lookup, both for this sweep only."""
        R = self.root
        if points is R.elements:
            idx, pos = np.arange(R.order), None
        else:
            idx = self.idx if points is self.elements else np.array(
                [R.index[x] for x in points], dtype=np.intp)
            pos = np.full(R.order, -1, dtype=np.int32)
            pos[idx] = np.arange(len(idx), dtype=np.int32)
        perms = []
        for l, r in moves:
            y = R.right_mul(idx, R.index[r])
            if l is not None:
                y = R.right_mul(R.index[l], y)
            perms.append(y if pos is None else pos[y])
        return orbit_partition(points, perms)

    @property
    def cls_of(self):
        """Class index of each element, by position."""
        return self._classes()[2]

    @cached_property
    def rep_idx(self):
        """Root indices (on a root group also positions) of the class
        representatives, the first member of each class in class order."""
        cls = self.cls_of
        pos = np.flatnonzero(np.diff(np.maximum.accumulate(cls), prepend=-1))
        return pos if self.root is self else self.idx[pos]

    def pow(self, x, k):
        out = self.identity
        base = x if k >= 0 else self.inv(x)
        for _ in range(abs(k)):
            out = self.mul(out, base)
        return out

    def element_order(self, x):
        n, y = 1, x
        while y != self.identity:
            y = self.mul(y, x)
            n += 1
        return n

    def _compute_classes(self):
        """Every element its own class."""
        n = self.order
        return (list(self.elements), np.ones(n, dtype=np.int64),
                np.arange(n, dtype=np.int64))

    def _classes(self):
        data = getattr(self, "_class_data", None)
        if data is None:
            data = self._compute_classes()
            self._class_data = data
        return data

    @property
    def class_reps(self):
        return self._classes()[0]

    @property
    def class_sizes(self):
        return self._classes()[1]

    @property
    def class_count(self):
        return len(self._classes()[0])

    def cls_index(self, e):
        return int(self._classes()[2][self.index[e]])

    @property
    def identity_class(self):
        return self.cls_index(self.identity)


class SimpleAbelianGroup(FiniteGroup):
    """Finite abelian group on hashable elements, with the class-function protocol
    (every element is its own conjugacy class)."""

    is_abelian = True

    def __init__(self, elements, mul, inv, identity, name=""):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        _check(len(self.index) == len(self.elements), "%s: distinct elements"
               % name, len(self.elements), len(self.index))
        self.mul, self.inv = mul, inv
        self.identity = identity
        self.name = name


def unit_group(ring):
    return SimpleAbelianGroup(ring.units,
                              lambda x, y: ring.mul[x][y],
                              lambda x: ring.inv[x], 1,
                              name="units(%s,%d,%d)" % (ring.backend, ring.q, ring.level))


def additive_group(ring):
    return SimpleAbelianGroup(range(ring.size),
                              lambda x, y: ring.add[x][y],
                              lambda x: ring.neg[x], 0,
                              name="additive(%s,%d,%d)" % (ring.backend, ring.q, ring.level))


def noncommuting_pair(R, elems):
    """The first pair of elems, elements of the root group R, that do not
    commute, or None: one right_mul of their indices against themselves."""
    g = np.array([R.index[x] for x in elems], dtype=np.intp)
    prods = R.right_mul(g[:, None], g[None, :])
    bad = np.argwhere(prods != prods.T)
    return (elems[bad[0, 0]], elems[bad[0, 1]]) if len(bad) else None


def _assert_abelian(A):
    """Exact: the elements form a group (greedy_generators refuses a list
    that is not closed) whose generators commute pairwise."""
    bad = noncommuting_pair(A.root, greedy_generators(A))
    if bad:
        raise ValueError("group is not abelian: %r and %r do not commute"
                         % bad)


def _abelian_basis(A):
    """Cyclic decomposition [(g, order)] by peeling a maximal-order element."""
    els = list(A.elements)
    if len(els) == 1:
        return []
    orders = {e: A.element_order(e) for e in els}
    m = max(orders.values())
    # deterministic choice: maximal order, then least element
    g = min((e for e in els if orders[e] == m), key=_key)
    powers = [A.identity]
    for _ in range(m - 1):
        powers.append(A.mul(powers[-1], g))
    pindex = {e: i for i, e in enumerate(powers)}
    reps, _, coset_of = A.sweep(A.elements, [(None, g)])
    rep = {e: reps[c] for e, c in zip(els, coset_of.tolist())}
    Q = SimpleAbelianGroup(reps,
                           lambda x, y: rep[A.mul(x, y)],
                           lambda x: rep[A.inv(x)],
                           rep[A.identity])
    out = [(g, m)]
    for ebar, k in _abelian_basis(Q):
        t = pindex[A.pow(ebar, k)]
        _check(t % k == 0, "exponent of g in a %d-th power, mod %d" % (k, k),
               0, t % k)
        e = A.mul(ebar, A.pow(g, (-(t // k)) % m))
        order = A.element_order(e)
        _check(order == k, "order of the lifted generator", k, order)
        out.append((e, k))
    total = math.prod(k for _, k in out)
    _check(total == len(els), "product of the cyclic orders", len(els), total)
    return out


def _key(e):
    return e if isinstance(e, tuple) else (e,)


class AbelianCharacter:
    """Tabulated homomorphism from a finite abelian group to the unit circle."""

    __slots__ = ("group", "exps", "values")

    def __init__(self, group, exps, values):
        self.group, self.exps, self.values = group, exps, values

    def __call__(self, e):
        return self.values[e]

    def is_trivial_on(self, elems):
        return all(abs(self.values[e] - 1.0) < MTOL for e in elems)


def character_group(A):
    """All |A| complex characters of a finite abelian group, by brute-force
    cyclic decomposition; deterministic order with the trivial character first."""
    _assert_abelian(A)
    basis = _abelian_basis(A)
    dlog = {A.identity: ()}
    for g, m in basis:
        table = {}
        for e, vec in dlog.items():
            acc = e
            for j in range(m):
                table[acc] = vec + (j,)
                acc = A.mul(acc, g)
        dlog = table
    _check(len(dlog) == A.order, "discrete logarithms", A.order, len(dlog))
    roots = [[complex(math.cos(2 * math.pi * j / m), math.sin(2 * math.pi * j / m))
              for j in range(m)] for _, m in basis]
    chars = []
    for exps in product(*[range(m) for _, m in basis]):
        values = {}
        for e, vec in dlog.items():
            z = complex(1.0)
            for i, (j, a) in enumerate(zip(vec, exps)):
                z *= roots[i][(j * a) % basis[i][1]]
            values[e] = z
        chars.append(AbelianCharacter(A, exps, values))
    return chars


@lru_cache(maxsize=None)
def unit_characters(ring):
    """character_group(unit_group(ring)), computed once per ring."""
    return character_group(unit_group(ring))


def twisting_characters(ring):
    """The q unit-group characters extending the level-1 additive pattern on the
    principal congruence units 1 + pi^(level-1) * (residue field); indexed by the
    level-1 coefficient, with index 0 the trivial character."""
    if ring.level < 2:
        raise ValueError("twisting characters need level >= 2")
    chars = unit_characters(ring)
    r1 = make_ring(ring.backend, ring.q, 1)
    one_plus = [u for u in ring.units if ring.val[ring.sub(u, 1)] >= ring.level - 1]
    _check(len(one_plus) == ring.q, "principal congruence units at level %d"
           % ring.level, ring.q, len(one_plus))
    out = []
    for zh in range(ring.q):
        want = {}
        for u in one_plus:
            s = ring.pi_div(ring.sub(u, 1), ring.level - 1)
            want[u] = r1.psi(r1.mul[zh][s])
        for ch in chars:
            if all(abs(ch(u) - want[u]) < MTOL for u in one_plus):
                out.append(ch)
                break
        else:
            raise AssertionError("no unit character extends the level-1 pattern %d" % zh)
    return out
