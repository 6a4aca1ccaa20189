"""Character degrees by Dixon's modular variant of the class-algebra method:
split the common eigenvectors of the class-multiplication matrices over a
prime field F_r with r = 1 mod exponent(G), normalize each eigenvector at the
identity class, and read the degree from the second orthogonality relation.
Everything is exact integer arithmetic, so this is an independent oracle for
the degree multisets produced by the explicit constructions.

The prime (J. D. Dixon, Numer. Math. 10, 1967): the least r = 1 mod the
exponent with r > max(2 sqrt|G|, k).  r = 1 mod the exponent gives r not
dividing |G|, so the class algebra over F_r is split semisimple; r > k keeps
every characteristic polynomial's degree below r (_squarefree).  The
orthogonality relation gives d^2 mod r for each degree d, and since
d <= sqrt|G| < r/2, d -> d^2 mod r is injective on 1 <= d <= sqrt|G|, so
each degree is read from one table of those squares (_read_degrees),
which refuses a residue off it; the integers then check sum d^2 = |G|.
On padic q=2 (6,5) r is 2017 (k = 2000 sets the bound), against 524353
above |G|; on q=7 (2,2) it is 7057.

Class matrices (_class_matrix): the products x * rep_m of a class's members
by the k representatives are read from the representatives' right
translation tables, T1[m, row1(x)] + T2[m, row2(x)]
(AutGroup._translation_tables), and their classes from one code -> class
table, -1 off the group (_class_tables).  The tables are built once per
character_degrees call, k*(s1*s2 + s2^2) int32 entries and s1*s2^3 of the
narrowest signed dtype: 24 + 4 MB on padic q=2 (6,5), 46 + 12 MB on
q=7 (2,2).

Central blocks: for z in the centre Z, omega_chi(z C) = theta_chi(z)
omega_chi(C), theta_chi the central character of chi.  So the split starts
from the joint eigenspaces of the central class matrices, one block per
F_r-character theta of Z, built from the Z-orbits on classes with no linear
algebra (_central_blocks); every central matrix is scalar on every block,
so no central class matrix is built.  With a trivial centre this is the
single identity block.  The characters theta of Z, and those of the twist
group below, are the certified exponent rows L of the abelian engine
rings.character_group, read in F_r as zeta^L (_fr_characters).

Fewer class matrices: for a central element z the class sum of z C is z
times the class sum of C, so N_{zC} = N_z N_C, and a block left whole by
N_z and N_C is left whole by N_{zC}.  Once the matrix of a non-central class
C has been used, the matrices of its central translates z C are never
built.  The skip cannot change the degrees: any set of class matrices whose
common eigenspaces are all lines gives the same eigenlines, and the final
check on one-dimensional common eigenspaces raises if a skip ever left a
block whole.  On padic q=2 (4,4) this builds 31 class matrices instead of
132.

Twists: for a linear character lambda of G, omega_{chi lambda} is
omega_chi times lambda elementwise, and its central character is theta
lambda|_Z.  The twists used are those through det, and on non-square types
also through a mod pi^(l1-l2) (_twists); only the central block of one
theta per orbit {theta lambda|_Z} is built and split, and the eigenlines of
the other blocks of the orbit are the split ones times lambda, mod r.  The
copies are exact: on every class matrix N, of class t, built or central,
lambda(C_j) = lambda(C_t) lambda(C_m) wherever N[j, m] != 0 is checked, so
D_lambda N = lambda(C_t) N D_lambda and a common eigenline times lambda is
one again.

Roots: a characteristic polynomial f of degree at most k < r has the same
roots as its squarefree part f / gcd(f, f') mod r, whose degree is the
number of distinct eigenvalues; only that part is scanned.

Overflow: every matrix entry is reduced below r (class-matrix entries count
members of one class, so a matrix is reduced mod r when its class has at
least r members), so a product of two entries is below r^2 and a dot
product of length at most k below k*r^2.  The split takes its larger matrix
products through float64 BLAS (_mm), which is exact while every dot product
stays below 2^53, so character_degrees refuses a prime with
(k+1)*r^2 >= 2^53; the smaller products run in int64.  At the default
prime (k+1)*r^2 is far below 2^53 = 9.0e15: 8.1e9 on padic q=2 (6,5),
1.2e11 on q=7 (2,2).  The row reduction (_rref) is lazy: it reduces only
the pivot column and the pivot row at each step and the whole matrix once
at the end, so an entry stays below r + k*r^2 < 2^63."""

import math

import numpy as np

from .rings import (TableGroup, _check, _poly_divmod, character_group,
                    code_positions, direct_product, is_prime, make_ring,
                    unit_group)


def _rep_powers(G):
    """The exponent of G and the root indices of the inverses of the class
    representatives, from one power sweep of rep_idx through the root."""
    order, inv = G.root.power_sweep(G.rep_idx)
    return math.lcm(*order.tolist()), inv


def dixon_prime(exponent, bound):
    """Smallest prime r = 1 mod exponent with r > bound."""
    r = bound + 1 + (-(bound)) % exponent
    while not is_prime(r):
        r += exponent
    return r


def _class_tables(G):
    """What _class_matrix reads, built once per character_degrees call:
    the right translations by the k class representatives stacked,
    T1[m, u1[x]] + T2[m, u2[x]] the code of x * rep_m
    (AutGroup._translation_tables), and the code -> class table, in the
    narrowest signed dtype, -1 off the group (sizes: module docstring)."""
    T1, T2, u1, u2 = G._translation_tables(G.rep_idx, left=False)
    table = G._arrays[2]
    cls = np.full(table.size, -1, dtype=np.min_scalar_type(-G.class_count))
    cls[table >= 0] = G.cls_of  # the elements are in code order
    return T1, T2, u1, u2, cls


def _product_classes(G, tables, members):
    """j[m, x] = the class of members[x] * rep_m, from the tables of
    _class_tables; raises on a code off the group rather than wrap around."""
    T1, T2, u1, u2, cls = tables
    # np.take: several times faster than fancy indexing on these gathers
    code = T1.take(u1[members], axis=1)
    code += T2.take(u2[members], axis=1)
    j = cls.take(code)
    off = np.count_nonzero(j < 0)
    if off:
        raise ValueError("%s: %d products are not group elements"
                         % (G.name, off))
    return j


def _class_matrix(G, tables, members):
    """N[j, m] = #{x in C_i : x^-1 * rep_m in C_j}, counted from members, the
    element indices of the inverse class C_i^-1: the classes of the
    products members x reps (_product_classes) and one bincount, counted as
    N^T so that each representative's counts stay in one row."""
    k = len(tables[0])
    idx = _product_classes(G, tables, members).astype(np.intp)
    idx += np.arange(0, k * k, k)[:, None]
    return np.bincount(idx.ravel(), minlength=k * k).reshape(k, k).T


def _rref(B, r):
    """Row-reduce mod r; returns (reduced rows, pivot columns).

    Lazy reduction: each step reduces only the pivot column (for the pivot
    search and the multipliers) and the pivot row, and subtracts the
    multiples of the pivot row from the trailing block unreduced; the rows
    are reduced once at the end.  Each step moves an entry by less than
    r^2, so with at most k pivots every entry stays below r + k*r^2 in
    absolute value, under 2^63 whenever (k+1)*r^2 < 2^53, which
    character_degrees requires of its prime."""
    B = B % r
    pivots = []
    row = 0
    for col in range(B.shape[1]):
        if row == B.shape[0]:
            break
        nz = np.flatnonzero(B[row:, col] % r)
        if not nz.size:
            continue
        sel = row + int(nz[0])
        if sel != row:
            B[[row, sel]] = B[[sel, row]]
        # the pivot row is 0 mod r left of col, so those columns stay as
        # they are
        prow = B[row, col:] % r * pow(int(B[row, col] % r), -1, r) % r
        f = B[:, col] % r
        f[row] = 0
        B[:, col:] -= np.outer(f, prow)
        B[row, col:] = prow
        pivots.append(col)
        row += 1
    B = B[:row]
    B %= r
    return B, pivots


def _nullspace(A, r):
    """Basis K of the kernel of A mod r, as rows, one per free column of
    rref(A); returns (K, free) with K[:, free] the identity."""
    n = A.shape[1]
    R, pivots = _rref(A, r)
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    K = np.zeros((free.size, n), dtype=np.int64)
    K[np.arange(free.size), free] = 1
    K[:, pivots] = (-R[:, free]).T % r
    return K, free


def _mm(A, B, r):
    """A @ B mod r through float64 BLAS: exact while every dot product stays
    below 2^53, which character_degrees guarantees.  A product of fewer
    than 4096 multiply-adds stays in numpy's int64 loop, which is as fast
    there, so the oracle on a group with fewer than 16 classes never pages
    in BLAS (about 0.4 MB of memory)."""
    dtype = np.float64 if A.size * B.shape[-1] >= 4096 else np.int64
    P = (np.asarray(A, dtype=dtype) @ np.asarray(B, dtype=dtype)).astype(
        np.int64, copy=False)
    P %= r
    return P


def _charpoly(A, r):
    """Characteristic polynomial mod r, leading coefficient first, in O(n^3):
    reduce to upper Hessenberg form H by elementary similarity transforms,
    then p_m = (x - H[m-1, m-1]) p_{m-1}
               - sum_{i<m-1} H[i, m-1] * prod_{t=i+1}^{m-1} H[t, t-1] * p_i."""
    H = A % r
    n = H.shape[0]
    for j in range(n - 2):
        nz = np.flatnonzero(H[j + 1:, j])
        if not nz.size:
            continue
        p = j + 1 + int(nz[0])
        H[[j + 1, p]] = H[[p, j + 1]]
        H[:, [j + 1, p]] = H[:, [p, j + 1]]
        u = H[j + 2:, j] * pow(int(H[j + 1, j]), -1, r) % r
        H[j + 2:] = (H[j + 2:] - np.outer(u, H[j + 1])) % r
        H[:, j + 1] = (H[:, j + 1] + H[:, j + 2:] @ u) % r
    P = np.zeros((n + 1, n + 1), dtype=np.int64)  # P[m] = p_m, constant first
    P[0, 0] = 1
    T = np.zeros(0, dtype=np.int64)  # T[i] = prod_{t=i+1}^{c} H[t, t-1]
    for m in range(1, n + 1):
        c = m - 1
        if c:
            T = np.append(T, 1) * H[c, c - 1] % r
        P[m, 1:] = P[c, :-1]
        P[m] = (P[m] - H[c, c] * P[c] - (T * H[:c, c] % r) @ P[:c]) % r
    return P[n, ::-1]


def _squarefree(f, r):
    """f / gcd(f, f') mod r, the product of the distinct irreducible factors
    of f: exact since deg f < r, so f' is nonzero and a factor of
    multiplicity m >= 2 divides f' exactly m - 1 times."""
    f = np.asarray(f, dtype=np.int64) % r
    a, b = f, np.polyder(f) % r
    while b.size:
        a, b = b, _poly_divmod(a, b, r)[1]
    return _poly_divmod(f, a, r)[0]


def _roots(coeffs, r):
    """Distinct roots in F_r of a polynomial of degree >= 1 and below r,
    leading coefficient first, ascending.  They are the roots of its
    squarefree part g, which is evaluated at every point, 2^16 at a time,
    until deg g roots are found."""
    g = _squarefree(coeffs, r)
    roots = []
    for lo in range(0, r, 1 << 16):
        xs = np.arange(lo, min(lo + (1 << 16), r), dtype=np.int64)
        acc = np.full(xs.size, g[0], dtype=np.int64)
        for c in g[1:]:
            acc *= xs
            acc += c
            acc %= r
        roots.extend(xs[acc == 0].tolist())
        if len(roots) == len(g) - 1:
            break
    return roots


def _multiplicities(coeffs, roots, r):
    """Multiplicity of each root of the polynomial, by synthetic division
    of the deflated polynomial."""
    p = [int(c) for c in coeffs]
    mult = []
    for lam in roots:
        m = 0
        while len(p) > 1:
            q = [p[0]]
            for c in p[1:]:
                q.append((q[-1] * lam + c) % r)
            if q[-1]:
                break
            p, m = q[:-1], m + 1
        mult.append(m)
    return mult


def _eigenspaces(R, r):
    """Eigenspaces {x : x R = lam x} of a diagonalisable, non-scalar R mod
    r, as pairs (E, P): a row basis E with E[:, P] the identity.

    The roots of the characteristic polynomial are peeled largest
    multiplicity first.  C is a basis of the sum of the eigenspaces not yet
    peeled, with C[:, pc] = I and C R = RC C.  For each root but the last,
    M = RC - lam I is diagonalisable, so F_r^c is the left kernel of M (the
    eigenspace, in C coordinates) plus the row space of M (the sum of the
    other eigenspaces, invariant under RC); C moves to the row space.  The
    last eigenspace is what is left of C.  Later kernels thus run on ever
    smaller matrices."""
    d = R.shape[0]
    coeffs = _charpoly(R, r)
    roots = _roots(coeffs, r)
    peel = sorted(zip(_multiplicities(coeffs, roots, r), roots),
                  key=lambda t: -t[0])
    _check(sum(m for m, _ in peel) == d, "roots of the characteristic "
           "polynomial in F_r, with multiplicity", d, peel)
    C, pc, RC = None, np.arange(d), R  # C None: the identity
    spaces = []
    for m, lam in peel[:-1]:
        M = (RC - lam * np.eye(len(pc), dtype=np.int64)) % r
        K, free = _nullspace(M.T, r)
        _check(K.shape[0] == m, "dimension of the eigenspace of %d" % lam,
               m, K.shape[0])
        spaces.append((K if C is None else _mm(K, C, r), pc[free]))
        W, pw = _rref(M, r)
        C = W if C is None else _mm(W, C, r)
        pc, RC = pc[pw], _mm(W, RC, r)[:, pw]
    m, lam = peel[-1]
    off = np.count_nonzero(RC - lam * np.eye(len(pc), dtype=np.int64))
    _check(len(pc) == m and not off, "dimension of the last eigenspace, of "
           "%d, and entries of its restricted matrix off %d I" % (lam, lam),
           (m, 0), (len(pc), off))
    spaces.append((C, pc))
    return spaces


def _primitive_root(r):
    """Least primitive root modulo the prime r."""
    m = r - 1
    ps = [p for p in range(2, math.isqrt(r) + 1) if m % p == 0 and is_prime(p)]
    for p in ps:
        while m % p == 0:
            m //= p
    ps += [m] * (m > 1)  # at most one prime factor above sqrt(r)
    return next(g for g in range(2, r)
                if all(pow(g, (r - 1) // p, r) != 1 for p in ps))


def _fr_characters(A, r):
    """The characters of the abelian group A in F_r: theta[t, a] =
    zeta^L[t, a] for the certified rows L of rings.character_group and
    zeta = g^((r-1)/E) of order E, g a primitive root mod r."""
    E, L = character_group(A)
    _check((r - 1) % E == 0, "%s: r - 1 mod the exponent E = %d"
           % (A.name, E), 0, (r - 1) % E)
    zeta = pow(_primitive_root(r), (r - 1) // E, r)
    return np.array([pow(zeta, i, r) for i in range(E)], dtype=np.int64)[L]


def _twists(G, r):
    """Lam[t, C] = lambda_t(C): the linear characters lambda: G -> F_r^*
    that factor through det, into units(R2), and on non-square types also
    through a -> a mod pi^(l1-l2), into the units of that level (a
    homomorphism, since a' = a A + pi^(l1-l2) b C).  Both maps are onto,
    so the characters of the direct product of the unit groups, by
    _fr_characters, stay distinct on G; row 0 is the trivial character."""
    (a, _, _, _), dd = G._arrays[1], G.l1 - G.l2
    maps = [("det", G.R2, G.hom("det", G.rep_idx)[1])]
    if dd:
        maps.append(("a mod pi^%d" % dd, make_ring(G.backend, G.q, dd),
                     a[G.rep_idx] % G.q ** dd))
    # code[C]: the position of the image of C in the product, mixed radix
    code, A = 0, None
    for what, R, x in maps:
        U = unit_group(R)
        code = code * U.order + code_positions(
            U, x, "%s values at the class representatives" % what)
        A = U if A is None else direct_product(A, U)
    Lam = _fr_characters(A, r)[:, code]
    distinct = len(set(map(tuple, Lam.tolist())))
    _check(distinct == len(Lam), "distinct twists on the classes", len(Lam),
           distinct)
    return Lam


def _check_twists(Lam, j, t, m, r, what):
    """The twist certificate on the class matrix N of class t, given its
    nonzero entries N[j, m] (arrays that broadcast together):
    lambda(C_j) = lambda(C_t) lambda(C_m) there, so D_lambda N =
    lambda(C_t) N D_lambda and v D_lambda is a common eigenline whenever v
    is one.  Lam holds the rows that write eigenlines."""
    L = Lam.T  # the twists last, so that j, t and m broadcast in front
    off = np.count_nonzero(L[j] != L[t] * L[m] % r)
    _check(not off, "entries of lambda(C_j) off lambda(C_t) lambda(C_m) "
           "where N[j, m] != 0, on %s" % what, 0, off)


def _central_blocks(shift, theta, mu, r):
    """The joint eigenspaces of the central class matrices, one per twist
    orbit of central characters, in the stacked form of character_degrees,
    built with no linear algebra.

    shift[a, i] is the class z_a C_i for the central elements z_a, and
    theta[t, a] = theta_t(z_a) the characters of the centre Z.  A common
    eigenvector omega_chi satisfies omega_chi(z C) = theta(z) omega_chi(C),
    theta the central character of chi, so the eigenspace of theta has one
    row per Z-orbit of classes whose stabiliser lies in ker theta:
    v[shift[a, c]] = theta(z_a) at the orbit's least class c, zero off the
    orbit.  Their supports are disjoint, so B[:, P] = I with P the orbit
    representatives, and N_z is the scalar theta(z) on the block.

    mu[j] are the distinct restrictions to Z of the twists, mu[0] = 1.
    Twisting by lambda carries the eigenspace of theta onto that of theta
    lambda|_Z, so only the representatives of the orbits {theta mu_j}, the
    least index of each, are built; the others are checked to have the same
    dimension."""
    n, k = shift.shape
    index = {row: s for s, row in enumerate(map(tuple, theta.tolist()))}
    img = [index.get(row, -1) for row in map(
        tuple, (theta[None] * mu[:, None] % r).reshape(-1, n).tolist())]
    _check(-1 not in img, "products theta lambda|_Z among the central "
           "characters", len(img), len(img) - img.count(-1))
    img = np.array(img).reshape(len(mu), n)  # img[j, s]: theta_s mu_j
    reps = np.flatnonzero(shift.min(axis=0) == np.arange(k))
    orbit = shift[:, reps]  # orbit[a, o]: the class z_a C_reps[o]
    # ok[t, o]: the stabiliser of orbit o lies in ker theta_t
    ok = ~((theta[:, :, None] != 1) & (orbit == reps)).any(axis=1)
    dims = ok.sum(axis=1)
    _check(dims.sum() == k, "central eigenspace dimensions", k, dims.sum())
    off = np.count_nonzero(dims[img] != dims)
    _check(not off, "dimensions of the central blocks of theta lambda|_Z off "
           "those of theta", 0, off)
    lead = np.flatnonzero(img.min(axis=0) == np.arange(n))
    blocks = {}
    for d in set(dims[lead].tolist()):  # np.unique would load numpy.ma, 0.7 MB
        ts = lead[dims[lead] == d]
        B = np.zeros((len(ts), d, k), dtype=np.int64)
        for b, t in enumerate(ts):
            B[b, np.arange(d)[:, None], orbit[:, ok[t]].T] = theta[t]
        off = sum(np.count_nonzero(B[:, :, shift[a]]
                                   != theta[ts, a, None, None] * B % r)
                  for a in range(n))
        _check(not off, "entries of v[z C] off theta(z) v[C] in the central "
               "blocks of dimension %d" % d, 0, off)
        blocks[d] = (B, np.stack([reps[ok[t]] for t in ts]))
    return blocks


def _inverses(x, r):
    """Elementwise inverses mod r of nonzero residues."""
    return np.array([pow(int(v), -1, r) for v in x], dtype=np.int64)


def _eigenlines(G, jstar, r):
    """The k common eigenvectors of the class matrices of the root group G
    over F_r, one row per irreducible character, scaled to 1 at the
    identity class; jstar[i] is the class of the inverses of C_i."""
    k = G.class_count
    sizes, cls_of = G._classes()
    rep_idx = G.rep_idx  # G is a root group: indices are positions
    ic = G.identity_class
    tables = _class_tables(G)
    # shift[a, i]: the class z C_i for the a-th central element z
    central = np.flatnonzero(sizes == 1)
    shift = _product_classes(G, tables, rep_idx[central]).T
    # the centre on its classes, z_a z_b at the position of shift[a,
    # central[b]] in central
    theta = _fr_characters(TableGroup(np.searchsorted(
        central, shift[:, central]), int(np.searchsorted(central, ic)),
        "the centre"), r)
    # one twist per restriction to the centre, the trivial one first
    Lam, first = _twists(G, r), {}
    for t, row in enumerate(map(tuple, Lam[:, central].tolist())):
        first.setdefault(row, t)
    Lam = Lam[list(first.values())]
    # N_z of a central z is nonzero at (z C_m, C_m) alone
    _check_twists(Lam[1:], shift, central[:, None], np.arange(k)[None], r,
                  "the central classes")
    by_class = np.argsort(cls_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    # The class algebra over F_r is split semisimple (r = 1 mod the
    # exponent, so r does not divide |G|), so each restricted matrix R is
    # diagonalisable: a block splits under class i exactly when R is not
    # scalar.  Blocks of one dimension d are stacked: blocks[d] = (B, P), B
    # of shape (n, d, k) with B[b][:, P[b]] = I, so row j of B[b] N^T in the
    # span of B[b] is R[b, j] @ B[b] with R[b] = (B[b] N^T)[:, P[b]].  The
    # split starts from the joint eigenspaces of the central classes, one
    # per twist orbit, whose matrices are then scalar on every block; once
    # class i is used, its central translates are covered (module
    # docstring).
    blocks = _central_blocks(shift, theta, Lam[:, central], r)
    covered = np.zeros(k, dtype=bool)
    covered[central] = True
    for i in range(k):
        if covered[i]:
            continue
        if list(blocks) == [1]:
            break
        t = jstar[i]
        NT = _class_matrix(G, tables, by_class[starts[t]:starts[t + 1]]).T
        m, j = divmod(np.flatnonzero(NT), k)
        _check_twists(Lam[1:], j, t, m, r, "class %d" % i)
        if sizes[t] >= r:  # a count can reach r only in a class that large
            NT %= r
        NT = NT.astype(np.float64)
        parts = {}
        for d, (B, P) in blocks.items():
            if d == 1:
                parts.setdefault(1, []).append((B, P))
                continue
            Bi = _mm(B.reshape(-1, k), NT, r).reshape(B.shape)
            R = np.take_along_axis(Bi, P[:, None, :], axis=2)
            off = np.count_nonzero(_mm(R, B, r) != Bi)
            _check(not off, "entries of B N^T off the span of the blocks of "
                   "dimension %d under class %d" % (d, i), 0, off)
            del Bi  # k x k on the first split, which sets the peak memory
            scalar = (R == R[:, :1, :1] * np.eye(d, dtype=np.int64)).all(
                axis=(1, 2))
            if scalar.any():
                parts.setdefault(d, []).append((B[scalar], P[scalar]))
            for b in np.flatnonzero(~scalar):
                # (E @ B[b])[:, P[b][Q]] = E[:, Q] = I
                for E, Q in _eigenspaces(R[b], r):
                    parts.setdefault(len(Q), []).append(
                        (_mm(E, B[b], r)[None], P[b][Q][None]))
        blocks = {d: (np.concatenate([B for B, _ in ps]),
                      np.concatenate([P for _, P in ps]))
                  for d, ps in parts.items()}
        dims = sum(B.shape[0] * d for d, (B, _) in blocks.items()) * len(Lam)
        _check(dims == k, "eigenspace dimensions after class %d, times %d "
               "twists" % (i, len(Lam)), k, dims)
        covered[shift[:, i]] = True
    count = sum(B.shape[0] for B, _ in blocks.values()) * len(Lam)
    _check(list(blocks) == [1] and count == k, "one-dimensional common "
           "eigenspaces, times %d twists" % len(Lam), k, count)
    # the eigenlines of the other blocks of each orbit: v lambda elementwise
    V = (blocks[1][0][:, 0][None] * Lam[:, None] % r).reshape(k, k)
    _check(np.count_nonzero(V[:, ic]) == k, "eigenvectors nonzero at the "
           "identity class", k, np.count_nonzero(V[:, ic]))
    return V * _inverses(V[:, ic], r)[:, None] % r


def _read_degrees(d2, r, order):
    """The degrees from their squares d2 mod r, read from one table of d^2
    mod r over 1 <= d <= sqrt|G|: d -> d^2 mod r is injective there, since
    d + d' <= 2 sqrt|G| < r.  A residue off the table is refused, and the
    degrees must satisfy sum d^2 = |G|."""
    top, seen = math.isqrt(order), sorted(set(d2.tolist()))
    root = {d * d % r: d for d in range(1, top + 1)}
    off = [a for a in seen if a not in root]
    _check(not off, "squared degrees mod %d, d^2 for 1 <= d <= %d" % (r, top),
           "residues d^2 mod %d" % r, "others %s" % off)
    d = np.array([root[a] for a in d2.tolist()], dtype=np.int64)
    _check(int((d * d).sum()) == order, "sum of squared degrees, read from "
           "%s mod %d" % (seen, r), order, int((d * d).sum()))
    return sorted(d.tolist())


def character_degrees(G, r_override=None):
    """Sorted degree multiset of the irreducible characters of G."""
    if G.is_abelian:
        return [1] * G.order
    if r_override is None and getattr(G, "_degree_multiset", None) is not None:
        return list(G._degree_multiset)
    k = G.class_count
    exponent, inv_idx = _rep_powers(G)
    bound = max(math.isqrt(4 * G.order), k)  # r > bound: r > 2 sqrt|G|, r > k
    r = r_override if r_override is not None else dixon_prime(exponent, bound)
    if not (is_prime(r) and r > bound and (r - 1) % exponent == 0):
        raise ValueError("Dixon prime must be a prime r > max(2 sqrt|G|, k) = "
                         "%d with r = 1 mod exponent %d, got %d"
                         % (bound, exponent, r))
    if (k + 1) * r * r >= 2 ** 53:
        raise ValueError("Dixon prime %d too large for exact float64 products "
                         "with %d classes" % (r, k))
    sizes, cls_of = G._classes()
    jstar = cls_of[inv_idx]
    W = _eigenlines(G, jstar, r)
    s = (W * W[:, jstar] % r * _inverses(sizes, r) % r).sum(axis=1) % r
    _check(np.count_nonzero(s) == k, "nonzero norms", k, np.count_nonzero(s))
    degrees = _read_degrees(G.order * _inverses(s, r) % r, r, G.order)
    if r_override is None:
        G._degree_multiset = degrees
    return list(degrees)
