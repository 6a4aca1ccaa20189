"""Character degrees by Dixon's modular variant of the class-algebra method:
split the common eigenvectors of the class-multiplication matrices over a
prime field F_r with r = 1 mod exponent(G), normalize each eigenvector at the
identity class, and read the degree from the second orthogonality relation.
Everything is exact integer arithmetic, so this is an independent oracle for
the degree multisets produced by the explicit constructions.

The prime (J. D. Dixon, Numer. Math. 10, 1967): r = 1 mod the exponent
with r > max(2 sqrt|G|, k), by default the least (dixon_prime); verify-all
passes the job's prime (build.job_prime), which the construction shares.
One rule admits every prime (admit_prime).  r = 1 mod the exponent gives r
not dividing |G|, so the class algebra over F_r is split semisimple; r > k
keeps every characteristic polynomial's degree below r.  The
orthogonality relation gives d^2 mod r for each degree d, and since
d <= sqrt|G| < r/2, d -> d^2 mod r is injective on 1 <= d <= sqrt|G|, so
each degree is read from one table of those squares (_read_degrees),
which refuses a residue off it; the integers then check sum d^2 = |G|.
On padic q=2 (6,5) the default r is 2017 (k = 2000 sets the bound),
against 524353 above |G|; on q=7 (2,2) it is 7057.

Class matrices (_class_matrix): the products x * rep_m of a class's members
by the k representatives are read from the representatives' right
translation tables, T1[m, row1(x)] + T2[m, row2(x)]
(AutGroup._translation_tables: the group's product kernel on the lines
(a, b, 0, 0) and (0, 0, c, d) times every representative, one stacked call
each), and their classes from one code -> class table, -1 off the group
(_class_tables).  The tables are built once per character_degrees call,
k*(s1*s2 + s2^2) int32 entries and s1*s2^3 of the narrowest signed dtype:
24 + 4 MB on padic q=2 (6,5), 46 + 12 MB on q=7 (2,2).

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

The split: at each class, the non-scalar restricted matrices of the blocks
of one dimension are one stack: one pass gives their characteristic
polynomials, one scan of F_r their roots, and each eigenspace is read as
the left kernel of R - lam I, one reduction for the roots met in a chunk of
the scan.  Since eigenspaces of distinct roots are independent, their
dimensions add up to d exactly when R is diagonalisable with every
eigenvalue in F_r, which is checked (_eigenspaces).

Overflow: every matrix entry is reduced below r (class-matrix entries count
members of one class, so a matrix is reduced mod r when its class has at
least r members), so a product of two entries is below r^2 and a dot
product of length at most k below k*r^2.  The split takes its larger matrix
products through float64 BLAS (_mm), which is exact while every dot product
stays below 2^53, so admit_prime refuses a prime with (k+1)*r^2 >= 2^53;
the smaller products run in int64.  At the default prime (k+1)*r^2 is far
below 2^53 = 9.0e15: 8.1e9 on padic q=2 (6,5), 1.2e11 on q=7 (2,2); the
row reduction stays below 2^63 (_rref).  The class matrices and the blocks
are held as float64."""

import math

import numpy as np

from .rings import (TableGroup, _check, _inverses, _mm, _once,
                    character_group, code_positions, direct_product, fr_roots,
                    is_prime, make_ring, unit_group)


def dixon_prime(exponent, bound):
    """Smallest prime r = 1 mod exponent with r > bound."""
    r = bound + 1 + (-(bound)) % exponent
    while not is_prime(r):
        r += exponent
    return r


def admit_prime(r, exponent, bound, k):
    """r, refused by a ValueError naming the first term it fails unless r is
    a prime, r = 1 mod the exponent (so F_r holds the roots of unity and r
    does not divide |G|), r > bound, and (k+1) r^2 < 2^53 (a dot product of
    k residues exact in float64, the row reduction's lazy sums in int64)."""
    terms = ["r prime", "r = 1 mod the exponent %d" % exponent,
             "r > %d" % bound, "(k+1) r^2 < 2^53 for k = %d, exact float64 "
             "products" % k]
    ok = [is_prime(r), (r - 1) % exponent == 0, r > bound,
          (k + 1) * r * r < 2 ** 53]
    if not all(ok):
        raise ValueError("the prime r = %d fails %s (of: %s)"
                         % (r, terms[ok.index(False)], "; ".join(terms)))
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


def _product_classes(G, tables, members, rows=slice(None)):
    """j[m, x] = the class of members[x] * rep_m, for the representatives
    rep_m in rows, from the tables of _class_tables; raises on a code off
    the group rather than wrap around."""
    T1, T2, u1, u2, cls = tables
    # np.take: several times faster than fancy indexing on these gathers
    code = np.add(T1[rows].take(u1[members], axis=1),
                  T2[rows].take(u2[members], axis=1), dtype=np.intp)
    j = cls.take(code)
    if j.min() < 0:
        raise ValueError("%s: %d products are not group elements"
                         % (G.name, np.count_nonzero(j < 0)))
    return j


def _class_matrix(G, tables, members, NT, twists):
    """N[j, m] = #{x in C_i : x^-1 * rep_m in C_j}, counted from members, the
    inverse class C_i^-1: the classes of the products members x reps, into
    NT = N^T by bincount, in row blocks of at most 2^18 products and counts,
    checked by _check_twists with twists = (table, t, what)."""
    k = len(tables[0])
    step = max(1, (1 << 18) // max(len(members), k))
    for lo in range(0, k, step):
        idx = _product_classes(G, tables, members, slice(lo, lo + step)
                               ).astype(np.intp)
        _check_twists(*twists, idx, np.arange(lo, lo + len(idx))[:, None])
        idx += np.arange(0, len(idx) * k, k)[:, None]
        NT[lo:lo + len(idx)] = np.bincount(idx.ravel(), minlength=idx.shape[
            0] * k).reshape(-1, k)
    return NT.T


def _rref(B, r, w):
    """Row-reduce each matrix of the stack B (n, a, b) mod r, pivoting in
    the first w columns: (R, piv, rows), R[s] the rows of B[s] reduced, the
    pivot rows first, by pivot piv[s] (w: none), rows[s] their indices in
    B[s].  Row k pivots on its leading entry, cleared in every other row, so
    the pivot rows are the unique reduced echelon form.  Lazy: a step
    reduces row k and the pivot column, moving entries by under r^2, so
    they stay below r + k*r^2 < 2^63 ((k+1)*r^2 < 2^53 is required)."""
    B = B % r
    n, a, _ = B.shape
    at, pc = np.arange(n), np.full((a, n), w)  # pc[k]: row k's pivots
    for k in range(a):
        row = B[:, k] % r
        lead = pc[k] = (row[:, :w] != 0).argmax(axis=1)
        pv = row[at, lead]
        if not pv.any():
            continue  # row k is zero in every matrix
        prow = row * _inverses(pv, r)[:, None] % r
        f = B[at, :, lead] % r
        f[:, k] -= 1  # row k becomes prow, mod r
        B -= f[:, :, None] * prow[:, None]
    B %= r
    # a pivot is 1, and a row zero in the first w columns has none
    pc = np.where(B[at[:, None], np.arange(a), pc.T] != 0, pc.T, w)
    rows = np.argsort(pc, axis=1, kind="stable")
    return B[at[:, None], rows], pc[at[:, None], rows], rows


def _charpoly(A, r):
    """Characteristic polynomials mod r of the stack A (n, d, d), leading
    coefficient first, in O(d^3): reduce each matrix to upper Hessenberg
    form H by elementary similarity transforms, pivoting on the first
    nonzero entry below the subdiagonal, then
      p_m = x p_{m-1} - sum_{i<m} H[i,m-1] prod_{t=i+1}^{m-1} H[t,t-1] p_i.
    """
    H = A % r
    n, d, _ = H.shape
    for j in range(d - 2):
        nz = H[:, j + 1:, j] != 0
        if not nz[:, 1:].any():
            continue  # column j is in Hessenberg form already
        if not nz[:, 0].all():  # no pivot in row j + 1: swap one in
            s = np.flatnonzero(~nz[:, 0])
            p = j + 1 + nz[s].argmax(axis=1)
            H[s, j + 1], H[s, p] = H[s, p], H[s, j + 1]
            H[s, :, j + 1], H[s, :, p] = H[s, :, p], H[s, :, j + 1]
        u = H[:, j + 2:, j] * _inverses(H[:, j + 1, j], r)[:, None] % r
        H[:, j + 2:] -= u[:, :, None] * H[:, j + 1, None]
        H[:, j + 2:] %= r
        H[:, :, j + 1] += (H[:, :, j + 2:] @ u[:, :, None])[:, :, 0]
        H[:, :, j + 1] %= r
    G = np.ones_like(H)  # G[i, c] = prod_{t=i+1}^{c} H[t, t-1], i <= c
    for c in range(1, d):
        G[:, :c, c] = G[:, :c, c - 1] * H[:, c, c - 1, None] % r
    G = np.triu(G * H % r)
    P = np.zeros((n, d + 1, d + 1), dtype=np.int64)  # P[:, m] = p_m
    P[:, 0, 0] = 1
    for m in range(1, d + 1):
        P[:, m, 1:] = P[:, m - 1, :-1]
        P[:, m] -= (G[:, None, :m, m - 1] @ P[:, :m])[:, 0]
        P[:, m] %= r
    return P[:, d, ::-1]


def _eigenspaces(R, r):
    """The eigenspaces {x : x R[b] = lam x} of a stack R (n, d, d) of
    non-scalar matrices mod r, for the roots lam in F_r of their
    characteristic polynomials: (b, E, Q) per scan chunk, matrix b and
    dimension m, E (c, m, d) the bases of the c eigenspaces of R[b] of
    dimension m met in the chunk, E[s][:, Q[s]] = I.  F_r is scanned 2^16
    values at a time, x and r - 1 - x for x from 0 up in the same chunk, so
    a root -c is met as early as c - 1.  The eigenspace of lam is the left
    kernel of M = R[b] - lam I: one reduction of the stack [M | I] over the
    roots met in a chunk, pivoting in M, leaves in each row j with no pivot
    an x with x M = 0, 1 at j and 0 at the other such rows.  A matrix is
    done once its eigenspace dimensions add up to d, which the check
    requires of each: R[b] is diagonalisable with every eigenvalue in F_r."""
    n, d, _ = R.shape
    if not n:
        return
    F, eye = _charpoly(R, r), np.eye(d, dtype=np.int64)
    dim, todo, lo = np.zeros(n, dtype=np.int64), np.arange(n), 0
    half = (r + 1) // 2  # x < half low, r - 1 - x above it for x < r // 2
    while lo < half and todo.size:
        h = max(1, (1 << 15) // todo.size)
        xs = np.arange(lo, min(lo + h, half))
        xs = np.concatenate([xs, r - 1 - xs[:r // 2 - lo]])
        lo += h
        acc = np.repeat(F[todo, :1], xs.size, axis=1)
        for c in F[todo, 1:].T:
            acc *= xs
            acc += c[:, None]
            acc %= r
        s, x = np.nonzero(acc == 0)
        if not s.size:
            continue  # no root in the chunk: nothing to reduce
        b = todo[s]
        M = R[b] - xs[x, None, None] * eye
        K, piv, rows = _rref(np.concatenate([M, np.broadcast_to(eye, M.shape)],
                                            axis=2), r, d)
        m = (piv == d).sum(axis=1)
        dim += np.bincount(b, m, n).astype(np.int64)
        for j, mj in set(zip(b.tolist(), m.tolist())):
            at = np.flatnonzero((b == j) & (m == mj))
            yield j, K[at, d - mj:, d:], rows[at, d - mj:]
        todo = todo[dim[todo] < d]
    _check((dim == d).all(), "sum of the eigenspace dimensions over the roots "
           "in F_r", d, dim[dim != d][:1].tolist())


def _fr_characters(A, r):
    """The characters of the abelian group A in F_r: theta[t, a] =
    zeta_E^L[t, a] for the rows of rings.character_group, by fr_roots."""
    E, L = character_group(A)
    return fr_roots(E, r)[L]


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


def _twist_table(Lam, r):
    """(ids, prod): ids[C] numbers the distinct columns Lam[:, C], prod[x, y]
    their products, -1 if none: lambda(C_j) = lambda(C_t) lambda(C_m) for
    every twist iff ids[j] == prod[ids[t], ids[m]]."""
    index = {}
    ids = [index.setdefault(c, len(index)) for c in map(tuple, Lam.T.tolist())]
    cols = np.array(list(index), dtype=np.int64)
    prod = [[index.get(c, -1) for c in map(tuple, (x * cols % r).tolist())]
            for x in cols]
    return tuple(np.array(x, dtype=np.min_scalar_type(-len(index)))
                 for x in (ids, prod))


def _check_twists(table, t, what, j, m):
    """The twist certificate on the class matrix N of class t, at its nonzero
    entries N[j, m], the classes C_j of the products x * rep_m, x in C_t
    (arrays that broadcast), through the table of _twist_table:
    lambda(C_j) = lambda(C_t) lambda(C_m), so D_lambda N = lambda(C_t) N
    D_lambda and v D_lambda is a common eigenline whenever v is one."""
    ids, prod = table
    off = np.count_nonzero(ids.take(j) != prod[ids[t], ids[m]])
    _check(not off, "entries of lambda(C_j) off lambda(C_t) lambda(C_m) "
           "where N[j, m] != 0, on %s" % what, 0, off)


def _central_blocks(shift, theta, mu, r):
    """The joint eigenspaces of the central class matrices, one per twist
    orbit of central characters, stacked, built with no linear algebra:
    shift[a, i] is the class z_a C_i for the central elements z_a, and
    theta[t, a] = theta_t(z_a) the characters of the centre Z.  A common
    eigenvector omega_chi satisfies omega_chi(z C) = theta(z) omega_chi(C),
    theta the central character of chi, so the eigenspace of theta has one
    row per Z-orbit of classes whose stabiliser lies in ker theta:
    v[shift[a, c]] = theta(z_a) at the orbit's least class c, zero off the
    orbit.  Their supports are disjoint, so B[:, P] = I with P the orbit
    representatives, and N_z is the scalar theta(z) on the block.  mu[j]
    are the distinct restrictions to Z of the twists, mu[0] = 1.
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
        S = np.stack([orbit[:, ok[t]].T for t in ts])  # the rows' supports
        B = np.zeros((len(ts), d, k))  # float64, as _mm multiplies
        B[np.arange(len(ts))[:, None, None], np.arange(d)[:, None], S] = \
            theta[ts, None]
        _check_central(B, S, shift, theta[ts], r)
        blocks[d] = (B, np.stack([reps[ok[t]] for t in ts]))
    return blocks


def _check_central(B, S, shift, theta, r):
    """v N_z = theta(z) v on the central blocks B (blocks, d, k) of one
    dimension, checked on the supports: each row v is zero off its Z-orbit,
    the classes S[b, o], and v[z_a C] = theta[b, a] v[C] for C on it."""
    at = np.arange(len(B))[:, None, None], np.arange(B.shape[1])[:, None]
    v = B[at + (S,)]
    off = sum(np.count_nonzero(B[at + (shift[a].take(S),)]
                               != theta[:, a, None, None] * v % r)
              for a in range(len(shift)))
    off += abs(np.count_nonzero(B) - S.size + np.count_nonzero(np.diff(
        np.sort(S), axis=2) == 0))
    _check(not off, "entries of v[z C] off theta(z) v[C] on the Z-orbits, or "
           "nonzero off them, in the central blocks of dimension %d"
           % B.shape[1], 0, off)


def _eigenlines(G, jstar, r):
    """The k common eigenvectors of the class matrices of the root group G
    over F_r, one row per irreducible character, scaled to 1 at the
    identity class; jstar[i] is the class of the inverses of C_i."""
    k = G.class_count
    sizes, cls_of = G._classes()
    ic = G.identity_class
    tables = _class_tables(G)
    # shift[a, i]: the class z_a C_i (G is a root group: indices are positions)
    central = np.flatnonzero(sizes == 1)
    shift = _product_classes(G, tables, G.rep_idx[central]).T
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
    table = _twist_table(Lam, r)
    # N_z of a central z is nonzero at (z C_m, C_m) alone
    _check_twists(table, central[:, None], "the central classes", shift,
                  np.arange(k)[None])
    by_class = np.argsort(cls_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    # The class algebra over F_r is split semisimple (r = 1 mod the
    # exponent), so each restricted matrix R is diagonalisable: a block
    # splits under class i exactly when R is not scalar.  blocks[d] = (B,
    # P), B (n, d, k) with B[b][:, P[b]] = I, so row j of B[b] N^T in the
    # span of B[b] is R[b, j] @ B[b] with R[b] = (B[b] N^T)[:, P[b]].
    blocks = _central_blocks(shift, theta, Lam[:, central], r)
    NT = np.empty((k, k))  # N^T of the class in use, one buffer for all
    covered = np.zeros(k, dtype=bool)
    covered[central] = True
    for i in range(k):
        if covered[i]:
            continue
        if list(blocks) == [1]:
            break
        t = jstar[i]
        _class_matrix(G, tables, by_class[starts[t]:starts[t + 1]], NT,
                      (table, t, "class %d" % i))
        if sizes[t] >= r:  # a count can reach r only in a class that large
            NT %= r
        parts = {}
        for d, (B, P) in blocks.items():
            if d == 1:
                parts.setdefault(1, []).append((B, P))
                continue
            Bi = _mm(B.reshape(-1, k), NT).reshape(B.shape)  # not reduced
            at = np.arange(len(B))[:, None]
            R = Bi[at[:, None], np.arange(d)[:, None], P[:, None]].astype(
                np.int64) % r
            off = np.count_nonzero((_mm(R, B) - Bi).astype(np.int64) % r)
            _check(not off, "entries of B N^T off the span of the blocks of "
                   "dimension %d under class %d" % (d, i), 0, off)
            del Bi  # k x k on the first split, which sets the peak memory
            scalar = (R == R[:, :1, :1] * np.eye(d, dtype=np.int64)).all(
                axis=(1, 2))
            if scalar.any():
                parts.setdefault(d, []).append((B[scalar], P[scalar]))
            split = np.flatnonzero(~scalar)
            for b, E, Q in _eigenspaces(R[split], r):
                # (E @ B[b])[:, P[b][Q]] = E[:, Q] = I on each eigenspace
                b = split[b]
                parts.setdefault(E.shape[1], []).append((_mm(E, B[b], r),
                                                         P[b][Q]))
        blocks = {d: (np.concatenate([B for B, _ in ps], dtype=np.float64),
                      np.concatenate([P for _, P in ps]))
                  for d, ps in parts.items()}
        dims = sum(B.shape[0] * d for d, (B, _) in blocks.items()) * len(Lam)
        _check(dims == k, "eigenspace dimensions after class %d, times %d "
               "twists" % (i, len(Lam)), k, dims)
        covered[shift[:, i]] = True
    del NT  # k x k, not held while the eigenlines are written
    count = sum(B.shape[0] for B, _ in blocks.values()) * len(Lam)
    _check(list(blocks) == [1] and count == k, "one-dimensional common "
           "eigenspaces, times %d twists" % len(Lam), k, count)
    # the eigenlines of the other blocks of each orbit: v lambda elementwise
    V = (blocks[1][0][:, 0].astype(np.int64) * Lam[:, None] % r).reshape(k, k)
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


def character_degrees(G, r=None):
    """Sorted degree multiset of the irreducible characters of G, split mod
    r (by default the least prime = 1 mod the exponent above max(2 sqrt|G|,
    k)), admitted by admit_prime and kept on G per r."""
    if G.is_abelian:
        return [1] * G.order
    k = G.class_count
    exponent, jstar = G.powers
    bound = max(math.isqrt(4 * G.order), k)  # r > bound: r > 2 sqrt|G|, r > k
    r = admit_prime(dixon_prime(exponent, bound) if r is None else r,
                    exponent, bound, k)

    def degrees():
        W = _eigenlines(G, jstar, r)
        s = (W * W[:, jstar] % r * _inverses(G.class_sizes, r) % r).sum(
            axis=1) % r
        _check(np.count_nonzero(s) == k, "nonzero norms", k,
               np.count_nonzero(s))
        return _read_degrees(G.order * _inverses(s, r) % r, r, G.order)
    return list(_once(G, ("degrees", r), degrees))
