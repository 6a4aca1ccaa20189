"""Character degrees by Dixon's modular variant of the class-algebra method:
split the common eigenvectors of the class-multiplication matrices over a
prime field F_r with r = 1 mod exponent(G), normalize each eigenvector at the
identity class, and read the degree from the second orthogonality relation.
Everything is exact integer arithmetic, so this is an independent oracle for
the degree multisets produced by the explicit constructions.

Overflow: every matrix entry is reduced below r (class-matrix entries count
members of one class, fewer than |G| < r), so a product of two entries is
below r^2 and a dot product of length at most k below k*r^2, which
character_degrees requires to stay under 2^63; int64 never overflows."""

import math

import numpy as np

from .rings import _check, is_prime


def group_exponent(G):
    """Least common multiple of the element orders, from class representatives."""
    e = 1
    for rep in G.class_reps:
        e = math.lcm(e, G.element_order(rep))
    return e


def dixon_prime(exponent, bound):
    """Smallest prime r = 1 mod exponent with r > bound."""
    r = bound + 1 + (-(bound)) % exponent
    while not is_prime(r):
        r += exponent
    return r


def _class_matrix(G, members, rep_idx, cls_of):
    """N[j, m] = #{x in C_i : x^-1 * rep_m in C_j}, counted from members, the
    element indices of the inverse class C_i^-1: one whole-array product
    members x reps, its classes, and a bincount."""
    k = len(rep_idx)
    j = cls_of[G.right_mul(members[:, None], rep_idx[None, :])]
    return np.bincount((j * k + np.arange(k)).ravel(),
                       minlength=k * k).reshape(k, k)


def _rref(B, r):
    """Row-reduce mod r; returns (reduced rows, pivot columns)."""
    B = B % r
    pivots = []
    row = 0
    for col in range(B.shape[1]):
        if row == B.shape[0]:
            break
        nz = np.flatnonzero(B[row:, col])
        if not nz.size:
            continue
        sel = row + int(nz[0])
        B[[row, sel]] = B[[sel, row]]
        B[row] = B[row] * pow(int(B[row, col]), -1, r) % r
        f = B[:, col].copy()
        f[row] = 0
        # the pivot row is zero left of col, so those columns stay as they are
        B[:, col:] = (B[:, col:] - np.outer(f, B[row, col:])) % r
        pivots.append(col)
        row += 1
    return B[:row], pivots


def _nullspace(A, r):
    """Basis of the kernel of A mod r, as rows: one per free column."""
    n = A.shape[1]
    R, pivots = _rref(A, r)
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    K = np.zeros((free.size, n), dtype=np.int64)
    K[np.arange(free.size), free] = 1
    K[:, pivots] = (-R[:, free]).T % r
    return K


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


def _roots(coeffs, r):
    """All roots in F_r, by evaluating at every point."""
    xs = np.arange(r, dtype=np.int64)
    acc = np.full(r, coeffs[0], dtype=np.int64)
    for c in coeffs[1:]:
        acc = (acc * xs + c) % r
    return [int(x) for x in xs[acc == 0]]


def _inverses(x, r):
    """Elementwise inverses mod r of nonzero residues."""
    return np.array([pow(int(v), -1, r) for v in x], dtype=np.int64)


def character_degrees(G, r_override=None):
    """Sorted degree multiset of the irreducible characters of G."""
    if getattr(G, "is_abelian", False):
        return [1] * G.order
    if r_override is None and getattr(G, "_degree_multiset", None) is not None:
        return list(G._degree_multiset)
    k = G.class_count
    exponent = group_exponent(G)
    r = r_override if r_override is not None else dixon_prime(exponent, G.order)
    if not (is_prime(r) and r > G.order and (r - 1) % exponent == 0):
        raise ValueError("Dixon prime must be a prime r > |G| = %d with "
                         "r = 1 mod exponent %d, got %d" % (G.order, exponent, r))
    if k * r * r >= 2 ** 63:
        raise ValueError("Dixon prime %d too large for int64 arithmetic with "
                         "%d classes" % (r, k))
    reps, sizes, cls_of = G._classes()
    rep_idx = np.array([G.index[x] for x in reps], dtype=np.intp)
    jstar = cls_of[[G.index[G.inv(x)] for x in reps]]
    by_class = np.argsort(cls_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    ic = G.identity_class
    # The class algebra over F_r is split semisimple (r > |G|, r = 1 mod the
    # exponent), so each restricted matrix R is diagonalisable: a block
    # splits under class i exactly when R is not scalar.
    spaces = [(np.eye(k, dtype=np.int64), list(range(k)))]
    for i in range(k):
        if i == ic:
            continue
        if all(B.shape[0] == 1 for B, _ in spaces):
            break
        N = None
        split = []
        for B, piv in spaces:
            d = B.shape[0]
            if d == 1:
                split.append((B, piv))
                continue
            if N is None:
                t = jstar[i]
                N = _class_matrix(G, by_class[starts[t]:starts[t + 1]],
                                  rep_idx, cls_of)
            Bi = B @ N.T % r
            R = Bi[:, piv]
            off = np.count_nonzero(R @ B % r != Bi)
            _check(not off, "entries of B N^T off the span of a block of "
                   "dimension %d under class %d" % (d, i), 0, off)
            if not np.count_nonzero(R - R[0, 0] * np.eye(d, dtype=np.int64)):
                split.append((B, piv))
                continue
            for lam in _roots(_charpoly(R, r), r):
                Kb = _nullspace((R.T - lam * np.eye(d, dtype=np.int64)) % r, r)
                if Kb.shape[0]:
                    # B is row-reduced with pivot columns piv, so E @ B is the
                    # row-reduced basis of Kb @ B, with pivot columns piv[P].
                    E, P = _rref(Kb, r)
                    split.append((E @ B % r, [piv[p] for p in P]))
        _check(sum(B.shape[0] for B, _ in split) == k,
               "eigenspace dimensions after class %d" % i, k,
               sum(B.shape[0] for B, _ in split))
        spaces = split
    _check(len(spaces) == k, "one-dimensional common eigenspaces", k, len(spaces))
    V = np.array([B[0] for B, _ in spaces])
    _check(np.count_nonzero(V[:, ic]) == k, "eigenvectors nonzero at the "
           "identity class", k, np.count_nonzero(V[:, ic]))
    W = V * _inverses(V[:, ic], r)[:, None] % r
    s = (W * W[:, jstar] % r * _inverses(sizes, r) % r).sum(axis=1) % r
    _check(np.count_nonzero(s) == k, "nonzero norms", k, np.count_nonzero(s))
    d2 = G.order * _inverses(s, r) % r
    degrees = np.rint(np.sqrt(d2)).astype(np.int64)
    bad = (degrees * degrees != d2) | (d2 < 1) | (d2 > G.order)
    _check(not bad.any(), "squared degrees: squares in [1, |G|]",
           "squares", d2[bad].tolist())
    _check(int(d2.sum()) == G.order, "sum of squared degrees", G.order,
           int(d2.sum()))
    degrees = sorted(degrees.tolist())
    if r_override is None:
        try:
            G._degree_multiset = degrees
        except AttributeError:
            pass
    return list(degrees)
