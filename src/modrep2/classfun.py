"""Class functions on the rank-two automorphism groups and the transfer maps
between levels: induction, restriction, inflation, kernel averaging, the
parabolic pair and the two congruence pairs, determinant twists, and the
depth-one spectrum used to sort irreducible characters into families.

Everything moves by the stack.  A ClassFunction holds an (n, k) array of
values, one row per function and one column per class of its group; a single
class function is a stack of one row.  Every transfer takes a stack and
returns a stack (or one entry per row), so a family moves between groups in
a few numpy calls.  Member values are summed per class in one way only: a
linear map stored as (source class, target class, count) triples from one
pass over a subgroup's members (_Pairs), for ind and res along each side,
for induce from a subgroup's abelianization and for the depth-one duals of
k_spectrum.  What does not depend on the rows is computed once and kept on
the group it belongs to (rings._once): the count maps of each side, the
classes of the representatives' images for inflate, the det codes of the
representatives for twist, and each subgroup's class counts for the
cuspidality check.  Wide temporaries are taken in row blocks of about
_ENTRIES entries.

Values are int64 residues mod one prime r = 1 mod the exponent of the job
(build.job_prime, rings.fr_roots), Z[zeta_N] modulo a prime above r, r
prime to |G|: distinct irreducible characters stay distinct, conjugation is
the value at the inverse class (FiniteGroup.powers), division an inverse mod
r, a row's key its bytes.  Integers are read (_read) in ranges characters
obey: degrees in [0, isqrt(r - 1)], inner products of rows of degrees d, d'
in [0, d d'], multiplicities in restrictions in [0, d]."""

import math

import numpy as np

from .orbits import CongruenceDual, inner_types
from .rings import (_check, _inverses, _mm, _once, character_group, fr_roots,
                    twisting_characters, unit_characters)

_ENTRIES = 1 << 16  # entries per row block of a wide temporary


def _blocks(n, width):
    """Row slices covering n rows, about _ENTRIES entries of the given
    width each."""
    step = max(1, _ENTRIES // max(width, 1))
    return [slice(s, s + step) for s in range(0, n, step)]


def _read(v, hi, what, r):
    """The residues v as the integers in [0, hi] they stand for (hi < r,
    broadcast against v), or a _check failure naming the first ten off."""
    off = (v < 0) | (v > hi)
    if off.any():  # the lists cost four times the test: built on failure
        _check(False, "%s, integers mod %d within their bounds" % (what, r),
               np.broadcast_to(hi, v.shape)[off][:10].tolist(),
               v[off][:10].tolist())
    return v


class ClassFunction:
    """A stack of class functions of one group: vals is an (n, k) int64
    array of residues mod the prime r, one row per function, one column per
    class."""

    __slots__ = ("group", "vals", "r")

    def __init__(self, group, vals, r):
        self.group, self.r = group, r
        vals = np.asarray(vals, dtype=np.int64)
        self.vals = vals.reshape(1, -1) if vals.ndim == 1 else vals
        _check(self.vals.ndim == 2
               and self.vals.shape[1] == group.class_count, "class function "
               "values, one column per class", (group.class_count,),
               self.vals.shape)

    def __len__(self):
        return len(self.vals)

    def __getitem__(self, rows):
        """The stack of the selected rows (a view for an int or a slice)."""
        return ClassFunction(self.group, self.vals[rows], self.r)

    @property
    def degrees(self):
        """The values at the identity read in [0, isqrt(r - 1)]."""
        return _read(self.vals[:, self.group.identity_class],
                     math.isqrt(self.r - 1), "degrees", self.r)

    def norms(self):
        """<f, f> of each row mod r, the Gram diagonal without the matrix."""
        G, V, r = self.group, self.vals, self.r
        w = G.class_sizes % r * pow(G.order, -1, r) % r  # |C| / |G|
        out = np.empty(len(V), dtype=np.int64)
        for rows in _blocks(len(V), V.shape[1]):
            out[rows] = _mm(V[rows] * V[rows][:, G.powers[1]] % r, w, r)
        return out

    def inner(self, other):
        """<f, g> = sum_C |C| f(C) g(C^-1) / |G| mod r, (n, m): the pairing
        with the inverse classes, on characters the Hermitian one."""
        G, r = self.group, self.r
        _check(other.group is G and other.r == r, "inner: both on one group, "
               "mod one prime", (G.name, r), (other.group.name, other.r))
        w = G.class_sizes % r * pow(G.order, -1, r) % r
        return _mm(self.vals * w % r, other.vals[:, G.powers[1]].T, r)

    def mult(self, other=None):
        """Inner products read in [0, d d'] for the degrees d, d' of the two
        rows, as on characters: the (n, m) matrix against other, or the
        norms of the rows if other is None."""
        d = self.degrees
        if other is None:
            return _read(self.norms(), d * d, "mult: inner products", self.r)
        return _read(self.inner(other), np.outer(d, other.degrees),
                     "mult: inner products", self.r)

    def fingerprint(self):
        """Per row, its bytes: equal exactly when the rows are."""
        return _keys(self).tolist()


def _keys(funcs):
    """One void item per row, the row's bytes."""
    V = np.ascontiguousarray(funcs.vals)
    return V.view("V%d" % (8 * V.shape[1])).ravel()


def row_order(funcs):
    """(order, repeat): the stable order of the rows by their bytes (one
    stable argsort of the keys, which compares them bytewise; any total
    order serves, as equal rows sort next to each other), and whether each
    row in that order equals the one before it."""
    order = np.argsort(_keys(funcs), kind="stable")
    key = _keys(funcs[order])
    return order, np.r_[False, key[1:] == key[:-1]]


def stack(parts):
    """One stack of the rows of the given stacks, in order; all must be on
    one group, mod one prime."""
    G, r = parts[0].group, parts[0].r
    _check(all(p.group is G and p.r == r for p in parts), "stack: parts on "
           "one group, mod one prime", (G.name, r),
           sorted({(p.group.name, p.r) for p in parts}))
    return ClassFunction(G, np.concatenate([p.vals for p in parts]), r)


def dedupe(funcs):
    """Drop rows equal to an earlier one (equal fingerprints), keeping first
    occurrences, and hand the rest over in row_order's order: the rows
    equal to the one before them in its stable order are the repeats."""
    order, repeat = row_order(funcs)
    return funcs[order[~repeat]]


def linear_characters(H):
    """The one-dimensional characters of H, pulled back from its
    abelianization Q: (Q, E, L) with chi_t at the member at position p equal
    to zeta_E^L[t, Q.coset_of[p]], so the rows fr_roots(E, r)[L] are class
    functions on Q for induce; no class data of H is read."""
    Q = H.abelianization()
    return (Q,) + character_group(Q)


def inflate(G, f, kind, m=0):
    """Pull back class functions on Q along the map kind from G's root
    group onto Q (AutGroup.hom): their values at the classes of the images
    of G's class representatives, found once per (G, kind, m)."""
    def images():
        Q, img = G.root.hom(kind, G.rep_idx, m)
        return Q, Q.cls_of[img]

    Q, cls = _once(G, ("inflate", kind, m), images)
    _check(f.group is Q, "inflate: a class function on the target of "
           + kind, Q.name, f.group.name)
    return ClassFunction(G, f.vals[:, cls], f.r)


class _Pairs:
    """A linear map between class functions kept as (source class, target
    class, count) triples sorted by target: out[:, t] is the sum of count *
    V[:, s] over the triples (s, t, count), mod r.  Built from one pair code
    target * k_source + source per member; no dense matrix is formed."""

    def __init__(self, code, k_src, k_dst):
        code = np.sort(code)
        first = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
        self.count = np.diff(np.r_[first, len(code)])
        self.dst, self.src = np.divmod(code[first], k_src)
        self.starts = np.flatnonzero(np.r_[True, self.dst[1:]
                                           != self.dst[:-1]])
        self.cols = self.dst[self.starts]
        self.k_dst = k_dst

    def __call__(self, vals, r):
        out = np.zeros((len(vals), self.k_dst), dtype=np.int64)
        count = self.count % r
        for rows in _blocks(len(vals), len(self.src)):
            T = vals[rows][:, self.src]
            T *= count
            T %= r
            out[rows, self.cols] = np.add.reduceat(T, self.starts, axis=1) % r
        return out


def _fibers(P, img, Q, what):
    """Check that the map what from the subgroup P onto Q, img the image of
    each member, has |P|/|Q| members over every element of Q."""
    n = P.order // Q.order
    sizes = np.bincount(img, minlength=Q.order)
    _check((sizes == n).all(), "%s: fiber sizes of %s onto %s"
           % (P.name, what, Q.name), n, sorted(set(sizes.tolist())))


def _induced(P, sums, r):
    """The class functions on P's root group G whose sums over P's members
    per class C of G are sums, scaled by |G| / (|P| |C|) mod r in place, so
    no second (n, k) array is formed: the last step of ind and induce; the
    inverses of the |C| are kept per (G, r)."""
    G = P.root
    inv = _once(G, ("1 / |C|", r), lambda: _inverses(G.class_sizes, r))
    sums *= G.order // P.order % r * inv % r
    sums %= r
    return ClassFunction(G, sums, r)


def count_maps(P, kind, m=0):
    """(Q, up, down) for the map kind from the subgroup P onto Q, once per
    (P, kind, m), from one pass over P's members: up counts the members by
    (Q-class, root class) pair, down only the members over each Q-class's
    representative (root class -> Q-class).  Every fiber must have |P|/|Q|
    members; then up = |C_Q| * down on every pair (Frobenius reciprocity)."""
    def build():
        Q, img, cls = P.pullback(kind, m)
        _fibers(P, img, Q, kind)
        kQ, kG = Q.class_count, P.root.class_count
        at = img == Q.rep_idx[cls]
        return (Q, _Pairs(P.root_cls * kQ + cls, kQ, kG),
                _Pairs(cls[at] * kG + P.root_cls[at], kG, kQ))

    return _once(P, ("pairs", kind, m), build)


def induce(P, f):
    """Induction to P's root group of the class functions f on P's
    abelianization Q (linear_characters), pulled back to P along
    Q.coset_of: the count map of (coset, root class) pairs over P's
    members, every coset checked to have |P|/|Q| members; no class data of
    P is read."""
    Q = f.group
    cos = getattr(Q, "coset_of", ())
    _check(len(cos) == P.order, "induce: a class function on the "
           "abelianization of " + P.name, P.order, len(cos))
    _fibers(P, cos, Q, "coset_of")
    k = P.root.class_count
    return _induced(P, _Pairs(P.root_cls * Q.order + cos, Q.order, k)(
        f.vals, f.r), f.r)


def invariants_pushforward(P, kind, f, m=0):
    """Restrict class functions f on P's root group to P and average them
    over the fibers of the map kind onto its target Q, which on characters
    takes the kernel's invariants: the count map down of count_maps, divided
    by the fiber size |P|/|Q| mod r."""
    _check(f.group is P.root, "invariants_pushforward: a class function on "
           "the root group of P", P.root.name, f.group.name)
    Q, _, down = count_maps(P, kind, m)
    r = f.r
    return ClassFunction(Q, down(f.vals, r) * pow(P.order // Q.order, -1, r)
                         % r, r)


def twist(chi, uchars):
    """Multiply each row by each unit character uchars = (E, L) of R2
    composed with the determinant, rows in (row, character) order: the
    characters' values gathered at the det codes of the class
    representatives, found once per group."""
    G, r = chi.group, chi.r
    R2, codes = _once(G, "det", lambda: G.hom("det", G.rep_idx))
    E, L = uchars
    by_code = np.zeros((len(L), R2.size), dtype=np.int64)
    by_code[:, R2.units] = fr_roots(E, r)[L]
    out = chi.vals[:, None, :] * by_code[:, codes] % r
    return ClassFunction(G, out.reshape(-1, G.class_count), r)


# side -> (parabolic, its map onto the torus or onto the (l1, m) group)
_SIDES = {"upper": ("parabolic_upper", "diag"),
          "lower": ("parabolic_lower", "diag"),
          "embed": ("parabolic_embed", "embed"),
          "quot": ("parabolic_quot", "quot")}


def ind(G, f, side, m=0):
    """Inflate f to the side's parabolic P along its map and induce up to
    G: the count map up of count_maps, scaled by |G| / (|P| |C|) mod r."""
    tag, kind = _SIDES[side]
    P = G.subgroup(tag, m=m)
    Q, up, _ = count_maps(P, kind, m)
    _check(f.group is Q, "ind: a class function on the target of " + kind,
           Q.name, f.group.name)
    return _induced(P, up(f.vals, f.r), f.r)


def res(G, f, side, m=0):
    """Adjoint of ind: restrict to the side's parabolic and average over the
    kernel of its map."""
    tag, kind = _SIDES[side]
    return invariants_pushforward(G.subgroup(tag, m=m), kind, f, m)


def torus_character(G, t1, t2, r):
    """The rows t1[i] x t2[i] on G.torus = units(R1) x units(R2), mod r,
    for unit characters t1 = (E1, L1) of R1 and t2 = (E2, L2) of R2 with as
    many rows, their columns following the units: the outer products of
    their values."""
    (E1, L1), (E2, L2) = t1, t2
    A, B = fr_roots(E1, r)[L1], fr_roots(E2, r)[L2]
    return ClassFunction(G.torus, (A[:, :, None] * B[:, None, :] % r).reshape(
        len(A), -1), r)


def all_pairs(c1, c2):
    """Every pair of rows of the characters c1 = (E1, L1) and c2 = (E2, L2),
    c1's outer: two (E, L) with one row per pair, for torus_character."""
    (E1, L1), (E2, L2) = c1, c2
    return ((E1, np.repeat(L1, len(L2), axis=0)),
            (E2, np.tile(L2, (len(L1), 1))))


def depth_one_dual(G):
    """The depth-one congruence dual of G, built once per group."""
    return _once(G, "depth_one_dual", lambda: CongruenceDual(G, 1, 0))


def k_spectrum(G, chi):
    """Multiplicity of each depth-one congruence-kernel character in the
    restriction of each row, (n, duals) indexed like CongruenceDual(G, 1,
    0).duals, read in [0, deg]: the rows at the classes meeting K times the
    dual values at the inverses summed per class (one pair per member of
    K, the classes numbered among those meeting K) over |K|, kept per r."""
    r = chi.r

    def by_class():
        D = depth_one_dual(G)
        M, X = D.exponents
        n = D.K.order
        cols = np.flatnonzero(_class_counts(D.K))
        at = np.searchsorted(cols, D.K.root_cls)
        A = _Pairs(at * n + np.arange(n), n, len(cols))(
            fr_roots(M, r)[-X % M], r)
        return cols, A.T * pow(n, -1, r) % r

    cols, A = _once(G, ("k_spectrum", r), by_class)
    return _read(_mm(chi.vals[:, cols], A, r), chi.degrees[:, None],
                 "k_spectrum: multiplicities", r)


def spectrum_kinds(G, chi):
    """(kinds, present): the orbit labels of G's depth-one duals, sorted,
    and per row whether its depth-one spectrum meets each of them."""
    def onehot():
        labels = [lab[0] for lab in depth_one_dual(G).labels]
        kinds = sorted(set(labels))
        return kinds, np.array([[k == lab for k in kinds] for lab in labels])

    kinds, hot = _once(G, "spectrum_kinds", onehot)
    return kinds, (k_spectrum(G, chi) > 0).astype(np.int64) @ hot > 0


def is_primitive(G, chi):
    """Per row, whether its depth-one spectrum avoids the scalar-type
    characters, so it is not a twist of a pullback from the floor group."""
    kinds, present = spectrum_kinds(G, chi)
    return ~present[:, [kinds.index(k) for k in ("central", "scalar")
                        if k in kinds]].any(axis=1)


def _class_counts(U):
    """The number of members of the subgroup U in each class of its root
    group, found once per U."""
    return _once(U, "class_counts", lambda: np.bincount(
        U.root_cls, minlength=U.root.class_count))


def member_sums(U, chi):
    """Per row, the sum of its values over the members of the subgroup U of
    its group mod r, the rows times U's class counts: on a character, |U|
    times a multiplicity below r, so 0 exactly when that is."""
    return _mm(chi.vals, _class_counts(U) % chi.r, chi.r)


def is_cuspidal(G, chi):
    """Per row: irreducible, primitive, and every determinant twist has no
    invariants under any unipotent or congruence kernel, i.e. all twists are
    killed by all the restriction functors.  The twisted means over every
    kernel, multiplicities read in [0, deg], are one product with the
    (classes, twists x kernels) matrix of twist values times class counts
    over the kernel's order, kept per (group, prime)."""
    r = chi.r

    def means():
        subs = [G.subgroup("unipotent_upper"), G.subgroup("unipotent_lower")]
        subs += [G.subgroup(tag, m=m) for _, m in inner_types(G.lam)
                 for tag in ("ker_embed", "ker_quot")]
        twists = (twisting_characters(G.R2) if G.R2.level >= 2
                  else unit_characters(G.R2))
        T = twist(ClassFunction(G, np.ones(G.class_count), r), twists).vals
        counts = np.array([_class_counts(U) % r * pow(U.order, -1, r) % r
                           for U in subs])
        return (T[:, None, :] * counts[None, :, :] % r).reshape(
            -1, G.class_count).T

    ok = chi.mult() == 1
    if G.l2 >= 2 and ok.any():
        ok[ok] = is_primitive(G, chi[ok])
    W = _once(G, ("cuspidal_means", r), means)
    return ok & (_read(_mm(chi.vals, W, r), chi.degrees[:, None],
                       "is_cuspidal: twisted kernel means", r) == 0).all(
                           axis=1)
