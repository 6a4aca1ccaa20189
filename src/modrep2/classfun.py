"""Class functions on the rank-two automorphism groups and the transfer maps
between levels: induction, restriction, inflation, kernel averaging, the
parabolic pair and the two congruence pairs, determinant twists, and the
depth-one spectrum used to sort irreducible characters into families.

Everything moves by the stack.  A ClassFunction holds an (n, k) array of
values, one row per function and one column per class of its group; a single
class function is a stack of one row.  Every transfer takes a stack and
returns a stack (or one entry per row), so a family moves between groups in
a few numpy calls.  What does not depend on the rows is computed once and
kept on the group it belongs to (_once): along each side, ind and res are
linear maps stored as (source class, target class, count) triples from one
pass over the parabolic's members (_Pairs); inflate keeps the classes of the
representatives' images, twist the det codes of the representatives, and
the cuspidality check each subgroup's class counts.  A family's member order
(row_order) is one stable sort of order-preserving byte keys of its rounded
rows.  Wide temporaries are taken in row blocks of about _ENTRIES
entries.

Values are compared by one rule, |a - b| <= TOL with no relative term
(close); degrees, norms, inner products and multiplicities must each be
that close to an integer (integers), which NaN and inf never are.  Rounded
keys only find equal rows among many."""

import numpy as np

from .orbits import CongruenceDual, inner_types
from .rings import (TOL, _check, character_group, roots_of_unity,
                    twisting_characters, unit_characters)

_ENTRIES = 1 << 16  # entries per row block of a wide temporary


def _blocks(n, width):
    """Row slices covering n rows, about _ENTRIES entries of the given
    width each."""
    step = max(1, _ENTRIES // max(width, 1))
    return [slice(s, s + step) for s in range(0, n, step)]


def _once(G, key, build):
    """build(), kept on G under key: a map that does not depend on the
    rows it is applied to."""
    maps = vars(G).setdefault("_classfun_maps", {})
    if key not in maps:
        maps[key] = build()
    return maps[key]


def close(a, b):
    """Entrywise |a - b| <= TOL: the one tolerance rule for values."""
    return np.abs(a - b) <= TOL


def integers(v, what):
    """The real or complex values v as int64, each close to an integer; else
    a _check failure naming what and the first ten entries that are off."""
    n = np.round(v.real)
    ok = close(v, n)
    _check(ok.all(), "%s, integers within %g" % (what, TOL), "integers",
           v[~ok][:10].tolist())
    return n.astype(np.int64)


def _rounded(V):
    """V rounded to 6 decimals into a new C-ordered array, -0.0 read as
    0.0."""
    R = np.round(V, 6, out=np.empty(V.shape, V.dtype))
    R += 0.0
    return R


class ClassFunction:
    """A stack of class functions of one group: vals is an (n, k) complex
    array, one row per function, one column per class.  repeat is None, or
    (on dedupe's output, whose rows are then in row_order's order) whether
    each row's key equals the one before it."""

    __slots__ = ("group", "vals", "repeat")

    def __init__(self, group, vals):
        self.group, self.repeat = group, None
        vals = np.asarray(vals, dtype=np.complex128)
        self.vals = vals.reshape(1, -1) if vals.ndim == 1 else vals
        _check(self.vals.ndim == 2
               and self.vals.shape[1] == group.class_count, "class function "
               "values, one column per class", (group.class_count,),
               self.vals.shape)

    def __len__(self):
        return len(self.vals)

    def __getitem__(self, rows):
        """The stack of the selected rows (a view for an int or a slice)."""
        return ClassFunction(self.group, self.vals[rows])

    @property
    def degrees(self):
        """The values at the identity, which must be integers."""
        return integers(self.vals[:, self.group.identity_class], "degrees")

    def norms(self):
        """<f, f> of each row, the Gram diagonal without the matrix."""
        G, V = self.group, self.vals
        w = G.class_sizes / G.order
        return (np.einsum("ij,ij,j->i", V.real, V.real, w)
                + np.einsum("ij,ij,j->i", V.imag, V.imag, w))

    def inner(self, other):
        """Hermitian inner products with class-size weights, (n, m)."""
        _check(other.group is self.group, "inner: both on one group",
               self.group.name, other.group.name)
        G = self.group
        return (self.vals * G.class_sizes) @ other.vals.conj().T / G.order

    def mult(self, other=None):
        """Inner products that must be non-negative integers: the (n, m)
        matrix against other, or the norms of the rows if other is None."""
        v = self.norms() if other is None else self.inner(other)
        n = integers(v, "mult: inner products")
        _check((n >= 0).all(), "mult: negative inner products", [],
               n[n < 0].tolist())
        return n

    def fingerprint(self):
        """Per row, the bytes of its row_order key: equal exactly when the
        rows are equal after rounding to 6 decimals.  Keyed in row blocks,
        so no key array of the whole stack is held."""
        n, k = self.vals.shape
        out = []
        for rows in _blocks(n, 2 * k):
            key = _row_keys(self[rows])
            out.extend(key.view("V%d" % (16 * k)).ravel().tolist())
        return out


_SIGN = np.uint64(1 << 63)


def row_order(funcs):
    """(order, repeat): the stable order of the rows rounded to 6 decimals
    (the fingerprints' numbers) read as (re, im) pairs, first entry most
    significant, as np.lexsort would give on the columns, and whether each
    row in that order equals the one before it.  Each row's key is its rounded
    doubles as big-endian unsigned integers, every bit of the negatives
    flipped and the sign bit of the others set, so that comparing keys
    bytewise compares the rows; keys are built in row blocks, and one
    stable argsort sorts them as one void field per row."""
    key, order = _keyed_order(funcs)
    return order, _repeats(key, order)


def _row_keys(funcs):
    """row_order's keys, one row of big-endian uint64 per row of funcs: a
    bijection of the rounded doubles, -0.0 read as 0.0."""
    n, k = funcs.vals.shape
    key = np.empty((n, 2 * k), dtype=">u8")
    for rows in _blocks(n, 2 * k):
        bits = _rounded(funcs.vals[rows]).view(np.uint64)
        bits ^= -(bits >> 63) | _SIGN
        key[rows] = bits
    return key


def _keyed_order(funcs):
    """(key, order): _row_keys and their stable order."""
    key = _row_keys(funcs)
    return key, np.argsort(key.view("V%d" % (8 * key.shape[1])).ravel(),
                           kind="stable")


def _repeats(key, order):
    """Whether each key in the given order equals the one before it."""
    w = key.shape[1]
    repeat = np.zeros(len(order), dtype=bool)
    for rows in _blocks(len(order) - 1, w):
        repeat[1:][rows] = (key[order[1:][rows]]
                            == key[order[:-1][rows]]).all(axis=1)
    return repeat


def stack(parts):
    """One stack of the rows of the given stacks, in order; all must be on
    one group."""
    G = parts[0].group
    _check(all(p.group is G for p in parts), "stack: parts on one group",
           G.name, sorted({p.group.name for p in parts}))
    return ClassFunction(G, np.concatenate([p.vals for p in parts]))


def dedupe(funcs):
    """Drop rows equal to an earlier one after rounding (equal
    fingerprints), keeping first occurrences, and hand the rest over in
    row_order's order: the rows equal to the one before them in its stable
    order are the repeats.  The result's repeat reads the same keys again
    over the kept rows (all False), for IrrFamily's distinct-fingerprint
    check, so a family is keyed once."""
    key, order = _keyed_order(funcs)
    keep = order[~_repeats(key, order)]
    out = funcs[keep]
    out.repeat = _repeats(key, keep)
    return out


def linear_characters(H):
    """The one-dimensional characters of H as exponent rows at its members,
    pulled back from the abelianization Q: (E, L, cos) with chi_t at the
    member at position p equal to zeta_E^L[t, cos[p]], cos the coset of
    each member; no class data of H is read."""
    Q = H.abelianization()
    return character_group(Q) + (Q.coset_of,)


def induce(P, vals):
    """Induction to P's root group G of the class functions of P with the
    rows of vals (n, |P|) as values at P's members (by position): one
    bincount over the flattened (row, root class) indices, so each sum runs
    in member order, scaled by |G| / (|P| |C|); no class data of P is
    read."""
    G = P.root
    k = G.class_count
    vals = np.atleast_2d(vals)
    _check(vals.ndim == 2 and vals.shape[1] == P.order, "induce: values at "
           "the members of " + P.name, ("n", P.order), vals.shape)
    out = np.empty((len(vals), k), dtype=np.complex128)
    for rows in _blocks(len(vals), P.order):
        V = vals[rows]
        at = (np.arange(len(V))[:, None] * k + P.root_cls).ravel()
        out[rows] = (np.bincount(at, V.real.ravel(), len(V) * k)
                     + 1j * np.bincount(at, V.imag.ravel(), len(V) * k)
                     ).reshape(len(V), k)
    out *= (G.order // P.order) / G.class_sizes
    return ClassFunction(G, out)


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
    return ClassFunction(G, f.vals[:, cls])


class _Pairs:
    """A linear map between class functions kept as (source class, target
    class, count) triples sorted by target: out[:, t] is the sum of count *
    V[:, s] over the triples (s, t, count).  Built from one pair code
    target * k_source + source per member; no dense matrix is formed."""

    def __init__(self, code, k_src, k_dst):
        code = np.sort(code)
        first = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
        self.count = np.diff(np.r_[first, len(code)]).astype(np.float64)
        self.dst, self.src = np.divmod(code[first], k_src)
        self.starts = np.flatnonzero(np.r_[True, self.dst[1:]
                                           != self.dst[:-1]])
        self.cols = self.dst[self.starts]
        self.k_dst = k_dst

    def __call__(self, vals):
        out = np.zeros((len(vals), self.k_dst), dtype=np.complex128)
        for rows in _blocks(len(vals), len(self.src)):
            T = vals[rows][:, self.src]
            T *= self.count
            out[rows, self.cols] = np.add.reduceat(T, self.starts, axis=1)
        return out


def count_maps(P, kind, m=0):
    """(Q, up, down) for the map kind from the subgroup P onto Q, once per
    (P, kind, m), from one pass over P's members: up counts the members by
    (Q-class, root class) pair, down only the members over each Q-class's
    representative (root class -> Q-class).  Every fiber must have |P|/|Q|
    members; then up = |C_Q| * down on every pair (Frobenius reciprocity)."""
    def build():
        Q, img, cls = P.pullback(kind, m)
        n = P.order // Q.order
        sizes = np.bincount(img, minlength=Q.order)
        _check((sizes == n).all(), "%s: fiber sizes of %s onto %s"
               % (P.name, kind, Q.name), n, sorted(set(sizes.tolist())))
        kQ, kG = Q.class_count, P.root.class_count
        at = img == Q.rep_idx[cls]
        return (Q, _Pairs(P.root_cls * kQ + cls, kQ, kG),
                _Pairs(cls[at] * kG + P.root_cls[at], kG, kQ))

    return _once(P, ("pairs", kind, m), build)


def invariants_pushforward(P, kind, f, m=0):
    """Restrict class functions f on P's root group to P and average them
    over the fibers of the map kind onto its target Q, which on characters
    takes the kernel's invariants: the count map down of count_maps, divided
    by the fiber size |P|/|Q|."""
    _check(f.group is P.root, "invariants_pushforward: a class function on "
           "the root group of P", P.root.name, f.group.name)
    Q, _, down = count_maps(P, kind, m)
    return ClassFunction(Q, down(f.vals) / (P.order // Q.order))


def twist(chi, uchars):
    """Multiply each row by each unit character uchars = (E, L) of R2
    composed with the determinant, rows in (row, character) order: the
    characters' values gathered at the det codes of the class
    representatives, found once per group."""
    G = chi.group
    R2, codes = _once(G, "det", lambda: G.hom("det", G.rep_idx))
    E, L = uchars
    by_code = np.zeros((len(L), R2.size), dtype=np.complex128)
    by_code[:, R2.units] = roots_of_unity(E)[L]
    out = chi.vals[:, None, :] * by_code[:, codes]
    return ClassFunction(G, out.reshape(-1, G.class_count))


# side -> (parabolic, its map onto the torus or onto the (l1, m) group)
_SIDES = {"upper": ("parabolic_upper", "diag"),
          "lower": ("parabolic_lower", "diag"),
          "embed": ("parabolic_embed", "embed"),
          "quot": ("parabolic_quot", "quot")}


def ind(G, f, side, m=0):
    """Inflate f to the side's parabolic P along its map and induce up to
    G: the count map up of count_maps, scaled by |G| / (|P| |C|)."""
    tag, kind = _SIDES[side]
    P = G.subgroup(tag, m=m)
    Q, up, _ = count_maps(P, kind, m)
    _check(f.group is Q, "ind: a class function on the target of " + kind,
           Q.name, f.group.name)
    out = up(f.vals)
    out *= (G.order // P.order) / G.class_sizes
    return ClassFunction(G, out)


def res(G, f, side, m=0):
    """Adjoint of ind: restrict to the side's parabolic and average over the
    kernel of its map."""
    tag, kind = _SIDES[side]
    return invariants_pushforward(G.subgroup(tag, m=m), kind, f, m)


def torus_character(G, t1, t2):
    """The rows t1[i] x t2[i] on G.torus = units(R1) x units(R2), for unit
    characters t1 = (E1, L1) of R1 and t2 = (E2, L2) of R2 with as many
    rows, their columns following the units: the outer products of their
    values."""
    (E1, L1), (E2, L2) = t1, t2
    A, B = roots_of_unity(E1)[L1], roots_of_unity(E2)[L2]
    return ClassFunction(G.torus, (A[:, :, None] * B[:, None, :]).reshape(
        len(A), -1))


def all_pairs(c1, c2):
    """Every pair of rows of the characters c1 = (E1, L1) and c2 = (E2, L2),
    c1's outer: two (E, L) with one row per pair, for torus_character."""
    (E1, L1), (E2, L2) = c1, c2
    return ((E1, np.repeat(L1, len(L2), axis=0)),
            (E2, np.tile(L2, (len(L1), 1))))


def geo_ind(G, t1, t2, side="upper"):
    """Parabolic induction of the pairs of rows of the unit characters t1
    and t2 (torus_character)."""
    return ind(G, torus_character(G, t1, t2), side)


def depth_one_dual(G):
    """The depth-one congruence dual of G, built once per group."""
    return _once(G, "depth_one_dual", lambda: CongruenceDual(G, 1, 0))


def k_spectrum(G, chi):
    """Multiplicity of each depth-one congruence-kernel character in the
    restriction of each row, (n, duals) indexed like CongruenceDual(G, 1,
    0).duals: the rows at the classes meeting K times the conjugated dual
    values summed per class, found once per group."""
    def by_class():
        D = depth_one_dual(G)
        cls = G.cls_of[D.K.idx]
        cols = np.flatnonzero(np.bincount(cls, minlength=G.class_count))
        A = D.value_matrix @ (cls[:, None] == cols).astype(np.float64)
        return cols, A.conj().T / D.K.order

    cols, A = _once(G, "k_spectrum", by_class)
    return integers(chi.vals[:, cols] @ A, "k_spectrum: multiplicities")


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
        U.root_cls, minlength=U.root.class_count).astype(np.float64))


def member_sums(U, chi):
    """Per row, the sum of its values over the members of the subgroup U of
    its group: the rows times U's class counts."""
    return chi.vals @ _class_counts(U)


def is_cuspidal(G, chi):
    """Per row: irreducible, primitive, and every determinant twist has no
    invariants under any unipotent or congruence kernel, i.e. all twists are
    killed by all the restriction functors.  The twisted means over every
    kernel are one product with the (classes, twists x kernels) matrix of
    twist values times class counts over the kernel's order, found once per
    group."""
    def means():
        subs = [G.subgroup("unipotent_upper"), G.subgroup("unipotent_lower")]
        subs += [G.subgroup(tag, m=m) for _, m in inner_types(G.lam)
                 for tag in ("ker_embed", "ker_quot")]
        twists = (twisting_characters(G.R2) if G.R2.level >= 2
                  else unit_characters(G.R2))
        T = twist(ClassFunction(G, np.ones(G.class_count)), twists).vals
        counts = np.array([_class_counts(U) / U.order for U in subs])
        return (T[:, None, :] * counts[None, :, :]).reshape(
            -1, G.class_count).T

    ok = chi.mult() == 1
    if G.l2 >= 2 and ok.any():
        ok[ok] = is_primitive(G, chi[ok])
    W = _once(G, "cuspidal_means", means)
    return ok & close(chi.vals @ W, 0).all(axis=1)
