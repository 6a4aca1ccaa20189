"""Class functions on the rank-two automorphism groups and the transfer maps
between levels: induction, restriction, inflation, kernel averaging, the
parabolic pair and the two congruence pairs, determinant twists, and the
depth-one spectrum used to sort irreducible characters into families."""

import numpy as np

from .orbits import CongruenceDual, inner_types
from .rings import (TOL, _check, character_exponents, roots_of_unity,
                    twisting_characters, unit_characters)


class ClassFunction:
    """Complex vector of values on the conjugacy classes of a fixed group."""

    __slots__ = ("group", "vals")

    def __init__(self, group, vals):
        self.group = group
        self.vals = np.asarray(vals, dtype=np.complex128)
        _check(self.vals.shape == (group.class_count,), "class function "
               "values, one per class", (group.class_count,), self.vals.shape)

    @property
    def degree(self):
        d = self.vals[self.group.identity_class]
        _check(abs(d.imag) < TOL, "degree: a real value at the identity",
               "imaginary part 0", d)
        return d.real

    def __call__(self, e):
        return self.vals[self.group.cls_index(e)]

    def inner(self, other):
        """Hermitian inner product with class-size weights."""
        _check(other.group is self.group, "inner: both on one group",
               self.group.name, other.group.name)
        G = self.group
        return complex(np.sum(self.vals * np.conj(other.vals) * G.class_sizes)
                       / G.order)

    def mult(self, other):
        """Inner product that must land on a non-negative integer."""
        v = self.inner(other)
        n = int(round(v.real))
        _check(abs(v - n) < TOL and n >= 0, "mult: inner product",
               "a non-negative integer", v)
        return n

    def fingerprint(self):
        """The bytes of the values rounded to 6 decimals, the same numbers
        as round() on each real and imaginary part; adding 0.0 turns -0.0
        into 0.0, so the two stay one key."""
        return (np.round(self.vals, 6) + 0.0).tobytes()


def dedupe(funcs):
    """Drop duplicates by rounded value vectors, keeping first occurrences."""
    seen = {}
    for f in funcs:
        seen.setdefault(f.fingerprint(), f)
    return list(seen.values())


def linear_characters(H):
    """The one-dimensional characters of H as exponent rows at its members,
    pulled back from the abelianization Q: (roots, L, cos) with chi_t at
    the member at position p equal to roots[L[t, cos[p]]], cos the coset of
    each member; no class data of H is read."""
    Q = H.abelianization()
    _, E, L = character_exponents(Q)
    return roots_of_unity(E), L, Q.coset_of


def induce(P, vals):
    """Induction to P's root group G of the class function of P with values
    vals at P's members (by position): one bincount of the values into the
    root classes of the members, scaled by |G| / (|P| |C|); no class data
    of P is read."""
    G = P.root
    cls, k = P.root_cls, G.class_count
    out = (np.bincount(cls, vals.real, k)
           + 1j * np.bincount(cls, vals.imag, k))
    out *= (G.order // P.order) / G.class_sizes
    return ClassFunction(G, out)


def inflate(G, f, kind, m=0):
    """Pull back a class function on Q along the map kind from G's root
    group onto Q (AutGroup.hom): its values at the images of G's class
    representatives."""
    Q, img = G.root.hom(kind, G.rep_idx, m)
    _check(f.group is Q, "inflate: a class function on the target of "
           + kind, Q.name, f.group.name)
    return ClassFunction(G, f.vals[Q.cls_of[img]])


def invariants_pushforward(P, kind, f, m=0):
    """Restrict a class function f on P's root group to P and average it
    over the fibers of the map kind onto its target Q, which on characters
    takes the kernel's invariants: f read at the members' root classes and
    two bincounts over their images; every fiber must have |P|/|Q|
    elements."""
    _check(f.group is P.root, "invariants_pushforward: a class function on "
           "the root group of P", P.root.name, f.group.name)
    Q, img, _ = P.pullback(kind, m)
    n = P.order // Q.order
    sizes = np.bincount(img, minlength=Q.order)
    _check((sizes == n).all(), "%s: fiber sizes of %s onto %s"
           % (P.name, kind, Q.name), n, sorted(set(sizes.tolist())))
    w = f.vals[P.root_cls]
    sums = (np.bincount(img, w.real, Q.order)
            + 1j * np.bincount(img, w.imag, Q.order))
    return ClassFunction(Q, sums[Q.rep_idx] / n)


def twist(chi, uchar):
    """Multiply by a unit-group character composed with the determinant:
    the character's values gathered at the det codes of the class
    representatives."""
    G = chi.group
    R2, codes = G.hom("det", G.rep_idx)
    by_code = np.zeros(R2.size, dtype=np.complex128)
    by_code[uchar.group.elements] = uchar.values
    return ClassFunction(G, chi.vals * by_code[codes])


# side -> (parabolic, its map onto the torus or onto the (l1, m) group)
_SIDES = {"upper": ("parabolic_upper", "diag"),
          "lower": ("parabolic_lower", "diag"),
          "embed": ("parabolic_embed", "embed"),
          "quot": ("parabolic_quot", "quot")}


def ind(G, f, side, m=0):
    """Inflate f to the side's parabolic along its map and induce up to G:
    f read at the pulled-back classes of the members."""
    tag, kind = _SIDES[side]
    P = G.subgroup(tag, m=m)
    Q, _, cls = P.pullback(kind, m)
    _check(f.group is Q, "ind: a class function on the target of " + kind,
           Q.name, f.group.name)
    return induce(P, f.vals[cls])


def res(G, f, side, m=0):
    """Adjoint of ind: restrict to the side's parabolic and average over the
    kernel of its map."""
    tag, kind = _SIDES[side]
    return invariants_pushforward(G.subgroup(tag, m=m), kind, f, m)


def torus_character(G, t1, t2):
    """t1 x t2 on G.torus = units(R1) x units(R2): the outer product of
    their values, whose groups must list the units as the factors do."""
    T = G.torus
    _check([t1.group.elements, t2.group.elements]
           == [U.elements for U in T.factors], "the characters' unit "
           "groups, listed as the torus factors", T.name,
           (t1.group.name, t2.group.name))
    return ClassFunction(T, np.outer(t1.values, t2.values).ravel())


def geo_ind(G, t1, t2, side="upper"):
    """Parabolic induction of a pair of unit-group characters."""
    return ind(G, torus_character(G, t1, t2), side)


def depth_one_dual(G):
    """The depth-one congruence dual of G, built once per group."""
    D = getattr(G, "_depth_one_dual", None)
    if D is None:
        D = G._depth_one_dual = CongruenceDual(G, 1, 0)
    return D


def k_spectrum(G, chi):
    """Multiplicity of each depth-one congruence-kernel character in the
    restriction of chi, indexed like CongruenceDual(G, 1, 0).duals."""
    D = depth_one_dual(G)
    v = chi.vals[G.cls_of[D.K.idx]]
    m = np.conj(D.value_matrix @ np.conj(v)) / D.K.order  # no conjugated copy
    off = max(np.abs(m.imag).max(), np.abs(m.real - np.round(m.real)).max())
    _check(off < TOL, "k_spectrum: integer multiplicities", "distance 0",
           off)
    return np.round(m.real).astype(np.int64)


def spectrum_kinds(G, chi):
    """Set of orbit labels supporting the depth-one spectrum of chi."""
    D = depth_one_dual(G)
    m = k_spectrum(G, chi)
    return {D.labels[j][0] for j in np.flatnonzero(m > 0).tolist()}


def is_primitive(G, chi):
    """True when the depth-one spectrum avoids the scalar-type characters,
    so chi is not a twist of a pullback from the floor group."""
    return not (spectrum_kinds(G, chi) & {"central", "scalar"})


def is_cuspidal(G, chi):
    """Irreducible, primitive, and every determinant twist of chi has no
    invariants under any unipotent or congruence kernel, i.e. all twists are
    killed by all the restriction functors."""
    if chi.mult(chi) != 1:
        return False
    if G.l2 >= 2 and not is_primitive(G, chi):
        return False
    subs = [G.subgroup("unipotent_upper"), G.subgroup("unipotent_lower")]
    subs += [G.subgroup(tag, m=m) for _, m in inner_types(G.lam)
             for tag in ("ker_embed", "ker_quot")]
    twists = (twisting_characters(G.R2) if G.R2.level >= 2
              else unit_characters(G.R2))
    for tch in twists:
        tc = twist(chi, tch)
        for U in subs:
            if abs(tc.vals[G.cls_of[U.idx]].sum()) > TOL * U.order:
                return False
    return True
