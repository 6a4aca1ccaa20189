"""Class functions on the rank-two automorphism groups and the transfer maps
between levels: induction, restriction, inflation, kernel averaging, the
parabolic pair and the two congruence pairs, determinant twists, and the
depth-one spectrum used to sort irreducible characters into families."""

import numpy as np

from .groups import ProductGroup, aut_group
from .orbits import CongruenceDual, inner_types
from .rings import (TOL, character_group, twisting_characters, unit_characters,
                    unit_group)


class ClassFunction:
    """Complex vector of values on the conjugacy classes of a fixed group."""

    __slots__ = ("group", "vals")

    def __init__(self, group, vals):
        self.group = group
        self.vals = np.asarray(vals, dtype=np.complex128)
        assert self.vals.shape == (group.class_count,)

    @property
    def degree(self):
        d = self.vals[self.group.identity_class]
        assert abs(d.imag) < TOL
        return d.real

    def __call__(self, e):
        return self.vals[self.group.cls_index(e)]

    def inner(self, other):
        """Hermitian inner product with class-size weights."""
        assert other.group is self.group
        G = self.group
        return complex(np.sum(self.vals * np.conj(other.vals) * G.class_sizes)
                       / G.order)

    def mult(self, other):
        """Inner product that must land on a non-negative integer."""
        v = self.inner(other)
        n = int(round(v.real))
        assert abs(v - n) < TOL and n >= 0, v
        return n

    def __mul__(self, other):
        assert other.group is self.group
        return ClassFunction(self.group, self.vals * other.vals)

    def conj(self):
        return ClassFunction(self.group, np.conj(self.vals))

    def fingerprint(self):
        """Values rounded to 6 decimals as (re, im) pairs of Python floats,
        the same numbers as round() on each numpy scalar, so -0.0 and 0.0
        stay one key."""
        r = np.round(self.vals, 6)
        return tuple(zip(r.real.tolist(), r.imag.tolist()))


def dedupe(funcs):
    """Drop duplicates by rounded value vectors, keeping first occurrences."""
    seen = {}
    for f in funcs:
        seen.setdefault(f.fingerprint(), f)
    return list(seen.values())


def is_irreducible(chi):
    return chi.mult(chi) == 1


def linear_characters(G):
    """The one-dimensional characters, pulled back from the abelianization."""
    out = getattr(G, "_linear_chars", None)
    if out is None:
        Q = G.abelianization()
        out = []
        for ch in character_group(Q):
            vals = np.array([ch(Q.project(rep)) for rep in G.class_reps])
            out.append(ClassFunction(G, vals))
        G._linear_chars = out
    return out


def induce(sub, f):
    """Induction from a subgroup, through the class-fusion table: the
    class-size-weighted values summed into parent classes by bincount."""
    G = sub.parent
    w = sub.class_sizes * f.vals
    fus, k = sub.fusion(), G.class_count
    out = (np.bincount(fus, w.real, minlength=k)
           + 1j * np.bincount(fus, w.imag, minlength=k))
    out *= sub.parent_index / G.class_sizes
    return ClassFunction(G, out)


def restrict(sub, f):
    assert f.group is sub.parent
    return ClassFunction(sub, f.vals[sub.fusion()])


def inflate(G, f, hom):
    """Pull back a class function along a homomorphism from G."""
    Q = f.group
    vals = np.array([f.vals[Q.cls_index(hom(rep))] for rep in G.class_reps])
    return ClassFunction(G, vals)


def invariants_pushforward(P, U, Q, hom, f):
    """Average a class function on P over the fibers of hom: P -> Q with
    kernel U; on characters this computes the U-invariants functor.  The
    products s * u, s a section of each class of Q, are one right_mul
    gather, and P.positions refuses a product outside P."""
    assert f.group is P
    sec = {}
    for j, x in zip(P.idx.tolist(), P.elements):
        sec.setdefault(hom(x), j)
    assert len(sec) == Q.order
    prods = P.root.right_mul([sec[r] for r in Q.class_reps], U.idx[:, None])
    # summed over u row by row, in the order of U.elements
    vals = f.vals[P.cls_of[P.positions(prods)]].sum(axis=0) / U.order
    return ClassFunction(Q, vals)


def twist(chi, uchar):
    """Multiply by a unit-group character composed with the determinant."""
    G = chi.group
    dv = np.array([uchar(G.det(rep)) for rep in G.class_reps])
    return ClassFunction(G, chi.vals * dv)


def geo_ind(G, t1, t2, side="upper"):
    """Parabolic induction of a pair of unit-group characters."""
    P = G.subgroup("parabolic_upper" if side == "upper" else "parabolic_lower")
    vals = np.array([t1(rep[0]) * t2(rep[3]) for rep in P.class_reps])
    return induce(P, ClassFunction(P, vals))


def torus_product(G):
    """Product of the two unit groups, the target of geo_res; one per group."""
    T = getattr(G, "_torus_product", None)
    if T is None:
        T = ProductGroup(unit_group(G.R1), unit_group(G.R2))
        G._torus_product = T
    return T


def geo_res(G, f, side="upper"):
    """Unipotent-invariants of the restriction to the standard parabolic, as a
    class function on the product of the two unit groups."""
    P = G.subgroup("parabolic_upper" if side == "upper" else "parabolic_lower")
    U = G.subgroup("unipotent_upper" if side == "upper" else "unipotent_lower")
    return invariants_pushforward(P, U, torus_product(G), G.diag_map,
                                  restrict(P, f))


def congruence_kernel(G, m, side="embed"):
    """Kernel of the congruence-parabolic quotient map onto the (l1, m) group."""
    return G.subgroup("ker_" + side, m=m)


def _congruence_hom(G, m, side):
    if side == "embed":
        return lambda g: G.embed_map(g, m)
    return lambda g: G.quot_map(g, m)


def inf_ind(G, m, f, side="embed"):
    """Inflate a class function of the inner (l1, m) group through the
    congruence parabolic and induce up."""
    tag = "parabolic_embed" if side == "embed" else "parabolic_quot"
    P = G.subgroup(tag, m=m)
    return induce(P, inflate(P, f, _congruence_hom(G, m, side)))


def inf_res(G, m, f, side="embed"):
    """Adjoint of inf_ind: restrict to the congruence parabolic and average
    over the kernel of its quotient map."""
    tag = "parabolic_embed" if side == "embed" else "parabolic_quot"
    P = G.subgroup(tag, m=m)
    Gm = aut_group(G.backend, G.q, (G.l1, m))
    ker = congruence_kernel(G, m, side)
    return invariants_pushforward(P, ker, Gm, _congruence_hom(G, m, side),
                                  restrict(P, f))


def depth_one_dual(G):
    """Memoized depth-one congruence dual with a cached value matrix."""
    D = getattr(G, "_depth_one_dual", None)
    if D is None:
        D = G._depth_one_dual = CongruenceDual(G, 1, 0)
        D._vm = D.value_matrix()
    return D


def k_spectrum(G, chi):
    """Multiplicity of each depth-one congruence-kernel character in the
    restriction of chi, indexed like CongruenceDual(G, 1, 0).duals."""
    D = depth_one_dual(G)
    v = chi.vals[G.cls_of[D.K.idx]]
    m = D._vm.conj() @ v / D.K.order
    assert np.all(np.abs(m.imag) < TOL)
    assert np.all(np.abs(m.real - np.round(m.real)) < TOL)
    return np.round(m.real).astype(np.int64)


def spectrum_kinds(G, chi):
    """Set of orbit labels supporting the depth-one spectrum of chi."""
    D = depth_one_dual(G)
    m = k_spectrum(G, chi)
    return {D.classify(t)[0] for t, n in zip(D.duals, m) if n > 0}


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
    subs = getattr(G, "_cuspidal_test_subs", None)
    if subs is None:
        subs = [G.subgroup("unipotent_upper"), G.subgroup("unipotent_lower")]
        for _, m in inner_types(G.lam):
            subs.append(congruence_kernel(G, m, "embed"))
            subs.append(congruence_kernel(G, m, "quot"))
        G._cuspidal_test_subs = subs
    if G.R2.level >= 2:
        twists = twisting_characters(G.R2)
    else:
        twists = unit_characters(G.R2)
    for tch in twists:
        tc = twist(chi, tch)
        for U in subs:
            if abs(tc.vals[G.cls_of[U.idx]].sum()) > TOL * U.order:
                return False
    return True


def char_json(f):
    """Serialize a class function as a JSON-ready dict, one [re, im] pair per
    conjugacy class in the group's canonical class order."""
    g = f.group
    if hasattr(g, "lam"):
        name = "%s q=%d lambda=(%d,%d)" % (g.backend, g.q, g.lam[0], g.lam[1])
    else:
        name = getattr(g, "name", None) or "group of order %d" % g.order
    d = f.degree
    assert abs(d - round(d)) < TOL
    return {"group": name, "degree": int(round(d)),
            "values": [[round(v.real, 9), round(v.imag, 9)]
                       for v in f.vals]}
