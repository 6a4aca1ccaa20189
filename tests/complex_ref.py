"""The complex reference of the class functions: values as complex128 stacks,
compared within TOL, equal rows found by byte keys of values rounded to 6
decimals.  This is the number system modrep2.classfun used before it moved
to residues mod a prime; tests compare the two on every integer they read.

It follows modrep2.classfun name for name (the r arguments are accepted and
ignored), reusing what does not hold values: the count maps and the
depth-one duals.
"""

import math

import numpy as np

from modrep2 import classfun as cf
from modrep2.orbits import inner_types
from modrep2.rings import twisting_characters, unit_characters

TOL = 1e-6


def roots_of_unity(E):
    """zeta_E^j = exp(2 pi i j / E) for j < E."""
    return np.array([complex(math.cos(2 * math.pi * j / E),
                             math.sin(2 * math.pi * j / E)) for j in range(E)])


def close(a, b):
    """Entrywise |a - b| <= TOL."""
    return np.abs(a - b) <= TOL


def integers(v, what):
    """The values v as int64, each close to an integer, else AssertionError
    naming what."""
    n = np.round(v.real)
    ok = close(v, n)
    if not ok.all():
        raise AssertionError("%s, integers within %g: %s"
                             % (what, TOL, v[~ok][:10].tolist()))
    return n.astype(np.int64)


def _once(G, key, build):
    maps = vars(G).setdefault("_complex_ref_maps", {})
    if key not in maps:
        maps[key] = build()
    return maps[key]


class ClassFunction:
    """A stack of complex class functions of one group, (n, k)."""

    def __init__(self, group, vals, r=None):
        self.group = group
        vals = np.asarray(vals, dtype=np.complex128)
        self.vals = vals.reshape(1, -1) if vals.ndim == 1 else vals

    def __len__(self):
        return len(self.vals)

    def __getitem__(self, rows):
        return ClassFunction(self.group, self.vals[rows])

    @property
    def degrees(self):
        return integers(self.vals[:, self.group.identity_class], "degrees")

    def norms(self):
        G, V = self.group, self.vals
        w = G.class_sizes / G.order
        return (np.einsum("ij,ij,j->i", V.real, V.real, w)
                + np.einsum("ij,ij,j->i", V.imag, V.imag, w))

    def inner(self, other):
        G = self.group
        return (self.vals * G.class_sizes) @ other.vals.conj().T / G.order

    def mult(self, other=None):
        v = self.norms() if other is None else self.inner(other)
        n = integers(v, "mult: inner products")
        assert (n >= 0).all()
        return n

    def fingerprint(self):
        return [row.tobytes() for row in _row_keys(self)]


_SIGN = np.uint64(1 << 63)


def _row_keys(funcs):
    """Per row, its values rounded to 6 decimals (-0.0 read as 0.0) as
    big-endian unsigned integers, every bit of the negatives flipped and the
    sign bit of the others set, so that comparing keys bytewise compares
    the rows."""
    R = np.round(funcs.vals, 6) + 0.0
    bits = np.ascontiguousarray(R).view(np.uint64)
    bits ^= -(bits >> 63) | _SIGN
    return bits.astype(">u8")


def row_order(funcs):
    key = _row_keys(funcs)
    order = np.argsort(key.view("V%d" % (8 * key.shape[1])).ravel(),
                       kind="stable")
    repeat = np.zeros(len(order), dtype=bool)
    repeat[1:] = (key[order[1:]] == key[order[:-1]]).all(axis=1)
    return order, repeat


def dedupe(funcs):
    order, repeat = row_order(funcs)
    return funcs[order[~repeat]]


def induce(P, vals, r=None):
    G = P.root
    k = G.class_count
    vals = np.atleast_2d(vals)
    at = (np.arange(len(vals))[:, None] * k + P.root_cls).ravel()
    n = len(vals) * k
    out = (np.bincount(at, vals.real.ravel(), n)
           + 1j * np.bincount(at, vals.imag.ravel(), n)).reshape(-1, k)
    out *= (G.order // P.order) / G.class_sizes
    return ClassFunction(G, out)


def _apply(pairs, vals):
    """The count map pairs (classfun._Pairs) on complex values."""
    out = np.zeros((len(vals), pairs.k_dst), dtype=np.complex128)
    T = vals[:, pairs.src] * pairs.count
    out[:, pairs.cols] = np.add.reduceat(T, pairs.starts, axis=1)
    return out


def twist(chi, uchars):
    G = chi.group
    R2, codes = G.hom("det", G.rep_idx)
    E, L = uchars
    by_code = np.zeros((len(L), R2.size), dtype=np.complex128)
    by_code[:, R2.units] = roots_of_unity(E)[L]
    out = chi.vals[:, None, :] * by_code[:, codes]
    return ClassFunction(G, out.reshape(-1, G.class_count))


def ind(G, f, side, m=0):
    tag, kind = cf._SIDES[side]
    P = G.subgroup(tag, m=m)
    _, up, _ = cf.count_maps(P, kind, m)
    out = _apply(up, f.vals)
    out *= (G.order // P.order) / G.class_sizes
    return ClassFunction(G, out)


def torus_character(G, t1, t2, r=None):
    (E1, L1), (E2, L2) = t1, t2
    A, B = roots_of_unity(E1)[L1], roots_of_unity(E2)[L2]
    return ClassFunction(G.torus, (A[:, :, None] * B[:, None, :]).reshape(
        len(A), -1))


def geo_ind(G, t1, t2, r=None, side="upper"):
    return ind(G, torus_character(G, t1, t2), side)


def k_spectrum(G, chi):
    """Multiplicities in the depth-one restriction: the rows at the classes
    meeting K times the conjugated dual values summed per class."""
    def by_class():
        D = cf.depth_one_dual(G)
        M, X = D.exponents
        cls = G.cls_of[D.K.idx]
        cols = np.flatnonzero(np.bincount(cls, minlength=G.class_count))
        A = roots_of_unity(M)[X] @ (cls[:, None] == cols).astype(np.float64)
        return cols, A.conj().T / D.K.order

    cols, A = _once(G, "k_spectrum", by_class)
    return integers(chi.vals[:, cols] @ A, "k_spectrum: multiplicities")


def spectrum_kinds(G, chi):
    labels = [lab[0] for lab in cf.depth_one_dual(G).labels]
    kinds = sorted(set(labels))
    hot = np.array([[k == lab for k in kinds] for lab in labels])
    return kinds, (k_spectrum(G, chi) > 0).astype(np.int64) @ hot > 0


def is_primitive(G, chi):
    kinds, present = spectrum_kinds(G, chi)
    return ~present[:, [kinds.index(k) for k in ("central", "scalar")
                        if k in kinds]].any(axis=1)


def member_sums(U, chi):
    counts = np.bincount(U.root_cls, minlength=U.root.class_count)
    return chi.vals @ counts.astype(np.float64)


def is_cuspidal(G, chi):
    subs = [G.subgroup("unipotent_upper"), G.subgroup("unipotent_lower")]
    subs += [G.subgroup(tag, m=m) for _, m in inner_types(G.lam)
             for tag in ("ker_embed", "ker_quot")]
    twists = (twisting_characters(G.R2) if G.R2.level >= 2
              else unit_characters(G.R2))
    T = twist(ClassFunction(G, np.ones(G.class_count)), twists).vals
    counts = np.array([np.bincount(U.root_cls, minlength=G.class_count)
                       / U.order for U in subs])
    W = (T[:, None, :] * counts[None, :, :]).reshape(-1, G.class_count).T
    ok = chi.mult() == 1
    if G.l2 >= 2 and ok.any():
        ok[ok] = is_primitive(G, chi[ok])
    return ok & close(chi.vals @ W, 0).all(axis=1)

