"""Explicit construction of the full irreducible character sets: the depth-one
tower, deep cuspidal characters, geometric and infinitesimal induction, and
the recursive assembly with its closed-form degree counts."""

from collections import Counter

import numpy as np

from .classfun import (ClassFunction, dedupe, geo_ind, ind, induce, inflate,
                       is_cuspidal, linear_characters, member_sums, row_order,
                       spectrum_kinds, stack, twist)
from .dixon import character_degrees
from .groups import Subgroup, aut_group
from .orbits import CongruenceDual, cuspidal_parameters, eta_dual, inner_types
from .rings import (MTOL, TOL, _check, character_group, twisting_characters,
                    unit_characters, values_at)


class IrrFamily:
    """A labeled batch of irreducible characters (one stack), or a
    count-only record."""

    def __init__(self, label, members=None, count=None, degree=None,
                 provenance=None):
        self.label = label
        if members is not None:
            members, degs = _checked_members(label, members)
            self.count = len(members)
            self.degree = degs[0] if len(degs) == 1 else None
        else:
            self.count = count
            self.degree = degree
        self.members = members
        self.provenance = provenance or {}

    def degree_counter(self):
        if self.members is not None:
            return _degree_counts(self.members)
        if self.degree is None:
            return Counter(self.provenance["zeta"])
        return Counter({self.degree: self.count})

    def __repr__(self):
        return "IrrFamily(%s, count=%d)" % (self.label, self.count)


def _degree_counts(funcs):
    return Counter(np.round(funcs.degrees).astype(np.int64).tolist())


def _checked_members(label, members):
    """(members, sorted distinct degrees), the members in the order of
    row_order, all checked on their stacked values: norms integers within
    TOL and equal to 1, distinct fingerprints (equal rows sort next to each
    other) and real values at the identity.  Members from dedupe come in
    that order with their repeat flags, and are not keyed again."""
    if not len(members):
        return members, []
    G, V = members.group, members.vals
    norms = members.norms()
    n = np.round(norms)
    bad = np.abs(norms - n) >= TOL
    _check(not bad.any(), "%s: norms, integers within %g" % (label, TOL),
           "integers", norms[bad].tolist())
    _check((n == 1).all(), "%s: norms other than 1" % label, [],
           n[n != 1].astype(np.int64).tolist())
    d = V[:, G.identity_class]
    off = np.abs(d.imag) >= TOL
    _check(not off.any(), "%s: degrees, real values at the identity" % label,
           "imaginary parts 0", d[off].tolist())
    degs = sorted(set(np.round(d.real).astype(np.int64).tolist()))
    repeat = members.repeat
    if repeat is None:
        order, repeat = row_order(members)
        members = members[order]
    _check(not repeat.any(), "%s: distinct fingerprints" % label, len(V),
           len(V) - int(repeat.sum()))
    return members, degs


def green_gl2(q):
    """Degree multiset of the rank-two group over the residue field."""
    z = Counter()
    z[1] += q - 1
    z[q] += q - 1
    z[q + 1] += (q - 1) * (q - 2) // 2
    z[q - 1] += q * (q - 1) // 2
    return {d: n for d, n in z.items() if n > 0}


def zeta_closed_form(q, lam):
    """Degree-count dictionary {degree: multiplicity} by the closed
    recursion; coinciding degrees merge."""
    l1, l2 = lam
    _check(l1 >= l2 >= 0 and l1 >= 1, "zeta_closed_form: module type",
           "l1 >= l2 >= 0, l1 >= 1", lam)
    if l2 == 0:
        return {1: q ** (l1 - 1) * (q - 1)}
    if l1 == 1:
        return green_gl2(q)
    z = Counter()
    if l2 == 1:
        z[1] += q ** (l1 - 2) * (q - 1) ** 2
        z[q - 1] += q ** (l1 - 2) * (q * q - 1)
        z[q] += q ** (l1 - 2) * (q - 1) ** 3
    elif l1 > l2:
        for d, n in zeta_closed_form(q, (l1 - 1, l2 - 1)).items():
            z[d] += q * n
        z[q ** (l2 - 1) * (q - 1)] += q ** (l1 + l2 - 3) * (q * q - 1)
        z[q ** l2] += q ** (l1 + l2 - 3) * (q - 1) ** 3
    else:
        for d, n in zeta_closed_form(q, (l1 - 1, l1 - 1)).items():
            z[d] += q * n
        z[q ** (l1 - 1) * (q - 1)] += (q * q - 1) * (q - 1) * q ** (2 * l1 - 3) // 2
        z[q ** (l1 - 2) * (q * q - 1)] += q ** (2 * l1 - 2) * (q - 1)
        z[q ** (l1 - 1) * (q + 1)] += q ** (2 * l1 - 3) * (q - 1) ** 3 // 2
    return {d: n for d, n in z.items() if n > 0}


def cuspidal_rect_count(l, q):
    """(count, degree) of the cuspidal characters in the square case."""
    return ((q * q - 1) * (q - 1) * q ** (2 * l - 3) // 2,
            q ** (l - 1) * (q - 1))


def build_rank1(backend, q, level):
    """All linear characters of the rank-one automorphism group."""
    A = aut_group(backend, q, (level, 0))
    out = ClassFunction(A, [ch.values for ch in character_group(A)])
    n = q ** (level - 1) * (q - 1)
    _check(len(out) == n, "rank-one linear characters", n, len(out))
    return out


def _nontrivial_on(H, L, cos, S):
    """Per exponent row of H's linear characters (L, cos as returned by
    linear_characters), whether it is not 1 on some member of the subgroup
    S: exact, on the exponents."""
    return L[:, cos[H.positions(S.idx)]].any(axis=1)


def build_l1(G):
    """Complete labeled irreducible families of a depth-one group."""
    q, l1 = G.q, G.l1
    _check(G.l2 == 1 and l1 >= 2, "build_l1: module type", "(l1 >= 2, 1)",
           G.lam)

    # one-dimensionals factor through the reduced diagonal pair
    A, _ = G.hom("diag_red", [])
    one = dedupe(inflate(G, ClassFunction(A, [ch.values for ch in
                                              character_group(A)]),
                         "diag_red"))
    one_dim = IrrFamily("one_dim", one)
    n = q ** (l1 - 2) * (q - 1) ** 2
    _check(one_dim.count == n, "one_dim: count", n, one_dim.count)
    _check(one_dim.degree == 1, "one_dim: degree", 1, one_dim.degree)

    Z = G.subgroup("floor_torus_a")
    H = G.subgroup("heisenberg")
    S = G.subgroup("scalars")

    # the q-dimensional family: induced from the triangular subgroup,
    # nontrivial on the central depth-one slice
    B = G.subgroup("parabolic_upper")
    roots, L, cos = linear_characters(B)
    heis = dedupe(induce(B, roots[L[_nontrivial_on(B, L, cos, Z)][:, cos]]))
    heis_q = IrrFamily("heis_q", heis)
    n = q ** (l1 - 2) * (q - 1) ** 3
    _check(heis_q.count == n, "heis_q: count", n, heis_q.count)
    _check(heis_q.degree == q, "heis_q: degree", q, heis_q.degree)

    # the (q-1)-dimensional family: induced from the product of the scalars
    # with the depth-one Heisenberg subgroup, its members sorted and once
    # each (a bincount: np.unique would import numpy.ma, about 25 ms and
    # 1 MB per process)
    DH = Subgroup(G, np.flatnonzero(np.bincount(G.right_mul(
        S.idx[:, None], H.idx[None, :]).ravel())), "DH")
    n = q ** (l1 + 1) * (q - 1)
    _check(DH.order == n, "DH: order", n, DH.order)
    roots, L, cos = linear_characters(DH)
    keep = ~_nontrivial_on(DH, L, cos, Z) & _nontrivial_on(DH, L, cos, H)
    dh = dedupe(induce(DH, roots[L[keep][:, cos]]))
    n = q ** (l1 - 2) * (q * q - 1)
    _check(len(dh) == n, "dh: count", n, len(dh))
    degs = sorted(_degree_counts(dh))
    _check(degs == [q - 1], "dh: degrees", [q - 1], degs)

    has_p, has_m = (np.abs(member_sums(U, dh) / U.order) > TOL for U in
                    (G.subgroup("unipotent_upper"),
                     G.subgroup("unipotent_lower")))
    both = int((has_p & has_m).sum())
    _check(not both, "dh: members with nonzero averages on the upper and "
           "lower unipotents", 0, both)
    orbit_bp = IrrFamily("orbitB+", dh[has_p])
    orbit_bm = IrrFamily("orbitB-", dh[has_m])
    orbit_c = IrrFamily("orbitC", dh[~(has_p | has_m)])
    n = q ** (l1 - 2) * (q - 1)
    _check(orbit_bp.count == orbit_bm.count == n, "orbitB+, orbitB-: counts",
           (n, n), (orbit_bp.count, orbit_bm.count))
    _check(orbit_c.count == n * (q - 1), "orbitC: count", n * (q - 1),
           orbit_c.count)
    off = int((~is_cuspidal(G, orbit_c.members)).sum())
    _check(not off, "orbitC: members that are not cuspidal", 0, off)

    fams = [one_dim, orbit_bp, orbit_bm, orbit_c, heis_q]
    total = sum(f.count * f.degree ** 2 for f in fams)
    _check(total == G.order, "depth one: sum of count * degree^2", G.order,
           total)
    return fams


def build_cuspidal_nonrect(G):
    """The cuspidal family for l1 > l2 >= 2: extend each anisotropic kernel
    character to its stabilizer and induce."""
    q, l1, l2 = G.q, G.l1, G.l2
    _check(l1 > l2 >= 2, "build_cuspidal_nonrect: module type",
           "l1 > l2 >= 2", G.lam)
    l, eps = G.half_levels()
    D = CongruenceDual(G, l, eps)
    parts = []
    for u_hat, w_hat in cuspidal_parameters(G):
        N = G.subgroup("cuspidal_normalizer", u_hat=u_hat, w_hat=w_hat)
        A = G.subgroup("cuspidal_abelian", u_hat=u_hat, w_hat=w_hat)
        eta = D.values([eta_dual(u_hat, w_hat)])[0]
        roots, L, cos = linear_characters(N)
        at_k = L[:, cos[N.positions(D.K.idx)]]
        exts = L[(np.abs(roots[at_k] - eta) < MTOL).all(axis=1)]
        inter = len(np.intersect1d(A.idx, D.K.idx, assume_unique=True))
        _check(len(exts) == A.order // inter, "cuspidal (%d, %d): extensions"
               " of eta" % (u_hat, w_hat), A.order // inter, len(exts))
        parts.append(induce(N, roots[exts[:, cos]]))
    fam = IrrFamily("cuspidal_nonrect", dedupe(stack(parts)))
    n, deg = q ** (l1 + l2 - 3) * (q - 1) ** 2, q ** (l2 - 1) * (q - 1)
    _check(fam.count == n, "cuspidal_nonrect: count", n, fam.count)
    _check(fam.degree == deg, "cuspidal_nonrect: degree", deg, fam.degree)
    return fam


def primitive_unit_characters(ring):
    """Unit characters nontrivial on the deepest congruence layer."""
    chars = unit_characters(ring)
    keep = (np.abs(values_at(chars, ring.one_plus) - 1) > TOL).any(axis=1)
    return [ch for ch, k in zip(chars, keep.tolist()) if k]


def build_geometric(G):
    """Geometric families: (irreducible parabolic inductions, stable range
    inductions of the one-sided depth-one characters)."""
    q, l1, l2 = G.q, G.l1, G.l2
    _check(l2 >= 2, "build_geometric: level l2", ">= 2", l2)

    if l1 > l2:
        t1s, t2s = primitive_unit_characters(G.R1), unit_characters(G.R2)
        raw = geo_ind(G, [a for a in t1s for _ in t2s], t2s * len(t1s))
        n = q ** (l1 + l2 - 3) * (q - 1) ** 3
        _check(len(raw) == n, "geo_irred: raw inductions", n, len(raw))
        geo_irred = IrrFamily("geo_irred", raw)  # refuses repeated rows
        _check(geo_irred.degree == q ** l2, "geo_irred: degree", q ** l2,
               geo_irred.degree)
    else:
        chars = unit_characters(G.R1)
        V = values_at(chars, G.R1.one_plus)
        i, j = np.nonzero((np.abs(V[:, None] - V[None]) > TOL).any(axis=2))
        raw = geo_ind(G, [chars[a] for a in i.tolist()],
                      [chars[b] for b in j.tolist()])
        geo = dedupe(raw)
        _check(2 * len(geo) == len(raw), "geo_irred: raw inductions, twice "
               "the distinct", 2 * len(geo), len(raw))
        n = q ** (2 * l1 - 3) * (q - 1) ** 3 // 2
        _check(len(geo) == n, "geo_irred: count", n, len(geo))
        geo_irred = IrrFamily("geo_irred", geo)
        deg = q ** (l1 - 1) * (q + 1)
        _check(geo_irred.degree == deg, "geo_irred: degree", deg,
               geo_irred.degree)

    floor = assemble(G.backend, q, (l1, 1))
    raw = stack([ind(G, floor.family("orbitB+").members, "embed", 1),
                 ind(G, floor.family("orbitB-").members, "quot", 1)])
    if l1 == l2:
        split = dedupe(twist(raw, twisting_characters(G.R2)))
        n = q ** (l1 - 1) * (q - 1)
        _check(len(split) == n, "geo_split: count", n, len(split))
        expect_deg = q ** (l1 - 2) * (q * q - 1)
    else:
        split = raw  # IrrFamily refuses repeated rows
        n = 2 * q ** (l1 - 2) * (q - 1)
        _check(len(raw) == n, "geo_split: raw inductions", n, len(raw))
        expect_deg = q ** (l2 - 1) * (q - 1)
    geo_split = IrrFamily("geo_split", split)
    _check(geo_split.degree == expect_deg, "geo_split: degree", expect_deg,
           geo_split.degree)
    return geo_irred, geo_split


def cuspidal_members(backend, q, lam):
    """The cuspidal characters of the group of the given type (depth one
    uses the anisotropic depth-one family)."""
    label = "orbitC" if lam[1] == 1 else "cuspidal_nonrect"
    return assemble(backend, q, lam).family(label).members


def build_infinitesimal(G):
    """Stable range inductions of the cuspidal characters of every inner
    type, through both the embedding and the quotient maps."""
    q, l1, l2 = G.q, G.l1, G.l2
    _check(l2 >= 2, "build_infinitesimal: level l2", ">= 2", l2)
    if l1 > l2:
        emb, quo = [], []
        for _, m in inner_types(G.lam):
            sigma = cuspidal_members(G.backend, q, (l1, m))
            emb.append(ind(G, sigma, "embed", m))
            quo.append(ind(G, sigma, "quot", m))
        # IrrFamily refuses repeated rows within each
        emb, quo = stack(emb), stack(quo)
        expect = sum(q ** (l1 + m - 3) * (q - 1) ** 2
                     for _, m in inner_types(G.lam))
        _check(len(emb) == len(quo) == expect, "inf_embed, inf_quot: counts",
               (expect, expect), (len(emb), len(quo)))
        shared = len(set(emb.fingerprint()) & set(quo.fingerprint()))
        _check(not shared, "inf_embed, inf_quot: shared members", 0, shared)
        fams = [IrrFamily("inf_embed", emb), IrrFamily("inf_quot", quo)]
        deg = q ** (l2 - 1) * (q - 1)
        _check(fams[0].degree == fams[1].degree == deg, "inf_embed, inf_quot:"
               " degrees", (deg, deg), (fams[0].degree, fams[1].degree))
    else:
        tws = twisting_characters(G.R2)
        raw = []
        for _, m in inner_types(G.lam):
            sigma = cuspidal_members(G.backend, q, (l1, m))
            a = ind(G, sigma, "embed", m)
            off = sum(x != y for x, y in zip(a.fingerprint(),
                                             ind(G, sigma, "quot", m)
                                             .fingerprint()))
            _check(not off, "inf (%d, %d): members whose embed and quot "
                   "inductions differ" % (l1, m), 0, off)
            raw.append(twist(a, tws))
        # q twists of each cuspidal; IrrFamily refuses repeated rows
        fams = [IrrFamily("inf_embed", stack(raw),
                          provenance={"note": "embed and quot coincide"})]
        deg = q ** (l1 - 2) * (q * q - 1)
        _check(fams[0].degree == deg, "inf_embed: degree", deg,
               fams[0].degree)
    return fams


_SPECTRUM_OF = {
    "pullback_twist": {"central", "scalar"},
    "cuspidal_nonrect": {"off_diag"},
    "inf_embed": {"nilp_lower", "jordan"},
    "inf_quot": {"nilp_upper"},
    "geo_split": {"nilp_lower", "nilp_upper", "jordan"},
    "geo_irred": {"generic", "split"},
}


class AssembledSet:
    """The assembled irreducible data of one group: labeled families, the
    degree-count dictionary, and the outcome of the structural checks.  The
    families keep the members' values, one stack each."""

    def __init__(self, G, backend, q, lam, families, zeta, complete):
        self.G = G
        self.backend = backend
        self.q = q
        self.lam = lam
        self.families = families
        self.zeta = zeta
        self.complete = complete
        self.checks = {}

    def stacks(self):
        """The member stacks of the explicit families, in family order."""
        return [f.members for f in self.families if f.members is not None]

    @property
    def members(self):
        """All explicit members as one new stack, in family order, or None
        when no family lists its members."""
        parts = self.stacks()
        return stack(parts) if parts else None

    def family(self, label):
        for f in self.families:
            if f.label == label:
                return f
        raise KeyError(label)


_ASSEMBLED = {}


def _check_orthonormal(asm):
    """Gram matrix of all members against the identity, entry by entry as
    np.isclose(gram, identity, atol=TOL) reads it (|g - e| <= TOL + 1e-5
    |e|).  The members are cut into blocks of at most 256 rows of one
    family stack; for blocks i <= j, B_j (B_i w)^H is the conjugate
    transpose of the Gram block (i, j), and the Hermitian Gram matrix holds
    its mirror image at (j, i), so entries off the identity count once on
    the diagonal blocks and twice off them: no k x k array and no joined
    copy of the members."""
    w = asm.G.class_sizes / asm.G.order
    blocks = [f.vals[r:r + 256] for f in asm.stacks()
              for r in range(0, len(f), 256)]
    off = 0
    for i, B in enumerate(blocks):
        Bt = (B * w).conj().T
        g = B @ Bt
        diag = np.diag_indices(len(B))
        g[diag] -= 1
        d = np.abs(g[diag])
        off += int((~(np.abs(g) <= TOL)).sum())
        off -= int(((d > TOL) & (d <= TOL + 1e-5)).sum())
        for C in blocks[i + 1:]:
            off += 2 * int((~(np.abs(C @ Bt) <= TOL)).sum())
    _check(not off, "Gram matrix entries off the identity", 0, off)
    asm.checks["orthonormal"] = True


def _check_spectra(asm):
    for fam in asm.families:
        if fam.members is None or fam.label not in _SPECTRUM_OF:
            continue
        kinds, present = spectrum_kinds(asm.G, fam.members)
        allowed = np.isin(kinds, sorted(_SPECTRUM_OF[fam.label]))
        bad = (present.sum(axis=1) != 1) | (present & ~allowed).any(axis=1)
        _check(not bad.any(), "%s: spectrum kind, one of" % fam.label,
               sorted(_SPECTRUM_OF[fam.label]),
               [k for k, on in zip(kinds, present[bad.argmax()]) if on])
    asm.checks["spectrum_families"] = True


def _check_totals(asm):
    want = zeta_closed_form(asm.q, asm.lam)
    _check(asm.zeta == want, "degree counts against the closed form",
           sorted(want.items()), sorted(asm.zeta.items()))
    total = sum(d * d * n for d, n in asm.zeta.items())
    _check(total == asm.G.order, "sum of squared degrees", asm.G.order, total)
    k = sum(asm.zeta.values())
    _check(k == asm.G.class_count, "number of characters",
           asm.G.class_count, k)
    asm.checks["zeta_closed_form"] = True
    asm.checks["sum_of_squares"] = True
    asm.checks["class_count"] = True


def assemble(backend, q, lam):
    """Build, verify and cache the complete irreducible data for one type."""
    lam = tuple(lam)
    key = (backend, q, lam)
    if key in _ASSEMBLED:
        return _ASSEMBLED[key]
    l1, l2 = lam
    G = aut_group(backend, q, lam)

    if lam == (1, 1):
        zeta = dict(Counter(character_degrees(G)))
        green = green_gl2(q)
        _check(zeta == green, "Dixon degrees of %s q=%d (1,1) against "
               "green_gl2" % (backend, q), sorted(green.items()),
               sorted(zeta.items()))
        asm = AssembledSet(G, backend, q, lam, [], zeta, False)
        asm.checks["dixon_matches_green"] = True
    else:
        if l2 == 0:
            fams = [IrrFamily("one_dim", build_rank1(backend, q, l1))]
        elif l2 == 1:
            fams = build_l1(G)
        elif l1 > l2:
            sub = assemble(backend, q, (l1 - 1, l2 - 1))
            # q * |sub| twists, all distinct: IrrFamily refuses repeats
            fams = [IrrFamily("pullback_twist", twist(
                inflate(G, sub.members, "floor"), twisting_characters(G.R2))),
                    build_cuspidal_nonrect(G)]
            fams.extend(build_infinitesimal(G))
            fams.extend(build_geometric(G)[::-1])
        else:
            sub = assemble(backend, q, (l1 - 1, l2 - 1))
            pull_zeta = {d: q * n for d, n in sub.zeta.items()}
            fams = [IrrFamily("pullback_twist",
                              count=sum(pull_zeta.values()),
                              provenance={"zeta": pull_zeta})]
            fams.extend(build_infinitesimal(G))
            fams.extend(build_geometric(G)[::-1])
            cn, cd = cuspidal_rect_count(l1, q)
            fams.append(IrrFamily("cuspidal_rect_count", count=cn,
                                  degree=cd))
        zeta = Counter()
        for fam in fams:
            zeta.update(fam.degree_counter())
        asm = AssembledSet(G, backend, q, lam, fams,
                           {d: n for d, n in zeta.items() if n > 0},
                           l2 < 2 or l1 > l2)

    _check_totals(asm)
    if asm.stacks():
        _check_orthonormal(asm)
    if l2 >= 2:
        _check_spectra(asm)
    _ASSEMBLED[key] = asm
    return asm
