"""Explicit construction of the full irreducible character sets: the depth-one
tower, deep cuspidal characters, geometric and infinitesimal induction, and
the recursive assembly with its closed-form degree counts."""

from collections import Counter

import numpy as np

from .classfun import (ClassFunction, dedupe, geo_ind, ind, induce, inflate,
                       is_cuspidal, linear_characters, spectrum_kinds, twist)
from .dixon import character_degrees
from .groups import aut_group
from .orbits import CongruenceDual, cuspidal_parameters, eta_dual, inner_types
from .rings import (MTOL, TOL, _check, character_group, make_ring,
                    twisting_characters, unit_characters, unit_group)


class IrrFamily:
    """A labeled batch of irreducible characters, or a count-only record."""

    def __init__(self, label, members=None, count=None, degree=None,
                 provenance=None):
        self.label = label
        if members is not None:
            members = sorted(members, key=lambda f: f.fingerprint())
            off = [n for n in (f.mult(f) for f in members) if n != 1]
            _check(not off, "%s: norms other than 1" % label, [], off)
            fps = {f.fingerprint() for f in members}
            _check(len(fps) == len(members), "%s: distinct fingerprints"
                   % label, len(members), len(fps))
            self.count = len(members)
            degs = sorted({int(round(f.degree)) for f in members})
            self.degree = degs[0] if len(degs) == 1 else None
        else:
            self.count = count
            self.degree = degree
        self.members = members
        self.provenance = provenance or {}

    def degree_counter(self):
        if self.members is not None:
            return Counter(int(round(f.degree)) for f in self.members)
        if self.degree is None:
            return Counter(self.provenance["zeta"])
        return Counter({self.degree: self.count})

    def __repr__(self):
        return "IrrFamily(%s, count=%d)" % (self.label, self.count)


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
    out = _abelian_charfuns(unit_group(make_ring(backend, q, level)))
    n = q ** (level - 1) * (q - 1)
    _check(len(out) == n, "rank-one linear characters", n, len(out))
    return out


def _abelian_charfuns(A):
    return [ClassFunction(A, np.array([ch(e) for e in A.elements]))
            for ch in character_group(A)]


def _nontrivial_on(chi, members):
    return any(abs(chi(x) - 1) > TOL for x in members)


def _unipotent_average(chi, U):
    return chi.vals[chi.group.cls_of[U.idx]].sum() / U.order


def build_l1(G):
    """Complete labeled irreducible families of a depth-one group."""
    q, l1 = G.q, G.l1
    _check(G.l2 == 1 and l1 >= 2, "build_l1: module type", "(l1 >= 2, 1)",
           G.lam)

    # one-dimensionals factor through the reduced diagonal pair
    A, _ = G.hom("diag_red", [])
    one = dedupe([inflate(G, f, "diag_red") for f in _abelian_charfuns(A)])
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
    heis = [induce(B, chi) for chi in linear_characters(B)
            if _nontrivial_on(chi, Z.elements)]
    heis = dedupe(heis)
    heis_q = IrrFamily("heis_q", heis)
    n = q ** (l1 - 2) * (q - 1) ** 3
    _check(heis_q.count == n, "heis_q: count", n, heis_q.count)
    _check(heis_q.degree == q, "heis_q: degree", q, heis_q.degree)

    # the (q-1)-dimensional family: induced from the product of the scalars
    # with the depth-one Heisenberg subgroup
    dh_members = sorted({G.mul(s, h) for s in S.elements for h in H.elements})
    DH = G.subgroup("custom", members=dh_members, name="DH")
    n = q ** (l1 + 1) * (q - 1)
    _check(DH.order == n, "DH: order", n, DH.order)
    dh = [induce(DH, chi) for chi in linear_characters(DH)
          if not _nontrivial_on(chi, Z.elements)
          and _nontrivial_on(chi, H.elements)]
    dh = dedupe(dh)
    n = q ** (l1 - 2) * (q * q - 1)
    _check(len(dh) == n, "dh: count", n, len(dh))
    degs = sorted({int(round(f.degree)) for f in dh})
    _check(degs == [q - 1], "dh: degrees", [q - 1], degs)

    Up = G.subgroup("unipotent_upper")
    Um = G.subgroup("unipotent_lower")
    bp, bm, cusp = [], [], []
    for f in dh:
        has_p = abs(_unipotent_average(f, Up)) > TOL
        has_m = abs(_unipotent_average(f, Um)) > TOL
        _check(not (has_p and has_m), "dh: nonzero averages on the upper "
               "and lower unipotents", "not both", (has_p, has_m))
        if has_p:
            bp.append(f)
        elif has_m:
            bm.append(f)
        else:
            cusp.append(f)
    orbit_bp = IrrFamily("orbitB+", bp)
    orbit_bm = IrrFamily("orbitB-", bm)
    orbit_c = IrrFamily("orbitC", cusp)
    n = q ** (l1 - 2) * (q - 1)
    _check(orbit_bp.count == orbit_bm.count == n, "orbitB+, orbitB-: counts",
           (n, n), (orbit_bp.count, orbit_bm.count))
    _check(orbit_c.count == n * (q - 1), "orbitC: count", n * (q - 1),
           orbit_c.count)
    off = sum(not is_cuspidal(G, f) for f in orbit_c.members)
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
    members = []
    for u_hat, w_hat in cuspidal_parameters(G):
        N = G.subgroup("cuspidal_normalizer", u_hat=u_hat, w_hat=w_hat)
        A = G.subgroup("cuspidal_abelian", u_hat=u_hat, w_hat=w_hat)
        eta = D.values([eta_dual(u_hat, w_hat)])[0]
        kcls = N.cls_of[N.positions(D.K.idx)]
        exts = [chi for chi in linear_characters(N)
                if np.all(np.abs(chi.vals[kcls] - eta) < MTOL)]
        inter = len(np.intersect1d(A.idx, D.K.idx, assume_unique=True))
        _check(len(exts) == A.order // inter, "cuspidal (%d, %d): extensions"
               " of eta" % (u_hat, w_hat), A.order // inter, len(exts))
        members.extend(induce(N, chi) for chi in exts)
    members = dedupe(members)
    fam = IrrFamily("cuspidal_nonrect", members)
    n, deg = q ** (l1 + l2 - 3) * (q - 1) ** 2, q ** (l2 - 1) * (q - 1)
    _check(fam.count == n, "cuspidal_nonrect: count", n, fam.count)
    _check(fam.degree == deg, "cuspidal_nonrect: degree", deg, fam.degree)
    return fam


def _primitive_unit_characters(ring):
    """Unit characters nontrivial on the deepest congruence layer."""
    lvl = ring.level
    layer = [ring.add[1][ring.pi_mul(s, lvl - 1)] for s in range(1, ring.q)]
    return [ch for ch in unit_characters(ring)
            if any(abs(ch(u) - 1) > TOL for u in layer)]


def build_geometric(G):
    """Geometric families: (irreducible parabolic inductions, stable range
    inductions of the one-sided depth-one characters)."""
    q, l1, l2 = G.q, G.l1, G.l2
    _check(l2 >= 2, "build_geometric: level l2", ">= 2", l2)

    if l1 > l2:
        pairs = [(t1, t2) for t1 in _primitive_unit_characters(G.R1)
                 for t2 in unit_characters(G.R2)]
        raw = [geo_ind(G, t1, t2) for t1, t2 in pairs]
        geo = dedupe(raw)
        n = q ** (l1 + l2 - 3) * (q - 1) ** 3
        _check(len(geo) == len(raw) == n, "geo_irred: distinct and raw "
               "inductions", (n, n), (len(geo), len(raw)))
        geo_irred = IrrFamily("geo_irred", geo)
        _check(geo_irred.degree == q ** l2, "geo_irred: degree", q ** l2,
               geo_irred.degree)
    else:
        chars = unit_characters(G.R1)
        layer = [G.R1.add[1][G.R1.pi_mul(s, l1 - 1)] for s in range(1, q)]
        pairs = [(t1, t2) for t1 in chars for t2 in chars
                 if any(abs(t1(u) - t2(u)) > TOL for u in layer)]
        raw = [geo_ind(G, t1, t2) for t1, t2 in pairs]
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
    bp = floor.family("orbitB+").members
    bm = floor.family("orbitB-").members
    raw = ([ind(G, f, "embed", 1) for f in bp]
           + [ind(G, f, "quot", 1) for f in bm])
    if l1 == l2:
        tws = twisting_characters(G.R2)
        raw = [twist(f, t) for f in raw for t in tws]
        split = dedupe(raw)
        n = q ** (l1 - 1) * (q - 1)
        _check(len(split) == n, "geo_split: count", n, len(split))
        expect_deg = q ** (l1 - 2) * (q * q - 1)
    else:
        split = dedupe(raw)
        n = 2 * q ** (l1 - 2) * (q - 1)
        _check(len(split) == len(raw) == n, "geo_split: distinct and raw "
               "inductions", (n, n), (len(split), len(raw)))
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
            for f in cuspidal_members(G.backend, q, (l1, m)):
                emb.append(ind(G, f, "embed", m))
                quo.append(ind(G, f, "quot", m))
        emb, quo = dedupe(emb), dedupe(quo)
        expect = sum(q ** (l1 + m - 3) * (q - 1) ** 2
                     for _, m in inner_types(G.lam))
        _check(len(emb) == len(quo) == expect, "inf_embed, inf_quot: counts",
               (expect, expect), (len(emb), len(quo)))
        shared = len({f.fingerprint() for f in emb}
                     & {f.fingerprint() for f in quo})
        _check(not shared, "inf_embed, inf_quot: shared members", 0, shared)
        fams = [IrrFamily("inf_embed", emb), IrrFamily("inf_quot", quo)]
        deg = q ** (l2 - 1) * (q - 1)
        _check(fams[0].degree == fams[1].degree == deg, "inf_embed, inf_quot:"
               " degrees", (deg, deg), (fams[0].degree, fams[1].degree))
    else:
        tws = twisting_characters(G.R2)
        raw, total = [], 0
        for _, m in inner_types(G.lam):
            for f in cuspidal_members(G.backend, q, (l1, m)):
                a = ind(G, f, "embed", m)
                b = ind(G, f, "quot", m)
                fa, fb = a.fingerprint(), b.fingerprint()
                _check(fa == fb, "inf (%d, %d): embed and quot inductions "
                       "coincide" % (l1, m), fa, fb)
                raw.extend(twist(a, t) for t in tws)
                total += 1
        members = dedupe(raw)
        _check(len(members) == q * total, "inf_embed: count", q * total,
               len(members))
        fams = [IrrFamily("inf_embed", members,
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
    degree-count dictionary, and the outcome of the structural checks."""

    def __init__(self, G, backend, q, lam, families, members, zeta, complete):
        self.G = G
        self.backend = backend
        self.q = q
        self.lam = lam
        self.families = families
        self.members = members
        self.zeta = zeta
        self.complete = complete
        self.checks = {}

    def family(self, label):
        for f in self.families:
            if f.label == label:
                return f
        raise KeyError(label)


_ASSEMBLED = {}


def _check_orthonormal(asm):
    M = np.array([f.vals for f in asm.members])
    w = asm.G.class_sizes / asm.G.order
    gram = (M * w) @ M.conj().T
    off = int((~np.isclose(gram, np.eye(len(asm.members)), atol=TOL)).sum())
    _check(not off, "Gram matrix entries off the identity", 0, off)
    asm.checks["orthonormal"] = True


def _check_spectra(asm):
    for fam in asm.families:
        if fam.members is None or fam.label not in _SPECTRUM_OF:
            continue
        for f in fam.members:
            kinds = spectrum_kinds(asm.G, f)
            _check(len(kinds) == 1 and kinds <= _SPECTRUM_OF[fam.label],
                   "%s: spectrum kind, one of" % fam.label,
                   sorted(_SPECTRUM_OF[fam.label]), sorted(kinds))
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

    if l2 == 0:
        members = build_rank1(backend, q, l1)
        fams = [IrrFamily("one_dim", members)]
        asm = AssembledSet(G, backend, q, lam, fams, members,
                           dict(Counter(int(round(f.degree)) for f in members)),
                           True)
    elif lam == (1, 1):
        zeta = dict(Counter(character_degrees(G)))
        green = green_gl2(q)
        _check(zeta == green, "Dixon degrees of %s q=%d (1,1) against "
               "green_gl2" % (backend, q), sorted(green.items()),
               sorted(zeta.items()))
        asm = AssembledSet(G, backend, q, lam, [], None, zeta, False)
        asm.checks["dixon_matches_green"] = True
    elif l2 == 1:
        fams = build_l1(G)
        members = [f for fam in fams for f in fam.members]
        zeta = dict(Counter(int(round(f.degree)) for f in members))
        asm = AssembledSet(G, backend, q, lam, fams, members, zeta, True)
    elif l1 > l2:
        sub = assemble(backend, q, (l1 - 1, l2 - 1))
        tws = twisting_characters(G.R2)
        pulled = dedupe([twist(inflate(G, f, "floor"), t)
                         for f in sub.members for t in tws])
        _check(len(pulled) == q * len(sub.members), "pullback_twist: count",
               q * len(sub.members), len(pulled))
        fams = [IrrFamily("pullback_twist", pulled),
                build_cuspidal_nonrect(G)]
        fams.extend(build_infinitesimal(G))
        geo_irred, geo_split = build_geometric(G)
        fams.extend([geo_split, geo_irred])
        members = [f for fam in fams for f in fam.members]
        n = len(dedupe(members))
        _check(n == len(members), "distinct members", len(members), n)
        zeta = dict(Counter(int(round(f.degree)) for f in members))
        asm = AssembledSet(G, backend, q, lam, fams, members, zeta, True)
    else:
        sub = assemble(backend, q, (l1 - 1, l2 - 1))
        pull_zeta = {d: q * n for d, n in sub.zeta.items()}
        fams = [IrrFamily("pullback_twist", count=sum(pull_zeta.values()),
                          provenance={"zeta": pull_zeta})]
        fams.extend(build_infinitesimal(G))
        geo_irred, geo_split = build_geometric(G)
        cn, cd = cuspidal_rect_count(l1, q)
        fams.extend([geo_split, geo_irred,
                     IrrFamily("cuspidal_rect_count", count=cn, degree=cd)])
        members = [f for fam in fams if fam.members for f in fam.members]
        n = len(dedupe(members))
        _check(n == len(members), "distinct members", len(members), n)
        zeta = Counter()
        for fam in fams:
            zeta.update(fam.degree_counter())
        zeta = {d: n for d, n in zeta.items() if n > 0}
        asm = AssembledSet(G, backend, q, lam, fams, members, zeta, False)

    _check_totals(asm)
    if asm.members:
        _check_orthonormal(asm)
    if l2 >= 2:
        _check_spectra(asm)
    _ASSEMBLED[key] = asm
    return asm
