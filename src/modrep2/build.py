"""Explicit construction of the full irreducible character sets: the depth-one
tower, deep cuspidal characters, geometric and infinitesimal induction, and
the recursive assembly with its closed-form degree counts.

Every value of one job is a residue mod one prime r (classfun), chosen by
job_prime from the top group alone and shared with the Dixon oracle: r = 1
mod its exponent, r > max(D^2, 2 sqrt|G|, k) for D its largest degree.  It
serves every type assemble visits, the image of a subgroup of the top
group, so of exponent dividing the top's and of degrees at most D; each
assemble admits it (dixon.admit_prime) before any value is built."""

import math
from collections import Counter

import numpy as np

from .classfun import (ClassFunction, dedupe, ind, induce, inflate,
                       is_cuspidal, linear_characters, member_sums, row_order,
                       spectrum_kinds, stack, torus_character, twist)
from .dixon import admit_prime, character_degrees, dixon_prime
from .groups import Subgroup, aut_group
from .orbits import CongruenceDual, cuspidal_parameters, eta_dual, inner_types
from .rings import (_check, _once, at_one_plus, character_group, fr_roots,
                    same_root, twisting_characters, unit_characters)


class IrrFamily:
    """A labeled batch of irreducible characters (one stack), or a
    count-only record of their degrees, zeta = {degree: count}; count and
    degree (None unless one) are read from zeta, and checked against the
    paper's count and degree where they are given."""

    def __init__(self, label, members=None, zeta=None, count=None,
                 degree=None):
        self.label = label
        if members is not None:
            members = _checked_members(label, members)
            zeta = Counter(members.degrees.tolist())
        self.members, self.zeta = members, Counter(zeta)
        self.count = sum(self.zeta.values())
        self.degree = next(iter(self.zeta)) if len(self.zeta) == 1 else None
        for name, want in (("count", count), ("degree", degree)):
            got = getattr(self, name)
            _check(want is None or got == want, "%s: %s" % (label, name),
                   want, got)


def _checked_members(label, members):
    """The members in the order of row_order, checked on their stacked
    values: degrees read, norms read and equal to 1, distinct fingerprints
    (equal rows sort next to each other)."""
    if not len(members):
        return members
    n = members.mult()
    _check((n == 1).all(), "%s: norms other than 1" % label, [],
           n[n != 1].tolist())
    order, repeat = row_order(members)
    _check(not repeat.any(), "%s: distinct fingerprints" % label,
           len(members), len(members) - int(repeat.sum()))
    return members[order]


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


def build_rank1(backend, q, level, r):
    """All linear characters of the rank-one automorphism group, mod r."""
    A = aut_group(backend, q, (level, 0))
    E, L = character_group(A)
    out = ClassFunction(A, fr_roots(E, r)[L], r)
    n = q ** (level - 1) * (q - 1)
    _check(len(out) == n, "rank-one linear characters", n, len(out))
    return out


def _nontrivial_on(H, Q, L, S):
    """Per exponent row of H's linear characters (Q, L as returned by
    linear_characters), whether it is not 1 on some member of the subgroup
    S: exact, on the exponents."""
    return L[:, Q.coset_of[H.positions(S.idx)]].any(axis=1)


def build_l1(G, r):
    """Complete labeled irreducible families of a depth-one group, mod r."""
    q, l1 = G.q, G.l1
    _check(G.l2 == 1 and l1 >= 2, "build_l1: module type", "(l1 >= 2, 1)",
           G.lam)

    # one-dimensionals factor through the reduced diagonal pair
    A, _ = G.hom("diag_red", [])
    E, L = character_group(A)
    one = dedupe(inflate(G, ClassFunction(A, fr_roots(E, r)[L], r),
                         "diag_red"))
    one_dim = IrrFamily("one_dim", one, count=q ** (l1 - 2) * (q - 1) ** 2,
                        degree=1)

    Z = G.subgroup("floor_torus_a")
    H = G.subgroup("heisenberg")
    S = G.subgroup("scalars")

    # the q-dimensional family: induced from the triangular subgroup,
    # nontrivial on the central depth-one slice
    B = G.subgroup("parabolic_upper")
    Q, E, L = linear_characters(B)
    heis = dedupe(induce(B, ClassFunction(Q, fr_roots(E, r)[
        L[_nontrivial_on(B, Q, L, Z)]], r)))
    heis_q = IrrFamily("heis_q", heis, count=q ** (l1 - 2) * (q - 1) ** 3,
                       degree=q)
    del Q  # its |Q|^2 Cayley table goes before DH's abelianization is built

    # the (q-1)-dimensional family: induced from the product of the scalars
    # with the depth-one Heisenberg subgroup, its members sorted and once
    # each (a bincount: np.unique would import numpy.ma, about 25 ms and
    # 1 MB per process)
    DH = Subgroup(G, np.flatnonzero(np.bincount(G.right_mul(
        S.idx[:, None], H.idx[None, :]).ravel())), "DH")
    n = q ** (l1 + 1) * (q - 1)
    _check(DH.order == n, "DH: order", n, DH.order)
    Q, E, L = linear_characters(DH)
    keep = ~_nontrivial_on(DH, Q, L, Z) & _nontrivial_on(DH, Q, L, H)
    dh = dedupe(induce(DH, ClassFunction(Q, fr_roots(E, r)[L[keep]], r)))
    n = q ** (l1 - 2) * (q * q - 1)
    _check(len(dh) == n, "dh: count", n, len(dh))
    degs = sorted(set(dh.degrees.tolist()))
    _check(degs == [q - 1], "dh: degrees", [q - 1], degs)

    # sums over U: |U| times a multiplicity below r, 0 mod r exactly when
    # the multiplicity is 0
    has_p, has_m = (member_sums(U, dh) != 0 for U in
                    (G.subgroup("unipotent_upper"),
                     G.subgroup("unipotent_lower")))
    both = int((has_p & has_m).sum())
    _check(not both, "dh: members with nonzero averages on the upper and "
           "lower unipotents", 0, both)
    n = q ** (l1 - 2) * (q - 1)
    orbit_bp = IrrFamily("orbitB+", dh[has_p], count=n)
    orbit_bm = IrrFamily("orbitB-", dh[has_m], count=n)
    orbit_c = IrrFamily("orbitC", dh[~(has_p | has_m)], count=n * (q - 1))
    off = int((~is_cuspidal(G, orbit_c.members)).sum())
    _check(not off, "orbitC: members that are not cuspidal", 0, off)
    return [one_dim, orbit_bp, orbit_bm, orbit_c, heis_q]


def eta_extensions(N, D, theta):
    """linear_characters(N) with only the rows that restrict to the dual
    character theta of D's kernel K, matched by exponents at K's members."""
    Q, E, L = linear_characters(N)
    M, e = D.Ri.psi_exp
    at_k = L[:, Q.coset_of[N.positions(D.K.idx)]]
    return Q, E, L[same_root(E, at_k, M, e[D.codes([theta])]).all(axis=1)]


def build_cuspidal_nonrect(G, r):
    """The cuspidal family for l1 > l2 >= 2: extend each anisotropic kernel
    character to its stabilizer and induce, mod r."""
    q, l1, l2 = G.q, G.l1, G.l2
    _check(l1 > l2 >= 2, "build_cuspidal_nonrect: module type",
           "l1 > l2 >= 2", G.lam)
    l, eps = G.half_levels()
    D = CongruenceDual(G, l, eps)
    parts = []
    for u_hat, w_hat in cuspidal_parameters(G):
        N = G.subgroup("cuspidal_normalizer", u_hat=u_hat, w_hat=w_hat)
        A = G.subgroup("cuspidal_abelian", u_hat=u_hat, w_hat=w_hat)
        Q, E, exts = eta_extensions(N, D, eta_dual(u_hat, w_hat))
        inter = len(np.intersect1d(A.idx, D.K.idx, assume_unique=True))
        _check(len(exts) == A.order // inter, "cuspidal (%d, %d): extensions"
               " of eta" % (u_hat, w_hat), A.order // inter, len(exts))
        parts.append(induce(N, ClassFunction(Q, fr_roots(E, r)[exts], r)))
        del Q  # its |Q|^2 Cayley table goes before the next Q is built
    return IrrFamily("cuspidal_nonrect", dedupe(stack(parts)),
                     count=q ** (l1 + l2 - 3) * (q - 1) ** 2,
                     degree=q ** (l2 - 1) * (q - 1))


def inducing_pairs(R1, R2):
    """Per pair (t1, t2) of unit characters of R1 and R2 (levels l1 >= l2,
    t1 outer), whether its parabolic induction is irreducible: for l1 = l2,
    t1 and t2 differ at the principal units, otherwise t1 is not trivial
    there (a primitive unit character)."""
    (E1, L1), (E2, L2) = unit_characters(R1), unit_characters(R2)
    p1 = at_one_plus(R1, L1)
    if R1.level > R2.level:
        return np.repeat(p1.any(axis=1), len(L2))
    p2 = at_one_plus(R2, L2)
    return ~same_root(E1, p1[:, None], E2, p2[None]).all(axis=2).ravel()


def build_geometric(G, r):
    """Geometric families: (irreducible parabolic inductions, stable range
    inductions of the one-sided depth-one characters), mod r."""
    q, l1, l2 = G.q, G.l1, G.l2
    _check(l2 >= 2, "build_geometric: level l2", ">= 2", l2)

    (E1, L1), (E2, L2) = unit_characters(G.R1), unit_characters(G.R2)
    i, j = np.divmod(np.flatnonzero(inducing_pairs(G.R1, G.R2)), len(L2))
    raw = ind(G, torus_character(G, (E1, L1[i]), (E2, L2[j]), r), "upper")
    if l1 > l2:  # IrrFamily refuses repeated rows
        geo_irred = IrrFamily("geo_irred", raw,
                              count=q ** (l1 + l2 - 3) * (q - 1) ** 3,
                              degree=q ** l2)
    else:
        geo = dedupe(raw)
        _check(2 * len(geo) == len(raw), "geo_irred: raw inductions, twice "
               "the distinct", 2 * len(geo), len(raw))
        geo_irred = IrrFamily("geo_irred", geo,
                              count=q ** (2 * l1 - 3) * (q - 1) ** 3 // 2,
                              degree=q ** (l1 - 1) * (q + 1))

    floor = assemble(G.backend, q, (l1, 1), r)
    raw = stack([ind(G, floor.family("orbitB+").members, "embed", 1),
                 ind(G, floor.family("orbitB-").members, "quot", 1)])
    if l1 == l2:
        geo_split = IrrFamily(
            "geo_split", dedupe(twist(raw, twisting_characters(G.R2))),
            count=q ** (l1 - 1) * (q - 1), degree=q ** (l1 - 2) * (q * q - 1))
    else:  # IrrFamily refuses repeated rows
        geo_split = IrrFamily("geo_split", raw,
                              count=2 * q ** (l1 - 2) * (q - 1),
                              degree=q ** (l2 - 1) * (q - 1))
    return geo_irred, geo_split


def cuspidal_members(backend, q, lam, r):
    """The cuspidal characters of the group of the given type mod r (depth
    one uses the anisotropic depth-one family)."""
    label = "orbitC" if lam[1] == 1 else "cuspidal_nonrect"
    return assemble(backend, q, lam, r).family(label).members


def build_infinitesimal(G, r):
    """Stable range inductions of the cuspidal characters of every inner
    type, through both the embedding and the quotient maps, mod r."""
    q, l1, l2 = G.q, G.l1, G.l2
    _check(l2 >= 2, "build_infinitesimal: level l2", ">= 2", l2)
    if l1 > l2:
        emb, quo = [], []
        for _, m in inner_types(G.lam):
            sigma = cuspidal_members(G.backend, q, (l1, m), r)
            emb.append(ind(G, sigma, "embed", m))
            quo.append(ind(G, sigma, "quot", m))
        emb, quo = stack(emb), stack(quo)
        shared = len(set(emb.fingerprint()) & set(quo.fingerprint()))
        _check(not shared, "inf_embed, inf_quot: shared members", 0, shared)
        # IrrFamily refuses repeated rows within each
        n = sum(q ** (l1 + m - 3) * (q - 1) ** 2
                for _, m in inner_types(G.lam))
        deg = q ** (l2 - 1) * (q - 1)
        fams = [IrrFamily("inf_embed", emb, count=n, degree=deg),
                IrrFamily("inf_quot", quo, count=n, degree=deg)]
    else:
        tws = twisting_characters(G.R2)
        raw = []
        for _, m in inner_types(G.lam):
            sigma = cuspidal_members(G.backend, q, (l1, m), r)
            a = ind(G, sigma, "embed", m)
            off = int((a.vals != ind(G, sigma, "quot", m).vals)
                      .any(axis=1).sum())
            _check(not off, "inf (%d, %d): members whose embed and quot "
                   "inductions differ" % (l1, m), 0, off)
            raw.append(twist(a, tws))
        # q twists of each cuspidal; IrrFamily refuses repeated rows
        fams = [IrrFamily("inf_embed", stack(raw),
                          degree=q ** (l1 - 2) * (q * q - 1))]
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
    families keep the members' values, one stack each; the set is complete
    when there are families and every one lists its members."""

    def __init__(self, G, families, zeta):
        self.G, self.families, self.zeta = G, families, zeta
        self.complete = bool(families) and all(
            f.members is not None for f in families)
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


def _check_orthonormal(asm):
    """Gram matrix of all members against the identity, on integers: the
    members' degrees are read (IrrFamily), so each entry, at most the
    product of two degrees, is below r, and a residue equal to the
    identity's entry is that integer.  The members are cut into blocks of
    at most 256 rows of one family stack; the Gram matrix is symmetric (the
    pairing with inverse classes), so blocks i < j stand for their mirror
    image too, entries off the identity counting twice: no k x k array and
    no joined copy of the members."""
    blocks = [f[s:s + 256] for f in asm.stacks() for s in range(0, len(f), 256)]
    off = 0
    for i, B in enumerate(blocks):
        off += int(np.count_nonzero(B.inner(B) != np.eye(len(B))))
        for C in blocks[i + 1:]:
            off += 2 * int(np.count_nonzero(C.inner(B)))
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
    want = zeta_closed_form(asm.G.q, asm.G.lam)
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


def job_prime(backends, q, lam):
    """The prime of a job on lam over the backends, read from the top groups
    alone: the least r = 1 mod the lcm of their exponents with r > max(D^2,
    2 sqrt|G|, k), D the largest degree of zeta_closed_form(q, lam), so one
    prime serves the oracle and every type assemble visits (the image of a
    subgroup of the top group under floor, embed or quot: its exponent
    divides the top's, its degrees are at most D)."""
    groups = [aut_group(b, q, tuple(lam)) for b in backends]
    return dixon_prime(math.lcm(*(G.powers[0] for G in groups)), max(
        max(zeta_closed_form(q, lam)) ** 2,
        math.isqrt(4 * max(G.order for G in groups)),
        max(G.class_count for G in groups)))


def assemble(backend, q, lam, r=None):
    """Build, verify and keep in the group's memo (key ("assembled", r))
    the complete irreducible data for one type, mod r (by default
    job_prime), which admit_prime refuses before any value is built unless
    r > D^2 for the largest degree D (products of two degrees read
    exactly) and r = 1 mod the exponent."""
    lam = tuple(lam)
    r = r or job_prime([backend], q, lam)
    G = aut_group(backend, q, lam)
    admit_prime(r, G.powers[0], max(zeta_closed_form(q, lam)) ** 2,
                G.class_count)
    return _once(G, ("assembled", r), lambda: _assemble(G, r))


def _assemble(G, r):
    """assemble's set for G, returned (and so kept) only once every check
    passes."""
    backend, q, lam = G.backend, G.q, G.lam
    l1, l2 = lam

    if lam == (1, 1):
        zeta = dict(Counter(character_degrees(G, r)))
        green = green_gl2(q)
        _check(zeta == green, "Dixon degrees of %s q=%d (1,1) against "
               "green_gl2" % (backend, q), sorted(green.items()),
               sorted(zeta.items()))
        asm = AssembledSet(G, [], zeta)
        asm.checks["dixon_matches_green"] = True
    else:
        if l2 == 0:
            fams = [IrrFamily("one_dim", build_rank1(backend, q, l1, r))]
        elif l2 == 1:
            fams = build_l1(G, r)
        elif l1 > l2:
            sub = assemble(backend, q, (l1 - 1, l2 - 1), r)
            # q * |sub| twists, all distinct: IrrFamily refuses repeats
            fams = [IrrFamily("pullback_twist", twist(
                inflate(G, sub.members, "floor"), twisting_characters(G.R2))),
                    build_cuspidal_nonrect(G, r)]
            fams.extend(build_infinitesimal(G, r))
            fams.extend(build_geometric(G, r)[::-1])
        else:
            sub = assemble(backend, q, (l1 - 1, l2 - 1), r)
            pull_zeta = {d: q * n for d, n in sub.zeta.items()}
            fams = [IrrFamily("pullback_twist", zeta=pull_zeta)]
            fams.extend(build_infinitesimal(G, r))
            fams.extend(build_geometric(G, r)[::-1])
            cn, cd = cuspidal_rect_count(l1, q)
            fams.append(IrrFamily("cuspidal_rect_count", zeta={cd: cn}))
        zeta = Counter()
        for fam in fams:
            zeta.update(fam.zeta)
        asm = AssembledSet(G, fams,
                           {d: n for d, n in zeta.items() if n > 0})

    _check_totals(asm)
    if asm.stacks():
        _check_orthonormal(asm)
    if l2 >= 2:
        _check_spectra(asm)
    return asm
