"""Verification harness: recompute every counted quantity and identity for a
given type and compare against the closed forms, emitting a row-per-check
report suitable for serialization."""

from collections import Counter

import numpy as np

from .build import (assemble, cuspidal_members, cuspidal_rect_count,
                    inducing_pairs, zeta_closed_form)
from .classfun import (all_pairs, close, depth_one_dual, geo_ind, ind,
                       is_cuspidal, is_primitive, res, torus_character)
from .dixon import character_degrees
from .groups import aut_group, class_count_formula, order_formula
from .orbits import inner_types, orbits_on_kernel
from .rings import same_root, unit_characters


class VerifyReport:
    """Named check rows {name, anchor, expected, computed, pass}."""

    def __init__(self):
        self.rows = []

    def add(self, name, anchor, expected, computed):
        self.rows.append({"name": name, "anchor": anchor,
                          "expected": expected, "computed": computed,
                          "pass": bool(expected == computed)})

    @property
    def ok(self):
        return all(r["pass"] for r in self.rows)

    def as_dict(self):
        return {"ok": self.ok, "rows": self.rows}


def _zeta_json(z):
    return {str(d): n for d, n in sorted(z.items())}


def expected_dual_orbit_table(q, lam):
    """Closed-form depth-one dual orbit census {kind: (orbits, size)}."""
    if lam[0] > lam[1]:
        return {"central": (q, 1),
                "nilp_lower": (1, q * q - q),
                "nilp_upper": (1, q * q - q),
                "off_diag": (q - 1, q * q - q),
                "generic": (q * q - q, q * q)}
    return {"scalar": (q, 1),
            "split": (q * (q - 1) // 2, q * q + q),
            "jordan": (q, q * q - 1),
            "irreducible": (q * (q - 1) // 2, q * q - q)}


def _adjoint(up, down, funcs, members):
    """<up[i], chi[j]> == <down[j], funcs[i]>, all as integer matrices."""
    return np.array_equal(up.mult(members), down.mult(funcs).T)


def _check_geo_adjoint(G, members):
    """<ind(theta), chi> == <theta, res(chi)> for torus characters theta."""
    thetas = torus_character(G, *all_pairs(unit_characters(G.R1),
                                           unit_characters(G.R2)))
    return all(_adjoint(ind(G, thetas, side), res(G, members, side), thetas,
                        members) for side in ("upper", "lower"))


def _check_inf_adjoint(G, members):
    """<ind(sigma), chi> == <sigma, res(chi)> on the congruence sides."""
    for _, m in inner_types(G.lam):
        floor = assemble(G.backend, G.q, (G.l1, m)).members
        for side in ("embed", "quot"):
            if not _adjoint(ind(G, floor, side, m), res(G, members, side, m),
                            floor, members):
                return False
    return True


def _check_parabolic_both_sides(G):
    """Upper and lower parabolic induction agree on inducing pairs and are
    reducible exactly off them; rectangular pairs also swap."""
    t1, t2 = all_pairs(unit_characters(G.R1), unit_characters(G.R2))
    up = geo_ind(G, t1, t2, "upper")
    lo = geo_ind(G, t1, t2, "lower")
    inducing = inducing_pairs(G.R1, G.R2)
    if not ((up.mult() == 1) == inducing).all():
        return False
    if not close(up.vals[inducing], lo.vals[inducing]).all():
        return False
    if G.rect:
        sw = geo_ind(G, t2, t1, "upper")
        return bool(close(up.vals[inducing], sw.vals[inducing]).all())
    return True


def _lifts(R, Rm):
    """match[s, t]: whether unit character s of Rm, a lower level of R's
    tower, inflates to unit character t of R, by exponents at R's units."""
    (E, L), (Em, Lm) = unit_characters(R), unit_characters(Rm)
    down = Lm[:, np.searchsorted(Rm.units, np.array(R.units) % Rm.size)]
    return same_root(Em, down[:, None], E, L[None]).all(axis=2)


def _check_mixed_composition(G):
    """Parabolic induction of a floor pair (an inducing pair of the (l1, 1)
    group) equals the stable induction of the floor parabolic induction."""
    Gm = aut_group(G.backend, G.q, (G.l1, 1))
    match = _lifts(G.R2, Gm.R2)
    if not (match.sum(axis=1) == 1).all():
        return False
    (E1, L1), (E2, L2) = unit_characters(G.R1), unit_characters(G.R2)
    Em, Lm = unit_characters(Gm.R2)
    i, j = np.divmod(np.flatnonzero(inducing_pairs(G.R1, Gm.R2)), len(Lm))
    lhs = geo_ind(G, (E1, L1[i]), (E2, L2[match.argmax(axis=1)[j]]))
    mid = geo_ind(Gm, (E1, L1[i]), (Em, Lm[j]))
    return all(close(lhs.vals, ind(G, mid, side, 1).vals).all()
               for side in ("embed", "quot"))


def _check_stable_chain(backend, q):
    """One-step stable functors along (4,1)->(4,2)->(4,3) compose to the
    two-step ones."""
    G43 = aut_group(backend, q, (4, 3))
    G42 = aut_group(backend, q, (4, 2))
    sigma = assemble(backend, q, (4, 1)).family("orbitC").members
    for side in ("embed", "quot"):
        direct = ind(G43, sigma, side, 1)
        stepped = ind(G43, ind(G42, sigma, side, 1), side, 2)
        back = res(G42, res(G43, direct, side, 2), side, 1)
        if not (close(direct.vals, stepped.vals).all()
                and close(back.vals, res(G43, direct, side, 1).vals).all()):
            return False
    return True


def _check_cuspidal_induction(G):
    """Stable inductions of cuspidals are irreducible and injective per
    functor (the two sides coincide in the square case)."""
    outs = {"embed": [], "quot": []}
    for _, m in inner_types(G.lam):
        sigma = cuspidal_members(G.backend, G.q, (G.l1, m))
        for side in ("embed", "quot"):
            f = ind(G, sigma, side, m)
            if not (f.mult() == 1).all():
                return False
            outs[side].extend(f.fingerprint())
    return all(len(set(v)) == len(v) for v in outs.values())


def verify_all(backend, q, lam):
    """Run the complete check battery for one type and return the report."""
    lam = tuple(lam)
    l1, l2 = lam
    rep = VerifyReport()
    G = aut_group(backend, q, lam)
    rep.add("group_order", "order product formula",
            order_formula(q, lam), G.order)
    rep.add("class_count", "almost-cyclic class census formula",
            class_count_formula(q, lam), G.class_count)
    # the oracle first, once: its peak memory then stacks on the group and
    # its classes only, not on the assembled families
    oracle = Counter(character_degrees(G))
    a = assemble(backend, q, lam)
    rep.add("zeta_closed_form", "degree-count recursion",
            _zeta_json(zeta_closed_form(q, lam)), _zeta_json(a.zeta))
    rep.add("zeta_degree_oracle", "independent modular eigenvalue splitting",
            _zeta_json(a.zeta), _zeta_json(oracle))
    rep.add("family_checks", "construction invariants",
            {k: True for k in a.checks}, a.checks)

    if l2 >= 2:
        D = depth_one_dual(G)
        table = {k: list(v) for k, v in sorted(D.orbit_table().items())}
        rep.add("dual_orbit_table", "depth-one dual orbit census",
                {k: list(v) for k, v in
                 sorted(expected_dual_orbit_table(q, lam).items())}, table)
        rep.add("orbits_on_kernel", "q^2+q+1 split / q^2+q square census",
                q * q + q + (1 if l1 > l2 else 0),
                len(orbits_on_kernel(G)))

    if l1 > l2 >= 2:
        fam = a.family("cuspidal_nonrect")
        rep.add("cuspidal_count", "q^(l1+l2-3)(q-1)^2",
                q ** (l1 + l2 - 3) * (q - 1) ** 2, fam.count)
        rep.add("cuspidal_degree", "q^(l2-1)(q-1)",
                q ** (l2 - 1) * (q - 1), fam.degree)
        rep.add("cuspidal_battery", "twist-and-restrict annihilation",
                True, bool(is_cuspidal(G, fam.members).all()))
        fams = {lab: set(a.family(lab).members.fingerprint())
                for lab in ("cuspidal_nonrect", "inf_embed", "inf_quot",
                            "geo_split", "geo_irred")}
        tri = Counter()
        members = a.members
        for fp in members[is_primitive(G, members)].fingerprint():
            hits = [lab for lab, fps in fams.items() if fp in fps]
            tri[hits[0] if len(hits) == 1 else "unclassified"] += 1
        rep.add("primitive_trichotomy", "each primitive in exactly one family",
                {lab: len(fps) for lab, fps in sorted(fams.items())},
                dict(sorted(tri.items())))

    if l1 == l2 >= 2:
        cn, cd = cuspidal_rect_count(l1, q)
        remaining = Counter(oracle)
        for d, n in assemble(backend, q, (l1 - 1, l2 - 1)).zeta.items():
            remaining[d] -= q * n
        explicit = Counter(a.members.degrees.tolist())
        remaining.subtract(explicit)
        remaining = {d: n for d, n in remaining.items() if n}
        rep.add("rect_subtraction", "unaccounted degrees = unconstructed "
                "cuspidal count", {str(cd): cn}, _zeta_json(remaining))
        degrees = sorted(set(explicit) | {cd})
        rep.add("primitive_degree_polynomials", "report-only: degrees are "
                "polynomial values in q of degree <= level",
                sorted({q ** (l1 - 1) * (q - 1), q ** (l1 - 2) * (q * q - 1),
                        q ** (l1 - 1) * (q + 1)}), degrees)

    if q == 2 and lam in ((3, 2), (2, 2)):
        members = a.members
        rep.add("geo_adjointness", "induction-restriction inner products",
                True, _check_geo_adjoint(G, members))
        rep.add("inf_adjointness", "induction-restriction inner products",
                True, _check_inf_adjoint(G, members))
        rep.add("parabolic_two_sided", "upper equals lower on inducing pairs",
                True, _check_parabolic_both_sides(G))
        rep.add("mixed_composition", "parabolic then stable induction",
                True, _check_mixed_composition(G))
        rep.add("cuspidal_induction", "irreducible and injective",
                True, _check_cuspidal_induction(G))
        if lam == (3, 2):
            rep.add("stable_chain", "two-step functor composition",
                    True, _check_stable_chain(backend, q))
    return rep


def ring_compare(q, lam):
    """Equality of assembled degree data across the two ring backends."""
    lam = tuple(lam)
    rep = VerifyReport()
    a = assemble("padic", q, lam)
    b = assemble("tpoly", q, lam)
    rep.add("zeta_equal", "base-ring independence of degree counts",
            _zeta_json(a.zeta), _zeta_json(b.zeta))
    rep.add("class_count_equal", "base-ring independence of class counts",
            a.G.class_count, b.G.class_count)
    return rep
