"""Exact comparisons of roots of unity by their exponents, against the
complex references they replaced: the rule zeta_E^a = zeta_M^b, its F_r
tables, and each selection of abelian characters that build and verify make
on it."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from complex_ref import TOL, roots_of_unity
from modrep2.build import eta_extensions, inducing_pairs
from modrep2.classfun import linear_characters
from modrep2.dixon import dixon_prime
from modrep2.groups import aut_group
from modrep2.orbits import CongruenceDual, cuspidal_parameters, eta_dual
from modrep2.rings import (BACKENDS, fr_roots, make_ring, prime_power,
                           same_root, twisting_characters, unit_characters)
from modrep2.verify import _lifts

SRC = Path(__file__).resolve().parent.parent / "src"

MTOL = 1e-9  # the complex references' equality on the unit circle


@pytest.mark.parametrize("E,M", [(1, 1), (1, 5), (2, 2), (4, 6), (6, 4),
                                 (5, 7), (12, 8), (9, 3), (16, 16), (30, 42),
                                 (64, 96)])
def test_same_root_is_complex_equality(E, M):
    # every a < E against every b < M, coprime and not
    a, b = np.arange(E)[:, None], np.arange(M)[None, :]
    near = np.abs(np.exp(2j * np.pi * a / E) - np.exp(2j * np.pi * b / M))
    assert np.array_equal(same_root(E, a, M, b), near < 1e-9)
    # on any integers, not only the least residues
    assert np.array_equal(same_root(E, a - 3 * E, M, b + 2 * M),
                          near < 1e-9)
    assert same_root(E, a, M, b).sum() == math.gcd(E, M)
    # the F_r tables of E and M agree with each other as in C, for the
    # least prime r = 1 mod lcm(E, M) above 2 and one further
    r = dixon_prime(math.lcm(E, M), 2)
    for p in (r, dixon_prime(math.lcm(E, M), r)):
        assert np.array_equal(fr_roots(E, p)[a] == fr_roots(M, p)[b],
                              near < 1e-9)


def _rings_up_to(size):
    """Every ring of level >= 2 and at most size codes, both backends."""
    out = []
    for backend in BACKENDS:
        for q in range(2, int(math.isqrt(size)) + 1):
            try:
                _, f = prime_power(q)
            except ValueError:
                continue
            if backend == "padic" and f != 1:
                continue
            out += [make_ring(backend, q, level) for level in range(2, 9)
                    if q ** level <= size]
    return out


RINGS = _rings_up_to(256)


def _values(ring, chars, codes):
    """Complex values of unit characters (E, L) at the unit codes."""
    E, L = chars
    return roots_of_unity(E)[L[:, [ring.units.index(u) for u in codes]]]


def _psi(ring):
    """psi by code, in closed form: exp(2 pi i x / q^level) for padic,
    exp(2 pi i Tr(digit sum) / p) for tpoly."""
    c = np.arange(ring.size)
    if ring.backend == "padic":
        return np.exp(2j * np.pi * c / ring.size)
    t = sum(ring.field.trace[c // ring.q ** j % ring.q].astype(np.int64)
            for j in range(ring.level))
    return np.exp(2j * np.pi * (t % ring.p) / ring.p)


def ref_twisting(ring):
    """The rows of twisting_characters, matched within MTOL."""
    E, L = unit_characters(ring)
    r1 = make_ring(ring.backend, ring.q, 1)
    vals = _values(ring, (E, L), ring.one_plus)
    want = _psi(r1)[r1.mul]
    ext = (np.abs(vals[None] - want[:, None]) < MTOL).all(axis=2)
    assert (ext.sum(axis=1) == len(ring.units) // ring.q).all()
    return L[ext.argmax(axis=1)]


def ref_primitive(ring):
    """Per unit character, whether it is primitive: off 1 at a principal
    unit by more than TOL."""
    E, L = unit_characters(ring)
    return (np.abs(_values(ring, (E, L), ring.one_plus) - 1)
            > TOL).any(axis=1)


def ref_inducing(G):
    """inducing_pairs as the parabolic check read it, within TOL."""
    c1, c2 = unit_characters(G.R1), unit_characters(G.R2)
    v1 = _values(G.R1, c1, G.R1.one_plus)
    if G.rect:
        v2 = _values(G.R1, c2, G.R1.one_plus)
        return (np.abs(v1[:, None] - v2[None]) > TOL).any(axis=2).ravel()
    return np.repeat((np.abs(v1 - 1) > TOL).any(axis=1), len(c2[1]))


def ref_lifts(R):
    """_lifts(R, level 1) as the mixed-composition check read it, within
    MTOL."""
    Rm = make_ring(R.backend, R.q, 1)
    lifts = _values(R, unit_characters(R), R.units)
    down = _values(Rm, unit_characters(Rm), [u % R.q for u in R.units])
    return (np.abs(down[:, None] - lifts[None]) < MTOL).all(axis=2)


def test_ring_grid():
    kinds = {(r.backend, r.q) for r in RINGS}
    assert len(RINGS) > 30
    assert ("tpoly", 16) in kinds and ("padic", 13) in kinds


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: "%s-%d-%d" % (
    r.backend, r.q, r.level))
def test_unit_character_selections_match_complex_reference(ring):
    E, L = twisting_characters(ring)
    assert E == unit_characters(ring)[0]
    assert np.array_equal(L, ref_twisting(ring))
    # the primitive unit characters: on types (level, 1), every pair with
    # one of them induces irreducibly
    r1 = make_ring(ring.backend, ring.q, 1)
    prim = inducing_pairs(ring, r1).reshape(len(ring.units), -1)
    assert (prim == prim[:, :1]).all()
    assert np.array_equal(prim[:, 0], ref_primitive(ring))
    assert prim[:, 0].sum() == len(ring.units) - len(ring.units) // ring.q
    match = _lifts(ring, r1)
    assert np.array_equal(match, ref_lifts(ring))
    assert (match.sum(axis=1) == 1).all()


GROUPS = [("padic", 2, (2, 2)), ("padic", 2, (3, 2)), ("padic", 2, (3, 3)),
          ("padic", 2, (4, 2)), ("padic", 2, (5, 3)), ("padic", 3, (2, 2)),
          ("padic", 3, (3, 2)), ("padic", 5, (3, 2)), ("tpoly", 2, (3, 2)),
          ("tpoly", 4, (2, 2)), ("tpoly", 4, (3, 2))]


@pytest.mark.parametrize("backend,q,lam", GROUPS)
def test_inducing_pairs_match_complex_reference(backend, q, lam):
    G = aut_group(backend, q, lam)
    got = inducing_pairs(G.R1, G.R2)
    assert np.array_equal(got, ref_inducing(G))
    assert 0 < got.sum() < len(got)


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 2, (3, 2)), ("padic", 2, (4, 2)), ("padic", 2, (4, 3)),
    ("padic", 2, (5, 3)), ("padic", 3, (3, 2)), ("tpoly", 2, (3, 2)),
    ("tpoly", 4, (3, 2))])
def test_eta_extensions_match_complex_reference(backend, q, lam):
    G = aut_group(backend, q, lam)
    D = CongruenceDual(G, *G.half_levels())
    for u, w in cuspidal_parameters(G):
        N = G.subgroup("cuspidal_normalizer", u_hat=u, w_hat=w)
        eta = _psi(D.Ri)[D.codes([eta_dual(u, w)])[0]]
        Q, E, L = linear_characters(N)
        at_k = roots_of_unity(E)[L[:, Q.coset_of[N.positions(D.K.idx)]]]
        want = L[(np.abs(at_k - eta) < MTOL).all(axis=1)]
        Q2, E2, got = eta_extensions(N, D, eta_dual(u, w))
        assert E2 == E and len(want) > 0
        assert np.array_equal(Q2.coset_of, Q.coset_of)
        assert np.array_equal(got, want)


def test_shifted_eta_exponent_raises_under_optimize():
    # an eta exponent off by one (padic: psi's exponent is the code, so
    # every code of eta moved by one) extends to no linear character of the
    # normalizer; the count check names expected and computed
    G = aut_group("padic", 2, (3, 2))
    D = CongruenceDual(G, *G.half_levels())
    u, w = cuspidal_parameters(G)[0]
    N = G.subgroup("cuspidal_normalizer", u_hat=u, w_hat=w)
    n = len(eta_extensions(N, D, eta_dual(u, w))[2])
    code = ("from modrep2 import build, orbits\n"
            "from modrep2.groups import aut_group\n"
            "codes = orbits.CongruenceDual.codes\n"
            "def shifted(self, thetas):\n"
            "    return (codes(self, thetas) + 1) % self.Ri.size\n"
            "orbits.CongruenceDual.codes = shifted\n"
            "G = aut_group('padic', 2, (3, 2))\n"
            "try:\n"
            "    build.build_cuspidal_nonrect(G, build.job_prime(['padic'], 2, "
            "(3, 2)))\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == ("cuspidal (%d, %d): extensions of eta: expected "
                           "%d, computed 0\n" % (u, w, n))
