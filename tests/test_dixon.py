"""The modular character-degree oracle against known degree multisets."""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from modrep2 import dixon
from modrep2.dixon import (_charpoly, _class_matrix, _class_tables,
                           _eigenspaces, _mm, _nullspace, _product_classes,
                           _read_degrees, _rep_powers, _roots, _rref,
                           character_degrees, dixon_prime)
from modrep2.groups import aut_group
from modrep2.rings import TableGroup, is_prime, make_ring, unit_group

SRC = Path(__file__).resolve().parent.parent / "src"

DEGREES = [
    ("padic", 2, (1, 1), {1: 2, 2: 1}),
    ("padic", 3, (1, 1), {1: 2, 2: 3, 3: 2, 4: 1}),
    ("tpoly", 4, (1, 1), {1: 3, 3: 6, 4: 3, 5: 3}),
    ("padic", 2, (2, 1), {1: 4, 2: 1}),
    ("padic", 3, (2, 1), {1: 4, 2: 8, 3: 8}),
    ("padic", 2, (3, 1), {1: 8, 2: 2}),
    ("padic", 2, (3, 2), {1: 8, 2: 14, 4: 4}),
    ("padic", 2, (2, 2), {1: 4, 2: 5, 3: 4, 6: 1}),
    ("padic", 3, (2, 2), {1: 6, 2: 9, 3: 6, 4: 3, 6: 24, 8: 18, 12: 12}),
]


@pytest.mark.parametrize("backend,q,lam,expect", DEGREES)
def test_degree_multisets(backend, q, lam, expect):
    G = aut_group(backend, q, lam)
    degrees = character_degrees(G)
    assert len(degrees) == G.class_count
    assert sum(d * d for d in degrees) == G.order
    assert Counter(degrees) == expect


def test_prime_independence():
    G = aut_group("padic", 3, (2, 1))
    e = _rep_powers(G)[0]
    r1 = dixon_prime(e, G.order)
    r2 = dixon_prime(e, r1)
    assert r2 > r1 > G.order
    assert character_degrees(G, r_override=r1) == character_degrees(G, r_override=r2)


def test_bad_override_rejected():
    G = aut_group("padic", 2, (2, 1))
    with pytest.raises(ValueError):
        character_degrees(G, r_override=G.order + 1)


def test_bad_override_rejected_under_optimize():
    # 19 is a prime above |G| = 8 but not 1 mod the exponent 4
    code = ("from modrep2.dixon import character_degrees\n"
            "from modrep2.groups import aut_group\n"
            "try:\n"
            "    character_degrees(aut_group('padic', 2, (2, 1)), r_override=19)\n"
            "except ValueError:\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr


def _default_prime(G, monkeypatch):
    """The prime character_degrees picks by default, read off its call of
    _eigenlines, with the cached degrees put aside."""
    seen = []

    def spy(G, jstar, r):
        seen.append(r)
        return eigenlines(G, jstar, r)

    eigenlines = dixon._eigenlines
    monkeypatch.setattr(G, "_degree_multiset", None, raising=False)
    monkeypatch.setattr(dixon, "_eigenlines", spy)
    degrees = character_degrees(G)
    monkeypatch.undo()
    return seen[0], degrees


# the first three have k > 2 sqrt|G|, so the class count sets the bound
K_BOUND = [("padic", 2, (8, 1)), ("padic", 3, (4, 1)), ("tpoly", 4, (2, 1))]


@pytest.mark.parametrize("backend,q,lam", K_BOUND + [
    ("padic", 2, (3, 3)), ("padic", 2, (4, 4)), ("padic", 3, (2, 2))])
def test_default_prime_is_the_least_above_the_bound(backend, q, lam,
                                                    monkeypatch):
    G = aut_group(backend, q, lam)
    k, e = G.class_count, _rep_powers(G)[0]
    r, _ = _default_prime(G, monkeypatch)
    assert is_prime(r) and (r - 1) % e == 0
    assert r * r > 4 * G.order and r > k
    # no smaller prime = 1 mod e clears both terms
    assert not any(is_prime(x) and x * x > 4 * G.order and x > k
                   for x in range(r - e, 1, -e))
    if (backend, q, lam) in K_BOUND:
        assert k * k > 4 * G.order


@pytest.mark.parametrize("backend,q,lam", K_BOUND + [("padic", 2, (3, 3))])
def test_default_prime_gives_the_degrees_of_a_prime_above_the_order(
        backend, q, lam, monkeypatch):
    G = aut_group(backend, q, lam)
    r_big = dixon_prime(_rep_powers(G)[0], G.order)
    r, degrees = _default_prime(G, monkeypatch)
    assert r < r_big
    assert degrees == character_degrees(G, r_override=r_big)


def test_override_at_or_below_the_bound_rejected_under_optimize():
    # 257 = 1 mod 64 lies above 2 sqrt|G| = 45.3 but not above k = 320 on
    # padic q=2 (8,1); 5 = 1 mod 4 is at both terms, 2 sqrt 8 = 5.7 and
    # k = 5, on (2,1); the next primes = 1 mod the exponent are accepted
    code = ("from modrep2.dixon import character_degrees\n"
            "from modrep2.groups import aut_group\n"
            "for lam, r in (((8, 1), 257), ((2, 1), 5)):\n"
            "    G = aut_group('padic', 2, lam)\n"
            "    try:\n"
            "        character_degrees(G, r_override=r)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
            "    else:\n"
            "        raise SystemExit(4)\n"
            "print(character_degrees(aut_group('padic', 2, (8, 1)), 449)\n"
            "      == character_degrees(aut_group('padic', 2, (8, 1))))\n"
            "print(character_degrees(aut_group('padic', 2, (2, 1)), 13))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ("Dixon prime must be a prime r > max(2 sqrt|G|, k) = "
                        "320 with r = 1 mod exponent 64, got 257")
    assert lines[1].endswith("= 5 with r = 1 mod exponent 4, got 5")
    assert lines[2:] == ["True", "[1, 1, 1, 1, 2]"]


def test_degree_readout_raises_under_optimize():
    # GL2(F2), |G| = 6, at r = 7 > 2 sqrt 6, with the table 1 -> 1, 4 -> 2
    # of d^2 mod 7 for d <= sqrt 6: the squared degrees 1, 1, 4 read back; 3
    # is no square mod 7; 2 = 3^2 mod 7, but 3 exceeds sqrt |G|; 1, 1, 1
    # sum to 3, not 6
    code = ("import numpy as np\n"
            "from modrep2.dixon import _read_degrees\n"
            "print(_read_degrees(np.array([4, 1, 1]), 7, 6))\n"
            "for d2 in ([1, 1, 3], [1, 1, 2], [1, 1, 1]):\n"
            "    try:\n"
            "        _read_degrees(np.array(d2), 7, 6)\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n"
            "    else:\n"
            "        raise SystemExit(4)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ok, nonsquare, large, total = proc.stdout.splitlines()
    assert ok == "[1, 1, 2]"
    assert nonsquare == ("squared degrees mod 7, d^2 for 1 <= d <= 2: "
                         "expected residues d^2 mod 7, computed others [3]")
    assert large == ("squared degrees mod 7, d^2 for 1 <= d <= 2: "
                     "expected residues d^2 mod 7, computed others [2]")
    assert total == ("sum of squared degrees, read from [1] mod 7: expected 6,"
                     " computed 3")


def _cls(G, g):
    """The class of the 4-tuple g."""
    return int(G.cls_of[G.locate([g])[0]])


def _inverse_classes(G):
    """The members of the class of the inverses of each class, in order."""
    return [np.flatnonzero(G.cls_of == G.cls_of[x])
            for x in G.inverse(G.rep_idx).tolist()]


@pytest.mark.parametrize("q,lam", [(2, (2, 1)), (3, (1, 1))])
def test_class_matrices_match_pair_count(q, lam):
    G = aut_group("padic", q, lam)
    k = G.class_count
    reps, cls_of = G.class_reps, G.cls_of.tolist()
    rep_of = {x: m for m, x in enumerate(reps)}
    brute = np.zeros((k, k, k), dtype=np.int64)
    els = G.elements_at(G.idx)
    for x, cx in zip(els, cls_of):
        for y, cy in zip(els, cls_of):
            m = rep_of.get(G.mul(x, y))
            if m is not None:
                brute[cx, cy, m] += 1
    tables = _class_tables(G)
    for i, members in enumerate(_inverse_classes(G)):
        assert np.array_equal(_class_matrix(G, tables, members), brute[i])


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 2, (3, 3)), ("padic", 3, (3, 2)), ("padic", 2, (3, 1)),
    ("tpoly", 4, (2, 1))])
def test_class_tables_match_kernel_products(backend, q, lam):
    # every class times every representative, against the general kernel
    G = aut_group(backend, q, lam)
    k, cls_of, rep_idx = G.class_count, G.cls_of, G.rep_idx
    tables = _class_tables(G)
    assert tables[0].dtype == tables[1].dtype == np.int32
    assert tables[4].dtype == np.min_scalar_type(-k)
    for t in range(k):
        members = np.flatnonzero(cls_of == t)
        j = cls_of[G.right_mul(members[:, None], rep_idx[None, :])]
        assert np.array_equal(_product_classes(G, tables, members), j.T)
        N = np.bincount((j * k + np.arange(k)).ravel(),
                        minlength=k * k).reshape(k, k)
        assert np.array_equal(_class_matrix(G, tables, members), N), t


def test_code_table_off_the_group_refused():
    G = aut_group("padic", 2, (3, 1))
    T1, T2, u1, u2, cls = _class_tables(G)
    members = np.flatnonzero(G.cls_of == G.class_count - 1)
    # the code of members[-1] * rep_3 read as no element
    cls = cls.copy()
    cls[T1[3, u1[members[-1]]] + T2[3, u2[members[-1]]]] = -1
    with pytest.raises(ValueError, match="1 products are not group elements"):
        _class_matrix(G, (T1, T2, u1, u2, cls), members)


@pytest.mark.parametrize("backend,q,lam", [("padic", 2, (2, 2)),
                                            ("padic", 3, (2, 1)),
                                            ("tpoly", 2, (2, 1))])
def test_central_translate_matrix_is_a_product(backend, q, lam):
    # N_{zC} = N_z N_C: the matrix of a central translate splits nothing new
    G = aut_group(backend, q, lam)
    reps, sizes = G.class_reps, G.class_sizes
    tables = _class_tables(G)
    N = [_class_matrix(G, tables, members) for members in _inverse_classes(G)]
    center = np.flatnonzero(sizes == 1)
    assert len(center) > 1
    for c in center:
        for i, x in enumerate(reps):
            zc = _cls(G, G.mul(reps[c], x))
            assert np.array_equal(N[zc], N[c] @ N[i]), (c, i)


def test_central_translates_build_no_matrix(monkeypatch):
    G = aut_group("padic", 2, (4, 4))
    built = []

    def counted(G, tables, members):
        built.append(len(members))
        return _class_matrix(G, tables, members)

    monkeypatch.setattr(dixon, "_class_matrix", counted)
    r = dixon_prime(_rep_powers(G)[0], G.order)
    assert Counter(character_degrees(G, r_override=r)) == {
        1: 16, 2: 20, 3: 16, 4: 24, 6: 36, 8: 48, 12: 72, 24: 16}
    assert len(built) <= 40  # 132 with every class matrix built
    assert min(built) > 1  # the central blocks leave no central class to use


def _centre_characters(G, shift, central, r):
    """The characters theta[t, a] of the centre, from shift[a, i] = z_a C_i."""
    pos = np.empty(G.class_count, dtype=np.intp)
    pos[central] = np.arange(len(central))
    return dixon._fr_characters(TableGroup(
        pos[shift[:, central]], int(pos[G.identity_class]), "the centre"), r)


@pytest.mark.parametrize("group", [
    ("padic", 2, (2, 2)), ("padic", 3, (2, 1)),
    ("tpoly", 4, (2, 1)),  # centre C3 x C2 x C2, not cyclic
    pytest.param(("padic", 2, (1, 1)), id="GL2F2")])  # trivial centre
def test_central_blocks_are_joint_eigenspaces(group):
    G = aut_group(*group)
    reps, sizes = G.class_reps, G.class_sizes
    k = len(reps)
    central = np.flatnonzero(sizes == 1)
    # shift[a, i]: the class z_a C_i, from tuple products
    shift = np.array([[_cls(G, G.mul(reps[c], x)) for x in reps]
                      for c in central])
    tables = _class_tables(G)
    N = [_class_matrix(G, tables, G.inverse(G.rep_idx[[c]])) for c in central]
    r = dixon_prime(_rep_powers(G)[0], G.order)
    theta = _centre_characters(G, shift, central, r)
    # the trivial twist group: every central character leads its own orbit
    blocks = dixon._central_blocks(
        shift, theta, np.ones((1, len(central)), dtype=np.int64), r)
    assert sum(B.shape[0] * d for d, (B, _) in blocks.items()) == k
    eigen = set()
    for d, (B, P) in blocks.items():
        assert B.shape[1:] == (d, k) and P.shape == (B.shape[0], d)
        for E, Q in zip(B, P):
            assert np.array_equal(E[:, Q], np.eye(d, dtype=np.int64))
            # theta(z) read off the row, v[z C] = theta(z) v[C], is the
            # eigenvalue of N_z on the whole block
            thetas = tuple(int(E[0, shift[a, Q[0]]]) for a in range(len(N)))
            for Nz, theta in zip(N, thetas):
                assert not ((E @ Nz.T - theta * E) % r).any(), (theta, Q)
            eigen.add(thetas)
    # one block per joint eigenvalue: the blocks are whole eigenspaces
    assert len(eigen) == sum(len(B) for B, _ in blocks.values()) == len(central)
    if group[1:] == (2, (1, 1)):
        assert list(blocks) == [k]


def test_center_check_raises_under_optimize():
    # the engine's certificate must refuse a non-homomorphism, then repeated
    # characters, on the centre's rows
    code = ("from modrep2 import dixon, rings\n"
            "from modrep2.groups import aut_group\n"
            "orig = rings._decompose\n"
            "def double_one(A):\n"
            "    gens, orders, E, L = orig(A)\n"
            "    L[:, (A.identity_pos + 1) % A.order] *= 2\n"
            "    return gens, orders, E, L\n"
            "def repeat_one(A):\n"
            "    gens, orders, E, L = orig(A)\n"
            "    L[1] = L[0]\n"
            "    return gens, orders, E, L\n"
            "for bad in (double_one, repeat_one):\n"
            "    rings._decompose = bad\n"
            "    try:\n"
            "        dixon.character_degrees(aut_group('padic', 3, (2, 1)))\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n"
            "    else:\n"
            "        raise SystemExit(4)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    hom, distinct = proc.stdout.splitlines()
    assert hom.startswith("entries of L[t, a g] off L[t, a] + L[t, g] mod E,"
                          " and of L[t, 1] off 0, on the centre")
    assert hom.endswith(": expected 0, computed %s" % hom.split()[-1])
    assert int(hom.split()[-1]) > 0
    assert distinct == ("distinct characters of the centre: expected 6, "
                        "computed 5")


def _identity_start_degrees(G, r):
    """The split as it was before the central blocks: from the identity
    block, central classes used like the others, translates of a used
    non-central class skipped.  A reference for character_degrees."""
    k = G.class_count
    _, inv_idx = dixon._rep_powers(G)
    sizes, cls_of = G._classes()
    rep_idx, ic = G.rep_idx, G.identity_class
    tables = _class_tables(G)
    jstar = cls_of[inv_idx]
    center = rep_idx[sizes == 1]
    shift = cls_of[G.right_mul(center[:, None], rep_idx[None, :])]
    by_class = np.argsort(cls_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    covered = np.zeros(k, dtype=bool)
    blocks = {k: (np.eye(k, dtype=np.int64)[None], np.arange(k)[None])}
    for i in range(k):
        if i == ic or covered[i] or list(blocks) == [1]:
            continue
        t = jstar[i]
        NT = _class_matrix(G, tables, by_class[starts[t]:starts[t + 1]]).T
        parts = {}
        for d, (B, P) in blocks.items():
            if d == 1:
                parts.setdefault(1, []).append((B, P))
                continue
            Bi = _mm(B.reshape(-1, k), NT, r).reshape(B.shape)
            R = np.take_along_axis(Bi, P[:, None, :], axis=2)
            assert np.array_equal(_mm(R, B, r), Bi)
            for b in range(len(B)):
                if (R[b] == R[b, 0, 0] * np.eye(d, dtype=np.int64)).all():
                    parts.setdefault(d, []).append((B[b:b + 1], P[b:b + 1]))
                    continue
                for E, Q in _eigenspaces(R[b], r):
                    parts.setdefault(len(Q), []).append(
                        (_mm(E, B[b], r)[None], P[b][Q][None]))
        blocks = {d: (np.concatenate([B for B, _ in ps]),
                      np.concatenate([P for _, P in ps]))
                  for d, ps in parts.items()}
        if sizes[i] > 1:
            covered[shift[:, i]] = True
    assert list(blocks) == [1]
    V = blocks[1][0][:, 0]
    W = V * dixon._inverses(V[:, ic], r)[:, None] % r
    s = (W * W[:, jstar] % r * dixon._inverses(sizes, r) % r).sum(axis=1) % r
    d2 = G.order * dixon._inverses(s, r) % r
    return sorted(math.isqrt(int(x)) for x in d2)


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 2, (2, 2)), ("padic", 3, (2, 1)), ("padic", 2, (3, 2)),
    ("padic", 3, (2, 2)), ("tpoly", 4, (1, 1)), ("tpoly", 4, (2, 1))])
def test_central_start_matches_identity_start(backend, q, lam):
    G = aut_group(backend, q, lam)
    r1 = dixon_prime(_rep_powers(G)[0], G.order)
    r2 = dixon_prime(_rep_powers(G)[0], r1)
    assert character_degrees(G) == _identity_start_degrees(G, r1)
    assert (character_degrees(G, r_override=r2)
            == _identity_start_degrees(G, r2))


def _trivial_twists(G, r):
    return np.ones((1, G.class_count), dtype=np.int64)


def _eigenline_set(G, r):
    _, inv_idx = dixon._rep_powers(G)
    W = dixon._eigenlines(G, G.cls_of[inv_idx], r)
    assert W.shape == (G.class_count,) * 2
    return set(map(tuple, W.tolist()))


@pytest.mark.parametrize("backend,q,lam", [
    ("padic", 3, (3, 2)), ("padic", 2, (5, 3)), ("padic", 3, (2, 2)),
    ("tpoly", 4, (2, 2))])
def test_twisted_eigenlines_match_all_blocks(backend, q, lam, monkeypatch):
    # the eigenlines written as twists of the orbit representatives' are the
    # ones the split finds from every central block
    G = aut_group(backend, q, lam)
    e = _rep_powers(G)[0]
    r1 = dixon_prime(e, G.order)
    for r in (r1, dixon_prime(e, r1)):
        twisted = _eigenline_set(G, r)
        with monkeypatch.context() as m:
            m.setattr(dixon, "_twists", _trivial_twists)
            assert _eigenline_set(G, r) == twisted
        assert len(twisted) == G.class_count


@pytest.mark.parametrize("backend,q,lam,orbit", [
    ("padic", 3, (3, 2), 6), ("padic", 2, (4, 4), 2), ("tpoly", 4, (2, 2), 3),
    ("padic", 3, (2, 1), 2)])
def test_central_blocks_one_per_twist_orbit(backend, q, lam, orbit):
    G = aut_group(backend, q, lam)
    sizes, cls_of, rep_idx = G.class_sizes, G.cls_of, G.rep_idx
    k = len(sizes)
    central = np.flatnonzero(sizes == 1)
    shift = cls_of[G.right_mul(rep_idx[central][:, None], rep_idx[None, :])]
    r = dixon_prime(_rep_powers(G)[0], G.order)
    theta = _centre_characters(G, shift, central, r)
    Lam = dixon._twists(G, r)
    assert (Lam[0] == 1).all() and len(set(map(tuple, Lam.tolist()))) == len(Lam)
    mu = np.array(list(dict.fromkeys(map(tuple, Lam[:, central].tolist()))))
    assert len(mu) == orbit
    every = dixon._central_blocks(shift, theta, mu[:1], r)
    lead = dixon._central_blocks(shift, theta, mu, r)
    # the representatives' blocks, one per orbit, are among all the blocks
    for d, (B, P) in lead.items():
        rows = set(map(bytes, every[d][0]))
        assert all(bytes(E) in rows for E in B)
    count = sum(len(B) for B, _ in lead.values())
    assert count * orbit == len(central)
    assert (sum(len(B) * d for d, (B, _) in lead.items()) * orbit
            == sum(len(B) * d for d, (B, _) in every.items()) == k)
    # a restriction that is no character of G maps theta off the characters
    with pytest.raises(AssertionError, match="products theta lambda"):
        dixon._central_blocks(shift, theta, np.vstack([mu[:1], 2 * mu[:1]]), r)


def test_twist_certificate_raises_under_optimize():
    # a twist wrong at one class breaks the identity on the central classes;
    # one wrong on a whole Z-orbit of classes keeps that one and breaks the
    # identity on the first class matrix built
    code = ("import numpy as np\n"
            "from modrep2 import dixon\n"
            "from modrep2.groups import aut_group\n"
            "G = aut_group('padic', 3, (3, 2))\n"
            "central = np.flatnonzero(G.class_sizes == 1)\n"
            "zc = G.cls_of[G.right_mul(G.rep_idx[central][:, None],\n"
            "                          G.rep_idx[None, :])]\n"
            "c = int(np.flatnonzero(G.class_sizes > 1)[-1])\n"
            "orig = dixon._twists\n"
            "for cols in ([c], sorted(set(zc[:, c].tolist()))):\n"
            "    def bad(G, r):\n"
            "        Lam = orig(G, r)\n"
            "        t = next(t for t, row in enumerate(Lam[:, central])\n"
            "                 if (row != 1).any())\n"
            "        Lam[t, cols] = Lam[t, cols] * 2 % r\n"
            "        return Lam\n"
            "    dixon._twists = bad\n"
            "    try:\n"
            "        dixon.character_degrees(G)\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n"
            "    else:\n"
            "        raise SystemExit(4)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    one, orbit = proc.stdout.splitlines()
    head = "entries of lambda(C_j) off lambda(C_t) lambda(C_m) where N[j, m] != 0"
    assert one.startswith(head + ", on the central classes: expected 0, ")
    assert orbit.startswith(head + ", on class ")
    for line in (one, orbit):
        assert int(line.split()[-1]) > 0


def _det_mod(M, p):
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        term = sign
        for a in range(n):
            term *= M[a][perm[a]]
        total += term
    return total % p


def _charpoly_cases(p):
    rng = random.Random(5)
    cases = [np.array([[rng.randrange(p)]])]
    for n in range(2, 6):
        for _ in range(6):
            cases.append(np.array([[rng.randrange(p) for _ in range(n)]
                                   for _ in range(n)]))
        A = cases[-1].copy()
        A[1, 0] = 0          # zero sub-diagonal pivot: the row swap runs
        if n > 2:
            A[2, 0] = 1
        cases.append(A)
        A = cases[-1].copy()
        A[1:, 0] = 0         # nothing to eliminate in column 0
        cases.append(A)
    cases.append(np.diag([3, 3, 7, 3]))
    return cases


def test_charpoly_matches_determinant_expansion():
    p = 31
    for A in _charpoly_cases(p):
        n = A.shape[0]
        coeffs = [int(c) for c in _charpoly(A.astype(np.int64), p)]
        assert len(coeffs) == n + 1 and coeffs[0] == 1
        for x in range(p):
            value = 0
            for c in coeffs:
                value = (value * x + c) % p
            xI_A = [[((x if a == b else 0) - int(A[a, b])) % p
                     for b in range(n)] for a in range(n)]
            assert value == _det_mod(xI_A, p), (A, x)


def test_exponents():
    assert _rep_powers(aut_group("padic", 2, (1, 1)))[0] == 6
    assert _rep_powers(aut_group("padic", 2, (2, 1)))[0] == 4
    assert dixon_prime(6, 6) == 7
    assert dixon_prime(6, 7) == 13


def test_abelian_shortcut():
    G = unit_group(make_ring("padic", 3, 2))
    assert character_degrees(G) == [1] * 6


def test_rref_and_nullspace():
    p = 31
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 7)
        A = np.array([[rng.randrange(p) if rng.random() < 0.6 else 0
                       for _ in range(cols)] for _ in range(rows)])
        R, piv = _rref(A, p)
        assert piv == sorted(set(piv)) and R.shape == (len(piv), cols)
        for s, c in enumerate(piv):
            assert not R[s, :c].any() and R[s, c] == 1
            assert np.count_nonzero(R[:, c]) == 1
        # same row space: stacking A on R adds no rank
        assert len(_rref(np.vstack([A, R]), p)[1]) == len(piv)
        K, free = _nullspace(A, p)
        assert K.shape == (cols - len(piv), cols)
        assert sorted(set(free) | set(piv)) == list(range(cols))
        assert np.array_equal(K[:, free], np.eye(len(free)))
        assert not (A @ K.T % p).any()
        assert len(_rref(K, p)[1]) == K.shape[0]


# r = 1 mod 8 for 17, 41, 97, 257 and 25057, so Tonelli-Shanks loops
QUADRATIC_PRIMES = [3, 7, 13, 17, 41, 97, 257, 8803, 25057]


def _scan_roots(coeffs, p):
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in coeffs:
        acc = (acc * xs + int(c)) % p
    return [int(x) for x in np.flatnonzero(acc == 0)]


@pytest.mark.parametrize("p", QUADRATIC_PRIMES)
def test_degree_readout_inverts_squares(p):
    # with |G| = d^2 + 2, sqrt |G| rounds down to d, and 2d < p: the degrees
    # d, 1, 1 read back from their squares mod p, for sampled d up to the
    # largest with 2d < p, and the square of d + 1 is off the table
    top = (p - 1) // 2
    for d in random.Random(p).sample(range(1, top + 1), min(top, 100)):
        order = d * d + 2
        assert _read_degrees(np.array([d * d % p, 1, 1]), p, order) == \
            sorted([d, 1, 1])
        if d < top:
            with pytest.raises(AssertionError, match="squared degrees mod"):
                _read_degrees(np.array([(d + 1) ** 2 % p, 1, 1]), p, order)


@pytest.mark.parametrize("p", QUADRATIC_PRIMES)
def test_quadratic_roots_match_scan(p):
    rng = random.Random(p)
    for _ in range(25):
        a, b, u = rng.randrange(p), rng.randrange(p), rng.randrange(1, p)
        coeffs = [u, -u * (a + b) % p, u * a * b % p]
        assert _roots(coeffs, p) == sorted({a, b}) == _scan_roots(coeffs, p)
    # and the ones without roots in F_p
    for n in range(1, min(p, 40)):
        coeffs = [1, 0, -n % p]
        assert _roots(coeffs, p) == _scan_roots(coeffs, p)


def _largest_admissible_prime(k, exponent):
    r = math.isqrt((2 ** 53 - 1) // (k + 1))
    r -= (r - 1) % exponent
    while not is_prime(r):
        r -= exponent
    return r


def _poly_from_roots(roots, lead, p):
    coeffs = [lead]
    for a in roots:
        coeffs = [(c - a * prev) % p for c, prev in zip(coeffs + [0],
                                                        [0] + coeffs)]
    return coeffs


@pytest.mark.parametrize("p,degrees", [
    (8803, range(3, 41)), (25057, range(3, 41)),
    # the largest prime with exact float64 products at k = 1008
    (_largest_admissible_prime(1008, 2), (3, 12, 40))])
def test_roots_with_repeats_match_scan(p, degrees):
    rng = random.Random(p)
    for n in degrees:
        distinct = rng.sample(range(p), rng.randrange(1, (n + 1) // 2 + 1))
        roots = distinct + [rng.choice(distinct) for _ in range(n - len(distinct))]
        coeffs = _poly_from_roots(roots, rng.randrange(1, p), p)
        assert len(coeffs) == n + 1
        assert _roots(coeffs, p) == sorted(distinct) == _scan_roots(coeffs, p)


def _rref_int(rows, p):
    """Row reduction in Python ints: (rows, pivot columns)."""
    rows = [[x % p for x in row] for row in rows]
    pivots, top = [], 0
    for col in range(len(rows[0])):
        sel = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        inv = pow(rows[top][col], -1, p)
        rows[top] = [x * inv % p for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[top])]
        pivots.append(col)
        top += 1
    return rows[:top], pivots


def test_exact_at_the_float64_bound():
    # dot products of length k of entries up to r - 1 reach just under 2^53
    k = 200
    r = _largest_admissible_prime(k, 2)
    assert 0.9999 * 2 ** 53 < (k + 1) * r * r < 2 ** 53
    rng = random.Random(11)
    # 4 x k by k x 8 runs through BLAS, 4 x 10 by 10 x 8 through int64
    for n in (k, 10):
        A = [[r - 1] * n] + [[rng.randrange(r - 50, r) for _ in range(n)]
                             for _ in range(3)]
        B = [[r - 1] * 8 for _ in range(n)]
        for row in B[::3]:
            row[1] = rng.randrange(r)
        got = _mm(np.array(A), np.array(B), r)
        assert got.tolist() == [[sum(a * b for a, b in zip(row, col)) % r
                                 for col in zip(*B)] for row in A]
    for rows, cols in [(6, 9), (9, 6), (8, 8)]:
        M = [[r - 1 if rng.random() < 0.3 else rng.randrange(r - 50, r)
              for _ in range(cols)] for _ in range(rows)]
        M[-1] = [(x + y) % r for x, y in zip(M[0], M[1])]  # rank deficient
        R, piv = _rref(np.array(M), r)
        ref, ref_piv = _rref_int(M, r)
        assert (R.tolist(), piv) == (ref, ref_piv)
        K, free = _nullspace(np.array(M), r)
        assert list(free) == [c for c in range(cols) if c not in ref_piv]
        assert all(sum(x * y for x, y in zip(row, kr)) % r == 0
                   for row in M for kr in K.tolist())


def test_lazy_rref_exact_over_many_pivots():
    # the trailing block is reduced only at the end: 40 unreduced updates
    # with entries near r at the largest prime admitted for k = 1008
    r = _largest_admissible_prime(1008, 2)
    rng = random.Random(13)
    for rows, cols in [(40, 48), (48, 40), (40, 40)]:
        M = [[rng.randrange(r - 50, r) if rng.random() < 0.5
              else rng.randrange(r) for _ in range(cols)]
             for _ in range(rows)]
        M[5] = [(2 * x + y) % r for x, y in zip(M[0], M[3])]
        R, piv = _rref(np.array(M), r)
        assert (R.tolist(), piv) == _rref_int(M, r)


def test_largest_admissible_prime_gives_the_same_degrees():
    G = aut_group("padic", 2, (2, 1))
    r = _largest_admissible_prime(G.class_count, _rep_powers(G)[0])
    assert r > dixon_prime(_rep_powers(G)[0], G.order)
    assert character_degrees(G, r_override=r) == character_degrees(G)


def test_prime_above_the_float64_bound_rejected():
    G = aut_group("padic", 2, (2, 1))
    k, e = G.class_count, _rep_powers(G)[0]
    r = _largest_admissible_prime(k, e) + e
    while not is_prime(r):
        r += e
    assert (k + 1) * r * r >= 2 ** 53
    with pytest.raises(ValueError, match="float64"):
        character_degrees(G, r_override=r)
    code = ("from modrep2.dixon import character_degrees\n"
            "from modrep2.groups import aut_group\n"
            "try:\n"
            "    character_degrees(aut_group('padic', 2, (2, 1)), "
            "r_override=%d)\n"
            "except ValueError:\n"
            "    raise SystemExit(3)\n" % r)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr


def _space(rows, p):
    return _rref(np.array(rows, dtype=np.int64).reshape(-1, 12), p)[0].tolist()


def test_peeled_eigenspaces_match_per_eigenvalue_kernels():
    # R = S^-1 D S: row j of S is a left eigenvector for D[j]; one eigenvalue
    # of multiplicity d/2, a tie in multiplicity, and simple ones
    p = 10007
    D = [5] * 6 + [7, 7, 11, 11, 13, 17]
    rng = random.Random(3)
    d = len(D)
    for _ in range(4):
        while True:
            S = np.array([[rng.randrange(p) for _ in range(d)]
                          for _ in range(d)], dtype=np.int64)
            rr, piv = _rref(np.hstack([S, np.eye(d, dtype=np.int64)]), p)
            if piv[:d] == list(range(d)):
                break
        Sinv = rr[:, d:]
        assert (S.astype(object).dot(Sinv.astype(object)) % p
                == np.eye(d, dtype=int)).all()
        perm = rng.sample(range(d), d)
        R = (Sinv.astype(object).dot(np.diag([D[j] for j in perm]))
             .dot(S.astype(object)) % p).astype(np.int64)
        spaces = _eigenspaces(R, p)
        dims = [len(P) for _, P in spaces]
        assert dims[0] == 6 and dims == sorted(dims, reverse=True)
        assert sum(dims) == d
        seen = set()
        for E, P in spaces:
            assert np.array_equal(E[:, P], np.eye(len(P), dtype=np.int64))
            lam = int(E[0].astype(object).dot(R.astype(object))[P[0]] % p)
            seen.add(lam)
            Kref, _ = _nullspace((R.T - lam * np.eye(d, dtype=np.int64)) % p,
                                 p)
            assert _space(E, p) == _space(Kref, p)
            assert _space(E, p) == _space(
                [S[i] for i in range(d) if D[perm[i]] == lam], p)
        assert seen == set(D)
