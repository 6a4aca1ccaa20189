"""The modular character-degree oracle against known degree multisets."""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from modrep2.dixon import (_charpoly, _class_matrix, _nullspace, _rref,
                           character_degrees, dixon_prime, group_exponent)
from modrep2.groups import ProductGroup, aut_group
from modrep2.rings import make_ring, unit_group

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
    e = group_exponent(G)
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


def test_product_group_degrees():
    S3 = aut_group("padic", 2, (1, 1))
    assert Counter(character_degrees(ProductGroup(S3, S3))) == {1: 4, 2: 4, 4: 1}


@pytest.mark.parametrize("q,lam", [(2, (2, 1)), (3, (1, 1))])
def test_class_matrices_match_pair_count(q, lam):
    G = aut_group("padic", q, lam)
    k = G.class_count
    reps, _, cls_of = G._classes()
    rep_of = {x: m for m, x in enumerate(reps)}
    brute = np.zeros((k, k, k), dtype=np.int64)
    for x in G.elements:
        for y in G.elements:
            m = rep_of.get(G.mul(x, y))
            if m is not None:
                brute[G.cls_index(x), G.cls_index(y), m] += 1
    rep_idx = np.array([G.index[x] for x in reps])
    for i, x in enumerate(reps):
        members = np.flatnonzero(cls_of == G.cls_index(G.inv(x)))
        assert np.array_equal(_class_matrix(G, members, rep_idx, cls_of),
                              brute[i])


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
    assert group_exponent(aut_group("padic", 2, (1, 1))) == 6
    assert group_exponent(aut_group("padic", 2, (2, 1))) == 4
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
        K = _nullspace(A, p)
        assert K.shape == (cols - len(piv), cols)
        assert not (A @ K.T % p).any()
        assert len(_rref(K, p)[1]) == K.shape[0]
