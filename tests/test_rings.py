import cmath
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modrep2.rings import (FiniteField, MTOL, TOL, SimpleAbelianGroup,
                           _assert_abelian, additive_group, character_group,
                           make_ring, twisting_characters, unit_characters,
                           unit_group)

SRC = Path(__file__).resolve().parent.parent / "src"

SMALL = [("padic", 2, 3), ("padic", 3, 2), ("tpoly", 2, 3), ("tpoly", 4, 2)]


def test_make_ring_shapes():
    r = make_ring("padic", 2, 3)
    assert r.size == 8 and len(r.units) == 4
    r = make_ring("tpoly", 4, 2)
    assert r.size == 16 and len(r.units) == 12
    with pytest.raises(ValueError):
        make_ring("padic", 4, 2)
    with pytest.raises(ValueError):
        make_ring("tpoly", 6, 2)
    with pytest.raises(ValueError):
        make_ring("padic", 2, 0)


@pytest.mark.parametrize("backend,q,level", SMALL)
def test_ring_axioms(backend, q, level):
    r = make_ring(backend, q, level)
    n = r.size
    for x in range(n):
        assert r.add[x][0] == x and r.mul[x][1] == x and r.mul[x][0] == 0
        assert r.add[x][r.neg[x]] == 0
        for y in range(n):
            assert r.add[x][y] == r.add[y][x]
            assert r.mul[x][y] == r.mul[y][x]
            for z in range(n):
                assert r.add[r.add[x][y]][z] == r.add[x][r.add[y][z]]
                assert r.mul[r.mul[x][y]][z] == r.mul[x][r.mul[y][z]]
                assert r.mul[x][r.add[y][z]] == r.add[r.mul[x][y]][r.mul[x][z]]


@pytest.mark.parametrize("backend,q,level", SMALL)
def test_valuation_strata(backend, q, level):
    r = make_ring(backend, q, level)
    assert r.val[0] == level
    for m in range(level):
        count = sum(1 for x in range(r.size) if r.val[x] == m)
        assert count == q ** (level - m) - q ** (level - m - 1)
    # valuation is multiplicative below the truncation cutoff
    for x in range(r.size):
        for y in range(r.size):
            v = r.val[x] + r.val[y]
            assert r.val[r.mul[x][y]] == min(v, level) or v >= level


@pytest.mark.parametrize("backend,q,level", SMALL)
def test_reduction_is_hom(backend, q, level):
    r = make_ring(backend, q, level)
    for m in range(1, level):
        rm = make_ring(backend, q, m)
        for x in range(r.size):
            for y in range(r.size):
                xb, yb = r.reduce_to(x, m), r.reduce_to(y, m)
                assert r.reduce_to(r.add[x][y], m) == rm.add[xb][yb]
                assert r.reduce_to(r.mul[x][y], m) == rm.mul[xb][yb]
        # lift is a section of reduce
        for x in range(rm.size):
            assert r.reduce_to(rm.lift_to(x, level), m) == x


def test_inverse_table():
    r = make_ring("padic", 2, 3)
    assert r.inv[3] == 3 and r.inv[2] is None and r.mul[2][4] == 0
    for backend, q, level in SMALL:
        r = make_ring(backend, q, level)
        for u in r.units:
            assert r.mul[u][r.inv[u]] == 1
        for x in range(r.size):
            if not r.unit(x):
                assert r.inv[x] is None


def test_uniformizer_shifts():
    for backend, q, level in SMALL:
        r = make_ring(backend, q, level)
        for x in range(r.size):
            for j in range(level + 1):
                assert r.pi_mul(x, j) == r.mul[x][r.pi_pow(j)]
                if r.val[x] >= j:
                    assert r.pi_mul(r.pi_div(x, j), j) == x or r.val[x] + 0 > level - j
        # pi_div really inverts pi_mul on low-valuation input
        for x in range(r.size // q):
            assert r.pi_div(r.pi_mul(x, 1), 1) == x


def test_finite_field_f4():
    f = FiniteField(4)
    assert f.modulus == [1, 1, 1]  # X^2 + X + 1, the first irreducible in code order
    assert f.mul[2][2] == 3 and f.mul[2][3] == 1
    assert f.trace == [0, 0, 1, 1]
    f9 = FiniteField(9)
    assert f9.p == 3 and f9.f == 2
    for x in range(1, 9):
        assert f9.mul[x][f9.inv[x]] == 1


@pytest.mark.parametrize("backend,q,level", SMALL)
def test_psi_additive_primitive_nondegenerate(backend, q, level):
    r = make_ring(backend, q, level)
    for x in range(r.size):
        for y in range(r.size):
            assert abs(r.psi(r.add[x][y]) - r.psi(x) * r.psi(y)) < MTOL
    # primitive: nontrivial somewhere on the top valuation stratum
    top = [x for x in range(r.size) if r.val[x] >= level - 1 and x != 0]
    assert any(abs(r.psi(x) - 1) > MTOL for x in top)
    # nondegenerate: a -> psi(a*.) separates elements
    rows = {tuple(round(r.psi(r.mul[a][x]).real, 9) +
                  1j * round(r.psi(r.mul[a][x]).imag, 9) for x in range(r.size))
            for a in range(r.size)}
    assert len(rows) == r.size


def test_character_group_cyclic4():
    A = additive_group(make_ring("padic", 2, 2))
    chars = character_group(A)
    assert len(chars) == 4
    assert all(abs(chars[0](e) - 1) < MTOL for e in A.elements)
    assert any(abs(ch(1) - 1j) < MTOL for ch in chars)
    for ch in chars:
        for x in A.elements:
            for y in A.elements:
                assert abs(ch(A.mul(x, y)) - ch(x) * ch(y)) < MTOL


def test_character_group_klein_and_cyclic6():
    U8 = unit_group(make_ring("padic", 2, 3))  # (Z/8)^* = C2 x C2
    chars = character_group(U8)
    assert len(chars) == 4
    for ch in chars:
        assert all(abs(ch(u).imag) < MTOL for u in U8.elements)
    U9 = unit_group(make_ring("padic", 3, 2))  # (Z/9)^* = C6
    chars = character_group(U9)
    assert len(chars) == 6
    prim = cmath.exp(2j * cmath.pi / 6)
    assert any(min(abs(ch(u) - prim) for u in U9.elements) < MTOL for ch in chars)


def test_character_orthogonality():
    for A in (unit_group(make_ring("padic", 3, 2)),
              additive_group(make_ring("tpoly", 4, 1))):
        chars = character_group(A)
        n = A.order
        for i, ci in enumerate(chars):
            for j, cj in enumerate(chars):
                s = sum(ci(e) * cj(e).conjugate() for e in A.elements) / n
                assert abs(s - (1.0 if i == j else 0.0)) < TOL


def test_character_group_rejects_nonabelian():
    s3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    A = SimpleAbelianGroup(s3, lambda x, y: tuple(x[i] for i in y),
                           lambda x: tuple(sorted(range(3), key=lambda i: x[i])),
                           (0, 1, 2))
    with pytest.raises(ValueError):
        character_group(A)


def test_abelian_check_is_exact_on_large_lists():
    # C64 x S3 listed so that every sixth element is central: a check that
    # tests only every (n // 64)-th element against the rest sees no clash
    s3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    els = [(c, s) for c in range(64) for s in s3]
    step = len(els) // 64
    assert all(s == s3[0] for _, s in els[::step])
    A = SimpleAbelianGroup(
        els, lambda x, y: ((x[0] + y[0]) % 64, tuple(x[1][i] for i in y[1])),
        lambda x: ((-x[0]) % 64, tuple(sorted(range(3), key=lambda i: x[1][i]))),
        (0, s3[0]))
    with pytest.raises(ValueError, match="not abelian"):
        _assert_abelian(A)
    _assert_abelian(unit_group(make_ring("padic", 3, 5)))


def test_tuple_right_mul_refuses_non_elements():
    # {1, 3, 5} in (Z/8)^*: 3 * 5 = 7 is not in the list
    A = SimpleAbelianGroup([1, 3, 5], lambda x, y: x * y % 8,
                           lambda x: pow(x, -1, 8), 1)
    assert A.right_mul([0, 1], 1).tolist() == [1, 0]
    with pytest.raises(ValueError, match="1 products are not group elements"):
        A.right_mul([0, 1, 2], 2)
    with pytest.raises(ValueError, match="not group elements"):
        _assert_abelian(A)


def test_repeated_element_refused_under_optimize():
    # the check on distinct elements is a _check, so python -O keeps it
    code = ("from modrep2.rings import SimpleAbelianGroup\n"
            "try:\n"
            "    SimpleAbelianGroup([1, 3, 3], lambda x, y: x * y % 8,\n"
            "                       lambda x: x, 1, name='dup')\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == ("dup: distinct elements: expected 3, "
                           "computed 2\n")


def test_unit_characters_once_per_ring():
    r = make_ring("padic", 3, 2)
    chars = unit_characters(r)
    assert unit_characters(make_ring("padic", 3, 2)) is chars
    want = character_group(unit_group(r))
    assert [c.exps for c in chars] == [c.exps for c in want]
    assert [c.values for c in chars] == [c.values for c in want]


def test_twisting_characters():
    r = make_ring("padic", 2, 2)
    tw = twisting_characters(r)
    assert len(tw) == 2
    assert tw[0].is_trivial_on(r.units)
    assert abs(tw[1](3) + 1) < MTOL
    r = make_ring("padic", 3, 2)
    tw = twisting_characters(r)
    assert len(tw) == 3
    assert abs(tw[1](4) - cmath.exp(2j * cmath.pi / 3)) < MTOL
    assert abs(tw[2](4) - cmath.exp(4j * cmath.pi / 3)) < MTOL
    # restrictions to the principal units are pairwise distinct
    one_plus = [u for u in r.units if r.val[r.sub(u, 1)] >= 1]
    rows = {tuple(round(ch(u).real, 6) for u in one_plus) +
            tuple(round(ch(u).imag, 6) for u in one_plus) for ch in tw}
    assert len(rows) == 3
    with pytest.raises(ValueError):
        twisting_characters(make_ring("padic", 2, 1))


def test_tpoly_padic_differ_at_level2():
    rp = make_ring("padic", 2, 2)
    rt = make_ring("tpoly", 2, 2)
    assert rp.add[1][1] == 2 and rt.add[1][1] == 0  # char 4 vs char 2
    assert rt.mul[3][3] == 1  # (1+t)^2 = 1 in char 2
    assert rp.mul[3][3] == 1  # 9 = 1 mod 4, same code by coincidence
