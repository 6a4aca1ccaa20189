import cmath
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modrep2 import rings
from modrep2.groups import aut_group
from modrep2.rings import (BACKENDS, MAX_RING_SIZE, FiniteField, LocalRing,
                           TOL, TableGroup, character_group, make_ring,
                           prime_power, roots_of_unity, twisting_characters,
                           unit_characters, unit_group)

SRC = Path(__file__).resolve().parent.parent / "src"

MTOL = 1e-9  # against complex references: values on the unit circle


def row_funcs(elements, chars):
    """The rows of chars = (E, L) as functions on the elements that index
    their columns, in order."""
    E, L = chars
    col, z = {e: j for j, e in enumerate(elements)}, roots_of_unity(E)
    return [lambda e, row=row: z[row[col[e]]] for row in L]

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
    # reduction to level m is x % q^m on codes: the groups' maps rely on it
    r = make_ring(backend, q, level)
    for m in range(1, level):
        rm = make_ring(backend, q, m)
        for x in range(r.size):
            for y in range(r.size):
                xb, yb = x % rm.size, y % rm.size
                assert r.add[x][y] % rm.size == rm.add[xb][yb]
                assert r.mul[x][y] % rm.size == rm.mul[xb][yb]


def test_inverse_table():
    r = make_ring("padic", 2, 3)
    assert r.inv[3] == 3 and r.inv[2] == 0 and r.mul[2][4] == 0
    for backend, q, level in SMALL:
        r = make_ring(backend, q, level)
        for u in r.units:
            assert r.mul[u][r.inv[u]] == 1
        for x in range(r.size):
            if r.val[x] > 0:
                assert r.inv[x] == 0


def test_uniformizer_shifts():
    for backend, q, level in SMALL:
        r = make_ring(backend, q, level)
        for x in range(r.size):
            for j in range(level + 1):
                assert r.pi_mul(x, j) == r.mul[x][r.pi_pow(j)]
                if r.val[x] >= j:  # q^j divides the code
                    assert x % q ** j == 0 and r.pi_mul(x // q ** j, j) == x
    # on int16 arrays too, where x * q^j would wrap on the large rings
    for backend, q, level in SMALL + [("padic", 2, 12), ("tpoly", 3, 7)]:
        r = make_ring(backend, q, level)
        c = np.arange(r.size, dtype=np.int16)
        for j in range(level + 1):
            assert np.array_equal(r.pi_mul(c, j), r.mul[:, r.pi_pow(j)])


def test_finite_field_f4():
    f = FiniteField(4)
    assert f.modulus == [1, 1, 1]  # X^2 + X + 1, the first irreducible in code order
    assert f.mul[2][2] == 3 and f.mul[2][3] == 1
    assert f.trace.tolist() == [0, 0, 1, 1]
    f9 = FiniteField(9)
    assert f9.p == 3 and f9.f == 2
    for x in range(1, 9):
        assert f9.mul[x][f9.inv[x]] == 1


# The list-of-lists table builders that the array tables replaced, as the
# reference for them: per-pair digit loops, None for the inverse of a
# non-unit.

def _digits(x, base, n):
    out = []
    for _ in range(n):
        out.append(x % base)
        x //= base
    return out


def _ref_poly_divmod(a, b, p):
    """Little-endian polynomial division over F_p; b monic."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    quo = [0] * max(da - db + 1, 1)
    for i in range(da - db, -1, -1):
        c = a[i + db] % p
        if c:
            quo[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return quo, a[:db] if db else [0]


def _ref_irreducible(m, p):
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            _, rem = _ref_poly_divmod(m, _digits(code, p, d) + [1], p)
            if not any(rem):
                return False
    return True


def reference_field(q):
    """(modulus, add, mul, neg, inv, trace) of F_q as lists."""
    p, f = prime_power(q)

    def encode(coeffs):
        return sum(c * p ** i for i, c in enumerate(coeffs))

    if f == 1:
        modulus = None
        add = [[(x + y) % p for y in range(p)] for x in range(p)]
        mul = [[(x * y) % p for y in range(p)] for x in range(p)]
    else:
        modulus = next(m for m in (_digits(c, p, f) + [1] for c in range(q))
                       if _ref_irreducible(m, p))
        add, mul = [], []
        for x in range(q):
            dx = _digits(x, p, f)
            add.append([encode([(a + b) % p for a, b in
                                zip(dx, _digits(y, p, f))])
                        for y in range(q)])
            row = []
            for y in range(q):
                dy = _digits(y, p, f)
                prod = [0] * (2 * f - 1)
                for i, a in enumerate(dx):
                    for j, b in enumerate(dy):
                        prod[i + j] = (prod[i + j] + a * b) % p
                _, rem = _ref_poly_divmod(prod, modulus, p)
                row.append(encode(rem + [0] * (f - len(rem))))
            mul.append(row)
    neg = [add[x].index(0) for x in range(q)]
    inv = [None] + [mul[x].index(1) for x in range(1, q)]
    trace = []
    for x in range(q):
        t, y = 0, x
        for _ in range(f):
            t = add[t][y]
            z = 1
            for _ in range(p):
                z = mul[z][y]
            y = z
        trace.append(t)
    return modulus, add, mul, neg, inv, trace


def reference_ring(backend, q, level):
    """(add, mul, neg, inv, val) of the level-`level` ring as lists."""
    s = q ** level
    if backend == "padic":
        add = [[(x + y) % s for y in range(s)] for x in range(s)]
        mul = [[(x * y) % s for y in range(s)] for x in range(s)]
        inv = [pow(x, -1, s) if x % q else None for x in range(s)]
    else:
        _, fadd, fmul, _, _, _ = reference_field(q)
        digs = [_digits(x, q, level) for x in range(s)]

        def encode(coeffs):
            return sum(c * q ** i for i, c in enumerate(coeffs))

        add, mul = [], []
        for x in range(s):
            dx = digs[x]
            add.append([encode([fadd[a][b] for a, b in zip(dx, digs[y])])
                        for y in range(s)])
            row = []
            for y in range(s):
                out = [0] * level
                for i in range(level):
                    for j in range(level - i):
                        out[i + j] = fadd[out[i + j]][fmul[dx[i]][digs[y][j]]]
                row.append(encode(out))
            mul.append(row)
        inv = [mul[x].index(1) if x % q else None for x in range(s)]
    neg = [add[x].index(0) for x in range(s)]
    val = []
    for x in range(s):
        v = 0 if x else level
        while x and x % q == 0:
            x, v = x // q, v + 1
        val.append(v)
    return add, mul, neg, inv, val


def _check_tables(got, want):
    for t, w in zip(got, want):
        assert t.dtype == np.int16
        assert t.tolist() == [0 if x is None else x for x in w]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_field_tables_match_reference(q):
    f = FiniteField(q)
    modulus, *want = reference_field(q)
    assert f.modulus == modulus
    _check_tables([f.add, f.mul, f.neg, f.inv, f.trace], want)
    assert (f.inv[1:] != 0).all() and f.inv[0] == 0


def _small_rings():
    out = []
    for backend in BACKENDS:
        for q in range(2, 257):
            try:
                f = prime_power(q)[1]
            except ValueError:
                continue
            out += [(backend, q, level) for level in range(1, 9)
                    if q ** level <= 256 and (backend == "tpoly" or f == 1)]
    return out


@pytest.mark.parametrize("backend,q,level", _small_rings())
def test_ring_tables_match_reference(backend, q, level):
    r = LocalRing(backend, q, level)
    want = reference_ring(backend, q, level)
    _check_tables([r.add, r.mul, r.neg, r.inv, r.val], want)
    # the inverse reads 0 exactly at the non-units
    assert ((r.inv == 0) == (r.val > 0)).all()
    assert r.units == tuple(x for x in range(r.size) if want[4][x] == 0)


def test_largest_padic_ring_is_small():
    # the level-12 tables of Z/4096 are two int16 arrays of 32 MB; lists of
    # lists took about 1.2 GB there.  The peak is the child's VmHWM: its
    # ru_maxrss starts from the parent's high-water mark, which exec keeps
    code = ("from modrep2.rings import make_ring\n"
            "r = make_ring('padic', 2, 12)\n"
            "hwm = [line for line in open('/proc/self/status')\n"
            "       if line.startswith('VmHWM:')]\n"
            "print(r.size, hwm[0].split()[1])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    size, peak_kb = proc.stdout.split()
    assert int(size) == MAX_RING_SIZE
    assert int(peak_kb) < 150 * 1024, peak_kb


@pytest.mark.parametrize("backend,q,level", SMALL)
def test_psi_additive_primitive_nondegenerate(backend, q, level):
    r = make_ring(backend, q, level)
    M, e = r.psi_exp
    assert np.array_equal(r.psi, roots_of_unity(M)[e])
    for x in range(r.size):
        for y in range(r.size):
            assert abs(r.psi[r.add[x][y]] - r.psi[x] * r.psi[y]) < MTOL
    # primitive: nontrivial somewhere on the top valuation stratum
    top = [x for x in range(r.size) if r.val[x] >= level - 1 and x != 0]
    assert any(abs(r.psi[x] - 1) > MTOL for x in top)
    # nondegenerate: a -> psi(a*.) separates elements
    rows = {tuple(round(r.psi[r.mul[a][x]].real, 9) +
                  1j * round(r.psi[r.mul[a][x]].imag, 9) for x in range(r.size))
            for a in range(r.size)}
    assert len(rows) == r.size


def tabulate(elements, mul, identity, name=""):
    """The TableGroup of a product given on elements, each at its position
    in the list, -1 where a product leaves them."""
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    return TableGroup(np.array(
        [[index.get(mul(x, y), -1) for y in elements] for x in elements]),
        index[identity], name)


def _additive_group(r):
    return tabulate(range(r.size), lambda x, y: r.add[x][y], 0)


def test_character_group_cyclic4():
    A = _additive_group(make_ring("padic", 2, 2))  # the codes at themselves
    els = range(A.order)
    chars = row_funcs(els, character_group(A))
    assert len(chars) == 4
    assert all(abs(chars[0](e) - 1) < MTOL for e in els)
    assert any(abs(ch(1) - 1j) < MTOL for ch in chars)
    for ch in chars:
        for x in els:
            for y in els:
                assert abs(ch(int(A.right_mul(x, y))) - ch(x) * ch(y)) < MTOL


def test_character_group_klein_and_cyclic6():
    U8 = unit_group(make_ring("padic", 2, 3))  # (Z/8)^* = C2 x C2
    assert U8.codes.tolist() == [1, 3, 5, 7]
    chars = row_funcs(U8.codes.tolist(), character_group(U8))
    assert len(chars) == 4
    for ch in chars:
        assert all(abs(ch(u).imag) < MTOL for u in (1, 3, 5, 7))
    U9 = unit_group(make_ring("padic", 3, 2))  # (Z/9)^* = C6
    chars = row_funcs(U9.codes.tolist(), character_group(U9))
    assert len(chars) == 6
    prim = cmath.exp(2j * cmath.pi / 6)
    assert any(min(abs(ch(u) - prim) for u in U9.codes.tolist()) < MTOL
               for ch in chars)


def test_character_orthogonality():
    for A in (unit_group(make_ring("padic", 3, 2)),
              _additive_group(make_ring("tpoly", 4, 1))):
        n = A.order
        chars = row_funcs(range(n), character_group(A))
        for i, ci in enumerate(chars):
            for j, cj in enumerate(chars):
                s = sum(ci(e) * cj(e).conjugate() for e in range(n)) / n
                assert abs(s - (1.0 if i == j else 0.0)) < TOL


def test_character_group_rejects_nonabelian():
    s3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    A = tabulate(s3, lambda x, y: tuple(x[i] for i in y), (0, 1, 2))
    with pytest.raises(ValueError):
        character_group(A)


def test_abelian_check_is_exact_on_large_lists():
    # C64 x S3 listed so that every sixth element is central: a check that
    # tests only every (n // 64)-th element against the rest sees no clash
    s3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    els = [(c, s) for c in range(64) for s in s3]
    step = len(els) // 64
    assert all(s == s3[0] for _, s in els[::step])
    A = tabulate(
        els, lambda x, y: ((x[0] + y[0]) % 64, tuple(x[1][i] for i in y[1])),
        (0, s3[0]))
    with pytest.raises(ValueError, match="not abelian"):
        character_group(A)
    assert len(character_group(unit_group(make_ring("padic", 3, 5)))[1]) == 162


def test_tuple_right_mul_refuses_non_elements():
    # {1, 3, 5} in (Z/8)^*: 3 * 5 = 7 is not in the list
    A = tabulate([1, 3, 5], lambda x, y: x * y % 8, 1)
    assert A.right_mul([0, 1], 1).tolist() == [1, 0]
    with pytest.raises(ValueError, match="1 products are not group elements"):
        A.right_mul([0, 1, 2], 2)
    with pytest.raises(ValueError, match="not group elements"):
        character_group(A)


def test_repeated_element_refused_under_optimize():
    # the codes that searchsorted reads back must increase, one per
    # element: a repeated code is refused by a _check, which python -O keeps
    code = ("import numpy as np\n"
            "from modrep2.rings import TableGroup\n"
            "try:\n"
            "    TableGroup(np.zeros((3, 3), dtype=int), 0, name='dup',\n"
            "               codes=[1, 3, 3])\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == ("dup: increasing codes, one per element: "
                           "expected 3, computed 2\n")


def test_unit_characters_once_per_ring():
    r = make_ring("padic", 3, 2)
    chars = unit_characters(r)
    assert unit_characters(make_ring("padic", 3, 2)) is chars
    E, L = character_group(unit_group(r))
    assert chars[0] == E and chars[1].tolist() == L.tolist()


def test_twisting_characters():
    r = make_ring("padic", 2, 2)
    tw = row_funcs(r.units, twisting_characters(r))
    assert len(tw) == 2
    assert all(abs(tw[0](u) - 1.0) < MTOL for u in r.units)
    assert abs(tw[1](3) + 1) < MTOL
    r = make_ring("padic", 3, 2)
    tw = row_funcs(r.units, twisting_characters(r))
    assert len(tw) == 3
    assert abs(tw[1](4) - cmath.exp(2j * cmath.pi / 3)) < MTOL
    assert abs(tw[2](4) - cmath.exp(4j * cmath.pi / 3)) < MTOL
    # restrictions to the principal units 1 + 3s, in s order, are pairwise
    # distinct
    assert r.one_plus == (1, 4, 7)
    assert make_ring("tpoly", 4, 3).one_plus == (1, 17, 33, 49)
    rows = {tuple(round(ch(u).real, 6) for u in r.one_plus) +
            tuple(round(ch(u).imag, 6) for u in r.one_plus) for ch in tw}
    assert len(rows) == 3
    with pytest.raises(ValueError):
        twisting_characters(make_ring("padic", 2, 1))
    with pytest.raises(ValueError):
        make_ring("tpoly", 4, 1).one_plus


def test_tpoly_padic_differ_at_level2():
    rp = make_ring("padic", 2, 2)
    rt = make_ring("tpoly", 2, 2)
    assert rp.add[1][1] == 2 and rt.add[1][1] == 0  # char 4 vs char 2
    assert rt.mul[3][3] == 1  # (1+t)^2 = 1 in char 2
    assert rp.mul[3][3] == 1  # 9 = 1 mod 4, same code by coincidence


def test_twisting_characters_missing_pattern_raises_under_optimize():
    # without the unit characters that extend the level-1 pattern 1, the
    # check names the pattern with expected and computed counts
    code = ("from modrep2 import rings\n"
            "r = rings.make_ring('padic', 3, 2)\n"
            "E, L = rings.unit_characters(r)\n"
            "at4 = L[:, r.units.index(4)]  # zeta_3 at 4 = 1 + 3 * 1: out\n"
            "keep = E, L[~rings.same_root(E, at4, 3, 1)]\n"
            "rings.unit_characters = lambda ring: keep\n"
            "try:\n"
            "    rings.twisting_characters(r)\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == ("unit characters extending the level-1 pattern "
                           "1: expected 2, computed 0\n")


def test_twisting_characters_shifted_exponent_raises_under_optimize():
    # one exponent of one unit character shifted by one at the principal
    # unit 4 = 1 + 3 * 1: that row extends no level-1 pattern any more, and
    # the check names its pattern with expected and computed counts
    r = make_ring("padic", 3, 2)
    E, L = unit_characters(r)
    j, t = r.units.index(4), 1
    zh = int(L[t, j]) * 3 // E  # zeta_E^L[t, j] = psi(zh) = zeta_3^zh
    code = ("import numpy as np\n"
            "from modrep2 import rings\n"
            "r = rings.make_ring('padic', 3, 2)\n"
            "E, L = rings.unit_characters(r)\n"
            "bad = L.copy()\n"
            "bad[%d, %d] = (bad[%d, %d] + 1) %% E\n"
            "rings.unit_characters = lambda ring: (E, bad)\n"
            "try:\n"
            "    rings.twisting_characters(r)\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(3)\n" % (t, j, t, j))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stdout == ("unit characters extending the level-1 pattern "
                           "%d: expected 2, computed 1\n" % zh)


def test_character_group_certificate_raises_under_optimize():
    # one corrupted exponent is refused by the certificate, not returned
    code = ("from modrep2 import rings\n"
            "orig = rings._decompose\n"
            "def corrupt(*args):\n"
            "    gens, orders, E, L = orig(*args)\n"
            "    L[2, 3] = (L[2, 3] + 1) % E\n"
            "    return gens, orders, E, L\n"
            "rings._decompose = corrupt\n"
            "try:\n"
            "    rings.character_group(rings.unit_group(\n"
            "        rings.make_ring('padic', 3, 2)))\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    msg = proc.stdout.strip()
    assert msg.startswith("entries of L[t, a g] off L[t, a] + L[t, g] mod E, "
                          "and of L[t, 1] off 0, on units(padic,3,2): "
                          "expected 0, computed ")
    assert int(msg.split()[-1]) > 0


@pytest.mark.parametrize("make", [
    lambda: unit_group(make_ring("padic", 3, 2)),  # E = 6: int8 differences
    lambda: aut_group("padic", 2, (2, 1)).abelianization(),  # two factors
    lambda: unit_group(make_ring("padic", 2, 9)),  # E = 128: int16
], ids=["units-3-2", "abelianization-2-(2,1)", "units-2-9"])
def test_certificate_refuses_one_wrong_entry(make, monkeypatch):
    # one entry of L off by each nonzero shift, at every position of the
    # small groups and at 60 drawn ones of the order-256 group, including
    # the identity's column, is refused by the certificate
    A = make()
    gens, orders, E, L = rings._decompose(A)
    n = A.order
    cells = [(t, a) for t in range(n) for a in range(n)]
    if n > 16:
        rng = np.random.default_rng(7)
        cells = [(int(t), A.identity_pos) for t in rng.integers(1, n, 5)]
        cells += [tuple(x) for x in rng.integers(0, n, (55, 2)).tolist()]
    for t, a in cells:
        for shift in {1, E - 1}:
            bad = L.copy()
            bad[t, a] = (bad[t, a] + shift) % E
            monkeypatch.setattr(rings, "_decompose",
                                lambda A, bad=bad: (gens, orders, E, bad))
            with pytest.raises(AssertionError, match="entries of L"):
                character_group(A)
    monkeypatch.setattr(rings, "_decompose", lambda A: (gens, orders, E, L))
    assert character_group(A)[1] is L


# The brute-force engine that the exponent engine character_group replaced,
# as a reference: _abelian_basis and the object character_group as they
# were, with the removed FiniteGroup.pow and element_order as the functions
# _pow and _order, on the element positions of a TableGroup and the product
# of _table_mul; cosets are sets of elements, each named by its least one.

def _table_mul(A):
    """A's product on positions, read from one right_mul over all pairs."""
    ar = np.arange(A.order)
    T = A.right_mul(ar[:, None], ar[None, :]).tolist()
    return lambda x, y: T[x][y]


def _pow(one, mul, x, k):
    out = one
    for _ in range(k):
        out = mul(out, x)
    return out


def _order(one, mul, x):
    n, y = 1, x
    while y != one:
        y = mul(y, x)
        n += 1
    return n


def _abelian_basis(els, one, mul):
    """Cyclic decomposition [(g, order)] of the abelian group on the elements
    els with identity one, by peeling a maximal-order element."""
    if len(els) == 1:
        return []
    orders = {e: _order(one, mul, e) for e in els}
    m = max(orders.values())
    # deterministic choice: maximal order, then least element
    g = min(e for e in els if orders[e] == m)
    powers = [one]
    for _ in range(m - 1):
        powers.append(mul(powers[-1], g))
    pindex = {e: i for i, e in enumerate(powers)}
    rep = {}
    for e in els:
        if e not in rep:
            coset = [mul(e, p) for p in powers]
            rep.update(dict.fromkeys(coset, min(coset)))
    reps = sorted(set(rep.values()))
    out = [(g, m)]
    for ebar, k in _abelian_basis(reps, rep[one], lambda x, y: rep[mul(x, y)]):
        t = pindex[_pow(one, mul, ebar, k)]
        assert t % k == 0
        e = mul(ebar, _pow(one, mul, g, (-(t // k)) % m))
        assert _order(one, mul, e) == k
        out.append((e, k))
    assert math.prod(k for _, k in out) == len(els)
    return out


def _reference_characters(A):
    """[(exps, values)] for every character, the trivial one first, with
    values by position."""
    mul = _table_mul(A)
    basis = _abelian_basis(list(range(A.order)), A.identity_pos, mul)
    dlog = {A.identity_pos: ()}
    for g, m in basis:
        table = {}
        for e, vec in dlog.items():
            acc = e
            for j in range(m):
                table[acc] = vec + (j,)
                acc = mul(acc, g)
        dlog = table
    assert len(dlog) == A.order
    roots = [[complex(math.cos(2 * math.pi * j / m), math.sin(2 * math.pi * j / m))
              for j in range(m)] for _, m in basis]
    chars = []
    for exps in product(*[range(m) for _, m in basis]):
        values = {}
        for e, vec in dlog.items():
            z = complex(1.0)
            for i, (j, a) in enumerate(zip(vec, exps)):
                z *= roots[i][(j * a) % basis[i][1]]
            values[e] = z
        chars.append((exps, values))
    return chars


def _small_unit_rings():
    out = []
    for backend in BACKENDS:
        for q in range(2, 32 if backend == "padic" else 17):
            try:
                p, f = prime_power(q)
            except ValueError:
                continue
            if backend == "padic" and f != 1:
                continue
            level = 1
            while q ** (level - 1) * (q - 1) <= 256 and q ** level <= 4096:
                out.append(("units", backend, q, level))
                level += 1
    return out


ENGINE_CASES = _small_unit_rings() + [
    (kind, backend, q, lam) for kind in ("abelianization", "torus")
    for backend, q, lam in [
        ("padic", 2, (1, 1)), ("padic", 3, (1, 1)), ("tpoly", 4, (1, 1)),
        ("padic", 2, (2, 1)), ("padic", 3, (2, 1)), ("tpoly", 2, (2, 1)),
        ("padic", 2, (3, 1)), ("padic", 2, (2, 2)), ("padic", 2, (3, 2))]]


def _exponents(vals, E):
    """Exponent k of the E-th root of unity within MTOL of each value."""
    k = np.rint(np.angle(vals) * E / (2 * np.pi)).astype(np.int64) % E
    assert np.abs(vals - np.exp(2j * np.pi * k / E)).max() < MTOL
    return k


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ENGINE_CASES))
def test_engine_matches_reference(case):
    kind, backend, q, arg = case
    if kind == "units":
        A = unit_group(make_ring(backend, q, arg))
    else:
        G = aut_group(backend, q, arg)
        A = G.abelianization() if kind == "abelianization" else G.torus
    orders = rings._decompose(A)[1]
    E, L = character_group(A)
    assert math.prod(orders) == A.order and E == math.lcm(*orders)
    new = roots_of_unity(E)[L]
    ref = _reference_characters(A)
    assert len(new) == len(ref) == A.order
    assert not L[0].any()
    assert np.abs(new[0] - 1).max() < MTOL
    assert all(abs(v - 1) < MTOL for v in ref[0][1].values())
    # the same multiset of value vectors, in element order
    old = np.array([[vals[e] for e in range(A.order)] for _, vals in ref])
    kn, ko = _exponents(new, E), _exponents(old, E)
    sn = np.lexsort(kn.T[::-1])
    so = np.lexsort(ko.T[::-1])
    assert np.array_equal(kn[sn], ko[so])
    assert np.abs(new[sn] - old[so]).max() < MTOL
