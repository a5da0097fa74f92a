"""Tests for quaternion algebras, their ramification, and matrix reduced norms."""

import random
from fractions import Fraction

import pytest

from locfree.numtheory import Place, factor, hilbert_symbol, legendre, primes_below
from locfree.quatalg import (
    QuaternionAlgebra,
    QuatMatrix,
    b_p_infinity,
    embed_phi_r,
    matrix_nrd,
    ramified_places,
)


def rand_fraction(rng):
    return Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 1, 2, 3]))


def rand_quaternion(alg, rng):
    return alg.quaternion(*(rand_fraction(rng) for _ in range(4)))


# Independent structure-constant multiplication on coordinate 4-tuples,
# used by the regular-representation oracle below.
def qmul_coords(a, b, u, v):
    t1, x1, y1, z1 = u
    t2, x2, y2, z2 = v
    return (
        t1 * t2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
        t1 * x2 + x1 * t2 - b * y1 * z2 + b * y2 * z1,
        t1 * y2 + y1 * t2 + a * x1 * z2 - a * x2 * z1,
        t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2,
    )


def det_fraction(rows):
    """Plain fraction Gaussian elimination, written here to stay independent."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] / m[col][col]
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def left_regular_det(mat):
    """det of left multiplication by mat on the column space B^n over Q.

    Basis: e_s tensor (1, i, j, k), flattened as index 4*s + beta.  Column
    4*s + beta holds the image of that basis vector, i.e. the coordinates of
    mat[r][s] * basis_beta in row block r.
    """
    alg = mat.algebra
    a, b = alg.a, alg.b
    n = mat.n
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    big = [[Fraction(0)] * (4 * n) for _ in range(4 * n)]
    for s in range(n):
        for beta in range(4):
            for r in range(n):
                w = qmul_coords(a, b, mat.entries[r][s].coords, basis[beta])
                for alpha in range(4):
                    big[4 * r + alpha][4 * s + beta] = w[alpha]
    return det_fraction(big)


def test_defining_relations():
    for a, b in [(-1, -1), (-1, -3), (2, 5), (-2, -5), (3, -7)]:
        alg = QuaternionAlgebra(Fraction(a), Fraction(b))
        one, i, j, k = alg.basis()
        assert i * i == alg.quaternion(a)
        assert j * j == alg.quaternion(b)
        assert i * j == k
        assert j * i == -k
        assert k * k == alg.quaternion(-a * b)
        assert i * k == a * j
        assert k * j == b * i
        assert one * i == i and j * one == j


def test_arithmetic_properties():
    rng = random.Random(41)
    algebras = [QuaternionAlgebra(Fraction(-1), Fraction(-1)),
                QuaternionAlgebra(Fraction(-1), Fraction(-3)),
                QuaternionAlgebra(Fraction(2), Fraction(5)),
                QuaternionAlgebra(Fraction(5), Fraction(-2))]
    for _ in range(200):
        alg = rng.choice(algebras)
        x = rand_quaternion(alg, rng)
        y = rand_quaternion(alg, rng)
        z = rand_quaternion(alg, rng)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert (x * y).conj() == y.conj() * x.conj()
        assert x.conj().conj() == x
        assert (x * y).nrd() == x.nrd() * y.nrd()
        assert (x + y).trd() == x.trd() + y.trd()
        assert x * x.conj() == alg.quaternion(x.nrd())
        assert x * x - x.trd() * x + alg.quaternion(x.nrd()) == alg.zero()
        if x.nrd() != 0:
            assert x * x.inverse() == alg.one()
            assert x.inverse() * x == alg.one()


def test_zero_norm_inverse_rejected():
    alg = QuaternionAlgebra(Fraction(1), Fraction(5))
    x = alg.one() + alg.gen_i()  # nrd = 1 - 1 = 0 in a split algebra
    assert x.nrd() == 0
    with pytest.raises(ZeroDivisionError):
        x.inverse()
    with pytest.raises(ValueError):
        QuaternionAlgebra(Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        ramified_places(3, 0)


def test_ramified_places_even_and_match_hilbert():
    rng = random.Random(42)
    places = [Place.finite(p) for p in primes_below(50)] + [Place.real()]
    for _ in range(80):
        a = rng.randrange(-30, 31)
        b = rng.randrange(-30, 31)
        if a == 0 or b == 0:
            continue
        ram = ramified_places(a, b)
        assert len(ram) % 2 == 0
        for v in ram:
            assert hilbert_symbol(a, b, v) == -1
        for v in places:
            assert (v in ram) == (hilbert_symbol(a, b, v) == -1)


# --- the Fraction ramified places, kept as an oracle for the integer code ---


def _fraction_valuation(x: Fraction, p: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _fraction_hilbert_symbol(a: Fraction, b: Fraction, p: int) -> int:
    """(a, b)_p with the units a / p^alpha and b / p^beta built as Fractions."""
    alpha, beta = _fraction_valuation(a, p), _fraction_valuation(b, p)
    u = a / Fraction(p) ** alpha
    w = b / Fraction(p) ** beta
    if p == 2:
        um = u.numerator * u.denominator % 8
        wm = w.numerator * w.denominator % 8
        eps_u, eps_w = (um - 1) // 2 % 2, (wm - 1) // 2 % 2
        om_u, om_w = (um * um - 1) // 8 % 2, (wm * wm - 1) // 8 % 2
        exp = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if exp % 2 else 1
    sym = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        sym = -sym
    if beta % 2:
        sym *= legendre(u.numerator * u.denominator, p)
    if alpha % 2:
        sym *= legendre(w.numerator * w.denominator, p)
    return sym


def _fraction_ramified_places(a, b) -> frozenset:
    a, b = Fraction(a), Fraction(b)
    candidates = {2}
    for q in (a, b):
        for n in (q.numerator, q.denominator):
            for p, _ in factor(n).factors:
                candidates.add(p)
    out = [Place.finite(p) for p in sorted(candidates)
           if _fraction_hilbert_symbol(a, b, p) == -1]
    if a < 0 and b < 0:
        out.append(Place.real())
    return frozenset(out)


def _rand_rational(rng):
    n = rng.choice([-1, 1]) * rng.choice([rng.randrange(1, 60), rng.randrange(1, 10**6)])
    return Fraction(n, rng.choice([1, 1, rng.randrange(1, 60), rng.randrange(1, 10**5)]))


def test_ramified_places_match_the_fraction_oracle():
    rng = random.Random(43)
    sizes = set()
    for _ in range(600):
        a, b = _rand_rational(rng), _rand_rational(rng)
        ram = ramified_places(a, b)
        assert ram == _fraction_ramified_places(a, b), (a, b)
        sizes.add(len(ram))
        for p in (2, 3, 5, 7):
            assert hilbert_symbol(a, b, Place.finite(p)) == _fraction_hilbert_symbol(a, b, p)
    assert {0, 2, 4} <= sizes


def test_ramified_places_spots():
    assert ramified_places(-1, -1) == frozenset({Place.finite(2), Place.real()})
    assert ramified_places(-1, 3) == frozenset({Place.finite(2), Place.finite(3)})
    assert ramified_places(1, 7) == frozenset()
    assert ramified_places(-1, 7) == frozenset({Place.finite(2), Place.finite(7)})
    # denominators shift nothing: symbols only see square classes
    assert ramified_places(Fraction(-1, 4), Fraction(-1, 9)) == ramified_places(-1, -1)


def test_b_p_infinity_small_primes():
    for p in primes_below(50):
        alg = b_p_infinity(p)
        assert alg.ramified == frozenset({Place.finite(p), Place.real()})
        assert alg.is_definite and alg.ramified  # a division algebra
        assert alg.reduced_disc == p
    assert (b_p_infinity(2).a, b_p_infinity(2).b) == (-1, -1)
    assert (b_p_infinity(7).a, b_p_infinity(7).b) == (-1, -7)
    with pytest.raises(ValueError):
        b_p_infinity(10)


def test_matrix_nrd_basic():
    alg = QuaternionAlgebra(Fraction(-1), Fraction(-1))
    for n in (1, 2, 3):
        assert matrix_nrd(QuatMatrix.identity(alg, n)) == 1
    q = alg.quaternion(1, 2, 3, 4)
    m1 = QuatMatrix.from_rows(alg, [[q]])
    assert matrix_nrd(m1) == q.nrd() == 30


def row_op(m, dst, src, factor):
    """Add factor * (row src) to row dst: an elementary transformation."""
    rows = [list(r) for r in m.entries]
    rows[dst] = [rows[dst][c] + factor * rows[src][c] for c in range(m.n)]
    return QuatMatrix(m.algebra, tuple(tuple(r) for r in rows))


def test_matrix_nrd_multiplicative_and_row_ops():
    rng = random.Random(43)
    algebras = [QuaternionAlgebra(Fraction(-1), Fraction(-1)),
                QuaternionAlgebra(Fraction(-2), Fraction(-5)),
                QuaternionAlgebra(Fraction(3), Fraction(5)),
                QuaternionAlgebra(Fraction(4), Fraction(7))]  # square a: split path
    for _ in range(40):
        alg = rng.choice(algebras)
        n = rng.choice([1, 2, 3])
        m1 = QuatMatrix.from_rows(
            alg, [[rand_quaternion(alg, rng) for _ in range(n)] for _ in range(n)])
        m2 = QuatMatrix.from_rows(
            alg, [[rand_quaternion(alg, rng) for _ in range(n)] for _ in range(n)])
        assert matrix_nrd(m1 * m2) == matrix_nrd(m1) * matrix_nrd(m2)
        if n > 1:
            moved = row_op(m1, 0, n - 1, rand_quaternion(alg, rng))
            assert matrix_nrd(moved) == matrix_nrd(m1)


def test_matrix_nrd_against_regular_representation():
    rng = random.Random(44)
    algebras = [QuaternionAlgebra(Fraction(-1), Fraction(-1)),
                QuaternionAlgebra(Fraction(-1), Fraction(-3)),
                QuaternionAlgebra(Fraction(2), Fraction(3)),
                QuaternionAlgebra(Fraction(9), Fraction(5))]
    for _ in range(40):
        alg = rng.choice(algebras)
        n = rng.choice([1, 2, 3])
        m = QuatMatrix.from_rows(
            alg, [[rand_quaternion(alg, rng) for _ in range(n)] for _ in range(n)])
        assert matrix_nrd(m) ** 2 == left_regular_det(m)


def test_matrix_nrd_definite_nonnegative():
    rng = random.Random(45)
    alg = QuaternionAlgebra(Fraction(-1), Fraction(-1))
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        m = QuatMatrix.from_rows(
            alg, [[rand_quaternion(alg, rng) for _ in range(n)] for _ in range(n)])
        assert matrix_nrd(m) >= 0


def test_embed_phi_r():
    rng = random.Random(46)
    alg = QuaternionAlgebra(Fraction(-1), Fraction(-3))
    for _ in range(25):
        n = rng.choice([1, 2])
        r = rng.choice([0, 1, 2])
        x = QuatMatrix.from_rows(
            alg, [[rand_quaternion(alg, rng) for _ in range(n)] for _ in range(n)])
        y = QuatMatrix.from_rows(
            alg, [[rand_quaternion(alg, rng) for _ in range(n)] for _ in range(n)])
        ex, ey = embed_phi_r(x, r), embed_phi_r(y, r)
        assert ex.n == n + r
        assert embed_phi_r(x * y, r) == ex * ey
        assert matrix_nrd(ex) == matrix_nrd(x)
        if r == 0:
            assert ex == x
    with pytest.raises(ValueError):
        embed_phi_r(QuatMatrix.identity(alg, 1), -1)
