"""Primality, factorization, quadratic symbols, and the conic cross-check."""

import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from locfree.numtheory import (
    Place,
    factor,
    hilbert_symbol,
    is_prime,
    jacobi,
    kronecker,
    legendre,
    primes,
    primes_below,
    sqrt_fraction,
    squarefree_part,
    valuation,
)


def sieve(n):
    flags = [False, False] + [True] * (n - 2)
    for i in range(2, n):
        if flags[i]:
            for j in range(i * i, n, i):
                flags[j] = False
    return [i for i in range(n) if flags[i]]


def test_is_prime_matches_sieve():
    marked = set(sieve(20000))
    for n in range(20000):
        assert is_prime(n) == (n in marked)


def test_is_prime_large_strong_pseudoprime_inputs():
    # Carmichael numbers and near-prime semiprimes
    for n in (561, 1105, 1729, 2821, 41041, 10**12 + 39 * (10**6 + 3)):
        assert not is_prime(n) or n in ()
    assert is_prime(10**12 + 39)
    assert not is_prime((10**6 + 3) * (10**6 + 33))


def test_primes_generator_and_bound():
    listed = primes_below(10000)
    assert listed == sieve(10000)
    gen = primes()
    assert [next(gen) for _ in range(len(listed))] == listed


def test_factor_random_roundtrip():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(2, 10**9)
        product = 1
        for p, e in factor(n).factors:
            assert is_prime(p) and e >= 1
            assert n % p**e == 0 and n % p ** (e + 1) != 0
            product *= p**e
        assert product == n


def test_factor_stops_trial_division_at_a_large_prime_cofactor():
    """A prime near 10**12 or above ends trial division at once instead of at
    10**6: 100 factorizations in well under a second, about 2 s before."""
    rng = random.Random(1309)
    large = []
    while len(large) < 50:
        p = rng.randrange(10**12, 10**14) | 1
        if is_prime(p):
            large.append(p)
    cases = [(p, {p: 1}) for p in large]
    for p in large:
        s = rng.choice((2, 3, 5, 7, 11, 13, 97, 999983))
        k = rng.randrange(1, 4)
        cases.append((s**k * p, {s: k, p: 1}))
    start = time.process_time()
    got = [factor(n).factors for n, _ in cases]
    elapsed = time.process_time() - start
    assert got == [tuple(sorted(want.items())) for _, want in cases]
    assert elapsed < 0.5, elapsed


def test_valuation_exactness():
    assert valuation(40, 2) == 3
    assert valuation(40, 5) == 1
    rng = random.Random(2)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 13])
        e = rng.randrange(6)
        m = rng.randrange(1, 1000)
        if m % p == 0:
            m += 1
        assert valuation(m * p**e, p) == e


def test_legendre_against_square_sets():
    for p in sieve(60)[1:]:
        squares = {x * x % p for x in range(1, p)}
        for a in range(-2 * p, 2 * p):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre(a, p) == expected


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 15)


def test_jacobi_is_product_of_legendre_symbols():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(1, 2000) * 2 + 1
        a = rng.randrange(-2000, 2000)
        expected = 1
        if n > 1:
            for p, e in factor(n).factors:
                expected *= legendre(a, p) ** e
        assert jacobi(a, n) == expected


def test_kronecker_extends_jacobi():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(1, 1000) * 2 + 1
        a = rng.randrange(-1000, 1000)
        assert kronecker(a, n) == jacobi(a, n)
    for a in range(-40, 40):
        if a % 2 == 0:
            assert kronecker(a, 2) == 0
        else:
            assert kronecker(a, 2) == (1 if a % 8 in (1, 7) else -1)


def test_place_ordering_and_validation():
    with pytest.raises(ValueError):
        Place.finite(6)
    places = [Place.real(), Place.finite(5), Place.finite(2)]
    assert [str(v) for v in sorted(places, key=lambda v: v.sort_key())] == ["2", "5", "inf"]


def test_hilbert_symbol_pinned_values():
    two, inf = Place.finite(2), Place.real()
    assert hilbert_symbol(-1, -1, two) == -1
    assert hilbert_symbol(-1, -1, inf) == -1
    for p in (3, 5, 7, 11):
        assert hilbert_symbol(-1, -1, Place.finite(p)) == 1
    assert hilbert_symbol(2, 3, Place.finite(3)) == -1
    assert hilbert_symbol(3, 3, Place.finite(3)) == -1
    assert hilbert_symbol(5, 5, Place.finite(5)) == 1
    assert hilbert_symbol(-1, 3, Place.finite(3)) == -1
    assert hilbert_symbol(-1, 5, Place.finite(5)) == 1
    assert hilbert_symbol(Fraction(1, 2), Fraction(1, 3), inf) == 1
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, two)


def test_hilbert_symbol_square_invariance_and_symmetry():
    rng = random.Random(5)
    places = [Place.real()] + [Place.finite(p) for p in (2, 3, 5, 7, 13)]
    for _ in range(300):
        a = rng.choice([n for n in range(-30, 31) if n])
        b = rng.choice([n for n in range(-30, 31) if n])
        s = rng.choice([1, 2, 3, 5])
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * s * s, b, v) == hilbert_symbol(a, b, v)
        assert hilbert_symbol(a, b, v) in (-1, 1)


def test_hilbert_symbol_bimultiplicative():
    rng = random.Random(6)
    places = [Place.real()] + [Place.finite(p) for p in (2, 3, 5, 7)]
    for _ in range(200):
        a = rng.choice([n for n in range(-20, 21) if n])
        b = rng.choice([n for n in range(-20, 21) if n])
        c = rng.choice([n for n in range(-20, 21) if n])
        v = rng.choice(places)
        assert hilbert_symbol(a * b, c, v) == hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)


# --- brute-force conic oracle, independent of the Hilbert symbol formulas ---


@lru_cache(maxsize=64)
def _sqrt_tables(p: int, k: int):
    """For m = p**k: smallest square root of each square mod m, and the smallest
    root that is a unit mod p (-1 when absent)."""
    m = p ** k
    any_root = [-1] * m
    unit_root = [-1] * m
    for z in range(m - 1, -1, -1):
        t = z * z % m
        any_root[t] = z
        if z % p:
            unit_root[t] = z
    return m, any_root, unit_root


def solve_conic_mod(a: int, b: int, p: int, k: int):
    """First primitive solution (x, y, z) of z^2 = a x^2 + b y^2 (mod p^k), or None.

    Primitive means not all of x, y, z divisible by p.  The scan order is
    row-major in (x, y) with the smallest admissible z, so the witness is
    deterministic.  This is a brute-force oracle, independent of the Hilbert
    symbol formulas.
    """
    if not is_prime(p) or k < 1:
        raise ValueError("modulus must be a positive prime power")
    m, any_root, unit_root = _sqrt_tables(p, k)
    a %= m
    b %= m
    for x in range(m):
        ax2 = a * x * x % m
        x_unit = x % p != 0
        for y in range(m):
            t = (ax2 + b * y * y) % m
            if x_unit or y % p:
                z = any_root[t]
                if z >= 0:
                    return (x, y, z)
            else:
                z = unit_root[t]
                if z >= 0:
                    return (x, y, z)
    return None


def hilbert_conic_agrees(a: int, b: int, p: int, k: int) -> bool:
    """Check hilbert_symbol against the conic search at precision p^k."""
    sym = hilbert_symbol(a, b, Place.finite(p))
    sol = solve_conic_mod(a, b, p, k)
    if sol is None:
        return sym == -1
    x, y, z = sol
    assert (z * z - a * x * x - b * y * y) % p ** k == 0
    return sym == 1


def test_solve_conic_mod_returns_valid_primitive_witness():
    for a, b, p in [(2, 3, 5), (-1, -1, 3), (3, 5, 7), (-6, 10, 5)]:
        k = 2
        sol = solve_conic_mod(a, b, p, k)
        if sol is not None:
            x, y, z = sol
            assert (z * z - a * x * x - b * y * y) % p**k == 0
            assert x % p or y % p or z % p


def test_hilbert_conic_agreement_small_grid():
    # strip square factors of p first so precision p^2 decides solvability
    for p in (3, 5, 7):
        for a in range(-10, 11):
            for b in range(-10, 11):
                if a == 0 or b == 0:
                    continue
                va, vb = valuation(abs(a), p), valuation(abs(b), p)
                aa = a // p ** (va - va % 2)
                bb = b // p ** (vb - vb % 2)
                assert hilbert_symbol(a, b, Place.finite(p)) == hilbert_symbol(
                    aa, bb, Place.finite(p)
                )
                k = 1 + (1 if (va % 2 or vb % 2) else 0)
                assert hilbert_conic_agrees(aa, bb, p, k)


def conic_symbol(a: int, b: int, p: int) -> int:
    """(a, b)_p for nonzero integers by the conic search alone.

    Even powers of p are stripped, which changes no square class.  Then a
    primitive solution mod p (mod p^2 if a valuation is odd) decides odd p;
    mod 2^5 is ample at 2, since the stripped valuations are 0 or 1.
    """
    def strip(n):
        v = valuation(n, p)
        return n // p ** (v - v % 2), v % 2

    a, alpha = strip(a)
    b, beta = strip(b)
    k = 5 if p == 2 else 1 + (alpha or beta)
    return 1 if solve_conic_mod(a, b, p, k) is not None else -1


def test_rational_hilbert_symbols_match_the_conic_oracle():
    """(an/ad, bn/bd)_p equals the conic value at (a ad^2, b bd^2) = (an ad, bn bd),
    which lies in the same square classes."""
    rng = random.Random(19)
    primes_used = (2, 3, 5, 7, 11, 13)
    minus = 0
    for _ in range(400):
        an = rng.choice([-1, 1]) * rng.randrange(1, 200)
        bn = rng.choice([-1, 1]) * rng.randrange(1, 200)
        ad, bd = rng.randrange(1, 100), rng.randrange(1, 100)
        p = rng.choice(primes_used)
        a, b = Fraction(an, ad), Fraction(bn, bd)
        sym = hilbert_symbol(a, b, Place.finite(p))
        assert sym == conic_symbol(an * ad, bn * bd, p), (a, b, p)
        minus += sym == -1
    assert minus > 40


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(0)) == 0
    assert sqrt_fraction(Fraction(2)) is None
    assert sqrt_fraction(Fraction(-4)) is None
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randrange(1, 500), rng.randrange(1, 500))
        assert sqrt_fraction(q * q) == q


def test_squarefree_part():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(1, 10**6) * rng.choice([1, -1])
        s, f = squarefree_part(n)
        assert s * f * f == n
        assert all(e == 1 for _, e in factor(abs(s)).factors) or abs(s) == 1
    with pytest.raises(ValueError):
        squarefree_part(0)
