"""Integer and rational number theory: factorization, residue symbols, Hilbert symbols.

All routines are deterministic.  Primality testing is a fixed-witness
Miller-Rabin that is provably correct below PRIMALITY_BOUND and refuses to
answer above it; factorization is trial division up to 10**6, cut short
once the cofactor is a certified prime, followed by Brent's rho with a
fixed parameter schedule.  The Hilbert symbol at a finite prime runs on the
four integers an, ad, bn, bd of a = an/ad and b = bn/bd: valuations by
stripping p, unit residues from the products an ad and bn bd; the symbol at
the real place is the sign test.  invariant_factors assembles the chain
d1 | d2 | ... of a finite abelian group from the orders of cyclic factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod

# The witness set (2,3,5,7,11,13,17) is deterministic for n < 3.4e14; we stop
# a little short of the published bound.
PRIMALITY_BOUND = 330_000_000_000_000
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17)
_TRIAL_BOUND = 10 ** 6


def is_prime(n: int) -> bool:
    """Deterministic primality test, valid only below PRIMALITY_BOUND."""
    if n > PRIMALITY_BOUND:
        raise ValueError(f"primality test is only certified below {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes():
    """Ascending primes, by trial division against the primes up to sqrt(n)."""
    found = []
    n, k = 2, 0  # found[:k] are the primes p with p * p <= n
    while True:
        while k < len(found) and found[k] * found[k] <= n:
            k += 1
        if all(n % p for p in found[:k]):
            found.append(n)
            yield n
        n += 1 if n == 2 else 2


def primes_below(bound: int) -> list[int]:
    out = []
    for p in primes():
        if p >= bound:
            return out
        out.append(p)


@dataclass(frozen=True)
class Factorization:
    """Sign and sorted prime factorization of a nonzero integer."""

    value: int
    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        assert self.sign in (-1, 1)
        prod = self.sign
        last = 1
        for p, e in self.factors:
            assert e >= 1 and p > last, "factors must be sorted, exponents positive"
            last = p
            prod *= p ** e
        assert prod == self.value, "factorization must multiply back to the value"

    def radical(self) -> int:
        out = 1
        for p, _ in self.factors:
            out *= p
        return out


def _rho_split(n: int) -> int:
    """A nontrivial factor of composite n, Brent's cycle method, fixed schedule."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ValueError(f"rho schedule exhausted on {n}")  # pragma: no cover


def _large_prime(n: int) -> bool:
    """Whether n is a prime above the trial bound that is_prime can certify."""
    return _TRIAL_BOUND < n <= PRIMALITY_BOUND and is_prime(n)


def factor(n: int) -> Factorization:
    """Factor a nonzero integer into primes."""
    if n == 0:
        raise ValueError("cannot factor zero")
    value = n
    sign = 1 if n > 0 else -1
    n = abs(n)
    fac: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    d = 5
    # a prime cofactor above the trial bound ends the loop at once, not at 10**6
    prime_left = _large_prime(n)
    while not prime_left and d <= _TRIAL_BOUND and d * d <= n:
        for step in (d, d + 2):
            if n % step == 0:
                while n % step == 0:
                    fac[step] = fac.get(step, 0) + 1
                    n //= step
                prime_left = _large_prime(n)
        d += 6
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        g = _rho_split(m)
        stack.extend((g, m // g))
    return Factorization(value, sign, tuple(sorted(fac.items())))


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of Z/n1 x ... x Z/nm, for positive n.

    Split each n into prime powers and sort each prime's powers largest
    first; the j-th largest invariant factor is the product over the primes
    of their j-th largest power.
    """
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        for p, e in factor(n).factors:
            by_prime.setdefault(p, []).append(p ** e)
    chains = [sorted(v, reverse=True) for v in by_prime.values()]
    width = max((len(v) for v in chains), default=0)
    return tuple(prod(v[j] for v in chains if j < len(v))
                 for j in reversed(range(width)))


def _split_power(n: int, p: int) -> tuple[int, int]:
    """(v, m) with n = p**v * m and p not dividing m, for nonzero n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def valuation(x, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    return _split_power(x.numerator, p)[0] - _split_power(x.denominator, p)[0]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError("legendre symbol requires an odd prime modulus")
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r == p - 1 else r


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol requires odd positive modulus")
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), the full multiplicative extension of Legendre."""
    if n == 0:
        raise ValueError("kronecker symbol requires nonzero modulus")
    t = 1
    if n < 0:
        n = -n
        if a < 0:
            t = -t
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 and a % 8 in (3, 5):
            t = -t
    return t * jacobi(a, n)


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime, the real place, or a complex place."""

    kind: str
    prime: int | None = None
    index: int = 0

    def __post_init__(self):
        assert self.kind in ("finite", "real", "complex")
        if self.kind == "finite":
            if self.prime is None or not is_prime(self.prime):
                raise ValueError("finite place requires a prime")
        else:
            assert self.prime is None

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls("finite", p)

    @classmethod
    def real(cls, index: int = 0) -> "Place":
        return cls("real", None, index)

    def __str__(self):
        if self.kind == "finite":
            return str(self.prime)
        return "inf" if self.kind == "real" else "complex"

    def sort_key(self):
        return (0, self.prime) if self.kind == "finite" else (1, self.index)


def finite_hilbert_symbol(an: int, ad: int, bn: int, bd: int, p: int) -> int:
    """(a, b)_p for a = an/ad and b = bn/bd nonzero and p prime, on integers.

    Strip p from each of the four integers; the units of a and b are then
    an ad and bn bd up to squares of p-adic units, so their residues (mod 8
    at 2, Legendre symbols at odd p) come from those products.
    """
    va, an = _split_power(an, p)
    vad, ad = _split_power(ad, p)
    vb, bn = _split_power(bn, p)
    vbd, bd = _split_power(bd, p)
    alpha, beta = va - vad, vb - vbd
    u, w = an * ad, bn * bd
    if p == 2:
        # units mod 8 decide everything at 2
        um, wm = u % 8, w % 8
        eps_u, eps_w = (um - 1) // 2 % 2, (wm - 1) // 2 % 2
        om_u, om_w = (um * um - 1) // 8 % 2, (wm * wm - 1) // 8 % 2
        exp = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if exp % 2 else 1
    half = (p - 1) // 2
    sym = 1
    if alpha % 2 and beta % 2 and half % 2:
        sym = -sym
    if beta % 2 and pow(u % p, half, p) != 1:
        sym = -sym
    if alpha % 2 and pow(w % p, half, p) != 1:
        sym = -sym
    return sym


def hilbert_symbol(a, b, place: Place) -> int:
    """Hilbert symbol (a,b) at a place of Q, for nonzero rational a, b."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if place.kind == "complex":
        return 1
    if place.kind == "real":
        return -1 if a < 0 and b < 0 else 1
    return finite_hilbert_symbol(a.numerator, a.denominator,
                                 b.numerator, b.denominator, place.prime)


def sqrt_fraction(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if not a square."""
    x = Fraction(x)
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def fraction_str(x) -> str:
    """A rational as "n" or "n/d" in lowest terms, as every output prints it."""
    return str(Fraction(x))


def squarefree_part(n: int) -> tuple[int, int]:
    """Write n = s * f**2 with s squarefree; returns (s, f)."""
    if n == 0:
        raise ValueError("zero has no squarefree part")
    s, f = 1 if n > 0 else -1, 1
    for pr, e in factor(n).factors:
        if e % 2:
            s *= pr
        f *= pr ** (e // 2)
    return s, f
