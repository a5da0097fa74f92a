"""Arithmetic the benchmark checks locfree against, written apart from it.

Nothing here imports locfree.  Each function is the plainest exact method
for its quantity: a sieve instead of a primality test, Euler's criterion
instead of reciprocity, Dirichlet's character sum instead of reduced-form
counting, quaternion products written out coordinate by coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

INF = 0  # the real place, in sets of ramified places


# --- primes and characters ---------------------------------------------------


def sieve(n: int) -> list[int]:
    """All primes below n, by the sieve of Eratosthenes."""
    if n < 3:
        return []
    flags = bytearray([1]) * n
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n, p)))
    return [i for i, f in enumerate(flags) if f]


def prime_divisors(n: int) -> list[int]:
    """Distinct primes dividing n != 0, by trial division."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def legendre(a: int, p: int) -> int:
    """(a/p) for an odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), multiplied out over the factorization of n."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    value = -1 if n < 0 and a < 0 else 1
    n = abs(n)
    for p in prime_divisors(n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if p == 2:
            chi = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
        else:
            chi = legendre(a, p)
        value *= chi ** e
    return value


def eichler_class_number(p: int) -> int:
    """h of a maximal order in B(p, inf): Eichler's mass plus the correction
    terms for the units of Z[zeta_3] and Z[i]."""
    h = (Fraction(p - 1, 12) + Fraction(1 - kronecker(-3, p), 3)
         + Fraction(1 - kronecker(-4, p), 4))
    if h.denominator != 1:
        raise ArithmeticError(f"Eichler's formula is not integral at {p}")
    return int(h)


def is_fundamental(D: int) -> bool:
    if D in (0, 1):
        return False
    if D % 4 == 1:
        m = D
    elif D % 4 == 0 and (D // 4) % 4 in (2, 3):
        m = D // 4
    else:
        return False
    return all(m % (q * q) for q in prime_divisors(m))


def dirichlet_class_number(D: int) -> int:
    """h(D) = -(1/|D|) sum_{0<a<|D|} chi_D(a) a, fundamental D < -4.

    chi_D is tabulated once by its values at primes (Euler's criterion, and
    D mod 8 at 2) and extended multiplicatively along smallest prime factors.
    """
    if D >= -4 or not is_fundamental(D):
        raise ValueError(f"Dirichlet's formula needs a fundamental D < -4, got {D}")
    n = -D
    spf = list(range(n))
    for p in range(2, isqrt(n - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, n, p):
                if spf[m] == m:
                    spf[m] = p
    chi = [0] * n
    if n > 1:
        chi[1] = 1
    total = 1 if n > 1 else 0
    for a in range(2, n):
        p = spf[a]
        if p == a:
            if n % p == 0:
                c = 0
            elif p == 2:
                c = 1 if D % 8 == 1 else -1
            else:
                c = legendre(D, p)
        else:
            c = chi[p] * chi[a // p]
        chi[a] = c
        total += c * a
    h = Fraction(-total, n)
    if h.denominator != 1 or h <= 0:
        raise ArithmeticError(f"Dirichlet's sum is not a positive integer at {D}")
    return int(h)


# --- binary quadratic forms --------------------------------------------------


def is_reduced_form(f, D: int) -> bool:
    """Reduced in the sense locfree documents: |b| <= a <= c with b >= 0 on
    the boundary for D < 0; |sqrt D - 2|a|| < b < sqrt D for D > 0."""
    a, b, c = f
    if D < 0:
        return 0 < a and abs(b) <= a <= c and not (b < 0 and (-b == a or a == c))
    if b <= 0 or b * b >= D:
        return False
    # |sqrt D - 2|a|| < b, squared exactly on both sides of the sign split
    t = 2 * abs(a)
    return (t - b) ** 2 < D if t * t >= D else (b + t) ** 2 > D


# --- genus theory ------------------------------------------------------------


def two_rank(D: int) -> int:
    """2-rank of the class group (D < 0) or narrow class group (D > 0)."""
    return len(prime_divisors(D)) - 1


# --- quaternion algebras (a, b | Q) -----------------------------------------


def _split_power(x: Fraction, p: int) -> tuple[int, Fraction]:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def hilbert(a, b, p: int) -> int:
    """Hilbert symbol (a, b)_p of nonzero rationals; p = INF is the real place."""
    a, b = Fraction(a), Fraction(b)
    if p == INF:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split_power(a, p)
    beta, v = _split_power(b, p)
    u_int = u.numerator * u.denominator  # same square class as u
    v_int = v.numerator * v.denominator
    if p == 2:
        eps = lambda x: ((x - 1) // 2) % 2
        omega = lambda x: ((x * x - 1) // 8) % 2
        um, vm = u_int % 8, v_int % 8
        e = eps(um) * eps(vm) + alpha * omega(vm) + beta * omega(um)
        return -1 if e % 2 else 1
    sign = (-1) ** (alpha * beta * ((p - 1) // 2))
    return sign * legendre(u_int, p) ** (beta % 2) * legendre(v_int, p) ** (alpha % 2)


def ramified(a, b) -> frozenset[int]:
    """Primes (and INF) where (a, b | Q) ramifies."""
    a, b = Fraction(a), Fraction(b)
    cands = {2}
    for x in (a, b):
        cands.update(prime_divisors(x.numerator))
        cands.update(prime_divisors(x.denominator))
    out = {p for p in cands if hilbert(a, b, p) == -1}
    if hilbert(a, b, INF) == -1:
        out.add(INF)
    return frozenset(out)


def qmul(a, b, x, y) -> tuple:
    """Product in (a, b | Q), i^2 = a, j^2 = b, ij = -ji = k, coordinates (1, i, j, k)."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def conj(x) -> tuple:
    return (x[0], -x[1], -x[2], -x[3])


def trd(x) -> Fraction:
    return 2 * Fraction(x[0])


# --- exact rational linear algebra -------------------------------------------


def det(m) -> Fraction:
    m = [[Fraction(x) for x in row] for row in m]
    n, out = len(m), Fraction(1)
    for c in range(n):
        r = next((r for r in range(c, n) if m[r][c]), None)
        if r is None:
            return Fraction(0)
        if r != c:
            m[c], m[r] = m[r], m[c]
            out = -out
        out *= m[c][c]
        for s in range(c + 1, n):
            f = m[s][c] / m[c][c]
            m[s] = [x - f * y for x, y in zip(m[s], m[c])]
    return out


def inverse(m) -> list[list[Fraction]]:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        r = next((r for r in range(c, n) if aug[r][c]), None)
        if r is None:
            raise ZeroDivisionError("basis is not linearly independent")
        aug[c], aug[r] = aug[r], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for s in range(n):
            if s != c and aug[s][c]:
                f = aug[s][c]
                aug[s] = [x - f * y for x, y in zip(aug[s], aug[c])]
    return [row[n:] for row in aug]


def in_lattice(binv, v) -> bool:
    """Whether v has integer coordinates in the basis whose inverse is binv."""
    return all(sum(v[i] * binv[i][j] for i in range(len(v))).denominator == 1
               for j in range(len(binv[0])))


# --- orders and their ideals -------------------------------------------------


def order_faults(a, b, basis) -> list[str]:
    """Why a basis fails to span a maximal order of (a, b | Q); [] if it does.

    Checks 1 in the lattice, closure under multiplication, and
    |det trd(e_i e_j)| = d^2 for d the product of the finite ramified primes.
    """
    a, b = Fraction(a), Fraction(b)
    basis = [tuple(Fraction(x) for x in row) for row in basis]
    try:
        binv = inverse(basis)
    except ZeroDivisionError:
        return ["basis is singular"]
    faults = []
    if not in_lattice(binv, (1, 0, 0, 0)):
        faults.append("1 is not in the lattice")
    if not all(in_lattice(binv, qmul(a, b, x, y)) for x in basis for y in basis):
        faults.append("lattice is not closed under multiplication")
    d = 1
    for p in ramified(a, b) - {INF}:
        d *= p
    gram_det = det([[trd(qmul(a, b, x, y)) for y in basis] for x in basis])
    if abs(gram_det) != d * d:
        faults.append(f"|det trd(e_i e_j)| = {abs(gram_det)}, expected {d * d}")
    return faults


def unit_count(a, b, ideal_basis, ideal_nrd) -> int:
    """|O_L(I)^x| for a right ideal I of a definite algebra, by direct search.

    O_L(I) = I conj(I) / nrd(I) is spanned by the 16 products of basis
    elements, so its coordinates lie in (1/den) Z for den the common
    denominator of those products.  A unit x = (T, X, Y, Z)/den has
    T^2 - a X^2 - b Y^2 + ab Z^2 = den^2; every such point in that box is
    tested for x I inside I.
    """
    a, b = Fraction(a), Fraction(b)
    if a.denominator != 1 or b.denominator != 1 or a >= 0 or b >= 0:
        raise ValueError("unit search needs a definite algebra with integral a, b")
    A, B = -int(a), -int(b)
    basis = [tuple(Fraction(x) for x in row) for row in ideal_basis]
    binv = inverse(basis)
    den = lcm(*((c / ideal_nrd).denominator
                for x in basis for y in basis for c in qmul(a, b, x, conj(y))))
    n2 = den * den
    count = 0
    for Z in range(-isqrt(n2 // (A * B)), isqrt(n2 // (A * B)) + 1):
        r3 = n2 - A * B * Z * Z
        for Y in range(-isqrt(r3 // B), isqrt(r3 // B) + 1):
            r2 = r3 - B * Y * Y
            for X in range(-isqrt(r2 // A), isqrt(r2 // A) + 1):
                r1 = r2 - A * X * X
                T = isqrt(r1)
                if T * T != r1:
                    continue
                for t in {T, -T}:
                    x = (Fraction(t, den), Fraction(X, den), Fraction(Y, den), Fraction(Z, den))
                    if all(in_lattice(binv, qmul(a, b, x, e)) for e in basis):
                        count += 1
    return count


def _rho(f, D: int, s: int):
    """Next form in the cycle of a reduced indefinite form (s = isqrt(D))."""
    a, b, c = f
    m = 2 * abs(c)
    b2 = s - (s + b) % m
    return (c, b2, (b2 * b2 - D) // (4 * c))


def reduced_cycles(D: int) -> dict[tuple, int]:
    """{reduced form: cycle number} for D > 0 non-square.

    Cycles of reduced forms under rho are the proper (narrow) classes, so
    the number of cycles is h+(D).
    """
    s = isqrt(D)
    forms = []
    for b in range(1, s + 1):
        if (D - b * b) % 4:
            continue
        n = (D - b * b) // 4
        for d in range(1, isqrt(n) + 1):
            if n % d:
                continue
            for a in {d, n // d}:
                for f in ((a, b, -n // a), (-a, b, n // a)):
                    if is_reduced_form(f, D):
                        forms.append(f)
    cycle: dict[tuple, int] = {}
    for f in forms:
        if f in cycle:
            continue
        k = len(set(cycle.values()))
        g = f
        while g not in cycle:
            cycle[g] = k
            g = _rho(g, D, s)
    return cycle


def same_lattice(basis1, basis2) -> bool:
    basis1 = [tuple(Fraction(x) for x in row) for row in basis1]
    basis2 = [tuple(Fraction(x) for x in row) for row in basis2]
    inv1, inv2 = inverse(basis1), inverse(basis2)
    return all(in_lattice(inv1, v) for v in basis2) and all(in_lattice(inv2, v) for v in basis1)


def right_ideal_faults(a, b, ideal_basis, order_basis, ideal_nrd) -> list[str]:
    """Why a lattice fails to be a right ideal of reduced norm ideal_nrd of
    the order; [] if it is one.  [O : I] = nrd(I)^2 for an ideal of a
    maximal order, read off as a ratio of determinants."""
    a, b = Fraction(a), Fraction(b)
    ideal = [tuple(Fraction(x) for x in row) for row in ideal_basis]
    order = [tuple(Fraction(x) for x in row) for row in order_basis]
    faults = []
    inv = inverse(ideal)
    if not all(in_lattice(inv, qmul(a, b, x, y)) for x in ideal for y in order):
        faults.append("lattice is not closed under right multiplication by the order")
    if abs(det(ideal) / det(order)) != Fraction(ideal_nrd) ** 2:
        faults.append(f"index is not nrd^2 = {Fraction(ideal_nrd) ** 2}")
    return faults
