"""Tests for lattices with order actions: short vectors, ideals, class sets."""

import itertools
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locfree import latorder
from locfree.latorder import (
    GramMatrix,
    _closed_form_generators,
    _radical,
    _saturated_order,
    _theta_key,
    QuatOrder,
    RightIdeal,
    class_set,
    eichler_class_number,
    ideal_mul,
    isomorphic_ideals,
    maximal_order,
    reduce_ideal,
    right_ideals_of_norm,
    short_vectors,
)
from locfree.linalg import Lattice
from locfree.numtheory import Place, kronecker, primes_below
from locfree.quatalg import Quaternion, QuaternionAlgebra, b_p_infinity


# --- independent helpers: fraction linear algebra and structure constants ---


def quat_mul(a, b, u, v):
    t1, x1, y1, z1 = u
    t2, x2, y2, z2 = v
    return (
        t1 * t2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
        t1 * x2 + x1 * t2 - b * y1 * z2 + b * y2 * z1,
        t1 * y2 + y1 * t2 + a * x1 * z2 - a * x2 * z1,
        t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2,
    )


def quat_nrd(a, b, v):
    t, x, y, z = v
    return t * t - a * x * x - b * y * y + a * b * z * z


def inv_mat(rows):
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [r[n:] for r in m]


def vec_times(v, rows):
    n = len(rows)
    return tuple(sum(v[i] * rows[i][j] for i in range(n)) for j in range(n))


def in_span(v, rows_inv):
    return all(c.denominator == 1 for c in vec_times(v, rows_inv))


def hnf_sublattices(index):
    """All rank-4 integer HNF row matrices of determinant `index`.

    Upper triangular, positive diagonal, and entries above a pivot reduced
    modulo it; one matrix per sublattice of Z^4 of that index.
    """
    diags = []
    for d in itertools.product(*(tuple(k for k in range(1, index + 1)
                                       if index % k == 0) for _ in range(4))):
        if d[0] * d[1] * d[2] * d[3] == index:
            diags.append(d)
    for d in diags:
        ranges = []
        for i in range(4):
            for j in range(4):
                if i < j:
                    ranges.append(range(d[j]))
        for above in itertools.product(*ranges):
            h = [[0] * 4 for _ in range(4)]
            pos = 0
            for i in range(4):
                h[i][i] = d[i]
                for j in range(i + 1, 4):
                    h[i][j] = above[pos + (j - i - 1)]
                pos += 3 - i
            yield h


def basis_quaternions(i):
    return [i.order.algebra.quaternion(*r) for r in i.lattice.basis()]


def rational_gram(entries):
    """The GramMatrix with these rational entries, over their common denominator."""
    den = lcm(*(Fraction(x).denominator for r in entries for x in r))
    return GramMatrix(tuple(tuple(int(x * den) for x in r) for r in entries), den)


def _box_norm(g, v):
    """v G v^T, evaluated entry by entry."""
    n = len(v)
    return sum(g[i][j] * v[i] * v[j] for i in range(n) for j in range(n))


def test_short_vectors_against_box_enumeration():
    rng = random.Random(51)
    cases = []
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        m = rng.choice([1, 2, 3])
        a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        # A^T A + m I: positive definite with v G v^T >= m |v|^2
        g = [[Fraction(sum(a[k][i] * a[k][j] for k in range(n))
                       + (m if i == j else 0)) for j in range(n)]
             for i in range(n)]
        cases.append((g, m, rng.randrange(1, 20)))
    # forms with halves, so the numerators are twice the values: the norm
    # form of the Hurwitz order (least eigenvalue 1 - sqrt(3)/2 > 1/8) and
    # the D_4 root lattice scaled by 3/2 (least eigenvalue 3 - 3 sqrt(3)/2 > 1/4)
    hurwitz = [[1, 0, 0, Fraction(1, 2)], [0, 1, 0, Fraction(1, 2)],
               [0, 0, 1, Fraction(1, 2)], [Fraction(1, 2)] * 3 + [1]]
    d4 = [[3, Fraction(-3, 2), 0, 0], [Fraction(-3, 2), 3, Fraction(-3, 2), Fraction(-3, 2)],
          [0, Fraction(-3, 2), 3, 0], [0, Fraction(-3, 2), 0, 3]]
    cases += [(hurwitz, Fraction(1, 8), b) for b in (1, 2, 3)]
    cases += [(d4, Fraction(1, 4), b) for b in (3, Fraction(9, 2), 7)]
    for g, m, bound in cases:
        n = len(g)
        gram = rational_gram(g)
        got = short_vectors(gram, bound)
        r = isqrt(int(bound / m))
        expected = sorted(
            v for v in itertools.product(range(-r, r + 1), repeat=n)
            if any(v) and _box_norm(g, v) <= bound)
        assert sorted(v for _, v in got) == expected
        assert all(Fraction(num, gram.den) == _box_norm(g, v) for num, v in got)


def _fraction_short_vectors(g, bound):
    """The Fincke-Pohst descent on Fractions that short_vectors replaced.

    G = U^T diag(d) U by its own LDL; at each level x runs over the integers
    with d (x + center)^2 <= remaining, found by exact floor(f + sqrt(r)).
    """
    n = len(g)
    d = [Fraction(0)] * n
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        d[i] = g[i][i] - sum(d[k] * u[k][i] ** 2 for k in range(i))
        for j in range(i + 1, n):
            u[i][j] = (g[i][j] - sum(d[k] * u[k][i] * u[k][j]
                                     for k in range(i))) / d[i]

    def floor_shifted_sqrt(f, r):
        m = f.numerator // f.denominator + isqrt(r.numerator // r.denominator) + 1
        while m - f > 0 and (m - f) ** 2 > r:
            m -= 1
        return m

    out, coords = [], [0] * n

    def descend(level, remaining):
        if level < 0:
            if any(coords):
                out.append(tuple(coords))
            return
        center = sum(u[level][j] * coords[j] for j in range(level + 1, n))
        r2 = remaining / d[level]
        for x in range(-floor_shifted_sqrt(center, r2),
                       floor_shifted_sqrt(-center, r2) + 1):
            coords[level] = x
            descend(level - 1, remaining - d[level] * (x + center) ** 2)
        coords[level] = 0

    descend(n - 1, Fraction(bound))
    return out


def test_short_vectors_rational_grams_against_box_and_fraction_descent():
    rng = random.Random(53)
    for trial in range(60):
        n = 1 + trial % 4
        den = rng.randrange(2, 7)
        m = rng.randrange(1, 4)
        a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        w = [Fraction(rng.randrange(1, 5), rng.randrange(2, 7)) for _ in range(n)]
        # A^T diag(w) A + (m/den) I: rational, with v G v^T >= (m/den) |v|^2
        g = [[sum(w[k] * a[k][i] * a[k][j] for k in range(n))
              + Fraction(m if i == j else 0, den) for j in range(n)]
             for i in range(n)]
        gram = rational_gram(g)
        bound = (Fraction(0) if trial % 10 == 0
                 else Fraction(rng.randrange(1, 25), rng.randrange(1, 7)))
        got = short_vectors(gram, bound)
        assert [v for _, v in got] == _fraction_short_vectors(g, bound)
        scale = lcm(*(x.denominator for row in g for x in row))
        gi = [[int(x * scale) for x in row] for row in g]
        r = isqrt(int(bound * den / m))
        expected = sorted(
            v for v in itertools.product(range(-r, r + 1), repeat=n)
            if any(v) and _box_norm(gi, v) <= bound * scale)
        assert sorted(v for _, v in got) == expected
        assert all(num * scale == _box_norm(gi, v) * gram.den for num, v in got)


def _int_det(m):
    """Determinant by Fraction elimination, for the LLL checks."""
    m = [[Fraction(x) for x in r] for r in m]
    n, det = len(m), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def _assert_lll_reduced(a, reduction):
    """h a h^T is size-reduced and Lovasz with delta = 3/4, by its own
    Fraction Gram-Schmidt, and d, lam are its minors and scaled mu."""
    h, d, lam = reduction
    n = len(a)
    assert abs(_int_det(h)) == 1
    r = [[Fraction(sum(h[i][s] * a[s][t] * h[j][t]
                       for s in range(n) for t in range(n)))
          for j in range(n)] for i in range(n)]
    b = [Fraction(0)] * n
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            mu[i][j] = (r[i][j] - sum(mu[j][k] * mu[i][k] * b[k]
                                      for k in range(j))) / b[j]
        b[i] = r[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i))
    minor = Fraction(1)
    for i in range(n):
        minor *= b[i]
        assert d[i + 1] == minor
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2)
            assert lam[i][j] == d[j + 1] * mu[i][j]
        if i:
            assert b[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * b[i - 1]


@st.composite
def skewed_grams(draw):
    """(G, U, U^-1, bound): G = A^T A + m I, U unimodular with entries up to 1000."""
    n = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    m = draw(st.integers(1, 3))
    g = [[sum(a[k][i] * a[k][j] for k in range(n)) + (m if i == j else 0)
          for j in range(n)] for i in range(n)]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [list(r) for r in u]
    for _ in range(draw(st.integers(2, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-40, 40))
        if i == j:
            u[i] = [-x for x in u[i]]
            for r in uinv:
                r[i] = -r[i]
            continue
        row = [x + c * y for x, y in zip(u[i], u[j])]
        if max(map(abs, row)) > 1000:
            continue  # the Fraction descent on U G U^T slows down past here
        # U <- (1 + c e_ij) U, so U^-1 <- U^-1 (1 - c e_ij)
        u[i] = row
        for r in uinv:
            r[j] -= c * r[i]
    return g, u, uinv, draw(st.integers(0, 12))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=skewed_grams())
def test_lll_and_short_vectors_on_skewed_grams(case):
    g, u, uinv, bound = case
    n = len(g)
    skewed = [[sum(u[i][s] * g[s][t] * u[j][t] for s in range(n) for t in range(n))
               for j in range(n)] for i in range(n)]
    _assert_lll_reduced(skewed, latorder._lll(skewed))
    gram = rational_gram(skewed)
    got = short_vectors(gram, bound)
    assert [v for _, v in got] == _fraction_short_vectors(
        [[Fraction(x) for x in r] for r in skewed], bound)
    # w G w^T <= bound with w = v U, so v = w U^-1; G >= m I bounds the box
    r = isqrt(bound)
    box = {vec_times(w, uinv): _box_norm(g, w)
           for w in itertools.product(range(-r, r + 1), repeat=n)
           if any(w) and _box_norm(g, w) <= bound}
    assert {v: Fraction(num, gram.den) for num, v in got} == box


def test_short_vectors_rejects_indefinite():
    for g in (((1, 0), (0, -1)), ((1, 1), (1, 1)), ((2, 1, 0), (1, 1, 1), (0, 1, 1))):
        with pytest.raises(ValueError):
            short_vectors(rational_gram(g), 4)


# integral and rational (a, b), so that every structure constant differs
KERNEL_ALGEBRAS = [QuaternionAlgebra(Fraction(a), Fraction(b)) for a, b in (
    (-1, -1), (-1, -3), (Fraction(-1, 2), -3), (Fraction(-3, 4), Fraction(5, 2)),
    (2, -5))]


def test_nrd_gram_matches_structure_constants():
    rng = random.Random(52)
    for alg in KERNEL_ALGEBRAS:
        for den, scale in ((1, 1), (2, 3), (3, Fraction(1, 2)), (6, Fraction(10, 9))):
            rows = [tuple(rng.randrange(-3, 4) for _ in range(4)) for _ in range(4)]
            gram = GramMatrix.from_nrd(alg, rows, den, scale)
            assert gcd(gram.den, *(x for r in gram.ints for x in r)) == 1
            for _ in range(30):
                c = [rng.randrange(-4, 5) for _ in range(4)]
                combo = tuple(Fraction(sum(c[i] * rows[i][j] for i in range(4)), den)
                              for j in range(4))
                assert (Fraction(gram.numerator(c), gram.den)
                        == quat_nrd(alg.a, alg.b, combo) / scale)


def test_integer_products_match_quaternion_mul():
    rng = random.Random(58)
    for alg in KERNEL_ALGEBRAS:
        for _ in range(20):
            du, dv = rng.randrange(1, 7), rng.randrange(1, 7)
            us = [tuple(rng.randrange(-9, 10) for _ in range(4)) for _ in range(3)]
            vs = [tuple(rng.randrange(-9, 10) for _ in range(4)) for _ in range(2)]
            den, rows = latorder._mul_rows(alg, du, us, dv, vs)
            expected = [alg.quaternion(*(Fraction(x, du) for x in u))
                        * alg.quaternion(*(Fraction(x, dv) for x in v))
                        for u in us for v in vs]
            assert len(rows) == len(expected)
            for row, q in zip(rows, expected):
                assert all(isinstance(x, int) for x in row)
                assert tuple(Fraction(x, den) for x in row) == q.coords


def test_class_set_makes_no_fraction_quaternion_products(monkeypatch):
    """Orders, ideals and the neighbor search multiply on integer rows, and
    the search's work at p = 101 is pinned.

    Every norm the search compares comes with its vector from short_vectors,
    so the only numerator calls left are the zero-divisor scans: 8 scans of
    the 15 projective points of O/2O.
    """
    calls, vectors, numerators = [], [], []
    original = Quaternion.__mul__
    enumerate_ = latorder.short_vectors
    numerator = GramMatrix.numerator

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    def counting_vectors(gram, bound):
        out = enumerate_(gram, bound)
        vectors.append(len(out))
        return out

    def counting_numerator(self, v):
        numerators.append(1)
        return numerator(self, v)

    monkeypatch.setattr(Quaternion, "__mul__", counting)
    monkeypatch.setattr(latorder, "short_vectors", counting_vectors)
    monkeypatch.setattr(GramMatrix, "numerator", counting_numerator)
    assert len(class_set(maximal_order(b_p_infinity(101)))) == 9
    assert calls == []
    assert (len(vectors), sum(vectors)) == (71, 1358)
    assert len(numerators) == 8 * 15


def test_hurwitz_order():
    o = maximal_order(b_p_infinity(2))
    assert o.reduced_disc == 2
    assert o.is_maximal
    assert o.contains(o.algebra.quaternion(Fraction(1, 2), Fraction(1, 2),
                                           Fraction(1, 2), Fraction(1, 2)))
    assert o.unit_group_order() == 24


def test_unit_counts_against_coefficient_box():
    # nrd = 1 forces each quaternion coordinate into [-1, 1] for definite
    # algebras with |a|, |b| >= 1, so the basis coefficients are bounded by
    # the column sums of the inverse basis matrix.
    for p in (2, 3, 5, 7, 13):
        o = maximal_order(b_p_infinity(p))
        a, b = o.algebra.a, o.algebra.b
        basis = [list(r) for r in o.lattice.basis()]
        binv = inv_mat(basis)
        radii = [int(sum(abs(binv[j][i]) for j in range(4))) for i in range(4)]
        count = 0
        for c in itertools.product(*(range(-r, r + 1) for r in radii)):
            v = vec_times([Fraction(x) for x in c], basis)
            if quat_nrd(a, b, v) == 1:
                count += 1
        assert count == o.unit_group_order() == 24 // (p - 1)


def _right_stable_sublattices(o, index):
    a, b = o.algebra.a, o.algebra.b
    basis = [list(r) for r in o.lattice.basis()]
    gens = [tuple(r) for r in basis]
    stable = []
    for h in hnf_sublattices(index):
        rows = [vec_times([Fraction(x) for x in hr], basis) for hr in h]
        rows_inv = inv_mat(rows)
        ok = True
        for r in rows:
            for e in gens:
                if not in_span(quat_mul(a, b, r, e), rows_inv):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            stable.append(Lattice(rows))
    return stable


def test_right_ideals_of_norm_against_sublattice_enumeration():
    for p, q in ((2, 3), (3, 2)):
        o = maximal_order(b_p_infinity(p))
        stable = _right_stable_sublattices(o, q * q)
        ids = right_ideals_of_norm(o, q)
        assert len(ids) == q + 1
        assert len(stable) == q + 1
        assert {lat.key() for lat in stable} == {i.lattice.key() for i in ids}
        for i in ids:
            assert i.nrd == q and i.is_integral()


def _all_tuples_norm_q_lattices(o, q):
    """The norm-q scan that the projective zero-divisor scan replaced.

    Every nonzero c in (Z/q)^4 with nrd(sum c_s b_s) = 0 (mod q) gives
    xO + qO; the lattices of index q^2 in O are the norm-q ideals.
    """
    base = o.lattice
    gram = o.nrd_gram()
    target_covol = base.covolume() * q * q
    seen = set()
    for c in itertools.product(range(q), repeat=4):
        if not any(c) or Fraction(gram.numerator(c), gram.den) % q:
            continue
        den, rows = latorder._mul_rows(o.algebra, base.den,
                                       [latorder._combine(c, base.rows)],
                                       base.den, base.rows)
        s = q * (den // base.den)
        lat = Lattice.from_ints(den, rows + [[s * x for x in r] for r in base.rows])
        if lat.covolume() == target_covol:
            seen.add(lat)
    return seen


def test_projective_scan_matches_all_tuples():
    for p in (2, 11, 37):
        o = maximal_order(b_p_infinity(p))
        for q in (5, 7, 11):
            if o.reduced_disc % q == 0:
                continue
            ids = right_ideals_of_norm(o, q)
            assert {i.lattice for i in ids} == _all_tuples_norm_q_lattices(o, q)


def test_norm_q_scan_builds_one_lattice_per_projective_zero_divisor(monkeypatch):
    # O/qO = M_2(F_q) has (q + 1)^2 projective zero divisors, against
    # (q + 1)^2 (q - 1) nonzero ones in a scan of every tuple
    o = maximal_order(b_p_infinity(2))
    calls = []
    original = Lattice.from_ints

    def counting(cls, den, rows):
        calls.append(1)
        return original(den, rows)

    monkeypatch.setattr(Lattice, "from_ints", classmethod(counting))
    assert len(right_ideals_of_norm(o, 13)) == 14
    assert len(calls) == 14 ** 2


def test_ramified_norm_is_unique_and_rejected():
    o = maximal_order(b_p_infinity(2))
    # at the ramified prime the only index-4 right-stable lattice is the
    # radical, so no projective line of ideals exists there
    assert len(_right_stable_sublattices(o, 4)) == 1
    with pytest.raises(ValueError):
        right_ideals_of_norm(o, 2)


def test_maximality_certificate():
    # Any strictly larger order would contain O + (v/q) Z for some q dividing
    # the (full) discriminant; only q = p can occur here, so scanning the
    # (p^4 - 1)/(p - 1) lines certifies maximality.
    for p in (2, 3, 5, 11):
        o = maximal_order(b_p_infinity(p))
        assert o.reduced_disc == p
        assert not _closed_superlattice_lines(o, p)


def _fraction_closed_form_generators(b: QuaternionAlgebra):
    """The closed-form table as Fraction generators (Pizer 1980), or None."""
    if b.a.denominator != 1 or b.b.denominator != 1:
        return None
    a, p = int(b.a), -int(b.b)
    h, f = Fraction(1, 2), Fraction(1, 4)
    if a == -1 and p == 1:
        return [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (h, h, h, h)]
    if a == -1 and p % 4 == 3:
        return [(1, 0, 0, 0), (0, 1, 0, 0), (h, 0, h, 0), (0, h, 0, h)]
    if a == -2 and p % 8 == 5:
        return [(1, 0, 0, 0), (h, 0, h, h), (0, f, h, f), (0, 0, 0, 1)]
    q = -a
    if p % 8 == 1 and q % 4 == 3 and pow(p, (q - 1) // 2, q) == q - 1:
        c = next(c for c in range(q) if (c * c * p + 1) % q == 0)
        return [(1, 0, 0, 0), (h, h, 0, 0), (0, 0, h, h),
                (0, Fraction(1, q), 0, Fraction(c, q)), (0, 0, 0, 1)]
    return None


def test_closed_forms_match_the_fraction_table_below_5000():
    """For every prime p < 5000, the integer rows span the lattice of the
    Fraction table, maximal_order returns it, and B(p,inf) ramifies exactly
    at {p, inf}; the integer 12 h agrees with the Fraction formula."""
    for p in primes_below(5000):
        b = b_p_infinity(p)
        assert b.ramified == {Place.finite(p), Place.real()}
        gens = _fraction_closed_form_generators(b)
        assert gens is not None, p
        lattice = Lattice(gens)
        assert Lattice.from_ints(*_closed_form_generators(b)) == lattice
        assert maximal_order(b).lattice == lattice
        h = (Fraction(p - 1, 12) + Fraction(1, 3) * (1 - kronecker(-3, p))
             + Fraction(1, 4) * (1 - kronecker(-4, p)))
        assert eichler_class_number(p) == h


def test_closed_form_orders_match_saturation():
    for p in primes_below(100):
        b = b_p_infinity(p)
        assert _closed_form_generators(b) is not None
        assert maximal_order(b).lattice == _saturated_order(b).lattice


def test_saturation_outside_the_closed_forms():
    cases = (((-1, -6), 3), ((-3, -5), 5), ((-2, -20), 5), ((-1, 3), 6),
             ((Fraction(-1, 2), -3), 2))
    for (a, b), disc in cases:
        alg = QuaternionAlgebra(Fraction(a), Fraction(b))
        assert _closed_form_generators(alg) is None
        o = maximal_order(alg)
        assert o.reduced_disc == alg.reduced_disc == disc
        for q in (2, 3, 5):
            if disc % q == 0:
                assert not _closed_superlattice_lines(o, q)


def _brute_force_radical(o, q):
    """Coordinates c mod q of the x in O/qO with (yx)^2 = 0 for every y.

    Those x span the largest nil left ideal of O/qO, which is its radical.
    """
    a, b = o.algebra.a, o.algebra.b
    basis = [tuple(Fraction(x) for x in r) for r in o.lattice.basis()]
    binv = inv_mat(basis)
    table = [[[int(c) % q for c in vec_times(quat_mul(a, b, u, v), binv)]
              for v in basis] for u in basis]

    def mul(c, d):
        return tuple(sum(c[i] * d[j] * table[i][j][k]
                         for i in range(4) for j in range(4)) % q
                     for k in range(4))

    zero = (0, 0, 0, 0)
    vectors = list(itertools.product(range(q), repeat=4))
    return {c for c in vectors
            if all(mul(yx, yx) == zero for yx in (mul(y, c) for y in vectors))}


def _radical_coords(o, q):
    """Coordinates c mod q with sum c_i b_i in _radical(o, q)."""
    rad = _radical(o, q)
    basis = o.lattice.basis()
    assert rad.contains_lattice(o.lattice.scale(q))
    assert o.lattice.contains_lattice(rad)
    return {c for c in itertools.product(range(q), repeat=4)
            if rad.contains(vec_times(c, basis))}


def test_radical_matches_brute_force_at_2_and_3(monkeypatch):
    visited = []
    step = latorder._saturate_step

    def recording_step(o, q):
        visited.append(o)
        return step(o, q)

    monkeypatch.setattr(latorder, "_saturate_step", recording_step)
    for a, b in ((-1, -6), (-3, -5), (-2, -20), (-1, 3), (Fraction(-1, 2), -3)):
        visited.append(_saturated_order(QuaternionAlgebra(Fraction(a), Fraction(b))))
    assert len(visited) > 5
    for o in visited:
        for q in (2, 3):
            assert _radical_coords(o, q) == _brute_force_radical(o, q)


def test_radical_needs_the_norm_condition():
    # Z<1, i, j, k> in (-1, -1): the trace form vanishes mod 2, so only
    # nrd = 0 (mod 2) cuts the radical down to dimension 3
    alg = QuaternionAlgebra(Fraction(-1), Fraction(-1))
    o = QuatOrder(alg, Lattice([(1, 0, 0, 0), (0, 1, 0, 0),
                                (0, 0, 1, 0), (0, 0, 0, 1)]))
    basis = o.lattice.basis()
    assert all(2 * quat_mul(alg.a, alg.b, u, v)[0] % 2 == 0
               for u in basis for v in basis)
    coords = _radical_coords(o, 2)
    assert coords == _brute_force_radical(o, 2)
    assert len(coords) == 2 ** 3


def test_non_maximal_order_has_closed_superlattice():
    alg = QuaternionAlgebra(Fraction(-1), Fraction(-1))
    o = QuatOrder(alg, Lattice([(1, 0, 0, 0), (0, 1, 0, 0),
                                (0, 0, 1, 0), (0, 0, 0, 1)]))
    assert not o.is_maximal
    lines = _closed_superlattice_lines(o, 2)
    assert lines  # the order of Hurwitz-type quaternions sits above it


def _closed_superlattice_lines(o, q):
    a, b = o.algebra.a, o.algebra.b
    basis = [tuple(Fraction(x) for x in r) for r in o.lattice.basis()]
    hits = []
    for c in itertools.product(range(q), repeat=4):
        if not any(c):
            continue
        if c[next(i for i in range(4) if c[i])] != 1:
            continue  # one representative per line
        u = tuple(sum(Fraction(c[i], q) * basis[i][j] for i in range(4))
                  for j in range(4))
        rows = [tuple(q * x for x in r) for r in basis] + [tuple(q * x for x in u)]
        span_inv = inv_mat(_square_hnf(rows))
        def inside(w):
            return in_span(tuple(q * x for x in w), span_inv)
        ok = inside(quat_mul(a, b, u, u))
        for e in basis:
            ok = ok and inside(quat_mul(a, b, u, e)) and inside(quat_mul(a, b, e, u))
        if ok:
            hits.append(c)
    return hits


def _square_hnf(rows):
    """Row HNF of a stack of rational rows with full column rank 4."""
    den = 1
    for r in rows:
        for x in r:
            den = den * x.denominator // __import__("math").gcd(den, x.denominator)
    m = [[int(x * den) for x in r] for r in rows]
    for col in range(4):
        while True:
            live = [r for r in range(col, len(m)) if m[r][col]]
            piv = min(live, key=lambda r: abs(m[r][col]))
            m[col], m[piv] = m[piv], m[col]
            if m[col][col] < 0:
                m[col] = [-x for x in m[col]]
            done = True
            for r in range(col + 1, len(m)):
                if m[r][col]:
                    f = m[r][col] // m[col][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                    if m[r][col]:
                        done = False
            if done:
                break
    return [[Fraction(x, den) for x in m[i]] for i in range(4)]


def test_class_set_spots_and_neighbor_invariance(class_sets_under_100):
    assert len(class_sets_under_100[2]) == 1
    assert len(class_sets_under_100[11]) == 2
    assert len(class_sets_under_100[23]) == 3
    o = maximal_order(b_p_infinity(11))
    alt = class_set(o, neighbor_primes=(3,))
    both = class_set(o, neighbor_primes=(2, 3))
    assert len(alt) == len(both) == 2
    for i in alt:
        assert sum(1 for j in both if isomorphic_ideals(i, j)) == 1
    with pytest.raises(ValueError):
        class_set(o, neighbor_primes=(11,))


def test_mass_formula(class_sets_under_100):
    # sum of 1/|left-order units| over the classes for the algebra at {p, inf}
    for p, reps in class_sets_under_100.items():
        mass = sum(Fraction(1, i.left_order().unit_group_order()) for i in reps)
        assert mass == Fraction(p - 1, 24)


def test_classes_pairwise_non_isomorphic(class_sets_under_100):
    for p in (11, 23, 31):
        reps = class_sets_under_100[p]
        for s, i in enumerate(reps):
            for t, j in enumerate(reps):
                assert bool(isomorphic_ideals(i, j)) == (s == t)


def test_theta_key_is_a_class_invariant(class_sets_under_100):
    # x has coefficients up to 20 on O and a denominator up to 6, so the HNF
    # basis of xI is skewed; the search runs on its LLL reduction.
    rng = random.Random(54)
    for p in (11, 37, 101):
        o = maximal_order(b_p_infinity(p))
        reps = (class_sets_under_100[p] if p in class_sets_under_100
                else class_set(o))
        for i in reps[:4] + right_ideals_of_norm(o, 3)[:1]:
            key = _theta_key(i)
            assert sum(key) > 0
            # the counts, from each vector's own quaternion norm
            basis = i.lattice.basis()
            values = [quat_nrd(o.algebra.a, o.algebra.b, vec_times(v, basis)) / i.nrd
                      for _, v in short_vectors(i.nrd_gram(), latorder.THETA_TERMS)]
            assert key == tuple(values.count(n) for n in range(1, len(key) + 1))
            for _ in range(2):
                c = [rng.randrange(-20, 21) for _ in range(4)]
                d = rng.randrange(1, 7)
                x = o.algebra.quaternion(*(Fraction(t, d)
                                           for t in vec_times(c, o.lattice.basis())))
                if x.is_zero():
                    continue
                moved = RightIdeal(o, Lattice([(x * b).coords
                                               for b in basis_quaternions(i)]))
                assert moved.nrd == i.nrd * x.nrd()
                gram = moved.nrd_gram()
                _assert_lll_reduced(gram.ints, latorder._lll(gram.ints))
                assert _theta_key(moved) == key


def _assert_closed_under_neighbors(o, reps):
    q = next(q for q in (2, 3, 5, 7) if o.reduced_disc % q)
    for i in reps:
        for k in right_ideals_of_norm(i.left_order(), q):
            cand = reduce_ideal(ideal_mul(k, i))
            assert cand.order == o
            assert sum(1 for r in reps if isomorphic_ideals(cand, r)) == 1


def test_class_sets_closed_under_neighbors(class_sets_under_100):
    # The exhaustive search's own stopping rule, without the mass formula or
    # theta keys: every norm-q neighbor of every class reduces to an ideal
    # isomorphic to exactly one representative.
    for p, reps in class_sets_under_100.items():
        _assert_closed_under_neighbors(maximal_order(b_p_infinity(p)), reps)
    # discriminants 30 and 42: the mass stop multiplies (p - 1) over p | disc
    for a, b, h in ((-3, -10, 2), (-1, -21, 2)):
        o = maximal_order(QuaternionAlgebra(Fraction(a), Fraction(b)))
        reps = class_set(o)
        assert len(reps) == h
        _assert_closed_under_neighbors(o, reps)


def test_isomorphism_witness_and_reduce():
    o = maximal_order(b_p_infinity(2))
    x = o.algebra.quaternion(2, 1, 1, 0)
    i = RightIdeal.principal(o, x)
    assert i.nrd == x.nrd() == 6
    r = reduce_ideal(i)
    assert r.nrd <= i.nrd
    m = isomorphic_ideals(i, r)
    assert m and m.witness is not None
    moved = Lattice([(m.witness * q).coords for q in basis_quaternions(i)])
    assert moved == r.lattice
    # class number one: everything is isomorphic to the unit ideal
    for j in right_ideals_of_norm(o, 5):
        assert isomorphic_ideals(j, RightIdeal.unit_ideal(o))


def test_ideal_mul_contract():
    o = maximal_order(b_p_infinity(11))
    i = right_ideals_of_norm(o, 2)[0]
    left = i.left_order()
    k = right_ideals_of_norm(left, 3)[0]
    prod = ideal_mul(k, i)
    assert prod.nrd == k.nrd * i.nrd == 6
    assert prod.order == o
    mismatched = next(j for j in right_ideals_of_norm(o, 3)
                      if j.left_order().lattice != i.order.lattice)
    with pytest.raises(ValueError):
        ideal_mul(i, mismatched)


def test_eichler_class_number_matches_enumeration(class_sets_under_100):
    for p, reps in class_sets_under_100.items():
        assert eichler_class_number(p) == len(reps)
    assert eichler_class_number(11) == 2
    assert eichler_class_number(37) == 3
    assert eichler_class_number(101) == 9
    with pytest.raises(ValueError):
        eichler_class_number(15)


def test_order_and_ideal_validation():
    alg = QuaternionAlgebra(Fraction(-1), Fraction(-1))
    with pytest.raises(ValueError):
        QuatOrder(alg, Lattice([(2, 0, 0, 0), (0, 1, 0, 0),
                                (0, 0, 1, 0), (0, 0, 0, 1)]))  # misses 1
    with pytest.raises(ValueError):
        QuatOrder(alg, Lattice([(1, 0, 0, 0), (0, Fraction(1, 2), 0, 0),
                                (0, 0, 1, 0), (0, 0, 0, 1)]))  # i/2 not closed
    o = maximal_order(alg)
    with pytest.raises(ValueError):
        RightIdeal(o, Lattice([(1, 0, 0, 0), (0, 3, 0, 0),
                               (0, 0, 1, 0), (0, 0, 0, 1)]))
    # a rational algebra: the checks run on rows scaled by ad bd = 2
    alg = QuaternionAlgebra(Fraction(-1, 2), Fraction(-3))
    o = maximal_order(alg)
    basis = o.lattice.basis()
    with pytest.raises(ValueError):
        # (i/7)^2 = -1/98 is not integral
        QuatOrder(alg, Lattice(list(basis) + [(0, Fraction(1, 7), 0, 0)]))
    with pytest.raises(ValueError):
        # Z + 3O contains 1 but not 1 * O
        RightIdeal(o, Lattice([(1, 0, 0, 0)] + [[3 * x for x in r] for r in basis]))
    assert RightIdeal(o, Lattice([[3 * x for x in r] for r in basis])).nrd == 9
