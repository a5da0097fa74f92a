"""Exact matrix helpers and the HNF-canonical lattice type."""

import itertools
import random
from fractions import Fraction

import pytest

from locfree.linalg import (
    Lattice,
    hnf,
    int_left_kernel,
    mat_det,
    mat_inv,
    mat_mul,
    solve_mod_lattice,
)


def det_by_permutations(a):
    """Leibniz expansion; independent of the elimination in mat_det."""
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(a[i][perm[i]])
        total += sign * term
    return total


def random_matrix(rng, n, lo=-6, hi=6, denom=False):
    return [
        [
            Fraction(rng.randrange(lo, hi + 1), rng.randrange(1, 4) if denom else 1)
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def test_mat_det_matches_permanent_expansion():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(40):
            a = random_matrix(rng, n, denom=True)
            assert mat_det(a) == det_by_permutations(a)


def _with_zero_pivot(rng, a, k):
    """Make the leading k x k minor singular: row k-1 starts as a
    combination of rows 0..k-2 (all zeros for k = 1), and the rest of the
    row stays random, so elimination meets a zero pivot at step k-1."""
    c = [rng.randrange(-2, 3) for _ in range(k - 1)]
    for j in range(k):
        a[k - 1][j] = sum(ci * a[i][j] for i, ci in enumerate(c))
    return a


def _singular(rng, a):
    """Replace one row by a combination of the others."""
    n = len(a)
    r = rng.randrange(n)
    c = [rng.randrange(-2, 3) for _ in range(n)]
    a[r] = [sum(c[i] * a[i][j] for i in range(n) if i != r) for j in range(n)]
    return a


def _integer_matrices(rng, n):
    for _ in range(6 if n < 6 else 3):
        yield [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        for k in range(1, n):
            yield _with_zero_pivot(
                rng, [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)], k)
        yield _singular(rng, [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
    yield [[0] * n for _ in range(n)]


def test_bareiss_det_on_integer_matrices(monkeypatch):
    """Zero leading entries, zero pivots partway, singular matrices, n = 1..6;
    integer input gives an int and builds no Fraction."""
    rng = random.Random(17)
    cases = [(n, a) for n in range(1, 7) for a in _integer_matrices(rng, n)]
    expected = [det_by_permutations(a) for _, a in cases]
    assert sum(e == 0 for e in expected) > 12 and sum(e != 0 for e in expected) > 60

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("integer determinant built a Fraction")

    monkeypatch.setattr("locfree.linalg.Fraction", NoFraction)
    for (n, a), e in zip(cases, expected):
        det = mat_det(a)
        assert type(det) is int and det.denominator == 1, (n, a)
        assert det == e, (n, a)
        assert mat_det(tuple(tuple(row) for row in a)) == e


def test_bareiss_det_on_rational_rows():
    """Rows scaled by their denominators' lcm, mixed with integer rows."""
    rng = random.Random(18)
    for n in range(1, 7):
        for _ in range(8 if n < 6 else 4):
            a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.4 and n > 1:
                _with_zero_pivot(rng, a, rng.randrange(1, n))
            elif rng.random() < 0.2:
                _singular(rng, a)
            rational = rng.randrange(n)
            rows = [[Fraction(x, rng.choice([1, 2, 3, 5, 7, 12])) for x in row]
                    if i == rational or rng.random() < 0.6 else row
                    for i, row in enumerate(a)]
            det = mat_det(rows)
            assert isinstance(det, Fraction)
            assert det == det_by_permutations(rows)


def test_mat_inv():
    rng = random.Random(12)
    for n in (2, 3, 4):
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        done = 0
        while done < 20:
            a = random_matrix(rng, n)
            if mat_det(a) == 0:
                continue
            done += 1
            assert mat_mul(a, mat_inv(a)) == identity
            assert mat_mul(mat_inv(a), a) == identity
    with pytest.raises(ZeroDivisionError):
        mat_inv([[1, 2], [2, 4]])


def test_hnf_is_canonical_under_row_operations():
    rng = random.Random(13)
    for _ in range(50):
        rows = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(4)]
        h1 = hnf([r[:] for r in rows])
        shuffled = [r[:] for r in rows]
        rng.shuffle(shuffled)
        shuffled[0] = [x + y for x, y in zip(shuffled[0], shuffled[-1])]
        assert hnf(shuffled) == h1
        # upper triangular with nonnegative entries above positive pivots
        nonzero = [r for r in h1 if any(r)]
        for i, row in enumerate(nonzero):
            lead = next(j for j, x in enumerate(row) if x)
            assert row[lead] > 0
            for above in nonzero[:i]:
                assert 0 <= above[lead] < row[lead]


def test_int_left_kernel():
    rows = [[2, 4], [1, 2], [3, 6]]
    kern = int_left_kernel(rows)
    assert kern
    for z in kern:
        assert all(sum(z[i] * rows[i][j] for i in range(3)) == 0 for j in range(2))


def test_solve_mod_lattice_membership_and_completeness():
    rng = random.Random(14)
    for _ in range(30):
        k, c, m = 3, 2, rng.choice([2, 3, 4, 6])
        a = [[rng.randrange(m) for _ in range(c)] for _ in range(k)]
        rows = solve_mod_lattice(a, m)
        lat = Lattice(rows)
        for z in rows:
            assert all(sum(z[i] * a[i][j] for i in range(k)) % m == 0 for j in range(c))
        # completeness on the box [0, m)^k
        for z in itertools.product(range(m), repeat=k):
            good = all(sum(z[i] * a[i][j] for i in range(k)) % m == 0 for j in range(c))
            assert lat.contains(z) == good


def test_lattice_canonical_forms():
    l1 = Lattice([[1, 0], [0, 1], [3, 5]])
    l2 = Lattice([[0, 1], [1, 0]])
    assert l1 == l2 and hash(l1) == hash(l2)
    l3 = Lattice([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert l3.den == 6
    with pytest.raises(ValueError):
        Lattice([[1, 2], [2, 4]])
    assert l1.scale(Fraction(1, 3)).scale(3) == l1
    assert l3.scale(6) == Lattice([[3, 0], [0, 2]])


def test_lattice_contains_and_membership():
    lat = Lattice([[2, 1], [0, 3]])
    assert lat.contains([2, 1])
    assert lat.contains([2, 4])
    assert not lat.contains([1, 0])
    assert not lat.contains([Fraction(1, 2), 0])
    for row in lat.basis():
        assert lat.contains(row)


def test_integer_rows_against_fraction_lattices():
    """from_ints equals the Fraction constructor, and contains(vec, den)
    agrees with solving vec / den = c B over Q."""
    rng = random.Random(16)
    members = non_members = 0
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        den = rng.randrange(1, 7)
        rows = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n + 1)]
        if mat_det(rows[:n]) == 0:
            continue
        lat = Lattice.from_ints(den, rows)
        assert lat == Lattice([[Fraction(x, den) for x in r] for r in rows])
        basis_inv = mat_inv(lat.basis())
        for _ in range(20):
            if rng.random() < 0.5:
                # a member: k (sum c_i rows_i) over k den is in the lattice
                k = rng.randrange(1, 4)
                c = [rng.randrange(-3, 4) for _ in range(n)]
                vec = [k * sum(c[i] * lat.rows[i][j] for i in range(n)) for j in range(n)]
                d = k * lat.den
            else:
                vec = [rng.randrange(-12, 13) for _ in range(n)]
                d = rng.randrange(1, 7)
            coords = [sum(Fraction(vec[i], d) * basis_inv[i][j] for i in range(n))
                      for j in range(n)]
            inside = all(x.denominator == 1 for x in coords)
            members += inside
            non_members += not inside
            assert lat.contains(vec, d) == inside
            assert lat.contains([Fraction(x, d) for x in vec]) == inside
    assert members > 100 and non_members > 100


def test_lattice_index_in():
    # [A : B] is the covolume ratio, read off the HNF diagonals
    a = Lattice([[1, 0], [0, 1]])
    b = Lattice([[2, 0], [0, 3]])
    c = Lattice([[Fraction(1, 2), Fraction(1, 2)], [0, 1]])
    assert b.covolume() / a.covolume() == 6
    assert a.covolume() / b.covolume() == Fraction(1, 6)
    assert c.contains_lattice(a) and a.covolume() / c.covolume() == 2
