"""Exact linear algebra over Q and Z: small dense matrices and full-rank lattices.

Matrices are tuples of tuples (rows).  Everything is exact; floats never
appear.  Dimensions stay tiny (at most 6 for field matrices, 4 for lattices),
so the algorithms favour clarity over asymptotics.  mat_det is the only
determinant: Bareiss elimination on integer rows, with rational rows scaled
to integers first, so an integer matrix never meets a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def mat_mul(a, b) -> tuple:
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_det(a):
    """Determinant by Bareiss's fraction-free elimination (Cohen, GTM 138, §2.2).

    Each rational row is scaled by the lcm of its denominators, the integer
    determinant is taken with exact divisions by the previous pivot, and the
    scale is divided back out.  Integer input builds no Fraction and gives an
    int; any other input gives a Fraction.
    """
    m, scale, rational = [], 1, False
    for row in a:
        if all(type(x) is int for x in row):
            m.append(list(row))
            continue
        rational = True
        row = [Fraction(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        scale *= d
        m.append([x.numerator * (d // x.denominator) for x in row])
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return Fraction(0) if rational else 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk, mk = m[k][k], m[k]
        for r in range(k + 1, n):
            mr = m[r]
            f = mr[k]
            for c in range(k + 1, n):
                mr[c] = (pk * mr[c] - f * mk[c]) // prev
        prev = pk
    det = sign * m[n - 1][n - 1] if n else 1
    return Fraction(det, scale) if rational else det


def mat_inv(a) -> tuple:
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / Fraction(m[col][col])
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def hnf(rows: list[list[int]], transform: bool = False):
    """Row Hermite normal form of an integer matrix.

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    zero rows sink to the bottom.  With transform=True also returns a
    unimodular U with U*M = H.
    """
    m = [list(r) for r in rows]
    k = len(m)
    n = len(m[0]) if k else 0
    u = [[int(i == j) for j in range(k)] for i in range(k)] if transform else None
    row = 0
    for col in range(n):
        # clear column below `row` by gcd row operations
        piv = None
        for r in range(row, k):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        if transform:
            u[row], u[piv] = u[piv], u[row]
        for r in range(row + 1, k):
            while m[r][col] != 0:
                q = m[row][col] // m[r][col]
                m[row] = [x - q * y for x, y in zip(m[row], m[r])]
                if transform:
                    u[row] = [x - q * y for x, y in zip(u[row], u[r])]
                m[row], m[r] = m[r], m[row]
                if transform:
                    u[row], u[r] = u[r], u[row]
        if m[row][col] < 0:
            m[row] = [-x for x in m[row]]
            if transform:
                u[row] = [-x for x in u[row]]
        for r in range(row):
            q = m[r][col] // m[row][col]
            if q:
                m[r] = [x - q * y for x, y in zip(m[r], m[row])]
                if transform:
                    u[r] = [x - q * y for x, y in zip(u[r], u[row])]
        row += 1
        if row == k:
            break
    h = tuple(tuple(r) for r in m)
    if transform:
        return h, tuple(tuple(r) for r in u)
    return h


def int_left_kernel(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Basis of {z integer row : z*M = 0}."""
    h, u = hnf(rows, transform=True)
    return [u[i] for i in range(len(h)) if all(x == 0 for x in h[i])]


def solve_mod_lattice(a: list[list[int]], m: int) -> list[tuple[int, ...]]:
    """Basis of the full-rank lattice {z in Z^k : z*A = 0 (mod m)}."""
    k = len(a)
    c = len(a[0]) if k else 0
    # kernel of [[A],[m I_c]] projected onto the first k coordinates
    big = [list(a[i]) for i in range(k)] + [[m * int(i == j) for j in range(c)] for i in range(c)]
    ker = int_left_kernel(big)
    rows = [list(z[:k]) for z in ker]
    rows += [[m * int(i == j) for j in range(k)] for i in range(k)]
    h = hnf(rows)
    out = [h[i] for i in range(len(h)) if any(h[i])]
    assert len(out) == k, "congruence solution lattice must be full rank"
    return out


def int_rows(vectors) -> tuple[int, list[list[int]]]:
    """(d, rows) with rows integer and rows / d equal to the rational vectors."""
    vecs = [[Fraction(x) for x in row] for row in vectors]
    d = lcm(*[x.denominator for row in vecs for x in row]) if vecs else 1
    return d, [[int(x * d) for x in row] for row in vecs]


def _canonical_basis(den: int, ints, n: int):
    """HNF of the integer rows over den, reduced to lowest terms; full rank n."""
    rows = [r for r in hnf(ints) if any(r)]
    if len(rows) != n:
        raise ValueError("generators do not span a full-rank lattice")
    g = 0
    for r in rows:
        for x in r:
            g = gcd(g, x)
    g = gcd(g, den)
    return den // g, tuple(tuple(x // g for x in r) for r in rows)


class Lattice:
    """Full-rank lattice in Q^n, stored as canonical HNF basis over a denominator."""

    __slots__ = ("den", "rows")

    def __init__(self, generators, _canonical=False):
        if _canonical:
            self.den, self.rows = generators
            return
        d, ints = int_rows(generators)
        self.den, self.rows = _canonical_basis(d, ints, len(ints[0]))

    @classmethod
    def from_ints(cls, den: int, rows) -> "Lattice":
        """The lattice spanned by integer rows / den, with no Fraction in between."""
        return cls(_canonical_basis(den, rows, len(rows[0])), _canonical=True)

    @property
    def n(self) -> int:
        return len(self.rows)

    def basis(self) -> tuple:
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.rows)

    def covolume(self) -> Fraction:
        det = 1
        for i in range(self.n):
            det *= self.rows[i][i]
        return Fraction(abs(det), self.den ** self.n)

    def contains(self, vec, den: int = 1) -> bool:
        """Whether vec / den lies in the lattice.

        Forward substitution against the upper-triangular basis: vec / den =
        sum c_i rows_i / self.den needs each c_i to be an exact quotient.
        Integer vec stays on integers; rational entries work as well.
        """
        v = [self.den * x for x in vec]
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            c, r = divmod(v[i], den * row[i])
            if r:
                return False
            if c:
                c *= den
                for j in range(i + 1, n):
                    v[j] -= c * row[j]
        return True

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.contains(row, other.den) for row in other.rows)

    def scale(self, r) -> "Lattice":
        r = Fraction(r)
        return Lattice([[x * r for x in row] for row in self.basis()])

    def key(self):
        return (self.den, self.rows)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Lattice(den={self.den}, rows={self.rows})"
