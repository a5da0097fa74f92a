"""Rational quaternion algebras (a,b | Q), their ramification, and reduced norms.

The algebra has basis 1, i, j, k with i^2 = a, j^2 = b, ij = -ji = k.  A place
is ramified exactly when the Hilbert symbol (a,b) there is -1; the set of
ramified places is always finite of even size.  Reduced norms of quaternion
matrices are computed exactly through the splitting embedding over Q(sqrt(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

from .linalg import mat_det
from .numtheory import (
    Place, factor, finite_hilbert_symbol, fraction_str, hilbert_symbol, is_prime, primes,
    sqrt_fraction,
)

__all__ = [
    "QuaternionAlgebra", "Quaternion", "QuatMatrix",
    "ramified_places", "b_p_infinity", "matrix_nrd",
    "embed_phi_r",
]


def ramified_places(a, b) -> frozenset[Place]:
    """Places of Q where (a,b) is a division algebra: hilbert_symbol = -1.

    The finite symbols run on the integers an, ad, bn, bd at 2 and at every
    prime dividing one of them; a Place is built only for a ramified prime.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("quaternion algebra requires nonzero parameters")
    ints = (a.numerator, a.denominator, b.numerator, b.denominator)
    candidates = {2}
    for n in ints:
        candidates.update(p for p, _ in factor(n).factors)
    out = [Place.finite(p) for p in sorted(candidates)
           if finite_hilbert_symbol(*ints, p) == -1]
    if hilbert_symbol(a, b, Place.real()) == -1:
        out.append(Place.real())
    return frozenset(out)


@dataclass(frozen=True)
class QuaternionAlgebra:
    """(a, b | Q): i^2 = a, j^2 = b, ij = -ji = k."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0 or self.b == 0:
            raise ValueError("quaternion algebra requires nonzero parameters")

    @cached_property
    def ramified(self) -> frozenset[Place]:
        return ramified_places(self.a, self.b)

    @cached_property
    def reduced_disc(self) -> int:
        d = 1
        for v in self.ramified:
            if v.kind == "finite":
                d *= v.prime
        return d

    @property
    def is_definite(self) -> bool:
        return any(v.kind == "real" for v in self.ramified)

    def quaternion(self, t, x=0, y=0, z=0) -> "Quaternion":
        return Quaternion(self, (Fraction(t), Fraction(x), Fraction(y), Fraction(z)))

    def zero(self) -> "Quaternion":
        return self.quaternion(0)

    def one(self) -> "Quaternion":
        return self.quaternion(1)

    def gen_i(self) -> "Quaternion":
        return self.quaternion(0, 1)

    def gen_j(self) -> "Quaternion":
        return self.quaternion(0, 0, 1)

    def gen_k(self) -> "Quaternion":
        return self.quaternion(0, 0, 0, 1)

    def basis(self) -> tuple["Quaternion", ...]:
        return (self.one(), self.gen_i(), self.gen_j(), self.gen_k())

    def to_json(self) -> dict:
        return {
            "a": fraction_str(self.a),
            "b": fraction_str(self.b),
            "ramified": [str(v) for v in sorted(self.ramified, key=Place.sort_key)],
            "disc": str(self.reduced_disc),
        }


@dataclass(frozen=True)
class Quaternion:
    """t + x i + y j + z k with exact rational coordinates."""

    algebra: QuaternionAlgebra
    coords: tuple[Fraction, Fraction, Fraction, Fraction]

    def __add__(self, other):
        other = self._coerce(other)
        return Quaternion(self.algebra,
                          tuple(p + q for p, q in zip(self.coords, other.coords)))

    def __sub__(self, other):
        other = self._coerce(other)
        return Quaternion(self.algebra,
                          tuple(p - q for p, q in zip(self.coords, other.coords)))

    def __neg__(self):
        return Quaternion(self.algebra, tuple(-p for p in self.coords))

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self.algebra.a, self.algebra.b
        t1, x1, y1, z1 = self.coords
        t2, x2, y2, z2 = other.coords
        return Quaternion(self.algebra, (
            t1 * t2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
            t1 * x2 + x1 * t2 - b * (y1 * z2 - y2 * z1),
            t1 * y2 + y1 * t2 + a * (x1 * z2 - x2 * z1),
            t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2,
        ))

    def __rmul__(self, other):
        return self._coerce(other) * self

    __radd__ = __add__

    def _coerce(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            assert other.algebra == self.algebra
            return other
        return self.algebra.quaternion(Fraction(other))

    def conj(self) -> "Quaternion":
        t, x, y, z = self.coords
        return Quaternion(self.algebra, (t, -x, -y, -z))

    def nrd(self) -> Fraction:
        a, b = self.algebra.a, self.algebra.b
        t, x, y, z = self.coords
        return t * t - a * x * x - b * y * y + a * b * z * z

    def trd(self) -> Fraction:
        return 2 * self.coords[0]

    def inverse(self) -> "Quaternion":
        n = self.nrd()
        if n == 0:
            raise ZeroDivisionError("quaternion has reduced norm zero")
        c = self.conj()
        return Quaternion(self.algebra, tuple(p / n for p in c.coords))

    def is_zero(self) -> bool:
        return all(p == 0 for p in self.coords)


def b_p_infinity(p: int) -> QuaternionAlgebra:
    """The quaternion algebra over Q ramified exactly at p and the real place.

    Recipe: p = 2 -> (-1,-1); p = 3 mod 4 -> (-1,-p); p = 1 mod 4 -> (-q,-p)
    for the smallest auxiliary prime q that works.  The result is verified by
    recomputing its ramified set, so the recipe only needs to terminate.
    """
    if not is_prime(p):
        raise ValueError("b_p_infinity requires a prime")
    if p == 2:
        candidates = [(-1, -1)]
    elif p % 4 == 3:
        candidates = [(-1, -p)]
    else:
        candidates = ((-q, -p) for q in primes())
    target = frozenset({Place.finite(p), Place.real()})
    for a, b in candidates:
        alg = QuaternionAlgebra(Fraction(a), Fraction(b))
        if alg.ramified == target:
            return alg
    raise AssertionError(f"no presentation found for the algebra at {p}")


@dataclass(frozen=True)
class QuatMatrix:
    """n x n matrix with quaternion entries."""

    algebra: QuaternionAlgebra
    entries: tuple[tuple[Quaternion, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        assert all(len(row) == n for row in self.entries)
        assert all(e.algebra == self.algebra for row in self.entries for e in row)

    @classmethod
    def from_rows(cls, algebra: QuaternionAlgebra, rows) -> "QuatMatrix":
        return cls(algebra, tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, algebra: QuaternionAlgebra, n: int) -> "QuatMatrix":
        one, zero = algebra.one(), algebra.zero()
        return cls(algebra, tuple(
            tuple(one if r == c else zero for c in range(n)) for r in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __add__(self, other: "QuatMatrix") -> "QuatMatrix":
        assert self.algebra == other.algebra and self.n == other.n
        return QuatMatrix(self.algebra, tuple(
            tuple(p + q for p, q in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def __mul__(self, other: "QuatMatrix") -> "QuatMatrix":
        assert self.algebra == other.algebra and self.n == other.n
        zero = self.algebra.zero()
        return QuatMatrix(self.algebra, tuple(
            tuple(reduce(lambda s, k: s + self.entries[r][k] * other.entries[k][c],
                         range(self.n), zero) for c in range(self.n))
            for r in range(self.n)))


def embed_phi_r(x: QuatMatrix, r: int) -> QuatMatrix:
    """Block-diagonal embedding diag(x, identity of size r)."""
    if r < 0:
        raise ValueError("padding size must be nonnegative")
    n = x.n
    one, zero = x.algebra.one(), x.algebra.zero()
    rows = []
    for u in range(n + r):
        row = []
        for v in range(n + r):
            if u < n and v < n:
                row.append(x.entries[u][v])
            else:
                row.append(one if u == v else zero)
        rows.append(tuple(row))
    return QuatMatrix(x.algebra, tuple(rows))


# --- reduced norm of quaternion matrices via the splitting over Q(sqrt(a)) ---
#
# q = t + xi + yj + zk maps to [[t + x s, b (y + z s)], [y - z s, t - x s]]
# with s = sqrt(a).  Entries live in Q(sqrt(a)) as pairs (u, v) = u + v s.


def _emb(q: Quaternion):
    b = q.algebra.b
    t, x, y, z = q.coords
    return (((t, x), (b * y, b * z)),
            ((y, -z), (t, -x)))


def _pair_mul(p, q, a):
    return (p[0] * q[0] + a * p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _pair_det(rows, a) -> tuple[Fraction, Fraction]:
    """Determinant over Q(sqrt(a)) by Gaussian elimination on (u, v) pairs."""
    m = [list(r) for r in rows]
    n = len(m)
    det = (Fraction(1), Fraction(0))
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != (0, 0)), None)
        if pivot is None:
            return (Fraction(0), Fraction(0))
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = (-det[0], -det[1])
        u, v = m[col][col]
        det = _pair_mul(det, (u, v), a)
        nrm = u * u - a * v * v  # nonzero: a is not a rational square
        inv = (u / nrm, -v / nrm)
        for r in range(col + 1, n):
            if m[r][col] == (0, 0):
                continue
            f = _pair_mul(m[r][col], inv, a)
            for c in range(col, n):
                fu, fv = _pair_mul(f, m[col][c], a)
                m[r][c] = (m[r][c][0] - fu, m[r][c][1] - fv)
    return det


def matrix_nrd(x: QuatMatrix) -> Fraction:
    """Reduced norm of a quaternion matrix: det of its 2n x 2n splitting image.

    When a is a rational square the embedding lands in rational 2n x 2n
    matrices (the algebra is split) and the determinant is taken over Q.
    """
    a = x.algebra.a
    n = x.n
    blocks = [[_emb(x.entries[r][c]) for c in range(n)] for r in range(n)]
    root = sqrt_fraction(a) if a > 0 else None
    big = [[blocks[r // 2][c // 2][r % 2][c % 2] for c in range(2 * n)]
           for r in range(2 * n)]
    if root is not None:
        rational = [[u + v * root for (u, v) in row] for row in big]
        return mat_det(rational)
    u, v = _pair_det(big, a)
    assert v == 0, "reduced norm must land in the base field"
    return u
