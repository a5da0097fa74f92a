"""Quadratic fields: maximal-order ideals, binary quadratic forms, class groups.

Class groups are computed from reduced binary quadratic forms.  For negative
discriminants each class has a unique reduced representative; for positive
discriminants classes are cycles of reduced forms under the rho operator, and
the wide group is the quotient of the narrow one by the class of (sqrt(d)).
The group law is Dirichlet composition on the integer coefficients followed
by reduction.  The classical ideal/form dictionary (a, b, c) <-> [a, (-b +
sqrt(D))/2] is kept for the places where an ideal meets a form: the class of
(sqrt(d)), `ideal_class` and `prime_ideals_above`.  The invariant factors
are counted from the element orders, found by walking powers: sum(ord(g) - 1)
compositions, none of them cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .linalg import Lattice
from .numtheory import factor, fraction_str, invariant_factors, kronecker, valuation

__all__ = [
    "QuadField", "RATIONALS", "QuadElt", "QuadIdeal", "BinaryForm",
    "ClassGroup", "QuadModule", "class_group", "ideal_class",
    "steinitz_class", "modules_isomorphic", "prime_ideals_above",
    "is_fundamental_discriminant",
]


def is_fundamental_discriminant(D: int) -> bool:
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return all(e == 1 for _, e in factor(D).factors)
    if D % 4 == 0:
        d = D // 4
        if d % 4 in (2, 3):
            return all(e == 1 for _, e in factor(d).factors)
    return False


class _Rationals:
    """Q presented with the same interface the class-field layer expects."""

    disc = 1
    real_places = 1
    is_rationals = True

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, _Rationals)

    def __hash__(self):
        return hash("rationals")


RATIONALS = _Rationals()


@dataclass(frozen=True)
class QuadField:
    """Q(sqrt(d)) for squarefree d, together with its maximal order Z[omega]."""

    d: int

    def __post_init__(self):
        if self.d in (0, 1):
            raise ValueError("quadratic field requires d not 0 or 1")
        if any(e > 1 for _, e in factor(self.d).factors):
            raise ValueError("quadratic field requires squarefree d")

    @classmethod
    def from_disc(cls, D: int) -> "QuadField":
        if not is_fundamental_discriminant(D):
            raise ValueError(f"{D} is not a fundamental discriminant")
        return cls(D if D % 4 == 1 else D // 4)

    @property
    def disc(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d

    @property
    def real_places(self) -> int:
        return 2 if self.d > 0 else 0

    is_rationals = False

    # omega = (1+sqrt(d))/2 if d = 1 mod 4 else sqrt(d); omega^2 = t*omega + n0
    @property
    def omega_trace(self) -> int:
        return 1 if self.d % 4 == 1 else 0

    @property
    def omega_shift(self) -> int:
        return (self.d - 1) // 4 if self.d % 4 == 1 else self.d

    def element(self, x, y=0) -> "QuadElt":
        return QuadElt(self, Fraction(x), Fraction(y))

    def sqrt_gen(self) -> "QuadElt":
        """sqrt(d) as an element (omega coordinates)."""
        if self.d % 4 == 1:
            return QuadElt(self, Fraction(-1), Fraction(2))
        return QuadElt(self, Fraction(0), Fraction(1))


@dataclass(frozen=True)
class QuadElt:
    """x + y*omega in a quadratic field, exact rational coordinates."""

    field: QuadField
    x: Fraction
    y: Fraction

    def __add__(self, other):
        other = self._coerce(other)
        return QuadElt(self.field, self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        other = self._coerce(other)
        return QuadElt(self.field, self.x - other.x, self.y - other.y)

    def __neg__(self):
        return QuadElt(self.field, -self.x, -self.y)

    def __mul__(self, other):
        other = self._coerce(other)
        t, n0 = self.field.omega_trace, self.field.omega_shift
        yy = self.y * other.y
        return QuadElt(
            self.field,
            self.x * other.x + yy * n0,
            self.x * other.y + self.y * other.x + yy * t,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def _coerce(self, other) -> "QuadElt":
        if isinstance(other, QuadElt):
            assert other.field == self.field
            return other
        return QuadElt(self.field, Fraction(other), Fraction(0))

    def conj(self) -> "QuadElt":
        return QuadElt(self.field, self.x + self.y * self.field.omega_trace, -self.y)

    def norm(self) -> Fraction:
        r = self * self.conj()
        assert r.y == 0
        return r.x

    def trace(self) -> Fraction:
        return 2 * self.x + self.y * self.field.omega_trace

    def sqrt_coords(self) -> tuple[Fraction, Fraction]:
        """(u, v) with self = u + v*sqrt(d)."""
        if self.field.d % 4 == 1:
            return self.x + self.y / 2, self.y / 2
        return self.x, self.y

    def sign_at(self, embedding: int) -> int:
        """Sign at a real embedding; 0 sends sqrt(d) to +sqrt(d), 1 to -sqrt(d)."""
        d = self.field.d
        if d < 0:
            raise ValueError("sign only defined at real embeddings")
        u, v = self.sqrt_coords()
        if embedding == 1:
            v = -v
        if u == 0 and v == 0:
            return 0
        if u >= 0 and v >= 0:
            return 1
        if u <= 0 and v <= 0:
            return -1
        # u, v of opposite sign: compare u^2 against d v^2
        big = u * u > d * v * v
        return (1 if u > 0 else -1) if big else (1 if v > 0 else -1)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


@dataclass(frozen=True)
class QuadIdeal:
    """Fractional ideal of the maximal order, canonical HNF basis over (1, omega)."""

    field: QuadField
    lattice: Lattice

    def __post_init__(self):
        assert self.lattice.n == 2
        for row in self.lattice.basis():
            w = QuadElt(self.field, row[0], row[1]) * self.field.element(0, 1)
            if not self.lattice.contains((w.x, w.y)):
                raise ValueError("lattice is not stable under the ring generator")

    @classmethod
    def from_generators(cls, field: QuadField, gens) -> "QuadIdeal":
        """Ideal generated over Z[omega] by field elements."""
        rows = []
        om = field.element(0, 1)
        for g in gens:
            if not isinstance(g, QuadElt):
                g = field.element(g)
            rows.append((g.x, g.y))
            go = g * om
            rows.append((go.x, go.y))
        return cls(field, Lattice(rows))

    @classmethod
    def unit_ideal(cls, field: QuadField) -> "QuadIdeal":
        return cls(field, Lattice([(1, 0), (0, 1)]))

    @classmethod
    def principal(cls, g: QuadElt) -> "QuadIdeal":
        if g.is_zero():
            raise ValueError("principal ideal requires a nonzero generator")
        return cls.from_generators(g.field, [g])

    def basis_elements(self) -> tuple[QuadElt, QuadElt]:
        r0, r1 = self.lattice.basis()
        return (QuadElt(self.field, r0[0], r0[1]), QuadElt(self.field, r1[0], r1[1]))

    def norm(self) -> Fraction:
        return self.lattice.covolume()

    def contains(self, g: QuadElt) -> bool:
        return self.lattice.contains((g.x, g.y))

    def is_integral(self) -> bool:
        return QuadIdeal.unit_ideal(self.field).lattice.contains_lattice(self.lattice)

    def __mul__(self, other: "QuadIdeal") -> "QuadIdeal":
        assert self.field == other.field
        rows = []
        for a in self.basis_elements():
            for b in other.basis_elements():
                p = a * b
                rows.append((p.x, p.y))
        return QuadIdeal(self.field, Lattice(rows))

    def scale(self, r) -> "QuadIdeal":
        return QuadIdeal(self.field, self.lattice.scale(Fraction(r)))

    def to_json(self) -> dict:
        return {
            "disc": str(self.field.disc),
            "den": str(self.lattice.den),
            "basis": [[str(x) for x in row] for row in self.lattice.rows],
            "norm": fraction_str(self.norm()),
        }


@dataclass(frozen=True, order=True)
class BinaryForm:
    """Integral binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def inverse_form(self) -> "BinaryForm":
        return BinaryForm(self.a, -self.b, self.c)


def principal_form(D: int) -> BinaryForm:
    b = D % 2
    return BinaryForm(1, b, (b * b - D) // 4)


def _is_reduced_definite(f: BinaryForm) -> bool:
    if f.a <= 0:
        return False
    if not (abs(f.b) <= f.a <= f.c):
        return False
    if f.b < 0 and (abs(f.b) == f.a or f.a == f.c):
        return False
    return True


def _reduce_definite(f: BinaryForm) -> BinaryForm:
    a, b, c = f.a, f.b, f.c
    assert f.disc < 0
    if a < 0:
        raise ValueError("negative definite form")
    for _ in range(10000):
        if b > a or b <= -a:
            # translate b into (-a, a]
            r = (b + a) % (2 * a)
            s = (b + a - r) // (2 * a)
            c += s * s * a - s * b
            b -= 2 * s * a
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        if abs(b) == a and b < 0:
            b = -b
        g = BinaryForm(a, b, c)
        if _is_reduced_definite(g):
            return g
    raise AssertionError("definite reduction failed to terminate")


def _is_reduced_indefinite(f: BinaryForm, D: int) -> bool:
    # |sqrt(D) - 2|a|| < b < sqrt(D), checked exactly
    a, b = f.a, f.b
    if b <= 0 or b * b >= D:
        return False
    lhs = D + 4 * a * a - b * b
    if lhs <= 0:
        return True
    return lhs * lhs < 16 * a * a * D


def _rho_step(f: BinaryForm, D: int) -> BinaryForm:
    """One step of the indefinite reduction operator."""
    c = f.c
    m = 2 * abs(c)
    s = isqrt(D)
    if c * c >= D:  # |c| >= sqrt(D): target window (-|c|, |c|]
        b1 = (-f.b) % m
        if b1 > abs(c):
            b1 -= m
    else:  # window (sqrt(D) - 2|c|, sqrt(D))
        b1 = -f.b + m * ((s + f.b) // m)
        if b1 > s or b1 * b1 >= D:
            b1 -= m
    c1 = (b1 * b1 - D) // (4 * c)
    assert (b1 * b1 - D) % (4 * c) == 0
    return BinaryForm(c, b1, c1)


def _reduce_indefinite(f: BinaryForm, D: int) -> BinaryForm:
    g = f
    for _ in range(10000):
        if _is_reduced_indefinite(g, D):
            return g
        g = _rho_step(g, D)
    raise AssertionError("indefinite reduction failed to terminate")


def _cycle(f: BinaryForm, D: int) -> tuple[BinaryForm, ...]:
    # rho permutes the reduced forms, so the orbit must close; the cap
    # turns a broken step function into a loud failure instead of a hang.
    assert _is_reduced_indefinite(f, D)
    out = [f]
    g = _rho_step(f, D)
    while g != f:
        assert _is_reduced_indefinite(g, D), (f, g, D)
        out.append(g)
        if len(out) > 4 * D:
            raise AssertionError("rho orbit failed to close")
        g = _rho_step(g, D)
    return tuple(out)


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factor(n).factors:
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def reduced_forms(D: int) -> list[BinaryForm]:
    """All reduced forms of fundamental discriminant D (either sign)."""
    out = []
    if D < 0:
        amax = isqrt(-D // 3)
        for a in range(1, amax + 1):
            for b in range(D % 2, a + 1, 2):
                num = b * b - D
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                if c < a:
                    continue
                f = BinaryForm(a, b, c)
                if _is_reduced_definite(f):
                    out.append(f)
                if b and _is_reduced_definite(BinaryForm(a, -b, c)):
                    out.append(BinaryForm(a, -b, c))
    else:
        s = isqrt(D)
        for b in range(2 - (D % 2), s + 1, 2):
            n = (D - b * b) // 4
            if (D - b * b) % 4:
                continue
            for a0 in _divisors(n):
                for a in (a0, -a0):
                    f = BinaryForm(a, b, -n // a if a > 0 else n // (-a))
                    assert f.disc == D
                    if _is_reduced_indefinite(f, D):
                        out.append(f)
    return sorted(out)


def _form_to_ideal(field: QuadField, f: BinaryForm) -> QuadIdeal:
    """Dictionary form -> ideal: (a, b, c) with a > 0 maps to (a, (-b+sqrt(D))/2)."""
    assert f.a > 0
    D = field.disc
    if D % 2 == 0:
        beta = field.element(Fraction(-f.b, 2), 1)  # -b/2 + sqrt(d)
    else:
        beta = field.element(Fraction(-f.b - 1, 2), 1)  # (-b + sqrt(d))/2
    return QuadIdeal(field, Lattice([(f.a, 0), (beta.x, beta.y)]))


def _ideal_to_form(i: QuadIdeal) -> BinaryForm:
    """Dictionary ideal -> form from the canonical oriented HNF basis."""
    alpha, beta = i.basis_elements()
    n = i.norm()
    a = alpha.norm() / n
    b = -(alpha * beta.conj()).trace() / n
    c = beta.norm() / n
    assert a.denominator == b.denominator == c.denominator == 1
    f = BinaryForm(int(a), int(b), int(c))
    assert f.disc == i.field.disc, "ideal does not have maximal-order multiplier ring"
    assert f.is_primitive()
    return f


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a x + b y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _compose_forms(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Dirichlet composition of primitive forms of one discriminant, a > 0.

    With e = gcd(a1, a2, (b1+b2)/2) = u a1 + v a2 + w (b1+b2)/2, the form
    (a1 a2/e^2, B, *) with B = (u a1 b2 + v a2 b1 + w (b1 b2 + D)/2)/e mod
    2 a1 a2/e^2 lies in the product class; under (a, b, c) -> [a, (-b+sqrt(D))/2]
    it is the product of the two ideals (Cox, Primes of the form x^2+ny^2,
    Lemma 3.2 and Thm. 7.7; Cohen, GTM 138, Alg. 5.4.7).  Not reduced.
    """
    D = f.disc
    a1, b1, a2, b2 = f.a, f.b, g.a, g.b
    g1, x, y = _xgcd(a1, a2)
    e, s, w = _xgcd(g1, (b1 + b2) // 2)
    u, v = s * x, s * y
    a3 = a1 * a2 // (e * e)
    b3 = ((u * a1 * b2 + v * a2 * b1 + w * ((b1 * b2 + D) // 2)) // e) % (2 * a3)
    return BinaryForm(a3, b3, (b3 * b3 - D) // (4 * a3))


class ClassGroup:
    """Form class group of a fundamental discriminant, wide or narrow."""

    def __init__(self, disc: int, narrow: bool):
        if not is_fundamental_discriminant(disc):
            raise ValueError(f"{disc} is not a fundamental discriminant")
        self.disc = disc
        self.narrow = narrow
        self.field = QuadField.from_disc(disc)
        forms = reduced_forms(disc)
        if disc < 0:
            self._proper_rep = {f: f for f in forms}
            proper_reps = sorted(forms)
        else:
            self._proper_rep = {}
            proper_reps = []
            seen = set()
            for f in forms:
                if f in seen:
                    continue
                cyc = _cycle(f, disc)
                rep = min(cyc)
                proper_reps.append(rep)
                for g in cyc:
                    seen.add(g)
                    self._proper_rep[g] = rep
            proper_reps.sort()
        self._proper_elements = tuple(proper_reps)
        # class of the principal ideal (sqrt(d)); trivial unless the fundamental
        # unit has norm +1 (then it generates the narrow-to-wide kernel)
        if disc > 0:
            sq = QuadIdeal.principal(self.field.sqrt_gen())
            self._kappa = self._proper_class(_ideal_to_form(sq))
        else:
            self._kappa = self._proper_class(principal_form(disc))
        if narrow or disc < 0 or self._kappa == self._proper_class(principal_form(disc)):
            self._coset = {f: f for f in self._proper_elements}
        else:
            self._coset = {}
            for f in self._proper_elements:
                twin = self._proper_compose(f, self._kappa)
                self._coset[f] = min(f, twin)
        self.elements = tuple(sorted(set(self._coset.values())))
        self.identity = self._canonical(principal_form(disc))
        self._divisors = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def _proper_class(self, f: BinaryForm) -> BinaryForm:
        if f.disc != self.disc:
            raise ValueError("form has the wrong discriminant")
        if self.disc < 0:
            red = _reduce_definite(f)
        else:
            red = _reduce_indefinite(f, self.disc)
        return self._proper_rep[red]

    def _positive_in_cycle(self, f: BinaryForm) -> BinaryForm:
        if f.a > 0:
            return f
        g = _rho_step(f, self.disc)  # leading coefficients alternate in sign
        assert g.a > 0
        return g

    def _proper_compose(self, f: BinaryForm, g: BinaryForm) -> BinaryForm:
        if self.disc > 0:
            f, g = self._positive_in_cycle(f), self._positive_in_cycle(g)
        return self._proper_class(_compose_forms(f, g))

    def _canonical(self, f: BinaryForm) -> BinaryForm:
        return self._coset[self._proper_class(f)]

    def mul(self, f: BinaryForm, g: BinaryForm) -> BinaryForm:
        if f not in self._coset or g not in self._coset:
            raise ValueError("operands must be canonical representatives")
        return self._coset[self._proper_compose(f, g)]

    def inverse(self, f: BinaryForm) -> BinaryForm:
        return self._canonical(f.inverse_form())

    def element_order(self, f: BinaryForm) -> int:
        """Order of f by walking its powers: ord(f) - 1 compositions."""
        n, g = 1, f
        while g != self.identity:
            g = self.mul(g, f)
            n += 1
            if n > self.order:
                raise AssertionError("element order exceeds the group order")
        return n

    def elementary_divisors(self) -> tuple[int, ...]:
        """Invariant factors d1 | d2 | ... with product the group order.

        Counted from the element orders, at sum(ord(g) - 1) compositions.  For
        each prime power l^e exactly dividing h, the elements of order
        dividing l^k number l^(r_1 + ... + r_k), where r_k is the count of
        cyclic l-primary factors of order at least l^k; the j-th largest
        l-exponent is #{k : r_k >= j}.
        """
        if self._divisors is None:
            orders = [self.element_order(f) for f in self.elements]
            powers = []
            for ell, e in factor(self.order).factors:
                logs = [0]  # logs[k] = r_1 + ... + r_k
                for k in range(1, e + 1):
                    count = sum(1 for n in orders if ell ** k % n == 0)
                    logs.append(valuation(count, ell))
                    assert count == ell ** logs[-1], "l-torsion count is not a power of l"
                assert logs[-1] == e, "l-torsion does not have the l-part of h"
                ranks = [b - a for a, b in zip(logs, logs[1:])]
                powers += [ell ** sum(1 for r in ranks if r >= j)
                           for j in range(1, ranks[0] + 1)]
            self._divisors = invariant_factors(powers)
        return self._divisors

    def to_json(self) -> dict:
        return {
            "disc": str(self.disc),
            "narrow": self.narrow,
            "order": str(self.order),
            "elementary_divisors": [str(d) for d in self.elementary_divisors()],
            "forms": [[str(f.a), str(f.b), str(f.c)] for f in self.elements],
        }


@lru_cache(maxsize=None)
def class_group(disc: int, narrow: bool = False) -> ClassGroup:
    """Ideal class group of the fundamental discriminant, via reduced forms."""
    return ClassGroup(disc, narrow)


def ideal_class(i: QuadIdeal, group: ClassGroup) -> BinaryForm:
    """Class of a fractional ideal as a canonical form representative."""
    if i.field.disc != group.disc:
        raise ValueError("ideal and group discriminant mismatch")
    return group._canonical(_ideal_to_form(i))


def prime_ideals_above(field: QuadField, p: int) -> list[QuadIdeal]:
    """Prime ideals of the maximal order over p (one if inert or ramified, two if split)."""
    D = field.disc
    sym = kronecker(D, p)
    if sym == -1:
        return [QuadIdeal.principal(field.element(p))]
    out = []
    for b in range(2 * p):
        if (b * b - D) % (4 * p) == 0:
            f = BinaryForm(p, b, (b * b - D) // (4 * p))
            i = _form_to_ideal(field, f)
            if i not in out:
                out.append(i)
    assert out, "no form representative found over a non-inert prime"
    if sym == 0:
        return out[:1]
    seen = []
    for i in out:
        if all(i.lattice != j.lattice for j in seen):
            seen.append(i)
    return seen[:2]


@dataclass(frozen=True)
class QuadModule:
    """Finitely generated torsion-free module J_1 + ... + J_n over the maximal order."""

    field: QuadField
    summands: tuple[QuadIdeal, ...]

    def __post_init__(self):
        assert all(j.field == self.field for j in self.summands)
        if not self.summands:
            raise ValueError("module requires at least one summand")

    @property
    def rank(self) -> int:
        return len(self.summands)


def steinitz_class(m: QuadModule, group: ClassGroup) -> BinaryForm:
    """Class of the product of the summands; classifies m together with its rank."""
    if group.narrow:
        raise ValueError("steinitz classification uses the wide class group")
    prod = m.summands[0]
    for j in m.summands[1:]:
        prod = prod * j
    return ideal_class(prod, group)


def modules_isomorphic(m1: QuadModule, m2: QuadModule) -> bool:
    """Module isomorphism test: equal rank and equal Steinitz class."""
    if m1.field != m2.field:
        raise ValueError("modules over different fields")
    if m1.rank != m2.rank:
        return False
    g = class_group(m1.field.disc, False)
    return steinitz_class(m1, g) == steinitz_class(m2, g)
