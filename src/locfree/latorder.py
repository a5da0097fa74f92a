"""Z-orders and right ideals in rational quaternion algebras.

Orders are full rank-4 lattices in coordinates (1, i, j, k) that contain 1 and
are closed under multiplication; the reduced discriminant d satisfies
det(trd(e_i e_j)) = +-d^2 on any basis, an integer determinant whose root is
an isqrt.  Maximal orders of the algebras that b_p_infinity returns come from
closed-form integer rows over one denominator (Pizer, J. Algebra 64, 1980);
every other algebra gets one by saturating an obvious starting order prime by
prime: first the radical-idealizer step, then, where that stalls at a split
prime, the idealizers of the lattices xO + qO for zero divisors x mod q.
Those lattices come from one projective scan of O/qO, which also yields the
norm-q right ideals of a maximal order.  The radical of O/qO is the image
of the x in O with trd(xO) = 0 and nrd(x) = 0 (mod q), found by linear
algebra: the first condition is the kernel of the trace form, and on that
kernel nrd is linear mod q, because the cross term trd(x conj(y)) of
nrd(x + y) vanishes there and c^2 = c mod 2 (for odd q,
trd(x^2) = trd(x)^2 - 2 nrd(x) already forces nrd(x) = 0).  Right ideals,
their left orders, isomorphism testing by short-vector search, and
breadth-first enumeration of the ideal class set all live here.

A norm form is a GramMatrix: an integer matrix over one denominator, filled
straight from the integer rows of a lattice; on a right ideal I it is the
integral form f(x) = nrd(x)/nrd(I).  Short vectors come from one
all-integer LLL reduction of that matrix (Cohen, GTM 138, Alg. 2.6.7), whose
leading minors d and scaled Gram-Schmidt coefficients lam are integers; a
Fincke-Pohst descent runs on those integers in the reduced basis and maps
each vector back, so no Fraction arithmetic and no skewed basis slows the
search.  Each vector comes with the integer numerator of its value.

The class set search keys every ideal I by the first THETA_TERMS theta
coefficients of nrd(x)/nrd(I) on I.  That key is a class invariant, because
left multiplication by y maps I onto yI and scales nrd(x) and nrd(I) alike
by nrd(y), so isomorphism is only tested between ideals with equal keys.
The search stops when the classes found reach Eichler's mass, sum of
1/|O_L(I)^x| = prod_{p | disc} (p - 1) / 24: the classes found are pairwise
non-isomorphic and each missing class would add a positive term, so the set
is then complete.

Lattice products run on the integer rows of Lattice (den, rows).  With
a = an/ad and b = bn/bd, ad bd times the product of two integer quaternions
is integral, with structure constants ad bd, an bd, bn ad and an bn, so the
order checks, ideal products, isomorphism witnesses, the zero-divisor scan,
the radical and the reduced norm Gram matrices need no Fraction quaternion.
Only the idealizer step of saturation still multiplies Fraction quaternions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from functools import cached_property
from math import gcd, isqrt, lcm

from .linalg import Lattice, int_rows, mat_det, mat_inv, mat_mul, solve_mod_lattice
from .numtheory import (
    PRIMALITY_BOUND, factor, fraction_str, is_prime, kronecker, primes,
    sqrt_fraction, squarefree_part, valuation,
)
from .quatalg import Quaternion, QuaternionAlgebra

__all__ = [
    "GramMatrix", "QuatOrder", "RightIdeal", "IsoResult",
    "short_vectors", "maximal_order", "right_ideals_of_norm",
    "isomorphic_ideals", "reduce_ideal", "class_set",
    "eichler_class_number", "ideal_mul",
]


def _rmul_matrix(alg: QuaternionAlgebra, q: Quaternion):
    """Matrix M with vec(x*q) = vec(x) M for row vectors x."""
    return [list((e * q).coords) for e in alg.basis()]


def _lmul_matrix(alg: QuaternionAlgebra, q: Quaternion):
    """Matrix M with vec(q*x) = vec(x) M for row vectors x."""
    return [list((q * e).coords) for e in alg.basis()]


def _structure_constants(alg: QuaternionAlgebra) -> tuple[int, int, int, int]:
    """(ad bd, an bd, bn ad, an bn) for a = an/ad and b = bn/bd.

    ad bd times a product of integer quaternions has integer coordinates,
    with these four numbers as its coefficients.
    """
    a, b = alg.a, alg.b
    return (a.denominator * b.denominator, a.numerator * b.denominator,
            b.numerator * a.denominator, a.numerator * b.numerator)


def _mul_rows(alg: QuaternionAlgebra, du: int, us, dv: int, vs):
    """All products (u/du)(v/dv), u-major, as integer rows over du dv ad bd.

    us and vs are integer rows (t, x, y, z); the coefficients are the
    structure constants c = ad bd, ca = an bd, cb = bn ad and cab = an bn.
    """
    c, ca, cb, cab = _structure_constants(alg)
    out = []
    for t1, x1, y1, z1 in us:
        for t2, x2, y2, z2 in vs:
            out.append((
                c * t1 * t2 + ca * x1 * x2 + cb * y1 * y2 - cab * z1 * z2,
                c * (t1 * x2 + x1 * t2) - cb * (y1 * z2 - y2 * z1),
                c * (t1 * y2 + y1 * t2) + ca * (x1 * z2 - x2 * z1),
                c * (t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2),
            ))
    return du * dv * c, out


def _lattice_product(alg: QuaternionAlgebra, a: Lattice, b: Lattice) -> Lattice:
    return Lattice.from_ints(*_mul_rows(alg, a.den, a.rows, b.den, b.rows))


def _conj_rows(rows):
    """Integer rows of the conjugates: the i, j and k columns negated."""
    return [(t, -x, -y, -z) for t, x, y, z in rows]


def _combine(v, rows) -> list[int]:
    """The integer row sum_s v_s rows_s."""
    return [sum(c * r[t] for c, r in zip(v, rows)) for t in range(len(rows[0]))]


def _divide(den: int, rows, r: Fraction):
    """(den r_n, r_d rows) for r = r_n / r_d: the rows / den divided by r."""
    return den * r.numerator, [[r.denominator * x for x in row] for row in rows]


def _constrained_lattice(bound: Lattice, conditions) -> Lattice:
    """{x in bound : x M lies in target, for every (M, target) condition}."""
    rows = [list(r) for r in bound.basis()]
    for m, target in conditions:
        d = mat_mul(mat_mul(rows, m), mat_inv(target.basis()))
        ell = lcm(*[x.denominator for row in d for x in row])
        a = [[int(x * ell) for x in row] for row in d]
        z = solve_mod_lattice(a, ell)
        rows = mat_mul([[Fraction(v) for v in row] for row in z], rows)
    return Lattice(rows)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric Gram matrix G = ints / den of a quadratic form.

    ints is an integer matrix and den > 0; numerator(v) = v ints v^T is the
    integer den v G v^T.
    """

    ints: tuple[tuple[int, ...], ...]
    den: int

    def __post_init__(self):
        n = len(self.ints)
        assert self.den > 0 and all(len(r) == n for r in self.ints)
        assert all(self.ints[i][j] == self.ints[j][i]
                   for i in range(n) for j in range(i))

    @classmethod
    def from_nrd(cls, alg: QuaternionAlgebra, rows, den: int, scale) -> "GramMatrix":
        """Gram of the scaled norm form: v G v^T = nrd(sum v_i rows_i / den) / scale.

        ad bd nrd(t + xi + yj + zk) = ad bd t^2 - an bd x^2 - bn ad y^2
        + an bn z^2, so for scale = n/m the Gram matrix is B diag(ad bd,
        -an bd, -bn ad, an bn) B^T m / (den^2 ad bd n) for the integer rows B.
        """
        c, ca, cb, cab = _structure_constants(alg)
        w = [scale.denominator * x for x in (c, -ca, -cb, cab)]
        scaled = [[wk * x for wk, x in zip(w, r)] for r in rows]
        n = len(rows)
        ints = [[0] * n for _ in range(n)]
        for s in range(n):
            for t in range(s, n):
                ints[s][t] = ints[t][s] = sum(
                    x * y for x, y in zip(scaled[s], rows[t]))
        d = den * den * c * scale.numerator
        # lowest terms, so that the LLL and the descent see small integers
        g = gcd(d, *(x for r in ints for x in r))
        return cls(tuple(tuple(x // g for x in r) for r in ints), d // g)

    @property
    def n(self) -> int:
        return len(self.ints)

    @cached_property
    def _reduction(self):
        return _lll(self.ints)

    def numerator(self, v) -> int:
        """v G v^T times den."""
        return sum(x * sum(a * y for a, y in zip(row, v))
                   for x, row in zip(v, self.ints))


def _lll(a):
    """Integral LLL with delta = 3/4 on a positive definite integer Gram a.

    Cohen, GTM 138, Alg. 2.6.7 (after Lenstra-Lenstra-Lovasz 1982).  Returns
    (h, d, lam): h is unimodular and its rows are the reduced basis in the
    coordinates of a; d[k] is the leading k x k minor of h a h^T (d[0] = 1);
    for j < k, lam[k][j] = d[j + 1] mu_kj, where mu_kj are the Gram-Schmidt
    coefficients of h a h^T.  Then d[l + 1] / d[l] is the squared length of
    the l-th Gram-Schmidt vector, and every number here is an integer.  Only
    the rows of h change: row k's products with the other rows are read off
    a and h, because row k is still the k-th unit vector when Gram-Schmidt
    first reaches it.  Raises ValueError once some d[k] <= 0.
    """
    n = len(a)
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(a[k], h[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise ValueError("matrix is not positive definite")
            else:
                d[k + 1] = u

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        h[k] = [x - q * y for x, y in zip(h[k], h[l])]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k, top):
        h[k], h[k - 1] = h[k - 1], h[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, top + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k + 1]
        d[k] = b

    gram_schmidt(0)
    k, top = 1, 0
    while k < n:
        if k > top:
            top = k
            gram_schmidt(k)
        size_reduce(k, k - 1)
        m = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * m * m:
            swap(k, top)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return h, d, lam


def short_vectors(g: GramMatrix, bound) -> list[tuple[int, tuple[int, ...]]]:
    """(numerator(v), v) for all nonzero integer v with v G v^T <= bound.

    Sorted by v[::-1].  Exact Fincke-Pohst enumeration, run on integers in
    the coordinates x of the LLL-reduced basis h of _lll: with T_l =
    d[l+1] x_l + sum_{j>l} lam[j][l] x_j, den v G v^T = sum_l T_l^2 /
    (d[l] d[l+1]).  Over W = lcm of the d[l] d[l+1], level l takes every
    x_l with w_l T_l^2 <= R, w_l = W / (d[l] d[l+1]), where R starts at
    R_0 = floor(bound den W) and drops by w_l T_l^2 per level, so at level
    0 the numerator is (R_0 - R + w_0 T_0^2) / W.  Each x maps back to
    v = x h.  Rejects indefinite (or semidefinite) input.
    """
    h, d, lam = g._reduction
    n = g.n
    top = lcm(*(d[l] * d[l + 1] for l in range(n)))
    weights = [top // (d[l] * d[l + 1]) for l in range(n)]
    tails = [[lam[j][l] for j in range(l + 1, n)] for l in range(n)]
    start = Fraction(bound) * g.den * top
    start = start.numerator // start.denominator
    out = []
    coords = [0] * n

    def descend(level: int, remaining: int, partial):
        c = sum(t * x for t, x in zip(tails[level], coords[level + 1:]))
        s = isqrt(remaining // weights[level])
        m = d[level + 1]
        xs = range(-((s + c) // m), (s - c) // m + 1)
        row = h[level]
        if level == 0:
            spent, w = start - remaining, weights[0]
            for x in xs:
                v = tuple(p + x * r for p, r in zip(partial, row))
                if any(v):
                    t = m * x + c
                    out.append(((spent + w * t * t) // top, v))
        else:
            for x in xs:
                coords[level] = x
                t = m * x + c
                descend(level - 1, remaining - weights[level] * t * t,
                        [p + x * r for p, r in zip(partial, row)])
        coords[level] = 0

    if start >= 0:
        descend(n - 1, start, [0] * n)
    out.sort(key=lambda e: e[1][::-1])
    return out


class QuatOrder:
    """Order in a rational quaternion algebra: unital, multiplicatively closed."""

    def __init__(self, algebra: QuaternionAlgebra, lattice: Lattice):
        assert lattice.n == 4
        self.algebra = algebra
        self.lattice = lattice
        if not lattice.contains((1, 0, 0, 0)):
            raise ValueError("an order must contain 1")
        den, prods = _mul_rows(algebra, lattice.den, lattice.rows,
                               lattice.den, lattice.rows)
        if not all(lattice.contains(r, den) for r in prods):
            raise ValueError("lattice is not closed under multiplication")
        # trd(b_s b_t) is twice the first coordinate, an integer on an order;
        # the saturation step reads this trace form mod q
        twice = [2 * r[0] for r in prods]
        assert all(x % den == 0 for x in twice)
        self.trace_form = tuple(tuple(x // den for x in twice[4 * s:4 * s + 4])
                                for s in range(4))
        det = mat_det(self.trace_form)
        assert det != 0
        self.disc_sign = 1 if det > 0 else -1
        root = isqrt(abs(det))
        assert root * root == abs(det), \
            "trace pairing determinant must be a perfect square"
        self.reduced_disc = root

    @property
    def is_maximal(self) -> bool:
        return self.reduced_disc == self.algebra.reduced_disc

    def contains(self, q: Quaternion) -> bool:
        return self.lattice.contains(q.coords)

    def nrd_gram(self) -> GramMatrix:
        return GramMatrix.from_nrd(self.algebra, self.lattice.rows, self.lattice.den, 1)

    def unit_group_order(self) -> int:
        """Number of units; finite (hence meaningful) only for definite algebras."""
        if not self.algebra.is_definite:
            raise ValueError("unit group is infinite for indefinite algebras")
        return len(short_vectors(self.nrd_gram(), 1))

    def __eq__(self, other):
        return (isinstance(other, QuatOrder)
                and self.algebra == other.algebra
                and self.lattice == other.lattice)

    def __hash__(self):
        return hash((self.algebra, self.lattice))

    def __repr__(self):
        return f"QuatOrder(disc={self.reduced_disc})"

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.to_json(),
            "basis": [[fraction_str(x) for x in row] for row in self.lattice.basis()],
            "reduced_disc": str(self.reduced_disc),
            "maximal": self.is_maximal,
        }


class RightIdeal:
    """Full lattice I with I * O inside I, for an order O; nrd(I)^2 = [O : I]."""

    def __init__(self, order: QuatOrder, lattice: Lattice):
        assert lattice.n == 4
        self.order = order
        self.lattice = lattice
        o = order.lattice
        den, prods = _mul_rows(order.algebra, lattice.den, lattice.rows,
                               o.den, o.rows)
        if not all(lattice.contains(r, den) for r in prods):
            raise ValueError("lattice is not a right module over the order")
        ratio = lattice.covolume() / o.covolume()
        root = sqrt_fraction(ratio)
        assert root is not None, "lattice index must be a perfect square"
        self.nrd = root
        self._left_order = None

    @classmethod
    def unit_ideal(cls, order: QuatOrder) -> "RightIdeal":
        return cls(order, order.lattice)

    @classmethod
    def from_generators(cls, order: QuatOrder, gens) -> "RightIdeal":
        dg, rows = int_rows([g.coords for g in gens])
        o = order.lattice
        return cls(order, Lattice.from_ints(
            *_mul_rows(order.algebra, dg, rows, o.den, o.rows)))

    @classmethod
    def principal(cls, order: QuatOrder, x: Quaternion) -> "RightIdeal":
        if x.is_zero():
            raise ValueError("principal ideal requires a nonzero generator")
        return cls.from_generators(order, [x])

    def left_order(self) -> QuatOrder:
        """O_L(I) = (1/nrd I) I conj(I); valid since the right order is maximal."""
        if self._left_order is None:
            assert self.order.is_maximal
            alg = self.order.algebra
            lat = self.lattice
            den, rows = _mul_rows(alg, lat.den, lat.rows,
                                  lat.den, _conj_rows(lat.rows))
            self._left_order = QuatOrder(
                alg, Lattice.from_ints(*_divide(den, rows, self.nrd)))
            assert self._left_order.reduced_disc == self.order.reduced_disc
        return self._left_order

    def nrd_gram(self) -> GramMatrix:
        """Gram of f(x) = nrd(x)/nrd(I), an integral form on I."""
        return GramMatrix.from_nrd(self.order.algebra, self.lattice.rows,
                                   self.lattice.den, self.nrd)

    def is_integral(self) -> bool:
        return self.order.lattice.contains_lattice(self.lattice)

    def __eq__(self, other):
        return (isinstance(other, RightIdeal)
                and self.order == other.order
                and self.lattice == other.lattice)

    def __hash__(self):
        return hash((self.order, self.lattice))

    def __repr__(self):
        return f"RightIdeal(nrd={self.nrd})"

    def to_json(self) -> dict:
        return {
            "basis": [[fraction_str(x) for x in row] for row in self.lattice.basis()],
            "nrd": fraction_str(self.nrd),
        }


def ideal_mul(i: RightIdeal, j: RightIdeal) -> RightIdeal:
    """Product lattice I*J; needs right order of I = left order of J."""
    if i.order.algebra != j.order.algebra:
        raise ValueError("ideals live in different algebras")
    if i.order.lattice != j.left_order().lattice:
        raise ValueError("right order of the first factor must equal "
                         "the left order of the second")
    out = RightIdeal(j.order, _lattice_product(i.order.algebra,
                                               i.lattice, j.lattice))
    assert out.nrd == i.nrd * j.nrd
    return out


# --- maximal orders: closed forms, else prime-wise saturation ---

def _starting_order(b: QuaternionAlgebra) -> QuatOrder:
    """Z<1, s i, t j, st k> with s = ad/fa and t = bd/fb.

    fa^2 and fb^2 are the largest squares dividing an ad and bn bd, so
    (s i)^2 = an ad / fa^2 and (t j)^2 = bn bd / fb^2 are integers.  The
    rows are integers over the denominator fa fb.
    """
    ad, bd = b.a.denominator, b.b.denominator
    _, fa = squarefree_part(b.a.numerator * ad)
    _, fb = squarefree_part(b.b.numerator * bd)
    f = fa * fb
    return QuatOrder(b, Lattice.from_ints(f, [(f, 0, 0, 0), (0, ad * fb, 0, 0),
                                              (0, 0, bd * fa, 0), (0, 0, 0, ad * bd)]))


def _radical(o: QuatOrder, q: int) -> Lattice:
    """The lattice J with J/qO the radical of O/qO.

    J is the set of x in O with trd(xy) = 0 (mod q) for every y in O and
    nrd(x) = 0 (mod q).  Both conditions are linear: on the trace kernel the
    cross term trd(x conj(y)) of nrd(x + y) vanishes mod q, and for odd q
    trd(x^2) = trd(x)^2 - 2 nrd(x) already forces nrd(x) = 0.  J is a
    two-sided ideal whose elements square into qO, since
    x^2 = trd(x) x - nrd(x), and every nilpotent element of O/qO has
    trd = nrd = 0 for the same reason, so J/qO is exactly the radical.
    Two congruence solves find it, the same way for every prime q.
    """
    base = o.lattice
    kernel = solve_mod_lattice(o.trace_form, q)
    gram = o.nrd_gram()
    norms = [[gram.numerator(k) // gram.den] for k in kernel]
    rows = [_combine(k, base.rows) for k in kernel]
    return Lattice.from_ints(base.den, [_combine(z, rows)
                                        for z in solve_mod_lattice(norms, q)])


def _zero_divisor_lattices(o: QuatOrder, q: int):
    """Each distinct lattice xO + qO for x in O, x not in qO, nrd(x) = 0 mod q.

    The lattice only depends on the line through x mod q, so x = sum c_s b_s
    runs over the (q^4 - 1)/(q - 1) projective representatives c of O/qO,
    first nonzero coordinate 1, in lexicographic order.  Lattices come
    lazily, first occurrence first, so callers can stop at the first one
    that serves.
    """
    base = o.lattice
    gram = o.nrd_gram()
    modulus = q * gram.den
    seen = set()
    for lead in (3, 2, 1, 0):
        for tail in product(range(q), repeat=3 - lead):
            c = (0,) * lead + (1,) + tail
            if gram.numerator(c) % modulus:
                continue
            den, rows = _mul_rows(o.algebra, base.den, [_combine(c, base.rows)],
                                  base.den, base.rows)
            s = q * (den // base.den)
            lat = Lattice.from_ints(
                den, rows + [[s * x for x in r] for r in base.rows])
            if lat not in seen:
                seen.add(lat)
                yield lat


def _idealizer_orders(o: QuatOrder, ideal: Lattice, q: int):
    """Left then right idealizer of a lattice squeezed between qO and O."""
    alg = o.algebra
    bound = ideal.scale(Fraction(1, q))
    gens = [alg.quaternion(*v) for v in ideal.basis()]
    left = _constrained_lattice(
        bound, [(_rmul_matrix(alg, g), ideal) for g in gens])
    right = _constrained_lattice(
        bound, [(_lmul_matrix(alg, g), ideal) for g in gens])
    return [QuatOrder(alg, lat) for lat in (left, right)]


def _saturate_step(o: QuatOrder, q: int) -> QuatOrder | None:
    cur = valuation(o.reduced_disc, q)
    for cand in _idealizer_orders(o, _radical(o, q), q):
        # the radical is two-sided, so its idealizers contain O
        assert cand.lattice.contains_lattice(o.lattice)
        if valuation(cand.reduced_disc, q) < cur:
            return cand
    # Radical idealizers stall exactly on hereditary orders.  At a split q
    # the order is then Eichler of level q, and some zero divisor x gives a
    # lattice xO + qO with a strictly larger idealizer.
    for ideal in _zero_divisor_lattices(o, q):
        for cand in _idealizer_orders(o, ideal, q):
            if valuation(cand.reduced_disc, q) < cur:
                return cand
    return None


def _saturated_order(b: QuaternionAlgebra) -> QuatOrder:
    """A maximal order of b by prime-wise saturation of the starting order."""
    o = _starting_order(b)
    for p, _ in factor(o.reduced_disc).factors:
        goal = valuation(b.reduced_disc, p)
        while valuation(o.reduced_disc, p) > goal:
            nxt = _saturate_step(o, p)
            assert nxt is not None, f"saturation stalled at {p}"
            o = nxt
    return o


def _is_certified_prime(n: int) -> bool:
    """is_prime, but False rather than an error above its certified bound."""
    return n <= PRIMALITY_BOUND and is_prime(n)


def _closed_form_generators(b: QuaternionAlgebra):
    """(den, integer rows) generating a maximal order of b, in (1, i, j, k).

    Known for the presentations that b_p_infinity returns (Pizer 1980); None
    for any other algebra.  In the (-q,-p) case c is the smallest c in [0, q)
    with q | c^2 p + 1, which gives the same lattice as saturation.
    """
    if b.a.denominator != 1 or b.b.denominator != 1:
        return None
    a, p = b.a.numerator, -b.b.numerator
    if a == -1 and p == 1:
        return 2, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)]
    if not _is_certified_prime(p):
        return None
    if a == -1 and p % 4 == 3:
        return 2, [(2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)]
    if a == -2 and p % 8 == 5:
        return 4, [(4, 0, 0, 0), (2, 0, 2, 2), (0, 1, 2, 1), (0, 0, 0, 4)]
    q = -a
    if (p % 8 == 1 and q % 4 == 3 and _is_certified_prime(q)
            and kronecker(p, q) == -1):
        # -1/p is a square mod q, and q = 3 mod 4 gives its roots directly
        r = pow(-pow(p, -1, q), (q + 1) // 4, q)
        c = min(r, q - r)
        return 2 * q, [(2 * q, 0, 0, 0), (q, q, 0, 0), (0, 0, q, q),
                       (0, 2, 0, 2 * c), (0, 0, 0, 2 * q)]
    return None


def maximal_order(b: QuaternionAlgebra) -> QuatOrder:
    """A maximal order of a rational quaternion algebra.

    The algebras that b_p_infinity returns get a closed-form basis; every
    other algebra, or a closed form whose discriminant is not the algebra's,
    goes through prime-wise saturation.  The result is verified: it is
    closed under multiplication and its reduced discriminant equals the
    product of the finite ramified primes of the algebra.
    """
    target = b.reduced_disc
    gens = _closed_form_generators(b)
    o = QuatOrder(b, Lattice.from_ints(*gens)) if gens is not None else None
    if o is None or o.reduced_disc != target:
        o = _saturated_order(b)
    assert o.reduced_disc == target, "maximal order verification failed"
    return o


def right_ideals_of_norm(o: QuatOrder, q: int) -> list[RightIdeal]:
    """The q+1 integral right ideals of reduced norm q in a maximal order.

    Requires q prime and unramified (q does not divide the reduced
    discriminant).  Then O/qO = M_2(F_q), each ideal is xO + qO for a zero
    divisor x, and the ideals correspond to the projective line over F_q.
    The scan builds one lattice for each of the (q + 1)^2 projective zero
    divisors.
    """
    if not is_prime(q):
        raise ValueError("norm must be prime")
    if o.reduced_disc % q == 0:
        raise ValueError("prime divides the reduced discriminant (ramified)")
    if not o.is_maximal:
        raise ValueError("order must be maximal")
    target_covol = o.lattice.covolume() * q * q
    ideals = [RightIdeal(o, lat) for lat in _zero_divisor_lattices(o, q)
              if lat.covolume() == target_covol]
    out = sorted(ideals, key=lambda i: i.lattice.key())
    assert len(out) == q + 1, f"expected {q + 1} ideals, found {len(out)}"
    return out


@dataclass(frozen=True)
class IsoResult:
    """Outcome of an ideal isomorphism test, with the witness when it exists."""

    isomorphic: bool
    witness: Quaternion | None

    def __bool__(self):
        return self.isomorphic


def isomorphic_ideals(i: RightIdeal, j: RightIdeal) -> IsoResult:
    """Decide J = xI for some invertible x; definite maximal orders only.

    Searches y in J conj(I) with nrd(y) / (nrd(I) nrd(J)) = 1; then
    x = y/nrd(I), and x I = J is re-checked by lattice equality.
    """
    if i.order != j.order:
        raise ValueError("ideals must share an order")
    if not i.order.algebra.is_definite:
        raise ValueError("isomorphism search requires a definite algebra")
    if not i.order.is_maximal:
        raise ValueError("order must be maximal")
    alg = i.order.algebra
    il, jl = i.lattice, j.lattice
    c = Lattice.from_ints(*_mul_rows(alg, jl.den, jl.rows,
                                     il.den, _conj_rows(il.rows)))
    gram = GramMatrix.from_nrd(alg, c.rows, c.den, i.nrd * j.nrd)
    for num, v in short_vectors(gram, 1):
        if num != gram.den:
            continue
        # x = y / nrd(I) with y = sum v_s c_s, as an integer row over dx
        dx, (x,) = _divide(c.den, [_combine(v, c.rows)], i.nrd)
        moved = Lattice.from_ints(*_mul_rows(alg, dx, [x], il.den, il.rows))
        if moved == jl:
            return IsoResult(True, alg.quaternion(*(Fraction(t, dx) for t in x)))
    return IsoResult(False, None)


def reduce_ideal(i: RightIdeal) -> RightIdeal:
    """Isomorphic ideal of small norm: apply conj(y)/nrd(I) for a shortest y.

    The first LLL basis vector is in I, so its value d[1] / den bounds the
    minimum and one enumeration finds every shortest y.
    """
    gram = i.nrd_gram()
    first = gram._reduction[1][1]
    _, best = min(short_vectors(gram, Fraction(first, gram.den)))
    lat = i.lattice
    # x = conj(y) / nrd(I) with y = sum best_s b_s, as an integer row over dx
    dx, (x,) = _divide(lat.den, _conj_rows([_combine(best, lat.rows)]), i.nrd)
    return RightIdeal(i.order, Lattice.from_ints(
        *_mul_rows(i.order.algebra, dx, [x], lat.den, lat.rows)))


THETA_TERMS = 16


def _theta_key(i: RightIdeal) -> tuple[int, ...]:
    """Counts of x in I with nrd(x)/nrd(I) = n, for n = 1..THETA_TERMS.

    These are the first theta coefficients of the normalized norm form of I.
    They are a class invariant: x -> yx maps I onto yI and multiplies both
    nrd(x) and nrd(I) by nrd(y).
    """
    gram = i.nrd_gram()
    counts = [0] * THETA_TERMS
    for num, _ in short_vectors(gram, THETA_TERMS):
        counts[num // gram.den - 1] += 1
    return tuple(counts)


def _eichler_mass(o: QuatOrder) -> Fraction:
    """Eichler's mass: prod over p | disc of (p - 1), divided by 24."""
    mass = Fraction(1, 24)
    for p, _ in factor(o.reduced_disc).factors:
        mass *= p - 1
    return mass


def class_set(o: QuatOrder, neighbor_primes=None) -> list[RightIdeal]:
    """Right ideal classes of a definite maximal order, one reduced ideal each.

    Breadth-first closure under norm-q neighbors (q prime to the
    discriminant).  A candidate is compared by isomorphic_ideals only with
    the classes that share its theta key, which isomorphic ideals always do.
    The search stops once the classes found carry the whole mass: the sum
    of 1/|O_L(I)^x| over all classes is Eichler's mass, every class adds a
    positive term, and the classes found are pairwise non-isomorphic, so
    reaching the mass proves that no class is missing.
    """
    if not o.algebra.is_definite:
        raise ValueError("class set enumeration requires a definite algebra")
    if not o.is_maximal:
        raise ValueError("order must be maximal")
    if neighbor_primes is None:
        neighbor_primes = (next(q for q in primes() if o.reduced_disc % q),)
    for q in neighbor_primes:
        if o.reduced_disc % q == 0:
            raise ValueError("neighbor primes must not divide the discriminant")
    mass = _eichler_mass(o)
    unit = RightIdeal.unit_ideal(o)
    reps = [unit]
    found = Fraction(1, o.unit_group_order())
    if found == mass:
        return reps
    buckets = {_theta_key(unit): [unit]}
    frontier = list(reps)
    while frontier:
        new = []
        for i in frontier:
            left = i.left_order()
            for q in neighbor_primes:
                for k in right_ideals_of_norm(left, q):
                    cand = reduce_ideal(ideal_mul(k, i))
                    bucket = buckets.setdefault(_theta_key(cand), [])
                    if any(isomorphic_ideals(cand, r) for r in bucket):
                        continue
                    bucket.append(cand)
                    reps.append(cand)
                    new.append(cand)
                    found += Fraction(1, cand.left_order().unit_group_order())
                    if found >= mass:
                        if found > mass:
                            raise RuntimeError(
                                f"classes found exceed the mass {mass}")
                        return reps
        frontier = new
    raise RuntimeError(f"neighbor search ended at mass {found} of {mass}")


def eichler_class_number(p: int) -> int:
    """Class number of a maximal order in the algebra ramified at {p, inf}."""
    if not is_prime(p):
        raise ValueError("argument must be prime")
    # 12 h = (p - 1) + 4 (1 - (-3/p)) + 3 (1 - (-4/p))
    twelve_h = p - 1 + 4 * (1 - kronecker(-3, p)) + 3 * (1 - kronecker(-4, p))
    assert twelve_h % 12 == 0, "class number formula must be integral"
    return twelve_h // 12
