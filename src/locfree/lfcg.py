"""Locally free class groups of maximal orders in separable algebras.

A separable algebra is described by its simple factors: quaternion algebras
over Q given by a symbol (a, b), matrix algebras over Q or a quadratic field,
and quaternion algebras over a quadratic field given by ramification data.
The locally free class group of a maximal order depends only on the algebra
and equals a product of ray class groups of the centers, with ray conditions
exactly at the ramified real places.  Stable isomorphism of right ideals is
detected by the class of the reduced norm in that group.  group_law_check
realizes the group law on ideals: the product of two right ideals is one
lattice sum built from local generators of the factors at each prime
dividing the product of their norms.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .latorder import (
    QuatOrder,
    RightIdeal,
    _combine,
    eichler_class_number,
    maximal_order,
    short_vectors,
)
from .numtheory import factor, fraction_str, invariant_factors, is_prime
from .quadfield import (
    RATIONALS,
    ClassGroup,
    QuadField,
    QuadIdeal,
    class_group,
    ideal_class,
)
from .quatalg import Quaternion, b_p_infinity

__all__ = [
    "QuaternionFactor",
    "MatrixFactor",
    "RamifiedQuaternionFactor",
    "SeparableAlgebraSpec",
    "EichlerFactorReport",
    "EichlerReport",
    "eichler_condition",
    "RayFactorGroup",
    "RayClassGroup",
    "ray_class_group",
    "MaximalOrderDescriptor",
    "swan_class_group",
    "StableClass",
    "stable_class",
    "stably_isomorphic",
    "CancellationVerdict",
    "cancellation_check",
    "cancellation_table",
    "CANCEL_RANGE_LIMIT",
    "GroupLawWitness",
    "group_law_check",
    "spec_from_json",
]


def _is_rational_center(center) -> bool:
    return getattr(center, "is_rationals", False)


def _real_place_count(center) -> int:
    return center.real_places if isinstance(center, QuadField) else 1


def _center_json(center) -> dict:
    if _is_rational_center(center):
        return {"degree": 1, "disc": "1"}
    return {"degree": 2, "disc": str(center.disc)}


def _check_center(center) -> None:
    if not (_is_rational_center(center) or isinstance(center, QuadField)):
        raise ValueError("unsupported center: only Q and quadratic fields")


@dataclass(frozen=True)
class QuaternionFactor:
    """Quaternion factor (a, b | Q).  Quadratic centers take ramification data."""

    a: Fraction
    b: Fraction
    center: object = RATIONALS

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0 or self.b == 0:
            raise ValueError("quaternion symbol entries must be nonzero")
        if not _is_rational_center(self.center):
            raise ValueError(
                "symbol data is only supported over Q; "
                "describe quadratic-center factors by their ramified places"
            )

    @property
    def kind(self) -> str:
        return "quaternion"

    def real_ramified(self) -> frozenset:
        # the Hilbert symbol at the real place is -1 exactly when a, b < 0
        return frozenset({0} if self.a < 0 and self.b < 0 else set())

    def to_json(self) -> dict:
        return {
            "kind": "quaternion",
            "center": _center_json(self.center),
            "a": fraction_str(self.a),
            "b": fraction_str(self.b),
        }


@dataclass(frozen=True)
class MatrixFactor:
    """Matrix factor M_n over Q or a quadratic field; split everywhere."""

    degree: int
    center: object = RATIONALS

    def __post_init__(self):
        _check_center(self.center)
        if self.degree < 1:
            raise ValueError("matrix factor needs degree at least 1")

    @property
    def kind(self) -> str:
        return "matrix"

    def real_ramified(self) -> frozenset:
        return frozenset()

    def to_json(self) -> dict:
        return {
            "kind": "matrix",
            "center": _center_json(self.center),
            "degree": self.degree,
        }


@dataclass(frozen=True)
class RamifiedQuaternionFactor:
    """Quaternion factor given by its ramified places over the center.

    Finite places are labeled by the rational prime below them; real places
    by the index of the real embedding (0 for Q, 0 or 1 for a real quadratic
    field).  The total number of ramified places must be even.
    """

    finite: frozenset
    real: frozenset
    center: object = RATIONALS

    def __post_init__(self):
        _check_center(self.center)
        object.__setattr__(self, "finite", frozenset(int(p) for p in self.finite))
        object.__setattr__(self, "real", frozenset(int(e) for e in self.real))
        for p in self.finite:
            if not is_prime(p):
                raise ValueError(f"finite place label {p} is not prime")
        r = _real_place_count(self.center)
        if any(e < 0 or e >= r for e in self.real):
            raise ValueError("real ramification must name real places of the center")
        if (len(self.finite) + len(self.real)) % 2:
            raise ValueError("a quaternion algebra ramifies at an even number of places")

    @property
    def kind(self) -> str:
        return "ramified-quaternion"

    def real_ramified(self) -> frozenset:
        return self.real

    def to_json(self) -> dict:
        return {
            "kind": "ramified-quaternion",
            "center": _center_json(self.center),
            "finite": sorted(self.finite),
            "real": sorted(self.real),
        }


_FACTOR_KINDS = (QuaternionFactor, MatrixFactor, RamifiedQuaternionFactor)


@dataclass(frozen=True)
class SeparableAlgebraSpec:
    """A separable algebra as a nonempty tuple of simple factors."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("a separable algebra needs at least one factor")
        for f in self.factors:
            if not isinstance(f, _FACTOR_KINDS):
                raise ValueError(f"unsupported factor {f!r}")

    @classmethod
    def quaternion(cls, a, b) -> "SeparableAlgebraSpec":
        return cls((QuaternionFactor(Fraction(a), Fraction(b)),))

    @classmethod
    def matrix(cls, degree: int, center=RATIONALS) -> "SeparableAlgebraSpec":
        return cls((MatrixFactor(degree, center),))

    @classmethod
    def by_ramification(cls, finite, real, center=RATIONALS) -> "SeparableAlgebraSpec":
        return cls((RamifiedQuaternionFactor(frozenset(finite), frozenset(real), center),))

    def to_json(self) -> dict:
        return {"factors": [f.to_json() for f in self.factors]}


def _as_number(kind, value, key: str):
    """value read as kind (int or Fraction), or ValueError naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"factor field {key!r} is not a number: {value!r}")


def _number(entry: dict, key: str, kind, default=None):
    if key not in entry:
        if default is None:
            raise ValueError(f"{entry.get('kind')} factor needs {key!r}")
        return default
    return _as_number(kind, entry[key], key)


def _numbers(entry: dict, key: str) -> frozenset:
    values = entry.get(key, [])
    if not isinstance(values, list):
        raise ValueError(f"factor field {key!r} must be a list")
    return frozenset(_as_number(int, v, key) for v in values)


def spec_from_json(doc: dict) -> SeparableAlgebraSpec:
    """Parse a factor-list document as accepted by the command line.

    A document of the wrong shape raises ValueError, never another error.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("factors"), list):
        raise ValueError("algebra document needs a 'factors' list")
    factors = []
    for entry in doc["factors"]:
        if not isinstance(entry, dict):
            raise ValueError(f"factor {entry!r} is not an object")
        if "center" in entry:
            if not isinstance(entry["center"], dict):
                raise ValueError(f"factor center {entry['center']!r} is not an object")
            disc = _number(entry["center"], "disc", int, 1)
        else:
            disc = _number(entry, "center_disc", int, 1)
        center = RATIONALS if disc == 1 else QuadField.from_disc(disc)
        kind = entry.get("kind")
        if kind == "quaternion":
            factors.append(QuaternionFactor(
                _number(entry, "a", Fraction), _number(entry, "b", Fraction), center))
        elif kind == "matrix":
            factors.append(MatrixFactor(_number(entry, "degree", int), center))
        elif kind == "ramified-quaternion":
            factors.append(RamifiedQuaternionFactor(
                _numbers(entry, "finite"), _numbers(entry, "real"), center))
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
    return SeparableAlgebraSpec(tuple(factors))


# ---------------------------------------------------------------------------
# Eichler condition


@dataclass(frozen=True)
class EichlerFactorReport:
    kind: str
    center_disc: int
    real_ramified: tuple
    satisfied: bool

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "center_disc": str(self.center_disc),
            "real_ramified": list(self.real_ramified),
            "satisfied": self.satisfied,
        }


@dataclass(frozen=True)
class EichlerReport:
    satisfied: bool
    factors: tuple

    def __bool__(self) -> bool:
        return self.satisfied

    def to_json(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "factors": [f.to_json() for f in self.factors],
        }


def eichler_condition(spec: SeparableAlgebraSpec) -> EichlerReport:
    """Whether every simple factor splits at some archimedean place.

    A factor fails exactly when its center is totally real and the factor
    ramifies at every real embedding (totally definite quaternion case).
    """
    reports = []
    for f in spec.factors:
        center = f.center
        ram = f.real_ramified()
        has_complex = isinstance(center, QuadField) and center.d < 0
        ok = has_complex or len(ram) < _real_place_count(center)
        reports.append(
            EichlerFactorReport(f.kind, center.disc, tuple(sorted(ram)), ok)
        )
    return EichlerReport(all(r.satisfied for r in reports), tuple(reports))


# ---------------------------------------------------------------------------
# Ray class groups


def _one_signed_group(center: QuadField, place: int) -> ClassGroup:
    # Positivity at a single real embedding cuts out the same subgroup of
    # principal ideals as no condition at all: negating a generator flips the
    # sign, so (g) always admits a generator positive at the chosen place.
    # The class of (sqrt d) then witnesses that the narrow-to-wide kernel
    # lies inside the ray kernel, and the quotient is the wide group.
    narrow = class_group(center.disc, True)
    g = center.sqrt_gen()
    gen = g if g.sign_at(place) > 0 else -g
    assert gen.sign_at(place) > 0
    kappa = ideal_class(QuadIdeal.principal(gen), narrow)
    wide = class_group(center.disc, False)
    assert narrow.order == wide.order * narrow.element_order(kappa)
    return wide


@dataclass(frozen=True)
class RayFactorGroup:
    """Ray class group of one factor's center, with positivity at the
    factor's ramified real places."""

    center: object
    variant: str
    ray_places: tuple
    group: object  # ClassGroup, or None for the trivial group over Q

    @property
    def order(self) -> int:
        return 1 if self.group is None else self.group.order

    def elementary_divisors(self) -> tuple:
        return () if self.group is None else self.group.elementary_divisors()

    def identity(self):
        return () if self.group is None else self.group.identity

    def evaluate(self, ideal):
        """Class of a fractional ideal of the center in this factor's group."""
        if self.group is None:
            value = Fraction(ideal) if not isinstance(ideal, QuadIdeal) else ideal.norm()
            if value == 0:
                raise ValueError("the zero ideal has no class")
            return ()
        if not isinstance(ideal, QuadIdeal) or ideal.field.disc != self.group.disc:
            raise ValueError("ideal does not live in the factor's center")
        return ideal_class(ideal, self.group)

    def mul(self, x, y):
        return () if self.group is None else self.group.mul(x, y)

    def to_json(self) -> dict:
        return {
            "center": _center_json(self.center),
            "variant": self.variant,
            "ray_real_places": list(self.ray_places),
            "order": str(self.order),
            "elementary_divisors": [str(d) for d in self.elementary_divisors()],
        }


@dataclass(frozen=True)
class RayClassGroup:
    """Product of the per-factor ray class groups of a separable algebra."""

    factors: tuple

    @property
    def order(self) -> int:
        return prod(f.order for f in self.factors)

    def elementary_divisors(self) -> tuple:
        return invariant_factors(d for f in self.factors for d in f.elementary_divisors())

    def identity(self) -> tuple:
        return tuple(f.identity() for f in self.factors)

    def evaluate(self, ideals) -> tuple:
        """Element of the product group from one center ideal per factor."""
        ideals = tuple(ideals)
        if len(ideals) != len(self.factors):
            raise ValueError("need one ideal per factor")
        return tuple(f.evaluate(i) for f, i in zip(self.factors, ideals))

    def mul(self, x: tuple, y: tuple) -> tuple:
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def to_json(self) -> dict:
        return {
            "order": str(self.order),
            "elementary_divisors": [str(d) for d in self.elementary_divisors()],
            "factors": [f.to_json() for f in self.factors],
        }


def ray_class_group(spec: SeparableAlgebraSpec) -> RayClassGroup:
    """Locally free class group of a maximal order in the algebra.

    Per factor: the wide class group of the center when no real place
    ramifies, the narrow group when every real place ramifies, and the
    one-signed ray group in between.  Over Q every variant is trivial.
    """
    parts = []
    for f in spec.factors:
        center = f.center
        _check_center(center)
        ram = tuple(sorted(f.real_ramified()))
        if _is_rational_center(center):
            # Z is a PID and -1 provides both signs, so wide = narrow = 1.
            parts.append(RayFactorGroup(center, "trivial", ram, None))
            continue
        r = center.real_places
        if not ram:
            parts.append(RayFactorGroup(center, "wide", ram, class_group(center.disc, False)))
        elif len(ram) == r:
            parts.append(RayFactorGroup(center, "narrow", ram, class_group(center.disc, True)))
        else:
            grp = _one_signed_group(center, ram[0])
            parts.append(RayFactorGroup(center, "one-signed", ram, grp))
    return RayClassGroup(tuple(parts))


# ---------------------------------------------------------------------------
# Maximal orders and the Swan group


@dataclass(frozen=True)
class MaximalOrderDescriptor:
    """A maximal order in a separable algebra.

    Rational quaternion factors carry their order explicitly so maximality
    can be verified; for matrix and quadratic-center factors maximality is
    part of the descriptor (the integral closure in the stated factor).
    """

    spec: SeparableAlgebraSpec
    orders: tuple

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(self.orders))
        if len(self.orders) != len(self.spec.factors):
            raise ValueError("need one order entry per factor")
        for f, o in zip(self.spec.factors, self.orders):
            if isinstance(f, QuaternionFactor):
                if not isinstance(o, QuatOrder):
                    raise ValueError("rational quaternion factors need an explicit order")
                if o.algebra.a != f.a or o.algebra.b != f.b:
                    raise ValueError("order does not live in the stated factor")
            elif o is not None:
                raise ValueError("only rational quaternion factors carry explicit orders")

    @classmethod
    def for_order(cls, order: QuatOrder) -> "MaximalOrderDescriptor":
        alg = order.algebra
        spec = SeparableAlgebraSpec((QuaternionFactor(alg.a, alg.b),))
        return cls(spec, (order,))

    def to_json(self) -> dict:
        return {
            "algebra": self.spec.to_json(),
            "orders": [None if o is None else o.to_json() for o in self.orders],
        }


def swan_class_group(desc: MaximalOrderDescriptor) -> RayClassGroup:
    """Locally free class group of the described maximal order.

    Rejects non-maximal rational quaternion orders; for a maximal order the
    group is the ray class group of the algebra.
    """
    for o in desc.orders:
        if isinstance(o, QuatOrder) and not o.is_maximal:
            raise ValueError(
                f"order of reduced discriminant {o.reduced_disc} is not maximal "
                f"(algebra has reduced discriminant {o.algebra.reduced_disc})"
            )
    return ray_class_group(desc.spec)


# ---------------------------------------------------------------------------
# Stable classes of right ideals


@dataclass(frozen=True)
class StableClass:
    """Class of a right ideal up to stable isomorphism.

    The value is the class of the reduced norm in the locally free class
    group; the norm itself is kept as provenance but does not take part in
    equality.
    """

    group: RayClassGroup
    value: tuple
    nrd: Fraction = field(compare=False)

    @property
    def is_identity(self) -> bool:
        return self.value == self.group.identity()

    def to_json(self) -> dict:
        return {
            "nrd": fraction_str(self.nrd),
            "identity": self.is_identity,
            "group_order": str(self.group.order),
        }


def stable_class(ideal: RightIdeal, desc: MaximalOrderDescriptor | None = None) -> StableClass:
    """Stable isomorphism class of a right ideal over a maximal order."""
    if desc is None:
        desc = MaximalOrderDescriptor.for_order(ideal.order)
    else:
        match = any(
            isinstance(o, QuatOrder) and o.lattice == ideal.order.lattice for o in desc.orders
        )
        if not match:
            raise ValueError("ideal does not belong to the described order")
    group = swan_class_group(desc)
    # the reduced norm of the ideal, as a fractional ideal of each center
    value = group.evaluate([ideal.nrd for _ in group.factors])
    return StableClass(group, value, ideal.nrd)


def stably_isomorphic(i: RightIdeal, j: RightIdeal) -> bool:
    """Whether two right ideals over the same maximal order are stably isomorphic."""
    if i.order != j.order:
        raise ValueError("stable comparison needs ideals over the same order")
    return stable_class(i) == stable_class(j)


# ---------------------------------------------------------------------------
# Cancellation verdict


@dataclass(frozen=True)
class CancellationVerdict:
    """Comparison of the ideal class count against the stable class count."""

    p: int
    h: int
    cl: int
    holds: bool

    def to_json(self) -> dict:
        return {"p": str(self.p), "h": str(self.h), "cl": str(self.cl), "holds": self.holds}


def cancellation_check(p: int) -> CancellationVerdict:
    """Whether right ideals over a maximal order in B_(p,inf) cancel.

    h counts isomorphism classes (by the mass-formula count), cl counts
    stable classes; cancellation holds exactly when the two agree.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    order = maximal_order(b_p_infinity(p))
    swan = swan_class_group(MaximalOrderDescriptor.for_order(order))
    cl = swan.order
    h = eichler_class_number(p)
    return CancellationVerdict(p, h, cl, h == cl)


# The widest range cancellation_table accepts, in integers: 2..250000 takes
# 5-10 s on a 2-CPU machine (Python 3.11).  Higher up a prime costs little
# more: factor stops trial division at a certified prime cofactor, so a
# prime near 10**12 takes about 1 ms.
CANCEL_RANGE_LIMIT = 250_000


def cancellation_table(lo: int, hi: int) -> list[CancellationVerdict]:
    """Cancellation verdicts for every prime in [lo, hi].

    Rejects a range of more than CANCEL_RANGE_LIMIT integers.
    """
    if hi - lo + 1 > CANCEL_RANGE_LIMIT:
        raise ValueError(
            f"range {lo}..{hi} holds {hi - lo + 1} integers; "
            f"at most {CANCEL_RANGE_LIMIT} are accepted"
        )
    return [cancellation_check(p)
            for p in range(max(lo, 2), hi + 1) if is_prime(p)]


# ---------------------------------------------------------------------------
# Group law on stable classes via ideal products


def _element(ideal: RightIdeal, v) -> Quaternion:
    """sum v_s b_s over the basis of the ideal, from its integer rows."""
    lat = ideal.lattice
    return ideal.order.algebra.quaternion(
        *(Fraction(t, lat.den) for t in _combine(v, lat.rows)))


def _exact_norm_element(ideal: RightIdeal) -> Quaternion | None:
    """Element of the ideal whose reduced norm equals nrd(ideal), if one exists."""
    gram = ideal.nrd_gram()
    hits = [v for num, v in short_vectors(gram, 1) if num == gram.den]
    return _element(ideal, min(hits)) if hits else None


def _local_generator(ideal: RightIdeal, q: int) -> Quaternion:
    """Element whose reduced norm has the same q-valuation as nrd(ideal).

    Those are the x with f(x) = nrd(x)/nrd(I) prime to q.  The search
    takes the bounds f <= 1, 4, 16, ... until it finds one, and stops at a
    bound where one must exist.  On the integral invertible ideal I with
    basis b_1..b_4, f is an integral quadratic form, and f mod q is a
    nonzero form on I/qI: locally I_q = alpha O_q, so f(alpha) is a q-unit
    (at a ramified q, f mod q factors through the norm form of F_{q^2}).
    Every class of I/qI holds some x = sum c_i b_i with 0 <= c_i < q, so
    one of them has f(x) prime to q.  sqrt(f) is a norm on a definite
    algebra, so that x has f(x) <= (sum_i c_i sqrt(f(b_i)))^2
    <= 16 (q - 1)^2 max_i f(b_i).  A search whose bound reaches this value
    and finds nothing therefore raises RuntimeError.
    """
    gram = ideal.nrd_gram()
    cap = 16 * (q - 1) ** 2 * max(gram.ints[s][s] for s in range(4))  # times den
    bound = 1
    while True:
        hits = [(num, v) for num, v in short_vectors(gram, bound)
                if num // gram.den % q]
        if hits:
            return _element(ideal, min(hits)[1])
        if bound * gram.den >= cap:
            raise RuntimeError(f"no f(x) prime to {q} up to {Fraction(cap, gram.den)}")
        bound *= 4


@dataclass(frozen=True)
class GroupLawWitness:
    """Product ideal realizing the group law on stable classes."""

    product: RightIdeal
    nrd_left: Fraction
    nrd_right: Fraction
    nrd_product: Fraction
    stable_ok: bool
    global_generators: bool

    def to_json(self) -> dict:
        return {
            "product": self.product.to_json(),
            "nrd_left": fraction_str(self.nrd_left),
            "nrd_right": fraction_str(self.nrd_right),
            "nrd_product": fraction_str(self.nrd_product),
            "stable_ok": self.stable_ok,
            "global_generators": self.global_generators,
        }


def group_law_check(i: RightIdeal, j: RightIdeal) -> GroupLawWitness:
    """Product of two right ideals over one definite maximal order.

    Builds the ideal whose localization at every prime q is generated by
    c_q d_q, for local generators c_q of I and d_q of J, checks that its
    reduced norm is the product of the factor norms, and checks the
    stable-class group law.  With both ideals scaled to integer coordinates
    and n = nrd(I) nrd(J), that ideal is the single lattice sum
    nO + sum over q | n of (n / q^v) c_q d_q O, v = v_q(n): at q the other
    terms lie in q^v O, so it is c_q d_q O_q + q^v O_q, and at every other
    prime n is a unit, so it is O.  When I and J hold elements c, d of the
    norms nrd(I) and nrd(J), c_q = c and d_q = d at every q, and the sum is
    cdO, which holds nO = cd conj(cd) O.
    """
    order = i.order
    if order != j.order:
        raise ValueError("ideal product needs both ideals over the same order")
    if not order.algebra.is_definite:
        raise ValueError("ideal product search requires a definite algebra")
    if not order.is_maximal:
        raise ValueError("ideal product requires a maximal order")

    # clear denominators; scaling by a rational does not move the stable class
    si, sj = i.lattice.den, j.lattice.den
    ii = RightIdeal(order, i.lattice.scale(si))
    jj = RightIdeal(order, j.lattice.scale(sj))
    n = ii.nrd * jj.nrd
    assert n.denominator == 1
    n = int(n)

    ci, cj = _exact_norm_element(ii), _exact_norm_element(jj)
    # n = 1 leaves no prime to localize at, which counts as global
    used_global = n == 1 or (ci is not None and cj is not None)
    gens = [order.algebra.quaternion(n)]
    for q, v in factor(n).factors:
        cq = ci if ci is not None else _local_generator(ii, q)
        dq = cj if cj is not None else _local_generator(jj, q)
        gens.append(cq * dq * (n // q ** v))
    product_int = RightIdeal.from_generators(order, gens)
    assert product_int.nrd == n, "product ideal must have the product of the norms"

    scale = Fraction(1, si * sj)
    product = RightIdeal(order, product_int.lattice.scale(scale))
    desc = MaximalOrderDescriptor.for_order(order)
    left, right, out = stable_class(i, desc), stable_class(j, desc), stable_class(product, desc)
    stable_ok = out.value == left.group.mul(left.value, right.value)
    assert stable_ok, "stable classes must multiply along ideal products"
    return GroupLawWitness(product, i.nrd, j.nrd, product.nrd, stable_ok, used_global)
