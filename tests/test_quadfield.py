"""Quadratic fields, ideals, binary forms, class groups, Steinitz classes."""

import itertools
import random
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest

from locfree.linalg import Lattice
from locfree.numtheory import invariant_factors
from locfree.quadfield import (
    RATIONALS,
    BinaryForm,
    ClassGroup,
    QuadField,
    QuadIdeal,
    QuadModule,
    _compose_forms,
    _form_to_ideal,
    _ideal_to_form,
    class_group,
    ideal_class,
    is_fundamental_discriminant,
    modules_isomorphic,
    prime_ideals_above,
    principal_form,
    reduced_forms,
    steinitz_class,
)


def brute_reduced_definite(D):
    """Scan for reduced primitive positive forms of discriminant D < 0."""
    out = []
    a = 1
    while 4 * a * a <= -D + a * a:  # a <= sqrt(|D|/3) guaranteed by |b| <= a <= c
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                out.append((a, b, c))
        a += 1
    return sorted(out)


def brute_reduced_indefinite(D):
    """Scan for reduced primitive forms of discriminant D > 0 (not a square)."""
    out = []
    r = isqrt(D)
    for b in range(1, r + 1):
        if b * b >= D:
            break
        for a in range(-(r + b) // 2, (r + b) // 2 + 1):
            if a == 0:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            # reduced: |sqrt(D) - 2|a|| < b < sqrt(D)
            t = 2 * abs(a) - b
            if t >= 0 and t * t >= D:
                continue
            if (2 * abs(a) + b) ** 2 <= D:
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                out.append((a, b, c))
    return sorted(out)


def cf_period_parity(d):
    """Parity of the continued fraction period of sqrt(d); odd iff a unit of
    norm -1 exists.  Independent of the class group machinery."""
    a0 = isqrt(d)
    m, q, a = 0, 1, a0
    length = 0
    while True:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        length += 1
        if q == 1 and a == 2 * a0:
            return length % 2


def test_fundamental_discriminants():
    fundamentals = {-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, 5, 8, 12, 13, 17, 21, 24}
    for D in range(-25, 25):
        expected = D in fundamentals
        assert is_fundamental_discriminant(D) == expected, D


def test_quadfield_construction_and_omega():
    with pytest.raises(ValueError):
        QuadField(1)
    with pytest.raises(ValueError):
        QuadField(12)  # not squarefree
    for d in (-1, -5, -23 * 1, 2, 3, 5, 13):
        k = QuadField(d)
        omega = k.element(0, 1)
        assert omega * omega == k.element(k.omega_shift) + k.element(k.omega_trace) * omega
        assert k.disc in (d, 4 * d)
        assert QuadField.from_disc(k.disc) == k


def test_quadelt_norm_trace_conj():
    rng = random.Random(21)
    for d in (-1, -5, 3, 5):
        k = QuadField(d)
        for _ in range(100):
            x = k.element(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)), rng.randrange(-9, 10))
            y = k.element(rng.randrange(-9, 10), rng.randrange(-9, 10))
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x + y).trace() == x.trace() + y.trace()
            assert x * x.conj() == k.element(x.norm())
            assert x + x.conj() == k.element(x.trace())


def test_sign_at_embeddings():
    k = QuadField(3)
    s = k.sqrt_gen()
    assert s.sign_at(0) == 1 and s.sign_at(1) == -1
    rng = random.Random(22)
    for _ in range(100):
        x = k.element(rng.randrange(-9, 10), rng.randrange(-9, 10))
        if x.is_zero():
            continue
        assert x.sign_at(0) * x.sign_at(1) == (1 if x.norm() > 0 else -1)
    with pytest.raises(ValueError):
        QuadField(-1).element(1).sign_at(0)


def conj_ideal(i):
    """The conjugate ideal, spanned by the conjugates of a basis of i."""
    rows = [(c.x, c.y) for c in (g.conj() for g in i.basis_elements())]
    return QuadIdeal(i.field, Lattice(rows))


def test_quadideal_arithmetic():
    rng = random.Random(23)
    for d in (-1, -5, 3, 13):
        k = QuadField(d)
        for _ in range(40):
            g = k.element(rng.randrange(-9, 10), rng.randrange(-9, 10))
            if g.is_zero():
                continue
            i = QuadIdeal.principal(g)
            assert i.norm() == abs(g.norm())
            assert i.contains(g)
            assert i.contains(g * k.element(0, 1))
            j = QuadIdeal.principal(k.element(rng.randrange(1, 9)))
            assert (i * j).norm() == i.norm() * j.norm()
            assert i * j == j * i
            # I * conj(I) = (N(I)) for ideals of the maximal order
            assert i * conj_ideal(i) == QuadIdeal.unit_ideal(k).scale(i.norm())


def test_reduced_forms_match_independent_scan_definite():
    for D in (-3, -4, -20, -23, -47, -84, -163, -420):
        assert sorted((f.a, f.b, f.c) for f in reduced_forms(D)) == brute_reduced_definite(D)


def test_reduced_forms_match_independent_scan_indefinite():
    for D in (5, 8, 12, 13, 40, 60, 229):
        assert sorted((f.a, f.b, f.c) for f in reduced_forms(D)) == brute_reduced_indefinite(D)


def test_class_group_known_structures():
    assert class_group(-4, False).order == 1
    assert class_group(-20, False).order == 2
    assert class_group(-23, False).order == 3
    assert class_group(-47, False).order == 5
    assert class_group(-84, False).elementary_divisors() == (2, 2)
    assert class_group(-56, False).elementary_divisors() == (4,)
    assert class_group(-23, False).elementary_divisors() == (3,)
    assert class_group(12, True).order == 2
    assert class_group(12, False).order == 1
    with pytest.raises(ValueError):
        class_group(-21, False)


def group_axioms_hold(group):
    """Identity, inverses, closure, commutativity and associativity of group.mul,
    checked over all pairs and triples (O(h^3))."""
    els, mul, one = group.elements, group.mul, group.identity
    for f in els:
        if mul(one, f) != f:
            return False
        if mul(f, group.inverse(f)) != one:
            return False
        for g in els:
            fg = mul(f, g)
            if fg not in els or fg != mul(g, f):
                return False
    for f in els:
        for g in els:
            for h in els:
                if mul(mul(f, g), h) != mul(f, mul(g, h)):
                    return False
    return True


def test_class_group_axioms():
    for D, narrow in [(-20, False), (-23, False), (-84, False), (12, True), (40, False), (40, True)]:
        assert group_axioms_hold(class_group(D, narrow))


def lattice_compose(group, f, g):
    """The product class through ideals: multiply the two Fraction lattices of the
    form/ideal dictionary, read the form back off the product and reduce it."""
    if group.disc > 0:
        f, g = group._positive_in_cycle(f), group._positive_in_cycle(g)
    i = _form_to_ideal(group.field, f) * _form_to_ideal(group.field, g)
    return group._proper_class(_ideal_to_form(i))


def assert_composition_matches_lattices(group, pairs):
    """Check _proper_compose against lattice_compose on pairs; return the products."""
    D = group.disc
    products = {}
    for f, g in pairs:
        pf, pg = (group._positive_in_cycle(f), group._positive_in_cycle(g)) if D > 0 else (f, g)
        h = _compose_forms(pf, pg)
        assert h.disc == D and h.is_primitive(), (D, f, g, h)
        got = group._proper_compose(f, g)
        assert got == lattice_compose(group, f, g), (D, f, g)
        assert got.disc == D and got.is_primitive()
        products[f, g] = got
    return products


def test_integer_composition_matches_ideal_multiplication_on_all_pairs():
    for D in (-3, -4, -20, -23, -47, -56, -84, -4004, 5, 12, 40, 136):
        for narrow in (False, True) if D > 0 else (False,):
            group = class_group(D, narrow)
            proper = group._proper_elements
            products = assert_composition_matches_lattices(
                group, [(f, g) for f in proper for g in proper])
            # group.mul goes through the kappa-twin cosets of the wide group (D = 12, 136)
            for f in group.elements:
                for g in group.elements:
                    assert group.mul(f, g) == group._coset[products[f, g]]


def test_integer_composition_matches_ideal_multiplication_at_large_discriminants():
    for D, narrow in ((-1000003, False), (40001, True)):
        group = class_group(D, narrow)
        rng = random.Random(D)
        proper = group._proper_elements
        pairs = [(rng.choice(proper), rng.choice(proper)) for _ in range(300)]
        assert_composition_matches_lattices(group, pairs)


def test_class_groups_build_no_ideal_lattices(monkeypatch):
    """Composition runs on integer forms: no QuadIdeal is built for the group law;
    a real quadratic field builds at most the one ideal (sqrt(d)) for kappa."""
    built = []
    original = QuadIdeal.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(QuadIdeal, "__post_init__", counting)
    assert class_group.__wrapped__(-4004).elementary_divisors() == (2, 2, 10)
    assert built == []
    assert class_group.__wrapped__(12, True).elementary_divisors() == (2,)
    assert len(built) <= 1


def _abelian_divisors(elements, mul, identity) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group given by a multiplication rule."""
    if len(elements) == 1:
        return ()
    els = list(elements)
    # order of each element
    def order_of(f, mul_, id_):
        n, g = 1, f
        while g != id_:
            g = mul_(g, f)
            n += 1
        return n

    divisors = []
    current_els = els
    current_mul = mul
    current_id = identity
    while len(current_els) > 1:
        best = max(current_els, key=lambda f: order_of(f, current_mul, current_id))
        n = order_of(best, current_mul, current_id)
        divisors.append(n)
        # quotient by <best>
        sub = set()
        g = current_id
        for _ in range(n):
            sub.add(g)
            g = current_mul(g, best)
        cosets = {}
        for f in current_els:
            key = frozenset(current_mul(f, s) for s in sub)
            cosets.setdefault(key, min(current_mul(f, s) for s in sub))
        rep_of = {}
        for key, rep in cosets.items():
            for f in key:
                rep_of[f] = rep
        new_els = sorted(set(cosets.values()))
        inner_mul = current_mul

        def make_mul(inner, reps):
            def q_mul(f, g):
                return reps[inner(f, g)]
            return q_mul

        current_mul = make_mul(inner_mul, rep_of)
        current_id = rep_of[current_id]
        current_els = new_els
    divisors.reverse()  # smallest dividing largest
    out = []
    for d in divisors:
        out.append(d)
    # enforce divisibility chain d1 | d2 | ... (merge prime powers if needed)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i + 1] % out[i]:
                a, b = out[i], out[i + 1]
                g = gcd(a, b)
                out[i], out[i + 1] = g, a * b // g
                changed = True
    return tuple(d for d in out if d > 1)


def quotient_closure_divisors(group):
    """Invariant factors by the greedy max-order quotient oracle above."""
    return _abelian_divisors(group.elements, group.mul, group.identity)


def test_elementary_divisors_match_the_quotient_oracle():
    rng = random.Random(1307)
    cases = [(D, False) for D in (-4004, -5460, -15960, -19320)]  # 2-rank 3 and 4
    cases += [(D, True) for D in (4620, 9240, 15960)]  # narrow 2-rank 4
    while len(cases) < 48:
        D = rng.randrange(-30000, 20001)
        if is_fundamental_discriminant(D):
            cases.append((D, rng.random() < 0.5 and D > 0))
    for D, narrow in cases:
        group = class_group.__wrapped__(D, narrow)
        got = group.elementary_divisors()
        assert got == quotient_closure_divisors(group), (D, narrow)
        assert prod(got) == group.order
        assert all(b % a == 0 for a, b in zip(got, got[1:]))


def test_invariant_factors_match_the_quotient_oracle_on_cyclic_products():
    """invariant_factors(q1, ..., qm) against the oracle run on Z/q1 x ... x Z/qm,
    tuples under componentwise addition: prime powers as ClassGroup passes
    them, and the invariant factors of several groups as RayClassGroup does."""
    rng = random.Random(1308)
    for trial in range(60):
        orders = []
        while True:
            if trial % 2:
                q = rng.randrange(1, 13)
            else:
                q = rng.choice((2, 3, 5, 7)) ** rng.randrange(1, 4)
            if prod(orders) * q > 200:
                break
            orders.append(q)
        elements = sorted(itertools.product(*(range(q) for q in orders)))

        def add(x, y):
            return tuple((a + b) % q for a, b, q in zip(x, y, orders))

        zero = tuple(0 for _ in orders)
        assert invariant_factors(orders) == _abelian_divisors(elements, add, zero), orders
    assert invariant_factors([]) == invariant_factors([1]) == ()
    assert invariant_factors([4, 2, 3, 9, 1, 5]) == (6, 180)
    assert invariant_factors([6, 10, 4]) == (2, 2, 60)


def test_elementary_divisors_walk_each_element_once(monkeypatch):
    """The structure costs sum(ord(g) - 1) compositions: 78 * 78 for h = 79,
    against 18,723 for the quotient closures; composition keeps no cache."""
    calls = []
    original = ClassGroup.mul

    def counting(self, f, g):
        calls.append(1)
        return original(self, f, g)

    monkeypatch.setattr(ClassGroup, "mul", counting)
    group = class_group.__wrapped__(-50387)
    assert group.order == 79
    assert group.elementary_divisors() == (79,)
    assert len(calls) == 6084
    assert not hasattr(ClassGroup._proper_compose, "cache_info")


def test_element_order_is_bounded_by_the_group_order(monkeypatch):
    group = class_group.__wrapped__(-23)
    f = next(f for f in group.elements if f != group.identity)
    assert group.element_order(f) == 3
    calls = []
    original = ClassGroup.mul

    def counting(self, f, g):
        calls.append(1)
        return original(self, f, g)

    monkeypatch.setattr(ClassGroup, "mul", counting)
    group.identity = BinaryForm(0, 1, 6)  # a broken identity that no power reaches
    with pytest.raises(AssertionError):
        group.element_order(f)
    assert len(calls) == group.order  # the walk stops once n exceeds h


def test_narrow_vs_wide_matches_pell_parity():
    for D in (5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 40, 44, 56, 60, 76, 92, 124, 136, 152, 189 + 8):
        if not is_fundamental_discriminant(D):
            continue
        k = QuadField.from_disc(D)
        wide = class_group(D, False).order
        narrow = class_group(D, True).order
        ratio = narrow // wide
        assert narrow == wide * ratio and ratio in (1, 2)
        assert ratio == (1 if cf_period_parity(k.d) else 2)


def test_ideal_class_is_a_homomorphism():
    rng = random.Random(24)
    for D in (-20, -23, -47, 40):
        g = class_group(D, False)
        k = g.field
        pool = []
        for p in (2, 3, 5, 7, 11, 13):
            pool.extend(prime_ideals_above(k, p))
        for _ in range(60):
            i, j = rng.choice(pool), rng.choice(pool)
            assert ideal_class(i * j, g) == g.mul(ideal_class(i, g), ideal_class(j, g))
        # principal ideals land on the identity
        for _ in range(20):
            x = k.element(rng.randrange(-9, 10), rng.randrange(-9, 10))
            if x.is_zero():
                continue
            assert ideal_class(QuadIdeal.principal(x), g) == g.identity


def test_prime_ideals_above_split_inert_ramified():
    from locfree.numtheory import kronecker

    for D in (-20, -23, 12, 5):
        k = QuadField.from_disc(D)
        for p in (2, 3, 5, 7, 11, 13):
            sym = kronecker(D, p)
            above = prime_ideals_above(k, p)
            if sym == 1:
                assert len(above) == 2
                assert {i.norm() for i in above} == {p}
                assert above[0] * above[1] == QuadIdeal.unit_ideal(k).scale(p)
            elif sym == 0:
                assert len(above) == 1 and above[0].norm() == p
                assert above[0] * above[0] == QuadIdeal.unit_ideal(k).scale(p)
            else:
                assert len(above) == 1 and above[0].norm() == p * p


def test_steinitz_classification_small():
    rng = random.Random(25)
    for D in (-20, -23):
        g = class_group(D, False)
        k = g.field
        pool = [QuadIdeal.unit_ideal(k)]
        for p in (2, 3, 5, 7):
            pool.extend(prime_ideals_above(k, p))
        for _ in range(50):
            rank = rng.randrange(1, 4)
            m1 = QuadModule(k, tuple(rng.choice(pool) for _ in range(rank)))
            m2 = QuadModule(k, tuple(rng.choice(pool) for _ in range(rank)))
            same = steinitz_class(m1, g) == steinitz_class(m2, g)
            assert modules_isomorphic(m1, m2) == same
            # different rank never isomorphic
            m3 = QuadModule(k, m1.summands + (rng.choice(pool),))
            assert not modules_isomorphic(m1, m3)


def test_rationals_singleton():
    assert RATIONALS == RATIONALS
    assert RATIONALS.disc == 1
    assert RATIONALS.real_places == 1
    assert RATIONALS.is_rationals


def test_principal_form_and_form_values():
    for D in (-20, -23, 12):
        f = principal_form(D)
        assert f.disc == D
        assert f.value(1, 0) == f.a
        g = BinaryForm(2, 1, 3)
        assert g.disc == 1 - 24
