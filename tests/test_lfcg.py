"""Tests for stable class groups of maximal orders and cancellation verdicts."""

import random
from fractions import Fraction

import pytest

from locfree.latorder import (
    QuatOrder,
    RightIdeal,
    maximal_order,
    reduce_ideal,
    ideal_mul,
    right_ideals_of_norm,
)
from locfree import lfcg
from locfree.lfcg import (
    MatrixFactor,
    MaximalOrderDescriptor,
    QuaternionFactor,
    RamifiedQuaternionFactor,
    SeparableAlgebraSpec,
    cancellation_check,
    cancellation_table,
    eichler_condition,
    group_law_check,
    ray_class_group,
    spec_from_json,
    stable_class,
    stably_isomorphic,
    swan_class_group,
)
from locfree.linalg import Lattice
from locfree.numtheory import Place, factor, hilbert_symbol, primes_below, valuation
from locfree.quadfield import RATIONALS, QuadField, prime_ideals_above
from locfree.quatalg import QuaternionAlgebra, b_p_infinity


def test_factor_invariants():
    with pytest.raises(ValueError):
        QuaternionFactor(0, 3)
    with pytest.raises(ValueError):
        QuaternionFactor(-1, -1, center=QuadField.from_disc(5))
    with pytest.raises(ValueError):
        MatrixFactor(0, RATIONALS)
    with pytest.raises(ValueError):
        RamifiedQuaternionFactor(frozenset({2}), frozenset(), RATIONALS)  # odd size
    with pytest.raises(ValueError):
        RamifiedQuaternionFactor(frozenset({4, 3}), frozenset(), RATIONALS)
    with pytest.raises(ValueError):
        RamifiedQuaternionFactor(frozenset({2}), frozenset({1}), RATIONALS)
    with pytest.raises(ValueError):
        # imaginary quadratic fields have no real places to ramify at
        RamifiedQuaternionFactor(frozenset({2}), frozenset({0}),
                                 QuadField.from_disc(-20))
    with pytest.raises(ValueError):
        SeparableAlgebraSpec(())


def test_eichler_condition_over_rationals():
    rng = random.Random(61)
    finite_pool = list(primes_below(40))
    for _ in range(50):
        k = rng.choice([0, 2, 4])
        labels = rng.sample(finite_pool + ["inf"], k)
        finite = frozenset(p for p in labels if p != "inf")
        real = frozenset({0} if "inf" in labels else set())
        spec = SeparableAlgebraSpec.by_ramification(finite, real, RATIONALS)
        report = eichler_condition(spec)
        assert bool(report) == ("inf" not in labels)
    # symbol route agrees with the ramification route
    for _ in range(40):
        a = rng.randrange(-15, 16)
        b = rng.randrange(-15, 16)
        if a == 0 or b == 0:
            continue
        spec = SeparableAlgebraSpec.quaternion(a, b)
        assert bool(eichler_condition(spec)) == \
            (hilbert_symbol(a, b, Place.real()) == 1)


def test_eichler_condition_quadratic_centers():
    real_field = QuadField.from_disc(12)
    both = SeparableAlgebraSpec.by_ramification(frozenset(), frozenset({0, 1}),
                                                real_field)
    one = SeparableAlgebraSpec.by_ramification(frozenset({2}), frozenset({0}),
                                               real_field)
    none = SeparableAlgebraSpec.by_ramification(frozenset(), frozenset(),
                                                real_field)
    assert not eichler_condition(both)
    assert eichler_condition(one)
    assert eichler_condition(none)
    imag = SeparableAlgebraSpec.by_ramification(frozenset(), frozenset(),
                                                QuadField.from_disc(-20))
    assert eichler_condition(imag)  # complex place splits every quaternion algebra
    report = eichler_condition(SeparableAlgebraSpec(
        (MatrixFactor(2, RATIONALS), QuaternionFactor(-1, -1))))
    assert not report and report.factors[0].satisfied \
        and not report.factors[1].satisfied


def test_ray_class_group_over_rationals_is_trivial():
    rng = random.Random(62)
    for _ in range(50):
        factors = []
        for _ in range(rng.randrange(1, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                a = rng.choice([-1, -2, -3, 2, 3, 5])
                b = rng.choice([-1, -2, -5, 7, 11])
                factors.append(QuaternionFactor(a, b))
            elif kind == 1:
                factors.append(MatrixFactor(rng.randrange(1, 4), RATIONALS))
            else:
                finite = frozenset(rng.sample([2, 3, 5, 7, 11], 2))
                factors.append(RamifiedQuaternionFactor(finite, frozenset(),
                                                        RATIONALS))
        g = ray_class_group(SeparableAlgebraSpec(tuple(factors)))
        assert g.order == 1
        assert g.elementary_divisors() == ()
        ideals = [Fraction(5, 3) for _ in factors]
        assert g.evaluate(ideals) == g.identity()


def test_ray_class_group_quadratic_variants():
    wide = ray_class_group(SeparableAlgebraSpec.matrix(2, QuadField.from_disc(-20)))
    assert wide.order == 2 and wide.factors[0].variant == "wide"
    assert wide.elementary_divisors() == (2,)

    narrow = ray_class_group(SeparableAlgebraSpec.by_ramification(
        frozenset(), frozenset({0, 1}), QuadField.from_disc(12)))
    assert narrow.order == 2 and narrow.factors[0].variant == "narrow"

    one_signed = ray_class_group(SeparableAlgebraSpec.by_ramification(
        frozenset({2}), frozenset({0}), QuadField.from_disc(12)))
    assert one_signed.order == 1 and one_signed.factors[0].variant == "one-signed"

    one_signed40 = ray_class_group(SeparableAlgebraSpec.by_ramification(
        frozenset({2}), frozenset({0}), QuadField.from_disc(40)))
    assert one_signed40.order == 2

    trivial = ray_class_group(SeparableAlgebraSpec.quaternion(-1, -1))
    assert trivial.order == 1 and trivial.factors[0].variant == "trivial"


def test_ray_class_group_products_merge_divisors():
    spec = SeparableAlgebraSpec((MatrixFactor(2, QuadField.from_disc(-23)),
                                 MatrixFactor(2, QuadField.from_disc(-20))))
    g = ray_class_group(spec)
    assert g.order == 6
    assert g.elementary_divisors() == (6,)

    spec2 = SeparableAlgebraSpec((MatrixFactor(2, QuadField.from_disc(-20)),
                                  MatrixFactor(3, QuadField.from_disc(-84))))
    g2 = ray_class_group(spec2)
    assert g2.order == 8
    assert g2.elementary_divisors() == (2, 2, 2)


def test_ray_class_group_evaluation_is_homomorphism():
    rng = random.Random(63)
    fields = [QuadField.from_disc(-20), QuadField.from_disc(-23)]
    spec = SeparableAlgebraSpec(tuple(MatrixFactor(2, f) for f in fields))
    g = ray_class_group(spec)
    pools = []
    for f in fields:
        pool = []
        for q in (2, 3, 5, 7, 11, 13):
            pool.extend(prime_ideals_above(f, q))
        pools.append(pool)
    for _ in range(40):
        xs = [rng.choice(pool) for pool in pools]
        ys = [rng.choice(pool) for pool in pools]
        lhs = g.evaluate([x * y for x, y in zip(xs, ys)])
        rhs = g.mul(g.evaluate(xs), g.evaluate(ys))
        assert lhs == rhs


def test_spec_json_roundtrip():
    spec = SeparableAlgebraSpec((
        QuaternionFactor(-1, -11),
        MatrixFactor(2, QuadField.from_disc(-20)),
        RamifiedQuaternionFactor(frozenset({2, 3}), frozenset(), RATIONALS),
    ))
    doc = spec.to_json()
    back = spec_from_json(doc)
    assert back == spec
    with pytest.raises(ValueError):
        spec_from_json({"factors": [{"kind": "mystery"}]})
    with pytest.raises(ValueError):
        spec_from_json({"factors": []})


def test_swan_class_group():
    for p in (2, 11, 13):
        desc = MaximalOrderDescriptor.for_order(maximal_order(b_p_infinity(p)))
        assert swan_class_group(desc).order == 1

    spec = SeparableAlgebraSpec.matrix(2, QuadField.from_disc(-20))
    assert swan_class_group(MaximalOrderDescriptor(spec, (None,))).order == 2

    definite = SeparableAlgebraSpec.by_ramification(
        frozenset(), frozenset({0, 1}), QuadField.from_disc(12))
    assert swan_class_group(MaximalOrderDescriptor(definite, (None,))).order == 2


def test_swan_rejects_non_maximal_orders():
    alg = QuaternionAlgebra(Fraction(-1), Fraction(-1))
    lipschitz = QuatOrder(alg, Lattice([(1, 0, 0, 0), (0, 1, 0, 0),
                                        (0, 0, 1, 0), (0, 0, 0, 1)]))
    spec = SeparableAlgebraSpec.quaternion(-1, -1)
    desc = MaximalOrderDescriptor(spec, (lipschitz,))
    with pytest.raises(ValueError, match="not maximal"):
        swan_class_group(desc)
    with pytest.raises(ValueError):
        # order from a different algebra than the factor says
        MaximalOrderDescriptor(SeparableAlgebraSpec.quaternion(-1, -3),
                               (maximal_order(alg),))


def test_stable_classes():
    o = maximal_order(b_p_infinity(2))
    i = right_ideals_of_norm(o, 3)[0]
    s = stable_class(i)
    assert s.is_identity
    assert s.nrd == 3
    assert s.to_json() == {"nrd": "3", "identity": True, "group_order": "1"}
    principal = RightIdeal.principal(o, o.algebra.quaternion(1, 1, 1, 0))
    assert stable_class(principal).is_identity

    o11 = maximal_order(b_p_infinity(11))
    i2, i3 = right_ideals_of_norm(o11, 2)[0], right_ideals_of_norm(o11, 3)[0]
    assert stably_isomorphic(i2, i3)  # trivial stable group over the rationals
    with pytest.raises(ValueError):
        stably_isomorphic(i, i2)


def test_cancellation_spot_checks():
    v13 = cancellation_check(13)
    assert (v13.p, v13.h, v13.cl, v13.holds) == (13, 1, 1, True)
    v11 = cancellation_check(11)
    assert (v11.p, v11.h, v11.cl, v11.holds) == (11, 2, 1, False)
    with pytest.raises(ValueError):
        cancellation_check(12)


def test_cancellation_table_small_range():
    rows = cancellation_table(2, 50)
    assert [r.p for r in rows] == list(primes_below(51))
    assert {r.p for r in rows if r.holds} == {2, 3, 5, 7, 13}
    for r in rows:
        assert r.cl == 1
        assert r.holds == (r.h == 1)


def test_group_law_unit_and_principal():
    o = maximal_order(b_p_infinity(2))
    unit = RightIdeal.unit_ideal(o)
    w = group_law_check(unit, unit)
    assert w.product == unit and w.global_generators and w.stable_ok

    x = o.algebra.quaternion(1, 1, 0, 1)
    y = o.algebra.quaternion(2, 0, 1, 1)
    w2 = group_law_check(RightIdeal.principal(o, x), RightIdeal.principal(o, y))
    assert w2.nrd_product == x.nrd() * y.nrd()
    assert w2.global_generators
    assert w2.product == RightIdeal.principal(o, x * y) or w2.product.nrd == x.nrd() * y.nrd()


def _assert_product_is_the_local_intersection(w, i, j):
    """The product equals the intersection over q | n of c_q d_q O + q^v O.

    The local lattices come from Fraction quaternion products here.  The
    product lies in each of them and in O, and its index in O is n^2, the
    index of their intersection, so the two are equal.
    """
    o = i.order
    si, sj = i.lattice.den, j.lattice.den
    ii = RightIdeal(o, i.lattice.scale(si))
    jj = RightIdeal(o, j.lattice.scale(sj))
    n = int(ii.nrd * jj.nrd)
    product = w.product.lattice.scale(si * sj)
    rows = o.lattice.basis()
    basis = [o.algebra.quaternion(*r) for r in rows]
    ci, cj = lfcg._exact_norm_element(ii), lfcg._exact_norm_element(jj)
    for q, v in factor(n).factors:
        cq = ci if ci is not None else lfcg._local_generator(ii, q)
        dq = cj if cj is not None else lfcg._local_generator(jj, q)
        local = Lattice([(cq * dq * b).coords for b in basis]
                        + [[q ** v * x for x in r] for r in rows])
        assert o.lattice.contains_lattice(local)
        assert local.contains_lattice(product)
    assert o.lattice.contains_lattice(product)
    assert product.covolume() / o.lattice.covolume() == n * n


def test_group_law_random_pairs():
    rng = random.Random(64)
    saw_local = saw_two_primes = False
    for p in (11, 37):
        o = maximal_order(b_p_infinity(p))
        pool = [RightIdeal.unit_ideal(o)]
        for q in (2, 3, 5, 7):
            pool.extend(right_ideals_of_norm(o, q))
        for _ in range(20):
            i, j = rng.choice(pool), rng.choice(pool)
            w = group_law_check(i, j)
            assert w.nrd_product == w.nrd_left * w.nrd_right == i.nrd * j.nrd
            assert w.stable_ok
            _assert_product_is_the_local_intersection(w, i, j)
            if not w.global_generators:
                saw_local = True
                n = w.nrd_product * i.lattice.den ** 2 * j.lattice.den ** 2
                saw_two_primes = saw_two_primes or len(factor(int(n)).factors) > 1
    # nontrivial classes force local generators, at more than one prime
    assert saw_local and saw_two_primes


def test_group_law_fractional_scaling():
    o = maximal_order(b_p_infinity(2))
    i = right_ideals_of_norm(o, 3)[0]
    scaled = RightIdeal(o, i.lattice.scale(Fraction(1, 3)))
    w = group_law_check(scaled, i)
    assert w.nrd_product == scaled.nrd * i.nrd == 1

    o11 = maximal_order(b_p_infinity(11))
    with pytest.raises(ValueError):
        group_law_check(i, RightIdeal.unit_ideal(o11))


def test_local_generator_within_the_proven_bound(monkeypatch):
    # nrd(x) <= 16 (q - 1)^2 max nrd(b_i) holds for the element found, at
    # split primes dividing nrd(I) and at the ramified prime
    for p in (11, 37):
        o = maximal_order(b_p_infinity(p))
        ideals = [RightIdeal.unit_ideal(o)]
        for q in (2, 3, 5):
            ideals += right_ideals_of_norm(o, q)[:3]
        ideals.append(ideal_mul(right_ideals_of_norm(ideals[1].left_order(), 3)[0],
                                ideals[1]))
        for i in ideals:
            biggest = max(o.algebra.quaternion(*b).nrd() for b in i.lattice.basis())
            for q in sorted({p} | {r for r, _ in factor(int(i.nrd)).factors}):
                x = lfcg._local_generator(i, q)
                assert i.lattice.contains(x.coords)
                assert valuation(int(x.nrd()), q) == valuation(int(i.nrd), q)
                assert x.nrd() <= 16 * (q - 1) ** 2 * biggest
    # with no short vectors at all the search stops instead of widening forever
    monkeypatch.setattr(lfcg, "short_vectors", lambda gram, bound: [])
    with pytest.raises(RuntimeError):
        lfcg._local_generator(ideals[1], 2)
