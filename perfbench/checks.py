"""Checks of locfree's outputs against the benchmark's own arithmetic.

Each check takes the query's parameters, its parsed JSON output and the
probe answers, and returns a list of faults; an empty list means correct.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

import oracles

CANCELLATION_PRIMES = {2, 3, 5, 7, 13}


def _int(text) -> int:
    value = Fraction(text)
    if value.denominator != 1:
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


def bpinf_order_faults(p: int, probe: dict) -> list[str]:
    """The order locfree built for B(p, inf) is a maximal order of it."""
    a, b = Fraction(probe["a"]), Fraction(probe["b"])
    faults = []
    if oracles.ramified(a, b) != {p, oracles.INF}:
        faults.append(f"({a}, {b}) does not ramify exactly at {{{p}, inf}}")
    faults += [f"order of B({p},inf): {f}" for f in oracles.order_faults(a, b, probe["basis"])]
    return faults


def cancel_faults(params: dict, doc: dict, probes: dict) -> list[str]:
    lo, hi = params["lo"], params["hi"]
    expected = [p for p in oracles.sieve(hi + 1) if p >= lo]
    rows = doc["table"]
    if [_int(r["p"]) for r in rows] != expected:
        return [f"rows of {lo}..{hi} are not exactly its primes"]
    faults = []
    for row in rows:
        p, h, cl = _int(row["p"]), _int(row["h"]), _int(row["cl"])
        if h != oracles.eichler_class_number(p):
            faults.append(f"p={p}: h={h}, Eichler's formula gives {oracles.eichler_class_number(p)}")
        if cl != 1:
            faults.append(f"p={p}: cl={cl}, the class group over Q is trivial")
        if row["holds"] is not (p in CANCELLATION_PRIMES):
            faults.append(f"p={p}: holds={row['holds']}")
    for probe, answer in probes.items():
        faults += bpinf_order_faults(probe[1], answer)
    return faults


def classnumber_faults(params: dict, doc: dict, probes: dict) -> list[str]:
    p = params["p"]
    h = oracles.eichler_class_number(p)
    got = (_int(doc["formula"]), _int(doc["enumeration"]))
    faults = []
    if got != (h, h):
        faults.append(f"p={p}: formula {got[0]}, enumeration {got[1]}, Eichler's formula {h}")
    if doc["agree"] is not True:
        faults.append(f"p={p}: agree is {doc['agree']}")
    return faults


def classset_faults(params: dict, doc: dict, probes: dict) -> list[str]:
    """Count against Eichler's formula; distinct right ideals of the order;
    the mass sum 2/|O_L(I)^x| = (p-1)/12."""
    p = params["p"]
    h = oracles.eichler_class_number(p)
    ideals = doc["ideals"]
    faults = []
    if _int(doc["count"]) != h or len(ideals) != h:
        faults.append(f"p={p}: count {doc['count']}, {len(ideals)} ideals, Eichler's formula {h}")
    (probe,) = probes.values()
    faults += bpinf_order_faults(p, probe)
    if faults:
        return faults
    a, b = Fraction(probe["a"]), Fraction(probe["b"])
    for k, ideal in enumerate(ideals):
        faults += [f"p={p}: ideal {k}: {f}" for f in oracles.right_ideal_faults(
            a, b, ideal["basis"], probe["basis"], Fraction(ideal["nrd"]))]
        if any(oracles.same_lattice(ideal["basis"], other["basis"]) for other in ideals[:k]):
            faults.append(f"p={p}: ideal {k} is listed twice")
    if faults:
        return faults
    mass = Fraction(0)
    for ideal in ideals:
        units = oracles.unit_count(a, b, ideal["basis"], Fraction(ideal["nrd"]))
        if units == 0:
            return [f"p={p}: an ideal's left order has no units"]
        mass += Fraction(2, units)
    if mass != Fraction(p - 1, 12):
        faults.append(f"p={p}: mass {mass}, expected {Fraction(p - 1, 12)}")
    return faults


def divisor_faults(divisors: list[int], h: int, D: int) -> list[str]:
    faults = []
    if prod(divisors) != h:
        faults.append(f"D={D}: elementary divisors {divisors} do not multiply to {h}")
    if any(d < 2 for d in divisors) or any(y % x for x, y in zip(divisors, divisors[1:])):
        faults.append(f"D={D}: {divisors} is not a divisibility chain")
    if sum(d % 2 == 0 for d in divisors) != oracles.two_rank(D):
        faults.append(f"D={D}: {divisors} has the wrong 2-rank for genus theory")
    return faults


def quadclass_faults(params: dict, doc: dict, probes: dict) -> list[str]:
    D, narrow = params["D"], params["narrow"]
    group = doc["group"]
    h = _int(group["order"])
    forms = [tuple(_int(x) for x in f) for f in group["forms"]]
    faults = []
    if _int(group["disc"]) != D or group["narrow"] is not narrow:
        faults.append(f"D={D}: output is for {group['disc']}, narrow={group['narrow']}")
    if D < 0:
        expected = oracles.dirichlet_class_number(D)
        classes = None
    else:
        classes = oracles.reduced_cycles(D)
        expected = len(set(classes.values()))
    if h != expected:
        faults.append(f"D={D}: h={h}, expected {expected}")
    faults += divisor_faults([_int(d) for d in group["elementary_divisors"]], h, D)
    if len(forms) != h or len(set(forms)) != len(forms):
        faults.append(f"D={D}: {len(forms)} forms, {len(set(forms))} distinct, h={h}")
    for f in forms:
        a, b, c = f
        if b * b - 4 * a * c != D or gcd(gcd(a, b), c) != 1 or not oracles.is_reduced_form(f, D):
            faults.append(f"D={D}: {f} is not a primitive reduced form of discriminant D")
    if classes is not None and not faults:
        if len({classes[f] for f in forms}) != len(forms):
            faults.append(f"D={D}: two listed forms are properly equivalent")
    return faults


def swan_faults(params: dict, doc: dict, probes: dict) -> list[str]:
    """Group order is the product of center class numbers; orders are maximal."""
    faults = []
    expected = 1
    for factor in params["factors"]:
        D = factor.get("center_disc", 1)
        if D != 1:
            expected *= oracles.dirichlet_class_number(D) if D < -4 else 1
        if factor["kind"] == "quaternion":
            a, b = Fraction(factor["a"]), Fraction(factor["b"])
            if len(oracles.ramified(a, b)) % 2:
                faults.append(f"({a}, {b}) ramifies at an odd number of places")
            (answer,) = probes.values()
            faults += [f"order of ({a}, {b}): {f}"
                       for f in oracles.order_faults(a, b, answer["basis"])]
    if _int(doc["group"]["order"]) != expected:
        faults.append(f"group order {doc['group']['order']}, expected {expected}")
    return faults


CHECKS = {
    "cancel": cancel_faults,
    "classnumber": classnumber_faults,
    "classset": classset_faults,
    "quadclass": quadclass_faults,
    "swan": swan_faults,
}
