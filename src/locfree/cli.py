"""Command line front end.

Every subcommand is a pure batch query: the same arguments produce byte
identical output.  Plain text goes to standard output by default; --json
switches to a single JSON object per invocation (sorted keys).  Exit codes:
0 success, 1 domain error (message names the violated precondition), 2 usage
error.  Negative rationals such as -1/2 need a `--` separator before the
positional arguments.
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .latorder import (
    RightIdeal,
    class_set,
    eichler_class_number,
    maximal_order,
    right_ideals_of_norm,
)
from .lfcg import (
    CANCEL_RANGE_LIMIT,
    MaximalOrderDescriptor,
    QuaternionFactor,
    cancellation_table,
    eichler_condition,
    spec_from_json,
    stable_class,
    swan_class_group,
)
from .numtheory import Place, fraction_str, hilbert_symbol, is_prime, kronecker, legendre
from .quadfield import class_group
from .quatalg import QuaternionAlgebra, b_p_infinity, ramified_places


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator")


def _emit(ns, lines, payload) -> int:
    if ns.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def _parse_place(text: str) -> Place:
    if text == "inf":
        return Place.real()
    try:
        p = int(text)
    except ValueError:
        raise ValueError(f"place must be a prime or 'inf', got {text!r}")
    return Place.finite(p)


def _require_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


# The largest p that `order classset|classnumber p` accepts; the search grows
# faster than h^2.  On a 2-CPU machine (Python 3.11) p = 2003 takes 8 s,
# p = 2969 and 2999 21-24 s, p = 3203 32 s.  `order disc` has no limit.
CLASS_SET_PRIME_LIMIT = 3000


def _require_class_set_prime(p: int) -> int:
    if p > CLASS_SET_PRIME_LIMIT:
        raise ValueError(f"class sets are computed for p <= {CLASS_SET_PRIME_LIMIT} only")
    return _require_prime(p)


# ---------------------------------------------------------------------------
# symbol


def _cmd_legendre(ns) -> int:
    v = legendre(ns.a, ns.p)
    payload = {"command": "symbol", "symbol": "legendre", "a": str(ns.a), "n": str(ns.p), "value": str(v)}
    return _emit(ns, [str(v)], payload)


def _cmd_kronecker(ns) -> int:
    v = kronecker(ns.a, ns.n)
    payload = {"command": "symbol", "symbol": "kronecker", "a": str(ns.a), "n": str(ns.n), "value": str(v)}
    return _emit(ns, [str(v)], payload)


def _cmd_hilbert(ns) -> int:
    place = _parse_place(ns.place)
    v = hilbert_symbol(ns.a, ns.b, place)
    payload = {
        "command": "symbol",
        "symbol": "hilbert",
        "a": fraction_str(ns.a),
        "b": fraction_str(ns.b),
        "place": str(place),
        "value": str(v),
    }
    return _emit(ns, [str(v)], payload)


# ---------------------------------------------------------------------------
# quat


def _cmd_quat_ramified(ns) -> int:
    places = sorted(ramified_places(ns.a, ns.b), key=lambda v: v.sort_key())
    names = [str(v) for v in places]
    payload = {
        "command": "quat.ramified",
        "a": fraction_str(ns.a),
        "b": fraction_str(ns.b),
        "ramified": names,
    }
    return _emit(ns, [" ".join(names) if names else "(none)"], payload)


def _cmd_quat_bpinf(ns) -> int:
    alg = b_p_infinity(ns.p)
    payload = {"command": "quat.bpinf", "p": str(ns.p), "algebra": alg.to_json()}
    lines = [f"({fraction_str(alg.a)}, {fraction_str(alg.b)} | Q)"]
    return _emit(ns, lines, payload)


def _cmd_quat_nrd(ns) -> int:
    alg = QuaternionAlgebra(ns.a, ns.b)
    x = alg.quaternion(ns.t, ns.x, ns.y, ns.z)
    v = x.nrd()
    payload = {
        "command": "quat.nrd",
        "a": fraction_str(ns.a),
        "b": fraction_str(ns.b),
        "coords": [fraction_str(c) for c in x.coords],
        "nrd": fraction_str(v),
    }
    return _emit(ns, [fraction_str(v)], payload)


# ---------------------------------------------------------------------------
# order


def _cmd_order_disc(ns) -> int:
    order = maximal_order(b_p_infinity(_require_prime(ns.p)))
    payload = {"command": "order.disc", "p": str(ns.p), "order": order.to_json()}
    return _emit(ns, [str(order.reduced_disc)], payload)


def _cmd_order_classset(ns) -> int:
    order = maximal_order(b_p_infinity(_require_class_set_prime(ns.p)))
    reps = class_set(order)
    payload = {
        "command": "order.classset",
        "p": str(ns.p),
        "count": str(len(reps)),
        "ideals": [i.to_json() for i in reps],
    }
    lines = [f"h = {len(reps)}"] + [f"nrd = {fraction_str(i.nrd)}" for i in reps]
    return _emit(ns, lines, payload)


def _cmd_order_classnumber(ns) -> int:
    p = _require_class_set_prime(ns.p)
    formula = eichler_class_number(p)
    enumerated = len(class_set(maximal_order(b_p_infinity(p))))
    agree = formula == enumerated
    payload = {
        "command": "order.classnumber",
        "p": str(p),
        "formula": str(formula),
        "enumeration": str(enumerated),
        "agree": agree,
    }
    lines = [
        f"formula: {formula}",
        f"enumeration: {enumerated}",
        f"agree: {'true' if agree else 'false'}",
    ]
    return _emit(ns, lines, payload)


# ---------------------------------------------------------------------------
# quadclass


def _cmd_quadclass(ns) -> int:
    grp = class_group(ns.D, ns.narrow)
    payload = {"command": "quadclass", "group": grp.to_json()}
    divisors = ", ".join(str(d) for d in grp.elementary_divisors()) or "trivial"
    label = "h+" if ns.narrow else "h"
    lines = [f"{label}({ns.D}) = {grp.order}", f"elementary divisors: {divisors}"]
    return _emit(ns, lines, payload)


# ---------------------------------------------------------------------------
# lfcg


def _load_spec(ns):
    if ns.bpinf is not None:
        alg = b_p_infinity(_require_prime(ns.bpinf))
        from .lfcg import SeparableAlgebraSpec

        return SeparableAlgebraSpec.quaternion(alg.a, alg.b)
    try:
        with open(ns.spec, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read algebra spec: {e}")
    except json.JSONDecodeError as e:
        raise ValueError(f"algebra spec is not valid JSON: {e}")
    return spec_from_json(doc)


def _descriptor(spec) -> MaximalOrderDescriptor:
    orders = tuple(
        maximal_order(QuaternionAlgebra(f.a, f.b)) if isinstance(f, QuaternionFactor) else None
        for f in spec.factors
    )
    return MaximalOrderDescriptor(spec, orders)


def _cmd_lfcg_swan(ns) -> int:
    group = swan_class_group(_descriptor(_load_spec(ns)))
    payload = {"command": "lfcg.swan", "group": group.to_json()}
    divisors = ", ".join(str(d) for d in group.elementary_divisors()) or "trivial"
    lines = [f"order {group.order}", f"elementary divisors: {divisors}"] + [
        f"factor {i}: {f.variant} (order {f.order})" for i, f in enumerate(group.factors)
    ]
    return _emit(ns, lines, payload)


def _cmd_lfcg_eichler(ns) -> int:
    report = eichler_condition(_load_spec(ns))
    payload = {"command": "lfcg.eichler", "report": report.to_json()}
    lines = [f"satisfied: {'true' if report.satisfied else 'false'}"] + [
        f"factor {i}: {f.kind} over disc {f.center_disc}: "
        f"{'splits at infinity' if f.satisfied else 'totally definite'}"
        for i, f in enumerate(report.factors)
    ]
    return _emit(ns, lines, payload)


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("range must look like A..B")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("range endpoints must be integers")
    return lo, hi


def _cmd_lfcg_cancel(ns) -> int:
    lo, hi = ns.range
    if lo > hi:
        raise ValueError("empty range: lower endpoint exceeds upper endpoint")
    table = cancellation_table(lo, hi)
    payload = {
        "command": "lfcg.cancel",
        "range": f"{lo}..{hi}",
        "table": [v.to_json() for v in table],
    }
    lines = [
        f"p={v.p} h={v.h} cl={v.cl} holds={'true' if v.holds else 'false'}" for v in table
    ]
    return _emit(ns, lines, payload)


def _cmd_lfcg_stable(ns) -> int:
    order = maximal_order(b_p_infinity(_require_prime(ns.bpinf)))
    if ns.norm == 1:
        ideal = RightIdeal.unit_ideal(order)
    else:
        ideals = right_ideals_of_norm(order, ns.norm)
        if not 0 <= ns.index < len(ideals):
            raise ValueError(f"index must be in [0, {len(ideals)}) for norm {ns.norm}")
        ideal = ideals[ns.index]
    cls = stable_class(ideal)
    payload = {
        "command": "lfcg.stable",
        "p": str(ns.bpinf),
        "index": ns.index,
        "class": cls.to_json(),
        "ideal": ideal.to_json(),
    }
    lines = [
        f"nrd = {fraction_str(ideal.nrd)}",
        f"identity: {'true' if cls.is_identity else 'false'}",
    ]
    return _emit(ns, lines, payload)


# ---------------------------------------------------------------------------
# parser


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object")

    parser = argparse.ArgumentParser(
        prog="locfree",
        description="Exact computations with quaternion orders, ideal classes, "
        "and locally free class groups.",
        epilog="Use `--` before negative positional arguments, e.g. "
        "`locfree symbol hilbert --place 2 -- -1 -1`.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    sym = top.add_parser("symbol", help="Legendre, Kronecker, Hilbert symbols")
    symsub = sym.add_subparsers(dest="which", required=True)
    s = symsub.add_parser("legendre", parents=[common])
    s.add_argument("a", type=int)
    s.add_argument("p", type=int)
    s.set_defaults(handler=_cmd_legendre)
    s = symsub.add_parser("kronecker", parents=[common])
    s.add_argument("a", type=int)
    s.add_argument("n", type=int)
    s.set_defaults(handler=_cmd_kronecker)
    s = symsub.add_parser("hilbert", parents=[common])
    s.add_argument("a", type=_fraction)
    s.add_argument("b", type=_fraction)
    s.add_argument("--place", required=True, help="a prime, or 'inf'")
    s.set_defaults(handler=_cmd_hilbert)

    quat = top.add_parser("quat", help="quaternion algebra queries")
    quatsub = quat.add_subparsers(dest="which", required=True)
    s = quatsub.add_parser("ramified", parents=[common])
    s.add_argument("a", type=_fraction)
    s.add_argument("b", type=_fraction)
    s.set_defaults(handler=_cmd_quat_ramified)
    s = quatsub.add_parser("bpinf", parents=[common])
    s.add_argument("p", type=int)
    s.set_defaults(handler=_cmd_quat_bpinf)
    s = quatsub.add_parser("nrd", parents=[common])
    for name in ("a", "b", "t", "x", "y", "z"):
        s.add_argument(name, type=_fraction)
    s.set_defaults(handler=_cmd_quat_nrd)

    order = top.add_parser("order", help="maximal orders in B(p,inf)")
    ordsub = order.add_subparsers(dest="which", required=True)
    s = ordsub.add_parser("disc", parents=[common])
    s.add_argument("p", type=int)
    s.set_defaults(handler=_cmd_order_disc)
    limited = f"a prime, at most {CLASS_SET_PRIME_LIMIT}; a larger p exits 1"
    s = ordsub.add_parser("classset", parents=[common])
    s.add_argument("p", type=int, help=limited)
    s.set_defaults(handler=_cmd_order_classset)
    s = ordsub.add_parser("classnumber", parents=[common])
    s.add_argument("p", type=int, help=limited)
    s.set_defaults(handler=_cmd_order_classnumber)

    s = top.add_parser("quadclass", parents=[common], help="quadratic form class groups")
    s.add_argument("D", type=int, help="fundamental discriminant")
    s.add_argument("--narrow", action="store_true")
    s.set_defaults(handler=_cmd_quadclass)

    lf = top.add_parser("lfcg", help="locally free class groups and cancellation")
    lfsub = lf.add_subparsers(dest="which", required=True)

    def add_spec_args(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--spec", help="JSON file with a factors list")
        g.add_argument("--bpinf", type=int, help="shortcut: the algebra B(p,inf)")

    s = lfsub.add_parser("swan", parents=[common])
    add_spec_args(s)
    s.set_defaults(handler=_cmd_lfcg_swan)
    s = lfsub.add_parser("eichler", parents=[common])
    add_spec_args(s)
    s.set_defaults(handler=_cmd_lfcg_eichler)
    s = lfsub.add_parser("cancel", parents=[common])
    s.add_argument("--range", type=_parse_range, required=True, metavar="A..B",
                   help=f"the integers A..B, at most {CANCEL_RANGE_LIMIT} of them "
                   "(B - A + 1); a wider range exits 1")
    s.set_defaults(handler=_cmd_lfcg_cancel)
    s = lfsub.add_parser("stable", parents=[common])
    s.add_argument("--bpinf", type=int, required=True)
    s.add_argument("--norm", type=int, required=True, help="reduced norm of the ideal")
    s.add_argument("--index", type=int, default=0, help="which norm-q ideal (sorted order)")
    s.set_defaults(handler=_cmd_lfcg_stable)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return ns.handler(ns)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
