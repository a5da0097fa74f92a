"""Seeded inputs for the four workloads.

A run is a sequence of rounds.  Every round of a workload holds one query
from each of a fixed list of cost strata, so the work in a round barely
depends on the seed; the seed picks which input each stratum gives, the
command variant, and the order of rounds.  No input occurs twice in a run,
so the program's caches (maximal orders, class groups, form composition)
never answer a query from an earlier one.  A run takes rounds until its time
is up or the workload's rounds run out.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path

import oracles

WORKLOADS = ("cancel", "classset", "quadclass", "saturate")

# cancel: the first BANDS * SLOTS * WIDTH primes (up to about 30000), cut into
# ranges of WIDTH consecutive primes; band k holds SLOTS neighbouring ranges.
# Cost per range grows with height (larger numbers, and locfree's prime
# generator restarts from 2 on every query), so each round takes one range
# per band.
CANCEL_WIDTH = 50
CANCEL_BANDS = 5
CANCEL_SLOTS = 13
CANCEL_ORDER_SAMPLE = 2  # maximal orders re-checked per range

# classset: primes whose class-set searches take the same time to within
# 5% (h = 6, 9, 12-13 and 14-15).  The smallest stratum bounds the rounds.
CLASSSET_STRATA = (
    (59, 67, 73),
    (101, 103, 109),
    (137, 149, 157),
    (163, 167, 181),
)

# quadclass: D = -q for primes q = 3 mod 4 in this window whose class number
# is the stratum's prime h.  A group of prime order is cyclic, so every such
# D asks for the same number of compositions; h^2 sets the cost.
QUAD_WINDOW = (40_000, 120_000)
QUAD_CLASS_NUMBERS = (31, 53, 79)
# narrow groups of real fields: D with h+(D) = 2, whose cost barely varies
# (a larger h+ can cost 50 times more)
QUAD_REAL_WINDOW = (20_000, 60_000)
QUAD_REAL_PER_ROUND = 2
QUAD_ROUNDS = 6

# saturate: (a, b) = (-q, -s) ramified exactly at {q, inf}, so s is split and
# saturation runs its O(s^3) radical scan at s; s sets the cost, one stratum
# per s, and the seed picks the partner q.  Half the documents add a matrix
# factor over a small imaginary quadratic center.
SATURATE_SPLIT_PRIMES = (59, 83, 103)
SATURATE_PARTNER_BOUND = 110
SATURATE_CENTERS = (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -31, -35,
                    -39, -40, -43, -47, -51, -52, -55, -56, -59, -67, -68, -71)
SATURATE_ROUNDS = 6


@dataclass
class Query:
    """One CLI invocation and what the checks need to know about it."""

    argv: list[str]
    kind: str
    params: dict
    probes: list = field(default_factory=list)


@dataclass
class Plan:
    rounds: list[list[Query]]
    files: dict[str, str] = field(default_factory=dict)


def make_plan(workload: str, seed: int, spec_dir: str) -> Plan:
    """All rounds a run of this workload may take, built from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cancel":
        return _cancel(rng)
    if workload == "classset":
        return _classset(rng)
    if workload == "quadclass":
        return _quadclass(rng)
    if workload == "saturate":
        return _saturate(rng, spec_dir, seed)
    raise ValueError(f"unknown workload {workload!r}")


def _cancel(rng) -> Plan:
    count = CANCEL_BANDS * CANCEL_SLOTS * CANCEL_WIDTH
    bound = 64
    while len(ps := oracles.sieve(bound)) < count:
        bound *= 2
    ps = ps[:count]
    order = [rng.sample(range(CANCEL_SLOTS), CANCEL_SLOTS) for _ in range(CANCEL_BANDS)]
    rounds = []
    for r in range(CANCEL_SLOTS):
        queries = []
        for band in range(CANCEL_BANDS):
            first = (band * CANCEL_SLOTS + order[band][r]) * CANCEL_WIDTH
            block = ps[first:first + CANCEL_WIDTH]
            lo, hi = block[0], block[-1]
            queries.append(Query(
                ["lfcg", "cancel", "--json", "--range", f"{lo}..{hi}"],
                "cancel", {"lo": lo, "hi": hi},
                [["bpinf", p] for p in sorted(rng.sample(block, CANCEL_ORDER_SAMPLE))]))
        rounds.append(queries)
    return Plan(rounds)


def _classset(rng) -> Plan:
    picks = [rng.sample(s, len(s)) for s in CLASSSET_STRATA]
    rounds = []
    for r in range(min(len(s) for s in CLASSSET_STRATA)):
        queries = []
        for stratum in picks:
            p = stratum[r]
            which = rng.choice(("classnumber", "classset"))
            queries.append(Query(["order", which, "--json", str(p)], which, {"p": p},
                                 [["bpinf", p]] if which == "classset" else []))
        rounds.append(queries)
    return Plan(rounds)


def prime_class_numbers(lo: int, hi: int, wanted) -> dict[int, list[int]]:
    """{h: [q, ...]} for primes q = 3 mod 4 in [lo, hi) with h(-q) in wanted.

    Counts reduced forms (a, b, c) of discriminant -q = b^2 - 4ac for all q
    of the window at once: for fixed (a, b) those q step by 4a.  Forms of
    prime discriminant are all primitive.
    """
    counts: dict[int, int] = {}
    for a in range(1, isqrt(hi // 3) + 1):
        for b in range(-a + 1 + a % 2, a + 1, 2):  # q = 3 mod 4 forces b odd
            c = max(a + (b < 0), -(-(lo + b * b) // (4 * a)))
            for q in range(4 * a * c - b * b, hi, 4 * a):
                counts[q] = counts.get(q, 0) + 1
    out: dict[int, list[int]] = {h: [] for h in wanted}
    for q in oracles.sieve(hi):
        if q >= lo and q % 4 == 3 and counts.get(q) in out:
            out[counts[q]].append(q)
    return out


def _quadclass(rng) -> Plan:
    pools = prime_class_numbers(*QUAD_WINDOW, QUAD_CLASS_NUMBERS)
    picks = [rng.sample(pools[h], QUAD_ROUNDS) for h in QUAD_CLASS_NUMBERS]
    reals: set[int] = set()
    while len(reals) < QUAD_ROUNDS * QUAD_REAL_PER_ROUND:
        D = rng.randrange(*QUAD_REAL_WINDOW)
        if oracles.is_fundamental(D) and len(set(oracles.reduced_cycles(D).values())) == 2:
            reals.add(D)
    reals_in_order = rng.sample(sorted(reals), len(reals))
    rounds = []
    for r in range(QUAD_ROUNDS):
        queries = [Query(["quadclass", "--json", "--", str(-pick[r])], "quadclass",
                         {"D": -pick[r], "narrow": False}) for pick in picks]
        for D in reals_in_order[r * QUAD_REAL_PER_ROUND:(r + 1) * QUAD_REAL_PER_ROUND]:
            queries.append(Query(["quadclass", "--json", "--narrow", str(D)], "quadclass",
                                 {"D": D, "narrow": True}))
        rounds.append(queries)
    return Plan(rounds)


def _saturate(rng, spec_dir: str, seed: int) -> Plan:
    partners = oracles.sieve(SATURATE_PARTNER_BOUND)
    used: set[tuple[int, int]] = set()
    rounds, files = [], {}
    for r in range(SATURATE_ROUNDS):
        queries = []
        for k, s in enumerate(SATURATE_SPLIT_PRIMES):
            options = [q for q in partners if q != s and (q, s) not in used
                       and oracles.ramified(-q, -s) == {q, oracles.INF}]
            q = rng.choice(options)
            used.add((q, s))
            factors = [{"kind": "quaternion", "a": str(-q), "b": str(-s)}]
            if rng.random() < 0.5:
                factors.append({"kind": "matrix", "degree": 2,
                                "center_disc": rng.choice(SATURATE_CENTERS)})
            path = f"{spec_dir}/saturate-{seed}-{r}-{k}.json"
            files[path] = json.dumps({"factors": factors}, sort_keys=True)
            queries.append(Query(["lfcg", "swan", "--json", "--spec", path], "swan",
                                 {"factors": factors}, [["quat", str(-q), str(-s)]]))
        rounds.append(queries)
    return Plan(rounds, files)


def write_files(root: Path, plan: Plan) -> None:
    for rel, text in plan.files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Print the queries of a run, round by round.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    plan = make_plan(args.workload, args.seed, "perfbench/out/specs")
    for number, queries in enumerate(plan.rounds):
        for query in queries:
            print(number, " ".join(query.argv))
    for path, text in plan.files.items():
        print(path, text)
