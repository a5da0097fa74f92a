"""Tests of the benchmark itself: its oracles catch corrupted outputs, and
tracing changes no output and counts the same calls every time.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from copy import deepcopy
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Query  # noqa: E402

from locfree import cli  # noqa: E402
from locfree.latorder import maximal_order  # noqa: E402
from locfree.quatalg import QuaternionAlgebra, b_p_infinity  # noqa: E402


def locfree_json(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(list(argv)) == 0
    return json.loads(out.getvalue())


def order_probe(alg) -> dict:
    basis = maximal_order(alg).lattice.basis()
    return {"a": str(alg.a), "b": str(alg.b), "basis": [[str(x) for x in r] for r in basis]}


# --- the oracles on their own ------------------------------------------------


def test_oracles_known_values():
    assert oracles.sieve(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [oracles.eichler_class_number(p) for p in (2, 3, 5, 7, 11, 13, 37, 101)] == \
        [1, 1, 1, 1, 2, 1, 3, 9]
    assert [oracles.kronecker(-4, n) for n in (1, 2, 3, 5, 7)] == [1, 0, -1, 1, -1]
    assert oracles.kronecker(-3, 2) == -1 and oracles.kronecker(5, -1) == 1
    assert oracles.hilbert(-1, -1, 2) == -1 and oracles.hilbert(-1, -1, 3) == 1
    assert oracles.ramified(-1, -3) == {3, oracles.INF}
    assert oracles.ramified(Fraction(-1, 2), -3) == {2, oracles.INF}
    assert [oracles.dirichlet_class_number(D) for D in (-23, -84, -4004, -1000003)] == \
        [3, 4, 40, 105]
    assert len(set(oracles.reduced_cycles(221).values())) == 4
    assert oracles.two_rank(-84) == 2 and oracles.two_rank(221) == 1


# --- each check passes on locfree's output and fails on a corrupted one -------


def test_cancel_check_catches_corruption():
    doc = locfree_json("lfcg", "cancel", "--json", "--range", "2..60")
    params = {"lo": 2, "hi": 60}
    probes = {("bpinf", 13): order_probe(b_p_infinity(13))}
    assert checks.cancel_faults(params, doc, probes) == []
    bad_h = deepcopy(doc)
    bad_h["table"][4]["h"] = "3"  # p = 11 has h = 2 (Eichler)
    assert checks.cancel_faults(params, bad_h, probes)
    missing = deepcopy(doc)
    del missing["table"][3]  # the sieve knows 7 is prime
    assert checks.cancel_faults(params, missing, probes)
    flipped = deepcopy(doc)
    flipped["table"][5]["holds"] = False  # cancellation holds at 13
    assert checks.cancel_faults(params, flipped, probes)


@pytest.mark.parametrize("p", [2, 3, 13, 37, 41])
def test_order_check_catches_halved_basis_vector(p):
    probe = order_probe(b_p_infinity(p))
    assert checks.bpinf_order_faults(p, probe) == []
    for i in range(4):
        bad = deepcopy(probe)
        bad["basis"][i] = [str(Fraction(x) / 2) for x in bad["basis"][i]]
        assert checks.bpinf_order_faults(p, bad), f"halving row {i} went unseen"


def test_order_check_catches_wrong_algebra():
    probe = order_probe(QuaternionAlgebra(-1, -7))  # B(7, inf), not B(3, inf)
    assert checks.bpinf_order_faults(7, probe) == []
    assert checks.bpinf_order_faults(3, probe)


def test_classset_check_catches_corruption():
    doc = locfree_json("order", "classset", "--json", "37")
    probes = {("bpinf", 37): order_probe(b_p_infinity(37))}
    assert checks.classset_faults({"p": 37}, doc, probes) == []
    bad_count = deepcopy(doc)
    bad_count["count"] = "4"
    assert checks.classset_faults({"p": 37}, bad_count, probes)
    duplicated = deepcopy(doc)
    duplicated["ideals"][2] = duplicated["ideals"][1]
    assert checks.classset_faults({"p": 37}, duplicated, probes)
    wrong_norm = deepcopy(doc)
    wrong_norm["ideals"][1]["nrd"] = "4"
    assert checks.classset_faults({"p": 37}, wrong_norm, probes)


def test_classset_check_catches_missing_class():
    doc = locfree_json("order", "classset", "--json", "11")
    probes = {("bpinf", 11): order_probe(b_p_infinity(11))}
    assert checks.classset_faults({"p": 11}, doc, probes) == []
    # 2O is a right ideal of norm 4 in the unit ideal's class: the second
    # class is gone, which only the mass formula sees
    doubled = [[str(2 * Fraction(x)) for x in row] for row in doc["ideals"][0]["basis"]]
    doc["ideals"][1] = {"basis": doubled, "nrd": "4"}
    assert checks.classset_faults({"p": 11}, doc, probes)


def test_classnumber_check_catches_changed_h():
    doc = locfree_json("order", "classnumber", "--json", "11")
    assert checks.classnumber_faults({"p": 11}, doc, {}) == []
    doc["formula"] = doc["enumeration"] = "3"
    assert checks.classnumber_faults({"p": 11}, doc, {})


@pytest.mark.parametrize("D", [-84, -4004, -71])
def test_quadclass_check_catches_corruption(D):
    doc = locfree_json("quadclass", "--json", "--", str(D))
    params = {"D": D, "narrow": False}
    assert checks.quadclass_faults(params, doc, {}) == []
    group = doc["group"]
    bad_h = deepcopy(doc)
    bad_h["group"]["order"] = str(int(group["order"]) + 2)
    assert checks.quadclass_faults(params, bad_h, {})
    duplicated = deepcopy(doc)
    duplicated["group"]["forms"][-1] = duplicated["group"]["forms"][0]
    assert checks.quadclass_faults(params, duplicated, {})
    unreduced = deepcopy(doc)
    a, b, c = (int(x) for x in group["forms"][-1])
    unreduced["group"]["forms"][-1] = [str(a), str(b + 2 * a), str(a + b + c)]  # same class
    assert checks.quadclass_faults(params, unreduced, {})


def test_divisor_check_catches_broken_chain():
    doc = locfree_json("quadclass", "--json", "--", "-4004")
    params = {"D": -4004, "narrow": False}
    chain = doc["group"]["elementary_divisors"]
    assert chain == ["2", "2", "10"] and checks.quadclass_faults(params, doc, {}) == []
    doc["group"]["elementary_divisors"] = ["2", "10", "2"]  # same product, no chain
    assert checks.quadclass_faults(params, doc, {})
    assert checks.divisor_faults([4, 10], 40, -4004)  # 4 does not divide 10
    assert checks.divisor_faults([2, 20], 40, -4004)  # 2-rank 1, genus theory says 3
    assert checks.divisor_faults([1, 2, 2, 10], 40, -4004)


def test_narrow_quadclass_check_catches_equivalent_forms():
    doc = locfree_json("quadclass", "--json", "--narrow", "221")
    params = {"D": 221, "narrow": True}
    assert checks.quadclass_faults(params, doc, {}) == []
    cycles = oracles.reduced_cycles(221)
    first = tuple(int(x) for x in doc["group"]["forms"][0])
    twin = next(f for f, k in cycles.items() if k == cycles[first] and f != first)
    doc["group"]["forms"][1] = [str(x) for x in twin]  # reduced, distinct, same class
    assert checks.quadclass_faults(params, doc, {})


def test_swan_check_catches_corruption(tmp_path):
    factors = [{"kind": "quaternion", "a": "-5", "b": "-7"},
               {"kind": "matrix", "degree": 2, "center_disc": -23}]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"factors": factors}))
    doc = locfree_json("lfcg", "swan", "--json", "--spec", str(spec))
    probes = {("quat", "-5", "-7"): order_probe(QuaternionAlgebra(-5, -7))}
    assert checks.swan_faults({"factors": factors}, doc, probes) == []
    bad_order = deepcopy(doc)
    bad_order["group"]["order"] = "1"  # h(-23) = 3
    assert checks.swan_faults({"factors": factors}, bad_order, probes)
    halved = deepcopy(probes)
    row = halved[("quat", "-5", "-7")]["basis"][1]
    halved[("quat", "-5", "-7")]["basis"][1] = [str(Fraction(x) / 2) for x in row]
    assert checks.swan_faults({"factors": factors}, doc, halved)


# --- tracing ------------------------------------------------------------------


def small_plan(tmp_spec: Path) -> list[list[Query]]:
    tmp_spec.write_text(json.dumps({"factors": [{"kind": "quaternion", "a": "-5", "b": "-11"}]}))
    return [[
        Query(["lfcg", "cancel", "--json", "--range", "2..40"], "cancel", {"lo": 2, "hi": 40}),
        Query(["order", "classset", "--json", "23"], "classset", {"p": 23}, [["bpinf", 23]]),
        Query(["quadclass", "--json", "--", "-199"], "quadclass", {"D": -199, "narrow": False}),
        Query(["quadclass", "--json", "--narrow", "221"], "quadclass", {"D": 221, "narrow": True}),
        Query(["lfcg", "swan", "--json", "--spec", str(tmp_spec)], "swan",
              {"factors": [{"kind": "quaternion", "a": "-5", "b": "-11"}]}, [["quat", "-5", "-11"]]),
    ]]


def test_traced_stdout_equals_untraced_and_calls_repeat(tmp_path):
    rounds = small_plan(tmp_path / "spec.json")
    _, plain = run.spawn_worker(rounds, 0)
    _, first = run.spawn_worker(rounds, 0, str(tmp_path / "a.json"))
    _, second = run.spawn_worker(rounds, 0, str(tmp_path / "b.json"))
    assert [q["rc"] for q in plain["rounds"][0]] == [0] * 5
    for traced in (first, second):
        assert [q["out"] for q in traced["rounds"][0]] == [q["out"] for q in plain["rounds"][0]]
    assert run.tally(run.outcomes(rounds, plain))[:3] == (5, 0, True)
    calls = {k: v for k, v in first["trace"].items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second["trace"].items() if k.endswith(".calls")}
    assert all(calls[f"{name}.calls"] > 0 for name in tracing.NAMES), \
        [n for n in tracing.NAMES if not calls[f"{n}.calls"]]
    spans = json.loads((tmp_path / "a.json").read_text())
    assert spans["names"] == list(tracing.NAMES)
    assert len(spans["spans"]) == sum(calls.values())


def test_tracer_patches_every_binding_and_restores_them():
    import locfree
    from locfree import cli as cli_module, latorder, lfcg, linalg

    originals = (linalg.mat_inv, latorder.maximal_order, linalg.Lattice.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert latorder.mat_inv is linalg.mat_inv is not originals[0]
        assert latorder.maximal_order is lfcg.maximal_order is cli_module.maximal_order
        assert locfree.maximal_order is latorder.maximal_order is not originals[1]
        assert linalg.Lattice.__init__ is not originals[2]
        assert latorder.Lattice is linalg.Lattice  # classes stay, so isinstance holds
    finally:
        tracer.uninstall()
    assert (linalg.mat_inv, latorder.maximal_order, linalg.Lattice.__init__) == originals
    assert latorder.mat_inv is linalg.mat_inv


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cancel",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
