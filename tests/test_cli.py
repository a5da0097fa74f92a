"""Tests for the command line front end: exit codes, formats, schema."""

import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from locfree import cli
from locfree.cli import CLASS_SET_PRIME_LIMIT, _build_parser, run
from locfree.latorder import class_set, maximal_order
from locfree.lfcg import CANCEL_RANGE_LIMIT
from locfree.numtheory import PRIMALITY_BOUND
from locfree.quadfield import class_group
from locfree.quatalg import QuaternionAlgebra
from test_latorder import _closed_superlattice_lines
from test_quadfield import quotient_closure_divisors

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "schemas" / "output.schema.json"


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_example(capsys):
    code, out, err = invoke(capsys, ["symbol", "hilbert", "-1", "-1", "--place", "2"])
    assert (code, out, err) == (0, "-1\n", "")
    # the documented separator form gives the same bytes
    code2, out2, _ = invoke(capsys, ["symbol", "hilbert", "--place", "2", "--", "-1", "-1"])
    assert (code2, out2) == (0, out)
    code3, out3, _ = invoke(capsys, ["symbol", "hilbert", "--place", "inf", "--", "-1", "-1/2"])
    assert (code3, out3) == (0, "-1\n")


def test_symbol_values(capsys):
    assert invoke(capsys, ["symbol", "legendre", "2", "7"])[:2] == (0, "1\n")
    assert invoke(capsys, ["symbol", "legendre", "3", "7"])[:2] == (0, "-1\n")
    assert invoke(capsys, ["symbol", "kronecker", "2", "15"])[:2] == (0, "1\n")


def test_classnumber_example(capsys):
    code, out, err = invoke(capsys, ["order", "classnumber", "11"])
    assert code == 0
    assert out.splitlines() == ["formula: 2", "enumeration: 2", "agree: true"]


def test_quadclass_text(capsys):
    code, out, _ = invoke(capsys, ["quadclass", "--", "-47"])
    assert code == 0
    assert out.splitlines()[0] == "h(-47) = 5"
    code, out, _ = invoke(capsys, ["quadclass", "--narrow", "12"])
    assert code == 0
    assert out.splitlines()[0] == "h+(12) = 2"


def test_cancel_range_json(capsys):
    code, out, _ = invoke(capsys, ["lfcg", "cancel", "--json", "--range", "2..50"])
    assert code == 0
    doc = json.loads(out)
    holding = {int(row["p"]) for row in doc["table"] if row["holds"]}
    assert holding == {2, 3, 5, 7, 13}
    assert all(row["cl"] == "1" for row in doc["table"])


def test_byte_determinism(capsys):
    a = invoke(capsys, ["lfcg", "cancel", "--json", "--range", "2..30"])
    b = invoke(capsys, ["lfcg", "cancel", "--json", "--range", "2..30"])
    assert a == b
    c = invoke(capsys, ["order", "classset", "11", "--json"])
    d = invoke(capsys, ["order", "classset", "11", "--json"])
    assert c == d


def test_domain_errors_exit_1(capsys, tmp_path):
    bad_specs = []
    for i, doc in enumerate((
        {"factors": "abc"},
        {"factors": [1]},                                   # factor not an object
        {"factors": [{"kind": "matrix"}]},                  # no degree
        {"factors": [{"kind": "matrix", "degree": 2, "center": 5}]},
    )):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        bad_specs.append(["lfcg", "swan", "--spec", str(path)])
    for argv in bad_specs + [
        ["quadclass", "--", "-21"],           # not a fundamental discriminant
        ["symbol", "legendre", "3", "4"],      # modulus is not an odd prime
        ["order", "disc", "10"],               # not prime
        ["lfcg", "stable", "--bpinf", "11", "--norm", "11"],  # ramified norm
        ["lfcg", "cancel", "--range", "9..2"],
        ["lfcg", "cancel", "--range", f"2..{CANCEL_RANGE_LIMIT + 2}"],  # one too wide
        ["symbol", "hilbert", "1", "1", "--place", "x"],
        ["lfcg", "swan", "--spec", "/nonexistent/algebra.json"],
    ]:
        code, out, err = invoke(capsys, argv)
        assert code == 1, argv
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert out == ""


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["nonsense"],
        ["lfcg", "cancel"],                    # missing --range
        ["lfcg", "cancel", "--range", "2..x"],
        ["symbol", "hilbert", "1", "1"],       # missing --place
        ["lfcg", "swan", "--bpinf", "2", "--spec", "f.json"],  # exclusive
        [],
        ["symbol", "hilbert", "1/0", "1", "--place", "2"],  # zero denominator
        ["quat", "nrd", "--", "-1", "-1", "1/0", "0", "0", "0"],
    ):
        code, _, err = invoke(capsys, argv)
        assert code == 2, argv
        assert "Traceback" not in err


def test_one_parser_serves_every_query(capsys):
    """The cached parser gives the same bytes and exit codes on a second pass
    after a usage error and a domain error."""
    queries = (
        ["lfcg", "cancel", "--range", "2..x"],         # usage error
        ["lfcg", "cancel", "--range", "9..2"],         # domain error
        ["lfcg", "cancel", "--json", "--range", "2..30"],
    )
    passes = [[invoke(capsys, argv) for argv in queries] for _ in range(2)]
    assert [code for code, _, _ in passes[0]] == [2, 1, 0]
    assert passes[0] == passes[1]
    assert _build_parser() is _build_parser()


def sieve_primes(lo, hi):
    flags = [True] * (hi + 1)
    for n in range(2, hi + 1):
        if flags[n]:
            for m in range(n * n, hi + 1, n):
                flags[m] = False
    return [n for n in range(max(lo, 2), hi + 1) if flags[n]]


SMALL_RANGES = st.tuples(st.integers(-30, 700), st.integers(-30, 700))
WIDE_RANGES = st.tuples(st.integers(-10**15, 10**15),
                        st.integers(CANCEL_RANGE_LIMIT, 10**15)).map(
                            lambda t: (t[0], t[0] + t[1]))
HIGH_RANGES = st.tuples(st.integers(PRIMALITY_BOUND + 1, 10**16),
                        st.integers(0, 50)).map(lambda t: (t[0], t[0] + t[1]))
RANGE_TEXT = st.one_of(
    st.one_of(SMALL_RANGES, WIDE_RANGES, HIGH_RANGES).map(lambda t: f"{t[0]}..{t[1]}"),
    st.text(alphabet="0123456789.-x ", max_size=6),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=RANGE_TEXT, as_json=st.booleans())
def test_cancel_range_property(text, as_json):
    # the joined form lets argparse take a range that starts with "-"
    argv = ["lfcg", "cancel"] + (["--json"] if as_json else []) + [f"--range={text}"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    parts = text.split("..")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except (ValueError, IndexError):
        return
    if len(parts) != 2:
        return
    if hi - lo + 1 > CANCEL_RANGE_LIMIT:
        assert code == 1 and f"at most {CANCEL_RANGE_LIMIT}" in err.getvalue()
    if code or hi > 700:
        return
    if as_json:
        rows = [(int(r["p"]), r["cl"], r["holds"]) for r in json.loads(out.getvalue())["table"]]
    else:
        rows = [(int(f[0][2:]), f[2][3:], f[3] == "holds=true")
                for f in (line.split() for line in out.getvalue().splitlines())]
    assert [r[0] for r in rows] == sieve_primes(lo, hi)
    assert all(cl == "1" for _, cl, _ in rows)
    assert {p for p, _, holds in rows if holds} == {2, 3, 5, 7, 13} & set(range(lo, hi + 1))


def count_reduced_definite_forms(D):
    """h(D) for D < 0: primitive (a, b, c) with |b| <= a <= c, b >= 0 if |b| = a or a = c."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (a == c and b < 0) or gcd(gcd(a, b), c) != 1:
                continue
            count += 1
        a += 1
    return count


@settings(max_examples=200, deadline=None, derandomize=True)
@given(D=st.integers(-20000, 20000), narrow=st.booleans())
def test_quadclass_json_property(D, narrow):
    argv = ["quadclass", "--json"] + (["--narrow"] if narrow else []) + ["--", str(D)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code:
        return
    group = json.loads(out.getvalue())["group"]
    order = int(group["order"])
    product = 1
    for d in group["elementary_divisors"]:
        product *= int(d)
    assert product == order
    if D < 0:
        assert order == count_reduced_definite_forms(D)
    if abs(D) <= 5000:
        oracle = quotient_closure_divisors(class_group.__wrapped__(D, narrow))
        assert [str(d) for d in oracle] == group["elementary_divisors"]


SYMBOL_ENTRIES = st.builds(Fraction, st.integers(-40, 40).filter(bool),
                           st.integers(1, 4))


@settings(max_examples=16, deadline=None, derandomize=True)
@given(a=SYMBOL_ENTRIES, b=SYMBOL_ENTRIES)
def test_swan_spec_saturation_property(a, b):
    # (a, b) with denominators mostly lies outside the closed forms, so the
    # maximal order comes from saturation
    doc = {"factors": [{"kind": "quaternion", "a": str(a), "b": str(b)}]}
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc))
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["lfcg", "swan", "--json", "--spec", str(path)])
    assert code in (0, 1, 2), doc
    assert "Traceback" not in err.getvalue()
    if code:
        return
    o = maximal_order(QuaternionAlgebra(a, b))
    for q in (2, 3, 5, 7):
        if o.reduced_disc % q == 0:
            assert not _closed_superlattice_lines(o, q)


# the class sets the property below may start: p <= SMALL_CLASS_SET costs
# well under a second, while a p just under the limit costs tens of seconds
SMALL_CLASS_SET = 120


def _int_or_none(text):
    try:
        return int(text)
    except ValueError:
        return None


ARG_TEXT = st.one_of(
    st.integers(-60, 60).map(str),
    st.integers(-10**20, 10**20).map(str),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-50, 50), st.integers(-3, 9)),
    st.text(alphabet="0123456789-/x ", max_size=6),
)
ORDER_P = st.one_of(
    st.integers(-5, SMALL_CLASS_SET),
    st.integers(CLASS_SET_PRIME_LIMIT + 1, CLASS_SET_PRIME_LIMIT + 300),
    st.integers(CLASS_SET_PRIME_LIMIT + 1, 10**20),
).map(str) | ARG_TEXT.filter(
    lambda t: not SMALL_CLASS_SET < (_int_or_none(t) or 0) <= CLASS_SET_PRIME_LIMIT)


@st.composite
def order_and_symbol_argv(draw):
    json_flag = ["--json"] if draw(st.booleans()) else []
    which = draw(st.sampled_from(["disc", "classset", "classnumber",
                                  "legendre", "kronecker", "hilbert"]))
    if which in ("disc", "classset", "classnumber"):
        return ["order", which] + json_flag + ["--", draw(ORDER_P)]
    args = [draw(ARG_TEXT), draw(ARG_TEXT)]
    if which == "hilbert":
        place = draw(st.one_of(st.just("inf"), ARG_TEXT))
        json_flag.append(f"--place={place}")
    return ["symbol", which] + json_flag + ["--"] + args


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=order_and_symbol_argv())
def test_order_and_symbol_argument_property(argv):
    """Exit 0, 1 or 2 and never a traceback; a p above the limit exits 1
    without starting a class set."""
    def small_class_set(order, *rest):
        assert order.reduced_disc <= SMALL_CLASS_SET, argv
        return class_set(order, *rest)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "class_set", small_class_set), \
            redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
    p = _int_or_none(argv[-1])
    if argv[1] in ("classset", "classnumber") and p and p > CLASS_SET_PRIME_LIMIT:
        assert code == 1 and str(CLASS_SET_PRIME_LIMIT) in err.getvalue()
    if code or "--json" in argv:
        return
    lines = out.getvalue().splitlines()
    if argv[1] == "disc":
        assert lines == [str(p)]
    elif argv[1] == "classnumber":
        assert lines[0][len("formula: "):] == lines[1][len("enumeration: "):]
        assert lines[2] == "agree: true"
    elif argv[1] == "legendre":
        a, q = int(argv[-2]), int(argv[-1])
        assert int(lines[0]) % q == pow(a, (q - 1) // 2, q)
    elif argv[0] == "symbol":
        assert lines[0] in ("-1", "0", "1")


def test_no_ansi_escapes(capsys):
    for argv in (["order", "classset", "11"], ["quat", "ramified", "--", "-1", "-1"]):
        _, out, _ = invoke(capsys, argv)
        assert "\x1b" not in out


def test_json_outputs_validate_against_schema(capsys, tmp_path):
    spec_file = tmp_path / "algebra.json"
    spec_file.write_text(json.dumps({
        "factors": [
            {"kind": "matrix", "degree": 2, "center_disc": -20},
            {"kind": "ramified-quaternion", "finite": [2, 3], "real": []},
        ]
    }))
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))
    invocations = [
        ["symbol", "legendre", "--json", "2", "7"],
        ["symbol", "kronecker", "--json", "2", "15"],
        ["symbol", "hilbert", "--json", "--place", "2", "--", "-1", "-1"],
        ["quat", "ramified", "--json", "--", "-1", "-1"],
        ["quat", "bpinf", "--json", "13"],
        ["quat", "nrd", "--json", "--", "-1", "-1", "1/2", "1/2", "1/2", "1/2"],
        ["order", "disc", "--json", "7"],
        ["order", "classset", "--json", "11"],
        ["order", "classnumber", "--json", "11"],
        ["quadclass", "--json", "--", "-47"],
        ["quadclass", "--json", "--narrow", "12"],
        ["lfcg", "swan", "--json", "--bpinf", "11"],
        ["lfcg", "swan", "--json", "--spec", str(spec_file)],
        ["lfcg", "eichler", "--json", "--bpinf", "3"],
        ["lfcg", "eichler", "--json", "--spec", str(spec_file)],
        ["lfcg", "cancel", "--json", "--range", "2..20"],
        ["lfcg", "stable", "--json", "--bpinf", "2", "--norm", "3"],
        ["lfcg", "stable", "--json", "--bpinf", "11", "--norm", "1"],
    ]
    for argv in invocations:
        code, out, err = invoke(capsys, argv)
        assert code == 0, (argv, err)
        doc = json.loads(out)
        validator.validate(doc)


def test_module_entry_point_matches_run(capsys):
    code, out, _ = invoke(capsys, ["symbol", "legendre", "2", "7"])
    proc = subprocess.run(
        [sys.executable, "-m", "locfree.cli", "symbol", "legendre", "2", "7"],
        capture_output=True, text=True)
    assert proc.returncode == code == 0
    assert proc.stdout == out
