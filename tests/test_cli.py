import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relcalc
from relcalc import extensions, forms, harness, linalg
from relcalc.cli import EXTEND_KINDS, main
from relcalc.errors import CrossCheckError
from relcalc.linalg import clear_memos, vec
from relcalc.relations import graph_relation, relation_from_pairs
from relcalc.serialize import canonical_dumps, read_relation, write_relation
from relcalc.spaces import standard_space

from relation_builders import e1, e2

Q2 = standard_space(2)


def e1_path(tmp_path):
    path = tmp_path / "e1.json"
    write_relation(str(path), e1())
    return str(path)


def e2_path(tmp_path):
    path = tmp_path / "e2.json"
    write_relation(str(path), e2())
    return str(path)


def test_analyze_e1(tmp_path, capsys):
    code = main(["analyze", e1_path(tmp_path), "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["symmetric"] is True
    assert data["selfadjoint"] is False
    assert data["numerical_range_zero"] is False
    lo = Fraction(data["bound"]["certified_lo"])
    hi = Fraction(data["bound"]["refuted_hi"])
    assert lo <= 2 < hi
    assert hi - lo <= Fraction(1, 64)
    assert "estimate_approximate" in data["bound"]


def test_analyze_e2_numerical_range_flag(tmp_path, capsys):
    code = main(["analyze", e2_path(tmp_path), "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["numerical_range_zero"] is True


def test_analyze_malformed_rational_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        canonical_dumps(
            {"from": {"dim": 1}, "to": {"dim": 1}, "graph_basis": [["1/0", "1"]]}
        )
    )
    code = main(["analyze", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "graph_basis[0]" in err


def test_analyze_nonsymmetric_exits_3(tmp_path, capsys):
    rel = relation_from_pairs(Q2, Q2, [(vec([1, 0]), vec([0, 1])), (vec([0, 1]), vec([-1, 0]))])
    path = tmp_path / "nonsym.json"
    write_relation(str(path), rel)
    code = main(["analyze", str(path), "--format", "json"])
    assert code == 3


def test_extend_krein_e1(tmp_path, capsys):
    out = tmp_path / "krein.json"
    code = main(["extend", e1_path(tmp_path), "--kind", "krein", "--c", "0", "-o", str(out), "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["asserted_checks"] == [
        "companion-product",
        "operator-part-product",
        "eigenspace-graph-sum",
        "inverse-duality",
    ]
    got = read_relation(str(out))
    from relcalc.extensions import krein

    s = e1()
    assert got == krein(s, 0)


def test_extend_krein_fails_when_only_the_operator_part_route_moves(tmp_path, capsys, monkeypatch):
    # Doubling the regular part of J_c* moves c + ((J_c*)_reg)* (J_c*)_reg
    # alone, to c + 4 ((J_c*)_reg)* (J_c*)_reg.
    real = extensions.regular_part

    def doubled(t):
        firsts, seconds = real(t).halves
        return graph_relation(t.src, t.dst, firsts, seconds.scale(2))

    monkeypatch.setattr(extensions, "regular_part", doubled)
    clear_memos()
    assert main(["extend", e1_path(tmp_path), "--kind", "krein", "--c", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: Krein type extension formulas disagree: "
        "companion-product, eigenspace-graph-sum, inverse-duality | operator-part-product"
        '; row in group 1, not in group 2: ["1", "0", "1/4", "3/4"]\n'
    )


def test_extend_weak_krein_fails_with_krein_when_its_companion_route_moves(tmp_path, capsys, monkeypatch):
    # Doubling closure(J_c) moves c + J_c** J_c* alone; weak-krein returns
    # krein's extension, so it fails with krein's message, naming the route.
    s = e1()
    j = forms.companion(s, forms.repmap_ldl(forms.form_of_relation(s), 0))
    real = extensions.closure

    def doubled(t):
        out = real(t)
        return graph_relation(t.src, t.dst, out.halves[0], out.halves[1].scale(2)) if t == j else out

    monkeypatch.setattr(extensions, "closure", doubled)
    clear_memos()
    assert main(["extend", e1_path(tmp_path), "--kind", "weak-krein", "--c", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: Krein type extension formulas disagree: "
        "companion-product | operator-part-product, eigenspace-graph-sum, inverse-duality"
        '; row in group 1, not in group 2: ["1", "0", "1/2", "3/2"]\n'
    )


@pytest.mark.parametrize("kind", sorted(EXTEND_KINDS))
def test_extend_names_every_route_its_builder_compares(kind, tmp_path, capsys, monkeypatch):
    # extend prints the names in extensions.ROUTES; the builder compares its
    # routes by passing exactly those names to extensions.agree, last.  Every
    # comparison made on the way (krein's inverse-duality route runs
    # friedrichs) is a kind's row of the table.
    assert set(extensions.ROUTES) == set(EXTEND_KINDS)
    names = extensions.ROUTES[kind]
    full = kind.removeprefix("weak-")
    received = []
    real = extensions.agree

    def watched(what, routes, *values):
        received.append(tuple(routes))
        return real(what, routes, *values)

    monkeypatch.setattr(extensions, "agree", watched)
    clear_memos()
    assert main(["extend", e1_path(tmp_path), "--kind", kind, "--c", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["asserted_checks"] == list(names)
    assert set(received) <= set(extensions.ROUTES.values())
    assert received[-1] == extensions.ROUTES[full]
    if full == kind:
        return
    # A weak builder compares nothing itself: it returns its full builder's
    # extension, so it names that builder's routes it stands for, then the
    # equality with the full extension.
    assert EXTEND_KINDS[full].__name__ in EXTEND_KINDS[kind].__code__.co_names
    assert names[-1] == f"equals-{full}"
    assert set(names[:-1]) <= set(extensions.ROUTES[full])


def test_one_message_for_each_failed_premise(tmp_path, capsys):
    # extend and check meet the same gate, with the same message and witness.
    path = str(tmp_path / "r.json")
    assert main(["random", "--dim", "4", "--seed", "1", "--mul", "1", "--restrict", "2", "-o", path]) == 0
    capsys.readouterr()
    assert main(["extend", path, "--kind", "krein", "--c", "1000"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("bound certification failed: the form of the relation is not bounded below by 1000\ncounterexample: ")
    assert main(["check", path, "--c", "1000"]) == 4
    assert capsys.readouterr().err == err

    nonsym = tmp_path / "nonsym.json"
    nonsym.write_text(json.dumps({"from": {"dim": 2}, "to": {"dim": 2}, "graph_basis": [["1", "0", "0", "1"], ["0", "1", "0", "0"]]}))
    for argv in (["extend", "--kind", "krein"], ["extend", "--kind", "krein", "--c", "0"], ["check", "--c", "0"]):
        assert main([*argv, str(nonsym)]) == 3
        assert capsys.readouterr().err == "precondition violated: the form of a relation requires a symmetric relation\n"


def test_extend_friedrichs_base_point_independent(tmp_path):
    out0 = tmp_path / "f0.json"
    out2 = tmp_path / "f2.json"
    assert main(["extend", e1_path(tmp_path), "--kind", "friedrichs", "--c", "0", "-o", str(out0)]) == 0
    assert main(["extend", e1_path(tmp_path), "--kind", "friedrichs", "--c", "2", "-o", str(out2)]) == 0
    assert out0.read_bytes() == out2.read_bytes()


def test_extend_bound_failure_exits_4(tmp_path, capsys):
    code = main(["extend", e1_path(tmp_path), "--kind", "friedrichs", "--c", "3"])
    assert code == 4
    err = capsys.readouterr().err
    assert "counterexample" in err


def test_order_krein_leq_friedrichs(tmp_path, capsys):
    src = e1_path(tmp_path)
    kf = tmp_path / "k.json"
    ff = tmp_path / "f.json"
    main(["extend", src, "--kind", "krein", "--c", "0", "-o", str(kf)])
    main(["extend", src, "--kind", "friedrichs", "--c", "0", "-o", str(ff)])
    capsys.readouterr()
    code = main(["order", str(kf), str(ff)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "leq"
    code = main(["order", str(ff), str(kf)])
    assert capsys.readouterr().out.strip() == "geq"
    code = main(["order", str(ff), str(ff)])
    assert capsys.readouterr().out.strip() == "equal"


def test_extremal_diag_is_false(tmp_path, capsys):
    from relcalc.linalg import mat
    from relation_builders import operator_relation

    h = operator_relation(Q2, Q2, mat([[1, 0], [0, 3]]))
    hp = tmp_path / "h.json"
    write_relation(str(hp), h)
    code = main(["extremal", str(hp), e1_path(tmp_path), "--c", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "false"


def test_check_file_mode(tmp_path, capsys):
    code = main(["check", e1_path(tmp_path), "--c", "0", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"].endswith("0 failures")


def test_check_random_mode_summary(tmp_path, capsys):
    code = main(["check", "--count", "4", "--dims", "2..3", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "4/4 instances, 0 failures" in out


def test_check_rerun_bit_identical(tmp_path, capsys):
    main(["check", "--count", "3", "--dims", "2..3", "--seed", "7", "--format", "json"])
    first = capsys.readouterr().out
    main(["check", "--count", "3", "--dims", "2..3", "--seed", "7", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_random_roundtrip(tmp_path, capsys):
    out = tmp_path / "rand.json"
    code = main(["random", "--dim", "3", "--seed", "11", "--mul", "1", "-o", str(out)])
    assert code == 0
    rel = read_relation(str(out))
    # write(read(file)) is byte-identical for canonical files
    text = out.read_bytes()
    write_relation(str(out), rel)
    assert out.read_bytes() == text


def test_bad_dims_argument_exits_2(capsys):
    assert main(["check", "--count", "1", "--dims", "nope"]) == 2


def _assert_parse_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "--seed", "1", "--dim", "0"],
        ["random", "--seed", "1", "--dim", "3", "--mul", "5"],
        ["random", "--seed", "1", "--dim", "3", "--mul", "-1"],
        ["random", "--seed", "1", "--dim", "3", "--bound", "0"],
        ["random", "--seed", "1", "--dim", "3", "--restrict", "4"],
        ["random", "--seed", "1", "--dim", "3", "--restrict", "-1"],
        ["check", "--count", "-3"],
        ["check", "--count", "0"],
        ["random", "--seed", "1", "--dim", "65"],
        ["check", "--count", "1", "--dims", "2..65"],
        ["check", "FILE", "--count", "0"],
        ["check", "FILE", "--dims", "9..2"],
        ["check", "--count", "1", "--dims", "2..2", "--c", "abc"],
        ["check", "--count", "1", "--dims", "2..2", "--c", "0"],
    ],
)
def test_out_of_range_arguments_exit_2(argv, tmp_path, capsys):
    # FILE stands for a valid relation file, so that only the option is out of range.
    _assert_parse_error([e1_path(tmp_path) if arg == "FILE" else arg for arg in argv], capsys)


@pytest.mark.parametrize(
    "argv",
    [["analyze", "FILE"], ["extend", "FILE", "--kind", "krein"], ["random", "--seed", "1", "--dim", "3"]],
    ids=lambda argv: argv[0],
)
def test_an_unwritable_output_path_is_a_parse_error(argv, tmp_path, capsys):
    missing = str(tmp_path / "missing" / "out.json")
    _assert_parse_error([e1_path(tmp_path) if arg == "FILE" else arg for arg in argv] + ["-o", missing], capsys)
    assert not os.path.exists(os.path.dirname(missing))


@pytest.mark.parametrize("empty_domain, width", [(True, "abc"), (False, "-1"), (False, "0")])
def test_analyze_width_is_checked_before_any_work(tmp_path, capsys, empty_domain, width):
    if empty_domain:
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"from": {"dim": 2}, "to": {"dim": 2}, "graph_basis": []}))
        path = str(path)
    else:
        path = e1_path(tmp_path)
    _assert_parse_error(["analyze", path, "--width", width], capsys)


def test_dimension_above_the_maximum_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"from": {"dim": 1000000}, "to": {"dim": 1000000}, "graph_basis": []}))
    for argv in (["analyze", str(path)], ["extend", str(path), "--kind", "krein"], ["check", str(path)]):
        _assert_parse_error(argv, capsys)


# json.load turns a bare integer literal of more than 4,300 digits into a
# plain ValueError (Python's int digit limit), not a JSONDecodeError, and
# arrays nested deeper than the recursion limit into a RecursionError.
LONG_LITERAL = "1" + "0" * 4400


@pytest.mark.parametrize(
    "text",
    [
        '{"from": {"dim": 1}, "to": {"dim": 1}, "graph_basis": [[1, %s]]}' % LONG_LITERAL,
        '{"from": {"dim": %s}, "to": {"dim": 1}, "graph_basis": []}' % LONG_LITERAL,
        '{"from": {"dim": 1}, "to": {"dim": 1}, "graph_basis": %s}' % ("[" * 100000 + "]" * 100000),
    ],
    ids=["graph_basis", "dim", "nesting"],
)
def test_json_that_python_cannot_load_is_a_parse_error(tmp_path, capsys, text):
    path = tmp_path / "long.json"
    path.write_text(text)
    _assert_parse_error(["analyze", str(path)], capsys)
    assert "Traceback" not in capsys.readouterr().err


def tall_relation_json() -> str:
    """A 3-dimensional relation that the parser accepts but whose parts
    have bases with entries past the int digit limit; it is not symmetric."""
    g = "5" * 4000 + "/" + "3" * 3999 + "1"
    a = "7" * 2500 + "/" + "3" * 2499 + "1"
    b = "1" * 2400 + "/" + "9" * 2399 + "7"
    space = {"dim": 3, "gram": [[g, "0", "0"], ["0", "1", "0"], ["0", "0", g]]}
    return json.dumps({"from": space, "to": space, "graph_basis": [["1", b, "0", a, "0", b], ["0", "1", a, "0", b, "0"]]})


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command, refusal",
    [
        # --bound 10**40 gives a graph basis entry of 5,834 digits at dim 6;
        # --dim 16 --restrict 8 --bound 1000000 gives one of 4,321.
        (["random", "--dim", "6", "--seed", "1", "--restrict", "3", "--bound", str(10**40)], "a graph basis: an integer of 5834 digits"),
        (["analyze", "TALL"], "a subspace basis: an integer of 4900 digits"),
    ],
    ids=["random", "analyze"],
)
def test_output_past_the_int_digit_limit_exits_1(tmp_path, capsys, command, refusal, fmt):
    # Python refuses to print an int of more than 4,300 digits.  The output
    # side refuses it as the input side does: one error line, exit 1, no
    # traceback, nothing on stdout and no file written.
    tall = tmp_path / "tall.json"
    tall.write_text(tall_relation_json())
    out = tmp_path / "out.json"
    argv = [str(tall) if arg == "TALL" else arg for arg in command]
    assert main([*argv, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot print {refusal}, past Python's limit of {sys.get_int_max_str_digits()}\n"
    assert main([*argv, "--format", fmt, "-o", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert not out.exists()


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    # The parser is built once per process; each call must still print and
    # return what the same command does alone in a fresh interpreter.
    path = e1_path(tmp_path)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    calls = [
        ["analyze", path],
        ["check", path],
        ["analyze", path, "--width", "1/x"],
        ["analyze", path, "--format", "xml"],
        ["analyze", path, "--format", "json"],
        ["analyze", path],
    ]
    for argv in calls:
        alone = subprocess.run([sys.executable, "-m", "relcalc.cli", *argv], env=env, capture_output=True, text=True, timeout=120)
        assert _run_in_process(argv) == (alone.returncode, alone.stdout, alone.stderr), argv


# sha256 of the stdout of `relcalc check --count 10 --dims 2..6 --seed 0
# --format json`.  Any change to a result, a witness or the output layout
# changes it; a refactor must leave it alone.
CHECK_SEED0_SHA256 = "d2b8033c5cf67dc36d5833a8f7f6e127dd487dbc9f06697788bb13cef0b279a6"


def test_check_seed0_output_is_pinned(capsys):
    assert main(["check", "--count", "10", "--dims", "2..6", "--seed", "0", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CHECK_SEED0_SHA256


# sha256 of the stdout of `relcalc analyze FILE --width 1/2^256 --format json`
# on the files of `relcalc random --dim D --mul M --restrict R --seed S`.
# The bracket is decided by det(M - cG) and certified by LDL^T at its ends.
# It is the grid cell that holds the bound, whichever points the search
# tests (Newton steps since the bisection it replaced), so it must stay the
# bracket of one LDL^T per bisection step.
ANALYZE_SHA256 = {
    (8, 1, 6, 1): "1d7583bda23843383bcea628499c429095514651ef4fb1b8b5dec28a90367a28",
    (5, 0, 3, 2): "6c3aa4580ad30bdb73b1e377e5f4e903bde6782d8c1f9fd0407c34eaa3d8e2a6",
}


# The same, with the default `--format text`: the text lines show the part
# bases that the JSON holds.
ANALYZE_TEXT_SHA256 = {
    (8, 1, 6, 1): "c59b07319093974fef24933e06027df6a9c0c413f5d71679c5f63ebac74b10eb",
    (5, 0, 3, 2): "bb0c9352f877f88e33e58d09778862d00ccac46f042270c5f923d42617d5c6ed",
}


@pytest.mark.parametrize("dim, mul, restrict, seed", sorted(ANALYZE_SHA256))
def test_analyze_output_is_pinned(tmp_path, capsys, dim, mul, restrict, seed):
    path = str(tmp_path / "r.json")
    spec = ["--dim", str(dim), "--mul", str(mul), "--restrict", str(restrict), "--seed", str(seed)]
    assert main(["random", *spec, "-o", path]) == 0
    capsys.readouterr()
    for fmt, pins in (("json", ANALYZE_SHA256), ("text", ANALYZE_TEXT_SHA256)):
        assert main(["analyze", path, "--width", f"1/{2**256}", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pins[dim, mul, restrict, seed], fmt


# sha256 of the stdout of `relcalc extend FILE --kind K --format json` and of
# the file `relcalc extend FILE --kind K -o OUT` writes, at the default c, on
# the files of `relcalc random --dim D --mul M --restrict R --seed S`.  The
# weak builders return the relation of the full ones, so their files agree.
EXTEND_SHA256 = {
    (12, 1, 7, 0): {
        "friedrichs": ("b2740701f9f9d235dff1a8911b1af64bd299022e3727e4eabfdb9fc3498958e8", "b5e9ae460d59f8018ec0a49e2c9838ac3a3f0c7e8187073ecf62b73e8df51166"),
        "krein": ("6b4482222b56431e0d36137ed6ce52a4663feea636403b347dbc04279c3e742e", "7c5983be0f12d0602bb08a1244e06251fe9ed453678956d9e77d6e4a521d21ae"),
        "weak-friedrichs": ("fda236ece8c188b209396b99ddc58119d4b6f6e50400fa7bb722d56c6d0f2579", "b5e9ae460d59f8018ec0a49e2c9838ac3a3f0c7e8187073ecf62b73e8df51166"),
        "weak-krein": ("067d49958596d4598d62d23dd840031e498ca2eddcb705ea8d8bf052f64aeb4f", "7c5983be0f12d0602bb08a1244e06251fe9ed453678956d9e77d6e4a521d21ae"),
    },
    (5, 1, 3, 2): {
        "friedrichs": ("2b595a35969b3538e335a4572932628c709df6c9fa004b813a9fac02412b539d", "5ca3c0a7e70591c8679698943f1c508e781fec1dd2d2c7fb0e8c21590c73cab3"),
        "krein": ("9821c9b36aa606cdc5ea5516c873a57e1ce63e2fbc902abc5fef2abafe75e428", "1651cb92a9322aa0cab62294455c6e62d36d828de0957e8cdbc02ad19b1c79fd"),
        "weak-friedrichs": ("28bdffa4da7e6962fd7ddd30af7b5b82c61f548a705bf1396512a20006833d45", "5ca3c0a7e70591c8679698943f1c508e781fec1dd2d2c7fb0e8c21590c73cab3"),
        "weak-krein": ("fa32ee352c755f76524e8c486d386258b9a51917fcd26f929f4e20097031a341", "1651cb92a9322aa0cab62294455c6e62d36d828de0957e8cdbc02ad19b1c79fd"),
    },
}


@pytest.mark.parametrize("dim, mul, restrict, seed", sorted(EXTEND_SHA256))
def test_extend_output_is_pinned(tmp_path, capsys, dim, mul, restrict, seed):
    path, out = str(tmp_path / "r.json"), tmp_path / "out.json"
    spec = ["--dim", str(dim), "--mul", str(mul), "--restrict", str(restrict), "--seed", str(seed)]
    assert main(["random", *spec, "-o", path]) == 0
    capsys.readouterr()
    for kind, (stdout_pin, file_pin) in EXTEND_SHA256[dim, mul, restrict, seed].items():
        assert main(["extend", path, "--kind", kind, "--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == stdout_pin, kind
        assert main(["extend", path, "--kind", kind, "-o", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == file_pin, kind


def test_analyze_at_width_two_to_the_minus_4096(tmp_path, capsys):
    # The simplest fraction in a bracket this narrow has a continued
    # fraction thousands of terms long; no recursion may follow it.
    path = str(tmp_path / "r.json")
    assert main(["random", "--dim", "8", "--mul", "1", "--restrict", "6", "--seed", "1", "-o", path]) == 0
    capsys.readouterr()
    width = Fraction(1, 2**4096)
    assert main(["analyze", path, "--width", f"1/{width.denominator}", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    bound = json.loads(captured.out)["bound"]
    assert 0 < Fraction(bound["refuted_hi"]) - Fraction(bound["certified_lo"]) <= width


def test_check_under_python_O_prints_the_same_bytes():
    # -O strips assert statements; no check may live in one.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["-m", "relcalc.cli", "check", "--count", "3", "--dims", "2..4", "--seed", "0", "--format", "json"]
    plain = subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=300)
    optimized = subprocess.run([sys.executable, "-O", *argv], env=env, capture_output=True, timeout=300)
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


def test_check_exit_1_on_failure(tmp_path, capsys, monkeypatch):
    from relcalc.harness import CheckResult
    import relcalc.cli as cli

    monkeypatch.setattr(
        cli, "verify_all", lambda rel, c, seed=0: [CheckResult("planted", False, "witness-data")]
    )
    code = main(["check", e1_path(tmp_path), "--c", "0"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL planted" in out


@pytest.mark.parametrize("exc", [CrossCheckError("injected"), ZeroDivisionError("injected")], ids=lambda e: type(e).__name__)
def test_check_file_reports_a_preamble_failure_as_one_check(tmp_path, capsys, monkeypatch, exc):
    # The second companion call builds j_quot, the last shared object.
    real = harness.companion
    calls = []

    def injected(s, q):
        calls.append(None)
        if len(calls) % 2 == 0:
            raise exc
        return real(s, q)

    monkeypatch.setattr(harness, "companion", injected)
    witness = f"{type(exc).__name__}: injected"
    assert main(["check", e1_path(tmp_path), "--c", "0"]) == 1
    assert capsys.readouterr().out.splitlines() == [f"FAIL preamble  [{witness}]", "0/1 checks, 1 failures"]
    assert main(["check", e1_path(tmp_path), "--c", "0", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["checks"] == [{"name": "preamble", "passed": False, "witness": witness}]
    assert len(calls) == 4


def test_check_file_keeps_the_bound_and_precondition_exits(tmp_path, capsys):
    assert main(["check", e1_path(tmp_path), "--c", "3"]) == 4
    assert "bound certification failed" in capsys.readouterr().err
    rel = relation_from_pairs(Q2, Q2, [(vec([1, 0]), vec([0, 1])), (vec([0, 1]), vec([-1, 0]))])
    path = tmp_path / "nonsym.json"
    write_relation(str(path), rel)
    assert main(["check", str(path), "--c", "0"]) == 3
    assert "precondition violated" in capsys.readouterr().err


def _package_modules():
    """(file name, AST) of every module of the package."""
    package = os.path.dirname(relcalc.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def _callers(tree, callees, where=lambda call: True):
    """For each call in ``tree`` of a callee spelled as in ``callees`` that
    ``where`` accepts, the name of the innermost function around it, None
    at module level."""
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in callees and where(node):
            owner = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            yield owner[-1] if owner else None


def _says_disagree(call) -> bool:
    """Whether a string literal among the call's arguments says "disagree"."""
    return any(isinstance(c, ast.Constant) and "disagree" in str(c.value) for arg in call.args for c in ast.walk(arg))


def test_only_agree_says_that_routes_disagree():
    # Every comparison of routes goes through extensions.agree, which names
    # the routes that disagree; a new comparison that raises its own
    # "... disagree" would name none of them.
    found = {(name, fn) for name, tree in _package_modules() for fn in _callers(tree, {"CrossCheckError"}, _says_disagree)}
    assert found == {("extensions.py", "agree")}


def _returns_a_value(fn) -> bool:
    """Whether some ``return`` in ``fn`` gives something other than None."""
    return any(
        isinstance(node, ast.Return) and node.value is not None and not (isinstance(node.value, ast.Constant) and node.value.value is None)
        for node in ast.walk(fn)
    )


def test_a_check_that_compares_nothing_is_declared():
    # harness.asserted declares a check whose construction asserts its
    # property; a check written as a @check function must be able to return
    # a witness, so a body that only calls a construction cannot pass as one.
    tree = dict(_package_modules())["harness.py"]
    written = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and any(isinstance(d, ast.Call) and ast.unparse(d.func) == "check" for d in node.decorator_list)
    ]
    declared = [node for node in tree.body if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "asserted"]
    assert [fn.name for fn in written if not _returns_a_value(fn)] == []
    assert len(written) + len(declared) == len(harness.REQUIRED_CHECKS)


def _form_shifts(tree):
    """The innermost function around each shift of a form matrix by its
    domain Gram in ``tree``: any ``….domain_gram.scale(…)``, and a
    subtraction of ``gram_on(…).scale(…)`` or of ``g.scale(…)``, g a name
    that the same function binds to ``….domain_gram``."""

    def is_domain_gram(node):
        return isinstance(node, ast.Attribute) and node.attr == "domain_gram"

    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for f in functions:
        grams = set()
        for node in ast.walk(f):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    both = isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                    for name, value in zip(target.elts, node.value.elts) if both else [(target, node.value)]:
                        if isinstance(name, ast.Name) and is_domain_gram(value):
                            grams.add(name.id)
        subtracted = {id(node.right) for node in ast.walk(f) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)}
        for node in ast.walk(f):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "scale"):
                continue
            gram = node.func.value
            named = isinstance(gram, ast.Name) and gram.id in grams
            built = isinstance(gram, ast.Call) and ast.unparse(gram.func) == "gram_on"
            if is_domain_gram(gram) or ((named or built) and id(node) in subtracted):
                yield [g.name for g in functions if g.lineno <= node.lineno <= g.end_lineno][-1]


def test_only_shifted_matrix_shifts_a_form_matrix():
    # M - cG has one home, the memoized forms.shifted_matrix; a form matrix
    # shifted anywhere else would be built again for every caller.
    found = {(name, fn) for name, tree in _package_modules() for fn in _form_shifts(tree)}
    assert found == {("forms.py", "shifted_matrix")}
    # Each spelling is caught.  A graph shift such as companion's
    # seconds - firsts.scale(c), and an added Gram, are not form shifts.
    spellings = ast.parse(
        "def attribute(t, c):\n    return t.matrix - t.domain_gram.scale(c)\n"
        "def built(dom, form, c):\n    return form - gram_on(dom).scale(c)\n"
        "def named(t, j):\n    m, g = t.matrix, t.domain_gram\n    return m - g.scale(j)\n"
        "def graph_shift(firsts, seconds, c):\n    return seconds - firsts.scale(c)\n"
        "def added(dom, form, c):\n    return form + gram_on(dom).scale(c)\n"
    )
    assert sorted(_form_shifts(spellings)) == ["attribute", "built", "named"]


def test_only_two_doors_lead_to_ldl():
    # A form reaches LDL^T through forms.certify_lower_bound, which maps the
    # witness to ambient coordinates, and a Gram through the constructor of
    # InnerProductSpace; any other caller would map witnesses its own way.
    callees = {"ldl_psd_certificate", "linalg.ldl_psd_certificate"}
    found = {(name, fn) for name, tree in _package_modules() for fn in _callers(tree, callees)}
    assert found == {("forms.py", "certify_lower_bound"), ("spaces.py", "__init__")}


def _of_an_adjoint(call) -> bool:
    return len(call.args) == 1 and isinstance(call.args[0], ast.Call) and ast.unparse(call.args[0].func) == "adjoint"


def test_only_the_involution_check_recomputes_the_double_adjoint():
    # closure certifies T** = T by products against T*; a recomputed T**
    # shares the pairing code with T*, so it cannot come back as a
    # post-condition.  The registry check adjoint-involution keeps it.
    found = {(name, fn) for name, tree in _package_modules() for fn in _callers(tree, {"adjoint"}, _of_an_adjoint)}
    assert found == {("harness.py", "_involution")}


def _of_a_form(call) -> bool:
    """Whether the call's arguments are adjoint(X), closure(X), one X."""
    args = call.args
    if len(args) != 2 or not all(isinstance(a, ast.Call) and len(a.args) == 1 for a in args):
        return False
    return [ast.unparse(a.func) for a in args] == ["adjoint", "closure"] and ast.unparse(args[0].args[0]) == ast.unparse(args[1].args[0])


def test_only_relations_of_form_builds_the_relation_of_a_form():
    # c + Q*Q** has one home, extensions.relations_of_form, which also
    # asserts the singular-case product formulas; a product spelled
    # anywhere else would skip them.
    found = {(name, fn) for name, tree in _package_modules() for fn in _callers(tree, {"compose"}, _of_a_form)}
    assert found == {("extensions.py", "relations_of_form")}
    spellings = ast.parse(
        "def form(q):\n    return compose(adjoint(q), closure(q))\n"
        "def two_maps(q, r):\n    return compose(adjoint(q), closure(r))\n"
        "def companion_product(j):\n    return compose(closure(j), adjoint(j))\n"
    )
    assert list(_callers(spellings, {"compose"}, _of_a_form)) == ["form"]


def _spells_a_route(call) -> bool:
    """Whether the call spells a route formula of friedrichs or krein:
    compose(closure(X), adjoint(X)), regular_part(adjoint(X)),
    inverse(relations_of_form(...)) or repmap_quotient(inverse(...))."""
    head, args = ast.unparse(call.func), call.args
    inner = tuple(ast.unparse(a.func) if isinstance(a, ast.Call) else None for a in args)
    if head == "compose":
        return inner == ("closure", "adjoint") and ast.unparse(args[0].args[0]) == ast.unparse(args[1].args[0])
    return (head, inner[:1]) in {("regular_part", ("adjoint",)), ("inverse", ("relations_of_form",)), ("repmap_quotient", ("inverse",))}


ROUTE_HEADS = {"compose", "regular_part", "inverse", "repmap_quotient"}


def test_only_extensions_spells_a_route_formula():
    # Each route of friedrichs and krein is spelled once, in the route tables
    # of extensions, which take the representing map; a route spelled again
    # elsewhere, say with the quotient map, is a second copy that can drift.
    found = {(name, fn) for name, tree in _package_modules() for fn in _callers(tree, ROUTE_HEADS, _spells_a_route)}
    assert {name for name, _ in found} == {"extensions.py"}, found
    spellings = ast.parse(
        "def companion_product(j):\n    return compose(closure(j), adjoint(j))\n"
        "def operator_part(j):\n    return regular_part(adjoint(j))\n"
        "def duality(q):\n    return inverse(relations_of_form(q, 0))\n"
        "def inverse_map(s):\n    return repmap_quotient(inverse(s), 0)\n"
        "def form(q):\n    return compose(adjoint(q), closure(q))\n"
        "def two_maps(j, k):\n    return compose(closure(j), adjoint(k))\n"
        "def own_part(j):\n    return regular_part(j)\n"
        "def inverse_of(s):\n    return inverse(shift(s, 1))\n"
    )
    assert sorted(_callers(spellings, ROUTE_HEADS, _spells_a_route)) == ["companion_product", "duality", "inverse_map", "operator_part"]


def test_no_check_lives_in_an_assert():
    # python -O strips assert statements; every check must raise instead.
    found = []
    for name, tree in _package_modules():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


# Mat's storage (integer rows, row denominators and the slots behind its
# shape), and the Fraction rows it once had.
MAT_STORAGE = ("_num", "_den", "_rows", "_cols", "data")


def test_only_linalg_knows_how_a_matrix_is_stored():
    # Outside linalg a Mat is built by its helpers and read by its methods,
    # so its storage can change in linalg alone.
    found = []
    for name, tree in _package_modules():
        if name == "linalg.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in MAT_STORAGE:
                found.append(f"{name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Mat":
                found.append(f"{name}:{node.lineno} Mat(...)")
    assert found == []


def test_only_product_space_skips_the_gram_certificate():
    # object.__new__ builds a value without running its constructor, here
    # without the InnerProductSpace certificate.  spaces.product_space may,
    # by the lemma in its docstring; nothing else may.
    found = [(name, fn) for name, tree in _package_modules() for fn in _callers(tree, {"object.__new__"})]
    assert found == [("spaces.py", "product_space")]


VALUE_SEMANTICS = {"__eq__", "__repr__", "__setattr__", "__delattr__"}


def _class_body_names(cls: ast.ClassDef):
    """The names a class body binds by ``def`` or by plain assignment."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_only_linalg_defines_value_semantics():
    # linalg.Value is the one home of what makes two values equal, how they
    # print and why no field may change; a value class elsewhere keeps only
    # its validation, its fields and its hash.
    found = [
        f"{name} {node.name}"
        for name, tree in _package_modules()
        if name != "linalg.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and VALUE_SEMANTICS & set(_class_body_names(node))
    ]
    assert found == []


# The calls that make a float or read one, bare or through math.
FLOAT_CALLS = {prefix + fn for fn in ("frexp", "nextafter", "ulp") for prefix in ("", "math.")} | {"float"}


def test_no_float_decides_any_bracket():
    # The README's promise: the only float is the display estimate, rounded
    # from the certified bracket by forms._nearest_float.  Every other
    # decision is in rationals, so no float is made anywhere else.
    found = {(name, fn) for name, tree in _package_modules() for fn in _callers(tree, FLOAT_CALLS)}
    assert found == {("forms.py", "_nearest_float")}


def test_no_product_transposes_its_right_factor():
    # ``a @ b.T`` builds the transpose of b only for ``@`` to read it back
    # by columns; ``a.mul_t(b)`` reads the rows of b directly.  A left
    # transpose such as ``b.T @ b`` is another product and is allowed.
    found = []
    for name, tree in _package_modules():
        if name == "linalg.py":
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.MatMult)
                and isinstance(node.right, ast.Attribute)
                and node.right.attr == "T"
            ):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_memo_calls_have_one_spelling():
    # A memo is a bare lru_cache, which keys f(a, b) and f(a, b=b) apart;
    # positional parameters without defaults, passed positionally, keep
    # one cache entry per call.
    trees = list(_package_modules())
    memos, found = set(), []
    for name, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(ast.unparse(d) == "memo" for d in node.decorator_list):
                memos.add(node.name)
                a = node.args
                if a.posonlyargs or a.vararg or a.kwonlyargs or a.kwarg or a.defaults:
                    found.append(f"{name}:{node.lineno} def {node.name}")
    assert {"friedrichs", "krein", "rref", "kernel", "parts", "companion", "shifted_matrix", "restrict_form"} <= memos
    for name, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node.keywords:
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                if callee in memos:
                    found.append(f"{name}:{node.lineno} {callee}(...=...)")
    assert found == []


TRACER_NAMES = ("SPAN_TARGETS", "MAT_COUNTERS", "MEMO_MODULES", "PREAMBLE_MARKER")


def test_the_benchmark_tracer_names_resolve():
    # perfbench/tracer.py wraps package functions and Mat methods by name,
    # so a rename here makes `perfbench/run.py --trace 1` raise.  Its
    # constants are read off its syntax tree; perfbench is not imported.
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = {}
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else getattr(node, "target", None)
        if isinstance(target, ast.Name) and target.id in TRACER_NAMES:
            names[target.id] = ast.literal_eval(node.value)
    assert sorted(names) == sorted(TRACER_NAMES)
    modules = {short: importlib.import_module(f"relcalc.{short}") for short in [*names["SPAN_TARGETS"], *names["MEMO_MODULES"]]}
    missing = [f"{short}.{fn}" for short, fns in names["SPAN_TARGETS"].items() for fn in fns if not hasattr(modules[short], fn)]
    missing += [f"linalg.Mat.{attr}" for attr in names["MAT_COUNTERS"].values() if attr not in vars(linalg.Mat)]
    marker = names["PREAMBLE_MARKER"][0].split(".")
    if marker[1] not in names["SPAN_TARGETS"].get(marker[0], ()):
        missing.append(names["PREAMBLE_MARKER"][0])
    if not hasattr(harness, "CheckResult"):
        missing.append("harness.CheckResult")
    assert missing == []


def test_the_benchmark_worker_names_resolve(monkeypatch, capsys):
    # perfbench/worker.py reads package functions by module attribute and
    # times the check-batch items by rebinding harness.run_one, so a rename
    # here, or a batch that stops calling run_one, breaks the benchmark.
    # Its syntax tree is read; perfbench is not imported.
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "worker.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules, imported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "relcalc":
            modules.update({alias.name: importlib.import_module(f"relcalc.{alias.name}") for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("relcalc."):
            imported |= {(node.module, alias.name) for alias in node.names}
    assert {"cli", "harness", "serialize", "extensions"} <= set(modules)
    assert ("relcalc.harness", "InstanceSpec") in imported
    missing = [f"{module}.{name}" for module, name in sorted(imported) if not hasattr(importlib.import_module(module), name)]
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert {("harness", "run_one"), ("cli", "main"), ("serialize", "relation_to_json"), ("extensions", "krein")} <= read
    missing += [f"{short}.{attr}" for short, attr in sorted(read) if not hasattr(modules[short], attr)]
    assert missing == []
    seen = []
    real = harness.run_one
    monkeypatch.setattr(harness, "run_one", lambda spec: seen.append(spec) or real(spec))
    assert main(["check", "--count", "2", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["instances"]) == len(seen) == 2


def test_default_c_needs_no_float_estimate(tmp_path, capsys, monkeypatch):
    # extend keeps only the certified lower end of the default bracket.
    def unused(*args):
        raise RuntimeError("the float estimate was computed")

    monkeypatch.setattr(forms, "_nearest_float", unused)
    assert main(["extend", e1_path(tmp_path), "--kind", "friedrichs"]) == 0
    assert capsys.readouterr().out == (
        "kind: friedrichs\n"
        "c: 2\n"
        "asserted cross-checks: repmap-product, adjoint-domain-membership, multivalued-graph-sum\n"
        "graph dimension: 2\n"
    )


def test_import_loads_no_numpy():
    # The package is stdlib only; the bound estimate is rounded from the
    # exact bracket.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, relcalc; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "False\n")


def test_import_loads_no_dataclasses_or_inspect():
    # Every value class is a plain class or a NamedTuple: dataclasses, with
    # the inspect it imports and the code it generates, cost each process
    # about 8 ms of start-up.  Run without site, so only the package's own
    # imports count.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, relcalc, relcalc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "[]\n")


def test_no_module_imports_a_name_it_never_uses():
    # The package has no linter; __init__ imports to re-export.
    found = []
    for name, tree in _package_modules():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{name}:{line} {ident}" for ident, line in imported.items() if ident not in used]
    assert found == []


# Functions with no caller in the package, each kept for its reason.
UNCALLED_BY_DESIGN = {
    "relation_from_pairs": "the README example builds its relation with it",
    "scalar_repmap": "acceptance criterion 10 stacks it onto a representing relation",
    "stack_relations": "acceptance criterion 10 builds the stacked map with it",
    "krein_equals_friedrichs": "ROADMAP item 4 gives it a check",
    "random_orthogonal_range_relation": "ROADMAP item 4 gives it a check",
}


def _is_check(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Call) and ast.unparse(d.func) == "check" for d in fn.decorator_list)


def test_every_function_has_a_caller_in_the_package():
    # Every module-level function and every method but the dunders must be
    # used somewhere in the package outside its own def; the registry calls
    # the checks.  __init__ only re-exports.  A module-level function counts
    # as used only where its name is loaded, so neither an attribute nor a
    # field annotation of the same name counts for it.  A method is matched
    # by name, so it counts as called when any attribute of its name is read.
    trees = [(name, tree) for name, tree in _package_modules() if name != "__init__.py"]
    loaded: dict[str, list[tuple[str, int]]] = {}
    attributes: dict[str, list[tuple[str, int]]] = {}
    defs = []
    for name, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.setdefault(node.id, []).append((name, node.lineno))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append((name, node.lineno))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not _is_check(node):
                defs.append((name, node, loaded))
            elif isinstance(node, ast.ClassDef):
                methods = [f for f in node.body if isinstance(f, ast.FunctionDef)]
                defs += [(name, f, attributes) for f in methods if not (f.name.startswith("__") and f.name.endswith("__"))]
    uncalled = sorted(
        fn.name
        for name, fn, uses in defs
        if all(module == name and fn.lineno <= line <= fn.end_lineno for module, line in uses.get(fn.name, []))
    )
    assert uncalled == sorted(UNCALLED_BY_DESIGN)


def test_non_list_vectors_are_a_parse_error(tmp_path, capsys):
    for bad in (5, None, "1"):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"from": {"dim": 1}, "to": {"dim": 1}, "graph_basis": bad}))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert "graph_basis: expected a list of vectors" in captured.err


@pytest.mark.parametrize(
    "space, graph_basis",
    [
        # JSON booleans are Python ints to isinstance; neither is a number here.
        ({"dim": True}, [["1", "1"]]),
        ({"dim": 1}, [[True, "1"]]),
    ],
)
def test_json_booleans_are_a_parse_error(tmp_path, capsys, space, graph_basis):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"from": space, "to": space, "graph_basis": graph_basis}))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "space, graph_basis, bound",
    [
        # The form entry 10^400 does not fit a float, and neither does the bound.
        ({"dim": 1}, [["1", "1e400"]], 10**400),
        # The Gram 10^-400 does not fit a float either, but the bound 1 does.
        ({"dim": 1, "gram": [["1e-400"]]}, [["1", "1"]], 1),
    ],
)
def test_unrepresentable_float_estimate_falls_back_to_exact_search(tmp_path, capsys, space, graph_basis, bound):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"from": space, "to": space, "graph_basis": graph_basis}))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)["bound"]
    assert data["estimate_approximate"] == (float(bound) if bound < 2**1024 else None)
    assert Fraction(data["certified_lo"]) == bound
    assert main(["extend", str(path), "--kind", "krein", "--format", "json"]) == 0
    assert Fraction(json.loads(capsys.readouterr().out)["c"]) == bound


valid_rational = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["0", "1", "-2", "1/2", "-3/4", "1e400", "-1e400", "1e-400"]),
)
any_json = st.recursive(
    valid_rational | st.sampled_from(["x", "1/0", "nan", None, True, 0.5]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["dim", "gram", "basis"]), inner, max_size=2),
    max_leaves=8,
)


@st.composite
def relation_json(draw):
    """A relation file close to valid, with one field perhaps replaced by
    arbitrary JSON."""
    n = draw(st.integers(min_value=0, max_value=2))
    m = n if draw(st.booleans()) else draw(st.integers(min_value=0, max_value=2))

    def space(d):
        out = {"dim": d}
        gram = draw(st.sampled_from(["none", "weighted", "weighted", "random"]))
        if gram == "weighted":
            out["gram"] = [["2" if i == j else "1/2" for j in range(d)] for i in range(d)]
        elif gram == "random":
            out["gram"] = [[draw(valid_rational) for _ in range(d)] for _ in range(d)]
        return out

    rows = draw(st.integers(min_value=0, max_value=3))
    data = {
        "from": space(n),
        "to": space(m),
        "graph_basis": [[draw(valid_rational) for _ in range(n + m)] for _ in range(rows)],
    }
    field = draw(st.sampled_from(["none", "none", "none", "from", "to", "graph_basis", "top"]))
    if field == "top":
        return draw(any_json)
    if field != "none":
        data[field] = draw(any_json)
    return data


@given(relation_json())
@settings(max_examples=150, deadline=None)
def test_any_small_json_keeps_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rel.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for argv in (["analyze", path], ["extend", path, "--kind", "krein"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3, 4)
