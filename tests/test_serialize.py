import json
import sys
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcalc import serialize
from relcalc.cli import main
from relcalc.errors import ParseError, RelcalcError
from relcalc.linalg import clear_memos, mat, vec
from relcalc.relations import LinearRelation, relation_from_pairs
from relcalc.serialize import (
    canonical_dumps,
    matrix_to_json,
    parse_matrix,
    parse_rational,
    parse_relation,
    parse_space,
    rational_to_str,
    read_relation,
    relation_to_json,
    space_to_json,
    subspace_to_json,
)
from relcalc.spaces import InnerProductSpace, product_space, span, standard_space

Q2 = standard_space(2)


def test_rational_strings():
    assert rational_to_str(Fraction(-3, 4)) == "-3/4"
    assert rational_to_str(Fraction(5)) == "5"
    assert parse_rational("-3/4", "x") == Fraction(-3, 4)
    assert parse_rational("7", "x") == Fraction(7)
    assert parse_rational(2, "x") == Fraction(2)


def test_printing_past_the_int_digit_limit_names_the_value_and_its_digits():
    # 10**d has d + 1 digits and 10**d - 1 has d; the count is exact.
    limit = sys.get_int_max_str_digits()
    for x, digits in ((Fraction(10**limit), limit + 1), (Fraction(1, 10**(limit + 5) - 1), limit + 5)):
        with pytest.raises(RelcalcError, match=f"^cannot print c: an integer of {digits} digits"):
            rational_to_str(x, "c")
        with pytest.raises(RelcalcError, match=f"^cannot print a Gram: an integer of {digits} digits"):
            matrix_to_json(mat([[1, 0], [0, x]]), "a Gram")
    assert rational_to_str(Fraction(10**limit - 1)) == "9" * limit


def test_rational_parse_errors_name_the_field():
    with pytest.raises(ParseError, match="gram"):
        parse_rational("1/0", "gram")
    with pytest.raises(ParseError, match="c-value"):
        parse_rational("abc", "c-value")
    with pytest.raises(ParseError):
        parse_rational(1.5, "x")


def test_space_roundtrip_identity_gram_omitted():
    data = space_to_json(Q2)
    assert data == {"dim": 2}
    assert parse_space(data) == Q2


def test_space_roundtrip_weighted():
    space = InnerProductSpace(2, mat([[2, 1], [1, 3]]))
    data = space_to_json(space)
    assert "gram" in data
    assert parse_space(data) == space


def test_space_rejects_bad_gram():
    with pytest.raises(ParseError):
        parse_space({"dim": 2, "gram": [["0", "1"], ["1", "0"]]})


def test_subspace_roundtrip():
    # The canonical basis: the reduced echelon rows of the span.
    sub = span(Q2, [vec([2, 4])])
    assert subspace_to_json(sub) == {"basis": [["1", "2"]]}


def test_relation_roundtrip_and_canonical_bytes():
    rel = relation_from_pairs(Q2, Q2, [(vec([1, 1]), vec([1, 3]))])
    data = relation_to_json(rel)
    assert parse_relation(data) == rel
    text = canonical_dumps(data)
    again = canonical_dumps(relation_to_json(parse_relation(json.loads(text))))
    assert text == again


def test_relation_parse_errors():
    with pytest.raises(ParseError, match="graph_basis"):
        parse_relation({"from": {"dim": 1}, "to": {"dim": 1}})
    with pytest.raises(ParseError, match="wrong length"):
        parse_relation({"from": {"dim": 1}, "to": {"dim": 1}, "graph_basis": [["1"]]})


def test_matrix_roundtrip():
    m = mat([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    assert parse_matrix(matrix_to_json(m), "m") == m
    with pytest.raises(ParseError, match="ragged"):
        parse_matrix([["1"], ["1", "2"]], "m")



# ``parse_rational`` reads the spellings ``rational_to_str`` writes with
# ``int`` and hands every other string to ``Fraction(str)``; the two must
# accept the same strings, with the same values and the same messages.
PLANTED_SPELLINGS = [
    "-0", "007/010", "3/0", "-3/0", "+3", "--3", "-", "/", "3/", "/3", "3/-4", "1_000", "1/1_0",
    " 3", "3 ", "1.5", "1e3", "٣", "3/٤", "-7/21", "5" * 5000, "1/" + "5" * 5000, "-" + "9" * 4300,
]


def _fraction_or_message(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        return f"f: invalid rational {s!r} ({exc})"


@given(st.one_of(st.sampled_from(PLANTED_SPELLINGS), st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True), st.text()))
@settings(max_examples=400, deadline=None)
def test_parse_rational_agrees_with_fraction(s):
    expected = _fraction_or_message(s)
    try:
        got = parse_rational(s, "f")
    except ParseError as exc:
        got = str(exc)
    assert type(got) is type(expected) and got == expected


def test_a_to_space_equal_to_from_is_parsed_once_and_still_typed():
    weighted = {"dim": 2, "gram": [["2", "1/2"], ["1/2", "2"]]}
    rel = parse_relation({"from": weighted, "to": json.loads(json.dumps(weighted)), "graph_basis": [["1", "0", "2", "1"]]})
    assert rel.src is rel.dst
    # 1.0 == 1 in Python, but a float is not a rational here: the "to" space
    # is parsed, and refused, on its own.
    floats = {"dim": 2, "gram": [[2.0, 0], [0, 1]]}
    ints = {"dim": 2, "gram": [[2, 0], [0, 1]]}
    with pytest.raises(ParseError, match=r"relation\.to\.gram\[0\]\[0\]"):
        parse_relation({"from": ints, "to": floats, "graph_basis": []})


# The reader before int pairs, kept as the reference: every entry a
# ``Fraction``, a matrix through ``mat`` and a graph basis through ``span``.
# (``Fraction(s)`` accepts the strings, values and messages of the
# canonical ``int`` path; ``test_parse_rational_agrees_with_fraction``.)
def _reference_rational(s, field):
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise ParseError(f"{field}: expected a rational string, got {type(s).__name__}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{field}: invalid rational {s!r} ({exc})") from None


def _reference_vector(data, field):
    if not isinstance(data, list):
        raise ParseError(f"{field}: expected a list of rationals")
    return vec([_reference_rational(x, f"{field}[{i}]") for i, x in enumerate(data)])


def _reference_matrix(data, field):
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError(f"{field}: expected a list of rows")
    rows = [_reference_vector(r, f"{field}[{i}]") for i, r in enumerate(data)]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ParseError(f"{field}: ragged rows")
    return mat(rows)


def _reference_relation(data, field="relation"):
    if not isinstance(data, dict):
        raise ParseError(f"{field}: expected an object")
    for key in ("from", "to", "graph_basis"):
        if key not in data:
            raise ParseError(f"{field}.{key}: missing")
    # The spaces go through ``parse_space`` with the reference matrix reader.
    with patch.object(serialize, "parse_matrix", _reference_matrix):
        src = parse_space(data["from"], f"{field}.from")
        dst = src if serialize._same_json(data["to"], data["from"]) else parse_space(data["to"], f"{field}.to")
    basis = data["graph_basis"]
    if not isinstance(basis, list):
        raise ParseError(f"{field}.graph_basis: expected a list of vectors")
    vecs = [_reference_vector(v, f"{field}.graph_basis[{i}]") for i, v in enumerate(basis)]
    for i, v in enumerate(vecs):
        if len(v) != src.dim + dst.dim:
            raise ParseError(f"{field}.graph_basis[{i}]: wrong length, expected {src.dim + dst.dim}")
    return LinearRelation(src, dst, span(product_space(src, dst), vecs))


def _result(parse, data, field):
    try:
        return parse(data, field)
    except ParseError as exc:
        return str(exc)


TALL = "7" * 4301  # one digit past Python's default int digit limit
NOT_CANONICAL = ["1.5", "+3", " 2", "3/04", "-0", "0/5", "1/0", "1e2", "abc", "", TALL, "1/" + TALL, "-" + TALL + "/3"]
ENTRIES = st.one_of(
    st.from_regex(r"-?[0-9]{1,12}(/[0-9]{1,12})?", fullmatch=True),
    st.sampled_from(NOT_CANONICAL),
    st.sampled_from(NOT_CANONICAL),
    st.integers(-(10**30), 10**30),
    # ints past the digit limit, which JSON never gives, and non-strings
    st.sampled_from([10**4300, -(10**4301), True, False, None, 1.5, 0.0]),
)
CANONICAL = st.from_regex(r"-?[0-9]{1,6}(/[1-9][0-9]{0,5})?", fullmatch=True)
MOSTLY_CANONICAL = st.one_of(CANONICAL, CANONICAL, CANONICAL, CANONICAL, ENTRIES)  # often one bad entry


def _rows(entries, ncols):
    """Rows of ``ncols`` entries, some ragged, and now and then one row
    that is not a list."""
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = st.lists(st.one_of(row, row, row, st.lists(entries, max_size=ncols + 1)), max_size=4)
    not_a_list = st.tuples(rows, st.sampled_from(["1", 5, None]), st.integers(0, 4)).map(lambda t: [*t[0][:t[2]], t[1], *t[0][t[2]:]])
    return st.one_of(rows, rows, rows, rows, rows, not_a_list)


@given(st.integers(0, 3).flatmap(lambda n: st.one_of(_rows(CANONICAL, n), _rows(MOSTLY_CANONICAL, n), _rows(ENTRIES, n))))
@settings(max_examples=300, deadline=None)
def test_parse_matrix_matches_the_fraction_reader(data):
    expected = _result(_reference_matrix, data, "m")
    got = _result(parse_matrix, data, "m")
    assert type(got) is type(expected) and got == expected


def _spaces(dim):
    gram = [[str(2 if i == j else 0) if abs(i - j) != 1 else "1/2" for j in range(dim)] for i in range(dim)]
    return st.sampled_from([{"dim": dim}, {"dim": dim, "gram": gram}, {"dim": dim, "gram": [["1/0"] * dim] * dim}])


@given(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).flatmap(
        lambda dims: st.fixed_dictionaries(
            {
                "from": _spaces(dims[0]),
                "to": _spaces(dims[1]),
                "graph_basis": st.one_of(
                    _rows(CANONICAL, sum(dims)), _rows(MOSTLY_CANONICAL, sum(dims)), _rows(ENTRIES, sum(dims)), st.sampled_from([None, "1", 5])
                ),
            }
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_parse_relation_matches_the_fraction_reader(data):
    expected = _result(_reference_relation, data, "r")
    got = _result(parse_relation, data, "r")
    assert type(got) is type(expected) and got == expected


def test_reading_a_written_file_makes_no_fraction_in_the_reader(tmp_path, monkeypatch):
    # The dim-12 file of EXTEND_SHA256: a weighted Gram and a 7-row graph
    # basis, read as int pairs into stored rows.  (The Gram's LDL^T
    # certificate keeps its diagonal D as Fractions; that is not the reader.)
    path = str(tmp_path / "r.json")
    assert main(["random", "--dim", "12", "--mul", "1", "--restrict", "7", "--seed", "0", "-o", path]) == 0
    expected = relation_to_json(read_relation(path))
    assert "gram" in expected["from"]

    def no_fraction(*args):
        raise AssertionError(f"the reader made Fraction{args}")

    monkeypatch.setattr(serialize, "Fraction", no_fraction)
    clear_memos()
    rel = read_relation(path)
    monkeypatch.undo()
    assert relation_to_json(rel) == expected


def test_a_gram_entry_past_the_int_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "tall.json"
    space = {"dim": 2, "gram": [["1" + "0" * 4300, "0"], ["0", "1"]]}
    path.write_text(json.dumps({"from": space, "to": space, "graph_basis": [["1", "0", "1", "0"]]}))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: {path}.from.gram[0][0]: invalid rational {'1' + '0' * 4300!r} (Exceeds the limit")
    assert "Traceback" not in captured.err
