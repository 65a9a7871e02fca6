import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcalc.errors import ParseError, RelcalcError
from relcalc.linalg import mat, vec
from relcalc.relations import relation_from_pairs
from relcalc.serialize import (
    canonical_dumps,
    matrix_to_json,
    parse_matrix,
    parse_rational,
    parse_relation,
    parse_space,
    rational_to_str,
    relation_to_json,
    space_to_json,
    subspace_to_json,
)
from relcalc.spaces import InnerProductSpace, span, standard_space

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
