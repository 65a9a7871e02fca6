import json
from fractions import Fraction

import pytest

from relcalc.errors import ParseError
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

