"""JSON file formats.

Rationals travel as strings "p/q" (or "p" when the denominator is 1), so
every file is exact; floats never appear except the bound estimate, the
bound rounded to the nearest float and labeled approximate, which decides
no certified bracket.  Writing is canonical (sorted keys, two-space indent,
trailing newline), so reading a canonical file and writing it back is
byte-identical.

Reading turns every entry into an int pair (p, q), q > 0: the spellings
that writing produces, "-?d+" and "-?d+/d+" in ASCII digits with a
nonzero denominator, straight through ``int``, and every other string
through ``Fraction(str)``, so the inputs accepted and the error messages
are those of ``Fraction``.  A Gram or a graph basis is built from its
pairs by ``ratio_mat``, each row reduced once, so reading a written file
makes no ``Fraction``.  Every entry is parsed before the row lengths are
checked, so a bad entry is reported before a row of the wrong length.  A
relation whose "to" space is the same JSON as its "from" space gets the
one parsed space for both.  Any input the parsers refuse, malformed JSON
included, is a ``ParseError``.

Python prints no int past ``sys.get_int_max_str_digits()`` digits; on
output that refusal is a ``RelcalcError`` naming what was printed and the
digits of its tallest integer, counted only once printing has failed.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import count
from typing import Any

from .errors import ParseError, RelcalcError
from .linalg import Mat, Vec, identity, ratio_mat
from .relations import LinearRelation
from .spaces import InnerProductSpace, Subspace, product_space, span_mat, standard_space

# Largest space dimension a relation file or a command-line option may ask
# for.  Exact elimination is cubic in the dimension, with growing integers,
# so a larger space is refused as a parse error before anything is built:
# an empty relation of dim 64 analyzes in well under a second, while a
# dim of 10**6 would build a 10**6 x 10**6 identity Gram.
MAX_DIM = 64

# ---------------------------------------------------------------- rationals


# The spellings ``rational_to_str`` writes, ASCII digits only: read with
# ``int``, every other string goes through ``Fraction(str)``.
_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_to_str(x: Fraction, what: str = "a rational") -> str:
    try:
        return str(x)
    except ValueError:
        raise _unprintable(what, [x]) from None


def _unprintable(what: str, values: list[Fraction]) -> RelcalcError:
    """The refusal to print ``what``, with the digits of the tallest
    integer of its ``values``."""
    n = max(max(abs(x.numerator), x.denominator) for x in values)
    digits = next(d for d in count(int(n.bit_length() * 0.30102999566398120)) if 10**d > n)  # from below: int(b log10 2) <= digits
    return RelcalcError(f"cannot print {what}: an integer of {digits} digits, past Python's limit of {sys.get_int_max_str_digits()}")


def parse_rational(s: Any, field: str) -> Fraction:
    return Fraction(*_rational_pair(s, field))


def _rational_pair(s: Any, field: str) -> tuple[int, int]:
    """Ints (p, q), q > 0, with p / q the rational that ``s`` spells."""
    # JSON true/false arrive as bools, which are ints to isinstance.
    if isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    if not isinstance(s, str):
        raise ParseError(f"{field}: expected a rational string, got {type(s).__name__}")
    canonical = _CANONICAL.fullmatch(s)
    if canonical:
        try:
            num, den = int(canonical[1]), int(canonical[2] or 1)
        except ValueError:
            pass  # past the int digit limit: Fraction(s) raises it below
        else:
            if den:
                return num, den
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{field}: invalid rational {s!r} ({exc})") from None
    return x.numerator, x.denominator


def _pair_row(data: Any, field: str) -> list[tuple[int, int]]:
    if not isinstance(data, list):
        raise ParseError(f"{field}: expected a list of rationals")
    return [_rational_pair(x, f"{field}[{i}]") for i, x in enumerate(data)]


def vector_to_json(v: Vec) -> list[str]:
    return [rational_to_str(x, "a vector") for x in v]


def matrix_to_json(m: Mat, what: str = "a matrix") -> list[list[str]]:
    try:
        return m.to_strings()
    except ValueError:
        raise _unprintable(what, [x for i in range(m.rows) for x in m.row(i)]) from None


def parse_matrix(data: Any, field: str) -> Mat:
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError(f"{field}: expected a list of rows")
    rows = [_pair_row(r, f"{field}[{i}]") for i, r in enumerate(data)]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ParseError(f"{field}: ragged rows")
    return ratio_mat(len(rows[0]) if rows else 0, rows)

# ------------------------------------------------------------------- spaces


def space_to_json(space: InnerProductSpace) -> dict:
    out: dict[str, Any] = {"dim": space.dim}
    if space.gram != identity(space.dim):
        out["gram"] = matrix_to_json(space.gram, "a Gram matrix")
    return out


def parse_space(data: Any, field: str = "space") -> InnerProductSpace:
    if not isinstance(data, dict) or "dim" not in data:
        raise ParseError(f"{field}: expected an object with a 'dim' entry")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError(f"{field}.dim: expected a nonnegative integer")
    if dim > MAX_DIM:
        raise ParseError(f"{field}.dim: {dim} exceeds the maximum dimension {MAX_DIM}")
    if "gram" not in data:
        return standard_space(dim)
    gram = parse_matrix(data["gram"], f"{field}.gram")
    try:
        return InnerProductSpace(dim, gram)
    except ValueError as exc:
        raise ParseError(f"{field}.gram: {exc}") from None


def subspace_to_json(sub: Subspace) -> dict:
    return {"basis": matrix_to_json(sub.basis, "a subspace basis")}

# ---------------------------------------------------------------- relations


def relation_to_json(rel: LinearRelation) -> dict:
    src = space_to_json(rel.src)
    return {
        "from": src,
        "to": src if rel.dst == rel.src else space_to_json(rel.dst),
        "graph_basis": matrix_to_json(rel.graph.basis, "a graph basis"),
    }


def parse_relation(data: Any, field: str = "relation") -> LinearRelation:
    if not isinstance(data, dict):
        raise ParseError(f"{field}: expected an object")
    for key in ("from", "to", "graph_basis"):
        if key not in data:
            raise ParseError(f"{field}.{key}: missing")
    src = parse_space(data["from"], f"{field}.from")
    dst = src if _same_json(data["to"], data["from"]) else parse_space(data["to"], f"{field}.to")
    basis, n = data["graph_basis"], src.dim + dst.dim
    if not isinstance(basis, list):
        raise ParseError(f"{field}.graph_basis: expected a list of vectors")
    rows = [_pair_row(v, f"{field}.graph_basis[{i}]") for i, v in enumerate(basis)]
    for i, r in enumerate(rows):
        if len(r) != n:
            raise ParseError(f"{field}.graph_basis[{i}]: wrong length, expected {n}")
    return LinearRelation(src, dst, span_mat(product_space(src, dst), ratio_mat(n, rows)))


def _same_json(a: Any, b: Any) -> bool:
    """a == b with the type of every value compared too, so that 1, 1.0
    and true, which the parsers tell apart, differ here as well."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b

# ------------------------------------------------------------------- files


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, text that is not UTF-8, an integer literal past
        # the int digit limit, or arrays nested past the recursion limit.
        raise ParseError(f"{path}: invalid JSON ({exc})") from None


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def read_relation(path: str) -> LinearRelation:
    return parse_relation(load_json(path), field=path)


def write_relation(path: str, rel: LinearRelation) -> None:
    write_text(path, canonical_dumps(relation_to_json(rel)))


def relation_witness(rel: LinearRelation) -> str:
    """Compact one-line serialization for check witnesses."""
    return json.dumps(relation_to_json(rel), sort_keys=True)


def vector_witness(v: Vec) -> str:
    return json.dumps(vector_to_json(v))
