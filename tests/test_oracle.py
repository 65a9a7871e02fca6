"""sympy as an independent reference for the exact kernel.

Every cross-check of the package runs both of its formulas on the same
``rref`` and ``Mat`` storage, so a kernel that is wrong in a consistent way
would move both sides together.  Here sympy's own rationals, ``rref`` and
``nullspace`` recompute the null space of a matrix and the adjoint of a
relation (the null space of its Green pairing [g G_K | -f G_H]), and the
results must be equal, entry by entry.  Test-only: ``relcalc`` itself
imports no sympy.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcalc.linalg import identity, mat, null_space, zeros
from relcalc.relations import adjoint, relation_from_graph_vectors
from relcalc.spaces import InnerProductSpace

sympy = pytest.importorskip("sympy")

rationals = st.builds(Fraction, st.integers(min_value=-7, max_value=7), st.integers(min_value=1, max_value=5))


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r])


def matrix_rows(m):
    return [tuple(m.row(i)) for i in range(m.rows)]


def sympy_null_space(m):
    """The reduced echelon basis of the null space of the sympy matrix m,
    as tuples of Fractions: sympy's ``nullspace``, then its ``rref``."""
    vectors = m.nullspace()
    if not vectors:
        return []
    red, pivots = sympy.Matrix.hstack(*vectors).T.rref()
    return [tuple(Fraction(int(x.p), int(x.q)) for x in red.row(i)) for i in range(len(pivots))]


@st.composite
def matrices(draw):
    """Rational rows up to 5 x 6, some of planted rank: a product of two
    random factors through an inner dimension below both sides."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    entries = lambda n, k: [[draw(rationals) for _ in range(k)] for _ in range(n)]
    if draw(st.booleans()) or not (nrows and ncols):
        return entries(nrows, ncols), ncols
    inner = draw(st.integers(1, min(nrows, ncols)))
    a, b = to_sympy(entries(nrows, inner), inner), to_sympy(entries(inner, ncols), ncols)
    prod = a * b
    return [[Fraction(int(prod[i, j].p), int(prod[i, j].q)) for j in range(ncols)] for i in range(nrows)], ncols


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_null_space_is_sympys(data):
    rows, ncols = data
    m = mat(rows) if rows else zeros(0, ncols)
    assert matrix_rows(null_space(m)) == sympy_null_space(to_sympy(rows, ncols))


@st.composite
def weighted_space(draw, n):
    b = mat([[draw(rationals) for _ in range(n)] for _ in range(n)])
    ones = mat([[1] * n for _ in range(n)])
    return InnerProductSpace(n, (b.T @ b) + identity(n) + ones)


@st.composite
def relations(draw):
    """Relations between weighted spaces of dims 0 to 3, src and dst
    apart, with random, zero and full graphs."""
    src = draw(weighted_space(draw(st.integers(0, 3))))
    dst = draw(weighted_space(draw(st.integers(0, 3))))
    width = src.dim + dst.dim
    kind = draw(st.sampled_from(["random", "zero", "full"]))
    if kind == "zero":
        vectors = []
    elif kind == "full":
        vectors = [identity(width).row(i) for i in range(width)]
    else:
        vectors = [[draw(rationals) for _ in range(width)] for _ in range(draw(st.integers(0, width)))]
    return relation_from_graph_vectors(src, dst, vectors)


@given(relations())
@settings(max_examples=150, deadline=None)
def test_adjoint_is_sympys_null_space_of_the_green_pairing(t):
    basis = matrix_rows(t.graph.basis)
    n = t.src.dim
    f = to_sympy([r[:n] for r in basis], n)
    g = to_sympy([r[n:] for r in basis], t.dst.dim)
    gram_h = to_sympy(matrix_rows(t.src.gram), n)
    gram_k = to_sympy(matrix_rows(t.dst.gram), t.dst.dim)
    pairing = sympy.Matrix.hstack(g * gram_k, -f * gram_h)
    star = adjoint(t)
    assert (star.src, star.dst) == (t.dst, t.src)
    assert matrix_rows(star.graph.basis) == sympy_null_space(pairing)
