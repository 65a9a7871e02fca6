"""sympy as an independent reference for the exact kernel.

Every cross-check of the package runs both of its formulas on the same
``rref`` and ``Mat`` storage, so a kernel that is wrong in a consistent way
would move both sides together.  Here sympy's own rationals, ``rref`` and
``nullspace`` recompute the null space of a matrix and the adjoint of a
relation (the null space of its Green pairing [g G_K | -f G_H]), and the
results must be equal, entry by entry.  The relational products and the
subspace meet and sum are recomputed the same way: each is the span of the
a-parts of sympy's RREF of the Zassenhaus matrix [b | a] that are zero on
b, built here by sympy's own stacking from the graph rows.  The squarefree
part of an integer polynomial, which ``bound_bisect`` searches, is held to
sympy's ``sqf_part``, the determinant to sympy's ``det``, a solution of
X a = b to sympy's rank test and product, and ``rref``, ``kernel`` and
``pairing_null_space`` on matrices of planted rank to sympy's ``rref`` and
``nullspace``, and each verdict of ``ldl_psd_certificate`` to sympy's
products: the identity P^T M P = L D L^T rebuilt from the stored columns,
or the negative quadratic value of the witness.  Test-only:
``relcalc`` itself imports no sympy.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcalc.forms import _squarefree
from relcalc.linalg import det, identity, kernel, ldl_psd_certificate, mat, pairing_null_space, rref, solve, zeros
from relcalc.relations import LinearRelation, adjoint, compose, eigenspace, inverse, rel_sum, restrict_domain, shift
from relcalc.spaces import InnerProductSpace, intersect, product_space, span, subspace_sum

from test_linalg import ldl_inputs, psd_inputs

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
    assert matrix_rows(kernel(m)) == sympy_null_space(to_sympy(rows, ncols))


@st.composite
def weighted_space(draw, n):
    b = mat([[draw(rationals) for _ in range(n)] for _ in range(n)])
    ones = mat([[1] * n for _ in range(n)])
    return InnerProductSpace(n, (b.T @ b) + identity(n) + ones)


spaces = st.integers(0, 3).flatmap(weighted_space)


@st.composite
def graph(draw, src, dst, extra=()):
    """A random, zero or full graph between src and dst, with the pairs
    in ``extra`` added to a random one."""
    width = src.dim + dst.dim
    kind = draw(st.sampled_from(["random", "zero", "full"]))
    if kind == "zero":
        vectors = []
    elif kind == "full":
        vectors = [identity(width).row(i) for i in range(width)]
    else:
        vectors = [[draw(rationals) for _ in range(width)] for _ in range(draw(st.integers(0, width)))]
        vectors += [[*f, *g] for f, g in extra]
    return LinearRelation(src, dst, span(product_space(src, dst), vectors))


@st.composite
def relations(draw):
    """Relations between weighted spaces of dims 0 to 3, src and dst
    apart, with random, zero and full graphs."""
    return draw(graph(draw(spaces), draw(spaces)))


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


# ------------------------------------------------- products by Zassenhaus


def sympy_rows(m):
    return to_sympy(matrix_rows(m), m.cols)


def sympy_halves(t):
    """The f and the g of each graph basis row, as sympy matrices."""
    basis = sympy_rows(t.graph.basis)
    return basis[:, : t.src.dim], basis[:, t.src.dim :]


def sympy_image_where(b, a):
    """The reduced echelon basis of {x^T a : x^T b = 0}: the a-parts of the
    rows of sympy's RREF of [b | a] that pivot at or beyond b's columns."""
    red, pivots = sympy.Matrix.hstack(b, a).rref()
    return [tuple(Fraction(int(x.p), int(x.q)) for x in red[i, b.cols :]) for i, p in enumerate(pivots) if p >= b.cols]


def sympy_span(a):
    return sympy_image_where(sympy.zeros(a.rows, 0), a)


def graph_rows(t):
    return matrix_rows(t.graph.basis)


@st.composite
def subspaces(draw, space):
    kind = draw(st.sampled_from(["random", "zero", "full"]))
    if kind == "full":
        return span(space, [identity(space.dim).row(i) for i in range(space.dim)])
    k = 0 if kind == "zero" else draw(st.integers(0, space.dim))
    return span(space, [[draw(rationals) for _ in range(space.dim)] for _ in range(k)])


# c = p / q with q > 1 at least half of the time: the products scale rows by q.
base_points = st.one_of(st.builds(Fraction, st.integers(-7, 7), st.integers(2, 5)), rationals)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_compose_is_sympys_zassenhaus_elimination(data):
    h, k, l = (data.draw(spaces) for _ in range(3))
    t, r = data.draw(graph(h, k)), data.draw(graph(k, l))
    f_t, k_t = sympy_halves(t)
    k_r, g_r = sympy_halves(r)
    b = sympy.Matrix.vstack(k_t, -k_r)
    a = sympy.Matrix.vstack(sympy.Matrix.hstack(f_t, sympy.zeros(f_t.rows, l.dim)), sympy.Matrix.hstack(sympy.zeros(g_r.rows, h.dim), g_r))
    assert graph_rows(compose(r, t)) == sympy_image_where(b, a)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_inverse_is_sympys_span_of_the_swapped_rows(data):
    t = data.draw(graph(data.draw(spaces), data.draw(spaces)))
    f, g = sympy_halves(t)
    assert graph_rows(inverse(t)) == sympy_span(sympy.Matrix.hstack(g, f))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_shift_and_eigenspace_are_sympys_eliminations(data):
    space, c = data.draw(spaces), data.draw(base_points)
    h = [data.draw(rationals) for _ in range(space.dim)]
    t = data.draw(graph(space, space, extra=[(h, [c * x for x in h])]))
    f, g = sympy_halves(t)
    cs = sympy.Rational(c.numerator, c.denominator)
    assert graph_rows(shift(t, c)) == sympy_span(sympy.Matrix.hstack(f, g + cs * f))
    assert matrix_rows(eigenspace(t, c).basis) == sympy_image_where(g - cs * f, f)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_restrict_domain_and_rel_sum_are_sympys_zassenhaus_eliminations(data):
    src, dst = data.draw(spaces), data.draw(spaces)
    t, u = data.draw(graph(src, dst)), data.draw(graph(src, dst))
    d = data.draw(subspaces(src))
    f_t, g_t = sympy_halves(t)
    f_u, g_u = sympy_halves(u)
    basis = sympy.Matrix.hstack(f_t, g_t)
    b = sympy.Matrix.vstack(f_t, -sympy_rows(d.basis))
    a = sympy.Matrix.vstack(basis, sympy.zeros(d.dim, basis.cols))
    assert graph_rows(restrict_domain(t, d)) == sympy_image_where(b, a)
    b = sympy.Matrix.vstack(f_t, -f_u)
    a = sympy.Matrix.vstack(basis, sympy.Matrix.hstack(sympy.zeros(f_u.rows, src.dim), g_u))
    assert graph_rows(rel_sum(t, u)) == sympy_image_where(b, a)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_intersect_and_subspace_sum_are_sympys_zassenhaus_eliminations(data):
    space = data.draw(spaces)
    v, w = data.draw(subspaces(space)), data.draw(subspaces(space))
    bv, bw = sympy_rows(v.basis), sympy_rows(w.basis)
    a = sympy.Matrix.vstack(bv, sympy.zeros(bw.rows, space.dim))
    assert matrix_rows(intersect(v, w).basis) == sympy_image_where(sympy.Matrix.vstack(bv, -bw), a)
    assert matrix_rows(subspace_sum(v, w).basis) == sympy_span(sympy.Matrix.vstack(bv, bw))


def times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@st.composite
def polynomials(draw):
    """Integer coefficients, lowest degree first, with a nonzero leading
    one: a content times up to three factors of degree 1 or 2, each to a
    power of 1 to 3, so most have repeated roots, some irrational or
    complex; or random coefficients, most with simple roots."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=10))
        return (*coeffs, draw(st.integers(-50, 50).filter(bool)))
    p = [draw(st.integers(-12, 12).filter(bool))]
    for _ in range(draw(st.integers(1, 3))):
        factor = [draw(st.integers(-9, 9)) for _ in range(draw(st.integers(1, 2)))] + [draw(st.integers(1, 5))]
        for _ in range(draw(st.integers(1, 3))):
            p = times(p, factor)
    return tuple(p)


def primitive_part(coeffs):
    """The coefficients over their content, with a positive leading one."""
    g = math.gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
    return tuple(x // g for x in coeffs)


@given(polynomials())
@settings(max_examples=120, deadline=None)
def test_squarefree_is_sympys_sqf_part(p):
    x = sympy.Symbol("x")
    expected = sympy.Poly(list(reversed(p)), x).sqf_part().all_coeffs()
    assert primitive_part(_squarefree(p)) == primitive_part([int(c) for c in reversed(expected)])


# ------------------------------------------- determinants and linear solves


def from_sympy(m):
    return [[Fraction(int(m[i, j].p), int(m[i, j].q)) for j in range(m.cols)] for i in range(m.rows)]


def to_mat(rows, ncols):
    return mat(rows) if rows else zeros(0, ncols)


@st.composite
def planted(draw, nrows, ncols):
    """A random nrows x ncols rational matrix, or half the time one of
    rank below both sides: a product through a smaller inner dimension,
    the zero matrix when that is 0."""
    entries = lambda n, k: to_sympy([[draw(rationals) for _ in range(k)] for _ in range(n)], k)
    if draw(st.booleans()) or min(nrows, ncols) == 0:
        return entries(nrows, ncols)
    inner = draw(st.integers(0, min(nrows, ncols) - 1))
    return entries(nrows, inner) * entries(inner, ncols)


@given(st.integers(0, 6).flatmap(lambda n: planted(n, n)))
@settings(max_examples=150, deadline=None)
def test_det_is_sympys(a):
    assert det(to_mat(from_sympy(a), a.cols)) == Fraction(int(a.det().p), int(a.det().q))


@st.composite
def systems(draw):
    """(a, b) for a X = b: a of planted rank, b's columns each either a
    combination of a's columns or random."""
    k, n = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    a = draw(planted(k, n)).T
    cols = []
    for _ in range(draw(st.integers(0, 3))):
        if k and draw(st.booleans()):
            cols.append(a * to_sympy([[draw(rationals)] for _ in range(k)], 1))
        else:
            cols.append(to_sympy([[draw(rationals)] for _ in range(n)], 1))
    return a, sympy.Matrix.hstack(sympy.zeros(n, 0), *cols)


@given(systems())
@settings(max_examples=150, deadline=None)
def test_solve_is_sympys(system):
    a, b = system
    x = solve(to_mat(from_sympy(a), a.cols), to_mat(from_sympy(b), b.cols))
    solvable = sympy.Matrix.hstack(a, b).rank() == a.rank()
    assert (x is not None) == solvable
    if x is not None:
        assert (x.rows, x.cols) == (a.cols, b.cols)
        assert a * to_sympy(matrix_rows(x), b.cols) == b


# ------------------------------------- echelon forms and null spaces, planted


@given(st.integers(0, 5).flatmap(lambda n: st.integers(0, 6).flatmap(lambda k: planted(n, k))))
@settings(max_examples=150, deadline=None)
def test_rref_and_kernel_are_sympys(a):
    m = to_mat(from_sympy(a), a.cols)
    red, pivots = rref(m)
    expected, expected_pivots = a.rref()
    assert (matrix_rows(red), pivots) == (from_sympy_rows(expected), expected_pivots)
    assert matrix_rows(kernel(m)) == sympy_null_space(a)


def from_sympy_rows(m):
    return [tuple(r) for r in from_sympy(m)]


@st.composite
def pairing_blocks(draw):
    """(L, R) with one row count, each of planted rank half the time."""
    n = draw(st.integers(0, 5))
    return draw(planted(n, draw(st.integers(0, 4)))), draw(planted(n, draw(st.integers(0, 4))))


@given(pairing_blocks())
@settings(max_examples=150, deadline=None)
def test_pairing_null_space_is_sympys_null_space_of_l_minus_r(blocks):
    left, right = blocks
    got = pairing_null_space(to_mat(from_sympy(left), left.cols), to_mat(from_sympy(right), right.cols))
    assert got.cols == left.cols + right.cols
    assert matrix_rows(got) == sympy_null_space(sympy.Matrix.hstack(left, -right))


@given(st.one_of(ldl_inputs(), psd_inputs()))
@settings(max_examples=300, deadline=None)
def test_ldl_psd_certificate_is_sympys_identity_or_negative_value(m):
    # A certificate is rebuilt in sympy from its stored columns: P^T M P
    # - L D L^T is the zero matrix, with P[i][j] = 1 iff i == perm[j], and
    # every D >= 0.  A refutation's witness has a negative quadratic value.
    a = to_sympy(matrix_rows(m), m.cols)
    n = m.rows
    res = ldl_psd_certificate(m)
    if res.ok:
        cert = res.certificate
        p = sympy.Matrix(n, n, lambda i, j: 1 if i == cert.perm[j] else 0)
        lower = to_sympy(matrix_rows(cert.lower_cols), n).T
        d = sympy.diag(*[sympy.Rational(x.numerator, x.denominator) for x in cert.diag]) if n else sympy.zeros(0, 0)
        assert p.T * a * p - lower * d * lower.T == sympy.zeros(n, n)
        assert all(x >= 0 for x in cert.diag)
    else:
        v = to_sympy([res.witness], n).T
        assert (v.T * a * v)[0, 0] < 0
