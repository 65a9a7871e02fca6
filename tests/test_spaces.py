import functools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relcalc.linalg as linalg
import relcalc.spaces as spaces
from relcalc.errors import AmbientMismatchError
from relcalc.linalg import block_diag, clear_memos, hstack, identity, kernel, mat, vec, zassenhaus, zeros
from relcalc.relations import LinearRelation, adjoint
from relcalc.spaces import (
    InnerProductSpace,
    Subspace,
    complement,
    contains,
    extending,
    gram_on,
    intersect,
    product_space,
    projections,
    span,
    span_mat,
    standard_space,
    subspace_sum,
    zero_subspace,
)

from relation_builders import free_variable_kernel, full_subspace
from vectors import inner, member, rows

Q2 = standard_space(2)
Q4 = standard_space(4)


def project(x, w):
    """The G-orthogonal projection of one vector onto w."""
    return projections(mat([x]), w).row(0)


def test_a_rebound_rref_leaves_spans_out_of_its_memo(monkeypatch):
    # A tracer rebinds the name rref to a functools.wraps wrapper, whose
    # __wrapped__ is the memo itself: a span must still eliminate with the
    # body alone.
    real = spaces.rref
    monkeypatch.setattr(spaces, "rref", functools.wraps(real)(lambda m: real(m)))
    clear_memos()
    assert span(Q2, [vec([1, 2]), vec([2, 4])]).basis == mat([[1, 2]])
    assert real.cache_info().currsize == 0


def test_spans_of_one_subspace_share_one_basis():
    # Two spanning sets of one subspace reduce to equal echelon rows, and the
    # second Subspace keeps the live basis of the first.
    v = span_mat(Q4, mat([[1, 2, 0, 1], [0, 1, 1, 0]]))
    w = span_mat(Q4, mat([[1, 3, 1, 1], [2, 3, -1, 2], [1, 2, 0, 1]]))
    assert v == w
    assert v.basis is w.basis


def test_the_basis_table_keeps_nothing_alive():
    v = span_mat(Q4, mat([[7, 1, 2, 3], [0, 5, 1, 9]]))
    basis = v.basis
    key, ref = (basis._cols, basis._den, basis._num), weakref.ref(basis)
    assert linalg._LIVE[key] is basis
    del v, basis
    clear_memos()
    assert ref() is None
    assert key not in linalg._LIVE.data


def test_gram_must_be_positive_definite():
    with pytest.raises(ValueError):
        InnerProductSpace(2, mat([[1, 3], [3, 9]]))
    with pytest.raises(ValueError):
        InnerProductSpace(2, mat([[0, 1], [1, 0]]))


def test_complement_standard_axis():
    w = span(Q2, [vec([1, 0])])
    assert complement(w) == span(Q2, [vec([0, 1])])


def test_complement_weighted_gram():
    # Solve x1 + 2*x2 = 0 for the diag(1, 2) Gram against (1, 1).
    space = InnerProductSpace(2, mat([[1, 0], [0, 2]]))
    w = span(space, [vec([1, 1])])
    assert complement(w) == span(space, [vec([2, -1])])


def test_complement_of_full_space_is_zero():
    assert complement(full_subspace(Q2)) == zero_subspace(Q2)


def test_intersect_trivial_cases():
    v = span(Q2, [vec([1, 0]), vec([0, 1])])
    w = span(Q2, [vec([1, 1])])
    assert intersect(v, w) == w
    assert intersect(w, w) == w


def test_intersect_transverse_lines():
    v = span(Q2, [vec([1, 3])])
    w = span(Q2, [vec([1, -1])])
    assert intersect(v, w) == zero_subspace(Q2)


def test_sum_spans_union():
    assert subspace_sum(span(Q2, [vec([1, 0])]), span(Q2, [vec([0, 1])])) == full_subspace(Q2)
    v = span(Q2, [vec([1, 3])])
    assert subspace_sum(v, zero_subspace(Q2)) == v


def test_sum_e1_fixture_graph():
    v = span(Q4, [vec([1, 1, 1, 3])])
    w = span(Q4, [vec([3, -1, 0, 0])])
    s = subspace_sum(v, w)
    assert s.dim == 2
    assert contains(s, v) and contains(s, w)


def test_member_and_project():
    assert member(vec([1, 1]), span(Q2, [vec([2, 2])]))
    assert not member(vec([1, 0]), span(Q2, [vec([2, 2])]))
    p = project(vec([1, 0]), span(Q2, [vec([1, 1])]))
    assert p == vec([Fraction(1, 2), Fraction(1, 2)])
    assert project(vec([1, 0]), full_subspace(Q2)) == vec([1, 0])


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 0]],  # a leading entry that is not 1
        [[2, 1]],  # the same, with a 1 right of it
        [[0, 1], [1, 0]],  # leading columns out of order
        [[1, 1], [0, 1]],  # a leading column nonzero in another row
        [[1, 0], [0, 0]],  # a zero row
    ],
)
def test_a_basis_not_in_reduced_echelon_form_is_rejected(rows):
    # Membership reads coordinates off the leading 1s, so a basis without
    # them must not become a Subspace.
    with pytest.raises(ValueError, match="reduced echelon"):
        Subspace(Q2, mat(rows))


def test_mixed_ambients_are_rejected():
    space = InnerProductSpace(2, mat([[2, 0], [0, 1]]))
    with pytest.raises(AmbientMismatchError):
        intersect(full_subspace(Q2), full_subspace(space))


rationals = st.builds(
    Fraction,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def space_and_subspaces(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    b = mat([[draw(rationals) for _ in range(n)] for _ in range(n)])
    space = InnerProductSpace(n, (b.T @ b) + mat([[1 if i == j else 0 for j in range(n)] for i in range(n)]))
    nv = draw(st.integers(min_value=0, max_value=n))
    nw = draw(st.integers(min_value=0, max_value=n))
    v = span(space, [[draw(rationals) for _ in range(n)] for _ in range(nv)])
    w = span(space, [[draw(rationals) for _ in range(n)] for _ in range(nw)])
    return space, v, w


@given(space_and_subspaces())
@settings(max_examples=40, deadline=None)
def test_complement_involution_and_dimension(data):
    space, v, _ = data
    comp = complement(v)
    assert v.dim + comp.dim == space.dim
    assert intersect(v, comp) == zero_subspace(space)
    assert complement(comp) == v


@given(space_and_subspaces())
@settings(max_examples=40, deadline=None)
def test_de_morgan(data):
    _, v, w = data
    assert complement(subspace_sum(v, w)) == intersect(complement(v), complement(w))


@given(space_and_subspaces())
@settings(max_examples=40, deadline=None)
def test_modular_dimension_formula(data):
    _, v, w = data
    assert subspace_sum(v, w).dim == v.dim + w.dim - intersect(v, w).dim


@given(space_and_subspaces())
@settings(max_examples=40, deadline=None)
def test_projection_idempotent_and_gram_symmetric(data):
    space, v, _ = data
    x = tuple(Fraction(i + 1, 3) for i in range(space.dim))
    y = tuple(Fraction(2 * i - 1, 2) for i in range(space.dim))
    px = project(x, v)
    assert project(px, v) == px
    assert member(px, v)
    # (Gx)^T P y == (Px)^T G y, i.e. the projector is G-selfadjoint.
    assert inner(space, x, project(y, v)) == inner(space, px, y)
    g = gram_on(v)
    assert g.is_symmetric()


@given(space_and_subspaces())
@settings(max_examples=40, deadline=None)
def test_extending_matches_the_greedy_basis_extension(data):
    space, v, w = data
    # Zero, repeated and already-contained vectors must all be skipped.
    vectors = [vec([0] * space.dim)] + rows(w.basis) + rows(v.basis)[:1] + rows(w.basis)[:1]
    greedy, current = [], v
    for u in vectors:
        cand = subspace_sum(current, span(space, [u]))
        if cand.dim > current.dim:
            greedy.append(u)
            current = cand
    kept = extending(v, mat(vectors))
    assert [kept.row(i) for i in range(kept.rows)] == greedy
    assert span(space, rows(v.basis) + greedy) == subspace_sum(v, w)


# Denominators that share no factor with each other or with the small ones.
LARGE_PRIMES = (1_000_000_007, 998_244_353, 2**61 - 1, 2**89 - 1)
large_rationals = st.builds(Fraction, st.integers(min_value=-(10**12), max_value=10**12), st.sampled_from(LARGE_PRIMES))


@st.composite
def zassenhaus_inputs(draw):
    """Ambient dim n, p generator rows and m conditions, each possibly
    zero; a and b are each random, zero or (for b) absent."""
    n = draw(st.integers(min_value=0, max_value=4))
    p = draw(st.integers(min_value=0, max_value=5))
    m = draw(st.integers(min_value=0, max_value=3))
    entries = draw(st.sampled_from([rationals, large_rationals, st.one_of(rationals, large_rationals)]))

    def matrix(cols):
        if cols and p and draw(st.booleans()):
            return mat([[draw(entries) for _ in range(cols)] for _ in range(p)])
        return zeros(p, cols)

    return standard_space(n), matrix(n), matrix(m)


def span_of_rows(space, m):
    """The canonical span of the rows of m: the second RREF of the
    kernel-then-span formulas below."""
    return span(space, [m.row(i) for i in range(m.rows)])


@given(zassenhaus_inputs(), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_zassenhaus_is_the_span_of_a_on_the_kernel_of_b(data, f):
    space, a, b = data
    # The reference keeps the two steps apart: a basis of {x : x^T b = 0},
    # then the span of the combinations x^T a.
    null = free_variable_kernel(b.T)
    expected = span_of_rows(space, null @ a)
    # The rows [b | a] come from one block: b placed as it is, a as
    # (f + 1) a - f a, whose two places add up; then all of it times f.
    nb, rows = b.cols, hstack(b, a)
    ncols = rows.cols
    assert Subspace(space, zassenhaus(nb, ncols, (rows, (0, 1, 0, nb), (nb, f + 1, nb, ncols), (nb, -f, nb, ncols)))) == expected
    assert Subspace(space, zassenhaus(nb, ncols, (rows, (0, f, 0, ncols)))) == expected


@st.composite
def matrices(draw):
    """0-4 x 0-6 matrices, many entries zero, the others with small or
    unrelated large denominators."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    entries = st.one_of(st.just(Fraction(0)), draw(st.sampled_from([rationals, large_rationals])))
    if not rows or not cols:
        return zeros(rows, cols)
    return mat([[draw(entries) for _ in range(cols)] for _ in range(rows)])


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_null_space_is_the_span_of_the_kernel(m):
    assert kernel(m) == span_of_rows(standard_space(m.cols), free_variable_kernel(m)).basis


@st.composite
def weighted_space(draw, n):
    b = mat([[draw(st.one_of(rationals, large_rationals)) for _ in range(n)] for _ in range(n)]) if n else zeros(0, 0)
    return InnerProductSpace(n, (b.T @ b) + identity(n))


@st.composite
def subspace_of(draw, space):
    k = draw(st.integers(min_value=0, max_value=space.dim + 1))
    vectors = [[draw(st.one_of(st.just(Fraction(0)), rationals, large_rationals)) for _ in range(space.dim)] for _ in range(k)]
    return span(space, vectors)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_complement_is_the_span_of_the_kernel_of_the_pairing(data):
    space = data.draw(weighted_space(data.draw(st.integers(0, 4))))
    w = data.draw(subspace_of(space))
    assert complement(w) == span_of_rows(space, free_variable_kernel(w.basis @ space.gram))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_product_space_passes_the_certificate_it_skips(data):
    # product_space builds G_H (+) G_K without the constructor's LDL^T
    # certificate; the validating constructor accepts the same value.
    h = data.draw(weighted_space(data.draw(st.integers(0, 3))))
    k = data.draw(weighted_space(data.draw(st.integers(0, 3))))
    empty = standard_space(0)
    for left, right in ((h, k), (h, empty), (empty, k)):
        prod = product_space(left, right)
        assert prod == InnerProductSpace(left.dim + right.dim, block_diag(left.gram, right.gram))
        assert product_space(left, right) is prod


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_adjoint_is_the_span_of_the_kernel_of_the_pairing(data):
    src = data.draw(weighted_space(data.draw(st.integers(0, 3))))
    dst = data.draw(weighted_space(data.draw(st.integers(0, 3))))
    t = LinearRelation(src, dst, data.draw(subspace_of(product_space(src, dst))))
    # One condition [G_K g | -G_H f] on the pair [h | k] of T* for each
    # graph basis pair {f, g}: (g, h)_K = (f, k)_H.
    firsts, seconds = t.halves
    pairing = hstack(seconds @ dst.gram, (firsts @ src.gram).scale(-1))
    assert adjoint(t) == LinearRelation(dst, src, span_of_rows(product_space(dst, src), free_variable_kernel(pairing)))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_contains_is_an_unchanged_sum(data):
    space = data.draw(weighted_space(data.draw(st.integers(0, 4))))
    v, w = data.draw(subspace_of(space)), data.draw(subspace_of(space))
    zero = zero_subspace(space)
    for big, small in ((w, v), (w, intersect(v, w)), (subspace_sum(v, w), v), (w, zero), (zero, v), (v, v)):
        assert contains(big, small) == (subspace_sum(big, small) == big)
