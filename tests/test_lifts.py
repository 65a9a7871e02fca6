"""Batched lifts and the form matrices built on them, against their
definitions.

``lifts`` lifts every row at once; here it is compared with ``lifts`` of
each row alone, and every pair {x, g} is checked to lie in the graph.
``form_of_relation``, ``lebesgue_form`` and ``form_s_of`` are
compared with the entry-wise reference they replaced: a double loop of
inner products over per-vector lifts.  Sources and targets
have different dimensions and every Gram matrix is weighted, so a Gram or
a space mix-up cannot cancel out.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcalc.errors import PreconditionError
from relcalc.extensions import selfadjoint_from_form
from relcalc.forms import certify_lower_bound, companion, form_of_relation, form_s_of, lebesgue_form, repmap_ldl
from relcalc.linalg import Mat, identity, mat, zeros
from relcalc.relations import (
    LinearRelation,
    adjoint,
    lifts,
    parts,
    regular_part,
)
from relcalc.spaces import InnerProductSpace, gram_on, product_space, span

from vectors import combination, inner, lift, member, rows

rationals = st.builds(
    Fraction,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def weighted_space(draw, n):
    b = mat([[draw(rationals) for _ in range(n)] for _ in range(n)])
    # The all-ones term keeps the Gram off the identity even when b is zero.
    ones = mat([[1] * n for _ in range(n)])
    return InnerProductSpace(n, (b.T @ b) + identity(n) + ones)


@st.composite
def relation(draw, src, dst):
    width = src.dim + dst.dim
    k = draw(st.integers(min_value=0, max_value=width))
    vectors = [[draw(rationals) for _ in range(width)] for _ in range(k)]
    return LinearRelation(src, dst, span(product_space(src, dst), vectors))


@st.composite
def spaces_of_unequal_dims(draw):
    return [draw(weighted_space(n)) for n in draw(st.permutations([1, 2, 3]))[:2]]


@st.composite
def symmetric_relation(draw):
    """A random restriction of a random selfadjoint relation."""
    space = draw(weighted_space(draw(st.integers(min_value=1, max_value=3))))
    k = draw(st.integers(min_value=0, max_value=space.dim))
    dom = span(space, [[draw(rationals) for _ in range(space.dim)] for _ in range(k)])
    a = mat([[draw(rationals) for _ in range(dom.dim)] for _ in range(dom.dim)])
    h = selfadjoint_from_form(space, dom.basis, a + a.T)
    basis = h.graph.basis
    r = draw(st.integers(min_value=0, max_value=basis.rows))
    combos = [[draw(rationals) for _ in range(basis.rows)] for _ in range(r)]
    return LinearRelation(space, space, span(product_space(space, space), [combination(basis, cb) for cb in combos]))


def inner_matrix(space: InnerProductSpace, left: list, right: list) -> Mat:
    """The reference: entry (i, j) is (left_i, right_j), one inner product each."""
    return mat([[inner(space, x, y) for y in right] for x in left])


def a_lower_bound(t) -> Fraction:
    c = Fraction(0)
    while not certify_lower_bound(t, c).ok:
        c = 2 * c - 1
    return c


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_lifts_is_rowwise_lift(data):
    src, dst = data.draw(spaces_of_unequal_dims())
    t = data.draw(relation(src, dst))
    dom = parts(t).dom
    count = data.draw(st.integers(min_value=0, max_value=3))
    drawn = [combination(dom.basis, [data.draw(rationals) for _ in range(dom.dim)]) for _ in range(count)]
    xs = mat(drawn) if drawn else zeros(0, src.dim)
    gs = lifts(t, xs)
    assert (gs.rows, gs.cols) == (count, dst.dim)
    for x, g in zip(rows(xs), rows(gs)):
        assert g == lift(t, x)
        assert member(x + g, t.graph)


def test_lifts_outside_the_domain_is_a_precondition_error():
    space = InnerProductSpace(2, mat([[2, 1], [1, 2]]))
    t = LinearRelation(space, space, span(product_space(space, space), [[1, 0, 3, 4]]))
    with pytest.raises(PreconditionError):
        lifts(t, mat([[1, 0], [0, 1]]))


@given(symmetric_relation())
@settings(max_examples=40, deadline=None)
def test_form_matrix_is_the_pairing_of_lifts(s: LinearRelation):
    t = form_of_relation(s)
    dom = rows(t.domain.basis)
    assert t.matrix == inner_matrix(s.src, [lift(s, b) for b in dom], dom)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_lebesgue_form_is_the_pairing_of_lifts(data):
    src, dst = data.draw(spaces_of_unequal_dims())
    q = data.draw(relation(src, dst))
    c = data.draw(rationals)
    reg_form, sing_form = lebesgue_form(q, c)
    dom = parts(q).dom
    basis = rows(dom.basis)
    total = [lift(q, b) for b in basis]
    reg = [lift(regular_part(q), b) for b in basis]
    sing = [tuple(x - y for x, y in zip(g, r)) for g, r in zip(total, reg)]
    base = gram_on(dom).scale(c)
    assert reg_form.matrix == base + inner_matrix(dst, reg, reg)
    assert sing_form.matrix == inner_matrix(dst, sing, sing)
    assert reg_form.matrix + sing_form.matrix == base + inner_matrix(dst, total, total)


@given(symmetric_relation())
@settings(max_examples=25, deadline=None)
def test_form_s_is_the_pairing_of_regular_lifts(s: LinearRelation):
    t = form_of_relation(s)
    c = a_lower_bound(t)
    out = form_s_of(s, c)
    q = repmap_ldl(t, c)
    jstar = adjoint(companion(s, q))
    dom = rows(parts(jstar).dom.basis)
    images = [lift(regular_part(jstar), b) for b in dom]
    expected = mat([[c * inner(s.src, x, y) for y in dom] for x in dom]) + inner_matrix(q.codomain, images, images)
    assert out.matrix == expected
