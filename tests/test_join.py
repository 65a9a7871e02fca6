"""The four relational joins against their defining set conditions.

compose, rel_sum, stack_relations and restrict_domain each have a graph of
the form {P x : C x = 0}, where x runs over coefficients of the input
graph bases (and of the restricting subspace).  The library builds those
graphs as meets of cylinders in a product space; here they are checked
directly in coefficients: every pair built from the inputs lies in the
output, and every output basis pair solves the defining system.  Blocks
have pairwise different dimensions and weighted Gram matrices, so a block
offset or a Gram mix-up cannot cancel out.
"""

from fractions import Fraction
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from relcalc.forms import stack_relations
from relcalc.linalg import Mat, from_cols, hstack, identity, kernel, mat, solve, vstack, zeros
from relcalc.relations import (
    LinearRelation,
    compose,
    rel_sum,
    relation_from_graph_vectors,
    restrict_domain,
)
from relcalc.spaces import InnerProductSpace, member, span

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
    return relation_from_graph_vectors(src, dst, [[draw(rationals) for _ in range(width)] for _ in range(k)])


@st.composite
def subspace(draw, space):
    k = draw(st.integers(min_value=0, max_value=space.dim))
    return span(space, [[draw(rationals) for _ in range(space.dim)] for _ in range(k)])


@st.composite
def spaces_of_unequal_dims(draw):
    return [draw(weighted_space(n)) for n in draw(st.permutations([1, 2, 3]))]


def halves(t: LinearRelation) -> tuple[Mat, Mat]:
    pairs = t.pairs()
    return from_cols(t.src.dim, [f for f, _ in pairs]), from_cols(t.dst.dim, [g for _, g in pairs])


def blocks(rows: list[list[Mat]]) -> Mat:
    return reduce(vstack, [reduce(hstack, row) for row in rows])


def assert_graph_is(out: LinearRelation, constraint: Mat, image: Mat) -> None:
    """graph(out) = {image x : constraint x = 0}."""
    null = kernel(constraint)
    for j in range(null.cols):
        assert member(image.mul_vec(null.col(j)), out.graph)
    system = vstack(constraint, image)
    for v in out.graph.basis_vectors():
        assert solve(system, (0,) * constraint.rows + v) is not None


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_compose_is_the_relational_product(data):
    h, k, l = data.draw(spaces_of_unequal_dims())
    t = data.draw(relation(h, k))
    r = data.draw(relation(k, l))
    tf, ts = halves(t)
    rf, rs = halves(r)
    a, b = tf.cols, rf.cols
    # {Tf a, Rs b} with Ts a = Rf b.
    assert_graph_is(
        compose(r, t),
        blocks([[ts, rf.scale(-1)]]),
        blocks([[tf, zeros(h.dim, b)], [zeros(l.dim, a), rs]]),
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rel_sum_is_the_componentwise_sum(data):
    h, k, _ = data.draw(spaces_of_unequal_dims())
    x = data.draw(relation(h, k))
    y = data.draw(relation(h, k))
    xf, xs = halves(x)
    yf, ys = halves(y)
    # {Xf a, Xs a + Ys b} with Xf a = Yf b.
    assert_graph_is(
        rel_sum(x, y),
        blocks([[xf, yf.scale(-1)]]),
        blocks([[xf, zeros(h.dim, yf.cols)], [xs, ys]]),
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_stack_relations_is_the_column_stack(data):
    h, k1, k2 = data.draw(spaces_of_unequal_dims())
    t1 = data.draw(relation(h, k1))
    t2 = data.draw(relation(h, k2))
    f1, s1 = halves(t1)
    f2, s2 = halves(t2)
    a, b = f1.cols, f2.cols
    out = stack_relations(t1, t2)
    assert out.dst.gram == blocks([[k1.gram, zeros(k1.dim, k2.dim)], [zeros(k2.dim, k1.dim), k2.gram]])
    # {F1 a, S1 a (+) S2 b} with F1 a = F2 b.
    assert_graph_is(
        out,
        blocks([[f1, f2.scale(-1)]]),
        blocks([[f1, zeros(h.dim, b)], [s1, zeros(k1.dim, b)], [zeros(k2.dim, a), s2]]),
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_restrict_domain_keeps_the_pairs_over_d(data):
    src, dst, _ = data.draw(spaces_of_unequal_dims())
    t = data.draw(relation(src, dst))
    d = data.draw(subspace(src))
    tf, ts = halves(t)
    # {Tf a, Ts a} with Tf a = D e.
    assert_graph_is(
        restrict_domain(t, d),
        blocks([[tf, d.basis.scale(-1)]]),
        blocks([[tf, zeros(src.dim, d.dim)], [ts, zeros(dst.dim, d.dim)]]),
    )
