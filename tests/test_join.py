"""Relation constructors against their defining set conditions.

compose, rel_sum, stack_relations and restrict_domain each have a graph of
the form {x^T P : x^T C = 0}, where x runs over coefficients of the input
graph bases (and of the restricting subspace).  The library reads each
graph off one elimination of the Zassenhaus rows [C | P], assembled from
the stored graph rows (``linalg.zassenhaus``); here they are checked
directly in coefficients: every pair built from the inputs lies in the
output, and every output basis pair solves the defining system.  They are
also held equal to the formulas that built [C | P] from ``Mat`` blocks
(``reference_*``).  inverse, shift and subspace_sum span rows of their
inputs, so they are held to those rows with no elimination: each is a
member, read off the output's echelon basis, and the output has the
dimension they span.  Blocks have pairwise different dimensions and
weighted Gram matrices, so a block offset or a Gram mix-up cannot cancel
out.

The pointwise constructors (inverse, shift, scale, the regular and
singular parts, eigen, operator and product relations, companions) are
matrix expressions on the two halves of a graph basis; each is compared
here with its definition pair by pair, on relations with a nonzero
multivalued part.
"""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relcalc.extensions import selfadjoint_from_form
import relcalc.relations as relations
from relcalc.forms import (
    QuadraticForm,
    companion,
    form_of_relation,
    repmap_ldl,
    repmap_quotient,
    stack_relations,
)
from relcalc.harness import InstanceSpec, random_semibounded
from relcalc.linalg import Mat, block_diag, clear_memos, echelon_coords, hstack, identity, mat, rat, rref, solve, vstack, zeros
from relcalc.relations import (
    LinearRelation,
    adjoint,
    compose,
    echelon_relation,
    eigen_relation,
    eigenspace,
    graph_relation,
    hsum,
    inverse,
    lifts,
    parts,
    product_relation,
    regular_part,
    rel_sum,
    relation_from_pairs,
    restrict_domain,
    shift,
    singular_part,
)
from relcalc.spaces import (
    InnerProductSpace,
    Subspace,
    complement,
    gram_on,
    intersect,
    product_space,
    projections,
    span,
    span_mat,
    standard_space,
    subspace_sum,
)

from relation_builders import free_variable_kernel, operator_relation, scale
from vectors import graph_pairs, lift, rows

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
def subspace(draw, space):
    k = draw(st.integers(min_value=0, max_value=space.dim))
    return span(space, [[draw(rationals) for _ in range(space.dim)] for _ in range(k)])


@st.composite
def multivalued_relation(draw, src, dst, extra=()):
    """Random pairs, the pairs in ``extra`` and one pair {0, g} with g != 0."""
    pairs = [
        ([draw(rationals) for _ in range(src.dim)], [draw(rationals) for _ in range(dst.dim)])
        for _ in range(draw(st.integers(min_value=0, max_value=src.dim + dst.dim)))
    ]
    g = draw(st.lists(rationals, min_size=dst.dim, max_size=dst.dim).filter(any))
    return relation_from_pairs(src, dst, [*pairs, *extra, ([0] * src.dim, g)])


@st.composite
def spaces_of_unequal_dims(draw):
    return [draw(weighted_space(n)) for n in draw(st.permutations([1, 2, 3]))]


def rows_of(vectors, ncols: int) -> Mat:
    """The matrix whose rows are the vectors, also when there are none."""
    return mat(vectors) if vectors else zeros(0, ncols)


def halves(t: LinearRelation) -> tuple[Mat, Mat]:
    """The f and the g of each graph basis pair, as the rows of two
    matrices, so a defining system reads x^T P over coefficients x."""
    pairs = graph_pairs(t)
    return rows_of([f for f, _ in pairs], t.src.dim), rows_of([g for _, g in pairs], t.dst.dim)


def blocks(rows: list[list[Mat]]) -> Mat:
    return reduce(vstack, [reduce(hstack, row) for row in rows])


def assert_graph_is(out: LinearRelation, constraint: Mat, image: Mat) -> None:
    """graph(out) = {x^T image : x^T constraint = 0}."""
    null = free_variable_kernel(constraint.T)
    assert echelon_coords(out.graph.basis, null @ image) is not None
    system = hstack(constraint, image)
    assert solve(system.T, hstack(zeros(out.graph.dim, constraint.cols), out.graph.basis).T) is not None


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_compose_is_the_relational_product(data):
    h, k, l = data.draw(spaces_of_unequal_dims())
    t = data.draw(relation(h, k))
    r = data.draw(relation(k, l))
    tf, ts = halves(t)
    rf, rs = halves(r)
    # {a^T Tf, b^T Rs} with a^T Ts = b^T Rf.
    assert_graph_is(
        compose(r, t),
        blocks([[ts], [rf.scale(-1)]]),
        block_diag(tf, rs),
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rel_sum_is_the_componentwise_sum(data):
    h, k, _ = data.draw(spaces_of_unequal_dims())
    x = data.draw(relation(h, k))
    y = data.draw(relation(h, k))
    xf, xs = halves(x)
    yf, ys = halves(y)
    # {a^T Xf, a^T Xs + b^T Ys} with a^T Xf = b^T Yf.
    assert_graph_is(
        rel_sum(x, y),
        blocks([[xf], [yf.scale(-1)]]),
        blocks([[xf, xs], [zeros(yf.rows, h.dim), ys]]),
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_stack_relations_is_the_column_stack(data):
    h, k1, k2 = data.draw(spaces_of_unequal_dims())
    t1 = data.draw(relation(h, k1))
    t2 = data.draw(relation(h, k2))
    f1, s1 = halves(t1)
    f2, s2 = halves(t2)
    a, b = f1.rows, f2.rows
    out = stack_relations(t1, t2)
    assert out.dst.gram == blocks([[k1.gram, zeros(k1.dim, k2.dim)], [zeros(k2.dim, k1.dim), k2.gram]])
    # {a^T F1, a^T S1 (+) b^T S2} with a^T F1 = b^T F2.
    assert_graph_is(
        out,
        blocks([[f1], [f2.scale(-1)]]),
        blocks([[f1, s1, zeros(a, k2.dim)], [zeros(b, h.dim), zeros(b, k1.dim), s2]]),
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_restrict_domain_keeps_the_pairs_over_d(data):
    src, dst, _ = data.draw(spaces_of_unequal_dims())
    t = data.draw(relation(src, dst))
    d = data.draw(subspace(src))
    tf, ts = halves(t)
    # {a^T Tf, a^T Ts} with a^T Tf = e^T D.
    assert_graph_is(
        restrict_domain(t, d),
        blocks([[tf], [d.basis.scale(-1)]]),
        blocks([[tf, ts], [zeros(d.dim, src.dim + dst.dim)]]),
    )


def scaled(a, v):
    return [a * x for x in v]


def added(u, v):
    return [x + y for x, y in zip(u, v)]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_halves_and_graph_relation_are_inverse(data):
    src, dst, _ = data.draw(spaces_of_unequal_dims())
    t = data.draw(multivalued_relation(src, dst))
    firsts, seconds = halves(t)
    assert t.halves == (firsts, seconds)
    assert graph_relation(t.src, t.dst, *t.halves) == t


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_pointwise_constructors_match_their_pairwise_definitions(data):
    space = data.draw(weighted_space(data.draw(st.integers(min_value=1, max_value=3))))
    t = data.draw(multivalued_relation(space, space))
    c = data.draw(rationals)
    pairs = graph_pairs(t)
    assert parts(t).mul.dim > 0
    assert inverse(t) == relation_from_pairs(space, space, [(g, f) for f, g in pairs])
    assert shift(t, c) == relation_from_pairs(space, space, [(f, added(g, scaled(c, f))) for f, g in pairs])
    assert scale(t, c) == relation_from_pairs(space, space, [(f, scaled(c, g)) for f, g in pairs])
    mul = parts(t).mul
    projected = [(f, projections(mat([g]), mul).row(0)) for f, g in pairs]
    assert singular_part(t) == relation_from_pairs(space, space, projected)
    remainders = [(f, added(g, scaled(-1, p))) for (f, g), (_, p) in zip(pairs, projected)]
    assert regular_part(t) == relation_from_pairs(space, space, remainders)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_eigen_relation_is_the_graph_of_c_on_the_eigenspace(data):
    space = data.draw(weighted_space(data.draw(st.integers(min_value=1, max_value=3))))
    c = data.draw(rationals)
    h = data.draw(st.lists(rationals, min_size=space.dim, max_size=space.dim).filter(any))
    t = data.draw(multivalued_relation(space, space, extra=[(h, scaled(c, h))]))
    ev = eigenspace(t, c)
    assert ev.dim > 0
    assert eigen_relation(t, c) == relation_from_pairs(space, space, [(v, scaled(c, v)) for v in rows(ev.basis)])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_operator_and_product_relations_match_their_pairwise_definitions(data):
    src, dst, _ = data.draw(spaces_of_unequal_dims())
    a = mat([[data.draw(rationals) for _ in range(src.dim)] for _ in range(dst.dim)])
    d = data.draw(st.none() | subspace(src))
    basis = rows((span(src, [identity(src.dim).row(i) for i in range(src.dim)]) if d is None else d).basis)
    assert operator_relation(src, dst, a, d) == relation_from_pairs(src, dst, [(b, a.mul_vec(b)) for b in basis])
    x = data.draw(subspace(src))
    y = data.draw(subspace(dst))
    pairs = [(b, [0] * dst.dim) for b in rows(x.basis)] + [([0] * src.dim, b) for b in rows(y.basis)]
    assert product_relation(x, y) == relation_from_pairs(src, dst, pairs)


# The two representing maps of (S, c).
REPMAPS = {
    "ldl": lambda s, c: repmap_ldl(form_of_relation(s), c),
    "quotient": repmap_quotient,
}


@given(
    dim=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
    method=st.sampled_from(sorted(REPMAPS)),
)
@settings(max_examples=25, deadline=None)
def test_companion_is_q_phi_against_the_shifted_image(dim, seed, method):
    s, c = random_semibounded(InstanceSpec(dim=dim, seed=seed, mul_dim=1, restrict_dim=dim - 1))
    assume(parts(s).mul.dim > 0)
    q = REPMAPS[method](s, c)
    expected = [(lift(q.as_relation(), phi), added(phi_prime, scaled(-c, phi))) for phi, phi_prime in graph_pairs(s)]
    assert companion(s, q) == relation_from_pairs(q.codomain, s.src, expected)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_projections_project_each_row(data):
    space = data.draw(weighted_space(data.draw(st.integers(min_value=1, max_value=3))))
    w = data.draw(subspace(space))
    height = data.draw(st.integers(0, 3))
    xs = rows_of([[data.draw(rationals) for _ in range(space.dim)] for _ in range(height)], space.dim)
    out = projections(xs, w)
    assert (out.rows, out.cols) == (xs.rows, xs.cols)
    # Each row lands in w, and what it leaves is G-orthogonal to w.
    assert echelon_coords(w.basis, out) is not None
    assert ((xs - out) @ space.gram).mul_t(w.basis).is_zero()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_take_picks_the_listed_rows_and_columns(data):
    nrows, ncols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    m = rows_of([[data.draw(rationals) for _ in range(ncols)] for _ in range(nrows)], ncols)
    rows = data.draw(st.lists(st.integers(0, nrows - 1), max_size=5)) if nrows else []
    cols = data.draw(st.none() | (st.lists(st.integers(0, ncols - 1), max_size=5) if ncols else st.just([])))
    out = m.take(rows, cols)
    cols = range(ncols) if cols is None else cols
    assert (out.rows, out.cols) == (len(rows), len(cols))
    assert [out.row(k) for k in range(out.rows)] == [tuple(m[i, j] for j in cols) for i in rows]


# ------------------------------------------ echelon bases read, not re-eliminated
#
# ``parts`` reads dom and mul off a relation's reduced echelon graph basis,
# and ran and ker off its inverse's, on first reading; the constructors
# below put rows that are already in reduced echelon form straight into a
# ``Subspace``.  Each is held here to the eliminations that define it.


def image_where(space: InnerProductSpace, a: Mat, b: Mat) -> Subspace:
    """{x^T a : x^T b = 0}: the a-parts of the rows of RREF [b | a] that
    pivot at or beyond b's columns (Zassenhaus), from ``hstack``."""
    red, pivots = rref(hstack(b, a))
    kept = [i for i, p in enumerate(pivots) if p >= b.cols]
    return Subspace(space, red.take(kept, range(b.cols, red.cols)))


def reference_parts(t: LinearRelation) -> dict:
    """dom, ran, ker and mul by four eliminations of the graph halves:
    mul = {g : x^T F = 0, g = x^T G} and ker = {f : x^T G = 0, f = x^T F}."""
    firsts, seconds = t.halves
    return {
        "dom": span_mat(t.src, firsts),
        "ran": span_mat(t.dst, seconds),
        "ker": image_where(t.src, firsts, seconds),
        "mul": image_where(t.dst, seconds, firsts),
    }


def full_relation(src: InnerProductSpace, dst: InnerProductSpace) -> LinearRelation:
    return LinearRelation(src, dst, span_mat(product_space(src, dst), identity(src.dim + dst.dim)))


def parts_corpus(data) -> tuple[LinearRelation, ...]:
    """Relations with src != dst: multivalued, random, zero and full."""
    src, dst, _ = data.draw(spaces_of_unequal_dims())
    return (
        data.draw(multivalued_relation(src, dst)),
        data.draw(relation(src, dst)),
        relation_from_pairs(src, dst, []),
        full_relation(src, dst),
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_parts_equal_their_four_elimination_definition(data):
    for t in parts_corpus(data):
        p, expected = parts(t), reference_parts(t)
        for name in ("dom", "ran", "ker", "mul"):
            assert getattr(p, name) == expected[name]


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_parts_build_the_inverse_only_when_ran_or_ker_is_read(data):
    real_inverse = relations.inverse
    for t in parts_corpus(data):
        expected = reference_parts(t)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relations, "inverse", lambda r: calls.append(r) or real_inverse(r))
            clear_memos()
            p = parts(t)
            assert (p.dom, p.mul) == (expected["dom"], expected["mul"])
            assert calls == []
            assert p.ran == expected["ran"]
            assert p.ker == expected["ker"]
            assert calls == [t]


def reference_adjoint(t: LinearRelation) -> LinearRelation:
    """T* by Mat products: the canonical span of the free-variable kernel of
    the Green pairing [g G_K | -f G_H], built with ``@``, ``scale`` and
    ``hstack``."""
    firsts, seconds = t.halves
    pairing = hstack(seconds @ t.dst.gram, (firsts @ t.src.gram).scale(-1))
    return LinearRelation(t.dst, t.src, span_mat(product_space(t.dst, t.src), free_variable_kernel(pairing)))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_adjoint_is_the_null_space_of_the_pairing_product(data):
    for t in parts_corpus(data):
        star = relations.adjoint(t)
        assert star == reference_adjoint(t)
        # Stored form: the rows rebuilt through Fractions are the same Mat.
        basis = star.graph.basis
        assert basis == rows_of([basis.row(i) for i in range(basis.rows)], basis.cols)


def relation_where(src: InnerProductSpace, dst: InnerProductSpace, a: Mat, b: Mat) -> LinearRelation:
    return LinearRelation(src, dst, image_where(product_space(src, dst), a, b))


# The products as they were built from Mat blocks: ``halves``,
# ``block_diag``, ``scale(-1)``, ``vstack`` and ``hstack`` around one
# Zassenhaus elimination.


def reference_compose(r: LinearRelation, t: LinearRelation) -> LinearRelation:
    f_t, k_t = t.halves
    k_r, g_r = r.halves
    return relation_where(t.src, r.dst, block_diag(f_t, g_r), vstack(k_t, k_r.scale(-1)))


def reference_rel_sum(a: LinearRelation, b: LinearRelation) -> LinearRelation:
    f_a, g_a = a.halves
    f_b, g_b = b.halves
    firsts = vstack(f_a, zeros(f_b.rows, f_a.cols))
    return relation_where(a.src, a.dst, hstack(firsts, vstack(g_a, g_b)), vstack(f_a, f_b.scale(-1)))


def reference_restrict_domain(t: LinearRelation, d: Subspace) -> LinearRelation:
    basis = t.graph.basis
    return relation_where(t.src, t.dst, vstack(basis, zeros(d.dim, basis.cols)), vstack(t.halves[0], d.basis.scale(-1)))


def reference_stack_relations(t1: LinearRelation, t2: LinearRelation) -> LinearRelation:
    f_1, g_1 = t1.halves
    f_2, g_2 = t2.halves
    a = hstack(vstack(f_1, zeros(f_2.rows, f_1.cols)), block_diag(g_1, g_2))
    return relation_where(t1.src, product_space(t1.dst, t2.dst), a, vstack(f_1, f_2.scale(-1)))


def assert_spanned_by(out: Subspace, rows: Mat) -> None:
    """out is the span of ``rows``, which are independent: each row is a
    member, read off out's echelon basis with no elimination, and out has
    no more dimensions than there are rows."""
    assert echelon_coords(out.basis, rows) is not None
    assert out.dim == rows.rows


def assert_inverse(t: LinearRelation) -> None:
    """inverse(t) is spanned by the swapped graph pairs {g, f}."""
    swapped = [[*g, *f] for f, g in graph_pairs(t)]
    assert_spanned_by(inverse(t).graph, rows_of(swapped, t.src.dim + t.dst.dim))


def assert_shift(t: LinearRelation, c) -> None:
    """shift(t, c) is spanned by the shifted graph pairs {f, g + c f}."""
    shifted = [[*f, *added(g, scaled(c, f))] for f, g in graph_pairs(t)]
    assert_spanned_by(shift(t, c).graph, rows_of(shifted, 2 * t.src.dim))


def reference_eigenspace(t: LinearRelation, c) -> Subspace:
    firsts, seconds = t.halves
    return image_where(t.src, firsts, seconds - firsts.scale(rat(c)))


def reference_intersect(v: Subspace, w: Subspace) -> Subspace:
    a = vstack(v.basis, zeros(w.dim, v.space.dim))
    return image_where(v.space, a, vstack(v.basis, w.basis.scale(-1)))


def assert_subspace_sum(v: Subspace, w: Subspace) -> None:
    """subspace_sum(v, w) contains both bases and has dimension
    dim v + dim w - dim(v meet w), the meet by ``zassenhaus``."""
    total = subspace_sum(v, w)
    assert echelon_coords(total.basis, v.basis) is not None
    assert echelon_coords(total.basis, w.basis) is not None
    assert total.dim == v.dim + w.dim - intersect(v, w).dim


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_products_equal_their_mat_block_formulas(data):
    corpus = parts_corpus(data)
    c = data.draw(rationals)
    for t in corpus:
        for u in corpus:
            assert rel_sum(t, u) == reference_rel_sum(t, u)
            assert stack_relations(t, u) == reference_stack_relations(t, u)
            assert restrict_domain(t, parts(u).dom) == reference_restrict_domain(t, parts(u).dom)
            for v, w in ((parts(t).dom, parts(u).dom), (parts(t).ran, parts(u).mul)):
                assert intersect(v, w) == reference_intersect(v, w)
                assert_subspace_sum(v, w)
            r = adjoint(u)
            assert compose(r, t) == reference_compose(r, t)
            assert compose(t, r) == reference_compose(t, r)
        assert_inverse(t)
        # Square relations for the shift and the eigenspace, the second with
        # c as an eigenvalue: T^-1 T holds {f, f}, shifted pair by pair by c - 1.
        tt = compose(inverse(t), t)
        with_c = relation_from_pairs(tt.src, tt.dst, [(f, added(g, scaled(c - 1, f))) for f, g in graph_pairs(tt)])
        for square in (compose(adjoint(t), t), with_c):
            assert_shift(square, c)
            assert eigenspace(square, c) == reference_eigenspace(square, c)


def assert_same_value(a, b) -> None:
    """Equal values built by two routes hash alike, and neither keeps a
    hash beside its fields."""
    assert a == b and hash(a) == hash(b)
    assert not hasattr(a, "_hash") and not hasattr(b, "_hash")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_equal_values_built_by_different_routes_hash_alike(data):
    h, k, _ = data.draw(spaces_of_unequal_dims())
    hk = product_space(h, k)
    assert_same_value(hk, InnerProductSpace(h.dim + k.dim, block_diag(h.gram, k.gram)))

    x, y = data.draw(subspace(h)), data.draw(subspace(k))
    eliminated = span_mat(hk, block_diag(x.basis, y.basis))
    assert_same_value(product_relation(x, y).graph, eliminated)
    assert_same_value(product_relation(x, y), LinearRelation(h, k, eliminated))
    t = data.draw(multivalued_relation(h, k))
    assert_same_value(echelon_relation(h, k, t.graph.basis), graph_relation(h, k, *t.halves))

    domain = data.draw(subspace(h))
    b = mat([[data.draw(rationals) for _ in range(domain.dim)] for _ in range(domain.dim)]) if domain.dim else zeros(0, 0)
    form = QuadraticForm(h, domain, b + b.T)
    assert_same_value(form, form.restrict(domain))

    # A value hashes as the matrix that fixes it inside its space, so
    # values of different spaces may share a hash; == tells them apart.
    whole, plain = span_mat(h, identity(h.dim)), span_mat(standard_space(h.dim), identity(h.dim))
    assert hash(whole) == hash(plain) and whole != plain


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_echelon_constructors_equal_their_eliminated_definitions(data):
    src, dst, _ = data.draw(spaces_of_unequal_dims())
    x, y = data.draw(subspace(src)), data.draw(subspace(dst))
    assert product_relation(x, y) == LinearRelation(src, dst, span_mat(product_space(src, dst), block_diag(x.basis, y.basis)))
    t = data.draw(multivalued_relation(src, dst))
    firsts, seconds = t.halves
    assert regular_part(t) == graph_relation(src, dst, firsts, seconds - projections(seconds, parts(t).mul))

    space = data.draw(weighted_space(data.draw(st.integers(min_value=1, max_value=3))))
    c = data.draw(rationals)
    h = data.draw(st.lists(rationals, min_size=space.dim, max_size=space.dim).filter(any))
    e = data.draw(multivalued_relation(space, space, extra=[(h, scaled(c, h))]))
    ev = eigenspace(e, c).basis
    assert eigen_relation(e, c) == graph_relation(space, space, ev, ev.scale(c))
    # The leading dim dom E block of the pairing, from which ``form_of_relation``
    # and ``is_nonneg_above`` take the form matrix, on a non-symmetric E.
    dom = parts(e).dom
    assert e.pairing.take(range(dom.dim), range(dom.dim)) == (lifts(e, dom.basis) @ space.gram).mul_t(dom.basis)

    # selfadjoint_from_form against its three eliminations: the graph of
    # M G^-1 on the domain, the product {0} x domain-perp and their sum.
    domain = data.draw(subspace(space))
    b = mat([[data.draw(rationals) for _ in range(domain.dim)] for _ in range(domain.dim)]) if domain.dim else zeros(0, 0)
    matrix = b + b.T
    coeffs = solve(gram_on(domain), matrix)
    rel = graph_relation(space, space, domain.basis, coeffs.T @ domain.basis)
    mul_rel = LinearRelation(space, space, span_mat(product_space(space, space), block_diag(zeros(0, space.dim), complement(domain).basis)))
    assert selfadjoint_from_form(space, domain.basis, matrix) == hsum(rel, mul_rel)


@given(
    dim=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
    method=st.sampled_from(sorted(REPMAPS)),
)
@settings(max_examples=25, deadline=None)
def test_a_representing_map_relation_is_its_eliminated_graph(dim, seed, method):
    s, c = random_semibounded(InstanceSpec(dim=dim, seed=seed, mul_dim=1, restrict_dim=dim - 1))
    q = REPMAPS[method](s, c)
    assert q.as_relation() == graph_relation(q.domain.space, q.codomain, q.domain.basis, q.matrix)


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 0, 1]],  # leading entry not 1
        [[0, 1, 0], [1, 0, 0]],  # leading columns out of order
        [[1, 1, 0], [0, 1, 0]],  # a leading column not cleared above
        [[1, 0, 0], [0, 0, 0]],  # a zero row
    ],
)
def test_echelon_relation_rejects_rows_not_in_reduced_echelon_form(rows):
    q1, q2 = InnerProductSpace(1, identity(1)), InnerProductSpace(2, identity(2))
    with pytest.raises(ValueError, match="reduced echelon"):
        echelon_relation(q1, q2, mat(rows))
