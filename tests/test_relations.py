from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relcalc.relations as relations
from relcalc.errors import CrossCheckError, PreconditionError
from relcalc.forms import QuadraticForm, certify_lower_bound, form_of_relation, is_nonneg_above
from relcalc.harness import InstanceSpec, random_semibounded, sample_selfadjoint_extensions
from relcalc.linalg import Mat, PsdResult, clear_memos, hstack, identity, mat, solve, vec, vstack, zeros
from relcalc.relations import (
    LinearRelation,
    adjoint,
    closure,
    compose,
    echelon_relation,
    eigenspace,
    graph_relation,
    hsum,
    inverse,
    is_selfadjoint,
    is_symmetric,
    lifts,
    numerical_range_zero,
    parts,
    product_relation,
    regular_part,
    rel_sum,
    relation_from_pairs,
    restrict_domain,
    shift,
    singular_part,
)
from relcalc.serialize import relation_to_json
from relcalc.spaces import (
    InnerProductSpace,
    complement,
    product_space,
    projections,
    span,
    span_mat,
    standard_space,
    zero_subspace,
)

from relation_builders import e1, e2, full_subspace, identity_relation, operator_relation, scale, zero_relation
from vectors import inner

Q1 = standard_space(1)
Q2 = standard_space(2)
Q3 = standard_space(3)


def test_parts_zero_operator():
    z = operator_relation(Q2, Q2, mat([[0, 0], [0, 0]]))
    p = parts(z)
    assert p.dom == full_subspace(Q2)
    assert p.ran == zero_subspace(Q2)
    assert p.ker == full_subspace(Q2)
    assert p.mul == zero_subspace(Q2)


def test_parts_e1():
    p = parts(e1())
    assert p.dom == span(Q2, [vec([1, 1])])
    assert p.ran == span(Q2, [vec([1, 3])])
    assert p.ker == zero_subspace(Q2)
    assert p.mul == zero_subspace(Q2)


def test_parts_purely_multivalued():
    t = relation_from_pairs(Q2, Q2, [(vec([0, 0]), vec([1, 0]))])
    p = parts(t)
    assert p.dom == zero_subspace(Q2)
    assert p.mul == span(Q2, [vec([1, 0])])


def test_adjoint_zero_operator_selfadjoint():
    z = operator_relation(Q3, Q3, mat([[0] * 3] * 3))
    assert adjoint(z) == z
    assert is_selfadjoint(z)


def test_adjoint_e1():
    s = e1()
    st_ = adjoint(s)
    # One pairing condition: h1 + 3 h2 = k1 + k2, a 3-dimensional graph.
    assert st_.graph.dim == 3
    h, k = st_.halves
    assert h @ mat([[1], [3]]) == k @ mat([[1], [1]])


def test_adjoint_of_everything_is_zero():
    t = relation_from_pairs(Q1, Q1, [(vec([1]), vec([0])), (vec([0]), vec([1]))])
    st_ = adjoint(t)
    assert st_.graph.dim == 0


def test_inverse_identity():
    assert inverse(identity_relation(Q2)) == identity_relation(Q2)


def test_inverse_e1_swaps_components():
    s = e1()
    assert inverse(s) == relation_from_pairs(Q2, Q2, [(vec([1, 3]), vec([1, 1]))])


def test_shift_e1():
    s = e1()
    shifted = shift(s, -2)
    assert shifted == relation_from_pairs(Q2, Q2, [(vec([1, 1]), vec([-1, 1]))])
    assert shift(shifted, 2) == s


def test_scale():
    s = e1()
    assert scale(s, 2) == relation_from_pairs(Q2, Q2, [(vec([1, 1]), vec([2, 6]))])


def test_compose_with_identity():
    s = e1()
    assert compose(identity_relation(Q2), s) == s
    assert compose(s, identity_relation(Q2)) == s


def test_compose_multivalued_passthrough():
    t = relation_from_pairs(Q2, Q2, [(vec([0, 0]), vec([1, 0]))])
    r = operator_relation(Q2, Q2, mat([[1, 0], [0, 1]]))
    out = compose(r, t)
    p = parts(out)
    assert p.dom == zero_subspace(Q2)
    assert p.mul == span(Q2, [vec([1, 0])])


def test_regular_singular_split_operator():
    s = e1()
    assert regular_part(s) == s
    sing = singular_part(s)
    assert sing == relation_from_pairs(Q2, Q2, [(vec([1, 1]), vec([0, 0]))])


def test_regular_singular_split_singular_relation():
    t = relation_from_pairs(Q1, Q1, [(vec([1]), vec([1])), (vec([0]), vec([1]))])
    assert parts(t).mul == full_subspace(Q1)
    reg = regular_part(t)
    assert reg == relation_from_pairs(Q1, Q1, [(vec([1]), vec([0]))])
    assert singular_part(t) == t
    assert hsum(reg, singular_part(t)) == t


def test_regular_part_purely_multivalued():
    t = relation_from_pairs(Q2, Q2, [(vec([0, 0]), vec([1, 0]))])
    assert regular_part(t) == zero_relation(Q2, Q2)
    assert singular_part(t) == t


def test_predicates_e1():
    s = e1()
    assert is_symmetric(s)
    assert not is_selfadjoint(s)
    assert is_nonneg_above(s, 2).ok
    res = is_nonneg_above(s, 3)
    assert not res.ok
    phi, phi_prime = res.witness
    assert inner(Q2, phi_prime, phi) < 3 * inner(Q2, phi, phi)


def test_predicates_identity():
    one = identity_relation(Q2)
    assert is_symmetric(one) and is_selfadjoint(one)
    assert is_nonneg_above(one, 1).ok
    assert not is_nonneg_above(one, 2).ok


def test_predicates_purely_multivalued():
    m = span(Q2, [vec([1, 0])])
    t = relation_from_pairs(Q2, Q2, [(vec([0, 0]), vec([1, 0]))])
    assert is_symmetric(t)
    assert not is_selfadjoint(t)
    full = relation_from_pairs(Q2, Q2, [(vec([0, 0]), vec([1, 0])), (vec([0, 0]), vec([0, 1]))])
    assert is_selfadjoint(full)
    assert is_nonneg_above(t, 100).ok  # vacuous form


def test_nonneg_above_catches_mul_not_orthogonal_to_dom():
    t = relation_from_pairs(Q2, Q2, [(vec([1, 0]), vec([0, 0])), (vec([0, 0]), vec([1, 0]))])
    res = is_nonneg_above(t, 0)
    assert not res.ok
    phi, phi_prime = res.witness
    assert inner(Q2, phi_prime, phi) < 0


@pytest.mark.parametrize(
    "matrix, holds, fails, witness",
    [
        # Symmetric part the identity: >= 1, not >= 2.
        ([[1, 1], [-1, 1]], 1, 2, ((1, 0), (1, -1))),
        # Symmetric part [[0, 1], [1, 0]], indefinite: not >= 0.
        ([[0, 2], [0, 0]], None, 0, ((1, -1), (-2, 0))),
    ],
)
def test_nonneg_above_decides_a_nonsymmetric_operator_by_its_symmetric_part(matrix, holds, fails, witness):
    # An operator has mul = {0}, orthogonal to its domain, so the bound is
    # that of the symmetric part of its form matrix, which is not symmetric.
    a = operator_relation(Q2, Q2, mat(matrix))
    assert not is_symmetric(a)
    if holds is not None:
        assert is_nonneg_above(a, holds).ok
    res = is_nonneg_above(a, fails)
    assert not res.ok
    assert res.witness == tuple(vec(v) for v in witness)
    phi, phi_prime = res.witness
    assert inner(Q2, phi_prime, phi) < fails * inner(Q2, phi, phi)
    # The leading pairing block is not symmetric, so it is symmetrized: the
    # verdict, certificate or witness, is that of (P + P^T) / 2.
    dom = parts(a).dom
    block = a.pairing.take(range(dom.dim), range(dom.dim))
    assert not block.is_symmetric()
    symmetric_part = QuadraticForm(Q2, dom, (block + block.T).scale(Fraction(1, 2)))
    for c in (holds, fails):
        if c is not None:
            ref = certify_lower_bound(symmetric_part, c)
            expected = ref if ref.ok else PsdResult(None, (ref.witness, lifts(a, mat([ref.witness])).row(0)))
            assert is_nonneg_above(a, c) == expected


def test_numerical_range_zero():
    assert numerical_range_zero(e2())
    assert not numerical_range_zero(e1())
    assert numerical_range_zero(operator_relation(Q2, Q2, mat([[0, 0], [0, 0]])))


def test_eigenspace():
    d = operator_relation(Q2, Q2, mat([[1, 0], [0, 3]]))
    assert eigenspace(d, 1) == span(Q2, [vec([1, 0])])
    assert eigenspace(d, 3) == span(Q2, [vec([0, 1])])
    assert eigenspace(d, 2) == zero_subspace(Q2)


def test_restrict_domain():
    d = operator_relation(Q2, Q2, mat([[1, 0], [0, 3]]))
    r = restrict_domain(d, span(Q2, [vec([1, 1])]))
    assert r == relation_from_pairs(Q2, Q2, [(vec([1, 1]), vec([1, 3]))])


def test_product_relation():
    t = product_relation(span(Q2, [vec([1, 0])]), span(Q2, [vec([0, 1])]))
    p = parts(t)
    assert p.dom == span(Q2, [vec([1, 0])])
    assert p.mul == span(Q2, [vec([0, 1])])
    assert t.graph.dim == 2


def test_shift_requires_endorelation():
    t = zero_relation(Q1, Q2)
    with pytest.raises(PreconditionError):
        shift(t, 1)


rationals = st.builds(
    Fraction,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def random_relation(draw, src_dim=None, dst_dim=None):
    n = src_dim or draw(st.integers(min_value=1, max_value=3))
    m = dst_dim or draw(st.integers(min_value=1, max_value=3))
    bn = mat([[draw(rationals) for _ in range(n)] for _ in range(n)])
    bm = mat([[draw(rationals) for _ in range(m)] for _ in range(m)])
    eye_n = mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])
    eye_m = mat([[1 if i == j else 0 for j in range(m)] for i in range(m)])
    src = InnerProductSpace(n, (bn.T @ bn) + eye_n)
    dst = InnerProductSpace(m, (bm.T @ bm) + eye_m)
    k = draw(st.integers(min_value=0, max_value=n + m))
    graph_vecs = [[draw(rationals) for _ in range(n + m)] for _ in range(k)]
    return LinearRelation(src, dst, span(product_space(src, dst), graph_vecs))


@given(random_relation())
@settings(max_examples=30, deadline=None)
def test_adjoint_involution_and_duality(t):
    tt = adjoint(adjoint(t))
    assert tt == t
    assert adjoint(inverse(t)) == inverse(adjoint(t))
    p = parts(t)
    pstar = parts(adjoint(t))
    assert pstar.mul == complement(p.dom)
    assert pstar.ker == complement(p.ran)
    assert closure(t) == t


def test_closure_mismatch_is_a_cross_check_error(monkeypatch):
    monkeypatch.setattr(relations, "adjoint", lambda t: zero_relation(t.dst, t.src))
    with pytest.raises(CrossCheckError):
        closure(e1())


CLOSURE_FAILS = "T** differs from T: the closure is not the identity"


def test_closure_catches_a_pairing_with_the_wrong_sign(monkeypatch):
    # With the rows [g G_K | +f G_H] in place of [g G_K | -f G_H] the
    # adjoint is wrong, yet a second adjoint by the same pairing returns T,
    # so a recomputed T** would pass; the products against the true
    # pairing do not.  The patch negates the combination, not the shared
    # weighted halves, so s may be built before it.
    s, _ = random_semibounded(InstanceSpec(dim=4, seed=3, restrict_dim=2))
    true_star = adjoint(s)
    real = relations.pairing_null_space
    monkeypatch.setattr(relations, "pairing_null_space", lambda left, right: real(left, right.scale(-1)))
    clear_memos()
    assert adjoint(s) != true_star
    assert adjoint(adjoint(s)) == s
    with pytest.raises(CrossCheckError) as err:
        closure(s)
    assert str(err.value) == CLOSURE_FAILS


def test_closure_catches_an_adjoint_one_row_short(monkeypatch):
    # A subset of T* still pairs to zero with T, so only the count of
    # dim T + dim T* against dim H + dim K can fail here.
    s, _ = random_semibounded(InstanceSpec(dim=4, seed=3, restrict_dim=2))
    star = adjoint(s).graph.basis
    monkeypatch.setattr(relations, "adjoint", lambda t: echelon_relation(t.dst, t.src, star.take(range(star.rows - 1))))
    with pytest.raises(CrossCheckError) as err:
        closure(s)
    assert str(err.value) == CLOSURE_FAILS


def test_closure_after_the_adjoint_eliminates_nothing(monkeypatch):
    s, _ = random_semibounded(InstanceSpec(dim=4, seed=3, restrict_dim=2))
    adjoint(s)
    calls = []
    real = relations.pairing_null_space
    monkeypatch.setattr(relations, "pairing_null_space", lambda *args: calls.append(None) or real(*args))
    assert closure(s) is s
    assert calls == []


def _counted_products(monkeypatch):
    """Count the calls of ``Mat.__matmul__`` and ``Mat.mul_t`` from now on."""
    counts = {"__matmul__": 0, "mul_t": 0}
    for name in counts:
        real = getattr(Mat, name)
        monkeypatch.setattr(Mat, name, lambda a, b, real=real, name=name: counts.__setitem__(name, counts[name] + 1) or real(a, b))
    return counts


def _fresh_restriction():
    """A restriction from the harness as a new relation object, so nothing
    is cached on it, in an empty memo scope."""
    s, _ = random_semibounded(InstanceSpec(dim=5, seed=4, mul_dim=1, restrict_dim=3))
    clear_memos()
    return LinearRelation(s.src, s.dst, s.graph)


def test_the_adjoint_weights_the_halves_and_the_closure_reuses_them(monkeypatch):
    # The Green pairing products are shared: adjoint forms f G_H and g G_K,
    # two products; closure then pairs their joined rows [g G_K | -f G_H]
    # with T*'s graph rows, one more.
    t = _fresh_restriction()
    counts = _counted_products(monkeypatch)
    adjoint(t)
    assert counts["__matmul__"] == 2
    before = dict(counts)
    assert closure(t) is t
    assert counts == {"__matmul__": before["__matmul__"], "mul_t": before["mul_t"] + 1}


def test_the_form_matrix_after_is_symmetric_is_a_block_of_the_pairing(monkeypatch):
    s = _fresh_restriction()
    assert is_symmetric(s)
    counts = _counted_products(monkeypatch)
    t = form_of_relation(s)
    assert counts == {"__matmul__": 0, "mul_t": 0}
    # The same Mat as the product it replaced: (phi_i', phi_j) over dom S.
    monkeypatch.undo()
    assert t.matrix == (lifts(s, t.domain.basis) @ s.src.gram).mul_t(t.domain.basis)


def _symmetric_by_definition(t):
    return adjoint(t).is_extension_of(t)


def _selfadjoint_by_definition(t):
    return adjoint(t) == t


def _perturbed(t):
    """t with the second half of its first graph row moved by e1."""
    firsts, seconds = t.halves
    bump = mat([[1] + [0] * (t.dst.dim - 1)] + [[0] * t.dst.dim] * (seconds.rows - 1))
    return graph_relation(t.src, t.dst, firsts, seconds + bump)


def _predicate_cases():
    q = InnerProductSpace(3, mat([[2, 1, 0], [1, 3, 1], [0, 1, 4]]))
    yield "purely multivalued", relation_from_pairs(Q2, Q2, [(vec([0, 0]), vec([1, 0]))])
    yield "all of {0} x H", product_relation(zero_subspace(q), full_subspace(q))
    yield "the zero graph", zero_relation(q, q)
    yield "symmetric, not maximal", e1()
    yield "e1 perturbed", _perturbed(e1())
    for seed, (dim, mul, restrict) in enumerate([(3, 0, 1), (4, 1, 2), (4, 0, 3), (5, 1, 2)]):
        s, _ = random_semibounded(InstanceSpec(dim=dim, seed=seed, mul_dim=mul, restrict_dim=restrict))
        yield f"restriction {seed}", s
        yield f"its adjoint {seed}", adjoint(s)
        yield f"its adjoint perturbed {seed}", _perturbed(adjoint(s))
        for i, h in enumerate(sample_selfadjoint_extensions(s, 2, seed)):
            yield f"extension {seed}.{i}", h
            yield f"extension perturbed {seed}.{i}", _perturbed(h)


def test_predicates_equal_their_adjoint_definitions():
    seen = set()
    for name, t in _predicate_cases():
        sym, sa = is_symmetric(t), is_selfadjoint(t)
        assert (sym, sa) == (_symmetric_by_definition(t), _selfadjoint_by_definition(t)), name
        seen.add((sym, sa))
    # Every verdict occurs: not symmetric, symmetric only, selfadjoint.
    assert seen == {(False, False), (True, False), (True, True)}


@st.composite
def endorelations(draw):
    """A relation on a weighted Q^n, either spanned by random rows or made
    of combinations of the graph rows [I | X] of the selfadjoint operator
    with X G = M, M symmetric; then, each half the time, a row {0, m} added
    and one entry moved."""
    n = draw(st.integers(min_value=1, max_value=3))
    b = mat([[draw(rationals) for _ in range(n)] for _ in range(n)])
    space = InnerProductSpace(n, (b.T @ b) + identity(n))
    draw_rows = lambda k, cols: mat([[draw(rationals) for _ in range(cols)] for _ in range(k)]) if k else zeros(0, cols)
    k = draw(st.integers(min_value=0, max_value=n))
    if draw(st.booleans()):
        graph = draw_rows(k, 2 * n)
    else:
        m = draw_rows(n, n)
        combos = draw_rows(k, n)
        graph = hstack(combos, combos.mul_t(solve(space.gram, m + m.T)))
    if draw(st.booleans()):
        graph = vstack(graph, hstack(zeros(1, n), draw_rows(1, n)))
    if graph.rows and draw(st.booleans()):
        moved = graph.take([0]) + hstack(zeros(1, 2 * n - 1), draw_rows(1, 1))
        graph = vstack(moved, graph.take(range(1, graph.rows)))
    return LinearRelation(space, space, span_mat(product_space(space, space), graph))


@given(endorelations())
@settings(max_examples=60, deadline=None)
def test_predicates_equal_their_adjoint_definitions_on_random_graphs(t):
    assert is_symmetric(t) == _symmetric_by_definition(t)
    assert is_selfadjoint(t) == _selfadjoint_by_definition(t)


@given(endorelations(), st.sampled_from(["as drawn", "every row", "dom rows"]))
@settings(max_examples=80, deadline=None)
def test_numerical_range_zero_equals_dom_against_ran(t, moved):
    # W(T) = {0} reads the pairing (g_i, f_j) of the graph rows; the
    # definition pairs the bases of dom T and ran T.  Projecting the second
    # halves of every graph row onto (dom T)-perp makes W(T) = {0}; projecting
    # only those of the rows over dom T leaves the rows {0, m} of mul T.
    if moved != "as drawn":
        firsts, seconds = t.halves
        k = parts(t).dom.dim if moved == "dom rows" else seconds.rows
        head, kept = seconds.take(range(k)), seconds.take(range(k, seconds.rows))
        t = graph_relation(t.src, t.dst, firsts, vstack(projections(head, complement(parts(t).dom)), kept))
    p = parts(t)
    assert numerical_range_zero(t) == (p.dom.basis @ t.src.gram).mul_t(p.ran.basis).is_zero()
    assert numerical_range_zero(t) or moved != "every row"


@given(random_relation())
@settings(max_examples=20, deadline=None)
def test_predicates_require_an_endorelation(t):
    # Two drawn spaces are equal only by chance: then the predicates run.
    for predicate in (is_symmetric, is_selfadjoint):
        if t.src != t.dst:
            with pytest.raises(PreconditionError):
                predicate(t)
        else:
            predicate(t)


@given(random_relation())
@settings(max_examples=30, deadline=None)
def test_graph_dimension_identity(t):
    p = parts(t)
    assert t.graph.dim == p.dom.dim + p.mul.dim
    assert t.graph.dim == p.ran.dim + p.ker.dim


@given(random_relation())
@settings(max_examples=30, deadline=None)
def test_regular_singular_recombine(t):
    reg = regular_part(t)
    sing = singular_part(t)
    # Componentwise sum, not graph span: the graph span strictly grows
    # whenever the regular part is nonzero on some domain vector.
    assert rel_sum(reg, sing) == t
    assert parts(reg).mul.dim == 0
    p = parts(t)
    from relcalc.spaces import contains

    assert contains(p.mul, parts(sing).ran)
    assert hsum(reg, sing).is_extension_of(t)


@st.composite
def relation_on(draw, space):
    n = space.dim
    k = draw(st.integers(min_value=0, max_value=2 * n))
    vecs = [[draw(rationals) for _ in range(2 * n)] for _ in range(k)]
    return LinearRelation(space, space, span(product_space(space, space), vecs))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_compose_associative(data):
    a = data.draw(relation_on(Q2))
    b = data.draw(relation_on(Q2))
    c = data.draw(relation_on(Q2))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_kept_hash_and_halves_stay_outside_the_value():
    # A relation hashes as its graph basis, whose Mat keeps the hash, and
    # keeps its halves once read; neither may enter equality, repr or the
    # serialized form.
    def build():
        q = InnerProductSpace(2, mat([[2, 1], [1, 3]]))
        return relation_from_pairs(q, q, [(vec([1, 0]), vec([2, 1])), (vec([0, 0]), vec([1, 1]))])

    used, fresh = build(), build()
    firsts, seconds = used.halves
    assert used.halves is used.halves
    assert hash(used) == hash(used.graph.basis)
    assert set(vars(used)) == {"src", "dst", "graph", "halves"}
    # The value is its three fields: rebuilt from them it is the same value.
    assert LinearRelation(used.src, used.dst, used.graph) == used
    assert repr(used) == f"LinearRelation(src={used.src!r}, dst={used.dst!r}, graph={used.graph!r})"
    assert used == fresh and fresh == used
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert relation_to_json(used) == relation_to_json(fresh)
    assert (firsts, seconds) == fresh.halves
