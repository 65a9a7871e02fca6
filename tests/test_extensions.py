import ast
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

import relcalc.extensions as extensions
import relcalc.relations as relations
import relcalc.spaces as spaces
from relcalc.errors import BoundCertificationError, CrossCheckError, PreconditionError
from relcalc.extensions import (
    extension_interval_check,
    extremal_check,
    extremal_from_domain,
    friedrichs,
    krein,
    krein_equals_friedrichs,
    krein_is_operator,
    order_leq,
    relations_of_form,
    selfadjoint_from_form,
    weak_friedrichs,
    weak_krein,
)
from relcalc.forms import (
    companion,
    form_of_relation,
    is_nonneg_above,
    repmap_ldl,
    repmap_quotient,
    scalar_repmap,
    stack_relations,
)
from relcalc.harness import (
    InstanceSpec,
    engineered_nonextremal_extensions,
    random_semibounded,
    sample_extremal,
    sample_selfadjoint_extensions,
    suite_specs,
    verify_all,
)
from relcalc.linalg import PsdResult, clear_memos, echelon_coords, identity, ldl_psd_certificate, mat, rref, vec
from relcalc.relations import (
    LinearRelation,
    adjoint,
    closure,
    compose,
    graph_relation,
    hsum,
    inverse,
    is_selfadjoint,
    parts,
    product_relation,
    regular_part,
    relation_from_pairs,
    restrict_domain,
    shift,
)
from relcalc.spaces import (
    complement,
    contains,
    span,
    standard_space,
    subspace_sum,
    zero_subspace,
)

from relation_builders import e1, e2, full_subspace, operator_relation, scale
from vectors import form_value, graph_pairs, inner, rows

Q1 = standard_space(1)
Q2 = standard_space(2)
Q3 = standard_space(3)
Q4 = standard_space(4)


def dim4_fixture():
    """diag(1,2,3,4) restricted to a two-dimensional domain."""
    d = operator_relation(Q4, Q4, mat([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]]))
    return restrict_domain(d, span(Q4, [vec([1, 1, 1, 1]), vec([1, -1, 1, -1])]))


def a_family(b):
    """All symmetric operator extensions of E1: A_b (1,1) = (1,3)."""
    b = Fraction(b)
    return operator_relation(Q2, Q2, mat([[1 - b, b], [b, 3 - b]]))


def test_friedrichs_of_selfadjoint_is_itself():
    d = operator_relation(Q2, Q2, mat([[1, 0], [0, 3]]))
    assert friedrichs(d, 1) == d
    assert friedrichs(d, 0) == d


def test_friedrichs_e1():
    s = e1()
    f = friedrichs(s, 0)
    # Operator part is multiplication by 2 on span{(1,1)}, mul is span{(1,-1)}.
    p = parts(f)
    assert p.dom == span(Q2, [vec([1, 1])])
    assert p.mul == span(Q2, [vec([1, -1])])
    assert f.is_extension_of(s)
    for phi, phi_prime in graph_pairs(f):
        assert phi_prime[0] + phi_prime[1] == 4 * phi[0]


def test_friedrichs_is_base_point_independent():
    s = e1()
    assert friedrichs(s, 0) == friedrichs(s, 2) == friedrichs(s, -5)


def test_friedrichs_e2_orthogonal():
    s = e2()
    f = friedrichs(s, 0)
    assert f == product_relation(span(Q3, [vec([1, 0, 0])]), span(Q3, [vec([0, 1, 0]), vec([0, 0, 1])]))


def test_the_friedrichs_routes_share_one_basis():
    # Each route's memo holds its own LinearRelation, but the three graphs
    # are one subspace, so Subspace interns them to one live basis.
    s, c = random_semibounded(InstanceSpec(dim=4, seed=3, mul_dim=1, restrict_dim=2))
    clear_memos()
    out = friedrichs(s, c)
    qrel = repmap_ldl(form_of_relation(s), c).as_relation()
    via_repmap = shift(compose(adjoint(qrel), closure(qrel)), c)
    via_adjoint = restrict_domain(adjoint(s), parts(s).dom)
    via_weak = hsum(s, product_relation(zero_subspace(s.src), parts(adjoint(s)).mul))
    assert via_repmap == via_adjoint == via_weak == out
    assert via_repmap.graph.basis is via_adjoint.graph.basis is via_weak.graph.basis is out.graph.basis


def test_friedrichs_bound_failure():
    with pytest.raises(BoundCertificationError):
        friedrichs(e1(), 3)


# Every construction at (S, c), called with S as its base relation.
GATED = {
    "friedrichs": friedrichs,
    "weak_friedrichs": weak_friedrichs,
    "krein": krein,
    "weak_krein": weak_krein,
    "extremal_check": lambda s, c: extremal_check(s, s, c),
    "extremal_from_domain": lambda s, c: extremal_from_domain(s, c, parts(s).dom),
    "krein_is_operator": krein_is_operator,
    "krein_equals_friedrichs": krein_equals_friedrichs,
}


@pytest.mark.parametrize("name", sorted(GATED))
def test_every_construction_is_gated_by_the_ldl_representing_map(name):
    s, _ = random_semibounded(InstanceSpec(dim=4, seed=1, mul_dim=1, restrict_dim=2))
    with pytest.raises(BoundCertificationError, match="not bounded below by 1000$") as info:
        GATED[name](s, Fraction(1000))
    v = info.value.witness
    assert form_value(form_of_relation(s), v, v) < 1000 * inner(s.src, v, v)

    nonsym = relation_from_pairs(Q2, Q2, [(vec([1, 0]), vec([0, 1])), (vec([0, 1]), vec([0, 0]))])
    with pytest.raises(PreconditionError, match="requires a symmetric relation"):
        GATED[name](nonsym, Fraction(0))


def test_krein_e1_is_rank_one_operator():
    s = e1()
    k = krein(s, 0)
    expected = operator_relation(
        Q2, Q2, mat([[Fraction(1, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(9, 4)]])
    )
    assert k == expected
    assert parts(k).ker == span(Q2, [vec([3, -1])])


def test_krein_e2_orthogonal():
    s = e2()
    k = krein(s, 0)
    assert k == product_relation(span(Q3, [vec([1, 0, 0]), vec([0, 0, 1])]), span(Q3, [vec([0, 1, 0])]))


def test_krein_of_selfadjoint_at_certified_bound():
    d = operator_relation(Q2, Q2, mat([[1, 0], [0, 3]]))
    assert krein(d, 1) == d


def test_krein_lower_bound_is_exactly_c_below_gamma():
    s = e1()
    from relcalc.forms import certify_lower_bound

    k = krein(s, 0)
    tk = form_of_relation(k)
    assert certify_lower_bound(tk, 0).ok
    assert not certify_lower_bound(tk, Fraction(1, 1000)).ok


def test_weak_variants_coincide():
    s = e1()
    assert weak_friedrichs(s, 0) == friedrichs(s, 0)
    assert weak_krein(s, 0) == krein(s, 0)
    assert weak_krein(s, 2) == krein(s, 2)


def test_methods_agree():
    # The map-dependent routes of friedrichs and krein, rebuilt from quotient
    # maps as the check repmap-independence-extensions does, give the
    # extensions built from the LDL^T map.
    s = e1()
    for c in (0, 1, 2):
        q = repmap_quotient(s, c).as_relation()
        assert shift(compose(adjoint(q), closure(q)), c) == friedrichs(s, c)
        j = companion(s, repmap_quotient(s, c))
        reg = regular_part(adjoint(j))
        qinv = repmap_quotient(inverse(shift(s, -c)), 0).as_relation()
        k = krein(s, c)
        assert shift(compose(closure(j), adjoint(j)), c) == k
        assert shift(compose(adjoint(reg), closure(reg)), c) == k
        assert shift(inverse(compose(adjoint(qinv), closure(qinv))), c) == k


def test_order_reflexive_and_sandwich():
    s = e1()
    h = a_family(0)  # diag(1, 3)
    assert order_leq(h, h).leq
    assert order_leq(krein(s, 0), h).leq
    assert order_leq(h, friedrichs(s, 0)).leq


def test_order_incomparable():
    a = operator_relation(Q2, Q2, mat([[1, 0], [0, 3]]))
    b = operator_relation(Q2, Q2, mat([[3, 0], [0, 1]]))
    assert not order_leq(a, b).leq
    assert not order_leq(b, a).leq
    assert order_leq(a, b).witness is not None


def test_order_witness_is_exact():
    s = e1()
    h = a_family(1)
    res = order_leq(krein(s, 0), h)
    assert not res.leq
    phi = res.witness
    tk = form_of_relation(krein(s, 0))
    th = form_of_relation(h)
    assert form_value(tk, phi, phi) > form_value(th, phi, phi)


def test_order_witness_of_a_missing_domain_is_the_first_basis_vector_outside():
    # H = 1 on span{e1} with mul H = span{e2}, K = the identity: dom t_K = Q2
    # is not inside dom t_H = span{e1}, and of the basis e1, e2 of dom t_K
    # the first one outside is e2.
    h = graph_relation(Q2, Q2, mat([[1, 0], [0, 0]]), mat([[1, 0], [0, 1]]))
    k = operator_relation(Q2, Q2, mat([[1, 0], [0, 1]]))
    assert parts(h).dom == span(Q2, [vec([1, 0])])
    assert order_leq(h, k) == (False, vec([0, 1]))
    assert order_leq(k, h).leq


def test_extension_interval_e1_family():
    s = e1()
    for b, expected in ((0, True), (Fraction(3, 4), True), (1, False)):
        h = a_family(b)
        assert h.is_extension_of(s)
        assert extension_interval_check(s, 0, h)
        assert is_nonneg_above(h, 0).ok == expected


def test_extension_interval_rejects_non_extension():
    with pytest.raises(PreconditionError):
        extension_interval_check(e1(), 0, operator_relation(Q2, Q2, mat([[5, 0], [0, 5]])))


def test_krein_equals_a_family_at_three_quarters():
    assert krein(e1(), 0) == a_family(Fraction(3, 4))


def test_extremal_endpoints():
    s = e1()
    assert extremal_check(friedrichs(s, 0), s, 0)
    assert extremal_check(krein(s, 0), s, 0)


def test_extremal_rejects_diag13():
    # The infimum at f = (1, -1) is 3, attained at h = -(1,1)/2: not extremal.
    s = e1()
    assert not extremal_check(a_family(0), s, 0)


def test_extremal_from_domain_endpoints():
    s = e1()
    dom_s = parts(s).dom
    q = repmap_ldl(form_of_relation(s), 0)
    j = companion(s, q)
    dom_jstar = parts(adjoint(j)).dom
    assert extremal_from_domain(s, 0, dom_s) == friedrichs(s, 0)
    assert extremal_from_domain(s, 0, dom_jstar) == krein(s, 0)


def test_extremal_from_domain_dim4_third_extension():
    s = dim4_fixture()
    dom_s = parts(s).dom
    q = repmap_ldl(form_of_relation(s), 0)
    j = companion(s, q)
    dom_jstar = parts(adjoint(j)).dom
    assert dom_jstar.dim - dom_s.dim >= 2
    candidates = {friedrichs(s, 0), krein(s, 0)}
    found = None
    for b in rows(dom_jstar.basis):
        d = subspace_sum(dom_s, span(Q4, [b]))
        if d.dim == dom_s.dim + 1:
            h = extremal_from_domain(s, 0, d)
            if h not in candidates:
                found = h
                break
    assert found is not None
    assert extremal_check(found, s, 0)
    assert order_leq(krein(s, 0), found).leq
    assert order_leq(found, friedrichs(s, 0)).leq


def test_extremal_from_domain_rejects_bad_domain():
    s = e1()
    with pytest.raises(PreconditionError):
        extremal_from_domain(s, 0, zero_subspace(Q2))


def test_krein_is_operator_e1():
    assert krein_is_operator(e1(), 0)


def test_krein_is_operator_e2_false():
    # ran S = span e2 meets mul S* = span{e2, e3} nontrivially.
    assert not krein_is_operator(e2(), 0)


def test_krein_is_operator_densely_defined():
    d = operator_relation(Q2, Q2, mat([[1, 0], [0, 3]]))
    assert krein_is_operator(d, 0)


def test_krein_equals_friedrichs_e1_true_at_two():
    # At the attained bound 2 the only selfadjoint extension of E1 bounded
    # below by 2 is the Friedrichs extension itself (no operator extension
    # A_b satisfies A_b >= 2), so the Krein type extension at 2 equals it.
    assert krein_equals_friedrichs(e1(), 2) is True
    assert krein(e1(), 2) == friedrichs(e1(), 2)


def test_krein_equals_friedrichs_selfadjoint_true():
    d = operator_relation(Q2, Q2, mat([[1, 0], [0, 3]]))
    assert krein_equals_friedrichs(d, 1) is True


def test_krein_equals_friedrichs_undecided_below_bound():
    assert krein_equals_friedrichs(e1(), 1) is None


def test_krein_equals_friedrichs_e2():
    # S_F = span{e1} x span{e2,e3} differs from S_K = span{e1,e3} x span{e2}.
    assert krein_equals_friedrichs(e2(), 0) is False


def test_relations_of_form_zero_map():
    z = operator_relation(Q2, Q2, mat([[0, 0], [0, 0]]))
    s_t = relations_of_form(z, 0)
    assert s_t == z
    s_t2 = relations_of_form(z, 5)
    assert s_t2 == operator_relation(Q2, Q2, mat([[5, 0], [0, 5]]))


def test_relations_of_form_singular_relation():
    q = relation_from_pairs(Q1, Q1, [(vec([1]), vec([1])), (vec([0]), vec([1]))])
    s_t = relations_of_form(q, 0)
    # Q* = {(0, 0)} and Q*Q = ker Q x (dom Q)-perp, here the zero operator
    # on the full line since the graph of Q is everything.
    assert adjoint(q).graph.dim == 0
    assert s_t == operator_relation(Q1, Q1, mat([[0]]))


# The message of each singular-formula raise of relations_of_form -> (the
# name patched in extensions, the patch given the real function).  Each
# patch is wrong about the one relation that formula reads.
SINGULAR_FAULTS = {
    "singular product formula Q*Q = ker Q x (dom Q)-perp failed": (
        "parts",
        lambda real: lambda t: SimpleNamespace(dom=real(t).dom, mul=real(t).mul, ker=zero_subspace(t.src)),
    ),
    "regular-part product formula failed": ("regular_part", lambda real: lambda t: shift(real(t), 1)),
}


@pytest.mark.parametrize("message", sorted(SINGULAR_FAULTS))
def test_a_broken_singular_formula_raises(message, monkeypatch):
    # The singular q of test_relations_of_form_singular_relation, ran Q =
    # mul Q = the line: both formulas hold until a patch is wrong about ker Q
    # or about Q_reg, the zero operator moved to the identity.
    q = relation_from_pairs(Q1, Q1, [(vec([1]), vec([1])), (vec([0]), vec([1]))])
    clear_memos()
    relations_of_form(q, 0)
    name, patch = SINGULAR_FAULTS[message]
    monkeypatch.setattr(extensions, name, patch(getattr(extensions, name)))
    clear_memos()
    with pytest.raises(CrossCheckError) as err:
        relations_of_form(q, 0)
    assert str(err.value) == message


def test_relations_of_form_stacked_map_identity():
    # Q_c = stack(q_c, Q) with c < 0 satisfies Q_c* Q_c = Q*Q - c.
    q = relation_from_pairs(Q1, Q1, [(vec([1]), vec([1])), (vec([0]), vec([1]))])
    dom = full_subspace(Q1)
    for c in (Fraction(-1), Fraction(-3, 2)):
        qc_map = scalar_repmap(dom, c)
        stacked = stack_relations(qc_map.as_relation(), q)
        lhs = compose(adjoint(stacked), stacked)
        rhs = shift(compose(adjoint(q), q), -c)
        assert lhs == rhs


def test_selfadjoint_from_form_roundtrip():
    dom = span(Q3, [vec([1, 0, 0]), vec([0, 1, 1])])
    m = mat([[2, 1], [1, 5]])
    h = selfadjoint_from_form(Q3, dom.basis, m)
    assert parts(h).dom == dom
    assert parts(h).mul == complement(dom)
    assert form_of_relation(h).restrict(dom).matrix == m


def test_selfadjoint_from_form_mismatch_is_a_cross_check_error(monkeypatch):
    monkeypatch.setattr(extensions, "is_selfadjoint", lambda h: False)
    with pytest.raises(CrossCheckError):
        selfadjoint_from_form(Q3, mat([[1, 0, 0]]), mat([[2]]))


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 0], [1, 2, 0]],  # one row repeated
        [[1, 2, 0], [0, 1, 1], [1, 3, 1]],  # the third row the sum of the others
        [[0, 0, 0]],  # a zero row
    ],
)
def test_selfadjoint_from_form_rejects_basis_rows_that_are_dependent(rows):
    # B G B^T is singular, so [B G B^T | B] does not reduce to [I | C].
    with pytest.raises(CrossCheckError, match="the Gram matrix of a basis is singular"):
        selfadjoint_from_form(Q3, mat(rows), identity(len(rows)))


def test_purely_multivalued_relation_degenerate_path():
    # dom S = {0}: the form is empty, representing maps have 0-dim domain,
    # companions are {0} x ran S, and the extension formulas still apply.
    s = relation_from_pairs(Q2, Q2, [(vec([0, 0]), vec([1, 0]))])
    t = form_of_relation(s)
    assert t.domain.dim == 0 and t.matrix.rows == 0
    q = repmap_ldl(t, 5)  # any base point certifies the empty form
    assert q.domain.dim == 0
    j = companion(s, q)
    assert parts(j).mul == span(Q2, [vec([1, 0])])
    assert parts(j).dom.dim == 0

    f = friedrichs(s, 5)
    assert f == product_relation(zero_subspace(Q2), full_subspace(Q2))
    k = krein(s, 0)
    assert k.is_extension_of(s)
    assert parts(k).dom == span(Q2, [vec([0, 1])])
    assert parts(k).mul == span(Q2, [vec([1, 0])])
    assert extremal_check(f, s, 0) and extremal_check(k, s, 0)


def test_disagreeing_extremality_routes_are_a_cross_check_error(monkeypatch):
    # The definitional infimum and the form sandwich are independent; a
    # negated sandwich must be caught, in extremal_check and in the harness.
    s = e1()
    clear_memos()
    f = friedrichs(s, 0)
    assert extremal_check(f, s, 0)
    real = extensions._sandwich_extremal
    with monkeypatch.context() as m:
        m.setattr(extensions, "_sandwich_extremal", lambda h, s, c: not real(h, s, c))
        # Inside one scope the memoized answer replays; a new scope runs
        # both routes again.
        assert extremal_check(f, s, 0)
        clear_memos()
        message = "extremality characterizations disagree: definitional-infimum | form-sandwich"
        with pytest.raises(CrossCheckError) as err:
            extremal_check(friedrichs(s, 0), s, 0)
        assert str(err.value) == message
        endpoints = next(r for r in verify_all(e1(), 0) if r.name == "extremal-endpoints")
        assert not endpoints.passed
        assert endpoints.witness == f"CrossCheckError: {message}"
    clear_memos()
    assert extremal_check(friedrichs(s, 0), s, 0)


def test_agree_returns_the_common_value_or_groups_the_routes_by_value():
    assert extensions.agree("values", ("a", "b"), 1, 1) == 1
    with pytest.raises(CrossCheckError) as err:
        extensions.agree("values", ("a", "b", "c", "d"), 1, 2, 1, 3)
    assert str(err.value) == "values disagree: a, c | b | d"
    # Subspaces: a basis row of group 1 that group 2 lacks, or else the
    # reverse; in both cases here the first basis row is shared.
    e12, e13 = span(Q3, [vec([1, 0, 0]), vec([0, 1, 0])]), span(Q3, [vec([1, 0, 0]), vec([0, 0, 1])])
    with pytest.raises(CrossCheckError) as err:
        extensions.agree("spaces", ("a", "b"), e12, e13)
    assert str(err.value) == 'spaces disagree: a | b; row in group 1, not in group 2: ["0", "1", "0"]'
    with pytest.raises(CrossCheckError) as err:
        extensions.agree("spaces", ("a", "b"), span(Q3, [vec([1, 0, 0])]), e12)
    assert str(err.value) == 'spaces disagree: a | b; row in group 2, not in group 1: ["0", "1", "0"]'
    # A route without a name fails at once, whatever the values.
    with pytest.raises(ValueError):
        extensions.agree("values", ("a",), 1, 1)


def _doubled(real, when=lambda *args: True):
    """``real`` with the second components of its value doubled on the calls
    ``when`` accepts."""
    return lambda *args: scale(real(*args), 2) if when(*args) else real(*args)


def _first_call(real, patched):
    """``real`` with ``patched`` in place of its first call."""
    calls = []

    def once(*args):
        calls.append(args)
        return (patched if len(calls) == 1 else real)(*args)

    return once


def _j(s, c):
    return companion(s, repmap_ldl(form_of_relation(s), c))


# route -> (the comparison that runs it, the name patched in extensions, the
# patch given the real function).  Each patch moves that route alone, by a
# function no other route of the comparison calls unless a comment says how.
ROUTE_FAULTS = {
    "repmap-product": (lambda: friedrichs(e1(), 0), "closure", _doubled),
    "adjoint-domain-membership": (lambda: friedrichs(e1(), 0), "restrict_domain", _doubled),
    "multivalued-graph-sum": (lambda: friedrichs(e1(), 0), "hsum", _doubled),
    # closure serves routes (1) and (2): moved at its argument J_c only.
    "companion-product": (lambda: krein(e1(), 0), "closure", lambda real: _doubled(real, lambda t: t == _j(e1(), 0))),
    "operator-part-product": (lambda: krein(e1(), 0), "regular_part", _doubled),
    # Route (4) calls hsum too, inside friedrichs_from(inv, 0, ldl_map):
    # route (3) makes the first call.
    "eigenspace-graph-sum": (lambda: krein(e1(), 0), "hsum", lambda real: _first_call(real, _doubled(real))),
    "inverse-duality": (lambda: krein(e1(), 0), "friedrichs_from", _doubled),
    "definitional-infimum": (
        lambda: extremal_check(friedrichs(e1(), 0), e1(), 0),
        "_definitional_extremal",
        lambda real: lambda h, s, c: not real(h, s, c),
    ),
    "form-sandwich": (
        lambda: extremal_check(friedrichs(e1(), 0), e1(), 0),
        "_sandwich_extremal",
        lambda real: lambda h, s, c: not real(h, s, c),
    ),
    "range-mul-meet": (lambda: krein_is_operator(e1(), 0), "intersect", lambda real: lambda a, b: a),
    "krein-mul": (lambda: krein_is_operator(e1(), 0), "krein", lambda real: friedrichs),
    # intersect serves route (3) too: route (1)'s ker(S* - c) cap dom J_gamma*
    # is the first call, moved to ker(S* - c).  (parts at J_gamma* would move
    # krein's route (2) as well: J_gamma* maps into {0}, so it is its own
    # regular part, a singular map whose every part relations_of_form reads.)
    "square-root-domain": (lambda: krein_equals_friedrichs(e1(), 2), "intersect", lambda real: _first_call(real, lambda a, b: a)),
    "graph-comparison": (lambda: krein_equals_friedrichs(e1(), 2), "krein", _doubled),
    "sup-finiteness": (
        lambda: krein_equals_friedrichs(e1(), 2),
        "inequality_domain_subspace",
        lambda real: lambda s, c: full_subspace(s.src),
    ),
}


def _agreed_route_names(tree) -> set[str]:
    """The route names a module's AST passes to ``agree``: the literal keys
    of its route tables ``*_ROUTES``, the values of its ``ROUTES`` but the
    ``equals-*`` names, where a value is a literal tuple or ``tuple`` of a
    table above it, and the literal name tuples at the other call sites,
    written there or bound to a name in the same function.  Any other
    spelling of the names fails."""
    names, tables = set(), set()
    for node in tree.body:
        target = ast.unparse(node.targets[0]) if isinstance(node, ast.Assign) else None
        if target is not None and target.endswith("_ROUTES"):
            names |= {ast.literal_eval(key) for key in node.value.keys}
            tables.add(f"tuple({target})")
        elif target == "ROUTES":
            for routes in node.value.values:
                if ast.unparse(routes) not in tables:
                    names |= {n for n in ast.literal_eval(routes) if not n.startswith("equals-")}
    for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        bound = {t.id: node.value for node in ast.walk(fn) if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "agree"):
                continue
            arg = call.args[1]
            if isinstance(arg, ast.Subscript) and ast.unparse(arg.value) == "ROUTES":
                continue
            names |= set(ast.literal_eval(bound[arg.id] if isinstance(arg, ast.Name) else arg))
    return names


def test_every_agreed_route_has_a_fault():
    # A route that no fault moves alone could share its computation with
    # another one; each name extensions passes to agree has one.
    with open(extensions.__file__, encoding="utf-8") as fh:
        assert set(ROUTE_FAULTS) == _agreed_route_names(ast.parse(fh.read()))
    spellings = ast.parse(
        'T_ROUTES = {"g": lambda s: s, "h": lambda s: s}\n'
        'ROUTES = {"k": ("a", "b"), "weak-k": ("a", "equals-k"), "t": tuple(T_ROUTES)}\n'
        "def table(s):\n    return agree('x', ROUTES['k'], s, s)\n"
        "def literal(s):\n    return agree('y', ('c', 'd'), s, s)\n"
        "def bound(s):\n    names = ('e', 'f')\n    return agree('z', names, s, s)\n"
    )
    assert _agreed_route_names(spellings) == set("abcdefgh")
    others = (
        'T_ROUTES = dict(g=lambda s: s)\n',
        'T_ROUTES = {NAME: lambda s: s}\n',
        'ROUTES = {"t": tuple(T_ROUTES)}\n',
        'T_ROUTES = {"g": lambda s: s}\nROUTES = {"t": list(T_ROUTES)}\n',
        "def call(s):\n    return agree('w', names(), s, s)\n",
        "names = ('e', 'f')\ndef outside(s):\n    return agree('z', names, s, s)\n",
    )
    for other in others:
        with pytest.raises((AttributeError, KeyError, ValueError)):
            _agreed_route_names(ast.parse(other))


WITNESS_ROW = "; row in group "


def _assert_row_separates(message, values):
    """The witness row after the route groups of an ``agree`` message lies
    in the graph of the group it names and not in that of the other one;
    ``values`` maps each route name to its value.  Returns the groups."""
    groups_text, _, tail = message.split(" disagree: ")[1].partition(WITNESS_ROW)
    groups = [g.split(", ") for g in groups_text.split(" | ")]
    if not isinstance(values[groups[0][0]], LinearRelation):
        assert tail == ""
        return groups
    i, row = int(tail[0]), mat([json.loads(tail.split(": ", 1)[1])])
    inside, outside = values[groups[i - 1][0]], values[groups[2 - i][0]]
    assert echelon_coords(inside.graph.basis, row) is not None
    assert echelon_coords(outside.graph.basis, row) is None
    return groups


@pytest.mark.parametrize("route", sorted(ROUTE_FAULTS))
def test_a_moved_route_is_named_alone(route, monkeypatch):
    # e1 at 0 (at its attained bound 2 for krein_equals_friedrichs, where
    # S_K,2 = S_F): every route of each comparison agrees until one moves.
    # A failing comparison of relations also gives a row that separates.
    run, name, patch = ROUTE_FAULTS[route]
    clear_memos()
    run()
    monkeypatch.setattr(extensions, name, patch(getattr(extensions, name)))
    compared = []
    real_agree = extensions.agree
    monkeypatch.setattr(extensions, "agree", lambda what, names, *values: compared.append(dict(zip(names, values))) or real_agree(what, names, *values))
    clear_memos()
    with pytest.raises(CrossCheckError) as err:
        run()
    groups = _assert_row_separates(str(err.value), compared[-1])
    assert len(groups) == 2 and [route] in groups


def test_a_failing_agree_gives_a_row_of_one_group_only(monkeypatch):
    # krein's inverse-duality route with ((S-c)^{-1})_F shifted by 1: the
    # row printed after the groups is in one group's graph, not the other's.
    s, c = random_semibounded(InstanceSpec(dim=4, seed=3, mul_dim=1, restrict_dim=2))
    inv = inverse(shift(s, -c))
    moved, true_krein = shift(friedrichs(inv, 0), 1), krein(s, c)
    real = extensions.friedrichs_from
    monkeypatch.setattr(extensions, "friedrichs_from", lambda t, c0, m: moved if (t, c0) == (inv, 0) else real(t, c0, m))
    clear_memos()
    with pytest.raises(CrossCheckError) as err:
        krein(s, c)
    message = str(err.value)
    assert message.startswith(
        "Krein type extension formulas disagree: "
        "companion-product, operator-part-product, eigenspace-graph-sum | inverse-duality" + WITNESS_ROW
    )
    duality = shift(inverse(moved), c)
    assert duality != true_krein
    values = dict.fromkeys(extensions.ROUTES["krein"], true_krein) | {"inverse-duality": duality}
    _assert_row_separates(message, values)


def _refuted(real, out):
    """``real`` with the form of ``out`` refuted: no certificate, and the
    first domain basis vector as the witness."""
    t = form_of_relation(out)
    return lambda form, c: PsdResult(None, t.domain.basis.row(0)) if form == t else real(form, c)


# The message of each post-condition raise -> (the construction, the name
# patched in extensions, the patch given the real function and the true
# value).  Each patch is wrong about that value alone.
POSTCONDITION_FAULTS = {
    "Friedrichs extension is not a selfadjoint extension": (
        friedrichs,
        "is_selfadjoint",
        lambda real, out: lambda t: t != out and real(t),
    ),
    "mul S_F must equal mul S*": (
        friedrichs,
        "parts",
        lambda real, out: lambda t: SimpleNamespace(mul=zero_subspace(t.src)) if t == out else real(t),
    ),
    "Friedrichs extension lost the lower bound": (friedrichs, "certify_lower_bound", _refuted),
    "Krein type extension lost the lower bound": (krein, "certify_lower_bound", _refuted),
}


@pytest.mark.parametrize("message", sorted(POSTCONDITION_FAULTS))
def test_a_broken_post_condition_raises(message, monkeypatch):
    # e1 at 0: each construction passes its post-conditions until a patch
    # is wrong about its value; then the construction names the one broken.
    build, name, patch = POSTCONDITION_FAULTS[message]
    clear_memos()
    out = build(e1(), 0)
    monkeypatch.setattr(extensions, name, patch(getattr(extensions, name), out))
    clear_memos()
    with pytest.raises(CrossCheckError) as err:
        build(e1(), 0)
    assert str(err.value) == message


def test_repeated_predicates_replay_without_elimination(monkeypatch):
    # A second call on the same arguments is a memo hit: the body does not
    # run again, and no rref or LDL^T is computed.
    s = e1()
    clear_memos()
    f, k = friedrichs(s, 0), krein(s, 0)
    dom_f, dom_s = parts(f).dom, parts(s).dom
    first = (extremal_check(k, s, 0), order_leq(k, f), contains(dom_f, dom_s))
    misses = (rref.cache_info().misses, ldl_psd_certificate.cache_info().misses)
    hits = [fn.cache_info().hits for fn in (extremal_check, order_leq, contains)]

    def rerun(*args):
        raise AssertionError("a memoized predicate ran again")

    with monkeypatch.context() as m:
        m.setattr(extensions, "_definitional_extremal", rerun)
        m.setattr(extensions, "form_of_relation", rerun)
        m.setattr(spaces, "echelon_coords", rerun)
        again = (extremal_check(k, s, 0), order_leq(k, f), contains(dom_f, dom_s))
    assert again == first
    assert (rref.cache_info().misses, ldl_psd_certificate.cache_info().misses) == misses
    assert [fn.cache_info().hits for fn in (extremal_check, order_leq, contains)] == [h + 1 for h in hits]


def test_selfadjointness_of_the_friedrichs_extension_eliminates_nothing(monkeypatch):
    # Its post-condition and closure(Q) are certified by products: no null
    # space is taken of S_F's graph, during friedrichs or after it.
    rows = []
    real = relations.pairing_null_space
    monkeypatch.setattr(relations, "pairing_null_space", lambda left, right: rows.append((left, right)) or real(left, right))
    clear_memos()
    f = friedrichs(e1(), 0)
    assert (f.wg, f.wf) not in rows
    during = len(rows)
    assert is_selfadjoint(f)
    assert len(rows) == during


# The first 40 instances of `relcalc check --count 200 --seed 0`, each
# generated with its certified c.
SEED0_HEAD = suite_specs(40, (2, 6), 0)


def test_krein_rises_with_c_under_one_friedrichs():
    # The abstract: for each c <= gamma, S_K,c is the smallest selfadjoint
    # extension bounded below by c.  For c - 1 < c, S_K,c is bounded below
    # by c - 1 too, so S_K,c-1 <= S_K,c <= S_F, and S_F does not depend on c.
    for spec in SEED0_HEAD:
        clear_memos()
        s, c = random_semibounded(spec)
        k, f = krein(s, c), friedrichs(s, c)
        assert order_leq(krein(s, c - 1), k).leq, spec
        assert order_leq(k, f).leq, spec
        assert friedrichs(s, c - 1) == f, spec


def test_every_extremal_extension_is_built_from_its_own_domain():
    # A third route to extremality: H >= c is extremal exactly when it is
    # E_c(dom H), the extension extremal_from_domain builds from dom H.
    # Both outcomes must occur, or the test shows nothing.
    outcomes = set()
    for spec in SEED0_HEAD:
        clear_memos()
        s, c = random_semibounded(spec)
        drawn = [
            *sample_selfadjoint_extensions(s, 3, spec.seed),
            *engineered_nonextremal_extensions(s, c),
            *sample_extremal(s, c, 2, spec.seed),
        ]
        for h in drawn:
            if is_nonneg_above(h, c).ok:
                extremal = extremal_check(h, s, c)
                assert (extremal_from_domain(s, c, parts(h).dom) == h) == extremal, spec
                outcomes.add(extremal)
    assert outcomes == {True, False}
