"""Seeded random instances and the batch theorem suite.

`random_semibounded` manufactures a symmetric semibounded relation by
restricting a random selfadjoint semibounded relation (operator part plus
purely multivalued part on its orthogonal complement) to a random graph
subspace, together with a certified rational lower bound.

The samplers draw extensions of S by their domain and form.  A selfadjoint
H extending S is a domain dom S <= D <= dom S* with mul H = D-perp and a
symmetric form on D, fixed on dom S x D; `sample_selfadjoint_extensions`
draws D and the free block of the form, `engineered_nonextremal_extensions`
adds a rank-one term vanishing on dom S to the form of S_K,c, and both
build H with `selfadjoint_from_form`.  `sample_extremal` draws D between
dom S and dom J_c* for `extremal_from_domain`.

The suite is a registry of checks, run in registration order, each taking
one frozen `_Instance`: the relation, the base point, the seed and the
objects every check shares (S*, t(S), and the graphs of both representing
maps and of their companions), built once per instance.  A check that
compares something is a function registered by `@check("name")`; one whose
property a construction asserts is declared by `asserted("name", build)`,
with `build` the call, or the shared object, that asserts it.  No check
spells a route of `friedrichs` or `krein` again: one at the quotient map
passes `repmap_quotient` to `friedrichs_from` and `krein_from`.
`REQUIRED_CHECKS` is the registry's list of names.
`verify_all` builds the instance and runs every check in exact
arithmetic.  A failed check carries a sentence, followed by the serialized
relation or vector at fault where the check has one; a check that raises
carries the exception, and a CrossCheckError names the routes that disagree.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from operator import attrgetter
from typing import Callable, NamedTuple

from .errors import BoundCertificationError, CrossCheckError, PreconditionError
from .extensions import (
    extension_interval_check,
    extremal_check,
    extremal_from_domain,
    friedrichs,
    friedrichs_from,
    krein,
    krein_from,
    krein_is_operator,
    order_leq,
    relations_of_form,
    selfadjoint_from_form,
    weak_friedrichs,
    weak_krein,
)
from .forms import (
    QuadraticForm,
    _is_root,
    certify_lower_bound,
    companion,
    dom_companion_by_inequality,
    form_of_relation,
    form_s_of,
    inequality_domain_subspace,
    inequality_range_subspace,
    ldl_map,
    pencil_polynomial,
    pencil_psd,
    ran_adjoint_by_inequality,
    repmap_from_operator,
    repmap_ldl,
    repmap_quotient,
)
from .linalg import Mat, Vec, clear_memos, echelon_coords, hstack, identity, kernel, rat, ratio_mat, vstack, zeros
from .relations import (
    LinearRelation,
    adjoint,
    closure,
    compose,
    eigenspace,
    graph_relation,
    hsum,
    inverse,
    is_symmetric,
    numerical_range_zero,
    parts,
    product_relation,
    regular_part,
    rel_sum,
    restrict_domain,
    shift,
    singular_part,
)
from .serialize import relation_witness, vector_witness
from .spaces import (
    InnerProductSpace,
    Subspace,
    complement,
    contains,
    extending,
    gram_on,
    intersect,
    span_mat,
    zero_subspace,
)


class InstanceSpec(namedtuple("InstanceSpec", "dim seed mul_dim restrict_dim entry_bound")):
    __slots__ = ()

    def __new__(cls, dim: int, seed: int, mul_dim: int = 0, restrict_dim: int = 1, entry_bound: int = 4) -> InstanceSpec:
        if not (0 <= mul_dim <= dim):
            raise ValueError("mul_dim must lie between 0 and dim")
        if not (0 <= restrict_dim <= dim):
            raise ValueError("restrict_dim must lie between 0 and dim")
        return super().__new__(cls, dim, seed, mul_dim, restrict_dim, entry_bound)


class CheckResult(namedtuple("CheckResult", "name passed witness")):
    __slots__ = ()

    def __new__(cls, name: str, passed: bool, witness: str | None = None) -> CheckResult:
        if not passed and witness is None:
            raise ValueError("failed checks must carry a witness")
        return super().__new__(cls, name, passed, witness)


def _rand_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> Mat:
    """Entries p / q row by row, p = randint(-bound, bound) drawn before q = randint(1, bound)."""
    draw = rng.randint
    return ratio_mat(cols, [[(draw(-bound, bound), draw(1, bound)) for _ in range(cols)] for _ in range(rows)])


def _rand_spd_gram(rng: random.Random, dim: int, bound: int) -> Mat:
    b = _rand_matrix(rng, dim, dim, bound)
    return (b.T @ b) + identity(dim)


def _grow(sub: Subspace, target: int, attempts: int, draw: Callable[[], Mat]) -> Subspace:
    """Add one drawn row per attempt until sub reaches dimension target."""
    for _ in range(attempts):
        if sub.dim >= target:
            break
        sub = span_mat(sub.space, vstack(sub.basis, draw()))
    return sub


def random_semibounded(spec: InstanceSpec) -> tuple[LinearRelation, Fraction]:
    """A random symmetric semibounded relation with a certified bound.

    Ambient construction: a selfadjoint relation with operator part
    C^T C + c0 on the orthogonal complement of a random multivalued part,
    then restriction to a random graph subspace of the requested
    dimension.  Restrictions of selfadjoint semibounded relations are
    symmetric semibounded, which is asserted before returning.
    """
    rng = random.Random(spec.seed)
    bound = spec.entry_bound
    space = InnerProductSpace(spec.dim, _rand_spd_gram(rng, spec.dim, bound))
    # Random multivalued part of the ambient selfadjoint relation.
    mul_sub = _grow(zero_subspace(space), spec.mul_dim, 32, lambda: _rand_matrix(rng, 1, spec.dim, bound))
    dom = complement(mul_sub)
    d = dom.dim
    c0 = Fraction(rng.randint(-bound, bound))
    cmat = _rand_matrix(rng, d, d, bound)
    form = (cmat.T @ cmat) + gram_on(dom).scale(c0)
    ambient = selfadjoint_from_form(space, dom.basis, form)
    # Restrict to a random graph subspace, steering one generator through
    # the multivalued part when present so instances with nontrivial
    # ran(S-c) cap mul S* occur.
    target = spec.restrict_dim
    chosen = zero_subspace(ambient.graph.space)
    force_mul = spec.mul_dim > 0 and target > 0 and rng.random() < Fraction(3, 4)
    if force_mul:
        chosen = span_mat(ambient.graph.space, hstack(zeros(1, spec.dim), mul_sub.basis.take([0])))
    graph = ambient.graph.basis
    chosen = _grow(chosen, target, 64, lambda: _rand_matrix(rng, 1, graph.rows, bound) @ graph)
    s = LinearRelation(space, space, chosen)
    if not is_symmetric(s):
        raise CrossCheckError("a restriction of a selfadjoint relation is not symmetric")
    if not certify_lower_bound(form_of_relation(s), c0).ok:
        raise CrossCheckError("a restriction lost the lower bound of the selfadjoint relation")
    return s, c0


def random_orthogonal_range_relation(spec: InstanceSpec) -> LinearRelation:
    """A random symmetric relation with dom S orthogonal to ran S."""
    rng = random.Random(spec.seed)
    bound = spec.entry_bound
    space = InnerProductSpace(spec.dim, _rand_spd_gram(rng, spec.dim, bound))
    dom_dim = rng.randint(0, spec.dim - 1) if spec.dim > 1 else 0
    dom = _grow(zero_subspace(space), dom_dim, 32, lambda: _rand_matrix(rng, 1, spec.dim, bound))
    perp = complement(dom)
    firsts, seconds = dom.basis, _rand_matrix(rng, dom.dim, perp.dim, bound) @ perp.basis
    # Occasionally add a purely multivalued generator inside dom-perp.
    if perp.dim > 0 and rng.random() < 0.5:
        firsts, seconds = vstack(firsts, zeros(1, spec.dim)), vstack(seconds, perp.basis.take([perp.dim - 1]))
    out = graph_relation(space, space, firsts, seconds)
    if not numerical_range_zero(out) or not is_symmetric(out):
        raise CrossCheckError("dom S is orthogonal to ran S, yet S is not symmetric with W(S) = {0}")
    return out


def _extension_of_block(s: LinearRelation, e: Mat, block: Mat) -> LinearRelation:
    """The selfadjoint extension H of S whose domain D is spanned by the
    rows f_i of dom S and the rows E of dom S* independent of them, and
    whose form is ``block`` on E x E.  On dom S x D the form is (f', d), so
    on the rows [f; E] it is [[t(S), X], [X^T, block]], X the pairings
    (g_i, e_j) of the dom rows {f_i, g_i} of S."""
    dom = parts(s).dom
    x = s.wg.take(range(dom.dim)).mul_t(e)
    form = vstack(hstack(form_of_relation(s).matrix, x), hstack(x.T, block))
    h = selfadjoint_from_form(s.src, vstack(dom.basis, e), form)
    if not h.is_extension_of(s):
        raise CrossCheckError("a form that is (f', d) on dom S x D built no extension of S")
    return h


def sample_selfadjoint_extensions(
    s: LinearRelation, count: int, seed: int
) -> list[LinearRelation]:
    """Random selfadjoint extensions of a symmetric relation (module
    docstring): E from random combinations of the rows that complete dom S
    to dom S*, and the block B + B^T from a random B."""
    rng = random.Random(seed)
    dom = parts(s).dom
    gap = extending(dom, parts(adjoint(s)).dom.basis)
    out = []
    for _ in range(count):
        e = extending(dom, _rand_matrix(rng, rng.randint(min(1, gap.rows), gap.rows), gap.rows, 3) @ gap)
        b = _rand_matrix(rng, e.rows, e.rows, 3)
        out.append(_extension_of_block(s, e, b + b.T))
    return out


def engineered_nonextremal_extensions(
    s: LinearRelation, c, count: int = 3
) -> list[LinearRelation]:
    """Selfadjoint extensions that fail extremality by construction:
    the Krein form plus a positive rank-one term vanishing on dom S."""
    c = rat(c)
    k = krein(s, c)
    tk = form_of_relation(k)
    dom_s = parts(s).dom
    cmat = echelon_coords(tk.domain.basis, dom_s.basis)
    if cmat is None:
        raise CrossCheckError("dom S is not inside the domain of the Krein type extension")
    null = kernel(cmat)  # coordinates orthogonal to dom S coordinates
    out: list[LinearRelation] = []
    if null.rows == 0:
        return out
    for i in range(count):
        w = null.take([i % null.rows])
        h = selfadjoint_from_form(s.src, tk.domain.basis, tk.matrix + (w.T @ w).scale(i + 1))
        # The bump is nonzero and vanishes on dom S: H extends S and is not S_K,c.
        if not h.is_extension_of(s) or h == k:
            raise CrossCheckError("a rank-one bump of t(S_K,c) vanishing on dom S built no new extension of S")
        out.append(h)
    return out


def sample_extremal(s: LinearRelation, c, count: int, seed: int) -> list[LinearRelation]:
    """Extremal extensions from random intermediate domains between dom S
    and dom J_c*; every output passes extremal_check by construction."""
    c = rat(c)
    rng = random.Random(seed)
    j = companion(s, ldl_map(s, c))
    dom_s = parts(s).dom
    gap = extending(dom_s, parts(adjoint(j)).dom.basis)
    out = []
    for _ in range(count):
        drawn = _rand_matrix(rng, rng.randint(0, gap.rows), gap.rows, 3) @ gap
        out.append(extremal_from_domain(s, c, span_mat(s.src, vstack(dom_s.basis, drawn))))
    return out


# --------------------------------------------------------------- the suite


class _Instance(NamedTuple):
    """One checked instance and the objects its checks share."""

    s: LinearRelation
    c: Fraction
    seed: int
    sstar: LinearRelation
    t: QuadraticForm
    j_ldl: LinearRelation
    j_quot: LinearRelation
    qrel: LinearRelation
    qrel2: LinearRelation

    @classmethod
    def build(cls, s: LinearRelation, c, seed: int) -> _Instance:
        """The shared objects, built in a fixed order: `perfbench/tracer.py`
        times everything up to the second `companion` call as the preamble."""
        c = rat(c)
        sstar = adjoint(s)
        t = form_of_relation(s)
        q_ldl = repmap_ldl(t, c)
        q_quot = repmap_quotient(s, c)
        j_ldl = companion(s, q_ldl)
        j_quot = companion(s, q_quot)
        return cls(s, c, seed, sstar, t, j_ldl, j_quot, q_ldl.as_relation(), q_quot.as_relation())


# A check returns None when it holds and its witness string (module docstring)
# when it fails; raising fails it too, with the exception as its witness.
CheckFn = Callable[[_Instance], str | None]
REGISTRY: list[tuple[str, CheckFn]] = []


def check(name: str) -> Callable[[CheckFn], CheckFn]:
    """Register a check under `name`; the suite runs checks in registration order."""

    def register(fn: CheckFn) -> CheckFn:
        REGISTRY.append((name, fn))
        return fn

    return register


def asserted(name: str, build: Callable[[_Instance], object]) -> None:
    """Register under `name` a check that compares nothing itself: `build`
    reads or runs the construction that asserts the property, so the check
    holds when `build` returns and fails with what it raises."""

    def holds(x: _Instance) -> None:
        build(x)

    check(name)(holds)


def _first_disagreement(x: _Instance, sub: Subspace, expected: Subspace, pointwise, salt: int) -> Vec | None:
    """The first of ten sampled vectors on which pointwise(s, c, v) differs
    from membership in expected; the first five are drawn from sub when it
    is nonzero, the rest from the whole space."""
    rng = random.Random(x.seed * 7 + salt)
    for idx in range(10):
        if idx < 5 and sub.dim > 0:
            v = _rand_matrix(rng, 1, sub.dim, 3) @ sub.basis
        else:
            v = _rand_matrix(rng, 1, x.s.src.dim, 3)
        if pointwise(x.s, x.c, v.row(0)) != (echelon_coords(expected.basis, v) is not None):
            return v.row(0)
    return None


@check("adjoint-involution")
def _involution(x: _Instance) -> str | None:
    for rel in (x.s, x.sstar, x.j_ldl, x.qrel):
        if adjoint(adjoint(rel)) != rel:
            return relation_witness(rel)
    return None


@check("adjoint-inverse-exchange")
def _inverse_exchange(x: _Instance) -> str | None:
    return None if adjoint(inverse(x.s)) == inverse(x.sstar) else relation_witness(x.s)


@check("parts-duality")
def _parts_duality(x: _Instance) -> str | None:
    p, ps = parts(x.s), parts(x.sstar)
    if ps.mul != complement(p.dom):
        return "mul S* != (dom S)-perp: " + relation_witness(x.sstar)
    if ps.ker != complement(p.ran):
        return "ker S* != (ran S)-perp: " + relation_witness(x.sstar)
    return None


@check("compose-associative")
def _associativity(x: _Instance) -> str | None:
    lhs = compose(compose(x.sstar, adjoint(x.qrel)), x.qrel)
    rhs = compose(x.sstar, compose(adjoint(x.qrel), x.qrel))
    return None if lhs == rhs else relation_witness(x.s)


@check("regular-singular-split")
def _regular_singular(x: _Instance) -> str | None:
    for rel in (x.s, x.sstar, x.j_ldl):
        reg, sing = regular_part(rel), singular_part(rel)
        if rel_sum(reg, sing) != rel:
            return "recombination failed: " + relation_witness(rel)
        if parts(reg).mul.dim != 0:
            return "regular part is not an operator: " + relation_witness(reg)
        if not contains(parts(rel).mul, parts(sing).ran):
            return "singular range escapes mul: " + relation_witness(sing)
        if not hsum(reg, sing).is_extension_of(rel):
            return "graph span lost the relation: " + relation_witness(rel)
    return None


@check("shift-roundtrip")
def _shift_roundtrip(x: _Instance) -> str | None:
    return None if shift(shift(x.s, x.c), -x.c) == x.s else relation_witness(x.s)


# closure(S) = S: ``closure`` asserts S** = S and returns S itself.
asserted("closure-degenerate", lambda x: closure(x.s))
# Q G_Q Q^T = M - cG for the LDL^T map: the ``RepresentingMap`` constructor asserts it inside ``repmap_ldl``.
asserted("repmap-certificate-ldl", attrgetter("qrel"))
# Q G_Q Q^T = M - cG for the quotient map, and Q fills its codomain: ``RepresentingMap`` and ``repmap_quotient`` assert them.
asserted("repmap-certificate-quotient", attrgetter("qrel2"))
# Q_c in J_c* and J_c in Q_c* for both maps: ``companion`` asserts them when it builds J_c.
asserted("dual-pair", attrgetter("j_ldl", "j_quot"))


@check("repmap-independence-kkt")
def _independence_kkt(x: _Instance) -> str | None:
    j_ldl, j_quot = x.j_ldl, x.j_quot
    if compose(adjoint(x.qrel), x.qrel) != compose(adjoint(x.qrel2), x.qrel2):
        return "Q*Q depends on the representing map"
    if shift(compose(j_ldl, x.qrel), x.c) != shift(compose(j_quot, x.qrel2), x.c):
        return "c + J Q depends on the representing map"
    if compose(j_ldl, adjoint(j_ldl)) != compose(j_quot, adjoint(j_quot)):
        return "J J* depends on the representing map"
    return None


@check("mul-companion-intersection")
def _mul_companion(x: _Instance) -> str | None:
    expected = intersect(parts(shift(x.s, -x.c)).ran, parts(x.sstar).mul)
    for name, j in (("LDL", x.j_ldl), ("quotient", x.j_quot)):
        if parts(j).mul != expected:
            return f"mul J_c != ran(S-c) cap mul S* for the {name} map"
    return None


@check("range-inequality-criterion")
def _range_inequality(x: _Instance) -> str | None:
    sub, ran = inequality_range_subspace(x.s, x.c), parts(adjoint(x.qrel)).ran
    if sub != ran:
        return "inequality subspace differs from ran Q_c*"
    v = _first_disagreement(x, sub, ran, ran_adjoint_by_inequality, 1)
    return None if v is None else "pointwise halfFr disagreement at " + vector_witness(v)


@check("domain-inequality-criterion")
def _domain_inequality(x: _Instance) -> str | None:
    sub, dom = inequality_domain_subspace(x.s, x.c), parts(adjoint(x.j_ldl)).dom
    if sub != dom:
        return "inequality subspace differs from dom J_c*"
    v = _first_disagreement(x, sub, dom, dom_companion_by_inequality, 2)
    return None if v is None else "pointwise domJ* disagreement at " + vector_witness(v)


@check("closed-form-extends")
def _closed_form_extends(x: _Instance) -> str | None:
    big = form_s_of(x.s, x.c)
    return None if x.t.is_restriction_of(big) else "t(S) is not a restriction of s(S)"


@check("adjoint-form-pairing")
def _adjoint_form_pairing(x: _Instance) -> str | None:
    """t(S)[phi, d] = (phi', d) for every {phi, phi'} in S* over dom S and d in
    dom S: coords(phi) M = phi' G B^T, row by row, B the basis of dom S."""
    dom = parts(x.s).dom
    phi, phi_prime = restrict_domain(x.sstar, dom).halves
    lhs = echelon_coords(dom.basis, phi) @ x.t.matrix
    rhs = (phi_prime @ x.s.src.gram).mul_t(dom.basis)
    if lhs == rhs:
        return None
    i = next(i for i in range(lhs.rows) if lhs.row(i) != rhs.row(i))
    return "pairing (phi', psi) != t(S)[phi, psi] at " + vector_witness(phi.row(i))


@check("inverse-repmap-duality")
def _inverse_repmap_duality(x: _Instance) -> str | None:
    inv_rel = inverse(shift(x.s, -x.c))
    t_inv = form_of_relation(inv_rel)
    jinv_map = repmap_from_operator(inverse(x.j_ldl), t_inv, 0)
    if companion(inv_rel, jinv_map) != inverse(x.qrel):
        return "companion of J^{-1} is not Q^{-1}"
    return None


@check("companion-product-extension")
def _companion_product(x: _Instance) -> str | None:
    ext = shift(compose(x.j_ldl, x.qrel), x.c)
    if not ext.is_extension_of(x.s):
        return "S not inside c + J Q"
    n_sub = intersect(parts(shift(x.s, -x.c)).ran, parts(x.sstar).mul)
    if (ext == x.s) != (n_sub == parts(x.s).mul):
        return "equality criterion for c + J Q failed"
    return None


@check("friedrichs-triple")
def _friedrichs_triple(x: _Instance) -> str | None:
    """t(S_F) = t(S); ``friedrichs`` asserts S_F extends S and mul S_F = mul S*."""
    # Same domain and matrix: S_F has the lower bound of S exactly.
    if form_of_relation(friedrichs(x.s, x.c)) != x.t:
        return "t(S_F) != t(S)"
    return None


@check("krein-quadruple")
def _krein_quadruple(x: _Instance) -> str | None:
    """ker(S_K,c - c) = ker(S* - c), with c exact when it is nonzero; ``krein`` asserts S_K,c extends S and is >= c."""
    k = krein(x.s, x.c)
    tk = form_of_relation(k)
    ker = eigenspace(x.sstar, x.c)
    if eigenspace(k, x.c) != ker:
        return "ker(S_K - c) != ker(S* - c)"
    if ker.dim > 0:
        if certify_lower_bound(tk, x.c + Fraction(1, 1000)).ok:
            return "S_K bound is not exactly c"
        # Exactly c: the smallest root of det(M - cG) for t(S_K).
        p = pencil_polynomial(tk)
        if not _is_root(p, x.c):
            return "c is not a root of det(M - cG) for t(S_K)"
        if not pencil_psd(p, x.c):
            return "det(M - cG) for t(S_K) has a root below c"
    return None


# S_f = S_F and S_k,c = S_K,c: routes multivalued-graph-sum of ``friedrichs`` and eigenspace-graph-sum of ``krein``.
asserted("weak-equals-full", lambda x: (weak_friedrichs(x.s, x.c), weak_krein(x.s, x.c)))


@check("friedrichs-translation")
def _friedrichs_translation(x: _Instance) -> str | None:
    lhs = friedrichs(shift(x.s, -x.c), 0)
    return None if lhs == shift(friedrichs(x.s, x.c), -x.c) else "(S-c)_F != S_F - c"


# S_K,c = c + (((S - c)^{-1})_F)^{-1}: the inverse-duality route of ``krein``.
asserted("codding-identity", lambda x: krein(x.s, x.c))


@check("mul-extensions")
def _mul_extensions(x: _Instance) -> str | None:
    """mul S_K,c = ran(S - c) cap mul S*; ``friedrichs`` asserts mul S_F = mul S*."""
    if parts(krein(x.s, x.c)).mul != intersect(parts(shift(x.s, -x.c)).ran, parts(x.sstar).mul):
        return "mul S_K,c formula failed"
    return None


@check("order-krein-leq-friedrichs")
def _order_krein_friedrichs(x: _Instance) -> str | None:
    res = order_leq(krein(x.s, x.c), friedrichs(x.s, x.c))
    return None if res.leq else "S_K,c > S_F at " + vector_witness(res.witness)


# The map-dependent routes of ``friedrichs`` and ``krein``, built from quotient maps, against their map-free routes.
asserted("repmap-independence-extensions", lambda x: (friedrichs_from(x.s, x.c, repmap_quotient), krein_from(x.s, x.c, repmap_quotient)))


@check("extremal-endpoints")
def _extremal_endpoints(x: _Instance) -> str | None:
    if not extremal_check(friedrichs(x.s, x.c), x.s, x.c):
        return "S_F not extremal"
    if not extremal_check(krein(x.s, x.c), x.s, x.c):
        return "S_K,c not extremal"
    return None


@check("extremal-intermediate")
def _extremal_intermediate(x: _Instance) -> str | None:
    """Sampled extremal extensions lie in [S_K,c, S_F]; ``extremal_from_domain`` asserts extremality."""
    for h in sample_extremal(x.s, x.c, 4, x.seed * 11 + 3):
        for res in (order_leq(krein(x.s, x.c), h), order_leq(h, friedrichs(x.s, x.c))):
            if not res.leq:
                return "sampled extremal extension escapes the order interval at " + vector_witness(res.witness)
    return None


@check("extremal-equivalence-samples")
def _extremal_samples(x: _Instance) -> str | None:
    # extremal_check internally cross-asserts the definitional and the
    # sandwich characterizations; running it on arbitrary selfadjoint
    # extensions exercises the equivalence on both outcomes.
    for h in engineered_nonextremal_extensions(x.s, x.c):
        if extremal_check(h, x.s, x.c):
            return "engineered non-extremal extension tested extremal: " + relation_witness(h)
    for h in sample_selfadjoint_extensions(x.s, 3, x.seed * 11 + 4):
        extremal_check(h, x.s, x.c)
    return None


@check("order-interval-equivalence")
def _order_interval(x: _Instance) -> str | None:
    for h in sample_selfadjoint_extensions(x.s, 5, x.seed * 11 + 5):
        if not extension_interval_check(x.s, x.c, h):
            return "order interval equivalence failed: " + relation_witness(h)
    return None


# ``krein_is_operator`` asserts its criterion ran(S - c) cap mul S* = {0} against mul S_K,c.
asserted("krein-operator-criterion", lambda x: krein_is_operator(x.s, x.c))
# c + Q*Q** (``relations_of_form``), the repmap-product route of ``friedrichs``; for a singular Q it asserts two product formulas.
asserted("relations-of-form", lambda x: relations_of_form(x.qrel, x.c))


@check("orthogonal-domain-range-special")
def _orthogonal_special(x: _Instance) -> str | None:
    s = x.s
    if not numerical_range_zero(s):
        return None  # vacuous for instances with nonzero numerical range
    p, ps = parts(s), parts(x.sstar)
    if friedrichs(s, 0) != product_relation(p.dom, ps.mul):
        return "S_F != dom S x mul S*"
    if krein(s, 0) != product_relation(ps.ker, p.ran):
        return "S_K != ker S* x ran S"
    for h in sample_selfadjoint_extensions(s, 3, x.seed * 11 + 6):
        if numerical_range_zero(h) != extremal_check(h, s, 0):
            return "W(H) = 0 does not match extremality: " + relation_witness(h)
    return None


REQUIRED_CHECKS: tuple[str, ...] = tuple(name for name, _ in REGISTRY)


def failed_check(name: str, exc: Exception) -> CheckResult:
    """The failed check ``name``, with the exception as its witness."""
    return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def _run(name: str, fn: CheckFn, x: _Instance) -> CheckResult:
    """Run one check; an exception inside it is a failure of that check."""
    try:
        witness = fn(x)
    except Exception as exc:
        return failed_check(name, exc)
    return CheckResult(name, witness is None, witness)


def verify_all(s: LinearRelation, c, seed: int = 0) -> list[CheckResult]:
    """Run the full named identity suite against one instance.

    Deterministic for fixed (s, c, seed).  Every failure carries a
    serialized witness.  Exceptions inside a check are failures of that
    check, not of the harness; one while building the shared objects is
    the single failed check "preamble", but ``BoundCertificationError``
    and ``PreconditionError`` propagate, for exits 4 and 3.
    """
    try:
        x = _Instance.build(s, c, seed)
    except (BoundCertificationError, PreconditionError):
        raise
    except Exception as exc:
        return [failed_check("preamble", exc)]
    return [_run(name, fn, x) for name, fn in REGISTRY]


# ------------------------------------------------------------------ suite


class InstanceReport(NamedTuple):
    spec: InstanceSpec
    c: Fraction | None  # None when the instance could not be generated
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)


def run_one(spec: InstanceSpec) -> InstanceReport:
    """Generate and check one instance in a fresh cache scope.

    An exception while generating the instance or building its shared
    objects fails the instance with the single entry "preamble", whose
    witness is the exception; the batch goes on."""
    clear_memos()
    c = None
    try:
        s, c = random_semibounded(spec)
        checks = verify_all(s, c, seed=spec.seed)
    except Exception as exc:
        checks = [failed_check("preamble", exc)]
    return InstanceReport(spec, c, tuple(checks))


def suite_specs(count: int, dims: tuple[int, int], seed: int) -> list[InstanceSpec]:
    lo, hi = dims
    specs = []
    for i in range(count):
        inst_seed = seed * 1_000_003 + i
        rng = random.Random(inst_seed)
        dim = lo + (i % (hi - lo + 1))
        mul_dim = rng.randint(0, max(0, dim - 1)) if rng.random() < 0.5 else 0
        restrict_dim = rng.randint(1, dim)
        specs.append(
            InstanceSpec(
                dim=dim,
                seed=inst_seed,
                mul_dim=mul_dim,
                restrict_dim=restrict_dim,
            )
        )
    return specs


def run_suite(count: int, dims: tuple[int, int], seed: int) -> list[InstanceReport]:
    return [run_one(sp) for sp in suite_specs(count, dims, seed)]
