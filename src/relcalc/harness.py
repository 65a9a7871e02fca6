"""Seeded random instances and the batch theorem suite.

`random_semibounded` manufactures a symmetric semibounded relation by
restricting a random selfadjoint semibounded relation (operator part plus
purely multivalued part on its orthogonal complement) to a random graph
subspace, together with a certified rational lower bound.  `verify_all`
then runs every named identity of the theory against the instance in
exact arithmetic; failures carry serialized witnesses, never just flags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CrossCheckError
from .extensions import (
    extension_interval_check,
    extremal_check,
    extremal_from_domain,
    friedrichs,
    krein,
    krein_is_operator,
    order_leq,
    relations_of_form,
    selfadjoint_from_form,
    weak_friedrichs,
    weak_krein,
)
from .forms import (
    certify_lower_bound,
    companion,
    dom_companion_by_inequality,
    form_of_relation,
    form_s_of,
    inequality_domain_subspace,
    inequality_range_subspace,
    ran_adjoint_by_inequality,
    repmap_from_operator,
    repmap_ldl,
    repmap_quotient,
)
from .linalg import Mat, Vec, clear_memos, from_cols, identity, kernel, mat, rank, rat, solve_mat, vec
from .relations import (
    LinearRelation,
    adjoint,
    closure,
    compose,
    eigenspace,
    hsum,
    inverse,
    is_selfadjoint,
    is_symmetric,
    numerical_range_zero,
    parts,
    product_relation,
    regular_part,
    rel_sum,
    relation_from_graph_vectors,
    restrict_domain,
    shift,
    singular_part,
)
from .serialize import relation_witness, vector_witness
from .spaces import (
    InnerProductSpace,
    complement,
    contains,
    gram_on,
    intersect,
    member,
    span,
    subspace_sum,
    zero_subspace,
)


@dataclass(frozen=True)
class InstanceSpec:
    dim: int
    seed: int
    mul_dim: int = 0
    restrict_dim: int = 1
    entry_bound: int = 4

    def __post_init__(self) -> None:
        if not (0 <= self.mul_dim <= self.dim):
            raise ValueError("mul_dim must lie between 0 and dim")
        if not (0 <= self.restrict_dim <= self.dim):
            raise ValueError("restrict_dim must lie between 0 and dim")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None

    def __post_init__(self) -> None:
        if not self.passed and self.witness is None:
            raise ValueError("failed checks must carry a witness")


def _rand_fraction(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _rand_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> Mat:
    return mat([[_rand_fraction(rng, bound) for _ in range(cols)] for _ in range(rows)])


def _rand_spd_gram(rng: random.Random, dim: int, bound: int) -> Mat:
    b = _rand_matrix(rng, dim, dim, bound)
    return (b.T @ b) + identity(dim)


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
    mul_sub = zero_subspace(space)
    attempts = 0
    while mul_sub.dim < spec.mul_dim and attempts < 32:
        cand = span(
            space,
            list(mul_sub.basis_vectors())
            + [[_rand_fraction(rng, bound) for _ in range(spec.dim)]],
        )
        if cand.dim > mul_sub.dim:
            mul_sub = cand
        attempts += 1
    dom = complement(mul_sub)
    d = dom.dim
    c0 = Fraction(rng.randint(-bound, bound))
    cmat = _rand_matrix(rng, d, d, bound)
    form = (cmat.T @ cmat) + gram_on(dom).scale(c0)
    ambient = selfadjoint_from_form(space, dom, form)
    # Restrict to a random graph subspace, steering one generator through
    # the multivalued part when present so instances with nontrivial
    # ran(S-c) cap mul S* occur.
    target = spec.restrict_dim
    chosen = zero_subspace(ambient.graph.space)
    force_mul = spec.mul_dim > 0 and target > 0 and rng.random() < Fraction(3, 4)
    if force_mul:
        m = mul_sub.basis_vectors()[0]
        chosen = span(ambient.graph.space, [space.zero_vec() + m])
    attempts = 0
    while chosen.dim < target and attempts < 64:
        combo = [_rand_fraction(rng, bound) for _ in range(ambient.graph.dim)]
        cand = subspace_sum(chosen, span(ambient.graph.space, [ambient.graph.basis.mul_vec(combo)]))
        if cand.dim > chosen.dim:
            chosen = cand
        attempts += 1
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
    dom = zero_subspace(space)
    attempts = 0
    while dom.dim < dom_dim and attempts < 32:
        cand = subspace_sum(dom, span(space, [[_rand_fraction(rng, bound) for _ in range(spec.dim)]]))
        if cand.dim > dom.dim:
            dom = cand
        attempts += 1
    perp = complement(dom)
    pairs = []
    for b in dom.basis_vectors():
        combo = [_rand_fraction(rng, bound) for _ in range(perp.dim)]
        pairs.append((b, perp.basis.mul_vec(combo)))
    # Occasionally add a purely multivalued generator inside dom-perp.
    if perp.dim > 0 and rng.random() < 0.5:
        pairs.append((space.zero_vec(), perp.basis_vectors()[-1]))
    out = relation_from_graph_vectors(space, space, [vec(f) + vec(g) for f, g in pairs])
    if not numerical_range_zero(out) or not is_symmetric(out):
        raise CrossCheckError("dom S is orthogonal to ran S, yet S is not symmetric with W(S) = {0}")
    return out


def sample_selfadjoint_extensions(
    s: LinearRelation, count: int, seed: int
) -> list[LinearRelation]:
    """Random selfadjoint extensions of a symmetric relation.

    Grows the graph inside graph(S*) one element at a time, keeping the
    symmetric-pairing conditions against the already-added elements as an
    incrementally extended linear system.  A symmetric relation whose
    graph dimension equals the space dimension is selfadjoint, so no
    rejection is needed beyond re-drawing combinations that land inside
    the current graph.
    """
    rng = random.Random(seed)
    n = s.src.dim
    g = s.src.gram
    star = adjoint(s).graph.basis
    out = []
    for _ in range(count):
        graph = s.graph
        cond_rows: list[Vec] = []
        while graph.dim < n:
            # With no condition yet the kernel is all of the coefficients.
            sol = kernel(Mat(len(cond_rows), star.cols, tuple(cond_rows)))
            cand = None
            for _attempt in range(16):
                combo = [_rand_fraction(rng, 3) for _ in range(sol.cols)]
                v = star.mul_vec(sol.mul_vec(combo))
                if not member(v, graph):
                    cand = v
                    break
            if cand is None:
                cand = next((v for v in (star @ sol).T.data if not member(v, graph)), None)
            if cand is None:
                raise CrossCheckError("no element of graph(S*) extends a non-maximal symmetric graph")
            graph = subspace_sum(graph, span(graph.space, [cand]))
            fa, ga = cand[:n], cand[n:]
            # (g_a, f_b) - (f_a, g_b) for every basis element {f_b, g_b} of S*.
            cond_rows.append(star.T.mul_vec(g.mul_vec(ga) + g.scale(-1).mul_vec(fa)))
        t = LinearRelation(s.src, s.src, graph)
        if not is_selfadjoint(t):
            raise CrossCheckError("a maximal symmetric graph is not selfadjoint")
        out.append(t)
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
    cmat = solve_mat(tk.domain.basis, dom_s.basis)
    if cmat is None:
        raise CrossCheckError("dom S is not inside the domain of the Krein type extension")
    null = kernel(cmat.T)  # coordinates orthogonal to dom S coordinates
    out: list[LinearRelation] = []
    if null.cols == 0:
        return out
    for i in range(count):
        w = null.col(i % null.cols)
        weight = Fraction(i + 1)
        bump = mat([[weight * w[a] * w[b] for b in range(len(w))] for a in range(len(w))])
        h = selfadjoint_from_form(s.src, tk.domain, tk.matrix + bump)
        if h.is_extension_of(s) and h != k:
            out.append(h)
    return out


def sample_extremal(s: LinearRelation, c, count: int, seed: int) -> list[LinearRelation]:
    """Extremal extensions from random intermediate domains between dom S
    and dom J_c*; every output passes extremal_check by construction."""
    c = rat(c)
    rng = random.Random(seed)
    q = repmap_ldl(form_of_relation(s), c)
    j = companion(s, q)
    dom_s = parts(s).dom
    dom_jstar = parts(adjoint(j)).dom
    gap: list = []
    current = dom_s
    for b in dom_jstar.basis_vectors():
        cand = subspace_sum(current, span(s.src, [b]))
        if cand.dim > current.dim:
            gap.append(b)
            current = cand
    out = []
    for _ in range(count):
        take = rng.randint(0, len(gap))
        d = dom_s
        for _k in range(take):
            combo = [_rand_fraction(rng, 3) for _ in gap]
            cand = subspace_sum(d, span(s.src, [from_cols(s.src.dim, gap).mul_vec(combo)]))
            if cand.dim > d.dim:
                d = cand
        out.append(extremal_from_domain(s, c, d))
    return out


# --------------------------------------------------------------- the suite

REQUIRED_CHECKS: tuple[str, ...] = (
    "adjoint-involution",
    "adjoint-inverse-exchange",
    "parts-duality",
    "compose-associative",
    "regular-singular-split",
    "shift-roundtrip",
    "closure-degenerate",
    "repmap-certificate-ldl",
    "repmap-certificate-quotient",
    "dual-pair",
    "repmap-independence-kkt",
    "mul-companion-intersection",
    "range-inequality-criterion",
    "domain-inequality-criterion",
    "closed-form-extends",
    "adjoint-form-pairing",
    "inverse-repmap-duality",
    "companion-product-extension",
    "friedrichs-triple",
    "krein-quadruple",
    "weak-equals-full",
    "friedrichs-translation",
    "codding-identity",
    "mul-extensions",
    "order-krein-leq-friedrichs",
    "repmap-independence-extensions",
    "extremal-endpoints",
    "extremal-intermediate",
    "extremal-equivalence-samples",
    "order-interval-equivalence",
    "krein-operator-criterion",
    "relations-of-form",
    "orthogonal-domain-range-special",
)


def check_codding(s: LinearRelation, c, candidate: LinearRelation) -> CheckResult:
    """The inverse-duality identity, as a standalone check so corrupted
    extension graphs are detected with a witness."""
    c = rat(c)
    expected = shift(inverse(friedrichs(inverse(shift(s, -c)), 0)), c)
    if candidate == expected:
        return CheckResult("codding-identity", True)
    return CheckResult(
        "codding-identity",
        False,
        f"candidate {relation_witness(candidate)} != inverse-duality value {relation_witness(expected)}",
    )


def verify_all(s: LinearRelation, c, seed: int = 0) -> list[CheckResult]:
    """Run the full named identity suite against one instance.

    Deterministic for fixed (s, c, seed).  Every failure carries a
    serialized witness.  Exceptions inside a check are failures of that
    check, not of the harness.
    """
    c = rat(c)
    results: list[CheckResult] = []

    def run(name: str, fn) -> None:
        try:
            witness = fn()
        except Exception as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
            return
        if witness is None:
            results.append(CheckResult(name, True))
        else:
            results.append(CheckResult(name, False, witness))

    sstar = adjoint(s)
    t = form_of_relation(s)
    q_ldl = repmap_ldl(t, c)
    q_quot = repmap_quotient(s, c)
    j_ldl = companion(s, q_ldl)
    j_quot = companion(s, q_quot)
    qrel = q_ldl.as_relation()
    qrel2 = q_quot.as_relation()

    def involution():
        for rel in (s, sstar, j_ldl, qrel):
            if adjoint(adjoint(rel)) != rel:
                return relation_witness(rel)
        return None

    run("adjoint-involution", involution)

    run(
        "adjoint-inverse-exchange",
        lambda: None if adjoint(inverse(s)) == inverse(sstar) else relation_witness(s),
    )

    def parts_duality():
        p, ps = parts(s), parts(sstar)
        if ps.mul != complement(p.dom):
            return "mul S* != (dom S)-perp: " + relation_witness(sstar)
        if ps.ker != complement(p.ran):
            return "ker S* != (ran S)-perp: " + relation_witness(sstar)
        return None

    run("parts-duality", parts_duality)

    def associativity():
        lhs = compose(compose(sstar, adjoint(qrel)), qrel)
        rhs = compose(sstar, compose(adjoint(qrel), qrel))
        return None if lhs == rhs else relation_witness(s)

    run("compose-associative", associativity)

    def reg_sing():
        for rel in (s, sstar, j_ldl):
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

    run("regular-singular-split", reg_sing)

    run(
        "shift-roundtrip",
        lambda: None if shift(shift(s, c), -c) == s else relation_witness(s),
    )

    run("closure-degenerate", lambda: None if closure(s) == s else relation_witness(s))

    def cert_ldl():
        lhs = q_ldl.matrix.T @ q_ldl.codomain.gram @ q_ldl.matrix
        rhs = t.matrix - t.domain_gram.scale(c)
        return None if lhs == rhs else "certificate identity failed for the LDL map"

    run("repmap-certificate-ldl", cert_ldl)

    def cert_quot():
        lhs = q_quot.matrix.T @ q_quot.codomain.gram @ q_quot.matrix
        rhs = t.matrix - t.domain_gram.scale(c)
        if lhs != rhs:
            return "certificate identity failed for the quotient map"
        if rank(q_quot.matrix) != q_quot.codomain.dim:
            return "quotient map does not fill its codomain"
        return None

    run("repmap-certificate-quotient", cert_quot)

    def dual_pair():
        for q, j in ((qrel, j_ldl), (qrel2, j_quot)):
            if not adjoint(j).is_extension_of(q):
                return "Q not inside J*"
            if not adjoint(q).is_extension_of(j):
                return "J not inside Q*"
        return None

    run("dual-pair", dual_pair)

    def independence_kkt():
        if compose(adjoint(qrel), qrel) != compose(adjoint(qrel2), qrel2):
            return "Q*Q depends on the representing map"
        lhs = shift(compose(j_ldl, qrel), c)
        rhs = shift(compose(j_quot, qrel2), c)
        if lhs != rhs:
            return "c + J Q depends on the representing map"
        if not lhs.is_extension_of(s):
            return "c + J Q is not an extension"
        if compose(j_ldl, adjoint(j_ldl)) != compose(j_quot, adjoint(j_quot)):
            return "J J* depends on the representing map"
        if compose(closure(j_ldl), adjoint(j_ldl)) != compose(closure(j_quot), adjoint(j_quot)):
            return "J** J* depends on the representing map"
        return None

    run("repmap-independence-kkt", independence_kkt)

    def mul_companion():
        expected = intersect(parts(shift(s, -c)).ran, parts(sstar).mul)
        for j in (j_ldl, j_quot):
            if parts(j).mul != expected:
                return "mul J_c != ran(S-c) cap mul S*"
        return None

    run("mul-companion-intersection", mul_companion)

    def range_inequality():
        sub = inequality_range_subspace(s, c)
        if sub != parts(adjoint(qrel)).ran:
            return "inequality subspace differs from ran Q_c*"
        rng = random.Random(seed * 7 + 1)
        for idx in range(10):
            if idx < 5 and sub.dim > 0:
                combo = [_rand_fraction(rng, 3) for _ in range(sub.dim)]
                v = sub.basis.mul_vec(combo)
            else:
                v = tuple(_rand_fraction(rng, 3) for _ in range(s.src.dim))
            if ran_adjoint_by_inequality(s, c, v) != member(v, parts(adjoint(qrel)).ran):
                return "pointwise halfFr disagreement at " + vector_witness(v)
        return None

    run("range-inequality-criterion", range_inequality)

    def domain_inequality():
        sub = inequality_domain_subspace(s, c)
        if sub != parts(adjoint(j_ldl)).dom:
            return "inequality subspace differs from dom J_c*"
        rng = random.Random(seed * 7 + 2)
        for idx in range(10):
            if idx < 5 and sub.dim > 0:
                combo = [_rand_fraction(rng, 3) for _ in range(sub.dim)]
                v = sub.basis.mul_vec(combo)
            else:
                v = tuple(_rand_fraction(rng, 3) for _ in range(s.src.dim))
            if dom_companion_by_inequality(s, c, v) != member(v, parts(adjoint(j_ldl)).dom):
                return "pointwise domJ* disagreement at " + vector_witness(v)
        return None

    run("domain-inequality-criterion", domain_inequality)

    def closed_form_extends():
        big = form_s_of(s, c, q_ldl)
        return None if t.is_restriction_of(big) else "t(S) is not a restriction of s(S)"

    run("closed-form-extends", closed_form_extends)

    def adjoint_form_pairing():
        for phi, phi_prime in restrict_domain(sstar, parts(s).dom).pairs():
            for d in parts(s).dom.basis_vectors():
                if t.evaluate(phi, d) != s.src.inner(phi_prime, d):
                    return "pairing (phi', psi) != t(S)[phi, psi] at " + vector_witness(phi)
        return None

    run("adjoint-form-pairing", adjoint_form_pairing)

    def inverse_repmap_duality():
        inv_rel = inverse(shift(s, -c))
        t_inv = form_of_relation(inv_rel)
        jinv_map = repmap_from_operator(inverse(j_ldl), t_inv, 0)
        comp = companion(inv_rel, jinv_map)
        if comp != inverse(qrel):
            return "companion of J^{-1} is not Q^{-1}"
        return None

    run("inverse-repmap-duality", inverse_repmap_duality)

    def jqq():
        ext = shift(compose(j_ldl, qrel), c)
        if not ext.is_extension_of(s):
            return "S not inside c + J Q"
        n_sub = intersect(parts(shift(s, -c)).ran, parts(sstar).mul)
        equal = ext == s
        criterion = n_sub == parts(s).mul
        if equal != criterion:
            return "equality criterion for c + J Q failed"
        return None

    run("companion-product-extension", jqq)

    def fried():
        f = friedrichs(s, c)
        if not f.is_extension_of(s):
            return "S_F does not extend S"
        if parts(f).mul != parts(sstar).mul:
            return "mul S_F != mul S*"
        return None

    run("friedrichs-triple", fried)

    def kre():
        k = krein(s, c)
        if not k.is_extension_of(s):
            return "S_K does not extend S"
        tk = form_of_relation(k)
        if not certify_lower_bound(tk, c).ok:
            return "S_K lost the bound"
        if eigenspace(sstar, c).dim > 0:
            if certify_lower_bound(tk, c + Fraction(1, 1000)).ok:
                return "S_K bound is not exactly c"
        return None

    run("krein-quadruple", kre)

    def weak_full():
        if weak_friedrichs(s, c) != friedrichs(s, c):
            return "weak Friedrichs differs"
        if weak_krein(s, c) != krein(s, c):
            return "weak Krein differs"
        return None

    run("weak-equals-full", weak_full)

    def translation():
        lhs = friedrichs(shift(s, -c), 0)
        rhs = shift(friedrichs(s, c), -c)
        return None if lhs == rhs else "(S-c)_F != S_F - c"

    run("friedrichs-translation", translation)

    run("codding-identity", lambda: check_codding(s, c, krein(s, c)).witness)

    def mul_ext():
        if parts(krein(s, c)).mul != intersect(parts(shift(s, -c)).ran, parts(sstar).mul):
            return "mul S_K,c formula failed"
        if parts(friedrichs(s, c)).mul != parts(sstar).mul:
            return "mul S_F formula failed"
        return None

    run("mul-extensions", mul_ext)

    run(
        "order-krein-leq-friedrichs",
        lambda: None if order_leq(krein(s, c), friedrichs(s, c)).leq else "S_K,c > S_F",
    )

    def independence_ext():
        if friedrichs(s, c, method="quotient") != friedrichs(s, c):
            return "Friedrichs depends on the representing map"
        if krein(s, c, method="quotient") != krein(s, c):
            return "Krein depends on the representing map"
        return None

    run("repmap-independence-extensions", independence_ext)

    def extremal_ends():
        if not extremal_check(friedrichs(s, c), s, c):
            return "S_F not extremal"
        if not extremal_check(krein(s, c), s, c):
            return "S_K,c not extremal"
        return None

    run("extremal-endpoints", extremal_ends)

    def extremal_mid():
        for h in sample_extremal(s, c, 4, seed * 11 + 3):
            if not extremal_check(h, s, c):
                return "sampled extension not extremal: " + relation_witness(h)
            if not order_leq(krein(s, c), h).leq or not order_leq(h, friedrichs(s, c)).leq:
                return "sampled extremal extension escapes the order interval"
        return None

    run("extremal-intermediate", extremal_mid)

    def extremal_samples():
        # extremal_check internally cross-asserts the definitional and the
        # sandwich characterizations; running it on arbitrary selfadjoint
        # extensions exercises the equivalence on both outcomes.
        for h in engineered_nonextremal_extensions(s, c):
            if extremal_check(h, s, c):
                return "engineered non-extremal extension tested extremal: " + relation_witness(h)
        for h in sample_selfadjoint_extensions(s, 3, seed * 11 + 4):
            extremal_check(h, s, c)
        return None

    run("extremal-equivalence-samples", extremal_samples)

    def interval():
        for h in sample_selfadjoint_extensions(s, 5, seed * 11 + 5):
            if not extension_interval_check(s, c, h):
                return "order interval equivalence failed: " + relation_witness(h)
        return None

    run("order-interval-equivalence", interval)

    def operator_criterion():
        krein_is_operator(s, c)  # internally cross-asserted
        return None

    run("krein-operator-criterion", operator_criterion)

    def relations_of_form_agree():
        s_t, a_t = relations_of_form(q_ldl, c)
        if s_t != a_t:
            return "S_t != A_t for a closed representing map"
        if s_t != friedrichs(s, c):
            return "c + Q*Q differs from the Friedrichs extension"
        return None

    run("relations-of-form", relations_of_form_agree)

    def orthogonal_special():
        if not numerical_range_zero(s):
            return None  # vacuous for instances with nonzero numerical range
        p, ps = parts(s), parts(sstar)
        if friedrichs(s, 0) != product_relation(p.dom, ps.mul):
            return "S_F != dom S x mul S*"
        if krein(s, 0) != product_relation(ps.ker, p.ran):
            return "S_K != ker S* x ran S"
        for h in sample_selfadjoint_extensions(s, 3, seed * 11 + 6):
            if numerical_range_zero(h) != extremal_check(h, s, 0):
                return "W(H) = 0 does not match extremality: " + relation_witness(h)
        return None

    run("orthogonal-domain-range-special", orthogonal_special)

    if [r.name for r in results] != list(REQUIRED_CHECKS):
        raise CrossCheckError("the suite did not run the required checks in order")
    return results


# ------------------------------------------------------------------ suite


@dataclass(frozen=True)
class InstanceReport:
    spec: InstanceSpec
    c: Fraction
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)


def run_one(spec: InstanceSpec) -> InstanceReport:
    """Generate and check one instance in a fresh cache scope."""
    clear_memos()
    s, c = random_semibounded(spec)
    checks = verify_all(s, c, seed=spec.seed)
    return InstanceReport(spec, c, tuple(checks))


def suite_specs(count: int, dims: tuple[int, int], seed: int, entry_bound: int = 4) -> list[InstanceSpec]:
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
                entry_bound=entry_bound,
            )
        )
    return specs


def run_suite(count: int, dims: tuple[int, int], seed: int) -> list[InstanceReport]:
    return [run_one(sp) for sp in suite_specs(count, dims, seed)]
