"""Friedrichs and Krein type extensions, the selfadjoint order, and
extremal extensions.

Every headline object is computed by at least two independent formulas, its
routes, and ``agree`` compares them exactly, naming the routes that disagree.
That redundancy is the point of the artifact: the formulas come from
different parts of the theory and their agreement is the checked content.

Fractional powers never appear.  The square-root domains and ranges are
reached only through their exact surrogates ran Q_c* and dom J_c*.

Every construction at (S, c) has one gate, ``ldl_map(S, c)``, which also
builds the map that J_c comes from: ``form_of_relation`` raises
``PreconditionError`` unless S is symmetric, and ``repmap_ldl`` raises
``BoundCertificationError``, with the LDL^T witness, unless t(S) - c >= 0.
``order_leq`` is one more PSD decision, the verdict and witness of
``certify_lower_bound`` of the form t_K - t_H on dom t_K at 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import CrossCheckError, PreconditionError
from .forms import (
    QuadraticForm,
    certify_lower_bound,
    companion,
    form_of_relation,
    inequality_domain_subspace,
    is_nonneg_above,
    ldl_map,
    shifted_matrix,
)
from .linalg import Mat, Vec, echelon_coords, kernel, memo, rat, row_dots, solve, vstack, zeros
from .relations import (
    LinearRelation,
    adjoint,
    closure,
    compose,
    eigen_relation,
    eigenspace,
    graph_relation,
    hsum,
    inverse,
    is_selfadjoint,
    parts,
    product_relation,
    regular_part,
    restrict_domain,
    shift,
)
from .serialize import vector_witness
from .spaces import (
    InnerProductSpace,
    Subspace,
    complement,
    contains,
    intersect,
    row_outside,
    zero_subspace,
)


def selfadjoint_from_form(space: InnerProductSpace, basis: Mat, matrix: Mat) -> LinearRelation:
    """The selfadjoint relation H with dom H = D, the span of the k rows B of
    ``basis``, mul H = D-perp and (H phi, psi) = M = ``matrix`` in their
    coordinates: the span of the rows [B | M C] and [0 | kernel(B G)], in
    one elimination, with C = G_D^-1 B = ``solve(G_D, B)``, G_D = B G B^T.
    Any basis of D will do; rows that are not one make G_D singular, which
    shows as a kernel of B G with more than n - k rows."""
    if not matrix.is_symmetric():
        raise PreconditionError("a selfadjoint relation needs a symmetric form matrix")
    weighted = basis @ space.gram
    perp = kernel(weighted)
    if perp.rows != basis.cols - basis.rows:
        raise CrossCheckError("the Gram matrix of a basis is singular")
    lift_rows = matrix @ solve(weighted.mul_t(basis), basis)
    out = graph_relation(space, space, vstack(basis, zeros(perp.rows, basis.cols)), vstack(lift_rows, perp))
    if not is_selfadjoint(out):
        raise CrossCheckError("relation built from a symmetric form is not selfadjoint")
    return out


def _companion_product(s: LinearRelation, c: Fraction, repmap) -> LinearRelation:
    j = companion(s, repmap(s, c))
    return shift(compose(closure(j), adjoint(j)), c)


# The routes of ``friedrichs_from`` and ``krein_from``, in the order they
# run: functions of (S, c, repmap), repmap taking a (relation, base point)
# pair to a representing map Q_c of t(S) - c, ``ldl_map`` or ``repmap_quotient``.
FRIEDRICHS_ROUTES = {
    # (1) c + Q_c* Q_c** (``relations_of_form``)
    "repmap-product": lambda s, c, repmap: relations_of_form(repmap(s, c).as_relation(), c),
    # (2) the elements {f, g} of S* with f in dom S
    "adjoint-domain-membership": lambda s, c, repmap: restrict_domain(adjoint(s), parts(s).dom),
    # (3) the graph sum S +| ({0} x mul S*)
    "multivalued-graph-sum": lambda s, c, repmap: hsum(s, product_relation(zero_subspace(s.src), parts(adjoint(s)).mul)),
}
KREIN_ROUTES = {
    # (1) c + J_c** J_c*, J_c the companion relation of Q_c
    "companion-product": _companion_product,
    # (2) c + R* R** (``relations_of_form``), R = (J_c*)_reg
    "operator-part-product": lambda s, c, repmap: relations_of_form(regular_part(adjoint(companion(s, repmap(s, c)))), c),
    # (3) S +| N_c(S*), with the eigen-relation at c
    "eigenspace-graph-sum": lambda s, c, repmap: hsum(s, eigen_relation(adjoint(s), c)),
    # (4) c + (((S-c)^{-1})_F)^{-1}, the inner S_F from the same repmap
    "inverse-duality": lambda s, c, repmap: shift(inverse(friedrichs_from(inverse(shift(s, -c)), 0, repmap)), c),
}

# The routes each ``extend`` kind compares; a weak kind names those it stands for, then ``equals-<kind>``.
ROUTES = {
    "friedrichs": tuple(FRIEDRICHS_ROUTES),
    "weak-friedrichs": ("multivalued-graph-sum", "equals-friedrichs"),
    "krein": tuple(KREIN_ROUTES),
    "weak-krein": ("eigenspace-graph-sum", "companion-product", "equals-krein"),
}


def agree(what: str, names: tuple[str, ...], *values):
    """The common value of the routes ``names``; unless they all agree,
    CrossCheckError naming the routes grouped by the value they reached and,
    for relations or subspaces, a basis row that one of two groups lacks."""
    groups: dict = {}
    for name, value in zip(names, values, strict=True):
        groups.setdefault(value, []).append(name)
    if len(groups) > 1:
        where, (a, b) = "", [getattr(v, "graph", v) for v in list(groups)[:2]]
        if isinstance(a, Subspace) and a.space == b.space and a != b:
            i, x, y = (2, b, a) if contains(b, a) else (1, a, b)
            where = f"; row in group {i}, not in group {3 - i}: {vector_witness(row_outside(x, y))}"
        raise CrossCheckError(f"{what} disagree: " + " | ".join(", ".join(g) for g in groups.values()) + where)
    return values[0]


def friedrichs_from(s: LinearRelation, c, repmap) -> LinearRelation:
    """The Friedrichs extension at c from the maps ``repmap`` builds, where the
    routes of ``FRIEDRICHS_ROUTES`` agree; (2) and (3) use no map.  Its LDL^T
    case is memoized as ``friedrichs``; the other calls rarely repeat."""
    c = rat(c)
    out = agree("Friedrichs extension formulas", ROUTES["friedrichs"], *(r(s, c, repmap) for r in FRIEDRICHS_ROUTES.values()))
    if not is_selfadjoint(out) or not out.is_extension_of(s):
        raise CrossCheckError("Friedrichs extension is not a selfadjoint extension")
    if parts(out).mul != parts(adjoint(s)).mul:
        raise CrossCheckError("mul S_F must equal mul S*")
    if not certify_lower_bound(form_of_relation(out), c).ok:
        raise CrossCheckError("Friedrichs extension lost the lower bound")
    return out


@memo
def friedrichs(s: LinearRelation, c) -> LinearRelation:
    """Friedrichs extension, cross-checked three ways: ``friedrichs_from`` at
    the LDL^T map.  ``repmap-independence-extensions`` runs it at the quotient map."""
    return friedrichs_from(s, rat(c), ldl_map)


def weak_friedrichs(s: LinearRelation, c) -> LinearRelation:
    """S +| ({0} x mul S*): route (3) of ``friedrichs``, whose value it returns.

    At finite dimension dom S is closed, which is exactly the coincidence
    criterion for the weak and full extensions."""
    return friedrichs(s, c)


def krein_from(s: LinearRelation, c, repmap) -> LinearRelation:
    """The Krein type extension at c from the maps ``repmap`` builds, where
    the routes of ``KREIN_ROUTES`` agree; (3) uses no map.  Its LDL^T case
    is memoized as ``krein``; the other calls rarely repeat."""
    c = rat(c)
    out = agree("Krein type extension formulas", ROUTES["krein"], *(r(s, c, repmap) for r in KREIN_ROUTES.values()))
    if not is_selfadjoint(out) or not out.is_extension_of(s):
        raise CrossCheckError("Krein type extension is not a selfadjoint extension")
    if not certify_lower_bound(form_of_relation(out), c).ok:
        raise CrossCheckError("Krein type extension lost the lower bound")
    return out


@memo
def krein(s: LinearRelation, c) -> LinearRelation:
    """Krein type extension at c, cross-checked four ways: ``krein_from`` at
    the LDL^T map.  ``repmap-independence-extensions`` runs it at the quotient map."""
    return krein_from(s, rat(c), ldl_map)


def weak_krein(s: LinearRelation, c) -> LinearRelation:
    """S +| N_c(S*): route (3) of ``krein``, whose value it returns.  It is
    also c + J_c J_c*, route (1), since ``closure`` returns J_c itself.

    The coincidence criterion is ran(S-c) closed, which always holds at
    finite dimension."""
    return krein(s, c)


class OrderResult(NamedTuple):
    leq: bool
    witness: Vec | None  # vector in dom t_K with t_H[phi] > t_K[phi], or missing-domain witness


@memo
def order_leq(h: LinearRelation, k: LinearRelation) -> OrderResult:
    """The semibounded selfadjoint order: H <= K iff dom t_K is contained
    in dom t_H and t_H <= t_K on dom t_K.  At finite dimension the form
    domains are the operator domains."""
    for r in (h, k):
        if not is_selfadjoint(r):
            raise PreconditionError("order comparison requires selfadjoint relations")
    th = form_of_relation(h)
    tk = form_of_relation(k)
    if not contains(th.domain, tk.domain):
        return OrderResult(False, row_outside(tk.domain, th.domain))
    res = certify_lower_bound(QuadraticForm(tk.space, tk.domain, tk.matrix - th.restrict(tk.domain).matrix), 0)
    return OrderResult(res.ok, res.witness)


def extension_interval_check(s: LinearRelation, c, h: LinearRelation) -> bool:
    """Verify the order-interval equivalence for a selfadjoint extension H:

        H >= c  iff  S_K,c <= H <= S_F.

    Returns True when the two sides agree (they must; both are computed
    honestly and compared).  Every H is semibounded at finite dimension,
    so H <= S_F, the largest; ``CrossCheckError`` unless that holds, whether
    or not H >= c."""
    c = rat(c)
    if not h.is_extension_of(s):
        raise PreconditionError("interval check requires an extension of the base relation")
    if not is_selfadjoint(h):
        raise PreconditionError("interval check requires a selfadjoint extension")
    if not order_leq(h, friedrichs(s, c)).leq:
        raise CrossCheckError("a selfadjoint extension is not below the Friedrichs extension")
    return is_nonneg_above(h, c).ok == order_leq(krein(s, c), h).leq


def _definitional_extremal(h: LinearRelation, s: LinearRelation, c: Fraction) -> bool:
    """inf over {h0, h0'} in S of (t(H) - c)[f - h0] vanishes for every f.

    The minimizing set {f : inf = 0} equals span(dom S) + ker of the shifted
    form, a subspace, so checking the canonical basis of dom H suffices.
    The minimum itself is computed exactly from the normal equations
    C N C^T x_i = C N e_i, C the coordinates of the dom S basis rows in
    dom H, one solve for every unit vector at once: at e_i it is
    N_ii - (e_i^T N C^T) . x_i.
    """
    if not is_nonneg_above(h, c).ok:
        return False
    th = form_of_relation(h)
    n = shifted_matrix(th, c)
    cmat = echelon_coords(th.domain.basis, parts(s).dom.basis)
    if cmat is None:
        raise PreconditionError("dom S is not inside dom H")
    nc = n.mul_t(cmat)
    x = solve(cmat @ nc, nc.T)
    if x is None:
        raise CrossCheckError("the normal equations of a nonnegative form are inconsistent")
    for i, dot in enumerate(row_dots(nc, x.T)):
        minimum = n[i, i] - dot
        if minimum < 0:
            raise CrossCheckError("a nonnegative form has a negative infimum")
        if minimum != 0:
            return False
    return True


def _sandwich_extremal(h: LinearRelation, s: LinearRelation, c: Fraction) -> bool:
    """t_{S_F} and t_{S_K,c} sandwich t_H as form restrictions."""
    tf = form_of_relation(friedrichs(s, c))
    tk = form_of_relation(krein(s, c))
    th = form_of_relation(h)
    return tf.is_restriction_of(th) and th.is_restriction_of(tk)


@memo
def extremal_check(h: LinearRelation, s: LinearRelation, c) -> bool:
    """Extremality of a selfadjoint extension, by two independent routes
    whose agreement is asserted: the definitional quadratic infimum test
    and the form-restriction sandwich."""
    c = rat(c)
    ldl_map(s, c)
    if not h.is_extension_of(s):
        raise PreconditionError("extremality is relative to an extension")
    if not is_selfadjoint(h):
        raise PreconditionError("extremality requires a selfadjoint extension")
    by_def = _definitional_extremal(h, s, c)
    by_sandwich = _sandwich_extremal(h, s, c)
    return agree("extremality characterizations", ("definitional-infimum", "form-sandwich"), by_def, by_sandwich)


@memo
def extremal_from_domain(s: LinearRelation, c, d: Subspace) -> LinearRelation:
    """The extremal extension c + R_c* R_c** built from the restriction
    R_c of (J_c*)_reg to an intermediate domain dom S <= D <= dom J_c*."""
    c = rat(c)
    jstar = adjoint(companion(s, ldl_map(s, c)))
    reg = regular_part(jstar)
    dom_s = parts(s).dom
    dom_jstar = parts(jstar).dom
    if not (contains(d, dom_s) and contains(dom_jstar, d)):
        raise PreconditionError("domain must sit between dom S and dom J_c*")
    out = relations_of_form(restrict_domain(reg, d), c)
    if not is_selfadjoint(out) or not out.is_extension_of(s):
        raise CrossCheckError("extremal construction did not produce a selfadjoint extension")
    if not extremal_check(out, s, c):
        raise CrossCheckError("extremal construction failed its own extremality test")
    if d == dom_s and out != friedrichs(s, c):
        raise CrossCheckError("endpoint D = dom S must reproduce the Friedrichs extension")
    if d == dom_jstar and out != krein(s, c):
        raise CrossCheckError("endpoint D = dom J_c* must reproduce the Krein type extension")
    return out


def krein_is_operator(s: LinearRelation, c) -> bool:
    """Whether the Krein type extension at c is an operator: exactly when
    ran(S-c) and mul S* meet trivially; asserted against mul S_K,c and,
    when true, against the factorization S - c = (J_c J_c*) restricted to
    dom S."""
    c = rat(c)
    q = ldl_map(s, c)
    meet = intersect(parts(shift(s, -c)).ran, parts(adjoint(s)).mul)
    res = meet.dim == 0
    k = krein(s, c)
    agree("Krein operator criteria", ("range-mul-meet", "krein-mul"), res, parts(k).mul.dim == 0)
    if res:
        j = companion(s, q)
        factor = restrict_domain(compose(j, adjoint(j)), parts(s).dom)
        if factor != shift(s, -c):
            raise CrossCheckError("closable factorization S - c = J_c J_c* | dom S failed")
    return res


def krein_equals_friedrichs(s: LinearRelation, gamma) -> bool | None:
    """Decide S_K,gamma = S_F when gamma is the exactly attained rational
    lower bound; None means undecided (gamma certified but not attained).

    The criterion is ker(S* - c) meets dom J_gamma* trivially for some
    c < gamma; it is evaluated at c = gamma - 1, cross-checked against the
    direct graph comparison and against the sup-finiteness range test."""
    gamma = rat(gamma)
    q = ldl_map(s, gamma)
    if kernel(shifted_matrix(q.form, gamma)).rows == 0:
        # gamma is certified but not attained: the true bound is strictly
        # larger (or the domain is trivial) and rational arithmetic cannot
        # settle the question at gamma.
        return None
    c = gamma - 1
    j = companion(s, q)
    ker_c = eigenspace(adjoint(s), c)
    by_root_domain = intersect(ker_c, parts(adjoint(j)).dom).dim == 0
    by_graphs = krein(s, gamma) == friedrichs(s, gamma)
    by_sup = intersect(ker_c, inequality_domain_subspace(s, gamma)).dim == 0
    names = ("square-root-domain", "graph-comparison", "sup-finiteness")
    return agree("Krein-equals-Friedrichs criteria", names, by_root_domain, by_graphs, by_sup)


def relations_of_form(q: LinearRelation, c) -> LinearRelation:
    """The selfadjoint relation c + Q*Q** of the form that a (possibly
    multivalued) representing relation Q induces.

    For a singular Q, ran Q in mul Q, the explicit product formulas
    Q*Q = ker Q x (dom Q)-perp and Q_reg* Q_reg = dom Q x (dom Q)-perp are
    verified exactly.  ran Q is the span of the second halves of Q's graph
    rows, so Q is singular when they all lie in mul Q: no inverse of Q is
    eliminated for a regular one."""
    product = compose(adjoint(q), closure(q))
    p = parts(q)
    if echelon_coords(p.mul.basis, q.halves[1]) is not None:
        if product != product_relation(p.ker, complement(p.dom)):
            raise CrossCheckError("singular product formula Q*Q = ker Q x (dom Q)-perp failed")
        reg = regular_part(q)
        if compose(adjoint(reg), reg) != product_relation(p.dom, complement(p.dom)):
            raise CrossCheckError("regular-part product formula failed")
    return shift(product, rat(c))
