"""The calculus of linear relations.

A linear relation from H to K is identified with its graph, a canonical
subspace of H (+) K.  Multivalued parts, non-dense domains and purely
multivalued relations are all first-class citizens here; an operator is
just a relation with trivial multivalued part.  At finite dimension every
relation is closed, so closure is the identity map; it is still exposed so
that double-adjoint formulas transcribe verbatim and the degeneracy is
checked rather than hidden.

T* is the one adjoint null space that is computed; the predicates on it are
certified by products, not by a second null space.  Every Gram is positive
definite (``InnerProductSpace``), so the Green pairing of H (+) K with
K (+) H, <{f, g}, {h, k}> = (g, h)_K - (f, k)_H, is nondegenerate, T* is
the annihilator of T under it, and dim T* = dim H + dim K - dim T (Arens).
Its products are formed once per relation, on first reading, and kept like
``halves``, outside ``clear_memos``: the weighted halves ``wf`` = f G_H and
``wg`` = g G_K of the graph rows {f_i, g_i}, and on H the ``pairing``
P[i][j] = (g_i, f_j).  ``adjoint`` is the null space of the rows
[wg | -wf], ``closure`` checks T** = T as one zero product of those rows
with T*'s graph rows plus that dimension count, ``is_symmetric`` checks
S in S* as the symmetry of P, and ``is_selfadjoint`` adds dim S = dim H,
since a maximal symmetric relation is selfadjoint.  Blocks of P are the
form matrix and its cross term in ``forms``, and ``wg`` gives the sampler
in ``harness`` the pairings of S with the rows it adds to dom S.

``compose``, ``rel_sum`` and ``eigenspace`` are each one ``zassenhaus``;
a restriction to D is the composition with the identity on D (Arens).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import AmbientMismatchError, CrossCheckError, PreconditionError
from .linalg import (
    Mat,
    Value,
    block_diag,
    echelon_coords,
    hstack,
    memo,
    nonzero_rows,
    pairing_null_space,
    rat,
    zassenhaus,
)
from .spaces import (
    InnerProductSpace,
    Subspace,
    contains,
    product_space,
    projections,
    span,
    span_mat,
    subspace_sum,
)


class LinearRelation(Value):
    """A (possibly multivalued, possibly non-densely-defined) linear relation.

    It hashes as its graph basis; ``==`` compares the spaces too."""

    _fields = ("src", "dst", "graph")

    def __init__(self, src: InnerProductSpace, dst: InnerProductSpace, graph: Subspace) -> None:
        if graph.space != product_space(src, dst):
            raise ValueError("graph must live in the product of src and dst")
        super().__init__(src, dst, graph)

    def __hash__(self) -> int:
        return hash(self.graph.basis)

    @cached_property
    def halves(self) -> tuple[Mat, Mat]:
        """The graph basis split into its first and its second components:
        the rows of the two matrices are the f and the g of each basis
        pair.  ``graph_relation`` is the inverse.  The first half is in
        reduced echelon form up to zero rows, the pairs {0, g} last.
        Split on first reading and kept, outside the fields."""
        basis = self.graph.basis
        every, n = range(basis.rows), self.src.dim
        return basis.take(every, range(n)), basis.take(every, range(n, basis.cols))

    # The Green pairing products of the graph rows (module docstring).
    wf = cached_property(lambda self: self.halves[0] @ self.src.gram)
    wg = cached_property(lambda self: self.halves[1] @ self.dst.gram)
    pairing = cached_property(lambda self: self.wg.mul_t(self.halves[0]))

    def is_extension_of(self, other: "LinearRelation") -> bool:
        _same_spaces(self, other)
        return contains(self.graph, other.graph)


def _same_spaces(a: LinearRelation, b: LinearRelation) -> None:
    if a.src != b.src or a.dst != b.dst:
        raise AmbientMismatchError("relations act between different spaces")


def graph_relation(src: InnerProductSpace, dst: InnerProductSpace, firsts: Mat, seconds: Mat) -> LinearRelation:
    """The relation whose graph is spanned by the rows {f_j, g_j}, f_j the
    row j of ``firsts`` and g_j that of ``seconds``."""
    return LinearRelation(src, dst, span_mat(product_space(src, dst), hstack(firsts, seconds)))


def echelon_relation(src: InnerProductSpace, dst: InnerProductSpace, basis: Mat) -> LinearRelation:
    """The relation whose graph has the rows of ``basis`` [f | g] as its
    reduced echelon basis, for rows already in that form: no elimination
    runs, and ``Subspace`` rejects rows in any other form with
    ``ValueError``."""
    return LinearRelation(src, dst, Subspace(product_space(src, dst), basis))


def relation_from_pairs(
    src: InnerProductSpace,
    dst: InnerProductSpace,
    pairs: Iterable[tuple[Sequence[Fraction], Sequence[Fraction]]],
) -> LinearRelation:
    pairs = list(pairs)
    if any(len(f) != src.dim or len(g) != dst.dim for f, g in pairs):
        raise ValueError("component lengths do not match factors")
    return LinearRelation(src, dst, span(product_space(src, dst), [[*f, *g] for f, g in pairs]))


def product_relation(x: Subspace, y: Subspace) -> LinearRelation:
    """The relation X x Y, whose graph is all pairs {x, y}: the rows of
    diag(B_X, B_Y), already in reduced echelon form."""
    return echelon_relation(x.space, y.space, block_diag(x.basis, y.basis))


class RelationParts:
    """dom, ran, ker and mul of T, with no elimination of T's own graph.

    dom and mul are read off T's reduced echelon graph basis when the parts
    are made: its rows that pivot in the first half come first, and their
    first halves are the reduced echelon basis of dom T; the other rows
    are {0, g}, and their second halves are that of mul T, since no
    combination of the first rows has a zero first half.  ran T = dom T^-1
    and ker T = mul T^-1 (Arens) are read the same way off the inverse's
    graph, one elimination, on first reading, and then kept."""

    def __init__(self, t: LinearRelation) -> None:
        firsts, seconds = t.halves
        k = nonzero_rows(firsts)
        self.dom = Subspace(t.src, firsts.take(range(k)))
        self.mul = Subspace(t.dst, seconds.take(range(k, seconds.rows)))
        self._t = t

    @cached_property
    def _of_inverse(self) -> RelationParts:
        return parts(inverse(self._t))

    @property
    def ran(self) -> Subspace:
        return self._of_inverse.dom

    @property
    def ker(self) -> Subspace:
        return self._of_inverse.mul


@memo
def parts(t: LinearRelation) -> RelationParts:
    """The parts of T: dom and mul at once, ran and ker when first read."""
    return RelationParts(t)


def lifts(t: LinearRelation, xs: Mat) -> Mat:
    """Row j is some g with {x_j, g} in t, x_j the row j of xs; requires
    every x_j in dom t.  The coefficients of the graph pairs are read off
    the echelon first half (``halves``): 0 for each pair {0, g}."""
    firsts, seconds = t.halves
    combos = echelon_coords(firsts, xs)
    if combos is None:
        raise PreconditionError("vector is not in the domain of the relation")
    return combos @ seconds


@memo
def adjoint(t: LinearRelation) -> LinearRelation:
    """T* = {{h, k} : (g, h)_K = (f, k)_H for all {f, g} in T}.

    Both Gram matrices enter the pairing; with weighted codomains this is
    what makes the dual-pair identities hold exactly.  T* is the null space
    of the Green pairing rows [g G_K | -f G_H] over T's graph basis (Arens),
    one ``pairing_null_space`` of T's weighted halves, with its sign here.
    """
    # The rows of the null space are the pairs [h | k], h in dst, k in src.
    return LinearRelation(t.dst, t.src, Subspace(product_space(t.dst, t.src), pairing_null_space(t.wg, t.wf)))


@memo
def inverse(t: LinearRelation) -> LinearRelation:
    """{{g, f}}: the span of the graph rows [g | f]."""
    firsts, seconds = t.halves
    return graph_relation(t.dst, t.src, seconds, firsts)


@memo
def shift(t: LinearRelation, c: Fraction | int | str) -> LinearRelation:
    """shift(T, c) = {{f, g + c f}}, so T - c is shift(T, -c): the span of
    the graph rows [f | g + c f]."""
    if t.src != t.dst:
        raise PreconditionError("shift requires equal source and target spaces")
    firsts, seconds = t.halves
    return graph_relation(t.src, t.dst, firsts, seconds + firsts.scale(c))


def closure(t: LinearRelation) -> LinearRelation:
    """Closure of the graph; the identity at finite dimension, certified.

    T** = T holds iff the computed T* = {h, k} pairs to zero with T,
    (g, h)_K = (f, k)_H over both graph bases, and dim T + dim T* =
    dim H + dim K: by the nondegeneracy of the Green pairing, T is then all
    of the annihilator of T*.  One product, of the joined rows [wg | -wf]
    with T*'s graph rows [h | k], and a count: no second ``adjoint``."""
    star = adjoint(t)
    green = hstack(t.wg, t.wf.scale(-1))
    if t.graph.dim + star.graph.dim != t.src.dim + t.dst.dim or not green.mul_t(star.graph.basis).is_zero():
        raise CrossCheckError("T** differs from T: the closure is not the identity")
    return t


@memo
def compose(r: LinearRelation, t: LinearRelation) -> LinearRelation:
    """R after T: {{f, g} : exists k with {f, k} in T and {k, g} in R}.

    With T's graph basis rows {F_T, K_T} and R's {K_R, G_R}, this is
    {{y^T F_T, z^T G_R} : y^T K_T = z^T K_R} (Arens), eliminated from the
    Zassenhaus rows [K_T | F_T | 0] and [-K_R | 0 | G_R].  Exact, no
    tolerance anywhere.
    """
    if t.dst != r.src:
        raise AmbientMismatchError("compose requires target of T to equal source of R")
    n, k, m = t.src.dim, t.dst.dim, r.dst.dim
    t_rows = (t.graph.basis, (0, 1, n, n + k), (k, 1, 0, n))
    r_rows = (r.graph.basis, (0, -1, 0, k), (k + n, 1, k, k + m))
    return echelon_relation(t.src, r.dst, zassenhaus(k, k + n + m, t_rows, r_rows))


def hsum(a: LinearRelation, b: LinearRelation) -> LinearRelation:
    """Graph sum: the span of the union of the two graphs."""
    _same_spaces(a, b)
    return LinearRelation(a.src, a.dst, subspace_sum(a.graph, b.graph))


def rel_sum(a: LinearRelation, b: LinearRelation) -> LinearRelation:
    """Componentwise sum {{f, g + h} : {f, g} in A, {f, h} in B}.

    This is the operator-style sum (shared first component), not the graph
    span; it is the sum under which a relation recombines from its regular
    and singular parts.  Over the graph basis rows {F_A, G_A} and
    {F_B, G_B} it is {{y^T F_A, y^T G_A + z^T G_B} : y^T F_A = z^T F_B},
    from the Zassenhaus rows [F_A | F_A G_A] and [-F_B | 0 G_B].
    """
    _same_spaces(a, b)
    n, m = a.src.dim, a.dst.dim
    a_rows = (a.graph.basis, (0, 1, 0, n), (n, 1, 0, n + m))
    b_rows = (b.graph.basis, (0, -1, 0, n), (2 * n, 1, n, n + m))
    return echelon_relation(a.src, a.dst, zassenhaus(n, 2 * n + m, a_rows, b_rows))


@memo
def restrict_domain(t: LinearRelation, d: Subspace) -> LinearRelation:
    """T restricted to D: graph elements whose first component lies in D,
    the product T I_D (``compose``) with the identity on D, whose graph
    rows [B_D | B_D] are already in reduced echelon form."""
    if d.space != t.src:
        raise AmbientMismatchError("restriction subspace must live in the source space")
    return compose(t, echelon_relation(d.space, d.space, hstack(d.basis, d.basis)))


@memo
def regular_part(t: LinearRelation) -> LinearRelation:
    """(I - P) T with P the orthogonal projection onto mul T; an operator.

    Its graph basis is the first dom T rows of [F | G - P G]: the others are
    {0, g} with g in mul T, so they vanish, and the kept rows are in reduced
    echelon form with F's."""
    p = parts(t)
    dom_seconds = t.halves[1].take(range(p.dom.dim))
    return echelon_relation(t.src, t.dst, hstack(p.dom.basis, dom_seconds - projections(dom_seconds, p.mul)))


def singular_part(t: LinearRelation) -> LinearRelation:
    """P T with P the orthogonal projection onto mul T."""
    firsts, seconds = t.halves
    return graph_relation(t.src, t.dst, firsts, projections(seconds, parts(t).mul))


@memo
def eigenspace(t: LinearRelation, c: Fraction | int | str) -> Subspace:
    """ker(T - c) = {h : {h, c h} in T} as a subspace of the source space:
    {x^T F : x^T (G - c F) = 0}, with c = p/q from the Zassenhaus rows
    [q G - p F | q F]."""
    if t.src != t.dst:
        raise PreconditionError("eigenspace requires equal source and target spaces")
    n, c = t.src.dim, rat(c)
    p, q = c.numerator, c.denominator
    return Subspace(t.src, zassenhaus(n, 2 * n, (t.graph.basis, (0, q, n, 2 * n), (0, -p, 0, n), (n, q, 0, n))))


def eigen_relation(t: LinearRelation, c: Fraction | int | str) -> LinearRelation:
    """The graph {{h, c h} : h in ker(T - c)}, whose basis is [E | c E]
    for the echelon basis E of the eigenspace."""
    ev = eigenspace(t, c).basis
    return echelon_relation(t.src, t.src, hstack(ev, ev.scale(c)))


@memo
def is_symmetric(s: LinearRelation) -> bool:
    """S in S*: (g_i, f_j) = (f_i, g_j) for all graph rows {f_i, g_i}, that
    is, the relation's ``pairing`` is symmetric, and by the nondegeneracy
    of the Green pairing the same as ``adjoint(s).is_extension_of(s)``."""
    if s.src != s.dst:
        raise PreconditionError("symmetry requires equal source and target spaces")
    return s.pairing.is_symmetric()


def is_selfadjoint(s: LinearRelation) -> bool:
    """S = S*: S symmetric with dim S = dim H.  S in S* and, by the
    nondegeneracy of the Green pairing, dim S* = 2 dim H - dim S, so the
    two are equal exactly when dim S = dim H."""
    if s.src != s.dst:
        raise PreconditionError("selfadjointness requires equal source and target spaces")
    return s.graph.dim == s.src.dim and is_symmetric(s)


def numerical_range_zero(s: LinearRelation) -> bool:
    """W(S) = {0}, equivalently dom S orthogonal to ran S: the ``pairing``
    is zero, since P[i][j] = (g_i, f_j), the f_j span dom S and the g_i
    span ran S."""
    if s.src != s.dst:
        raise PreconditionError("numerical range requires equal source and target spaces")
    return s.pairing.is_zero()
