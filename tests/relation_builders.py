"""Fixture builders the tests share: the paper-style examples E1 and E2,
relations and subspaces given whole, which no construction of the library
needs, and the free-variable null space, a reference the library no longer
builds."""

from fractions import Fraction

from relcalc.linalg import Mat, identity, mat, rref, vec, zeros
from relcalc.relations import LinearRelation, graph_relation, relation_from_pairs
from relcalc.spaces import InnerProductSpace, Subspace, span_mat, standard_space

_Q2, _Q3 = standard_space(2), standard_space(3)


def e1() -> LinearRelation:
    """E1: the graph spanned by {(1, 1), (1, 3)} in the plane."""
    return relation_from_pairs(_Q2, _Q2, [(vec([1, 1]), vec([1, 3]))])


def e2() -> LinearRelation:
    """E2: e1 -> e2 with domain span{e1} in Q^3, so dom S and ran S are orthogonal."""
    return relation_from_pairs(_Q3, _Q3, [(vec([1, 0, 0]), vec([0, 1, 0]))])


def full_subspace(space: InnerProductSpace) -> Subspace:
    return span_mat(space, identity(space.dim))


def operator_relation(src: InnerProductSpace, dst: InnerProductSpace, matrix: Mat, domain: Subspace | None = None) -> LinearRelation:
    """Graph of x -> matrix @ x, restricted to ``domain`` when given."""
    if matrix.rows != dst.dim or matrix.cols != src.dim:
        raise ValueError("operator matrix shape does not match spaces")
    basis = (full_subspace(src) if domain is None else domain).basis
    return graph_relation(src, dst, basis, basis.mul_t(matrix))


def identity_relation(space: InnerProductSpace) -> LinearRelation:
    return graph_relation(space, space, identity(space.dim), identity(space.dim))


def zero_relation(src: InnerProductSpace, dst: InnerProductSpace) -> LinearRelation:
    return relation_from_pairs(src, dst, [])


def scale(t: LinearRelation, a) -> LinearRelation:
    """a T = {{f, a g} : {f, g} in T}."""
    firsts, seconds = t.halves
    return graph_relation(t.src, t.dst, firsts, seconds.scale(a))


def free_variable_kernel(m: Mat) -> Mat:
    """The free-variable basis of {x : Mx = 0} as rows, from one ``rref``:
    per free column f in order, 1 at f and minus column f of the reduced
    rows at the pivots.  ``linalg.kernel`` reads its reduced echelon basis
    off a reversed elimination instead, so this is a second route to the
    same subspace."""
    red, pivots = rref(m)
    rows = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i, f]
        rows.append(v)
    return mat(rows) if rows else zeros(0, m.cols)
