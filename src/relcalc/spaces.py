"""Inner-product spaces with explicit rational Gram matrices, and canonical
subspace arithmetic inside them.

A subspace is stored as the unique reduced row echelon basis of its span,
so subspace equality is plain data equality.  Orthogonal complements and
projections always go through the ambient Gram matrix: representing-map
codomains carry weighted inner products, and the weighted pairing is what
keeps every construction rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import AmbientMismatchError, CrossCheckError
from .linalg import (
    Mat,
    Vec,
    from_cols,
    hstack,
    identity,
    kernel,
    ldl_psd_certificate,
    block_diag,
    memo,
    rref,
    solve,
    solve_mat,
    vec,
    vstack,
    zeros,
)


@dataclass(frozen=True)
class InnerProductSpace:
    """Finite-dimensional space with inner product (x, y) = x^T G y."""

    dim: int
    gram: Mat

    def __post_init__(self) -> None:
        if self.gram.rows != self.dim or self.gram.cols != self.dim:
            raise ValueError("Gram matrix must be dim x dim")
        if not self.gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        res = ldl_psd_certificate(self.gram)
        if not res.ok or any(d == 0 for d in res.certificate.diag):
            raise ValueError("Gram matrix must be positive definite")

    def inner(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        gx = self.gram.mul_vec(x)
        return sum((a * b for a, b in zip(gx, y)), Fraction(0))

    def zero_vec(self) -> Vec:
        return tuple(Fraction(0) for _ in range(self.dim))


def standard_space(dim: int) -> InnerProductSpace:
    return InnerProductSpace(dim, identity(dim))


@dataclass(frozen=True)
class ProductSpace:
    """H (+) K with the graph inner product: Gram is block diagonal."""

    left: InnerProductSpace
    right: InnerProductSpace

    @property
    def space(self) -> InnerProductSpace:
        return _product_ips(self.left, self.right)

    def embed(self, f: Sequence[Fraction], g: Sequence[Fraction]) -> Vec:
        if len(f) != self.left.dim or len(g) != self.right.dim:
            raise ValueError("component lengths do not match factors")
        return vec(f) + vec(g)

    def split(self, v: Sequence[Fraction]) -> tuple[Vec, Vec]:
        n = self.left.dim
        return vec(v[:n]), vec(v[n:])


@memo
def _product_ips(left: InnerProductSpace, right: InnerProductSpace) -> InnerProductSpace:
    return InnerProductSpace(left.dim + right.dim, block_diag(left.gram, right.gram))


@dataclass(frozen=True)
class Subspace:
    """Canonical subspace of an ambient space.

    ``basis`` is dim x k with columns forming a basis.  The stored basis is
    the RREF of the transposed spanning set, which is unique per subspace:
    two Subspace values are equal iff they are the same subspace of the
    same ambient space.  The zero subspace has a 0-column basis.
    """

    space: InnerProductSpace
    basis: Mat

    def __post_init__(self) -> None:
        if self.basis.rows != self.space.dim:
            raise ValueError("basis vectors must live in the ambient space")

    @property
    def dim(self) -> int:
        return self.basis.cols

    def basis_vectors(self) -> list[Vec]:
        return [self.basis.col(j) for j in range(self.basis.cols)]

    def is_zero(self) -> bool:
        return self.basis.cols == 0


def span(space: InnerProductSpace, vectors: Iterable[Sequence[Fraction]]) -> Subspace:
    """Canonical subspace spanned by the given ambient vectors."""
    cols = [vec(v) for v in vectors]
    if any(len(v) != space.dim for v in cols):
        raise ValueError("spanning vector has wrong length")
    return span_mat(space, from_cols(space.dim, cols))


def span_mat(space: InnerProductSpace, columns: Mat) -> Subspace:
    """Canonical subspace spanned by the columns."""
    return image_where(space, columns, zeros(0, columns.cols))


def image_where(space: InnerProductSpace, a: Mat, b: Mat) -> Subspace:
    """The canonical subspace {a x : b x = 0}, from one RREF.

    Row j of the eliminated matrix is [b x_j | a x_j] for the unit vector
    x_j, so its row space is {[b x | a x]}.  The RREF rows that pivot at or
    beyond ``b.rows`` are zero on the b-part, and their a-parts span
    {a x : b x = 0}; every other row has a nonzero pivot in the b-part that
    no kept row can cancel.  RREF rows are sorted by pivot and reduced in
    every pivot column, so those a-parts are already the reduced echelon
    basis.  This is Zassenhaus' construction; with ``b`` empty it is the
    span of the columns of ``a``.
    """
    red, pivots = rref(vstack(b, a).T)
    kept = red.take([i for i, p in enumerate(pivots) if p >= b.rows]).T
    return Subspace(space, kept.take(range(b.rows, kept.rows)))


def zero_subspace(space: InnerProductSpace) -> Subspace:
    return span(space, [])


def full_subspace(space: InnerProductSpace) -> Subspace:
    return span_mat(space, identity(space.dim))


def _check_same_ambient(v: Subspace, w: Subspace) -> None:
    if v.space != w.space:
        raise AmbientMismatchError("subspaces live in different ambient spaces")


@memo
def complement(w: Subspace) -> Subspace:
    """G-orthogonal complement {x : x^T G b = 0 for all basis vectors b}."""
    conditions = w.basis.T @ w.space.gram  # k x dim
    return span_mat(w.space, kernel(conditions))


@memo
def intersect(v: Subspace, w: Subspace) -> Subspace:
    """{B_v y : B_v y = B_w z}, over the coefficients [y; z] of both bases."""
    _check_same_ambient(v, w)
    if v.is_zero() or w.is_zero():
        return zero_subspace(v.space)
    a = hstack(v.basis, zeros(v.space.dim, w.dim))
    return image_where(v.space, a, hstack(v.basis, w.basis.scale(-1)))


@memo
def subspace_sum(v: Subspace, w: Subspace) -> Subspace:
    _check_same_ambient(v, w)
    return span_mat(v.space, hstack(v.basis, w.basis))


def extending(w: Subspace, vectors: Iterable[Sequence[Fraction]]) -> list[Vec]:
    """The vectors that each enlarge w plus the vectors kept before them.

    This is the greedy extension of a basis of w, read off the pivot
    columns of one RREF of [basis of w | vectors]."""
    vectors = [vec(v) for v in vectors]
    _, pivots = rref(hstack(w.basis, from_cols(w.space.dim, vectors)))
    return [vectors[j - w.dim] for j in pivots if j >= w.dim]


def contains(w: Subspace, v: Subspace) -> bool:
    """True when v is a subspace of w."""
    _check_same_ambient(v, w)
    return subspace_sum(w, v) == w


def coordinates(x: Sequence[Fraction], w: Subspace) -> Vec | None:
    """Coordinates of x in the canonical basis of w, or None when x is outside."""
    return solve(w.basis, vec(x))


def member(x: Sequence[Fraction], w: Subspace) -> bool:
    return coordinates(x, w) is not None


def projections(xs: Mat, w: Subspace) -> Mat:
    """Column j is the G-orthogonal projection of column j of xs onto w,
    from one solve of the exact normal equations for all columns."""
    if xs.rows != w.space.dim:
        raise ValueError("vector has wrong length")
    if w.is_zero():
        return zeros(xs.rows, xs.cols)
    b = w.basis
    bg = b.T @ w.space.gram
    coeffs = solve_mat(bg @ b, bg @ xs)
    if coeffs is None:
        raise CrossCheckError("the Gram matrix of a basis is singular")
    return b @ coeffs


def project(x: Sequence[Fraction], w: Subspace) -> Vec:
    """G-orthogonal projection of x onto w."""
    if len(x) != w.space.dim:
        raise ValueError("vector has wrong length")
    return projections(from_cols(w.space.dim, [x]), w).col(0)


@memo
def gram_on(w: Subspace) -> Mat:
    """Gram matrix of the ambient inner product in the canonical basis of w."""
    return w.basis.T @ w.space.gram @ w.basis
