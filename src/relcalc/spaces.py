"""Inner-product spaces with explicit rational Gram matrices, and canonical
subspace arithmetic inside them.

A subspace is stored as the unique reduced row echelon basis of its span,
as the rows of a k x dim matrix, so subspace equality is plain data
equality.  Each canonical subspace comes from one elimination: ``rref``
for a span or a sum, ``linalg.kernel`` for a complement, and
``linalg.zassenhaus`` on the stored basis rows for an intersection;
membership (``contains``, or ``echelon_coords`` of the rows of a ``Mat``
for vectors, and ``row_outside``, the first basis row that another
subspace lacks) reads coordinates off the echelon rows and runs none.
Orthogonal complements and projections always go through the ambient
Gram matrix: representing-map codomains carry weighted inner products,
and the weighted pairing is what keeps every construction rational.

``Subspace`` is the one door for a canonical basis, and it stores the
basis through ``linalg.interned``: equal subspaces share one live basis
object, however many routes and memos reach them, and the weak table
frees it with the last subspace that holds it.

Every Gram is certified once, where it enters, by the ``InnerProductSpace``
constructor: symmetry, and a verified LDL^T certificate with L unit lower
triangular and every D > 0.  The constructor runs ``ldl_psd_certificate``
itself unless it is given a certificate, which it then verifies.
``forms.repmap_ldl`` gives one: the leading block of the certificate of
its form, which its Gram A[P, P] must reproduce.  (On 610 of 610
``repmap_ldl`` calls, 16 seed-0 ``extend-large`` items and the 200 seed-0
``check`` instances, a second elimination of A[P, P] returned exactly that
block: the identity perm, the same D and the same L.)  The one exception
is ``product_space``: its Gram is positive definite by the lemma stated
there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import AmbientMismatchError, CrossCheckError
from .linalg import (
    Mat,
    PsdCertificate,
    Value,
    Vec,
    block_diag,
    echelon_coords,
    identity,
    interned,
    is_reduced_echelon,
    kernel,
    ldl_psd_certificate,
    mat,
    memo,
    rref,
    solve,
    vec,
    vstack,
    zassenhaus,
    zeros,
)

_rref_body = rref.__wrapped__  # taken once, so a rebound ``rref`` (a tracer's wrapper) cannot reach the memo


class InnerProductSpace(Value):
    """Finite-dimensional space with inner product (x, y) = x^T G y.

    The Gram is certified positive definite by an LDL^T certificate with
    L unit lower triangular and every D > 0 (``is_definite``).  Without
    ``certificate`` the constructor runs ``ldl_psd_certificate``, whose
    result is verified inside; a given certificate, such as the block that
    ``forms.repmap_ldl`` takes from its form's, is verified here instead.
    It hashes as its Gram, which fixes it."""

    __slots__ = _fields = ("dim", "gram")

    def __init__(self, dim: int, gram: Mat, certificate: PsdCertificate | None = None) -> None:
        if gram.rows != dim or gram.cols != dim:
            raise ValueError("Gram matrix must be dim x dim")
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        if certificate is None:
            certificate = ldl_psd_certificate(gram).certificate
        elif not certificate.verify(gram):
            raise ValueError("the LDL^T certificate does not reproduce the Gram matrix")
        if certificate is None or not certificate.is_definite():
            raise ValueError("Gram matrix must be positive definite")
        super().__init__(dim, gram)

    def __hash__(self) -> int:
        return hash(self.gram)


def standard_space(dim: int) -> InnerProductSpace:
    return InnerProductSpace(dim, identity(dim))


@memo
def product_space(h: InnerProductSpace, k: InnerProductSpace) -> InnerProductSpace:
    """H (+) K with the graph inner product: its Gram is G_H (+) G_K.

    This is the one space built without the constructor's certificate.
    Both factors were certified, and for x = x_H (+) x_K != 0,
    x^T (G_H (+) G_K) x = x_H^T G_H x_H + x_K^T G_K x_K > 0, since at least
    one part is nonzero.  By induction every space is positive definite.
    """
    space = object.__new__(InnerProductSpace)
    Value.__init__(space, h.dim + k.dim, block_diag(h.gram, k.gram))
    return space


class Subspace(Value):
    """Canonical subspace of an ambient space.

    ``basis`` is k x dim, its rows the reduced row echelon basis, which is
    unique per subspace: two Subspace values are equal iff they are the
    same subspace of the same ambient space.  The zero subspace has a
    0-row basis.  Membership reads coordinates off the leading 1s, so a
    basis in any other form is a ``ValueError``.  It hashes as its basis;
    ``==`` compares the space too.  The basis it stores is
    ``interned(basis)``, the one live ``Mat`` equal to it, so equal
    subspaces share their basis object.
    """

    __slots__ = _fields = ("space", "basis")

    def __init__(self, space: InnerProductSpace, basis: Mat) -> None:
        if basis.cols != space.dim:
            raise ValueError("basis vectors must live in the ambient space")
        if not is_reduced_echelon(basis):
            raise ValueError("a subspace basis must be the reduced echelon rows of its span")
        super().__init__(space, interned(basis))

    def __hash__(self) -> int:
        return hash(self.basis)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.basis.rows == 0


def span(space: InnerProductSpace, vectors: Iterable[Sequence[Fraction]]) -> Subspace:
    """Canonical subspace spanned by the given ambient vectors."""
    rows = [vec(v) for v in vectors]
    if any(len(v) != space.dim for v in rows):
        raise ValueError("spanning vector has wrong length")
    return span_mat(space, mat(rows) if rows else zeros(0, space.dim))


def span_mat(space: InnerProductSpace, rows: Mat) -> Subspace:
    """Canonical subspace spanned by the rows: the nonzero rows of their RREF,
    from the memo's own body ``_rref_body``, since the rows are fresh and a
    caller that spans the same rows again is memoized itself."""
    red, pivots = _rref_body(rows)
    return Subspace(space, red.take(range(len(pivots))))


def zero_subspace(space: InnerProductSpace) -> Subspace:
    return Subspace(space, zeros(0, space.dim))


def _check_same_ambient(v: Subspace, w: Subspace) -> None:
    if v.space != w.space:
        raise AmbientMismatchError("subspaces live in different ambient spaces")


@memo
def complement(w: Subspace) -> Subspace:
    """G-orthogonal complement {x : b^T G x = 0 for all basis vectors b}."""
    return Subspace(w.space, kernel(w.basis @ w.space.gram))


@memo
def intersect(v: Subspace, w: Subspace) -> Subspace:
    """{y^T B_v : y^T B_v = z^T B_w}, over the coefficients [y; z] of both
    bases: the Zassenhaus rows [B_v | B_v] and [-B_w | 0]."""
    _check_same_ambient(v, w)
    if v.is_zero() or w.is_zero():
        return zero_subspace(v.space)
    n = v.space.dim
    return Subspace(v.space, zassenhaus(n, 2 * n, (v.basis, (0, 1, 0, n), (n, 1, 0, n)), (w.basis, (0, -1, 0, n))))


@memo
def subspace_sum(v: Subspace, w: Subspace) -> Subspace:
    _check_same_ambient(v, w)
    return span_mat(v.space, vstack(v.basis, w.basis))


def extending(w: Subspace, vectors: Mat) -> Mat:
    """The rows of ``vectors`` that each enlarge w plus the rows kept
    before them.

    This is the greedy extension of a basis of w, read off the pivot
    columns of one RREF of the matrix whose columns are the basis of w and
    then the vectors."""
    _, pivots = rref(vstack(w.basis, vectors).T)
    return vectors.take([j - w.dim for j in pivots if j >= w.dim])


@memo
def contains(w: Subspace, v: Subspace) -> bool:
    """True when v is a subspace of w, read off the echelon rows of w."""
    _check_same_ambient(v, w)
    return echelon_coords(w.basis, v.basis) is not None


def row_outside(v: Subspace, w: Subspace) -> Vec:
    """The first echelon basis row of v that w lacks; v must not lie in w."""
    b = v.basis
    return next(b.row(r) for r in range(b.rows) if echelon_coords(w.basis, b.take([r])) is None)


def projections(xs: Mat, w: Subspace) -> Mat:
    """Row j is the G-orthogonal projection of row j of xs onto w, whose
    coefficients in the basis B of w are column j of X, G_w X = B G xs^T."""
    if xs.cols != w.space.dim:
        raise ValueError("vector has wrong length")
    if w.is_zero():
        return zeros(xs.rows, xs.cols)
    coeffs = solve(gram_on(w), (w.basis @ w.space.gram).mul_t(xs))
    if coeffs is None:
        raise CrossCheckError("the Gram matrix of a basis is singular")
    return coeffs.T @ w.basis


@memo
def gram_on(w: Subspace) -> Mat:
    """Gram matrix of the ambient inner product in the canonical basis of w."""
    return (w.basis @ w.space.gram).mul_t(w.basis)
