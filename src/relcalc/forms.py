"""Quadratic forms of semibounded relations and their representing maps.

The central objects: the form t(S)[phi, psi] = (phi', psi) of a symmetric
relation, exact lower-bound certificates for it, and two independent
constructions of a representing map Q_c with

    (t(S) - c)[phi, psi] = (Q_c phi, Q_c psi)  in a weighted codomain.

No square roots are ever taken: the codomain Gram matrix carries the
weights, the block of M - cG at its LDL^T pivots for ``repmap_ldl`` and
the induced quotient product for ``repmap_quotient``, which keeps every
certificate identity inside the rational field.  Each representing map
has a companion relation J_c = {{Q_c phi, phi'-c phi}}, an exact dual pair.

Whether t - c >= 0 has two independent formulas: the verified pivoted
LDL^T certificate of M - cG, and the sign pattern of the real-rooted
polynomial det(M - cG) shifted to c (``pencil_psd``).  The first has one
door, ``certify_lower_bound``; its ``linalg.PsdResult`` is also the
verdict of ``is_nonneg_above``, whose witness is a graph pair {phi, phi'}.
``bound_bisect`` decides every point it tests by the second and
cross-checks the first at both ends of the bracket it returns; Newton
steps from below the bound, enclosed in [x + d, x + k d], pick the points
for floor(gamma), the bracket and the float estimate alike.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import BoundCertificationError, CrossCheckError, PreconditionError
from .linalg import (
    Mat,
    PsdCertificate,
    PsdResult,
    Value,
    det,
    echelon_coords,
    hstack,
    identity,
    kernel,
    ldl_psd_certificate,
    mat,
    memo,
    rank,
    rat,
    rref,
    solve,
    vstack,
    zassenhaus,
    zeros,
)
from .relations import (
    LinearRelation,
    adjoint,
    echelon_relation,
    eigenspace,
    graph_relation,
    inverse,
    is_symmetric,
    lifts,
    parts,
    regular_part,
    shift,
)
from .spaces import (
    InnerProductSpace,
    Subspace,
    contains,
    extending,
    gram_on,
    intersect,
    product_space,
)


class QuadraticForm(Value):
    """Symmetric bilinear form on a domain subspace, in basis coordinates.

    t[x^T B, y^T B] = x^T matrix y where the rows of B are the canonical
    domain basis.  It hashes as the domain basis and the matrix.
    """

    __slots__ = _fields = ("space", "domain", "matrix")

    def __init__(self, space: InnerProductSpace, domain: Subspace, matrix: Mat) -> None:
        if domain.space != space:
            raise ValueError("domain must live in the carrying space")
        k = domain.dim
        if matrix.rows != k or matrix.cols != k:
            raise ValueError("form matrix must be square of the domain dimension")
        if not matrix.is_symmetric():
            raise ValueError("form matrix must be symmetric")
        super().__init__(space, domain, matrix)

    def __hash__(self) -> int:
        return hash((self.domain.basis, self.matrix))

    @property
    def domain_gram(self) -> Mat:
        return gram_on(self.domain)

    def restrict(self, sub: Subspace) -> "QuadraticForm":
        """Restriction to a subspace of the domain (``restrict_form``)."""
        return restrict_form(self, sub)

    def is_restriction_of(self, other: "QuadraticForm") -> bool:
        if self.space != other.space or not contains(other.domain, self.domain):
            return False
        return other.restrict(self.domain).matrix == self.matrix


@memo
def restrict_form(t: QuadraticForm, sub: Subspace) -> QuadraticForm:
    """The restriction of t to a subspace of its domain.  The coordinates
    are read off the echelon rows of the domain and then checked by
    recombining them into the basis of ``sub``."""
    coords = echelon_coords(t.domain.basis, sub.basis)
    if coords is None:
        raise PreconditionError("restriction target is not inside the form domain")
    if coords @ t.domain.basis != sub.basis:
        raise CrossCheckError("the coordinates of a contained subspace do not recombine into its basis")
    return QuadraticForm(t.space, sub, (coords @ t.matrix).mul_t(coords))


@memo
def shifted_matrix(t: QuadraticForm, c) -> Mat:
    """M - cG: the matrix of t - c (.,.) in the domain basis, from one pass
    over the rows of M and G (``Mat.scale`` with ``plus``), and M itself,
    not a copy, at c = 0."""
    return t.domain_gram.scale(-rat(c), t.matrix) if c else t.matrix


_shifted_matrix_body = shifted_matrix.__wrapped__  # taken once, as ``spaces._rref_body`` is


@memo
def form_of_relation(s: LinearRelation) -> QuadraticForm:
    """t(S)[phi, psi] = (phi', psi) on dom S, phi' any graph lift of phi:
    the leading k x k block of the ``pairing``, k = dim dom S, since dom's
    basis and its lifts are the halves of the first k graph rows.  Lifts
    differ by mul S, inside mul S* = (dom S)-perp, so t(S) is well defined."""
    if not is_symmetric(s):
        raise PreconditionError("the form of a relation requires a symmetric relation")
    dom = parts(s).dom
    k = range(dom.dim)
    return QuadraticForm(s.src, dom, s.pairing.take(k, k))


@memo
def certify_lower_bound(t: QuadraticForm, c) -> PsdResult:
    """The package's one door from a form to LDL^T: the verdict on t - c (.,.),
    its witness mapped to the ambient phi with t[phi] < c (phi, phi)."""
    c = rat(c)
    res = ldl_psd_certificate(shifted_matrix(t, c))
    if res.ok:
        return res
    return PsdResult(None, (mat([res.witness]) @ t.domain.basis).row(0))


@memo
def is_nonneg_above(s: LinearRelation, c: Fraction | int | str) -> PsdResult:
    """Decide (phi', phi) >= c (phi, phi) over the whole graph of s.

    On failure the witness is an explicit graph element {phi, phi'} with
    (phi', phi) < c (phi, phi).  When mul s is orthogonal to dom s the
    pairing is that of the symmetric part of the leading k x k block of
    the ``pairing``, k = dim dom s, and ``certify_lower_bound`` decides it
    and gives phi; for a symmetric s that block is symmetric, passes as it
    is and is the matrix of ``form_of_relation(s)``: one shared decision.
    """
    if s.src != s.dst:
        raise PreconditionError("semiboundedness requires equal source and target spaces")
    c, k, (f, g) = rat(c), parts(s).dom.dim, s.halves
    cross = s.pairing.take(range(k, s.graph.dim), range(k))
    if not cross.is_zero():
        # Some graph row {0, m_i}, after the k rows {phi_j, phi_j'}, has m_i not
        # orthogonal to some phi_j; a large multiple of m_i added to phi_j'
        # drives the pairing below any bound; this t gives c (phi_j, phi_j) - 1.
        i, j = next((i, j) for i in range(cross.rows) for j in range(cross.cols) if cross[i, j] != 0)
        t = -(s.pairing[j, j] - c * s.wf.take([j]).mul_t(f.take([j]))[0, 0] + 1) / cross[i, j]
        return PsdResult(None, (f.row(j), (g.take([j]) + g.take([k + i]).scale(t)).row(0)))
    form = s.pairing.take(range(k), range(k))
    if not form.is_symmetric():
        form = (form + form.T).scale(Fraction(1, 2))
    res = certify_lower_bound(QuadraticForm(s.src, parts(s).dom, form), c)
    if res.ok:
        return res
    return PsdResult(None, (res.witness, lifts(s, mat([res.witness])).row(0)))


class BoundInterval(Value):
    """The bracket of ``bound_bisect``: t - lo is certified PSD, t - hi refuted.
    ``pencil``, ``pencil_polynomial(t)`` for ``estimate``, is not compared."""

    _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction, pencil: tuple[int, ...]) -> None:
        super().__init__(lo, hi)
        object.__setattr__(self, "pencil", pencil)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @cached_property
    def estimate(self) -> float | None:
        """The bound rounded to the nearest float, display only; None if it
        overflows.  Searched for on first reading, so a caller that keeps
        only the bracket does not pay for it."""
        return _nearest_float(self.pencil, self.lo, self.hi)


def bound_bisect(t: QuadraticForm, width) -> BoundInterval:
    """Certified rational interval of the requested width around the exact
    lower bound gamma: the cell of a fixed dyadic grid that holds gamma,
    found by Newton steps from below.

    The bound itself is algebraic and in general irrational, so it is never
    computed; only certified rational brackets are.  n = floor(gamma) is
    the cell of the integer grid between the ends of a doubling from 0.
    Then the grid is b + j h, b = n - 1 and h = span / 2^m, with span 3,
    or 2 when gamma = n, and m the least with h <= width; the result is
    the one cell [b + j h, b + (j + 1) h] that holds gamma, which bisection
    from [b, b + span] would find too.  ``_newton_cell`` finds both cells,
    and the estimate, for display, is gamma rounded to the nearest float
    (``_nearest_float``); no float decides any bracket.

    Two independent formulas decide t - c >= 0.  Every decision reads it
    off the exact polynomial det(M - c G) (``pencil_psd``), built once;
    the verified LDL^T certificate (``certify_lower_bound``) then runs at
    the two ends of the bracket, and ``CrossCheckError`` is raised unless
    it certifies ``lo`` and refutes ``hi`` as the polynomial did.  Every
    root of the polynomial lies within Cauchy's bound B = 1 + max |p_i / p_k|,
    so the doubling raises ``CrossCheckError`` too when the polynomial
    refutes some c < -B or certifies some c > B.
    """
    width = rat(width)
    if t.domain.dim == 0:
        raise PreconditionError("bound_bisect requires a nonzero form domain")
    if width <= 0:
        raise PreconditionError("interval width must be positive")
    p = pencil_polynomial(t)
    up = pencil_psd(p, Fraction(0))
    prev, end = 0, 1 if up else -1
    while pencil_psd(p, Fraction(end)) == up:
        if abs(end) > 1 + Fraction(max(abs(x) for x in p[:-1]), abs(p[-1])):
            raise CrossCheckError(f"det(M - cG) {'certifies a c above' if up else 'refutes a c below'} its Cauchy root bound")
        prev, end = end, 2 * end
    a, b = sorted((prev, end))
    n = _newton_cell(p, a, b, b - a)[0].numerator
    span = 2 if _is_root(p, Fraction(n)) else 3
    q = 1 << (math.ceil(span / width) - 1).bit_length()  # 2^m >= span / width
    lo, hi = _newton_cell(p, n - 1, n - 1 + span, q)
    # When the bound is attained at a simple rational, pin it exactly.
    cand = _simplest_in(lo, hi)
    if cand != lo:
        lo, hi = (cand, hi) if pencil_psd(p, cand) else (lo, cand)
    if not certify_lower_bound(t, lo).ok or certify_lower_bound(t, hi).ok:
        raise CrossCheckError("the LDL^T certificates at the bracket ends contradict det(M - cG)")
    return BoundInterval(lo, hi, p)


def _newton_cell(p: tuple[int, ...], a, b, count: int) -> tuple[Fraction, Fraction]:
    """The cell [a + j h, a + (j + 1) h] holding gamma, the smallest root
    of p, on the grid h = (b - a) / count; ``pencil_psd(p, .)`` holds at
    the rational ``a`` and fails at ``b``.

    The search runs on grid indices [lo, hi].  From the certified point x
    it takes the Newton step d = -s(x) / s'(x) of the squarefree part s of
    p, which has the roots of p, each once, all at or above gamma.  For
    x < gamma that puts gamma - x in [d, k d], k = deg s, since
    s'/s (x) = -sum_i 1 / (lambda_i - x), so it tests the grid points just
    below x + d, which must be certified, and just above x + k d.  The step
    converges quadratically even at a multiple root; whenever the two tests
    do not halve the bracket, a midpoint test follows.  s(x) = 0 means
    x = gamma, and then the cell is fixed.
    """
    a, h = Fraction(a), Fraction(b - a, count)
    q = math.lcm(a.denominator, h.denominator)
    base, step = int(a * q), int(h * q)

    def point(j: int) -> Fraction:
        return Fraction(base + j * step, q)

    s = _squarefree(p)
    k = len(s) - 1
    lo, hi = 0, count
    while hi - lo > 1:
        before = hi - lo
        # q^k s(x) and q^(k-1) s'(x) at x = point(lo); d is value / den grid steps.
        value, slope = _horner(s, base + lo * step, q)
        if value == 0:
            return point(lo), point(lo + 1)
        if value * slope >= 0:
            raise CrossCheckError("det(M - cG) has a root below a point it certifies")
        den = -step * slope
        # The grid points at or below x + d and at or above x + k d.
        near, far = lo + value // den, lo - (-k * value // den)
        if lo < near < hi:
            if not pencil_psd(p, point(near)):
                raise CrossCheckError("det(M - cG) refutes a point that a Newton step from below proves below its smallest root")
            lo = near
        if lo < far < hi:
            lo, hi = (far, hi) if pencil_psd(p, point(far)) else (lo, far)
        if 2 * (hi - lo) > before:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if pencil_psd(p, point(mid)) else (lo, mid)
    return point(lo), point(hi)


def _horner(p: tuple[int, ...], a: int, b: int) -> tuple[int, int]:
    """b^k p(a / b) and b^(k-1) p'(a / b), k = deg p, in integers."""
    value, slope, power = p[-1], 0, 1
    for x in reversed(p[:-1]):
        power *= b
        slope = slope * a + value
        value = value * a + x * power
    return value, slope


@memo
def _squarefree(p: tuple[int, ...]) -> tuple[int, ...]:
    """p / gcd(p, p'), by a primitive remainder sequence in integers: the
    roots of p, each once.  p itself when its roots are already simple."""
    a, b = list(p), [i * x for i, x in enumerate(p)][1:]
    while b:
        g = math.gcd(*b)
        b = [x // g for x in b]
        a, b = b, _pseudo_remainder(a, b)
    if len(a) == 1:
        return p
    # p = a s exactly; a is primitive, so s has integer coefficients.
    out = [0] * (len(p) - len(a) + 1)
    rest = list(p)
    for i in range(len(out) - 1, -1, -1):
        out[i] = rest[i + len(a) - 1] // a[-1]
        for j, y in enumerate(a):
            rest[i + j] -= out[i] * y
    return tuple(out)


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of lc(b)^e a by b, e = deg a - deg b + 1, without its
    leading zeros: [] when b divides a."""
    a = list(a)
    while len(a) >= len(b):
        f, shift = a[-1], len(a) - len(b)
        a = [x * b[-1] for x in a]
        for i, y in enumerate(b):
            a[i + shift] -= f * y
        while a and a[-1] == 0:
            a.pop()
    return a


def _nearest_float(p: tuple[int, ...], lo: Fraction, hi: Fraction) -> float | None:
    """The bound in [lo, hi) rounded to the nearest float, None on overflow;
    the only floats in the package.  Let E be the float exponent of the end
    nearer 0, or the least normal exponent when that is lower, when the end
    rounds to 0.0 or when [lo, hi] meets 0.  Every float and float midpoint
    in [lo, hi] is a multiple of u = 2^(E - 55), a bit to spare for an end
    that rounds up a binade; so all of the u-cell that holds the bound but
    its left end x rounds alike, and ``_newton_cell`` finds it."""
    try:
        near = float(lo if lo > 0 else hi if hi < 0 else 0)
        u = Fraction(2) ** (max(math.frexp(near)[1] if near else -1021, -1021) - 55)
        a, b = math.floor(lo / u), math.ceil(hi / u)
        x = _newton_cell(p, a * u, b * u, b - a)[0]
        return float(x) if _is_root(p, x) else float(x + u / 2)
    except OverflowError:
        return None


def _is_root(p: tuple[int, ...], c: Fraction) -> bool:
    """p(c) = 0, tested in integers."""
    return _horner(p, c.numerator, c.denominator)[0] == 0


def pencil_polynomial(t: QuadraticForm) -> tuple[int, ...]:
    """Integer coefficients, lowest degree first, of a positive multiple of
    p(c) = det(M - c G), with M the form matrix and G the domain Gram.

    p is interpolated from its values at c = 0..k, k the domain dimension,
    each one exact ``det`` of M - cG built by ``_shifted_matrix_body``,
    the body of ``shifted_matrix`` without its memo, since no later call
    reads these shifts again.  Its degree must be exactly k with leading
    coefficient (-1)^k det G, or ``CrossCheckError`` is raised.

    The interpolation runs in integers: with the values over one
    denominator D, the Newton form on the nodes 0..k times k! is
    D k! p = sum_j (k! / j!) (Delta^j D p)(0) x (x - 1) ... (x - j + 1),
    and the result is that polynomial divided by the gcd of its
    coefficients, its primitive part.
    """
    k = t.domain.dim
    values = [det(_shifted_matrix_body(t, j)) for j in range(k + 1)]
    den = math.lcm(*(x.denominator for x in values))
    diffs = [x.numerator * (den // x.denominator) for x in values]
    coeffs = [0] * (k + 1)
    falling = [1]  # monomial coefficients of x (x - 1) ... (x - j + 1)
    fact = weight = math.factorial(k)  # weight: k! / j!
    for j in range(k + 1):
        f = weight * diffs[0]
        for i, b in enumerate(falling):
            coeffs[i] += f * b
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        falling = [lower - j * same for lower, same in zip([0, *falling], [*falling, 0])]
        weight //= j + 1
    lead = (-1) ** k * det(t.domain_gram)
    if coeffs[k] == 0 or coeffs[k] * lead.denominator != lead.numerator * den * fact:
        raise CrossCheckError("det(M - cG) does not have degree k and leading coefficient (-1)^k det G")
    content = math.gcd(*coeffs)
    return tuple(x // content for x in coeffs)


def pencil_psd(p: tuple[int, ...], c: Fraction) -> bool:
    """Whether t - c >= 0, from the coefficients ``p`` of
    ``pencil_polynomial(t)``.

    G is positive definite, so p has only real roots, the generalized
    eigenvalues of (M, G), and t - c >= 0 iff none lies below c = a/b.  The
    roots below c are the positive roots of b^k p((a - y)/b), and for a
    real-rooted polynomial Descartes' rule of signs counts them exactly, so
    t - c >= 0 iff its nonzero coefficients show no sign change (Collins
    and Akritas 1976).  Integers only: a Horner Taylor shift by a of the
    coefficients scaled by powers of b.
    """
    a, b = c.numerator, c.denominator
    k = len(p) - 1
    q = list(p)
    power = 1
    for i in range(k, -1, -1):
        q[i] *= power
        power *= b
    # q(z) -> q(z + a); then z = -y flips the sign of the odd coefficients.
    for i in range(k):
        for j in range(k - 1, i - 1, -1):
            q[j] += a * q[j + 1]
    return len({(x > 0) != (i % 2 == 1) for i, x in enumerate(q) if x}) == 1


def _simplest_in(a: Fraction, b: Fraction) -> Fraction:
    """The fraction with the smallest denominator in the closed interval
    [a, b], the least one when several share it: the continued fraction
    of a and b up to their first difference, in integers."""
    if a == b:
        return a
    # Invariant: the answer is the fold of `terms` over the simplest
    # fraction in [an / ad, bn / bd], all four positive after a first term.
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    terms = []
    while -(-an // ad) * bd > bn:
        # No integer inside: a and b share their floor f, and the simplest
        # fraction is f + 1 / (the simplest in [1 / (b - f), 1 / (a - f)]).
        f = an // ad
        terms.append(f)
        an, ad, bn, bd = bd, bn - f * bd, ad, an - f * ad
    num, den = -(-an // ad), 1
    for f in reversed(terms):
        num, den = f * num + den, num
    return Fraction(num, den)


class RepresentingMap(Value):
    """A map Q from the domain of ``form`` into a weighted codomain certifying

        matrix Gram_codomain matrix^T = M - c G = ``shifted_matrix(form, c)``.

    Row i of ``matrix`` (k x r) is Q of the domain basis vector i, in
    codomain coordinates, so x^T matrix is Q of the domain vector with
    coordinates x; ``form`` is the represented t, whose domain basis gives
    those coordinates.  The identity above is verified exactly at
    construction.  It hashes as the domain basis and the matrix.
    """

    __slots__ = _fields = ("form", "codomain", "matrix", "base_point")

    def __init__(self, form: QuadraticForm, codomain: InnerProductSpace, matrix: Mat, base_point: Fraction) -> None:
        if matrix.rows != form.domain.dim or matrix.cols != codomain.dim:
            raise ValueError("representing map matrix has wrong shape")
        if (matrix @ codomain.gram).mul_t(matrix) != shifted_matrix(form, base_point):
            raise CrossCheckError("representing map certificate identity failed")
        super().__init__(form, codomain, matrix, base_point)

    def __hash__(self) -> int:
        return hash((self.domain.basis, self.matrix))

    @property
    def domain(self) -> Subspace:
        return self.form.domain

    def as_relation(self) -> LinearRelation:
        """The graph {B | Q}, B the echelon domain basis: in reduced
        echelon form as it stands."""
        return echelon_relation(self.domain.space, self.codomain, hstack(self.domain.basis, self.matrix))


@memo
def repmap_ldl(t: QuadraticForm, c) -> RepresentingMap:
    """Representing map onto the Gram block A[P, P] of A = M - cG at the
    LDL^T pivots P with nonzero D: Q^T = A[P, P]^-1 A[P, :], one
    ``solve`` on the rows of A at P, unit at P, with the heights of A
    rather than those of L.  The Schur complement after P vanishes, so
    Q A[P, P] Q^T = A with no square root.

    The codomain is certified positive definite by the leading k x k block
    of A's verified certificate: identity perm, L_k and D_k, since
    (P^T A P)[:k, :k] = L_k D_k L_k^T for a lower triangular L.  The
    ``InnerProductSpace`` constructor verifies that block against A[P, P]
    and requires L_k unit lower triangular and every D > 0, so every
    column solves; a failure is a ``CrossCheckError`` naming the Gram
    block.  (A second elimination of A[P, P] reproduced exactly this block
    on 610 of 610 calls: 16 seed-0 ``extend-large`` items and the 200
    seed-0 ``check`` instances.  Substitution through the certificate's
    unit triangular L gave the same Q on 16 seed-0 ``extend-large`` forms
    in 5.2 ms against 4.8 ms for the solve used then, so the solve and
    both certifications of A >= 0 stay.)
    """
    c = rat(c)
    res = certify_lower_bound(t, c)
    if not res.ok:
        raise BoundCertificationError(f"the form of the relation is not bounded below by {c}", res.witness)
    cert = res.certificate
    k = sum(1 for d in cert.diag if d)
    kept = cert.perm[:k]
    a = shifted_matrix(t, c)
    block = PsdCertificate(tuple(range(k)), cert.lower_cols.take(range(k), range(k)), cert.diag[:k])
    try:
        codomain = InnerProductSpace(k, a.take(kept, kept), block)
    except ValueError as exc:
        raise CrossCheckError(f"Gram block at the LDL^T pivots: {exc}") from None
    return RepresentingMap(t, codomain, solve(codomain.gram, a.take(kept)).T, c)


def ldl_map(s: LinearRelation, c) -> RepresentingMap:
    """The LDL^T map of t(S) - c: the gate of every construction at (S, c)."""
    return repmap_ldl(form_of_relation(s), c)


@memo
def repmap_quotient(s: LinearRelation, c) -> RepresentingMap:
    """Minimal representing map q_c phi = [phi' - c phi] on the quotient
    ran(S-c) / (ran(S-c) ∩ mul S*), with the induced semi-inner product as
    the codomain Gram.

    The quotient is realized on a complement of the null subspace inside
    ran(S-c); the induced Gram is certified positive definite before the
    map is accepted.
    """
    c = rat(c)
    t = form_of_relation(s)
    res = certify_lower_bound(t, c)
    if not res.ok:
        raise BoundCertificationError(f"the form of the relation is not bounded below by {c}", res.witness)
    smc = shift(s, -c)
    ran_smc = parts(smc).ran
    null = intersect(ran_smc, parts(adjoint(s)).mul)
    # Extend the null basis to a basis of ran(S-c); the added vectors span
    # the complement carrying the quotient.
    comp = extending(null, ran_smc.basis)
    r = comp.rows
    # Induced semi-inner product: ([u], [v])_{S-c} = (u, psi)_H where
    # {psi, psi'} in S and psi' - c psi = v.
    w = (comp @ s.src.gram).mul_t(lifts(inverse(smc), comp))
    try:
        codomain = InnerProductSpace(r, w)
    except ValueError as exc:
        raise CrossCheckError(f"induced quotient inner product: {exc}") from None
    # Column j: the coordinates of phi_j' - c phi_j in the rows [comp; null].
    coords = solve(vstack(comp, null.basis).T, lifts(smc, t.domain.basis).T)
    if coords is None:
        raise CrossCheckError("an image phi' - c phi escapes ran(S-c)")
    matrix = coords.take(range(r)).T
    q = RepresentingMap(t, codomain, matrix, c)
    # ran q_c is dense in the quotient, which at finite dimension means all
    # of it.
    if rank(matrix) != r:
        raise CrossCheckError("the quotient representing map does not fill its codomain")
    return q


def repmap_from_operator(op: LinearRelation, t: QuadraticForm, c) -> RepresentingMap:
    """Package an operator relation as a representing map for t at c.

    The exact certificate identity is checked on construction, so this
    doubles as the verification that op really represents t - c.
    """
    if op.src != t.space:
        raise PreconditionError("operator source must carry the form")
    return RepresentingMap(t, op.dst, lifts(op, t.domain.basis), rat(c))


def scalar_repmap(domain: Subspace, c) -> RepresentingMap:
    """Representing map for the zero form at base point c <= 0.

    Realizes sqrt(|c|) * identity without the square root: the map is the
    identity in domain coordinates and the codomain Gram is |c| times the
    domain Gram, M - cG with M = 0.  For c = 0 the codomain is
    zero-dimensional.
    """
    c = rat(c)
    if c > 0:
        raise PreconditionError("the zero form is only bounded below by nonpositive base points")
    k = domain.dim
    zero_form = QuadraticForm(domain.space, domain, zeros(k, k))
    if c == 0:
        return RepresentingMap(zero_form, InnerProductSpace(0, zeros(0, 0)), zeros(k, 0), c)
    codomain = InnerProductSpace(k, shifted_matrix(zero_form, c))
    return RepresentingMap(zero_form, codomain, identity(k), c)


def stack_relations(t1: LinearRelation, t2: LinearRelation) -> LinearRelation:
    """Column stack of two relations with the same source:
    {{f, g1 (+) g2} : {f, g1} in T1, {f, g2} in T2}.  Over the graph basis
    rows {F_1, G_1} and {F_2, G_2} it is
    {{y^T F_1, y^T G_1 (+) z^T G_2} : y^T F_1 = z^T F_2}."""
    if t1.src != t2.src:
        raise PreconditionError("stacked relations must share their source space")
    n, m1, m2 = t1.src.dim, t1.dst.dim, t2.dst.dim
    # The Zassenhaus rows [F_1 | F_1 G_1 0] and [-F_2 | 0 0 G_2].
    rows_1 = (t1.graph.basis, (0, 1, 0, n), (n, 1, 0, n + m1))
    rows_2 = (t2.graph.basis, (0, -1, 0, n), (2 * n + m1, 1, n, n + m2))
    return echelon_relation(t1.src, product_space(t1.dst, t2.dst), zassenhaus(n, 2 * n + m1 + m2, rows_1, rows_2))


@memo
def companion(s: LinearRelation, q: RepresentingMap) -> LinearRelation:
    """Companion relation J_c = {{Q_c phi, phi' - c phi} : {phi, phi'} in S}.

    The dual pair inclusions Q_c in J_c* and J_c in Q_c* are asserted at
    construction.
    """
    t = form_of_relation(s)
    if q.form != t:
        raise PreconditionError("representing map does not certify the form of this relation")
    firsts, seconds = s.halves
    q_rel = q.as_relation()
    j = graph_relation(q.codomain, s.src, lifts(q_rel, firsts), seconds - firsts.scale(q.base_point))
    if not adjoint(j).is_extension_of(q_rel) or not adjoint(q_rel).is_extension_of(j):
        raise CrossCheckError("companion relation does not form a dual pair with its representing map")
    return j


def form_s_of(s: LinearRelation, c) -> QuadraticForm:
    """The closed form c (phi, psi) + ((J_c*)_reg phi, (J_c*)_reg psi) on
    dom J_c*, J_c the companion of the LDL^T map: the regular part of the
    Lebesgue form of J_c*.  It extends t(S), with lower bound exactly c
    whenever the adjoint has an eigenvector at c."""
    c = rat(c)
    out, _ = lebesgue_form(adjoint(companion(s, ldl_map(s, c))), c)
    if not certify_lower_bound(out, c).ok:
        raise CrossCheckError("the closed form lost the lower bound c")
    if eigenspace(adjoint(s), c).dim > 0 and kernel(shifted_matrix(out, c)).rows == 0:
        raise CrossCheckError("the bound c is attained by S* but not by the closed form")
    return out


def lebesgue_form(q_rel: LinearRelation, c) -> tuple[QuadraticForm, QuadraticForm]:
    """Regular and singular parts of the form induced by a relation-valued
    representing map, via the Lebesgue decomposition of the relation.

    The total form is built from fixed graph lifts of the domain basis; its
    regular part uses the (lift-independent) regular component and the
    singular part the orthogonal remainder, and total = regular + singular
    is asserted.  For an operator the singular form vanishes.
    """
    c = rat(c)
    dom = parts(q_rel).dom
    total = lifts(q_rel, dom.basis)
    reg = lifts(regular_part(q_rel), dom.basis)
    sing = total - reg
    base = gram_on(dom).scale(c)
    g = q_rel.dst.gram
    total_m = base + (total @ g).mul_t(total)
    reg_m = base + (reg @ g).mul_t(reg)
    sing_m = (sing @ g).mul_t(sing)
    # The base term enters the total and the regular part exactly once.
    if reg_m + sing_m != total_m:
        raise CrossCheckError("Lebesgue decomposition identity failed")
    space = q_rel.src
    return QuadraticForm(space, dom, reg_m), QuadraticForm(space, dom, sing_m)


def ran_adjoint_by_inequality(s: LinearRelation, c, phi) -> bool:
    """Decide whether |(psi, phi)|^2 <= C (psi', psi) holds over S - c for
    some finite C, without constructing Q_c*.

    In domain coordinates the inequality holds iff B G phi lies in the
    range of the shifted form matrix, B the domain basis rows; membership
    is an exact rational range test.
    """
    t = form_of_relation(s)
    # v = (B G phi)^T, and M is symmetric, so Mx = v reads x^T M = v^T.
    v = (mat([phi]) @ s.src.gram).mul_t(t.domain.basis)
    return echelon_coords(rref(shifted_matrix(t, rat(c)))[0], v) is not None


def inequality_range_subspace(s: LinearRelation, c) -> Subspace:
    """The set of phi passing the ran_adjoint_by_inequality test, as an
    exact subspace: the preimage of ran(M) under phi -> B G phi.

    Since M is symmetric, ran(M) is the orthogonal complement of ker(M) in
    coordinates, so the condition is N B G phi = 0 with the rows of N a
    basis of ker(M).
    """
    t = form_of_relation(s)
    conditions = kernel(shifted_matrix(t, rat(c))) @ t.domain.basis @ s.src.gram  # r x dim
    return Subspace(s.src, kernel(conditions))


def dom_companion_by_inequality(s: LinearRelation, c, psi) -> bool:
    """The dom J_c* inequality criterion: the same range test applied to
    the inverse of S - c."""
    return ran_adjoint_by_inequality(inverse(shift(s, -rat(c))), 0, psi)


def inequality_domain_subspace(s: LinearRelation, c) -> Subspace:
    return inequality_range_subspace(inverse(shift(s, -rat(c))), 0)
