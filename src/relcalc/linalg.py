"""Exact rational matrix kernel.

Everything downstream (subspaces, relations, extensions) reduces to a
handful of operations on small dense matrices over the rationals: reduced
row echelon form, nullspaces, linear solves, determinants, and an LDL^T
factorization with diagonal pivoting that either certifies positive
semidefiniteness or returns an explicit vector with negative quadratic
value.  No floating point is used anywhere in this module;
``fractions.Fraction`` carries arbitrary-precision exact arithmetic at the
interface.  The three eliminations, ``rref``, ``det`` and
``ldl_psd_certificate``, run on integer rows instead, reduced by a gcd
after each update: ``rref`` scales each row to integers, and ``det`` and
``ldl_psd_certificate`` keep each row's denominator beside it.  Fractions
appear only in what they return.

Only this module knows how a ``Mat`` is stored.  Every other module builds
matrices with ``mat``, ``from_cols``, ``zeros``, ``identity``, ``diag`` and
the stacking helpers, and reads them through ``[i, j]``, ``col``, ``take``
and ``to_lists``, so the storage can change here alone.

The package's one memo policy lives here too: ``memo`` caches without a
size bound and ``clear_memos`` empties every cache at once, so running one
instance per scope (``harness.run_one``) bounds the memory.  A call is one
cache entry however it is spelled: keywords and omitted defaults are bound
to the signature before the lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, update_wrapper
from inspect import signature
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import CrossCheckError

Rat = Fraction
Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
_MEMOS: list = []  # every ``memo`` cache, for ``clear_memos``


def memo(fn: Callable) -> Callable:
    """Cache ``fn`` for the current cache scope.

    ``f(a, b)``, ``f(a, b, d)`` and ``f(a, b, kw=d)`` with d the default
    share one entry: a call that passes keywords or omits a parameter is
    bound to the full positional form first.  The wrapper carries
    ``cache_info`` and ``cache_clear`` of the underlying ``lru_cache``.
    """
    cached = lru_cache(maxsize=None)(fn)
    sig = signature(fn)
    nparams = len(sig.parameters)

    def call(*args, **kwargs):
        if kwargs or len(args) < nparams:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            args, kwargs = bound.args, bound.kwargs
        return cached(*args, **kwargs)

    update_wrapper(call, fn)
    call.cache_info = cached.cache_info
    call.cache_clear = cached.cache_clear
    _MEMOS.append(cached)
    return call


def clear_memos() -> None:
    """Start a new cache scope: empty every ``memo`` cache."""
    for cached in _MEMOS:
        cached.cache_clear()


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(rat(x) for x in entries)


@dataclass(frozen=True, eq=True)
class Mat:
    """Immutable dense matrix of Fractions, row-major.

    Immutability keeps every derived object (subspaces, relation graphs)
    hashable and safe to share; all operations return new matrices.  The
    hash is memoized: Fraction hashing is a modular power and matrices are
    used as memo keys all over the package.
    """

    rows: int
    cols: int
    data: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ValueError("matrix data does not match declared shape")

    def __hash__(self) -> int:
        # Fractions are normalized, so equal matrices have equal
        # (numerator, denominator) pairs; hashing the int pairs skips the
        # modular power of Fraction.__hash__.
        cached = getattr(self, "_hash", None)
        if cached is None:
            pairs = tuple([(x.numerator, x.denominator) for r in self.data for x in r])
            cached = hash((self.rows, self.cols, pairs))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        return self.data[idx[0]][idx[1]]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def take(self, rows: Sequence[int], cols: Sequence[int] | None = None) -> "Mat":
        """The submatrix of the listed rows and columns, in the listed
        order; every column when ``cols`` is None."""
        if cols is None:
            return Mat(len(rows), self.cols, tuple(self.data[i] for i in rows))
        return Mat(len(rows), len(cols), tuple(tuple(self.data[i][j] for j in cols) for i in rows))

    @property
    def T(self) -> "Mat":
        return Mat(self.cols, self.rows, tuple(tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def __add__(self, other: "Mat") -> "Mat":
        _same_shape(self, other)
        return Mat(self.rows, self.cols, tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other: "Mat") -> "Mat":
        _same_shape(self, other)
        return Mat(self.rows, self.cols, tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.data, other.data)))

    def scale(self, a: int | str | Fraction) -> "Mat":
        a = rat(a)
        return Mat(self.rows, self.cols, tuple(tuple(a * x for x in r) for r in self.data))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch for product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.T.data
        return Mat(self.rows, other.cols, tuple(tuple(_dot(r, c) for c in ot) for r in self.data))

    def mul_vec(self, x: Sequence[Fraction]) -> Vec:
        if len(x) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(_dot(r, x) for r in self.data)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == self.data[j][i] for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self.data]


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    # Accumulate over a running integer denominator and normalize once;
    # termwise Fraction arithmetic would re-reduce after every operation.
    num = 0
    den = 1
    for x, y in zip(a, b):
        if x and y:
            d = x.denominator * y.denominator
            num = num * d + x.numerator * y.numerator * den
            den *= d
    return Fraction(num, den)


def _same_shape(a: Mat, b: Mat) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def mat(rows: Iterable[Iterable]) -> Mat:
    data = tuple(vec(r) for r in rows)
    ncols = len(data[0]) if data else 0
    return Mat(len(data), ncols, data)


def zeros(nrows: int, ncols: int) -> Mat:
    return Mat(nrows, ncols, tuple(tuple(ZERO for _ in range(ncols)) for _ in range(nrows)))


def identity(n: int) -> Mat:
    return Mat(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))


def diag(entries: Sequence[Fraction]) -> Mat:
    n = len(entries)
    return Mat(n, n, tuple(tuple(entries[i] if i == j else ZERO for j in range(n)) for i in range(n)))


def from_cols(ncols_rows: int, cols: Sequence[Sequence[Fraction]]) -> Mat:
    """Build an ``nrows x len(cols)`` matrix from column vectors."""
    nrows = ncols_rows
    for c in cols:
        if len(c) != nrows:
            raise ValueError("column length does not match row count")
    return Mat(nrows, len(cols), tuple(tuple(rat(c[i]) for c in cols) for i in range(nrows)))


def hstack(a: Mat, b: Mat) -> Mat:
    if a.rows != b.rows:
        raise ValueError("row count mismatch in hstack")
    return Mat(a.rows, a.cols + b.cols, tuple(ra + rb for ra, rb in zip(a.data, b.data)))


def vstack(a: Mat, b: Mat) -> Mat:
    if a.cols != b.cols:
        raise ValueError("column count mismatch in vstack")
    return Mat(a.rows + b.rows, a.cols, a.data + b.data)


def block_diag(a: Mat, b: Mat) -> Mat:
    top = hstack(a, zeros(a.rows, b.cols))
    bot = hstack(zeros(b.rows, a.cols), b)
    return vstack(top, bot)


@memo
def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    Leading entries are 1 with zeros above and below; this is the single
    canonical form used for all subspace equality tests.

    The elimination runs on integer rows (each input row scaled by its
    common denominator, each update followed by a gcd reduction), which
    avoids the Fraction-normalization storm of naive exact elimination;
    pivot rows are rescaled to leading 1 only at the end.  RREF is unique,
    so the result is independent of this internal representation.
    """
    work: list[list[int]] = []
    for row in m.data:
        ints, _ = _int_row(row)
        _reduce_int_row(ints)
        work.append(ints)
    pivots: list[int] = []
    prow = 0
    for pcol in range(m.cols):
        if prow >= m.rows:
            break
        src = next((r for r in range(prow, m.rows) if work[r][pcol] != 0), None)
        if src is None:
            continue
        work[prow], work[src] = work[src], work[prow]
        prow_vals = work[prow]
        p = prow_vals[pcol]
        for r in range(m.rows):
            if r != prow and work[r][pcol]:
                f = work[r][pcol]
                updated = [p * x - f * y if y else p * x for x, y in zip(work[r], prow_vals)]
                _reduce_int_row(updated)
                work[r] = updated
        pivots.append(pcol)
        prow += 1
    out: list[Vec] = []
    for i in range(m.rows):
        if i < len(pivots):
            p = work[i][pivots[i]]
            out.append(tuple(Fraction(x, p) for x in work[i]))
        else:
            out.append(tuple(ZERO for _ in range(m.cols)))
    return Mat(m.rows, m.cols, tuple(out)), tuple(pivots)


def _int_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers ``ints`` and ``den > 0`` with ``row == ints / den``.

    ``den`` is the least common denominator of the row, so no factor
    divides ``den`` and every entry of ``ints``.
    """
    den = 1
    for x in row:
        d = x.denominator
        den = den // gcd(den, d) * d
    return [x.numerator * (den // x.denominator) for x in row], den


def _reduce_int_row(row: list[int]) -> None:
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return
    if g > 1:
        for i, x in enumerate(row):
            if x:
                row[i] = x // g


def rank(m: Mat) -> int:
    return len(rref(m)[1])


@memo
def kernel(m: Mat) -> Mat:
    """Basis of the nullspace {x : Mx = 0}, as columns of a cols x k matrix.

    Uses the standard free-variable parametrization of the RREF, which is
    deterministic and canonical for a given input.
    """
    red, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    cols: list[list[Fraction]] = []
    for fc in free:
        v = [ZERO] * m.cols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -red.data[i][fc]
        cols.append(v)
    return from_cols(m.cols, cols)


def solve(m: Mat, b: Sequence[Fraction]) -> Vec | None:
    """Some exact solution of Mx = b, or None when the system is inconsistent."""
    sol = solve_mat(m, from_cols(m.rows, [vec(b)]))
    return sol.col(0) if sol is not None else None


def solve_mat(m: Mat, b: Mat) -> Mat | None:
    """Columnwise exact solve MX = B; None if any column is inconsistent."""
    if b.rows != m.rows:
        raise ValueError("right-hand side has wrong row count")
    red, pivots = rref(hstack(m, b))
    # A pivot in an augmented column means that column is inconsistent.
    if any(p >= m.cols for p in pivots):
        return None
    out = [[ZERO] * b.cols for _ in range(m.cols)]
    for i, pc in enumerate(pivots):
        for j in range(b.cols):
            out[pc][j] = red.data[i][m.cols + j]
    return Mat(m.cols, b.cols, tuple(tuple(r) for r in out))


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise ValueError("only square matrices are invertible")
    red, pivots = rref(hstack(m, identity(m.rows)))
    if len(pivots) != m.rows or any(p >= m.cols for p in pivots):
        raise ValueError("matrix is singular")
    return Mat(m.rows, m.cols, tuple(r[m.cols:] for r in red.data))


def det(m: Mat) -> Fraction:
    """Exact determinant by elimination on integer rows.

    As in ``ldl_psd_certificate``, row r is ``a[r] / den[r]``, reduced by a
    gcd after each update (``_schur_update``), and the determinant is the
    signed product of the pivots ``a[i][i] / den[i]``.  (Bareiss on rows
    scaled to integers never reduces: on a 19 x 19 form matrix with
    unrelated 280-bit denominators it ran 5x slower.)
    """
    if m.rows != m.cols:
        raise ValueError("only square matrices have a determinant")
    n = m.rows
    a: list[list[int]] = []
    den: list[int] = []
    for row in m.data:
        ints, scale = _int_row(row)
        a.append(ints)
        den.append(scale)
    num, denom = 1, 1
    for i in range(n):
        p = next((r for r in range(i, n) if a[r][i]), None)
        if p is None:
            return ZERO
        if p != i:
            a[i], a[p] = a[p], a[i]
            den[i], den[p] = den[p], den[i]
            num = -num
        num *= a[i][i]
        denom *= den[i]
        _schur_update(a, den, i)
    return Fraction(num, denom)


def _schur_update(a: list[list[int]], den: list[int], i: int) -> None:
    """Eliminate column i below the pivot ``a[i][i] != 0``: each row r > i
    with a nonzero entry becomes its Schur complement row over a new
    ``den[r]``, reduced by a gcd (``den[r]`` keeps its sign when the pivot
    is positive, as in ``ldl_psd_certificate``).  Columns <= i of those
    rows are left stale and never read again."""
    prow = a[i]
    piv = prow[i]
    ptail = prow[i + 1:]
    for r in range(i + 1, len(a)):
        row = a[r]
        f = row[i]
        if f:
            tail = [piv * x - f * y for x, y in zip(row[i + 1:], ptail)]
            g = gcd(den[r] * piv, *tail)
            den[r] = den[r] * piv // g
            row[i + 1:] = tail if g == 1 else [x // g for x in tail]


@dataclass(frozen=True)
class PsdCertificate:
    """Exact factorization P^T M P = L D L^T with D >= 0 entrywise.

    ``perm`` encodes the permutation matrix P by column: P[i][j] = 1 iff
    i == perm[j], so (P^T M P)[a][b] = M[perm[a]][perm[b]].
    """

    perm: tuple[int, ...]
    lower: Mat
    diag: Vec

    def permuted(self, m: Mat) -> Mat:
        return m.take(self.perm, self.perm)

    def reconstruct(self) -> Mat:
        return self.lower @ diag(self.diag) @ self.lower.T

    def verify(self, m: Mat) -> bool:
        return all(d >= 0 for d in self.diag) and self.permuted(m) == self.reconstruct()


@dataclass(frozen=True)
class PsdResult:
    certificate: PsdCertificate | None
    counterexample: Vec | None

    @property
    def ok(self) -> bool:
        return self.certificate is not None


@memo
def ldl_psd_certificate(m: Mat) -> PsdResult:
    """Exact PSD test by LDL^T with diagonal pivoting.

    At each step the largest remaining diagonal entry is the pivot (the
    first one on ties).  When all remaining diagonal entries are zero the
    remaining block must be zero too, otherwise the matrix is indefinite
    and a counterexample vector v with v^T M v < 0 is produced by back
    substitution through the partial factorization.  Both outcomes are
    checked before they are returned: the certificate by ``verify``, the
    counterexample by its quadratic value.  Eigenvalues never
    appear: they would leave the rational field.

    The elimination runs on integer rows, as in ``rref``: row r of the
    running Schur complement is ``a[r] / den[r]`` with Python ints and
    ``den[r] > 0``, one denominator per row, reduced by a gcd after each
    update.  (One denominator for the whole matrix, as in Bareiss, grows
    far beyond any entry on wide product-space Grams.)  Fractions appear
    only in the certificate: ``L[r][i] = f den[i] / (den[r] piv)`` and
    ``D_i = piv / den[i]``.  A rational LDL^T with a fixed pivot order is
    unique, so the certificate does not depend on this representation.
    """
    if not m.is_symmetric():
        raise ValueError("ldl_psd_certificate requires a symmetric matrix")
    n = m.rows
    a: list[list[int]] = []
    den: list[int] = []
    for row in m.data:
        ints, scale = _int_row(row)
        a.append(ints)
        den.append(scale)
    lower = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    perm = list(range(n))
    d: list[Fraction] = []
    for i in range(n):
        # Columns < i of the rows >= i are stale and never read again.
        p = i
        for j in range(i + 1, n):
            if a[j][j] * den[p] > a[p][p] * den[j]:
                p = j
        if a[p][p] <= 0:
            v = [ZERO] * n
            neg = next((j for j in range(i, n) if a[j][j] < 0), None)
            if neg is not None:
                v[neg] = ONE
            else:
                # All remaining diagonal entries vanish; any nonzero
                # off-diagonal entry witnesses indefiniteness.
                off = next(
                    ((r, c) for r in range(i, n) for c in range(r + 1, n) if a[r][c] != 0),
                    None,
                )
                if off is None:
                    d.extend([ZERO] * (n - i))
                    break
                r, c = off
                v[r] = ONE
                v[c] = -ONE if a[r][c] > 0 else ONE
            witness = _back_substitute(lower, perm, v)
            if quad_form(m, witness) >= 0:
                raise CrossCheckError("LDL^T counterexample does not have a negative quadratic value")
            return PsdResult(None, witness)
        if p != i:
            a[i], a[p] = a[p], a[i]
            den[i], den[p] = den[p], den[i]
            for row in a[i:]:
                row[i], row[p] = row[p], row[i]
            perm[i], perm[p] = perm[p], perm[i]
            for j in range(i):
                lower[i][j], lower[p][j] = lower[p][j], lower[i][j]
        piv = a[i][i]
        d.append(Fraction(piv, den[i]))
        for r in range(i + 1, n):
            if a[r][i]:
                lower[r][i] = Fraction(a[r][i] * den[i], den[r] * piv)
        _schur_update(a, den, i)
    cert = PsdCertificate(tuple(perm), Mat(n, n, tuple(tuple(r) for r in lower)), tuple(d))
    if not cert.verify(m):
        raise CrossCheckError("LDL^T factorization does not reproduce the matrix")
    return PsdResult(cert, None)


def _back_substitute(lower: list[list[Fraction]], perm: list[int], v: list[Fraction]) -> Vec:
    """Undo a partial LDL^T elimination for a vector ``v`` supported in the
    Schur block: the unit upper-triangular solve L^T w = v, then the
    permutation."""
    n = len(v)
    w = list(v)
    for i in range(n - 1, -1, -1):
        s = w[i]
        for j in range(i + 1, n):
            s -= lower[j][i] * w[j]
        w[i] = s
    out = [ZERO] * n
    for pos in range(n):
        out[perm[pos]] = w[pos]
    return tuple(out)


def quad_form(m: Mat, x: Sequence[Fraction]) -> Fraction:
    return _dot(m.mul_vec(x), x)
