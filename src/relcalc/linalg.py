"""Exact rational matrix kernel.

Everything downstream (subspaces, relations, extensions) reduces to a
handful of operations on small dense matrices over the rationals: reduced
row echelon form, nullspaces, linear solves, determinants, and an LDL^T
factorization with diagonal pivoting that either certifies positive
semidefiniteness or returns an explicit vector with negative quadratic
value.  No floating point is used anywhere in this module.

A set of vectors is the rows of a ``Mat``: a basis, a nullspace, the
images of a map; only ``solve`` has its unknowns in columns.  One vector
is a one-row ``Mat``, so the combination of the rows of b with
coefficients x is ``x @ b``; there is no second, tuple-vector path.  A
product with the transpose of a set of vectors, such as the Gram matrix
a G b^T, is ``(a @ g).mul_t(b)``, which reads b's rows as columns and
forms no transpose.  A nullspace comes in one form: ``kernel`` (and
``pairing_null_space(L, R)``, for the pairing rows [L | -R]) gives its
canonical basis, the reduced echelon rows, from one elimination, and a
linear system has one door, ``solve(a, b)``: some X with a X = b from one
``rref`` of [a | b], so A^-1 B reads ``solve(A, B)``, and so does the
lift of an LDL^T refutation out of its Schur block.  ``echelon_coords``
reads coordinates off reduced echelon rows, so membership in a canonical
basis needs no elimination, and ``nonzero_rows`` counts the rows of an
echelon matrix before its zero rows, so a basis already in reduced echelon
form is split without one either.

A ``Mat`` stores each row as a tuple of Python ints and one positive int
denominator, reduced so that the gcd of the entries and the denominator
is 1; a zero row is ``(0, ..., 0) / 1``.  It is a plain ``__slots__``
class with one ``__init__``, its shape in the slots ``_rows`` and
``_cols`` behind read-only properties.  That form is canonical, so
``==`` and ``hash`` are tuple equality and hashing on ints.  Products,
sums, scaling, transposes, submatrices (a step-1 ``range`` of columns is
a slice of each row) and stacking build their rows from ints with one gcd
reduction per row, but ``scale(±1)`` and a column permutation in ``take``
keep each row's denominator.  Eliminations run on the stored rows.  ``det`` and
``ldl_psd_certificate`` reduce a row by a gcd after each update.  ``rref``,
``kernel`` and ``zassenhaus`` share ``_eliminate``, which eliminates
forward below each pivot, pivoting on the row with the least |entry| in
the pivot column, and reduces a row once, when it becomes a pivot row; its
back phase then subtracts the finished rows below each pivot row, already
in stored form.  A reduced echelon form is unique, so the choice of pivot
row moves only the size of the intermediate integers.  ``zassenhaus``
runs it on the rows of a relational product placed straight from the
stored rows of its inputs.
A ``PsdCertificate`` stores L by columns, each a pivot row of the
elimination over its pivot and so near the height of the tallest D entry,
with no multiplier table, and ``verify`` checks
P^T M P = L D L^T by peeling D_i L_ri (column i of L)^T off each row of
P^T M P in integers, so every partial row of a valid certificate is a
Schur-complement row; it forms no product matrix.  A
``fractions.Fraction`` leaves a ``Mat`` only through ``[i, j]``, ``row``,
``row_dots`` and ``mul_vec``; ``to_strings`` prints entries without one,
``mat`` converts the other way, and ``ratio_mat`` takes int pairs (p, q).

Only this module knows how a ``Mat`` is stored, and reads its slots
directly.  Every other module builds matrices with ``mat``,
``ratio_mat``, ``zeros``, ``identity`` and the stacking helpers, and reads
them through ``rows``, ``cols``, ``[i, j]``, ``row``, ``take``,
``row_dots`` and ``to_strings``, so the storage can change here alone.

One canonical subspace basis is one live object.  ``interned`` returns the
live ``Mat`` equal to its argument, from a table keyed by the stored
content that holds its matrices weakly (a ``Mat`` has a ``__weakref__``
slot for it), and ``spaces.Subspace`` stores its basis through it.  So
the routes that reach one graph, each kept by its own memo, share one
copy, and an entry goes with the last subspace that holds its basis
(hash-consing: Filliatre and Conchon, *Type-safe modular hash-consing*,
2006).  Only identity changes: a lookup that meets the shared object
compares nothing and reuses its cached hash.

The package's one memo policy lives here too: ``memo`` caches without a
size bound and ``clear_memos`` empties every cache at once, so running one
instance per scope (``harness.run_one``) bounds the memory.  A memoized
function takes positional parameters only, none with a default, and is
called positionally everywhere, so a call has one spelling and one cache
entry (``lru_cache`` would key ``f(a, b)`` and ``f(a, b=b)`` apart); a
test walks the package's syntax tree to keep it so.  Memoized are the
eliminations here, the subspace and relation operations with ``contains``,
the forms with ``is_nonneg_above``, their
shifted matrices M - cG (``shifted_matrix``) and restrictions
(``restrict_form``), the representing maps, and the extensions
``friedrichs`` and ``krein`` (not ``friedrichs_from`` and ``krein_from``)
with ``order_leq``, ``extremal_check`` and ``extremal_from_domain``: inside
one scope each runs once per distinct input.  A lookup hashes its arguments.
A ``Mat`` keeps its hash in its ``_hash`` slot.  Each value built on it
is a ``Value``: its fields are set once, ``==`` compares the class and
the fields, and its hash is the ``Mat`` that fixes it up to ``==``, so
no value stores a hash of its own; a relation splits its ``halves`` once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Callable, Iterable, NamedTuple, Sequence
from weakref import WeakValueDictionary

from .errors import CrossCheckError

Vec = tuple[Fraction, ...]
IntRow = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
_MEMOS: list = []  # every ``memo`` cache, for ``clear_memos``


def memo(fn: Callable) -> Callable:
    """Cache ``fn`` for the current cache scope: its ``lru_cache`` without
    a size bound, registered for ``clear_memos``."""
    cached = lru_cache(maxsize=None)(fn)
    _MEMOS.append(cached)
    return cached


def clear_memos() -> None:
    """Start a new cache scope: empty every ``memo`` cache."""
    for cached in _MEMOS:
        cached.cache_clear()


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(rat(x) for x in entries)


class Value:
    """The base of the value classes, which are memo keys: each field is set
    once, ``==`` compares the class and the ``_fields`` (``_key``, one
    ``attrgetter`` per class), and ``repr`` prints them.  A subclass lists
    its fields in ``_fields`` (also its ``__slots__`` where it has slots),
    validates in its ``__init__``, and hashes as the ``Mat`` that fixes it."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)


class Mat:
    """Immutable dense rational matrix, row-major.

    Row i is ``_num[i] / _den[i]``: a tuple of ints and an int
    ``_den[i] > 0`` with no common factor, so a zero row is all zeros over
    1.  Equal matrices have equal storage, and ``==`` and ``hash`` compare
    and hash ints.  Immutability keeps every derived object (subspaces,
    relation graphs) hashable and safe to share; all operations return new
    matrices.  The hash is memoized because matrices are memo keys all over
    the package.

    A plain ``__slots__`` class, not a ``Value``: its ``__init__`` assigns
    the slots directly, with none of ``Value``'s read-only guard, since
    matrices are built by the hundred thousand.  ``rows`` and ``cols`` are
    read-only properties over the slots ``_rows`` and ``_cols``, which this
    module reads directly; there is no ``__dict__``.  The ``__weakref__``
    slot lets ``interned`` hold a matrix without keeping it alive.
    """

    __slots__ = ("_rows", "_cols", "_num", "_den", "_hash", "__weakref__")

    def __init__(self, rows: int, cols: int, num: tuple[IntRow, ...], den: tuple[int, ...]) -> None:
        self._rows = rows
        self._cols = cols
        self._num = num
        self._den = den
        self._hash: int | None = None

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    def __repr__(self) -> str:
        return f"Mat(rows={self._rows}, cols={self._cols}, _num={self._num!r}, _den={self._den!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self._cols == other._cols and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((self._cols, self._den, self._num))
        return cached

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        i, j = idx
        return Fraction(self._num[i][j], self._den[i])

    def row(self, i: int) -> Vec:
        return tuple([Fraction(x, self._den[i]) for x in self._num[i]])

    def take(self, rows: Sequence[int], cols: Sequence[int] | None = None) -> "Mat":
        """The submatrix of the listed rows and columns, in the listed
        order; every column when ``cols`` is None."""
        num, den = self._num, self._den
        if cols is None:
            return Mat(len(rows), self._cols, tuple([num[i] for i in rows]), tuple([den[i] for i in rows]))
        if isinstance(cols, range) and cols.step == 1 and 0 <= cols.start and cols.stop <= self._cols:
            return _from_rows(len(cols), [_norm(num[i][cols.start:cols.stop], den[i]) for i in rows])
        if sorted(cols) == list(range(self._cols)):
            # Permuted entries keep their gcd, so each row keeps its denominator.
            return Mat(len(rows), self._cols, tuple([tuple([num[i][j] for j in cols]) for i in rows]), tuple([den[i] for i in rows]))
        return _from_rows(len(cols), [_norm([num[i][j] for j in cols], den[i]) for i in rows])

    @property
    def T(self) -> "Mat":
        if not self._rows:
            return zeros(self._cols, 0)
        common = lcm(*self._den)
        return _from_rows(self._rows, [_norm(c, common) for c in zip(*_over(self, common))])

    def __add__(self, other: "Mat") -> "Mat":
        return _add(self, other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return _add(self, other, -1)

    def scale(self, a: int | str | Fraction) -> "Mat":
        a = rat(a)
        p, q = a.numerator, a.denominator
        if not p:
            return zeros(self._rows, self._cols)
        if q == 1 and p in (1, -1):
            # A sign keeps each row's gcd and denominator.
            return self if p == 1 else Mat(self._rows, self._cols, tuple([tuple([-x for x in r]) for r in self._num]), self._den)
        return _from_rows(self._cols, [_norm([p * x for x in r], d * q) for r, d in zip(self._num, self._den)])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self._cols != other._rows:
            raise ValueError(f"shape mismatch for product: {self._rows}x{self._cols} @ {other._rows}x{other._cols}")
        if not other._rows:
            return zeros(self._rows, other._cols)
        common = lcm(*other._den)
        return _dots(self, list(zip(*_over(other, common))), common)

    def mul_t(self, other: "Mat") -> "Mat":
        """self @ other^T, with the rows of ``other`` read as the columns of
        the right factor, so no transpose is formed."""
        if self._cols != other._cols:
            raise ValueError(f"shape mismatch for product: {self._rows}x{self._cols} @ ({other._rows}x{other._cols})^T")
        if not other._rows:
            return zeros(self._rows, 0)
        common = lcm(*other._den)
        return _dots(self, _over(other, common), common)

    def mul_vec(self, x: Sequence[Fraction]) -> Vec:
        if len(x) != self._cols:
            raise ValueError("vector length does not match column count")
        xs, xden = _int_row(x)
        return tuple([Fraction(sum(map(mul, r, xs)), d * xden) for r, d in zip(self._num, self._den)])

    def is_symmetric(self) -> bool:
        num, den = self._num, self._den
        return self._rows == self._cols and all(
            num[i][j] * den[j] == num[j][i] * den[i] for i in range(self._rows) for j in range(i + 1, self._cols)
        )

    def is_zero(self) -> bool:
        return not any(any(r) for r in self._num)

    def to_strings(self) -> list[list[str]]:
        """Every entry as ``str(Fraction)`` prints it, with no Fraction."""
        return [[str(x) for x in r] if d == 1 else [_rational_str(x, d) for x in r] for r, d in zip(self._num, self._den)]


_LIVE: WeakValueDictionary = WeakValueDictionary()  # stored content -> its one live Mat, for ``interned``


def interned(m: Mat) -> Mat:
    """The live ``Mat`` equal to m, or m itself, registered, when there is
    none.  The table is keyed by the stored content, not by a ``Mat``, and
    holds its matrices weakly, so it keeps none alive: an entry goes with
    the last reference to its matrix.  It is not a memo, and
    ``clear_memos`` leaves it alone."""
    return _LIVE.setdefault((m._cols, m._den, m._num), m)


def _rational_str(x: int, d: int) -> str:
    """``str(Fraction(x, d))`` for ints x and d > 0.  The zeros and leading
    ones of a reduced echelon row, about half of its entries, need no gcd."""
    if not x:
        return "0"
    if x == d:
        return "1"
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def _norm(ints: Sequence[int], den: int) -> tuple[IntRow, int]:
    """The stored form of the row ``ints / den``, ``den > 0``."""
    g = gcd(den, *ints)
    if g == 1:
        return tuple(ints), den
    return tuple([x // g for x in ints]), den // g


def _from_rows(ncols: int, rows: list[tuple[IntRow, int]]) -> Mat:
    """The matrix of stored-form rows, each ``(ints, den)``."""
    if not rows:
        return Mat(0, ncols, (), ())
    num, den = zip(*rows)
    return Mat(len(rows), ncols, num, den)


def _over(m: Mat, common: int) -> list[IntRow]:
    """The integer rows of ``m`` scaled to the common denominator
    ``common``, a multiple of every row denominator."""
    return [r if d == common else [x * (common // d) for x in r] for r, d in zip(m._num, m._den)]


def _dots(a: Mat, cols: Sequence[Sequence[int]], common: int) -> Mat:
    """a @ C / common, where C is the matrix with the integer columns
    ``cols``: each output entry is an integer dot product and each output
    row is reduced once."""
    return _from_rows(len(cols), [_norm([sum(map(mul, r, c)) for c in cols], d * common) for r, d in zip(a._num, a._den)])


def _add(a: Mat, b: Mat, sign: int) -> Mat:
    _same_shape(a, b)
    rows = []
    for ra, da, rb, db in zip(a._num, a._den, b._num, b._den):
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        rows.append(_norm([x * fa + y * fb for x, y in zip(ra, rb)], da * fa))
    return _from_rows(a._cols, rows)


def _same_shape(a: Mat, b: Mat) -> None:
    if a._rows != b._rows or a._cols != b._cols:
        raise ValueError(f"shape mismatch: {a._rows}x{a._cols} vs {b._rows}x{b._cols}")


def _int_row(row: Sequence[Fraction]) -> tuple[IntRow, int]:
    """Integers ``ints`` and ``den > 0`` with ``row == ints / den``.

    ``den`` is the least common denominator of the row, so no factor
    divides ``den`` and every entry of ``ints``: this is the row's stored
    form.
    """
    den = lcm(*[x.denominator for x in row])
    return tuple([x.numerator * (den // x.denominator) for x in row]), den


def mat(rows: Iterable[Iterable]) -> Mat:
    data = [_int_row(vec(r)) for r in rows]
    ncols = len(data[0][0]) if data else 0
    if any(len(r) != ncols for r, _ in data):
        raise ValueError("matrix rows have different lengths")
    return _from_rows(ncols, data)


def ratio_mat(ncols: int, rows: Iterable[Sequence[tuple[int, int]]]) -> Mat:
    """The matrix whose row i holds p / q for the int pairs (p, q), q != 0,
    of ``rows[i]``, with no Fraction: each row over the lcm of its q,
    reduced once."""
    data = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError("matrix rows have different lengths")
        den = lcm(*[q for _, q in r])
        data.append(_norm([p * (den // q) for p, q in r], den))
    return _from_rows(ncols, data)


def zeros(nrows: int, ncols: int) -> Mat:
    return Mat(nrows, ncols, ((0,) * ncols,) * nrows, (1,) * nrows)


def identity(n: int) -> Mat:
    return Mat(n, n, tuple(tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)), (1,) * n)


def hstack(a: Mat, b: Mat) -> Mat:
    if a._rows != b._rows:
        raise ValueError("row count mismatch in hstack")
    # A side without columns adds nothing: the other is the result.
    if not b._cols:
        return a
    if not a._cols:
        return b
    # Over the lcm of two coprime-reduced rows no common factor can
    # appear, so the joined rows need no gcd.
    rows = []
    for ra, da, rb, db in zip(a._num, a._den, b._num, b._den):
        if da == db:
            rows.append((ra + rb, da))
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            rows.append((tuple([x * fa for x in ra]) + tuple([y * fb for y in rb]), da * fa))
    return _from_rows(a._cols + b._cols, rows)


def vstack(a: Mat, b: Mat) -> Mat:
    if a._cols != b._cols:
        raise ValueError("column count mismatch in vstack")
    return Mat(a._rows + b._rows, a._cols, a._num + b._num, a._den + b._den)


def block_diag(a: Mat, b: Mat) -> Mat:
    top = hstack(a, zeros(a._rows, b._cols))
    bot = hstack(zeros(b._rows, a._cols), b)
    return vstack(top, bot)


@memo
def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    Leading entries are 1 with zeros above and below; this is the single
    canonical form used for all subspace equality tests: ``_eliminate`` on
    the stored integer rows (row denominators never matter to a row space).
    """
    done, pivots = _eliminate([list(row) for row in m._num], m._cols)
    return _from_rows(m._cols, done), tuple(pivots)


def _eliminate(work: list[list[int]], ncols: int, first: int = 0) -> tuple[list[tuple[IntRow, int]], list[int]]:
    """The RREF of the integer rows ``work`` as stored rows, zero rows
    last, and its pivot columns; ``work`` is overwritten.  A positive
    factor of a row changes nothing, since RREF is unique.  Only the rows
    that pivot at or beyond column ``first`` are finished, since no such
    row is changed by a row above it; the others are left empty.

    Two phases.  The forward phase pivots on the row with the least
    |entry| in the pivot column, the first one on ties, and takes a ±1 at
    once.  It eliminates each pivot column in the rows below the pivot
    only, and only right of it, since the prefix is already zero; the
    multipliers are divided by their gcd, and a row is divided by the gcd
    of its entries once, when it becomes a pivot row.
    The back phase finishes the pivot rows from the last one up: the
    finished rows below are subtracted over the lcm of their denominators,
    each already in stored form with its leading entry equal to its
    denominator, and one gcd and the sign of the pivot give the stored row
    directly.

    (Bareiss' integer-preserving elimination with exact division needs
    no gcd at all, but the rows here come from unrelated large
    denominators, so its entries, the minors of the input, grow far past
    the reduced rows: on the 354 distinct ``rref`` inputs of the first
    eight seed-0 ``extend-large`` benchmark items (October 2026) its
    forward phase alone took 0.68 s, and Bareiss Gauss-Jordan 2.5 s,
    against 0.08 s for this elimination, on Python 3.11 without gmpy2.)

    (The pivot row changes no output: the reduced echelon form of a row
    space and its pivot columns are unique, whichever nonzero entry
    pivots.  It changes the intermediate integers, since every row below
    is multiplied by the pivot entry, over its gcd with the row's own.  In
    a relational product the Zassenhaus rows of an adjoint come first and
    can be far taller than the rows below them.  Replaying the 200
    ``_eliminate`` inputs of the first eight seed-0 ``extend-large`` items,
    the first nonzero entry took 73-93 ms, this rule 65-68 ms, the row with
    the fewest bits 75-85 ms, the sparsest row 83-109 ms, and the first ±1
    else the first nonzero entry 78-84 ms; on the 1,202 inputs of ten
    seed-0 ``check-batch`` instances, 40-45 ms for the first nonzero entry
    against 36-44 ms.  The same rule in ``det`` gave 7.1-8.5 ms against
    7.3-8.8 ms on the 116 determinants of 16 seed-0 ``analyze-narrow``
    items, within the spread, so ``det`` keeps the first nonzero entry.)
    """
    nrows = len(work)
    pivots: list[int] = []
    for pcol in range(ncols):
        prow = len(pivots)
        if prow >= nrows:
            break
        src, least = None, 0
        for r in range(prow, nrows):
            x = abs(work[r][pcol])
            if x and (not least or x < least):
                src, least = r, x
                if x == 1:
                    break
        if src is None:
            continue
        work[prow], work[src] = work[src], work[prow]
        work[prow] = prow_vals = _reduced(work[prow])
        p = prow_vals[pcol]
        ptail = prow_vals[pcol + 1:]
        for r in range(prow + 1, nrows):
            row = work[r]
            f = row[pcol]
            if f:
                g = gcd(p, f)
                pr, fr = p // g, f // g
                row[pcol] = 0
                row[pcol + 1:] = [pr * x - fr * y for x, y in zip(row[pcol + 1:], ptail)]
        pivots.append(pcol)
    npiv = len(pivots)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    done: list[tuple[IntRow, int]] = [((), 1)] * npiv
    for i in range(npiv - 1, -1, -1):
        row, pc = work[i], pivots[i]
        if pc < first:
            break
        # Subtracting each finished row k below with the coefficient read at
        # its pivot clears that column and no other pivot column, so only
        # the free columns right of pc are computed.
        later = [(row[pivots[k]], done[k]) for k in range(i + 1, npiv) if row[pivots[k]]]
        common = lcm(*[d for _, (_, d) in later])
        fs = [(c * (common // d), ints) for c, (ints, d) in later]
        p = row[pc]
        acc = [0] * ncols
        acc[pc] = p * common
        for j in free:
            if j > pc:
                v = row[j] * common
                for f, ints in fs:
                    if ints[j]:
                        v -= f * ints[j]
                acc[j] = v
        done[i] = _norm(acc if p > 0 else [-x for x in acc], abs(p) * common)
    return done + [((0,) * ncols, 1)] * (nrows - npiv), pivots


def _reduced(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rank(m: Mat) -> int:
    return len(rref(m)[1])


@memo
def kernel(m: Mat) -> Mat:
    """The reduced echelon basis of the nullspace {x : Mx = 0}, as the rows
    of a k x cols matrix (``_null_space`` of the stored rows)."""
    return _null_space(m._num, m._cols)


def _null_space(rows: Iterable[Sequence[int]], ncols: int) -> Mat:
    """The reduced echelon basis of {x : r . x = 0} over the integer rows r,
    from one ``_eliminate`` of the rows with their columns reversed.  Its
    free-variable basis (per free column f, 1 at f and minus column f of
    the pivot rows at the pivots), in reverse order and each vector
    reversed, is 1 at its free column f, 0 at the other free columns and
    nonzero only at pivot columns after f.  A reversal keeps the gcd: one
    ``_norm`` each."""
    done, pivots = _eliminate([list(r[::-1]) for r in rows], ncols)
    red = _from_rows(ncols, done[:len(pivots)])
    # The pivot rows over one denominator give every vector as ints.
    common = lcm(*red._den)
    over = _over(red, common)
    pivset = set(pivots)
    out = []
    for fc in range(ncols - 1, -1, -1):
        if fc in pivset:
            continue
        v = [0] * ncols
        v[fc] = common
        for r, pc in zip(over, pivots):
            v[pc] = -r[fc]
        out.append(_norm(v[::-1], common))
    return _from_rows(ncols, out)


def zassenhaus(nb: int, ncols: int, *blocks: tuple) -> Mat:
    """The reduced echelon basis of {x^T a : x^T b = 0}, from one
    ``_eliminate`` of the Zassenhaus rows [b | a], ``nb`` the width of b
    (plain spans go through ``rref``, not here): the a-parts of its rows
    that pivot at or beyond ``nb``.  Every other row has a pivot in the
    b-part that no kept row can cancel, and the kept rows are zero there,
    so each a-part is already a stored row.

    The rows are assembled in integers from the stored rows of the blocks
    (m, place, ...), with no intermediate matrix.  A place (at, f, lo, hi)
    adds f times the entries lo..hi-1 of a row of m, over its denominator,
    at columns at.., so the rows of one block are their denominators times
    the intended rows, which keeps the row space.  Only the kept rows are
    finished by the back phase."""
    work = []
    for m, *places in blocks:
        for r in m._num:
            row = [0] * ncols
            for at, f, lo, hi in places:
                end = at + hi - lo
                row[at:end] = [x + f * y for x, y in zip(row[at:end], r[lo:hi])]
            work.append(row)
    done, pivots = _eliminate(work, ncols, nb)
    return _from_rows(ncols - nb, [(v[nb:], d) for (v, d), p in zip(done, pivots) if p >= nb])


def pairing_null_space(left: Mat, right: Mat) -> Mat:
    """The reduced echelon basis of {[h | k] : l h = r k for each row l of
    ``left`` and the row r of ``right`` beside it}: the null space of the rows
    [l | -r], joined by ``hstack``.  No memo: a key would keep the rows alive."""
    return _null_space(hstack(left, right.scale(-1))._num, left._cols + right._cols)


def row_dots(a: Mat, b: Mat) -> Vec:
    """Row i of a dot row i of b for every i, one integer dot each."""
    _same_shape(a, b)
    return tuple([Fraction(sum(map(mul, r, s)), d * e) for r, d, s, e in zip(a._num, a._den, b._num, b._den)])


def is_reduced_echelon(m: Mat) -> bool:
    """Whether the rows of ``m`` are a reduced echelon basis: every row
    nonzero with leading entry 1, the leading columns strictly increasing,
    and each leading column zero in every other row.  Read off the stored
    rows, where a leading 1 is an entry equal to its row's denominator; no
    elimination runs."""
    leads: list[int] = []
    for r, d in zip(m._num, m._den):
        # A leading 1 is stored as d > 0 with zeros before it, so it is the
        # first entry equal to d; a zero row has no such entry.
        if d not in r:
            return False
        lead = r.index(d)
        if any(r[:lead]) or (leads and lead <= leads[-1]):
            return False
        leads.append(lead)
    # Left of its own leading column a row is zero, so only the leading
    # columns of the rows below it can be nonzero.
    return not any(r[j] for i, r in enumerate(m._num) for j in leads[i + 1:])


def nonzero_rows(m: Mat) -> int:
    """The number of nonzero rows of ``m``: in a matrix whose zero rows come
    last, such as either half of a graph basis, the rows before them."""
    return sum(1 for r in m._num if any(r))


def echelon_coords(red: Mat, xs: Mat) -> Mat | None:
    """The coefficients C with C @ red == xs, or None when some row of xs
    is not a combination of the rows of red.

    ``red`` must be in reduced echelon form up to zero rows, so the
    coefficient of a nonzero row is the entry of x at its leading 1, and
    no elimination runs; each x is then checked in integers at the other
    columns, with the rows of ``red`` over one denominator.
    """
    if xs._cols != red._cols:
        raise ValueError("vector length does not match column count")
    # A leading 1 is stored as the row's denominator; a zero row has none.
    lead = [r.index(d) if any(r) else None for r, d in zip(red._num, red._den)]
    pivots = [p for p in lead if p is not None]
    common = lcm(*red._den)
    over = [r for r, p in zip(_over(red, common), lead) if p is not None]
    cols = [(j, [r[j] for r in over]) for j in range(red._cols) if j not in pivots]
    out = []
    for r, d in zip(xs._num, xs._den):
        coeffs = [r[p] for p in pivots]
        if any(r[j] * common != sum(map(mul, coeffs, c)) for j, c in cols):
            return None
        out.append(_norm([0 if p is None else r[p] for p in lead], d))
    return _from_rows(red._rows, out)


def solve(a: Mat, b: Mat) -> Mat | None:
    """Some X with a @ X == b, or None when a column of b is not in the
    column space of a.

    One RREF of [a | b]: a pivot in the b-part means no solution;
    otherwise row p of X is the b-part of the row that pivots at column p,
    and 0 at a free column.
    """
    if b._rows != a._rows:
        raise ValueError("right-hand side has wrong row count")
    n = a._cols
    red, pivots = rref(hstack(a, b))
    if pivots and pivots[-1] >= n:
        return None
    at = dict(zip(pivots, zip(red._num, red._den)))
    return _from_rows(b._cols, [_norm(at[p][0][n:], at[p][1]) if p in at else ((0,) * b._cols, 1) for p in range(n)])


def det(m: Mat) -> Fraction:
    """Exact determinant by elimination on the stored integer rows.

    As in ``ldl_psd_certificate``, row r is ``a[r] / den[r]``, reduced by a
    gcd after each update (``_schur_update``), and the determinant is the
    signed product of the pivots ``a[i][i] / den[i]``.  (Bareiss on rows
    scaled to integers never reduces: on a 19 x 19 form matrix with
    unrelated 280-bit denominators it ran 5x slower.)
    """
    if m._rows != m._cols:
        raise ValueError("only square matrices have a determinant")
    n = m._rows
    a = [list(r) for r in m._num]
    den = list(m._den)
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
    with a nonzero entry f becomes its Schur complement row over a new
    ``den[r]``, with the multipliers piv and f divided by their gcd first
    and the result reduced by a gcd (``den[r]`` keeps its sign when the
    pivot is positive, as in ``ldl_psd_certificate``).  Columns <= i of
    those rows are left stale and never read again."""
    prow = a[i]
    piv = prow[i]
    ptail = prow[i + 1:]
    for r in range(i + 1, len(a)):
        row = a[r]
        f = row[i]
        if f:
            g = gcd(piv, f)
            pr, fr = piv // g, f // g
            tail = [pr * x - fr * y for x, y in zip(row[i + 1:], ptail)]
            g = gcd(den[r] * pr, *tail)
            den[r] = den[r] * pr // g
            row[i + 1:] = tail if g == 1 else [x // g for x in tail]


class PsdCertificate(NamedTuple):
    """Exact factorization P^T M P = L D L^T with D >= 0 entrywise.

    ``perm`` encodes the permutation matrix P by column: P[i][j] = 1 iff
    i == perm[j], so (P^T M P)[a][b] = M[perm[a]][perm[b]].

    ``lower_cols`` stores L by columns: its row i is column i of L, over
    that column's own denominator.  Column i of the elimination's L is the
    Schur column at step i divided by its pivot, whose entries are ratios
    of minors with one common denominator, so a column stays near the
    height of the tallest D entry; a row of L mixes the denominators of
    every step and grew to 2,759 bits against 453 for its columns on the
    395-bit seed-0 dim-12 form of S_K,c.

    ``verify`` decides the whole identity, for a ``perm`` that is a
    permutation, with products and subtractions only.  L D L^T is
    symmetric, so it equals A = P^T M P exactly when A is symmetric and
    the entries from the diagonal on agree.  Those are decided by peeling:
    from row r of A, from column r on, it subtracts D_i L_ri (column i of
    L)^T for every column i in order, reduces the row by its gcd whenever
    its denominator grows, and requires a zero row at the end.  For a
    valid certificate every partial row is a row of a Schur complement, so
    its integers stay the size of the entries.  No shape of L is assumed,
    so an L that is not unit lower triangular is judged on its product
    like any other; ``is_definite`` reads its shape.
    """

    perm: tuple[int, ...]
    lower_cols: Mat
    diag: Vec

    def verify(self, m: Mat) -> bool:
        cols, perm = self.lower_cols, self.perm
        n = m._rows
        if sorted(perm) != list(range(n)) or m._cols != n or cols._cols != n or cols._rows != len(self.diag):
            return False
        diag = [(d.numerator, d.denominator) for d in self.diag]
        if any(p < 0 for p, _ in diag) or not m.is_symmetric():
            return False
        # D_i (column i)(column i)^T for each D_i = p / q != 0 and column c / e: (p, q e, e, c).
        terms = [(p, q * e, e, c) for (p, q), c, e in zip(diag, cols._num, cols._den) if p]
        # A = P^T M P and L D L^T are symmetric, so the entries from the
        # diagonal on decide both triangles: row r of A is peeled from column r.
        for r, i in enumerate(perm):
            mrow, den = m._num[i], m._den[i]
            row = [mrow[j] for j in perm[r:]]
            for p, qe, e, c in terms:
                x = c[r]
                if not x:
                    continue
                # The multiplier D_i L_ri = w / v in lowest terms, then
                # row / den - w c / (v e), over den v e / gcd(den, v e).
                w, v = p * x, qe
                g = gcd(w, v)
                if g != 1:
                    w, v = w // g, v // g
                v *= e
                g = gcd(den, v)
                f, s = w * (den // g), v // g
                if s == 1:
                    row = [y - f * z for y, z in zip(row, c[r:])]
                    continue
                row = [s * y - f * z for y, z in zip(row, c[r:])]
                den *= s
                g = gcd(den, *row)
                if g != 1:
                    den //= g
                    row = [y // g for y in row]
            if any(row):
                return False
        return True

    def is_definite(self) -> bool:
        """Whether this certificate, once verified, proves M positive
        definite: L unit lower triangular, so invertible, and every D > 0.
        Column i of a unit lower triangular L is stored as zeros before i
        and its denominator at i."""
        cols = self.lower_cols
        return (
            cols._rows == cols._cols
            and all(d > 0 for d in self.diag)
            and all(r[i] == e and not any(r[:i]) for i, (r, e) in enumerate(zip(cols._num, cols._den)))
        )


class PsdResult(NamedTuple):  # the one verdict of a PSD decision
    certificate: PsdCertificate | None
    witness: Vec | tuple[Vec, Vec] | None  # of a negative value: a vector, or a graph pair {phi, phi'}

    @property
    def ok(self) -> bool:
        return self.certificate is not None


@memo
def ldl_psd_certificate(m: Mat) -> PsdResult:
    """Exact PSD test by LDL^T with diagonal pivoting.

    Before each step a negative remaining diagonal entry of the Schur
    complement refutes at once: its unit vector e_j, lifted out of the
    Schur block by ``_refuted``, gives v with v^T M v < 0.  Otherwise the
    largest remaining diagonal entry is the pivot (the first one on ties).
    When all remaining diagonal entries are zero the remaining block must
    be zero too, otherwise the matrix is indefinite and a nonzero
    off-diagonal entry gives the witness the same way.  A PSD matrix never
    has a negative Schur diagonal entry, so its certificate does not
    depend on the early refutation.  Both outcomes are checked before they
    are returned: the certificate by ``verify``, the counterexample by its
    quadratic value.  Eigenvalues never appear: they would leave the
    rational field.

    The elimination runs on the stored integer rows: row r of the running
    Schur complement is ``a[r] / den[r]`` with Python ints and
    ``den[r] > 0``, one denominator per row, reduced by a gcd after each
    update.  (One denominator for the whole matrix, as in Bareiss, grows
    far beyond any entry on wide product-space Grams.)  A symmetric pivot
    swap runs over every row, the finished pivot rows too, so pivot row i
    keeps the Schur row of step i in the final order, and by symmetry
    column i of L is that row over its pivot, L[r][i] = a[i][r] / a[i][i]:
    one stored row of ``lower_cols`` each, with no multiplier table;
    ``D_i = a[i][i] / den[i]``.  A rational LDL^T with a fixed pivot order
    is unique, so the certificate does not depend on this representation.
    """
    if not m.is_symmetric():
        raise ValueError("ldl_psd_certificate requires a symmetric matrix")
    n = m._rows
    a = [list(r) for r in m._num]
    den = list(m._den)
    perm = list(range(n))
    d: list[Fraction] = []
    for i in range(n):
        # Columns < i of the rows >= i are stale and never read again.
        p = i
        for j in range(i, n):
            if a[j][j] < 0:
                return _refuted(m, perm[:i], {perm[j]: ONE})
            if a[j][j] * den[p] > a[p][p] * den[j]:
                p = j
        if not a[p][p]:
            # All remaining diagonal entries vanish; any nonzero
            # off-diagonal entry witnesses indefiniteness.
            off = next(((r, c) for r in range(i, n) for c in range(r + 1, n) if a[r][c] != 0), None)
            if off is not None:
                r, c = off
                return _refuted(m, perm[:i], {perm[r]: ONE, perm[c]: -ONE if a[r][c] > 0 else ONE})
            # The Schur block is zero: a unit pivot makes column j of L e_j.
            for j in range(i, n):
                a[j][j] = 1
            d.extend([ZERO] * (n - i))
            break
        if p != i:
            a[i], a[p] = a[p], a[i]
            den[i], den[p] = den[p], den[i]
            for row in a:
                row[i], row[p] = row[p], row[i]
            perm[i], perm[p] = perm[p], perm[i]
        d.append(Fraction(a[i][i], den[i]))
        _schur_update(a, den, i)
    cols = [_norm([0] * i + a[i][i:], a[i][i]) for i in range(n)]
    cert = PsdCertificate(tuple(perm), _from_rows(n, cols), tuple(d))
    if not cert.verify(m):
        raise CrossCheckError("LDL^T factorization does not reproduce the matrix")
    return PsdResult(cert, None)


def _refuted(m: Mat, pivots: list[int], support: dict[int, Fraction]) -> PsdResult:
    """The refutation from the vector s of the Schur block with the entries
    ``support`` (indices of m), once its quadratic value is negative.

    With P the ``pivots`` taken and S the rest, the witness is s on S and
    -A[P,P]^-1 A[P,S] s on P, from one ``solve``: A[P,P] is positive
    definite by those steps, and the value of the witness is s^T (A/A[P,P])
    s, that of s in the Schur complement.
    """
    witness = [ZERO] * m._rows
    for j, x in support.items():
        witness[j] = x
    if pivots:
        x = solve(m.take(pivots, pivots), m.take(pivots, list(support)))
        for k, r in enumerate(pivots):
            witness[r] = -sum(map(mul, x.row(k), support.values()))
    if sum(map(mul, m.mul_vec(witness), witness)) >= 0:
        raise CrossCheckError("LDL^T counterexample does not have a negative quadratic value")
    return PsdResult(None, tuple(witness))
