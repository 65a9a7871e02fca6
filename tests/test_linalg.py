"""Exact linear algebra kernel tests.

Expected values here are either immediate by inspection or frozen from a
hand Gaussian elimination; the hypothesis blocks check the algebraic
invariants on random rational inputs.
"""

import itertools
import random
from fractions import Fraction
from math import gcd
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcalc import linalg
from relcalc.errors import CrossCheckError
from relcalc.linalg import (
    PsdCertificate,
    clear_memos,
    det,
    hstack,
    identity,
    is_reduced_echelon,
    kernel,
    ldl_psd_certificate,
    mat,
    pairing_null_space,
    rank,
    rref,
    solve,
    vec,
    vstack,
    zassenhaus,
    zeros,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)

matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(st.lists(rationals, min_size=m, max_size=m), min_size=n, max_size=n).map(mat)
    )
)


def test_rref_rank_one_by_inspection():
    red, pivots = rref(mat([[2, 4], [1, 2]]))
    assert red == mat([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_identity():
    red, pivots = rref(identity(3))
    assert red == identity(3)
    assert pivots == (0, 1, 2)


def test_rref_hand_elimination():
    # Frozen by hand: R2 -= R1, scale, back substitute.
    red, pivots = rref(mat([[1, 1, 1], [1, 3, 1]]))
    assert red == mat([[1, 0, 1], [0, 1, 0]])
    assert pivots == (0, 1)


def test_kernel_identity_is_empty():
    k = kernel(identity(2))
    assert (k.rows, k.cols) == (0, 2)


def test_kernel_zero_matrix():
    assert kernel(zeros(2, 2)) == identity(2)


def test_kernel_single_equation():
    m = mat([[1, 3]])
    k = kernel(m)
    assert k.rows == 1
    assert (m @ k.T).is_zero()
    # Same line as (3, -1).
    assert rank(vstack(k, mat([[3, -1]]))) == 1


def test_solve_identity():
    assert solve(identity(2), mat([[1], [2]])) == mat([[1], [2]])


def test_solve_underdetermined():
    # a x = b: one equation, two unknowns.
    a = mat([[1, 3]])
    x = solve(a, mat([[4]]))
    assert x is not None
    assert a @ x == mat([[4]])


def test_solve_inconsistent():
    assert solve(mat([[1], [0]]), mat([[0], [1]])) is None


def test_ldl_scalar():
    res = ldl_psd_certificate(mat([[4]]))
    assert res.ok
    assert res.certificate.lower_cols == mat([[1]])
    assert res.certificate.lower_cols.T == mat([[1]])
    assert res.certificate.diag == vec([4])


def test_ldl_rank_one_pivots_to_larger_diagonal():
    m = mat([[1, 3], [3, 9]])
    res = ldl_psd_certificate(m)
    assert res.ok
    cert = res.certificate
    assert cert.diag == vec([9, 0])
    assert cert.verify(m)


def quadratic_value(m, v):
    """v^T M v for one vector v."""
    return (mat([v]) @ m).mul_t(mat([v]))[0, 0]


def test_ldl_indefinite_counterexample():
    m = mat([[0, 1], [1, 0]])
    res = ldl_psd_certificate(m)
    assert not res.ok
    v = res.witness
    assert quadratic_value(m, v) == Fraction(-2)


def test_ldl_certificate_mismatch_is_a_cross_check_error(monkeypatch):
    monkeypatch.setattr(PsdCertificate, "verify", lambda self, m: False)
    clear_memos()
    with pytest.raises(CrossCheckError):
        ldl_psd_certificate(mat([[2, 1], [1, 3]]))


def test_ldl_unchecked_counterexample_is_a_cross_check_error(monkeypatch):
    # [[1, 2], [2, 1]] refutes after one pivot, at its Schur diagonal -3:
    # its witness is (-2, 1), the -2 from one solve.  A zero solution
    # plants (0, 1), of quadratic value 1: it refutes nothing.
    monkeypatch.setattr(linalg, "solve", lambda a, b: zeros(a.cols, b.cols))
    clear_memos()
    with pytest.raises(CrossCheckError):
        ldl_psd_certificate(mat([[1, 2], [2, 1]]))
    # At step 0 no solve runs: the witness of [[0, 1], [1, 0]] is its
    # support (1, -1).  A zero quadratic value refutes nothing.
    monkeypatch.setattr(linalg, "solve", None)
    monkeypatch.setattr(linalg.Mat, "mul_vec", lambda self, x: tuple(Fraction(0) for _ in x))
    clear_memos()
    with pytest.raises(CrossCheckError):
        ldl_psd_certificate(mat([[0, 1], [1, 0]]))


def _fraction_solve(a, b):
    """x with a x = b for a nonsingular square list matrix a, by
    Gauss-Jordan elimination on Fractions."""
    n = len(a)
    rows = [[Fraction(x) for x in r] + [Fraction(y)] for r, y in zip(a, b)]
    for i in range(n):
        p = next(r for r in range(i, n) if rows[r][i])
        rows[i], rows[p] = rows[p], rows[i]
        rows[i] = [x / rows[i][i] for x in rows[i]]
        for r in range(n):
            if r != i and rows[r][i]:
                rows[r] = [x - rows[r][i] * y for x, y in zip(rows[r], rows[i])]
    return [r[n] for r in rows]


@pytest.mark.parametrize(
    "m, pivots, support",
    [
        # A negative Schur diagonal entry, after 0, 1, 2 and 3 pivots.
        ([[1, 0], [0, -1]], [], {1: 1}),
        ([[1, 2], [2, 1]], [0], {1: 1}),
        ([[4, -2, 2], [-2, 1, 1], [2, 1, 6]], [2, 0], {1: 1}),
        ([[5, -1, 0, -1], [-1, 6, 5, 3], [0, 5, 5, -3], [-1, 3, -3, 5]], [1, 0, 3], {2: 1}),
        # A zero Schur diagonal with a nonzero off-diagonal entry, after 0,
        # 1 and 2 pivots.
        ([[0, 1], [1, 0]], [], {0: 1, 1: -1}),
        ([[1, 1, 1], [1, 1, 2], [1, 2, 1]], [0], {1: 1, 2: -1}),
        ([[1, -3, 0, 2], [-3, 1, 0, 2], [0, 0, 1, 0], [2, 2, 0, 4]], [3, 2], {0: 1, 1: 1}),
    ],
)
def test_ldl_witness_is_the_schur_complement_vector(m, pivots, support):
    # With P the pivots taken, listed in the order the rule takes them
    # ([2, 0], [1, 0, 3] and [3, 2] are not the index order), and S the
    # rest, the witness is the Schur block vector s on S and
    # -A[P,P]^-1 A[P,S] s on P.
    n = len(m)
    rest = [j for j in range(n) if j not in pivots]
    s = [Fraction(support.get(j, 0)) for j in rest]
    lifted = _fraction_solve([[m[p][q] for q in pivots] for p in pivots], [sum(m[p][j] * x for j, x in zip(rest, s)) for p in pivots])
    expected = [Fraction(0)] * n
    for j, x in zip(rest, s):
        expected[j] = x
    for p, x in zip(pivots, lifted):
        expected[p] = -x
    res = ldl_psd_certificate(mat(m))
    assert not res.ok
    assert res.witness == tuple(expected)
    assert quadratic_value(mat(m), res.witness) < 0


@st.composite
def refuted_inputs(draw):
    """P^T (L B L^T) P for a unit lower triangular L, a permutation P and
    B = diag(d_1, ..., d_k) (+) C, every d_i > 0 and C symmetric but not
    PSD: a small negative corner, or a zero diagonal with a nonzero entry
    off it and L the identity on C, so that C can be the whole Schur
    block.  Indefinite by Sylvester's law of inertia, so the elimination
    refutes, after as many pivots as its rule takes, in an order that is
    seldom the index order."""
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    zero_diagonal = n - k >= 2 and draw(st.booleans())
    c = [[Fraction(0)] * (n - k) for _ in range(n - k)]
    for i in range(n - k):
        for j in range(i + 1, n - k):
            c[i][j] = c[j][i] = draw(rationals)
    if zero_diagonal:
        c[0][1] = c[1][0] = draw(rationals.filter(bool))
    else:
        c[0][0] = -Fraction(1, draw(st.integers(min_value=1, max_value=9)))
    b = [[Fraction(0)] * n for _ in range(n)]
    for i in range(k):
        b[i][i] = Fraction(draw(st.integers(min_value=1, max_value=9)))
    for i in range(n - k):
        b[k + i][k:] = c[i]
    small = st.sampled_from([Fraction(p, q) for p in (-1, 1) for q in (1, 2, 3)])
    mixed = [[j < i and (j < k or not zero_diagonal) for j in range(n)] for i in range(n)]
    lower = mat([[draw(small) if mixed[i][j] else Fraction(int(i == j)) for j in range(n)] for i in range(n)])
    perm = draw(st.permutations(range(n)))
    return (lower @ mat(b)).mul_t(lower).take(perm, perm)


@given(refuted_inputs())
@settings(max_examples=200, deadline=None)
def test_ldl_witness_is_the_parent_solve_on_every_refutation(m):
    # The witness is read off the pivot rows; the lift it must equal is
    # -A[P,P]^-1 A[P,S] s from one solve of A[P,P] itself, P the pivots
    # taken (indices of m), S the rest and s the Schur block vector.
    seen = []
    real = linalg._refuted

    def spy(m, a, perm, i, support):
        seen.append((perm[:i], {perm[j]: Fraction(x) for j, x in support.items()}))
        return real(m, a, perm, i, support)

    clear_memos()
    with patch.object(linalg, "_refuted", spy):
        res = ldl_psd_certificate(m)
    assert not res.ok and len(seen) == 1
    pivots, support = seen[0]
    expected = [Fraction(0)] * m.rows
    for j, x in support.items():
        expected[j] = x
    if pivots:
        x = solve(m.take(pivots, pivots), m.take(pivots, list(support)))
        for k, r in enumerate(pivots):
            expected[r] = -sum(map(mul, x.row(k), support.values()))
    assert res.witness == tuple(expected)
    assert quadratic_value(m, res.witness) < 0


def test_ldl_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        ldl_psd_certificate(mat([[0, 1], [0, 0]]))


def test_ldl_empty_matrix():
    res = ldl_psd_certificate(zeros(0, 0))
    assert res.ok


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_rank_nullity(m):
    red, pivots = rref(m)
    again, pivots2 = rref(red)
    assert again == red
    assert pivots2 == pivots
    k = kernel(m)
    assert (m @ k.T).is_zero()
    assert len(pivots) + k.rows == m.cols


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_solve_membership(m):
    # Mx for a fixed x must be solvable, and the residual must vanish.
    x = vec([Fraction(i + 1, 2) for i in range(m.cols)])
    b = mat([m.mul_vec(x)]).T
    got = solve(m, b)
    assert got is not None
    assert m @ got == b


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_gram_matrices_certify_psd(m):
    gram = m.T @ m
    res = ldl_psd_certificate(gram)
    assert res.ok
    cert = res.certificate
    assert all(d >= 0 for d in cert.diag)
    assert gram.take(cert.perm, cert.perm) == ref_reconstruct(cert)


@given(matrices, st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_planted_negative_direction_is_caught(m, idx):
    gram = m.T @ m
    n = gram.rows
    i = idx % n
    # Subtract enough of e_i e_i^T to plant a negative eigendirection.
    planted = [[gram[r, c] for c in range(n)] for r in range(n)]
    planted[i][i] -= gram[i, i] + 1
    planted_m = mat(planted)
    res = ldl_psd_certificate(planted_m)
    assert not res.ok
    assert quadratic_value(planted_m, res.witness) < 0


def test_solve_multiple_rhs():
    m = mat([[1, 0], [1, 1]])
    b = mat([[3, 1], [0, 2]])
    x = solve(m, b)
    assert x == mat([[3, 1], [-3, 1]])
    assert m @ x == b


def test_solve_inconsistent_column():
    # (0, 1)^T is not a multiple of the column (1, 0)^T.
    assert solve(mat([[1], [0]]), mat([[2, 0], [0, 1]])) is None
    with pytest.raises(ValueError):
        solve(mat([[1], [0]]), mat([[1], [0], [0]]))


# --------------------------------------------- LDL^T against the Fraction one


def _fraction_ldl(m):
    """The elimination on Fractions that the integer-row kernel replaced,
    with the kernel's pivot rule: refute at the first negative remaining
    diagonal entry before each step, else pivot on the largest one.

    Returns ``("psd", perm, lower, diag)`` when m is PSD and
    ``("indefinite", v)`` otherwise; kept here as the reference the kernel
    must match.
    """
    zero, one = Fraction(0), Fraction(1)
    n = m.rows
    a = lists(m)
    lower = [[one if i == j else zero for j in range(n)] for i in range(n)]
    perm = list(range(n))
    d = []

    def counterexample(v):
        w = list(v)
        for i in range(n - 1, -1, -1):
            s = w[i]
            for j in range(i + 1, n):
                s -= lower[j][i] * w[j]
            w[i] = s
        out = [zero] * n
        for pos in range(n):
            out[perm[pos]] = w[pos]
        return tuple(out)

    for i in range(n):
        neg = next((j for j in range(i, n) if a[j][j] < 0), None)
        if neg is not None:
            v = [zero] * n
            v[neg] = one
            return "indefinite", counterexample(v)
        p = max(range(i, n), key=lambda j: a[j][j])
        if a[p][p] == 0:
            off = next(((r, c) for r in range(i, n) for c in range(r + 1, n) if a[r][c] != 0), None)
            if off is not None:
                r, c = off
                v = [zero] * n
                v[r] = one
                v[c] = -one if a[r][c] > 0 else one
                return "indefinite", counterexample(v)
            d.extend([zero] * (n - i))
            break
        if p != i:
            a[i], a[p] = a[p], a[i]
            for row in a:
                row[i], row[p] = row[p], row[i]
            perm[i], perm[p] = perm[p], perm[i]
            for j in range(i):
                lower[i][j], lower[p][j] = lower[p][j], lower[i][j]
        piv = a[i][i]
        d.append(piv)
        for r in range(i + 1, n):
            f = a[r][i] / piv
            lower[r][i] = f
            if f:
                for c in range(i, n):
                    a[r][c] -= f * a[i][c]
    return "psd", tuple(perm), mat(lower), tuple(d)


LARGE_PRIMES = (1_000_003, 999_983, 2_147_483_647, 1_000_000_007, 2**61 - 1, 998_244_353, 104_729)


def _tall_gram(draw, n):
    # C C^T for an n x k matrix C with k <= n: PSD, rank at most k.
    k = draw(st.integers(min_value=0, max_value=n))
    c = mat([[draw(rationals) for _ in range(k)] for _ in range(n)])
    return c @ c.T


@st.composite
def ldl_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    family = draw(st.sampled_from(["gram", "planted", "zero-diagonal", "large-primes"]))
    g = lists(_tall_gram(draw, n))
    if family == "planted" and n:
        # Subtract enough of e_i e_i^T to plant a negative direction.
        i = draw(st.integers(min_value=0, max_value=n - 1))
        g[i][i] -= g[i][i] + draw(st.integers(min_value=1, max_value=5))
    elif family == "zero-diagonal" and n >= 2:
        # Zero out rows and columns, then couple one of them to another
        # index: a zero diagonal entry with a nonzero off-diagonal one.
        zeroed = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n, unique=True))
        for z in zeroed:
            for j in range(n):
                g[z][j] = g[j][z] = Fraction(0)
        i = zeroed[0]
        j = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda j: j != i))
        x = draw(rationals.filter(bool))
        g[i][j] = g[j][i] = x
    elif family == "large-primes":
        # Row and column r scaled by 1/p_r, p_r a large prime: D G D with
        # unrelated denominators, indefinite when G is.
        ps = [draw(st.sampled_from(LARGE_PRIMES)) for _ in range(n)]
        if draw(st.booleans()):
            for r in range(n):
                g[r][r] -= draw(st.integers(min_value=0, max_value=3))
        g = [[g[r][c] / (ps[r] * ps[c]) for c in range(n)] for r in range(n)]
    return mat(g)


@given(ldl_inputs())
@settings(max_examples=300, deadline=None)
def test_integer_row_ldl_matches_the_fraction_elimination(m):
    ref = _fraction_ldl(m)
    res = ldl_psd_certificate(m)
    if ref[0] == "psd":
        assert res.ok
        cert = res.certificate
        assert (cert.perm, cert.lower_cols, cert.diag) == (ref[1], ref[2].T, ref[3])
    else:
        assert not res.ok
        assert res.witness == ref[1]
        assert quadratic_value(m, ref[1]) < 0


def test_equal_matrices_hash_equally():
    halves = mat([["2/4", "-6/4"]])
    assert halves == mat([["1/2", "-3/2"]])
    assert hash(halves) == hash(mat([["1/2", "-3/2"]]))
    from_ints = mat([[1, 0, -7], [3, 2, 5]])
    from_strings = mat([["1", "0/3", "-14/2"], ["9/3", "2/1", "5"]])
    assert from_ints == from_strings
    assert hash(from_ints) == hash(from_strings)


def test_a_matrix_is_a_slotted_value_with_a_read_only_shape():
    m = mat([[1, 2], ["1/2", 4]])
    for name in ("rows", "cols"):
        with pytest.raises(AttributeError):
            setattr(m, name, 1)
    assert (m.rows, m.cols) == (2, 2)
    assert not hasattr(m, "__dict__")
    assert repr(m) == "Mat(rows=2, cols=2, _num=((1, 2), (1, 8)), _den=(1, 2))"
    assert repr(zeros(0, 3)) == "Mat(rows=0, cols=3, _num=(), _den=())"
    # perfbench/tracer.py counts these calls by patching the class dict.
    assert {"__eq__", "__hash__", "__matmul__", "mul_vec"} <= set(vars(linalg.Mat))


# ------------------------------------------ Mat algebra against Fraction lists
#
# A Mat keeps integer rows with one reduced denominator per row.  These
# tests hold every operation to the same operation on lists of Fractions,
# kept here as the reference, and every result to the stored form that
# ``mat`` builds from its entries: equal matrices must be equal and hash
# equally whatever route built them.

ZERO = Fraction(0)

entries = st.one_of(
    st.just(ZERO),
    rationals,
    st.builds(Fraction, st.integers(min_value=-(10**6), max_value=10**6), st.sampled_from(LARGE_PRIMES)),
)
sizes = st.integers(min_value=0, max_value=4)


@st.composite
def fraction_rows(draw, nrows, ncols):
    """An nrows x ncols list of Fraction rows, some of them zero rows."""
    rows = []
    for _ in range(nrows):
        zero_row = draw(st.integers(min_value=0, max_value=4)) == 0
        rows.append([ZERO] * ncols if zero_row else [draw(entries) for _ in range(ncols)])
    return rows


def lists(m):
    """The entries of m as lists of Fractions, row by row."""
    return [list(m.row(i)) for i in range(m.rows)]


def build(rows, ncols):
    """The Mat of Fraction rows by ``mat``; ``zeros`` when there are none."""
    return mat(rows) if rows else zeros(0, ncols)


def assert_is(m, rows, ncols):
    """m has the entries ``rows`` and the stored form ``build`` gives them:
    each row ``ints / den`` with den > 0 and no common factor, 0/1 if zero."""
    assert (m.rows, m.cols) == (len(rows), ncols)
    for r, d in zip(m._num, m._den):
        assert d > 0 and gcd(d, *r) == 1
        assert any(r) or d == 1
    assert lists(m) == rows
    assert all(m[i, j] == x for i, r in enumerate(rows) for j, x in enumerate(r))
    assert [m.row(i) for i in range(len(rows))] == [tuple(r) for r in rows]
    expected = build(rows, ncols)
    assert m == expected
    assert hash(m) == hash(expected)
    assert repr(m) == repr(expected)


def ref_matmul(a, b, inner, ncols):
    return [[sum((r[k] * b[k][j] for k in range(inner)), ZERO) for j in range(ncols)] for r in a]


def ref_transpose(a, ncols):
    return [[r[j] for r in a] for j in range(ncols)]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mat_algebra_matches_fraction_lists(data):
    n, k, p, extra = (data.draw(sizes) for _ in range(4))
    a = data.draw(fraction_rows(n, k))
    a2 = data.draw(fraction_rows(n, k))
    b = data.draw(fraction_rows(k, p))
    below = data.draw(fraction_rows(extra, k))
    ma, ma2, mb = build(a, k), build(a2, k), build(b, p)
    assert_is(ma, a, k)

    assert_is(ma @ mb, ref_matmul(a, b, k, p), p)
    bt = data.draw(fraction_rows(p, k))
    assert_is(ma.mul_t(build(bt, k)), ref_matmul(a, ref_transpose(bt, k), k, p), p)
    assert_is(ma + ma2, [[x + y for x, y in zip(r, r2)] for r, r2 in zip(a, a2)], k)
    assert_is(ma - ma2, [[x - y for x, y in zip(r, r2)] for r, r2 in zip(a, a2)], k)
    for factor in (ZERO, Fraction(1), Fraction(-1), data.draw(entries), Fraction(data.draw(st.integers(-(2**300), 2**300)), 2**256 - 189)):
        assert_is(ma.scale(factor), [[factor * x for x in r] for r in a], k)
        # b.scale(c, a) is a + c b in one pass, as a + b and a - b are.
        assert_is(ma2.scale(factor, ma), [[x + factor * y for x, y in zip(r, r2)] for r, r2 in zip(a, a2)], k)
    assert_is(ma.T, ref_transpose(a, k), n)
    picked_rows = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=4)) if n else []
    picked_cols = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=4)) if k else []
    assert_is(ma.take(picked_rows), [a[i] for i in picked_rows], k)
    assert_is(ma.take(picked_rows, picked_cols), [[a[i][j] for j in picked_cols] for i in picked_rows], len(picked_cols))
    perm = data.draw(st.permutations(range(k)))
    assert_is(ma.take(picked_rows, perm), [[a[i][j] for j in perm] for i in picked_rows], k)
    assert_is(hstack(ma, ma2), [r + r2 for r, r2 in zip(a, a2)], 2 * k)
    assert_is(vstack(ma, build(below, k)), a + below, k)

    x = [data.draw(entries) for _ in range(k)]
    assert ma.mul_vec(x) == tuple(sum((u * v for u, v in zip(r, x)), ZERO) for r in a)
    assert ma.is_zero() == all(v == 0 for r in a for v in r)


def column_selectors(ncols):
    """Column selectors for ``take``: empty, full, step-1 and step-2
    ranges, lists with repeats, and permutations."""
    bounds = st.tuples(st.integers(0, ncols), st.integers(0, ncols)).map(sorted)
    return st.one_of(
        st.just(range(0)),
        st.just(range(ncols)),
        bounds.map(lambda b: range(*b)),
        bounds.map(lambda b: range(b[0], b[1], 2)),
        st.lists(st.integers(0, ncols - 1), max_size=5) if ncols else st.just([]),
        st.permutations(range(ncols)),
    )


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_take_is_the_matrix_of_the_entries_it_selects(data):
    # Rows over unrelated denominators, zero rows among them, so a slice of
    # a stored row can share a factor with its denominator.
    n, k = data.draw(st.integers(1, 4)), data.draw(sizes)
    m = mat(data.draw(fraction_rows(n, k)))
    rows = data.draw(st.one_of(st.lists(st.integers(0, n - 1), min_size=1, max_size=5), st.permutations(range(n))))
    cols = data.draw(column_selectors(k))
    got = m.take(rows, cols)
    want = mat([[m[i, j] for j in cols] for i in rows])
    assert got == want and repr(got) == repr(want)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_is_symmetric_matches_fraction_lists(data):
    n = data.draw(sizes)
    a = data.draw(fraction_rows(n, n))
    sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    assert build(sym, n).is_symmetric()
    assert build(a, n).is_symmetric() == (a == ref_transpose(a, n))
    if n:
        assert not build([r[:-1] for r in sym], n - 1).is_symmetric()  # not square


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_equal_matrices_built_by_different_routes_are_equal(data):
    n, k = data.draw(sizes), data.draw(sizes)
    a = data.draw(fraction_rows(n, k))
    ma = build(a, k)
    if n:
        # Unreduced strings: every entry p/q written as (p m)/(q m).
        factors = st.lists(st.integers(min_value=1, max_value=30), min_size=k, max_size=k)
        unreduced = [[f"{x.numerator * m}/{x.denominator * m}" for x, m in zip(r, data.draw(factors))] for r in a]
        from_strings = mat(unreduced)
        assert from_strings == ma
        assert hash(from_strings) == hash(ma)
        assert repr(from_strings) == repr(ma)
    assert_is(identity(n) @ ma, a, k)
    assert_is(ma @ identity(k), a, k)
    assert_is(ma.T.T, a, k)
    assert_is(ma.scale(Fraction(-3, 7)).scale(Fraction(-7, 3)), a, k)
    assert_is(build([ma.row(i) for i in range(n)], k), a, k)
    # Elimination outputs are stored rows built without a gcd per entry.
    red, _ = rref(ma)
    assert_is(red, lists(red), k)
    null = kernel(ma)
    assert_is(null, lists(null), k)
    assert (ma @ null.T).is_zero()
    assert null.rows == k - rank(ma)


def test_ragged_rows_are_a_value_error():
    with pytest.raises(ValueError):
        mat([[1, 2], [3]])
    with pytest.raises(ValueError):
        mat([[], [1]])


# ------------------------------------------- determinant by cofactor expansion


def _cofactor_det(rows):
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * x * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # A repeated row, so that singular matrices are common.
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = list(rows[j])
    return mat(rows) if n else zeros(0, 0)


@given(square_matrices())
@settings(max_examples=200, deadline=None)
def test_det_matches_the_cofactor_expansion(m):
    assert det(m) == _cofactor_det(lists(m))


def test_det_by_inspection():
    assert det(mat([[0, 1], [1, 0]])) == -1
    assert det(mat([["1/2", 3], [0, "2/3"]])) == Fraction(1, 3)
    assert det(mat([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError):
        det(mat([[1, 2]]))


# ---------------------------------- kernel and solve against column formulas
#
# ``kernel`` returns its vectors as rows.  Before that it returned columns;
# the column formula is kept here as the reference.  The kernel rows are the
# reduced echelon basis of the span of the old columns, which is unique, so
# the rows are pinned exactly.  ``solve`` returns the columns of MX = B,
# read at the pivots as ``column_solve`` reads them entry by entry.


def column_kernel(m):
    """The free-variable basis of {x : Mx = 0} as the columns of a
    cols x k matrix: the column of free column f is 1 at f and minus
    column f of the reduced rows at the pivots."""
    red, pivots = rref(m)
    free = [f for f in range(m.cols) if f not in pivots]
    cols = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i, f]
        cols.append(v)
    return build([[c[i] for c in cols] for i in range(m.cols)], len(free))


def column_solve(m, b):
    """Some X with MX = B, column by column, or None when a column of B is
    inconsistent: one RREF of [M | B], read at the pivots."""
    red, pivots = rref(hstack(m, b))
    if any(p >= m.cols for p in pivots):
        return None
    x = [[ZERO] * b.cols for _ in range(m.cols)]
    for i, p in enumerate(pivots):
        x[p] = [red[i, m.cols + j] for j in range(b.cols)]
    return build(x, b.cols)


@st.composite
def solve_inputs(draw):
    """a: r x n with zero rows, repeated rows and large-prime entries;
    b: p x n, each row a combination of the rows of a, zero or random."""
    r, n, p = draw(sizes), draw(sizes), draw(sizes)
    rows = draw(fraction_rows(r, n))
    if r >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(r)))[:2]
        rows[i] = list(rows[j])  # singular
    a = build(rows, n)
    out = []
    for _ in range(p):
        kind = draw(st.sampled_from(["combination", "zero", "random"]))
        if kind == "combination":
            out.append(list((mat([[draw(entries) for _ in range(r)]]) @ a).row(0)) if r else [ZERO] * n)
        elif kind == "zero":
            out.append([ZERO] * n)
        else:
            out.append([draw(entries) for _ in range(n)])
    return a, build(out, n)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_rows_are_the_old_kernel_columns(data):
    n, k = data.draw(sizes), data.draw(sizes)
    m = build(data.draw(fraction_rows(n, k)), k)
    red, pivots = rref(column_kernel(m).T)
    assert kernel(m) == red.take(range(len(pivots)))


@given(solve_inputs())
@settings(max_examples=300, deadline=None)
def test_solve_is_the_column_solve(data):
    # The strategy draws the rows of b from the row space of a, so the
    # columns of b^T are drawn from the column space of a^T.
    a, b = data
    got = solve(a.T, b.T)
    ref = column_solve(a.T, b.T)
    assert (got is None) == (ref is None)
    if got is None:
        return
    assert (got.rows, got.cols) == (a.rows, b.rows)
    assert a.T @ got == b.T
    # Both give 0 at a free column, so they are the same solution even
    # where it is not unique.
    assert got == ref


# ------------------------------------------ rref against Gauss-Jordan
#
# ``rref`` eliminates forward below each pivot, then finishes the pivot
# rows from the last one up.  The Gauss-Jordan elimination it replaced is
# kept here verbatim as the reference: a reduced row echelon form is
# unique, so both must store the same rows, hash alike and report the same
# pivots.


def _gj_reduced(row):
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def gauss_jordan_rref(m):
    """Each pivot updates every other row across the full width, and each
    update ends in a gcd reduction."""
    work = [_gj_reduced(list(row)) for row in m._num]
    pivots = []
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
                g = gcd(p, f)
                pr, fr = p // g, f // g
                work[r] = _gj_reduced([pr * x - fr * y if y else pr * x for x, y in zip(work[r], prow_vals)])
        pivots.append(pcol)
        prow += 1
    out = []
    for i, pc in enumerate(pivots):
        row, p = work[i], work[i][pc]
        out.append((tuple(row), p) if p > 0 else (tuple([-x for x in row]), -p))
    out.extend([((0,) * m.cols, 1)] * (m.rows - len(pivots)))
    return linalg._from_rows(m.cols, out), tuple(pivots)


def assert_rref_is_gauss_jordan(m):
    red, pivots = rref(m)
    ref, ref_pivots = gauss_jordan_rref(m)
    assert red == ref
    assert hash(red) == hash(ref)
    assert pivots == ref_pivots


@st.composite
def rref_inputs(draw):
    """0..6 x 0..9, with zero rows, large-prime entries, and a duplicated or
    scaled row (rank-deficient) in half of the multi-row draws."""
    n = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.integers(min_value=0, max_value=9))
    rows = draw(fraction_rows(n, k))
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        factor = draw(st.one_of(st.just(Fraction(1)), entries))
        rows[i] = [factor * x for x in rows[j]]
    return build(rows, k)


@given(rref_inputs())
@settings(max_examples=400, deadline=None)
def test_rref_is_the_gauss_jordan_rref(m):
    assert_rref_is_gauss_jordan(m)


def test_rref_of_a_wide_matrix_with_400_bit_entries():
    # The shape of the extend-large benchmark inputs: 12 x 24, each row
    # 400-bit integers over its own 400-bit denominator, one row a
    # combination of two others.
    rng = random.Random(13)
    dens = [rng.getrandbits(400) | 1 for _ in range(11)]
    rows = [[Fraction(rng.getrandbits(400) - 2**399, d) for _ in range(24)] for d in dens]
    rows.insert(5, [Fraction(3, 7) * x - y for x, y in zip(rows[0], rows[9])])
    m = mat(rows)
    assert_rref_is_gauss_jordan(m)
    assert rank(m) == 11


# ------------------------------------------ the pivot row does not matter
#
# ``_eliminate`` pivots on the row with the least |entry| in the pivot
# column.  That choice moves only the size of the intermediate integers:
# the reduced echelon form of a row space is unique, and so are its pivot
# columns, so any order of the input rows gives the same stored rows.

int_entries = st.one_of(st.integers(min_value=-9, max_value=9), st.integers(min_value=-(2**80), max_value=2**80))


@st.composite
def planted_int_rows(draw, nrows, ncols):
    """An nrows x ncols list of integer rows, or half the time one of rank
    below both sides: a product through a smaller inner dimension, the
    zero matrix when that is 0."""
    entries = lambda n, k: [[draw(int_entries) for _ in range(k)] for _ in range(n)]
    if draw(st.booleans()) or min(nrows, ncols) == 0:
        return entries(nrows, ncols)
    inner = draw(st.integers(min_value=0, max_value=min(nrows, ncols) - 1))
    left, right = entries(nrows, inner), entries(inner, ncols)
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*right)] if inner else [0] * ncols for r in left]


@given(st.integers(0, 5).flatmap(lambda n: st.integers(0, 6).flatmap(lambda k: st.tuples(st.just(k), planted_int_rows(n, k)))))
@settings(max_examples=100, deadline=None)
def test_eliminate_gives_the_same_rows_for_every_order_of_its_input(data):
    ncols, rows = data
    expected = linalg._eliminate([list(r) for r in rows], ncols)
    for order in itertools.permutations(rows):
        assert linalg._eliminate([list(r) for r in order], ncols) == expected


@given(
    st.integers(0, 4).flatmap(lambda nb: st.integers(0, 4).flatmap(
        lambda na: st.tuples(st.just(nb), st.just(na), planted_int_rows(3, nb + na), planted_int_rows(2, nb + na))
    )),
    st.integers(-3, 3),
)
@settings(max_examples=150, deadline=None)
def test_zassenhaus_gives_the_same_rows_for_either_order_of_its_blocks(data, f):
    nb, na, xs, ys = data
    ncols = nb + na
    x = (build(xs, ncols), (0, 1, 0, ncols))
    # The second block's b-part scaled by f, its a-part placed as it is.
    y = (build(ys, ncols), (0, f, 0, nb), (nb, 1, nb, ncols))
    assert zassenhaus(nb, ncols, x, y) == zassenhaus(nb, ncols, y, x)


def test_eliminate_pivots_on_the_least_entry_of_the_pivot_column():
    # The unit row [1, 5] pivots, not the first row [6, 1]; ``_eliminate``
    # leaves the pivot rows in ``work``.
    work = [[6, 1], [1, 5]]
    done, pivots = linalg._eliminate(work, 2)
    assert work[0] == [1, 5]
    assert pivots == [0, 1]
    assert done == [((1, 0), 1), ((0, 1), 1)]


# ------------------------------------------ L D L^T certificates
#
# ``PsdCertificate.verify`` peels D_i L_ri (column i of L)^T off each row
# of P^T M P in integers and forms no product matrix.  The matrix product
# is the reference: on every certificate, tampered or not, and on every
# matrix, symmetric or not, ``verify`` must give what the reference gives.


def ref_reconstruct(cert):
    """L D L^T as a matrix product, with L the transpose of the stored columns."""
    d, cols = cert.diag, cert.lower_cols
    return cols.T @ mat([[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)]) @ cols


def ref_verify(cert, m):
    is_perm = sorted(cert.perm) == list(range(m.rows))
    return is_perm and all(d >= 0 for d in cert.diag) and m.take(cert.perm, cert.perm) == ref_reconstruct(cert)


@st.composite
def psd_inputs(draw):
    """C C^T for a random C, in half of the draws with row and column r
    scaled by 1/p_r, p_r a large prime."""
    n = draw(st.integers(min_value=0, max_value=6))
    g = _tall_gram(draw, n)
    if n and draw(st.booleans()):
        ps = [draw(st.sampled_from(LARGE_PRIMES)) for _ in range(n)]
        g = mat([[g[r, c] / (ps[r] * ps[c]) for c in range(n)] for r in range(n)])
    return g


nonzero_entries = entries.map(lambda x: x or Fraction(1))


def _with_lower_entry(cert, i, j, change):
    """``cert`` with L[i][j], stored as entry i of column j, changed."""
    cols = lists(cert.lower_cols)
    cols[j][i] += change
    return PsdCertificate(cert.perm, mat(cols), cert.diag)


def tampered(cert, data):
    """Certificates with one D entry raised or made negative, one L entry
    changed below the diagonal, above it or on it (so L is no longer unit
    lower triangular), two perm entries swapped, or one perm entry copied
    over another (so perm is no longer a permutation)."""
    n = len(cert.perm)
    out = []
    if n:
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        d = list(cert.diag)
        d[i] += data.draw(st.sampled_from([Fraction(1), Fraction(1, 2**61 - 1), Fraction(7, 3), -d[i] - 1]))
        out.append(PsdCertificate(cert.perm, cert.lower_cols, tuple(d)))
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        out.append(_with_lower_entry(cert, i, i, data.draw(nonzero_entries)))
    if n >= 2:
        i, j = sorted(data.draw(st.permutations(range(n)))[:2])
        out.append(_with_lower_entry(cert, j, i, data.draw(nonzero_entries)))
        out.append(_with_lower_entry(cert, i, j, data.draw(nonzero_entries)))
        a, b = data.draw(st.permutations(range(n)))[:2]
        perm = list(cert.perm)
        perm[a], perm[b] = perm[b], perm[a]
        out.append(PsdCertificate(tuple(perm), cert.lower_cols, cert.diag))
        perm[a] = perm[b]
        out.append(PsdCertificate(tuple(perm), cert.lower_cols, cert.diag))
    return out


def _nonsymmetric(m, data):
    """m with one entry off the diagonal changed, for n >= 2."""
    i, j = data.draw(st.permutations(range(m.rows)))[:2]
    rows = lists(m)
    rows[i][j] += data.draw(nonzero_entries)
    return mat(rows)


def _reproduced(cert):
    """The matrix M with P^T M P = L D L^T: what ``cert`` factors, tampered
    or not."""
    ldlt = ref_reconstruct(cert)
    n = len(cert.perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for a, i in enumerate(cert.perm):
        for b, j in enumerate(cert.perm):
            rows[i][j] = ldlt[a, b]
    return mat(rows)


@given(psd_inputs(), st.data())
@settings(max_examples=200, deadline=None)
def test_verify_equals_the_reference_product(m, data):
    # Each certificate is judged against m, against m made nonsymmetric, and
    # against the matrix it does reproduce, which it must certify unless D
    # has a negative entry, whatever the shape of its L.
    cert = ldl_psd_certificate(m).certificate
    assert cert.verify(m)
    skewed = [_nonsymmetric(m, data)] if m.rows >= 2 else []
    for c in [cert, *tampered(cert, data)]:
        for target in [m, _reproduced(c), *skewed]:
            assert c.verify(target) == ref_verify(c, target)


def test_verify_rejects_each_tampered_entry_of_a_pinned_certificate():
    m = mat([[4, 2, 0], [2, 5, 3], ["0", 3, "7/2"]])
    cert = ldl_psd_certificate(m).certificate
    assert cert.verify(m)
    assert cert.diag[1] != 0
    d = list(cert.diag)
    d[2] += 1
    perm = list(cert.perm)
    perm[0], perm[2] = perm[2], perm[0]
    tampered_certs = (
        PsdCertificate(cert.perm, cert.lower_cols, tuple(d)),
        _with_lower_entry(cert, 2, 1, Fraction(1, 5)),
        PsdCertificate(tuple(perm), cert.lower_cols, cert.diag),
    )
    for bad in tampered_certs:
        assert not bad.verify(m)


def test_hstack_with_a_side_without_columns_is_the_other_side():
    a = mat([[1, 2], [3, Fraction(1, 2)]])
    assert hstack(a, zeros(2, 0)) is a
    assert hstack(zeros(2, 0), a) is a
    # The row counts are checked first.
    with pytest.raises(ValueError, match="row count"):
        hstack(a, zeros(3, 0))
    with pytest.raises(ValueError, match="row count"):
        hstack(zeros(1, 0), a)


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_is_reduced_echelon_means_being_its_own_rref(m):
    red, pivots = rref(m)
    assert is_reduced_echelon(red.take(range(len(pivots))))
    assert is_reduced_echelon(m) == (red == m and len(pivots) == m.rows)


# ------------------------------------------- null spaces on integer rows


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_null_spaces_equal_the_reversed_kernel_and_the_pairing_products(data):
    n, k = data.draw(sizes), data.draw(sizes)
    a = data.draw(fraction_rows(n, k))
    # The construction kernel replaced: the free-variable kernel of the
    # columns reversed, each vector reversed back and their order reversed.
    back = column_kernel(build([r[::-1] for r in a], k)).T
    assert_is(kernel(build(a, k)), [list(back.row(i))[::-1] for i in reversed(range(back.rows))], k)

    # The rows [g L | -f R], joined in integers over each row's lcm, against
    # the same rows assembled from Fractions.
    m = data.draw(sizes)
    basis = build(data.draw(fraction_rows(n, k + m)), k + m)
    left, right = build(data.draw(fraction_rows(m, m)), m), build(data.draw(fraction_rows(k, k)), k)
    firsts, seconds = basis.take(range(n), range(k)), basis.take(range(n), range(k, k + m))
    gl, fr = seconds @ left, firsts @ right
    expected = kernel(build([[*gl.row(i), *(-x for x in fr.row(i))] for i in range(n)], m + k))
    assert_is(pairing_null_space(gl, fr), lists(expected), k + m)


huge = st.integers(min_value=-(2**1000), max_value=2**1000)
string_entries = st.one_of(
    st.just(ZERO),
    st.integers(min_value=-9, max_value=9).map(Fraction),
    entries,
    st.builds(Fraction, huge, st.integers(min_value=1, max_value=2**1000)),
)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_strings_are_the_fraction_strings_of_the_stored_rows(data):
    n, k = data.draw(sizes), data.draw(sizes)
    rows = [[data.draw(string_entries) for _ in range(k)] for _ in range(n)]
    assert build(rows, k).to_strings() == [[str(x) for x in r] for r in rows]
    # Inside a stored row an entry and the denominator may share a factor.
    x, d = data.draw(huge), data.draw(st.integers(min_value=1, max_value=2**1000) | st.sampled_from([1, 2, 6]))
    assert linalg._rational_str(x, d) == str(Fraction(x, d))
    assert linalg._rational_str(x * d, d) == str(x)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_to_strings_prints_each_stored_entry_as_its_fraction(data):
    # Stored rows with entries 0, d and -d (the zeros and leading ones of a
    # reduced echelon row) among others; gcd(d, 2d + 1) == 1 keeps each row
    # in stored form.
    d = data.draw(st.sampled_from([1, 2, 6]) | st.integers(min_value=1, max_value=2**200))
    k = data.draw(st.integers(min_value=1, max_value=5))
    others = st.integers(min_value=-(2**200), max_value=2**200)
    rows = [tuple(data.draw(st.sampled_from([0, d, -d]) | others) for _ in range(k)) + (2 * d + 1,) for _ in range(data.draw(sizes))]
    m = linalg.Mat(len(rows), k + 1, tuple(rows), (d,) * len(rows))
    assert m.to_strings() == [[str(Fraction(x, d)) for x in r] for r in rows]
