"""Exact linear algebra kernel tests.

Expected values here are either immediate by inspection or frozen from a
hand Gaussian elimination; the hypothesis blocks check the algebraic
invariants on random rational inputs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcalc.errors import CrossCheckError
from relcalc.linalg import (
    Mat,
    PsdCertificate,
    clear_memos,
    from_cols,
    hstack,
    identity,
    kernel,
    ldl_psd_certificate,
    mat,
    quad_form,
    rank,
    rref,
    solve,
    solve_mat,
    vec,
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
    assert k.cols == 0


def test_kernel_zero_matrix():
    assert kernel(zeros(2, 2)) == identity(2)


def test_kernel_single_equation():
    m = mat([[1, 3]])
    k = kernel(m)
    assert k.cols == 1
    assert (m @ k).is_zero()
    # Same line as (3, -1).
    assert rank(hstack(k, from_cols(2, [vec([3, -1])]))) == 1


def test_solve_identity():
    assert solve(identity(2), vec([1, 2])) == vec([1, 2])


def test_solve_underdetermined():
    m = mat([[1, 3]])
    x = solve(m, vec([4]))
    assert x is not None
    assert m.mul_vec(x) == vec([4])


def test_solve_inconsistent():
    assert solve(mat([[1], [0]]), vec([0, 1])) is None


def test_ldl_scalar():
    res = ldl_psd_certificate(mat([[4]]))
    assert res.ok
    assert res.certificate.lower == mat([[1]])
    assert res.certificate.diag == vec([4])


def test_ldl_rank_one_pivots_to_larger_diagonal():
    m = mat([[1, 3], [3, 9]])
    res = ldl_psd_certificate(m)
    assert res.ok
    cert = res.certificate
    assert cert.diag == vec([9, 0])
    assert cert.verify(m)


def test_ldl_indefinite_counterexample():
    m = mat([[0, 1], [1, 0]])
    res = ldl_psd_certificate(m)
    assert not res.ok
    v = res.counterexample
    assert quad_form(m, v) == Fraction(-2)


def test_ldl_certificate_mismatch_is_a_cross_check_error(monkeypatch):
    monkeypatch.setattr(PsdCertificate, "verify", lambda self, m: False)
    clear_memos()
    with pytest.raises(CrossCheckError):
        ldl_psd_certificate(mat([[2, 1], [1, 3]]))


def test_ldl_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        ldl_psd_certificate(mat([[0, 1], [0, 0]]))


def test_ldl_empty_matrix():
    res = ldl_psd_certificate(Mat(0, 0, ()))
    assert res.ok


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_rank_nullity(m):
    red, pivots = rref(m)
    again, pivots2 = rref(red)
    assert again == red
    assert pivots2 == pivots
    k = kernel(m)
    assert (m @ k).is_zero()
    assert len(pivots) + k.cols == m.cols


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_solve_membership(m):
    # Mx for a fixed x must be solvable, and the residual must vanish.
    x = vec([Fraction(i + 1, 2) for i in range(m.cols)])
    b = m.mul_vec(x)
    got = solve(m, b)
    assert got is not None
    assert m.mul_vec(got) == b


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_gram_matrices_certify_psd(m):
    gram = m.T @ m
    res = ldl_psd_certificate(gram)
    assert res.ok
    cert = res.certificate
    assert all(d >= 0 for d in cert.diag)
    assert cert.permuted(gram) == cert.reconstruct()


@given(matrices, st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_planted_negative_direction_is_caught(m, idx):
    gram = m.T @ m
    n = gram.rows
    i = idx % n
    # Subtract enough of e_i e_i^T to plant a negative eigendirection.
    planted = [[gram.data[r][c] for c in range(n)] for r in range(n)]
    planted[i][i] -= gram.data[i][i] + 1
    planted_m = mat(planted)
    res = ldl_psd_certificate(planted_m)
    assert not res.ok
    assert quad_form(planted_m, res.counterexample) < 0


def test_solve_mat_multiple_rhs():
    m = mat([[1, 1], [0, 1]])
    b = mat([[3, 0], [1, 2]])
    x = solve_mat(m, b)
    assert x is not None
    assert m @ x == b
