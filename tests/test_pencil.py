"""The lower bound on the polynomial det(M - cG) against LDL^T per step.

``bound_bisect`` decides each bisection step from the exact polynomial
p(c) = det(M - cG) (``pencil_psd``) and runs the verified LDL^T certificate
only at the bracket ends.  These tests hold the polynomial decision equal
to ``certify_lower_bound(t, c).ok``, the bracket equal to the one a
bisection with one LDL^T per step finds, kept here as the reference, and
the estimate equal to the bound rounded to the nearest float.  The forms
live on domains with non-identity Grams; the families plant negative
directions, singular form matrices and bounds attained at a rational.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relcalc import forms
from relcalc.errors import CrossCheckError
from relcalc.forms import (
    QuadraticForm,
    _simplest_in,
    bound_bisect,
    certify_lower_bound,
    pencil_polynomial,
    pencil_psd,
)
from relcalc.linalg import clear_memos, identity, mat, zeros
from relcalc.spaces import InnerProductSpace, gram_on, span, standard_space

from relation_builders import full_subspace

TINY = Fraction(1, 2**300)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def weighted_space(draw, n):
    b = mat([[draw(rationals) for _ in range(n)] for _ in range(n)])
    # The all-ones term keeps the Gram off the identity even when b is zero.
    ones = mat([[1] * n for _ in range(n)])
    return InnerProductSpace(n, (b.T @ b) + identity(n) + ones)


def _square(draw, k):
    return [[draw(rationals) for _ in range(k)] for _ in range(k)]


def _psd_of_rank_at_most(draw, k, r):
    """C^T C for a random r x k matrix C."""
    if r == 0:
        return zeros(k, k)
    c = mat([[draw(rationals) for _ in range(k)] for _ in range(r)])
    return c.T @ c


@st.composite
def bounded_forms(draw):
    """A form t on a domain with a weighted Gram, the base points at which
    its decision is most delicate, and its bound when the family plants
    it (else None)."""
    space = draw(weighted_space(draw(st.integers(min_value=1, max_value=4))))
    dom = span(space, [[draw(rationals) for _ in range(space.dim)] for _ in range(draw(st.integers(1, space.dim)))])
    k = dom.dim
    assume(k >= 1)
    family = draw(st.sampled_from(["random", "planted", "singular", "attained"]))
    special = [Fraction(0)]
    gamma = None
    if family == "random":
        a = _square(draw, k)
        m = mat([[a[i][j] + a[j][i] for j in range(k)] for i in range(k)])
    elif family == "planted":
        # Replace one diagonal entry by a negative one: a negative direction.
        rows = _psd_of_rank_at_most(draw, k, draw(st.integers(0, k))).to_lists()
        i = draw(st.integers(0, k - 1))
        rows[i][i] = -draw(st.integers(min_value=1, max_value=5))
        m = mat(rows)
    elif family == "singular":
        # A zeroed row and column: det M = 0, and M may be indefinite.
        a = _square(draw, k)
        z = draw(st.integers(0, k - 1))
        m = mat([[0 if z in (i, j) else a[i][j] + a[j][i] for j in range(k)] for i in range(k)])
    else:
        # gamma G + C^T C with rank C < k: the bound gamma is attained.
        gamma = draw(rationals)
        m = gram_on(dom).scale(gamma) + _psd_of_rank_at_most(draw, k, draw(st.integers(0, k - 1)))
        special += [gamma, gamma - TINY, gamma + TINY]
    t = QuadraticForm(space, dom, m)
    est = bound_bisect(t, Fraction(1, 64)).estimate
    if est is not None:
        special.append(Fraction(est))
    return t, special, gamma


@given(bounded_forms(), st.lists(rationals, max_size=3))
@settings(max_examples=300, deadline=None)
def test_polynomial_decision_equals_the_ldl_certificate(form, points):
    t, special, _ = form
    clear_memos()
    p = pencil_polynomial(t)
    for c in special + points:
        assert pencil_psd(p, c) == certify_lower_bound(t, c).ok, c


def two_plus_square():
    """t = 2 + (x1 - x2)^2 on Q^2: the bound 2 is attained on (1, 1)."""
    q2 = standard_space(2)
    return QuadraticForm(q2, full_subspace(q2), mat([[3, -1], [-1, 3]]))


def test_attained_bound_flips_within_two_to_the_minus_300():
    p = pencil_polynomial(two_plus_square())
    assert p == (8, -6, 1)  # (c - 2)(c - 4)
    assert pencil_psd(p, Fraction(2)) and pencil_psd(p, 2 - TINY)
    assert not pencil_psd(p, 2 + TINY)


@given(bounded_forms(), st.sampled_from([Fraction(1, 64), Fraction(1, 2**256)]))
@settings(max_examples=100, deadline=None)
def test_estimate_is_the_bound_rounded(form, width):
    t, _, gamma = form
    clear_memos()
    interval = bound_bisect(t, width)
    assert float(interval.lo) <= interval.estimate <= float(interval.hi)
    if gamma is not None:
        assert interval.estimate == float(gamma)


def test_estimate_of_an_attained_integer_bound_is_exact():
    assert bound_bisect(two_plus_square(), Fraction(1, 64)).estimate == 2.0


@pytest.mark.parametrize("width", [Fraction(1, 64), Fraction(1, 2**256)], ids=["1/64", "2^-256"])
@pytest.mark.parametrize(
    "gamma",
    [
        1 + Fraction(1, 2**53),  # halfway between 1 and 1 + 2^-52: rounds down to even
        1 + Fraction(3, 2**53),  # halfway between 1 + 2^-52 and 1 + 2^-51: rounds up to even
        # A tie just below 1/3 that rounds down to even; the pin moves the
        # refuted end to 1/3, and no midpoint from there is dyadic.
        Fraction(12009599006321321, 2**55),
    ],
)
def test_estimate_of_a_bound_halfway_between_floats(gamma, width):
    # No bisection midpoint need ever equal the tie, so only the test of
    # the tie itself ends the search.
    q1 = standard_space(1)
    t = QuadraticForm(q1, full_subspace(q1), mat([[gamma]]))
    assert bound_bisect(t, width).estimate == float(gamma)


def test_zero_form_estimate_needs_no_search_toward_the_smallest_float(monkeypatch):
    # gamma = 0 is a root of p at the certified end, so the estimate is read
    # off at once; halving toward 0 from above would take over 1000 steps.
    space = InnerProductSpace(2, mat([[2, 1], [1, 2]]))
    t = QuadraticForm(space, full_subspace(space), zeros(2, 2))
    calls = []
    real = pencil_psd
    monkeypatch.setattr(forms, "pencil_psd", lambda p, c: calls.append(c) or real(p, c))
    interval = bound_bisect(t, Fraction(1, 64))
    assert (interval.lo, interval.estimate) == (0, 0.0)
    assert len(calls) < 20


def _ldl_bisect(t, width):
    """The bisection of ``bound_bisect`` with one verified LDL^T per step,
    from the integer floor n of the bound that LDL^T decides by unit
    steps from 0.  The bound is n exactly when t - n is singular, so its
    LDL^T has a zero pivot."""

    def psd(c):
        return certify_lower_bound(t, c).ok

    n = 0
    while psd(n + 1):
        n += 1
    while not psd(n):
        n -= 1
    lo = Fraction(n - 1)
    hi = Fraction(n + 1 if 0 in certify_lower_bound(t, n).cert.diag else n + 2)
    while hi - lo > width:
        mid = (hi + lo) / 2
        if psd(mid):
            lo = mid
        else:
            hi = mid
    cand = _simplest_in(lo, hi)
    if cand != lo:
        if psd(cand):
            lo = cand
        else:
            hi = cand
    return lo, hi


@given(bounded_forms(), st.sampled_from([Fraction(1, 64), Fraction(1, 2**256)]))
@settings(max_examples=60, deadline=None)
def test_bracket_equals_the_ldl_per_step_bisection(form, width):
    t, _, _ = form
    clear_memos()
    interval = bound_bisect(t, width)
    assert (interval.lo, interval.hi) == _ldl_bisect(t, width)


@pytest.mark.parametrize("forced_c", [10, -10], ids=["refutes-lo", "certifies-hi"])
def test_ldl_disagreeing_at_a_bracket_end_is_a_cross_check_error(monkeypatch, forced_c):
    # The polynomial certifies lo = 2 and refutes the hi above it; the
    # planted LDL^T answers as at c = 10 (refuted) or c = -10 (certified)
    # wherever it is asked, so it contradicts one end.
    t = two_plus_square()
    clear_memos()
    real = certify_lower_bound
    monkeypatch.setattr(forms, "certify_lower_bound", lambda form, c: real(form, forced_c))
    with pytest.raises(CrossCheckError):
        bound_bisect(t, Fraction(1, 64))


@pytest.mark.parametrize("answer", [True, False], ids=["always-psd", "never-psd"])
def test_a_decision_that_never_flips_is_a_cross_check_error(monkeypatch, answer):
    # A polynomial decision that never refutes (or never certifies) would
    # double the bracket end forever; past Cauchy's root bound it must fail.
    t = two_plus_square()
    clear_memos()
    monkeypatch.setattr(forms, "pencil_psd", lambda p, c: answer)
    with pytest.raises(CrossCheckError, match="Cauchy root bound"):
        bound_bisect(t, Fraction(1, 64))
